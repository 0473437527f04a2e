//! `perfbench`: the repository's end-to-end benchmark for recurring
//! queries.
//!
//! One invocation runs one workload in one process:
//!
//! 1. **Timed passes** (tracing off), repeated until `--seconds` have
//!    passed and at least [`MIN_TIMED_PASSES`] ran. Each pass generates
//!    the inputs from `--seed`, builds cluster, sources and executors
//!    (`setup_s`), and steps the deployment to completion
//!    (`records_per_cpu_s`). Both are measured in process CPU time, which
//!    a virtual machine's stolen time does not inflate, and reported from
//!    the best pass: the fastest set-up and the fastest run. Interference
//!    from other tenants (shared caches, memory bandwidth) only ever slows
//!    a pass, so the best pass is the steadiest estimate of the code's own
//!    cost, while a change that slows every pass still shows. Arrivals follow
//!    the workload's event-time plan whatever the simulated cluster's
//!    speed (an open loop in simulated time), so windows that queue
//!    behind others show it in their response time.
//! 2. **Verification pass**: the same deployment again, with every
//!    window's outputs checked against the plain-Hadoop recompute. With
//!    `--trace 1` this pass also records benchmark-side spans and the
//!    program's trace journal and yields the per-layer metrics.
//!
//! Every pass digests its simulated results (responses, cache counts,
//! output bytes); any drift between passes fails the run. The last line
//! of standard output is a JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `--workload all` runs every workload, untraced
//! then traced, each in a child process.
//!
//! Run from the repository root:
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload agg-delta`

mod cpuclock;
mod json;
mod layers;
mod spans;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use redoop_mapred::trace::{set_global_sink, TraceSink};

use crate::json::Access;
use crate::layers::{Metrics, TracedPass, END_TO_END, PER_LAYER};
use crate::workload::{Inputs, Oracle, Pass, Recorder, Rig, Workload};

const USAGE: &str = "usage: perfbench --workload <agg-delta|join-evict|fleet-bursty|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 2014;

/// Seconds of timed passes when `--seconds` is not given: the
/// `run_seconds` of `BENCHMARK.json`, whose bounds were set at this length.
const DEFAULT_SECONDS: f64 = 20.0;

/// Timed passes per invocation, at least (throughput is reported from the
/// fastest of them).
const MIN_TIMED_PASSES: usize = 3;

/// Set-ups per invocation, at least: when the timed passes leave fewer,
/// extra set-ups are timed and their systems dropped unrun, so a workload
/// whose set-up is short next to its run still reports a steady fastest
/// `setup_s`.
const MIN_SETUPS: usize = 11;

/// Host worker threads, at most (the pool is pinned to
/// `min(available cores, this)`).
const MAX_HOST_THREADS: usize = 2;

/// Journal ring capacity for the traced pass: large enough that nothing
/// is dropped on any workload.
const TRACE_CAPACITY: usize = 1 << 24;

struct Args {
    /// `None` runs every workload.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = Args {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
        };
        let mut named = false;
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    named = true;
                    if value != "all" {
                        args.workload = Some(
                            Workload::parse(&value)
                                .ok_or_else(|| format!("unknown workload `{value}`"))?,
                        );
                    }
                }
                "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
                "--seconds" => {
                    args.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("bad seconds `{value}`"))?
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad trace flag `{value}`")),
                    }
                }
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        if !named {
            return Err("`--workload` is required".into());
        }
        Ok(args)
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload {
        Some(w) => run_workload(w, &args),
        None => run_all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Pins the host worker pool and returns its size.
fn pin_host_threads() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = cores.min(MAX_HOST_THREADS);
    redoop_mapred::exec::set_host_parallelism(Some(threads));
    threads
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Generates the inputs and builds the system, untraced; returns the
/// process CPU seconds that took and the built system.
fn time_setup(workload: Workload, seed: u64) -> (f64, Rig) {
    let cpu_before = cpuclock::process_cpu_s();
    let rig = Rig::build(
        workload,
        Inputs::generate(workload, seed),
        Recorder::new(false, 0),
    );
    (cpuclock::process_cpu_s() - cpu_before, rig)
}

/// Running tally of windows attempted and failed across passes, and of
/// simulated-result drift.
struct Tally {
    attempted: u64,
    failed: u64,
    digest: Option<u64>,
    drifted: bool,
}

impl Tally {
    /// Records one finished pass: windows that did not fire count as
    /// failed, and a pass whose digest differs from the first fails all
    /// its windows.
    fn pass(&mut self, workload: Workload, label: &str, pass: &Pass, digest: u64) {
        let (expected, fired) = (workload.reports(), pass.fired.len() as u64);
        self.attempted += expected;
        self.failed += expected - fired;
        if let Some(e) = &pass.error {
            println!("{label}: stopped after {fired}/{expected} windows: {e}");
        }
        match self.digest {
            None => self.digest = Some(digest),
            Some(d) if d != digest => {
                println!(
                    "{label}: simulated results drifted (digest {digest:016x}, first {d:016x})"
                );
                self.drifted = true;
                self.failed += fired;
            }
            Some(_) => {}
        }
    }
}

fn run_workload(workload: Workload, args: &Args) -> Result<bool, String> {
    let threads = pin_host_threads();
    println!(
        "perfbench workload={} seed={} seconds={} trace={} host_threads={threads}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("shape: {}", workload.shape());

    let mut tally = Tally {
        attempted: 0,
        failed: 0,
        digest: None,
        drifted: false,
    };
    let (mut setup_s, mut cpu_s, mut rates, mut wall_rates, mut parallelism) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut peak_rss = None;
    let started = Instant::now();
    while cpu_s.len() < MIN_TIMED_PASSES || started.elapsed().as_secs_f64() < args.seconds {
        let (secs, mut rig) = time_setup(workload, args.seed);
        setup_s.push(secs);
        let pass = rig.drive(None);
        cpu_s.push(pass.cpu_s);
        rates.push(rig.records as f64 / pass.cpu_s);
        wall_rates.push(rig.records as f64 / pass.run_s);
        parallelism.push(pass.cpu_s / pass.run_s);
        let label = format!("timed pass {}", cpu_s.len());
        tally.pass(workload, &label, &pass, rig.digest(&pass.fired));
        // One pass's footprint: later passes would add allocator
        // fragmentation that depends on how many passes fit in the time.
        if peak_rss.is_none() {
            peak_rss = Some(peak_rss_mb()?);
        }
    }
    while setup_s.len() < MIN_SETUPS {
        setup_s.push(time_setup(workload, args.seed).0);
    }

    // Verification pass: every window against the recompute oracle; with
    // --trace 1 also the traced pass. The global sink is installed only
    // while the system is built, so the oracle's own simulator stays
    // untraced.
    let inputs = Inputs::generate(workload, args.seed);
    let mut oracle = Oracle::new(workload, &inputs);
    let sink = args.trace.then(|| TraceSink::with_capacity(TRACE_CAPACITY));
    let recorder = Recorder::new(args.trace, 1);
    set_global_sink(sink.clone());
    let mut rig = Rig::build(workload, inputs, recorder.clone());
    set_global_sink(None);
    let pass = rig.drive(Some(&mut oracle));
    tally.pass(
        workload,
        "verification pass",
        &pass,
        rig.digest(&pass.fired),
    );
    tally.failed += oracle.mismatches;
    if oracle.mismatches > 0 {
        println!(
            "oracle: {} of {} windows disagree with the recompute",
            oracle.mismatches, oracle.checked
        );
    }
    let fail_ratio = tally.failed as f64 / tally.attempted as f64;
    let correct = tally.failed == 0 && !tally.drifted;

    let responses: Vec<f64> = pass
        .fired
        .iter()
        .map(|f| f.report.response.as_secs_f64())
        .collect();
    let n = responses.len();
    println!(
        "timed passes: {}, set-ups: {}, records per pass: {}, windows checked: {}, digest {:016x}",
        cpu_s.len(),
        setup_s.len(),
        rig.records,
        oracle.checked,
        tally.digest.unwrap_or(0)
    );
    for (what, values) in [("CPU", &rates), ("wall-clock", &wall_rates)] {
        let [q1, q2, q3] = stats::quartiles(values);
        println!(
            "records per {what} second over timed passes: quartiles {q1:.0} / {q2:.0} / {q3:.0}"
        );
    }

    let mut e2e = Metrics::default();
    e2e.set(
        "setup_s",
        setup_s.iter().copied().fold(f64::INFINITY, f64::min),
    );
    e2e.set(
        "records_per_cpu_s",
        rates.iter().copied().fold(0.0, f64::max),
    );
    if n > 0 {
        e2e.set("response_p50_s", stats::percentile(&responses, 500));
        e2e.set("response_p95_s", stats::percentile(&responses, 950));
        e2e.set("response_max_s", stats::percentile(&responses, 1000));
    }
    e2e.set("peak_rss_mb", peak_rss.expect("at least one timed pass"));
    print_section("end-to-end", &e2e, END_TO_END, n);
    println!("  {:<30} {fail_ratio:>16} ratio", "window_fail_ratio");
    if stats::highest_tail(n).is_none_or(|pm| pm < 950) {
        println!("response_p95_s: {n} window samples leave fewer than ten beyond p95");
        return Ok(false);
    }

    let metrics = if args.trace {
        let sink = sink.expect("traced pass has a sink");
        let events = sink.events();
        let rec = recorder.borrow();
        let layer = layers::per_layer(&TracedPass {
            pass: &pass,
            recorder: &rec,
            events: &events,
            dropped: sink.dropped(),
            untraced_cpu_s: stats::median(&cpu_s),
            untraced_records_per_s: stats::median(&wall_rates),
            untraced_parallelism: stats::median(&parallelism),
            fail_ratio,
        });
        print_section("per-layer (traced pass)", &layer, PER_LAYER, n);
        println!("workload design (predictions, not gates):");
        for (prediction, held) in layers::design_checks(workload, &layer) {
            println!("  [{}] {prediction}", if held { "holds" } else { "FAILS" });
        }
        let path = write_spans(workload, args.seed, rec.spans.spans())?;
        println!("spans of the traced pass: {}", path.display());
        layer.resolve(PER_LAYER)?
    } else {
        e2e.resolve(END_TO_END)?
    };
    println!(
        "{}",
        result_line(correct, tally.attempted, tally.failed, &metrics)
    );
    Ok(correct)
}

fn print_section(title: &str, m: &Metrics, decl: &[layers::Decl], samples: usize) {
    println!("{title}:");
    for &(name, unit, _) in decl {
        let value = m
            .get(name)
            .map_or_else(|| "-".to_string(), |v| v.to_string());
        let note = if name.starts_with("response_") {
            format!(" (n={samples} windows)")
        } else {
            String::new()
        };
        println!("  {name:<30} {value:>16} {unit}{note}");
    }
}

/// Writes the traced pass's spans as JSON under the benchmark's `out/`
/// directory and returns the file's path.
fn write_spans(workload: Workload, seed: u64, spans: &[spans::Span]) -> Result<PathBuf, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-seed{seed}.json", workload.name()));
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            format!(
                "{{\"name\": {}, \"run\": {}, \"parent\": {parent}, \"start_s\": {}, \"end_s\": {}}}",
                json::quote(s.name),
                s.run,
                s.start,
                s.end
            )
        })
        .collect();
    let doc = format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"spans\": [\n{}\n]}}\n",
        json::quote(workload.name()),
        rows.join(",\n")
    );
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// The machine-readable result line.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json::quote(name),
                json::quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Runs every workload untraced and traced, one child process each, and
/// prints a combined result line with metrics named `<workload>.<metric>`.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut combined: Vec<(String, f64, String)> = Vec::new();
    for w in Workload::ALL {
        for trace in ["0", "1"] {
            let out = Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot run {}: {e}", w.name()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            let last = lines.pop().unwrap_or_default();
            for l in lines {
                println!("{l}");
            }
            let doc = json::parse(last).map_err(|e| format!("{} trace={trace}: {e}", w.name()))?;
            correct &= out.status.success() && doc.get("correct") == Some(&json::Json::Bool(true));
            attempted += doc.get("attempted").and_then(Access::as_f64).unwrap_or(0.0) as u64;
            failed += doc.get("failed").and_then(Access::as_f64).unwrap_or(0.0) as u64;
            for (name, m) in doc
                .get("metrics")
                .and_then(Access::as_object)
                .unwrap_or_default()
            {
                let value = m.get("value").and_then(Access::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Access::as_str).unwrap_or_default();
                combined.push((format!("{}.{name}", w.name()), value, unit.to_string()));
            }
            println!();
        }
    }
    let metrics: Vec<(&str, f64, &str)> = combined
        .iter()
        .map(|(n, v, u)| (n.as_str(), *v, u.as_str()))
        .collect();
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_and_reject_junk() {
        let a = parse(&[
            "--workload",
            "join-evict",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Some(Workload::JoinEvict));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        let d = parse(&["--workload", "all"]).unwrap();
        assert_eq!(
            (d.workload, d.seed, d.seconds, d.trace),
            (None, DEFAULT_SEED, DEFAULT_SECONDS, false)
        );
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "agg-delta", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "agg-delta", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload"]).is_err());
    }

    #[test]
    fn default_seconds_are_the_declared_run_seconds() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        let run_seconds = doc.get("run_seconds").and_then(Access::as_f64);
        assert_eq!(run_seconds, Some(DEFAULT_SECONDS));
    }

    #[test]
    fn tally_fails_windows_that_did_not_run_or_drifted() {
        let pass = |fired: usize| Pass {
            fired: Vec::with_capacity(fired),
            run_s: 1.0,
            cpu_s: 1.0,
            error: None,
            io: Default::default(),
        };
        let mut t = Tally {
            attempted: 0,
            failed: 0,
            digest: None,
            drifted: false,
        };
        t.pass(Workload::AggDelta, "first", &pass(0), 7);
        assert_eq!((t.attempted, t.failed, t.drifted), (200, 200, false));
        t.pass(Workload::AggDelta, "same", &pass(0), 7);
        assert!(!t.drifted);
        t.pass(Workload::AggDelta, "other", &pass(0), 8);
        assert!(t.drifted, "a differing digest is drift");
        assert_eq!(t.attempted, 600);
    }

    #[test]
    fn result_line_is_valid_json() {
        let line = result_line(
            true,
            3,
            0,
            &[
                ("setup_s", 0.25, "s"),
                ("records_per_cpu_s", 1e6, "records/cpu_s"),
            ],
        );
        let doc = json::parse(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&json::Json::Bool(true)));
        let m = doc.get("metrics").unwrap();
        assert_eq!(
            m.get("records_per_cpu_s")
                .and_then(|v| v.get("value"))
                .and_then(Access::as_f64),
            Some(1e6)
        );
    }
}
