//! Metric declarations and the per-layer fold of one traced pass.
//!
//! The two tables below are what the benchmark prints; a test checks
//! them against `BENCHMARK.json` in both directions.

use std::collections::BTreeMap;

use redoop_mapred::counters::names;
use redoop_mapred::trace::TraceEvent;

use crate::spans::SpanTotals;
use crate::stats;
use crate::workload::{Pass, Recorder, Workload};

/// A declared metric: name, unit, and which direction is better.
pub type Decl = (&'static str, &'static str, &'static str);

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: &[Decl] = &[
    ("setup_s", "s", "lower"),
    ("records_per_cpu_s", "records/cpu_s", "higher"),
    ("response_p50_s", "sim_s", "lower"),
    ("response_p95_s", "sim_s", "lower"),
    ("response_max_s", "sim_s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: &[Decl] = &[
    ("host.records_per_s", "records/s", "higher"),
    ("host.parallelism", "cpu_s/s", "higher"),
    ("deployment.steps", "count", "lower"),
    ("deployment.self_s", "s", "lower"),
    ("packer.calls", "count", "lower"),
    ("packer.busy_s", "s", "lower"),
    ("packer.records", "count", "higher"),
    ("packer.records_per_s", "records/s", "higher"),
    ("delta.folds", "count", "lower"),
    ("delta.records_folded", "count", "higher"),
    ("delta.seals", "count", "lower"),
    ("delta.seal_bytes", "bytes", "lower"),
    ("sim.fold_s", "sim_s", "lower"),
    ("executor.calls", "count", "lower"),
    ("executor.busy_s", "s", "lower"),
    ("executor.p50_ms", "ms", "lower"),
    ("executor.p95_ms", "ms", "lower"),
    ("mapred.map_tasks", "count", "lower"),
    ("mapred.reduce_tasks", "count", "lower"),
    ("mapred.map_input_records", "count", "lower"),
    ("mapred.shuffle_bytes", "bytes", "lower"),
    ("mapred.reduce_input_groups", "count", "lower"),
    ("mapred.reduce_output_records", "count", "higher"),
    ("mapred.failed_attempts", "count", "lower"),
    ("sim.map_s", "sim_s", "lower"),
    ("sim.shuffle_s", "sim_s", "lower"),
    ("sim.sort_s", "sim_s", "lower"),
    ("sim.reduce_s", "sim_s", "lower"),
    ("sim.merge_s", "sim_s", "lower"),
    ("sim.busy_s", "sim_s", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.shared_hits", "count", "higher"),
    ("cache.evictions", "count", "lower"),
    ("cache.admit_rejects", "count", "lower"),
    ("cache.rollbacks", "count", "lower"),
    ("cache.built_products", "count", "lower"),
    ("cache.bytes_read", "bytes", "lower"),
    ("cache.peak_node_bytes", "bytes", "lower"),
    ("scheduler.placements", "count", "lower"),
    ("scheduler.local_placements", "count", "higher"),
    ("scheduler.locality_ratio", "ratio", "higher"),
    ("heartbeat.events", "count", "lower"),
    ("heartbeat.purge_scans", "count", "lower"),
    ("heartbeat.lost", "count", "lower"),
    ("dfs.local_read_bytes", "bytes", "lower"),
    ("dfs.remote_read_bytes", "bytes", "lower"),
    ("dfs.written_bytes", "bytes", "lower"),
    ("dfs.cache_read_bytes", "bytes", "lower"),
    ("dfs.cache_written_bytes", "bytes", "lower"),
    ("oracle.calls", "count", "lower"),
    ("oracle.busy_s", "s", "lower"),
    ("trace.events", "count", "lower"),
    ("trace.dropped", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("window_fail_ratio", "ratio", "lower"),
];

/// Named metric values, checked against a declaration table.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// Value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The values in `decl` order with their units. Fails if a declared
    /// metric is missing, an undeclared one is present, or a value is not
    /// finite (JSON has no NaN or infinity).
    pub fn resolve(&self, decl: &[Decl]) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        if let Some(extra) = self.0.keys().find(|k| !decl.iter().any(|d| d.0 == **k)) {
            return Err(format!("metric `{extra}` is not declared"));
        }
        decl.iter()
            .map(|&(name, unit, _)| match self.get(name) {
                Some(v) if v.is_finite() => Ok((name, v, unit)),
                Some(v) => Err(format!("metric `{name}` is not finite ({v})")),
                None => Err(format!("declared metric `{name}` was not measured")),
            })
            .collect()
    }
}

/// `num / den`, or 0 when nothing was attempted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Everything one traced pass leaves behind.
pub struct TracedPass<'a> {
    pub pass: &'a Pass,
    pub recorder: &'a Recorder,
    /// The program's journal of the pass.
    pub events: &'a [TraceEvent],
    /// Journal events evicted from the ring.
    pub dropped: u64,
    /// Median process CPU seconds of the untraced passes' steps.
    pub untraced_cpu_s: f64,
    /// Median wall-clock throughput of the untraced passes' steps.
    pub untraced_records_per_s: f64,
    /// Median over the untraced passes of step CPU seconds per
    /// wall-clock second: how many host threads were busy on average.
    pub untraced_parallelism: f64,
    /// Failed windows over attempted windows, across the invocation.
    pub fail_ratio: f64,
}

/// Folds one traced pass into the per-layer metrics.
pub fn per_layer(t: &TracedPass) -> Metrics {
    let mut m = Metrics::default();
    let spans = t.recorder.spans.totals();
    let span = |name: &str| spans.get(name).cloned().unwrap_or_else(SpanTotals::default);

    m.set("host.records_per_s", t.untraced_records_per_s);
    m.set("host.parallelism", t.untraced_parallelism);

    let step = span("step");
    m.set("deployment.steps", step.calls as f64);
    m.set("deployment.self_s", step.self_s);

    let ingest = span("ingest_lines");
    m.set("packer.calls", ingest.calls as f64);
    m.set("packer.busy_s", ingest.busy_s);
    m.set("packer.records", t.recorder.packer_records as f64);
    m.set(
        "packer.records_per_s",
        ratio(t.recorder.packer_records as f64, ingest.busy_s),
    );

    let run = span("run_window");
    let run_ms: Vec<f64> = run.durations.iter().map(|d| d * 1e3).collect();
    m.set("executor.calls", run.calls as f64);
    m.set("executor.busy_s", run.busy_s);
    let pct = |pm| {
        if run_ms.is_empty() {
            0.0
        } else {
            stats::percentile(&run_ms, pm)
        }
    };
    m.set("executor.p50_ms", pct(500));
    m.set("executor.p95_ms", pct(950));

    let oracle = span("oracle");
    m.set("oracle.calls", oracle.calls as f64);
    m.set("oracle.busy_s", oracle.busy_s);

    fold_reports(t.pass, &mut m);
    m.set("cache.peak_node_bytes", t.recorder.peak_node_bytes as f64);
    fold_journal(t.events, &mut m);

    let io = &t.pass.io;
    m.set("dfs.local_read_bytes", io.local_read as f64);
    m.set("dfs.remote_read_bytes", io.remote_read as f64);
    m.set("dfs.written_bytes", io.written as f64);
    m.set("dfs.cache_read_bytes", io.local_store_read as f64);
    m.set("dfs.cache_written_bytes", io.local_store_written as f64);

    m.set("trace.events", (t.events.len() as u64 + t.dropped) as f64);
    m.set("trace.dropped", t.dropped as f64);
    m.set(
        "trace.overhead_ratio",
        ratio(t.pass.cpu_s, t.untraced_cpu_s) - 1.0,
    );
    m.set("window_fail_ratio", t.fail_ratio);
    m
}

/// The workload-design predictions a traced pass can confirm: where the
/// host time goes, and which mechanism each workload exercises. Returns
/// each prediction with whether it held.
pub fn design_checks(workload: Workload, m: &Metrics) -> Vec<(&'static str, bool)> {
    let v = |name| m.get(name).unwrap_or(0.0);
    let ingest = v("packer.busy_s") + v("deployment.self_s");
    let fire = v("executor.busy_s");
    let host = ingest + fire;
    let mut checks = vec![("trace.dropped == 0", v("trace.dropped") == 0.0)];
    match workload {
        Workload::AggDelta => checks.extend([
            (
                "ingest (packer + deployment self) is the largest host share",
                ingest > fire,
            ),
            ("delta.folds > 0", v("delta.folds") > 0.0),
            ("cache.evictions == 0", v("cache.evictions") == 0.0),
            ("cache.shared_hits == 0", v("cache.shared_hits") == 0.0),
        ]),
        Workload::JoinEvict => checks.extend([
            ("executor is the largest host share", fire > ingest),
            ("ingest is under 5% of host time", ingest < 0.05 * host),
            ("delta.folds == 0", v("delta.folds") == 0.0),
            ("cache.evictions > 0", v("cache.evictions") > 0.0),
            ("cache.shared_hits == 0", v("cache.shared_hits") == 0.0),
        ]),
        Workload::FleetBursty => checks.extend([
            ("executor is the largest host share", fire > ingest),
            ("delta.folds == 0", v("delta.folds") == 0.0),
            ("cache.evictions == 0", v("cache.evictions") == 0.0),
            ("cache.shared_hits > 0", v("cache.shared_hits") > 0.0),
        ]),
    }
    checks
}

/// Report counters: task and record counts, cache and placement stats.
fn fold_reports(pass: &Pass, m: &mut Metrics) {
    let mut sum: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut add = |k: &'static str, v: u64| *sum.entry(k).or_default() += v;
    for f in &pass.fired {
        let r = &f.report;
        let c = &r.metrics.counters;
        add("mapred.map_tasks", r.metrics.map_tasks as u64);
        add("mapred.reduce_tasks", r.metrics.reduce_tasks as u64);
        add("mapred.map_input_records", c.get(names::MAP_INPUT_RECORDS));
        add("mapred.shuffle_bytes", c.get(names::SHUFFLE_BYTES));
        add(
            "mapred.reduce_input_groups",
            c.get(names::REDUCE_INPUT_GROUPS),
        );
        add(
            "mapred.reduce_output_records",
            c.get(names::REDUCE_OUTPUT_RECORDS),
        );
        add(
            "mapred.failed_attempts",
            c.get(names::FAILED_MAP_ATTEMPTS) + c.get(names::FAILED_REDUCE_ATTEMPTS),
        );
        add("cache.hits", r.trace.cache_hits);
        add("cache.misses", r.trace.cache_misses);
        add("cache.shared_hits", r.trace.shared_hits);
        add("cache.evictions", r.trace.evictions);
        add("cache.admit_rejects", r.trace.admit_rejects);
        add("cache.rollbacks", r.trace.rollbacks);
        add("cache.built_products", r.built_products as u64);
        add("cache.bytes_read", c.get(names::CACHE_BYTES_READ));
        add("scheduler.placements", r.trace.placements_total);
        add("scheduler.local_placements", r.trace.placements_cache_local);
    }
    let get = |k: &str| sum.get(k).copied().unwrap_or(0) as f64;
    m.set(
        "cache.hit_ratio",
        ratio(get("cache.hits"), get("cache.hits") + get("cache.misses")),
    );
    m.set(
        "scheduler.locality_ratio",
        ratio(
            get("scheduler.local_placements"),
            get("scheduler.placements"),
        ),
    );
    for (k, v) in sum {
        m.set(k, v as f64);
    }
}

/// Journal events: delta maintenance, simulated phase time, heartbeats.
fn fold_journal(events: &[TraceEvent], m: &mut Metrics) {
    let (mut folds, mut folded, mut seals, mut seal_bytes) = (0u64, 0u64, 0u64, 0u64);
    let (mut beats, mut lost, mut scans) = (0u64, 0u64, 0u64);
    let mut phase: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut busy_us = 0u64;
    for e in events {
        match e {
            TraceEvent::DeltaFold { records, .. } => {
                folds += 1;
                folded += records;
            }
            TraceEvent::DeltaSeal { bytes, .. } => {
                seals += 1;
                seal_bytes += bytes;
            }
            TraceEvent::TaskSpan {
                phase: p,
                start,
                end,
                ..
            } => {
                let us = end.0.saturating_sub(start.0);
                *phase.entry(p).or_default() += us;
                busy_us += us;
            }
            TraceEvent::Heartbeat { lost: l, .. } => {
                beats += 1;
                lost += *l as u64;
            }
            TraceEvent::PurgeScan { .. } => scans += 1,
            _ => {}
        }
    }
    m.set("delta.folds", folds as f64);
    m.set("delta.records_folded", folded as f64);
    m.set("delta.seals", seals as f64);
    m.set("delta.seal_bytes", seal_bytes as f64);
    m.set("heartbeat.events", beats as f64);
    m.set("heartbeat.lost", lost as f64);
    m.set("heartbeat.purge_scans", scans as f64);
    let secs = |us: u64| us as f64 / 1e6;
    for (name, p) in [
        ("sim.map_s", "map"),
        ("sim.shuffle_s", "shuffle"),
        ("sim.sort_s", "sort"),
        ("sim.reduce_s", "reduce"),
        ("sim.merge_s", "merge"),
        ("sim.fold_s", "fold"),
    ] {
        m.set(name, secs(phase.get(p).copied().unwrap_or(0)));
    }
    m.set("sim.busy_s", secs(busy_us));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Access, Json};

    fn declared(section: &Json) -> Vec<(String, String, String)> {
        section
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Access::as_str)
                        .expect("metric field")
                        .to_string()
                };
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn ours(decl: &[Decl]) -> Vec<(String, String, String)> {
        decl.iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect()
    }

    #[test]
    fn printed_metrics_match_benchmark_json_both_ways() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        assert_eq!(declared(doc.get("end_to_end").unwrap()), ours(END_TO_END));
        assert_eq!(declared(doc.get("per_layer").unwrap()), ours(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Access::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Access::as_str).unwrap())
            .collect();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, names);
        let mut bounds = doc
            .get("end_to_end")
            .and_then(Access::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Access::as_str).unwrap(),
                    m.get("bound").and_then(Access::as_f64).unwrap(),
                )
            });
        let setup = bounds
            .find(|(n, _)| *n == "setup_s")
            .expect("setup_s declared")
            .1;
        assert!(
            bounds.all(|(_, b)| b <= setup),
            "setup_s carries the largest bound"
        );
    }

    #[test]
    fn resolve_rejects_missing_extra_and_non_finite_values() {
        let decl: &[Decl] = &[("a", "s", "lower"), ("b", "count", "higher")];
        let mut m = Metrics::default();
        m.set("a", 1.5);
        assert!(m
            .resolve(decl)
            .unwrap_err()
            .contains("`b` was not measured"));
        m.set("b", f64::NAN);
        assert!(m.resolve(decl).unwrap_err().contains("not finite"));
        m.set("b", 2.0);
        assert_eq!(
            m.resolve(decl).unwrap(),
            vec![("a", 1.5, "s"), ("b", 2.0, "count")]
        );
        m.set("c", 0.0);
        assert!(m.resolve(decl).unwrap_err().contains("`c` is not declared"));
    }

    #[test]
    fn journal_fold_attributes_phases_and_delta_work() {
        use redoop_dfs::NodeId;
        use redoop_mapred::SimTime;
        let span = |phase, a, b| TraceEvent::TaskSpan {
            phase,
            node: NodeId(0),
            start: SimTime(a),
            end: SimTime(b),
            label: String::new(),
        };
        let events = vec![
            span("map", 0, 2_000_000),
            span("fold", 0, 500_000),
            TraceEvent::DeltaFold {
                at: SimTime(0),
                source: 0,
                pane: 1,
                records: 7,
                groups: 3,
            },
            TraceEvent::Heartbeat {
                at: SimTime(0),
                node: NodeId(1),
                alive: true,
                held: 4,
                lost: 2,
            },
        ];
        let mut m = Metrics::default();
        fold_journal(&events, &mut m);
        assert_eq!(m.get("sim.map_s"), Some(2.0));
        assert_eq!(m.get("sim.fold_s"), Some(0.5));
        assert_eq!(m.get("sim.busy_s"), Some(2.5));
        assert_eq!(m.get("delta.folds"), Some(1.0));
        assert_eq!(m.get("delta.records_folded"), Some(7.0));
        assert_eq!(m.get("heartbeat.lost"), Some(2.0));
        assert_eq!(m.get("heartbeat.purge_scans"), Some(0.0));
    }
}
