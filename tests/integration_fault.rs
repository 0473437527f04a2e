//! Fault-tolerance reproduction (paper §6.4, Fig. 9): cache losses are
//! injected at the beginning of windows; Redoop must (a) still produce
//! correct results by re-executing the producing tasks, and (b) retain
//! most of its advantage because pane-grained caching loses only the
//! panes on the failed node.

#[path = "common/mod.rs"]
mod common;

use std::sync::Arc;

use common::*;
use redoop_core::prelude::*;
use redoop_core::RedoopError;
use redoop_dfs::failure::{FailureEvent, FailurePlan};
use redoop_dfs::{Cluster, NodeId};
use redoop_mapred::trace::{CacheAction, TraceEvent, TraceSink};
use redoop_mapred::{frame, SimTime};
use redoop_workloads::arrival::ArrivalPlan;
use redoop_workloads::ffg::Stream;
use redoop_core::cache::CacheObject;
use redoop_workloads::queries::{AggMapper, AggReducer, JoinMapper, JoinReducer};

const WINDOWS: u64 = 8;

/// Runs the aggregation at overlap .5 with an optional per-window
/// crash-and-rejoin plan. Returns (responses, outputs checked).
fn run_redoop(failures: Option<FailurePlan>, seed: u64) -> (Vec<SimTime>, Vec<SimTime>) {
    let spec = spec_with_overlap(0.5);
    let plan = ArrivalPlan::new(spec, WINDOWS);
    let batches = wcc_batches(&plan, seed, 1.0);
    let cluster = test_cluster();
    let tag = if failures.is_some() { "fault-f" } else { "fault-clean" };
    let mut exec = agg_executor(&cluster, spec, tag, batch_adaptive(&cluster, &spec));
    ingest_all(&mut exec, 0, &batches);
    let files = baseline_inputs(&cluster, &format!("/batches/{tag}"), &batches);

    let mut sim = test_sim(&cluster);
    let mapper = Arc::new(AggMapper);
    let out_root = redoop_dfs::DfsPath::new(format!("/out/{tag}-base")).unwrap();

    let mut redoop_times = Vec::new();
    let mut hadoop_times = Vec::new();
    for w in 0..WINDOWS {
        if let Some(f) = &failures {
            f.apply(w as usize, &cluster).unwrap();
        }
        let report = exec.run_window(w).unwrap();
        let baseline = redoop_core::run_baseline_window(
            &cluster,
            &mut sim,
            mapper.clone(),
            &AggReducer,
            leading_ts_fn(),
            &spec,
            w,
            &files,
            4,
            &out_root,
            None,
        )
        .unwrap();
        let redoop_out: Vec<(String, u64)> =
            read_window_output(&cluster, &report.outputs).unwrap();
        let hadoop_out: Vec<(String, u64)> =
            read_window_output(&cluster, &baseline.outputs).unwrap();
        assert_eq!(redoop_out, hadoop_out, "window {w}: failures must not corrupt results");
        redoop_times.push(report.response);
        hadoop_times.push(response(&baseline));
    }
    (redoop_times, hadoop_times)
}

fn total(times: &[SimTime]) -> f64 {
    times.iter().map(|t| t.as_secs_f64()).sum()
}

#[test]
fn cache_loss_is_recovered_correctly_and_cheaply() {
    // Crash node 0 (and 3) at the start of several windows; their caches
    // vanish, the audit rolls the controller back, and the lost pane
    // products get rebuilt.
    let failures = FailurePlan::none()
        .crash_each(NodeId(0), [1, 3, 5, 7])
        .crash_each(NodeId(3), [2, 4, 6]);
    let (faulty, hadoop) = run_redoop(Some(failures), 55);
    let (clean, _) = run_redoop(None, 55);

    // Paper Fig. 9: Redoop(f) is slower than Redoop but still much
    // faster than Hadoop cumulatively.
    let steady_faulty = total(&faulty[1..]);
    let steady_clean = total(&clean[1..]);
    let steady_hadoop = total(&hadoop[1..]);
    assert!(
        steady_faulty >= steady_clean,
        "failures cannot speed Redoop up: {steady_faulty} vs {steady_clean}"
    );
    assert!(
        steady_faulty < steady_hadoop,
        "pane-grained caching must retain the advantage under failures: \
         faulty {steady_faulty} vs hadoop {steady_hadoop}"
    );
}

/// Query shape of a salvage scenario.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// WCC aggregation: framed `ro/` partial-aggregate caches.
    Agg,
    /// FFG binary join: framed `ri/` reduce-input caches.
    Join,
}

impl Shape {
    /// Store-name prefix of the shape's framed pane caches.
    fn prefix(self) -> &'static str {
        match self {
            Shape::Agg => "ro/",
            Shape::Join => "ri/",
        }
    }
}

/// Outcome of one salvage scenario run.
struct SalvageRun {
    /// Framed pane caches window 0 left behind: `(node, store name, blob
    /// length)` — at overlap .875, window 1 reuses all but one pane of
    /// them.
    caches: Vec<(NodeId, String, usize)>,
    /// Window 1's response.
    response: SimTime,
    /// Window 1's part files, byte for byte.
    outputs: Vec<Vec<u8>>,
    /// Salvage verdicts of the blobs damaged by `CorruptLocal` events.
    scans: Vec<frame::SalvageSummary>,
    /// The run's trace journal.
    journal: TraceSink,
}

/// Every framed cache on the cluster whose store name starts with
/// `prefix`, sorted.
fn framed_caches(cluster: &Cluster, prefix: &str) -> Vec<(NodeId, String, usize)> {
    let mut all = Vec::new();
    for n in 0..cluster.node_count() as u32 {
        let node = NodeId(n);
        for name in cluster.list_local(node).unwrap() {
            if !name.starts_with(prefix) {
                continue;
            }
            let blob = cluster.peek_local(node, &name).unwrap();
            if blob.starts_with(&frame::FRAME_MARKER) {
                all.push((node, name, blob.len()));
            }
        }
    }
    all.sort();
    all
}

/// Two-window salvage scenario at overlap .875 for `shape`: window 0
/// builds caches, `events` damage them before window 1 fires.
fn run_salvage_scenario(shape: Shape, events: &[FailureEvent], seed: u64) -> SalvageRun {
    let spec = spec_with_overlap(0.875);
    let plan = ArrivalPlan::new(spec, 2);
    let cluster = test_cluster();
    let journal = TraceSink::enabled();
    match shape {
        Shape::Agg => {
            let mut exec =
                agg_executor(&cluster, spec, "salvage", batch_adaptive(&cluster, &spec));
            exec.set_trace_sink(journal.clone());
            ingest_all(&mut exec, 0, &wcc_batches(&plan, seed, 1.0));
            salvage_windows(&mut exec, &cluster, shape, events, journal)
        }
        Shape::Join => {
            let mut exec =
                join_executor(&cluster, spec, "salvage", batch_adaptive(&cluster, &spec));
            exec.set_trace_sink(journal.clone());
            ingest_all(&mut exec, 0, &ffg_batches(&plan, Stream::Position, seed, 1.0));
            ingest_all(&mut exec, 1, &ffg_batches(&plan, Stream::Speed, seed + 1, 1.0));
            salvage_windows(&mut exec, &cluster, shape, events, journal)
        }
    }
}

fn salvage_windows<M, R>(
    exec: &mut RecurringExecutor<M, R>,
    cluster: &Cluster,
    shape: Shape,
    events: &[FailureEvent],
    journal: TraceSink,
) -> SalvageRun
where
    M: redoop_mapred::Mapper,
    R: redoop_mapred::Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    exec.run_window(0).unwrap();
    let caches = framed_caches(cluster, shape.prefix());
    let mut fplan = FailurePlan::none();
    for ev in events {
        fplan = fplan.at(1, ev.clone());
    }
    fplan.apply(1, cluster).unwrap();
    let scans = events
        .iter()
        .filter_map(|ev| match ev {
            FailureEvent::CorruptLocal(node, name, ..) => {
                let blob =
                    cluster.peek_local(*node, name).expect("corruption leaves file behind");
                Some(frame::salvage_scan(&blob))
            }
            _ => None,
        })
        .collect();
    let report = exec.run_window(1).unwrap();
    exec.check_cache_accounting().unwrap();
    let outputs = report.outputs.iter().map(|p| cluster.read(p).unwrap().to_vec()).collect();
    SalvageRun { caches, response: report.response, outputs, scans, journal }
}

/// Damages every framed pane cache of `shape` from 60% in to the end —
/// torn-write suffixes — before window 1, and checks the salvaged
/// window against the clean run and a drop-everything full rebuild.
fn check_suffix_salvage(shape: Shape, seed: u64) {
    // Clean run: also learns which framed caches window 0 leaves behind.
    // Placement is deterministic, so the same set recurs in every run.
    let clean = run_salvage_scenario(shape, &[], seed);
    let caches = &clean.caches;
    assert!(!caches.is_empty(), "window 0 builds framed {} caches", shape.prefix());

    // The frames before the damage stay salvageable.
    let corrupt: Vec<FailureEvent> = caches
        .iter()
        .map(|(n, name, len)| FailureEvent::CorruptLocal(*n, name.clone(), len * 3 / 5, *len))
        .collect();
    let drop: Vec<FailureEvent> =
        caches.iter().map(|(n, name, _)| FailureEvent::DropLocal(*n, name.clone())).collect();

    let partial = run_salvage_scenario(shape, &corrupt, seed);
    assert_eq!(partial.scans.len(), caches.len());
    assert!(partial.scans.iter().any(|s| s.total >= 2), "some caches span multiple frames");
    for scan in &partial.scans {
        assert!(!scan.is_complete(), "suffix damage must be detected");
        // Every frame before the damaged region is recovered; the
        // missing set is exactly the damaged suffix.
        let missing = scan.missing();
        assert!(!missing.is_empty());
        for (a, b) in missing.iter().zip(missing.iter().skip(1)) {
            assert_eq!(*b, *a + 1, "missing frames form one contiguous suffix");
        }
        assert_eq!(*missing.last().unwrap(), scan.total - 1);
    }
    // The journal shows the audit's salvage verdicts and the
    // partial-rebuild charges on this shape's caches.
    let events = partial.journal.events();
    let on_shape = |name: &str| name.starts_with(shape.prefix());
    assert!(
        events.iter().any(|e| matches!(e, TraceEvent::Salvage { name, .. } if on_shape(name))),
        "no salvage verdict on {} caches",
        shape.prefix()
    );
    assert!(
        events.iter().any(|e| matches!(
            e,
            TraceEvent::Cache { action: CacheAction::PartialRebuild, name, .. } if on_shape(name)
        )),
        "no partial rebuild of {} caches",
        shape.prefix()
    );

    let full = run_salvage_scenario(shape, &drop, seed);

    // Rebuilds must reproduce the clean answer bit for bit.
    assert_eq!(partial.outputs, clean.outputs, "salvaged rebuild must not change results");
    assert_eq!(full.outputs, clean.outputs, "full rebuild must not change results");

    // Partial recovery rebuilds only the missing suffixes, so it lands
    // strictly between the clean window and the full rebuild.
    let (partial, full, clean) = (partial.response, full.response, clean.response);
    assert!(partial < full, "salvage must beat full rebuild: partial {partial} vs full {full}");
    assert!(partial >= clean, "salvage cannot beat undamaged caches: {partial} vs {clean}");
}

#[test]
fn mid_blob_corruption_salvages_and_beats_full_rebuild() {
    check_suffix_salvage(Shape::Agg, 77);
}

#[test]
fn join_input_corruption_salvages_and_beats_full_rebuild() {
    check_suffix_salvage(Shape::Join, 78);
}

#[test]
fn undecodable_reused_pair_output_fails_the_window() {
    // Pair outputs (`po/…`) are unframed text, so the heartbeat audit
    // cannot see damage to them. A reused pair that no longer decodes
    // must fail the window instead of silently dropping its records.
    let spec = spec_with_overlap(0.875);
    let plan = ArrivalPlan::new(spec, 2);
    let cluster = test_cluster();
    let mut exec = join_executor(&cluster, spec, "badpair", batch_adaptive(&cluster, &spec));
    ingest_all(&mut exec, 0, &ffg_batches(&plan, Stream::Position, 91, 1.0));
    ingest_all(&mut exec, 1, &ffg_batches(&plan, Stream::Speed, 92, 1.0));
    exec.run_window(0).unwrap();

    // Any non-empty pair of two panes both windows cover is reused.
    let geom = PaneGeometry::from_spec(&spec);
    let w1 = geom.window_panes(1);
    let shared: Vec<u64> = geom.window_panes(0).filter(|p| w1.contains(p)).collect();
    let prefixes: Vec<String> = shared
        .iter()
        .flat_map(|&p| shared.iter().map(move |&q| format!("po/p{p}x{q}/")))
        .collect();
    let (node, name, len) = (0..cluster.node_count() as u32)
        .map(NodeId)
        .flat_map(|n| cluster.list_local(n).unwrap().into_iter().map(move |name| (n, name)))
        .filter(|(_, name)| prefixes.iter().any(|pre| name.starts_with(pre)))
        .map(|(n, name)| {
            let len = cluster.peek_local(n, &name).unwrap().len();
            (n, name, len)
        })
        .find(|&(.., len)| len > 0)
        .expect("window 0 leaves a non-empty reusable pair output");
    // Flipping every byte of ASCII text yields bytes >= 0x80 and turns
    // the newlines into 0xF5, which is never valid UTF-8.
    cluster.corrupt_local(node, &name, 0, len).unwrap();

    let err = exec.run_window(1).expect_err("a corrupt reused pair must fail the window");
    assert!(matches!(err, RedoopError::CacheInconsistency(_)), "got {err:?}");
}

/// Part files of every window of a four-window FFG join at overlap .875
/// under a tight cost-based budget. With `corrupt`, every resident
/// reduce-input run — each one built or read by an earlier window, so
/// held decoded by the executor — gets one byte flipped mid-blob before
/// windows 2 and 3 fire.
fn budgeted_join_outputs(corrupt: bool) -> Vec<Vec<Vec<u8>>> {
    const JOIN_WINDOWS: u64 = 4;
    let spec = spec_with_overlap(0.875);
    let plan = ArrivalPlan::new(spec, JOIN_WINDOWS);
    let pos = ffg_batches(&plan, Stream::Position, 95, 1.0);
    let spd = ffg_batches(&plan, Stream::Speed, 96, 1.0);
    let cluster = test_cluster();
    let mut exec = join_executor(&cluster, spec, "heldruns", batch_adaptive(&cluster, &spec));
    exec.set_cache_policy(CacheBudget::bounded(CachePolicyKind::CostBased, 14_586));
    ingest_all(&mut exec, 0, &pos);
    ingest_all(&mut exec, 1, &spd);
    let mut files = baseline_inputs(&cluster, "/batches/heldruns-pos", &pos);
    files.extend(baseline_inputs(&cluster, "/batches/heldruns-spd", &spd));
    let out_root = redoop_dfs::DfsPath::new("/out/heldruns-base").unwrap();
    let mut sim = test_sim(&cluster);

    let mut outputs = Vec::new();
    let mut evictions = 0;
    for w in 0..JOIN_WINDOWS {
        if corrupt && w >= 2 {
            let resident: Vec<(NodeId, String)> = {
                let controller = exec.controller();
                controller
                    .all_cached()
                    .into_iter()
                    .filter(|n| matches!(n.object, CacheObject::PaneInput { .. }))
                    .map(|n| (controller.location(&n).unwrap(), n.store_name()))
                    .collect()
            };
            assert!(!resident.is_empty(), "window {w}: reduce-input runs stay resident");
            for (node, name) in resident {
                let len = cluster.peek_local(node, &name).unwrap().len();
                assert!(cluster.corrupt_local(node, &name, len / 2, 1).unwrap());
            }
        }
        let report = exec.run_window(w).unwrap();
        exec.check_cache_accounting().unwrap();
        evictions += report.trace.evictions;
        let baseline = redoop_core::run_baseline_window(
            &cluster,
            &mut sim,
            Arc::new(JoinMapper),
            &JoinReducer,
            leading_ts_fn(),
            &spec,
            w,
            &files,
            4,
            &out_root,
            None,
        )
        .unwrap();
        let got: Vec<(String, String)> = read_window_output(&cluster, &report.outputs).unwrap();
        let want: Vec<(String, String)> =
            read_window_output(&cluster, &baseline.outputs).unwrap();
        assert!(!got.is_empty(), "window {w}: the join produces matches");
        assert_eq!(got, want, "window {w}: outputs must match the recompute oracle");
        outputs.push(report.outputs.iter().map(|p| cluster.read(p).unwrap().to_vec()).collect());
    }
    assert!(evictions > 0, "the budget must evict");
    outputs
}

#[test]
fn corrupt_held_join_input_under_budget_matches_clean_run_and_oracle() {
    // Joins read reduce-input runs they already hold decoded only while
    // the stored blob is the one they hold: a damaged replacement must
    // never be answered from the held copy, nor change any output bit.
    assert_eq!(budgeted_join_outputs(true), budgeted_join_outputs(false));
}

#[test]
fn audit_detects_and_heals_lost_caches() {
    let spec = spec_with_overlap(0.5);
    let plan = ArrivalPlan::new(spec, 3);
    let batches = wcc_batches(&plan, 66, 1.0);
    let cluster = test_cluster();
    let mut exec = agg_executor(&cluster, spec, "audit", batch_adaptive(&cluster, &spec));
    ingest_all(&mut exec, 0, &batches);
    exec.run_window(0).unwrap();
    assert_eq!(exec.audit_caches(), 0, "no failures yet");

    // Wipe every node's local store.
    for n in 0..cluster.node_count() as u32 {
        cluster.kill_node(NodeId(n)).unwrap();
        cluster.revive_node(NodeId(n)).unwrap();
    }
    let lost = exec.audit_caches();
    assert!(lost > 0, "all caches were wiped; audit must notice");

    // The next window rebuilds everything and still answers correctly.
    let report = exec.run_window(1).unwrap();
    let out: Vec<(String, u64)> = read_window_output(&cluster, &report.outputs).unwrap();
    assert!(!out.is_empty());
    assert_eq!(report.reused_caches, 0, "nothing left to reuse after total loss");
}

#[test]
fn total_cache_loss_degrades_toward_cold_start() {
    // With every cache wiped before each window, Redoop's response should
    // be near its window-0 (cold) response, not near its warm response.
    let spec = spec_with_overlap(0.5);
    let plan = ArrivalPlan::new(spec, 4);
    let batches = wcc_batches(&plan, 67, 1.0);
    let cluster = test_cluster();
    let mut exec = agg_executor(&cluster, spec, "coldloss", batch_adaptive(&cluster, &spec));
    ingest_all(&mut exec, 0, &batches);
    let cold = exec.run_window(0).unwrap().response;
    for n in 0..cluster.node_count() as u32 {
        cluster.kill_node(NodeId(n)).unwrap();
        cluster.revive_node(NodeId(n)).unwrap();
    }
    let rebuilt = exec.run_window(1).unwrap().response;
    let warm = exec.run_window(2).unwrap().response;
    assert!(
        rebuilt.as_secs_f64() > warm.as_secs_f64() * 1.5,
        "full rebuild ({rebuilt}) must cost much more than warm ({warm})"
    );
    assert!(
        rebuilt.as_secs_f64() > cold.as_secs_f64() * 0.5,
        "full rebuild ({rebuilt}) should approach cold start ({cold})"
    );
}
