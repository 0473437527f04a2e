//! Multi-query deployments (paper §3.1): several recurring queries with
//! different window constraints share one data source. The Semantic
//! Analyzer's multi-query pane (GCD over all constraints) lets every
//! query's windows resolve as unions of the *same* pane files — the
//! source is ingested and stored once.

#[path = "common/mod.rs"]
mod common;

use std::sync::Arc;

use common::*;
use redoop_core::prelude::*;
use redoop_core::cache::CacheObject;
use redoop_core::{RecurringExecutor, SharedSource};
use redoop_dfs::DfsPath;
use redoop_workloads::arrival::ArrivalPlan;
use redoop_workloads::queries::{AggMapper, AggReducer};
use redoop_workloads::wcc::WccGenerator;

/// Pane length of the shared sources in the two-query tests (the GCD of
/// their window constraints).
const PANE_MS: u64 = 1_000_000;

fn shared_executor(
    cluster: &redoop_dfs::Cluster,
    shared: &SharedSource,
    spec: WindowSpec,
    name: &str,
) -> RecurringExecutor<AggMapper, AggReducer> {
    let conf = QueryConf::new(name, 4, DfsPath::new(format!("/out/{name}")).unwrap()).unwrap();
    RecurringExecutor::aggregation_shared(
        cluster,
        test_sim(cluster),
        conf,
        shared,
        spec,
        Arc::new(AggMapper),
        Arc::new(AggReducer),
        Arc::new(SumMerger),
        batch_adaptive(cluster, &spec),
    )
    .unwrap()
}

#[test]
fn two_queries_share_one_sources_pane_files() {
    let cluster = test_cluster();
    // Q1: win 2000s / slide 1000s; Q2: win 4000s / slide 1000s.
    // Shared pane = gcd = 1000s.
    let q1 = WindowSpec::new(2_000_000, 1_000_000).unwrap();
    let q2 = WindowSpec::new(4_000_000, 1_000_000).unwrap();
    let shared = SharedSource::new(
        &cluster,
        0,
        "wcc",
        DfsPath::new("/panes/shared-wcc").unwrap(),
        &[q1, q2],
        leading_ts_fn(),
    )
    .unwrap();
    assert_eq!(shared.pane_ms(), 1_000_000);

    // Generate enough data for 3 recurrences of the longer query.
    let plan = ArrivalPlan::new(q2, 3);
    let mut generator = WccGenerator::new(33, 80, 200, 0.002);
    let batches = plan.generate(|range, m| generator.batch(range, m));
    for b in &batches {
        shared.ingest_batch(b.lines.iter().map(String::as_str), &b.range).unwrap();
    }

    let mut exec1 = shared_executor(&cluster, &shared, q1, "mq-q1");
    let mut exec2 = shared_executor(&cluster, &shared, q2, "mq-q2");

    // The source's pane files exist exactly once, regardless of readers.
    let pane_files_before = cluster.list("/panes/shared-wcc").len();
    assert!(pane_files_before > 0);

    // Oracle per query/window from the raw records.
    let oracle = |spec: &WindowSpec, w: u64| {
        let window = spec.window_range(w);
        let mut expect: std::collections::BTreeMap<String, u64> = Default::default();
        for b in &batches {
            for line in &b.lines {
                let mut f = line.split(',');
                let ts: u64 = f.next().unwrap().parse().unwrap();
                let obj = f.nth(1).unwrap();
                if window.contains(EventTime(ts)) {
                    *expect.entry(obj.to_string()).or_insert(0) += 1;
                }
            }
        }
        expect.into_iter().collect::<Vec<(String, u64)>>()
    };

    // Q1 runs 5 windows (its slide is shorter); Q2 runs 3.
    for w in 0..5 {
        let report = exec1.run_window(w).unwrap();
        let got: Vec<(String, u64)> = read_window_output(&cluster, &report.outputs).unwrap();
        assert_eq!(got, oracle(&q1, w), "q1 window {w}");
    }
    for w in 0..3 {
        let report = exec2.run_window(w).unwrap();
        let got: Vec<(String, u64)> = read_window_output(&cluster, &report.outputs).unwrap();
        assert_eq!(got, oracle(&q2, w), "q2 window {w}");
    }

    // No duplicate pane files were created by the second query.
    assert_eq!(cluster.list("/panes/shared-wcc").len(), pane_files_before);
    // Both queries reused their own caches across windows.
    assert!(exec1.reports()[1..].iter().all(|r| r.reused_caches > 0));
    assert!(exec2.reports()[1..].iter().all(|r| r.reused_caches > 0));
}

/// The caches of this query's latest window and its own doneQueryMask
/// bit on each, sorted by store name — the controller-state
/// fingerprint compared across drivers. The layer is shared, so the
/// rest of each mask, and which caches of other panes are still
/// resident, depend on how the two queries interleave.
fn mask_snapshot(exec: &RecurringExecutor<AggMapper, AggReducer>) -> Vec<(String, bool)> {
    let window = exec.window_spec().window_range(exec.reports().last().unwrap().recurrence);
    let bit = 1u64 << exec.cache_bit();
    let ctl = exec.controller();
    let mut v: Vec<(String, bool)> = ctl
        .all_cached()
        .into_iter()
        .filter(|n| match n.object {
            CacheObject::PaneOutput { pane, .. } => window.contains(EventTime(pane.0 * PANE_MS)),
            _ => false,
        })
        .map(|n| (n.store_name(), ctl.signature(&n).unwrap().done_query_mask & bit != 0))
        .collect();
    v.sort();
    v
}

/// Per-window controller fingerprints, shared between a probe and the
/// assertion site.
type MaskLog = std::rc::Rc<std::cell::RefCell<Vec<Vec<(String, bool)>>>>;

/// Wraps an executor so the deployment's interleaved run logs the same
/// per-window controller fingerprints the sequential oracle records.
struct MaskProbe<'a> {
    exec: &'a mut RecurringExecutor<AggMapper, AggReducer>,
    log: MaskLog,
}

impl redoop_core::DeployedQuery for MaskProbe<'_> {
    fn window_spec(&self) -> WindowSpec {
        self.exec.window_spec()
    }

    fn ingest_lines(
        &mut self,
        source: usize,
        lines: &[String],
        range: &TimeRange,
    ) -> redoop_core::Result<()> {
        self.exec.ingest(source, lines.iter().map(String::as_str), range)
    }

    fn run_window(&mut self, rec: u64) -> redoop_core::Result<WindowReport> {
        let report = self.exec.run_window(rec)?;
        self.log.borrow_mut().push(mask_snapshot(self.exec));
        Ok(report)
    }
}

#[test]
fn deployment_matches_the_sequential_multiquery_oracle() {
    // Two queries over one shared source, driven two ways: sequentially
    // (all data up front, each query runs its windows back-to-back —
    // the pre-deployment harness) and through RecurringDeployment
    // (arrivals fed batch-by-batch, windows interleaved in fire-time
    // order). Outputs and each query's doneQueryMask progression must
    // be identical.
    let q1 = WindowSpec::new(2_000_000, 1_000_000).unwrap();
    let q2 = WindowSpec::new(4_000_000, 1_000_000).unwrap();
    let plan = ArrivalPlan::new(q2, 3);
    let mut generator = WccGenerator::new(77, 80, 200, 0.002);
    let batches = plan.generate(|range, m| generator.batch(range, m));
    const Q1_WINDOWS: u64 = 5;
    const Q2_WINDOWS: u64 = 3;

    // Sequential oracle.
    let seq_cluster = test_cluster();
    let shared = SharedSource::new(
        &seq_cluster,
        0,
        "wcc",
        DfsPath::new("/panes/dep-mq").unwrap(),
        &[q1, q2],
        leading_ts_fn(),
    )
    .unwrap();
    for b in &batches {
        shared.ingest_batch(b.lines.iter().map(String::as_str), &b.range).unwrap();
    }
    let mut seq1 = shared_executor(&seq_cluster, &shared, q1, "dep-mq-q1");
    let mut seq2 = shared_executor(&seq_cluster, &shared, q2, "dep-mq-q2");
    let run_seq = |exec: &mut RecurringExecutor<AggMapper, AggReducer>, windows: u64| {
        let mut outs = Vec::new();
        let mut masks = Vec::new();
        for w in 0..windows {
            let r = exec.run_window(w).unwrap();
            outs.push(read_window_output::<String, u64>(&seq_cluster, &r.outputs).unwrap());
            masks.push(mask_snapshot(exec));
        }
        (outs, masks)
    };
    let (seq_outs1, seq_masks1) = run_seq(&mut seq1, Q1_WINDOWS);
    let (seq_outs2, seq_masks2) = run_seq(&mut seq2, Q2_WINDOWS);

    // Deployment-driven run on a fresh cluster: one shared arrival
    // stream, two probed executors on one simulator clock.
    let cluster = test_cluster();
    let shared = SharedSource::new(
        &cluster,
        0,
        "wcc",
        DfsPath::new("/panes/dep-mq").unwrap(),
        &[q1, q2],
        leading_ts_fn(),
    )
    .unwrap();
    let mut dep1 = shared_executor(&cluster, &shared, q1, "dep-mq-q1");
    let mut dep2 = shared_executor(&cluster, &shared, q2, "dep-mq-q2");
    let log1 = MaskLog::default();
    let log2 = MaskLog::default();
    let sim = dep1.sim().clone();
    let mut deployment = RecurringDeployment::new(sim);
    let src = deployment.add_shared_source(
        shared.clone(),
        batches.iter().map(|b| ArrivalBatch::new(b.lines.clone(), b.range.clone())).collect(),
    );
    let d1 = deployment
        .add_query(MaskProbe { exec: &mut dep1, log: log1.clone() }, &[src], Q1_WINDOWS)
        .unwrap();
    let d2 = deployment
        .add_query(MaskProbe { exec: &mut dep2, log: log2.clone() }, &[src], Q2_WINDOWS)
        .unwrap();
    let fired = deployment.run().unwrap();

    // Interleaved in fire-time order: q1 fires at 2000/3000/4000/5000/
    // 6000 virtual seconds, q2 at 4000/5000/6000 (ties to q1, which
    // registered first).
    let order: Vec<(usize, u64)> = fired.iter().map(|f| (f.query, f.recurrence)).collect();
    assert_eq!(
        order,
        vec![(d1, 0), (d1, 1), (d1, 2), (d2, 0), (d1, 3), (d2, 1), (d1, 4), (d2, 2)],
        "windows must interleave by fire time"
    );

    // Same outputs, window for window.
    for (w, expect) in seq_outs1.iter().enumerate() {
        let got: Vec<(String, u64)> =
            read_window_output(&cluster, &deployment.reports(d1)[w].outputs).unwrap();
        assert_eq!(&got, expect, "q1 window {w} outputs");
    }
    for (w, expect) in seq_outs2.iter().enumerate() {
        let got: Vec<(String, u64)> =
            read_window_output(&cluster, &deployment.reports(d2)[w].outputs).unwrap();
        assert_eq!(&got, expect, "q2 window {w} outputs");
    }

    // Same doneQueryMask progression after each recurrence.
    assert!(seq_masks1.iter().chain(&seq_masks2).all(|m| !m.is_empty()));
    assert_eq!(*log1.borrow(), seq_masks1, "q1 doneQueryMask progression");
    assert_eq!(*log2.borrow(), seq_masks2, "q2 doneQueryMask progression");
}

#[test]
fn incompatible_window_constraints_are_rejected_at_attach() {
    let cluster = test_cluster();
    let q1 = WindowSpec::new(2_000_000, 1_000_000).unwrap();
    let shared = SharedSource::new(
        &cluster,
        0,
        "wcc",
        DfsPath::new("/panes/reject").unwrap(),
        &[q1],
        leading_ts_fn(),
    )
    .unwrap();
    // pane 700_000 does not match the shared 1_000_000.
    let bad = WindowSpec::new(2_100_000, 700_000).unwrap();
    let conf = QueryConf::new("bad", 2, DfsPath::new("/out/bad").unwrap()).unwrap();
    let err = RecurringExecutor::aggregation_shared(
        &cluster,
        test_sim(&cluster),
        conf,
        &shared,
        bad,
        Arc::new(AggMapper),
        Arc::new(AggReducer),
        Arc::new(SumMerger),
        batch_adaptive(&cluster, &bad),
    );
    assert!(err.is_err(), "incompatible pane geometry must be rejected");
}

#[test]
fn shared_pane_finer_than_either_querys_own_gcd() {
    // q1's own pane is 1000s, q2's is 1500s; the shared pane is their
    // GCD, 500s — finer than both. Each executor runs on the shared
    // geometry (windows = unions of 500s panes) and stays exact.
    let cluster = test_cluster();
    let q1 = WindowSpec::new(2_000_000, 1_000_000).unwrap();
    let q2 = WindowSpec::new(4_500_000, 1_500_000).unwrap();
    let shared = SharedSource::new(
        &cluster,
        0,
        "wcc",
        DfsPath::new("/panes/fine-shared").unwrap(),
        &[q1, q2],
        leading_ts_fn(),
    )
    .unwrap();
    assert_eq!(shared.pane_ms(), 500_000);

    let plan = ArrivalPlan::new(q2, 2);
    let mut generator = WccGenerator::new(44, 60, 150, 0.002);
    let batches = plan.generate(|range, m| generator.batch(range, m));
    for b in &batches {
        shared.ingest_batch(b.lines.iter().map(String::as_str), &b.range).unwrap();
    }

    let mut exec1 = shared_executor(&cluster, &shared, q1, "fine-q1");
    let mut exec2 = shared_executor(&cluster, &shared, q2, "fine-q2");

    let oracle = |spec: &WindowSpec, w: u64| {
        let window = spec.window_range(w);
        let mut expect: std::collections::BTreeMap<String, u64> = Default::default();
        for b in &batches {
            for line in &b.lines {
                let mut f = line.split(',');
                let ts: u64 = f.next().unwrap().parse().unwrap();
                let obj = f.nth(1).unwrap();
                if window.contains(EventTime(ts)) {
                    *expect.entry(obj.to_string()).or_insert(0) += 1;
                }
            }
        }
        expect.into_iter().collect::<Vec<(String, u64)>>()
    };

    // q1 can run 5 windows within q2's 2-recurrence span; q2 runs 2.
    for w in 0..4 {
        let report = exec1.run_window(w).unwrap();
        let got: Vec<(String, u64)> = read_window_output(&cluster, &report.outputs).unwrap();
        assert_eq!(got, oracle(&q1, w), "q1 window {w} on shared fine panes");
    }
    for w in 0..2 {
        let report = exec2.run_window(w).unwrap();
        let got: Vec<(String, u64)> = read_window_output(&cluster, &report.outputs).unwrap();
        assert_eq!(got, oracle(&q2, w), "q2 window {w} on shared fine panes");
    }
}

// ---------------------------------------------------------------------
// Cross-query cache sharing oracle suite: N identical queries over one
// shared source must produce bit-identical outputs with sharing on and
// off, while the traced journal proves each shared (pane, partition)
// was physically built exactly once and every other query hit it.
// ---------------------------------------------------------------------

/// Raw output bytes per query per window, plus the run's trace journal.
type ShareRun = (Vec<Vec<Vec<u8>>>, Vec<redoop_mapred::trace::TraceEvent>);

fn run_share_fleet(n: usize, windows: u64, sharing: bool, tag: &str) -> ShareRun {
    let spec = WindowSpec::new(2_000_000, 1_000_000).unwrap();
    let plan = ArrivalPlan::new(spec, windows);
    let mut generator = WccGenerator::new(55, 80, 200, 0.002);
    let batches = plan.generate(|range, m| generator.batch(range, m));

    let cluster = test_cluster();
    let shared = SharedSource::new(
        &cluster,
        0,
        "wcc",
        DfsPath::new(format!("/panes/{tag}")).unwrap(),
        &[spec],
        leading_ts_fn(),
    )
    .unwrap();
    for b in &batches {
        shared.ingest_batch(b.lines.iter().map(String::as_str), &b.range).unwrap();
    }

    let sink = redoop_mapred::trace::TraceSink::enabled();
    let mut execs: Vec<RecurringExecutor<AggMapper, AggReducer>> = (0..n)
        .map(|i| {
            let mut e = shared_executor(&cluster, &shared, spec, &format!("{tag}-q{i}"));
            e.set_options(ExecutorOptions { cross_query_sharing: sharing, ..Default::default() });
            e.set_trace_sink(sink.clone());
            e
        })
        .collect();

    let mut outs: Vec<Vec<Vec<u8>>> = vec![Vec::new(); n];
    for w in 0..windows {
        for (i, e) in execs.iter_mut().enumerate() {
            let report = e.run_window(w).unwrap();
            let mut bytes = Vec::new();
            for path in &report.outputs {
                bytes.extend_from_slice(&cluster.read(path).unwrap());
            }
            outs[i].push(bytes);
        }
    }
    (outs, sink.events())
}

#[test]
fn cross_query_sharing_is_exact_and_builds_each_pane_once() {
    use redoop_mapred::trace::{CacheAction, TraceEvent};
    const N: usize = 3;
    const WINDOWS: u64 = 3;

    let (shared_outs, shared_events) = run_share_fleet(N, WINDOWS, true, "share-on");
    let (private_outs, _) = run_share_fleet(N, WINDOWS, false, "share-off");

    // Bit-identical window outputs, query for query, sharing on vs off.
    assert_eq!(shared_outs, private_outs, "sharing must not change any query's output bytes");

    // Journal: every reduce-output registration is a physical build
    // (other queries' reads are plain hits), so each shared (pane,
    // partition) must register exactly once across the whole fleet.
    let mut ro_registers: Vec<String> = shared_events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Cache { action: CacheAction::Register, name, .. }
                if name.contains("ro/") =>
            {
                Some(name.clone())
            }
            _ => None,
        })
        .collect();
    let total = ro_registers.len();
    ro_registers.sort();
    ro_registers.dedup();
    assert_eq!(total, ro_registers.len(), "a shared (pane, partition) was built twice");
    // Windows 0..3 over win=2/slide=1 panes touch panes 0..=3, and the
    // fixture runs 4 reduce partitions.
    assert_eq!(total, 4 * 4, "expected one build per (pane, partition)");

    // And the other N-1 queries hit the builder's file instead of
    // rebuilding it.
    let shared_hits = shared_events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Cache { action: CacheAction::SharedHit, .. }))
        .count();
    assert!(shared_hits > 0, "journal must show cross-query hits");
    // Each of the 16 builds serves the other two queries exactly once.
    assert_eq!(shared_hits, (N - 1) * total, "every non-builder must hit every pane");

    // The one file of each shared product expires exactly once, and
    // only after every consumer's last hit on it: the done bits of the
    // earlier consumers kept it alive for the last one.
    let mut expired = 0;
    for name in &ro_registers {
        let at = |action: CacheAction| -> Vec<usize> {
            shared_events
                .iter()
                .enumerate()
                .filter_map(|(i, e)| match e {
                    TraceEvent::Cache { action: a, name: n, .. } if *a == action && n == name => {
                        Some(i)
                    }
                    _ => None,
                })
                .collect()
        };
        let expires = at(CacheAction::Expire);
        assert!(expires.len() <= 1, "{name} expired {} times", expires.len());
        if let (Some(&expire), Some(&last_hit)) = (expires.first(), at(CacheAction::Hit).last()) {
            assert!(expire > last_hit, "{name} expired before its last consumer's hit");
            expired += 1;
        }
    }
    // Within three windows the sweep retires panes 0 and 1.
    assert_eq!(expired, 2 * 4, "every retired (pane, partition) expires once");
}

#[test]
fn private_fingerprints_keep_disjoint_files_when_sharing_is_off() {
    use redoop_mapred::trace::{CacheAction, TraceEvent};
    // With sharing off each query builds under its own private
    // fingerprint: N times the physical builds, zero shared hits.
    const N: usize = 3;
    let (_, events) = run_share_fleet(N, 2, false, "share-priv");
    let registers: Vec<&String> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Cache { action: CacheAction::Register, name, .. }
                if name.contains("ro/") =>
            {
                Some(name)
            }
            _ => None,
        })
        .collect();
    // Windows 0..2 touch panes 0..=2 across 4 partitions, per query.
    assert_eq!(registers.len(), N * 3 * 4);
    let shared_hits = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Cache { action: CacheAction::SharedHit, .. }))
        .count();
    assert_eq!(shared_hits, 0, "private-cache mode must never share");
}

#[test]
fn owned_source_queries_on_one_cluster_keep_their_caches_apart() {
    // Two aggregations that each own their source share one cluster and
    // one deployment. Every executor names its pane caches on its own,
    // so without a cluster-unique cache namespace per executor both
    // would write `ro/s0p{p}/r{r}` on the same nodes, and each query's
    // later windows would merge the other query's pane partials.
    let spec = WindowSpec::new(2_000_000, 1_000_000).unwrap();
    const WINDOWS: u64 = 5;
    let plan = ArrivalPlan::new(spec, WINDOWS);
    let streams: Vec<_> = [11, 99].iter().map(|&seed| wcc_batches(&plan, seed, 1.0)).collect();

    let cluster = test_cluster();
    let mut execs: Vec<_> = ["own-a", "own-b"]
        .iter()
        .map(|name| agg_executor(&cluster, spec, name, batch_adaptive(&cluster, &spec)))
        .collect();
    let mut deployment = RecurringDeployment::new(execs[0].sim().clone());
    for (exec, batches) in execs.iter_mut().zip(&streams) {
        let src = deployment.add_source(batches.iter().map(arrival).collect());
        deployment.add_query(exec, &[src], WINDOWS).unwrap();
    }
    deployment.run().unwrap();

    let mut sim = test_sim(&cluster);
    for (q, batches) in streams.iter().enumerate() {
        let files = baseline_inputs(&cluster, &format!("/batches/own-{q}"), batches);
        let out_root = DfsPath::new(format!("/out/own-base-{q}")).unwrap();
        for (w, report) in deployment.reports(q).iter().enumerate() {
            let baseline = run_baseline_window(
                &cluster,
                &mut sim,
                Arc::new(AggMapper),
                &AggReducer,
                leading_ts_fn(),
                &spec,
                w as u64,
                &files,
                4,
                &out_root,
                None,
            )
            .unwrap();
            let got: Vec<(String, u64)> = read_window_output(&cluster, &report.outputs).unwrap();
            let expect: Vec<(String, u64)> =
                read_window_output(&cluster, &baseline.outputs).unwrap();
            assert!(!expect.is_empty());
            assert_eq!(got, expect, "query {q} window {w} must match the recompute oracle");
        }
    }
}

/// Checks the fleet's shared cache layer after every window of the
/// query it wraps: no live node holds more than `budget` cache bytes,
/// and the layer's controller and registry ledgers agree.
struct BudgetProbe<'a> {
    exec: &'a mut RecurringExecutor<AggMapper, AggReducer>,
    shared: SharedSource,
    cluster: redoop_dfs::Cluster,
    budget: u64,
}

impl redoop_core::DeployedQuery for BudgetProbe<'_> {
    fn window_spec(&self) -> WindowSpec {
        self.exec.window_spec()
    }

    fn ingest_lines(
        &mut self,
        source: usize,
        lines: &[String],
        range: &TimeRange,
    ) -> redoop_core::Result<()> {
        self.exec.ingest(source, lines.iter().map(String::as_str), range)
    }

    fn run_window(&mut self, rec: u64) -> redoop_core::Result<WindowReport> {
        let report = self.exec.run_window(rec)?;
        let layer = self.shared.cache_layer();
        for node in self.cluster.alive_nodes() {
            let held = layer.controller().bytes_on(node);
            assert!(held <= self.budget, "{node:?} holds {held} B over a {} B budget", self.budget);
        }
        layer.check_accounting(&self.cluster).unwrap();
        Ok(report)
    }

    fn set_cache_policy(&mut self, budget: CacheBudget) {
        self.exec.set_cache_policy(budget)
    }
}

#[test]
fn fleet_budget_bounds_every_nodes_resident_bytes() {
    use redoop_mapred::trace::{CacheAction, TraceEvent, TraceSink};
    // Four queries over one shared source share one cache layer, so one
    // per-node budget must bound the bytes the whole fleet keeps on a
    // node — not each query's share of it.
    const N: usize = 4;
    const WINDOWS: u64 = 6;
    let spec = WindowSpec::new(4_000_000, 1_000_000).unwrap();
    let plan = ArrivalPlan::new(spec, WINDOWS);
    let batches = wcc_batches(&plan, 66, 1.0);

    let run = |budget: Option<CacheBudget>| -> (Vec<Vec<u8>>, Vec<TraceEvent>) {
        let cluster = test_cluster();
        let shared = SharedSource::new(
            &cluster,
            0,
            "wcc",
            DfsPath::new("/panes/fleet-budget").unwrap(),
            &[spec],
            leading_ts_fn(),
        )
        .unwrap();
        let sink = TraceSink::enabled();
        let mut execs: Vec<_> = (0..N)
            .map(|i| {
                let mut e = shared_executor(&cluster, &shared, spec, &format!("fb-q{i}"));
                e.set_trace_sink(sink.clone());
                e
            })
            .collect();
        let mut deployment = RecurringDeployment::new(execs[0].sim().clone());
        let src = deployment.add_shared_source(shared.clone(), batches.iter().map(arrival).collect());
        let limit = budget.and_then(|b| b.per_node_bytes).unwrap_or(u64::MAX);
        for exec in execs.iter_mut() {
            let probe =
                BudgetProbe { exec, shared: shared.clone(), cluster: cluster.clone(), budget: limit };
            deployment.add_query(probe, &[src], WINDOWS).unwrap();
        }
        if let Some(b) = budget {
            deployment.set_cache_policy(b);
        }
        let mut outs = Vec::new();
        for fired in deployment.run().unwrap() {
            for p in &fired.report.outputs {
                outs.push(cluster.read(p).unwrap().to_vec());
            }
        }
        (outs, sink.events())
    };

    let (oracle, events) = run(None);
    let count = |events: &[TraceEvent], want: CacheAction| {
        events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Cache { action, .. } if *action == want))
            .count()
    };
    assert!(count(&events, CacheAction::SharedHit) > 0, "the fleet must share caches");
    // Room for two of the largest caches per node: every cache fits, but
    // the fleet's working set does not.
    let max_cache = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Cache { action: CacheAction::Register, bytes, .. } => Some(*bytes),
            _ => None,
        })
        .max()
        .unwrap();
    for policy in [CachePolicyKind::Lru, CachePolicyKind::CostBased] {
        let (capped, events) = run(Some(CacheBudget::bounded(policy, 2 * max_cache)));
        assert_eq!(capped, oracle, "{policy:?}: outputs must not depend on the budget");
        assert!(count(&events, CacheAction::Evict) > 0, "{policy:?}: the budget must bind");
    }
}
