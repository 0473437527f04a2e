//! Deployment layer: N recurring queries over shared arrival streams on
//! one virtual clock.
//!
//! A [`RecurringDeployment`] owns the arrival streams (plain per-query
//! streams or multi-query [`SharedSource`]s) and a set of deployed
//! queries, and interleaves ingestion with window firings in **fire-time
//! order**: at every [`RecurringDeployment::step`] the query whose next
//! recurrence fires earliest (ties broken by registration order) first
//! receives every arrival batch due by its fire time, then runs that
//! window. This replays exactly what a live cluster does — batches land
//! as they arrive, adaptive plan changes take effect on later panes, and
//! queries with shorter slides fire more often than long-window queries
//! sharing the same source. Incremental pane maintenance rides this path
//! for free: each delivered batch flows through
//! [`RecurringExecutor::ingest`], which folds delta-eligible queries'
//! records into per-pane state and seals it as panes close, so by fire
//! time the window's state is already materialized.
//!
//! All executors should be built over clones of one [`ClusterSim`]
//! handle (clones share the slot timeline — see
//! [`ClusterSim::clone`]), so that the deployment's windows compete for
//! the same virtual task slots; the deployment holds the handle it was
//! given for inspection. Determinism: stepping order is a pure function
//! of the queries' window specs and registration order, so a deployment
//! run is reproducible batch-for-batch.

use crate::cache::policy::CacheBudget;
use crate::error::Result;
use crate::executor::{RecurringExecutor, WindowReport};
use crate::query::WindowSpec;
use crate::shared::SharedSource;
use crate::time::{EventTime, TimeRange};
use redoop_mapred::{ClusterSim, Mapper, Reducer};

/// One arriving batch of raw record lines covering an event-time range.
#[derive(Debug, Clone)]
pub struct ArrivalBatch {
    /// Raw record lines (one record per line).
    pub lines: Vec<String>,
    /// Event-time range the batch covers.
    pub range: TimeRange,
}

impl ArrivalBatch {
    /// Builds a batch from lines and their covered range.
    pub fn new(lines: Vec<String>, range: TimeRange) -> Self {
        ArrivalBatch { lines, range }
    }
}

/// A recurring query the deployment can drive: anything that can ingest
/// arrival batches and run numbered window recurrences.
/// [`RecurringExecutor`] implements this; wrappers (e.g. ablation
/// harnesses) can too.
pub trait DeployedQuery {
    /// The query's window constraints (drives the firing schedule).
    fn window_spec(&self) -> WindowSpec;
    /// Delivers one arrival batch to the query's `source` input.
    fn ingest_lines(&mut self, source: usize, lines: &[String], range: &TimeRange)
        -> Result<()>;
    /// Runs recurrence `rec` and reports it.
    fn run_window(&mut self, rec: u64) -> Result<WindowReport>;
    /// Selects the query's cache lifecycle policy and per-node capacity
    /// budget. Defaults to a no-op so wrappers without a cache layer
    /// (e.g. recomputation baselines) satisfy the trait unchanged.
    fn set_cache_policy(&mut self, _budget: CacheBudget) {}
}

/// A mutable borrow drives the query in place — deployments can borrow
/// executors owned elsewhere (e.g. a test fixture that inspects the
/// executor after the run).
impl<Q: DeployedQuery + ?Sized> DeployedQuery for &mut Q {
    fn window_spec(&self) -> WindowSpec {
        (**self).window_spec()
    }

    fn ingest_lines(
        &mut self,
        source: usize,
        lines: &[String],
        range: &TimeRange,
    ) -> Result<()> {
        (**self).ingest_lines(source, lines, range)
    }

    fn run_window(&mut self, rec: u64) -> Result<WindowReport> {
        (**self).run_window(rec)
    }

    fn set_cache_policy(&mut self, budget: CacheBudget) {
        (**self).set_cache_policy(budget)
    }
}

impl<M, R> DeployedQuery for RecurringExecutor<M, R>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    fn window_spec(&self) -> WindowSpec {
        RecurringExecutor::window_spec(self)
    }

    fn ingest_lines(
        &mut self,
        source: usize,
        lines: &[String],
        range: &TimeRange,
    ) -> Result<()> {
        self.ingest(source, lines.iter().map(String::as_str), range)
    }

    fn run_window(&mut self, rec: u64) -> Result<WindowReport> {
        RecurringExecutor::run_window(self, rec)
    }

    fn set_cache_policy(&mut self, budget: CacheBudget) {
        RecurringExecutor::set_cache_policy(self, budget)
    }
}

/// How a deployment source reaches its consumers.
enum SourceKind {
    /// Batches are delivered through each bound query's own `ingest`
    /// (every query owns its packer).
    PerQuery,
    /// Batches are ingested once into a multi-query [`SharedSource`];
    /// bound queries read the shared pane files and are never fed
    /// directly.
    Shared(SharedSource),
}

struct SourceFeed {
    kind: SourceKind,
    batches: Vec<ArrivalBatch>,
    /// Delivery cursor for [`SourceKind::Shared`] (per-query sources
    /// track their cursor per binding, since bound queries fire on
    /// different schedules).
    fed: usize,
}

/// Binds one query input slot to a deployment source.
struct Binding {
    source: usize,
    /// Delivery cursor (used for [`SourceKind::PerQuery`] sources).
    fed: usize,
}

struct QuerySlot<'a> {
    query: Box<dyn DeployedQuery + 'a>,
    bindings: Vec<Binding>,
    windows: u64,
    next: u64,
    reports: Vec<WindowReport>,
}

/// One completed deployment step.
#[derive(Debug, Clone)]
pub struct FiredWindow {
    /// Index of the query that fired (as returned by
    /// [`RecurringDeployment::add_query`]).
    pub query: usize,
    /// The recurrence that ran.
    pub recurrence: u64,
    /// Its report.
    pub report: WindowReport,
}

/// N recurring queries over shared arrival streams on one virtual
/// clock. See the module docs.
pub struct RecurringDeployment<'a> {
    sim: ClusterSim,
    sources: Vec<SourceFeed>,
    queries: Vec<QuerySlot<'a>>,
}

impl<'a> RecurringDeployment<'a> {
    /// Builds an empty deployment around the shared simulator handle.
    /// Executors added later should be built over clones of the same
    /// handle so all queries share one slot timeline.
    pub fn new(sim: ClusterSim) -> Self {
        RecurringDeployment { sim, sources: Vec::new(), queries: Vec::new() }
    }

    /// The shared simulator handle (clone it when building executors).
    pub fn sim(&self) -> &ClusterSim {
        &self.sim
    }

    /// Registers an arrival stream delivered through each bound query's
    /// own ingest. Returns the source id to use in
    /// [`RecurringDeployment::add_query`] bindings.
    pub fn add_source(&mut self, batches: Vec<ArrivalBatch>) -> usize {
        self.sources.push(SourceFeed { kind: SourceKind::PerQuery, batches, fed: 0 });
        self.sources.len() - 1
    }

    /// Registers an arrival stream feeding a multi-query
    /// [`SharedSource`]: batches are ingested exactly once into the
    /// shared packer, no matter how many queries read it. Bind every
    /// executor attached to `shared` (e.g. via
    /// `RecurringExecutor::aggregation_shared`) to the returned id.
    pub fn add_shared_source(
        &mut self,
        shared: SharedSource,
        batches: Vec<ArrivalBatch>,
    ) -> usize {
        self.sources.push(SourceFeed { kind: SourceKind::Shared(shared), batches, fed: 0 });
        self.sources.len() - 1
    }

    /// Deploys a query for `windows` recurrences, binding its input
    /// slots to deployment sources in order (`bindings[i]` feeds the
    /// query's source `i`). Returns the query id.
    ///
    /// Fails with [`RedoopError::InvalidQuery`] when a binding names an
    /// unregistered source, or when the query attaches to a
    /// [`SharedSource`] whose pane length does not divide the query's
    /// `win` and `slide` — such a query's windows would not be unions of
    /// the shared panes, so it can neither read the shared manifest nor
    /// participate in cross-query cache sharing.
    ///
    /// [`RedoopError::InvalidQuery`]: crate::error::RedoopError::InvalidQuery
    pub fn add_query(
        &mut self,
        query: impl DeployedQuery + 'a,
        bindings: &[usize],
        windows: u64,
    ) -> Result<usize> {
        let spec = query.window_spec();
        for &src in bindings {
            let Some(feed) = self.sources.get(src) else {
                return Err(crate::error::RedoopError::InvalidQuery(format!(
                    "query binds to unregistered deployment source {src} \
                     ({} registered)",
                    self.sources.len()
                )));
            };
            if let SourceKind::Shared(shared) = &feed.kind {
                if crate::pane::PaneGeometry::with_pane(&spec, shared.pane_ms()).is_none() {
                    return Err(crate::error::RedoopError::InvalidQuery(format!(
                        "query window (win {} / slide {}) is incompatible with shared \
                         source {src}: its pane length {}ms must divide both, or the \
                         query's windows are not unions of the shared panes",
                        spec.win,
                        spec.slide,
                        shared.pane_ms()
                    )));
                }
            }
        }
        self.queries.push(QuerySlot {
            query: Box::new(query),
            bindings: bindings.iter().map(|&source| Binding { source, fed: 0 }).collect(),
            windows,
            next: 0,
            reports: Vec::new(),
        });
        Ok(self.queries.len() - 1)
    }

    /// The next window due across all queries:
    /// min (fire time, registration order), or `None` when every query
    /// has run its budget.
    fn next_due(&self) -> Option<(EventTime, usize)> {
        let mut best: Option<(EventTime, usize)> = None;
        for (i, q) in self.queries.iter().enumerate() {
            if q.next >= q.windows {
                continue;
            }
            let fire = q.query.window_spec().fire_time(q.next);
            if best.map(|(at, _)| fire < at).unwrap_or(true) {
                best = Some((fire, i));
            }
        }
        best
    }

    /// Runs the next due window: delivers every arrival batch due by its
    /// fire time (shared sources once, per-query sources through the
    /// query), then fires it. Returns `None` when all queries have
    /// completed their window budgets.
    pub fn step(&mut self) -> Result<Option<FiredWindow>> {
        let Some((fire, qi)) = self.next_due() else { return Ok(None) };

        // Shared sources bound to this query: advance the stream cursor
        // once, into the shared packer.
        for bi in 0..self.queries[qi].bindings.len() {
            let src = self.queries[qi].bindings[bi].source;
            let feed = &mut self.sources[src];
            if let SourceKind::Shared(shared) = &feed.kind {
                while feed.fed < feed.batches.len()
                    && feed.batches[feed.fed].range.start < fire
                {
                    let b = &feed.batches[feed.fed];
                    shared.ingest_batch(b.lines.iter().map(String::as_str), &b.range)?;
                    feed.fed += 1;
                }
            }
        }

        // Per-query sources: deliver through the query's own ingest. A
        // batch straddling the fire time must arrive before the run.
        let slot = &mut self.queries[qi];
        for (slot_idx, binding) in slot.bindings.iter_mut().enumerate() {
            let feed = &self.sources[binding.source];
            if matches!(feed.kind, SourceKind::PerQuery) {
                while binding.fed < feed.batches.len()
                    && feed.batches[binding.fed].range.start < fire
                {
                    let b = &feed.batches[binding.fed];
                    slot.query.ingest_lines(slot_idx, &b.lines, &b.range)?;
                    binding.fed += 1;
                }
            }
        }

        let rec = slot.next;
        let report = slot.query.run_window(rec)?;
        slot.reports.push(report.clone());
        slot.next += 1;
        Ok(Some(FiredWindow { query: qi, recurrence: rec, report }))
    }

    /// Steps until every query has run its window budget, returning the
    /// full firing log in order.
    pub fn run(&mut self) -> Result<Vec<FiredWindow>> {
        let mut fired = Vec::new();
        while let Some(f) = self.step()? {
            fired.push(f);
        }
        Ok(fired)
    }

    /// Applies one cache lifecycle policy + per-node capacity budget to
    /// every deployed query (call after the last
    /// [`RecurringDeployment::add_query`]). Queries on one
    /// [`SharedSource`] share one cache layer, so the budget bounds the
    /// bytes the whole fleet keeps resident on each node; a query that
    /// owns its sources applies it to its private layer.
    pub fn set_cache_policy(&mut self, budget: CacheBudget) {
        for q in &mut self.queries {
            q.query.set_cache_policy(budget);
        }
    }

    /// Reports of one query's completed recurrences, in firing order.
    pub fn reports(&self, query: usize) -> &[WindowReport] {
        &self.queries[query].reports
    }

    /// Number of deployed queries.
    pub fn num_queries(&self) -> usize {
        self.queries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::AdaptiveController;
    use crate::analyzer::{PartitionPlan, SemanticAnalyzer};
    use crate::api::{leading_ts_fn, QueryConf, SourceConf, SumMerger};
    use crate::executor::read_window_output;
    use crate::time::{EventTime, TimeRange};
    use redoop_dfs::{Cluster, DfsPath};
    use redoop_mapred::{
        ClosureMapper, ClosureReducer, CostModel, MapContext, ReduceContext,
    };
    use std::sync::Arc;

    type TestMapper = ClosureMapper<String, u64, fn(&str, &mut MapContext<String, u64>)>;
    type TestReducer = ClosureReducer<
        String,
        u64,
        String,
        u64,
        fn(&String, &[u64], &mut ReduceContext<String, u64>),
    >;

    fn mapper() -> Arc<TestMapper> {
        fn map(line: &str, ctx: &mut MapContext<String, u64>) {
            if let Some(k) = line.split(',').nth(1) {
                ctx.emit(k.to_string(), 1);
            }
        }
        Arc::new(ClosureMapper::new(map))
    }

    #[allow(clippy::ptr_arg)]
    fn reducer() -> Arc<TestReducer> {
        fn reduce(k: &String, vs: &[u64], ctx: &mut ReduceContext<String, u64>) {
            ctx.emit(k.clone(), vs.iter().sum());
        }
        Arc::new(ClosureReducer::new(reduce))
    }

    fn executor(
        cluster: &Cluster,
        sim: ClusterSim,
        spec: WindowSpec,
        name: &str,
    ) -> RecurringExecutor<TestMapper, TestReducer> {
        let source = SourceConf {
            name: "s".into(),
            spec,
            pane_root: DfsPath::new(format!("/panes/{name}")).unwrap(),
            ts_fn: leading_ts_fn(),
        };
        let conf =
            QueryConf::new(name, 2, DfsPath::new(format!("/out/{name}")).unwrap()).unwrap();
        let adaptive = AdaptiveController::disabled(
            SemanticAnalyzer::new(1024),
            PartitionPlan::simple(100),
        );
        RecurringExecutor::aggregation(
            cluster,
            sim,
            conf,
            source,
            mapper(),
            reducer(),
            Arc::new(SumMerger),
            adaptive,
        )
        .unwrap()
    }

    fn batches() -> Vec<ArrivalBatch> {
        // Two batches covering event time 0..400.
        vec![
            ArrivalBatch::new(
                vec!["10,a".into(), "50,b".into(), "150,a".into()],
                TimeRange::new(EventTime(0), EventTime(200)),
            ),
            ArrivalBatch::new(
                vec!["210,b".into(), "250,a".into(), "390,b".into()],
                TimeRange::new(EventTime(200), EventTime(400)),
            ),
        ]
    }

    #[test]
    fn single_query_deployment_matches_direct_run() {
        let spec = WindowSpec::new(200, 100).unwrap();

        // Direct: manual interleave on its own cluster.
        let direct_cluster = Cluster::with_nodes(4);
        let mut direct = executor(
            &direct_cluster,
            ClusterSim::paper_testbed(4, CostModel::default()),
            spec,
            "dep-direct",
        );
        let mut direct_reports = Vec::new();
        let mut fed = 0usize;
        let data = batches();
        for w in 0..3u64 {
            let fire = spec.fire_time(w);
            while fed < data.len() && data[fed].range.start < fire {
                direct
                    .ingest(0, data[fed].lines.iter().map(String::as_str), &data[fed].range)
                    .unwrap();
                fed += 1;
            }
            direct_reports.push(direct.run_window(w).unwrap());
        }

        // Deployment: same workload through the deployment driver.
        let cluster = Cluster::with_nodes(4);
        let sim = ClusterSim::paper_testbed(4, CostModel::default());
        let exec = executor(&cluster, sim.clone(), spec, "dep-driven");
        let mut dep = RecurringDeployment::new(sim);
        let src = dep.add_source(batches());
        let q = dep.add_query(exec, &[src], 3).unwrap();
        let fired = dep.run().unwrap();

        assert_eq!(fired.len(), 3);
        assert_eq!(dep.reports(q).len(), 3);
        for (w, (d, f)) in direct_reports.iter().zip(fired.iter()).enumerate() {
            assert_eq!(f.recurrence, w as u64);
            assert_eq!(d.response, f.report.response, "window {w} response");
            let a: Vec<(String, u64)> =
                read_window_output(&direct_cluster, &d.outputs).unwrap();
            let b: Vec<(String, u64)> = read_window_output(&cluster, &f.report.outputs).unwrap();
            assert_eq!(a, b, "window {w} outputs");
        }
    }

    #[test]
    fn fires_interleave_by_fire_time_with_registration_tiebreak() {
        let cluster = Cluster::with_nodes(4);
        let sim = ClusterSim::paper_testbed(4, CostModel::default());
        let fast = WindowSpec::new(200, 100).unwrap(); // fires at 200, 300, 400...
        let slow = WindowSpec::new(400, 200).unwrap(); // fires at 400, 600...
        let e1 = executor(&cluster, sim.clone(), fast, "dep-fast");
        let e2 = executor(&cluster, sim.clone(), slow, "dep-slow");
        let mut dep = RecurringDeployment::new(sim);
        let src1 = dep.add_source(batches());
        let src2 = dep.add_source(batches());
        dep.add_query(e1, &[src1], 3).unwrap();
        dep.add_query(e2, &[src2], 1).unwrap();
        let fired = dep.run().unwrap();
        let order: Vec<(usize, u64)> =
            fired.iter().map(|f| (f.query, f.recurrence)).collect();
        // fast fires at 200, 300, 400; slow at 400. The 400 tie goes to
        // the earlier-registered query (fast).
        assert_eq!(order, vec![(0, 0), (0, 1), (0, 2), (1, 0)]);
    }

    #[test]
    fn add_query_rejects_unknown_source() {
        let cluster = Cluster::with_nodes(4);
        let sim = ClusterSim::paper_testbed(4, CostModel::default());
        let spec = WindowSpec::new(200, 100).unwrap();
        let exec = executor(&cluster, sim.clone(), spec, "dep-bad");
        let mut dep = RecurringDeployment::new(sim);
        let err = dep.add_query(exec, &[7], 1).unwrap_err();
        assert!(
            matches!(&err, crate::error::RedoopError::InvalidQuery(m)
                if m.contains("unregistered deployment source 7")),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn sharing_under_eviction_matches_uncapped_and_rebuilds_once() {
        use crate::cache::policy::{CacheBudget, CachePolicyKind};
        use redoop_mapred::trace::{CacheAction, TraceEvent, TraceSink};

        // Overlap 0.75 (pane 100ms, window 400ms) and a 2-query fleet
        // over one shared source: the first query to fire builds each
        // (pane, partition) product, the second hits it in the shared
        // cache layer, and a product expires only once both queries
        // have set their done bits.
        let spec = WindowSpec::new(400, 100).unwrap();
        let windows = 6u64;
        let data: Vec<ArrivalBatch> = (0..windows + 3)
            .map(|p| {
                let lo = p * 100;
                ArrivalBatch::new(
                    (lo..lo + 100)
                        .step_by(4)
                        .map(|t| format!("{t},k{}", t % 5))
                        .collect(),
                    TimeRange::new(EventTime(lo), EventTime(lo + 100)),
                )
            })
            .collect();

        let run = |budget: Option<CacheBudget>| -> (Vec<Vec<u8>>, TraceSink) {
            let cluster = Cluster::with_nodes(4);
            let sim = ClusterSim::paper_testbed(4, CostModel::default());
            let shared = crate::shared::SharedSource::new(
                &cluster,
                0,
                "evict-share",
                DfsPath::new("/panes/evict-share").unwrap(),
                &[spec],
                leading_ts_fn(),
            )
            .unwrap();
            let sink = TraceSink::enabled();
            let mut execs: Vec<_> = (0..2)
                .map(|i| {
                    let conf = QueryConf::new(
                        format!("ev-q{i}"),
                        2,
                        DfsPath::new(format!("/out/ev-q{i}")).unwrap(),
                    )
                    .unwrap();
                    let adaptive = AdaptiveController::disabled(
                        SemanticAnalyzer::new(1024),
                        PartitionPlan::simple(100),
                    );
                    let mut e = crate::executor::RecurringExecutor::aggregation_shared(
                        &cluster,
                        sim.clone(),
                        conf,
                        &shared,
                        spec,
                        mapper(),
                        reducer(),
                        Arc::new(SumMerger),
                        adaptive,
                    )
                    .unwrap();
                    e.set_trace_sink(sink.clone());
                    e
                })
                .collect();
            let mut dep = RecurringDeployment::new(sim);
            let src = dep.add_shared_source(shared, data.clone());
            for e in execs.iter_mut() {
                dep.add_query(e, &[src], windows).unwrap();
            }
            if let Some(b) = budget {
                dep.set_cache_policy(b);
            }
            let fired = dep.run().unwrap();
            let mut outs = Vec::new();
            for f in &fired {
                for p in &f.report.outputs {
                    outs.push(cluster.read(p).unwrap().to_vec());
                }
            }
            (outs, sink)
        };

        let (oracle, free_sink) = run(None);
        assert!(
            !free_sink.events().is_empty(),
            "uncapped run must journal (sanity for the comparisons below)"
        );

        // Budget sized from the uncapped run: twice the largest single
        // cache, so every cache fits but nodes hold only a couple —
        // evictions are forced while nothing is refused outright.
        let max_cache = free_sink
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Cache { action: CacheAction::Register, bytes, .. } => Some(*bytes),
                _ => None,
            })
            .max()
            .expect("uncapped run registers caches");
        let (capped, sink) =
            run(Some(CacheBudget::bounded(CachePolicyKind::Lru, max_cache * 2)));

        // Eviction changes *when* work happens, never *what* is computed:
        // the fleet's window outputs are bit-identical to uncapped.
        assert_eq!(capped, oracle, "outputs must not depend on the cache budget");

        // Per-cache event history, in journal order.
        let mut history: std::collections::BTreeMap<String, Vec<CacheAction>> =
            std::collections::BTreeMap::new();
        for e in sink.events() {
            if let TraceEvent::Cache { action, name, .. } = e {
                history.entry(name).or_default().push(action);
            }
        }
        let evicted: Vec<_> =
            history.iter().filter(|(_, h)| h.contains(&CacheAction::Evict)).collect();
        assert!(!evicted.is_empty(), "the tight budget must actually evict");
        // Each shared product expires once, after every consumer's last
        // hit on it — the first query's done bit kept it for the second.
        let mut expired = 0;
        for h in history.values() {
            let expires: Vec<usize> =
                (0..h.len()).filter(|&i| h[i] == CacheAction::Expire).collect();
            assert!(expires.len() <= 1, "a shared product expired twice: {h:?}");
            if let (Some(&e), Some(last_hit)) =
                (expires.first(), h.iter().rposition(|a| *a == CacheAction::Hit))
            {
                assert!(e > last_hit, "expired before its last consumer's hit: {h:?}");
                expired += 1;
            }
        }
        assert!(expired > 0, "the run must retire shared products");
        assert!(
            history.values().flatten().any(|a| *a == CacheAction::SharedHit),
            "sharing must survive the capacity pressure"
        );
        // An evicted cache that is still wanted re-registers exactly once
        // per eviction (the lost-cache miss path), not in a thrash loop:
        // between consecutive evictions there is exactly one Register.
        let sane_rebuilds = evicted.iter().any(|(_, h)| {
            let mut evicts = 0usize;
            let mut rebuilds = 0usize;
            let mut seen_evict = false;
            for a in h.iter() {
                match a {
                    CacheAction::Evict => {
                        evicts += 1;
                        seen_evict = true;
                    }
                    CacheAction::Register if seen_evict => rebuilds += 1,
                    _ => {}
                }
            }
            rebuilds == evicts || rebuilds == evicts - 1
        });
        assert!(sane_rebuilds, "an evicted cache must rebuild once per eviction, not thrash");
    }

    #[test]
    fn add_query_rejects_incompatible_shared_geometry() {
        let cluster = Cluster::with_nodes(4);
        let sim = ClusterSim::paper_testbed(4, CostModel::default());
        // Shared pane 100ms (from a 200/100 spec).
        let good = WindowSpec::new(200, 100).unwrap();
        let shared = crate::shared::SharedSource::new(
            &cluster,
            0,
            "shared-geom",
            DfsPath::new("/panes/shared-geom").unwrap(),
            &[good],
            leading_ts_fn(),
        )
        .unwrap();
        let mut dep = RecurringDeployment::new(sim.clone());
        let src = dep.add_shared_source(shared, batches());
        // win 210 / slide 70: pane 100 divides neither.
        let bad_spec = WindowSpec::new(210, 70).unwrap();
        let bad = executor(&cluster, sim.clone(), bad_spec, "dep-geom-bad");
        let err = dep.add_query(bad, &[src], 1).unwrap_err();
        assert!(
            matches!(&err, crate::error::RedoopError::InvalidQuery(m)
                if m.contains("incompatible with shared source")),
            "unexpected error: {err}"
        );
        // A compatible query attaches fine.
        let ok = executor(&cluster, sim, good, "dep-geom-ok");
        assert!(dep.add_query(ok, &[src], 1).is_ok());
    }
}
