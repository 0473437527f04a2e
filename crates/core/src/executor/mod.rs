//! The Redoop recurring-query executor, split into three layers:
//!
//! * **Plan** ([`plan`]): [`plan::WindowPlan`] — a typed task DAG
//!   describing what one window recurrence needs (pane builds, pair
//!   joins, finalization), annotated with required/produced cache names.
//!   Pure data, unit-testable without a cluster.
//! * **Driver** (the private `driver` module): the single dispatcher consuming
//!   the DAG — Eq. 4 placement, centralized cache hit/miss accounting,
//!   the map stage, the build chain that stores, charges and registers
//!   every pane product (independent pane × partition builds overlap on
//!   the simulated timeline), the finalization task, trace emission, the
//!   §5 recovery audit, and post-window expiry/purging. The private
//!   `agg` / `join` submodules hold only what differs between the two
//!   query shapes: product compute, pair readiness, and the merge versus
//!   concatenation body.
//! * **Deployment** ([`crate::deployment`]): owns shared sources plus N
//!   executors and interleaves their ingestion and window firings on one
//!   shared virtual clock.
//!
//! The execution semantics compose every component of the paper:
//!
//! * the Dynamic Data Packer seals arriving batches into pane files,
//! * per window, only panes without materialized caches are mapped and
//!   shuffled; cached pane products are *reused* from the task nodes'
//!   local stores (reduce-input caches for joins, reduce-output caches
//!   for aggregations, pane-pair output caches for join windows),
//! * reduce-side work is placed by the cache-aware scheduler (Eq. 4)
//!   and charged virtual time on the simulated cluster,
//! * a finalization step merges per-pane partial results into the
//!   recurrence's output (`<output_root>/w{i}/part-r-*`),
//! * after each recurrence, expired caches are detected through the
//!   cache status matrix + lifespans and purged via the local registries,
//! * cache losses (node failures) are detected at window start and healed
//!   by re-executing exactly the producing tasks (paper §5 recovery).
//!
//! Aggregation queries have one source and require a [`Merger`] — the
//! finalization function merging per-pane partial aggregates. The
//! reducer's output key must have the same textual form as its input key
//! (true for grouping aggregations), because merged partials are re-read
//! under the mapper's key type. Binary joins have two sources; the
//! reduce function sees both sources' values per key and emits join
//! results.

pub mod plan;

mod agg;
mod delta;
mod driver;
mod join;

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use parking_lot::Mutex;

use redoop_dfs::{Cluster, DfsPath};
use redoop_mapred::counters::names as cnames;
use redoop_mapred::trace::{TraceEvent, TraceSink, WindowTraceStats};
use redoop_mapred::{
    io as mrio, ClusterSim, HashPartitioner, JobMetrics, Mapper, Reducer, SimTime, Writable,
};

use crate::adaptive::{AdaptiveController, ExecMode};
use crate::api::{Merger, QueryConf, SourceConf};
use crate::cache::layer::{CacheLayer, ControllerView};
use crate::cache::policy::CacheBudget;
use crate::cache::status_matrix::CacheStatusMatrix;
use crate::cache::{CacheName, CacheObject};
use crate::error::{RedoopError, Result};
use crate::packer::DynamicDataPacker;
use crate::pane::PaneId;
use crate::query::WindowSpec;
use crate::scheduler::{CacheAwareScheduler, MapTaskEntry, TaskLists};
use crate::time::TimeRange;

use self::driver::MappedPane;

/// Feature switches for ablation experiments.
#[derive(Debug, Clone, Copy)]
pub struct ExecutorOptions {
    /// Reuse caches across windows (the paper's core optimization).
    /// When false, every window rebuilds all pane products.
    pub caching: bool,
    /// Use cache-locality affinity when placing reduce-side tasks
    /// (Eq. 4). When false, reduces are placed load-only, like plain
    /// Hadoop — caches landing on other nodes must be rebuilt.
    pub cache_aware_scheduling: bool,
    /// Maintain pane state incrementally at ingestion when the query has
    /// an algebraically-safe combiner (fold arriving deltas, seal on pane
    /// close), so firing pays only the merge. When false — or when the
    /// query has no combiner — every pane product is built at fire time.
    pub delta_maintenance: bool,
    /// Share pane caches across queries attached to one
    /// [`crate::shared::SharedSource`]: signature-equivalent queries
    /// name the same caches in the source's one cache layer, so one
    /// query's builds are hits for every other compatible query, and a
    /// pane lives until the last of them is done with it. When false
    /// the executor keys its caches with a private fingerprint that no
    /// other query shares. Must be set before the first window — cache
    /// names are derived from the active fingerprint, so flipping it
    /// mid-stream orphans already-built caches.
    pub cross_query_sharing: bool,
}

impl Default for ExecutorOptions {
    fn default() -> Self {
        ExecutorOptions {
            caching: true,
            cache_aware_scheduling: true,
            delta_maintenance: true,
            cross_query_sharing: true,
        }
    }
}

/// Per-recurrence execution report.
#[derive(Debug, Clone)]
pub struct WindowReport {
    /// Recurrence index.
    pub recurrence: u64,
    /// Virtual time the window fired (event close).
    pub fired_at: SimTime,
    /// Response time: last output written minus fire time.
    pub response: SimTime,
    /// Execution mode used.
    pub mode: ExecMode,
    /// Merged metrics of every task charged for this recurrence.
    pub metrics: JobMetrics,
    /// Output part files.
    pub outputs: Vec<DfsPath>,
    /// Pane/pair products built (or rebuilt) this window.
    pub built_products: usize,
    /// Cache hits this window.
    pub reused_caches: usize,
    /// Journal-derived per-window aggregates: cache hit/miss counts,
    /// placement locality, rollbacks (always tracked, even when no trace
    /// sink is installed — the counters are cheap integers).
    pub trace: WindowTraceStats,
}

/// Shared or owned packer handle: multi-query deployments attach several
/// executors to one packer via [`crate::shared::SharedSource`].
type PackerHandle = Arc<Mutex<DynamicDataPacker>>;

impl std::fmt::Display for WindowReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "window {}: response {} ({:?} mode, {} built, {} reused)",
            self.recurrence, self.response, self.mode, self.built_products, self.reused_caches
        )
    }
}

struct SourceState {
    conf: SourceConf,
    geom: crate::pane::PaneGeometry,
    packer: PackerHandle,
    /// Whether the packer is shared with other queries
    /// ([`crate::shared::SharedSource`]): shared sources ingest outside
    /// this executor's ingest path, so delta maintenance cannot observe
    /// their batches and stays off.
    shared: bool,
}

/// The fingerprints an executor's cache names carry: `shared` with
/// [`ExecutorOptions::cross_query_sharing`] on, `private` with it off.
/// Owned-source executors have nothing to share, so both are their
/// cluster-unique namespace fingerprint.
#[derive(Clone, Copy)]
struct Fingerprints {
    /// Equal for every signature-equivalent query on a shared source.
    shared: u64,
    /// Unique to this query, so its cache files stay disjoint from
    /// every other query's on the common cluster.
    private: u64,
}

/// The recurring-query executor. See module docs.
pub struct RecurringExecutor<M, R>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    cluster: Cluster,
    sim: ClusterSim,
    conf: QueryConf,
    options: ExecutorOptions,
    mapper: Arc<M>,
    reducer: Arc<R>,
    merger: Option<Arc<dyn Merger<M::KOut, R::VOut>>>,
    combiner: Option<Arc<dyn redoop_mapred::Combiner<M::KOut, M::VOut>>>,
    partitioner: HashPartitioner,
    sources: Vec<SourceState>,
    /// The controller and node registries: shared with every query on
    /// the same [`crate::shared::SharedSource`], private otherwise.
    cache: CacheLayer,
    /// This query's `doneQueryMask` bit in `cache`.
    cache_bit: u32,
    fps: Fingerprints,
    matrix: CacheStatusMatrix,
    lists: TaskLists,
    adaptive: AdaptiveController,
    scheduler: CacheAwareScheduler,
    mapped: HashMap<(u32, u64), MappedPane<M::KOut, M::VOut>>,
    /// Rendered store names, interned per cache identity: lookups on the
    /// hot path (local-store reads) reuse one allocation instead of
    /// re-`format!`ing per probe.
    interned: HashMap<CacheName, Arc<str>>,
    delta: delta::DeltaMaintenance<M::KOut, M::VOut>,
    built_panes: BTreeSet<(u32, u64)>,
    built_pairs: BTreeSet<(u64, u64)>,
    window_built: usize,
    window_reused: usize,
    /// Rotation counter for cache-blind reduce placement (see
    /// [`ExecutorOptions::cache_aware_scheduling`]).
    blind_counter: u64,
    trace: TraceSink,
    win_stats: WindowTraceStats,
    reports: Vec<WindowReport>,
}

impl<M, R> RecurringExecutor<M, R>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    /// Builds an executor for an **aggregation** query (one source; the
    /// merger implements the finalization function over the reducer's
    /// partial aggregates).
    #[allow(clippy::too_many_arguments)]
    pub fn aggregation(
        cluster: &Cluster,
        sim: ClusterSim,
        conf: QueryConf,
        source: SourceConf,
        mapper: Arc<M>,
        reducer: Arc<R>,
        merger: Arc<dyn Merger<M::KOut, R::VOut>>,
        adaptive: AdaptiveController,
    ) -> Result<Self> {
        Self::build(
            cluster,
            sim,
            conf,
            vec![(source, None)],
            None,
            None,
            mapper,
            reducer,
            Some(merger),
            adaptive,
        )
    }

    /// Like [`RecurringExecutor::aggregation`], attaching to a
    /// [`crate::shared::SharedSource`] instead of owning its packer: the
    /// pane files are ingested once and consumed by every query attached
    /// to the source. The executor must not re-plan a shared packer, so
    /// shared deployments should use a non-adaptive controller.
    ///
    /// Attaching also computes the query's *operator fingerprint* — a
    /// stable hash of the mapper/reducer type identity, the partitioner,
    /// the reducer count, the shared pane length, and the query's
    /// [`QueryConf::share_tag`] — and attaches the executor to the
    /// source's cache layer as a consumer of that fingerprint. Queries
    /// landing on the same fingerprint name (and therefore share) the
    /// same pane caches. **Caveat:** type identity cannot see through function
    /// pointers — two `ClosureMapper<_, _, fn(..)>`s built from
    /// *different* `fn` items share one type name. Give such queries
    /// distinct `share_tag`s (or distinct closure types) unless they
    /// really are the same operator.
    #[allow(clippy::too_many_arguments)]
    pub fn aggregation_shared(
        cluster: &Cluster,
        sim: ClusterSim,
        conf: QueryConf,
        shared: &crate::shared::SharedSource,
        spec: WindowSpec,
        mapper: Arc<M>,
        reducer: Arc<R>,
        merger: Arc<dyn Merger<M::KOut, R::VOut>>,
        adaptive: AdaptiveController,
    ) -> Result<Self> {
        let source = shared.conf_for(spec)?;
        let handle = shared.packer_handle();
        let mut fp = crate::query::FingerprintBuilder::new();
        fp.push_str("agg")
            .push_str(std::any::type_name::<M>())
            .push_str(std::any::type_name::<R>())
            .push_str("HashPartitioner")
            .push_u64(conf.num_reducers as u64)
            .push_u64(shared.pane_ms())
            .push_str(conf.share_tag.as_deref().unwrap_or(""));
        let fp_shared = fp.finish();
        // The private fingerprint additionally folds in per-query
        // identity so sharing-off executors keep disjoint files on the
        // common cluster.
        fp.push_str("private").push_str(&conf.name).push_str(conf.output_root.as_str());
        let fps = Fingerprints { shared: fp_shared, private: fp.finish() };
        Self::build(
            cluster,
            sim,
            conf,
            vec![(source, Some(handle))],
            Some(shared.pane_ms()),
            Some((shared.cache_layer().clone(), fps)),
            mapper,
            reducer,
            Some(merger),
            adaptive,
        )
    }

    /// Builds an executor for a **binary join** query (two sources with
    /// identical window constraints; the reduce function performs the
    /// join within each key group).
    pub fn binary_join(
        cluster: &Cluster,
        sim: ClusterSim,
        conf: QueryConf,
        sources: [SourceConf; 2],
        mapper: Arc<M>,
        reducer: Arc<R>,
        adaptive: AdaptiveController,
    ) -> Result<Self> {
        let [a, b] = sources;
        Self::build(
            cluster,
            sim,
            conf,
            vec![(a, None), (b, None)],
            None,
            None,
            mapper,
            reducer,
            None,
            adaptive,
        )
    }

    /// A private cache layer for an executor owning its sources. The
    /// first such executor on a cluster keeps fingerprint 0 (the legacy
    /// store names); every later one gets its own, so executors sharing
    /// a cluster never overwrite each other's node-local cache files.
    fn owned_cache(cluster: &Cluster) -> (CacheLayer, Fingerprints) {
        let fp = match cluster.claim_cache_namespace() {
            0 => 0,
            ns => crate::query::FingerprintBuilder::new().push_str("owned").push_u64(ns).finish(),
        };
        (CacheLayer::new(cluster.node_count()), Fingerprints { shared: fp, private: fp })
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        cluster: &Cluster,
        sim: ClusterSim,
        conf: QueryConf,
        sources: Vec<(SourceConf, Option<PackerHandle>)>,
        pane_override_ms: Option<u64>,
        shared_cache: Option<(CacheLayer, Fingerprints)>,
        mapper: Arc<M>,
        reducer: Arc<R>,
        merger: Option<Arc<dyn Merger<M::KOut, R::VOut>>>,
        adaptive: AdaptiveController,
    ) -> Result<Self> {
        if sources.is_empty() || sources.len() > 2 {
            return Err(RedoopError::InvalidQuery("1 or 2 sources supported".into()));
        }
        let num_reducers = conf.num_reducers;
        if sources.len() == 1 && merger.is_none() {
            return Err(RedoopError::InvalidQuery("aggregation requires a merger".into()));
        }
        // Window firing uses one spec for the whole query, so every
        // source must carry the same window constraints — reject the
        // mismatch here instead of silently firing by `sources[0]`.
        let spec0 = sources[0].0.spec;
        if sources.iter().any(|(s, _)| s.spec != spec0) {
            return Err(RedoopError::InvalidQuery(
                "all sources of a query must share the same window constraints".into(),
            ));
        }
        let geom_of = |spec: &WindowSpec| -> Result<crate::pane::PaneGeometry> {
            match pane_override_ms {
                None => Ok(crate::pane::PaneGeometry::from_spec(spec)),
                Some(p) => crate::pane::PaneGeometry::with_pane(spec, p).ok_or_else(|| {
                    RedoopError::InvalidQuery(format!(
                        "pane {p}ms must divide win {} and slide {}",
                        spec.win, spec.slide
                    ))
                }),
            }
        };
        let geom = geom_of(&spec0)?;
        let mut states = Vec::with_capacity(sources.len());
        for (sid, (src, shared)) in sources.into_iter().enumerate() {
            let src_geom = geom_of(&src.spec)?;
            let is_shared = shared.is_some();
            let packer = match shared {
                Some(handle) => handle,
                None => {
                    let mut plan = adaptive.base_plan();
                    plan.pane_ms = src_geom.pane_ms;
                    Arc::new(Mutex::new(DynamicDataPacker::new(
                        cluster,
                        sid as u32,
                        src.pane_root.clone(),
                        plan,
                        src.ts_fn.clone(),
                    )))
                }
            };
            states.push(SourceState { geom: src_geom, conf: src, packer, shared: is_shared });
        }
        let dims = states.len();
        let (cache, fps) = shared_cache.unwrap_or_else(|| Self::owned_cache(cluster));
        // One journal for the whole executor: the sim's sink (global by
        // default) is propagated to the cache layer. Sharing is on by
        // default, so the query starts out consuming `fps.shared`.
        let trace = sim.trace().clone();
        let cache_bit = {
            let mut layer = cache.lock();
            layer.set_trace_sink(trace.clone());
            layer.controller.attach_query(fps.shared)?
        };
        Ok(RecurringExecutor {
            cluster: cluster.clone(),
            sim,
            conf,
            options: ExecutorOptions::default(),
            mapper,
            reducer,
            merger,
            combiner: None,
            partitioner: HashPartitioner,
            sources: states,
            cache,
            cache_bit,
            fps,
            matrix: CacheStatusMatrix::new(dims, geom),
            lists: TaskLists::new(),
            adaptive,
            scheduler: CacheAwareScheduler,
            mapped: HashMap::new(),
            interned: HashMap::new(),
            delta: delta::DeltaMaintenance::new(num_reducers),
            built_panes: BTreeSet::new(),
            built_pairs: BTreeSet::new(),
            window_built: 0,
            window_reused: 0,
            blind_counter: 0,
            trace,
            win_stats: WindowTraceStats::default(),
            reports: Vec::new(),
        })
    }

    /// Routes the whole executor's journal — simulator, cache controller,
    /// and every node registry — to an explicit sink. The cache layer is
    /// shared by every query on a shared source, so its events follow
    /// the sink installed last.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.sim.set_trace_sink(sink.clone());
        self.cache.lock().set_trace_sink(sink.clone());
        self.trace = sink;
    }

    /// The scheduler's `(map, reduce)` dedupe-set sizes (leak detection).
    pub fn task_seen_counts(&self) -> (usize, usize) {
        self.lists.seen_counts()
    }

    /// Overrides the ablation switches. Set
    /// [`ExecutorOptions::cross_query_sharing`] before the first window:
    /// cache names embed the active fingerprint.
    pub fn set_options(&mut self, options: ExecutorOptions) {
        self.options = options;
        self.cache.lock().controller.bind_query(self.cache_bit, self.active_fp());
    }

    /// Selects the cache lifecycle policy and per-node capacity budget
    /// (paper §4 caching, this implementation's policy layer) of the
    /// executor's cache layer — on a shared source, the budget of every
    /// query attached to it. With the default budget — baseline
    /// window-lifespan policy, unbounded capacity — execution is
    /// bit-identical to an executor that never called this. A bounded
    /// budget makes the controller consult the policy on every
    /// registration and journal `evict` / `admit_reject` decisions.
    pub fn set_cache_policy(&mut self, budget: CacheBudget) {
        let mut layer = self.cache.lock();
        layer.controller.set_policy(budget.policy.build(self.sim.cost()));
        layer.controller.set_capacity(budget.per_node_bytes);
    }

    /// The operator fingerprint this executor's cache names carry (see
    /// [`Fingerprints`]).
    fn active_fp(&self) -> u64 {
        if self.options.cross_query_sharing {
            self.fps.shared
        } else {
            self.fps.private
        }
    }

    /// The interned rendered store name of `name` (see the `interned`
    /// field). Entries are evicted when the controller forgets the name.
    fn interned_store(&mut self, name: &CacheName) -> Arc<str> {
        self.interned
            .entry(*name)
            .or_insert_with(|| Arc::from(name.store_name()))
            .clone()
    }

    /// Installs a map-side combiner: map output is pre-aggregated per key
    /// before partitioning, shrinking shuffle bytes and cache files. The
    /// combiner must be algebraically safe (associative + commutative
    /// folding), as in Hadoop.
    pub fn set_combiner(
        &mut self,
        combiner: Arc<dyn redoop_mapred::Combiner<M::KOut, M::VOut>>,
    ) {
        self.combiner = Some(combiner);
    }

    /// Access to the adaptive controller (e.g. to force proactive mode).
    pub fn adaptive_mut(&mut self) -> &mut AdaptiveController {
        &mut self.adaptive
    }

    /// Reports of completed recurrences.
    pub fn reports(&self) -> &[WindowReport] {
        &self.reports
    }

    /// The simulated cluster state (for inspection or chaining).
    pub fn sim(&self) -> &ClusterSim {
        &self.sim
    }

    /// The cache controller (inspection in tests/benches). The view
    /// holds the cache layer's lock: drop it before running a window.
    pub fn controller(&self) -> ControllerView<'_> {
        self.cache.controller()
    }

    /// This query's `doneQueryMask` bit in its cache layer.
    pub fn cache_bit(&self) -> u32 {
        self.cache_bit
    }

    /// Whether the cache layer's two byte ledgers agree (see
    /// [`CacheLayer::check_accounting`]) — one check covers every query
    /// on the layer. Debug builds assert it after every window. Vacuous
    /// for the caching-off ablation, which invalidates controller
    /// entries without visiting registries.
    pub fn check_cache_accounting(&self) -> std::result::Result<(), String> {
        if !self.options.caching {
            return Ok(());
        }
        self.cache.check_accounting(&self.cluster)
    }

    /// The query's window constraints (identical across all sources —
    /// validated at construction).
    pub fn window_spec(&self) -> WindowSpec {
        self.sources[0].conf.spec
    }

    /// Number of attached sources (1 for aggregations, 2 for joins).
    pub fn num_sources(&self) -> usize {
        self.sources.len()
    }

    /// Ingests one arriving batch into `source`'s packer (the packer
    /// piggybacks pane creation on loading, paper §2.3). Sealed panes are
    /// announced to the cache controller (ready bit 1) and queued on the
    /// map task list.
    ///
    /// When the query carries an algebraically-safe combiner, the batch
    /// is additionally **folded** into per-(pane, partition) delta state
    /// as it lands, and panes the packer just sealed get their delta
    /// state sealed as `rd/…` caches — see the [`delta`](self) module.
    /// The packer parses each record exactly once: the fold reuses the
    /// per-pane line index that pane assignment already produced.
    pub fn ingest<'l>(
        &mut self,
        source: usize,
        lines: impl Iterator<Item = &'l str>,
        range: &TimeRange,
    ) -> Result<()> {
        let sid = source as u32;
        let lines: Vec<&str> = lines.collect();
        let state = &mut self.sources[source];
        let mut packer = state.packer.lock();
        let before = packer.manifest().max_sealed_pane().map(|p| p.0 + 1).unwrap_or(0);
        let outcome = packer.ingest_batch_indexed(&lines, range)?;
        let after = packer.manifest().max_sealed_pane().map(|p| p.0 + 1).unwrap_or(0);
        drop(packer);
        let delta_on = source == 0 && self.delta_enabled();
        if delta_on {
            self.delta_fold_batch(&lines, &outcome, range)?;
        }
        for p in before..after {
            // Announce every sub-pane slice (adaptive plans write several
            // per pane); the expiry sweep retires them all by pane.
            let subs = self.sources[source]
                .packer
                .lock()
                .manifest()
                .slices_of(PaneId(p))
                .len()
                .max(1) as u32;
            let fp = self.active_fp();
            let mut layer = self.cache.lock();
            for r in 0..self.conf.num_reducers {
                for sub in 0..subs {
                    layer.controller.note_hdfs_available(CacheName::with_fp(
                        CacheObject::PaneInput { source: sid, pane: PaneId(p), sub },
                        r,
                        fp,
                    ));
                }
            }
            drop(layer);
            self.lists.push_map(MapTaskEntry { source: sid, pane: PaneId(p), sub: 0 });
            self.trace.emit(|| TraceEvent::PaneSeal {
                at: self.trace.now(),
                source: sid,
                pane: p,
            });
        }
        if delta_on {
            self.delta_seal_panes(before, after)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Window execution
    // ------------------------------------------------------------------

    /// Runs recurrence `rec`, returning its report: builds the window's
    /// [`plan::WindowPlan`] and hands it to the driver. Ingest must have
    /// covered the window's event range first.
    pub fn run_window(&mut self, rec: u64) -> Result<WindowReport> {
        let spec = self.sources[0].conf.spec;
        let fire = SimTime::from_millis(spec.fire_time(rec).as_millis());
        let mut metrics =
            JobMetrics { submitted_at: fire, finished_at: fire, ..Default::default() };
        self.window_built = 0;
        self.window_reused = 0;
        self.win_stats = WindowTraceStats::default();
        self.trace.set_now(fire);

        // Recovery audit: caches claimed available must still exist.
        self.win_stats.rollbacks = self.audit_caches() as u64;
        if !self.options.caching {
            let fp = self.active_fp();
            let mut layer = self.cache.lock();
            for name in layer.controller.all_cached() {
                if name.fp == fp {
                    layer.controller.invalidate(&name);
                }
            }
        }

        // Feed the fresh-volume signal, then take the adaptive decision.
        let geom0 = self.sources[0].geom;
        // Window pane indices are a contiguous range, so "was this pane
        // in the previous window" is a range check, not a scan.
        let prev_panes: std::ops::Range<u64> =
            if rec == 0 { 0..0 } else { geom0.window_panes(rec - 1) };
        let mut fresh_bytes = 0u64;
        let mut fresh_panes = 0u64;
        for st in &self.sources {
            for p in geom0.window_panes(rec) {
                if !prev_panes.contains(&p) {
                    fresh_bytes += st.packer.lock().manifest().pane_bytes(PaneId(p));
                    fresh_panes += 1;
                }
            }
        }
        self.adaptive
            .observe_fresh_volume(fresh_bytes, fresh_panes.max(1) * geom0.pane_ms);
        let decision = self.adaptive.decide();
        for s in &mut self.sources {
            let mut plan = decision.plan;
            plan.pane_ms = s.geom.pane_ms; // pane length is geometry-fixed
            s.packer.lock().set_plan(plan);
        }
        let floor = match decision.mode {
            ExecMode::Batch => fire,
            ExecMode::Proactive => SimTime::ZERO,
        };

        let geom = self.sources[0].geom;
        let panes: Vec<PaneId> = geom.window_panes(rec).map(PaneId).collect();

        // Guard: every pane of this window must have been sealed by the
        // packer. Running early would silently cache empty panes and
        // corrupt later windows.
        let last_needed = *panes.last().expect("windows have panes");
        for st in &self.sources {
            let sealed = st.packer.lock().manifest().max_sealed_pane();
            if sealed.map(|p| p < last_needed).unwrap_or(true) {
                return Err(RedoopError::InvalidQuery(format!(
                    "window {rec} needs pane {} of source {:?} but ingestion only sealed through {:?}",
                    last_needed.0, st.conf.name, sealed
                )));
            }
        }

        // Plan, then drive: the plan enumerates every task with its cache
        // annotations; the driver decides hits vs rebuilds at dispatch.
        // The fold-vs-rebuild choice is made here, at plan-build time,
        // from query properties: incrementally maintained queries get
        // `FoldDelta` nodes (charge only residual fold/seal cost), all
        // others keep `BuildPane` as the explicit fallback.
        let fp = self.active_fp();
        let window_plan = if self.sources.len() == 1 {
            if self.delta_enabled() {
                plan::WindowPlan::aggregation_delta(rec, panes, self.conf.num_reducers, fp)
            } else {
                plan::WindowPlan::aggregation(rec, panes, self.conf.num_reducers, fp)
            }
        } else {
            plan::WindowPlan::binary_join(rec, panes, self.conf.num_reducers, fp)
        };
        let ctx = driver::WindowCtx { fire, floor, mode: decision.mode };
        let outputs = self.drive(&window_plan, ctx, &mut metrics)?;

        // Post-window maintenance: expiration + purging.
        self.trace.set_now(metrics.finished_at);
        self.expire_and_purge(rec)?;
        self.mapped.clear();
        #[cfg(debug_assertions)]
        if let Err(e) = self.check_cache_accounting() {
            panic!("{e}");
        }

        let response = metrics.finished_at.saturating_sub(fire);
        let input_bytes = metrics.counters.get(cnames::HDFS_BYTES_READ);
        self.adaptive.record(response, input_bytes);

        let report = WindowReport {
            recurrence: rec,
            fired_at: fire,
            response,
            mode: decision.mode,
            metrics,
            outputs,
            built_products: self.window_built,
            reused_caches: self.window_reused,
            trace: self.win_stats,
        };
        self.reports.push(report.clone());
        Ok(report)
    }
}

/// Reads a recurrence's output back as sorted, typed pairs — the oracle
/// used to check Redoop against the plain recomputation baseline.
pub fn read_window_output<K, V>(cluster: &Cluster, outputs: &[DfsPath]) -> Result<Vec<(K, V)>>
where
    K: Writable + Ord,
    V: Writable + Ord,
{
    let mut all: Vec<(K, V)> = Vec::new();
    for p in outputs {
        let data = cluster.read(p)?;
        let text = std::str::from_utf8(&data)
            .map_err(|e| RedoopError::BadRecord(format!("output part {p} is not text: {e}")))?;
        all.extend(mrio::decode_kv_block::<K, V>(text)?);
    }
    all.sort();
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::AdaptiveController;
    use crate::analyzer::{PartitionPlan, SemanticAnalyzer};
    use crate::api::{leading_ts_fn, QueryConf, SumMerger};
    use crate::query::WindowSpec;
    use redoop_mapred::{ClosureMapper, ClosureReducer, CostModel, MapContext, ReduceContext};

    type TestMapper = ClosureMapper<String, u64, fn(&str, &mut MapContext<String, u64>)>;
    type TestReducer =
        ClosureReducer<String, u64, String, u64, fn(&String, &[u64], &mut ReduceContext<String, u64>)>;

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

    fn fixture(
    ) -> (Cluster, ClusterSim, QueryConf, SourceConf, AdaptiveController, WindowSpec) {
        let cluster = Cluster::with_nodes(4);
        let sim = ClusterSim::paper_testbed(4, CostModel::default());
        let spec = WindowSpec::new(200, 100).unwrap();
        let conf = QueryConf::new("t", 2, DfsPath::new("/out/t").unwrap()).unwrap();
        let source = SourceConf {
            name: "s".into(),
            spec,
            pane_root: DfsPath::new("/panes/t").unwrap(),
            ts_fn: leading_ts_fn(),
        };
        let adaptive = AdaptiveController::disabled(
            SemanticAnalyzer::new(1024),
            PartitionPlan::simple(100),
        );
        (cluster, sim, conf, source, adaptive, spec)
    }

    #[test]
    fn join_rejects_mismatched_window_specs() {
        let (cluster, sim, conf, source, adaptive, _) = fixture();
        let mut other = source.clone();
        other.spec = WindowSpec::new(400, 100).unwrap();
        let result = RecurringExecutor::binary_join(
            &cluster,
            sim,
            conf,
            [source, other],
            mapper(),
            reducer(),
            adaptive,
        );
        assert!(matches!(result.err(), Some(RedoopError::InvalidQuery(_))));
    }

    #[test]
    fn all_sources_must_share_one_window_spec() {
        // The validation lives in the shared construction path: the
        // error names the window constraints, not a generic failure.
        let (cluster, sim, conf, source, adaptive, _) = fixture();
        let mut other = source.clone();
        other.spec = WindowSpec::new(200, 50).unwrap();
        let err = RecurringExecutor::binary_join(
            &cluster,
            sim,
            conf,
            [source, other],
            mapper(),
            reducer(),
            adaptive,
        )
        .err()
        .expect("mismatched specs must be rejected");
        match err {
            RedoopError::InvalidQuery(msg) => {
                assert!(msg.contains("window constraints"), "unexpected message: {msg}")
            }
            other => panic!("expected InvalidQuery, got {other:?}"),
        }
    }

    #[test]
    fn running_before_ingest_is_an_error_not_corruption() {
        let (cluster, sim, conf, source, adaptive, _) = fixture();
        let mut exec = RecurringExecutor::aggregation(
            &cluster,
            sim,
            conf,
            source,
            mapper(),
            reducer(),
            Arc::new(SumMerger),
            adaptive,
        )
        .unwrap();
        let err = exec.run_window(0).unwrap_err();
        assert!(matches!(err, RedoopError::InvalidQuery(_)), "got {err:?}");
    }

    #[test]
    fn minimal_window_runs_and_reports() {
        let (cluster, sim, conf, source, adaptive, _) = fixture();
        let mut exec = RecurringExecutor::aggregation(
            &cluster,
            sim,
            conf,
            source,
            mapper(),
            reducer(),
            Arc::new(SumMerger),
            adaptive,
        )
        .unwrap();
        exec.ingest(
            0,
            ["10,a", "50,b", "150,a"].into_iter(),
            &crate::time::TimeRange::new(
                crate::time::EventTime(0),
                crate::time::EventTime(200),
            ),
        )
        .unwrap();
        let report = exec.run_window(0).unwrap();
        assert_eq!(report.recurrence, 0);
        assert!(report.response > SimTime::ZERO);
        assert_eq!(report.outputs.len(), 2);
        let out: Vec<(String, u64)> = read_window_output(&cluster, &report.outputs).unwrap();
        assert_eq!(out, vec![("a".to_string(), 2), ("b".to_string(), 1)]);
        assert_eq!(exec.reports().len(), 1);
        // Caches were registered for both panes.
        assert!(!exec.controller().is_empty());
    }

    #[test]
    fn traced_and_untraced_runs_pick_identical_schedules() {
        // Untraced runs place tasks via the shortlist fast path while
        // traced runs keep the full Eq. 4 scan (its per-node scores feed
        // the journal). The two must choose the same nodes, so every
        // virtual-time observable of a run — window responses and output
        // contents — must be bit-identical across the two modes.
        let run = |traced: bool| -> Vec<(SimTime, Vec<Vec<u8>>)> {
            let (cluster, sim, conf, source, adaptive, _) = fixture();
            let mut exec = RecurringExecutor::aggregation(
                &cluster,
                sim,
                conf,
                source,
                mapper(),
                reducer(),
                Arc::new(SumMerger),
                adaptive,
            )
            .unwrap();
            exec.set_trace_sink(if traced {
                TraceSink::enabled()
            } else {
                TraceSink::disabled()
            });
            let lines = |lo: u64, hi: u64| {
                (lo..hi).step_by(2).map(|t| format!("{t},k{}", t % 7)).collect::<Vec<_>>()
            };
            let range = |lo: u64, hi: u64| {
                crate::time::TimeRange::new(crate::time::EventTime(lo), crate::time::EventTime(hi))
            };
            exec.ingest(0, lines(0, 200).iter().map(|s| s.as_str()), &range(0, 200)).unwrap();
            exec.run_window(0).unwrap();
            for w in 1..6u64 {
                let lo = 100 * w + 100;
                exec.ingest(0, lines(lo, lo + 100).iter().map(|s| s.as_str()), &range(lo, lo + 100))
                    .unwrap();
                exec.run_window(w).unwrap();
            }
            exec.reports()
                .iter()
                .map(|r| {
                    let outs = r
                        .outputs
                        .iter()
                        .map(|p| cluster.read(p).unwrap().to_vec())
                        .collect::<Vec<_>>();
                    (r.fired_at + r.response, outs)
                })
                .collect()
        };
        let traced = run(true);
        let untraced = run(false);
        assert_eq!(traced.len(), 6);
        assert_eq!(traced, untraced, "shortlist placement must match the full scan");
    }

    #[test]
    fn audit_on_fresh_executor_is_clean() {
        let (cluster, sim, conf, source, adaptive, _) = fixture();
        let mut exec = RecurringExecutor::aggregation(
            &cluster,
            sim,
            conf,
            source,
            mapper(),
            reducer(),
            Arc::new(SumMerger),
            adaptive,
        )
        .unwrap();
        assert_eq!(exec.audit_caches(), 0);
    }
}
