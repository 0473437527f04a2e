//! Driver layer: dispatches a [`WindowPlan`](super::plan::WindowPlan)
//! onto the simulated cluster.
//!
//! The driver is the single place where plan tasks meet the Eq. 4
//! scheduler and the virtual timeline. Per reduce partition it
//!
//! 1. anchors the partition with one Eq. 4 placement over the plan's
//!    required-cache set (build tasks are deliberately co-located with
//!    their partition's finalization task — pane products must live on
//!    the node that merges them),
//! 2. walks the partition's build nodes once for cache hit/miss
//!    accounting and trace emission,
//! 3. runs the map stage for missing panes,
//! 4. runs every missing pane product through the **build chain**, and
//! 5. finalizes the partition into its window part file.
//!
//! The build chain is the one cache lifecycle of §3 and §5: for each
//! build task, in plan order, it stores the product's blob on the
//! anchor, records the build (status matrix, expiry sets) by cache kind,
//! charges the reduce work — scaled down to the missing frame suffix
//! when the audit salvaged part of a damaged cache — and registers the
//! product at the task's end. In batch mode every build is its own
//! item of the partition's reduce attempt, gated on its own inputs, so
//! independent (pane × partition) builds across partitions overlap in
//! virtual time; proactive mode charges one early micro-task per
//! sub-pane, or one early task per group of pane pairs. Aggregation and
//! join differ only in what they hand the chain (`agg` / `join`): the
//! pure compute of each product, the pair tasks' readiness and
//! old-input reads, and the body of the finalization task.
//!
//! Determinism contract: all real compute (mapping, sorting, reducing)
//! may run on parallel host threads, but every `sim.assign` and every
//! trace emission happens in this module's sequential loops, in plan
//! order — so simulated results and trace journals are byte-identical
//! across host worker counts.
//!
//! §5 recovery (the heartbeat audit rolling lost caches back to
//! HDFS-available) and the post-window expiry/purge sweep live here
//! too: they are driver concerns — bookkeeping between plan executions.
//! Both act on the executor's cache layer, which every query on a
//! shared source holds: a hit on a cache another query built is an
//! ordinary controller hit, and expiry casts this query's
//! `doneQueryMask` bit.

use std::collections::{HashMap, HashSet};

use redoop_dfs::{DfsPath, NodeId};
use redoop_mapred::counters::names as cnames;
use redoop_mapred::trace::{CacheAction, NodeScore, TraceEvent};
use redoop_mapred::{
    exec, io as mrio, JobMetrics, MapWork, Mapper, Placement, ReduceWork, Reducer, Scheduler,
    SchedulerCtx, SimTime, TaskKind,
};

use crate::adaptive::ExecMode;
use crate::cache::controller::CacheController;
use crate::cache::{CacheName, CacheObject};
use crate::error::{RedoopError, Result};
use crate::pane::PaneId;
use crate::scheduler::{
    argmin_shortlist, cache_affinity, cache_holders, MapTaskEntry, ReduceTaskEntry,
};

use super::plan::{PlanKind, PlanTask, WindowPlan};
use super::RecurringExecutor;

/// Per-map-task (per block split) statistics kept for proactive-mode
/// pipelining, grouped by the sub-pane file the split came from.
pub(super) struct SliceMapInfo {
    /// Index of the originating [`crate::packer::PaneSlice`] (sub-pane).
    pub(super) slice_idx: usize,
    /// Virtual completion of this split's map task.
    pub(super) end: SimTime,
    /// Per-partition shuffle bucket bytes produced by this split.
    pub(super) bucket_bytes: Vec<u64>,
    /// Per-partition shuffle bucket records produced by this split.
    pub(super) bucket_records: Vec<u64>,
}

/// Per-sub-pane aggregate of [`SliceMapInfo`]: the unit of proactive
/// reduce pipelining (one early micro-task per *sub-pane*, not per
/// block — a whole pane is one unit when the plan has no subdivision).
struct SubpaneCharge {
    ready: SimTime,
    bytes: u64,
    records: u64,
}

fn subpane_charges(slices: &[SliceMapInfo], r: usize) -> Vec<SubpaneCharge> {
    let mut by_slice: std::collections::BTreeMap<usize, SubpaneCharge> =
        std::collections::BTreeMap::new();
    for si in slices {
        let e = by_slice.entry(si.slice_idx).or_insert(SubpaneCharge {
            ready: SimTime::ZERO,
            bytes: 0,
            records: 0,
        });
        e.ready = e.ready.max(si.end);
        e.bytes += si.bucket_bytes[r];
        e.records += si.bucket_records[r];
    }
    by_slice.into_values().collect()
}

/// One partition's decoded shuffle pairs, cloned out by every cache
/// build that needs them.
pub(super) type RawSlot<K, V> = std::sync::Mutex<Vec<(K, V)>>;

/// Transient real map output of one pane: shuffle accounting, one
/// bucket per reduce partition, plus the virtual time each became
/// available.
pub(super) struct MappedPane<K, V> {
    pub(super) ready: SimTime,
    /// Per-partition shuffle accounting (`text_bytes`/`records`); the
    /// binary stream stays empty — `raw` holds the live pairs, so
    /// nothing would ever decode it.
    pub(super) buckets: Vec<mrio::ShuffleBucket>,
    pub(super) slices: Vec<SliceMapInfo>,
    /// Decoded shuffle pairs per partition, kept for the pane's whole
    /// lifetime; cache builds clone them out (a flat memcpy — cheaper
    /// than the encode/decode round-trip the binary stream used to
    /// fund). Cleared with the pane after each window.
    pub(super) raw: Vec<RawSlot<K, V>>,
}

/// Pure real-side output of one map split, produced on a worker thread
/// before any virtual-time accounting happens.
struct SplitMapOut<K, V> {
    parts: Vec<Vec<(K, V)>>,
    work: MapWork,
    replicas: Vec<NodeId>,
}

/// Pure real-side output of one cache build (pane output, input cache,
/// or pair output), produced on a worker thread. `cache_text_bytes` is
/// the text-equivalent size the cost model charges and the registry
/// records, independent of the stored encoding.
pub(super) struct BuiltCache {
    pub(super) input_records: u64,
    pub(super) shuffle_text_bytes: u64,
    pub(super) cache_text_bytes: u64,
    /// Records the build's reducer emitted (0 for input caches, which
    /// run no reducer); a pair output's build charges them.
    pub(super) output_records: u64,
    pub(super) blob: bytes::Bytes,
}

/// Scales a rebuild's charged reduce work down to the missing frame
/// suffix of a salvaged cache: `intact` of `total` frames survived the
/// damaged blob's checksum audit, so the rebuild recomputes only the
/// `(total - intact) / total` tail. The map stage and the host-side
/// recomputation stay whole — salvage changes what the simulated reduce
/// attempt pays, never what is produced.
fn scale_partial_rebuild(work: &mut ReduceWork, intact: u32, total: u32) {
    if intact == 0 || total == 0 || intact >= total {
        return;
    }
    let miss = (total - intact) as u64;
    let total = total as u64;
    work.shuffle_bytes = work.shuffle_bytes * miss / total;
    work.input_records = work.input_records * miss / total;
    work.local_output_bytes = work.local_output_bytes * miss / total;
}

/// Window-level dispatch context threaded through the driver.
#[derive(Clone, Copy)]
pub(super) struct WindowCtx {
    /// Window fire time (event close).
    pub(super) fire: SimTime,
    /// Earliest virtual time work may start (fire in batch mode, ZERO in
    /// proactive mode — slices are still gated by arrival).
    pub(super) floor: SimTime,
    /// Execution mode decided by the adaptive controller.
    pub(super) mode: ExecMode,
}

/// One partition's dispatch-time state: the Eq. 4 anchor node, which
/// build tasks are cache misses, and per-pane map completion times.
pub(super) struct PartitionPrep {
    /// Node every task of this partition runs on.
    pub(super) node: NodeId,
    /// Missing pane products in plan order: the cache each builds (the
    /// plan's `produces` name, or the `ro/…` name a missed `FoldDelta`
    /// falls back to) and the `(source, pane)` it is built from.
    pub(super) missing: Vec<(CacheName, u32, PaneId)>,
    /// Set twin of `missing`'s panes for O(1) membership.
    pub(super) missing_set: HashSet<(u32, u64)>,
    /// Missing pane pairs in plan (left-major) order: the pair-output
    /// cache each builds and its `(left, right)` panes.
    pub(super) todo_pairs: Vec<(CacheName, PaneId, PaneId)>,
    /// Panes whose `FoldDelta` node hit a sealed delta (`rd/…`) cache on
    /// the anchor — the merge reads those under the delta name.
    pub(super) delta_hits: HashSet<u64>,
    /// Map-stage completion per missing `(source, pane)`.
    pub(super) map_ready: HashMap<(u32, u64), SimTime>,
}

/// One partition's reduce attempt, threaded through the build chain to
/// the finalizer.
#[derive(Default)]
pub(super) struct Attempt {
    /// A batch item was charged: later items (and the finalizer) run
    /// back-to-back in the same attempt instead of paying start-up.
    started: bool,
    /// End of the attempt's last batch item.
    prev_end: SimTime,
    /// Latest end of the partition's proactive early tasks.
    early_done: SimTime,
}

/// How the build chain charges one task onto the simulated timeline.
pub(super) enum Charge {
    /// Batch: the next item of the partition's reduce attempt, ready at
    /// `gate` (its pane's map completion, or its pair inputs) and after
    /// the attempt's previous item, streaming `cache_bytes` of old
    /// inputs.
    Attempt { gate: SimTime, cache_bytes: u64 },
    /// Proactive: one early micro-task per sub-pane of the product's
    /// pane, each ready as soon as that sub-pane's map output exists.
    Subpanes,
    /// Proactive: one early task at `ready` building all its products.
    Early { ready: SimTime },
}

/// One task of the build chain: the products it materializes and how it
/// is charged.
pub(super) struct ChainTask {
    pub(super) products: Vec<(CacheName, BuiltCache)>,
    pub(super) charge: Charge,
}

/// What a partition's finalization task hands the driver: the part
/// file's contents, its readiness gate, and its charged work.
pub(super) struct Finale {
    /// Latest `available_at` of the products the task consumes.
    pub(super) ready: SimTime,
    /// Cache bytes the task reads.
    pub(super) cache_bytes: u64,
    /// Aggregate records the task merges or copies.
    pub(super) aggregate_records: u64,
    /// The window part file (text).
    pub(super) out: Vec<u8>,
}

/// Reduce work of building one product in its own task: pane products
/// pay their shuffle and sort, pair outputs emit their join records and
/// stream `cache_bytes` of old inputs.
fn build_work(name: &CacheName, built: &BuiltCache, cache_bytes: u64) -> ReduceWork {
    let mut work = ReduceWork {
        cache_bytes,
        local_output_bytes: built.cache_text_bytes,
        ..Default::default()
    };
    match name.object {
        CacheObject::PairOutput { .. } => work.output_records = built.output_records,
        _ => {
            work.shuffle_bytes = built.shuffle_text_bytes;
            work.input_records = built.input_records;
        }
    }
    work
}

/// Task label of a batch build of `name` in recurrence `rec`.
fn build_label(rec: u64, name: &CacheName) -> String {
    let r = name.partition;
    match name.object {
        CacheObject::PaneInput { source, pane, .. } => {
            format!("build/w{rec}/s{source}p{}/r{r}", pane.0)
        }
        CacheObject::PaneOutput { pane, .. } | CacheObject::PaneDelta { pane, .. } => {
            format!("build/w{rec}/p{}/r{r}", pane.0)
        }
        CacheObject::PairOutput { left, right } => {
            format!("build/w{rec}/p{}x{}/r{r}", left.0, right.0)
        }
    }
}

impl<M, R> RecurringExecutor<M, R>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    // ------------------------------------------------------------------
    // Plan dispatch
    // ------------------------------------------------------------------

    /// Dispatches one window plan: per partition, anchor + account +
    /// map + build chain + finalize. Returns the output part files in
    /// partition order.
    pub(super) fn drive(
        &mut self,
        plan: &WindowPlan,
        ctx: WindowCtx,
        metrics: &mut JobMetrics,
    ) -> Result<Vec<DfsPath>> {
        let mut outputs = Vec::with_capacity(plan.num_reducers);
        for r in 0..plan.num_reducers {
            let prep = self.prepare_partition(plan, r, ctx, metrics)?;
            let mut attempt = Attempt::default();
            self.build_pane_products(plan, &prep, ctx, &mut attempt, metrics)?;
            let finale = match plan.kind {
                PlanKind::Aggregation => self.merge_panes(plan, r, &prep, ctx)?,
                PlanKind::BinaryJoin => {
                    self.join_pairs(plan, r, &prep, ctx, &mut attempt, metrics)?
                }
            };
            outputs.push(self.finalize(plan, r, prep.node, &attempt, finale, metrics)?);
        }
        Ok(outputs)
    }

    /// Partition prologue: Eq. 4 anchor placement, centralized hit/miss
    /// accounting over the partition's build nodes, and the map stage
    /// for missing panes.
    fn prepare_partition(
        &mut self,
        plan: &WindowPlan,
        r: usize,
        ctx: WindowCtx,
        metrics: &mut JobMetrics,
    ) -> Result<PartitionPrep> {
        let names = plan.required_caches(r);
        let kind_label = match plan.kind {
            PlanKind::Aggregation => "agg",
            PlanKind::BinaryJoin => "join",
        };
        let node =
            self.pick_reduce_node(&names, ctx.fire, &format!("w{}/{kind_label}/r{r}", plan.recurrence));

        let mut missing: Vec<(CacheName, u32, PaneId)> = Vec::new();
        let mut missing_set: HashSet<(u32, u64)> = HashSet::new();
        let mut todo_pairs: Vec<(CacheName, PaneId, PaneId)> = Vec::new();
        let mut todo_set: HashSet<(u64, u64)> = HashSet::new();
        let mut delta_hits: HashSet<u64> = HashSet::new();
        let cache = self.cache.clone();
        let mut layer = cache.lock();
        let cached_on = |ctl: &CacheController, name: &CacheName| {
            ctl.location(name) == Some(node)
        };
        for pnode in plan.partition_nodes(r) {
            let name = match pnode.task {
                PlanTask::BuildPane { .. }
                | PlanTask::BuildPair { .. }
                | PlanTask::FoldDelta { .. } => pnode.produces[0],
                PlanTask::MergePanes { .. } | PlanTask::FinalReduce { .. } => continue,
            };
            // The cache the merge would read on a hit, and the cache a
            // miss builds: the produced name, except that a `FoldDelta`
            // whose delta was lost falls back to the plain reduce-output
            // cache — hit if a previous window's rebuild left it, else
            // rebuilt from the raw pane files.
            let mut hit_name = name;
            let mut build_name = name;
            let hit = match pnode.task {
                PlanTask::BuildPane { .. } => cached_on(&layer.controller, &name),
                PlanTask::FoldDelta { source, pane, .. } => {
                    build_name = super::plan::output_name(plan.fp, source, pane, r);
                    if cached_on(&layer.controller, &name) {
                        delta_hits.insert(pane.0);
                        true
                    } else if cached_on(&layer.controller, &build_name) {
                        hit_name = build_name;
                        true
                    } else {
                        false
                    }
                }
                PlanTask::BuildPair { left, right, .. } => {
                    self.matrix.is_done(&[left, right]) && cached_on(&layer.controller, &name)
                }
                _ => unreachable!(),
            };
            let bytes = layer.controller.signature(&hit_name).map_or(0, |s| s.bytes);
            self.trace.emit(|| TraceEvent::Cache {
                at: ctx.fire,
                action: if hit { CacheAction::Hit } else { CacheAction::Miss },
                name: hit_name.store_name(),
                node: if hit { Some(node) } else { None },
                bytes,
            });
            if hit {
                // Recency feedback for the eviction policy (no trace
                // event, so journals are unchanged by the stamp).
                layer.controller.touch(&hit_name, ctx.fire);
                // A query's first hit on a product another query built
                // (builders mark their own at registration) is a
                // cross-query hit. The pane now counts as processed here,
                // so this query's expiry sweep will cast its done bit.
                if layer.controller.mark_seen(&hit_name, self.cache_bit) {
                    self.win_stats.shared_hits += 1;
                    self.trace.emit(|| TraceEvent::Cache {
                        at: ctx.fire,
                        action: CacheAction::SharedHit,
                        name: hit_name.store_name(),
                        node: Some(node),
                        bytes,
                    });
                    if let Some((source, pane)) = pane_of(&hit_name) {
                        self.built_panes.insert((source, pane.0));
                        self.matrix.mark_done(&[pane]);
                    }
                }
                self.window_reused += 1;
                self.win_stats.cache_hits += 1;
                continue;
            }
            self.win_stats.cache_misses += 1;
            match pnode.task {
                PlanTask::BuildPane { source, pane, .. }
                | PlanTask::FoldDelta { source, pane, .. } => {
                    if missing_set.insert((source, pane.0)) {
                        missing.push((build_name, source, pane));
                    }
                }
                PlanTask::BuildPair { left, right, .. } => {
                    if todo_set.insert((left.0, right.0)) {
                        todo_pairs.push((build_name, left, right));
                    }
                }
                _ => unreachable!(),
            }
        }
        drop(layer);

        // Map stage for missing panes. Membership is a set probe, not a
        // scan over the window's pane list.
        for &(_, s, p) in &missing {
            self.lists.reopen_map(MapTaskEntry { source: s, pane: p, sub: 0 });
        }
        let mut map_ready: HashMap<(u32, u64), SimTime> = HashMap::new();
        while let Some(entry) = self.lists.pop_map() {
            if missing_set.contains(&(entry.source, entry.pane.0)) {
                let t = self.ensure_pane_mapped(entry.source, entry.pane, ctx.floor, metrics)?;
                map_ready.insert((entry.source, entry.pane.0), t);
            }
        }
        Ok(PartitionPrep { node, missing, missing_set, todo_pairs, delta_hits, map_ready })
    }

    // ------------------------------------------------------------------
    // Build chain
    // ------------------------------------------------------------------

    /// Builds the partition's missing pane products — partial aggregates
    /// (`ro/…`) or sorted reduce-input runs (`ri/…`) — through the
    /// chain. The pure compute runs on parallel host threads; the chain
    /// charges the products in plan order, each as the next item of the
    /// reduce attempt (batch) or as per-sub-pane early tasks (proactive).
    /// Every reduce-input run also enters the run table with the blob
    /// the chain stores, so the window's pair joins read it decoded.
    fn build_pane_products(
        &mut self,
        plan: &WindowPlan,
        prep: &PartitionPrep,
        ctx: WindowCtx,
        attempt: &mut Attempt,
        metrics: &mut JobMetrics,
    ) -> Result<()> {
        type Built<K, V> = (BuiltCache, Option<mrio::GroupedBlock<K, V>>);
        let computed: Vec<Result<Built<M::KOut, M::VOut>>> = {
            let mapped = &self.mapped;
            let reducer = &*self.reducer;
            exec::parallel_map(prep.missing.len(), |i| {
                let (name, s, p) = prep.missing[i];
                let r = name.partition;
                let m = mapped.get(&(s, p.0)).expect("pane mapped before build");
                let raw = m.raw[r].lock().expect("raw pairs lock").clone();
                Ok(match name.object {
                    CacheObject::PaneInput { .. } => {
                        let (built, run) =
                            Self::input_cache_compute(&m.buckets[r], raw, p.0, r as u32);
                        Ok((built, Some(run)))
                    }
                    _ => Self::pane_output_compute(&m.buckets[r], raw, reducer, p.0, r as u32)
                        .map(|built| (built, None)),
                })
            })?
        };
        let mut tasks = Vec::with_capacity(computed.len());
        for (&(name, s, p), out) in prep.missing.iter().zip(computed) {
            tasks.push(out.map(|(built, run)| {
                if let Some(run) = run {
                    self.runs.insert(name, built.blob.clone(), run);
                }
                let charge = match ctx.mode {
                    ExecMode::Batch => Charge::Attempt {
                        gate: prep.map_ready.get(&(s, p.0)).copied().unwrap_or(ctx.floor),
                        cache_bytes: 0,
                    },
                    ExecMode::Proactive => Charge::Subpanes,
                };
                ChainTask { products: vec![(name, built)], charge }
            }));
        }
        self.build_chain(plan.recurrence, prep.node, ctx, attempt, tasks, metrics)
    }

    /// The build chain (see module docs): for each task in order, stores
    /// its products on `node`, records the builds, charges the reduce
    /// work — scaled to the missing suffix of a salvaged cache — and
    /// registers the products at the task's end.
    pub(super) fn build_chain(
        &mut self,
        rec: u64,
        node: NodeId,
        ctx: WindowCtx,
        attempt: &mut Attempt,
        tasks: impl IntoIterator<Item = Result<ChainTask>>,
        metrics: &mut JobMetrics,
    ) -> Result<()> {
        for task in tasks {
            let ChainTask { products, charge } = task?;
            for (name, built) in &products {
                self.cluster.put_local(node, name.store_name(), built.blob.clone())?;
                self.note_built(name);
            }
            // A salvage verdict from the last audit means the product's
            // lost cache still holds `intact` checksummed frames on disk:
            // the §5 rollback classifies it as partially recoverable and
            // this rebuild pays only the missing frame suffix.
            let salvage = match products.as_slice() {
                [(name, _)] => self.cache.lock().controller.salvaged(name),
                _ => None,
            };
            let items: Vec<(SimTime, ReduceWork, String, bool)> = match charge {
                Charge::Attempt { gate, cache_bytes } => {
                    let (name, built) = &products[0];
                    let ready = ctx.fire.max(attempt.prev_end).max(gate);
                    let work = build_work(name, built, cache_bytes);
                    vec![(ready, work, build_label(rec, name), !attempt.started)]
                }
                Charge::Subpanes => {
                    let (name, built) = &products[0];
                    let (source, pane) = pane_of(name).expect("sub-pane tasks build panes");
                    let slices = &self.mapped[&(source, pane.0)].slices;
                    let charges = subpane_charges(slices, name.partition);
                    let n = charges.len().max(1) as u64;
                    charges
                        .into_iter()
                        .map(|c| {
                            let work = ReduceWork {
                                shuffle_bytes: c.bytes,
                                input_records: c.records,
                                output_records: c.records,
                                local_output_bytes: built.cache_text_bytes / n,
                                ..Default::default()
                            };
                            (c.ready, work, "pane".to_string(), true)
                        })
                        .collect()
                }
                Charge::Early { ready } => {
                    let mut work = ReduceWork::default();
                    for (name, built) in &products {
                        let w = build_work(name, built, 0);
                        work.output_records += w.output_records;
                        work.local_output_bytes += w.local_output_bytes;
                    }
                    vec![(ready, work, "join".to_string(), true)]
                }
            };
            let mut end = SimTime::ZERO;
            for (ready, mut work, label, startup) in items {
                if let Some((intact, total)) = salvage {
                    scale_partial_rebuild(&mut work, intact, total);
                }
                end = end.max(self.charge_reduce(node, ready, &work, &label, startup, metrics).end);
            }
            if matches!(charge, Charge::Attempt { .. }) {
                attempt.started = true;
                attempt.prev_end = end;
            } else {
                attempt.early_done = attempt.early_done.max(end);
            }
            for (name, built) in &products {
                self.register(*name, node, built.cache_text_bytes, end);
                if salvage.is_some_and(|(i, t)| i > 0 && i < t) {
                    self.trace.emit(|| TraceEvent::Cache {
                        at: end,
                        action: CacheAction::PartialRebuild,
                        name: name.store_name(),
                        node: Some(node),
                        bytes: built.cache_text_bytes,
                    });
                }
            }
        }
        Ok(())
    }

    /// Records one fresh build by cache kind: pane products join the
    /// expiry sweep's pane set (a partial aggregate also completes its
    /// pane in the status matrix once the last partition is built), pair
    /// outputs mark their pair done.
    fn note_built(&mut self, name: &CacheName) {
        match name.object {
            CacheObject::PaneOutput { source, pane }
            | CacheObject::PaneDelta { source, pane } => {
                if name.partition == self.conf.num_reducers - 1 {
                    self.matrix.mark_done(&[pane]);
                }
                self.built_panes.insert((source, pane.0));
            }
            CacheObject::PaneInput { source, pane, .. } => {
                self.built_panes.insert((source, pane.0));
            }
            CacheObject::PairOutput { left, right } => {
                self.matrix.mark_done(&[left, right]);
                self.built_pairs.insert((left.0, right.0));
            }
        }
        self.window_built += 1;
    }

    /// Writes the partition's window part file and charges the "merge"
    /// task that produced it, gated on every consumed product and on the
    /// proactive early tasks. A batch merge continues the partition's
    /// reduce attempt unless nothing was built; a proactive merge is its
    /// own late task and pays start-up.
    fn finalize(
        &mut self,
        plan: &WindowPlan,
        r: usize,
        node: NodeId,
        attempt: &Attempt,
        finale: Finale,
        metrics: &mut JobMetrics,
    ) -> Result<DfsPath> {
        let rec = plan.recurrence;
        let path = self.conf.output_part(rec, r);
        let work = ReduceWork {
            cache_bytes: finale.cache_bytes,
            aggregate_records: finale.aggregate_records,
            hdfs_output_bytes: finale.out.len() as u64,
            ..Default::default()
        };
        self.cluster.create(&path, bytes::Bytes::from(finale.out))?;
        let ready = finale.ready.max(attempt.early_done);
        let placement = self.charge_reduce(node, ready, &work, "merge", !attempt.started, metrics);
        self.trace.emit(|| TraceEvent::TaskSpan {
            phase: "merge",
            node: placement.node,
            start: placement.start,
            end: placement.end,
            label: format!("w{rec}/r{r}"),
        });
        Ok(path)
    }

    // ------------------------------------------------------------------
    // Scheduling plumbing
    // ------------------------------------------------------------------

    fn alive_vec(&self) -> Vec<bool> {
        let mut alive = vec![false; self.cluster.node_count()];
        for id in self.cluster.alive_nodes() {
            alive[id.index()] = true;
        }
        alive
    }

    /// Picks the node for a reduce-side task ready at `floor`, per Eq. 4.
    /// Loads are clamped to `floor`: a slot freeing up before the task
    /// can start contributes no waiting time, so only *actual* queueing
    /// competes with the cache-affinity term.
    ///
    /// Untraced runs take a candidate shortlist — the cache holders plus
    /// the best uniformly-priced node from the load index — instead of
    /// scanning every node's affinity; the winner is provably identical
    /// (see `argmin_shortlist`). Traced runs keep the full scan, whose
    /// per-node scores the `Placement` journal event records.
    pub(super) fn pick_reduce_node(
        &mut self,
        caches: &[CacheName],
        floor: SimTime,
        label: &str,
    ) -> NodeId {
        let node = if !self.options.cache_aware_scheduling {
            // Plain-Hadoop reduce placement: whichever task tracker's
            // heartbeat wins — arbitrary with respect to caches. Modeled
            // as a rotation over live nodes.
            let alive_ids = self.cluster.alive_nodes();
            let node = alive_ids[(self.blind_counter as usize) % alive_ids.len()];
            self.blind_counter += 1;
            self.trace.emit(|| TraceEvent::Placement {
                at: floor,
                kind: TaskKind::Reduce,
                label: format!("{label}/blind"),
                chosen: node,
                scores: Vec::new(),
            });
            node
        } else if !self.trace.is_enabled() {
            let cost = self.sim.cost().clone();
            let layer = self.cache.lock();
            let controller = &layer.controller;
            let holders = cache_holders(controller, caches);
            let mut skip: Vec<usize> = holders.iter().map(|n| n.index()).collect();
            skip.extend(self.cluster.dead_node_indexes());
            skip.sort_unstable();
            skip.dedup();
            let best_other = self.sim.pick_min_clamped(TaskKind::Reduce, floor, &skip);
            argmin_shortlist(
                &holders,
                |n| self.cluster.is_alive(n),
                best_other,
                |n| {
                    self.sim.node_load(TaskKind::Reduce, n).max(floor)
                        + cache_affinity(controller, caches, n, &cost)
                },
            )
        } else {
            let loads: Vec<SimTime> =
                self.sim.loads(TaskKind::Reduce).into_iter().map(|l| l.max(floor)).collect();
            let alive = self.alive_vec();
            let ctx = SchedulerCtx { loads: &loads, alive: &alive };
            let cost = self.sim.cost().clone();
            let layer = self.cache.lock();
            let controller = &layer.controller;
            let affinity = move |n: NodeId| cache_affinity(controller, caches, n, &cost);
            let node = self.scheduler.pick_node(TaskKind::Reduce, &ctx, &affinity);
            self.trace.emit(|| TraceEvent::Placement {
                at: floor,
                kind: TaskKind::Reduce,
                label: label.to_string(),
                chosen: node,
                scores: loads
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| alive[i])
                    .map(|(i, &load)| NodeScore {
                        node: NodeId(i as u32),
                        load,
                        cost: affinity(NodeId(i as u32)),
                    })
                    .collect(),
            });
            node
        };
        self.win_stats.placements_total += 1;
        let layer = self.cache.lock();
        if caches.iter().any(|n| layer.controller.location(n) == Some(node)) {
            self.win_stats.placements_cache_local += 1;
        }
        node
    }

    fn charge_map(
        &mut self,
        node: NodeId,
        ready: SimTime,
        work: &MapWork,
        local: bool,
        metrics: &mut JobMetrics,
    ) -> Placement {
        let duration = work.duration(self.sim.cost(), local);
        let placement = self.sim.assign(TaskKind::Map, node, ready, duration);
        metrics.phases.map += duration;
        metrics.map_tasks += 1;
        metrics.counters.add(cnames::MAP_INPUT_RECORDS, work.input_records);
        metrics.counters.add(cnames::MAP_OUTPUT_RECORDS, work.output_records);
        metrics.counters.add(cnames::HDFS_BYTES_READ, work.split_bytes);
        metrics.finished_at = metrics.finished_at.max(placement.end);
        placement
    }

    /// Charges one reduce work item. `startup` pays the task start-up
    /// constant — true for the first item of a partition's reduce
    /// attempt (and for proactive micro-tasks, which each model their
    /// own early task); false for follow-on items the same attempt
    /// works through back-to-back.
    pub(super) fn charge_reduce(
        &mut self,
        node: NodeId,
        ready: SimTime,
        work: &ReduceWork,
        label: &str,
        startup: bool,
        metrics: &mut JobMetrics,
    ) -> Placement {
        let phases = work.phases_in_attempt(self.sim.cost(), startup);
        let placement = self.sim.assign(TaskKind::Reduce, node, ready, phases.total());
        self.trace.emit(|| TraceEvent::TaskSpan {
            phase: "shuffle",
            node,
            start: placement.start,
            end: placement.start + phases.copy,
            label: label.to_string(),
        });
        self.trace.emit(|| TraceEvent::TaskSpan {
            phase: "sort",
            node,
            start: placement.start + phases.copy,
            end: placement.start + phases.copy + phases.sort,
            label: label.to_string(),
        });
        self.trace.emit(|| TraceEvent::TaskSpan {
            phase: "reduce",
            node,
            start: placement.start + phases.copy + phases.sort,
            end: placement.end,
            label: label.to_string(),
        });
        metrics.phases.shuffle += phases.copy;
        metrics.phases.sort += phases.sort;
        metrics.phases.reduce += phases.reduce;
        metrics.reduce_tasks += 1;
        metrics.counters.add(cnames::SHUFFLE_BYTES, work.shuffle_bytes);
        metrics.counters.add(cnames::CACHE_BYTES_READ, work.cache_bytes);
        metrics.counters.add(cnames::REDUCE_INPUT_RECORDS, work.input_records);
        metrics.counters.add(cnames::REDUCE_OUTPUT_RECORDS, work.output_records);
        metrics.counters.add(cnames::HDFS_BYTES_WRITTEN, work.hdfs_output_bytes);
        metrics.finished_at = metrics.finished_at.max(placement.end);
        placement
    }

    // ------------------------------------------------------------------
    // Map stage
    // ------------------------------------------------------------------

    /// Runs (for real) and charges (virtually) the map tasks of one pane,
    /// producing its encoded shuffle buckets. `floor` is the earliest
    /// virtual time work may start (window fire time in batch mode,
    /// `ZERO` in proactive mode — slices are still gated by arrival).
    pub(super) fn ensure_pane_mapped(
        &mut self,
        source: u32,
        pane: PaneId,
        floor: SimTime,
        metrics: &mut JobMetrics,
    ) -> Result<SimTime> {
        if let Some(m) = self.mapped.get(&(source, pane.0)) {
            return Ok(m.ready);
        }
        let slices: Vec<crate::packer::PaneSlice> = self.sources[source as usize]
            .packer
            .lock()
            .manifest()
            .slices_of(pane)
            .to_vec();
        let num_reducers = self.conf.num_reducers;
        let block_size = self.cluster.config().block_size.max(1);
        let mut buckets: Vec<mrio::ShuffleBucket> =
            vec![mrio::ShuffleBucket::default(); num_reducers];
        let mut ready = floor;
        // One map task per DFS block of each slice, like Hadoop's
        // block-aligned input splits.
        let mut tasks: Vec<(usize, crate::packer::PaneSlice, std::ops::Range<usize>, u64)> =
            Vec::new();
        for (slice_idx, slice) in slices.iter().enumerate() {
            let n_tasks = ((slice.bytes as usize).div_ceil(block_size)).max(1);
            let lines = slice.lines.clone();
            let total = lines.len();
            let chunk = total.div_ceil(n_tasks).max(1);
            let mut start = lines.start;
            while start < lines.end {
                let end = (start + chunk).min(lines.end);
                let frac = (end - start) as f64 / total.max(1) as f64;
                let bytes = (slice.bytes as f64 * frac).round() as u64;
                tasks.push((slice_idx, slice.clone(), start..end, bytes));
                start = end;
            }
            if total == 0 {
                tasks.push((slice_idx, slice.clone(), lines, 0));
            }
        }
        // Real execution: map every split in parallel on host threads.
        // This is pure compute over immutable inputs (pane files, mapper,
        // combiner, partitioner); all virtual-time accounting happens in
        // the sequential apply loop below, in split order, so simulated
        // results are identical to a single-threaded run.
        // Fetch and line-index each slice file once, up front — splits of
        // the same slice share the index instead of re-reading the file.
        let slice_files: Vec<Result<redoop_mapred::LineFile>> = {
            let cluster = &self.cluster;
            exec::parallel_map(slices.len(), |i| {
                Ok(cluster
                    .read(&slices[i].path)
                    .map(redoop_mapred::LineFile::index_cached)
                    .map_err(RedoopError::from))
            })?
        };
        let slice_files: Vec<redoop_mapred::LineFile> =
            slice_files.into_iter().collect::<Result<_>>()?;
        let computed: Vec<Result<SplitMapOut<M::KOut, M::VOut>>> = {
            let cluster = &self.cluster;
            let mapper = &*self.mapper;
            let combiner = self.combiner.as_deref();
            let partitioner = &self.partitioner;
            let slice_files = &slice_files;
            exec::parallel_map_scratch(
                tasks.len(),
                redoop_mapred::MapContext::<M::KOut, M::VOut>::new,
                |scratch, i| {
                    let (slice_idx, slice, line_range, split_bytes) = &tasks[i];
                    let mut compute = || -> Result<SplitMapOut<M::KOut, M::VOut>> {
                        let file = &slice_files[*slice_idx];
                        // Partition-first: pairs are hashed once at emit time
                        // into per-reducer buckets (via the worker's reused
                        // scratch context); the combiner folds each bucket.
                        let (mut parts, input_records) = exec::run_mapper_partitioned(
                            mapper,
                            file.lines(line_range.clone()),
                            partitioner,
                            num_reducers,
                            scratch,
                        );
                        if let Some(c) = combiner {
                            for b in parts.iter_mut() {
                                *b = exec::apply_combiner(std::mem::take(b), c);
                            }
                        }
                        let replicas = cluster
                            .namenode()
                            .get_file(&slice.path)
                            .map(|m| {
                                m.blocks.first().map(|b| b.replicas.clone()).unwrap_or_default()
                            })
                            .unwrap_or_default();
                        // output_records/output_bytes are filled in the
                        // sequential apply loop, where the pairs are
                        // encoded once into the pane's accumulators.
                        let work = MapWork {
                            split_bytes: *split_bytes,
                            input_records,
                            output_records: 0,
                            output_bytes: 0,
                        };
                        Ok(SplitMapOut { parts, work, replicas })
                    };
                    Ok(compute())
                },
            )?
        };
        let mut slice_infos: Vec<SliceMapInfo> = Vec::with_capacity(tasks.len());
        let mut raw: Vec<Vec<(M::KOut, M::VOut)>> =
            (0..num_reducers).map(|_| Vec::new()).collect();
        for ((slice_idx, slice, _line_range, _split_bytes), out) in
            tasks.iter().zip(computed)
        {
            let SplitMapOut { parts, mut work, replicas } = out?;
            let mut bucket_bytes = vec![0u64; num_reducers];
            let mut bucket_records = vec![0u64; num_reducers];
            for (r, part) in parts.iter().enumerate() {
                // Charged bytes stay text-equivalent regardless of how
                // the pairs are held in host memory.
                let (text_bytes, records) = buckets[r].account_pairs(part);
                bucket_bytes[r] = text_bytes;
                bucket_records[r] = records;
            }
            work.output_records = bucket_records.iter().sum();
            work.output_bytes = bucket_bytes.iter().sum();
            for (r, part) in parts.into_iter().enumerate() {
                raw[r].extend(part);
            }
            // Virtual: place on a map slot with HDFS locality affinity.
            // Replicas pay nothing and everyone else pays one uniform
            // remote-read penalty, so untraced runs shortlist the replica
            // holders plus the load index's best other node instead of
            // scanning the cluster (same winner; see `argmin_shortlist`).
            let cost = self.sim.cost().clone();
            let task_ready = floor.max(slice.ready_at);
            let bytes = work.split_bytes;
            let node = if !self.trace.is_enabled() {
                let mut favored = replicas.clone();
                favored.sort_unstable();
                favored.dedup();
                let mut skip: Vec<usize> = favored.iter().map(|n| n.index()).collect();
                skip.extend(self.cluster.dead_node_indexes());
                skip.sort_unstable();
                skip.dedup();
                let best_other = self.sim.pick_min_clamped(TaskKind::Map, task_ready, &skip);
                argmin_shortlist(
                    &favored,
                    |n| self.cluster.is_alive(n),
                    best_other,
                    |n| {
                        let penalty = cost
                            .hdfs_read(bytes, replicas.contains(&n))
                            .saturating_sub(cost.hdfs_read(bytes, true));
                        self.sim.node_load(TaskKind::Map, n).max(task_ready) + penalty
                    },
                )
            } else {
                let loads: Vec<SimTime> = self
                    .sim
                    .loads(TaskKind::Map)
                    .into_iter()
                    .map(|l| l.max(task_ready))
                    .collect();
                let alive = self.alive_vec();
                let ctx = SchedulerCtx { loads: &loads, alive: &alive };
                let reps = replicas.clone();
                let node = self.scheduler.pick_node(TaskKind::Map, &ctx, &move |n| {
                    let local = reps.contains(&n);
                    cost.hdfs_read(bytes, local).saturating_sub(cost.hdfs_read(bytes, true))
                });
                self.trace.emit(|| TraceEvent::Placement {
                    at: task_ready,
                    kind: TaskKind::Map,
                    label: format!("map/s{source}p{}/{slice_idx}", pane.0),
                    chosen: node,
                    scores: loads
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| alive[i])
                        .map(|(i, &load)| NodeScore {
                            node: NodeId(i as u32),
                            load,
                            cost: self
                                .sim
                                .cost()
                                .hdfs_read(bytes, replicas.contains(&NodeId(i as u32)))
                                .saturating_sub(self.sim.cost().hdfs_read(bytes, true)),
                        })
                        .collect(),
                });
                node
            };
            let local = replicas.contains(&node);
            let placement = self.charge_map(node, task_ready, &work, local, metrics);
            self.trace.emit(|| TraceEvent::TaskSpan {
                phase: "map",
                node: placement.node,
                start: placement.start,
                end: placement.end,
                label: format!("map/s{source}p{}/{slice_idx}", pane.0),
            });
            self.win_stats.placements_total += 1;
            if local {
                self.win_stats.placements_cache_local += 1;
            }
            slice_infos.push(SliceMapInfo {
                slice_idx: *slice_idx,
                end: placement.end,
                bucket_bytes,
                bucket_records,
            });
            ready = ready.max(placement.end);
        }
        let raw = raw.into_iter().map(std::sync::Mutex::new).collect();
        self.mapped.insert(
            (source, pane.0),
            MappedPane { ready, buckets, slices: slice_infos, raw },
        );
        Ok(ready)
    }

    // ------------------------------------------------------------------
    // Cache registration
    // ------------------------------------------------------------------

    /// Registers a cache this query built on `node` with the cache layer
    /// (which reclaims any stale copy, policy victims, or a refused
    /// newcomer through the registries' purge path) and marks it seen
    /// by this query, so only *other* queries' first hits count as
    /// cross-query hits.
    pub(super) fn register(&mut self, name: CacheName, node: NodeId, bytes: u64, at: SimTime) {
        // Estimate the reconstruction cost as the source pane bytes (per
        // partition): losing a small aggregate cache still forces a full
        // pane re-read/re-map/re-shuffle.
        let rebuild = self.rebuild_bytes_of(&name);
        // Admission sees the window-lifespan use estimate; cost-based
        // policies weigh rebuild cost by it.
        let uses = self.remaining_uses_of(&name);
        let mut layer = self.cache.lock();
        layer.controller.note_remaining_uses(name, uses);
        let admission = layer.register(name, node, bytes, rebuild, at);
        layer.controller.mark_seen(&name, self.cache_bit);
        self.win_stats.evictions += admission.evicted.len() as u64;
        if !admission.admitted {
            self.win_stats.admit_rejects += 1;
        }
    }

    /// Window-lifespan estimate of a cache's future uses: how many
    /// upcoming recurrences' windows still contain the underlying
    /// pane(s) (paper §4.1). This is the remaining-use factor of the
    /// cost-based eviction score — a Belady-style proxy the window
    /// geometry makes exact for pane lifetimes.
    fn remaining_uses_of(&self, name: &CacheName) -> u32 {
        let geom = self.sources[0].geom;
        // The recurrence currently executing (or about to): reports are
        // pushed after each window, so `len()` is the active index both
        // mid-window and at ingest-time delta seals.
        let next = self.reports.len() as u64 + 1;
        let end = match name.object {
            CacheObject::PaneInput { pane, .. }
            | CacheObject::PaneOutput { pane, .. }
            | CacheObject::PaneDelta { pane, .. } => geom.windows_containing(pane).end,
            CacheObject::PairOutput { left, right } => {
                geom.windows_containing(left).end.min(geom.windows_containing(right).end)
            }
        };
        end.saturating_sub(next).min(u32::MAX as u64) as u32
    }

    /// Per-partition source bytes behind one cache object.
    fn rebuild_bytes_of(&self, name: &CacheName) -> u64 {
        let r = self.conf.num_reducers as u64;
        match name.object {
            CacheObject::PaneInput { source, pane, .. }
            | CacheObject::PaneOutput { source, pane }
            | CacheObject::PaneDelta { source, pane } => {
                self.sources[source as usize].packer.lock().manifest().pane_bytes(pane) / r
            }
            CacheObject::PairOutput { left, right } => {
                (self.sources[0].packer.lock().manifest().pane_bytes(left)
                    + self
                        .sources
                        .get(1)
                        .map(|s| s.packer.lock().manifest().pane_bytes(right))
                        .unwrap_or(0))
                    / r
            }
        }
    }

    // ------------------------------------------------------------------
    // Recovery and maintenance
    // ------------------------------------------------------------------

    /// Synchronizes every node's Local Cache Registry with the
    /// Window-Aware Cache Controller via heartbeats (paper §2.3): caches
    /// the controller believed materialized but missing from a node's
    /// report are rolled back to HDFS-available (ready 2 → 1), so they
    /// get rebuilt on demand (paper §5 failure recovery). Returns the
    /// number of lost caches.
    pub fn audit_caches(&mut self) -> usize {
        self.cache.lock().audit(&self.cluster)
    }

    /// Expiration + purging after recurrence `rec` (paper §4.1/§4.2):
    /// panes and pairs that left the window and exhausted their lifespans
    /// get this query's `doneQueryMask` bit set — caches every consumer
    /// is done with send purge notifications to the local registries —
    /// and registries run their purge policies.
    pub(super) fn expire_and_purge(&mut self, rec: u64) -> Result<()> {
        let geom = self.sources[0].geom;
        let (fp, bit) = (self.active_fp(), self.cache_bit);
        let cache = self.cache.clone();
        let mut layer = cache.lock();

        let expired_panes: Vec<(u32, u64)> = self
            .built_panes
            .iter()
            .copied()
            .filter(|&(source, p)| {
                let dim = if self.matrix.dims() == 1 { 0 } else { source as usize };
                geom.pane_out_of_window(PaneId(p), rec)
                    && self.matrix.pane_fully_processed(dim, PaneId(p))
            })
            .collect();
        for (source, p) in expired_panes {
            // Sweep every signature belonging to this (source, pane) —
            // crucially including adaptive sub-pane inputs (`sub >= 1`),
            // which a literal-object enumeration would miss. The
            // controller's pane index serves exactly this set without a
            // full-table scan per expired pane.
            for name in layer.controller.names_for_pane(source, p) {
                if name.fp == fp {
                    layer.retire(name, bit)?;
                    self.interned.remove(&name);
                }
            }
            self.trace.emit(|| TraceEvent::PaneExpire {
                at: self.trace.now(),
                source,
                pane: p,
            });
            self.built_panes.remove(&(source, p));
        }

        if self.matrix.dims() == 2 {
            let expired_pairs: Vec<(u64, u64)> = self
                .built_pairs
                .iter()
                .copied()
                .filter(|&(p, q)| {
                    let wp = geom.windows_containing(PaneId(p));
                    let wq = geom.windows_containing(PaneId(q));
                    wp.end.min(wq.end) <= rec + 1
                })
                .collect();
            for (p, q) in expired_pairs {
                for r in 0..self.conf.num_reducers {
                    let name = super::plan::pair_name(fp, PaneId(p), PaneId(q), r);
                    if layer.controller.signature(&name).is_some() {
                        layer.retire(name, bit)?;
                        self.interned.remove(&name);
                    }
                }
                self.built_pairs.remove(&(p, q));
            }
        }

        layer.purge(&self.cluster, rec)?;
        // Run-table entries live no longer than their caches' residency:
        // runs retired, evicted, refused or lost above or during the
        // window leave with the window that last read them.
        self.runs.retain(|name| layer.controller.location(name).is_some());
        drop(layer);
        // GC the scheduler's dedupe sets: without this, `map_seen` /
        // `reduce_seen` grow by one entry per pane (and pane pair) for
        // the lifetime of the stream.
        self.lists.gc(
            |e| geom.pane_out_of_window(e.pane, rec),
            |e| match e {
                ReduceTaskEntry::PaneReduce { pane, .. } => geom.pane_out_of_window(*pane, rec),
                ReduceTaskEntry::PairJoin { left, right } => {
                    geom.pane_out_of_window(*left, rec) || geom.pane_out_of_window(*right, rec)
                }
            },
        );
        self.matrix.shift(rec);
        Ok(())
    }
}

/// The `(source, pane)` a pane-scoped cache belongs to (`None` for pair
/// outputs).
fn pane_of(name: &CacheName) -> Option<(u32, PaneId)> {
    match name.object {
        CacheObject::PaneInput { source, pane, .. }
        | CacheObject::PaneOutput { source, pane }
        | CacheObject::PaneDelta { source, pane } => Some((source, pane)),
        CacheObject::PairOutput { .. } => None,
    }
}
