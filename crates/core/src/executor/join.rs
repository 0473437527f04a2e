//! Binary-join specifics: the pure compute of reduce-input caches and
//! pane-pair joins, the pair tasks' readiness and old-input reads, and
//! the window concatenation body (`FinalReduce`). The driver's build
//! chain stores, charges and registers every product.
//!
//! A pair task is gated on both inputs' `available_at`. An old (reused)
//! input participating in new pairs is charged as a cache read exactly
//! once — in batch mode by the first pair task that streams it, in
//! proactive mode by the concatenation — keeping the charged bytes
//! linear in the inputs, as in the paper's incremental processing
//! ("reducers only need to process the incremental inputs", §6.2.2).
//! Proactive pairs run as early tasks grouped by the later-available
//! input.
//!
//! Joins cannot attach shared sources, so every cache name in this
//! module carries the executor's cluster-unique namespace fingerprint
//! (0, the legacy names, for the first owned-source query on a cluster).

use std::collections::{BTreeMap, HashSet};

use bytes::Bytes;
use redoop_dfs::{Cluster, NodeId};
use redoop_mapred::{exec, io as mrio, JobMetrics, Mapper, Reducer, SimTime};

use crate::adaptive::ExecMode;
use crate::error::Result;
use crate::pane::PaneId;

use super::driver::{
    pair_text, Attempt, BuiltCache, ChainTask, Charge, Finale, PartitionPrep, WindowCtx,
};
use super::plan::{input_name, pair_name, WindowPlan};
use super::RecurringExecutor;

impl<M, R> RecurringExecutor<M, R>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    /// Pure compute of a reduce-input cache: sort/group the pane's binary
    /// shuffle bucket for one partition and encode the sorted run as a
    /// grouped block, so later incremental merges consume it without
    /// re-parsing or re-sorting. No executor state is touched.
    pub(super) fn input_cache_compute(
        bucket: &mrio::ShuffleBucket,
        pairs: Vec<(M::KOut, M::VOut)>,
        pane: u64,
        partition: u32,
    ) -> Result<BuiltCache> {
        let input_records = pairs.len() as u64;
        let groups = exec::sort_group(pairs);
        // Framed self-locating encoding: a torn write to the stored blob
        // is salvageable frame-by-frame instead of losing the whole cache.
        let blob = Bytes::from(mrio::encode_framed_grouped_block(&groups, pane, partition));
        // Sorting permutes lines, not bytes: the cache file's
        // text-equivalent size equals the bucket's.
        Ok(BuiltCache {
            input_records,
            shuffle_text_bytes: bucket.text_bytes,
            cache_text_bytes: bucket.text_bytes,
            blob,
        })
    }

    /// Pure compute of a pane-pair join: merge the two cached sorted
    /// input runs (linear merge; falls back to a full sort if a stored
    /// run is unsorted), reduce, and encode the pair output as text —
    /// pair outputs concatenate byte-for-byte into the DFS-visible
    /// window output, which stays in the text format.
    fn pair_output_compute(
        cluster: &Cluster,
        node: NodeId,
        fp: u64,
        left: PaneId,
        right: PaneId,
        r: usize,
        reducer: &R,
    ) -> Result<BuiltCache> {
        let lt = cluster.get_local(node, &input_name(fp, 0, left, r).store_name())?;
        let rt = cluster.get_local(node, &input_name(fp, 1, right, r).store_name())?;
        let lb: mrio::GroupedBlock<M::KOut, M::VOut> = mrio::decode_grouped_block_any(&lt)?;
        let rb: mrio::GroupedBlock<M::KOut, M::VOut> = mrio::decode_grouped_block_any(&rt)?;
        let input_records = lb.records + rb.records;
        let read_text_bytes = lb.text_bytes + rb.text_bytes;
        let groups = if lb.sorted && rb.sorted {
            exec::merge_sorted_groups(vec![lb.grouped, rb.grouped])
        } else {
            let mut flat = lb.grouped.into_pairs();
            flat.extend(rb.grouped.into_pairs());
            exec::sort_group(flat)
        };
        let (out_pairs, _) = exec::run_reducer(reducer, &groups);
        let text = mrio::encode_kv_block(&out_pairs);
        let cache_text_bytes = text.len() as u64;
        Ok(BuiltCache {
            input_records,
            shuffle_text_bytes: read_text_bytes,
            cache_text_bytes,
            blob: Bytes::from(text),
        })
    }

    /// Joins the partition's outstanding pane pairs through the build
    /// chain (the input caches they read are already on the anchor),
    /// then concatenates every in-window pair output.
    pub(super) fn join_pairs(
        &mut self,
        plan: &WindowPlan,
        r: usize,
        prep: &PartitionPrep,
        ctx: WindowCtx,
        attempt: &mut Attempt,
        metrics: &mut JobMetrics,
    ) -> Result<Finale> {
        let (rec, fp, node) = (plan.recurrence, plan.fp, prep.node);
        // Each pair is ready once both inputs are; an old input's
        // pre-sorted run is streamed once, by the first pair touching it.
        let mut old_seen: HashSet<(u32, u64)> = HashSet::new();
        let gates: Vec<(SimTime, u64)> = {
            let layer = self.cache.lock();
            prep.todo_pairs
                .iter()
                .map(|&(_, p, q)| {
                    let (mut gate, mut old_reads) = (SimTime::ZERO, 0u64);
                    for (s, pane) in [(0u32, p), (1u32, q)] {
                        let sig = layer
                            .controller
                            .signature(&input_name(fp, s, pane, r))
                            .expect("pair inputs exist before the join");
                        gate = gate.max(sig.available_at);
                        let old = !prep.missing_set.contains(&(s, pane.0));
                        if old && old_seen.insert((s, pane.0)) {
                            old_reads += sig.bytes;
                        }
                    }
                    (gate, old_reads)
                })
                .collect()
        };
        let computed: Vec<Result<BuiltCache>> = {
            let cluster = &self.cluster;
            let reducer = &*self.reducer;
            exec::parallel_map(prep.todo_pairs.len(), |i| {
                let (_, p, q) = prep.todo_pairs[i];
                Ok(Self::pair_output_compute(cluster, node, fp, p, q, r, reducer))
            })?
        };
        let pairs = prep.todo_pairs.iter().map(|&(name, ..)| name).zip(computed).zip(gates);
        // Old-input reads the concatenation still owes (proactive mode).
        let mut concat_old_reads = 0u64;
        match ctx.mode {
            ExecMode::Batch => {
                let tasks = pairs.map(|((name, built), (gate, cache_bytes))| {
                    Ok(ChainTask {
                        products: vec![(name, built?)],
                        charge: Charge::Attempt { gate, cache_bytes },
                    })
                });
                self.build_chain(rec, node, ctx, attempt, tasks, metrics)?;
            }
            ExecMode::Proactive => {
                // One early task per group of pairs whose inputs became
                // available together.
                let mut groups: BTreeMap<SimTime, Vec<_>> = BTreeMap::new();
                for ((name, built), (gate, old_reads)) in pairs {
                    concat_old_reads += old_reads;
                    groups.entry(gate).or_default().push((name, built));
                }
                let tasks = groups.into_iter().map(|(ready, group)| {
                    let products = group
                        .into_iter()
                        .map(|(name, built)| Ok((name, built?)))
                        .collect::<Result<_>>()?;
                    Ok(ChainTask { products, charge: Charge::Early { ready } })
                });
                self.build_chain(rec, node, ctx, attempt, tasks, metrics)?;
            }
        }

        // Window output: concatenate every in-window pair output. All
        // pair signatures gate readiness (reused caches by registration,
        // fresh pairs by their build task's end); only reused pair caches
        // pay the read here — fresh ones were charged in their builds.
        let mut ready = ctx.fire;
        let mut reused_cache_bytes = 0u64;
        let mut out = String::new();
        let mut concat_records = 0u64;
        for &p in &plan.panes {
            for &q in &plan.panes {
                let name = pair_name(fp, p, q, r);
                let fresh = prep.todo_set.contains(&(p.0, q.0));
                if let Some(sig) = self.cache.lock().controller.signature(&name) {
                    ready = ready.max(sig.available_at);
                    if !fresh {
                        reused_cache_bytes += sig.bytes;
                    }
                }
                let data = self.cluster.get_local(node, &name.store_name())?;
                let (text, records) = pair_text(&name, &data)?;
                concat_records += records;
                out.push_str(text);
            }
        }
        Ok(Finale {
            ready,
            cache_bytes: concat_old_reads + reused_cache_bytes,
            // Concatenating cached pair outputs is a byte copy, not
            // per-tuple recomputation.
            aggregate_records: concat_records,
            out,
        })
    }
}
