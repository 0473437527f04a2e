//! Binary-join specifics: the pure compute of reduce-input caches and
//! pane-pair joins, the run table the joins read their inputs from, the
//! pair tasks' readiness and old-input reads, and the window
//! concatenation body (`FinalReduce`). The driver's build chain stores,
//! charges and registers every product.
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

use std::collections::{BTreeMap, HashMap, HashSet};

use bytes::Bytes;
use redoop_mapred::{exec, io as mrio, JobMetrics, Mapper, Reducer, SimTime, Writable};

use crate::adaptive::ExecMode;
use crate::cache::{same_blob, CacheName};
use crate::error::{RedoopError, Result};

use super::driver::{Attempt, BuiltCache, ChainTask, Charge, Finale, PartitionPrep, WindowCtx};
use super::plan::{input_name, pair_name, WindowPlan};
use super::RecurringExecutor;

/// Decoded reduce-input runs (`ri/…`) by cache name, each held with a
/// clone of the stored blob it was encoded to or decoded from. A join
/// still reads each input blob from the store, but decodes it only when
/// the blob is not the held clone ([`same_blob`]), so a run built or
/// decoded once serves every pair and window that reads it. Purely
/// host-side: what is charged and produced does not depend on it.
pub(super) struct RunTable<K, V> {
    runs: HashMap<CacheName, (Bytes, mrio::GroupedBlock<K, V>)>,
}

impl<K: Writable + Ord, V: Writable> RunTable<K, V> {
    pub(super) fn new() -> Self {
        RunTable { runs: HashMap::new() }
    }

    /// Holds `run` as the decoded form of `blob`, the blob stored under
    /// `name`.
    pub(super) fn insert(&mut self, name: CacheName, blob: Bytes, run: mrio::GroupedBlock<K, V>) {
        self.runs.insert(name, (blob, run));
    }

    /// Makes the held run of `name` the one `stored` decodes to: kept
    /// when `stored` is the held blob, else decoded strictly — a damaged
    /// blob fails exactly as it would without the table — and held in
    /// its place. Returns whether the held run was reused.
    pub(super) fn resolve(&mut self, name: CacheName, stored: Bytes) -> Result<bool> {
        if let Some((held, run)) = self.runs.get(&name) {
            if same_blob(held, &stored) {
                debug_assert!(
                    decodes_to(&stored, run),
                    "run table entry {} differs from its stored blob",
                    name.store_name()
                );
                return Ok(true);
            }
        }
        let run = mrio::decode_grouped_block_any(&stored)?;
        self.runs.insert(name, (stored, run));
        Ok(false)
    }

    /// The held run of `name`; [`RunTable::resolve`] must have run first.
    pub(super) fn run(&self, name: &CacheName) -> &mrio::GroupedBlock<K, V> {
        &self.runs[name].1
    }

    /// Keeps only the entries whose names satisfy `keep`.
    pub(super) fn retain(&mut self, mut keep: impl FnMut(&CacheName) -> bool) {
        self.runs.retain(|name, _| keep(name));
    }

    /// Every held `(name, blob)`.
    #[cfg(test)]
    pub(super) fn held(&self) -> impl Iterator<Item = (&CacheName, &Bytes)> {
        self.runs.iter().map(|(name, (blob, _))| (name, blob))
    }
}

/// Whether `blob` decodes to exactly `run` (compared through the binary
/// encoding, as values need not implement `PartialEq`).
fn decodes_to<K: Writable + Ord, V: Writable>(blob: &[u8], run: &mrio::GroupedBlock<K, V>) -> bool {
    let Ok(fresh) = mrio::decode_grouped_block_any::<K, V>(blob) else { return false };
    (fresh.sorted, fresh.records, fresh.text_bytes) == (run.sorted, run.records, run.text_bytes)
        && mrio::encode_grouped_block(&fresh.grouped) == mrio::encode_grouped_block(&run.grouped)
}

/// Decodes a reused pair-output blob into its text and record count.
/// Pair outputs are unframed text, so the heartbeat audit cannot see
/// damage to them: an undecodable blob is an error, never silently
/// dropped records.
fn pair_text<'b>(name: &CacheName, blob: &'b [u8]) -> Result<(&'b str, u64)> {
    let text = std::str::from_utf8(blob).map_err(|e| {
        let name = name.store_name();
        RedoopError::CacheInconsistency(format!("pair output {name} is not text: {e}"))
    })?;
    Ok((text, text.lines().count() as u64))
}

impl<M, R> RecurringExecutor<M, R>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    /// Pure compute of a reduce-input cache: sort/group the pane's binary
    /// shuffle bucket for one partition and encode the sorted run as a
    /// grouped block, so later incremental merges consume it without
    /// re-parsing or re-sorting. Also returns the run itself, exactly as
    /// the blob decodes, for the run table. No executor state is touched.
    pub(super) fn input_cache_compute(
        bucket: &mrio::ShuffleBucket,
        pairs: Vec<(M::KOut, M::VOut)>,
        pane: u64,
        partition: u32,
    ) -> (BuiltCache, mrio::GroupedBlock<M::KOut, M::VOut>) {
        let input_records = pairs.len() as u64;
        let groups = exec::sort_group(pairs);
        // Framed self-locating encoding: a torn write to the stored blob
        // is salvageable frame-by-frame instead of losing the whole cache.
        let blob = Bytes::from(mrio::encode_framed_grouped_block(&groups, pane, partition));
        let run = mrio::GroupedBlock {
            sorted: groups.is_strictly_sorted(),
            records: groups.records(),
            text_bytes: groups.text_bytes(),
            grouped: groups,
        };
        // Sorting permutes lines, not bytes: the cache file's
        // text-equivalent size equals the bucket's.
        let built = BuiltCache {
            input_records,
            shuffle_text_bytes: bucket.text_bytes,
            cache_text_bytes: bucket.text_bytes,
            output_records: 0,
            blob,
        };
        (built, run)
    }

    /// Pure compute of a pane-pair join over the two inputs' sorted
    /// runs: merge-reduce them by reference (falling back to a full sort
    /// if a stored run is unsorted) and encode the pair output as text —
    /// pair outputs concatenate byte-for-byte into the DFS-visible
    /// window output, which stays in the text format.
    fn pair_output_compute(
        left: &mrio::GroupedBlock<M::KOut, M::VOut>,
        right: &mrio::GroupedBlock<M::KOut, M::VOut>,
        reducer: &R,
    ) -> BuiltCache {
        let (out_pairs, input_records) = if left.sorted && right.sorted {
            exec::reduce_sorted_pair(reducer, &left.grouped, &right.grouped)
        } else {
            let mut flat = left.grouped.clone().into_pairs();
            flat.extend(right.grouped.clone().into_pairs());
            exec::run_reducer(reducer, &exec::sort_group(flat))
        };
        let text = mrio::encode_kv_block(&out_pairs);
        BuiltCache {
            input_records,
            shuffle_text_bytes: left.text_bytes + right.text_bytes,
            cache_text_bytes: text.len() as u64,
            output_records: out_pairs.len() as u64,
            blob: Bytes::from(text),
        }
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
        // Each distinct input is read from the store once and resolved
        // against the run table: runs this window just built, and reused
        // runs already decoded, are not decoded again.
        let mut inputs: HashSet<CacheName> = HashSet::new();
        for &(_, p, q) in &prep.todo_pairs {
            for name in [input_name(fp, 0, p, r), input_name(fp, 1, q, r)] {
                if inputs.insert(name) {
                    let store = self.interned_store(&name);
                    let stored = self.cluster.get_local(node, &store)?;
                    self.runs.resolve(name, stored)?;
                }
            }
        }
        let computed: Vec<BuiltCache> = {
            let (runs, reducer) = (&self.runs, &*self.reducer);
            exec::parallel_map(prep.todo_pairs.len(), |i| {
                let (_, p, q) = prep.todo_pairs[i];
                let (left, right) =
                    (runs.run(&input_name(fp, 0, p, r)), runs.run(&input_name(fp, 1, q, r)));
                Ok(Self::pair_output_compute(left, right, reducer))
            })?
        };
        // Fresh pair outputs for the concatenation: their text was just
        // encoded and counted, so it is neither read back nor re-scanned.
        let fresh: HashMap<(u64, u64), (Bytes, u64)> = prep
            .todo_pairs
            .iter()
            .zip(&computed)
            .map(|(&(_, p, q), built)| ((p.0, q.0), (built.blob.clone(), built.output_records)))
            .collect();
        let pairs = prep.todo_pairs.iter().map(|&(name, ..)| name).zip(computed).zip(gates);
        // Old-input reads the concatenation still owes (proactive mode).
        let mut concat_old_reads = 0u64;
        match ctx.mode {
            ExecMode::Batch => {
                let tasks = pairs.map(|((name, built), (gate, cache_bytes))| {
                    Ok(ChainTask {
                        products: vec![(name, built)],
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
                let tasks = groups.into_iter().map(|(ready, products)| {
                    Ok(ChainTask { products, charge: Charge::Early { ready } })
                });
                self.build_chain(rec, node, ctx, attempt, tasks, metrics)?;
            }
        }

        // Window output: concatenate every in-window pair output. All
        // pair signatures gate readiness (reused caches by registration,
        // fresh pairs by their build task's end); only reused pair caches
        // are read back here and pay the read — fresh ones were charged
        // in their builds.
        let mut ready = ctx.fire;
        let mut reused_cache_bytes = 0u64;
        let mut out: Vec<u8> = Vec::new();
        let mut concat_records = 0u64;
        for &p in &plan.panes {
            for &q in &plan.panes {
                let name = pair_name(fp, p, q, r);
                let fresh = fresh.get(&(p.0, q.0));
                if let Some(sig) = self.cache.lock().controller.signature(&name) {
                    ready = ready.max(sig.available_at);
                    if fresh.is_none() {
                        reused_cache_bytes += sig.bytes;
                    }
                }
                if let Some((blob, records)) = fresh {
                    concat_records += records;
                    out.extend_from_slice(blob);
                } else {
                    let store = self.interned_store(&name);
                    let data = self.cluster.get_local(node, &store)?;
                    let (text, records) = pair_text(&name, &data)?;
                    concat_records += records;
                    out.extend_from_slice(text.as_bytes());
                }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pane::PaneId;

    #[test]
    fn run_table_reuses_only_the_held_blob() {
        let name = input_name(0, 1, PaneId(3), 1);
        let groups = exec::sort_group(vec![
            ("b".to_string(), 2u64),
            ("a".to_string(), 1),
            ("b".to_string(), 3),
        ]);
        let blob = Bytes::from(mrio::encode_framed_grouped_block(&groups, 3, 1));
        let mut table: RunTable<String, u64> = RunTable::new();
        table.insert(name, blob.clone(), mrio::decode_grouped_block_any(&blob).unwrap());
        assert!(table.resolve(name, blob.clone()).unwrap(), "the held blob is a hit");

        // Equal content in a new allocation is a miss: decoded and held.
        let copy = Bytes::from(blob.to_vec());
        assert!(!table.resolve(name, copy.clone()).unwrap());
        assert!(table.held().all(|(_, held)| same_blob(held, &copy)));
        assert!(table.resolve(name, copy).unwrap());
        assert_eq!(table.run(&name).grouped, groups);

        // A damaged blob fails the strict decode, as without the table.
        let mut bad = blob.to_vec();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        assert!(table.resolve(name, Bytes::from(bad)).is_err());

        // An unseen name is decoded on first read.
        let other = input_name(0, 0, PaneId(4), 1);
        assert!(!table.resolve(other, blob).unwrap());
        table.retain(|n| *n != name);
        assert_eq!(table.held().map(|(n, _)| *n).collect::<Vec<_>>(), vec![other]);
    }
}
