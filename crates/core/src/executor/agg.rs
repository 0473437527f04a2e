//! Aggregation specifics: the pure compute of a per-pane partial
//! aggregate (the plan's `BuildPane` product, charged by the driver's
//! build chain) and the window merge body (`MergePanes`), which merges
//! the pre-grouped sorted pane partials in one linear pass.

use bytes::Bytes;
use redoop_mapred::{exec, io as mrio, Mapper, Reducer, Writable};

use crate::adaptive::ExecMode;
use crate::error::Result;

use super::driver::{BuiltCache, Finale, PartitionPrep, WindowCtx};
use super::plan::{output_name, WindowPlan};
use super::RecurringExecutor;

impl<M, R> RecurringExecutor<M, R>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    /// Pure compute of a per-pane partial aggregate (reduce-output
    /// cache): sort/group the bucket, run the reducer, and encode the
    /// partial result as a grouped block. No executor state is touched.
    /// Also the delta seal's compute — sealed `rd/…` deltas share the
    /// `ro/…` payload format by construction.
    pub(super) fn pane_output_compute(
        bucket: &mrio::ShuffleBucket,
        pairs: Vec<(M::KOut, M::VOut)>,
        reducer: &R,
        pane: u64,
        partition: u32,
    ) -> Result<BuiltCache> {
        let input_records = pairs.len() as u64;
        let groups = exec::sort_group(pairs);
        let (out_pairs, _) = exec::run_reducer(reducer, &groups);
        let cache_text_bytes = mrio::kv_block_text_bytes(&out_pairs);
        let output_records = out_pairs.len() as u64;
        // Merged partials are re-read under the mapper's key type (see
        // module docs: the reducer's output key must share its textual
        // form). When the reducer's key type *is* the mapper's — true for
        // every aggregation whose partials merge by key — the conversion
        // is the identity (Writable round-trip), so skip the text trip.
        let rekeyed: Vec<(M::KOut, R::VOut)> = {
            let any: Box<dyn std::any::Any> = Box::new(out_pairs);
            match any.downcast::<Vec<(M::KOut, R::VOut)>>() {
                Ok(same) => *same,
                Err(any) => {
                    let out_pairs = *any
                        .downcast::<Vec<(R::KOut, R::VOut)>>()
                        .expect("restores the original type");
                    let mut rekeyed: Vec<(M::KOut, R::VOut)> =
                        Vec::with_capacity(out_pairs.len());
                    for (k, v) in out_pairs {
                        rekeyed.push((M::KOut::read(&k.to_text())?, v));
                    }
                    rekeyed
                }
            }
        };
        // Framed self-locating encoding: a torn write to the stored blob
        // is salvageable frame-by-frame instead of losing the whole cache.
        let blob = Bytes::from(mrio::encode_framed_grouped_block(
            &exec::group_consecutive(rekeyed),
            pane,
            partition,
        ));
        Ok(BuiltCache {
            input_records,
            shuffle_text_bytes: bucket.text_bytes,
            cache_text_bytes,
            output_records,
            blob,
        })
    }

    /// The window merge body of one partition: merges every pane partial
    /// (fresh builds and reused caches alike) into the window result.
    pub(super) fn merge_panes(
        &mut self,
        plan: &WindowPlan,
        r: usize,
        prep: &PartitionPrep,
        ctx: WindowCtx,
    ) -> Result<Finale> {
        let node = prep.node;
        // Merge every pane output (cache reads for reused panes) into the
        // window result. Cached partials are pre-grouped sorted runs, so
        // the incremental merge is a linear k-way pass — no re-parsing,
        // no re-sorting (unless a reducer emitted out of key order, in
        // which case its run is flagged unsorted and we fall back).
        let mut ready = ctx.fire;
        let mut cache_bytes = 0u64;
        let mut partial_records = 0u64;
        let mut runs: Vec<redoop_mapred::Grouped<M::KOut, R::VOut>> =
            Vec::with_capacity(plan.panes.len());
        let mut all_sorted = true;
        for &p in &plan.panes {
            // Delta-hit panes were sealed at ingestion under the `rd/…`
            // class; everything else (fresh builds, prior-window `ro/…`
            // caches) lives under the plain output name. Both carry the
            // same grouped-block payload.
            let delta_hit = prep.delta_hits.contains(&p.0);
            let name = if delta_hit {
                super::plan::delta_name(plan.fp, 0, p, r)
            } else {
                output_name(plan.fp, 0, p, r)
            };
            let fresh = prep.missing_set.contains(&(0, p.0));
            if let Some(sig) = self.cache.lock().controller.signature(&name) {
                // Every pane partial gates readiness: fresh builds by
                // their build task's end, reused caches by their original
                // registration (which can stall the merge when a previous
                // window's processing outlasted the slide — the Fig. 8
                // spike regime).
                ready = ready.max(sig.available_at);
                // Batch builds just handed their output to this window's
                // merge (their write was charged in the build task);
                // proactive builds may be long done, so the merge pays the
                // cache read — mirroring the pre-split accounting.
                if !fresh || matches!(ctx.mode, ExecMode::Proactive) {
                    cache_bytes += sig.bytes;
                }
            }
            // Interned store name: this read runs per (pane × partition)
            // every window — re-rendering the name each probe was pure
            // allocation churn.
            let store = self.interned_store(&name);
            let data = self.cluster.get_local(node, &store)?;
            let block: mrio::GroupedBlock<M::KOut, R::VOut> =
                mrio::decode_grouped_block_any(&data)?;
            partial_records += block.records;
            all_sorted &= block.sorted;
            runs.push(block.grouped);
            // A consumed delta counts as the pane's product for expiry
            // purposes — a partially-sealed pane (some partitions fell
            // back to rebuild) would otherwise never satisfy the status
            // matrix and leak its surviving `rd/…` caches.
            if delta_hit && r == self.conf.num_reducers - 1 {
                self.matrix.mark_done(&[p]);
                self.built_panes.insert((0, p.0));
            }
        }
        let groups = if all_sorted {
            exec::merge_sorted_groups(runs)
        } else {
            let mut flat: Vec<(M::KOut, R::VOut)> = Vec::new();
            for run in runs {
                flat.extend(run.into_pairs());
            }
            exec::sort_group(flat)
        };
        let merger = self.merger.as_ref().expect("aggregation has a merger").clone();
        let mut out = String::new();
        let mut output_records = 0u64;
        for (k, vs) in groups.iter() {
            let merged = merger.merge(k, vs);
            k.write(&mut out);
            out.push('\t');
            merged.write(&mut out);
            out.push('\n');
            output_records += 1;
        }
        // Pane partials and the merged window totals are aggregate
        // records: "pane-based rather than tuple-based" (paper §6.2.1).
        Ok(Finale {
            ready,
            cache_bytes,
            aggregate_records: partial_records + output_records,
            out: out.into_bytes(),
        })
    }
}
