//! Shared data sources for multi-query deployments (paper §3.1).
//!
//! "The Semantic Analyzer takes as input a sequence of recurring queries
//! with different window constraints" and produces one pane partitioning
//! all of them can consume ([`crate::SemanticAnalyzer::plan_multi`]).
//! A [`SharedSource`] is the runtime counterpart: one Dynamic Data Packer
//! (one set of pane files in the DFS) feeding several
//! [`crate::RecurringExecutor`]s, so the cluster ingests and stores each
//! source once no matter how many recurring queries read it.
//!
//! Queries sharing a source must have window constraints whose
//! `gcd(win, slide)` equals the shared pane length (checked at attach
//! time); their windows are then exact pane unions and every query can
//! resolve its windows from the shared manifest.
//!
//! The source also owns the [`CacheLayer`] of its queries: one
//! controller and one registry per node for the whole fleet, so a pane
//! product one query builds is a cache hit for every query with the
//! same operator fingerprint, and one per-node byte budget bounds the
//! fleet's resident caches.

use std::sync::Arc;

use parking_lot::Mutex;

use redoop_dfs::{Cluster, DfsPath};

use crate::analyzer::PartitionPlan;
use crate::api::SourceConf;
use crate::cache::layer::CacheLayer;
use crate::error::{RedoopError, Result};
use crate::packer::{DynamicDataPacker, PaneManifest, TsFn};
use crate::pane::PaneGeometry;
use crate::query::WindowSpec;
use crate::time::TimeRange;

/// Shared handle to one data source's packer (pane files + manifest)
/// and the cache layer of every query attached to it.
#[derive(Clone)]
pub struct SharedSource {
    name: String,
    pane_ms: u64,
    pane_root: DfsPath,
    ts_fn: TsFn,
    packer: Arc<Mutex<DynamicDataPacker>>,
    cache: CacheLayer,
}

impl std::fmt::Debug for SharedSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSource")
            .field("name", &self.name)
            .field("pane_ms", &self.pane_ms)
            .field("pane_root", &self.pane_root)
            .finish_non_exhaustive()
    }
}

impl SharedSource {
    /// Creates a shared source whose pane length serves every query in
    /// `specs` (`pane = gcd` over all constraints, via `plan_multi`
    /// semantics). `ts_fn` extracts each record's event timestamp.
    pub fn new(
        cluster: &Cluster,
        source_id: u32,
        name: impl Into<String>,
        pane_root: DfsPath,
        specs: &[WindowSpec],
        ts_fn: TsFn,
    ) -> Result<Self> {
        if specs.is_empty() {
            return Err(RedoopError::InvalidQuery("shared source needs >= 1 query spec".into()));
        }
        let mut pane_ms = 0u64;
        for s in specs {
            pane_ms = crate::pane::gcd(pane_ms, PaneGeometry::from_spec(s).pane_ms);
        }
        let plan = PartitionPlan::simple(pane_ms);
        let packer =
            DynamicDataPacker::new(cluster, source_id, pane_root.clone(), plan, ts_fn.clone());
        Ok(SharedSource {
            name: name.into(),
            pane_ms,
            pane_root,
            ts_fn,
            packer: Arc::new(Mutex::new(packer)),
            cache: CacheLayer::new(cluster.node_count()),
        })
    }

    /// The shared pane length in event-time milliseconds.
    pub fn pane_ms(&self) -> u64 {
        self.pane_ms
    }

    /// Ingests one arriving batch (done once, no matter how many queries
    /// consume the source).
    pub fn ingest_batch<'l>(
        &self,
        lines: impl Iterator<Item = &'l str>,
        range: &TimeRange,
    ) -> Result<Vec<DfsPath>> {
        self.packer.lock().ingest_batch(lines, range)
    }

    /// Seals everything buffered (end of stream).
    pub fn finish(&self) -> Result<Vec<DfsPath>> {
        self.packer.lock().finish()
    }

    /// Snapshot view of the manifest (clone; cheap at experiment scale).
    pub fn manifest(&self) -> PaneManifest {
        self.packer.lock().manifest().clone()
    }

    /// The underlying packer handle, shared with executors.
    pub(crate) fn packer_handle(&self) -> Arc<Mutex<DynamicDataPacker>> {
        self.packer.clone()
    }

    /// The cache layer every executor attached to this source holds.
    pub fn cache_layer(&self) -> &CacheLayer {
        &self.cache
    }

    /// Builds the [`SourceConf`] a query uses to attach to this source.
    /// Fails unless the shared pane divides the query's `win` and
    /// `slide` — otherwise its windows would not be unions of shared
    /// panes. (The shared pane is the GCD across the declared queries, so
    /// every declared query passes by construction.)
    pub fn conf_for(&self, spec: WindowSpec) -> Result<SourceConf> {
        if PaneGeometry::with_pane(&spec, self.pane_ms).is_none() {
            return Err(RedoopError::InvalidQuery(format!(
                "shared pane {}ms of source {:?} does not divide win {} / slide {} \
                 (windows must be unions of shared panes)",
                self.pane_ms, self.name, spec.win, spec.slide
            )));
        }
        Ok(SourceConf {
            name: self.name.clone(),
            spec,
            pane_root: self.pane_root.clone(),
            ts_fn: self.ts_fn.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::leading_ts_fn;
    use crate::pane::PaneId;
    use crate::time::EventTime;

    fn cluster() -> Cluster {
        Cluster::with_nodes(3)
    }

    #[test]
    fn shared_pane_is_gcd_across_queries() {
        let q1 = WindowSpec::new(2_000, 1_000).unwrap(); // pane 1000
        let q2 = WindowSpec::new(4_500, 1_500).unwrap(); // pane 1500
        let s = SharedSource::new(
            &cluster(),
            0,
            "logs",
            DfsPath::new("/shared").unwrap(),
            &[q1, q2],
            leading_ts_fn(),
        )
        .unwrap();
        assert_eq!(s.pane_ms(), 500, "gcd(1000, 1500)");
    }

    #[test]
    fn conf_for_rejects_incompatible_queries() {
        let q1 = WindowSpec::new(2_000, 1_000).unwrap();
        let s = SharedSource::new(
            &cluster(),
            0,
            "logs",
            DfsPath::new("/shared").unwrap(),
            &[q1],
            leading_ts_fn(),
        )
        .unwrap();
        assert!(s.conf_for(q1).is_ok());
        // pane 700 is not the shared 1000.
        let bad = WindowSpec::new(2_100, 700).unwrap();
        assert!(s.conf_for(bad).is_err());
    }

    #[test]
    fn single_ingest_feeds_the_manifest_once() {
        let c = cluster();
        let q = WindowSpec::new(200, 100).unwrap();
        let s = SharedSource::new(
            &c,
            1,
            "logs",
            DfsPath::new("/shared").unwrap(),
            &[q],
            leading_ts_fn(),
        )
        .unwrap();
        s.ingest_batch(
            ["10,a", "110,b"].into_iter(),
            &TimeRange::new(EventTime(0), EventTime(200)),
        )
        .unwrap();
        let m = s.manifest();
        assert_eq!(m.pane_records(PaneId(0)), 1);
        assert_eq!(m.pane_records(PaneId(1)), 1);
        // Pane files exist exactly once in the DFS.
        assert_eq!(c.list("/shared").len(), 2);
    }
}
