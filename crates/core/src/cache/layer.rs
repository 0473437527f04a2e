//! The cache layer: one Window-Aware Cache Controller and one Local
//! Cache Registry per node, shared by every query that reads the same
//! source (paper §4: a single master-side controller, a registry per
//! task node, and a `doneQueryMask` per cache signature).
//!
//! A [`CacheLayer`] is a cloneable handle; clones share one state, the
//! way clones of a [`ClusterSim`] share one slot timeline. A
//! [`SharedSource`] owns the layer of every query attached to it, and an
//! executor over sources it owns creates a private layer of the same
//! type — one code path, differing only in who else holds the handle.
//!
//! Each query attaches with its operator fingerprint and receives one
//! `doneQueryMask` bit. Queries whose fingerprints coincide name the
//! same cache files, so a product one of them registered is an ordinary
//! controller hit for the others, and its expiry waits until every
//! consumer of the fingerprint has marked it done.
//!
//! [`ClusterSim`]: redoop_mapred::ClusterSim
//! [`SharedSource`]: crate::shared::SharedSource

use std::ops::Deref;
use std::sync::{Arc, MutexGuard};

use parking_lot::Mutex;
use redoop_dfs::{Cluster, NodeId};
use redoop_mapred::trace::TraceSink;
use redoop_mapred::SimTime;

use super::controller::{Admission, CacheController};
use super::policy::PurgePolicy;
use super::registry::LocalCacheRegistry;
use super::CacheName;
use crate::error::Result;

/// Shared handle to one cache layer. See the module docs.
#[derive(Clone)]
pub struct CacheLayer {
    state: Arc<Mutex<LayerState>>,
}

/// The state behind a [`CacheLayer`] handle.
pub(crate) struct LayerState {
    pub(crate) controller: CacheController,
    /// One registry per cluster node, indexed by node id.
    pub(crate) registries: Vec<LocalCacheRegistry>,
}

/// Locked, read-only view of a layer's controller. It holds the layer's
/// lock, so drop it before driving any query attached to the layer.
pub struct ControllerView<'a>(MutexGuard<'a, LayerState>);

impl Deref for ControllerView<'_> {
    type Target = CacheController;

    fn deref(&self) -> &CacheController {
        &self.0.controller
    }
}

impl CacheLayer {
    /// An empty layer for a `nodes`-node cluster. Picks up the
    /// process-wide trace sink, if one is installed.
    pub fn new(nodes: usize) -> Self {
        let registries = (0..nodes as u32)
            .map(|i| LocalCacheRegistry::new(NodeId(i), PurgePolicy::default()))
            .collect();
        CacheLayer {
            state: Arc::new(Mutex::new(LayerState {
                controller: CacheController::new(),
                registries,
            })),
        }
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, LayerState> {
        self.state.lock()
    }

    /// The layer's controller (inspection in tests and benches).
    pub fn controller(&self) -> ControllerView<'_> {
        ControllerView(self.lock())
    }

    /// Checks the layer's two byte ledgers against each other: on every
    /// alive node the controller's per-node byte index must equal that
    /// node registry's live-byte counter. Registration, eviction,
    /// rejection, expiry and heartbeat rollback move both in step, for
    /// every query on the layer at once. Dead nodes are skipped: their
    /// registries keep stale rows until a heartbeat can run again.
    pub fn check_accounting(&self, cluster: &Cluster) -> std::result::Result<(), String> {
        let state = self.lock();
        for reg in &state.registries {
            let (node, held) = (reg.node(), state.controller.bytes_on(reg.node()));
            if cluster.is_alive(node) && held != reg.live_bytes() {
                return Err(format!(
                    "cache byte ledgers diverged on node {node:?}: controller {held}, registry {}",
                    reg.live_bytes()
                ));
            }
        }
        Ok(())
    }
}

impl LayerState {
    /// Routes the controller's and every registry's events to `sink`.
    pub(crate) fn set_trace_sink(&mut self, sink: TraceSink) {
        self.controller.set_trace_sink(sink.clone());
        for reg in &mut self.registries {
            reg.set_trace_sink(sink.clone());
        }
    }

    /// Registers a freshly built cache on `node`. A copy held elsewhere
    /// is stale once the product migrates, so its registry lets the next
    /// purge scan delete it. Policy evictions are reclaimed through the
    /// same path, and a refused cache is handed to its registry already
    /// expired: same-window merges may still read the file, and the next
    /// purge scan reclaims it like any other retired cache.
    pub(crate) fn register(
        &mut self,
        name: CacheName,
        node: NodeId,
        bytes: u64,
        rebuild_bytes: u64,
        at: SimTime,
    ) -> Admission {
        if let Some(old) = self.controller.location(&name) {
            if old != node {
                self.registries[old.index()].mark_expired(&name);
            }
        }
        let admission =
            self.controller.register_cache_with_rebuild(name, node, bytes, rebuild_bytes, at);
        for (vnode, vname) in &admission.evicted {
            self.registries[vnode.index()].mark_expired(vname);
        }
        self.registries[node.index()].add_entry(name, bytes);
        if !admission.admitted {
            self.registries[node.index()].mark_expired(&name);
        }
        admission
    }

    /// Query `bit` is done with `name`. Once every consumer of the
    /// name's fingerprint is, the holder's registry is told to purge
    /// the file and the signature is dropped.
    pub(crate) fn retire(&mut self, name: CacheName, bit: u32) -> Result<()> {
        if let Some(purge) = self.controller.mark_query_done(name, bit)? {
            self.registries[purge.node.index()].mark_expired(&purge.name);
        }
        if self.controller.is_expired(&name) {
            self.controller.forget(&name);
        }
        Ok(())
    }

    /// Synchronizes every node's registry with the controller via
    /// heartbeats (paper §2.3): caches missing from a node's report roll
    /// back to HDFS-available (paper §5). Returns the number lost.
    pub(crate) fn audit(&mut self, cluster: &Cluster) -> usize {
        let mut lost = 0;
        for reg in &mut self.registries {
            let hb = reg.heartbeat(cluster);
            lost += self.controller.apply_heartbeat(&hb).len();
        }
        lost
    }

    /// Runs every live node's purge policy after recurrence `rec`.
    pub(crate) fn purge(&mut self, cluster: &Cluster, rec: u64) -> Result<()> {
        for reg in &mut self.registries {
            if cluster.is_alive(reg.node()) {
                reg.maybe_purge(cluster, rec)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheObject;
    use crate::pane::PaneId;
    use bytes::Bytes;

    const FP: u64 = 0xfeed;

    fn name(pane: u64) -> CacheName {
        CacheName::with_fp(CacheObject::PaneOutput { source: 0, pane: PaneId(pane) }, 0, FP)
    }

    /// A layer on `cluster` with two queries attached to [`FP`] and
    /// `name(1)` built on `node`.
    fn fleet(cluster: &Cluster, node: u32) -> (CacheLayer, u32, u32) {
        let layer = CacheLayer::new(cluster.node_count());
        let mut s = layer.lock();
        let a = s.controller.attach_query(FP).unwrap();
        let b = s.controller.attach_query(FP).unwrap();
        build(cluster, &mut s, node);
        drop(s);
        (layer, a, b)
    }

    fn build(cluster: &Cluster, s: &mut LayerState, node: u32) {
        cluster.put_local(NodeId(node), name(1).store_name(), Bytes::from_static(b"x")).unwrap();
        assert!(s.register(name(1), NodeId(node), 100, 400, SimTime(7)).admitted);
    }

    fn expired_on(s: &LayerState, node: u32) -> bool {
        s.registries[node as usize].get(&name(1)).is_some_and(|e| e.expired)
    }

    #[test]
    fn expiry_defers_until_the_last_consumer() {
        let cluster = Cluster::with_nodes(2);
        let (layer, a, b) = fleet(&cluster, 0);
        let mut s = layer.lock();
        s.retire(name(1), a).unwrap();
        // Re-marking is idempotent; the file stays for the other query.
        s.retire(name(1), a).unwrap();
        assert_eq!(s.controller.location(&name(1)), Some(NodeId(0)));
        assert!(!expired_on(&s, 0));
        s.retire(name(1), b).unwrap();
        assert!(s.controller.signature(&name(1)).is_none(), "the signature is dropped");
        assert!(expired_on(&s, 0), "the last consumer releases the file for purging");
    }

    #[test]
    fn a_sharing_off_consumer_does_not_hold_panes() {
        let cluster = Cluster::with_nodes(2);
        let (layer, a, b) = fleet(&cluster, 0);
        let mut s = layer.lock();
        // `b` switched to private cache names: it no longer consumes FP.
        s.controller.bind_query(b, 0xbeef);
        assert_eq!(s.controller.consumers(FP), 1 << a);
        s.retire(name(1), a).unwrap();
        assert!(expired_on(&s, 0));
    }

    #[test]
    fn reregistration_keeps_done_bits() {
        let cluster = Cluster::with_nodes(4);
        let (layer, a, b) = fleet(&cluster, 0);
        let mut s = layer.lock();
        s.retire(name(1), a).unwrap();
        // The product migrates to node 3; the stale copy is reclaimed,
        // and `a`'s completed lifespan still counts.
        build(&cluster, &mut s, 3);
        assert!(expired_on(&s, 0));
        assert_eq!(s.controller.location(&name(1)), Some(NodeId(3)));
        s.retire(name(1), b).unwrap();
        assert!(expired_on(&s, 3));
    }

    #[test]
    fn node_loss_keeps_done_bits_through_the_rebuild() {
        let cluster = Cluster::with_nodes(4);
        let (layer, a, b) = fleet(&cluster, 0);
        let mut s = layer.lock();
        s.retire(name(1), a).unwrap();
        cluster.kill_node(NodeId(0)).unwrap();
        assert_eq!(s.audit(&cluster), 1);
        // Lost, not expired: `b` still needs the pane.
        assert_eq!(s.controller.location(&name(1)), None);
        assert_eq!(s.controller.bytes_on(NodeId(0)), 0);
        assert!(s.controller.signature(&name(1)).is_some());
        // `b` rebuilds it elsewhere. `a` is past the pane and will never
        // mark it again, so its bit must survive the loss, or the rebuilt
        // file would wait forever.
        build(&cluster, &mut s, 2);
        s.retire(name(1), b).unwrap();
        assert!(expired_on(&s, 2));
        assert!(s.controller.signature(&name(1)).is_none());
    }

    #[test]
    fn accounting_covers_every_query_on_the_layer() {
        let cluster = Cluster::with_nodes(2);
        let (layer, _, _) = fleet(&cluster, 1);
        assert_eq!(layer.check_accounting(&cluster), Ok(()));
        layer.lock().registries[1].drop_entry(&name(1));
        assert!(layer.check_accounting(&cluster).is_err());
    }
}
