//! Structured trace journal for the simulated cluster.
//!
//! A [`TraceSink`] records typed [`TraceEvent`]s with virtual timestamps:
//! task placement decisions (including the per-node `Load_i + C_task,i`
//! scores behind each Eq. 4 argmin), cache lifecycle transitions
//! (register/hit/miss/invalidate/forget/purge), heartbeat reconciliation
//! and §5 rollbacks, pane seal/expire, incremental delta fold/seal, and
//! per-phase task spans (map/shuffle/sort/reduce/merge/fold).
//!
//! Design constraints:
//!
//! * **Zero-cost when disabled.** A disabled sink holds no allocation and
//!   [`TraceSink::emit`] never invokes its closure, so event construction
//!   (formatting names, collecting per-node scores) is skipped entirely.
//! * **Deterministic.** Traces are derived state: emitters fire only from
//!   the sequential apply sections of the simulator (never from host
//!   worker threads), and rendered journals use integer microsecond
//!   timestamps — forced single-worker and auto-parallel runs produce
//!   byte-identical journals.
//! * **Bounded.** Events live in a ring buffer; once full, the oldest
//!   events are evicted and counted in `dropped` so a journal can never
//!   grow without bound on a long-running stream.
//!
//! The sink is threaded explicitly (`set_trace_sink` on the simulator and
//! executor) or installed process-wide via [`set_global_sink`] — the same
//! pattern as `exec::set_host_parallelism` — which newly built components
//! pick up by default. The `repro` binary uses the global sink behind its
//! `--trace <path>` flag.

use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;

use parking_lot::Mutex;
use redoop_dfs::NodeId;

use crate::simtime::SimTime;
use crate::task::TaskKind;

/// One candidate node's Eq. 4 score at a placement decision:
/// `Load_i + C_task,i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeScore {
    /// Candidate node.
    pub node: NodeId,
    /// `Load_i`: the node's earliest free slot (clamped to ready time).
    pub load: SimTime,
    /// `C_task,i`: the task's I/O affinity cost on this node.
    pub cost: SimTime,
}

/// Cache lifecycle transition kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheAction {
    /// Cache materialized on a node (controller ready 1 → 2).
    Register,
    /// A window consumed the cache from its holder's local store.
    Hit,
    /// A window needed the cache but had to (re)build it.
    Miss,
    /// Cache file lost; controller ready 2 → 1 (targeted rollback).
    Invalidate,
    /// Expired signature dropped from the controller.
    Forget,
    /// Expired file physically deleted from a node's local store.
    Purge,
    /// Cache marked done by every consumer (doneQueryMask full).
    Expire,
    /// A query's first hit on a signature-equivalent cache *another*
    /// query built (cross-query sharing); journaled right after the hit.
    SharedHit,
    /// A salvaged (partially damaged) cache was rebuilt at the cost of
    /// only its missing frame suffix instead of a full rebuild.
    PartialRebuild,
    /// Cache evicted by the capacity policy to make room on its node
    /// (controller ready 2 → 1; the file is reclaimed at the next purge
    /// scan). Distinct from `Invalidate`: nothing was lost, the policy
    /// chose to give the bytes back.
    Evict,
    /// The capacity policy refused to admit a freshly built cache (it
    /// would not fit within the node budget, or no resident was worth
    /// displacing for it). The window still consumes the bytes once;
    /// they are reclaimed at the next purge scan.
    AdmitReject,
}

impl CacheAction {
    fn as_str(self) -> &'static str {
        match self {
            CacheAction::Register => "register",
            CacheAction::Hit => "hit",
            CacheAction::Miss => "miss",
            CacheAction::Invalidate => "invalidate",
            CacheAction::Forget => "forget",
            CacheAction::Purge => "purge",
            CacheAction::Expire => "expire",
            CacheAction::SharedHit => "shared_hit",
            CacheAction::PartialRebuild => "partial_rebuild",
            CacheAction::Evict => "evict",
            CacheAction::AdmitReject => "admit_reject",
        }
    }
}

/// One journal entry. Cache identities are carried as rendered store
/// names (`String`) so the event model does not depend on `core`'s
/// `CacheName` type (the dependency points the other way).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// An Eq. 4 argmin: which node won and every candidate's score.
    Placement {
        /// Virtual decision time (the task's ready time).
        at: SimTime,
        /// Slot pool the task was placed in.
        kind: TaskKind,
        /// Human-readable task label (`job/map3`, `window2/reduce`, ...).
        label: String,
        /// Winning node.
        chosen: NodeId,
        /// Per-node `Load_i + C_task,i` breakdown (alive nodes only).
        scores: Vec<NodeScore>,
    },
    /// One task phase occupying a slot in virtual time.
    TaskSpan {
        /// Phase name: `map`, `shuffle`, `sort`, `reduce`, `merge`, or
        /// `fold`.
        phase: &'static str,
        /// Node the span ran on.
        node: NodeId,
        /// Virtual start.
        start: SimTime,
        /// Virtual end.
        end: SimTime,
        /// Task label.
        label: String,
    },
    /// Cache lifecycle transition.
    Cache {
        /// Virtual time of the transition.
        at: SimTime,
        /// Transition kind.
        action: CacheAction,
        /// Cache store name (e.g. `ri/s0p3.0/r1`).
        name: String,
        /// Node involved, when known.
        node: Option<NodeId>,
        /// Cache size in bytes, when known.
        bytes: u64,
    },
    /// Heartbeat reconciliation outcome for one node.
    Heartbeat {
        /// Virtual time of the reconciliation.
        at: SimTime,
        /// Reporting node.
        node: NodeId,
        /// Whether the node was alive.
        alive: bool,
        /// Caches the node reported holding.
        held: usize,
        /// Caches invalidated because the report lacked them.
        lost: usize,
    },
    /// §5 failure rollback: every cache on a dead node dropped to
    /// HDFS-available.
    Rollback {
        /// Virtual time of the rollback.
        at: SimTime,
        /// Failed node.
        node: NodeId,
        /// Store names of the lost caches.
        lost: Vec<String>,
    },
    /// A pane's input finished arriving (sealed for processing).
    PaneSeal {
        /// Virtual time the seal was observed.
        at: SimTime,
        /// Source stream.
        source: u32,
        /// Sealed pane.
        pane: u64,
    },
    /// An arrival batch was folded into a pane's incremental reduce
    /// state (online per-(pane, partition) combining at ingestion).
    DeltaFold {
        /// Virtual time the fold was charged (batch arrival end).
        at: SimTime,
        /// Source stream.
        source: u32,
        /// Target pane.
        pane: u64,
        /// Records folded from this batch.
        records: u64,
        /// Distinct groups held across partitions after the fold.
        groups: u64,
    },
    /// A pane's incremental reduce state was sealed into a delta cache
    /// (one event per (pane, partition)).
    DeltaSeal {
        /// Virtual time the seal completed.
        at: SimTime,
        /// Source stream.
        source: u32,
        /// Sealed pane.
        pane: u64,
        /// Reduce partition.
        partition: u32,
        /// Node holding the sealed delta cache.
        node: NodeId,
        /// Sealed cache size in bytes.
        bytes: u64,
    },
    /// A pane slid out of every window and its caches were expired.
    PaneExpire {
        /// Virtual time of the expiry sweep.
        at: SimTime,
        /// Source stream.
        source: u32,
        /// Expired pane.
        pane: u64,
    },
    /// A Local Cache Registry purge scan ran.
    PurgeScan {
        /// Virtual time of the scan.
        at: SimTime,
        /// Scanning node.
        node: NodeId,
        /// What fired the scan: `periodic` or `on-demand`.
        trigger: &'static str,
        /// Number of cache files deleted.
        purged: usize,
    },
    /// A heartbeat audit found a damaged framed cache blob and salvaged
    /// the intact frame prefix; only the missing suffix needs rebuilding.
    Salvage {
        /// Virtual time of the audit that found the damage.
        at: SimTime,
        /// Rendered store name of the damaged cache.
        name: String,
        /// Node whose local copy was damaged.
        node: NodeId,
        /// Frames recovered intact by the salvage scan.
        intact: u32,
        /// Total frames the blob originally held.
        total: u32,
    },
}

fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn kind_str(kind: TaskKind) -> &'static str {
    match kind {
        TaskKind::Map => "map",
        TaskKind::Reduce => "reduce",
    }
}

impl TraceEvent {
    /// Appends this event as one JSON object. Timestamps are integer
    /// microseconds of virtual time (no floats — rendering is exact and
    /// byte-stable).
    fn write_json(&self, out: &mut String) {
        match self {
            TraceEvent::Placement { at, kind, label, chosen, scores } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"placement\",\"at_us\":{},\"kind\":\"{}\",\"label\":\"",
                    at.0,
                    kind_str(*kind)
                );
                escape_json(label, out);
                let _ = write!(out, "\",\"chosen\":{},\"scores\":[", chosen.0);
                for (i, s) in scores.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(
                        out,
                        "{{\"node\":{},\"load_us\":{},\"cost_us\":{}}}",
                        s.node.0, s.load.0, s.cost.0
                    );
                }
                out.push_str("]}");
            }
            TraceEvent::TaskSpan { phase, node, start, end, label } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"span\",\"phase\":\"{}\",\"node\":{},\"start_us\":{},\"end_us\":{},\"label\":\"",
                    phase, node.0, start.0, end.0
                );
                escape_json(label, out);
                out.push_str("\"}");
            }
            TraceEvent::Cache { at, action, name, node, bytes } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"cache\",\"at_us\":{},\"action\":\"{}\",\"name\":\"",
                    at.0,
                    action.as_str()
                );
                escape_json(name, out);
                out.push('"');
                match node {
                    Some(n) => {
                        let _ = write!(out, ",\"node\":{}", n.0);
                    }
                    None => out.push_str(",\"node\":null"),
                }
                let _ = write!(out, ",\"bytes\":{bytes}}}");
            }
            TraceEvent::Heartbeat { at, node, alive, held, lost } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"heartbeat\",\"at_us\":{},\"node\":{},\"alive\":{},\"held\":{},\"lost\":{}}}",
                    at.0, node.0, alive, held, lost
                );
            }
            TraceEvent::Rollback { at, node, lost } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"rollback\",\"at_us\":{},\"node\":{},\"lost\":[",
                    at.0, node.0
                );
                for (i, name) in lost.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_json(name, out);
                    out.push('"');
                }
                out.push_str("]}");
            }
            TraceEvent::PaneSeal { at, source, pane } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"pane_seal\",\"at_us\":{},\"source\":{},\"pane\":{}}}",
                    at.0, source, pane
                );
            }
            TraceEvent::DeltaFold { at, source, pane, records, groups } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"delta_fold\",\"at_us\":{},\"source\":{},\"pane\":{},\"records\":{},\"groups\":{}}}",
                    at.0, source, pane, records, groups
                );
            }
            TraceEvent::DeltaSeal { at, source, pane, partition, node, bytes } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"delta_seal\",\"at_us\":{},\"source\":{},\"pane\":{},\"partition\":{},\"node\":{},\"bytes\":{}}}",
                    at.0, source, pane, partition, node.0, bytes
                );
            }
            TraceEvent::PaneExpire { at, source, pane } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"pane_expire\",\"at_us\":{},\"source\":{},\"pane\":{}}}",
                    at.0, source, pane
                );
            }
            TraceEvent::PurgeScan { at, node, trigger, purged } => {
                let _ = write!(
                    out,
                    "{{\"type\":\"purge_scan\",\"at_us\":{},\"node\":{},\"trigger\":\"{}\",\"purged\":{}}}",
                    at.0, node.0, trigger, purged
                );
            }
            TraceEvent::Salvage { at, name, node, intact, total } => {
                let _ = write!(out, "{{\"type\":\"salvage\",\"at_us\":{},\"name\":\"", at.0);
                escape_json(name, out);
                let _ = write!(
                    out,
                    "\",\"node\":{},\"intact_frames\":{},\"total_frames\":{}}}",
                    node.0, intact, total
                );
            }
        }
    }
}

struct SinkState {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
    now: SimTime,
}

/// Default ring capacity for an enabled sink.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// A shared, cloneable handle to one trace journal. Cloning is cheap
/// (an `Arc`); all clones append to the same ring buffer.
#[derive(Clone, Default)]
pub struct TraceSink {
    inner: Option<Arc<Mutex<SinkState>>>,
}

impl fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Some(s) => {
                let s = s.lock();
                write!(f, "TraceSink(enabled, {} events, {} dropped)", s.events.len(), s.dropped)
            }
            None => write!(f, "TraceSink(disabled)"),
        }
    }
}

impl TraceSink {
    /// A sink that records nothing; `emit` closures are never invoked.
    pub fn disabled() -> Self {
        TraceSink { inner: None }
    }

    /// An enabled sink with the default ring capacity.
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// An enabled sink keeping at most `capacity` events (FIFO eviction;
    /// evictions are tallied in the journal's `dropped` count).
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0);
        TraceSink {
            inner: Some(Arc::new(Mutex::new(SinkState {
                events: VecDeque::with_capacity(capacity.min(1024)),
                capacity,
                dropped: 0,
                now: SimTime::ZERO,
            }))),
        }
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one event. The closure only runs when the sink is enabled,
    /// so building the event (formatting, score collection) costs nothing
    /// on the disabled path.
    pub fn emit(&self, build: impl FnOnce() -> TraceEvent) {
        if let Some(inner) = &self.inner {
            let event = build();
            let mut s = inner.lock();
            if s.events.len() >= s.capacity {
                s.events.pop_front();
                s.dropped += 1;
            }
            s.events.push_back(event);
        }
    }

    /// Advances the shared "current virtual time" used by emitters that
    /// have no timestamp of their own (controller invalidations, purge
    /// scans). Monotonic: earlier times are ignored.
    pub fn set_now(&self, at: SimTime) {
        if let Some(inner) = &self.inner {
            let mut s = inner.lock();
            s.now = s.now.max(at);
        }
    }

    /// The shared current virtual time (zero when disabled).
    pub fn now(&self) -> SimTime {
        match &self.inner {
            Some(inner) => inner.lock().now,
            None => SimTime::ZERO,
        }
    }

    /// Number of events evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.lock().dropped,
            None => 0,
        }
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.lock().events.len(),
            None => 0,
        }
    }

    /// Whether the journal holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the recorded events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        match &self.inner {
            Some(inner) => inner.lock().events.iter().cloned().collect(),
            None => Vec::new(),
        }
    }

    /// Renders the whole journal as one JSON document. Deterministic:
    /// identical event sequences render to byte-identical strings.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"schema\":\"redoop-trace/1\"");
        match &self.inner {
            Some(inner) => {
                let s = inner.lock();
                let _ = write!(out, ",\"dropped\":{},\"events\":[", s.dropped);
                for (i, e) in s.events.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    e.write_json(&mut out);
                }
                out.push_str("]}");
            }
            None => out.push_str(",\"dropped\":0,\"events\":[]}"),
        }
        out
    }
}

/// Per-window aggregation of journal signals, folded into the executor's
/// `WindowReport`. Integer counters only (ratios are derived on demand)
/// so `Debug` output stays byte-stable across runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowTraceStats {
    /// Caches consumed from a holder's local store this window.
    pub cache_hits: u64,
    /// Caches that had to be (re)built this window.
    pub cache_misses: u64,
    /// Eq. 4 placement decisions taken this window.
    pub placements_total: u64,
    /// Placements that landed on a node already holding needed data
    /// (a requested cache, or a local HDFS replica for maps).
    pub placements_cache_local: u64,
    /// Caches rolled back by heartbeat reconciliation this window (§5).
    pub rollbacks: u64,
    /// This window's first hits on caches other queries built
    /// (cross-query sharing). Each is also counted in `cache_hits`, so
    /// `shared_hits` isolates the cross-query contribution.
    pub shared_hits: u64,
    /// Caches evicted by the capacity policy this window.
    pub evictions: u64,
    /// Freshly built caches the capacity policy refused to admit this
    /// window.
    pub admit_rejects: u64,
}

impl WindowTraceStats {
    /// Fraction of needed caches served locally (0 when nothing needed).
    pub fn cache_hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Fraction of placements that were data-local (0 when none taken).
    pub fn locality_ratio(&self) -> f64 {
        if self.placements_total == 0 {
            0.0
        } else {
            self.placements_cache_local as f64 / self.placements_total as f64
        }
    }
}

static GLOBAL_SINK: Mutex<Option<TraceSink>> = Mutex::new(None);

/// Installs (or clears) the process-wide default sink picked up by newly
/// built simulators and executors. Mirrors
/// `exec::set_host_parallelism`. Tests needing isolation should thread an
/// explicit sink instead.
pub fn set_global_sink(sink: Option<TraceSink>) {
    *GLOBAL_SINK.lock() = sink;
}

/// The process-wide default sink (disabled unless installed).
pub fn global_sink() -> TraceSink {
    GLOBAL_SINK.lock().clone().unwrap_or_else(TraceSink::disabled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_never_builds_events() {
        let sink = TraceSink::disabled();
        sink.emit(|| panic!("closure must not run on a disabled sink"));
        assert!(!sink.is_enabled());
        assert!(sink.is_empty());
        assert_eq!(sink.render_json(), "{\"schema\":\"redoop-trace/1\",\"dropped\":0,\"events\":[]}");
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let sink = TraceSink::with_capacity(2);
        for p in 0..5u64 {
            sink.emit(|| TraceEvent::PaneSeal { at: SimTime(p), source: 0, pane: p });
        }
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.dropped(), 3);
        let events = sink.events();
        assert!(matches!(events[0], TraceEvent::PaneSeal { pane: 3, .. }));
        assert!(matches!(events[1], TraceEvent::PaneSeal { pane: 4, .. }));
    }

    #[test]
    fn clones_share_the_journal() {
        let sink = TraceSink::with_capacity(8);
        let clone = sink.clone();
        clone.emit(|| TraceEvent::PaneSeal { at: SimTime(7), source: 0, pane: 1 });
        assert_eq!(sink.len(), 1);
        clone.set_now(SimTime(42));
        assert_eq!(sink.now(), SimTime(42));
        // set_now is monotonic.
        clone.set_now(SimTime(5));
        assert_eq!(sink.now(), SimTime(42));
    }

    #[test]
    fn json_rendering_is_exact() {
        let sink = TraceSink::with_capacity(8);
        sink.emit(|| TraceEvent::Placement {
            at: SimTime(10),
            kind: TaskKind::Reduce,
            label: "w0/reduce".into(),
            chosen: NodeId(1),
            scores: vec![
                NodeScore { node: NodeId(0), load: SimTime(5), cost: SimTime(9) },
                NodeScore { node: NodeId(1), load: SimTime(2), cost: SimTime(1) },
            ],
        });
        sink.emit(|| TraceEvent::Cache {
            at: SimTime(11),
            action: CacheAction::Register,
            name: "ri/s0p3.0/r1".into(),
            node: Some(NodeId(2)),
            bytes: 512,
        });
        let json = sink.render_json();
        assert_eq!(
            json,
            "{\"schema\":\"redoop-trace/1\",\"dropped\":0,\"events\":[\
             {\"type\":\"placement\",\"at_us\":10,\"kind\":\"reduce\",\"label\":\"w0/reduce\",\
             \"chosen\":1,\"scores\":[{\"node\":0,\"load_us\":5,\"cost_us\":9},\
             {\"node\":1,\"load_us\":2,\"cost_us\":1}]},\
             {\"type\":\"cache\",\"at_us\":11,\"action\":\"register\",\"name\":\"ri/s0p3.0/r1\",\
             \"node\":2,\"bytes\":512}]}"
        );
    }

    #[test]
    fn delta_events_render_exactly() {
        let sink = TraceSink::with_capacity(8);
        sink.emit(|| TraceEvent::DeltaFold {
            at: SimTime(20),
            source: 0,
            pane: 3,
            records: 150,
            groups: 42,
        });
        sink.emit(|| TraceEvent::DeltaSeal {
            at: SimTime(25),
            source: 0,
            pane: 3,
            partition: 1,
            node: NodeId(5),
            bytes: 2048,
        });
        assert_eq!(
            sink.render_json(),
            "{\"schema\":\"redoop-trace/1\",\"dropped\":0,\"events\":[\
             {\"type\":\"delta_fold\",\"at_us\":20,\"source\":0,\"pane\":3,\
             \"records\":150,\"groups\":42},\
             {\"type\":\"delta_seal\",\"at_us\":25,\"source\":0,\"pane\":3,\
             \"partition\":1,\"node\":5,\"bytes\":2048}]}"
        );
    }

    #[test]
    fn salvage_events_render_exactly() {
        let sink = TraceSink::with_capacity(8);
        sink.emit(|| TraceEvent::Salvage {
            at: SimTime(40),
            name: "ro/s0p3/r1".into(),
            node: NodeId(2),
            intact: 5,
            total: 8,
        });
        sink.emit(|| TraceEvent::Cache {
            at: SimTime(41),
            action: CacheAction::PartialRebuild,
            name: "ro/s0p3/r1".into(),
            node: Some(NodeId(2)),
            bytes: 1024,
        });
        assert_eq!(
            sink.render_json(),
            "{\"schema\":\"redoop-trace/1\",\"dropped\":0,\"events\":[\
             {\"type\":\"salvage\",\"at_us\":40,\"name\":\"ro/s0p3/r1\",\
             \"node\":2,\"intact_frames\":5,\"total_frames\":8},\
             {\"type\":\"cache\",\"at_us\":41,\"action\":\"partial_rebuild\",\
             \"name\":\"ro/s0p3/r1\",\"node\":2,\"bytes\":1024}]}"
        );
    }

    #[test]
    fn string_escaping() {
        let mut out = String::new();
        escape_json("a\"b\\c\nd\u{1}", &mut out);
        assert_eq!(out, "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn window_stats_ratios() {
        let s = WindowTraceStats {
            cache_hits: 3,
            cache_misses: 1,
            placements_total: 4,
            placements_cache_local: 2,
            rollbacks: 0,
            shared_hits: 1,
            ..Default::default()
        };
        assert_eq!(s.cache_hit_ratio(), 0.75);
        assert_eq!(s.locality_ratio(), 0.5);
        assert_eq!(WindowTraceStats::default().cache_hit_ratio(), 0.0);
        assert_eq!(WindowTraceStats::default().locality_ratio(), 0.0);
    }
}
