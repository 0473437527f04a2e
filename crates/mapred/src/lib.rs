//! # redoop-mapred
//!
//! A from-scratch MapReduce runtime — the "Hadoop" substrate the Redoop
//! paper (EDBT 2014) extends. No Hadoop code is used; the runtime
//! reproduces the architecture the paper relies on:
//!
//! * **Programming model** — [`Mapper`], [`Reducer`], optional
//!   [`Combiner`], pluggable [`Partitioner`], text-line records and a
//!   Hadoop-style [`Writable`] codec for keys/values.
//! * **Job execution** — [`JobRunner`] splits DFS input files into
//!   block-aligned input splits, runs map tasks, shuffles/sorts by key,
//!   and runs reduce tasks, writing `part-r-NNNNN` outputs back to the DFS.
//!   All record processing is real (parse, hash, sort, group, reduce), so
//!   results can be checked against an oracle.
//! * **Cluster model** — the paper's 30-node testbed (6 map + 2 reduce
//!   slots per node) is reproduced as a discrete-event simulation
//!   ([`ClusterSim`]): every task is *executed* on the host thread pool and
//!   *charged* virtual time from a calibrated [`CostModel`] (HDFS
//!   bandwidth, shuffle network, sort `n log n`, per-record CPU, task
//!   start-up). Reported times are simulated milliseconds; see `DESIGN.md`
//!   for the substitution rationale.
//! * **Scheduling** — a [`Scheduler`] trait with Hadoop's default
//!   (data-locality for maps, load-only for reduces). Redoop plugs in its
//!   cache-aware scheduler through the same interface.
//! * **Fault tolerance** — deterministic task-failure injection with
//!   bounded retries; failed attempts burn virtual time, exactly like a
//!   re-executed Hadoop task attempt.

pub mod combiner;
pub mod counters;
pub mod error;
pub mod exec;
pub mod fault;
pub mod frame;
pub mod grouped;
pub mod hasher;
pub mod io;
pub mod key;
pub mod job;
pub mod mapper;
pub mod metrics;
pub mod partitioner;
pub mod reducer;
pub mod runtime;
pub mod schedule;
pub mod scheduler;
pub mod simtime;
pub mod speculate;
pub mod split;
pub mod task;
pub mod trace;
pub mod writable;

pub use combiner::Combiner;
pub use counters::CounterSet;
pub use error::{MrError, Result};
pub use fault::FaultInjector;
pub use grouped::Grouped;
pub use io::LineFile;
pub use key::{SmallKey, SmallKeyBuilder};
pub use job::{JobConf, JobSpec};
pub use mapper::{ClosureMapper, MapContext, Mapper};
pub use metrics::{JobMetrics, PhaseTimes};
pub use partitioner::{HashPartitioner, Partitioner};
pub use reducer::{ClosureReducer, ReduceContext, Reducer};
pub use runtime::{JobResult, JobRunner, MapMemo};
pub use schedule::{ClusterSim, Placement, SlotKind};
pub use scheduler::{DefaultScheduler, Scheduler, SchedulerCtx};
pub use simtime::{CostModel, SimTime};
pub use speculate::{speculate_stragglers, SpeculationOutcome};
pub use split::InputSplit;
pub use task::{MapWork, ReduceWork, TaskId, TaskKind};
pub use trace::{CacheAction, NodeScore, TraceEvent, TraceSink, WindowTraceStats};
pub use writable::Writable;
