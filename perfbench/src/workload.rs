//! The three benchmark workloads: input generation, system set-up, the
//! deployment wrapper that times each public call, the drive loop, and
//! the recompute oracle.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hasher};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use redoop_bench::setup::{self, NUM_REDUCERS, WIN_MS};
use redoop_core::prelude::*;
use redoop_core::{DeployedQuery, SharedSource};
use redoop_dfs::datanode::IoSnapshot;
use redoop_dfs::{Cluster, DfsPath, NodeId};
use redoop_mapred::combiner::SumCombiner;
use redoop_mapred::{ClusterSim, MapMemo, Mapper, Reducer};
use redoop_workloads::arrival::{ArrivalCurves, ArrivalPlan, GeneratedBatch};
use redoop_workloads::ffg::Stream;
use redoop_workloads::queries::{AggMapper, AggReducer, JoinMapper, JoinReducer};

use crate::cpuclock::process_cpu_s;
use crate::spans::SpanLog;

/// Burst schedule of `fleet-bursty`: the `repro scale` headline's. The
/// schedule is part of the workload's shape, so `--seed` varies the
/// records but not where the bursts fall; with 13 windows a reseeded
/// schedule would move the response percentiles by about a fifth.
const FLEET_BURST_SEED: u64 = 2014;

/// Per-node cache budget of `join-evict`: a quarter of the uncapped FFG
/// join's peak per-node residency (58 345 B at overlap 0.875).
const JOIN_BUDGET_BYTES: u64 = 14_586;

/// The benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One WCC aggregation with a sum combiner: delta maintenance folds
    /// every record at ingest.
    AggDelta,
    /// One FFG binary join under a tight cost-based cache budget: the
    /// fire path evicts and rebuilds every window.
    JoinEvict,
    /// Sixteen identical aggregations over one shared source on 200
    /// nodes under bursty arrivals: placement, housekeeping, shared
    /// hits, and queueing.
    FleetBursty,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::AggDelta,
        Workload::JoinEvict,
        Workload::FleetBursty,
    ];

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AggDelta => "agg-delta",
            Workload::JoinEvict => "join-evict",
            Workload::FleetBursty => "fleet-bursty",
        }
    }

    /// Window constraints shared by every query of the workload.
    pub fn spec(self) -> WindowSpec {
        setup::spec(match self {
            Workload::AggDelta => 0.9,
            Workload::JoinEvict => 0.875,
            Workload::FleetBursty => 0.5,
        })
    }

    /// Recurrences each query runs.
    pub fn windows(self) -> u64 {
        match self {
            Workload::AggDelta | Workload::JoinEvict => 200,
            Workload::FleetBursty => 13,
        }
    }

    /// Concurrent queries.
    pub fn queries(self) -> usize {
        match self {
            Workload::AggDelta | Workload::JoinEvict => 1,
            Workload::FleetBursty => 16,
        }
    }

    /// Simulated cluster nodes.
    pub fn nodes(self) -> usize {
        match self {
            Workload::AggDelta | Workload::JoinEvict => setup::NODES,
            Workload::FleetBursty => 200,
        }
    }

    /// Window reports one deployment run produces.
    pub fn reports(self) -> u64 {
        self.windows() * self.queries() as u64
    }

    /// One-line shape, for the report header.
    pub fn shape(self) -> String {
        let spec = self.spec();
        format!(
            "{} nodes, {} quer{} x {} windows, win {} ms / slide {} ms",
            self.nodes(),
            self.queries(),
            if self.queries() == 1 { "y" } else { "ies" },
            self.windows(),
            spec.win,
            spec.slide
        )
    }
}

/// Generated arrival streams of one workload (one stream per source).
pub struct Inputs {
    streams: Vec<Vec<GeneratedBatch>>,
}

impl Inputs {
    /// Generates the workload's streams from `seed`. The same seed always
    /// yields the same batches.
    pub fn generate(workload: Workload, seed: u64) -> Self {
        let spec = workload.spec();
        let plan = ArrivalPlan::new(spec, workload.windows());
        let streams = match workload {
            Workload::AggDelta => vec![setup::wcc_rate(&plan, seed, 4.0)],
            Workload::JoinEvict => vec![
                setup::ffg(&plan, Stream::Position, seed),
                setup::ffg(&plan, Stream::Speed, seed + 1),
            ],
            Workload::FleetBursty => {
                // The scale headline's arrival shape: bursts, a diurnal
                // swell, and key-skew drift, at 4x the default rate.
                let plan = plan.with_curves(
                    ArrivalCurves::new(FLEET_BURST_SEED)
                        .bursty(0.3, 2.0)
                        .diurnal(WIN_MS * 5 / 4, 1.0)
                        .skew_drift(0.9, 1.3),
                );
                vec![setup::wcc_shaped(&plan, seed, 4.0)]
            }
        };
        Inputs { streams }
    }

    /// Input records across every stream.
    pub fn records(&self) -> u64 {
        self.streams
            .iter()
            .flatten()
            .map(|b| b.lines.len() as u64)
            .sum()
    }
}

/// What the harness observes from its side of the public calls.
#[derive(Debug)]
pub struct Recorder {
    /// Spans around every call (recording only in traced passes).
    pub spans: SpanLog,
    /// Records delivered through `ingest_lines`.
    pub packer_records: u64,
    /// Largest per-node resident cache bytes any query's controller held
    /// after a window (probed in traced passes only).
    pub peak_node_bytes: u64,
}

impl Recorder {
    /// A recorder; `traced` enables spans and the residency probe.
    pub fn new(traced: bool, run: u32) -> Rc<RefCell<Self>> {
        Rc::new(RefCell::new(Recorder {
            spans: SpanLog::new(traced, run),
            packer_records: 0,
            peak_node_bytes: 0,
        }))
    }
}

/// Benchmark-side [`DeployedQuery`] wrapper: forwards every call to the
/// executor and records a span around it.
struct Timed<M: Mapper, R: Reducer<KIn = M::KOut, VIn = M::VOut>> {
    exec: RecurringExecutor<M, R>,
    nodes: usize,
    rec: Rc<RefCell<Recorder>>,
}

impl<M, R> DeployedQuery for Timed<M, R>
where
    M: Mapper,
    R: Reducer<KIn = M::KOut, VIn = M::VOut>,
{
    fn window_spec(&self) -> WindowSpec {
        DeployedQuery::window_spec(&self.exec)
    }

    fn ingest_lines(
        &mut self,
        source: usize,
        lines: &[String],
        range: &TimeRange,
    ) -> redoop_core::Result<()> {
        let span = self.rec.borrow_mut().spans.enter("ingest_lines");
        let out = DeployedQuery::ingest_lines(&mut self.exec, source, lines, range);
        let mut rec = self.rec.borrow_mut();
        rec.spans.exit(span);
        rec.packer_records += lines.len() as u64;
        out
    }

    fn run_window(&mut self, recurrence: u64) -> redoop_core::Result<WindowReport> {
        let span = self.rec.borrow_mut().spans.enter("run_window");
        let out = DeployedQuery::run_window(&mut self.exec, recurrence);
        let mut rec = self.rec.borrow_mut();
        rec.spans.exit(span);
        if rec.spans.is_enabled() {
            let probe = rec.spans.enter("probe");
            let controller = self.exec.controller();
            let peak = (0..self.nodes as u32)
                .map(|n| controller.bytes_on(NodeId(n)))
                .max()
                .unwrap_or(0);
            rec.peak_node_bytes = rec.peak_node_bytes.max(peak);
            rec.spans.exit(probe);
        }
        out
    }

    fn set_cache_policy(&mut self, budget: CacheBudget) {
        DeployedQuery::set_cache_policy(&mut self.exec, budget)
    }
}

/// A set-up system: cluster, sources and executors under one deployment.
pub struct Rig {
    /// Input records the deployment will deliver.
    pub records: u64,
    pub cluster: Cluster,
    pub deployment: RecurringDeployment<'static>,
    pub recorder: Rc<RefCell<Recorder>>,
}

/// One pass of a deployment to completion.
pub struct Pass {
    /// Every fired window, in firing order.
    pub fired: Vec<FiredWindow>,
    /// Host wall-clock seconds inside `RecurringDeployment::step`.
    pub run_s: f64,
    /// Process CPU seconds (every thread) inside
    /// `RecurringDeployment::step`.
    pub cpu_s: f64,
    /// The error that stopped the pass early, if any.
    pub error: Option<String>,
    /// DFS I/O performed inside steps.
    pub io: IoSnapshot,
}

fn arrivals(batches: Vec<GeneratedBatch>) -> Vec<ArrivalBatch> {
    batches
        .into_iter()
        .map(|b| ArrivalBatch::new(b.lines, b.range))
        .collect()
}

impl Rig {
    /// Builds the workload's cluster, sources and executors (default
    /// executor options) and deploys its queries over `inputs`.
    pub fn build(workload: Workload, inputs: Inputs, recorder: Rc<RefCell<Recorder>>) -> Self {
        let spec = workload.spec();
        let records = inputs.records();
        let cluster = setup::cluster_with_nodes(workload.nodes());
        let nodes = workload.nodes();
        let mut streams = inputs.streams.into_iter();
        let mut next_stream = || arrivals(streams.next().expect("workload stream"));
        let deployment = match workload {
            Workload::AggDelta => {
                let off = setup::controller_off(&cluster, &spec);
                let mut exec = setup::agg_executor(&cluster, spec, "agg-delta", off);
                exec.set_combiner(Arc::new(SumCombiner));
                let mut dep = RecurringDeployment::new(exec.sim().clone());
                let src = dep.add_source(next_stream());
                let query = Timed {
                    exec,
                    nodes,
                    rec: recorder.clone(),
                };
                dep.add_query(query, &[src], workload.windows())
                    .expect("agg binding");
                dep
            }
            Workload::JoinEvict => {
                let off = setup::controller_off(&cluster, &spec);
                let exec = setup::join_executor(&cluster, spec, "join-evict", off);
                let mut dep = RecurringDeployment::new(exec.sim().clone());
                let pos = dep.add_source(next_stream());
                let spd = dep.add_source(next_stream());
                let query = Timed {
                    exec,
                    nodes,
                    rec: recorder.clone(),
                };
                dep.add_query(query, &[pos, spd], workload.windows())
                    .expect("join binding");
                dep.set_cache_policy(CacheBudget::bounded(
                    CachePolicyKind::CostBased,
                    JOIN_BUDGET_BYTES,
                ));
                dep
            }
            Workload::FleetBursty => {
                let shared = SharedSource::new(
                    &cluster,
                    0,
                    "wcc",
                    DfsPath::new("/panes/fleet").expect("pane root"),
                    &[spec],
                    leading_ts_fn(),
                )
                .expect("shared source");
                let clock = setup::sim(&cluster);
                let mut dep = RecurringDeployment::new(clock.clone());
                let src = dep.add_shared_source(shared.clone(), next_stream());
                for q in 0..workload.queries() {
                    let name = format!("fleet-q{q}");
                    let conf = QueryConf::new(
                        &name,
                        NUM_REDUCERS,
                        DfsPath::new(format!("/out/{name}")).expect("output root"),
                    )
                    .expect("query conf");
                    let exec = RecurringExecutor::aggregation_shared(
                        &cluster,
                        clock.clone(),
                        conf,
                        &shared,
                        spec,
                        Arc::new(AggMapper),
                        Arc::new(AggReducer),
                        Arc::new(SumMerger),
                        setup::controller_off(&cluster, &spec),
                    )
                    .expect("fleet executor");
                    let query = Timed {
                        exec,
                        nodes,
                        rec: recorder.clone(),
                    };
                    dep.add_query(query, &[src], workload.windows())
                        .expect("fleet binding");
                }
                dep
            }
        };
        Rig {
            records,
            cluster,
            deployment,
            recorder,
        }
    }

    /// Steps the deployment to completion. After each fired window the
    /// `oracle` (if any) checks its outputs; that time is outside every
    /// step.
    pub fn drive(&mut self, mut oracle: Option<&mut Oracle>) -> Pass {
        let mut pass = Pass {
            fired: Vec::new(),
            run_s: 0.0,
            cpu_s: 0.0,
            error: None,
            io: IoSnapshot::default(),
        };
        loop {
            let io_before = self.cluster.io_totals();
            let (started, cpu_before) = (Instant::now(), process_cpu_s());
            let span = self.recorder.borrow_mut().spans.enter("step");
            let stepped = self.deployment.step();
            self.recorder.borrow_mut().spans.exit(span);
            pass.cpu_s += process_cpu_s() - cpu_before;
            pass.run_s += started.elapsed().as_secs_f64();
            add_io(&mut pass.io, &io_before, &self.cluster.io_totals());
            match stepped {
                Ok(Some(fired)) => {
                    if let Some(o) = oracle.as_deref_mut() {
                        o.check(&self.cluster, &fired, &self.recorder);
                    }
                    pass.fired.push(fired);
                }
                Ok(None) => break,
                Err(e) => {
                    pass.error = Some(e.to_string());
                    break;
                }
            }
        }
        pass
    }

    /// Digest of the pass's simulated results: each window's firing
    /// time, response, cache and placement counts, and output bytes.
    /// Host timing never enters it, so it must repeat exactly.
    pub fn digest(&self, fired: &[FiredWindow]) -> u64 {
        let mut h = DefaultHasher::new();
        for f in fired {
            let r = &f.report;
            let t = &r.trace;
            for v in [
                f.query as u64,
                f.recurrence,
                r.fired_at.0,
                r.response.0,
                r.built_products as u64,
                r.reused_caches as u64,
                t.cache_hits,
                t.cache_misses,
                t.placements_total,
                t.placements_cache_local,
                t.rollbacks,
                t.shared_hits,
                t.evictions,
                t.admit_rejects,
            ] {
                h.write(&v.to_le_bytes());
            }
            for part in &r.outputs {
                match self.cluster.read(part) {
                    Ok(bytes) => {
                        h.write(&(bytes.len() as u64).to_le_bytes());
                        h.write(&bytes);
                    }
                    Err(_) => h.write(b"<unreadable>"),
                }
            }
        }
        h.finish()
    }
}

fn add_io(total: &mut IoSnapshot, before: &IoSnapshot, after: &IoSnapshot) {
    total.local_read += after.local_read - before.local_read;
    total.remote_read += after.remote_read - before.remote_read;
    total.written += after.written - before.written;
    total.local_store_read += after.local_store_read - before.local_store_read;
    total.local_store_written += after.local_store_written - before.local_store_written;
}

/// The recompute oracle: every window is recomputed from scratch by the
/// plain-Hadoop baseline on a cluster of its own, so checking never
/// perturbs the system's simulated state.
pub struct Oracle {
    workload: Workload,
    cluster: Cluster,
    sim: ClusterSim,
    memo: MapMemo,
    files: Vec<BatchFile>,
    /// `fleet-bursty`: query 0's raw output parts per recurrence, which
    /// every other query must match byte for byte.
    reference: BTreeMap<u64, Vec<Vec<u8>>>,
    /// Windows checked.
    pub checked: u64,
    /// Windows whose outputs disagreed.
    pub mismatches: u64,
}

impl Oracle {
    /// Writes the workload's inputs as batch files on an oracle cluster.
    pub fn new(workload: Workload, inputs: &Inputs) -> Self {
        let cluster = setup::cluster();
        let files = inputs
            .streams
            .iter()
            .enumerate()
            .flat_map(|(i, batches)| {
                setup::baseline_files(&cluster, &format!("/batches/s{i}"), batches)
            })
            .collect();
        Oracle {
            workload,
            sim: setup::sim(&cluster),
            cluster,
            memo: MapMemo::default(),
            files,
            reference: BTreeMap::new(),
            checked: 0,
            mismatches: 0,
        }
    }

    /// Checks one fired window; returns whether it matched.
    pub fn check(
        &mut self,
        system: &Cluster,
        fired: &FiredWindow,
        rec: &RefCell<Recorder>,
    ) -> bool {
        let ok = match self.workload {
            Workload::AggDelta => {
                self.recompute::<_, _, String, u64>(system, fired, AggMapper, &AggReducer, rec)
            }
            Workload::JoinEvict => {
                self.recompute::<_, _, String, String>(system, fired, JoinMapper, &JoinReducer, rec)
            }
            Workload::FleetBursty => {
                let span = rec.borrow_mut().spans.enter("readback");
                let parts = read_parts(system, &fired.report.outputs);
                rec.borrow_mut().spans.exit(span);
                if fired.query == 0 {
                    // Queries fire in registration order at each fire time,
                    // so query 0's outputs are in hand before the others'.
                    if let Some(parts) = parts {
                        self.reference.insert(fired.recurrence, parts);
                    }
                    self.recompute::<_, _, String, u64>(system, fired, AggMapper, &AggReducer, rec)
                } else {
                    parts.is_some() && parts.as_ref() == self.reference.get(&fired.recurrence)
                }
            }
        };
        self.checked += 1;
        self.mismatches += u64::from(!ok);
        ok
    }

    /// Compares the window's sorted outputs with a baseline recompute.
    fn recompute<M, R, K, V>(
        &mut self,
        system: &Cluster,
        fired: &FiredWindow,
        mapper: M,
        reducer: &R,
        rec: &RefCell<Recorder>,
    ) -> bool
    where
        M: Mapper,
        R: Reducer<KIn = M::KOut, VIn = M::VOut>,
        K: redoop_mapred::writable::Writable + Ord,
        V: redoop_mapred::writable::Writable + Ord,
    {
        let span = rec.borrow_mut().spans.enter("readback");
        let ours = read_window_output::<K, V>(system, &fired.report.outputs);
        rec.borrow_mut().spans.exit(span);

        let span = rec.borrow_mut().spans.enter("oracle");
        let out_root = DfsPath::new(format!("/out/oracle-q{}", fired.query)).expect("oracle root");
        let theirs = run_baseline_window(
            &self.cluster,
            &mut self.sim,
            Arc::new(mapper),
            reducer,
            leading_ts_fn(),
            &self.workload.spec(),
            fired.recurrence,
            &self.files,
            NUM_REDUCERS,
            &out_root,
            Some(&mut self.memo),
        )
        .and_then(|job| read_window_output::<K, V>(&self.cluster, &job.outputs));
        rec.borrow_mut().spans.exit(span);
        matches!((ours, theirs), (Ok(a), Ok(b)) if a == b)
    }
}

/// Raw bytes of every output part, or `None` if one is unreadable.
fn read_parts(cluster: &Cluster, outputs: &[DfsPath]) -> Option<Vec<Vec<u8>>> {
    outputs
        .iter()
        .map(|p| cluster.read(p).ok().map(|b| b.to_vec()))
        .collect()
}
