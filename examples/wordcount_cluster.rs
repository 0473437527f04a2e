//! The bare Hadoop substrate, without Redoop: two word-count jobs run by
//! [`JobRunner`] on one simulated cluster timeline, with injected task
//! failures and speculative execution.
//!
//! ```text
//! cargo run --release --example wordcount_cluster
//! ```

use bytes::Bytes;
use redoop_dfs::{Cluster, DfsPath, NodeId};
use redoop_mapred::{
    ClosureMapper, ClosureReducer, ClusterSim, CostModel, FaultInjector, JobConf, JobRunner,
    JobSpec, MapContext, ReduceContext, SimTime, TaskKind,
};

fn main() {
    // An 8-node cluster; one replica node is lost before the job runs.
    let cluster = Cluster::with_nodes(8);
    let corpus = "the quick brown fox jumps over the lazy dog\n\
                  the dog barks and the fox runs\n";
    for part in 0..6 {
        cluster
            .create(
                &DfsPath::new(format!("/corpus/part-{part}")).unwrap(),
                Bytes::from(corpus.repeat(400)),
            )
            .unwrap();
    }
    cluster.kill_node(NodeId(3)).unwrap();
    let re_replicated = cluster.re_replicate().unwrap();
    println!("node 3 lost; re-replication created {re_replicated} new replicas");

    let mapper = ClosureMapper::new(|line: &str, ctx: &mut MapContext<String, u64>| {
        for word in line.split_whitespace() {
            ctx.emit(word.to_string(), 1);
        }
    });
    #[allow(clippy::ptr_arg)]
    fn sum(k: &String, vs: &[u64], ctx: &mut ReduceContext<String, u64>) {
        ctx.emit(k.clone(), vs.iter().sum());
    }
    let reducer = ClosureReducer::new(sum);

    // One slot timeline shared by every job: consecutive jobs contend
    // for the same slots, like a cluster that never resets between jobs.
    let mut sim = ClusterSim::paper_testbed(8, CostModel::default());

    // Inject two failures into the first job's map 0 — the runner
    // retries the attempts transparently.
    let faults = FaultInjector::new();
    faults.fail_first_attempts("wc1", TaskKind::Map, 0, 2);
    let runner = JobRunner::new(&cluster, &mapper, &reducer).with_faults(&faults);

    let inputs: Vec<DfsPath> =
        (0..6).map(|p| DfsPath::new(format!("/corpus/part-{p}")).unwrap()).collect();
    let conf = JobConf { num_reducers: 4, speculative: true, ..Default::default() };

    let job1 = JobSpec::new("wc1", inputs.clone(), DfsPath::new("/out/wc1").unwrap());
    let result = runner.run(&mut sim, &job1, &conf, SimTime::ZERO).expect("job 1");
    println!("\njob wc1: {}", result.metrics);
    println!(
        "  failed map attempts retried: {}",
        result.metrics.counters.get("FAILED_MAP_ATTEMPTS")
    );

    // A second job submitted at the same instant queues on the same
    // cluster timeline.
    let job2 = JobSpec::new("wc2", inputs, DfsPath::new("/out/wc2").unwrap());
    let result2 = runner.run(&mut sim, &job2, &conf, SimTime::ZERO).expect("job 2");
    println!("job wc2: {}", result2.metrics);

    // Show the top words from the first job's output.
    let mut counts: Vec<(String, u64)> = Vec::new();
    for part in &result.outputs {
        let data = cluster.read(part).unwrap();
        counts.extend(
            redoop_mapred::io::decode_kv_block::<String, u64>(
                std::str::from_utf8(&data).unwrap(),
            )
            .unwrap(),
        );
    }
    counts.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
    println!("\ntop words:");
    for (w, c) in counts.iter().take(5) {
        println!("  {w:<8} {c}");
    }
    println!("\ncluster horizon (all slots quiet): {}", sim.horizon());
}
