//! Host-time microbenchmarks of the hot components: shuffle sort/group,
//! partitioning, the stable hash, the cache status matrix, pane packing,
//! line-file indexing, and the pane-pair join. These measure *real* CPU
//! time (unlike the figure benches, which surface simulated time).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use redoop_core::cache::status_matrix::CacheStatusMatrix;
use redoop_core::packer::DynamicDataPacker;
use redoop_core::prelude::*;
use redoop_core::PartitionPlan;
use redoop_dfs::{Cluster, DfsPath};
use redoop_mapred::hasher::stable_hash;
use redoop_mapred::{exec, io as mrio, HashPartitioner, LineFile, Partitioner};
use redoop_workloads::ffg::{FfgGenerator, Stream};
use redoop_workloads::queries::{JoinMapper, JoinReducer};

fn pairs(n: usize) -> Vec<(String, u64)> {
    (0..n).map(|i| (format!("key{}", (i * 2_654_435_761) % 997), i as u64)).collect()
}

fn bench_sort_group(c: &mut Criterion) {
    let input = pairs(10_000);
    c.bench_function("exec/sort_group_10k", |b| {
        b.iter_batched(|| input.clone(), exec::sort_group, BatchSize::SmallInput)
    });
}

fn bench_partition(c: &mut Criterion) {
    let input = pairs(10_000);
    c.bench_function("exec/partition_10k_x8", |b| {
        b.iter_batched(
            || input.clone(),
            |p| exec::partition_pairs(p, &HashPartitioner, 8),
            BatchSize::SmallInput,
        )
    });
}

fn bench_stable_hash(c: &mut Criterion) {
    c.bench_function("hasher/stable_hash_str", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            stable_hash(&format!("player{i}"))
        })
    });
}

fn bench_status_matrix(c: &mut Criterion) {
    let geom = PaneGeometry::from_spec(&WindowSpec::new(2_000_000, 200_000).unwrap());
    c.bench_function("cache/status_matrix_window_cycle", |b| {
        b.iter(|| {
            let mut m = CacheStatusMatrix::new(2, geom);
            for w in 0..10u64 {
                for p in geom.window_panes(w) {
                    for q in geom.window_panes(w) {
                        m.mark_done(&[PaneId(p), PaneId(q)]);
                    }
                }
                m.shift(w);
            }
            m.stored_cells()
        })
    });
}

fn bench_packer(c: &mut Criterion) {
    let lines: Vec<String> = (0..5_000u64).map(|i| format!("{},{}", i % 100_000, i)).collect();
    c.bench_function("packer/ingest_5k_records", |b| {
        let mut run = 0u64;
        b.iter(|| {
            run += 1;
            let cluster = Cluster::with_nodes(4);
            let mut packer = DynamicDataPacker::new(
                &cluster,
                0,
                DfsPath::new(format!("/p{run}")).unwrap(),
                PartitionPlan::simple(10_000),
                redoop_core::leading_ts_fn(),
            );
            packer
                .ingest_batch(
                    lines.iter().map(String::as_str),
                    &TimeRange::new(EventTime(0), EventTime(100_000)),
                )
                .unwrap()
                .len()
        })
    });
}

fn bench_line_file(c: &mut Criterion) {
    let text: String = (0..20_000).map(|i| format!("{i},field1,field2\n")).collect();
    let data = bytes::Bytes::from(text);
    c.bench_function("io/line_file_index_20k", |b| {
        b.iter(|| LineFile::new(data.clone()).line_count())
    });
}

/// One reduce partition (of 4) of an FFG join window: 8 panes per
/// stream, each pane's partition stored as a sorted, framed reduce-input
/// run — the blobs a window's 8×8 pane-pair joins read.
fn ffg_partition_runs() -> [Vec<bytes::Bytes>; 2] {
    let pane_ms = 250_000;
    let mut generator = FfgGenerator::new(2014, 16, 0.002);
    [Stream::Position, Stream::Speed].map(|stream| {
        (0..8u64)
            .map(|pane| {
                let range =
                    TimeRange::new(EventTime(pane * pane_ms), EventTime((pane + 1) * pane_ms));
                let lines = generator.batch(stream, &range, 1.0);
                let (pairs, _) = exec::run_mapper(&JoinMapper, lines.iter().map(String::as_str));
                let part: Vec<_> = pairs
                    .into_iter()
                    .filter(|(k, _)| HashPartitioner.partition(k, 4) == 0)
                    .collect();
                let run = exec::sort_group(part);
                bytes::Bytes::from(mrio::encode_framed_grouped_block(&run, pane, 0))
            })
            .collect()
    })
}

fn bench_pair_join(c: &mut Criterion) {
    let [left, right] = ffg_partition_runs();
    type Run = mrio::GroupedBlock<
        <JoinMapper as redoop_mapred::Mapper>::KOut,
        <JoinMapper as redoop_mapred::Mapper>::VOut,
    >;
    let decode = |blob: &bytes::Bytes| -> Run { mrio::decode_grouped_block_any(blob).unwrap() };
    // Every pair decodes both runs, merges them into one copy, reduces.
    c.bench_function("join/pair_8x8_decode_merge_reduce", |b| {
        b.iter(|| {
            let mut emitted = 0;
            for l in &left {
                for r in &right {
                    let merged =
                        exec::merge_sorted_groups(vec![decode(l).grouped, decode(r).grouped]);
                    emitted += exec::run_reducer(&JoinReducer, &merged).0.len();
                }
            }
            emitted
        })
    });
    // Runs decoded once; every pair merge-reduces them by reference.
    let (left, right): (Vec<Run>, Vec<Run>) =
        (left.iter().map(decode).collect(), right.iter().map(decode).collect());
    c.bench_function("join/pair_8x8_reduce_sorted_pair", |b| {
        b.iter(|| {
            let mut emitted = 0;
            for l in &left {
                for r in &right {
                    let (out, _) = exec::reduce_sorted_pair(&JoinReducer, &l.grouped, &r.grouped);
                    emitted += out.len();
                }
            }
            emitted
        })
    });
}

criterion_group!(
    benches,
    bench_sort_group,
    bench_partition,
    bench_stable_hash,
    bench_status_matrix,
    bench_packer,
    bench_line_file,
    bench_pair_join
);
criterion_main!(benches);
