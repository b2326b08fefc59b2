//! Criterion bench for experiment X6: the k-path index on disk — paged
//! B+tree construction, compressed-block construction and scan latency of the
//! three representations (in-memory chunked runs, paged B+tree, compressed
//! blocks).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pathix_bench::{bench_scale, build_advogato};
use pathix_graph::SignedLabel;
use pathix_index::{PathIndexBackend, SharedKPathIndex};
use pathix_pagestore::{CompressedPathStore, PagedPathIndex};

fn paged_index_bench(c: &mut Criterion) {
    let scale = (bench_scale() * 0.3).clamp(0.005, 0.1);
    let graph = build_advogato(scale);
    let k = 2;

    let mut group = c.benchmark_group("paged_index_build");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_function(BenchmarkId::new("in_memory_runs", k), |b| {
        b.iter(|| criterion::black_box(SharedKPathIndex::build(&graph, k).stats().entries))
    });
    group.bench_function(BenchmarkId::new("paged_btree", k), |b| {
        b.iter(|| {
            criterion::black_box(
                PagedPathIndex::build_in_memory(&graph, k, 256)
                    .expect("paged build")
                    .len(),
            )
        })
    });
    group.bench_function(BenchmarkId::new("compressed_blocks", k), |b| {
        b.iter(|| criterion::black_box(CompressedPathStore::build(&graph, k).path_count()))
    });
    group.finish();

    // Scan latency of one 2-path across the three representations.
    let memory = SharedKPathIndex::build(&graph, k);
    let paged = PagedPathIndex::build_in_memory(&graph, k, 256).expect("paged build");
    let compressed = CompressedPathStore::build(&graph, k);
    let journeyer = SignedLabel::forward(
        graph
            .label_id("journeyer")
            .expect("advogato graphs have the journeyer label"),
    );
    let path = vec![journeyer, journeyer];

    let mut group = c.benchmark_group("paged_index_scan");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));
    group.bench_function("in_memory_runs", |b| {
        b.iter(|| criterion::black_box(memory.scan_path(&path).count()))
    });
    group.bench_function("paged_btree_warm", |b| {
        b.iter(|| criterion::black_box(paged.scan_path(&path).expect("scan").len()))
    });
    group.bench_function("compressed_blocks", |b| {
        b.iter(|| criterion::black_box(compressed.scan_path(&path).count()))
    });
    group.finish();
}

criterion_group!(benches, paged_index_bench);
criterion_main!(benches);
