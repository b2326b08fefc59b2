//! Query latency of the same RPQ workload across the three index backends
//! (in-memory chunked runs, paged buffer-pool B+tree, compressed pair blocks) on
//! the Advogato-like dataset — the bench counterpart of experiment X7.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pathix_bench::{bench_scale, build_advogato};
use pathix_core::{BackendChoice, PathDb, PathDbConfig, QueryOptions, Strategy};
use pathix_datagen::advogato_queries;

fn backend_configs() -> Vec<(&'static str, BackendChoice)> {
    vec![
        ("memory", BackendChoice::Memory),
        ("paged", BackendChoice::PagedInMemory { pool_frames: 256 }),
        ("compressed", BackendChoice::Compressed),
    ]
}

fn backend_query_latency(c: &mut Criterion) {
    let scale = bench_scale();
    let graph = build_advogato(scale);
    let queries = advogato_queries();
    let mut group = c.benchmark_group("backend_comparison");
    group
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_secs(2));
    for (name, backend) in backend_configs() {
        let config = PathDbConfig::with_k(2).with_backend(backend);
        let db = PathDb::try_build(graph.clone(), config).expect("backend build failed");
        for query in &queries {
            group.bench_with_input(
                BenchmarkId::new(name, &query.name),
                &query.text,
                |b, text| {
                    b.iter(|| {
                        db.run(text, QueryOptions::with_strategy(Strategy::MinSupport))
                            .expect("query failed")
                            .len()
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, backend_query_latency);
criterion_main!(benches);
