//! Criterion benches for E5 (join vs naive join vs product-filter) and the
//! arena deep-chain workload (n-hop source traversal).

use std::collections::HashSet;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mrpa_core::{source_traversal, EdgePattern, LabelId, VertexId};
use mrpa_datagen::{erdos_renyi, sample_vertices, ErConfig};

fn bench_join_vs_product(c: &mut Criterion) {
    let mut group = c.benchmark_group("E5_join_vs_product");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1));
    for &v in &[40usize, 80] {
        let g = erdos_renyi(ErConfig {
            vertices: v,
            labels: 2,
            edge_probability: 0.03,
            seed: 17,
        });
        let a = EdgePattern::with_label(LabelId(0)).select_paths(&g);
        let b = EdgePattern::with_label(LabelId(1)).select_paths(&g);
        group.bench_with_input(BenchmarkId::new("indexed_join", v), &v, |bench, _| {
            bench.iter(|| a.join(&b))
        });
        group.bench_with_input(BenchmarkId::new("naive_join", v), &v, |bench, _| {
            bench.iter(|| a.join_naive(&b))
        });
        group.bench_with_input(
            BenchmarkId::new("product_then_filter", v),
            &v,
            |bench, _| bench.iter(|| a.product(&b).joint_only()),
        );
    }
    group.finish();
}

fn bench_deep_chain(c: &mut Criterion) {
    // n-hop source traversals at n = 2..6
    let g = erdos_renyi(ErConfig {
        vertices: 50,
        labels: 4,
        edge_probability: 0.02,
        seed: 7,
    });
    let sources: HashSet<VertexId> = sample_vertices(&g, 5, 9).into_iter().collect();
    let mut group = c.benchmark_group("pathset_deep_chain");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1));
    for n in 2..=6usize {
        group.bench_with_input(BenchmarkId::new("arena", n), &n, |bench, &n| {
            bench.iter(|| source_traversal(&g, &sources, n))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_join_vs_product, bench_deep_chain);
criterion_main!(benches);
