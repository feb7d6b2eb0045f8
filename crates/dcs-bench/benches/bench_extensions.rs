//! Benchmarks of the library extensions layered on top of the paper's algorithms:
//! parallel initialisation sweeps, top-k mining, quasi-clique extraction and the
//! streaming monitor.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dcs_core::dcsga::{parallel_sweep, refine, DcsgaConfig, NewSea, SeaCd};
use dcs_core::streaming::{StreamingConfig, StreamingDcs};
use dcs_core::{
    difference_graph, top_k_affinity, top_k_average_degree, DensityMeasure, SolveContext,
};
use dcs_datasets::{CoauthorConfig, Scale, TrafficConfig, TransactionConfig};
use dcs_densest::{greedy_peeling, greedy_quasi_clique};

fn bench_parallel_sweeps(c: &mut Criterion) {
    let mut config_small = CoauthorConfig::for_scale(Scale::Tiny);
    config_small.num_authors = 1_200;
    config_small.background_edges = 5_000;
    let pair = config_small.generate();
    let gd = difference_graph(&pair.g2, &pair.g1).unwrap();
    let gd_plus = gd.positive_part();
    let config = DcsgaConfig::default();

    let mut group = c.benchmark_group("parallel");
    group.sample_size(10);

    group.bench_function("newsea_sequential", |b| {
        b.iter(|| NewSea::new(config).solve(&gd_plus))
    });
    for threads in [2usize, 4] {
        group.bench_function(BenchmarkId::new("newsea_parallel", threads), |b| {
            let cx = SolveContext::unbounded().with_threads(threads);
            b.iter(|| NewSea::new(config).solve_bounded(&gd, &[], &cx))
        });
    }
    group.bench_function("sweep_sequential", |b| {
        b.iter(|| SeaCd::new(config).sweep(&gd_plus, None, false, |g, x| refine(g, x, &config)))
    });
    for threads in [2usize, 4] {
        group.bench_function(BenchmarkId::new("sweep_parallel", threads), |b| {
            b.iter(|| parallel_sweep(&gd_plus, config, threads, false))
        });
    }
    group.finish();
}

fn bench_topk_and_quasi_clique(c: &mut Criterion) {
    let pair = TransactionConfig::for_scale(Scale::Tiny).generate();
    let gd = difference_graph(&pair.g2, &pair.g1).unwrap();
    let gd_plus = gd.positive_part();

    let mut group = c.benchmark_group("topk_and_quasi_clique");
    group.sample_size(10);

    group.bench_function("top_k_average_degree_k5", |b| {
        b.iter(|| top_k_average_degree(&gd, 5))
    });
    group.bench_function("top_k_affinity_k5", |b| {
        b.iter(|| top_k_affinity(&gd, 5, DcsgaConfig::default()))
    });
    group.bench_function("greedy_quasi_clique", |b| {
        b.iter(|| greedy_quasi_clique(&gd, 0.5))
    });
    group.bench_function("charikar_on_gd_plus", |b| {
        b.iter(|| greedy_peeling(&gd_plus))
    });
    group.finish();
}

fn bench_streaming(c: &mut Criterion) {
    let config = TrafficConfig::for_scale(Scale::Tiny);
    let pair = config.generate();
    let updates: Vec<(u32, u32, f64)> = pair.g2.edges().collect();

    let mut group = c.benchmark_group("streaming");
    group.sample_size(10);

    group.bench_function(BenchmarkId::new("observe_only", updates.len()), |b| {
        b.iter(|| {
            let mut monitor = StreamingDcs::new(
                pair.g1.clone(),
                StreamingConfig {
                    remine_every: 0,
                    alert_threshold: 0.0,
                    measure: DensityMeasure::AverageDegree,
                },
            )
            .unwrap();
            monitor.observe_batch(updates.iter().copied());
            monitor.observations()
        })
    });
    group.bench_function(BenchmarkId::new("observe_and_mine", updates.len()), |b| {
        b.iter(|| {
            let mut monitor = StreamingDcs::new(
                pair.g1.clone(),
                StreamingConfig {
                    remine_every: 0,
                    alert_threshold: 0.0,
                    measure: DensityMeasure::AverageDegree,
                },
            )
            .unwrap();
            monitor.observe_batch(updates.iter().copied());
            monitor.mine_now()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_parallel_sweeps,
    bench_topk_and_quasi_clique,
    bench_streaming
);
criterion_main!(benches);
