//! Benchmarks of the DCSGA solvers: a single SEACD run, the refinement step, and the full
//! NewSEA pipeline (smart initialisation included).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dcs_core::dcsga::{refine, DcsgaConfig, NewSea, SeaCd};
use dcs_core::difference_graph;
use dcs_datasets::{CoauthorConfig, Scale};

fn bench_dcsga(c: &mut Criterion) {
    let pair = CoauthorConfig::for_scale(Scale::Default).generate();
    let gd = difference_graph(&pair.g2, &pair.g1).unwrap();
    let gd_plus = gd.positive_part();
    let config = DcsgaConfig::default();
    let order = dcs_core::dcsga::smart_initialization_order(&gd_plus);
    let best_seed = order.first().map(|&(v, _)| v).unwrap_or(0);

    let mut group = c.benchmark_group("dcsga");
    group.sample_size(15);

    group.bench_function(
        BenchmarkId::new("seacd_single_run", gd_plus.num_edges()),
        |b| b.iter(|| SeaCd::new(config).run_from_vertex(&gd_plus, best_seed)),
    );
    group.bench_function(
        BenchmarkId::new("seacd_plus_refine", gd_plus.num_edges()),
        |b| {
            b.iter(|| {
                let run = SeaCd::new(config).run_from_vertex(&gd_plus, best_seed);
                refine(&gd_plus, run.embedding, &config)
            })
        },
    );
    group.bench_function(BenchmarkId::new("newsea_full", gd_plus.num_edges()), |b| {
        b.iter(|| NewSea::new(config).solve(&gd_plus))
    });
    group.bench_function(
        BenchmarkId::new("smart_initialization_order", gd_plus.num_edges()),
        |b| b.iter(|| dcs_core::dcsga::smart_initialization_order(&gd_plus)),
    );
    group.finish();
}

criterion_group!(benches, bench_dcsga);
criterion_main!(benches);
