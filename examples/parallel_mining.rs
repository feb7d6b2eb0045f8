//! Parallel mining: the same answer as sequential NewSEA, in a fraction of the
//! wall-clock time on multi-core machines.
//!
//! NewSEA takes its thread budget from the solve context
//! (`NewSea::solve_bounded` under `SolveContext::with_threads`), and its parallel
//! kernels are bit-identical to the sequential ones.  The exhaustive SEACD+Refine
//! sweep runs its independent initialisations on worker threads through
//! `parallel_sweep`.  This example runs both against their sequential counterparts on
//! a mid-sized synthetic co-author pair and prints the objective values and timings
//! side by side.
//!
//! Run with:
//! ```text
//! cargo run --release --example parallel_mining
//! ```

use std::time::Instant;

use dcs::core::dcsga::{parallel_sweep, SeaCd};
use dcs::core::difference_graph;
use dcs::datasets::{CoauthorConfig, Scale};
use dcs::prelude::*;

fn main() {
    let pair = CoauthorConfig::for_scale(Scale::Default).generate();
    let gd = difference_graph(&pair.g2, &pair.g1).expect("same vertex set");
    let gd_plus = gd.positive_part();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "difference graph: {} vertices, {} positive edges; using {} threads",
        gd.num_vertices(),
        gd_plus.num_edges(),
        threads
    );

    // --- NewSEA: sequential vs parallel. ---------------------------------------------
    let start = Instant::now();
    let (sequential, _) =
        NewSea::default().solve_bounded(&gd, &[], &SolveContext::unbounded().with_threads(1));
    let sequential_time = start.elapsed();

    let start = Instant::now();
    let (parallel, _) =
        NewSea::default().solve_bounded(&gd, &[], &SolveContext::unbounded().with_threads(threads));
    let parallel_time = start.elapsed();

    println!("\nNewSEA (smart initialisation)");
    println!(
        "  sequential: objective {:.4}  support {:?}  {} inits  {:.3}s",
        sequential.affinity_difference,
        sequential.support(),
        sequential.stats.initializations_run,
        sequential_time.as_secs_f64()
    );
    println!(
        "  parallel  : objective {:.4}  support {:?}  {} inits  {:.3}s",
        parallel.affinity_difference,
        parallel.support(),
        parallel.stats.initializations_run,
        parallel_time.as_secs_f64()
    );
    assert_eq!(
        sequential.affinity_difference.to_bits(),
        parallel.affinity_difference.to_bits()
    );

    // --- Exhaustive SEACD+Refine sweep: sequential vs parallel. ------------------------
    let start = Instant::now();
    let sweep_sequential = SeaCd::default().sweep(&gd_plus, None, false);
    let sweep_sequential_time = start.elapsed();

    let start = Instant::now();
    let sweep_parallel = parallel_sweep(&gd_plus, threads, false);
    let sweep_parallel_time = start.elapsed();

    println!("\nSEACD+Refine (exhaustive sweep)");
    println!(
        "  sequential: objective {:.4}  {} inits  {:.3}s",
        sweep_sequential.best_objective,
        sweep_sequential.initializations,
        sweep_sequential_time.as_secs_f64()
    );
    println!(
        "  parallel  : objective {:.4}  {} inits  {:.3}s  (speed-up {:.1}x)",
        sweep_parallel.best_objective,
        sweep_parallel.initializations,
        sweep_parallel_time.as_secs_f64(),
        sweep_sequential_time.as_secs_f64() / sweep_parallel_time.as_secs_f64().max(1e-9)
    );
    assert!((sweep_sequential.best_objective - sweep_parallel.best_objective).abs() < 1e-9);

    println!(
        "\nboth parallel variants return exactly the sequential objective; NewSEA itself \
         needed only {} of {} possible initialisations thanks to the Theorem-6 bound",
        parallel.stats.initializations_run,
        parallel.stats.initializations_run + parallel.stats.initializations_skipped
    );
}
