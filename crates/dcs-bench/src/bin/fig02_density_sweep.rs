//! Fig. 2 — (a) speed-up of SEACD+Refine over SEA+Refine and (b) the rate of expansion
//! errors committed by the original SEA, both as a function of the density `m+/n` of the
//! positive part of the difference graph.
//!
//! The sweep generates a family of collaboration-style difference graphs with a fixed
//! vertex count and an increasing number of positive edges.
//!
//! ```text
//! cargo run -p dcs-bench --release --bin fig02_density_sweep -- --scale default
//! ```

use dcs_bench::{time, ExpOptions, Table};
use dcs_core::dcsga::SeaCd;
use dcs_datasets::{CollabConfig, Scale};
use dcs_densest::{OriginalSea, SeaConfig};

fn main() {
    let options = ExpOptions::from_args();
    let (n, densities, limit): (usize, Vec<usize>, Option<usize>) = match options.scale {
        Scale::Tiny => (300, vec![2, 4, 8], Some(150)),
        Scale::Default => (1_500, vec![2, 5, 10, 20, 30, 40], Some(400)),
        Scale::Full => (5_000, vec![2, 5, 10, 20, 30, 40], Some(1_000)),
    };

    let mut table = Table::new(
        "Fig. 2 — SEACD+Refine speed-up over SEA+Refine and SEA expansion-error rate vs m+/n",
        &[
            "m+/n",
            "n",
            "m+",
            "SEACD+Refine (s)",
            "SEA+Refine (s)",
            "SpeedUp",
            "#Errors in SEA",
            "Error rate (#Errors/n)",
        ],
    );
    let mut json_rows = Vec::new();

    for &density in &densities {
        let collab = CollabConfig {
            num_vertices: n,
            num_edges: n * density,
            gamma: 2.1,
            mean_weight: 2.0,
            planted_groups: vec![(6, 12.0), (10, 6.0)],
            seed: options.seed ^ (density as u64),
        };
        let (gd, _) = collab.generate_single();
        let gd_plus = gd.positive_part();
        let m_plus = gd_plus.num_edges();

        let (seacd, seacd_t) = time(|| SeaCd::default().sweep(&gd_plus, limit, false));
        let (sea, sea_t) = time(|| {
            OriginalSea::new(SeaConfig::default()).run_all_vertices(&gd_plus, limit, false)
        });

        let speedup = sea_t.as_secs_f64() / seacd_t.as_secs_f64().max(1e-9);
        let error_rate = sea.expansion_errors as f64 / sea.initializations.max(1) as f64;
        table.add_row(vec![
            format!("{:.1}", m_plus as f64 / n as f64),
            n.to_string(),
            m_plus.to_string(),
            format!("{:.3}", seacd_t.as_secs_f64()),
            format!("{:.3}", sea_t.as_secs_f64()),
            format!("{speedup:.1}x"),
            sea.expansion_errors.to_string(),
            format!("{error_rate:.4}"),
        ]);
        json_rows.push(serde_json::json!({
            "m_plus_over_n": m_plus as f64 / n as f64,
            "n": n, "m_plus": m_plus,
            "seacd_refine_seconds": seacd_t.as_secs_f64(),
            "sea_refine_seconds": sea_t.as_secs_f64(),
            "speedup": speedup,
            "sea_expansion_errors": sea.expansion_errors,
            "sea_error_rate": error_rate,
            "objective_gap": sea.best_objective - seacd.best_objective,
        }));
    }

    table.print();
    println!(
        "(Fig. 2a plots the SpeedUp column, Fig. 2b the error-rate column, both against m+/n.)"
    );
    if options.json {
        println!("{}", serde_json::to_string_pretty(&json_rows).unwrap());
    }
}
