//! Table VII — running time of the three DCSGA solvers (NewSEA, SEACD+Refine,
//! SEA+Refine) and the number of expansion errors committed by the original SEA.
//!
//! The full-sweep comparators are capped to `--limit`-many initialisations per dataset at
//! the larger scales (the cap is applied equally to SEACD+Refine and SEA+Refine so their
//! relative cost is preserved; NewSEA always runs uncapped because its smart
//! initialisation is the point of the comparison).
//!
//! ```text
//! cargo run -p dcs-bench --release --bin table07_efficiency -- --scale default
//! ```

use dcs_bench::{seconds, time, ExpOptions, Table};
use dcs_core::dcsga::{refine, NewSea, SeaCd};
use dcs_core::{difference_graph_with, DiscreteRule, WeightScheme};
use dcs_datasets::{
    CoauthorConfig, CollabConfig, ConflictConfig, KeywordConfig, Scale, SocialInterestConfig,
};
use dcs_densest::{OriginalSea, SeaConfig};
use dcs_graph::SignedGraph;

struct Row {
    data: String,
    gd_type: String,
    newsea_s: f64,
    newsea_objective: f64,
    seacd_s: f64,
    seacd_objective: f64,
    sea_s: f64,
    sea_objective: f64,
    sea_errors: usize,
}

fn run_dataset(name: &str, gd_type: &str, gd: &SignedGraph, limit: Option<usize>) -> Row {
    let gd_plus = gd.positive_part();

    let (newsea, newsea_t) = time(|| NewSea::default().solve(&gd_plus));
    let (seacd, seacd_t) = time(|| SeaCd::default().sweep(&gd_plus, limit, false));
    let (sea, sea_t) = time(|| {
        let sea = OriginalSea::new(SeaConfig::default());
        let result = sea.run_all_vertices(&gd_plus, limit, false);
        let refined = refine(&gd_plus, result.best.clone());
        (result, refined)
    });
    let (sea_result, sea_refined) = sea;

    Row {
        data: name.to_string(),
        gd_type: gd_type.to_string(),
        newsea_s: newsea_t.as_secs_f64(),
        newsea_objective: newsea.affinity_difference,
        seacd_s: seacd_t.as_secs_f64(),
        seacd_objective: seacd.best_objective,
        sea_s: sea_t.as_secs_f64(),
        sea_objective: sea_refined.affinity(&gd_plus),
        sea_errors: sea_result.expansion_errors,
    }
}

fn main() {
    let options = ExpOptions::from_args();
    let scale = options.scale;
    let limit = match scale {
        Scale::Tiny => None,
        Scale::Default => Some(1_000),
        Scale::Full => Some(2_000),
    };

    let mut rows: Vec<Row> = Vec::new();
    let weighted = WeightScheme::Weighted;
    let discrete = WeightScheme::Discrete(DiscreteRule::default());

    let dblp = CoauthorConfig::for_scale(scale).generate();
    for (setting, scheme) in [("DBLP Weighted", weighted), ("DBLP Discrete", discrete)] {
        let e = difference_graph_with(&dblp.g2, &dblp.g1, scheme).unwrap();
        rows.push(run_dataset(setting, "Emerging", &e, limit));
        let d = difference_graph_with(&dblp.g1, &dblp.g2, scheme).unwrap();
        rows.push(run_dataset(setting, "Disappearing", &d, limit));
    }

    let dm = KeywordConfig::for_scale(scale).generate();
    rows.push(run_dataset(
        "DM",
        "Emerging",
        &difference_graph_with(&dm.g2, &dm.g1, weighted).unwrap(),
        limit,
    ));
    rows.push(run_dataset(
        "DM",
        "Disappearing",
        &difference_graph_with(&dm.g1, &dm.g2, weighted).unwrap(),
        limit,
    ));

    let wiki = ConflictConfig::for_scale(scale).generate();
    rows.push(run_dataset(
        "Wiki",
        "Consistent",
        &difference_graph_with(&wiki.g1, &wiki.g2, weighted).unwrap(),
        limit,
    ));
    rows.push(run_dataset(
        "Wiki",
        "Conflicting",
        &difference_graph_with(&wiki.g2, &wiki.g1, weighted).unwrap(),
        limit,
    ));

    for (name, pair) in [
        ("Movie", SocialInterestConfig::movie(scale).generate()),
        ("Book", SocialInterestConfig::book(scale).generate()),
    ] {
        rows.push(run_dataset(
            name,
            "Interest-Social",
            &difference_graph_with(&pair.g2, &pair.g1, weighted).unwrap(),
            limit,
        ));
        rows.push(run_dataset(
            name,
            "Social-Interest",
            &difference_graph_with(&pair.g1, &pair.g2, weighted).unwrap(),
            limit,
        ));
    }

    let dblp_c = CollabConfig::dblp_c(scale).generate_pair();
    rows.push(run_dataset(
        "DBLP-C Weighted",
        "—",
        &difference_graph_with(&dblp_c.g2, &dblp_c.g1, weighted).unwrap(),
        limit,
    ));
    rows.push(run_dataset(
        "DBLP-C Discrete",
        "—",
        &difference_graph_with(&dblp_c.g2, &dblp_c.g1, discrete).unwrap(),
        limit,
    ));

    let (actor, _) = CollabConfig::actor(scale).generate_single();
    rows.push(run_dataset("Actor Weighted", "—", &actor, limit));
    rows.push(run_dataset(
        "Actor Discrete",
        "—",
        &dcs_core::clamp_weights(&actor, 10.0),
        limit,
    ));

    let mut table = Table::new(
        "Table VII — running time (seconds) and SEA expansion errors",
        &[
            "Data",
            "GD Type",
            "NewSEA",
            "SEACD+Refine",
            "SEA+Refine",
            "#Errors in SEA",
            "Speedup (SEACD/NewSEA)",
            "Obj NewSEA",
            "Obj SEACD",
            "Obj SEA",
        ],
    );
    for r in &rows {
        table.add_row(vec![
            r.data.clone(),
            r.gd_type.clone(),
            seconds(std::time::Duration::from_secs_f64(r.newsea_s)),
            seconds(std::time::Duration::from_secs_f64(r.seacd_s)),
            seconds(std::time::Duration::from_secs_f64(r.sea_s)),
            r.sea_errors.to_string(),
            format!("{:.1}x", r.seacd_s / r.newsea_s.max(1e-9)),
            format!("{:.3}", r.newsea_objective),
            format!("{:.3}", r.seacd_objective),
            format!("{:.3}", r.sea_objective),
        ]);
    }
    table.print();

    if options.json {
        let json: Vec<_> = rows
            .iter()
            .map(|r| {
                serde_json::json!({
                    "data": r.data, "gd_type": r.gd_type,
                    "newsea_seconds": r.newsea_s, "seacd_refine_seconds": r.seacd_s,
                    "sea_refine_seconds": r.sea_s, "sea_expansion_errors": r.sea_errors,
                    "objectives": {
                        "newsea": r.newsea_objective,
                        "seacd_refine": r.seacd_objective,
                        "sea_refine": r.sea_objective,
                    },
                })
            })
            .collect();
        println!("{}", serde_json::to_string_pretty(&json).unwrap());
    }
}
