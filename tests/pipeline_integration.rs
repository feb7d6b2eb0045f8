//! End-to-end integration tests: generate a graph pair, build difference graphs, run
//! every algorithm, and check both the planted ground truth recovery and the structural
//! invariants the paper proves.

use dcs::core::dcsga::{NewSea, SeaCd};
use dcs::core::{difference_graph, difference_graph_with, DiscreteRule, WeightScheme};
use dcs::datasets::{
    best_match, CoauthorConfig, ConflictConfig, GroupKind, KeywordConfig, Scale,
    SocialInterestConfig,
};
use dcs::prelude::*;

#[test]
fn coauthor_emerging_groups_are_recovered_by_both_measures() {
    let pair = CoauthorConfig::for_scale(Scale::Tiny).generate();
    let gd = difference_graph(&pair.g2, &pair.g1).unwrap();
    let planted = pair.planted_of_kind(GroupKind::Emerging);

    // DCSAD.
    let ad = DcsGreedy::default().solve(&gd);
    let ad_match = best_match(&ad.subset, &planted);
    assert!(
        ad_match.jaccard > 0.6,
        "DCSGreedy should recover an emerging group, got {ad_match:?}"
    );
    assert!(dcs::graph::components::is_connected(&gd, &ad.subset));

    // DCSGA.
    let ga = NewSea::default().solve(&gd);
    let ga_match = best_match(&ga.support(), &planted);
    assert!(
        ga_match.jaccard > 0.6,
        "NewSEA should recover an emerging group, got {ga_match:?}"
    );
    assert!(gd.is_positive_clique(&ga.support()));
}

#[test]
fn coauthor_disappearing_groups_found_in_reverse_direction() {
    let pair = CoauthorConfig::for_scale(Scale::Tiny).generate();
    let gd = difference_graph(&pair.g1, &pair.g2).unwrap(); // Disappearing direction
    let planted = pair.planted_of_kind(GroupKind::Disappearing);
    let ad = DcsGreedy::default().solve(&gd);
    assert!(best_match(&ad.subset, &planted).jaccard > 0.5);
    let ga = NewSea::default().solve(&gd);
    assert!(best_match(&ga.support(), &planted).jaccard > 0.3);
}

#[test]
fn discrete_setting_still_finds_planted_structure() {
    let pair = CoauthorConfig::for_scale(Scale::Tiny).generate();
    let gd = difference_graph_with(
        &pair.g2,
        &pair.g1,
        WeightScheme::Discrete(DiscreteRule::default()),
    )
    .unwrap();
    assert!(gd.num_positive_edges() > 0);
    let planted = pair.planted_of_kind(GroupKind::Emerging);
    let ga = NewSea::default().solve(&gd);
    let m = best_match(&ga.support(), &planted);
    assert!(m.jaccard > 0.4, "discrete-setting recovery too weak: {m:?}");
}

#[test]
fn keyword_trends_beat_single_graph_mining() {
    let pair = KeywordConfig::for_scale(Scale::Tiny).generate();
    let emerging = pair.planted_of_kind(GroupKind::Emerging);

    // Mining the recent graph alone must NOT rank an emerging topic first (the evergreen
    // distractor dominates), while the difference graph must.
    let recent_best = NewSea::default().solve(&pair.g2);
    let recent_match = best_match(&recent_best.support(), &emerging);

    let gd = difference_graph(&pair.g2, &pair.g1).unwrap();
    let diff_best = NewSea::default().solve(&gd);
    let diff_match = best_match(&diff_best.support(), &emerging);

    assert!(
        diff_match.jaccard > 0.6,
        "difference-graph mining should recover an emerging topic: {diff_match:?}"
    );
    assert!(
        diff_match.jaccard >= recent_match.jaccard,
        "DCS should be at least as aligned with the trends as single-graph mining"
    );
}

#[test]
fn conflict_groups_are_separated_by_direction() {
    let pair = ConflictConfig::for_scale(Scale::Tiny).generate();
    let consistent_gd = difference_graph(&pair.g1, &pair.g2).unwrap();
    let conflicting_gd = difference_graph(&pair.g2, &pair.g1).unwrap();

    let consistent = DcsGreedy::default().solve(&consistent_gd);
    let conflicting = DcsGreedy::default().solve(&conflicting_gd);

    let coop = pair
        .planted
        .iter()
        .find(|g| g.name == "consistent")
        .unwrap();
    let fight = pair
        .planted
        .iter()
        .find(|g| g.name == "conflicting")
        .unwrap();

    assert!(dcs::datasets::jaccard(&consistent.subset, &coop.vertices) > 0.5);
    assert!(dcs::datasets::jaccard(&conflicting.subset, &fight.vertices) > 0.5);
    // The two mined groups barely overlap.
    assert!(dcs::datasets::jaccard(&consistent.subset, &conflicting.subset) < 0.2);
}

#[test]
fn douban_style_interest_vs_social_contrast() {
    let pair = SocialInterestConfig::movie(Scale::Tiny).generate();
    let interest_minus_social = difference_graph(&pair.g2, &pair.g1).unwrap();
    let ga = NewSea::default().solve(&interest_minus_social);
    let planted = pair.planted_of_kind(GroupKind::Emerging);
    let m = best_match(&ga.support(), &planted);
    assert!(
        m.jaccard > 0.3,
        "interest-community core should be recovered: {m:?}"
    );
    assert!(interest_minus_social.is_positive_clique(&ga.support()));
}

#[test]
fn all_dcsga_solvers_agree_on_the_best_group() {
    // The paper repeatedly observes that NewSEA, SEACD+Refine and SEA+Refine find the
    // same DCS.  Check NewSEA vs the exhaustive SEACD sweep on a tiny co-author pair.
    let pair = CoauthorConfig::for_scale(Scale::Tiny).generate();
    let gd = difference_graph(&pair.g2, &pair.g1).unwrap();
    let gd_plus = gd.positive_part();

    let newsea = NewSea::default().solve(&gd);
    let sweep = SeaCd::default().sweep(&gd_plus, None, false);

    assert!(
        (newsea.affinity_difference - sweep.best_objective).abs()
            <= 1e-6 * newsea.affinity_difference.max(1.0),
        "NewSEA {} vs exhaustive sweep {}",
        newsea.affinity_difference,
        sweep.best_objective
    );
    // And the smart initialisation did strictly less work.
    assert!(newsea.stats.initializations_run < sweep.initializations);
}

#[test]
fn egoscan_baseline_returns_larger_lower_density_subgraphs() {
    // The qualitative claim of Tables VIII/IX.
    let pair = CoauthorConfig::for_scale(Scale::Tiny).generate();
    let gd = difference_graph(&pair.g2, &pair.g1).unwrap();

    let dcs = DcsGreedy::default().solve(&gd);
    let ego = EgoScan::default().solve(&gd);

    assert!(
        ego.subset.len() >= dcs.subset.len(),
        "EgoScan ({}) should not be smaller than the DCS ({})",
        ego.subset.len(),
        dcs.subset.len()
    );
    assert!(ego.total_degree >= gd.total_degree(&dcs.subset) - 1e-9);
    assert!(gd.average_degree(&ego.subset) <= dcs.density_difference + 1e-9);
}

#[test]
fn full_pipeline_via_convenience_functions() {
    let pair = CoauthorConfig::for_scale(Scale::Tiny).generate();
    let (ad, gd) = dcs::core::mine_average_degree_dcs(&pair.g2, &pair.g1).unwrap();
    let (ga, _) = dcs::core::mine_affinity_dcs(&pair.g2, &pair.g1).unwrap();
    assert!(ad.density_difference > 0.0);
    assert!(ga.affinity_difference > 0.0);
    let report = ContrastReport::for_subset(&gd, &ad.subset);
    assert!(report.is_connected);
    assert_eq!(report.size, ad.subset.len());
}
