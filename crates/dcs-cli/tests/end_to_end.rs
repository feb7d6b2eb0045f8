//! End-to-end tests of the `dcs` command-line tool: generate a synthetic pair with known
//! ground truth, then run the mining subcommands on the files it wrote and check that the
//! planted contrast group is reported.

use std::path::{Path, PathBuf};

fn strings(raw: &[&str]) -> Vec<String> {
    raw.iter().map(|s| s.to_string()).collect()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes a hand-crafted labelled pair with one emerging clique (the "lab" of ada, bob,
/// cat, dan) and one disappearing pair (old1, old2) on top of a stable background.
fn write_labeled_pair(dir: &Path) -> (String, String) {
    let g1 = "\
# early period
ada bob 1
old1 old2 8
back1 back2 2
back2 back3 2
back3 back4 2
";
    let g2 = "\
# recent period
ada bob 5
ada cat 4
ada dan 4
bob cat 4
bob dan 5
cat dan 4
old1 old2 1
back1 back2 2
back2 back3 2
back3 back4 2
";
    let p1 = dir.join("g1.edges");
    let p2 = dir.join("g2.edges");
    std::fs::write(&p1, g1).unwrap();
    std::fs::write(&p2, g2).unwrap();
    (
        p1.to_string_lossy().into_owned(),
        p2.to_string_lossy().into_owned(),
    )
}

#[test]
fn mine_recovers_emerging_and_disappearing_groups() {
    let dir = temp_dir("dcs_cli_e2e_mine");
    let (p1, p2) = write_labeled_pair(&dir);

    let out = dcs_cli::run(&strings(&[
        "mine",
        &p1,
        &p2,
        "--direction",
        "both",
        "--measure",
        "both",
    ]))
    .unwrap();

    // The emerging four-person lab is found under both measures…
    assert!(out.contains("ada, bob, cat, dan"));
    // …and the weakened pair is the disappearing DCS.
    assert!(out.contains("old1, old2"));
    // The stable background must not be reported.
    assert!(!out.contains("back1"));
}

#[test]
fn stats_and_mine_agree_on_the_difference_graph() {
    let dir = temp_dir("dcs_cli_e2e_stats");
    let (p1, p2) = write_labeled_pair(&dir);

    let stats = dcs_cli::run(&strings(&["stats", &p1, &p2, "--json"])).unwrap();
    let json_start = stats.find('{').unwrap();
    let value: serde_json::Value = serde_json::from_str(&stats[json_start..]).unwrap();
    let section = &value["stats"][0];
    // Emerging direction: the 6 lab edges are positive, old1-old2 is negative,
    // the background cancels exactly.
    assert_eq!(section["m_plus"], 6);
    assert_eq!(section["m_minus"], 1);
}

#[test]
fn generate_then_mine_round_trip_recovers_a_planted_group() {
    let dir = temp_dir("dcs_cli_e2e_generate");
    let out_dir = dir.join("coauthor");

    let generated = dcs_cli::run(&strings(&[
        "generate",
        "coauthor",
        "--out",
        out_dir.to_str().unwrap(),
        "--scale",
        "tiny",
        "--seed",
        "11",
    ]))
    .unwrap();
    assert!(generated.contains("planted groups"));

    let g1 = out_dir.join("g1.edges");
    let g2 = out_dir.join("g2.edges");
    let mined = dcs_cli::run(&strings(&[
        "mine",
        g1.to_str().unwrap(),
        g2.to_str().unwrap(),
        "--numeric",
        "--measure",
        "affinity",
        "--json",
    ]))
    .unwrap();

    // Parse the mined support and check it is contained in one of the planted emerging
    // groups recorded by `generate`.
    let json_start = mined.find("{\n").unwrap();
    let value: serde_json::Value = serde_json::from_str(&mined[json_start..]).unwrap();
    let mined_vertices: Vec<u64> = value["results"][0]["vertices"]
        .as_array()
        .unwrap()
        .iter()
        .map(|v| v.as_u64().unwrap())
        .collect();
    assert!(mined_vertices.len() >= 2);

    let planted = std::fs::read_to_string(out_dir.join("planted.txt")).unwrap();
    let emerging_groups: Vec<Vec<u64>> = planted
        .lines()
        .filter(|l| l.contains("Emerging"))
        .map(|l| {
            l.split_whitespace()
                .skip(2)
                .map(|t| t.parse().unwrap())
                .collect()
        })
        .collect();
    assert!(!emerging_groups.is_empty());
    assert!(
        emerging_groups
            .iter()
            .any(|group| mined_vertices.iter().all(|v| group.contains(v))),
        "mined affinity DCS {mined_vertices:?} should lie inside a planted emerging group"
    );

    std::fs::remove_dir_all(&out_dir).ok();
}

#[test]
fn topk_reports_disjoint_groups_in_rank_order() {
    let dir = temp_dir("dcs_cli_e2e_topk");
    let (p1, p2) = write_labeled_pair(&dir);

    let out = dcs_cli::run(&strings(&["topk", &p1, &p2, "--k", "3", "--json"])).unwrap();
    let json_start = out.find("{\n").unwrap();
    let value: serde_json::Value = serde_json::from_str(&out[json_start..]).unwrap();
    let results = value["results"].as_array().unwrap();
    assert!(!results.is_empty());
    // Ranks are 1..=len and affinity differences are non-increasing.
    let mut last = f64::INFINITY;
    for (i, result) in results.iter().enumerate() {
        assert_eq!(result["rank"].as_u64().unwrap() as usize, i + 1);
        let affinity = result["affinity_difference"].as_f64().unwrap();
        assert!(affinity <= last + 1e-9);
        last = affinity;
    }
}

/// Every mining command reads `--measure` the same way: its aliases in any
/// ASCII case.
#[test]
fn measure_tokens_ignore_case_in_every_mining_command() {
    let dir = temp_dir("dcs_cli_e2e_measure_case");
    let (p1, p2) = write_labeled_pair(&dir);
    for command in ["mine", "topk", "sweep"] {
        for (spelling, canonical) in [("GA", "affinity"), ("Degree", "degree")] {
            let run =
                |measure: &str| dcs_cli::run(&strings(&[command, &p1, &p2, "--measure", measure]));
            let out = run(spelling);
            assert!(out.is_ok(), "{command} --measure {spelling}: {out:?}");
            assert_eq!(
                out.unwrap(),
                run(canonical).unwrap(),
                "{command} --measure {spelling}"
            );
        }
    }
}

#[test]
fn census_reports_the_top_clique_of_each_direction_at_any_thread_count() {
    let dir = temp_dir("dcs_cli_e2e_census");
    let (p1, p2) = write_labeled_pair(&dir);

    let census = |threads: &str| {
        dcs_cli::run(&strings(&[
            "census",
            &p1,
            &p2,
            "--direction",
            "both",
            "--threads",
            threads,
            "--json",
        ]))
        .unwrap()
    };
    let out = census("1");
    let json_start = out.find("{\n").unwrap();
    let value: serde_json::Value = serde_json::from_str(&out[json_start..]).unwrap();
    let sections = value["census"].as_array().unwrap();
    assert_eq!(sections.len(), 2);
    let top_members = |section: &serde_json::Value| -> Vec<String> {
        section["top"][0]["members"]
            .as_array()
            .unwrap()
            .iter()
            .map(|m| m.as_str().unwrap().to_string())
            .collect()
    };
    assert!(sections[0]["direction"]
        .as_str()
        .unwrap()
        .starts_with("Emerging"));
    assert_eq!(top_members(&sections[0]), ["ada", "bob", "cat", "dan"]);
    assert!(sections[1]["direction"]
        .as_str()
        .unwrap()
        .starts_with("Disappearing"));
    assert_eq!(top_members(&sections[1]), ["old1", "old2"]);

    // The parallel sweep prints the sequential sweep's bytes.
    assert_eq!(census("2"), out);
}

#[test]
fn errors_are_reported_not_panicked() {
    // Unknown command, missing files, malformed options: all must surface as Err values.
    assert!(dcs_cli::run(&strings(&["foo"])).is_err());
    assert!(dcs_cli::run(&strings(&["mine", "/no/such/file", "/no/such/file2"])).is_err());
    let dir = temp_dir("dcs_cli_e2e_errors");
    let (p1, p2) = write_labeled_pair(&dir);
    assert!(dcs_cli::run(&strings(&["mine", &p1, &p2, "--measure", "entropy"])).is_err());
    assert!(dcs_cli::run(&strings(&["topk", &p1, &p2, "--k", "minus-one"])).is_err());
    for clamp in ["-1", "nan"] {
        let result = dcs_cli::run(&strings(&["mine", &p1, &p2, "--clamp", clamp]));
        assert!(result.is_err(), "--clamp {clamp}: {result:?}");
    }
    let result = dcs_cli::run(&strings(&[
        "mine", &p1, &p2, "--scheme", "scaled", "--alpha", "inf",
    ]));
    assert!(result.is_err(), "--alpha inf: {result:?}");

    // An empty pair is not an error: every mining command prints an empty result.
    let e1 = dir.join("empty1.edges").to_string_lossy().into_owned();
    let e2 = dir.join("empty2.edges").to_string_lossy().into_owned();
    std::fs::write(&e1, "").unwrap();
    std::fs::write(&e2, "").unwrap();
    for args in [
        &["mine", &e1, &e2, "--numeric"][..],
        &["mine", &e1, &e2, "--numeric", "--measure", "affinity"],
        &["compare", &e1, &e2, "--numeric"],
        &["sweep", &e1, &e2, "--numeric", "--measure", "degree"],
        &["topk", &e1, &e2, "--numeric"],
    ] {
        let result = dcs_cli::run(&strings(args));
        assert!(result.is_ok(), "{args:?}: {result:?}");
    }
}

/// A scaled α that would overflow `α·w1` on the heaviest `G1` edge is refused
/// like a non-finite α: the process exits non-zero with the error, instead of
/// mining a `G_D` with an infinite edge weight.
#[test]
fn scaled_alpha_overflowing_a_g1_weight_exits_non_zero() {
    let dir = temp_dir("dcs_cli_e2e_alpha_overflow");
    let g1 = dir.join("g1.edges");
    let g2 = dir.join("g2.edges");
    std::fs::write(&g1, "0 1 1.7e308\n1 2 1\n").unwrap();
    std::fs::write(&g2, "0 1 1\n1 2 4\n").unwrap();
    let mine = |alpha: &str| {
        std::process::Command::new(env!("CARGO_BIN_EXE_dcs"))
            .args(["mine", "--numeric", "--scheme", "scaled", "--alpha", alpha])
            .arg(&g1)
            .arg(&g2)
            .output()
            .unwrap()
    };
    let refused = mine("10");
    assert!(!refused.status.success(), "{refused:?}");
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(
        stderr.contains("alpha 10 times the largest G1 weight") && stderr.contains("overflows"),
        "{stderr}"
    );
    assert!(refused.stdout.is_empty());
    // An α that keeps every scaled weight finite still mines.
    let mined = mine("1");
    assert!(mined.status.success(), "{mined:?}");
}

/// A numeric edge list naming a vertex id at or above the vertex limit is refused with
/// a typed error before any vertex array is sized by it: `mine` and `stats` exit 2
/// with the line and the limit on stderr, not with an allocation abort.
#[test]
fn a_vertex_id_past_the_limit_exits_2_without_an_abort() {
    let dir = temp_dir("dcs_cli_e2e_vertex_limit");
    let huge = dir.join("huge.edges");
    std::fs::write(&huge, "0 4000000000 1\n").unwrap();
    for command in ["mine", "stats"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_dcs"))
            .args([command, "--numeric"])
            .arg(&huge)
            .arg(&huge)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{command}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let limit = dcs_graph::io::MAX_VERTICES.to_string();
        assert!(
            stderr.contains("vertex id 4000000000 on line 1") && stderr.contains(&limit),
            "{command}: {stderr}"
        );
    }
}
