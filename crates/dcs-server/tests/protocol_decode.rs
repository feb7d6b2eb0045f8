//! `Request::decode`, the server's one-pass decoder, against its oracle:
//! on every line it must agree with `Request::from_value` on the tree
//! `serde_json::from_str` builds — the same JSON error, or the same request
//! (weights bit for bit) or error string, and the same echoed `id`.
//!
//! Three kinds of input: the fixed corpus in `data/request_corpus.ndjson`
//! (every command, every field error, ids of every JSON type, repeated
//! keys, number spellings, escapes, non-object lines, the depth limit);
//! requests generated through the proptest shim and rendered with shuffled
//! keys and spacing; and byte mutations of both.  The compat `serde_json`
//! runs the same corpus against its pre-tokenizer parser.

use dcs_core::DensityMeasure;
use dcs_server::{CreateSessionRequest, JobBounds, Request};
use proptest::prelude::*;
use serde_json::Value;

const CORPUS: &str = include_str!("data/request_corpus.ndjson");

/// What a line decodes to, as a strict fingerprint: `Debug` tells `-0.0`
/// from `0.0` and `1` from `1.0`, which `==` does not.
fn decoded(line: &str) -> String {
    match Request::decode(line) {
        Err(json) => format!("json error: {json}"),
        Ok(decoded) => format!(
            "id {:?}; {}",
            decoded.id,
            match decoded.request {
                Ok(request) => format!("{request:?}"),
                Err(error) => format!("error: {error}"),
            }
        ),
    }
}

/// The same fingerprint through the tree.
fn oracle(line: &str) -> String {
    match serde_json::from_str::<Value>(line) {
        Err(json) => format!("json error: {json}"),
        Ok(tree) => format!(
            "id {:?}; {}",
            tree["id"],
            match Request::from_value(&tree) {
                Ok(request) => format!("{request:?}"),
                Err(error) => format!("error: {error}"),
            }
        ),
    }
}

fn assert_agrees(line: &str) {
    assert_eq!(decoded(line), oracle(line), "line {line:?}");
}

/// splitmix64, for the spacing, key order and mutations of one case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const SPACES: [&str; 6] = ["", "", " ", "\t", "  ", "\r"];

/// Renders `value` with its object members shuffled and random spacing
/// between tokens; scalars keep `serde_json`'s spelling.
fn render(value: &Value, rng: &mut Rng, out: &mut String) {
    out.push_str(SPACES[rng.below(SPACES.len())]);
    match value {
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(item, rng, out);
            }
            out.push(']');
        }
        Value::Object(map) => {
            let mut members: Vec<(&String, &Value)> = map.iter().collect();
            for i in (1..members.len()).rev() {
                members.swap(i, rng.below(i + 1));
            }
            out.push('{');
            for (i, (key, item)) in members.into_iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&serde_json::to_string(&Value::String(key.clone())).unwrap());
                out.push_str(SPACES[rng.below(SPACES.len())]);
                out.push(':');
                render(item, rng, out);
            }
            out.push('}');
        }
        scalar => out.push_str(&serde_json::to_string(scalar).unwrap()),
    }
    out.push_str(SPACES[rng.below(SPACES.len())]);
}

/// One to three byte edits: a replaced, inserted or deleted byte, a
/// duplicated run or a truncation.  Invalid UTF-8 is replaced, as the
/// server never decodes a line that is not UTF-8.
fn mutate(text: &str, rng: &mut Rng) -> String {
    const BYTES: &[u8] = b"{}[],:\"\\-+.eE0159 \tnul\x00\xc3\xa9";
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(bytes.len() + 1);
        match rng.below(5) {
            0 if at < bytes.len() => bytes[at] = BYTES[rng.below(BYTES.len())],
            1 => bytes.insert(at, BYTES[rng.below(BYTES.len())]),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            3 => {
                let end = (at + 1 + rng.below(8)).min(bytes.len());
                let run = bytes[at..end].to_vec();
                bytes.splice(at..at, run);
            }
            _ => bytes.truncate(at),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn weight() -> impl Strategy<Value = f64> {
    prop_oneof![
        4 => (-8i32..9).prop_map(f64::from),
        2 => any::<f64>(),
        1 => any::<u64>().prop_map(|bits| {
            let w = f64::from_bits(bits);
            if w.is_finite() { w } else { 0.25 }
        }),
        1 => Just(-0.0),
        1 => Just(1e-300),
    ]
}

fn triples() -> impl Strategy<Value = Vec<(u32, u32, f64)>> {
    prop::collection::vec(
        (
            prop_oneof![4 => 0u32..64, 1 => any::<u32>()],
            0u32..64,
            weight(),
        ),
        0..24,
    )
}

fn name() -> impl Strategy<Value = String> {
    prop::sample::select(vec![
        "s".to_string(),
        "remine".to_string(),
        "a \"quoted\" name".to_string(),
        "tab\tnew\nline".to_string(),
        "ünï 日本".to_string(),
        String::new(),
    ])
}

fn measure() -> impl Strategy<Value = Option<DensityMeasure>> {
    prop::sample::select(vec![
        None,
        Some(DensityMeasure::GraphAffinity),
        Some(DensityMeasure::AverageDegree),
    ])
}

fn bounds() -> impl Strategy<Value = JobBounds> {
    (
        prop_oneof![Just(None), (0u64..10_000).prop_map(Some)],
        prop_oneof![Just(None), any::<u64>().prop_map(Some)],
        prop_oneof![Just(None), name().prop_map(Some)],
    )
        .prop_map(|(deadline_ms, budget, job)| JobBounds {
            deadline_ms,
            budget,
            job,
        })
}

fn request() -> impl Strategy<Value = Request> {
    prop_oneof![
        1 => Just(Request::Ping),
        1 => Just(Request::ListSessions),
        1 => Just(Request::Shutdown),
        1 => (
            name(),
            0u64..5,
            weight(),
            measure(),
            prop_oneof![Just(None), name().prop_map(Some)],
            any::<bool>(),
        )
            .prop_map(
                |(session, remine_every, alert_threshold, measure, pack, durable)| {
                    Request::CreateSession(CreateSessionRequest {
                        session,
                        remine_every,
                        // `to_value` omits a zero threshold, so -0.0 would
                        // come back as 0.0.
                        alert_threshold: alert_threshold + 0.0,
                        measure,
                        vertices: if pack.is_none() { Some(remine_every * 7) } else { None },
                        pack,
                        durable,
                    })
                }
            ),
        1 => (name(), triples()).prop_map(|(session, edges)| Request::LoadBaseline { session, edges }),
        4 => (name(), triples()).prop_map(|(session, updates)| Request::Observe {
            session,
            updates
        }),
        1 => (name(), measure(), bounds()).prop_map(|(session, measure, bounds)| Request::Mine {
            session,
            measure,
            bounds
        }),
        1 => (name(), 0usize..9, measure(), bounds()).prop_map(|(session, k, measure, bounds)| {
            Request::TopK {
                session,
                k,
                measure,
                bounds,
            }
        }),
        1 => (
            name(),
            prop_oneof![Just(None), prop::collection::vec(weight(), 0..5).prop_map(Some)],
            measure(),
            bounds()
        )
            .prop_map(|(session, alphas, measure, bounds)| Request::Sweep {
                session,
                alphas,
                measure,
                bounds,
            }),
        1 => name().prop_map(|job| Request::Cancel { job }),
        1 => prop_oneof![Just(None), name().prop_map(Some)]
            .prop_map(|session| Request::Stats { session }),
        1 => name().prop_map(|session| Request::DropSession { session }),
    ]
}

/// The id a generated line carries, if any.
fn id() -> impl Strategy<Value = Option<Value>> {
    prop_oneof![
        Just(None),
        any::<u64>().prop_map(|n| Some(serde_json::json!(n))),
        name().prop_map(|s| Some(Value::String(s))),
        Just(Some(serde_json::json!([1, {"k": null}, -2.5]))),
    ]
}

#[test]
fn the_corpus_decodes_as_the_tree_does() {
    let mut lines = 0;
    for line in CORPUS.lines() {
        assert_agrees(line);
        lines += 1;
    }
    assert!(lines > 200, "the corpus has {lines} lines");
}

#[test]
fn the_corpus_covers_successes_and_every_kind_of_failure() {
    let outcomes: Vec<String> = CORPUS.lines().map(decoded).collect();
    let count = |prefix: &str| outcomes.iter().filter(|o| o.contains(prefix)).count();
    assert!(count("json error") >= 30, "{outcomes:#?}");
    assert!(count("error: bad request") >= 60, "{outcomes:#?}");
    assert!(count("unsupported proto") >= 1, "{outcomes:#?}");
    assert!(count("recursion limit") >= 3, "{outcomes:#?}");
    assert!(
        outcomes.iter().filter(|o| !o.contains("error")).count() >= 40,
        "{outcomes:#?}"
    );
}

#[test]
fn corpus_weights_decode_bit_for_bit() {
    let line = r#"{"cmd":"observe","session":"s","updates":[[1,2,-0],[1,2,-0.0],[1,2,1e0],[1,2,007],[1,2,0.1],[1,2,18446744073709551616],[1,2,123456789012345678]]}"#;
    let Ok(Request::Observe { updates, .. }) = Request::decode(line).unwrap().request else {
        panic!("an observe");
    };
    let bits: Vec<u64> = updates.iter().map(|&(_, _, w)| w.to_bits()).collect();
    let want: Vec<u64> = [
        0.0,
        -0.0,
        1.0,
        7.0,
        0.1,
        18446744073709551616.0,
        1.2345678901234568e17,
    ]
    .iter()
    .map(|w: &f64| w.to_bits())
    .collect();
    assert_eq!(bits, want);
}

#[test]
fn mutated_corpus_lines_decode_as_the_tree_does() {
    let lines: Vec<&str> = CORPUS.lines().collect();
    let mut rng = Rng(0xdec0de);
    for _ in 0..20_000 {
        let line = lines[rng.below(lines.len())];
        assert_agrees(&mutate(line, &mut rng));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn generated_requests_decode_as_the_tree_does(
        request in request(),
        id in id(),
        seed in any::<u64>(),
    ) {
        let mut wire = request.to_value();
        if let Some(id) = id {
            wire["id"] = id;
        }
        let mut rng = Rng(seed);
        let mut line = String::new();
        render(&wire, &mut rng, &mut line);
        prop_assert_eq!(decoded(&line), oracle(&line));
        // The canonical spelling round-trips, weights bit for bit.
        let back = Request::decode(&line).unwrap();
        prop_assert_eq!(format!("{:?}", back.request.unwrap()), format!("{request:?}"));
        prop_assert_eq!(format!("{:?}", back.id), format!("{:?}", wire["id"]));
        for _ in 0..8 {
            let mutated = mutate(&line, &mut rng);
            let (got, want) = (decoded(&mutated), oracle(&mutated));
            prop_assert!(got == want, "line {mutated:?}: {got} against {want}");
        }
    }
}
