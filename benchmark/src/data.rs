//! Seeded inputs: the coauthor graph pair (text edge lists and graph packs)
//! and the update batches the server workloads send.
//!
//! Everything here is a pure function of the seed.  Files are generated once
//! per (scale, seed) and reused by later runs with the same seed; generation
//! happens before any clock starts and is not part of `setup_s`.

use std::io;
use std::path::{Path, PathBuf};

use dcs_core::BatchOutcome;
use dcs_core::DensityMeasure;
use dcs_datasets::{CoauthorConfig, PackWriter, Scale};
use dcs_graph::{GraphPack, VertexId, Weight};
use dcs_server::{CreateSessionRequest, Request, Response};
use serde_json::Value;

pub type Update = (VertexId, VertexId, Weight);

/// Updates per observe while preloading `G2` into a server session.
pub const PRELOAD_CHUNK: usize = 4096;

#[derive(Debug, Clone)]
pub struct Inputs {
    pub g1_edges: PathBuf,
    pub g2_edges: PathBuf,
    pub g1_pack: PathBuf,
    pub vertices: usize,
    /// The edges of `G2`, preloaded into server sessions as observes.
    pub g2: Vec<Update>,
}

fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Tiny => "tiny",
        Scale::Default => "default",
        Scale::Full => "full",
    }
}

/// Generates (or reuses) the coauthor pair for `seed` under `root`.
pub fn prepare(root: &Path, scale: Scale, seed: u64) -> io::Result<Inputs> {
    let dir = root.join(format!("coauthor-{}-seed{seed}", scale_name(scale)));
    if !dir.join("complete").is_file() {
        let tmp = root.join(format!(
            "coauthor-{}-seed{seed}.tmp{}",
            scale_name(scale),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&tmp);
        std::fs::create_dir_all(&tmp)?;
        let mut config = CoauthorConfig::for_scale(scale);
        config.seed = seed;
        let pair = config.generate();
        dcs_graph::io::write_edge_list_file(&pair.g1, tmp.join("g1.edges"))?;
        dcs_graph::io::write_edge_list_file(&pair.g2, tmp.join("g2.edges"))?;
        PackWriter::write_graph(&pair.g1, tmp.join("g1.dcspack"))?;
        PackWriter::write_graph(&pair.g2, tmp.join("g2.dcspack"))?;
        std::fs::write(tmp.join("complete"), b"")?;
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::rename(&tmp, &dir)?;
    }
    let g2 = GraphPack::open(dir.join("g2.dcspack"))
        .and_then(|pack| pack.to_graph())
        .map_err(io::Error::other)?;
    Ok(Inputs {
        g1_edges: dir.join("g1.edges"),
        g2_edges: dir.join("g2.edges"),
        g1_pack: dir.join("g1.dcspack"),
        vertices: g2.num_vertices(),
        g2: g2.edges().collect(),
    })
}

/// SplitMix64: a small, fully specified generator, so the update streams
/// depend on nothing but the seed.
pub struct Rng(pub u64);

impl Rng {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// `count` batches of `size` weight updates: mostly reinforcements of
/// existing `G2` edges, some decays of them, some brand-new pairs.
pub fn update_batches(
    seed: u64,
    stream: u64,
    inputs: &Inputs,
    count: usize,
    size: usize,
) -> Vec<Vec<Update>> {
    let mut rng = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
    let n = inputs.vertices;
    (0..count)
        .map(|_| {
            (0..size)
                .map(|_| {
                    let roll = rng.below(100);
                    if roll < 80 {
                        let (u, v, _) = inputs.g2[rng.below(inputs.g2.len())];
                        let delta = if roll < 70 {
                            1.0 + rng.below(3) as Weight
                        } else {
                            -1.0
                        };
                        (u, v, delta)
                    } else {
                        let u = rng.below(n);
                        let v = (u + 1 + rng.below(n - 1)) % n;
                        (u as VertexId, v as VertexId, 1.0 + rng.below(3) as Weight)
                    }
                })
                .collect()
        })
        .collect()
}

/// The requests that set a server session up: `create_session` on the G1
/// pack with measure `degree`, then `G2` as observe batches of
/// [`PRELOAD_CHUNK`] updates.
pub struct SessionSetup {
    pub create: Vec<u8>,
    pub preload: Vec<Vec<u8>>,
    pub preload_batches: Vec<Vec<Update>>,
}

pub fn session_setup(session: &str, inputs: &Inputs, durable: bool) -> SessionSetup {
    let preload_batches: Vec<Vec<Update>> = inputs
        .g2
        .chunks(PRELOAD_CHUNK)
        .map(<[Update]>::to_vec)
        .collect();
    SessionSetup {
        create: line(&Request::CreateSession(CreateSessionRequest {
            session: session.to_string(),
            measure: Some(DensityMeasure::AverageDegree),
            pack: Some(inputs.g1_pack.to_string_lossy().into_owned()),
            durable,
            ..Default::default()
        })),
        preload: observe_lines(session, &preload_batches),
        preload_batches,
    }
}

fn line(request: &Request) -> Vec<u8> {
    let mut bytes = serde_json::to_string(&request.to_value())
        .expect("requests serialize")
        .into_bytes();
    bytes.push(b'\n');
    bytes
}

/// The wire lines of one observe request per batch.
pub fn observe_lines(session: &str, batches: &[Vec<Update>]) -> Vec<Vec<u8>> {
    batches
        .iter()
        .map(|updates| {
            line(&Request::Observe {
                session: session.to_string(),
                updates: updates.clone(),
            })
        })
        .collect()
}

/// The wire line of a `mine` request under the session's configured measure.
pub fn mine_line(session: &str) -> Vec<u8> {
    line(&Request::Mine {
        session: session.to_string(),
        measure: None,
        bounds: Default::default(),
    })
}

/// Decodes a request line the way the server does: JSON, then the typed
/// protocol layer.
pub fn decode_line(line: &[u8]) -> io::Result<Request> {
    let text = std::str::from_utf8(line).map_err(io::Error::other)?;
    let value: Value = serde_json::from_str(text.trim_end()).map_err(io::Error::other)?;
    Request::from_value(&value).map_err(io::Error::other)
}

/// Decodes an observe line into its updates.
pub fn decode_observe(line: &[u8]) -> io::Result<Vec<Update>> {
    match decode_line(line)? {
        Request::Observe { updates, .. } => Ok(updates),
        other => Err(io::Error::other(format!(
            "expected an observe, got {other:?}"
        ))),
    }
}

/// Encodes the reply body of an observe the way the server does.
pub fn encode_observed(outcome: &BatchOutcome, version: u64) -> String {
    let body = Response::Observed {
        applied: outcome.applied,
        ignored: outcome.ignored,
        version,
        alerts: Vec::new(),
    }
    .into_body();
    serde_json::to_string(&body).expect("replies serialize")
}
