//! The host-speed probe.
//!
//! On a shared host each CPU runs up to half again slower or faster in
//! phases of a few seconds, and the mix of phases drifts over tens of
//! minutes, so two runs of the same code can differ by a third.  The
//! benchmark therefore pins itself, and every process it starts, to one CPU
//! (see [`crate::machine::pin_to_one_cpu`]) and times a fixed kernel of its
//! own on that CPU right before and after each timed unit: a `dcs mine`, a
//! block of re-mine cycles, a segment of the open loop, a set-up round.
//! A CPU-bound time is reported host-adjusted, `raw × REFERENCE_MS / probe`,
//! where `probe` is the mean of the two probe times around its unit.
//!
//! The kernel is work of the same kinds as the program's, but none of its
//! code, so no change to the program moves it: parsing a text edge list
//! held in memory, and a floating-point power-iteration sweep over a seeded
//! random graph.  The slow phases hurt throughput-bound loops like the
//! parse most and DRAM-latency-bound ones hardly at all; of the kernels
//! tried while the benchmark was defined (a bucket peel, a pointer chase,
//! fresh-page writes, the parse, the sweep, spawning a process) the parse
//! and the sweep together tracked `dcs mine` most closely.

use std::hint::black_box;
use std::io::Write;
use std::time::{Duration, Instant};

use crate::data::Rng;

/// The probe time the adjusted figures are scaled to: about what one probe
/// takes on the 2-core box the benchmark was defined on, in a fast phase.
pub const REFERENCE_MS: f64 = 14.5;

const VERTICES: usize = 100_000;
const EDGES: usize = 600_000;
/// Lines of the text edge list: about the size of one coauthor graph's.
const TEXT_LINES: usize = 100_000;
const PARSE_PASSES: usize = 6;
const SWEEPS: usize = 3;
const SEED: u64 = 0x70be;
/// A probe older than this is not reused as the next unit's first probe.
const FRESH: Duration = Duration::from_millis(500);

/// A time measured between two probes: as measured, and the factor that
/// scales it to the reference host speed.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub raw: f64,
    pub scale: f64,
}

impl Timed {
    pub fn adjusted(self) -> f64 {
        self.raw * self.scale
    }
}

pub struct Probe {
    /// The random graph in compressed adjacency form.
    offsets: Vec<u32>,
    neighbours: Vec<u32>,
    /// Part of its edges as `u v w` lines.
    text: Vec<u8>,
    /// When the latest probe ended, and its time (ms).
    last: Option<(Instant, f64)>,
    /// Every probe time of the run, in order (ms).
    pub times_ms: Vec<f64>,
}

impl Probe {
    /// Builds the probe's graph and text; untimed.
    pub fn new() -> Probe {
        let mut rng = Rng(SEED);
        let mut edges = Vec::with_capacity(EDGES);
        let mut offsets = vec![0u32; VERTICES + 1];
        for _ in 0..EDGES {
            let (u, v) = (rng.below(VERTICES), rng.below(VERTICES));
            if u != v {
                edges.push((u, v));
                offsets[u + 1] += 1;
                offsets[v + 1] += 1;
            }
        }
        let mut text = Vec::new();
        for &(u, v) in edges.iter().take(TEXT_LINES) {
            writeln!(text, "{u} {v} {}", 1 + rng.below(9)).expect("writes to memory");
        }
        for v in 0..VERTICES {
            offsets[v + 1] += offsets[v];
        }
        let mut next = offsets.clone();
        let mut neighbours = vec![0u32; offsets[VERTICES] as usize];
        for (u, v) in edges {
            neighbours[next[u] as usize] = v as u32;
            next[u] += 1;
            neighbours[next[v] as usize] = u as u32;
            next[v] += 1;
        }
        Probe {
            offsets,
            neighbours,
            text,
            last: None,
            times_ms: Vec::new(),
        }
    }

    /// Sums every number of the text; returns a checksum.
    fn parse(&self) -> u64 {
        let (mut sum, mut current, mut fields) = (0u64, 0u64, 0u64);
        // Through `black_box`, so that the passes are not merged into one.
        for &byte in black_box(self.text.as_slice()) {
            if byte.is_ascii_digit() {
                current = current * 10 + u64::from(byte - b'0');
            } else {
                sum = sum.wrapping_add(current);
                current = 0;
                fields += 1;
            }
        }
        sum ^ fields
    }

    /// Power iteration on the adjacency matrix; returns one coordinate.
    fn sweep(&self) -> f64 {
        let mut x = vec![1.0 / VERTICES as f64; VERTICES];
        let mut y = vec![0.0f64; VERTICES];
        for _ in 0..SWEEPS {
            for (v, out) in y.iter_mut().enumerate() {
                let range = self.offsets[v] as usize..self.offsets[v + 1] as usize;
                *out = self.neighbours[range].iter().map(|&u| x[u as usize]).sum();
            }
            let total: f64 = y.iter().sum();
            for (to, from) in x.iter_mut().zip(&y) {
                *to = from / total;
            }
        }
        x[0]
    }

    /// Runs the kernel once; returns its time (ms).
    pub fn run(&mut self) -> f64 {
        let start = Instant::now();
        for _ in 0..PARSE_PASSES {
            black_box(self.parse());
        }
        black_box(self.sweep());
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.last = Some((Instant::now(), ms));
        self.times_ms.push(ms);
        ms
    }

    /// Runs `unit` between two probes (the first is the previous probe when
    /// that ended moments ago).  Returns the unit's result and the factor
    /// that scales its CPU-bound times to the reference host speed.
    pub fn around<T>(&mut self, unit: impl FnOnce() -> T) -> (T, f64) {
        let before = match self.last {
            Some((at, ms)) if at.elapsed() < FRESH => ms,
            _ => self.run(),
        };
        let result = unit();
        let after = self.run();
        (result, REFERENCE_MS / ((before + after) / 2.0))
    }
}
