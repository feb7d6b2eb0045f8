//! Binary CSR **graph pack** writer — and the format specification.
//!
//! A pack stores one [`SignedGraph`] in the exact shape solvers consume
//! (CSR arrays), so the reader in `dcs-graph` ([`dcs_graph::pack`]) can
//! memory-map the file and point the graph's columns straight at it:
//! opening a million-edge pack costs O(header) eager work instead of
//! parsing a million text lines.  This module is the writing side:
//! [`PackWriter`] serialises an in-memory graph row by row, so a pack holds
//! exactly the CSR rows [`dcs_graph::GraphBuilder::build`] canonicalised.
//!
//! # Format specification (version 1)
//!
//! All multi-byte values are **little-endian**; the file is a sequence of
//! 8-byte-aligned structures.  Readers on big-endian or 32-bit targets must
//! decode (copy) the sections; zero-copy aliasing is specified only for
//! 64-bit little-endian hosts, where `u64` row offsets coincide with the
//! in-memory `usize` representation.
//!
//! ## Header (72 bytes, at offset 0)
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 8    | magic `"DCSPACK1"` |
//! | 8      | 8    | format version (currently 1) |
//! | 16     | 8    | `n` — number of vertices |
//! | 24     | 8    | `m` — number of undirected edges |
//! | 32     | 8    | `m⁺` — edges with positive weight |
//! | 40     | 8    | `m⁻` — edges with negative weight (`m = m⁺ + m⁻`) |
//! | 48     | 8    | flags (bit 0: names section present; bit 1: session-metadata section present) |
//! | 56     | 8    | section count (3 plus one per flag bit set) |
//! | 64     | 8    | FNV-1a/64 checksum of bytes `0..64` |
//!
//! ## Section table (at offset 72)
//!
//! One 32-byte entry per section — `{kind, byte offset, byte length,
//! FNV-1a/64 checksum of the payload}` as four `u64`s — followed by one
//! `u64` FNV-1a/64 checksum of the entry bytes.  Entries appear in strictly
//! ascending kind order; payload offsets are absolute, 8-byte aligned and
//! non-overlapping, with zero padding between payloads.  Lengths are exact
//! payload bytes (padding excluded).
//!
//! ## Sections
//!
//! | kind | name    | payload |
//! |-----:|---------|---------|
//! | 1    | offsets | `(n+1) × u64` CSR row offsets (`offsets[0] = 0`, monotone, `offsets[n] = 2m`) |
//! | 2    | targets | `2m × u32` neighbor ids, each row strictly ascending |
//! | 3    | weights | `2m × f64` IEEE-754 bit patterns, parallel to targets; finite, non-zero |
//! | 4    | names   | optional: `n ×` (`u32` byte length + UTF-8 bytes), concatenated |
//! | 5    | session | optional: opaque session-metadata bytes (streaming-session checkpoints; encoding owned by `dcs-server`) |
//!
//! Every undirected edge appears in both endpoint rows with bit-identical
//! weight; self-loops are forbidden.  These are exactly the invariants
//! [`dcs_graph::SignedGraph::from_raw_csr`] validates, which is what the
//! reader runs (allocation-free) over the mapped sections before handing
//! them to solvers.
//!
//! ## Version policy
//!
//! The magic string pins the major layout; the header's version field is
//! the compatibility contract.  Readers reject any version they do not
//! know (no silent best-effort decoding of future packs).  Backwards-
//! compatible *additions* get new section kinds — which version-1 readers
//! also reject, by design: a pack either decodes exactly or not at all.
//! Incompatible changes bump the version.  Checksums are FNV-1a/64 —
//! streamable, dependency-free, and any single-byte corruption changes the
//! digest (every update step is a bijection of the running state); they
//! detect corruption, not adversaries.
//!
//! Header and table checksums are verified eagerly at open; payload
//! checksums are verified by [`dcs_graph::GraphPack::verify`] (used by
//! `dcs pack-info --verify` and the corruption property tests) so the open
//! path stays O(header).

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use dcs_graph::pack::{
    pack_checksum, FLAG_HAS_NAMES, FLAG_HAS_SESSION, FORMAT_VERSION, HEADER_LEN, KIND_NAMES,
    KIND_OFFSETS, KIND_SESSION, KIND_TARGETS, KIND_WEIGHTS, MAGIC, SECTION_ENTRY_LEN,
};
use dcs_graph::{SignedGraph, VertexId};

/// Incremental FNV-1a/64, mirroring [`pack_checksum`] over streamed chunks.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// What a write produced: the header counts plus the file size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackSummary {
    /// Number of vertices written.
    pub vertices: usize,
    /// Number of undirected edges written.
    pub edges: usize,
    /// Edges with positive weight.
    pub positive_edges: usize,
    /// Edges with negative weight.
    pub negative_edges: usize,
    /// Total pack size in bytes.
    pub bytes: usize,
}

/// A section serializer: streams the section's payload bytes into the
/// supplied sink, in order.  Called twice per section by
/// [`PackWriter::write`] — once to checksum, once to write.
type SectionEmitter<'a> = &'a mut dyn FnMut(&mut dyn FnMut(&[u8]));

/// Serialises in-memory [`SignedGraph`]s into graph packs.
///
/// The graph is streamed row by row straight into a buffered file writer —
/// the only transient state is the checksum pass and a write buffer of at
/// most 2 MiB — so writing never duplicates the CSR arrays.
pub struct PackWriter;

/// The largest write [`PackWriter`] hands the file system.  A page cache
/// that keeps large folios for regular files (recent ext4 and XFS, for
/// example) sizes the folios of freshly written data by the writes, and a
/// later mapping of the pack maps a large folio in one fault: touching every
/// page of a fresh mapping of a 4.96 MB pack took about 0.21 ms after 8 KiB
/// writes and about 0.02 ms after 2 MiB writes (2-core x86 box, ext4).  Where
/// folios stay small it only saves write calls.
const WRITE_CHUNK: usize = 2 << 20;

impl PackWriter {
    /// Writes `graph` as a pack at `path` (no names section).
    pub fn write_graph(graph: &SignedGraph, path: impl AsRef<Path>) -> io::Result<PackSummary> {
        Self::write(graph, None, None, path)
    }

    /// Writes `graph` with a vertex-name section (`names.len()` must equal
    /// the vertex count).
    pub fn write_graph_with_names(
        graph: &SignedGraph,
        names: &[String],
        path: impl AsRef<Path>,
    ) -> io::Result<PackSummary> {
        Self::write(graph, Some(names), None, path)
    }

    /// Writes `graph` with an opaque session-metadata section (kind 5) —
    /// the entry point streaming-session checkpoints use: the observed
    /// difference state rides in the CSR sections and the session counters
    /// ride in `session`, so one pack is a complete, checksummed checkpoint.
    pub fn write_graph_with_session(
        graph: &SignedGraph,
        session: &[u8],
        path: impl AsRef<Path>,
    ) -> io::Result<PackSummary> {
        Self::write(graph, None, Some(session), path)
    }

    /// Emitter-driven serialisation: each section closure streams its
    /// payload bytes into the supplied sink and is called twice — once to
    /// checksum, once to write — so no section is ever materialised
    /// separately.
    fn write(
        graph: &SignedGraph,
        names: Option<&[String]>,
        session: Option<&[u8]>,
        path: impl AsRef<Path>,
    ) -> io::Result<PackSummary> {
        let vertices = graph.num_vertices();
        if let Some(names) = names {
            if names.len() != vertices {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("{} names for {vertices} vertices", names.len()),
                ));
            }
        }
        let positive_edges = graph.num_positive_edges();
        let negative_edges = graph.num_negative_edges();
        let mut emit_offsets = |sink: &mut dyn FnMut(&[u8])| {
            let mut cumulative = 0u64;
            sink(&cumulative.to_le_bytes());
            for v in 0..vertices {
                cumulative += graph.degree(v as VertexId) as u64;
                sink(&cumulative.to_le_bytes());
            }
        };
        let mut emit_targets = |sink: &mut dyn FnMut(&[u8])| {
            for v in 0..vertices {
                let (nbrs, _) = graph.neighbor_slices(v as VertexId);
                for &t in nbrs {
                    sink(&t.to_le_bytes());
                }
            }
        };
        let mut emit_weights = |sink: &mut dyn FnMut(&[u8])| {
            for v in 0..vertices {
                let (_, ws) = graph.neighbor_slices(v as VertexId);
                for &w in ws {
                    sink(&w.to_le_bytes());
                }
            }
        };
        let edges = positive_edges + negative_edges;
        let entries = edges * 2;
        let offsets_len = (vertices + 1) * 8;
        let targets_len = entries * 4;
        let weights_len = entries * 8;
        let names_len = names.map(|names| names.iter().map(|s| 4 + s.len()).sum::<usize>());

        let mut emit_names = |sink: &mut dyn FnMut(&[u8])| {
            if let Some(names) = names {
                for name in names {
                    sink(&(name.len() as u32).to_le_bytes());
                    sink(name.as_bytes());
                }
            }
        };
        let mut emit_session = |sink: &mut dyn FnMut(&[u8])| {
            if let Some(bytes) = session {
                sink(bytes);
            }
        };

        // Pass 1: checksums.
        let checksum_of = |emitter: SectionEmitter| {
            let mut fnv = Fnv::new();
            emitter(&mut |bytes| fnv.update(bytes));
            fnv.0
        };
        let offsets_checksum = checksum_of(&mut emit_offsets);
        let targets_checksum = checksum_of(&mut emit_targets);
        let weights_checksum = checksum_of(&mut emit_weights);
        let names_checksum = names_len.map(|_| checksum_of(&mut emit_names));

        // Layout: header, table, then 8-aligned payloads.
        let mut section_dims: Vec<(u64, usize, u64)> = vec![
            (KIND_OFFSETS, offsets_len, offsets_checksum),
            (KIND_TARGETS, targets_len, targets_checksum),
            (KIND_WEIGHTS, weights_len, weights_checksum),
        ];
        if let (Some(len), Some(checksum)) = (names_len, names_checksum) {
            section_dims.push((KIND_NAMES, len, checksum));
        }
        if let Some(bytes) = session {
            section_dims.push((KIND_SESSION, bytes.len(), pack_checksum(bytes)));
        }
        let section_count = section_dims.len();
        let table_end = HEADER_LEN + section_count * SECTION_ENTRY_LEN + 8;
        let mut cursor = table_end;
        let mut sections: Vec<(u64, usize, usize, u64)> = Vec::with_capacity(section_count);
        for &(kind, len, checksum) in &section_dims {
            cursor = cursor.div_ceil(8) * 8;
            sections.push((kind, cursor, len, checksum));
            cursor += len;
        }
        let file_len = cursor;

        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(&MAGIC);
        for field in [
            FORMAT_VERSION,
            vertices as u64,
            edges as u64,
            positive_edges as u64,
            negative_edges as u64,
            if names.is_some() { FLAG_HAS_NAMES } else { 0 }
                | if session.is_some() {
                    FLAG_HAS_SESSION
                } else {
                    0
                },
            section_count as u64,
        ] {
            header.extend_from_slice(&field.to_le_bytes());
        }
        let header_checksum = pack_checksum(&header);
        header.extend_from_slice(&header_checksum.to_le_bytes());

        let mut table = Vec::with_capacity(section_count * SECTION_ENTRY_LEN);
        for &(kind, offset, len, checksum) in &sections {
            table.extend_from_slice(&kind.to_le_bytes());
            table.extend_from_slice(&(offset as u64).to_le_bytes());
            table.extend_from_slice(&(len as u64).to_le_bytes());
            table.extend_from_slice(&checksum.to_le_bytes());
        }
        let table_checksum = pack_checksum(&table);

        // Pass 2: write.
        let mut writer = BufWriter::with_capacity(file_len.min(WRITE_CHUNK), File::create(path)?);
        writer.write_all(&header)?;
        writer.write_all(&table)?;
        writer.write_all(&table_checksum.to_le_bytes())?;
        let mut written = table_end;
        // Emitters in section order — the optional sections only join the list
        // when present, so the zip below stays positionally exact.
        let mut emitters: Vec<SectionEmitter> =
            vec![&mut emit_offsets, &mut emit_targets, &mut emit_weights];
        if names.is_some() {
            emitters.push(&mut emit_names);
        }
        if session.is_some() {
            emitters.push(&mut emit_session);
        }
        for ((_, offset, len, _), emitter) in sections.iter().zip(emitters) {
            while written < *offset {
                writer.write_all(&[0])?;
                written += 1;
            }
            let mut io_error: Option<io::Error> = None;
            emitter(&mut |bytes| {
                if io_error.is_none() {
                    if let Err(e) = writer.write_all(bytes) {
                        io_error = Some(e);
                    }
                }
            });
            if let Some(e) = io_error {
                return Err(e);
            }
            written += len;
        }
        writer.flush()?;
        debug_assert_eq!(written, file_len);

        Ok(PackSummary {
            vertices,
            edges,
            positive_edges,
            negative_edges,
            bytes: file_len,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_graph::{GraphBuilder, GraphPack};

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("dcs_packwriter_{name}_{}.pack", std::process::id()))
    }

    fn sample_graph() -> SignedGraph {
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1, 1.5);
        b.add_edge(0, 3, -2.0);
        b.add_edge(2, 3, 3.0);
        b.add_edge(2, 4, -1.0);
        b.add_edge(3, 4, 2.25);
        b.build()
    }

    #[test]
    fn write_then_open_roundtrips() {
        let g = sample_graph();
        let path = temp_path("roundtrip");
        let summary = PackWriter::write_graph(&g, &path).unwrap();
        assert_eq!(summary.vertices, 6);
        assert_eq!(summary.edges, 5);
        assert_eq!(summary.positive_edges, 3);
        let pack = GraphPack::open(&path).unwrap();
        pack.verify().unwrap();
        let decoded = pack.to_graph().unwrap();
        assert_eq!(decoded, g);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pack_of_several_write_chunks_roundtrips() {
        // 90,000 edges: a 2.4 MB pack, written in more than one chunk.
        let n = 30_000u32;
        let mut b = GraphBuilder::new(n as usize);
        for v in 0..n {
            for d in 1..=3 {
                b.add_edge(v, (v + d) % n, f64::from(d) - 1.5);
            }
        }
        let g = b.build();
        let path = temp_path("chunks");
        let summary = PackWriter::write_graph(&g, &path).unwrap();
        assert!(summary.bytes > WRITE_CHUNK);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            summary.bytes as u64
        );
        let pack = GraphPack::open(&path).unwrap();
        pack.verify().unwrap();
        assert_eq!(pack.to_graph().unwrap(), g);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn names_section_roundtrips() {
        let g = sample_graph();
        let names: Vec<String> = (0..6).map(|i| format!("vertex-{i}")).collect();
        let path = temp_path("names");
        PackWriter::write_graph_with_names(&g, &names, &path).unwrap();
        let pack = GraphPack::open(&path).unwrap();
        assert!(pack.has_names());
        pack.verify().unwrap();
        assert_eq!(pack.read_names().unwrap().unwrap(), names);
        assert_eq!(pack.to_graph().unwrap(), g);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn session_section_roundtrips() {
        let g = sample_graph();
        let meta = b"{\"version\":7,\"observations\":3}";
        let path = temp_path("session");
        PackWriter::write_graph_with_session(&g, meta, &path).unwrap();
        let pack = GraphPack::open(&path).unwrap();
        assert!(pack.has_session());
        assert!(!pack.has_names());
        pack.verify().unwrap();
        assert_eq!(pack.session_bytes().unwrap(), meta);
        assert_eq!(pack.to_graph().unwrap(), g);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn name_count_mismatch_is_rejected() {
        let g = sample_graph();
        let err = PackWriter::write_graph_with_names(&g, &["one".to_string()], temp_path("bad"))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn same_graph_writes_byte_identical_packs() {
        let g = sample_graph();
        let a = temp_path("identical_a");
        let b = temp_path("identical_b");
        PackWriter::write_graph(&g, &a).unwrap();
        PackWriter::write_graph(&g, &b).unwrap();
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
    }

    #[test]
    fn empty_graph_packs() {
        let g = SignedGraph::empty(4);
        let path = temp_path("empty");
        let summary = PackWriter::write_graph(&g, &path).unwrap();
        assert_eq!(summary.edges, 0);
        let pack = GraphPack::open(&path).unwrap();
        pack.verify().unwrap();
        assert_eq!(pack.to_graph().unwrap(), g);
        std::fs::remove_file(&path).ok();
    }
}
