//! Binary CSR **graph packs**: the format, its writer and its zero-copy
//! reader.
//!
//! A pack stores one [`SignedGraph`] in the exact shape solvers consume: the
//! three CSR arrays as fixed-width little-endian sections behind a
//! checksummed header.  [`PackWriter`] writes a graph's columns as they
//! stand, so a pack holds exactly the CSR rows
//! [`GraphBuilder::build`](crate::GraphBuilder::build) canonicalised;
//! [`GraphPack`] memory-maps the file and points the graph's columns
//! straight at the mapping, so opening a 10⁷-edge graph costs O(header)
//! eager work instead of parsing text, and keeps no second copy in RAM.
//! This module is the only code that knows the layout below.
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
//! [`SignedGraph::from_raw_csr`] validates, which is what the reader runs
//! (allocation-free) over the mapped sections before handing them to
//! solvers.
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
//! ## Reading
//!
//! [`GraphPack::open`] reads and verifies **O(header)** bytes eagerly (magic,
//! header + table checksums, section bounds/alignment); the CSR payload is
//! faulted in lazily by the kernel.  [`GraphPack::to_graph`] runs the same
//! allocation-free structural validation as [`SignedGraph::from_raw_csr`]
//! over the mapped sections before handing them to solvers, so corrupt packs
//! surface as typed [`CorruptGraph`] errors, never as out-of-bounds panics.
//! Full payload checksums and adjacency-symmetry auditing are opt-in via
//! [`GraphPack::verify`] (used by `dcs pack-info --verify`, recovery of a
//! durable session and the corruption property tests) to keep the open path
//! O(header).

use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;

use mmap::Mmap;

use crate::csr::{validate_csr, CorruptGraph};
use crate::{SignedGraph, VertexId, Weight};

/// The 8-byte magic prefix identifying a graph pack (and its major layout).
const MAGIC: [u8; 8] = *b"DCSPACK1";

/// The one format version this module writes and reads.
const FORMAT_VERSION: u64 = 1;

/// Byte length of the fixed header (magic + 8 `u64` fields).
const HEADER_LEN: usize = 72;

/// Byte length of one section-table entry (`kind`, `offset`, `len`,
/// `checksum`).
const SECTION_ENTRY_LEN: usize = 32;

const KIND_OFFSETS: u64 = 1;
const KIND_TARGETS: u64 = 2;
const KIND_WEIGHTS: u64 = 3;
const KIND_NAMES: u64 = 4;
const KIND_SESSION: u64 = 5;

const FLAG_HAS_NAMES: u64 = 1;
const FLAG_HAS_SESSION: u64 = 2;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a running FNV-1a/64 digest, the checksum of every
/// pack structure.  A single flipped byte always changes the digest (each
/// step is a bijection of the running state), which is the
/// corruption-detection property the format needs; it is not cryptographic.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a/64 over `bytes`.
fn pack_checksum(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, bytes)
}

/// The section-table fields `(kind, length, checksum)` of a column written
/// in its little-endian encoding `le`; the checksum is folded element by
/// element, without encoding the column first.
fn column_section<T: Copy, const N: usize>(
    kind: u64,
    column: &[T],
    le: impl Fn(T) -> [u8; N],
) -> (u64, usize, u64) {
    let checksum = column
        .iter()
        .fold(FNV_OFFSET, |hash, &x| fnv1a(hash, &le(x)));
    (kind, column.len() * N, checksum)
}

/// The three decoded CSR columns (row offsets, targets, weights) of the
/// owned copying fallback path.
type OwnedColumns = (Vec<usize>, Vec<VertexId>, Vec<Weight>);

/// Why a pack could not be opened or decoded.
#[derive(Debug)]
#[non_exhaustive]
pub enum PackError {
    /// Filesystem-level failure.
    Io(std::io::Error),
    /// The file does not start with the pack magic.
    BadMagic,
    /// The pack declares a format version this reader does not understand.
    UnsupportedVersion(u64),
    /// The file is shorter than a declared structure.
    Truncated {
        /// Bytes the structure needs.
        needed: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// The header checksum does not match the header bytes.
    HeaderChecksum,
    /// The section-table checksum does not match the table bytes.
    TableChecksum,
    /// A section's payload checksum does not match (reported by
    /// [`GraphPack::verify`]).
    SectionChecksum(&'static str),
    /// The header or section table is internally inconsistent (bad kinds,
    /// misaligned or overlapping sections, impossible sizes…).
    Layout(String),
    /// The CSR payload violates a graph representation invariant.
    Corrupt(CorruptGraph),
}

impl std::fmt::Display for PackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackError::Io(e) => write!(f, "pack io error: {e}"),
            PackError::BadMagic => write!(f, "not a graph pack (bad magic)"),
            PackError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported pack format version {v} (reader supports {FORMAT_VERSION})"
                )
            }
            PackError::Truncated { needed, actual } => {
                write!(f, "truncated pack: need {needed} bytes, file has {actual}")
            }
            PackError::HeaderChecksum => write!(f, "pack header checksum mismatch"),
            PackError::TableChecksum => write!(f, "pack section-table checksum mismatch"),
            PackError::SectionChecksum(name) => {
                write!(f, "pack {name} section checksum mismatch")
            }
            PackError::Layout(msg) => write!(f, "bad pack layout: {msg}"),
            PackError::Corrupt(e) => write!(f, "pack payload rejected: {e}"),
        }
    }
}

impl std::error::Error for PackError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PackError::Io(e) => Some(e),
            PackError::Corrupt(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PackError {
    fn from(e: std::io::Error) -> Self {
        PackError::Io(e)
    }
}

impl From<CorruptGraph> for PackError {
    fn from(e: CorruptGraph) -> Self {
        PackError::Corrupt(e)
    }
}

/// One entry of the parsed section table.
#[derive(Debug, Clone, Copy)]
pub struct SectionInfo {
    /// Section kind code (1–5, in the module docs' section table).
    pub kind: u64,
    /// Human-readable kind name.
    pub name: &'static str,
    /// Byte offset of the payload from the start of the file.
    pub offset: usize,
    /// Exact payload length in bytes (padding excluded).
    pub len: usize,
    /// FNV-1a/64 checksum of the payload as recorded at write time.
    pub checksum: u64,
}

fn kind_name(kind: u64) -> &'static str {
    match kind {
        KIND_OFFSETS => "offsets",
        KIND_TARGETS => "targets",
        KIND_WEIGHTS => "weights",
        KIND_NAMES => "names",
        KIND_SESSION => "session",
        _ => "unknown",
    }
}

/// An opened graph pack: the mapped (or buffered) file plus its parsed and
/// eagerly verified header and section table.
///
/// Opening is O(header); decoding the graph ([`Self::to_graph`]) points the
/// graph's CSR columns straight at the mapping on 64-bit little-endian
/// targets and copies the sections out elsewhere.
pub struct GraphPack {
    data: Arc<Mmap>,
    format_version: u64,
    vertices: usize,
    edges: usize,
    positive_edges: usize,
    negative_edges: usize,
    flags: u64,
    sections: Vec<SectionInfo>,
}

fn read_u64(bytes: &[u8], pos: usize) -> u64 {
    u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap())
}

fn to_usize(v: u64, what: &str) -> Result<usize, PackError> {
    usize::try_from(v).map_err(|_| PackError::Layout(format!("{what} {v} exceeds address space")))
}

impl GraphPack {
    /// Opens a pack by memory-mapping it (with a transparent read-into-RAM
    /// fallback when mapping is unavailable).  Eagerly reads and verifies
    /// only the magic, header and section table — O(header) bytes; the CSR
    /// payload stays on disk until faulted in.
    pub fn open(path: impl AsRef<Path>) -> Result<GraphPack, PackError> {
        let file = File::open(path)?;
        Self::from_mmap(Mmap::map(&file)?)
    }

    /// Opens a pack by reading the whole file into an owned buffer — the
    /// portability path, immune to concurrent file modification.
    pub fn open_buffered(path: impl AsRef<Path>) -> Result<GraphPack, PackError> {
        let file = File::open(path)?;
        Self::from_mmap(Mmap::read(&file)?)
    }

    /// Parses and verifies the header and section table of an already-loaded
    /// pack image.
    pub fn from_mmap(data: Mmap) -> Result<GraphPack, PackError> {
        let bytes = data.as_bytes();
        if bytes.len() < HEADER_LEN {
            return Err(PackError::Truncated {
                needed: HEADER_LEN,
                actual: bytes.len(),
            });
        }
        if bytes[..8] != MAGIC {
            return Err(PackError::BadMagic);
        }
        let stored_header_checksum = read_u64(bytes, HEADER_LEN - 8);
        if pack_checksum(&bytes[..HEADER_LEN - 8]) != stored_header_checksum {
            return Err(PackError::HeaderChecksum);
        }
        let format_version = read_u64(bytes, 8);
        if format_version != FORMAT_VERSION {
            return Err(PackError::UnsupportedVersion(format_version));
        }
        let vertices = to_usize(read_u64(bytes, 16), "vertex count")?;
        let edges = to_usize(read_u64(bytes, 24), "edge count")?;
        let positive_edges = to_usize(read_u64(bytes, 32), "positive edge count")?;
        let negative_edges = to_usize(read_u64(bytes, 40), "negative edge count")?;
        let flags = read_u64(bytes, 48);
        let section_count = read_u64(bytes, 56);

        if positive_edges.checked_add(negative_edges) != Some(edges) {
            return Err(PackError::Layout(format!(
                "edge counts disagree: {edges} != {positive_edges} + {negative_edges}"
            )));
        }
        if vertices > (VertexId::MAX as usize) + 1 {
            return Err(PackError::Layout(format!(
                "vertex count {vertices} exceeds the 32-bit id space"
            )));
        }
        let expected_sections: u64 =
            3 + u64::from(flags & FLAG_HAS_NAMES != 0) + u64::from(flags & FLAG_HAS_SESSION != 0);
        if section_count != expected_sections {
            return Err(PackError::Layout(format!(
                "section count {section_count}, expected {expected_sections}"
            )));
        }
        let section_count = section_count as usize;
        let table_len = section_count * SECTION_ENTRY_LEN + 8;
        let table_end = HEADER_LEN + table_len;
        if bytes.len() < table_end {
            return Err(PackError::Truncated {
                needed: table_end,
                actual: bytes.len(),
            });
        }
        let table_bytes = &bytes[HEADER_LEN..table_end - 8];
        if pack_checksum(table_bytes) != read_u64(bytes, table_end - 8) {
            return Err(PackError::TableChecksum);
        }

        let mut sections = Vec::with_capacity(section_count);
        let mut prev_kind = 0u64;
        let mut prev_end = table_end;
        for i in 0..section_count {
            let base = HEADER_LEN + i * SECTION_ENTRY_LEN;
            let kind = read_u64(bytes, base);
            let offset = to_usize(read_u64(bytes, base + 8), "section offset")?;
            let len = to_usize(read_u64(bytes, base + 16), "section length")?;
            let checksum = read_u64(bytes, base + 24);
            if !(KIND_OFFSETS..=KIND_SESSION).contains(&kind) || kind <= prev_kind {
                return Err(PackError::Layout(format!(
                    "unexpected section kind {kind} at table index {i}"
                )));
            }
            prev_kind = kind;
            if offset % 8 != 0 {
                return Err(PackError::Layout(format!(
                    "{} section offset {offset} is not 8-byte aligned",
                    kind_name(kind)
                )));
            }
            if offset < prev_end {
                return Err(PackError::Layout(format!(
                    "{} section at {offset} overlaps the previous structure",
                    kind_name(kind)
                )));
            }
            let end = offset
                .checked_add(len)
                .ok_or_else(|| PackError::Layout("section range overflows".to_string()))?;
            if end > bytes.len() {
                return Err(PackError::Truncated {
                    needed: end,
                    actual: bytes.len(),
                });
            }
            prev_end = end;
            sections.push(SectionInfo {
                kind,
                name: kind_name(kind),
                offset,
                len,
                checksum,
            });
        }

        let pack = GraphPack {
            data: Arc::new(data),
            format_version,
            vertices,
            edges,
            positive_edges,
            negative_edges,
            flags,
            sections,
        };
        // Cross-check the fixed-width section lengths against the header
        // counts — still O(header): arithmetic over the table only.
        let entries = pack
            .edges
            .checked_mul(2)
            .ok_or_else(|| PackError::Layout("edge count overflows".to_string()))?;
        let offsets_len = pack
            .vertices
            .checked_add(1)
            .and_then(|n| n.checked_mul(8))
            .ok_or_else(|| PackError::Layout("vertex count overflows".to_string()))?;
        for (kind, expected) in [
            (KIND_OFFSETS, Some(offsets_len)),
            (KIND_TARGETS, entries.checked_mul(4)),
            (KIND_WEIGHTS, entries.checked_mul(8)),
        ] {
            let expected =
                expected.ok_or_else(|| PackError::Layout("edge count overflows".to_string()))?;
            let section = pack.section(kind).expect("kind presence checked above");
            if section.len != expected {
                return Err(PackError::Layout(format!(
                    "{} section is {} bytes, expected {expected}",
                    kind_name(kind),
                    section.len
                )));
            }
        }
        Ok(pack)
    }

    fn section(&self, kind: u64) -> Option<&SectionInfo> {
        self.sections.iter().find(|s| s.kind == kind)
    }

    fn section_bytes(&self, section: &SectionInfo) -> &[u8] {
        &self.data.as_bytes()[section.offset..section.offset + section.len]
    }

    /// Number of vertices recorded in the header.
    pub fn vertices(&self) -> usize {
        self.vertices
    }

    /// Number of undirected edges recorded in the header.
    pub fn edges(&self) -> usize {
        self.edges
    }

    /// Number of positive-weight undirected edges recorded in the header.
    pub fn positive_edges(&self) -> usize {
        self.positive_edges
    }

    /// Number of negative-weight undirected edges recorded in the header.
    pub fn negative_edges(&self) -> usize {
        self.negative_edges
    }

    /// The pack's format version (once opened, always 1: the one version
    /// this reader knows).
    pub fn format_version(&self) -> u64 {
        self.format_version
    }

    /// Total file length in bytes.
    pub fn file_len(&self) -> usize {
        self.data.len()
    }

    /// Whether the file is backed by an actual kernel mapping (zero-copy) as
    /// opposed to an in-RAM buffer.
    pub fn is_mapped(&self) -> bool {
        self.data.is_mapped()
    }

    /// Whether the pack carries a vertex-name section.
    pub fn has_names(&self) -> bool {
        self.flags & FLAG_HAS_NAMES != 0
    }

    /// Whether the pack carries a session-metadata section (streaming-session
    /// checkpoints written by `dcs-server`).
    pub fn has_session(&self) -> bool {
        self.flags & FLAG_HAS_SESSION != 0
    }

    /// The raw bytes of the optional session-metadata section, `None` when
    /// the pack carries none.  The encoding of the payload belongs to the
    /// writer (`dcs-server`'s checkpointer); the pack layer treats it as
    /// opaque, checksummed bytes.
    pub fn session_bytes(&self) -> Option<&[u8]> {
        self.section(KIND_SESSION).map(|s| self.section_bytes(s))
    }

    /// The parsed section table, in file order.
    pub fn sections(&self) -> &[SectionInfo] {
        &self.sections
    }

    /// Decodes the pack into a [`SignedGraph`], validating every CSR
    /// invariant (allocation-free scan) and cross-checking the header's edge
    /// counts against the payload.
    ///
    /// On 64-bit little-endian targets the returned graph's columns alias
    /// the mapped file directly (`SignedGraph::is_pack_backed` reports
    /// `true`); elsewhere the sections are copied and byte-swapped out of
    /// the file, behind the same API.
    pub fn to_graph(&self) -> Result<SignedGraph, PackError> {
        #[cfg(all(target_pointer_width = "64", target_endian = "little"))]
        {
            if let Some((offsets, targets, weights)) = self.typed_views() {
                let (pos, neg) = validate_csr(&offsets, &targets, &weights)?;
                self.cross_check_counts(pos, neg)?;
                return Ok(SignedGraph::from_columns(
                    offsets.into(),
                    targets.into(),
                    weights.into(),
                    pos,
                    neg,
                ));
            }
        }
        let (offsets, targets, weights) = self.copy_columns()?;
        let (pos, neg) = validate_csr(&offsets, &targets, &weights)?;
        self.cross_check_counts(pos, neg)?;
        Ok(SignedGraph::from_columns(
            offsets.into(),
            targets.into(),
            weights.into(),
            pos,
            neg,
        ))
    }

    /// Zero-copy typed views of the three CSR sections.  `None` when any
    /// section is not suitably aligned within the mapping (cannot happen for
    /// writer-produced files, whose sections are 8-byte aligned over a
    /// page-aligned base, but a defensive fallback beats an abort).
    #[cfg(all(target_pointer_width = "64", target_endian = "little"))]
    fn typed_views(
        &self,
    ) -> Option<(
        mmap::ArcSlice<usize>,
        mmap::ArcSlice<VertexId>,
        mmap::ArcSlice<Weight>,
    )> {
        let offsets = self.section(KIND_OFFSETS)?;
        let targets = self.section(KIND_TARGETS)?;
        let weights = self.section(KIND_WEIGHTS)?;
        let offsets =
            mmap::ArcSlice::<usize>::new(Arc::clone(&self.data), offsets.offset, offsets.len / 8)?;
        let targets = mmap::ArcSlice::<VertexId>::new(
            Arc::clone(&self.data),
            targets.offset,
            targets.len / 4,
        )?;
        let weights =
            mmap::ArcSlice::<Weight>::new(Arc::clone(&self.data), weights.offset, weights.len / 8)?;
        Some((offsets, targets, weights))
    }

    /// Endianness-independent fallback: copies the sections into owned
    /// vectors, decoding little-endian fixed-width values.
    fn copy_columns(&self) -> Result<OwnedColumns, PackError> {
        let offsets_bytes = self.section_bytes(self.section(KIND_OFFSETS).unwrap());
        let targets_bytes = self.section_bytes(self.section(KIND_TARGETS).unwrap());
        let weights_bytes = self.section_bytes(self.section(KIND_WEIGHTS).unwrap());
        let mut offsets = Vec::with_capacity(offsets_bytes.len() / 8);
        for chunk in offsets_bytes.chunks_exact(8) {
            let v = u64::from_le_bytes(chunk.try_into().unwrap());
            offsets.push(to_usize(v, "row offset")?);
        }
        let targets: Vec<VertexId> = targets_bytes
            .chunks_exact(4)
            .map(|c| VertexId::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let weights: Vec<Weight> = weights_bytes
            .chunks_exact(8)
            .map(|c| Weight::from_le_bytes(c.try_into().unwrap()))
            .collect();
        Ok((offsets, targets, weights))
    }

    fn cross_check_counts(
        &self,
        positive_entries: usize,
        negative_entries: usize,
    ) -> Result<(), PackError> {
        if positive_entries / 2 != self.positive_edges
            || negative_entries / 2 != self.negative_edges
        {
            return Err(PackError::Layout(format!(
                "header counts ({}+, {}-) do not match payload ({}+, {}-)",
                self.positive_edges,
                self.negative_edges,
                positive_entries / 2,
                negative_entries / 2
            )));
        }
        Ok(())
    }

    /// Full integrity audit: recomputes every section checksum, re-validates
    /// the CSR payload and checks adjacency **symmetry** (each undirected
    /// edge present in both endpoint rows with bit-identical weight).
    ///
    /// Deliberately not part of [`Self::open`]/[`Self::to_graph`] — it reads
    /// the whole file — but cheap enough for `dcs pack-info --verify`,
    /// recovery and corruption tests.  Returns the graph [`Self::to_graph`]
    /// decoded for the audit, so a caller that verifies before use decodes
    /// the pack once.
    pub fn verify(&self) -> Result<SignedGraph, PackError> {
        for section in &self.sections {
            if pack_checksum(self.section_bytes(section)) != section.checksum {
                return Err(PackError::SectionChecksum(section.name));
            }
        }
        let graph = self.to_graph()?;
        for u in graph.vertices() {
            let (nbrs, ws) = graph.neighbor_slices(u);
            for (&v, &w) in nbrs.iter().zip(ws) {
                let (back_nbrs, back_ws) = graph.neighbor_slices(v);
                let mirrored = back_nbrs
                    .binary_search(&u)
                    .is_ok_and(|i| back_ws[i].to_bits() == w.to_bits());
                if !mirrored {
                    return Err(PackError::Layout(format!(
                        "edge ({u}, {v}) is not stored symmetrically"
                    )));
                }
            }
        }
        if self.has_names() {
            self.read_names()?;
        }
        Ok(graph)
    }

    /// Decodes the optional vertex-name section: `n` length-prefixed UTF-8
    /// strings.  Returns `None` when the pack has no names.  Allocates — not
    /// part of the zero-copy path.
    pub fn read_names(&self) -> Result<Option<Vec<String>>, PackError> {
        let Some(section) = self.section(KIND_NAMES) else {
            return Ok(None);
        };
        let bytes = self.section_bytes(section);
        let mut names = Vec::with_capacity(self.vertices);
        let mut pos = 0usize;
        for v in 0..self.vertices {
            if pos + 4 > bytes.len() {
                return Err(PackError::Layout(format!(
                    "names section ends inside the length prefix of vertex {v}"
                )));
            }
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 4;
            if pos + len > bytes.len() {
                return Err(PackError::Layout(format!(
                    "names section ends inside the name of vertex {v}"
                )));
            }
            let name = std::str::from_utf8(&bytes[pos..pos + len])
                .map_err(|_| PackError::Layout(format!("vertex {v} name is not UTF-8")))?;
            names.push(name.to_string());
            pos += len;
        }
        if pos != bytes.len() {
            return Err(PackError::Layout(format!(
                "names section has {} trailing bytes",
                bytes.len() - pos
            )));
        }
        Ok(Some(names))
    }
}

impl std::fmt::Debug for GraphPack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphPack")
            .field("vertices", &self.vertices)
            .field("edges", &self.edges)
            .field("mapped", &self.is_mapped())
            .field("file_len", &self.file_len())
            .finish()
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

/// Serialises in-memory [`SignedGraph`]s into graph packs.
///
/// The writer checksums the graph's CSR columns where they lie, then writes
/// the header, the section table and the sections in file order through one
/// buffer of at most 2 MiB, so writing never duplicates the CSR arrays.
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

    /// Every section's checksum is taken before anything is written, since
    /// the table that holds them precedes the payloads.
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
        // Every constructor keeps the rows back to back from offset 0 to the
        // end of the columns, so the columns are the payloads as they stand.
        let (offsets, targets, weights) = graph.csr();
        debug_assert!(offsets[0] == 0 && offsets[vertices] == targets.len());
        let offset_le = |offset: usize| (offset as u64).to_le_bytes();

        // (kind, payload length, payload checksum), in kind order.
        let mut sections = vec![
            column_section(KIND_OFFSETS, offsets, offset_le),
            column_section(KIND_TARGETS, targets, u32::to_le_bytes),
            column_section(KIND_WEIGHTS, weights, f64::to_le_bytes),
        ];
        let mut flags = 0;
        let mut names_len = 0;
        if let Some(names) = names {
            flags |= FLAG_HAS_NAMES;
            let mut checksum = FNV_OFFSET;
            for name in names {
                checksum = fnv1a(checksum, &(name.len() as u32).to_le_bytes());
                checksum = fnv1a(checksum, name.as_bytes());
                names_len += 4 + name.len();
            }
            sections.push((KIND_NAMES, names_len, checksum));
        }
        if let Some(bytes) = session {
            flags |= FLAG_HAS_SESSION;
            sections.push((KIND_SESSION, bytes.len(), pack_checksum(bytes)));
        }

        let table_end = HEADER_LEN + sections.len() * SECTION_ENTRY_LEN + 8;
        let mut table = Vec::with_capacity(table_end - HEADER_LEN);
        let mut cursor = table_end;
        for &(kind, len, checksum) in &sections {
            cursor = cursor.next_multiple_of(8);
            for field in [kind, cursor as u64, len as u64, checksum] {
                table.extend_from_slice(&field.to_le_bytes());
            }
            cursor += len;
        }
        let file_len = cursor;
        let table_checksum = pack_checksum(&table);
        table.extend_from_slice(&table_checksum.to_le_bytes());

        let positive_edges = graph.num_positive_edges();
        let negative_edges = graph.num_negative_edges();
        let edges = positive_edges + negative_edges;
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(&MAGIC);
        for field in [
            FORMAT_VERSION,
            vertices as u64,
            edges as u64,
            positive_edges as u64,
            negative_edges as u64,
            flags,
            sections.len() as u64,
        ] {
            header.extend_from_slice(&field.to_le_bytes());
        }
        let header_checksum = pack_checksum(&header);
        header.extend_from_slice(&header_checksum.to_le_bytes());

        let mut out = BufWriter::with_capacity(file_len.min(WRITE_CHUNK), File::create(path)?);
        out.write_all(&header)?;
        out.write_all(&table)?;
        for &offset in offsets {
            out.write_all(&offset_le(offset))?;
        }
        for &target in targets {
            out.write_all(&target.to_le_bytes())?;
        }
        for &weight in weights {
            out.write_all(&weight.to_le_bytes())?;
        }
        if let Some(names) = names {
            for name in names {
                out.write_all(&(name.len() as u32).to_le_bytes())?;
                out.write_all(name.as_bytes())?;
            }
        }
        if let Some(bytes) = session {
            // Only the session section can follow padding: every payload
            // before the names is a whole number of 8-byte words.
            out.write_all(&[0; 8][..names_len.next_multiple_of(8) - names_len])?;
            out.write_all(bytes)?;
        }
        out.flush()?;

        Ok(PackSummary {
            vertices,
            edges,
            positive_edges,
            negative_edges,
            bytes: file_len,
        })
    }
}

/// Sniffs whether `path` starts with the pack magic — the auto-detection
/// hook used by CLI input loading to accept packs and text edge lists
/// through one code path.  Short or unreadable-as-pack files simply report
/// `false`.
pub fn file_is_pack(path: impl AsRef<Path>) -> std::io::Result<bool> {
    let mut file = File::open(path)?;
    let mut magic = [0u8; 8];
    let mut filled = 0usize;
    while filled < magic.len() {
        match file.read(&mut magic[filled..])? {
            0 => return Ok(false),
            n => filled += n,
        }
    }
    Ok(magic == MAGIC)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-rolled miniature pack writer built from the documented byte
    /// layout: the oracle the reader is tested against and the writer's
    /// bytes are compared with.
    pub(crate) fn build_pack_bytes(
        offsets: &[u64],
        targets: &[u32],
        weights: &[f64],
        names: Option<&[&str]>,
    ) -> Vec<u8> {
        build_pack_bytes_with_session(offsets, targets, weights, names, None)
    }

    pub(crate) fn build_pack_bytes_with_session(
        offsets: &[u64],
        targets: &[u32],
        weights: &[f64],
        names: Option<&[&str]>,
        session: Option<&[u8]>,
    ) -> Vec<u8> {
        let n = offsets.len() - 1;
        let entries = targets.len();
        let pos = weights.iter().filter(|w| **w > 0.0).count();
        let neg = weights.iter().filter(|w| **w < 0.0).count();

        let mut offsets_bytes = Vec::new();
        for &o in offsets {
            offsets_bytes.extend_from_slice(&o.to_le_bytes());
        }
        let mut targets_bytes = Vec::new();
        for &t in targets {
            targets_bytes.extend_from_slice(&t.to_le_bytes());
        }
        let mut weights_bytes = Vec::new();
        for &w in weights {
            weights_bytes.extend_from_slice(&w.to_le_bytes());
        }
        let names_bytes = names.map(|names| {
            let mut b = Vec::new();
            for name in names {
                b.extend_from_slice(&(name.len() as u32).to_le_bytes());
                b.extend_from_slice(name.as_bytes());
            }
            b
        });

        let mut payloads: Vec<(u64, Vec<u8>)> = vec![
            (KIND_OFFSETS, offsets_bytes),
            (KIND_TARGETS, targets_bytes),
            (KIND_WEIGHTS, weights_bytes),
        ];
        let mut flags = 0u64;
        if let Some(b) = names_bytes {
            flags |= FLAG_HAS_NAMES;
            payloads.push((KIND_NAMES, b));
        }
        if let Some(b) = session {
            flags |= FLAG_HAS_SESSION;
            payloads.push((KIND_SESSION, b.to_vec()));
        }

        let section_count = payloads.len();
        let table_end = HEADER_LEN + section_count * SECTION_ENTRY_LEN + 8;
        let mut file = Vec::new();
        file.extend_from_slice(&MAGIC);
        for field in [
            FORMAT_VERSION,
            n as u64,
            (entries / 2) as u64,
            (pos / 2) as u64,
            (neg / 2) as u64,
            flags,
            section_count as u64,
        ] {
            file.extend_from_slice(&field.to_le_bytes());
        }
        let header_checksum = pack_checksum(&file);
        file.extend_from_slice(&header_checksum.to_le_bytes());
        assert_eq!(file.len(), HEADER_LEN);

        // Lay out the sections after the table, 8-byte aligned.
        let mut cursor = table_end;
        let mut table = Vec::new();
        let mut section_blobs = Vec::new();
        for (kind, payload) in payloads {
            cursor = cursor.div_ceil(8) * 8;
            table.extend_from_slice(&kind.to_le_bytes());
            table.extend_from_slice(&(cursor as u64).to_le_bytes());
            table.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            table.extend_from_slice(&pack_checksum(&payload).to_le_bytes());
            cursor += payload.len();
            section_blobs.push(payload);
        }
        let table_checksum = pack_checksum(&table);
        file.extend_from_slice(&table);
        file.extend_from_slice(&table_checksum.to_le_bytes());
        for payload in section_blobs {
            while file.len() % 8 != 0 {
                file.push(0);
            }
            file.extend_from_slice(&payload);
        }
        file
    }

    fn fig1_pack_bytes() -> Vec<u8> {
        // The Fig. 1 difference graph used across the csr tests:
        // (0,1)=1, (0,3)=-2, (2,3)=3, (2,4)=-1, (3,4)=2.
        build_pack_bytes(
            &[0, 2, 3, 5, 8, 10],
            &[1, 3, 0, 3, 4, 0, 2, 4, 2, 3],
            &[1.0, -2.0, 1.0, 3.0, -1.0, -2.0, 3.0, 2.0, -1.0, 2.0],
            None,
        )
    }

    fn open_bytes(bytes: Vec<u8>) -> Result<GraphPack, PackError> {
        GraphPack::from_mmap(Mmap::from_vec(bytes))
    }

    #[test]
    fn reads_a_hand_rolled_pack() {
        let pack = open_bytes(fig1_pack_bytes()).unwrap();
        assert_eq!(pack.vertices(), 5);
        assert_eq!(pack.edges(), 5);
        assert_eq!(pack.positive_edges(), 3);
        assert_eq!(pack.negative_edges(), 2);
        assert!(!pack.has_names());
        pack.verify().unwrap();
        let g = pack.to_graph().unwrap();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.edge_weight(0, 3), Some(-2.0));
        assert_eq!(g.edge_weight(2, 3), Some(3.0));
        assert_eq!(g.edge_weight(1, 2), None);
    }

    #[cfg(all(target_pointer_width = "64", target_endian = "little"))]
    #[test]
    fn decoded_graph_is_pack_backed_on_64bit_le() {
        let pack = open_bytes(fig1_pack_bytes()).unwrap();
        let g = pack.to_graph().unwrap();
        assert!(g.is_pack_backed());
        // Copy-on-write: mutation detaches from the pack.
        let negated = g.negated();
        assert_eq!(negated.edge_weight(2, 3), Some(-3.0));
    }

    #[test]
    fn names_roundtrip() {
        let bytes = build_pack_bytes(&[0, 1, 2], &[1, 0], &[2.5, 2.5], Some(&["alice", "bob"]));
        let pack = open_bytes(bytes).unwrap();
        assert!(pack.has_names());
        pack.verify().unwrap();
        assert_eq!(
            pack.read_names().unwrap().unwrap(),
            vec!["alice".to_string(), "bob".to_string()]
        );
    }

    #[test]
    fn session_section_roundtrip() {
        let meta = b"{\"version\":42,\"measure\":\"affinity\"}";
        let bytes = build_pack_bytes_with_session(
            &[0, 1, 2],
            &[1, 0],
            &[2.5, 2.5],
            Some(&["alice", "bob"]),
            Some(meta),
        );
        let pack = open_bytes(bytes).unwrap();
        assert!(pack.has_names());
        assert!(pack.has_session());
        pack.verify().unwrap();
        assert_eq!(pack.session_bytes().unwrap(), meta);
        assert_eq!(pack.to_graph().unwrap().num_edges(), 1);
        // Without the flag, no session bytes are reported.
        let plain = open_bytes(fig1_pack_bytes()).unwrap();
        assert!(!plain.has_session());
        assert!(plain.session_bytes().is_none());
    }

    #[test]
    fn session_flag_without_section_is_rejected() {
        // Set FLAG_HAS_SESSION on a 3-section pack and re-stamp the header
        // checksum: the section-count cross-check must reject it.
        let mut bytes = fig1_pack_bytes();
        let flags = u64::from_le_bytes(bytes[48..56].try_into().unwrap()) | FLAG_HAS_SESSION;
        bytes[48..56].copy_from_slice(&flags.to_le_bytes());
        let fixed = pack_checksum(&bytes[..HEADER_LEN - 8]);
        bytes[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&fixed.to_le_bytes());
        assert!(matches!(
            open_bytes(bytes).err(),
            Some(PackError::Layout(_))
        ));
    }

    #[test]
    fn rejects_bad_magic_and_short_files() {
        let mut bytes = fig1_pack_bytes();
        bytes[0] = b'X';
        assert!(matches!(open_bytes(bytes).err(), Some(PackError::BadMagic)));
        assert!(matches!(
            open_bytes(vec![1, 2, 3]).err(),
            Some(PackError::Truncated { .. })
        ));
    }

    #[test]
    fn rejects_header_tampering() {
        // Flip the vertex count without fixing the checksum.
        let mut bytes = fig1_pack_bytes();
        bytes[16] ^= 0xff;
        assert!(matches!(
            open_bytes(bytes).err(),
            Some(PackError::HeaderChecksum)
        ));
    }

    #[test]
    fn rejects_unsupported_version() {
        // Bump the version *and* re-stamp the header checksum: the version
        // check must fire on an otherwise-valid header.
        let mut bytes = fig1_pack_bytes();
        bytes[8..16].copy_from_slice(&2u64.to_le_bytes());
        let fixed = pack_checksum(&bytes[..HEADER_LEN - 8]);
        bytes[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&fixed.to_le_bytes());
        assert!(matches!(
            open_bytes(bytes).err(),
            Some(PackError::UnsupportedVersion(2))
        ));
    }

    #[test]
    fn rejects_truncated_payload() {
        let bytes = fig1_pack_bytes();
        let cut = bytes[..bytes.len() - 9].to_vec();
        assert!(matches!(
            open_bytes(cut).err(),
            Some(PackError::Truncated { .. })
        ));
    }

    #[test]
    fn verify_catches_payload_bit_flips() {
        let good = fig1_pack_bytes();
        let pack = open_bytes(good.clone()).unwrap();
        let weights_offset = pack.section(KIND_WEIGHTS).unwrap().offset;
        let mut bytes = good;
        bytes[weights_offset + 3] ^= 0x01;
        let tampered = open_bytes(bytes).unwrap();
        assert!(matches!(
            tampered.verify().err(),
            Some(PackError::SectionChecksum("weights"))
        ));
    }

    #[test]
    fn corrupt_csr_is_rejected_with_typed_errors() {
        // Out-of-range target.
        let bytes = build_pack_bytes(&[0, 1, 2], &[9, 0], &[1.0, 1.0], None);
        match open_bytes(bytes).unwrap().to_graph() {
            Err(PackError::Corrupt(CorruptGraph::TargetOutOfRange { .. })) => {}
            other => panic!("expected TargetOutOfRange, got {other:?}"),
        }
        // Zero weight.  The helper derives header sign counts from the
        // weights, which would trip the open-time m = m⁺ + m⁻ cross-check
        // first — stamp a consistent-looking header so the payload scan is
        // what rejects the pack.
        let mut bytes = build_pack_bytes(&[0, 1, 2], &[1, 0], &[0.0, 0.0], None);
        bytes[32..40].copy_from_slice(&1u64.to_le_bytes());
        let fixed = pack_checksum(&bytes[..HEADER_LEN - 8]);
        bytes[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&fixed.to_le_bytes());
        match open_bytes(bytes).unwrap().to_graph() {
            Err(PackError::Corrupt(CorruptGraph::ZeroWeight { .. })) => {}
            other => panic!("expected ZeroWeight, got {other:?}"),
        }
        // Non-monotone offsets.
        let bytes = build_pack_bytes(&[0, 2, 1, 2], &[1, 0], &[1.0, 1.0], None);
        assert!(open_bytes(bytes).unwrap().to_graph().is_err());
    }

    #[test]
    fn header_payload_count_mismatch_is_rejected() {
        // Valid CSR but a header that claims the wrong sign split: craft by
        // flipping m+/m- and re-stamping the header checksum.
        let mut bytes = fig1_pack_bytes();
        bytes[32..40].copy_from_slice(&2u64.to_le_bytes());
        bytes[40..48].copy_from_slice(&3u64.to_le_bytes());
        let fixed = pack_checksum(&bytes[..HEADER_LEN - 8]);
        bytes[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&fixed.to_le_bytes());
        let pack = open_bytes(bytes).unwrap();
        assert!(matches!(pack.to_graph().err(), Some(PackError::Layout(_))));
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("dcs_packwriter_{name}_{}.pack", std::process::id()))
    }

    fn sample_graph() -> SignedGraph {
        let mut b = crate::GraphBuilder::new(6);
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
        assert_eq!(pack.verify().unwrap(), g);
        let decoded = pack.to_graph().unwrap();
        assert_eq!(decoded, g);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pack_of_several_write_chunks_roundtrips() {
        // 90,000 edges: a 2.4 MB pack, written in more than one chunk.
        let n = 30_000u32;
        let mut b = crate::GraphBuilder::new(n as usize);
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

    /// A seeded graph on `n` vertices from `draws` random edges (repeats
    /// fold), with weights of both signs.
    fn generated_graph(n: usize, draws: usize, seed: u64) -> SignedGraph {
        let mut state = seed;
        let mut next = move |bound: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % bound as u64) as u32
        };
        let mut b = crate::GraphBuilder::new(n);
        for _ in 0..draws {
            let (u, v) = (next(n), next(n));
            if u != v {
                b.add_edge(u, v, (f64::from(next(16)) - 7.5) / 2.0);
            }
        }
        b.build()
    }

    /// Writes `g` with each combination of the optional sections and checks
    /// the file against the oracle, whose columns are read through the row
    /// API rather than the CSR columns the writer reads.
    fn assert_writer_matches_oracle(g: &SignedGraph, tag: &str) {
        let mut offsets = vec![0u64];
        let (mut targets, mut weights) = (Vec::new(), Vec::new());
        for v in g.vertices() {
            let (nbrs, ws) = g.neighbor_slices(v);
            targets.extend_from_slice(nbrs);
            weights.extend_from_slice(ws);
            offsets.push(targets.len() as u64);
        }
        // Names of 8 to 10 bytes: apart from the empty graph's, the name
        // sections below end 2, 4 or 6 bytes past an 8-byte boundary, so the
        // session section follows padding.
        let names: Vec<String> = (0..g.num_vertices())
            .map(|v| format!("vertex-{v}"))
            .collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let session: &[u8] = b"{\"format\":1,\"monitor_version\":3}";
        for (with_names, with_session) in
            [(false, false), (true, false), (false, true), (true, true)]
        {
            let path = temp_path(&format!("oracle_{tag}_{with_names}_{with_session}"));
            PackWriter::write(
                g,
                with_names.then_some(&names[..]),
                with_session.then_some(session),
                &path,
            )
            .unwrap();
            let expected = build_pack_bytes_with_session(
                &offsets,
                &targets,
                &weights,
                with_names.then_some(&name_refs[..]),
                with_session.then_some(session),
            );
            assert!(
                std::fs::read(&path).unwrap() == expected,
                "{tag}: names {with_names}, session {with_session}"
            );
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn writer_bytes_match_the_documented_layout() {
        for (n, draws, seed) in [
            (0, 0, 1),
            (5, 0, 2),
            (12, 5, 3),
            (40, 200, 4),
            (300, 900, 5),
        ] {
            let g = generated_graph(n, draws, seed);
            if draws > 0 {
                assert!(g.num_negative_edges() > 0 && g.num_positive_edges() > 0);
            }
            if n == 12 {
                assert!(g.vertices().any(|v| g.degree(v) == 0), "no empty row");
            }
            assert_writer_matches_oracle(&g, &format!("generated_{n}_{draws}"));
        }

        // A delta snapshot: a merge of changes (new, reweighted, removed
        // edges) into the previous snapshot's columns.
        let mut delta = crate::DeltaGraph::from_graph(generated_graph(40, 200, 6));
        delta.snapshot();
        for (u, v, w) in [
            (0, 39, 2.5),
            (3, 4, -1.25),
            (1, 2, 0.0),
            (7, 8, 0.0),
            (5, 6, 4.0),
        ] {
            delta.set_weight(u, v, w);
        }
        assert_writer_matches_oracle(&delta.snapshot(), "delta_snapshot");

        // A pack-backed graph: its columns alias a mapping.
        let original = generated_graph(40, 200, 7);
        let path = temp_path("oracle_source");
        PackWriter::write_graph(&original, &path).unwrap();
        let backed = GraphPack::open(&path).unwrap().to_graph().unwrap();
        assert_eq!(backed, original);
        assert!(
            backed.is_pack_backed()
                || cfg!(not(all(
                    target_pointer_width = "64",
                    target_endian = "little"
                )))
        );
        assert_writer_matches_oracle(&backed, "pack_backed");
        std::fs::remove_file(&path).ok();

        // Rows compacted in place.
        let mut removed = generated_graph(40, 200, 8);
        removed.remove_vertices_in_place(&[0, 3, 17, 39]);
        assert_writer_matches_oracle(&removed, "removed_vertices");
    }

    #[test]
    fn sniffs_pack_files() {
        let dir = std::env::temp_dir();
        let pack_path = dir.join(format!("dcs_pack_sniff_{}.pack", std::process::id()));
        let text_path = dir.join(format!("dcs_pack_sniff_{}.edges", std::process::id()));
        std::fs::write(&pack_path, fig1_pack_bytes()).unwrap();
        std::fs::write(&text_path, "0 1 2.5\n").unwrap();
        assert!(file_is_pack(&pack_path).unwrap());
        assert!(!file_is_pack(&text_path).unwrap());
        let opened = GraphPack::open(&pack_path).unwrap();
        opened.verify().unwrap();
        assert_eq!(opened.to_graph().unwrap().num_edges(), 5);
        std::fs::remove_file(&pack_path).ok();
        std::fs::remove_file(&text_path).ok();
    }
}
