//! Per-session durability: write-ahead logs of accepted observes, pack-format
//! checkpoints, and crash recovery.
//!
//! ## On-disk layout
//!
//! A durable session lives in its own directory under the server's data dir
//! (`dcs serve --data-dir`), named by percent-encoding the session name:
//!
//! ```text
//! <data-dir>/<session>/
//!   session.json          creation parameters (vertices, measure, cadence, …)
//!   wal-<G>.ndjson        write-ahead log segment following checkpoint G
//!   ckpt-<G>.dcspack      checkpoint at session version G: the observed graph
//!                         as a graph pack plus a session-metadata section
//!   baseline-<B>.dcspack  baseline installed by the `load_baseline` that
//!                         advanced the session version to B
//! ```
//!
//! The WAL is NDJSON, reusing the protocol's observe serialization — one
//! record per accepted observe batch
//! (`{"kind":"observe","v":V,"updates":[[u,v,w],…]}`, with `V` the session
//! version *after* the batch) or per baseline reload
//! (`{"kind":"baseline","v":V}`, referencing `baseline-<V>.dcspack`).
//! Batches that apply nothing never change the version and are not logged.
//!
//! A checkpoint compacts the log: the snapshot of the observed graph `G2`
//! (the session's second delta graph, beside `G_D`'s) is written as an
//! ordinary graph pack whose session-metadata section (kind 5 of the
//! [`dcs_graph::pack`] format) carries the counters a session cannot
//! reconstruct from the graph alone — version counter, observation count,
//! cadence phase, warm-start support, configured measure, result-cache keys.
//! After a checkpoint at version `V` the WAL rotates to a fresh
//! `wal-<V>.ndjson`; the generation *before* the previous one is pruned, so
//! at most two checkpoint generations (and their log segments) remain.
//!
//! ## Recovery
//!
//! [`open_session_dir`] restores a session by loading the **newest valid
//! checkpoint** — a checkpoint that fails to open, verify or decode falls
//! back to the previous generation — and replaying every WAL segment in
//! ascending generation order, skipping records at or below the restored
//! version.  Every `ckpt-<G>.dcspack` and `baseline-<B>.dcspack` is verified
//! whole before use ([`GraphPack::verify`]: each section's checksum, the CSR
//! and its symmetry), since opening a pack reads only its header; a bad
//! baseline fails recovery, as no generation can do without it.  The
//! checkpoint's pack-backed graph becomes the first snapshot of the
//! recovered `G2`, no edge copied.  Replay re-applies each batch through the
//! ordinary streaming engine and asserts the resulting version matches the
//! record, so a recovered session is observation-for-observation identical
//! to one that never stopped.  A **torn tail** (a crash mid-append) is
//! tolerated in the newest segment only — rotation syncs a segment before
//! opening its successor — and truncated; corruption anywhere else aborts
//! recovery rather than silently dropping acknowledged observes.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dcs_core::{DensityMeasure, StreamingConfig, StreamingDcs};
use dcs_graph::{GraphPack, SignedGraph, VertexId, Weight};
use serde_json::{json, Value};

use crate::error::ServerError;
use crate::protocol::{parse_measure, parse_triples};
use crate::session::Session;

/// When the write-ahead log is flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WalSync {
    /// `fsync` after every appended record — an acknowledged observe is on
    /// disk before the response leaves the server.
    Always,
    /// Group commit (the default): appends buffer in the OS page cache and the
    /// server's durability thread `fsync`s them every 25 ms.  A crash can lose
    /// at most the last interval's acknowledged observes.
    #[default]
    Group,
    /// Never `fsync`; durability is left to the operating system.
    None,
}

impl WalSync {
    /// The mode's command-line token (`"always"` / `"group"` / `"none"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            WalSync::Always => "always",
            WalSync::Group => "group",
            WalSync::None => "none",
        }
    }
}

impl std::str::FromStr for WalSync {
    type Err = String;

    fn from_str(raw: &str) -> Result<Self, Self::Err> {
        match raw.to_ascii_lowercase().as_str() {
            "always" => Ok(WalSync::Always),
            "group" => Ok(WalSync::Group),
            "none" => Ok(WalSync::None),
            other => Err(format!(
                "unknown WAL sync mode {other:?} (expected \"always\", \"group\" or \"none\")"
            )),
        }
    }
}

impl std::fmt::Display for WalSync {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

fn durability_error(msg: String) -> ServerError {
    ServerError::Io(io::Error::other(msg))
}

/// Encodes a session name as a filesystem-safe directory name: ASCII
/// letters, digits, `-` and `_` pass through, every other byte becomes
/// `%XX`.  The encoding is injective, so distinct session names never share
/// a directory (and `.`/`..` cannot be produced).
pub fn encode_session_dir(name: &str) -> String {
    let mut encoded = String::with_capacity(name.len());
    for byte in name.bytes() {
        match byte {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' => encoded.push(byte as char),
            other => encoded.push_str(&format!("%{other:02X}")),
        }
    }
    encoded
}

/// Decodes a directory name produced by [`encode_session_dir`] back into the
/// session name (`None` if the encoding is malformed).
pub fn decode_session_dir(encoded: &str) -> Option<String> {
    let bytes = encoded.as_bytes();
    let mut decoded = Vec::with_capacity(bytes.len());
    let mut index = 0;
    while index < bytes.len() {
        match bytes[index] {
            b'%' => {
                let hex = encoded.get(index + 1..index + 3)?;
                decoded.push(u8::from_str_radix(hex, 16).ok()?);
                index += 3;
            }
            byte => {
                decoded.push(byte);
                index += 1;
            }
        }
    }
    String::from_utf8(decoded).ok()
}

/// The parameters a session was created with — the contents of
/// `session.json`, the durable record recovery rebuilds fresh sessions from.
#[derive(Debug, Clone)]
pub(crate) struct CreationRecord {
    pub name: String,
    pub vertices: usize,
    pub remine_every: usize,
    pub alert_threshold: f64,
    pub measure: DensityMeasure,
    /// Path of the graph pack backing the creation baseline, for sessions
    /// created with a `pack` field.  The path must remain readable across
    /// restarts — the pack is the baseline, it is not copied into the data
    /// directory.
    pub pack: Option<String>,
}

impl CreationRecord {
    pub fn config(&self) -> StreamingConfig {
        StreamingConfig {
            remine_every: self.remine_every,
            alert_threshold: self.alert_threshold,
            measure: self.measure,
        }
    }

    fn to_json(&self) -> Value {
        let mut record = json!({
            "format": 1,
            "name": self.name,
            "vertices": self.vertices,
            "remine_every": self.remine_every,
            "alert_threshold": self.alert_threshold,
            "measure": self.measure.token(),
        });
        if let Some(pack) = &self.pack {
            record["pack"] = json!(pack);
        }
        record
    }

    fn from_json(value: &Value) -> Result<Self, ServerError> {
        let field = |name: &str| -> Result<&Value, ServerError> {
            match &value[name] {
                Value::Null => Err(durability_error(format!(
                    "session.json lacks the {name:?} field"
                ))),
                present => Ok(present),
            }
        };
        let measure = parse_measure(field("measure")?.as_str())?
            .ok_or_else(|| durability_error("session.json has a non-string measure".into()))?;
        Ok(CreationRecord {
            name: field("name")?
                .as_str()
                .ok_or_else(|| durability_error("session.json name must be a string".into()))?
                .to_string(),
            vertices: field("vertices")?.as_u64().ok_or_else(|| {
                durability_error("session.json vertices must be an integer".into())
            })? as usize,
            remine_every: field("remine_every")?.as_u64().unwrap_or(0) as usize,
            alert_threshold: field("alert_threshold")?.as_f64().unwrap_or(0.0),
            measure,
            pack: value["pack"].as_str().map(str::to_string),
        })
    }
}

/// Replaces `path` atomically: `write` fills a temp file in the same
/// directory, which is `fsync`ed and renamed over `path`, and then the
/// directory is synced so the rename itself survives a crash.
fn write_atomically(path: &Path, write: impl FnOnce(&Path) -> io::Result<()>) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    write(&tmp)?;
    File::open(&tmp)?.sync_data()?;
    fs::rename(&tmp, path)?;
    sync_parent_dir(path)
}

/// `fsync`s the directory holding `path`, making a new or renamed entry
/// there durable.  The error is returned, never swallowed: an entry whose
/// directory failed to sync may vanish in a crash.
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let parent = path
        .parent()
        .filter(|parent| !parent.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    File::open(parent)?.sync_all()
}

fn triples_to_json(triples: &[(VertexId, VertexId, Weight)]) -> Value {
    Value::Array(triples.iter().map(|&(u, v, w)| json!([u, v, w])).collect())
}

/// Appender over one WAL segment.
#[derive(Debug)]
pub(crate) struct WalWriter {
    file: File,
    sync: WalSync,
    dirty: bool,
    records: u64,
    written: u64,
    /// Fault injection for the crash-recovery test harness: once this many
    /// bytes have been written, the next append writes only the prefix that
    /// fits and fails — a genuine torn tail, exactly what a crash mid-write
    /// leaves behind.
    fault_after: Option<u64>,
}

impl WalWriter {
    fn open_append(path: PathBuf, sync: WalSync) -> io::Result<WalWriter> {
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let written = file.metadata()?.len();
        let records = if written == 0 {
            0
        } else {
            fs::read(&path)?.iter().filter(|&&b| b == b'\n').count() as u64
        };
        Ok(WalWriter {
            file,
            sync,
            dirty: false,
            records,
            written,
            fault_after: None,
        })
    }

    pub fn records(&self) -> u64 {
        self.records
    }

    pub fn set_fault_after(&mut self, limit: Option<u64>) {
        self.fault_after = limit;
    }

    fn append(&mut self, record: &Value) -> Result<(), ServerError> {
        let mut line = serde_json::to_string(record)
            .map_err(|e| durability_error(format!("unserializable WAL record: {e}")))?;
        line.push('\n');
        if let Some(limit) = self.fault_after {
            let room = limit.saturating_sub(self.written) as usize;
            if room < line.len() {
                // Simulated crash: a prefix of the record reaches the disk,
                // the rest never does.
                self.file.write_all(&line.as_bytes()[..room])?;
                let _ = self.file.sync_data();
                self.written += room as u64;
                return Err(durability_error(
                    "injected WAL fault: torn write".to_string(),
                ));
            }
        }
        self.file.write_all(line.as_bytes())?;
        self.written += line.len() as u64;
        self.records += 1;
        match self.sync {
            WalSync::Always => self.file.sync_data()?,
            WalSync::Group => self.dirty = true,
            WalSync::None => {}
        }
        Ok(())
    }

    fn flush_sync(&mut self) -> io::Result<()> {
        if self.dirty {
            self.file.sync_data()?;
            self.dirty = false;
        }
        Ok(())
    }
}

/// The durable half of a [`Session`]: its directory, current WAL segment and
/// checkpoint generation.
#[derive(Debug)]
pub(crate) struct DurableSession {
    pub dir: PathBuf,
    wal: WalWriter,
    /// Version of the newest checkpoint (0 before the first one): names the
    /// live WAL segment `wal-<generation>.ndjson`.
    generation: u64,
    sync: WalSync,
    /// Version of the baseline currently installed (0 = the creation
    /// baseline; otherwise `baseline-<id>.dcspack`).
    baseline_id: u64,
    /// Set when a WAL append fails partway: the in-memory session is now
    /// ahead of the log, so further appends would record versions replay
    /// cannot reproduce.  A poisoned session rejects mutations until it is
    /// recovered from disk (fail-stop, never silent divergence).
    poisoned: bool,
}

/// The session state a checkpoint persists (assembled under the session
/// lock by [`Session::checkpoint`]).
pub(crate) struct CheckpointState {
    pub monitor_version: u64,
    pub version_base: u64,
    pub observations: usize,
    pub updates_since_mine: usize,
    pub last_support: Option<Vec<VertexId>>,
    /// The observed graph's snapshot.
    pub observed: Arc<SignedGraph>,
    pub config: StreamingConfig,
    pub cache_keys: Vec<String>,
}

fn ckpt_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("ckpt-{generation}.dcspack"))
}

fn wal_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("wal-{generation}.ndjson"))
}

fn baseline_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("baseline-{id}.dcspack"))
}

/// Generations of the files `prefix-<n>.<ext>` present in `dir`, ascending.
fn generations(dir: &Path, prefix: &str, ext: &str) -> Vec<u64> {
    let mut gens = Vec::new();
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(rest) = name.strip_prefix(prefix) {
                if let Some(number) = rest.strip_suffix(ext) {
                    if let Ok(generation) = number.parse::<u64>() {
                        gens.push(generation);
                    }
                }
            }
        }
    }
    gens.sort_unstable();
    gens
}

impl DurableSession {
    /// Whether a previous WAL failure left the log behind the in-memory
    /// session (see the `poisoned` field).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    fn check_poisoned(&self) -> Result<(), ServerError> {
        if self.poisoned {
            return Err(durability_error(
                "session WAL previously failed; the session is read-only until recovered"
                    .to_string(),
            ));
        }
        Ok(())
    }

    fn poison_on_err<T>(&mut self, result: Result<T, ServerError>) -> Result<T, ServerError> {
        if result.is_err() {
            self.poisoned = true;
        }
        result
    }

    /// Appends one accepted observe batch (`version` is the session version
    /// after applying it).
    pub fn append_observe(
        &mut self,
        version: u64,
        updates: &[(VertexId, VertexId, Weight)],
    ) -> Result<(), ServerError> {
        self.check_poisoned()?;
        let record = json!({
            "kind": "observe",
            "v": version,
            "updates": triples_to_json(updates),
        });
        let result = self.wal.append(&record);
        self.poison_on_err(result)
    }

    /// Persists a freshly installed baseline (`version` is the session's new
    /// `version_base`) as `baseline-<version>.dcspack` plus a WAL record.
    pub fn log_baseline(
        &mut self,
        version: u64,
        baseline: &SignedGraph,
    ) -> Result<(), ServerError> {
        self.check_poisoned()?;
        let result = write_atomically(&baseline_path(&self.dir, version), |tmp| {
            dcs_graph::PackWriter::write_graph(baseline, tmp).map(drop)
        })
        .map_err(ServerError::Io)
        .and_then(|()| {
            self.baseline_id = version;
            self.wal
                .append(&json!({ "kind": "baseline", "v": version }))
        });
        self.poison_on_err(result)
    }

    /// Flushes group-committed WAL bytes to stable storage.
    pub fn flush(&mut self) -> Result<(), ServerError> {
        let result = self.wal.flush_sync().map_err(ServerError::Io);
        self.poison_on_err(result)
    }

    pub fn wal_records(&self) -> u64 {
        self.wal.records()
    }

    pub fn set_fault_after(&mut self, limit: Option<u64>) {
        self.wal.set_fault_after(limit);
    }

    /// Writes a checkpoint of `state`, rotates the WAL and prunes all but the
    /// previous generation.  A failure poisons the session: the WAL may have
    /// lost bytes it already acknowledged, or may no longer be reachable.
    pub fn checkpoint(&mut self, state: &CheckpointState) -> Result<(), ServerError> {
        self.check_poisoned()?;
        let result = self.write_checkpoint(state);
        self.poison_on_err(result)
    }

    fn write_checkpoint(&mut self, state: &CheckpointState) -> Result<(), ServerError> {
        let version = state.version_base + state.monitor_version;
        let meta = json!({
            "format": 1,
            "monitor_version": state.monitor_version,
            "version_base": state.version_base,
            "observations": state.observations,
            "updates_since_mine": state.updates_since_mine,
            "last_support": match &state.last_support {
                None => Value::Null,
                Some(support) => json!(support.clone()),
            },
            "baseline": self.baseline_id,
            "measure": state.config.measure.token(),
            "remine_every": state.config.remine_every,
            "alert_threshold": state.config.alert_threshold,
            "cache_keys": state.cache_keys.clone(),
        });
        let meta_bytes = serde_json::to_string(&meta)
            .map_err(|e| durability_error(format!("unserializable checkpoint metadata: {e}")))?;

        // 1. The checkpoint pack, atomically (tmp + fsync + rename + dir sync).
        write_atomically(&ckpt_path(&self.dir, version), |tmp| {
            dcs_graph::PackWriter::write_graph_with_session(
                &state.observed,
                meta_bytes.as_bytes(),
                tmp,
            )
            .map(drop)
        })?;

        // 2. Rotate the WAL: sync the old segment, open the successor and
        //    sync its directory entry.  A crash between 1 and 2 is safe —
        //    recovery replays the old segment and skips every record at or
        //    below the checkpoint version.
        self.wal.flush_sync()?;
        let segment = wal_path(&self.dir, version);
        self.wal = WalWriter::open_append(segment.clone(), self.sync)?;
        if self.sync != WalSync::None {
            sync_parent_dir(&segment)?;
        }
        let previous = self.generation;
        self.generation = version;

        // 3. Prune generations older than the previous one (torn-tail and
        //    corrupt-checkpoint recovery fall back one generation, never two).
        for gen in generations(&self.dir, "ckpt-", ".dcspack") {
            if gen < previous {
                let _ = fs::remove_file(ckpt_path(&self.dir, gen));
            }
        }
        for gen in generations(&self.dir, "wal-", ".ndjson") {
            if gen < previous {
                let _ = fs::remove_file(wal_path(&self.dir, gen));
            }
        }
        Ok(())
    }
}

/// Makes a freshly built `session` durable: creates its directory under
/// `data_dir` and its first WAL segment, records the creation parameters
/// (with `pack`, the path of the pack backing its baseline) in
/// `session.json`, and attaches the log to the session.
pub(crate) fn make_durable(
    session: &mut Session,
    data_dir: &Path,
    name: &str,
    pack: Option<String>,
    sync: WalSync,
) -> Result<(), ServerError> {
    let config = *session.monitor().config();
    let record = CreationRecord {
        name: name.to_string(),
        vertices: session.monitor().num_vertices(),
        remine_every: config.remine_every,
        alert_threshold: config.alert_threshold,
        measure: config.measure,
        pack,
    };
    let dir = data_dir.join(encode_session_dir(name));
    fs::create_dir_all(&dir)?;
    sync_parent_dir(&dir)?;
    // The segment is created before `session.json`, so the directory sync
    // that makes the record durable covers the segment's entry too.
    let wal = WalWriter::open_append(wal_path(&dir, 0), sync)?;
    let text = serde_json::to_string_pretty(&record.to_json())
        .map_err(|e| durability_error(format!("unserializable session record: {e}")))?;
    write_atomically(&dir.join("session.json"), |tmp| {
        fs::write(tmp, format!("{text}\n"))
    })?;
    session.attach_durable(DurableSession {
        dir,
        wal,
        generation: 0,
        sync,
        baseline_id: 0,
        poisoned: false,
    });
    Ok(())
}

pub(crate) fn read_creation(dir: &Path) -> Result<CreationRecord, ServerError> {
    let text = fs::read_to_string(dir.join("session.json"))?;
    let value: Value = serde_json::from_str(&text)
        .map_err(|e| durability_error(format!("cannot parse session.json: {e}")))?;
    CreationRecord::from_json(&value)
}

/// Whether `dir` holds a durable session (its `session.json` exists).
pub(crate) fn is_session_dir(dir: &Path) -> bool {
    dir.join("session.json").is_file()
}

/// State restored from a checkpoint (or from the creation record when no
/// checkpoint is loadable).
struct RecoveredState {
    monitor: StreamingDcs,
    version_base: u64,
    baseline_id: u64,
    backing: &'static str,
    pack_open_ms: Option<f64>,
}

fn load_creation_baseline(
    record: &CreationRecord,
) -> Result<(SignedGraph, &'static str, Option<f64>), ServerError> {
    match &record.pack {
        None => Ok((SignedGraph::empty(record.vertices), "memory", None)),
        Some(path) => {
            let start = std::time::Instant::now();
            let pack = GraphPack::open(path)?;
            let graph = pack.to_graph()?;
            Ok((graph, "pack", Some(start.elapsed().as_secs_f64() * 1e3)))
        }
    }
}

fn fresh_state(record: &CreationRecord) -> Result<RecoveredState, ServerError> {
    let (baseline, backing, pack_open_ms) = load_creation_baseline(record)?;
    Ok(RecoveredState {
        monitor: StreamingDcs::new(baseline, record.config())?,
        version_base: 0,
        baseline_id: 0,
        backing,
        pack_open_ms,
    })
}

/// Opens a pack of the session directory (a checkpoint or a baseline) and
/// verifies it whole before any of it is used: [`GraphPack::open`] alone
/// checks only the header.  Returns the pack with the graph the audit
/// decoded.
fn open_verified(path: &Path) -> Result<(GraphPack, SignedGraph), ServerError> {
    let pack = GraphPack::open(path)?;
    let graph = pack.verify()?;
    Ok((pack, graph))
}

fn load_checkpoint(
    dir: &Path,
    generation: u64,
    record: &CreationRecord,
) -> Result<RecoveredState, ServerError> {
    let (pack, observed) = open_verified(&ckpt_path(dir, generation))?;
    let meta_bytes = pack
        .session_bytes()
        .ok_or_else(|| durability_error("checkpoint lacks a session-metadata section".into()))?;
    let meta_text = std::str::from_utf8(meta_bytes)
        .map_err(|_| durability_error("checkpoint metadata is not UTF-8".into()))?;
    let meta: Value = serde_json::from_str(meta_text)
        .map_err(|e| durability_error(format!("cannot parse checkpoint metadata: {e}")))?;
    if meta["format"].as_u64() != Some(1) {
        return Err(durability_error(format!(
            "unsupported checkpoint metadata format {}",
            meta["format"]
        )));
    }
    let int = |name: &str| -> Result<u64, ServerError> {
        meta[name].as_u64().ok_or_else(|| {
            durability_error(format!("checkpoint metadata lacks the {name:?} counter"))
        })
    };
    let monitor_version = int("monitor_version")?;
    let version_base = int("version_base")?;
    let observations = int("observations")? as usize;
    let updates_since_mine = int("updates_since_mine")? as usize;
    let baseline_id = int("baseline")?;
    let last_support = match &meta["last_support"] {
        Value::Null => None,
        value => {
            let raw = value.as_array().ok_or_else(|| {
                durability_error("checkpoint metadata last_support must be an array".into())
            })?;
            let mut support = Vec::with_capacity(raw.len());
            for entry in raw {
                support.push(
                    entry
                        .as_u64()
                        .and_then(|v| VertexId::try_from(v).ok())
                        .ok_or_else(|| {
                            durability_error(
                                "checkpoint metadata last_support holds a non-vertex".into(),
                            )
                        })?,
                );
            }
            Some(support)
        }
    };

    // A bad baseline fails this generation and every older one (their WAL
    // replays install it, or they name it too), and so recovery.
    let (baseline, backing, pack_open_ms) = if baseline_id == 0 {
        load_creation_baseline(record)?
    } else {
        let (_, graph) = open_verified(&baseline_path(dir, baseline_id))?;
        (graph, "memory", None)
    };
    let mut monitor = StreamingDcs::with_initial_observation(baseline, &observed, record.config())?;
    monitor.restore_counters(
        monitor_version,
        observations,
        updates_since_mine,
        last_support,
    );
    Ok(RecoveredState {
        monitor,
        version_base,
        baseline_id,
        backing,
        pack_open_ms,
    })
}

/// Replays one WAL segment into `state`.  `newest` segments may end in a
/// torn tail, which is truncated when `repair` is set; any other
/// malformation is an error.
fn replay_segment(
    dir: &Path,
    path: &Path,
    state: &mut RecoveredState,
    config: StreamingConfig,
    newest: bool,
    repair: bool,
) -> Result<(), ServerError> {
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(ServerError::Io(e)),
    };
    let mut offset = 0usize;
    while offset < bytes.len() {
        let newline = bytes[offset..].iter().position(|&b| b == b'\n');
        let (line, next) = match newline {
            Some(end) => (&bytes[offset..offset + end], offset + end + 1),
            None => (&bytes[offset..], bytes.len()),
        };
        let record = std::str::from_utf8(line)
            .ok()
            .and_then(|text| serde_json::from_str::<Value>(text.trim()).ok());
        let Some(record) = record.filter(|_| newline.is_some()) else {
            // Unparsable or unterminated: a torn tail if this is the newest
            // segment, corruption otherwise.
            if !newest {
                return Err(durability_error(format!(
                    "corrupt WAL record in non-tail segment {}",
                    path.display()
                )));
            }
            if repair {
                OpenOptions::new()
                    .write(true)
                    .open(path)?
                    .set_len(offset as u64)?;
            }
            return Ok(());
        };
        let version = record["v"].as_u64().ok_or_else(|| {
            durability_error(format!(
                "WAL record without a version in {}",
                path.display()
            ))
        })?;
        if version > state.version_base + state.monitor.version() {
            match record["kind"].as_str() {
                Some("observe") => {
                    let updates = parse_triples(&record, "updates")?;
                    state.monitor.apply_batch(updates.iter().copied());
                    let replayed = state.version_base + state.monitor.version();
                    if replayed != version {
                        return Err(durability_error(format!(
                            "WAL replay diverged: record v={version}, replayed v={replayed}"
                        )));
                    }
                }
                Some("baseline") => {
                    let (_, baseline) = open_verified(&baseline_path(dir, version))?;
                    state.monitor = StreamingDcs::new(baseline, config)?;
                    state.version_base = version;
                    state.baseline_id = version;
                    state.backing = "memory";
                    state.pack_open_ms = None;
                }
                other => {
                    return Err(durability_error(format!(
                        "unknown WAL record kind {other:?}"
                    )));
                }
            }
        }
        offset = next;
    }
    Ok(())
}

fn open_session_dir_impl(
    dir: &Path,
    sync: WalSync,
    repair: bool,
) -> Result<(String, Session), ServerError> {
    let record = read_creation(dir)?;
    let config = record.config();

    // Newest valid checkpoint, falling back a generation on corruption.
    let mut checkpoints = generations(dir, "ckpt-", ".dcspack");
    checkpoints.reverse();
    let mut state = None;
    let mut chosen = 0u64;
    for generation in checkpoints {
        match load_checkpoint(dir, generation, &record) {
            Ok(loaded) => {
                state = Some(loaded);
                chosen = generation;
                break;
            }
            Err(e) => {
                eprintln!(
                    "dcs-server: checkpoint {} unusable ({e}); falling back a generation",
                    ckpt_path(dir, generation).display()
                );
            }
        }
    }
    let mut state = match state {
        Some(state) => state,
        None => fresh_state(&record)?,
    };

    // Replay every WAL segment in ascending generation order; records at or
    // below the restored version are skipped.
    let segments = generations(dir, "wal-", ".ndjson");
    for (index, &generation) in segments.iter().enumerate() {
        let newest = index + 1 == segments.len();
        replay_segment(
            dir,
            &wal_path(dir, generation),
            &mut state,
            config,
            newest,
            repair,
        )?;
    }

    // Reopen (or create) the newest segment for appending.
    let generation = segments.last().copied().unwrap_or(chosen).max(chosen);
    let wal = WalWriter::open_append(wal_path(dir, generation), sync)?;
    let durable = DurableSession {
        dir: dir.to_path_buf(),
        wal,
        generation,
        sync,
        baseline_id: state.baseline_id,
        poisoned: false,
    };
    let session = Session::from_recovered(
        state.monitor,
        state.version_base,
        state.backing,
        state.pack_open_ms,
        durable,
    );
    Ok((record.name, session))
}

/// Recovers a durable session from its directory: newest valid checkpoint,
/// WAL tail replay, torn-tail truncation.  Returns the session name (from
/// `session.json`) and the restored [`Session`], ready for observes.
pub fn open_session_dir(dir: &Path, sync: WalSync) -> Result<(String, Session), ServerError> {
    open_session_dir_impl(dir, sync, true)
}

/// Creates a fresh durable session backed by `data_dir/<encoded name>`: an
/// empty baseline of `vertices` vertices, `session.json`, and WAL segment 0.
pub fn create_durable_session(
    data_dir: &Path,
    name: &str,
    vertices: usize,
    config: StreamingConfig,
    sync: WalSync,
) -> Result<Session, ServerError> {
    let mut session = Session::new(vertices, config)?;
    make_durable(&mut session, data_dir, name, None, sync)?;
    Ok(session)
}

/// One session directory's summary, as reported by `dcs sessions`.
#[derive(Debug, Clone)]
pub struct SessionDirSummary {
    /// The session name recorded in `session.json`.
    pub name: String,
    /// The session's directory under the data dir.
    pub directory: PathBuf,
    /// Vertex count the session was created with.
    pub vertices: usize,
    /// The configured density measure (`"affinity"` / `"degree"`).
    pub measure: String,
    /// The configured re-mining cadence (0 = on-demand mining only).
    pub remine_every: usize,
    /// Version of the newest checkpoint on disk, if any.
    pub checkpoint_generation: Option<u64>,
    /// Number of WAL segments on disk.
    pub wal_segments: usize,
    /// Total WAL bytes across the segments.
    pub wal_bytes: u64,
    /// The session version a recovery right now would restore (`None` when
    /// the directory cannot be recovered).
    pub recovered_version: Option<u64>,
}

/// Inspects a server data directory without modifying it (torn tails are
/// left in place): one summary per durable session directory, sorted by
/// name.
pub fn inspect_data_dir(data_dir: &Path) -> Result<Vec<SessionDirSummary>, ServerError> {
    let mut summaries = Vec::new();
    for entry in fs::read_dir(data_dir)? {
        let entry = entry?;
        let dir = entry.path();
        if !dir.is_dir() || !is_session_dir(&dir) {
            continue;
        }
        let record = read_creation(&dir)?;
        let wal_gens = generations(&dir, "wal-", ".ndjson");
        let wal_bytes = wal_gens
            .iter()
            .map(|&gen| {
                fs::metadata(wal_path(&dir, gen))
                    .map(|m| m.len())
                    .unwrap_or(0)
            })
            .sum();
        let recovered_version = open_session_dir_impl(&dir, WalSync::None, false)
            .ok()
            .map(|(_, session)| session.version());
        summaries.push(SessionDirSummary {
            name: record.name.clone(),
            directory: dir.clone(),
            vertices: record.vertices,
            measure: record.measure.token().to_string(),
            remine_every: record.remine_every,
            checkpoint_generation: generations(&dir, "ckpt-", ".dcspack").last().copied(),
            wal_segments: wal_gens.len(),
            wal_bytes,
            recovered_version,
        });
    }
    summaries.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(summaries)
}

/// Recovers every durable session under `data_dir` into fresh [`Session`]s.
/// Directories that fail to recover are reported on stderr and skipped —
/// a corrupt session must not keep the server from starting.
pub(crate) fn recover_data_dir(data_dir: &Path, sync: WalSync) -> Vec<(String, Session)> {
    let mut recovered = Vec::new();
    let Ok(entries) = fs::read_dir(data_dir) else {
        return recovered;
    };
    for entry in entries.flatten() {
        let dir = entry.path();
        if !dir.is_dir() || !is_session_dir(&dir) {
            continue;
        }
        match open_session_dir(&dir, sync) {
            Ok((name, session)) => recovered.push((name, session)),
            Err(e) => {
                eprintln!(
                    "dcs-server: cannot recover session directory {}: {e}",
                    dir.display()
                );
            }
        }
    }
    recovered.sort_by(|a, b| a.0.cmp(&b.0));
    recovered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dcs_durable_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn config() -> StreamingConfig {
        StreamingConfig {
            remine_every: 0,
            alert_threshold: 0.5,
            measure: DensityMeasure::GraphAffinity,
        }
    }

    fn edge_bits_of(edges: &[(VertexId, VertexId, Weight)]) -> Vec<(VertexId, VertexId, u64)> {
        edges.iter().map(|&(u, v, w)| (u, v, w.to_bits())).collect()
    }

    /// The edges of a session's observed-graph snapshot, weights as bits.
    fn edge_bits(session: &mut Session) -> Vec<(VertexId, VertexId, u64)> {
        let observed = session.monitor_mut().observed_graph();
        edge_bits_of(&observed.edges().collect::<Vec<_>>())
    }

    #[test]
    fn session_names_encode_to_safe_directories() {
        for name in ["plain", "has space", "slash/../dots", "ünïcode", "."] {
            let encoded = encode_session_dir(name);
            assert!(
                encoded
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'%'),
                "{encoded:?} contains unsafe bytes"
            );
            assert_eq!(decode_session_dir(&encoded).as_deref(), Some(name));
        }
        assert_ne!(encode_session_dir("a/b"), encode_session_dir("a%2Fb"));
    }

    #[test]
    fn creation_record_roundtrips_through_json() {
        let record = CreationRecord {
            name: "s".into(),
            vertices: 42,
            remine_every: 3,
            alert_threshold: 1.5,
            measure: DensityMeasure::AverageDegree,
            pack: Some("/tmp/base.dcspack".into()),
        };
        let back = CreationRecord::from_json(&record.to_json()).unwrap();
        assert_eq!(back.name, "s");
        assert_eq!(back.vertices, 42);
        assert_eq!(back.remine_every, 3);
        assert_eq!(back.alert_threshold, 1.5);
        assert_eq!(back.measure, DensityMeasure::AverageDegree);
        assert_eq!(back.pack.as_deref(), Some("/tmp/base.dcspack"));
    }

    #[test]
    fn syncing_a_missing_directory_fails() {
        let missing = temp_dir("missing").join("gone");
        assert!(sync_parent_dir(&missing.join("session.json")).is_err());
        assert!(sync_parent_dir(&missing).is_ok());
        fs::remove_dir_all(missing.parent().unwrap()).ok();
    }

    #[test]
    fn fresh_create_then_recover_is_identity() {
        let data = temp_dir("fresh");
        let mut session =
            create_durable_session(&data, "fresh", 8, config(), WalSync::None).unwrap();
        session.observe(&[(0, 1, 2.0), (2, 3, 1.0)]).unwrap();
        session.observe(&[(0, 1, 1.0)]).unwrap();
        let version = session.version();
        drop(session);

        let (name, mut recovered) =
            open_session_dir(&data.join(encode_session_dir("fresh")), WalSync::None).unwrap();
        assert_eq!(name, "fresh");
        assert_eq!(recovered.version(), version);
        assert_eq!(recovered.monitor().observations(), 3);
        assert_eq!(
            edge_bits(&mut recovered),
            edge_bits_of(&[(0, 1, 3.0), (2, 3, 1.0)])
        );
        fs::remove_dir_all(&data).ok();
    }

    #[test]
    fn checkpoint_compacts_and_recovery_replays_the_tail() {
        let data = temp_dir("ckpt");
        let mut session = create_durable_session(&data, "c", 8, config(), WalSync::None).unwrap();
        session.observe(&[(0, 1, 2.0)]).unwrap();
        session.observe(&[(1, 2, 4.0)]).unwrap();
        assert!(session.checkpoint().unwrap());
        session.observe(&[(2, 3, 1.0)]).unwrap();
        let version = session.version();
        let edges = edge_bits(&mut session);
        drop(session);

        let dir = data.join(encode_session_dir("c"));
        assert!(dir.join("ckpt-2.dcspack").is_file());
        assert!(dir.join("wal-2.ndjson").is_file());
        let (_, mut recovered) = open_session_dir(&dir, WalSync::None).unwrap();
        assert_eq!(recovered.version(), version);
        assert_eq!(edge_bits(&mut recovered), edges);
        fs::remove_dir_all(&data).ok();
    }

    #[test]
    fn inspection_reports_without_repairing() {
        let data = temp_dir("inspect");
        let mut session = create_durable_session(&data, "i", 6, config(), WalSync::None).unwrap();
        session.observe(&[(0, 1, 1.0)]).unwrap();
        drop(session);
        // A torn tail appended by a "crash".
        let wal = data.join(encode_session_dir("i")).join("wal-0.ndjson");
        let before = fs::metadata(&wal).unwrap().len();
        let mut file = OpenOptions::new().append(true).open(&wal).unwrap();
        file.write_all(b"{\"kind\":\"obse").unwrap();
        drop(file);

        let summaries = inspect_data_dir(&data).unwrap();
        assert_eq!(summaries.len(), 1);
        assert_eq!(summaries[0].name, "i");
        assert_eq!(summaries[0].vertices, 6);
        assert_eq!(summaries[0].recovered_version, Some(1));
        // Inspection must not truncate the torn tail.
        assert!(fs::metadata(&wal).unwrap().len() > before);
        fs::remove_dir_all(&data).ok();
    }
}
