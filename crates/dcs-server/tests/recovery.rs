//! Crash-recovery tests for durable sessions.
//!
//! The core property: a session killed at an arbitrary point and recovered
//! from its directory is observation-for-observation identical to one that
//! never crashed — same version, same counters, same warm-start support, and
//! byte-identical `difference_snapshot` when serialized through the pack
//! writer.  Crashes are simulated two ways: dropping the in-process session
//! (everything written so far stays on disk, exactly what an OS sees after a
//! process kill) and fault injection that tears a WAL record mid-write.

use std::path::{Path, PathBuf};

use dcs_core::{DensityMeasure, StreamingConfig, StreamingDcs};
use dcs_datasets::PackWriter;
use dcs_graph::{SignedGraph, VertexId, Weight};
use dcs_server::{durable, Client, Server, ServerConfig, Session, WalSync};
use serde_json::json;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dcs_recovery_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config() -> StreamingConfig {
    StreamingConfig {
        remine_every: 3,
        alert_threshold: 0.1,
        measure: DensityMeasure::GraphAffinity,
    }
}

/// Deterministic splitmix64, the repo's stock test RNG.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic stream of observation batches over `vertices` vertices:
/// mixed quiet noise and a growing hot triangle, so cadence mining fires and
/// records warm-start supports.
fn batches(vertices: u32, count: usize, seed: u64) -> Vec<Vec<(VertexId, VertexId, Weight)>> {
    let mut state = seed;
    (0..count)
        .map(|i| {
            let u = (splitmix64(&mut state) % u64::from(vertices)) as u32;
            let v = (u + 1 + (splitmix64(&mut state) % u64::from(vertices - 1)) as u32) % vertices;
            let w = 0.05 + (splitmix64(&mut state) % 100) as f64 / 400.0;
            if i % 2 == 0 {
                vec![(0, 1, 0.4), (1, 2, 0.4), (0, 2, 0.4), (u, v, w)]
            } else {
                vec![(u, v, w)]
            }
        })
        .collect()
}

/// Serializes the difference snapshot through the pack writer and returns the
/// file bytes — the byte-equality half of the recovery property.
fn snapshot_bytes(monitor: &mut StreamingDcs, path: &PathBuf) -> Vec<u8> {
    let snapshot: std::sync::Arc<SignedGraph> = monitor.difference_snapshot();
    PackWriter::write_graph(&snapshot, path).unwrap();
    std::fs::read(path).unwrap()
}

/// Asserts the full recovery property between a recovered session and an
/// uncrashed control at the same point in the stream.
fn assert_identical(recovered: &mut Session, control: &mut Session, scratch: &Path) {
    assert_eq!(recovered.version(), control.version());
    assert_eq!(
        recovered.monitor().observations(),
        control.monitor().observations()
    );
    assert_eq!(
        recovered.monitor().updates_since_mine(),
        control.monitor().updates_since_mine()
    );
    assert_eq!(
        recovered.monitor().last_support(),
        control.monitor().last_support(),
        "warm-start support diverged"
    );
    assert_eq!(
        recovered.monitor().observed_edges_sorted(),
        control.monitor().observed_edges_sorted()
    );
    let recovered_pack = scratch.join("recovered.dcspack");
    let control_pack = scratch.join("control.dcspack");
    assert_eq!(
        snapshot_bytes(recovered.monitor_mut(), &recovered_pack),
        snapshot_bytes(control.monitor_mut(), &control_pack),
        "difference_snapshot bytes diverged"
    );
}

/// Kills a durable session at randomized WAL offsets (torn mid-record by
/// fault injection) and asserts the recovered session matches an uncrashed
/// control that saw exactly the logged prefix of the stream.
#[test]
fn recovery_is_identical_to_an_uncrashed_session() {
    let data_dir = temp_dir("identity");
    let stream = batches(24, 20, 0xdc5_0001);
    let mut rng = 0xdc5_0002u64;
    for trial in 0..6 {
        let name = format!("s{trial}");
        let mut durable_session =
            durable::create_durable_session(&data_dir, &name, 24, config(), WalSync::Group)
                .unwrap();
        // Tear the log at a random byte offset; trial 0 keeps the log intact
        // (clean-kill recovery, no torn tail).
        if trial > 0 {
            let cut = 40 + splitmix64(&mut rng) % 1200;
            durable_session.wal_fault_after_bytes(Some(cut));
        }
        // Half the trials checkpoint mid-stream so recovery exercises
        // checkpoint-load + WAL-tail replay, not just full replay.
        let checkpoint_at = if trial % 2 == 1 { Some(4) } else { None };
        let mut control = Session::new(24, config()).unwrap();
        let mut survived = 0;
        for (i, batch) in stream.iter().enumerate() {
            if durable_session.observe(batch).is_err() {
                break;
            }
            survived = i + 1;
            if checkpoint_at == Some(i) {
                durable_session.checkpoint().unwrap();
            }
        }
        for batch in &stream[..survived] {
            control.observe(batch).unwrap();
        }
        // The crash: drop the in-process session without flushing.
        drop(durable_session);
        let dir = data_dir.join(durable::encode_session_dir(&name));
        let (recovered_name, mut recovered) = durable::open_session_dir(&dir, WalSync::Group)
            .unwrap_or_else(|e| panic!("trial {trial}: recovery failed: {e}"));
        assert_eq!(recovered_name, name);
        assert_identical(&mut recovered, &mut control, &data_dir);
        // A recovered session keeps working: the stream continues and both
        // sides stay in lockstep.
        for batch in &stream[survived..] {
            recovered.observe(batch).unwrap();
            control.observe(batch).unwrap();
        }
        assert_identical(&mut recovered, &mut control, &data_dir);
    }
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// A torn final record (partial line, no newline) is truncated on recovery
/// and the session resumes appending after the last complete record.
#[test]
fn torn_wal_tail_is_truncated_on_recovery() {
    let data_dir = temp_dir("torn_tail");
    let stream = batches(16, 6, 0xdc5_0010);
    let mut session =
        durable::create_durable_session(&data_dir, "torn", 16, config(), WalSync::Group).unwrap();
    let mut control = Session::new(16, config()).unwrap();
    for batch in &stream {
        session.observe(batch).unwrap();
        control.observe(batch).unwrap();
    }
    drop(session);
    let dir = data_dir.join(durable::encode_session_dir("torn"));
    // Append a torn record by hand: a prefix of a plausible observe line.
    let wal = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-"))
        })
        .expect("a WAL segment exists");
    let intact = std::fs::read(&wal).unwrap();
    let mut torn = intact.clone();
    torn.extend_from_slice(br#"{"kind":"observe","v":99,"updates":[[0,1"#);
    std::fs::write(&wal, &torn).unwrap();

    let (_, mut recovered) = durable::open_session_dir(&dir, WalSync::Group).unwrap();
    assert_identical(&mut recovered, &mut control, &data_dir);
    // Recovery repaired the file in place: the torn bytes are gone.
    assert_eq!(std::fs::read(&wal).unwrap(), intact);
    // And the log accepts new records after the repair.
    recovered.observe(&[(3, 4, 0.5)]).unwrap();
    control.observe(&[(3, 4, 0.5)]).unwrap();
    assert_eq!(recovered.version(), control.version());
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// A corrupt newest checkpoint falls back to the previous generation, whose
/// WAL segments are still on disk (the pruner keeps one generation of
/// history), and replay reconstructs the exact same state.
#[test]
fn corrupt_checkpoint_falls_back_a_generation() {
    let data_dir = temp_dir("fallback");
    let stream = batches(16, 15, 0xdc5_0020);
    let mut session =
        durable::create_durable_session(&data_dir, "fb", 16, config(), WalSync::Group).unwrap();
    let mut control = Session::new(16, config()).unwrap();
    for (i, batch) in stream.iter().enumerate() {
        session.observe(batch).unwrap();
        control.observe(batch).unwrap();
        if i == 4 || i == 9 {
            assert!(session.checkpoint().unwrap());
        }
    }
    drop(session);
    let dir = data_dir.join(durable::encode_session_dir("fb"));
    let mut checkpoints: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("ckpt-"))
        })
        .collect();
    checkpoints.sort();
    assert_eq!(checkpoints.len(), 2, "pruner keeps exactly two generations");
    // Corrupt the newest checkpoint's payload (flip bytes past the header).
    let newest = checkpoints.last().unwrap();
    let mut bytes = std::fs::read(newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    bytes[mid + 1] ^= 0xff;
    std::fs::write(newest, &bytes).unwrap();

    let (_, mut recovered) = durable::open_session_dir(&dir, WalSync::Group).unwrap();
    assert_identical(&mut recovered, &mut control, &data_dir);
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// A failed checkpoint fail-stops the session: with the session directory
/// gone, the next observe must be refused, not acknowledged into a WAL file
/// that recovery can no longer find.
#[test]
fn failed_checkpoint_makes_the_session_read_only() {
    let data_dir = temp_dir("failed_checkpoint");
    let mut session =
        durable::create_durable_session(&data_dir, "gone", 8, config(), WalSync::Group).unwrap();
    assert_eq!(session.observe(&[(0, 1, 0.5)]).unwrap().applied, 1);
    std::fs::remove_dir_all(&data_dir).unwrap();
    assert!(session.checkpoint().is_err());
    let error = session.observe(&[(1, 2, 0.5)]).unwrap_err();
    assert!(
        error.to_string().contains("read-only until recovered"),
        "{error}"
    );
}

/// Offline inspection (`dcs sessions`) reports the recoverable version
/// without repairing anything.
#[test]
fn inspect_reports_recoverable_state() {
    let data_dir = temp_dir("inspect");
    let stream = batches(16, 5, 0xdc5_0030);
    let mut session =
        durable::create_durable_session(&data_dir, "looked-at", 16, config(), WalSync::Group)
            .unwrap();
    let mut version = 0;
    for batch in &stream {
        session.observe(batch).unwrap();
        version = session.version();
    }
    drop(session);
    let summaries = durable::inspect_data_dir(&data_dir).unwrap();
    assert_eq!(summaries.len(), 1);
    assert_eq!(summaries[0].name, "looked-at");
    assert_eq!(summaries[0].vertices, 16);
    assert_eq!(summaries[0].recovered_version, Some(version));
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// The wire-level story: a server with a data directory restarts and every
/// durable session comes back at its acked version; `create_session` against
/// an existing directory recovers on demand; dropping a durable session
/// removes its directory.
#[test]
fn server_restart_recovers_durable_sessions() {
    let data_dir = temp_dir("server_restart");
    let server_config = || ServerConfig {
        data_dir: Some(data_dir.clone()),
        ..ServerConfig::default()
    };

    let handle = Server::bind("127.0.0.1:0", server_config())
        .expect("bind")
        .start();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let created = client
        .create_session("tenant", 32, json!({ "durable": true, "remine_every": 3 }))
        .unwrap();
    assert_eq!(created["durable"], true);
    assert_eq!(created["recovered"], false);
    let ring: Vec<(u32, u32, f64)> = (0..32u32).map(|v| (v, (v + 1) % 32, 1.0)).collect();
    client.load_baseline("tenant", &ring).unwrap();
    let mut acked_version = 0;
    for batch in batches(32, 12, 0xdc5_0040) {
        let response = client.session("tenant").observe(&batch).unwrap();
        acked_version = response["version"].as_u64().unwrap();
    }
    // Kill the server without a clean shutdown of the session.
    drop(client);
    handle.join();

    let handle = Server::bind("127.0.0.1:0", server_config())
        .expect("rebind")
        .start();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let stats = client.session("tenant").stats().unwrap();
    assert_eq!(stats["version"], acked_version);
    assert_eq!(stats["durable"], true);
    assert_eq!(stats["baseline_edges"], 32);
    // The recovered session is live, not a snapshot: observes keep working.
    let bumped = client.session("tenant").observe(&[(1, 2, 0.5)]).unwrap();
    assert_eq!(bumped["version"], acked_version + 1);
    // A durable create against a live name is a conflict, same as ephemeral.
    let conflict = client
        .create_session("tenant", 32, json!({ "durable": true }))
        .unwrap_err();
    assert!(matches!(conflict, dcs_server::ServerError::Remote(ref msg)
        if msg == "session \"tenant\" already exists"));

    // Recover-on-demand: a directory created while this server was already
    // running (e.g. copied in, or by an offline tool) is picked up by a
    // durable create rather than treated as a conflict.
    let mut offline =
        durable::create_durable_session(&data_dir, "adopted", 8, config(), WalSync::Group).unwrap();
    offline.observe(&[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
    let offline_version = offline.version();
    drop(offline);
    let adopted = client
        .create_session("adopted", 8, json!({ "durable": true }))
        .unwrap();
    assert_eq!(adopted["recovered"], true);
    let stats = client.session("adopted").stats().unwrap();
    assert_eq!(stats["version"], offline_version);

    // Dropping a durable session deletes its directory.
    client.session("adopted").drop_session().unwrap();
    assert!(!data_dir
        .join(durable::encode_session_dir("adopted"))
        .exists());
    client.shutdown().unwrap();
    handle.join();
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// Without `serve --data-dir` a durable create is a structured error, and
/// ephemeral sessions never write to disk.
#[test]
fn durable_create_requires_a_data_dir() {
    let handle = Server::bind("127.0.0.1:0", ServerConfig::default())
        .expect("bind")
        .start();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let error = client
        .create_session("nope", 8, json!({ "durable": true }))
        .unwrap_err();
    assert!(matches!(error, dcs_server::ServerError::Remote(ref msg)
        if msg == "bad request: durable sessions require a server data directory (serve --data-dir)"));
    let created = client.create_session("mem", 8, json!({})).unwrap();
    assert_eq!(created["backing"], "memory");
    assert!(created["durable"].is_null());
    client.shutdown().unwrap();
    handle.join();
}
