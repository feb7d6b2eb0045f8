//! Admission control and event-loop behavior over a real socket: load
//! shedding with retry hints, observe-mailbox bounds, write backpressure
//! that does not stall other connections, cancel-on-disconnect liveness,
//! framing parity for a final unterminated request line, strict UTF-8
//! decoding of request lines, and the refusal of non-finite edge weights.
//!
//! These tests speak raw NDJSON over `TcpStream` instead of using
//! [`dcs_server::Client`], because the client collapses `ok: false`
//! responses into errors and the shed replies' `retry_after_ms` field is
//! exactly what is under test.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use dcs_server::{Server, ServerConfig};
use serde_json::{json, Value};

/// One raw NDJSON connection.
struct Wire {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Wire {
    fn connect(addr: SocketAddr) -> Wire {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Wire {
            writer: stream,
            reader,
        }
    }

    fn send(&mut self, request: &Value) {
        let mut line = request.to_string();
        line.push('\n');
        self.writer.write_all(line.as_bytes()).expect("send line");
    }

    fn recv(&mut self) -> Value {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "connection closed while awaiting a response");
        serde_json::from_str(line.trim()).expect("response is JSON")
    }

    fn request(&mut self, request: &Value) -> Value {
        self.send(request);
        self.recv()
    }
}

fn start_server(config: ServerConfig) -> (dcs_server::ServerHandle, SocketAddr) {
    let handle = Server::bind("127.0.0.1:0", config).expect("bind").start();
    let addr = handle.local_addr();
    (handle, addr)
}

/// Creates a session with a ring baseline and some contrast-heavy observed
/// edges, sized so mining is real work (but far from slow).
fn seed_session(ctl: &mut Wire, name: &str, vertices: u64, extra: &Value) {
    let mut create = json!({ "cmd": "create_session", "session": name, "vertices": vertices });
    if let Some(fields) = extra.as_object() {
        for (key, value) in fields.iter() {
            create[key.as_str()] = value.clone();
        }
    }
    let created = ctl.request(&create);
    assert_eq!(created["ok"], true, "create_session: {created}");
    let edges: Vec<Value> = (0..vertices)
        .map(|u| json!([u, (u + 1) % vertices, 1.0]))
        .collect();
    let loaded = ctl.request(&json!({
        "cmd": "load_baseline", "session": name, "edges": edges,
    }));
    assert_eq!(loaded["ok"], true, "load_baseline: {loaded}");
    let updates: Vec<Value> = (0..vertices)
        .map(|u| json!([u, (u * 7 + 3) % vertices, 4.0]))
        .collect();
    let observed = ctl.request(&json!({
        "cmd": "observe", "session": name, "updates": updates,
    }));
    assert_eq!(observed["ok"], true, "observe: {observed}");
}

/// A sweep over a huge alpha grid: legitimate work that holds the single
/// worker long enough to observe queue-full shedding, while a deadline (and
/// the `cancel` command) bound it.
fn wedge_request(session: &str, job: &str) -> Value {
    let alphas: Vec<f64> = (0..100_000).map(|i| i as f64 * 1e-4).collect();
    json!({
        "cmd": "sweep", "session": session, "alphas": alphas,
        "deadline_ms": 60_000, "job": job,
    })
}

/// Polls server-wide stats until the worker has claimed a job and the queue
/// is empty again (admission counts accepted-but-unclaimed jobs).
fn wait_for_inflight(ctl: &mut Wire) -> Value {
    for _ in 0..200 {
        let stats = ctl.request(&json!({ "cmd": "stats" }));
        if stats["queue"]["inflight"].as_u64().unwrap_or(0) >= 1
            && stats["queue"]["depth"].as_i64().unwrap_or(0) == 0
        {
            return stats;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("worker never claimed the wedge job");
}

#[test]
fn queue_full_sheds_with_retry_hint_and_recovers() {
    let (handle, addr) = start_server(ServerConfig {
        worker_threads: 1,
        queue_capacity: 1,
        io_threads: 1,
        ..ServerConfig::default()
    });
    let mut ctl = Wire::connect(addr);
    seed_session(&mut ctl, "flood", 300, &json!({}));

    // Occupy the one worker...
    let mut wedge = Wire::connect(addr);
    wedge.send(&wedge_request("flood", "wedge"));
    wait_for_inflight(&mut ctl);

    // ...fill the one queue slot...
    let mut queued = Wire::connect(addr);
    queued.send(&json!({ "cmd": "mine", "session": "flood", "deadline_ms": 30_000 }));
    // The queued job is accepted (no response yet); give the event loop a
    // beat to dispatch it before flooding.
    std::thread::sleep(Duration::from_millis(100));

    // ...and flood: every further mining request must shed immediately with
    // a structured retry hint, not queue or hang.
    let mut floods: Vec<Wire> = (0..5).map(|_| Wire::connect(addr)).collect();
    let mut shed = 0;
    for (index, conn) in floods.iter_mut().enumerate() {
        let reply = conn.request(&json!({
            "cmd": "mine", "session": "flood", "id": index,
        }));
        if reply["error"] == "overloaded" {
            assert_eq!(reply["ok"], false);
            assert_eq!(reply["id"], index);
            let hint = reply["retry_after_ms"].as_u64().expect("retry hint");
            assert!(hint >= 25, "retry_after_ms {hint} below floor");
            shed += 1;
        }
    }
    assert!(shed >= 1, "no request was shed with queue_capacity=1");

    let stats = ctl.request(&json!({ "cmd": "stats" }));
    assert!(
        stats["io"]["shed"].as_u64().unwrap_or(0) >= shed,
        "io.shed missing sheds: {}",
        stats["io"]
    );

    // Unwedge; the queued job and a retry of a shed request both complete.
    let cancelled = ctl.request(&json!({ "cmd": "cancel", "job": "wedge" }));
    assert_eq!(cancelled["cancelled"], true);
    assert_eq!(wedge.recv()["ok"], true);
    assert_eq!(queued.recv()["ok"], true);
    let retried = &mut floods[0];
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let reply = retried.request(&json!({ "cmd": "mine", "session": "flood" }));
        if reply["ok"] == true {
            break;
        }
        assert_eq!(reply["error"], "overloaded");
        assert!(Instant::now() < deadline, "retry never admitted");
        std::thread::sleep(Duration::from_millis(
            reply["retry_after_ms"].as_u64().unwrap_or(50),
        ));
    }

    handle.shutdown();
    handle.join();
}

#[test]
fn observe_mailbox_bounds_cadence_sessions() {
    let (handle, addr) = start_server(ServerConfig {
        worker_threads: 1,
        queue_capacity: 64,
        io_threads: 1,
        observe_mailbox: 1,
        ..ServerConfig::default()
    });
    let mut ctl = Wire::connect(addr);
    seed_session(&mut ctl, "wedge", 300, &json!({}));
    // Every observe on this session completes a re-mining period, so its
    // observes are pooled behind the mailbox.
    seed_session(&mut ctl, "cadence", 40, &json!({ "remine_every": 1 }));

    let mut wedge = Wire::connect(addr);
    wedge.send(&wedge_request("wedge", "wedge"));
    wait_for_inflight(&mut ctl);

    // First observe takes the one mailbox slot and waits for the pool.
    let mut first = Wire::connect(addr);
    first.send(&json!({
        "cmd": "observe", "session": "cadence", "updates": [[1, 2, 1.0]],
    }));
    // Wait until it occupies the mailbox (visible in the server stats).
    let mut admitted = false;
    for _ in 0..200 {
        let stats = ctl.request(&json!({ "cmd": "stats" }));
        let pending = stats["mailbox"]["pending"].as_u64().unwrap_or(0);
        if pending >= 1 {
            admitted = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(admitted, "first observe never entered the mailbox");

    // Second observe on the same session sheds immediately.
    let mut second = Wire::connect(addr);
    let reply = second.request(&json!({
        "cmd": "observe", "session": "cadence", "updates": [[2, 3, 1.0]], "id": "again",
    }));
    assert_eq!(reply["ok"], false, "mailbox did not shed: {reply}");
    assert_eq!(reply["error"], "overloaded");
    assert!(reply["retry_after_ms"].as_u64().is_some());
    assert_eq!(reply["id"], "again");

    let stats = ctl.request(&json!({ "cmd": "stats" }));
    let mailbox_shed = stats["mailbox"]["shed"].as_u64().unwrap_or(0);
    assert!(mailbox_shed >= 1, "mailbox shed not counted: {stats}");

    // Unwedge: the admitted observe completes, the shed one succeeds on retry.
    ctl.request(&json!({ "cmd": "cancel", "job": "wedge" }));
    assert_eq!(wedge.recv()["ok"], true);
    let first_reply = first.recv();
    assert_eq!(first_reply["ok"], true, "admitted observe: {first_reply}");
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let reply = second.request(&json!({
            "cmd": "observe", "session": "cadence", "updates": [[2, 3, 1.0]],
        }));
        if reply["ok"] == true {
            break;
        }
        assert!(Instant::now() < deadline, "observe retry never admitted");
        std::thread::sleep(Duration::from_millis(50));
    }

    handle.shutdown();
    handle.join();
}

#[test]
fn slow_reader_is_backpressured_without_stalling_others() {
    let (handle, addr) = start_server(ServerConfig {
        worker_threads: 1,
        io_threads: 1,
        ..ServerConfig::default()
    });

    // The slow reader pipelines requests whose echoed ids make each response
    // ~32 KiB, and does not read until the end.  Its writes eventually block:
    // past the write high-water mark the server stops reading this
    // connection.  Written from a helper thread so the test can meanwhile
    // prove other connections stay responsive on the same event loop.
    const RESPONSES: usize = 60;
    let pad = "x".repeat(32_000);
    let slow = TcpStream::connect(addr).expect("connect slow");
    slow.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut slow_reader = BufReader::new(slow.try_clone().expect("clone"));
    let writer = std::thread::spawn({
        let mut stream = slow;
        let pad = pad.clone();
        move || {
            for index in 0..RESPONSES {
                let request = json!({ "cmd": "ping", "id": format!("{index:05}-{pad}") });
                let mut line = request.to_string();
                line.push('\n');
                stream.write_all(line.as_bytes()).expect("pipeline write");
            }
        }
    });

    // Other connections answer promptly while the slow reader's backlog sits.
    let mut other = Wire::connect(addr);
    for _ in 0..20 {
        let started = Instant::now();
        let pong = other.request(&json!({ "cmd": "ping" }));
        assert_eq!(pong["pong"], true);
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "ping stalled behind a slow reader"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Now drain the slow connection: every response arrives, in order.
    for index in 0..RESPONSES {
        let mut line = String::new();
        let n = slow_reader.read_line(&mut line).expect("slow read");
        assert!(n > 0, "slow connection closed early at {index}");
        let reply: Value = serde_json::from_str(line.trim()).expect("json");
        assert_eq!(reply["pong"], true);
        let id = reply["id"].as_str().expect("id");
        assert_eq!(&id[..5], format!("{index:05}"), "responses out of order");
    }
    writer.join().expect("writer thread");

    handle.shutdown();
    handle.join();
}

#[test]
fn disconnect_cancels_job_and_event_loop_stays_live() {
    let (handle, addr) = start_server(ServerConfig {
        worker_threads: 1,
        io_threads: 1,
        ..ServerConfig::default()
    });
    let mut ctl = Wire::connect(addr);
    seed_session(&mut ctl, "live", 300, &json!({}));

    // Start a long job, then vanish without reading the response.
    let mut doomed = Wire::connect(addr);
    doomed.send(&wedge_request("live", "doomed"));
    wait_for_inflight(&mut ctl);
    drop(doomed);

    // The event loop keeps answering instantly on other connections.
    let started = Instant::now();
    assert_eq!(ctl.request(&json!({ "cmd": "ping" }))["pong"], true);
    assert!(started.elapsed() < Duration::from_secs(2));

    // Disconnect cancelled the wedge, so the single worker frees up far
    // sooner than the wedge's 60 s deadline.
    let started = Instant::now();
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let mined =
            ctl.request(&json!({ "cmd": "mine", "session": "live", "deadline_ms": 15_000 }));
        if mined["ok"] == true {
            break;
        }
        assert_eq!(mined["error"], "overloaded");
        assert!(
            Instant::now() < deadline,
            "worker still wedged after disconnect"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "disconnected job not cancelled promptly"
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn final_unterminated_line_still_parses() {
    let (handle, addr) = start_server(ServerConfig {
        worker_threads: 1,
        io_threads: 1,
        ..ServerConfig::default()
    });

    // `BufRead::lines` parity: a request whose line never got its newline
    // still parses once the peer half-closes.
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    (&stream)
        .write_all(br#"{"cmd":"ping","id":7}"#)
        .expect("write");
    stream.shutdown(Shutdown::Write).expect("half-close");

    let mut line = String::new();
    let n = reader.read_line(&mut line).expect("read response");
    assert!(n > 0, "no response to the unterminated request");
    let reply: Value = serde_json::from_str(line.trim()).expect("json");
    assert_eq!(reply["ok"], true);
    assert_eq!(reply["pong"], true);
    assert_eq!(reply["id"], 7);

    // Nothing more arrives and the server closes its side.
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).expect("eof"), 0);

    handle.shutdown();
    handle.join();
}

#[test]
fn invalid_utf8_lines_are_rejected_not_rewritten() {
    let (handle, addr) = start_server(ServerConfig {
        worker_threads: 1,
        io_threads: 1,
        ..ServerConfig::default()
    });
    let mut wire = Wire::connect(addr);

    // A session name whose bytes are not UTF-8 is refused like malformed JSON.
    wire.writer
        .write_all(b"{\"cmd\":\"create_session\",\"session\":\"ab\xff\",\"vertices\":4}\n")
        .expect("send line");
    let reply = wire.recv();
    assert_eq!(reply["ok"], false, "{reply}");
    let error = reply["error"].as_str().expect("error string");
    assert!(error.starts_with("bad request:"), "{error}");

    // The connection stays open, and no session exists under the
    // replacement-character spelling a lossy decode would have produced.
    let pong = wire.request(&json!({ "cmd": "ping" }));
    assert_eq!(pong["ok"], true, "{pong}");
    let observe = wire.request(&json!({
        "cmd": "observe", "session": "ab\u{FFFD}", "updates": [[0, 1, 1.0]],
    }));
    assert_eq!(observe["ok"], false, "{observe}");

    handle.shutdown();
    handle.join();
}

#[test]
fn non_finite_weights_are_rejected_not_applied() {
    let (handle, addr) = start_server(ServerConfig {
        worker_threads: 1,
        io_threads: 1,
        ..ServerConfig::default()
    });
    let mut wire = Wire::connect(addr);
    let created = wire.request(&json!({
        "cmd": "create_session", "session": "s", "vertices": 4,
    }));
    assert_eq!(created["ok"], true, "{created}");

    // JSON has no infinity, but an overflowing literal parses to one.  The
    // whole request is refused, so the finite update beside it is not applied.
    for (line, field) in [
        (
            r#"{"cmd":"observe","session":"s","updates":[[0,1,1e999],[1,2,2.0]]}"#,
            "updates[0][2]",
        ),
        (
            r#"{"cmd":"load_baseline","session":"s","edges":[[0,1,1.0],[1,2,-1e999]]}"#,
            "edges[1][2]",
        ),
    ] {
        wire.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send line");
        let reply = wire.recv();
        assert_eq!(reply["ok"], false, "{reply}");
        assert_eq!(
            reply["error"],
            format!("bad request: {field} must be a finite number"),
            "{reply}"
        );
    }

    // The connection stays open and the session is untouched.
    let observed = wire.request(&json!({
        "cmd": "observe", "session": "s", "updates": [[1, 2, 2.0]],
    }));
    assert_eq!(observed["ok"], true, "{observed}");
    assert_eq!(observed["applied"], 1, "{observed}");
    assert_eq!(observed["version"], 1, "{observed}");
    let mined = wire.request(&json!({ "cmd": "mine", "session": "s" }));
    assert_eq!(mined["ok"], true, "{mined}");
    assert_eq!(mined["result"]["subset"], json!([1, 2]), "{mined}");

    handle.shutdown();
    handle.join();
}
