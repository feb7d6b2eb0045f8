//! The TCP serving tier: readiness event loops, per-connection NDJSON state
//! machines, dispatch, and admission control.
//!
//! Connections are **not** one-thread-each.  A blocking accept thread hands
//! fresh sockets round-robin to a small fixed set of I/O threads; each I/O
//! thread runs a readiness event loop (epoll on Linux, `poll(2)` elsewhere —
//! the [`netpoll`] shim) over the connections it owns.  Requests are framed
//! incrementally from partial reads, dispatched serially per connection (one
//! in-flight job each, preserving response order), and CPU-bound work goes to
//! the worker pool with a completion callback that posts the rendered
//! response back to the owning event loop — an I/O thread never blocks on a
//! socket, a lock held across a solve, or a reply channel.
//!
//! Admission control runs end to end: the pool's bounded queue and each
//! session's observe mailbox shed excess load with a structured
//! `{"error": "overloaded", "retry_after_ms": N}` reply, and a connection
//! whose peer stops reading is write-backpressured (the loop stops reading —
//! and therefore parsing and dispatching — until its write buffer drains)
//! without stalling any other connection.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dcs_core::{CancelToken, DensityMeasure, SolveContext, StreamingConfig};
use netpoll::{Event, Interest, Poller, Waker};
use serde_json::{json, Value};

use crate::durable;
use crate::error::ServerError;
use crate::jobs::{JobSpec, JobTable, WorkerPool};
use crate::metrics::ServerMetrics;
use crate::protocol::{
    alert_to_json, error_response, ok_response, CreateSessionRequest, Decoded, JobBounds, Request,
    Response,
};
use crate::session::{Session, SessionRegistry, SharedSession};
use crate::ServerConfig;

/// Token the event loop's self-pipe waker is registered under (never a valid
/// connection slot).
const WAKER_TOKEN: usize = usize::MAX;

/// Stop dispatching (and reading) for a connection once this much unflushed
/// response data has accumulated — the peer is not keeping up.
const HIGH_WATER: usize = 256 * 1024;

/// Resume a write-throttled connection once its backlog drains below this.
const LOW_WATER: usize = 64 * 1024;

/// Bytes per `read(2)` pass.
const READ_CHUNK: usize = 16 * 1024;

/// Stop reading a socket once this many parsed-but-undispatched requests are
/// queued for it (requests dispatch one at a time per connection, so a
/// pipelining flood would otherwise buffer unboundedly in memory).
const MAX_PIPELINE: usize = 128;

/// The longest request line a connection may send, its `\n` not counted:
/// enough for a `load_baseline` of 4M edges (larger baselines belong in
/// packs).  A longer line, complete or not, is answered with one error that
/// names the limit, and the connection is closed after the requests before
/// it are answered; its bytes are dropped as soon as the limit is passed, so
/// one client cannot grow the read buffer past it.
const MAX_LINE_BYTES: usize = 64 << 20;

/// After shutdown, how long the event loops keep flushing connections that
/// have no job in flight before force-closing what remains.
const SHUTDOWN_DRAIN_CAP: Duration = Duration::from_secs(5);

/// The durability thread's interval: each tick `fsync`s the group-committed
/// WAL bytes of every durable session and checks its checkpoint trigger.
const GROUP_COMMIT: Duration = Duration::from_millis(25);

/// A bound but not yet running mining server.
pub struct Server {
    listener: TcpListener,
    config: ServerConfig,
}

/// Per-server I/O event counters (the `io` block of the `stats` payload).
#[derive(Default)]
struct IoStats {
    accepts: AtomicU64,
    read_events: AtomicU64,
    write_events: AtomicU64,
    opened: AtomicU64,
    closed: AtomicU64,
    /// Requests answered with `overloaded` (queue full or mailbox full).
    shed: AtomicU64,
}

/// Mailbox and waker of one I/O event loop: the accept thread posts new
/// connections here, pool-worker completions post finished responses.
struct IoShared {
    inbox: Mutex<Vec<IoMsg>>,
    waker: Waker,
}

impl IoShared {
    fn post(&self, msg: IoMsg) {
        self.inbox
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(msg);
        self.waker.wake();
    }
}

/// Work delivered to an I/O thread through its inbox.
enum IoMsg {
    /// A freshly accepted (already nonblocking) connection to adopt.
    Conn(TcpStream),
    /// A pooled job finished: deliver `line` to `slot` if it still holds
    /// connection `conn_id` (slots are reused; stale deliveries are dropped —
    /// the job's accounting already happened in its completion callback).
    JobDone {
        slot: usize,
        conn_id: u64,
        line: String,
    },
}

/// Shared state of a running server.
struct Shared {
    registry: SessionRegistry,
    pool: WorkerPool,
    jobs: JobTable,
    config: ServerConfig,
    metrics: ServerMetrics,
    shutting_down: AtomicBool,
    io: Vec<Arc<IoShared>>,
    io_stats: IoStats,
    io_backend: &'static str,
}

impl Shared {
    fn wake_io(&self) {
        for io in &self.io {
            io.waker.wake();
        }
    }
}

/// Handle to a running server: address, shutdown, join.
pub struct ServerHandle {
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    io_handles: Vec<JoinHandle<()>>,
    durable_thread: Option<JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener (use port 0 for an ephemeral port).
    pub fn bind<A: ToSocketAddrs>(addr: A, config: ServerConfig) -> Result<Self, ServerError> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            config,
        })
    }

    /// The bound address (useful before [`Self::start`] with ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("bound listener has an address")
    }

    /// Starts the accept thread and the I/O event loops and returns the
    /// handle.
    pub fn start(self) -> ServerHandle {
        let addr = self.local_addr();
        let io_threads = self.config.resolved_io_threads();
        let mut pollers = Vec::with_capacity(io_threads);
        let mut io = Vec::with_capacity(io_threads);
        for _ in 0..io_threads {
            let poller = Poller::new().expect("open readiness poller");
            let waker = Waker::new(&poller, WAKER_TOKEN).expect("open event-loop waker");
            io.push(Arc::new(IoShared {
                inbox: Mutex::new(Vec::new()),
                waker,
            }));
            pollers.push(poller);
        }
        let io_backend = pollers[0].backend_name();
        let shared = Arc::new(Shared {
            registry: SessionRegistry::new(),
            pool: WorkerPool::new(self.config.worker_threads, self.config.queue_capacity),
            jobs: JobTable::new(),
            config: self.config,
            metrics: ServerMetrics::new(),
            shutting_down: AtomicBool::new(false),
            io: io.clone(),
            io_stats: IoStats::default(),
            io_backend,
        });
        // Recover durable sessions before serving a single request: a client
        // reconnecting right after a restart must see its sessions.
        if let Some(data_dir) = shared.config.data_dir.clone() {
            let _ = std::fs::create_dir_all(&data_dir);
            for (name, session) in durable::recover_data_dir(&data_dir, shared.config.wal_sync) {
                if let Err(e) = shared.registry.insert(&name, session) {
                    eprintln!("dcs-server: cannot register recovered session {name:?}: {e}");
                }
            }
        }
        // The durability thread: every group-commit interval it fsyncs each
        // durable session's WAL and checkpoints segments past the trigger.
        let durable_thread = shared.config.data_dir.as_ref().map(|_| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("dcs-durable".into())
                .spawn(move || {
                    loop {
                        // Read the flag first so a final flush always runs
                        // after shutdown is requested.
                        let shutting = shared.shutting_down.load(Ordering::SeqCst);
                        for (name, session) in shared.registry.sessions() {
                            let mut guard = lock_session(&session);
                            if let Err(e) = guard.durable_tick(shared.config.checkpoint_every) {
                                drop(guard);
                                eprintln!(
                                    "dcs-server: durability tick failed for session {name:?}: {e}"
                                );
                            }
                        }
                        if shutting {
                            break;
                        }
                        std::thread::park_timeout(GROUP_COMMIT);
                    }
                })
                .expect("spawn durability thread")
        });
        let io_handles = pollers
            .into_iter()
            .zip(io)
            .enumerate()
            .map(|(index, (poller, io))| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dcs-io-{index}"))
                    .spawn(move || IoLoop::new(poller, io, shared).run())
                    .expect("spawn I/O thread")
            })
            .collect();
        let accept_shared = Arc::clone(&shared);
        let listener = self.listener;
        let accept_thread = std::thread::spawn(move || {
            let mut next = 0usize;
            for stream in listener.incoming() {
                if accept_shared.shutting_down.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                accept_shared
                    .io_stats
                    .accepts
                    .fetch_add(1, Ordering::Relaxed);
                if prepare_accepted(&stream).is_err() {
                    continue;
                }
                // Round-robin connections over the event loops.
                let target = &accept_shared.io[next % accept_shared.io.len()];
                next = next.wrapping_add(1);
                target.post(IoMsg::Conn(stream));
            }
        });
        ServerHandle {
            addr,
            accept_thread: Some(accept_thread),
            io_handles,
            durable_thread,
            shared,
        }
    }
}

impl ServerHandle {
    /// The address the server listens on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a `shutdown` command has been received.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting_down.load(Ordering::SeqCst)
    }

    /// Requests shutdown from the handle side (equivalent to the protocol's
    /// `shutdown` command) and wakes the accept loop and the event loops.
    pub fn shutdown(&self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        self.shared.wake_io();
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }

    /// Waits for the accept thread and the I/O threads to exit.  Connections
    /// with a job in flight or unflushed output drain first (bounded by a
    /// short grace period once jobs are done); idle connections are closed.
    pub fn join(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        self.shared.wake_io();
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
        for thread in self.io_handles.drain(..) {
            let _ = thread.join();
        }
        if let Some(thread) = self.durable_thread.take() {
            thread.thread().unpark();
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

fn lock_session(session: &SharedSession) -> MutexGuard<'_, Session> {
    session.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Readies an accepted socket for its event loop: nonblocking, and with
/// Nagle's algorithm off, so a response written right after another is sent
/// at once instead of waiting for the peer to acknowledge the first.
fn prepare_accepted(stream: &TcpStream) -> std::io::Result<()> {
    stream.set_nonblocking(true)?;
    stream.set_nodelay(true)
}

fn render_line(value: &Value) -> String {
    let mut text = serde_json::to_string(value).unwrap_or_else(|_| "{}".to_string());
    text.push('\n');
    text
}

/// A job's cancellation handle while its response is pending.
struct Inflight {
    cancel: Option<CancelToken>,
}

/// How a request left the dispatch layer.
enum Dispatch {
    /// Answered synchronously (inline commands and submission errors).
    Done(Result<Value, ServerError>),
    /// Submitted to the worker pool; the rendered response arrives later as
    /// an [`IoMsg::JobDone`].
    Pooled { cancel: Option<CancelToken> },
}

/// One connection's state machine.
struct Conn {
    /// Monotone per event loop; guards slot reuse against stale `JobDone`s.
    id: u64,
    stream: TcpStream,
    fd: RawFd,
    /// Unparsed request bytes (at most one partial line after parsing).
    read_buf: Vec<u8>,
    /// Offset into `read_buf` the newline scan resumes from.
    scan_from: usize,
    /// Complete request lines waiting to dispatch (one at a time), still
    /// undecoded: dispatch rejects a line that is not valid UTF-8.
    lines: VecDeque<Vec<u8>>,
    /// Rendered responses not yet accepted by the socket.
    write_buf: Vec<u8>,
    write_pos: usize,
    awaiting: Option<Inflight>,
    eof: bool,
    /// A line passed [`MAX_LINE_BYTES`]: nothing more is read, and once the
    /// lines before it are answered the connection gets one error and closes.
    overlong: bool,
    dead: bool,
    /// Write-backpressured: trips at [`HIGH_WATER`], clears at [`LOW_WATER`].
    throttled: bool,
    registered: bool,
    interest: Interest,
}

impl Conn {
    fn new(id: u64, stream: TcpStream, fd: RawFd) -> Conn {
        Conn {
            id,
            stream,
            fd,
            read_buf: Vec::new(),
            scan_from: 0,
            lines: VecDeque::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            awaiting: None,
            eof: false,
            overlong: false,
            dead: false,
            throttled: false,
            registered: true,
            interest: Interest::READABLE,
        }
    }

    fn unflushed(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    fn update_throttle(&mut self) {
        if !self.throttled && self.unflushed() >= HIGH_WATER {
            self.throttled = true;
        } else if self.throttled && self.unflushed() <= LOW_WATER {
            self.throttled = false;
        }
    }

    /// Splits complete lines out of `read_buf` (incremental: the scan resumes
    /// where the last one stopped, so a slowly arriving giant line is not
    /// rescanned from the start on every read).  A line longer than
    /// [`MAX_LINE_BYTES`] marks the connection `overlong` and is dropped with
    /// everything buffered after it.
    fn parse_lines(&mut self) {
        let mut start = 0usize;
        let mut index = self.scan_from;
        while let Some(offset) = self.read_buf[index..].iter().position(|&b| b == b'\n') {
            let end = index + offset;
            if end - start > MAX_LINE_BYTES {
                break;
            }
            self.lines.push_back(self.read_buf[start..end].to_vec());
            start = end + 1;
            index = start;
        }
        if self.read_buf.len() - start > MAX_LINE_BYTES {
            self.overlong = true;
            self.read_buf = Vec::new();
            self.scan_from = 0;
            return;
        }
        if start > 0 {
            self.read_buf.drain(..start);
        }
        self.scan_from = self.read_buf.len();
    }

    /// Drains readable bytes (bounded per event so one firehose connection
    /// cannot starve the loop; level-triggered polling re-reports leftovers).
    fn fill_read(&mut self) {
        if self.eof
            || self.overlong
            || self.dead
            || self.throttled
            || self.lines.len() >= MAX_PIPELINE
        {
            return;
        }
        let mut chunk = [0u8; READ_CHUNK];
        for _ in 0..16 {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    return;
                }
                Ok(n) => {
                    self.read_buf.extend_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        return;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }

    /// Writes as much buffered output as the socket accepts right now.
    fn flush(&mut self) {
        while self.write_pos < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => self.write_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.write_pos == self.write_buf.len() {
            self.write_buf.clear();
            self.write_pos = 0;
        } else if self.write_pos > LOW_WATER {
            // Compact occasionally so a long-lived throttled connection does
            // not keep already-sent bytes around.
            self.write_buf.drain(..self.write_pos);
            self.write_pos = 0;
        }
    }
}

/// Registration change a pump decided on (applied outside the borrow).
enum RegAction {
    Keep,
    Register(RawFd, Interest),
    Modify(RawFd, Interest),
    Deregister(RawFd),
}

/// One I/O thread's event loop over the connections it owns.
struct IoLoop {
    poller: Poller,
    io: Arc<IoShared>,
    shared: Arc<Shared>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_conn_id: u64,
}

impl IoLoop {
    fn new(poller: Poller, io: Arc<IoShared>, shared: Arc<Shared>) -> IoLoop {
        IoLoop {
            poller,
            io,
            shared,
            conns: Vec::new(),
            free: Vec::new(),
            next_conn_id: 1,
        }
    }

    fn live(&self) -> usize {
        self.conns.iter().flatten().count()
    }

    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut drain_started: Option<Instant> = None;
        loop {
            let shutting = self.shared.shutting_down.load(Ordering::SeqCst);
            if shutting {
                self.shutdown_sweep();
                if self.live() == 0 {
                    break;
                }
                // Connections still waiting on a pooled job get unlimited
                // time (the pool always answers); pure write-draining gets a
                // bounded grace period.
                let busy = self
                    .conns
                    .iter()
                    .flatten()
                    .any(|conn| conn.awaiting.is_some() || !conn.lines.is_empty());
                if busy {
                    drain_started = None;
                } else {
                    let started = *drain_started.get_or_insert_with(Instant::now);
                    if started.elapsed() > SHUTDOWN_DRAIN_CAP {
                        break;
                    }
                }
            }
            let timeout = if shutting {
                Duration::from_millis(25)
            } else {
                Duration::from_millis(500)
            };
            let _ = self.poller.wait(&mut events, Some(timeout));
            for &event in &events {
                if event.token == WAKER_TOKEN {
                    self.io.waker.drain();
                    continue;
                }
                self.on_event(event);
            }
            let msgs =
                std::mem::take(&mut *self.io.inbox.lock().unwrap_or_else(PoisonError::into_inner));
            for msg in msgs {
                match msg {
                    IoMsg::Conn(stream) => self.adopt(stream),
                    IoMsg::JobDone {
                        slot,
                        conn_id,
                        line,
                    } => self.job_done(slot, conn_id, line),
                }
            }
        }
        for slot in 0..self.conns.len() {
            self.close(slot);
        }
    }

    /// Closes connections that have nothing pending (shutdown path).
    fn shutdown_sweep(&mut self) {
        for slot in 0..self.conns.len() {
            let idle = matches!(
                &self.conns[slot],
                Some(conn)
                    if conn.awaiting.is_none() && conn.lines.is_empty() && conn.unflushed() == 0
            );
            if idle {
                self.close(slot);
            }
        }
    }

    fn adopt(&mut self, stream: TcpStream) {
        let fd = stream.as_raw_fd();
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.conns.push(None);
                self.conns.len() - 1
            }
        };
        if self.poller.register(fd, slot, Interest::READABLE).is_err() {
            self.free.push(slot);
            return; // dropping the stream closes the socket
        }
        let id = self.next_conn_id;
        self.next_conn_id += 1;
        self.shared.io_stats.opened.fetch_add(1, Ordering::Relaxed);
        self.conns[slot] = Some(Conn::new(id, stream, fd));
        self.pump(slot);
    }

    fn close(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            if let Some(inflight) = &conn.awaiting {
                if let Some(token) = &inflight.cancel {
                    token.cancel();
                }
            }
            if conn.registered {
                // Remove before the stream drops: the poll(2) backend must
                // not watch a closed fd.
                let _ = self.poller.deregister(conn.fd);
            }
            self.shared.io_stats.closed.fetch_add(1, Ordering::Relaxed);
            self.free.push(slot);
        }
    }

    fn on_event(&mut self, event: Event) {
        let Some(conn) = self.conns.get_mut(event.token).and_then(Option::as_mut) else {
            return; // closed earlier in this batch
        };
        if event.readable || event.hangup {
            self.shared
                .io_stats
                .read_events
                .fetch_add(1, Ordering::Relaxed);
            conn.fill_read();
        }
        if event.writable {
            self.shared
                .io_stats
                .write_events
                .fetch_add(1, Ordering::Relaxed);
        }
        if event.hangup && !conn.eof {
            // Hard hangup (reset / error) without a clean EOF: no more bytes
            // will arrive.
            conn.eof = true;
        }
        self.pump(slot_of(event));
    }

    fn job_done(&mut self, slot: usize, conn_id: u64, line: String) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if conn.id != conn_id {
            return; // slot reused since the job was submitted
        }
        conn.awaiting = None;
        conn.write_buf.extend_from_slice(line.as_bytes());
        self.pump(slot);
    }

    /// Advances a connection's state machine: parse → dispatch → flush →
    /// lifecycle/interest bookkeeping.  Everything that changes a
    /// connection's state funnels through here.
    fn pump(&mut self, slot: usize) {
        {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            conn.parse_lines();
            if conn.eof && !conn.read_buf.is_empty() {
                // `BufRead::lines` parity: a final unterminated line still
                // parses once the stream ends.
                let line = std::mem::take(&mut conn.read_buf);
                conn.scan_from = 0;
                conn.lines.push_back(line);
            }
        }
        // Serialized dispatch: one in-flight job per connection preserves
        // response ordering; write backpressure pauses the whole pipeline.
        loop {
            let line = {
                let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                    return;
                };
                conn.update_throttle();
                if conn.dead || conn.awaiting.is_some() || conn.throttled {
                    break;
                }
                match conn.lines.pop_front() {
                    Some(line) => line,
                    None => {
                        if conn.overlong {
                            // Every line before the long one is answered:
                            // refuse it, then close once the reply is out.
                            conn.overlong = false;
                            conn.eof = true;
                            let error = ServerError::BadRequest(format!(
                                "request line longer than {MAX_LINE_BYTES} bytes"
                            ));
                            conn.write_buf.extend_from_slice(
                                render_line(&error_response(&Value::Null, &error)).as_bytes(),
                            );
                        }
                        break;
                    }
                }
            };
            let conn_id = match self.conns[slot].as_ref() {
                Some(conn) => conn.id,
                None => return,
            };
            self.handle_line(slot, conn_id, line);
        }
        let action = {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            conn.flush();
            conn.update_throttle();
            if conn.eof {
                if let Some(inflight) = &conn.awaiting {
                    // The peer is gone (or half-closed); stop mining for it.
                    // The worker still answers promptly with best-so-far,
                    // which flushes if the write side survives (half-close).
                    if let Some(token) = &inflight.cancel {
                        token.cancel();
                    }
                }
            }
            let drained = conn.awaiting.is_none() && conn.lines.is_empty() && conn.unflushed() == 0;
            if conn.dead || (conn.eof && drained) {
                None // close below
            } else {
                let shutting = self.shared.shutting_down.load(Ordering::SeqCst);
                let desired = Interest {
                    readable: !conn.eof
                        && !conn.overlong
                        && !conn.throttled
                        && conn.lines.len() < MAX_PIPELINE
                        && !shutting,
                    writable: conn.unflushed() > 0,
                };
                let action = if conn.eof && !desired.readable && !desired.writable {
                    // Nothing to watch; progress arrives via JobDone only.
                    // Deregistering also stops a half-closed peer's
                    // level-triggered hangup reports from spinning the loop.
                    if conn.registered {
                        conn.registered = false;
                        RegAction::Deregister(conn.fd)
                    } else {
                        RegAction::Keep
                    }
                } else if !conn.registered {
                    conn.registered = true;
                    conn.interest = desired;
                    RegAction::Register(conn.fd, desired)
                } else if desired != conn.interest {
                    conn.interest = desired;
                    RegAction::Modify(conn.fd, desired)
                } else {
                    RegAction::Keep
                };
                Some(action)
            }
        };
        match action {
            None => self.close(slot),
            Some(RegAction::Keep) => {}
            Some(RegAction::Deregister(fd)) => {
                let _ = self.poller.deregister(fd);
            }
            Some(RegAction::Register(fd, interest)) => {
                if self.poller.register(fd, slot, interest).is_err() {
                    self.close(slot);
                }
            }
            Some(RegAction::Modify(fd, interest)) => {
                if self.poller.modify(fd, slot, interest).is_err() {
                    self.close(slot);
                }
            }
        }
    }

    fn queue_response(&mut self, slot: usize, response: &Value) {
        if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
            conn.write_buf
                .extend_from_slice(render_line(response).as_bytes());
        }
    }

    fn handle_line(&mut self, slot: usize, conn_id: u64, line: Vec<u8>) {
        // Invalid UTF-8 is rejected, never rewritten: a lossy decode would let
        // two different byte strings name the same session.
        let line = match String::from_utf8(line) {
            Ok(line) => line,
            Err(e) => {
                let response = error_response(
                    &Value::Null,
                    &ServerError::BadRequest(format!("invalid UTF-8: {}", e.utf8_error())),
                );
                self.queue_response(slot, &response);
                return;
            }
        };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return;
        }
        let Decoded { id, request } = match Request::decode(trimmed) {
            Ok(decoded) => decoded,
            Err(e) => {
                let response = error_response(
                    &Value::Null,
                    &ServerError::BadRequest(format!("invalid JSON: {e}")),
                );
                self.queue_response(slot, &response);
                return;
            }
        };
        self.shared.metrics.note_request();
        let dispatched = match request {
            Ok(request) => self.dispatch(slot, conn_id, request, &id),
            Err(error) => Dispatch::Done(Err(error)),
        };
        match dispatched {
            Dispatch::Done(Ok(body)) => {
                let response = ok_response(&id, body);
                self.queue_response(slot, &response);
            }
            Dispatch::Done(Err(error)) => {
                self.shared.metrics.note_error();
                let response = error_response(&id, &error);
                self.queue_response(slot, &response);
            }
            Dispatch::Pooled { cancel } => {
                if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
                    conn.awaiting = Some(Inflight { cancel });
                }
            }
        }
    }

    /// Runs a decoded request; `id` is what its response echoes.
    fn dispatch(&mut self, slot: usize, conn_id: u64, request: Request, id: &Value) -> Dispatch {
        let shared = &self.shared;
        match request {
            Request::Ping => Dispatch::Done(Ok(Response::Pong.into_body())),
            Request::CreateSession(create) => Dispatch::Done(create_session(create, shared)),
            Request::LoadBaseline { session, edges } => {
                Dispatch::Done(load_baseline(&session, &edges, shared))
            }
            Request::Observe { session, updates } => {
                match self.observe(slot, conn_id, id, &session, updates) {
                    Ok(dispatch) => dispatch,
                    Err(error) => Dispatch::Done(Err(error)),
                }
            }
            Request::Mine {
                session,
                measure,
                bounds,
            } => self.job(
                slot,
                conn_id,
                id,
                &session,
                JobSpec::Mine { measure },
                &bounds,
            ),
            Request::TopK {
                session,
                k,
                measure,
                bounds,
            } => self.job(
                slot,
                conn_id,
                id,
                &session,
                JobSpec::TopK { k, measure },
                &bounds,
            ),
            Request::Sweep {
                session,
                alphas,
                measure,
                bounds,
            } => self.job(
                slot,
                conn_id,
                id,
                &session,
                JobSpec::Sweep { alphas, measure },
                &bounds,
            ),
            Request::Cancel { job } => Dispatch::Done(Ok(Response::Cancelled {
                cancelled: shared.jobs.cancel(&job),
            }
            .into_body())),
            Request::Stats { session } => Dispatch::Done(stats(session.as_deref(), shared)),
            Request::ListSessions => Dispatch::Done(Ok(Response::SessionList {
                sessions: shared.registry.names(),
            }
            .into_body())),
            Request::DropSession { session } => Dispatch::Done(drop_session(&session, shared)),
            Request::ServerStats => Dispatch::Done(Ok(json!({
                "sessions": shared.registry.len(),
                "worker_threads": shared.pool.threads(),
                "solver_threads": shared.config.solver_threads,
                "io_threads": shared.io.len(),
                "queue_capacity": shared.pool.capacity(),
                "jobs_executed": shared.pool.executed(),
                "jobs_rejected": shared.pool.rejected(),
                "jobs_inflight_named": shared.jobs.len(),
            }))),
            Request::Shutdown => {
                shared.shutting_down.store(true, Ordering::SeqCst);
                shared.wake_io();
                Dispatch::Done(Ok(Response::ShuttingDown.into_body()))
            }
        }
    }

    /// Flattens a mining-job submission into the dispatch result.
    #[allow(clippy::too_many_arguments)]
    fn job(
        &mut self,
        slot: usize,
        conn_id: u64,
        id: &Value,
        name: &str,
        spec: JobSpec,
        bounds: &JobBounds,
    ) -> Dispatch {
        match self.start_job(slot, conn_id, id, name, spec, bounds) {
            Ok(dispatch) => dispatch,
            Err(error) => Dispatch::Done(Err(error)),
        }
    }

    /// Converts a pool-level `Busy` into the wire-level load-shed reply and
    /// counts the shed.
    fn overloaded(&self) -> ServerError {
        self.shared.io_stats.shed.fetch_add(1, Ordering::Relaxed);
        let capacity = self.shared.pool.capacity().max(1) as u64;
        let depth = (self.shared.pool.queue_depth() as u64).min(capacity);
        ServerError::Overloaded {
            retry_after_ms: 25 + 175 * depth / capacity,
        }
    }

    /// Dispatches an `observe`: inline for plain sessions, pooled (behind the
    /// session's mailbox) for cadence-mining sessions whose observes can
    /// trigger a solve.
    fn observe(
        &mut self,
        slot: usize,
        conn_id: u64,
        id: &Value,
        name: &str,
        updates: Vec<(dcs_graph::VertexId, dcs_graph::VertexId, dcs_graph::Weight)>,
    ) -> Result<Dispatch, ServerError> {
        let session = self.shared.registry.get(name)?;
        let (cadence_mining, mailbox) = {
            let guard = lock_session(&session);
            (
                guard.monitor().config().remine_every > 0,
                Arc::clone(guard.mailbox()),
            )
        };
        if !cadence_mining {
            // No mining can trigger: apply inline, keeping streaming cheap.
            let body = apply_observe(&session, &updates)?;
            self.shared
                .metrics
                .note_observe(body["applied"].as_u64().unwrap_or(0));
            return Ok(Dispatch::Done(Ok(body)));
        }
        // Completing a re-mining period solves inside `Session::observe`, so
        // this observe is CPU-bound: run it on the worker pool, bounded both
        // by the pool queue and by the session's observe mailbox.
        if !mailbox.try_enter(self.shared.config.observe_mailbox.max(1)) {
            return Err(self.overloaded());
        }
        let completion = {
            let shared = Arc::clone(&self.shared);
            let io = Arc::clone(&self.io);
            let id = id.clone();
            let mailbox = Arc::clone(&mailbox);
            Box::new(move |outcome: Result<Value, ServerError>| {
                mailbox.exit();
                let response = match outcome {
                    Ok(body) => {
                        shared
                            .metrics
                            .note_observe(body["applied"].as_u64().unwrap_or(0));
                        ok_response(&id, body)
                    }
                    Err(error) => {
                        shared.metrics.note_error();
                        error_response(&id, &error)
                    }
                };
                io.post(IoMsg::JobDone {
                    slot,
                    conn_id,
                    line: render_line(&response),
                });
            })
        };
        let task_session = Arc::clone(&session);
        let submitted = self.shared.pool.submit_task_with(
            Box::new(move |_workspace| apply_observe(&task_session, &updates)),
            completion,
        );
        match submitted {
            Ok(()) => Ok(Dispatch::Pooled { cancel: None }),
            Err(error) => {
                mailbox.exit();
                match error {
                    ServerError::Busy => Err(self.overloaded()),
                    other => Err(other),
                }
            }
        }
    }

    /// Submits a mining job with the same per-job bounds as before: an
    /// absolute deadline (queue time counts), a work budget, and a
    /// cancellation token reachable from other connections via the optional
    /// client-chosen `job` id.  The server's `max_job_ms` cap is a deadline
    /// of its own — the tighter of the two wins.
    #[allow(clippy::too_many_arguments)]
    fn start_job(
        &mut self,
        slot: usize,
        conn_id: u64,
        id: &Value,
        name: &str,
        spec: JobSpec,
        bounds: &JobBounds,
    ) -> Result<Dispatch, ServerError> {
        let shared = &self.shared;
        let session = shared.registry.get(name)?;
        let measure = {
            let guard = lock_session(&session);
            spec.resolved_measure(guard.monitor().config().measure)
        };

        let token = CancelToken::new();
        let mut cx = SolveContext::unbounded()
            .with_cancel(&token)
            .with_threads(shared.config.solver_threads);
        let now = Instant::now();
        let client_deadline = bounds.deadline_ms.map(|ms| now + Duration::from_millis(ms));
        let server_cap = shared
            .config
            .max_job_ms
            .map(|ms| now + Duration::from_millis(ms));
        if let Some(at) = client_deadline.into_iter().chain(server_cap).min() {
            cx = cx.with_deadline_at(at);
        }
        if let Some(units) = bounds.budget {
            cx = cx.with_budget(units);
        }
        let job_id = match &bounds.job {
            Some(id) => {
                shared.jobs.register(id, token.clone())?;
                Some(id.clone())
            }
            None => None,
        };

        let kind = spec.kind_token();
        let measure = measure.token();
        let completion = {
            let shared = Arc::clone(&self.shared);
            let io = Arc::clone(&self.io);
            let id = id.clone();
            let job_id = job_id.clone();
            Box::new(move |outcome: Result<Value, ServerError>| {
                if let Some(id) = &job_id {
                    shared.jobs.remove(id);
                }
                let response = match outcome {
                    Ok(body) => {
                        // Wall time as the client saw it: queue wait plus
                        // solve.  Cache hits are counted but excluded from
                        // the latency histograms.
                        shared.metrics.record_job(
                            kind,
                            measure,
                            now.elapsed(),
                            body["termination"].as_str(),
                            body["cached"].as_bool().unwrap_or(false),
                        );
                        ok_response(&id, body)
                    }
                    Err(error) => {
                        shared.metrics.note_error();
                        error_response(&id, &error)
                    }
                };
                io.post(IoMsg::JobDone {
                    slot,
                    conn_id,
                    line: render_line(&response),
                });
            })
        };
        match shared.pool.submit_with(session, spec, cx, completion) {
            Ok(()) => Ok(Dispatch::Pooled {
                cancel: Some(token),
            }),
            Err(error) => {
                if let Some(id) = &job_id {
                    shared.jobs.remove(id);
                }
                match error {
                    ServerError::Busy => Err(self.overloaded()),
                    other => Err(other),
                }
            }
        }
    }
}

fn slot_of(event: Event) -> usize {
    event.token
}

fn create_session(create: CreateSessionRequest, shared: &Shared) -> Result<Value, ServerError> {
    let config = StreamingConfig {
        remine_every: create.remine_every as usize,
        alert_threshold: create.alert_threshold,
        measure: create.measure.unwrap_or(DensityMeasure::GraphAffinity),
    };
    if create.durable {
        return create_durable(create, config, shared);
    }
    let session = new_session(&create, config, shared.config.max_vertices)?;
    register(create.session, session, None, shared)
}

/// Builds the session a `create_session` asks for.  With a `"pack"` field
/// the baseline comes from a graph-pack file on the server's filesystem and
/// the vertex count from the pack header — `"vertices"` becomes optional
/// and, when present, is cross-checked.  Without one the baseline is empty
/// and `"vertices"` must lie in `1..=max_vertices`.
fn new_session(
    create: &CreateSessionRequest,
    config: StreamingConfig,
    max_vertices: usize,
) -> Result<Session, ServerError> {
    let Some(path) = &create.pack else {
        let vertices = create.vertices.unwrap_or(0) as usize;
        if vertices == 0 || vertices > max_vertices {
            return Err(ServerError::BadRequest(format!(
                "vertices must be in 1..={max_vertices}"
            )));
        }
        return Session::new(vertices, config);
    };
    let session = Session::from_pack(path, config, max_vertices)?;
    let vertices = session.monitor().num_vertices();
    match create.vertices {
        Some(declared) if declared as usize != vertices => Err(ServerError::BadRequest(format!(
            "request declares {declared} vertices but the pack has {vertices}"
        ))),
        _ => Ok(session),
    }
}

/// Registers a built session under `name` and answers `session_created`;
/// `durable` is `Some(recovered)` for durable creates.
fn register(
    name: String,
    session: Session,
    durable: Option<bool>,
    shared: &Shared,
) -> Result<Value, ServerError> {
    let stats = session.stats();
    shared.registry.insert(&name, session)?;
    Ok(Response::SessionCreated {
        session: name,
        vertices: stats.vertices,
        backing: stats.backing,
        durable,
    }
    .into_body())
}

/// Creates (or recovers) a durable session under the server's data
/// directory.  An existing on-disk session directory for the name is
/// recovered in place — checkpoint load plus WAL replay — rather than
/// treated as a conflict, so `create_session {"durable": true}` doubles as
/// the recover-on-demand entry point.
fn create_durable(
    create: CreateSessionRequest,
    config: StreamingConfig,
    shared: &Shared,
) -> Result<Value, ServerError> {
    let Some(data_dir) = &shared.config.data_dir else {
        return Err(ServerError::BadRequest(
            "durable sessions require a server data directory (serve --data-dir)".into(),
        ));
    };
    if shared.registry.get(&create.session).is_ok() {
        return Err(ServerError::SessionExists(create.session));
    }
    let dir = data_dir.join(durable::encode_session_dir(&create.session));
    if durable::is_session_dir(&dir) {
        let (_, session) = durable::open_session_dir(&dir, shared.config.wal_sync)?;
        return register(create.session, session, Some(true), shared);
    }
    let mut session = new_session(&create, config, shared.config.max_vertices)?;
    durable::make_durable(
        &mut session,
        data_dir,
        &create.session,
        create.pack.clone(),
        shared.config.wal_sync,
    )?;
    register(create.session, session, Some(false), shared)
}

/// Drops a session; a durable session's on-disk state is deleted with it
/// (drop is an explicit client decision, not a crash).
fn drop_session(name: &str, shared: &Shared) -> Result<Value, ServerError> {
    let session = shared.registry.get(name)?;
    shared.registry.drop_session(name)?;
    let durable = lock_session(&session).take_durable();
    if let Some(durable) = durable {
        let _ = std::fs::remove_dir_all(&durable.dir);
    }
    Ok(Response::SessionDropped.into_body())
}

fn load_baseline(
    name: &str,
    edges: &[(dcs_graph::VertexId, dcs_graph::VertexId, dcs_graph::Weight)],
    shared: &Shared,
) -> Result<Value, ServerError> {
    let session = shared.registry.get(name)?;
    let mut guard = lock_session(&session);
    let loaded = guard.load_baseline(edges)?;
    Ok(Response::BaselineLoaded {
        baseline_edges: loaded,
        version: guard.version(),
    }
    .into_body())
}

fn apply_observe(
    session: &SharedSession,
    updates: &[(dcs_graph::VertexId, dcs_graph::VertexId, dcs_graph::Weight)],
) -> Result<Value, ServerError> {
    let mut guard = lock_session(session);
    let outcome = guard.observe(updates)?;
    let version = guard.version();
    drop(guard);
    let alerts: Vec<Value> = outcome.alerts.iter().map(alert_to_json).collect();
    Ok(Response::Observed {
        applied: outcome.applied,
        ignored: outcome.ignored,
        version,
        alerts,
    }
    .into_body())
}

fn stats(name: Option<&str>, shared: &Shared) -> Result<Value, ServerError> {
    // Without a `session` field, `stats` reports the server-wide
    // observability payload; with one, the session's counters as before.
    let Some(name) = name else {
        let mut payload = shared
            .metrics
            .render(&shared.pool, &shared.jobs, &shared.registry);
        let io = &shared.io_stats;
        let opened = io.opened.load(Ordering::Relaxed);
        let closed = io.closed.load(Ordering::Relaxed);
        payload["io"] = json!({
            "threads": shared.io.len(),
            "backend": shared.io_backend,
            "accepts": io.accepts.load(Ordering::Relaxed),
            "read_events": io.read_events.load(Ordering::Relaxed),
            "write_events": io.write_events.load(Ordering::Relaxed),
            "connections_opened": opened,
            "connections_open": opened.saturating_sub(closed),
            "shed": io.shed.load(Ordering::Relaxed),
        });
        return Ok(payload);
    };
    let session = shared.registry.get(name)?;
    let guard = lock_session(&session);
    let stats = guard.stats();
    Ok(json!({
        "vertices": stats.vertices,
        "observations": stats.observations,
        "version": stats.version,
        "observed_edges": stats.observed_edges,
        "baseline_edges": stats.baseline_edges,
        "backing": stats.backing,
        "pack_open_ms": stats.pack_open_ms,
        "cache": {
            "entries": stats.cache_entries,
            "hits": stats.cache_hits,
            "misses": stats.cache_misses,
            "evictions": stats.cache_evictions,
        },
        "durable": stats.durable,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_sockets_are_nonblocking_and_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        assert!(!accepted.nodelay().unwrap());
        prepare_accepted(&accepted).unwrap();
        assert!(accepted.nodelay().unwrap());
        // Nonblocking: a read with nothing sent returns at once.
        let mut buf = [0u8; 1];
        let error = (&accepted).read(&mut buf).unwrap_err();
        assert_eq!(error.kind(), ErrorKind::WouldBlock);
        drop(client);
    }
}
