//! The `dcs serve` child under test and one NDJSON connection to it.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use serde_json::Value;

use crate::probe::{Probe, Timed};

/// How long any single reply may take before the run counts it as timed out.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

/// A running `dcs serve` process.  Dropping it kills and reaps the process,
/// so no error path leaves a server behind.
pub struct ServerChild {
    child: Option<Child>,
    stdout: BufReader<ChildStdout>,
    pub addr: String,
}

/// The flags every server under test runs with: one worker, one I/O thread
/// and one solver thread.  The server shares the run's one CPU with the
/// generator, so more threads would only queue for it.
pub const SERVE_FLAGS: [&str; 8] = [
    "--addr",
    "127.0.0.1:0",
    "--threads",
    "1",
    "--io-threads",
    "1",
    "--solver-threads",
    "1",
];

/// The preload library built next to this binary by the `nosync` package.
const NOSYNC_LIBRARY: &str = "libdcs_benchmark_nosync.so";

impl ServerChild {
    /// Spawns the server and waits until it prints its listening address.
    /// A server with a data directory runs with flushes turned into no-ops
    /// (see `nosync/src/lib.rs`).
    pub fn spawn(dcs: &Path, data_dir: Option<&Path>) -> io::Result<ServerChild> {
        let mut command = Command::new(dcs);
        command.arg("serve").args(SERVE_FLAGS);
        if let Some(dir) = data_dir {
            let nosync = std::env::current_exe()?.with_file_name(NOSYNC_LIBRARY);
            if !nosync.is_file() {
                return Err(io::Error::other(format!("{nosync:?} is not built")));
            }
            command.arg("--data-dir").arg(dir).env("LD_PRELOAD", nosync);
        }
        let mut child = command
            .env("DCS_SOLVER_THREADS", "1")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut banner = String::new();
        stdout.read_line(&mut banner)?;
        let addr = banner
            .split_whitespace()
            .find(|word| word.starts_with("127.0.0.1:"))
            .map(str::to_string);
        // Owned before the address is checked, so that Drop reaps the child
        // when the banner is malformed.
        let mut server = ServerChild {
            child: Some(child),
            stdout,
            addr: String::new(),
        };
        server.addr = addr
            .ok_or_else(|| io::Error::other(format!("dcs serve printed no address: {banner:?}")))?;
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("running").id()
    }

    /// Peak resident set of the server so far (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// Sends `shutdown` and waits for the process to exit.
    pub fn shutdown(mut self, conn: &mut Conn) -> io::Result<()> {
        let reply = conn.request(br#"{"cmd":"shutdown"}"#)?;
        if reply["ok"] != true {
            return Err(io::Error::other(format!("shutdown refused: {reply}")));
        }
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest)?;
        let status = self.child.take().expect("running").wait()?;
        if !status.success() {
            return Err(io::Error::other(format!("dcs serve exited with {status}")));
        }
        Ok(())
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One NDJSON connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Reassembles a connection from the halves [`Conn::split`] returned.
    pub fn join(writer: TcpStream, reader: BufReader<TcpStream>) -> Conn {
        Conn { writer, reader }
    }

    /// Splits the connection into its write and read halves (for a sender
    /// and a receiver thread).
    pub fn split(self) -> (TcpStream, BufReader<TcpStream>) {
        (self.writer, self.reader)
    }

    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)
    }

    /// Reads one reply line (without parsing it).
    pub fn recv_line(&mut self) -> io::Result<String> {
        read_reply(&mut self.reader)
    }

    pub fn recv(&mut self) -> io::Result<Value> {
        parse_reply(&self.recv_line()?)
    }

    /// Sends one request line (a trailing newline is added when missing)
    /// and parses its reply.
    pub fn request(&mut self, bytes: &[u8]) -> io::Result<Value> {
        self.send(bytes)?;
        if bytes.last() != Some(&b'\n') {
            self.send(b"\n")?;
        }
        self.recv()
    }
}

/// Reads one reply line; end of stream is an error.
pub fn read_reply(reader: &mut impl BufRead) -> io::Result<String> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ));
    }
    Ok(line)
}

pub fn parse_reply(line: &str) -> io::Result<Value> {
    serde_json::from_str(line.trim_end())
        .map_err(|e| io::Error::other(format!("unparsable reply {line:?}: {e}")))
}

/// Server-side set-up shared by both server workloads: spawn until
/// listening, `create_session`, then every preload observe acknowledged.
/// Returns the server, the connection and the set-up wall time in seconds,
/// timed between two probes.
pub fn set_up(
    dcs: &Path,
    data_dir: Option<&Path>,
    create: &[u8],
    preload: &[Vec<u8>],
    probe: &mut Probe,
) -> io::Result<(ServerChild, Conn, Timed)> {
    let (result, scale) = probe.around(|| timed_set_up(dcs, data_dir, create, preload));
    let (server, conn, seconds) = result?;
    Ok((
        server,
        conn,
        Timed {
            raw: seconds,
            scale,
        },
    ))
}

fn timed_set_up(
    dcs: &Path,
    data_dir: Option<&Path>,
    create: &[u8],
    preload: &[Vec<u8>],
) -> io::Result<(ServerChild, Conn, f64)> {
    let start = Instant::now();
    let server = ServerChild::spawn(dcs, data_dir)?;
    let mut conn = Conn::connect(&server.addr)?;
    let created = conn.request(create)?;
    if created["ok"] != true {
        return Err(io::Error::other(format!(
            "create_session failed: {created}"
        )));
    }
    for line in preload {
        conn.send(line)?;
    }
    for _ in preload {
        let reply = conn.recv()?;
        if reply["ok"] != true {
            return Err(io::Error::other(format!("preload observe failed: {reply}")));
        }
    }
    Ok((server, conn, start.elapsed().as_secs_f64()))
}

/// Set-up rounds torn down right after they finish, each on a fresh data
/// dir when one is given.  Runs spread their set-up rounds before and after
/// the timed phase, so that `setup_s` sees the same host phases as the
/// latencies do.  Returns each round's set-up time in seconds.
pub fn discarded_setups(
    dcs: &Path,
    data_dir: Option<&Path>,
    create: &[u8],
    preload: &[Vec<u8>],
    rounds: usize,
    probe: &mut Probe,
) -> io::Result<Vec<Timed>> {
    let mut times = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        if let Some(dir) = data_dir {
            let _ = std::fs::remove_dir_all(dir);
            std::fs::create_dir_all(dir)?;
        }
        let (server, mut conn, seconds) = set_up(dcs, data_dir, create, preload, probe)?;
        server.shutdown(&mut conn)?;
        times.push(seconds);
    }
    if let Some(dir) = data_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(times)
}

/// The server-wide `stats` counters the runs check.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerCounters {
    pub cache_hits: u64,
    pub jobs_completed: u64,
    pub io_shed: u64,
}

pub fn counters(conn: &mut Conn) -> io::Result<ServerCounters> {
    let stats = conn.request(br#"{"cmd":"stats"}"#)?;
    let count = |value: &Value, what: &str| {
        value
            .as_u64()
            .ok_or_else(|| io::Error::other(format!("stats reply lacks {what}: {stats}")))
    };
    Ok(ServerCounters {
        cache_hits: count(&stats["cache"]["hits"], "cache.hits")?,
        jobs_completed: count(&stats["jobs"]["completed"], "jobs.completed")?,
        io_shed: count(&stats["io"]["shed"], "io.shed")?,
    })
}
