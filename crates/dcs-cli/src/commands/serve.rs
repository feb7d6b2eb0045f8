//! `dcs serve` — run the NDJSON contrast-mining server.

use dcs_server::{Server, ServerConfig, WalSync};

use crate::args::{parse_args, ArgSpec};
use crate::error::CliError;

/// Usage string shown by `dcs help`.
pub const USAGE: &str = "dcs serve [--addr HOST:PORT] [--threads N] [--solver-threads N] [--io-threads N] [--queue N] [--data-dir DIR] [--wal-sync always|group|none] (runs until a shutdown command)";

fn spec() -> ArgSpec {
    ArgSpec::new(
        &[
            "addr",
            "threads",
            "solver-threads",
            "io-threads",
            "queue",
            "data-dir",
            "wal-sync",
        ],
        &[],
    )
}

/// Parses the options, binds the listener and starts the accept loop.
/// Split from [`run`] so tests can start on an ephemeral port and read the
/// bound address from the handle instead of racing for a free port.
fn start_server(raw_args: &[String]) -> Result<(dcs_server::ServerHandle, ServerConfig), CliError> {
    let args = parse_args(raw_args, &spec())?;
    let addr = args.option("addr").unwrap_or("127.0.0.1:7878").to_string();
    let defaults = ServerConfig::default();
    let wal_sync = match args.option("wal-sync") {
        None => defaults.wal_sync,
        Some(raw) => raw.parse::<WalSync>().map_err(|_| CliError::InvalidValue {
            option: "wal-sync".to_string(),
            value: raw.to_string(),
        })?,
    };
    let config = ServerConfig {
        worker_threads: args.parse_option("threads", defaults.worker_threads)?,
        // 0 (the default) inherits the DCS_SOLVER_THREADS environment default.
        solver_threads: args.parse_option("solver-threads", defaults.solver_threads)?,
        // 0 (the default) inherits the DCS_IO_THREADS environment default.
        io_threads: args.parse_option("io-threads", defaults.io_threads)?,
        queue_capacity: args.parse_option("queue", defaults.queue_capacity)?,
        data_dir: args.option("data-dir").map(std::path::PathBuf::from),
        wal_sync,
        ..defaults
    };
    if config.worker_threads == 0 || config.queue_capacity == 0 {
        return Err(CliError::InvalidValue {
            option: "threads/queue".to_string(),
            value: "0".to_string(),
        });
    }
    let server = Server::bind(addr.as_str(), config.clone())
        .map_err(|e| CliError::Io(std::io::Error::other(format!("cannot bind {addr}: {e}"))))?;
    Ok((server.start(), config))
}

/// Blocks until a client sends `shutdown`, then returns the summary line.
fn serve_until_shutdown(handle: dcs_server::ServerHandle) -> String {
    let bound = handle.local_addr();
    // ServerHandle::join also wakes the accept loop if the flag was set over
    // the wire.
    while !handle.is_shutting_down() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    handle.join();
    format!("dcs-server on {bound} shut down\n")
}

/// Runs the subcommand: binds, serves until a protocol `shutdown` arrives,
/// then returns a summary line.  The bound address is printed immediately so
/// scripts using an ephemeral port (`--addr 127.0.0.1:0`) can discover it.
pub fn run(raw_args: &[String]) -> Result<String, CliError> {
    let (handle, config) = start_server(raw_args)?;
    println!(
        "dcs-server listening on {} ({} worker threads, {} io threads, queue {})",
        handle.local_addr(),
        config.worker_threads,
        config.resolved_io_threads(),
        config.queue_capacity
    );
    Ok(serve_until_shutdown(handle))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_server::{Client, CreateSessionRequest};

    fn strings(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn rejects_bad_options() {
        assert!(matches!(
            run(&strings(&["--threads", "zero"])),
            Err(CliError::InvalidValue { .. })
        ));
        assert!(matches!(
            run(&strings(&["--threads", "0"])),
            Err(CliError::InvalidValue { .. })
        ));
        assert!(matches!(
            run(&strings(&["--bogus"])),
            Err(CliError::UnknownArgument(_))
        ));
        assert!(matches!(
            run(&strings(&["--wal-sync", "sometimes"])),
            Err(CliError::InvalidValue { .. })
        ));
        // Unbindable address.
        assert!(run(&strings(&["--addr", "256.256.256.256:1"])).is_err());
    }

    #[test]
    fn serves_until_shutdown() {
        // Ephemeral port: the handle reports the bound address, so there is
        // no probe-then-rebind race.
        let (handle, config) = start_server(&strings(&[
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "2",
            "--io-threads",
            "2",
            "--queue",
            "4",
        ]))
        .expect("bind ephemeral port");
        assert_eq!(config.worker_threads, 2);
        assert_eq!(config.io_threads, 2);
        assert_eq!(config.resolved_io_threads(), 2);
        assert_eq!(config.queue_capacity, 4);
        let addr = handle.local_addr();
        let server_thread = std::thread::spawn(move || serve_until_shutdown(handle));

        let mut client = Client::connect(addr).expect("server is up");
        client.ping().unwrap();
        client
            .create(CreateSessionRequest {
                session: "s".into(),
                vertices: Some(4),
                ..Default::default()
            })
            .unwrap();
        client.session("s").observe(&[(0, 1, 2.0)]).unwrap();
        let mined = client.session("s").mine().unwrap();
        assert_eq!(mined["result"]["subset"], serde_json::json!([0, 1]));
        client.shutdown().unwrap();

        let summary = server_thread.join().unwrap();
        assert!(summary.contains("shut down"));
    }

    #[test]
    fn data_dir_makes_sessions_survive_restart() {
        let data_dir =
            std::env::temp_dir().join(format!("dcs_cli_serve_durable_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&data_dir);
        let serve_args = || {
            strings(&[
                "--addr",
                "127.0.0.1:0",
                "--data-dir",
                data_dir.to_str().unwrap(),
                "--wal-sync",
                "always",
            ])
        };

        let (handle, config) = start_server(&serve_args()).expect("bind with data dir");
        assert_eq!(config.data_dir.as_deref(), Some(data_dir.as_path()));
        let mut client = Client::connect(handle.local_addr()).expect("server is up");
        client
            .create(CreateSessionRequest {
                session: "d".into(),
                vertices: Some(4),
                durable: true,
                ..Default::default()
            })
            .unwrap();
        let observed = client
            .session("d")
            .observe(&[(0, 1, 2.0), (1, 2, 1.0)])
            .unwrap();
        let version = observed["version"].as_u64().unwrap();
        client.shutdown().unwrap();
        handle.join();

        let (handle, _) = start_server(&serve_args()).expect("rebind with data dir");
        let mut client = Client::connect(handle.local_addr()).expect("server is back");
        let stats = client.session("d").stats().unwrap();
        assert_eq!(stats["version"].as_u64(), Some(version));
        assert_eq!(stats["durable"], true);
        client.shutdown().unwrap();
        handle.join();
        let _ = std::fs::remove_dir_all(&data_dir);
    }
}
