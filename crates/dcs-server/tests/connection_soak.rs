//! Connection churn leaks no sockets: waves of clients connect to one
//! in-process server, create a session, observe into it and drop it, then
//! disconnect — half after a parting ping, half by just vanishing.  Once the
//! server has shut down, the process must hold about as many file descriptors
//! as it did before the churn.
//!
//! The descriptor count is process-wide, so this test is alone in its binary.
//! Where `/proc/self/fd` cannot be read, nothing is gated.

use std::time::{Duration, Instant};

use dcs_server::{Client, CreateSessionRequest, Server, ServerConfig};

const WAVES: usize = 6;
const WAVE_SIZE: usize = 50;
/// Descriptors the process may hold above its starting count afterwards.
const ALLOWANCE: usize = 20;

/// This process's open file descriptors, `None` where `/proc` is unavailable.
fn open_fds() -> Option<usize> {
    std::fs::read_dir("/proc/self/fd")
        .ok()
        .map(|entries| entries.count())
}

#[test]
fn connection_churn_leaks_no_file_descriptors() {
    let before = open_fds();
    let handle = Server::bind("127.0.0.1:0", ServerConfig::default())
        .expect("bind soak server")
        .start();
    let addr = handle.local_addr();
    for wave in 0..WAVES {
        let mut clients: Vec<Client> = (0..WAVE_SIZE)
            .map(|_| Client::connect(addr).expect("connect"))
            .collect();
        for (index, client) in clients.iter_mut().enumerate() {
            let name = format!("soak-{wave}-{index}");
            let create = CreateSessionRequest {
                session: name.clone(),
                vertices: Some(32),
                ..Default::default()
            };
            client.create(create).expect("create");
            let mut session = client.session(&name);
            session
                .observe(&[(0, 1, 2.0), (1, 2, 1.5)])
                .expect("observe");
            session.drop_session().expect("drop");
        }
        for client in clients.iter_mut().step_by(2) {
            let _ = client.ping();
        }
    }

    // The server must still answer after the churn.
    let mut survivor = Client::connect(addr).expect("connect after churn");
    survivor.ping().expect("ping after churn");
    drop(survivor);
    handle.shutdown();
    handle.join();

    let Some(before) = before else {
        return;
    };
    // The event loops close sockets on hangup, but the kernel and the loops
    // need a beat after the last drop: poll for up to 5 s before judging.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut after = open_fds();
    while after.is_some_and(|after| after > before + ALLOWANCE) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(100));
        after = open_fds();
    }
    if let Some(after) = after {
        assert!(
            after <= before + ALLOWANCE,
            "fd count grew from {before} to {after}: the event loops leak sockets"
        );
    }
}
