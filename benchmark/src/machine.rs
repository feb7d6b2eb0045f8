//! The machine fingerprint stored with every result, the peak memory of
//! finished child processes, and pinning to one CPU.

use std::io;
use std::os::fd::AsRawFd;
use std::path::Path;

use serde_json::{json, Value};

/// Logical CPUs, the CPU the run is pinned to, kernel release, CPU model,
/// and the filesystem the run's files (inputs, packs, the durable data dir)
/// live on.
pub fn fingerprint(data_dir: &Path, pinning: Pinning) -> Value {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    json!({
        "nproc": pinning.allowed,
        "pinned_cpu": pinning.cpu,
        "kernel": kernel,
        "cpu": cpu,
        "data_fs": filesystem_of(data_dir),
    })
}

/// The type of the mount holding `path` (longest matching mount point in
/// `/proc/mounts`).
fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, point, kind) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn syncfs(fd: i32) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

const PR_SET_TIMERSLACK: i32 = 29;

const IPPROTO_TCP: i32 = 6;
const TCP_QUICKACK: i32 = 12;

/// Words of a CPU mask: room for 1024 CPUs, the size of glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;

const RUSAGE_CHILDREN: i32 = -1;

/// Largest peak resident set (MB) among the child processes this process
/// has waited for.
pub fn children_peak_rss_mb() -> f64 {
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `RUsage` has the layout of Linux's `struct rusage` on 64-bit
    // targets (two `timeval`s then fourteen `long`s), and the pointer is to a
    // live, writable value for the duration of the call.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

/// Writes back every dirty page of the filesystem holding `path`, so that
/// writeback of files a run just generated or deleted does not land inside
/// the timed phase.
pub fn settle_disk(path: &Path) -> io::Result<()> {
    let dir = std::fs::File::open(path)?;
    // SAFETY: the descriptor belongs to `dir`, which stays open for the call.
    if unsafe { syncfs(dir.as_raw_fd()) } == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// The CPU a run is pinned to, and how many it was allowed before.
#[derive(Debug, Clone, Copy)]
pub struct Pinning {
    pub cpu: usize,
    pub allowed: usize,
}

/// Pins this process, and so every thread and process it starts from now
/// on, to the highest-numbered CPU it may run on.  The host-speed probe
/// must run on the CPU the timed work runs on.
pub fn pin_to_one_cpu() -> io::Result<Pinning> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: the pointer is to a live, writable buffer of the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let allowed: usize = mask.iter().map(|word| word.count_ones() as usize).sum();
    let cpu = (0..MASK_WORDS * 64)
        .rev()
        .find(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .ok_or_else(|| io::Error::other("no CPU in the affinity mask"))?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: the pointer is to a live buffer of the size passed.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(Pinning { cpu, allowed })
}

/// Lets the calling thread's sleeps end as close to their deadline as the
/// timer allows, instead of up to the default 50 µs of slack later.
pub fn precise_sleeps() -> io::Result<()> {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and only
    // changes the calling thread's timer slack.
    if unsafe { prctl(PR_SET_TIMERSLACK, 1u64) } == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Asks the kernel to acknowledge what `stream` receives next at once,
/// instead of delaying the ACK.  The kernel may go back to delayed ACKs
/// later, so callers set it again before each read.
pub fn quick_ack(stream: &std::net::TcpStream) -> io::Result<()> {
    let on: i32 = 1;
    // SAFETY: the descriptor belongs to `stream`, which outlives the call,
    // and the pointer and length describe a live `i32`.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            IPPROTO_TCP,
            TCP_QUICKACK,
            &on,
            std::mem::size_of::<i32>() as u32,
        )
    };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}
