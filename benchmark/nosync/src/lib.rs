//! `LD_PRELOAD` library that turns `fsync` and `fdatasync` into no-ops.
//!
//! `durable-ingest` is designed to run its server's data directory on
//! tmpfs, where a flush to the device costs nothing, so that the workload
//! measures the write path's own work: the WAL appends and the checkpoints
//! that hold the session lock.  The benchmark may write only inside its
//! checkout, which sits on a shared disk whose flushes slowed from a few to
//! over 70 ms for minutes at a time.  Preloaded into the server under test,
//! this library gives the checkout's directory tmpfs's flush behaviour;
//! every write still goes through the page cache as before.

use std::os::raw::c_int;

/// Reports success without flushing.
#[no_mangle]
pub extern "C" fn fsync(_fd: c_int) -> c_int {
    0
}

/// Reports success without flushing.
#[no_mangle]
pub extern "C" fn fdatasync(_fd: c_int) -> c_int {
    0
}
