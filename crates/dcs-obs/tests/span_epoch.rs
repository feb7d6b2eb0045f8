//! The tracer's epoch is pinned when tracing is enabled, not when the first
//! span closes.  This is its own test binary so that no other test has
//! enabled tracing (and pinned the epoch) in the process first.

use std::time::Duration;

use dcs_obs::trace::{self, Phase};

#[test]
fn sequential_spans_do_not_overlap() {
    trace::set_enabled(true);
    for phase in [Phase::Peel, Phase::MuSweep] {
        let _span = trace::span(phase);
        std::thread::sleep(Duration::from_millis(2));
    }
    trace::set_enabled(false);
    let events = trace::take_timeline();
    let first = events.iter().find(|e| e.phase == Phase::Peel).unwrap();
    let second = events.iter().find(|e| e.phase == Phase::MuSweep).unwrap();
    assert!(first.duration_us >= 2_000 && second.duration_us >= 2_000);
    assert!(
        second.start_us >= first.start_us + first.duration_us,
        "second span starts inside the first: {first:?} then {second:?}"
    );
}
