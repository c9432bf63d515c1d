//! What the scheduler does for one warm null call, per stack: events
//! processed, fuel burnt, processes alive at once.
//!
//! Like the allocations (`tests/alloc_per_call.rs`) and cell entries
//! (`tests/cell_entries.rs`) beside it these are exact — the same call is
//! the same events on every run, build and host — so they are held to the
//! unit. They are what a change to the engine is judged by where host time
//! cannot judge: a timeline, a semaphore or a timer that files one event
//! more per call, or burns one unit of fuel more, fails here whatever the
//! benchmark's spread that day. A change that means to move one says so and
//! edits the number.

mod common;

use common::null_call::{
    paper_scheduled_null_call, sun_rpc_scheduled_null_call, Scheduled, PAPER_STACKS,
};

#[test]
fn a_warm_scheduled_null_call_is_the_pinned_events_and_fuel() {
    let pinned = [(4, 37, 2), (4, 61, 2), (4, 41, 2), (6, 68, 2), (4, 49, 2)];
    for (stack, (events, fuel, peak_live)) in PAPER_STACKS.into_iter().zip(pinned) {
        assert_eq!(
            paper_scheduled_null_call(stack),
            Scheduled {
                events,
                fuel,
                peak_live
            },
            "{}",
            stack.name
        );
    }
}

#[test]
fn a_warm_scheduled_sun_rpc_null_call_is_the_pinned_events_and_fuel() {
    assert_eq!(
        sun_rpc_scheduled_null_call(),
        Scheduled {
            events: 4,
            fuel: 95,
            peak_live: 2
        }
    );
}
