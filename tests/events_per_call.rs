//! What the scheduler does for one warm null call, per stack: events
//! processed, fuel burnt, processes alive at once — and what a run of warm
//! calls costs in context switches and coroutines started.
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
    paper_scheduled_calls, paper_scheduled_null_call, sun_rpc_scheduled_calls,
    sun_rpc_scheduled_null_call, Scheduled, Switched, PAPER_STACKS,
};

#[test]
fn a_warm_scheduled_null_call_is_the_pinned_events_and_fuel() {
    // L_RPC-VIP's 4 events are the other stacks' 4: FRAGMENT's copy of the
    // request and of the reply expires by its age, and files no discard
    // timer (its `timer_op` is still charged, so fuel counts both).
    let pinned = [(4, 37, 2), (4, 61, 2), (4, 41, 2), (4, 68, 2), (4, 49, 2)];
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

/// What `n` warm calls from one client process cost in one run: two
/// switches a call — the scheduler resuming the client when its reply is in,
/// the client suspending again in the next call — and no coroutine, because
/// a frame the wire delivers is a call on the stack the run loop is on. The
/// constant is the run's two drivers, each started once and resumed once:
/// the first, whose stack the client keeps when it first blocks, and the one
/// that runs the loop from there.
///
/// Before the loop ran on a coroutine every delivery started one and
/// switched in and out of it: 6n switches and 2n starts for n null calls
/// (10n and 4n on L_RPC-VIP), 28n and 13n for 16 KiB calls on the M_RPC
/// stacks, 36n and 17n on the L_RPC ones. A change that puts a coroutine
/// back under every `Run` event fails here, whatever the benchmark reads
/// that day.
fn a_run_of(n: u64) -> Switched {
    Switched {
        switches: 2 * n + 4,
        starts: 2,
    }
}

#[test]
fn a_run_of_warm_calls_switches_twice_a_call_and_starts_no_coroutine_for_a_frame() {
    println!("stack            size   calls  switches  starts");
    for stack in PAPER_STACKS {
        for (size, n) in [(0, 50), (0, 7), (16 * 1024, 20)] {
            let got = paper_scheduled_calls(stack, n, size);
            println!(
                "{:<16} {size:>5} {n:>7} {:>9} {:>7}",
                stack.name, got.switches, got.starts
            );
            assert_eq!(got, a_run_of(n), "{}, {size}-byte calls", stack.name);
        }
    }
}

#[test]
fn a_run_of_warm_sun_rpc_calls_switches_twice_a_call() {
    let got = sun_rpc_scheduled_calls(50);
    println!(
        "{:<16} {:>5} {:>7} {:>9} {:>7}",
        "SUNRPC-UDP", 0, 50, got.switches, got.starts
    );
    assert_eq!(got, a_run_of(50));
}
