//! How many heap allocations a warm call makes, per stack: the inline null
//! call on all six stacks, the scheduled 16 KiB call on the two stacks
//! whose bulk path splits, fragments and reassembles (M_RPC-VIP and
//! L_RPC-VIP), and the scheduled 8 KiB call on SUNRPC-UDP, which IP
//! fragments and reassembles.
//!
//! Like the cell entries beside it (`tests/cell_entries.rs`) the count is
//! exact — the same call allocates the same blocks on every run, debug and
//! release alike — so it is pinned exactly, where host time cannot be. What
//! is left is payload and message buffers, session handles and reply slots;
//! no fixed-size header is among them since the codecs went to the stack,
//! and no header buffer since they come from the simulation's own spare list
//! (DESIGN.md, "What crosses a crate", has the before/after tables). What a
//! simulation recycles is its own, so a count does not depend on what ran
//! earlier on its thread, and a first call is pinned against that. A layer
//! that starts building a header, a key or a scratch list on the heap fails
//! here before any benchmark could see it; one that stops allocating fails
//! too, and moves its pin down.

mod common;

use common::allocs;
use common::null_call::{
    paper_null_call, paper_scheduled_first_call, paper_scheduled_sized_call, sun_rpc_null_call,
    sun_rpc_refused_datagram, sun_rpc_scheduled_sized_call, PAPER_STACKS,
};
use xkernel::kernel::Kernel;
use xkernel::sim::{SharedSema, Sim, SimConfig};
use xrpc::stacks::{L_RPC_VIP, M_RPC_VIP};

#[test]
fn a_warm_inline_null_call_allocates_no_more_than_pinned() {
    for (stack, pinned) in PAPER_STACKS.into_iter().zip([6, 6, 6, 2, 2]) {
        let n = paper_null_call(stack, allocs);
        assert_eq!(
            n, pinned,
            "{}: {n} allocations per warm null call, pinned at {pinned}",
            stack.name
        );
    }
}

#[test]
fn a_warm_inline_sun_rpc_null_call_allocates_no_more_than_pinned() {
    let n = sun_rpc_null_call(allocs);
    assert_eq!(
        n, 8,
        "SUNRPC-UDP: {n} allocations per warm null call, pinned at 8"
    );
}

/// A 16 KiB call is eleven fragments each way on both stacks: each
/// fragment's header and rope, each frame's delivery and the reassembler's
/// rope are where a per-fragment allocation would show, eleven times over.
#[test]
fn a_warm_scheduled_16k_call_allocates_exactly_pinned() {
    for (stack, pinned) in [(M_RPC_VIP, 11), (L_RPC_VIP, 15)] {
        let n = paper_scheduled_sized_call(stack, 16 * 1024, allocs);
        assert_eq!(
            n, pinned,
            "{}: {n} allocations per warm scheduled 16 KiB call, pinned at {pinned}",
            stack.name
        );
    }
}

/// An 8 KiB SUNRPC-UDP call is six IP fragments: each is a frame the wire
/// delivers and a part IP's reassembly holds.
#[test]
fn a_warm_scheduled_sun_rpc_8k_call_allocates_exactly_pinned() {
    let n = sun_rpc_scheduled_sized_call(8 * 1024, allocs);
    assert_eq!(
        n, 19,
        "SUNRPC-UDP: {n} allocations per warm scheduled 8 KiB call, pinned at 19"
    );
}

/// A fragment costs no allocation: on M_RPC-VIP an 8 KiB call and a 16 KiB
/// call, six and eleven fragments each way, allocate alike. On L_RPC-VIP
/// the 16 KiB call makes one more, FRAGMENT's gap timer armed again for the
/// longer message, and no more. Prints allocations per warm scheduled call
/// of 1, 8 and 16 KiB, SUNRPC-UDP's too.
#[test]
fn a_fragment_costs_no_allocation() {
    println!("stack            1 KiB  8 KiB  16 KiB");
    let row = |name: &str, call: &dyn Fn(usize) -> u64| {
        let [one, eight, sixteen] = [1, 8, 16].map(|kb| call(kb * 1024));
        println!("{name:<16} {one:>5} {eight:>6} {sixteen:>7}");
        (eight, sixteen)
    };
    for (stack, timers) in [(M_RPC_VIP, 0), (L_RPC_VIP, 1)] {
        let (small, large) = row(stack.name, &|size| {
            paper_scheduled_sized_call(stack, size, allocs)
        });
        assert_eq!(
            large,
            small + timers,
            "{}: 8 KiB made {small} allocations and 16 KiB {large}",
            stack.name
        );
    }
    row("SUNRPC-UDP", &|size| {
        sun_rpc_scheduled_sized_call(size, allocs)
    });
}

/// A count does not depend on what ran earlier on its thread: a fresh rig's
/// first scheduled 16 KiB M_RPC-VIP call allocates as often on a new thread
/// as on one where another rig made 100 such calls and was dropped. Header
/// buffers and timeline blocks are the simulation's own and go with it.
/// Coroutine stacks are the one pool kept per thread, a host resource, so
/// both threads first fill theirs alike, from a simulation that makes no
/// message.
#[test]
fn a_fresh_rigs_first_call_allocates_the_same_whatever_its_thread_ran_before() {
    let first_call = |history: usize| {
        std::thread::spawn(move || {
            warm_coroutines(16);
            paper_scheduled_first_call(M_RPC_VIP, 16 * 1024, history, allocs)
        })
        .join()
        .expect("the call completes")
    };
    // Once on a thread of its own first, so that nothing lazily set up once
    // a process lands in one of the two counts.
    first_call(0);
    let (clean, after) = (first_call(0), first_call(100));
    assert_eq!(
        clean, after,
        "first call: {clean} allocations on a clean thread, {after} after 100 calls on a dropped rig"
    );
}

/// Leaves `n` coroutines in this thread's pool: `n` processes parked on a
/// semaphore at once, then let go.
fn warm_coroutines(n: usize) {
    let sim = Sim::new(SimConfig::scheduled());
    let host = Kernel::new(&sim, "warm").host();
    let gate = SharedSema::new(0);
    for _ in 0..n {
        let gate = gate.clone();
        sim.spawn(host, move |ctx| gate.p(ctx));
    }
    sim.spawn(host, move |ctx| (0..n).for_each(|_| gate.v(ctx)));
    assert_eq!(sim.run_until_idle().blocked, 0);
}

/// A frame a layer refuses costs nothing once its row exists: the reason is
/// static text and the count a bump in that row.
#[test]
fn a_refused_frame_at_a_warm_host_allocates_nothing() {
    let n = sun_rpc_refused_datagram(allocs);
    assert_eq!(
        n, 0,
        "a datagram to an unbound UDP port made {n} allocations"
    );
}
