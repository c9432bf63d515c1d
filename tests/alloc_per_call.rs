//! How many heap allocations a warm call makes, per stack: the inline null
//! call on all six stacks, and the scheduled 16 KiB call on the two stacks
//! whose bulk path splits, fragments and reassembles (M_RPC-VIP and
//! L_RPC-VIP).
//!
//! Like the cell entries beside it (`tests/cell_entries.rs`) the count is
//! exact — the same call allocates the same blocks on every run, debug and
//! release alike — so it is pinned exactly, where host time cannot be. What
//! is left is payload and message buffers, session handles and reply slots;
//! no fixed-size header is among them since the codecs went to the stack,
//! and no header buffer since they come from `msg`'s per-thread pool
//! (DESIGN.md, "What crosses a crate", has the before/after tables). A layer
//! that starts building a header, a key or a scratch list on the heap fails
//! here before any benchmark could see it; one that stops allocating fails
//! too, and moves its pin down.

mod common;

use common::allocs;
use common::null_call::{
    paper_null_call, paper_scheduled_sized_call, sun_rpc_null_call, sun_rpc_refused_datagram,
    PAPER_STACKS,
};
use xrpc::stacks::{L_RPC_VIP, M_RPC_VIP};

#[test]
fn a_warm_inline_null_call_allocates_no_more_than_pinned() {
    for (stack, pinned) in PAPER_STACKS.into_iter().zip([8, 8, 8, 6, 2]) {
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

/// A 16 KiB call is eleven fragments each way on both stacks: the splitter's
/// list, each fragment's header and the reassembler's rope are where a
/// per-fragment allocation would show, eleven times over.
#[test]
fn a_warm_scheduled_16k_call_allocates_exactly_pinned() {
    for (stack, pinned) in [(M_RPC_VIP, 40), (L_RPC_VIP, 46)] {
        let n = paper_scheduled_sized_call(stack, 16 * 1024, allocs);
        assert_eq!(
            n, pinned,
            "{}: {n} allocations per warm scheduled 16 KiB call, pinned at {pinned}",
            stack.name
        );
    }
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
