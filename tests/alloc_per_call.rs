//! How many heap allocations a warm inline null call makes, per stack.
//!
//! Like the cell entries beside it (`tests/cell_entries.rs`) the count is
//! exact — the same call allocates the same blocks on every run, debug and
//! release alike — so it is pinned exactly, where host time cannot be. What
//! is left is payload and message buffers, session handles and reply slots;
//! no fixed-size header is among them since the codecs went to the stack
//! (DESIGN.md, "What crosses a crate", has the before/after table). A layer
//! that starts building a header, a key or a scratch list on the heap fails
//! here before any benchmark could see it; one that stops allocating fails
//! too, and moves its pin down.

mod common;

use common::allocs;
use common::null_call::{paper_null_call, sun_rpc_null_call, PAPER_STACKS};

#[test]
fn a_warm_inline_null_call_allocates_no_more_than_pinned() {
    for (stack, pinned) in PAPER_STACKS.into_iter().zip([13, 13, 13, 10, 6]) {
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
        n, 16,
        "SUNRPC-UDP: {n} allocations per warm null call, pinned at 16"
    );
}
