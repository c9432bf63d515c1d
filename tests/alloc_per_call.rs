//! How many heap allocations a warm inline null call makes, per stack.
//!
//! Like the cell entries beside it (`tests/cell_entries.rs`) the count is
//! exact — the same call allocates the same blocks on every run, debug and
//! release alike — so it can be held where host time cannot. What is left
//! is payload and message buffers, session handles and reply slots; no
//! fixed-size header is among them since the codecs went to the stack
//! (DESIGN.md, "What crosses a crate", has the before/after table). A layer
//! that starts building a header, a key or a scratch list on the heap fails
//! here before any benchmark could see it.

mod common;

use common::allocs;
use common::null_call::{paper_null_call, sun_rpc_null_call, PAPER_STACKS};

#[test]
fn a_warm_inline_null_call_allocates_no_more_than_pinned() {
    for (stack, pinned) in PAPER_STACKS.into_iter().zip([15, 15, 15, 12, 8]) {
        let n = paper_null_call(stack, allocs);
        assert!(
            (1..=pinned).contains(&n),
            "{}: {n} allocations per warm null call, pinned at {pinned}",
            stack.name
        );
    }
}

#[test]
fn a_warm_inline_sun_rpc_null_call_allocates_no_more_than_pinned() {
    let n = sun_rpc_null_call(allocs);
    assert!(
        (1..=18).contains(&n),
        "SUNRPC-UDP: {n} allocations per warm null call, pinned at 18"
    );
}
