//! How many `OwnerCell` entries a warm inline null call makes, per stack.
//!
//! Every entry is a load and two stores now, not two read-modify-writes, but
//! it is still work on the one path every workload shares, and it is exact:
//! the same call enters the same cells in the same order on every run. The
//! counts below are what DESIGN.md §12's per-protocol table adds up to; a
//! protocol that starts entering a table twice where once would do fails
//! here before any benchmark could see it. Debug builds only — release
//! builds carry no counter.
#![cfg(debug_assertions)]

mod common;

use common::null_call::{paper_null_call, sun_rpc_null_call, PAPER_STACKS};
use xkernel::cell::entries;

#[test]
fn a_warm_inline_null_call_enters_no_more_cells_than_pinned() {
    for (stack, pinned) in PAPER_STACKS.into_iter().zip([19, 25, 19, 28, 21]) {
        let n = paper_null_call(stack, entries);
        assert!(
            (1..=pinned).contains(&n),
            "{}: {n} cell entries per warm null call, pinned at {pinned}",
            stack.name
        );
    }
}

#[test]
fn a_warm_inline_sun_rpc_null_call_enters_no_more_cells_than_pinned() {
    let n = sun_rpc_null_call(entries);
    assert!(
        (1..=22).contains(&n),
        "SUNRPC-UDP: {n} cell entries per warm null call, pinned at 22"
    );
}
