//! A counting global allocator for the integration tests that measure the
//! heap: allocations made (`tests/lint_memo.rs`, `tests/alloc_per_call.rs`)
//! and bytes still live (`tests/sim_lifetime.rs`). A test binary opts in
//! with `mod common;`.

// A `GlobalAlloc` is the only way to observe the heap, and the trait is
// unsafe by definition; this is test-only code delegating straight to
// `System`.
#![allow(unsafe_code, dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub mod null_call;

struct Counting;

thread_local! {
    /// (allocations made, bytes allocated and not yet freed) by *this*
    /// thread. Sibling tests run on other threads, and a simulation lives
    /// and dies on the thread that drives it, so per-thread figures are
    /// exactly the measured code's.
    static HEAP: Cell<(u64, i64)> = const { Cell::new((0, 0)) };
}

fn record(allocs: u64, bytes: i64) {
    // A thread being torn down has no counter left; nothing measures then.
    let _ = HEAP.try_with(|c| {
        let (a, b) = c.get();
        c.set((a + allocs, b + bytes));
    });
}

/// Allocations this thread has made so far.
pub fn allocs() -> u64 {
    HEAP.with(Cell::get).0
}

/// Bytes this thread has allocated and not yet freed.
pub fn live_bytes() -> i64 {
    HEAP.with(Cell::get).1
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(1, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;
