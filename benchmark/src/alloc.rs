//! A counting global allocator: compiled in always, counting only inside
//! [`counting`], which only the traced run calls. Disarmed, each allocation pays one relaxed load and
//! a predictable branch on top of the system allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// The allocator installed by `main.rs` (`#[global_allocator]`).
pub struct CountingAlloc;

// Statistics only: nothing is published through these, so `Relaxed` is
// enough (and the workloads are single-threaded anyway).
static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    if ARMED.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(size as u64, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only atomics and
// never allocates, so it cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout` (all four
        // methods delegate to it).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow or shrink is one trip to the allocator for `new_size` bytes.
        count(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations and bytes requested while armed, since process start.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocCount {
    pub allocs: u64,
    pub bytes: u64,
}

impl AllocCount {
    /// What was counted between `earlier` and `self`.
    pub fn since(self, earlier: AllocCount) -> AllocCount {
        AllocCount {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Runs `f` with counting on; returns what it allocated beside its result.
pub fn counting<R>(f: impl FnOnce() -> R) -> (AllocCount, R) {
    let before = counted();
    ARMED.store(true, Relaxed);
    let r = f();
    ARMED.store(false, Relaxed);
    (counted().since(before), r)
}

/// The running totals.
pub fn counted() -> AllocCount {
    AllocCount {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}
