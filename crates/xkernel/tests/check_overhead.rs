//! Proof that xcheck is free when disabled and flat when enabled. With
//! checking off, the semaphore hot path (`p`/`v` fast paths, the points
//! the checker hooks) performs **zero heap allocations** — measured with a
//! counting global allocator — and leaves no report behind. With checking
//! on, a warm round that starts a process, P/Vs a semaphore and exits
//! allocates exactly what it does with checking off: the checker keeps
//! nothing of a process past its exit, so a checked call does not get
//! dearer as the run goes on. The schedule fingerprint is folded
//! unconditionally, so identical runs hash identically with or without
//! the checker.

// A counting `GlobalAlloc` is the only way to observe allocations, and the
// trait is unsafe by definition; this is test-only code delegating straight
// to `System`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex};

use xkernel::prelude::*;
use xkernel::sim::{Sim, SimConfig};

struct CountingAlloc;

thread_local! {
    /// Allocations made by *this* thread. The harness runs sibling tests on
    /// other threads at the same time, and a simulation runs wholly on the
    /// thread that drives it, so a per-thread count is exactly the
    /// measured loop's.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // A thread being torn down has no counter left; nothing measures then.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn allocs_so_far() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs a hot loop of non-blocking V/P pairs in a shepherd process and
/// returns the number of heap allocations the measured loop performed.
fn allocs_for_sema_loop(cfg: SimConfig) -> (u64, Sim) {
    let sim = Sim::new(cfg);
    let kernel = Kernel::new(&sim, "host-a");
    let host = kernel.host();
    let out: Arc<Mutex<Option<u64>>> = Arc::new(Mutex::new(None));
    let o2 = Arc::clone(&out);
    sim.spawn(host, move |ctx| {
        let s = SharedSema::labeled(1, "hot");
        // Warm every lazy path (the checker's first deposit/join on a
        // semaphore may allocate legitimately when checking is on).
        for _ in 0..4 {
            s.v(ctx);
            s.p(ctx);
        }
        let before = allocs_so_far();
        for _ in 0..1_000 {
            s.v(ctx);
            s.p(ctx);
        }
        let after = allocs_so_far();
        *o2.lock().unwrap() = Some(after - before);
    });
    let r = sim.run_until_idle();
    assert_eq!(r.blocked, 0);
    let n = out.lock().unwrap().take().expect("loop ran");
    (n, sim)
}

#[test]
fn disabled_checking_allocates_nothing_on_the_sema_hot_path() {
    let (allocs, sim) = allocs_for_sema_loop(SimConfig::scheduled());
    assert_eq!(
        allocs, 0,
        "with checking off, p/v fast paths must not touch the heap"
    );
    assert!(!sim.check_enabled());
    let report = sim.check_report();
    assert!(!report.enabled);
    assert_eq!(report.lps, 0, "no processes seen with checking off");
    assert!(report.violations.is_empty());
}

/// The slow path is free too: with every observer off, a semaphore
/// hand-off — V finds a waiter and wakes it, P finds no unit and blocks —
/// allocates nothing on either side once the waiter queue and the
/// scheduler's tables are warm.
#[test]
fn a_blocking_hand_off_allocates_nothing() {
    const ROUNDS: u64 = 1_000;
    let sim = Sim::new(SimConfig::scheduled());
    let host = Kernel::new(&sim, "host-a").host();
    let (ping, pong) = (SharedSema::new(0), SharedSema::new(0));
    let out: Arc<Mutex<Option<u64>>> = Arc::new(Mutex::new(None));
    let (o2, ping2, pong2) = (Arc::clone(&out), ping.clone(), pong.clone());
    // Four rounds warm the waiter queues and the scheduler's tables; the
    // last round is left out too, because in it the peer process retires.
    const TOTAL: u64 = 4 + ROUNDS + 1;
    sim.spawn(host, move |ctx| {
        let mut before = 0;
        for round in 0..TOTAL {
            if round == 4 {
                before = allocs_so_far();
            }
            if round == 4 + ROUNDS {
                *o2.lock().unwrap() = Some(allocs_so_far() - before);
            }
            ping2.v(ctx);
            pong2.p(ctx);
        }
    });
    sim.spawn(host, move |ctx| {
        for _ in 0..TOTAL {
            ping.p(ctx);
            pong.v(ctx);
        }
    });
    let r = sim.run_until_idle();
    assert_eq!(r.blocked, 0);
    assert!(r.events >= 2 * ROUNDS, "each round blocks and wakes twice");
    assert_eq!(
        out.lock().unwrap().take(),
        Some(0),
        "2,000 hand-offs, no allocation"
    );
}

/// Runs `ROUNDS` warm rounds, each a process that P/Vs one reused
/// semaphore and exits, and returns the allocations they made.
fn allocs_for_process_rounds(cfg: SimConfig) -> (u64, Sim) {
    const WARM: usize = 4;
    const ROUNDS: usize = 1_000;
    let sim = Sim::new(cfg);
    let host = Kernel::new(&sim, "host-a").host();
    let s = SharedSema::labeled(1, "reused");
    let round = |sim: &Sim| {
        let s = s.clone();
        sim.spawn(host, move |ctx| {
            s.p(ctx);
            s.v(ctx);
        });
        assert_eq!(sim.run_until_idle().blocked, 0);
    };
    for _ in 0..WARM {
        round(&sim);
    }
    let before = allocs_so_far();
    for _ in 0..ROUNDS {
        round(&sim);
    }
    (allocs_so_far() - before, sim)
}

#[test]
fn checked_process_rounds_allocate_what_plain_ones_do() {
    let (plain, _) = allocs_for_process_rounds(SimConfig::scheduled());
    let (checked, sim) = allocs_for_process_rounds(SimConfig::scheduled().with_check());
    assert_eq!(
        checked, plain,
        "the checker must keep nothing of an exited process"
    );
    let report = sim.check_report();
    assert!(report.enabled);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!((report.lps, report.semas), (1_004, 1));
}

/// The schedule fingerprint is independent of the checker: folded over
/// every executed event either way, and deterministic across runs.
#[test]
fn sched_hash_is_deterministic_and_checker_independent() {
    let (_a, plain1) = allocs_for_sema_loop(SimConfig::scheduled());
    let (_b, plain2) = allocs_for_sema_loop(SimConfig::scheduled());
    let (_c, checked) = allocs_for_sema_loop(SimConfig::scheduled().with_check());
    assert_ne!(plain1.sched_hash(), 0, "fingerprint is always folded");
    assert_eq!(plain1.sched_hash(), plain2.sched_hash());
    assert_eq!(plain1.sched_hash(), checked.sched_hash());
}
