//! Proof that xtrace is free when disabled: with tracing off, the hot-path
//! instrumentation points (`charge_class`, `trace_note`, `enter_layer`)
//! perform **zero heap allocations** — measured with a counting global
//! allocator — and leave no events or ledger behind. With tracing on, the
//! same operations produce events and attributed cost.

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

/// Runs the instrumented hot-path operations in a shepherd process and
/// returns the number of heap allocations the measured loop performed.
fn allocs_for_hot_loop(cfg: SimConfig) -> (u64, Sim) {
    let sim = Sim::new(cfg);
    let kernel = Kernel::new(&sim, "host-a");
    let host = kernel.host();
    let out: Arc<Mutex<Option<u64>>> = Arc::new(Mutex::new(None));
    let o2 = Arc::clone(&out);
    sim.spawn(host, move |ctx| {
        // Warm every lazy path (first ring/span/ledger touch may allocate
        // legitimately when tracing is on).
        for _ in 0..4 {
            ctx.charge_class(OpClass::Compute, 5);
            ctx.trace_note("warm");
            let _g = ctx.enter_layer(ProtoId(0), EventKind::Push, 0);
        }
        let before = allocs_so_far();
        for _ in 0..1_000 {
            ctx.charge_class(OpClass::Compute, 3);
            ctx.trace_note("hot");
            let _g = ctx.enter_layer(ProtoId(0), EventKind::Push, 64);
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
fn disabled_tracing_allocates_nothing_on_the_hot_path() {
    let (allocs, sim) = allocs_for_hot_loop(SimConfig::scheduled());
    assert_eq!(
        allocs, 0,
        "with tracing off, charge/note/span must not touch the heap"
    );
    assert!(!sim.trace_enabled());
    assert!(sim.trace_events().is_empty(), "no events with tracing off");
    assert!(
        sim.cost_breakdown().is_empty(),
        "no ledger with tracing off"
    );
}

/// The blocking path is as free as the charging path: with every observer
/// off, a `Ctx::sleep` — block, timer wake, resume — touches the heap not
/// once. The event is filed in a reused table slot, the timeline's buffer
/// is warm, and the process is woken by moving its continuation, not by
/// looking it up.
#[test]
fn a_sleep_and_its_wake_up_allocate_nothing() {
    let sim = Sim::new(SimConfig::scheduled());
    let host = Kernel::new(&sim, "host-a").host();
    let out: Arc<Mutex<Option<u64>>> = Arc::new(Mutex::new(None));
    let o2 = Arc::clone(&out);
    sim.spawn(host, move |ctx| {
        for _ in 0..4 {
            ctx.sleep(10);
        }
        let before = allocs_so_far();
        for _ in 0..1_000 {
            ctx.sleep(10);
        }
        *o2.lock().unwrap() = Some(allocs_so_far() - before);
    });
    let r = sim.run_until_idle();
    assert_eq!(r.blocked, 0);
    assert_eq!(r.events, 1 + 1_004, "one spawn, one wake per sleep");
    assert_eq!(
        out.lock().unwrap().take(),
        Some(0),
        "1,000 sleeps, no allocation"
    );
}

/// A frame the wire delivers starts a fresh process, as a `schedule_run_at`
/// body does (here the bodies stand in for frames), and the run loop calls
/// it on the stack it is itself on: 2,000 of them in one run start no
/// coroutine and switch nowhere. What a run does cost is its own driver —
/// one coroutine from the idle list, in and out once, and not one
/// allocation: the loop is a plain function, so the box it is started from
/// has no bytes — however many bodies it runs.
#[test]
fn a_delivery_starts_nothing() {
    use std::sync::atomic::{AtomicU64, Ordering};
    let sim = Sim::new(SimConfig::scheduled());
    let host = Kernel::new(&sim, "host-a").host();
    let ran = Arc::new(AtomicU64::new(0));
    // One run of `bodies` deliveries: (switches, starts, allocations).
    let run = |bodies: u64| {
        let ctx = sim.ctx(host);
        for _ in 0..bodies {
            let ran = Arc::clone(&ran);
            // All due at once: popping them moves no key between the
            // timeline's buckets, which is where a spread-out run allocates.
            ctx.schedule_run_at(
                sim.virtual_now(),
                host,
                Box::new(move |ctx: &Ctx| {
                    ctx.charge(3);
                    ran.fetch_add(1, Ordering::Relaxed);
                }),
            );
        }
        let (before, allocs) = (xkernel::vproc::counts(), allocs_so_far());
        let r = sim.run_until_idle();
        let (after, allocs) = (xkernel::vproc::counts(), allocs_so_far() - allocs);
        assert_eq!(r.blocked, 0);
        (after.0 - before.0, after.1 - before.1, allocs)
    };
    // The first run grows the process table. After it a run allocates the
    // report's per-host vector and nothing else, whether it delivers no
    // frame or 2,000: the keys of those are filed, in the timeline's blocks,
    // before the run starts, and popping them frees blocks without
    // reallocating anything.
    run(2_000);
    assert_eq!(run(0), (2, 1, 1));
    assert_eq!(run(2_000), (2, 1, 1));
    assert_eq!(ran.load(Ordering::Relaxed), 4_000);
}

#[test]
fn enabled_tracing_records_events_and_attributes_cost() {
    let (_allocs, sim) = allocs_for_hot_loop(SimConfig::scheduled().with_trace());
    assert!(sim.trace_enabled());
    let events = sim.trace_events();
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::Note("hot"))),
        "notes recorded"
    );
    assert!(
        events.iter().any(|e| matches!(e.kind, EventKind::Push)),
        "span entries recorded"
    );
    let bd = sim.cost_breakdown();
    assert!(!bd.is_empty());
    // 1004 charges of 5/3 ns plus scheduler attribution; at minimum the
    // explicit compute charges are all there.
    assert!(
        bd.class_total(OpClass::Compute) >= 4 * 5 + 1_000 * 3,
        "compute charges attributed: {bd:?}"
    );
}
