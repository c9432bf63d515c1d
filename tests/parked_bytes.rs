//! What a parked process costs in live heap: a stackless machine blocked on
//! a semaphore of its own (a resident client waiting for its call's reply),
//! and one asleep on a timer (a client thinking). Counted with the testing
//! allocator, so exact — the same blocks on every run, debug and release
//! alike — and pinned exactly: a change that makes a parked process dearer
//! fails here, and one that makes it cheaper moves the pin down.
//!
//! The figure is everything the population grew the heap by, divided by its
//! size: the machine's box, its semaphore, the waiter, the process-table
//! slot (which also holds the key of a sleeper's wake), the timeline key
//! in its block, and the share of any table's spare capacity. DESIGN.md
//! §11, "What a parked process costs", has the component table.

mod common;

use common::live_bytes;
use xkernel::prelude::*;
use xkernel::sim::{SharedSema, Sim, SimConfig, VProc, VStep, WakeReason};

/// A population big enough that the tables' doubling leaves no remainder to
/// speak of, small enough to run in a blink.
const N: u64 = 8_192;

/// Waits once on its own semaphore, as a resident client waits for its
/// call's reply, and ends when that is signalled (here, never).
struct Waiting {
    sema: SharedSema,
    woken: bool,
}

impl VProc for Waiting {
    fn resume(&mut self, _ctx: &Ctx, _why: WakeReason) -> VStep {
        if self.woken {
            return VStep::Done;
        }
        self.woken = true;
        VStep::Wait {
            sema: self.sema.clone(),
            timeout: None,
        }
    }
}

/// Sleeps far past the measurement.
struct Asleep(u64);

impl VProc for Asleep {
    fn resume(&mut self, _ctx: &Ctx, _why: WakeReason) -> VStep {
        VStep::Sleep(1_000_000_000 + self.0)
    }
}

/// The heap `N` machines made by `make` hold once each has run to its first
/// blocking point.
fn parked_bytes(make: impl Fn(u64) -> Box<dyn VProc>) -> i64 {
    let sim = Sim::new(SimConfig::scheduled());
    let host = Kernel::new(&sim, "h").host();
    let before = live_bytes();
    for i in 0..N {
        sim.spawn_vproc(host, make(i));
    }
    let report = sim.run_until_time(1_000);
    assert_eq!(report.blocked, N as usize, "every machine parked");
    let grown = live_bytes() - before;
    sim.kill_suspended();
    grown
}

/// Asserts that the population grew the heap by exactly `pinned` bytes,
/// printing what that is per process.
fn assert_pinned(what: &str, grown: i64, pinned: i64) {
    let per = grown as f64 / N as f64;
    println!("{what}: {grown} B, {per:.1} B a process");
    assert_eq!(grown, pinned, "{what}: {per:.1} B a process");
}

/// 121.9 B a process: the 16 B machine, its 56 B semaphore with the waiter
/// held inline (a semaphore that allocated a queue for its first waiter
/// would add 192), a 48 B process-table slot that also held the spawn's
/// key, and 1.9 B of what the timeline keeps once the spawn keys are
/// popped: 17 free 776 B blocks and the run's deque of block addresses. A
/// timeline that kept every block its spawn keys had filled would add about 24.
#[test]
fn a_machine_parked_on_its_own_semaphore_costs_exactly_pinned() {
    let grown = parked_bytes(|_| {
        Box::new(Waiting {
            sema: SharedSema::new(0),
            woken: false,
        })
    });
    assert_pinned("parked on a semaphore", grown, 998_672);
}

/// 81.2 B a process: the 8 B machine, a 48 B process-table slot that holds
/// its wake's key, the 24 B timeline key with its 0.25 B share of the 8 B
/// link in its 32-key block, and 1.0 B of part-filled and free blocks and
/// the run's deque of block addresses.
#[test]
fn a_sleeping_machine_costs_exactly_pinned() {
    let grown = parked_bytes(|i| Box::new(Asleep(i)));
    assert_pinned("asleep", grown, 665_280);
}
