//! How many `OwnerCell` entries a warm inline null call makes, per stack.
//!
//! Every entry is a load and two stores now, not two read-modify-writes, but
//! it is still work on the one path every workload shares, and it is exact:
//! the same call enters the same cells in the same order on every run. The
//! counts below are what DESIGN.md §12's per-protocol table adds up to, and
//! they are pinned exactly, one row printed a stack: a protocol that starts
//! entering a table twice where once would do fails here before any
//! benchmark could see it, and one that stops entering a table fails too and
//! moves its pin down. Debug builds only — release builds carry no counter.
#![cfg(debug_assertions)]

mod common;

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use common::null_call::{paper_null_call, sun_rpc_null_call, PAPER_STACKS};
use xkernel::cell::entries;
use xkernel::prelude::*;
use xkernel::sim::SimConfig;

#[test]
fn a_warm_inline_null_call_enters_no_more_cells_than_pinned() {
    println!("stack            cell entries");
    for (stack, pinned) in PAPER_STACKS.into_iter().zip([15, 21, 15, 22, 17]) {
        let n = paper_null_call(stack, entries);
        println!("{:<16} {n:>12}", stack.name);
        assert_eq!(
            n, pinned,
            "{}: {n} cell entries per warm null call, pinned at {pinned}",
            stack.name
        );
    }
}

#[test]
fn a_warm_inline_sun_rpc_null_call_enters_no_more_cells_than_pinned() {
    let n = sun_rpc_null_call(entries);
    println!("SUNRPC-UDP       {n:>12}");
    assert_eq!(
        n, 19,
        "SUNRPC-UDP: {n} cell entries per warm null call, pinned at 19"
    );
}

/// The charging path — what every layer crossing calls — reads and bumps
/// per-host lock-free cells (DESIGN.md §11): with tracing off, charging a
/// host, reading a clock, noting a robustness event, reading the boot epoch
/// and drawing from the PRNG enter no cell at all, the engine's least of all.
/// Nor, with every observer off, do the other probe sites a protocol or the
/// wire reaches: a trace note, a layer span, a journaled fault. A lock taken
/// there would pass every behavioural test and double the engine's cost.
#[test]
fn the_charging_path_enters_no_cell_with_tracing_off() {
    fn charging_path(ctx: &Ctx) -> u64 {
        let before = entries();
        for _ in 0..1_000 {
            ctx.charge(7);
            ctx.charge_class(OpClass::Demux, 3);
            std::hint::black_box((ctx.now(), ctx.event_time(), ctx.boot_epoch()));
            ctx.note(RobustEvent::DuplicateSuppressed);
            std::hint::black_box(ctx.next_u64());
            ctx.trace_note("off");
            drop(ctx.enter_layer(ProtoId(0), EventKind::Push, 64));
            ctx.journal_fault(0, 0, xkernel::journal::FAULT_DROP, 0);
        }
        entries() - before
    }
    let sim = Sim::new(SimConfig::scheduled());
    let host = Kernel::new(&sim, "h").host();
    assert_eq!(
        charging_path(&sim.ctx(host)),
        0,
        "from a host's setup context"
    );
    let in_process = Arc::new(AtomicU64::new(u64::MAX));
    let seen = Arc::clone(&in_process);
    sim.spawn(host, move |ctx| seen.store(charging_path(ctx), Relaxed));
    assert_eq!(sim.run_until_idle().blocked, 0);
    assert_eq!(in_process.load(Relaxed), 0, "from inside a process");
    assert!(sim.now_of(host) >= 2 * 1_000 * 10, "every charge landed");
}
