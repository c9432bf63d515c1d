//! `Scenario::run` takes its stack's rig from a thread-local pool, rewinds it
//! to the warmed instant, reseeds it, runs, and puts it back. The pool builds
//! one rig a stack and thread, and a protocol that draws from the PRNG while
//! booting without saying so in its reseed hook fails the first fork, by
//! count. That a fork reports what a rig built for the run reports, on every
//! scenario of the chaos matrix and its populations, and that those reports
//! match the pinned lists in `pins/`, is `run_paths.rs`'s fork column.

use std::rc::Rc;

use chaos::{full_matrix, pool_stats, PoolStats, RunOpts};
use inet::testbed::{base_registry, two_hosts};
use simnet::Template;
use xkernel::prelude::*;
use xkernel::sim::SimConfig;

#[test]
fn a_thousand_scenarios_build_eight_rigs() {
    let cells = full_matrix(0, 1, 8);
    assert_eq!(
        pool_stats(),
        PoolStats::default(),
        "a new thread, a new pool"
    );
    for i in 0..1_000 {
        let mut sc = cells[i % cells.len()];
        sc.seed = 500_000 + i as u64;
        sc.run();
    }
    assert_eq!(
        pool_stats(),
        PoolStats {
            built: 8,
            forked: 1_000,
            given_away: 0,
            discarded: 0
        }
    );
    // An outcome takes its rig with it; the next run builds the stack's next.
    let out = cells[0].run_with(RunOpts::default());
    assert_eq!(out.report, cells[0].run());
    assert_eq!(
        pool_stats(),
        PoolStats {
            built: 9,
            forked: 1_002,
            given_away: 1,
            discarded: 0
        }
    );
}

/// A protocol that draws from the simulation's PRNG in `boot` and does not
/// say so in `reseed`.
struct Drawer {
    me: ProtoId,
}

impl Protocol for Drawer {
    fn name(&self) -> &'static str {
        "drawer"
    }

    fn id(&self) -> ProtoId {
        self.me
    }

    fn open(&self, _ctx: &Ctx, _u: ProtoId, _p: &ParticipantSet) -> XResult<SessionRef> {
        Err(XError::Unsupported("drawer opens nothing"))
    }

    fn open_enable(&self, _ctx: &Ctx, _u: ProtoId, _p: &ParticipantSet) -> XResult<()> {
        Ok(())
    }

    fn demux(&self, _ctx: &Ctx, _lls: &SessionRef, _msg: Message) -> XResult<()> {
        Ok(())
    }

    fn boot(&self, ctx: &Ctx) -> XResult<()> {
        ctx.next_u64();
        Ok(())
    }
}

/// Two hosts, one unhooked draw each, beside CHANNEL's hooked one: the
/// template's set-up made four draws and the hooks redo two. Caught at the
/// first fork, by count — not three PRs later by a report that differs.
#[test]
#[should_panic(expected = "had made 4 PRNG draw(s) but its protocols' reseed hooks redid 2")]
fn a_boot_time_draw_without_a_reseed_hook_fails_the_first_fork() {
    let mut reg = base_registry();
    xrpc::register_ctors(&mut reg);
    reg.add(
        "drawer",
        |a| Ok(Rc::new(Drawer { me: a.me }) as ProtocolRef),
    );
    let graph = format!("{}drawer\n", xrpc::stacks::L_RPC_VIP.graph);
    let tb = two_hosts(SimConfig::scheduled().with_seed(1), &reg, &graph).expect("rig builds");
    Template::capture(&tb.sim, &tb.net).fork(2);
}
