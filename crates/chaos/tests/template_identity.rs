//! A scenario forked from a pooled template is the scenario built from
//! scratch.
//!
//! `Scenario::run` takes its stack's rig from a thread-local pool, rewinds it
//! to the warmed instant, reseeds it, runs, and puts it back. Everything
//! below holds that to the one standard a fork has (SNIPPETS.md, x07's
//! replay rule): the same output, the same `fuel_used`, the same
//! `sched_hash` — `ChaosReport: Eq` covers all three — as a rig nobody had
//! used, built under the scenario's own seed.
//!
//! Two oracles. `run_with(check)` builds a rig for that one run under the
//! scenario's seed (its rewind comes straight after the capture and its
//! reseed redraws the same seed's draws: both the identity), and the checker
//! only observes (`check_identity.rs`), so its report is the from-scratch
//! one. And the matrix's reports fold to the digest the runner produced
//! before templates existed, when every scenario built its own rig and
//! nothing was ever restored.

use std::rc::Rc;

use chaos::{full_matrix, pool_stats, run_matrix, ChaosReport, PoolStats, RunOpts, Scenario};
use inet::testbed::{base_registry, two_hosts};
use simnet::Template;
use xkernel::prelude::*;
use xkernel::sim::SimConfig;

const SEED_BASES: [u64; 5] = [0, 1000, 7000, 67000, 99000];
const SEEDS_PER_CELL: u64 = 25;

fn from_scratch(sc: &Scenario) -> ChaosReport {
    let opts = RunOpts {
        check: true,
        ..RunOpts::default()
    };
    sc.run_with(opts).report
}

/// FNV-1a over what a report held before `timed_out` was split out of
/// `failed` — the fields the pre-template digests were taken over.
fn fold(h: u64, r: &ChaosReport) -> u64 {
    let line = format!(
        "{} {:?} {:?} {} {} {} {} {} {} {}\n",
        r.label,
        r.run,
        r.lan,
        r.attempted,
        r.completed,
        r.mismatched,
        r.failed,
        r.executed,
        r.garbage,
        r.duplicate_execs
    );
    line.bytes().fold(h, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[test]
fn every_cell_of_the_matrix_forks_to_its_from_scratch_report() {
    let mut digest = FNV_OFFSET;
    let mut n = 0u64;
    for base in SEED_BASES {
        let matrix = full_matrix(base, SEEDS_PER_CELL, 8);
        assert_eq!(matrix.len() as u64, 43 * SEEDS_PER_CELL);
        for sc in &matrix {
            // Both orders: neither run may leave anything behind that the
            // other picks up.
            let (pooled, scratch) = if n.is_multiple_of(2) {
                let pooled = sc.run();
                (pooled, from_scratch(sc))
            } else {
                let scratch = from_scratch(sc);
                (sc.run(), scratch)
            };
            assert_eq!(pooled, scratch, "pooled vs from scratch");
            // The same rig, the same scenario, back to back.
            assert_eq!(sc.run(), pooled, "{}: second run on the rig", pooled.label);
            digest = fold(digest, &pooled);
            n += 1;
        }
    }
    assert_eq!(n, 5_375);
    assert_eq!(
        digest, 0xe0ef_02d2_fc4b_33f0,
        "the 5,375 reports no longer fold to what the from-scratch runner \
         (the parent of PR 22) produced: {digest:#x}"
    );
}

#[test]
fn populations_fork_to_their_from_scratch_reports() {
    let mut digest = FNV_OFFSET;
    let mut n = 0;
    for sc in full_matrix(31, 2, 20) {
        if sc.stack.name() == "PSYNC" {
            continue; // two-party: populations do not apply
        }
        let sc = Scenario {
            population: 3,
            ..sc
        };
        let pooled = sc.run();
        assert_eq!(pooled.attempted, 60);
        assert_eq!(pooled, from_scratch(&sc));
        assert_eq!(sc.run(), pooled);
        digest = fold(digest, &pooled);
        n += 1;
    }
    assert_eq!(n, 82);
    assert_eq!(digest, 0x5a1a_a11e_be23_8a0d, "{digest:#x}");
}

/// Each worker thread owns its pool, so which rig a scenario lands on
/// depends on the thread count; its report must not.
#[test]
fn the_matrix_is_the_same_matrix_on_one_thread_and_two() {
    let matrix = full_matrix(4100, 6, 8);
    let one = run_matrix(matrix.clone(), 1, false);
    let two = run_matrix(matrix, 2, false);
    assert_eq!(one, two);
}

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
