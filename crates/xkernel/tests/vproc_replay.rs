//! Property tests for the vproc engine's replay stability: the scheduler
//! is a pure function of its inputs, so running the *same* generated
//! workload twice must produce bit-identical [`RunReport`]s — the same
//! event count, the same `sched_hash` interleaving fingerprint, the same
//! `fuel_used` — with no tolerance. Coroutines, stackless machines, timer
//! sleeps, semaphore waits with and without timeouts, and fuel-exhaustion
//! kills all go through the generator.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use xkernel::cost::CostModel;
use xkernel::prelude::*;
use xkernel::sim::{RunReport, SharedSema, Sim, SimConfig, VProc, VStep, WakeReason};

/// A machine that V's `sema` `left` times, `period` ns apart.
#[derive(Clone)]
struct Pinger {
    left: u32,
    period: u64,
    sema: SharedSema,
}

impl VProc for Pinger {
    fn resume(&mut self, ctx: &Ctx, _why: WakeReason) -> VStep {
        if self.left == 0 {
            return VStep::Done;
        }
        self.left -= 1;
        self.sema.v(ctx);
        VStep::Sleep(self.period)
    }

    fn label(&self) -> &'static str {
        "pinger"
    }
}

/// A machine that waits on `sema` `left` times under a timeout, tallying
/// how each wait concluded. Always terminates: the timeout is its floor.
#[derive(Clone)]
struct Poller {
    left: u32,
    timeout: u64,
    sema: SharedSema,
    timeouts: Arc<Mutex<u32>>,
}

impl VProc for Poller {
    fn resume(&mut self, ctx: &Ctx, why: WakeReason) -> VStep {
        let _ = ctx;
        if matches!(why, WakeReason::Timeout) {
            *self.timeouts.lock().unwrap() += 1;
        }
        if self.left == 0 {
            return VStep::Done;
        }
        self.left -= 1;
        VStep::Wait {
            sema: self.sema.clone(),
            timeout: Some(self.timeout),
        }
    }

    fn label(&self) -> &'static str {
        "poller"
    }
}

/// One generated workload: a few pingers feeding a coroutine waiter and a
/// timeout poller, spread over two hosts.
#[derive(Clone, Debug)]
struct Workload {
    seed: u64,
    pingers: Vec<(u64, u32)>, // (period, count)
    poller_waits: u32,
    poller_timeout: u64,
}

fn workload() -> impl Strategy<Value = Workload> {
    (
        any::<u64>(),
        proptest::collection::vec(((1u64..10_000), (1u32..6)), 1..5),
        (1u32..5),
        (1u64..5_000),
    )
        .prop_map(|(seed, pingers, poller_waits, poller_timeout)| Workload {
            seed,
            pingers,
            poller_waits,
            poller_timeout,
        })
}

/// Builds and drains `w`, optionally under a per-process fuel budget.
fn run(w: &Workload, fuel: Option<u64>) -> (RunReport, u32) {
    let mut cfg = SimConfig::scheduled()
        .with_seed(w.seed)
        .with_cost(CostModel::sun3_75());
    if let Some(f) = fuel {
        cfg = cfg.with_fuel(f);
    }
    let sim = Sim::new(cfg);
    let _a = Kernel::new(&sim, "a");
    let _b = Kernel::new(&sim, "b");
    let sema = SharedSema::labeled(0, "replay.sema");
    let total: u32 = w.pingers.iter().map(|&(_, n)| n).sum();
    for (i, &(period, count)) in w.pingers.iter().enumerate() {
        sim.spawn_vproc(
            HostId(i % 2),
            Box::new(Pinger {
                left: count,
                period,
                sema: sema.clone(),
            }),
        );
    }
    // The waiter is a *coroutine*: it burns real stack between the same
    // blocking points the machines use, so the property covers both
    // continuation representations in one schedule.
    let wait_sema = sema.clone();
    sim.spawn(HostId(0), move |ctx| {
        for _ in 0..total {
            wait_sema.p(ctx);
        }
    });
    let timeouts = Arc::new(Mutex::new(0u32));
    sim.spawn_vproc(
        HostId(1),
        Box::new(Poller {
            left: w.poller_waits,
            timeout: w.poller_timeout,
            sema: SharedSema::labeled(0, "replay.poller"),
            timeouts: Arc::clone(&timeouts),
        }),
    );
    let report = sim.run_until_idle();
    let t = *timeouts.lock().unwrap();
    (report, t)
}

proptest! {
    /// Same workload, same seed — the whole report must replay bit for
    /// bit: events, ended_at, sched_hash, fuel_used, per-host counters.
    #[test]
    fn same_seed_and_schedule_replay_identically(w in workload()) {
        let (ra, ta) = run(&w, None);
        let (rb, tb) = run(&w, None);
        prop_assert_eq!(&ra, &rb);
        prop_assert_eq!(ta, tb);
        // An unfueled run kills nothing and leaves nothing blocked.
        prop_assert_eq!(ra.blocked, 0);
        prop_assert_eq!(ra.fuel_exhausted, 0);
        prop_assert!(ra.fuel_used > 0, "charged ops must meter fuel");
    }

    /// Fuel exhaustion is part of the schedule, not an abort: two runs
    /// under the same per-process budget kill the same processes at the
    /// same resume points and still replay bit for bit.
    #[test]
    fn fuel_exhaustion_is_replay_stable(w in workload(), fuel in 1u64..60) {
        let (ra, ta) = run(&w, Some(fuel));
        let (rb, tb) = run(&w, Some(fuel));
        prop_assert_eq!(&ra, &rb);
        prop_assert_eq!(ta, tb);
    }
}

/// A budget small enough that the workload cannot finish must kill at
/// least one process — and exactly the same number every time.
#[test]
fn starvation_budget_kills_deterministically() {
    let w = Workload {
        seed: 7,
        pingers: vec![(500, 5), (900, 4)],
        poller_waits: 3,
        poller_timeout: 700,
    };
    let (unfueled, _) = run(&w, None);
    assert_eq!(unfueled.fuel_exhausted, 0);
    let (ra, _) = run(&w, Some(3));
    assert!(
        ra.fuel_exhausted > 0,
        "a 3-resume budget cannot cover a 5-tick pinger"
    );
    let (rb, _) = run(&w, Some(3));
    assert_eq!(ra, rb);
    assert_ne!(
        ra.sched_hash, unfueled.sched_hash,
        "killing processes must change the schedule fingerprint"
    );
}

/// A coroutine's budget belongs to the stack its body is on. A body starts
/// on the driver's stack and keeps that stack when it first blocks, so the
/// budget must go with it: this one blocks twice and then runs away, and
/// dies on the charge — and in the run — it died in when every thunk was
/// given a coroutine, and a budget, of its own at birth.
#[test]
fn a_budget_follows_its_process_onto_the_stack_it_takes_over() {
    use std::sync::atomic::{AtomicU64, Ordering};
    let sim = Sim::new(SimConfig::scheduled().with_seed(7).with_fuel(10));
    let a = Kernel::new(&sim, "a").host();
    let landed = Arc::new(AtomicU64::new(0));
    let l = Arc::clone(&landed);
    sim.spawn(a, move |ctx| {
        let charge = || {
            l.fetch_add(1, Ordering::Relaxed);
            ctx.charge(5);
        };
        charge();
        charge();
        ctx.sleep(100);
        charge();
        ctx.sleep(100);
        loop {
            charge();
        }
    });
    // Same budget, spent otherwise: it blocks eight times and goes home.
    sim.spawn(a, |ctx| {
        for _ in 0..8 {
            ctx.sleep(70);
        }
    });
    let r = sim.run_until_idle();
    // Two sleeps cost a switch charge each; the eighth explicit charge is
    // the tenth unit.
    assert_eq!(landed.load(Ordering::Relaxed), 8);
    assert_eq!((r.blocked, r.fuel_exhausted, r.fuel_used), (0, 1, 18));
    assert_eq!((r.events, r.ended_at), (12, 4_680_110));
    assert_eq!(r.sched_hash, 5_903_694_410_513_619_989);
}

/// Charges `n` times a resume, twice, then is done.
struct Charger {
    n: u32,
    resumes: Arc<Mutex<u32>>,
}

impl VProc for Charger {
    fn resume(&mut self, ctx: &Ctx, _why: WakeReason) -> VStep {
        for _ in 0..self.n {
            ctx.charge(5);
        }
        let mut resumes = self.resumes.lock().unwrap();
        *resumes += 1;
        if *resumes == 2 {
            VStep::Done
        } else {
            VStep::Sleep(50)
        }
    }
}

/// A thunk that never blocks spends its budget on the driver's stack, where
/// the next process starts a moment later. What it leaves behind — nothing,
/// or a unit it had no use for — is not theirs: a machine pays a unit per
/// *resume*, whatever it charges inside one, and the next thunk starts on a
/// full budget.
#[test]
fn a_spent_budget_is_not_the_next_process_s_on_the_same_driver() {
    let sim = Sim::new(SimConfig::scheduled().with_seed(7).with_fuel(3));
    let a = Kernel::new(&sim, "a").host();
    let finished = Arc::new(Mutex::new(0));
    let modest = |sim: &Sim| {
        let f = Arc::clone(&finished);
        sim.spawn(a, move |ctx| {
            ctx.charge(5);
            ctx.charge(5);
            *f.lock().unwrap() += 1;
        });
    };
    sim.spawn(a, |ctx| loop {
        ctx.charge(5);
    });
    // Leaves one unit unspent, right before the machine's twenty charges.
    modest(&sim);
    let resumes = Arc::new(Mutex::new(0));
    let machine = Charger {
        n: 10,
        resumes: Arc::clone(&resumes),
    };
    sim.spawn_vproc(a, Box::new(machine));
    modest(&sim);
    let r = sim.run_until_idle();
    assert_eq!(*resumes.lock().unwrap(), 2, "twenty charges, two units");
    assert_eq!(*finished.lock().unwrap(), 2);
    assert_eq!((r.blocked, r.fuel_exhausted), (0, 1));
    assert_eq!(r.fuel_used, 3 + 2 + (20 + 2 + 1) + 2);
    assert_eq!(r.sched_hash, 5_338_088_315_399_216_686);
}
