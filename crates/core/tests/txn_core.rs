//! `xrpc::txn` against fakes: the wait loop with a scripted `send`/`poll`,
//! the RTO policy's PRNG discipline, the at-most-once record and the channel
//! allocator, with no protocol on top.

use std::cell::{Cell, RefCell};
use std::sync::{Arc, Mutex};

use xkernel::keep::Rewind;
use xkernel::prelude::*;
use xkernel::sim::{Sim, SimConfig};
use xrpc::txn::{self, Arrival, AtMostOnce, Incarnation, Poll, RtoPolicy};

/// The timeout of every wait when no policy is given.
const WAIT_NS: u64 = 1_000_000;

/// What one scripted exchange did, as seen from outside `transact`.
#[derive(Debug, Default, PartialEq, Eq)]
struct Seen {
    sends: Vec<u32>,
    polls: u32,
    releases: u32,
    outcome: Option<Result<(u32, u32), String>>,
    elapsed: u64,
    next_draw: u64,
}

/// Runs one `transact` in a client process of a fresh seeded simulation.
/// `script` yields what each successive `poll` returns (then `Timeout` for
/// ever); `fail_send_at` makes that transmission fail synchronously.
fn exchange(
    cfg: SimConfig,
    max_retries: u32,
    policy: Option<std::rc::Rc<RtoPolicy>>,
    script: Vec<Poll<u32>>,
    fail_send_at: Option<u32>,
) -> (Seen, xkernel::sim::HostStats) {
    let sim = Sim::new(cfg.with_seed(0x7e57));
    let kernel = Kernel::new(&sim, "client");
    let seen = Arc::new(Mutex::new(Seen::default()));
    let s2 = Arc::clone(&seen);
    let body = move |ctx: &Ctx| {
        let sema = SharedSema::new(0);
        let rto = policy.as_ref().map(|p| p.for_call(0));
        let (sends, polls, releases) = (RefCell::new(Vec::new()), Cell::new(0), Cell::new(0));
        let mut script = script.into_iter();
        let t0 = ctx.now();
        let r = txn::transact(
            ctx,
            &sema,
            max_retries,
            format_args!("fake exchange"),
            |attempt| rto.as_ref().map_or(WAIT_NS, |r| r.timeout(ctx, attempt)),
            |attempt| {
                sends.borrow_mut().push(attempt);
                if fail_send_at == Some(attempt) {
                    return Err(XError::Unreachable("fake lower".into()));
                }
                Ok(())
            },
            || {
                polls.set(polls.get() + 1);
                script.next().unwrap_or(Poll::Timeout)
            },
            || releases.set(releases.get() + 1),
        );
        *s2.lock().unwrap() = Seen {
            sends: sends.into_inner(),
            polls: polls.get(),
            releases: releases.get(),
            outcome: Some(r.map_err(|e| format!("{e:?}"))),
            elapsed: ctx.now() - t0,
            next_draw: ctx.next_u64(),
        };
    };
    match sim.mode() {
        Mode::Inline => body(&sim.ctx(kernel.host())),
        Mode::Scheduled => {
            sim.spawn(kernel.host(), body);
            assert_eq!(sim.run_until_idle().blocked, 0);
        }
    }
    let seen = std::mem::take(&mut *seen.lock().unwrap());
    (seen, sim.host_stats(kernel.host()))
}

/// The PRNG's output after `draws` draws in an identically seeded world.
fn draw_after(draws: u32) -> u64 {
    let sim = Sim::new(SimConfig::scheduled().with_seed(0x7e57));
    let kernel = Kernel::new(&sim, "client");
    let ctx = sim.ctx(kernel.host());
    for _ in 0..draws {
        ctx.next_u64();
    }
    ctx.next_u64()
}

#[test]
fn a_rearm_wake_waits_again_without_counting_an_attempt() {
    let script = vec![Poll::Rearm, Poll::Rearm, Poll::Rearm];
    let (seen, stats) = exchange(SimConfig::scheduled(), 2, None, script, None);
    assert_eq!(seen.sends, [0, 1, 2], "three transmissions, no more");
    assert_eq!(seen.polls, 6, "three re-armed waits, then one per round");
    assert!(
        seen.elapsed >= 6 * WAIT_NS,
        "every wait ran its full timeout"
    );
    assert_eq!(
        seen.outcome,
        Some(Err(
            "Timeout(\"fake exchange after 3 attempts\")".to_string()
        ))
    );
    assert_eq!((stats.timeouts_fired, stats.retransmits), (3, 2));
    assert_eq!(seen.releases, 1);
}

#[test]
fn inline_mode_treats_a_rearm_as_the_timeout_and_gives_up_at_once() {
    let (seen, stats) = exchange(
        SimConfig::inline_mode(),
        8,
        None,
        vec![Poll::Rearm, Poll::Done(7)],
        None,
    );
    assert_eq!(seen.sends, [0]);
    assert_eq!(seen.polls, 1, "inline mode cannot wait a second time");
    assert_eq!(
        seen.outcome,
        Some(Err(
            "Timeout(\"fake exchange after 1 attempts\")".to_string()
        ))
    );
    assert_eq!((stats.timeouts_fired, stats.retransmits), (1, 0));
    assert_eq!(seen.releases, 1);
}

#[test]
fn the_prng_is_drawn_once_per_retransmission_and_never_on_a_clean_call() {
    let adaptive = || Some(std::rc::Rc::new(RtoPolicy::new(1_000_000, true)));
    // Clean: the first poll finds the reply.
    let (clean, stats) = exchange(
        SimConfig::scheduled(),
        8,
        adaptive(),
        vec![Poll::Done(7)],
        None,
    );
    assert_eq!(clean.outcome, Some(Ok((7, 0))));
    assert_eq!(clean.next_draw, draw_after(0), "no draw on a clean call");
    assert_eq!(
        (clean.releases, stats.timeouts_fired, stats.retransmits),
        (0, 0, 0)
    );
    // Three rounds time out, the fourth transmission is answered.
    let script = vec![Poll::Timeout, Poll::Timeout, Poll::Timeout, Poll::Done(9)];
    let (retried, stats) = exchange(SimConfig::scheduled(), 8, adaptive(), script, None);
    assert_eq!(retried.outcome, Some(Ok((9, 3))));
    assert_eq!(retried.sends, [0, 1, 2, 3]);
    assert_eq!(
        retried.next_draw,
        draw_after(3),
        "one jitter draw per retransmission"
    );
    assert_eq!((stats.timeouts_fired, stats.retransmits), (3, 3));
    assert_eq!(retried.releases, 0, "success never runs release");
    // The fixed scheme never draws, however often it retransmits.
    let fixed = Some(std::rc::Rc::new(RtoPolicy::new(1_000_000, false)));
    let script = vec![Poll::Timeout, Poll::Timeout, Poll::Done(9)];
    let (fixed, _) = exchange(SimConfig::scheduled(), 8, fixed, script, None);
    assert_eq!(fixed.outcome, Some(Ok((9, 2))));
    assert_eq!(fixed.next_draw, draw_after(0));
    assert!(
        (3_000_000..6_000_000).contains(&fixed.elapsed),
        "the seed three times (backoff would make it 7 ms): {}",
        fixed.elapsed
    );
}

#[test]
fn release_runs_exactly_once_on_each_error_exit() {
    // A transmission that fails synchronously: its error comes back as it
    // is, nothing is counted as a timeout.
    for at in [0, 2] {
        let (seen, stats) = exchange(SimConfig::scheduled(), 8, None, vec![], Some(at));
        assert_eq!(
            seen.outcome,
            Some(Err("Unreachable(\"fake lower\")".to_string()))
        );
        assert_eq!(seen.sends.last(), Some(&at));
        assert_eq!(seen.releases, 1);
        assert_eq!(stats.timeouts_fired, u64::from(at));
    }
    // The retry budget exhausted.
    let (seen, stats) = exchange(SimConfig::scheduled(), 4, None, vec![], None);
    assert_eq!(seen.sends, [0, 1, 2, 3, 4]);
    assert_eq!(seen.releases, 1);
    assert_eq!((stats.timeouts_fired, stats.retransmits), (5, 4));
}

#[test]
fn karns_rule_and_the_knobs_live_in_the_policy() {
    let p = RtoPolicy::new(100, true);
    p.observe(1, 5_000_000);
    assert_eq!(
        p.rtt_estimate(),
        0,
        "a retransmitted exchange teaches nothing"
    );
    p.observe(0, 5_000_000);
    assert_eq!(p.rtt_estimate(), 5_000_000);
    assert!(matches!(
        p.control(&ControlOp::GetRtt),
        Some(ControlRes::U64(5_000_000))
    ));
    assert!(p.control(&ControlOp::SetBackoff(2)).is_some());
    assert!(p.control(&ControlOp::GetMaxPacket).is_none());
    p.set_adaptive(false);
    let snap = p.save();
    p.reseed();
    assert_eq!(
        (p.rtt_estimate(), p.max_backoff(), p.adaptive()),
        (0, txn::DEFAULT_MAX_BACKOFF, true)
    );
    p.rewind(&snap);
    assert_eq!(
        (p.rtt_estimate(), p.max_backoff(), p.adaptive()),
        (5_000_000, 2, false)
    );
}

#[test]
fn at_most_once_classifies_every_arrival() {
    let mut r = AtMostOnce::new(0xb007);
    assert_eq!(r.arrive(0xb007, 1), Arrival::New);
    assert_eq!(r.in_progress(), Some(1));
    assert_eq!(r.arrive(0xb007, 1), Arrival::InProgress);
    r.answer(1);
    assert_eq!(r.in_progress(), None);
    assert_eq!(r.arrive(0xb007, 1), Arrival::Answered);
    assert_eq!(r.arrive(0xb007, 2), Arrival::New, "acknowledges reply 1");
    assert_eq!(r.arrive(0xb007, 1), Arrival::Old, "reply 1 is gone");
    r.abort();
    assert_eq!(
        r.arrive(0xb007, 2),
        Arrival::New,
        "a shed request comes again"
    );
    r.answer(2);
    // A new client incarnation starts its sequence numbers over.
    assert_eq!(r.arrive(0xb008, 1), Arrival::New);
    assert_eq!(r.arrive(0xb008, 2), Arrival::New);
}

#[test]
fn channel_numbers_skip_zero_and_live_numbers_across_wraps() {
    let ids = Incarnation::default();
    let live = |c: u16| (1..=8).contains(&c) || c == 65_535;
    for _ in 0..(2 * 65_536u32) {
        let c = ids.alloc_channel(live);
        assert!(c != 0 && !live(c), "issued {c}");
    }
    let saved = ids.save();
    let a = ids.alloc_channel(live);
    ids.rewind(&saved);
    assert_eq!(ids.alloc_channel(live), a, "the counter rewinds");
}
