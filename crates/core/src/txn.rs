//! The transaction core under CHANNEL, M_RPC and REQUEST_REPLY.
//!
//! The paper's case for layering is reuse: FRAGMENT is written once and
//! Psync takes it as it stands. The three request/reply layers here are the
//! same kind of layer — send, wait, retransmit, give up; remember what was
//! answered; keep a fixed set of channels — so what recovers from a lost
//! packet is written once, in this module, and each protocol passes in what
//! is genuinely its own (header codec, fragment masks, what a slot holds) as
//! closures and small values:
//!
//! * [`transact`] — the client's wait loop;
//! * [`RtoPolicy`] — how long each attempt waits, with its run-time knobs;
//! * [`AtMostOnce`] — the server's record of what it has seen and answered;
//! * [`Pool`] — a semaphore-guarded free list of channels;
//! * [`Incarnation`] — the boot id and the channel numbers issued under it.
//!
//! The virtual machine cannot tell this module exists: per call, the order
//! of charges, PRNG draws, robustness notes and semaphore operations is the
//! one each protocol had when it carried its own copy (DESIGN.md §14).

use std::cell::Cell;
use std::fmt;
use std::rc::Rc;

use xkernel::cell::OwnerCell;
use xkernel::keep::Rewind;

use xkernel::lint::{BlockPoint, ProtoContract, SemaContract};
use xkernel::prelude::*;
use xkernel::sim::Nanos;

use crate::rto::{backoff_rto, RtoEstimator};

/// Sprite RPC's timeout for a single-fragment request (CHANNEL and M_RPC),
/// and the cold seed of CHANNEL's adaptive RTO.
pub const BASE_TIMEOUT_NS: Nanos = 100_000_000;
/// Extra wait per additional fragment in flight: the size-dependent half of
/// the paper's step function.
const PER_FRAG_NS: Nanos = 25_000_000;
/// Retransmission rounds before a Sprite RPC call gives up.
pub const MAX_RETRIES: u32 = 8;
/// Floor for the adaptive RTO.
const MIN_RTO_NS: Nanos = 1_000_000;
/// Ceiling for the adaptive RTO; also caps exponential backoff.
const MAX_RTO_NS: Nanos = 10_000_000_000;
/// Default cap on consecutive exponential-backoff doublings; the
/// `SetBackoff` control op overrides it until the next reboot.
pub const DEFAULT_MAX_BACKOFF: u32 = 6;

/// The step function's allowance for a message the layer below moves in
/// `frags` pieces — "long enough to be sure that the fragmentation layer is
/// not in the middle of transmitting the message".
pub fn frag_allowance(frags: usize) -> Nanos {
    PER_FRAG_NS * frags.saturating_sub(1) as u64
}

// ---------------------------------------------------------------------------
// The client wait loop.
// ---------------------------------------------------------------------------

/// What the caller's slot showed after a wake.
pub enum Poll<R> {
    /// The reply is in; the slot has been cleared.
    Done(R),
    /// The server said it is alive and working (an explicit ACK): wait
    /// again, without counting a retransmission round.
    Rearm,
    /// Nothing usable arrived.
    Timeout,
}

/// One request/reply exchange: `send`, wait on `sema` for `timeout(attempt)`,
/// `poll` the slot, and retransmit until a reply arrives or `max_retries`
/// rounds have timed out. Returns the reply and the number of rounds that
/// timed out first (0 = a clean exchange, the only kind Karn's rule lets
/// [`RtoPolicy::observe`] learn from).
///
/// `send(attempt)` and `timeout(attempt)` see 0 on the first transmission;
/// the timeout is computed *before* the send, so a jitter draw precedes the
/// send's charges. `poll` clears the slot itself when it returns
/// [`Poll::Done`]. On every error exit — a synchronous failure of `send`
/// (say ARP could not resolve the peer), or the retry budget exhausted —
/// `release` runs exactly once before the error is returned, and it is the
/// only place a slot is cleared on an error path: a channel that goes back
/// to its pool, or a transaction table that outlives the call, never keeps
/// a forever-outstanding request (the XK011 guarantee, see
/// [`awaits_reply`]). Inline mode cannot wait twice, so there a `Rearm` is
/// a timeout and the first timeout gives up.
// One call site per instantiation: inlined, the loop sits in each
// protocol's `push` as its own copy did, closures and reply moves gone
// (left to the heuristic it stayed out of line, ≈ 220 instructions a call).
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn transact<R>(
    ctx: &Ctx,
    sema: &SharedSema,
    max_retries: u32,
    what: fmt::Arguments<'_>,
    mut timeout: impl FnMut(u32) -> Nanos,
    mut send: impl FnMut(u32) -> XResult<()>,
    mut poll: impl FnMut() -> Poll<R>,
    release: impl FnOnce(),
) -> XResult<(R, u32)> {
    let inline = ctx.mode() == Mode::Inline;
    let mut attempts = 0u32;
    loop {
        let wait = timeout(attempts);
        if let Err(e) = send(attempts) {
            release();
            return Err(e);
        }
        loop {
            let _ = sema.p_timeout(ctx, wait);
            match poll() {
                Poll::Done(reply) => return Ok((reply, attempts)),
                Poll::Rearm if !inline => continue,
                Poll::Rearm | Poll::Timeout => break,
            }
        }
        ctx.note(RobustEvent::TimeoutFired);
        attempts += 1;
        if attempts > max_retries || inline {
            release();
            return Err(XError::Timeout(format!("{what} after {attempts} attempts")));
        }
        ctx.note(RobustEvent::Retransmit);
    }
}

/// The lint contract of a layer whose `push` blocks in [`transact`]: a
/// reply semaphore signalled from demux, a timer, and the slot-release
/// guarantee XK011 asks for — which holds because `transact`'s `release`
/// closure runs on every error exit. `acquires_pool` says whether the same
/// layer also takes a channel from a [`Pool`] first.
pub fn awaits_reply(contract: ProtoContract, acquires_pool: bool) -> ProtoContract {
    contract
        .sema(SemaContract {
            acquires_pool,
            awaits_reply: true,
            wakes_from_demux: true,
        })
        .blocks(&[BlockPoint::Sema, BlockPoint::Timer])
        .clears_slot_on_error()
}

// ---------------------------------------------------------------------------
// The retransmission-timeout policy.
// ---------------------------------------------------------------------------

/// A protocol's retransmission timer: the fixed timeout its configuration
/// seeds, the Jacobson/Karels estimator that takes over once replies have
/// been timed ([`crate::rto`]), exponential backoff with jitter, and the
/// knobs a policy sweep sets at run time (`SetTimeout`, `SetBackoff`,
/// [`RtoPolicy::set_adaptive`]). One per protocol object.
pub struct RtoPolicy {
    seed_ns: Nanos,
    seed_adaptive: bool,
    base_ns: Cell<u64>,
    adaptive: Cell<bool>,
    max_backoff: Cell<u32>,
    estimator: OwnerCell<RtoEstimator>,
}

/// The knobs as one call saw them when it began; a `SetTimeout` that lands
/// while the call waits takes effect from the next call.
pub struct CallRto<'a> {
    policy: &'a RtoPolicy,
    fixed: Nanos,
    extra: Nanos,
    adaptive: bool,
    max_backoff: u32,
}

impl RtoPolicy {
    /// A cold policy: every attempt waits `seed_ns` until a reply has been
    /// timed, and for ever if `adaptive` is false (the paper's scheme).
    pub fn new(seed_ns: Nanos, adaptive: bool) -> RtoPolicy {
        RtoPolicy {
            seed_ns,
            seed_adaptive: adaptive,
            base_ns: Cell::new(seed_ns),
            adaptive: Cell::new(adaptive),
            max_backoff: Cell::new(DEFAULT_MAX_BACKOFF),
            estimator: OwnerCell::new(RtoEstimator::new(MIN_RTO_NS, MAX_RTO_NS)),
        }
    }

    /// Reads the knobs for one call whose message needs `extra_ns` on top
    /// of any timeout (CHANNEL's [`frag_allowance`]; RTT samples come from
    /// whatever traffic ran first, so a warm estimate from small exchanges
    /// must not time a multi-fragment transfer).
    pub fn for_call(&self, extra_ns: Nanos) -> CallRto<'_> {
        CallRto {
            policy: self,
            fixed: self.base_ns.get() + extra_ns,
            extra: extra_ns,
            adaptive: self.adaptive.get(),
            max_backoff: self.max_backoff.get(),
        }
    }

    /// Feeds the round-trip time of an exchange that took `attempts`
    /// retransmission rounds. Karn's rule: a reply that followed a
    /// retransmission cannot be attributed to a particular send, so only
    /// clean exchanges count.
    pub fn observe(&self, attempts: u32, rtt_ns: Nanos) {
        if attempts == 0 {
            self.estimator.lock().observe(rtt_ns);
        }
    }

    /// Answers the control ops every holder of a policy understands —
    /// `GetRtt`, `SetTimeout`, `SetBackoff` — and `None` for the rest. The
    /// knobs are protocol-wide, so sessions and their protocol route here
    /// alike and a sweep can set them without a session.
    pub fn control(&self, op: &ControlOp) -> Option<ControlRes> {
        match op {
            ControlOp::GetRtt => Some(ControlRes::U64(self.rtt_estimate())),
            ControlOp::SetTimeout(ns) => {
                self.base_ns.set(*ns);
                Some(ControlRes::Done)
            }
            ControlOp::SetBackoff(n) => {
                self.max_backoff.set(*n);
                Some(ControlRes::Done)
            }
            _ => None,
        }
    }

    /// Forgets the RTT history (the peer rebooted: samples from its old
    /// incarnation mean nothing). The knobs stay.
    pub fn forget_rtt(&self) {
        self.estimator.lock().reset();
    }

    /// This host rebooted: everything goes back to what the configuration
    /// said, the run-time overrides included — a fresh incarnation must not
    /// inherit policy its configuration never specified.
    pub fn reseed(&self) {
        self.base_ns.set(self.seed_ns);
        self.adaptive.set(self.seed_adaptive);
        self.max_backoff.set(DEFAULT_MAX_BACKOFF);
        self.forget_rtt();
    }

    /// Switches between the adaptive RTO and the fixed timeout at run time
    /// (chaos experiments compare the two).
    pub fn set_adaptive(&self, on: bool) {
        self.adaptive.set(on);
    }

    /// Whether the adaptive RTO is in effect.
    pub fn adaptive(&self) -> bool {
        self.adaptive.get()
    }

    /// The backoff-doubling cap as `SetBackoff` last left it.
    pub fn max_backoff(&self) -> u32 {
        self.max_backoff.get()
    }

    /// Smoothed round-trip estimate (virtual ns; 0 until the first reply).
    pub fn rtt_estimate(&self) -> u64 {
        self.estimator.lock().srtt().unwrap_or(0)
    }
}

/// What a policy keeps: the run-time knobs and the estimator (the
/// configured seed is build-time and never changes).
impl Rewind for RtoPolicy {
    type Saved = (Nanos, bool, u32, RtoEstimator);
    fn save(&self) -> Self::Saved {
        (
            self.base_ns.get(),
            self.adaptive(),
            self.max_backoff(),
            self.estimator.save(),
        )
    }
    fn rewind(&self, (base_ns, adaptive, max_backoff, estimator): &Self::Saved) {
        self.base_ns.set(*base_ns);
        self.adaptive.set(*adaptive);
        self.max_backoff.set(*max_backoff);
        self.estimator.rewind(estimator);
    }
}

impl CallRto<'_> {
    /// How long transmission `attempt` (0 = the first) waits for its reply.
    /// Fixed mode: the base timeout plus the call's allowance, every time.
    /// Adaptive: that same value while the estimator is cold — so the first
    /// exchange of a conversation waits exactly as the paper's scheme does —
    /// and the measured RTO plus the allowance once it is warm; retries
    /// back off exponentially less a jitter, drawn from the simulation PRNG
    /// only when `attempt > 0`, which keeps a fault-free run on the PRNG
    /// stream it had before there was an estimator.
    // The one sanctioned caller of `backoff_rto` (clippy.toml).
    #[allow(clippy::disallowed_methods)]
    pub fn timeout(&self, ctx: &Ctx, attempt: u32) -> Nanos {
        if !self.adaptive {
            return self.fixed;
        }
        let warm = self.policy.estimator.lock().rto();
        let base = warm.map_or(self.fixed, |rto| rto + self.extra);
        let jitter = if attempt > 0 { ctx.next_u64() } else { 0 };
        backoff_rto(base, attempt, self.max_backoff, MAX_RTO_NS, jitter)
    }
}

// ---------------------------------------------------------------------------
// The server's at-most-once record.
// ---------------------------------------------------------------------------

/// What a server channel remembers between requests so that none executes
/// twice: the client incarnation it is talking to, the last sequence number
/// it answered, the one it is working on, and the one whose reply it still
/// holds (the holder keeps the reply itself beside this record, under the
/// same lock, and drops it when [`AtMostOnce::arrive`] says `New`).
#[derive(Clone, Debug)]
pub struct AtMostOnce {
    peer_boot: u32,
    last_seq: u32,
    in_progress: Option<u32>,
    answered: Option<u32>,
}

/// How an arriving request relates to what the channel has seen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arrival {
    /// A retransmission of the request being worked on: acknowledge it
    /// explicitly so the client stops resending.
    InProgress,
    /// A retransmission of the last request answered: resend the saved
    /// reply.
    Answered,
    /// Older than the last answered request: drop it.
    Old,
    /// A new request — recorded as in progress; it implicitly acknowledges
    /// the saved reply, which the holder may now discard.
    New,
}

impl AtMostOnce {
    /// The record of a channel first heard from under `peer_boot`.
    pub fn new(peer_boot: u32) -> AtMostOnce {
        AtMostOnce {
            peer_boot,
            last_seq: 0,
            in_progress: None,
            answered: None,
        }
    }

    /// Classifies request `seq` from client incarnation `peer_boot`. A new
    /// boot id means the client reincarnated: its sequence numbers start
    /// over, so the record does too and the request is `New`. The first
    /// two cases exclude each other and `Old` (`answer` clears what `New`
    /// set), so one order of tests serves every caller.
    pub fn arrive(&mut self, peer_boot: u32, seq: u32) -> Arrival {
        if peer_boot != self.peer_boot {
            *self = AtMostOnce::new(peer_boot);
        }
        if self.in_progress == Some(seq) {
            Arrival::InProgress
        } else if self.answered == Some(seq) {
            Arrival::Answered
        } else if seq <= self.last_seq && self.last_seq != 0 {
            Arrival::Old
        } else {
            self.answered = None;
            self.in_progress = Some(seq);
            Arrival::New
        }
    }

    /// The request being worked on, if any.
    pub fn in_progress(&self) -> Option<u32> {
        self.in_progress
    }

    /// The reply to `seq` is built and saved: nothing is in progress, and a
    /// retransmission of `seq` is from now on `Answered`.
    pub fn answer(&mut self, seq: u32) {
        self.in_progress = None;
        self.last_seq = seq;
        self.answered = Some(seq);
    }

    /// The request in progress will not be answered (no such service, or an
    /// overloaded server shed it): its retransmission must arrive as `New`,
    /// not be acknowledged as still-working.
    pub fn abort(&mut self) {
        self.in_progress = None;
    }
}

// ---------------------------------------------------------------------------
// The channel pool.
// ---------------------------------------------------------------------------

/// Sprite's fixed channel set towards one server: a free list behind a
/// counting semaphore, so a caller that finds every channel busy blocks
/// until one comes back.
pub struct Pool<T> {
    size: usize,
    sema: SharedSema,
    free: OwnerCell<Vec<T>>,
}

impl<T: Clone> Pool<T> {
    /// A pool holding `items`, all free.
    pub fn new(items: Vec<T>) -> Rc<Pool<T>> {
        Rc::new(Pool {
            size: items.len(),
            sema: SharedSema::new(items.len() as i64),
            free: OwnerCell::new(items),
        })
    }

    /// Takes a channel (blocking while none is free), runs `call` on it and
    /// puts it back, whatever `call` returned.
    // The semaphore counts the free items: past `p` one is there to pop.
    #[allow(clippy::expect_used)]
    #[inline] // As `transact`: one call site per instantiation.
    pub fn with<R>(&self, ctx: &Ctx, call: impl FnOnce(&T) -> R) -> R {
        self.sema.p(ctx);
        let item = self.free.lock().pop().expect("semaphore-guarded pool");
        let result = call(&item);
        self.free.lock().push(item);
        self.sema.v(ctx);
        result
    }

    /// Channels free right now.
    pub fn free_len(&self) -> usize {
        self.free.lock().len()
    }
}

/// What a pool keeps: the semaphore's count and the free list, whose LIFO
/// *order* decides which channel the next call uses. Saved at a quiescent
/// instant, when every channel is back.
impl<T: Clone + 'static> Rewind for Pool<T> {
    type Saved = (i64, Vec<T>);
    fn save(&self) -> Self::Saved {
        debug_assert_eq!(
            self.free_len(),
            self.size,
            "pool snapshot with channels checked out (not quiescent)"
        );
        (self.sema.save(), self.free.save())
    }
    fn rewind(&self, (sema, free): &Self::Saved) {
        self.sema.rewind(sema);
        self.free.rewind(free);
    }
}

// ---------------------------------------------------------------------------
// Incarnation and channel numbers.
// ---------------------------------------------------------------------------

/// A protocol's identity across crashes: the boot id it stamps on every
/// packet (peers reset their at-most-once state when it changes) and the
/// 16-bit counter it numbers client channels from, which survives reboots.
#[derive(Default)]
pub struct Incarnation {
    boot: Cell<u32>,
    next_chan: Cell<u16>,
}

impl Incarnation {
    /// This incarnation's boot id (0 before `boot`).
    pub fn boot_id(&self) -> u32 {
        self.boot.get()
    }

    /// Overrides the boot id (tests simulate reincarnation).
    pub fn set_boot_id(&self, id: u32) {
        self.boot.set(id);
    }

    /// Draws a fresh, non-zero boot id: `boot`, `reboot` and `reseed` all
    /// call this.
    pub fn renew(&self, ctx: &Ctx) {
        self.set_boot_id((ctx.next_u64() & 0xffff_ffff) as u32 | 1);
    }

    /// Allocates a channel number no live channel carries; `live` is asked
    /// under the caller's table lock. After 2^16 allocations the counter
    /// wraps, and handing out a number with an exchange outstanding would
    /// alias two conversations onto one at-most-once state machine. 0 is
    /// never issued — fresh counters start above it, so a post-wrap 0 would
    /// be an id no other allocation path can produce.
    // Pools are bounded far below 2^16 channels, so a free number exists.
    #[allow(clippy::panic)]
    pub fn alloc_channel(&self, live: impl Fn(u16) -> bool) -> u16 {
        for _ in 0..=u16::MAX as u32 {
            let cand = self.next_chan.get().wrapping_add(1);
            self.next_chan.set(cand);
            if cand != 0 && !live(cand) {
                return cand;
            }
        }
        // All 2^16 channel numbers live at once: structurally impossible
        // for bounded pools, but never hand out an aliased id silently.
        panic!("channel namespace exhausted");
    }
}

/// An incarnation keeps its boot id and its channel counter.
impl Rewind for Incarnation {
    type Saved = (u32, u16);
    fn save(&self) -> (u32, u16) {
        (self.boot_id(), self.next_chan.get())
    }
    fn rewind(&self, &(boot, next_chan): &(u32, u16)) {
        self.set_boot_id(boot);
        self.next_chan.set(next_chan);
    }
}
