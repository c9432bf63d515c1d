//! [`SharedSema`], the counting semaphore shepherd processes block on.

use std::cell::Cell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::atomic::Ordering::Relaxed;

use crate::cell::OwnerCell;
use crate::trace::OpClass;

use super::ctx::Block;
use super::*;

/// What the front half of a P found (see [`SharedSema::wait_begin`]).
#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) enum Enqueued {
    /// A unit was free and is now held; no wait.
    Acquired,
    /// No unit is free and inline mode cannot wait for one.
    Inline,
    /// The process is queued as a waiter and must block.
    Queued,
}

/// A process parked on a semaphore, with the timer that gives up for it
/// ([`TimerHandle::NONE`] for an untimed wait). A process waits on one
/// semaphore at a time and its id is never reused, so the id also names the
/// wait. The two handles are held as their parts: three words, where two
/// padded handles take four.
#[derive(Clone, Copy)]
struct Waiter {
    lp: u64,
    timer: u64,
    lp_slot: u32,
    timer_slot: u32,
}

impl Waiter {
    /// No waiter: no process has the id `u64::MAX`.
    const NONE: Waiter = Waiter {
        lp: u64::MAX,
        timer: u64::MAX,
        lp_slot: u32::MAX,
        timer_slot: u32::MAX,
    };

    /// `lp`, waiting untimed.
    fn new(lp: LpId) -> Waiter {
        Waiter {
            lp: lp.id,
            lp_slot: lp.slot,
            ..Waiter::NONE
        }
    }

    fn lp(&self) -> LpId {
        LpId {
            id: self.lp,
            slot: self.lp_slot,
        }
    }

    fn timer(&self) -> TimerHandle {
        TimerHandle {
            seq: self.timer,
            slot: self.timer_slot,
        }
    }
}

/// A semaphore's waiters, oldest first. The oldest is held in the semaphore
/// itself and only a second spills into `rest`, a queue boxed the first time
/// one does. A semaphore that never has two processes waiting at once — a
/// call's reply semaphore, a resident client's `done` — so never allocates
/// for its waiters and carries one word for the queue it never needs.
struct Waiters {
    /// The oldest waiter; [`Waiter::NONE`] only when `rest` is empty too.
    head: Waiter,
    // Boxed on purpose: one word where the queue is four, and the queue is
    // needed only by a semaphore with two waiters at once.
    #[allow(clippy::box_collection)]
    rest: Option<Box<VecDeque<Waiter>>>,
}

impl Waiters {
    const EMPTY: Waiters = Waiters {
        head: Waiter::NONE,
        rest: None,
    };

    fn is_empty(&self) -> bool {
        self.head.lp == Waiter::NONE.lp
    }

    fn push_back(&mut self, w: Waiter) {
        if self.is_empty() {
            self.head = w;
        } else {
            self.rest.get_or_insert_with(Box::default).push_back(w);
        }
    }

    /// Takes the oldest waiter; the next moves up.
    fn pop_front(&mut self) -> Option<Waiter> {
        if self.is_empty() {
            return None;
        }
        let next = self.rest.as_mut().and_then(|rest| rest.pop_front());
        Some(std::mem::replace(
            &mut self.head,
            next.unwrap_or(Waiter::NONE),
        ))
    }

    /// Process `lp`'s waiter, wherever it stands.
    fn find_mut(&mut self, lp: u64) -> Option<&mut Waiter> {
        let rest = self.rest.iter_mut().flat_map(|rest| rest.iter_mut());
        std::iter::once(&mut self.head)
            .chain(rest)
            .find(|w| w.lp == lp)
    }

    /// Removes process `lp`'s waiter, wherever it stands (those behind it
    /// move up); whether it was there.
    fn remove(&mut self, lp: u64) -> bool {
        if self.head.lp == lp {
            self.pop_front();
            return true;
        }
        let Some(rest) = self.rest.as_mut() else {
            return false;
        };
        let pos = rest.iter().position(|w| w.lp == lp);
        pos.and_then(|pos| rest.remove(pos)).is_some()
    }
}

struct SemaState {
    count: i64,
    waiters: Waiters,
}

/// What a [`SharedSema`]'s clones share.
struct Sema {
    st: OwnerCell<SemaState>,
    /// Globally unique identity for the checker's holding/wait-for maps.
    id: u64,
    /// Human-readable label for violation reports.
    label: &'static str,
}

/// What a semaphore costs: its `Rc` adds two counts, 88 B in all
/// (DESIGN.md §11's table; `tests/parked_bytes.rs` counts on it).
const _: () = assert!(std::mem::size_of::<Sema>() == 72);

/// Ids a thread draws from one block before it takes another.
const ID_BLOCK: u64 = 1 << 32;

/// The next unused id block, process-wide: a thread takes one the first
/// time it makes a semaphore (and again in the unlikely case it uses all
/// 2³² of a block), so ids are unique across threads — and across a rig
/// moved between them — while drawing one is a plain add.
// The per-thread id base: the one place threads meet in `sim`.
#[allow(clippy::disallowed_types)]
static NEXT_ID_BLOCK: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

thread_local! {
    /// The next [`Sema::id`] this thread hands out; 0 until it has a block.
    static NEXT_SEMA_ID: Cell<u64> = const { Cell::new(0) };
}

/// A fresh [`Sema::id`], unique in the process.
fn next_sema_id() -> u64 {
    NEXT_SEMA_ID.with(|next| {
        let mut id = next.get();
        if id % ID_BLOCK == 0 {
            id = NEXT_ID_BLOCK.fetch_add(1, Relaxed) * ID_BLOCK;
        }
        next.set(id + 1);
        id
    })
}

/// A counting semaphore integrated with the simulator: P blocks the shepherd
/// process in scheduled mode; in inline mode P on a zero count is a
/// programming error for plain [`SharedSema::p`] and a clean `false` for
/// [`SharedSema::p_timeout`] (the awaited event can never arrive inline, so the
/// timeout outcome is the truthful one). Clones share the one semaphore,
/// which is how a timed wait hands it to its timeout closure.
#[derive(Clone)]
pub struct SharedSema(Rc<Sema>);

impl SharedSema {
    /// A semaphore with the given initial count.
    pub fn new(initial: i64) -> SharedSema {
        SharedSema::labeled(initial, "sema")
    }

    /// A semaphore with the given initial count and a label that xcheck
    /// violation reports (deadlock cycles, double waits) will carry.
    pub fn labeled(initial: i64, label: &'static str) -> SharedSema {
        SharedSema(Rc::new(Sema {
            st: OwnerCell::new(SemaState {
                count: initial,
                waiters: Waiters::EMPTY,
            }),
            id: next_sema_id(),
            label,
        }))
    }

    /// Current count (tests/introspection).
    pub fn count(&self) -> i64 {
        self.0.st.lock().count
    }

    /// Captures the count for a whole-sim snapshot: all the state a
    /// semaphore has at a quiescent instant, when no process can be parked
    /// on it, so losing the (empty) waiter queue is sound.
    pub fn snap_state(&self) -> i64 {
        let st = self.0.st.lock();
        debug_assert!(
            st.waiters.is_empty(),
            "sema snapshot with waiters parked (not quiescent)"
        );
        st.count
    }

    /// Restores state captured by [`SharedSema::snap_state`]. Same
    /// quiescence requirement; any stray waiters are dropped.
    pub fn restore_state(&self, count: i64) {
        let mut st = self.0.st.lock();
        st.waiters = Waiters::EMPTY;
        st.count = count;
    }

    /// The front half of every P — [`SharedSema::p`],
    /// [`SharedSema::p_timeout`] and a machine's [`VStep::Wait`] alike:
    /// pays the semaphore operation, takes a unit if one is free, and
    /// otherwise queues the process as a waiter. With `timeout`, a queued
    /// waiter also gets the timer that gives up for it. Everything of a P
    /// short of the block itself: the scheduler closes the wait out (the
    /// resume probe) when it resumes the process.
    pub(super) fn wait_begin(&self, ctx: &Ctx, timeout: Option<Nanos>) -> Enqueued {
        ctx.charge_class(OpClass::Sema, ctx.cost().sema_op);
        let mut st = self.0.st.lock();
        if st.count > 0 {
            st.count -= 1;
            drop(st);
            let lp = ctx.lp.map(|lp| lp.id);
            let acquire = || Probe::Acquire(lp, ctx.host, self.0.id, self.0.label);
            ctx.core.probe(acquire);
            return Enqueued::Acquired;
        }
        if ctx.mode() == Mode::Inline {
            return Enqueued::Inline;
        }
        let lp = ctx.lp.expect("P outside a shepherd process");
        st.waiters.push_back(Waiter::new(lp));
        drop(st);
        let wait = || Probe::WaitBegin(lp.id, ctx.host, self.0.id, self.0.label);
        ctx.core.probe(wait);
        if let Some(dt) = timeout {
            let me = self.clone();
            let timer = ctx.schedule_after(dt, move |tctx| {
                let removed = me.0.st.lock().waiters.remove(lp.id);
                if removed {
                    tctx.wake(lp, WakeReason::Timeout, TimerHandle::NONE);
                }
            });
            if let Some(w) = self.0.st.lock().waiters.find_mut(lp.id) {
                (w.timer, w.timer_slot) = (timer.seq, timer.slot);
            }
        }
        Enqueued::Queued
    }

    /// P: acquire one unit, blocking until available.
    pub fn p(&self, ctx: &Ctx) {
        match self.wait_begin(ctx, None) {
            Enqueued::Acquired => {}
            Enqueued::Inline => panic!("SharedSema::p would block in inline mode"),
            Enqueued::Queued => {
                let reason = ctx.block_current(Block::Sema);
                debug_assert_eq!(reason, WakeReason::Normal, "untimed P woke by timeout");
            }
        }
    }

    /// V: release one unit, waking the longest-waiting process if any.
    pub fn v(&self, ctx: &Ctx) {
        ctx.charge_class(OpClass::Sema, ctx.cost().sema_op);
        let woken = {
            let mut st = self.0.st.lock();
            let woken = st.waiters.pop_front();
            if woken.is_none() {
                st.count += 1;
            }
            woken
        };
        let (lp, to) = (ctx.lp.map(|l| l.id), woken.map(|w| w.lp));
        let release = || Probe::Release(lp, ctx.host, self.0.id, self.0.label, to);
        ctx.core.probe(release);
        if let Some(w) = woken {
            ctx.wake(w.lp(), WakeReason::Normal, w.timer());
        }
    }

    /// P with timeout; `true` if acquired.
    pub fn p_timeout(&self, ctx: &Ctx, dt: Nanos) -> bool {
        match self.wait_begin(ctx, Some(dt)) {
            Enqueued::Acquired => true,
            Enqueued::Inline => false,
            Enqueued::Queued => {
                matches!(ctx.block_current(Block::Sema), WakeReason::Normal)
            }
        }
    }
}
