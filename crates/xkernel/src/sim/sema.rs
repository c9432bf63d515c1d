//! [`SharedSema`], the counting semaphore shepherd processes block on.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use crate::keep::Rewind;
use crate::trace::OpClass;

use super::ctx::Block;
use super::engine::NO_TIMER;
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

/// A process parked on a semaphore: its address and, for a timed wait, the
/// event-table slot of the timer that gives up for it ([`NO_TIMER`] for an
/// untimed one). The timer's seq is the key the process's own table slot
/// holds, so the waiter carries only the half a V cannot find there once the
/// process is gone. A process waits on one semaphore at a time and its id is
/// never reused, so the id also names the wait. Two words.
#[derive(Clone, Copy)]
struct Waiter {
    lp: u64,
    lp_slot: u32,
    timer: u32,
}

impl Waiter {
    /// No waiter: no process has the id `u64::MAX`.
    const NONE: Waiter = Waiter {
        lp: u64::MAX,
        lp_slot: u32::MAX,
        timer: NO_TIMER,
    };

    fn lp(&self) -> LpId {
        LpId {
            id: self.lp,
            slot: self.lp_slot,
        }
    }
}

/// What a [`SharedSema`]'s clones share: the count and the waiters, oldest
/// first. The oldest waiter is held in the semaphore itself and only a
/// second spills into `rest`, a queue boxed the first time one does. A
/// semaphore that never has two processes waiting at once — a call's reply
/// semaphore, a resident client's `done` — so never allocates for its
/// waiters and carries one word for the queue it never needs. Every field is
/// a plain cell: no operation calls out while it holds one, so there is no
/// borrow to track.
struct Sema {
    count: Cell<i64>,
    /// The oldest waiter; [`Waiter::NONE`] only when `rest` is empty too.
    head: Cell<Waiter>,
    // Boxed on purpose: one word where the queue is four, and the queue is
    // needed only by a semaphore with two waiters at once.
    #[allow(clippy::box_collection)]
    rest: Cell<Option<Box<VecDeque<Waiter>>>>,
    /// The semaphore's [`Label`] in the low [`LABEL_BITS`] and, above them,
    /// its id in its simulation: the checker's key for its holding and
    /// wait-for maps, drawn the first time a probe the checker hears names
    /// the semaphore (0 until then; see [`Sema::id`]).
    id: Cell<u64>,
}

/// What a semaphore costs: its `Rc` adds two counts, 56 B in all, a 64-B
/// allocator chunk (DESIGN.md §11's table; `tests/parked_bytes.rs` counts
/// on it).
const _: () = {
    assert!(std::mem::size_of::<Sema>() == 40);
    assert!(std::mem::size_of::<Waiter>() == 16);
};

impl Sema {
    fn is_empty(&self) -> bool {
        self.head.get().lp == Waiter::NONE.lp
    }

    fn push_back(&self, w: Waiter) {
        if self.is_empty() {
            self.head.set(w);
        } else {
            let mut rest = self.rest.take().unwrap_or_default();
            rest.push_back(w);
            self.rest.set(Some(rest));
        }
    }

    /// Takes the oldest waiter; the next moves up.
    fn pop_front(&self) -> Option<Waiter> {
        if self.is_empty() {
            return None;
        }
        let mut rest = self.rest.take();
        let next = rest.as_mut().and_then(|rest| rest.pop_front());
        self.rest.set(rest);
        Some(self.head.replace(next.unwrap_or(Waiter::NONE)))
    }

    /// Gives process `lp`'s waiter, wherever it stands, the timer in event
    /// slot `timer`.
    fn set_timer(&self, lp: u64, timer: u32) {
        let mut head = self.head.get();
        if head.lp == lp {
            head.timer = timer;
            self.head.set(head);
            return;
        }
        let mut rest = self.rest.take();
        if let Some(w) = rest
            .iter_mut()
            .flat_map(|r| r.iter_mut())
            .find(|w| w.lp == lp)
        {
            w.timer = timer;
        }
        self.rest.set(rest);
    }

    /// Removes process `lp`'s waiter, wherever it stands (those behind it
    /// move up); whether it was there.
    fn remove(&self, lp: u64) -> bool {
        if self.head.get().lp == lp {
            self.pop_front();
            return true;
        }
        let mut rest = self.rest.take();
        let pos = rest
            .as_ref()
            .and_then(|r| r.iter().position(|w| w.lp == lp));
        let removed = pos.and_then(|pos| rest.as_mut()?.remove(pos)).is_some();
        self.rest.set(rest);
        removed
    }

    fn label(&self) -> Label {
        Label((self.id.get() & LABEL_MASK) as u16)
    }

    /// This semaphore's id, label included, drawn from `core`'s counter the
    /// first time it is asked for. Only the checker reads it, so only a
    /// heard probe asks ([`SimCore::probe_sema`]), and an unchecked run
    /// draws none.
    fn id(&self, core: &SimCore) -> u64 {
        let mut id = self.id.get();
        if id >> LABEL_BITS == 0 {
            core.semas.set(core.semas.get() + 1);
            id |= core.semas.get() << LABEL_BITS;
            self.id.set(id);
        }
        id
    }
}

/// Bits of [`Sema::id`] that hold the label.
const LABEL_BITS: u32 = 16;
const LABEL_MASK: u64 = (1 << LABEL_BITS) - 1;

/// A semaphore's label, interned: an index into the process-wide list of
/// every label a semaphore has been given (0 is `"sema"`, the default), so
/// that it packs into the semaphore's id word. Resolved only where a report
/// names it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Label(u16);

impl Label {
    /// The label [`SharedSema::new`] gives.
    const DEFAULT: Label = Label(0);

    /// `text`'s index, assigned the first time any thread interns it.
    pub(crate) fn of(text: &'static str) -> Label {
        if text == "sema" {
            return Label::DEFAULT;
        }
        let seen = |labels: &[&'static str]| labels.iter().position(|&l| l == text);
        let known = LABELS.with(|mine| seen(&mine.borrow()));
        let i = known.unwrap_or_else(|| {
            let mut reg = registry();
            let i = seen(&reg).unwrap_or_else(|| {
                reg.push(text);
                reg.len() - 1
            });
            LABELS.with(|mine| mine.borrow_mut().clone_from(&reg));
            i
        });
        Label(u16::try_from(i + 1).expect("at most 65,535 distinct semaphore labels"))
    }

    /// The text this label stands for.
    pub(crate) fn as_str(self) -> &'static str {
        let Some(i) = usize::from(self.0).checked_sub(1) else {
            return "sema";
        };
        LABELS.with(|mine| {
            if mine.borrow().len() <= i {
                mine.borrow_mut().clone_from(&registry());
            }
            mine.borrow()[i]
        })
    }
}

// Every label given so far, by [`Label`] index less one: the one place
// threads meet in `sim`. A rig built on one thread may be driven on another,
// so a label index must mean the same text on both. A thread takes it once
// per label it has not seen; the operations on a semaphore never do.
#[allow(clippy::disallowed_types)]
static REGISTRY: std::sync::Mutex<Vec<&'static str>> = std::sync::Mutex::new(Vec::new());

/// The registry, whatever a panic elsewhere left it as: every update is a
/// single push.
#[allow(clippy::disallowed_types)]
fn registry() -> std::sync::MutexGuard<'static, Vec<&'static str>> {
    REGISTRY
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

thread_local! {
    /// This thread's copy of the registry's labels, refreshed when it meets
    /// a label (or an index) it does not have.
    static LABELS: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// A counting semaphore integrated with the simulator: P blocks the shepherd
/// process in scheduled mode; in inline mode P on a zero count is a
/// programming error for plain [`SharedSema::p`] and a clean `false` for
/// [`SharedSema::p_timeout`] (the awaited event can never arrive inline, so the
/// timeout outcome is the truthful one). Clones share the one semaphore,
/// which is how a timed wait hands it to its give-up.
#[derive(Clone)]
pub struct SharedSema(Rc<Sema>);

impl SharedSema {
    /// A semaphore with the given initial count.
    pub fn new(initial: i64) -> SharedSema {
        SharedSema::with_label(initial, Label::DEFAULT)
    }

    /// A semaphore with the given initial count and a label that xcheck
    /// violation reports (deadlock cycles, double waits) will carry.
    pub fn labeled(initial: i64, label: &'static str) -> SharedSema {
        SharedSema::with_label(initial, Label::of(label))
    }

    fn with_label(initial: i64, label: Label) -> SharedSema {
        SharedSema(Rc::new(Sema {
            count: Cell::new(initial),
            head: Cell::new(Waiter::NONE),
            rest: Cell::new(None),
            id: Cell::new(u64::from(label.0)),
        }))
    }

    /// Current count (tests/introspection).
    pub fn count(&self) -> i64 {
        self.0.count.get()
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
        let sema = &self.0;
        if sema.count.get() > 0 {
            sema.count.set(sema.count.get() - 1);
            let lp = ctx.lp.map(|lp| lp.id);
            let acquire = |id| Probe::Acquire(lp, ctx.host, id, sema.label());
            ctx.core.probe_sema(|| sema.id(&ctx.core), acquire);
            return Enqueued::Acquired;
        }
        if ctx.mode() == Mode::Inline {
            return Enqueued::Inline;
        }
        let lp = ctx.lp.expect("P outside a shepherd process");
        sema.push_back(Waiter {
            lp: lp.id,
            lp_slot: lp.slot,
            timer: NO_TIMER,
        });
        let wait = |id| Probe::WaitBegin(lp.id, ctx.host, id, sema.label());
        ctx.core.probe_sema(|| sema.id(&ctx.core), wait);
        if let Some(dt) = timeout {
            let timer = ctx.arm_timeout(lp, dt, self.clone());
            sema.set_timer(lp.id, timer);
        }
        Enqueued::Queued
    }

    /// The timer of process `lp`'s timed wait has fired, in the process
    /// `ctx` runs: if `lp` still waits here, it gives up.
    pub(super) fn give_up(&self, ctx: &Ctx, lp: LpId) {
        if self.0.remove(lp.id) {
            ctx.wake(lp, WakeReason::Timeout, NO_TIMER);
        }
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
        let sema = &self.0;
        let woken = sema.pop_front();
        if woken.is_none() {
            sema.count.set(sema.count.get() + 1);
        }
        let (lp, to) = (ctx.lp.map(|l| l.id), woken.map(|w| w.lp));
        let release = |id| Probe::Release(lp, ctx.host, id, sema.label(), to);
        ctx.core.probe_sema(|| sema.id(&ctx.core), release);
        if let Some(w) = woken {
            ctx.wake(w.lp(), WakeReason::Normal, w.timer);
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

/// A semaphore's state at a quiescent instant is its count: no process can
/// be parked on it then, so losing the (empty) waiter queue is sound, and a
/// rewind drops any stray waiters.
impl Rewind for SharedSema {
    type Saved = i64;
    fn save(&self) -> i64 {
        debug_assert!(
            self.0.is_empty(),
            "sema snapshot with waiters parked (not quiescent)"
        );
        self.0.count.get()
    }
    fn rewind(&self, count: &i64) {
        self.0.head.set(Waiter::NONE);
        self.0.rest.set(None);
        self.0.count.set(*count);
    }
}
