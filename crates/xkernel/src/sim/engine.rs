//! The event engine: the process and event tables, the per-event loop and
//! the coroutine / state-machine drivers. Everything that runs once per
//! event lives here, in one module.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;

use crate::cell::OwnerGuard;
use crate::journal::JournalRecord;
use crate::kernel::Kernel;
use crate::msg::Message;
use crate::vproc;

use super::ctx::Block;
use super::observe::Observers;
use super::report::bump;
use super::sema::Enqueued;
use super::timeline::{Filed, Key, Timeline};
use super::*;

/// FNV-1a offset basis / prime, folding one u64 at a time.
pub(super) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_fold(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(FNV_PRIME)
}

/// What a fresh shepherd process runs when it is not a machine: a boxed
/// body (a protocol's timer, a spawn, a restart's reboot), a frame's
/// delivery to its receiver, or a timed P's give-up (the semaphore and the
/// waiting process). The last two are what the wire and every timed wait
/// file, so they box nothing; each starts a process exactly as a body does.
pub(super) enum Job {
    Body(Thunk),
    Deliver(Rc<dyn Receiver>, Message),
    GiveUp(SharedSema, LpId),
}

impl Job {
    fn run(self, ctx: &Ctx) {
        match self {
            Job::Body(f) => f(ctx),
            Job::Deliver(rx, msg) => rx.receive(ctx, msg),
            Job::GiveUp(sema, lp) => sema.give_up(ctx, lp),
        }
    }
}

/// The body a fresh process starts from: a job (called on the driver's
/// stack, which it keeps if it blocks — so it may block anywhere) or a
/// stackless [`VProc`] machine and its fuel (see [`machine_fuel`]; stepped on
/// the driver's stack, blocks by returning [`VStep`]s).
pub(super) enum ProcBody {
    Job(Job),
    Machine(Box<dyn VProc>, u32),
}

/// The fuel a fresh machine gets under `limit`, in resumes (`u32::MAX` =
/// unlimited; coroutines carry their budget inside the coroutine instead).
/// A budget of `u32::MAX` resumes or more is more than any run gives one
/// machine and counts as unlimited: a `u64` would cost every process-table
/// slot a word.
pub(super) fn machine_fuel(limit: Option<u64>) -> u32 {
    limit.map_or(u32::MAX, |f| u32::try_from(f).unwrap_or(u32::MAX))
}

/// The suspended form of a blocked process: a coroutine, or a machine and
/// its remaining fuel (see [`machine_fuel`]) — the tag sits beside `fuel`,
/// so an `Option<LpBody>` is three words. A machine spawned but not yet
/// started waits in this form too.
pub(super) enum LpBody {
    Coro(vproc::Coro),
    Machine { m: Box<dyn VProc>, fuel: u32 },
}

/// A pending event of the event table: a free-standing job (a timer, a
/// delivery, a timed P's give-up, a spawned thunk) beside its host's index
/// narrowed as in [`LpState`], a crash or a restart — or the wake of a
/// process that was already gone when it was filed, which the scheduler pops
/// as a stale wake. A machine's start and a live process's wake are not
/// here: their keys name the process's own table slot ([`PROC_KEY`]). A
/// delivery carries its frame, so a table slot is a `Message` and four
/// words.
pub(super) enum EvKind {
    Job { host: u32, job: Job },
    Wake { lp: LpId, reason: WakeReason },
    Crash { host: HostId },
    Restart { host: HostId },
}

/// The bit of a timeline key's slot that says the key names a process-table
/// slot — a spawned machine's start, or a process's wake — and not an
/// event-table one. A process slot holds the seq of the one key that may
/// reach it (the timeline asks through [`Tables`]), so a key that outlived
/// its purpose misses, however the slot has been reused since.
pub(super) const PROC_KEY: u32 = 1 << 31;

/// A waiter's timer slot when its wait is untimed.
pub(super) const NO_TIMER: u32 = u32::MAX;

/// A process slot's key when none is pending (no event has this seq).
const NO_KEY: u64 = u64::MAX;

/// A [`HostId`]'s index in a `u32` (a simulation has far fewer than 2³²
/// hosts).
pub(super) fn narrow(host: HostId) -> u32 {
    u32::try_from(host.0).expect("host ids fit in 32 bits")
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) enum RunState {
    /// A machine spawned whose start is still due: not a process yet. It
    /// has no id, and it counts as live only once it starts.
    Spawned,
    /// A job, on a stack it can keep: it may block anywhere.
    Running,
    /// A machine's step, on a stack that is not its own: it blocks by
    /// returning, and a blocking primitive called from it is refused.
    Stepping,
    Blocked,
    /// The host crashed while this process was blocked; the scheduler reaps
    /// it (unwinding its coroutine via [`CrashKill`]) at the next
    /// deterministic reap point.
    Killed,
    /// The process has ended, but its slot still holds a key — a wake filed
    /// before it died, or the timer of a wait a V may yet cancel — so the
    /// slot is not reused until that key is spent.
    Gone,
}

/// What the key in a process's slot stands for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) enum Pending {
    Nothing,
    /// A timeline key that starts the spawned machine, or wakes the blocked
    /// process for this reason.
    Wake(WakeReason),
    /// The seq of the timer a timed P armed; its key is the event table's.
    Timer,
}

/// Panic payload used to unwind a shepherd coroutine whose host crashed.
/// Not a failure: [`note_death`] filters it out of the panic record.
pub(super) struct CrashKill;

/// Panic payload used to unwind a shepherd coroutine whose fuel ran out.
/// Filtered like [`CrashKill`], but tallied in [`RunReport::fuel_exhausted`].
pub(super) struct FuelKill;

/// What the scheduler hands a coroutine when it resumes it (the value
/// [`vproc::yield_now`] returns): why it woke, or that its host crashed.
pub(super) const RESUME_NORMAL: u64 = 0;
pub(super) const RESUME_TIMEOUT: u64 = 1;
pub(super) const RESUME_KILLED: u64 = 2;

/// A process-table entry: one word for the host, the state, what a blocked
/// process waits for and what its slot's key stands for, three for the
/// continuation. The checker keeps which semaphore a process waits on (it
/// heard the wait begin), so the table does not.
pub(super) struct LpState {
    /// [`HostId`]'s index, narrowed; read it through [`LpState::host`].
    host: u32,
    pub(super) state: RunState,
    /// Whether a blocked process waits on a semaphore (else on a timer):
    /// such a wait is not snapshot material.
    pub(super) on_sema: bool,
    pending: Pending,
    /// The suspended continuation; `None` while the process is running.
    pub(super) body: Option<LpBody>,
}

/// A process-table slot: its tenant's id (the generation an [`LpId`] is
/// checked against), the seq of the one key that may still reach the slot
/// (what `st.pending` says it is), and the tenant.
struct LpSlot {
    /// [`LpId::id`]; `u64::MAX` (no process's) until a spawned machine
    /// starts.
    id: u64,
    key: u64,
    st: Option<LpState>,
}

/// What a live process costs the process table, a pending event the event
/// table and a message wherever it is held: DESIGN.md §11's and §15's
/// tables and `tests/parked_bytes.rs` count on these.
const _: () = {
    assert!(std::mem::size_of::<LpSlot>() == 48);
    assert!(std::mem::size_of::<(u64, Option<EvKind>)>() == 104);
    assert!(std::mem::size_of::<Message>() == 72);
};

impl LpState {
    /// A process on `host` in `state`, waiting on nothing.
    pub(super) fn new(host: HostId, state: RunState, body: Option<LpBody>) -> LpState {
        LpState {
            host: narrow(host),
            state,
            on_sema: false,
            pending: Pending::Nothing,
            body,
        }
    }

    pub(super) fn host(&self) -> HostId {
        HostId(self.host as usize)
    }

    /// Whether this is a process: started, and not yet ended.
    fn is_process(&self) -> bool {
        !matches!(self.state, RunState::Spawned | RunState::Gone)
    }
}

/// The process table. A slot holds a started process, a machine spawned but
/// not yet started, or the key an ended process left behind (see
/// [`RunState::Gone`]); freed slots are reused last-in first-out, which keeps
/// the table as dense as its population.
pub(super) struct Procs {
    slots: Vec<LpSlot>,
    free: Vec<u32>,
    /// Processes in the table (started, not ended).
    live: usize,
}

impl Procs {
    pub(super) fn new() -> Procs {
        Procs {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Processes in the table: machines not yet started and the keys of
    /// ended processes do not count.
    pub(super) fn len(&self) -> usize {
        self.live
    }

    /// Files `st` under `id` in a free slot; returns the slot.
    #[inline]
    pub(super) fn insert(&mut self, id: u64, st: LpState) -> u32 {
        if st.is_process() {
            self.live += 1;
        }
        let entry = LpSlot {
            id,
            key: NO_KEY,
            st: Some(st),
        };
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = entry;
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len())
                    .ok()
                    .filter(|&s| s < PROC_KEY)
                    .expect("process table outgrew 2³¹ slots");
                self.slots.push(entry);
                slot
            }
        }
    }

    /// Makes the machine spawned in `slot` process `id`, stepping; returns
    /// its machine and fuel.
    fn start_machine(&mut self, slot: u32, id: u64) -> (Box<dyn VProc>, u32) {
        let s = &mut self.slots[slot as usize];
        let st = s.st.as_mut().expect("spawned machine present");
        debug_assert_eq!(st.state, RunState::Spawned);
        st.state = RunState::Stepping;
        s.id = id;
        self.live += 1;
        match st.body.take() {
            Some(LpBody::Machine { m, fuel }) => (m, fuel),
            _ => unreachable!("a spawned slot holds a machine"),
        }
    }

    /// The slot `lp` names, if `lp` is its tenant: a process, or one that
    /// has ended but left a key.
    fn entry(&self, lp: LpId) -> Option<&LpState> {
        match self.slots.get(lp.slot as usize) {
            Some(s) if s.id == lp.id => s.st.as_ref(),
            _ => None,
        }
    }

    /// Process `lp`, if it is in the table.
    pub(super) fn get_mut(&mut self, lp: LpId) -> Option<&mut LpState> {
        match self.slots.get_mut(lp.slot as usize) {
            Some(s) if s.id == lp.id => s.st.as_mut().filter(|st| st.is_process()),
            _ => None,
        }
    }

    /// Records that `slot`'s key is now `seq`, standing for `pending`.
    fn file(&mut self, slot: u32, seq: u64, pending: Pending) {
        let s = &mut self.slots[slot as usize];
        s.key = seq;
        s.st.as_mut().expect("a key names an occupied slot").pending = pending;
    }

    /// Spends the key just popped for `slot`: what it was due for. An ended
    /// process's slot is free from here on.
    fn spend(&mut self, slot: u32) -> Due {
        let s = &mut self.slots[slot as usize];
        s.key = NO_KEY;
        let st = s.st.as_mut().expect("a live key names an occupied slot");
        let Pending::Wake(reason) = std::mem::replace(&mut st.pending, Pending::Nothing) else {
            unreachable!("a timeline key names a slot only for a start or a wake");
        };
        let lp = LpId { id: s.id, slot };
        match st.state {
            RunState::Spawned => Due::Start(slot),
            RunState::Gone => {
                self.release(slot);
                Due::Wake(lp, reason)
            }
            _ => Due::Wake(lp, reason),
        }
    }

    /// Empties `slot` for reuse.
    #[inline]
    fn release(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.key = NO_KEY;
        s.st = None;
        self.free.push(slot);
    }

    /// Takes process `lp` out of the table. Its slot is free at once unless
    /// a key may still reach it: then it waits, ended, for that key.
    #[inline]
    fn remove(&mut self, lp: LpId) {
        let Some(st) = self.get_mut(lp) else {
            return;
        };
        let keyed = st.pending != Pending::Nothing;
        if keyed {
            st.state = RunState::Gone;
            st.body = None;
        }
        self.live -= 1;
        if !keyed {
            self.release(lp.slot);
        }
    }

    /// A crash of `host`: the keys of its spawned machines and of its
    /// processes' wakes die (the spawned machines with them), and so does
    /// any slot's timer among `timers`, the sorted seqs of the jobs the
    /// crash took from the event table. Returns how many timeline keys that
    /// killed. An ended process's wake is not its host's any more and stays
    /// due, as does a live process's timer armed on another host.
    fn purge(&mut self, host: HostId, timers: &[u64]) -> usize {
        let host = narrow(host);
        let mut dead = 0;
        for slot in 0..self.slots.len() {
            let s = &mut self.slots[slot];
            let Some(st) = s.st.as_mut() else {
                continue;
            };
            let gone = match st.pending {
                Pending::Timer if timers.binary_search(&s.key).is_ok() => {
                    st.state == RunState::Gone
                }
                Pending::Wake(_) if st.host == host && st.state != RunState::Gone => {
                    dead += 1;
                    st.state == RunState::Spawned
                }
                _ => continue,
            };
            s.key = NO_KEY;
            st.pending = Pending::Nothing;
            if gone {
                self.release(slot as u32);
            }
        }
        dead
    }

    /// Processes and spawned machines as `(id, slot, state)`, in slot order.
    pub(super) fn iter(&self) -> impl Iterator<Item = (u64, u32, &LpState)> {
        (0u32..).zip(&self.slots).filter_map(|(slot, s)| {
            let st = s.st.as_ref().filter(|st| st.state != RunState::Gone)?;
            Some((s.id, slot, st))
        })
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = (u64, u32, &mut LpState)> {
        (0u32..).zip(&mut self.slots).filter_map(|(slot, s)| {
            let st = s.st.as_mut().filter(|st| st.state != RunState::Gone)?;
            Some((s.id, slot, st))
        })
    }

    /// The tenant id and reason of the wake `seq` in `slot`, if that is the
    /// slot's live key.
    pub(super) fn wake_in(&self, seq: u64, slot: u32) -> Option<(u64, WakeReason)> {
        let s = self.slots.get(slot as usize).filter(|s| s.key == seq)?;
        match s.st.as_ref()?.pending {
            Pending::Wake(reason) => Some((s.id, reason)),
            _ => None,
        }
    }

    /// Timeline keys naming a slot.
    pub(super) fn keys(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| {
                s.st.as_ref()
                    .is_some_and(|st| matches!(st.pending, Pending::Wake(_)))
            })
            .count()
    }

    pub(super) fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.live = 0;
    }
}

/// What a popped key was due for.
enum Due {
    Event(EvKind),
    /// The start of the machine spawned in this process slot.
    Start(u32),
    /// A wake for this process: it may have ended or been killed since.
    Wake(LpId, WakeReason),
}

impl Due {
    /// The kind tag [`Engine::sched_hash`] folds.
    fn tag(&self) -> u64 {
        match self {
            Due::Event(EvKind::Job { .. }) | Due::Start(_) => 1,
            Due::Event(EvKind::Wake { .. }) | Due::Wake(..) => 2,
            Due::Event(EvKind::Crash { .. }) => 3,
            Due::Event(EvKind::Restart { .. }) => 4,
        }
    }
}

/// The two tables a timeline key can name, as the timeline tests a key.
pub(super) struct Tables<'a> {
    pub(super) events: &'a Slab<EvKind>,
    pub(super) lps: &'a Procs,
}

impl Filed for Tables<'_> {
    #[inline]
    fn files(&self, seq: u64, slot: u32) -> bool {
        if slot & PROC_KEY == 0 {
            self.events.files(seq, slot)
        } else {
            let entry = self.lps.slots.get((slot & !PROC_KEY) as usize);
            entry.is_some_and(|s| s.key == seq)
        }
    }
}

struct Task {
    lp: LpId,
    host: HostId,
    body: ProcBody,
}

/// A table whose entries are addressed by `(id, slot)`: `slot` indexes the
/// vector and `id` — a sequence number that is never reused — is the
/// generation, so an address that outlived its entry misses instead of
/// aliasing the slot's next tenant. Freed slots are reused last-in
/// first-out, which keeps the table as dense as its live population.
pub(super) struct Slab<T> {
    slots: Vec<(u64, Option<T>)>,
    free: Vec<u32>,
    live: usize,
}

impl<T> Slab<T> {
    pub(super) fn new() -> Slab<T> {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    pub(super) fn len(&self) -> usize {
        self.live
    }

    pub(super) fn insert(&mut self, id: u64, value: T) -> u32 {
        self.live += 1;
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = (id, Some(value));
                slot
            }
            None => {
                // The top bit of a timeline key's slot is [`PROC_KEY`].
                let slot = u32::try_from(self.slots.len())
                    .ok()
                    .filter(|&s| s < PROC_KEY)
                    .expect("slab outgrew 2³¹ slots");
                self.slots.push((id, Some(value)));
                slot
            }
        }
    }

    pub(super) fn get(&self, id: u64, slot: u32) -> Option<&T> {
        match self.slots.get(slot as usize) {
            Some((i, v)) if *i == id => v.as_ref(),
            _ => None,
        }
    }

    pub(super) fn remove(&mut self, id: u64, slot: u32) -> Option<T> {
        match self.slots.get_mut(slot as usize) {
            Some((i, v)) if *i == id && v.is_some() => {
                self.live -= 1;
                self.free.push(slot);
                v.take()
            }
            _ => None,
        }
    }

    /// Live entries as `(id, slot, value)`, in slot order.
    pub(super) fn iter(&self) -> impl Iterator<Item = (u64, u32, &T)> {
        (0u32..)
            .zip(&self.slots)
            .filter_map(|(slot, (id, v))| v.as_ref().map(|v| (*id, slot, v)))
    }

    /// Removes every entry `dead` selects (it is told each entry's id);
    /// returns how many that was.
    fn remove_where(&mut self, mut dead: impl FnMut(u64, &T) -> bool) -> usize {
        let before = self.live;
        for (slot, (id, v)) in (0u32..).zip(&mut self.slots) {
            if v.as_ref().is_some_and(|v| dead(*id, v)) {
                *v = None;
                self.live -= 1;
                self.free.push(slot);
            }
        }
        before - self.live
    }

    pub(super) fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.live = 0;
    }
}

impl<T> Filed for Slab<T> {
    #[inline]
    fn files(&self, seq: u64, slot: u32) -> bool {
        self.get(seq, slot).is_some()
    }
}

/// Everything the scheduler owns that is more than a scalar: the event
/// queue, the process table, the run token. One thread drives a simulation
/// at a time, so this sits behind the simulator's one lock
/// ([`SimCore::engine`]): the run loop holds it across [`advance`] and
/// releases it only while a process body runs; a process takes it once per
/// scheduling operation (arm, cancel, wake, block).
pub(super) struct Engine {
    pub(super) seq: u64,
    /// When each pending event is due. An event leaves `events` by being
    /// popped here first, or through [`Engine::cancel`] and the crash purge,
    /// which tell the timeline that a key of its died.
    pub(super) timeline: Timeline,
    /// Pending event bodies, addressed by `(seq, slot)`.
    pub(super) events: Slab<EvKind>,
    /// Live processes, addressed by [`LpId`], with the machines spawned and
    /// not yet started and the keys they are due by.
    pub(super) lps: Procs,
    pub(super) next_lp: u64,
    pub(super) current: Option<LpId>,
    /// The process whose job is a call on the running driver's stack, for
    /// as long as that is where it is: [`Sim::run_until_time`] takes it
    /// when the body blocks and the stack becomes the process's own, so a
    /// [`call_job`] that finds something else here when its call returns
    /// knows it is no longer the driver.
    pub(super) on_driver: Option<LpId>,
    /// Where the run in progress pauses ([`Sim::run_until_time`] records
    /// it; every driver of that run reads it).
    pub(super) stop: Time,
    pub(super) executed: u64,
    pub(super) panics: Vec<String>,
    /// Processes killed by a crash while blocked, queued for deterministic
    /// reaping (in id order) at the top of the run loop.
    pub(super) reap: Vec<LpId>,
    /// Processes killed by fuel exhaustion.
    pub(super) fuel_exhausted: u64,
    /// High-water mark of `lps.len()`.
    pub(super) peak_live: usize,
    /// Schedule-exploration oracle; `None` (the default) keeps the plain
    /// deterministic insertion-order tie-break.
    pub(super) chooser: Option<Box<dyn ScheduleChooser>>,
    /// Running FNV-1a fold over every live event processed (time, seq,
    /// kind tag). Maintained unconditionally — three integer ops per
    /// event — so every run has a schedule fingerprint.
    pub(super) sched_hash: u64,
    /// The tracer's, the checker's and the journal's state (`observe.rs`).
    pub(super) observers: Observers,
}

impl Engine {
    /// Files `kind` at time `t`; the returned handle cancels it.
    pub(super) fn push_event(&mut self, t: Time, kind: EvKind) -> TimerHandle {
        let seq = self.next_seq();
        let slot = self.events.insert(seq, kind);
        self.timeline.push((t, seq, slot));
        TimerHandle { seq, slot }
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Files the key `(t, seq)` for process-table `slot`, standing for
    /// `pending` (a restore files a restored machine's wake under its old
    /// seq).
    pub(super) fn file_key(&mut self, t: Time, seq: u64, slot: u32, pending: Pending) {
        self.lps.file(slot, seq, pending);
        self.timeline.push((t, seq, slot | PROC_KEY));
    }

    /// Spawns machine `m` with `fuel` on `host`, to start at `t`.
    pub(super) fn spawn_machine(&mut self, t: Time, host: HostId, m: Box<dyn VProc>, fuel: u32) {
        let body = Some(LpBody::Machine { m, fuel });
        let st = LpState::new(host, RunState::Spawned, body);
        let slot = self.lps.insert(u64::MAX, st);
        let seq = self.next_seq();
        self.file_key(t, seq, slot, Pending::Wake(WakeReason::Normal));
    }

    /// Files the wake of process `lp` at `t`.
    pub(super) fn wake_at(&mut self, t: Time, lp: LpId, reason: WakeReason) {
        let seq = self.next_seq();
        self.file_key(t, seq, lp.slot, Pending::Wake(reason));
    }

    /// Arms the give-up of process `lp`'s timed P on `sema` at `t` on
    /// `host`, recording it in `lp`'s slot; returns the timer's event-table
    /// slot.
    pub(super) fn arm_timeout(&mut self, t: Time, host: HostId, lp: LpId, sema: SharedSema) -> u32 {
        let h = self.push_event(
            t,
            EvKind::Job {
                host: narrow(host),
                job: Job::GiveUp(sema, lp),
            },
        );
        self.lps.file(lp.slot, h.seq, Pending::Timer);
        h.slot
    }

    /// A wake for process `lp` at `t`, by a V (cancelling the timer in event
    /// slot `timer` its timed wait armed, unless that is [`NO_TIMER`]) or by
    /// its timeout. A process that has ended gets a free-standing wake,
    /// which the scheduler will find stale; a slot it left waiting on the
    /// timer is free once the timer is spent.
    pub(super) fn wake(&mut self, t: Time, lp: LpId, reason: WakeReason, timer: u32) {
        let (live, timed) = self.lps.entry(lp).map_or((false, false), |st| {
            (st.is_process(), st.pending == Pending::Timer)
        });
        if timed {
            if timer != NO_TIMER {
                let seq = self.lps.slots[lp.slot as usize].key;
                self.cancel(TimerHandle { seq, slot: timer });
            }
            if !live {
                self.lps.release(lp.slot);
            }
        }
        if live {
            self.wake_at(t, lp, reason);
        } else {
            self.push_event(t, EvKind::Wake { lp, reason });
        }
    }

    /// Cancels the event `h` was returned for, if it is still pending.
    pub(super) fn cancel(&mut self, h: TimerHandle) {
        if self.events.remove(h.seq, h.slot).is_some() {
            self.note_dead(1);
        }
    }

    /// Tells the timeline that `n` of its keys died without being popped.
    fn note_dead(&mut self, n: usize) {
        let tables = Tables {
            events: &self.events,
            lps: &self.lps,
        };
        self.timeline.note_dead(n, &tables);
    }

    /// The earliest live key due at or before `stop`.
    #[inline]
    fn pop_through(&mut self, stop: Time) -> Option<Key> {
        let tables = Tables {
            events: &self.events,
            lps: &self.lps,
        };
        self.timeline.pop_through(stop, &tables)
    }

    /// Takes what the popped key `(seq, slot)` was due for out of its table.
    fn take(&mut self, seq: u64, slot: u32) -> Due {
        if slot & PROC_KEY == 0 {
            Due::Event(
                self.events
                    .remove(seq, slot)
                    .expect("event checked present"),
            )
        } else {
            self.lps.spend(slot & !PROC_KEY)
        }
    }

    pub(super) fn lp_mut(&mut self, lp: LpId) -> Option<&mut LpState> {
        self.lps.get_mut(lp)
    }

    /// Ids of the processes currently blocked, in table order.
    pub(super) fn blocked(&self) -> impl Iterator<Item = u64> + '_ {
        self.lps
            .iter()
            .filter(|(_, _, st)| st.state == RunState::Blocked)
            .map(|(id, _, _)| id)
    }
}

/// The simulator: owns hosts, time, and shepherd processes.
///
/// Defined here rather than beside [`SimCore`]: a method is compiled into
/// the codegen unit of the module that defines its self type, so this is
/// what puts [`Sim::run_until_time`] in one unit with the `advance` and
/// `resume_lp` it calls once per event (DESIGN.md §16).
#[derive(Clone)]
pub struct Sim {
    pub(super) core: Rc<SimCore>,
}

// The one-driver contract.
//
// Everything inside a simulation is single-threaded by type: its core, the
// protocols and sessions of its kernels, its messages and semaphores hold
// `Rc`, `Cell` and `RefCell`, so rustc refuses to move any of them to
// another thread or to share one. Two handles are exempt, because
// `benchmark/` moves them into a `Send` closure (its `run_client`) and pins
// their types: `Sim` is `Send`, and `Kernel` is `Send + Sync` so that
// `Arc<Kernel>` is `Send`. What they promise in place of rustc:
//
// **One OS thread drives a simulation at a time, and a simulation changes
// threads only whole and only through a real synchronisation point** — a
// `std::thread::scope` spawn or join, a channel, a real mutex. Whole means
// that every handle reaching it (`Sim`, `Ctx`, `Arc<Kernel>`, a session, a
// message) moves with it, or is left untouched until it is back. The thread
// it leaves keeps one such handle, a weak one: its current simulation's
// header buffers (`msg.rs`), which it touches only to make a message or
// another simulation's context, so it does neither meanwhile.
//
// Under the contract the non-atomic reference counts and cells behind these
// handles are touched by one thread at a time, and the synchronisation point
// orders one driver's writes before the next one's reads. Broken, it is a
// data race on them. The workspace honours it by building a simulation on
// the thread that runs it (`par` workers, `xload` sweeps, the thread-local
// chaos rig pool) or by moving a quiescent one whole
// (`tests/sim_lifetime.rs`).
//
// SAFETY: `core`, the one field, is an `Rc<SimCore>`; its count and all
// the core reaches (cells, `Rc` handles, suspended coroutines) are touched by
// one thread at a time under the contract above.
#[allow(unsafe_code)]
unsafe impl Send for Sim {}
// SAFETY: `name` is `Send`; `host` (a `OnceCell`) and `protocols` (slots of
// `Rc<dyn Protocol>`, and through them every session and table) are touched
// by one thread at a time under the contract above.
#[allow(unsafe_code)]
unsafe impl Send for Kernel {}
// SAFETY: a `&Kernel` reaches the same three fields, and under the contract
// above no two threads use one except on either side of a synchronisation
// point.
#[allow(unsafe_code)]
unsafe impl Sync for Kernel {}

const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Sim>();
    assert_send::<Arc<Kernel>>();
};

impl Sim {
    /// Runs queued events until none remain. Scheduled mode only.
    ///
    /// # Panics
    ///
    /// Re-raises (as a panic) the first panic that occurred inside any
    /// shepherd process, so test failures surface cleanly.
    pub fn run_until_idle(&self) -> RunReport {
        self.run_until_time(Time::MAX)
    }

    /// Runs queued events whose time is `<= stop`, then pauses. Later
    /// events stay queued and blocked processes stay suspended, so the run
    /// continues with another `run_until_time`/[`Sim::run_until_idle`]
    /// call; the returned report describes the state at the pause. When
    /// every process suspended at the pause is a forkable [`VProc`]
    /// machine parked on a timer, the paused instant is
    /// [`Sim::snapshot`]-eligible. Scheduled mode only.
    pub fn run_until_time(&self, stop: Time) -> RunReport {
        assert_eq!(
            self.core.mode,
            Mode::Scheduled,
            "run_until_time is meaningful only in scheduled mode"
        );
        let core = &self.core;
        {
            let mut g = core.engine.lock();
            assert!(
                g.current.is_none(),
                "Sim::run_until_time called from inside a process of the \
                 simulation it would run"
            );
            g.stop = stop;
        }
        // The loop runs as a coroutine's body (see [`drive`]). A driver
        // comes back here finished — the run is over — or suspended: a body
        // it called has blocked, so that stack is the process's from now on
        // and the loop goes on from the top on another.
        let g = loop {
            let mut driver = vproc::Coro::new(Box::new(drive), self.ctx(HostId(0)));
            let finished = driver.resume(RESUME_NORMAL);
            let mut g = core.engine.lock();
            if finished {
                if let Some(bug) = driver.retire() {
                    // Not a process's panic (those are caught and filed):
                    // the loop's own, or a machine's.
                    drop(g);
                    resume_unwind(bug);
                }
                break g;
            }
            let lp = g
                .on_driver
                .take()
                .expect("a driver yields only under a body it called");
            g.lp_mut(lp).expect("blocked process still registered").body =
                Some(LpBody::Coro(driver));
        };
        let report = RunReport {
            ended_at: core.now.get(),
            events: g.executed,
            blocked: g.blocked().count(),
            hosts: core.hosts.iter().map(|h| h.stats()).collect(),
            breakdown: g.observers.breakdown(core),
            sched_hash: g.sched_hash,
            fuel_used: core.hosts.iter().map(|h| h.fuel.get()).sum(),
            fuel_exhausted: g.fuel_exhausted,
            peak_live: g.peak_live,
        };
        let panic = g.panics.first().cloned();
        drop(g);
        if let Some(p) = panic {
            panic!("shepherd process panicked: {p}");
        }
        report
    }

    /// Kills every process still suspended — parked on a semaphore nothing
    /// will signal, or on a timer past a pause — the way a crash of its
    /// host would, without the crash: coroutines unwind through the filtered
    /// [`CrashKill`] payload, in id order, running their drop guards;
    /// machines are dropped. Returns how many that was.
    ///
    /// A suspended coroutine's stack holds its [`Ctx`], and with it the
    /// simulation, so dropping every [`Sim`] handle frees nothing while one
    /// exists. Whoever discards a simulation that did not run to completion
    /// calls this first.
    pub fn kill_suspended(&self) -> usize {
        install_crash_hook();
        let core = &self.core;
        let mut g = core.engine.lock();
        assert!(g.current.is_none(), "kill_suspended from inside a process");
        let mut doomed: Vec<LpId> = Vec::new();
        for (id, slot, st) in g.lps.iter_mut() {
            if st.state == RunState::Blocked {
                st.state = RunState::Killed;
                doomed.push(LpId { id, slot });
            }
        }
        doomed.sort_unstable_by_key(|lp| lp.id);
        for &lp in &doomed {
            g.observers.probe(core, || Probe::Kill(lp.id));
            g = reap_lp(core, g, lp);
        }
        doomed.len()
    }
}

/// A blocked process [`advance`] just woke, lifted out of the process table
/// under the lock `advance` already held so the driver can resume it
/// without another lookup.
struct Woken {
    lp: LpId,
    host: HostId,
    body: LpBody,
    reason: WakeReason,
}

/// What the event loop decided after [`advance`] processed events.
enum Next {
    /// A fresh shepherd process must run; the run token (`current`) is
    /// already set to it. The driver executes its body.
    Task(Task),
    /// A blocked process was woken; the token is set to it. The driver
    /// resumes the continuation it is handed.
    Resume(Woken),
    /// No live events remain at or before the stop time.
    Drained,
}

/// Drives the event loop forward: pops live events in deterministic order
/// and processes them until a process claims the run token or the queue
/// drains (or passes `stop`). Must be called with the token free
/// (`current == None`).
fn advance(core: &Rc<SimCore>, g: &mut Engine, stop: Time) -> Next {
    loop {
        // The next live event at or before the pause point. Nothing is taken
        // past it, so pausing never consumes exploration decisions.
        let Some(first) = g.pop_through(stop) else {
            return Next::Drained;
        };
        let (t, seq, slot) = if g.chooser.is_none() && !core.journaling() {
            first
        } else {
            pick_tie(core, g, first)
        };
        core.now.set(t);
        g.executed += 1;
        let due = g.take(seq, slot);
        g.sched_hash = fnv_fold(fnv_fold(fnv_fold(g.sched_hash, t), seq), due.tag());
        g.observers.probe(core, || Probe::Event(g.executed, t));
        let kind = match due {
            Due::Event(kind) => kind,
            Due::Start(slot) => {
                let st = g.lps.slots[slot as usize].st.as_ref();
                let host = st.expect("spawned machine present").host();
                let h = core.host(host);
                if h.down.get() {
                    g.lps.release(slot);
                    continue; // Spawned before the crash; dies with it.
                }
                let jumped = h.arrive(t, 0);
                return Next::Task(start_lp(core, g, host, Fresh::Spawned(slot), jumped));
            }
            Due::Wake(lp, reason) => {
                let Some(st) = g.lp_mut(lp).filter(|st| st.state == RunState::Blocked) else {
                    // Process gone or killed since: a stale wake.
                    g.observers.probe(core, || Probe::StaleWake(lp.id));
                    continue;
                };
                let host = st.host();
                let body = st.body.take().expect("blocked process has a continuation");
                st.state = match body {
                    LpBody::Coro(_) => RunState::Running,
                    LpBody::Machine { .. } => RunState::Stepping,
                };
                let took = reason == WakeReason::Normal;
                g.current = Some(lp);
                let switch = core.cost.proc_switch;
                let (idle, now) = core.host(host).arrive(t, switch);
                g.observers
                    .probe(core, || Probe::Resume(lp.id, host, idle, switch, now, took));
                return Next::Resume(Woken {
                    lp,
                    host,
                    body,
                    reason,
                });
            }
        };
        let (host, job) = match kind {
            EvKind::Job { host, job } => (HostId(host as usize), job),
            EvKind::Wake { lp, .. } => {
                // Filed after its process had gone.
                g.observers.probe(core, || Probe::StaleWake(lp.id));
                continue;
            }
            EvKind::Crash { host } => {
                let h = core.host(host);
                if h.down.get() {
                    continue; // Already down.
                }
                h.down.set(true);
                bump(&h.crashes, 1);
                let boot = JournalRecord::Boot {
                    host: host.0 as u32,
                    kind: 0,
                    t,
                };
                g.observers.probe(core, || Probe::Decision(boot));
                // In-flight deliveries, timers, and spawned runs on the
                // host die with it, as do pending wakes for its
                // processes. Crash/Restart events survive — a scheduled
                // restart must not be purged by its own crash.
                let Engine {
                    timeline,
                    events,
                    lps,
                    reap,
                    observers,
                    ..
                } = &mut *g;
                let mut jobs = Vec::new();
                let purged = events.remove_where(|seq, k| {
                    let dies = matches!(k, EvKind::Job { host: h, .. } if *h == narrow(host));
                    if dies {
                        jobs.push(seq);
                    }
                    dies
                });
                jobs.sort_unstable();
                let purged = purged + lps.purge(host, &jobs);
                timeline.note_dead(purged, &Tables { events, lps });
                // Every process on the host dies, its wakes purged; the run
                // loop reaps the blocked ones (unwinding coroutines via a
                // filtered panic) at its next deterministic reap point.
                for (id, slot, st) in lps.iter_mut().filter(|(_, _, st)| st.host() == host) {
                    if st.state == RunState::Blocked {
                        st.state = RunState::Killed;
                        reap.push(LpId { id, slot });
                    }
                    observers.probe(core, || Probe::Kill(id));
                }
                continue;
            }
            EvKind::Restart { host } => {
                let h = core.host(host);
                if !h.down.get() {
                    continue; // Not down; nothing to restart.
                }
                h.down.set(false);
                h.epoch.set(h.epoch.get() + 1);
                bump(&h.restarts, 1);
                let jumped = h.arrive(t, 0);
                let boot = JournalRecord::Boot {
                    host: host.0 as u32,
                    kind: 1,
                    t,
                };
                g.observers.probe(core, || Probe::Decision(boot));
                // The kernel reboots as a fresh shepherd process, giving
                // every protocol its reboot hook.
                let f: Thunk = Box::new(move |ctx: &Ctx| {
                    if let Err(e) = ctx.kernel_ref().reboot_protocols(ctx) {
                        panic!("reboot failed on host {}: {e}", ctx.host().0);
                    }
                });
                return Next::Task(start_lp(core, g, host, Fresh::Job(Job::Body(f)), jumped));
            }
        };
        let h = core.host(host);
        if h.down.get() {
            continue; // Scheduled before the crash; dies with it.
        }
        return Next::Task(start_lp(core, g, host, Fresh::Job(job), h.arrive(t, 0)));
    }
}

/// A chooser is installed or the journal records, so same-time ties are
/// forced-choice points: takes every live event tied with `first` (they
/// surface seq-ascending), lets the chooser pick (with none, the first, as a
/// plain run does), and puts the rest back.
fn pick_tie(core: &SimCore, g: &mut Engine, first: Key) -> Key {
    // `first` was the earliest key, so whatever is due through its time is
    // tied with it.
    let Some(second) = g.pop_through(first.0) else {
        return first;
    };
    let mut ties = vec![first, second];
    while let Some(tied) = g.pop_through(first.0) {
        ties.push(tied);
    }
    let n = ties.len();
    let pick = g.chooser.as_mut().map_or(0, |c| c.choose(n).min(n - 1));
    let tie = JournalRecord::TiePick {
        n: n as u32,
        pick: pick as u32,
    };
    g.observers.probe(core, || Probe::Decision(tie));
    let chosen = ties.remove(pick);
    for key in ties {
        g.timeline.push(key);
    }
    chosen
}

/// What [`start_lp`] starts: a job, or the machine spawned in a process
/// slot.
enum Fresh {
    Job(Job),
    Spawned(u32),
}

/// Registers a fresh logical process on `host` (ids allocated in event
/// order, which determinism depends on) and claims the run token for it.
/// `jumped` is what [`HostCell::arrive`] reported for the event that
/// starts it.
#[inline]
fn start_lp(
    core: &SimCore,
    g: &mut Engine,
    host: HostId,
    fresh: Fresh,
    (idle, now): (Nanos, Time),
) -> Task {
    let id = g.next_lp;
    g.next_lp += 1;
    let (slot, body) = match fresh {
        Fresh::Job(job) => {
            let st = LpState::new(host, RunState::Running, None);
            (g.lps.insert(id, st), ProcBody::Job(job))
        }
        Fresh::Spawned(slot) => {
            let (m, fuel) = g.lps.start_machine(slot, id);
            (slot, ProcBody::Machine(m, fuel))
        }
    };
    g.peak_live = g.peak_live.max(g.lps.len());
    let lp = LpId { id, slot };
    g.current = Some(lp);
    g.observers
        .probe(core, || Probe::Start(id, host, idle, now));
    Task { lp, host, body }
}

/// Installs (once, process-wide) a panic hook that silences the
/// [`CrashKill`]/[`FuelKill`] unwinds used to reap killed processes;
/// everything else is forwarded to the previous hook.
pub(super) fn install_crash_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<CrashKill>() || info.payload().is::<FuelKill>() {
                return;
            }
            prev(info);
        }));
    });
}

/// The scheduler lock as the run loop passes it around: every driver below
/// takes the guard, releases it only while the process body runs, and hands
/// it back re-acquired, so one process step costs one release/acquire pair.
pub(super) type EngineGuard<'a> = OwnerGuard<'a, Engine>;

/// The run loop, and the body of every coroutine the simulator starts:
/// reaps, advances, and runs what [`advance`] hands it until nothing is due
/// through [`Engine::stop`]. A fresh job is a plain call on this stack
/// ([`call_job`]) and a machine a step on it; a process that already owns
/// a stack is resumed on that one, nested ([`drive_coro`]). Returns — so the
/// coroutine finishes — when the queue has drained, or when this stack has
/// become a process's own and that process's body has ended.
///
/// `ctx` is the context whatever runs on this stack runs under — jobs and
/// machine steps, one at a time — re-aimed at each.
fn drive(mut ctx: Ctx) {
    let core = &Rc::clone(&ctx.core);
    let mut g = core.engine.lock();
    let stop = g.stop;
    loop {
        // Reap crash-killed processes first, in ascending id order, so
        // their unwinds land at a deterministic point of the schedule.
        // Only `advance` queues processes here, so one sort covers the
        // batch.
        if !g.reap.is_empty() {
            let mut batch = std::mem::take(&mut g.reap);
            batch.sort_unstable_by_key(|lp| lp.id);
            for lp in batch {
                g = reap_lp(core, g, lp);
            }
            continue;
        }
        g = match advance(core, &mut g, stop) {
            Next::Task(Task { lp, host, body }) => match body {
                ProcBody::Job(job) => match call_job(core, g, &mut ctx, lp, host, job) {
                    Some(g) => g,
                    None => return,
                },
                ProcBody::Machine(m, fuel) => {
                    drop(g);
                    step_machine(core, &mut ctx, lp, host, m, fuel, WakeReason::Normal)
                }
            },
            Next::Resume(woken) => resume_lp(core, g, &mut ctx, woken),
            Next::Drained if g.reap.is_empty() => return,
            Next::Drained => g,
        };
    }
}

/// Runs a fresh process's job as a plain call on this — the driver's —
/// stack, under the driver's context (re-aimed at it here, as
/// [`step_machine`] does) and the per-process fuel budget. The run token is
/// already `lp`. If the body blocks, [`Ctx::block_current`]
/// suspends this very stack and [`Sim::run_until_time`] makes it the
/// process's; the call then returns on a stack some later driver has
/// resumed, and `None` tells [`drive`] to get out of the way (a panic is
/// re-raised) so the coroutine finishes and that driver's [`drive_coro`]
/// retires the process as it would any other. Otherwise the process ends
/// here, and the lock comes back re-acquired.
fn call_job<'a>(
    core: &'a Rc<SimCore>,
    mut g: EngineGuard<'a>,
    ctx: &mut Ctx,
    lp: LpId,
    host: HostId,
    job: Job,
) -> Option<EngineGuard<'a>> {
    g.on_driver = Some(lp);
    drop(g);
    ctx.aim(host);
    ctx.lp = Some(lp);
    let ctx = &*ctx;
    if let Some(fuel) = core.fuel_limit {
        vproc::set_fuel(fuel);
    }
    let died = catch_unwind(AssertUnwindSafe(|| job.run(ctx))).err();
    let mut g = core.engine.lock();
    if g.on_driver != Some(lp) {
        drop(g);
        if let Some(p) = died {
            resume_unwind(p);
        }
        return None;
    }
    g.on_driver = None;
    if core.fuel_limit.is_some() {
        // What is left of the budget was this process's; a machine's
        // charges tick the same counter and must find it unlimited.
        vproc::set_fuel(u64::MAX);
    }
    if let Some(p) = died {
        note_death(core, &mut g, lp, p);
    }
    finalize_lp(core, &mut g, lp);
    Some(g)
}

/// Files how a job ended when it did not return: a crash's or a fuel
/// budget's kill is a normal death, anything else a panic to report.
fn note_death(core: &SimCore, g: &mut Engine, lp: LpId, p: Box<dyn Any + Send>) {
    if p.is::<CrashKill>() {
        // Normal death of a process whose host crashed.
    } else if p.is::<FuelKill>() {
        g.fuel_exhausted += 1;
        g.observers.probe(core, || Probe::Kill(lp.id));
    } else {
        let text = p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        g.panics.push(text);
    }
}

/// Resumes a process on the stack it owns, handing it `token`, and parks or
/// retires it afterwards.
fn drive_coro<'a>(
    core: &'a Rc<SimCore>,
    g: EngineGuard<'a>,
    lp: LpId,
    mut coro: vproc::Coro,
    token: u64,
) -> EngineGuard<'a> {
    drop(g);
    let finished = coro.resume(token);
    let mut g = core.engine.lock();
    if finished {
        if let Some(p) = coro.retire() {
            note_death(core, &mut g, lp, p);
        }
        finalize_lp(core, &mut g, lp);
    } else {
        // Blocked: `Ctx::block` already marked it and released the run
        // token; park the suspended stack with the process.
        g.lp_mut(lp)
            .expect("suspended process still registered")
            .body = Some(LpBody::Coro(coro));
    }
    g
}

/// Resumes a blocked process the scheduler just woke. The run token is
/// already `woken.lp`.
fn resume_lp<'a>(
    core: &'a Rc<SimCore>,
    g: EngineGuard<'a>,
    ctx: &mut Ctx,
    woken: Woken,
) -> EngineGuard<'a> {
    let Woken {
        lp,
        host,
        body,
        reason,
    } = woken;
    match body {
        LpBody::Coro(coro) => {
            let token = match reason {
                WakeReason::Normal => RESUME_NORMAL,
                WakeReason::Timeout => RESUME_TIMEOUT,
            };
            drive_coro(core, g, lp, coro, token)
        }
        LpBody::Machine { m, fuel } => {
            drop(g);
            step_machine(core, ctx, lp, host, m, fuel, reason)
        }
    }
}

/// Runs a machine from one blocking point to the next (or to completion),
/// performing the returned [`VStep`]s on its behalf. Called without the
/// scheduler lock, with the run token `lp`; returns holding the lock. The
/// machine borrows `ctx` (re-aimed at it here) only while it runs, so a
/// parked machine holds no reference to the simulation.
fn step_machine<'a>(
    core: &'a Rc<SimCore>,
    ctx: &mut Ctx,
    lp: LpId,
    host: HostId,
    mut m: Box<dyn VProc>,
    mut fuel: u32,
    mut reason: WakeReason,
) -> EngineGuard<'a> {
    ctx.aim(host);
    ctx.lp = Some(lp);
    let ctx = &*ctx;
    let host = ctx.cell();
    loop {
        // Machines pay one fuel unit per resume; exhaustion kills the
        // process at this deterministic point, like a coroutine's FuelKill.
        if fuel == 0 {
            let mut g = core.engine.lock();
            g.fuel_exhausted += 1;
            // Kill before Finish, as everywhere: the checker files a killed
            // process's host while it still knows it.
            g.observers.probe(core, || Probe::Kill(lp.id));
            finalize_lp(core, &mut g, lp);
            return g;
        }
        if fuel != u32::MAX {
            fuel -= 1;
        }
        bump(&host.fuel, 1);
        let how = match m.resume(ctx, reason) {
            VStep::Done => {
                let mut g = core.engine.lock();
                finalize_lp(core, &mut g, lp);
                return g;
            }
            VStep::Sleep(dt) => Block::Sleep(dt),
            VStep::Wait { sema, timeout } => {
                if sema.wait_begin(ctx, timeout) != Enqueued::Queued {
                    // Fast path: a unit was available; no block happened.
                    reason = WakeReason::Normal;
                    continue;
                }
                Block::Sema
            }
        };
        let (mut g, _) = ctx.block(core, lp, RunState::Stepping, how);
        g.lp_mut(lp).expect("machine process registered").body = Some(LpBody::Machine { m, fuel });
        return g;
    }
}

/// Retires a finished or killed process: releases the run token if it holds
/// it, unregisters it, and discards its span stack.
fn finalize_lp(core: &SimCore, g: &mut Engine, lp: LpId) {
    if g.current == Some(lp) {
        g.current = None;
    }
    g.lps.remove(lp);
    g.observers.probe(core, || Probe::Finish(lp.id));
}

/// Reaps one crash-killed process: a coroutine is resumed so it unwinds via
/// [`CrashKill`] (running its drop guards), a machine is simply dropped.
/// Called with the run token free.
fn reap_lp<'a>(core: &'a Rc<SimCore>, mut g: EngineGuard<'a>, lp: LpId) -> EngineGuard<'a> {
    let body = match g.lp_mut(lp) {
        Some(st) if st.state == RunState::Killed => st.body.take(),
        // Already gone (e.g. reaped via an earlier crash); nothing to do.
        _ => return g,
    };
    match body {
        // The resumed `Ctx::block_current` sees the kill token and unwinds
        // with CrashKill; the coroutine finishes, so drive_coro retires it.
        Some(LpBody::Coro(coro)) => drive_coro(core, g, lp, coro, RESUME_KILLED),
        Some(LpBody::Machine { .. }) | None => {
            finalize_lp(core, &mut g, lp);
            g
        }
    }
}
