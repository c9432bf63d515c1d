//! The event timeline: a monotone radix heap over `(time, seq, slot)` keys.
//!
//! Virtual time only moves forward, so almost every key is filed later than
//! the last one popped. Such a key needs no exact place yet: it sits,
//! unsorted, in the bucket numbered by the highest bit in which its time
//! differs from `last`, the time the timeline last advanced to. Only the keys
//! at or before `last` are ordered — `due`, a small binary heap in full
//! `(time, seq)` order. When `due` runs dry the lowest occupied bucket is
//! taken, `last` moves to its earliest time and its keys are dealt downward:
//! every one of them now agrees with `last` in that bucket's bit, so each
//! lands in `due` or a strictly lower bucket. A key moves down at most once
//! per bit, each move a sequential scan, where a binary heap sifts through
//! `log2(n)` scattered levels on every pop.
//!
//! `(time, seq)` is a total order and `due` keeps it exactly, also for keys
//! filed in the past and for keys put back (the schedule chooser's
//! unpicked ties), so the pop sequence is the one any correct priority queue
//! produces: `sched_hash` cannot tell the difference.
//!
//! A key whose event has left the event table (a cancelled timer, a crash
//! purge) is dead. Dead keys are dropped by the first refill that meets them
//! and never outnumber the live ones by more than [`DEAD_FLOOR`]: past that
//! the timeline is compacted in place.
//!
//! Why not a timing wheel or calendar queue: both need a bucket width tuned
//! to the workload's timer horizons (here microseconds to a thousand
//! seconds in one run); the radix heap has no parameter.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::Time;

/// The table a key's event lives in, as the timeline sees it: a key is live
/// while its table still files an event under the key's `(seq, slot)`.
pub(super) trait Filed {
    fn files(&self, seq: u64, slot: u32) -> bool;
}

/// A queued event's position in the timeline: `(time, seq, slot)`. `seq`
/// breaks time ties in insertion order; `slot` is where the event sits — in
/// the event table, or (with its top bit set) the process table.
pub(super) type Key = (Time, u64, u32);

/// One bucket per bit of [`Time`].
const BUCKETS: usize = 64;

/// Keys of capacity `due` may keep once drained; what a large population
/// grew beyond that is given back to the allocator (24 KiB stays).
const DUE_KEEP: usize = 1024;

/// The same for a bucket, of which there are 64 where there is one `due`. A
/// bucket is also created with this much, so that its first key allocates
/// nothing.
const BUCKET_KEEP: usize = DUE_KEEP / BUCKETS;

/// Bucket sets a thread keeps for its next simulation.
const SPARE_SETS: usize = 4;

/// Dead keys tolerated beyond the number of live ones.
const DEAD_FLOOR: usize = 64;

thread_local! {
    /// Bucket sets of this thread's dropped timelines, kept for the next
    /// [`Timeline::new`] the way `vproc` keeps coroutine stacks: virtual time
    /// crossing a power of two touches a bucket for the first time, and on a
    /// recycled (or freshly pre-sized) set that first touch allocates
    /// nothing. Bounded: at most [`SPARE_SETS`] sets of [`BUCKETS`] buckets
    /// of [`BUCKET_KEEP`] keys each — 96 KiB a thread.
    static SPARE: RefCell<Vec<Vec<Vec<Key>>>> = const { RefCell::new(Vec::new()) };
}

pub(super) struct Timeline {
    /// Keys at or before `last`, in `(time, seq)` order.
    due: BinaryHeap<Reverse<Key>>,
    /// `buckets[i]`: keys later than `last` whose time first differs from it
    /// in bit `i`, in no order.
    buckets: Vec<Vec<Key>>,
    /// Bit `i` is set when `buckets[i]` is not empty.
    occupied: u64,
    /// The earliest live time of the bucket last refilled from.
    last: Time,
    /// Keys held, dead ones included.
    len: usize,
    /// Keys held whose event is gone; see [`Timeline::note_dead`].
    dead: usize,
}

impl Timeline {
    // clippy.toml bans a binary heap in the engine; `due` is the one inside
    // the timeline, a few keys deep (the module doc says why).
    #[allow(clippy::disallowed_methods)]
    pub(super) fn new() -> Timeline {
        Timeline {
            due: BinaryHeap::new(),
            buckets: bucket_set(),
            occupied: 0,
            last: 0,
            len: 0,
            dead: 0,
        }
    }

    /// Keys held, dead ones included.
    pub(super) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub(super) fn push(&mut self, key: Key) {
        self.len += 1;
        self.place(key);
    }

    /// Files `key` relative to `last`.
    #[inline]
    fn place(&mut self, key: Key) {
        if key.0 <= self.last {
            self.due.push(Reverse(key));
        } else {
            let i = (key.0 ^ self.last).ilog2() as usize;
            // The bounds check doubles as the parked check: a set has a
            // bucket for every `i` there is.
            match self.buckets.get_mut(i) {
                Some(bucket) => bucket.push(key),
                None => self.unpark(i).push(key),
            }
            self.occupied |= 1 << i;
        }
    }

    /// Lends an empty timeline's bucket set to the thread's spare list, for
    /// a simulation kept at rest; the first key filed past `last` takes one
    /// back. Does nothing while a key is held.
    pub(super) fn park(&mut self) {
        if self.len == 0 {
            spare_bucket_set(std::mem::take(&mut self.buckets));
        }
    }

    /// Ends a [`Timeline::park`]; returns bucket `i`.
    #[cold]
    fn unpark(&mut self, i: usize) -> &mut Vec<Key> {
        debug_assert!(self.buckets.is_empty(), "a whole set has bucket {i}");
        self.buckets = bucket_set();
        &mut self.buckets[i]
    }

    /// Pops the earliest live key if its time is at or before `stop`; dead
    /// keys met on the way are dropped. `events` is the table the keys'
    /// `(seq, slot)` address.
    #[inline]
    pub(super) fn pop_through(&mut self, stop: Time, events: &impl Filed) -> Option<Key> {
        loop {
            let Some(&Reverse(key)) = self.due.peek() else {
                if self.refill(events) {
                    continue;
                }
                return None;
            };
            let live = events.files(key.1, key.2);
            if live && key.0 > stop {
                return None;
            }
            self.due.pop();
            self.len -= 1;
            // A population spawned at one instant is all due at once; as it
            // runs, its capacity here is wanted by the buckets it moves to.
            if self.due.capacity() > DUE_KEEP && self.due.len() < self.due.capacity() / 4 {
                self.due.shrink_to((2 * self.due.len()).max(DUE_KEEP));
            }
            if live {
                self.bound_dead(events);
                return Some(key);
            }
            self.dead -= 1;
        }
    }

    /// With `due` empty, deals the lowest occupied bucket's live keys
    /// downward and moves `last` to the earliest of them, which puts at
    /// least that key in `due`. Returns false when nothing live is left.
    fn refill(&mut self, events: &impl Filed) -> bool {
        while self.occupied != 0 {
            let i = self.occupied.trailing_zeros() as usize;
            self.occupied &= self.occupied - 1;
            // Nothing is dealt back into bucket `i`, so it can be taken whole.
            let mut bucket = std::mem::take(&mut self.buckets[i]);
            let held = bucket.len();
            let mut first = Time::MAX;
            // `retain`, written out: almost every pop refills a bucket of a
            // few keys, and a `retain` the compiler leaves out of line costs
            // a call each time.
            let mut kept = 0;
            for j in 0..held {
                let key = bucket[j];
                if events.files(key.1, key.2) {
                    first = first.min(key.0);
                    bucket[kept] = key;
                    kept += 1;
                }
            }
            bucket.truncate(kept);
            let dropped = held - kept;
            self.len -= dropped;
            self.dead -= dropped;
            if bucket.is_empty() {
                self.buckets[i] = bucket;
                continue;
            }
            self.last = first;
            if bucket.len() > DUE_KEEP {
                self.reserve_for(&bucket);
            }
            for key in bucket.drain(..) {
                self.place(key);
            }
            // A drained bucket keeps its room for the next time round unless
            // that is more than the whole timeline now holds.
            self.buckets[i] = if bucket.capacity() > self.len.max(BUCKET_KEEP) {
                Vec::with_capacity(BUCKET_KEEP)
            } else {
                bucket
            };
            return true;
        }
        false
    }

    /// Sizes `due` and the lower buckets for exactly the keys of `bucket`
    /// about to be dealt into them: growing by doubling while a large bucket
    /// is dealt out would hold up to twice its size again.
    #[cold]
    fn reserve_for(&mut self, bucket: &[Key]) {
        let mut counts = [0usize; BUCKETS];
        let mut due = 0;
        for &(t, _, _) in bucket {
            match t ^ self.last {
                0 => due += 1,
                diff => counts[diff.ilog2() as usize] += 1,
            }
        }
        self.due.reserve_exact(due);
        for (b, n) in self.buckets.iter_mut().zip(counts) {
            b.reserve_exact(n);
        }
    }

    /// Records that `n` events whose keys are still held have left `events`
    /// (every removal but the one that follows a pop must be reported, or
    /// the count of dead keys drifts).
    pub(super) fn note_dead(&mut self, n: usize, events: &impl Filed) {
        self.dead += n;
        self.bound_dead(events);
    }

    /// Keeps the dead keys within [`DEAD_FLOOR`] of the live ones.
    #[inline]
    fn bound_dead(&mut self, events: &impl Filed) {
        if self.dead > self.len - self.dead + DEAD_FLOOR {
            self.compact(events);
        }
    }

    /// Drops every dead key where it sits. Pop order cannot change: `due`
    /// re-forms over the same total order and buckets have none.
    #[cold]
    fn compact(&mut self, events: &impl Filed) {
        let live = |&(_, seq, slot): &Key| events.files(seq, slot);
        self.due.retain(|Reverse(key)| live(key));
        self.len = self.due.len();
        for (i, b) in self.buckets.iter_mut().enumerate() {
            b.retain(live);
            self.len += b.len();
            if b.is_empty() {
                self.occupied &= !(1 << i);
            }
        }
        self.dead = 0;
    }

    /// Every key held, dead ones included, in no order.
    pub(super) fn iter(&self) -> impl Iterator<Item = &Key> {
        self.due
            .iter()
            .map(|Reverse(key)| key)
            .chain(self.buckets.iter().flatten())
    }

    /// Empties the timeline and rewinds it to time zero (a restore may file
    /// keys earlier than anything popped so far).
    pub(super) fn clear(&mut self) {
        self.due.clear();
        self.buckets.iter_mut().for_each(Vec::clear);
        self.occupied = 0;
        self.last = 0;
        self.len = 0;
        self.dead = 0;
    }
}

impl Drop for Timeline {
    fn drop(&mut self) {
        spare_bucket_set(std::mem::take(&mut self.buckets));
    }
}

/// A bucket set off the thread's spare list, or a new one.
fn bucket_set() -> Vec<Vec<Key>> {
    let spare = SPARE.try_with(|s| s.borrow_mut().pop()).ok().flatten();
    spare.unwrap_or_else(|| {
        (0..BUCKETS)
            .map(|_| Vec::with_capacity(BUCKET_KEEP))
            .collect()
    })
}

/// Keeps `set` for the thread's next timeline, if there is room (and `set`
/// is one: a parked timeline has none to give).
fn spare_bucket_set(mut set: Vec<Vec<Key>>) {
    if set.is_empty() {
        return;
    }
    // On `Err` the thread's spare list is already destroyed.
    let _ = SPARE.try_with(|s| {
        let mut s = s.borrow_mut();
        if s.len() < SPARE_SETS {
            for b in &mut set {
                b.clear();
                b.shrink_to(BUCKET_KEEP);
            }
            s.push(set);
        }
    });
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::super::engine::Slab;
    use super::*;

    /// The timeline beside the queue it replaced, over one event table.
    struct Pair {
        timeline: Timeline,
        model: BinaryHeap<Reverse<Key>>,
        events: Slab<()>,
        seq: u64,
        /// Time of the last key popped: what pushes are relative to.
        now: Time,
    }

    impl Pair {
        // The queue the timeline replaced, kept as the model it is tested against.
        #[allow(clippy::disallowed_methods)]
        fn new() -> Pair {
            Pair {
                timeline: Timeline::new(),
                model: BinaryHeap::new(),
                events: Slab::new(),
                seq: 0,
                now: 0,
            }
        }

        fn push(&mut self, t: Time) {
            let slot = self.events.insert(self.seq, ());
            let key = (t, self.seq, slot);
            self.seq += 1;
            self.timeline.push(key);
            self.model.push(Reverse(key));
        }

        /// What the binary heap did: skip tombstones as they surface, leave
        /// a key beyond `stop` where it is.
        fn model_pop(&mut self, stop: Time) -> Option<Key> {
            loop {
                let &Reverse(key) = self.model.peek()?;
                let live = self.events.get(key.1, key.2).is_some();
                if live && key.0 > stop {
                    return None;
                }
                self.model.pop();
                if live {
                    return Some(key);
                }
            }
        }

        fn pop_through(&mut self, stop: Time) {
            let got = self.timeline.pop_through(stop, &self.events);
            assert_eq!(got, self.model_pop(stop), "pop through {stop}");
            if let Some((t, seq, slot)) = got {
                // As `advance` does: the popped event leaves the table
                // without the timeline being told.
                self.events.remove(seq, slot);
                self.now = t;
            }
        }

        /// Cancels the live keys `pick` selects.
        fn kill(&mut self, mut pick: impl FnMut(u64) -> bool) {
            let doomed: Vec<Key> = self
                .model
                .iter()
                .map(|&Reverse(key)| key)
                .filter(|&(_, seq, slot)| self.events.get(seq, slot).is_some() && pick(seq))
                .collect();
            for (_, seq, slot) in doomed {
                self.events.remove(seq, slot);
                self.timeline.note_dead(1, &self.events);
            }
        }

        fn clear(&mut self) {
            self.timeline.clear();
            self.model.clear();
            self.events.clear();
        }

        /// Same live keys, an exact count of the dead ones, and the bound.
        fn check(&self) {
            let live = |&&(_, seq, slot): &&Key| self.events.get(seq, slot).is_some();
            let mut held: Vec<Key> = self.timeline.iter().copied().collect();
            assert_eq!(held.len(), self.timeline.len());
            let mut got: Vec<Key> = held.iter().filter(live).copied().collect();
            assert_eq!(held.len() - got.len(), self.timeline.dead);
            let mut want: Vec<Key> = self
                .model
                .iter()
                .map(|Reverse(key)| key)
                .filter(live)
                .copied()
                .collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "live keys");
            assert_eq!(got.len(), self.events.len());
            assert!(self.timeline.len() <= 2 * got.len() + DEAD_FLOOR);
            held.sort_unstable();
            held.dedup();
            assert_eq!(held.len(), self.timeline.len(), "a key is held twice");
        }

        fn drain(&mut self) {
            while !self.model.is_empty() {
                self.pop_through(Time::MAX);
            }
            self.pop_through(Time::MAX);
            self.check();
            assert_eq!(self.timeline.len(), 0);
        }
    }

    #[derive(Clone, Debug)]
    enum Op {
        /// File a key `delta` after the last pop — or before it.
        Push {
            delta: u64,
            past: bool,
        },
        Pop,
        /// Pop only if due within `ahead` of the last pop.
        PopThrough {
            ahead: u64,
        },
        /// Cancel the keys whose seq is `r` modulo 3.
        Kill {
            r: u64,
        },
        Clear,
        Check,
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        // The horizons of one run: the same instant, a wire time, a think
        // time, a retransmit timer, a resident client's period, never.
        let delta = || {
            prop_oneof![
                0u64..1,
                10u64..100,
                1_000_000u64..5_000_000,
                40_000_000u64..40_000_001,
                250_000_000_000u64..250_000_000_001,
                1u64 << 40..(1 << 40) + 1,
            ]
        };
        let push = || {
            (delta(), 0u8..100).prop_map(|(delta, p)| Op::Push {
                delta,
                past: p == 0,
            })
        };
        proptest::collection::vec(
            prop_oneof![
                push(),
                push(),
                push(),
                push(),
                (0u8..1).prop_map(|_| Op::Pop),
                (0u8..1).prop_map(|_| Op::Pop),
                (0u8..1).prop_map(|_| Op::Pop),
                delta().prop_map(|ahead| Op::PopThrough { ahead }),
                (0u64..60).prop_map(|n| match n {
                    0 => Op::Clear,
                    1..=3 => Op::Kill { r: n % 3 },
                    _ => Op::Check,
                }),
            ],
            1..600,
        )
    }

    fn run(ops: Vec<Op>) {
        let mut p = Pair::new();
        for op in ops {
            match op {
                Op::Push { delta, past: false } => p.push(p.now + delta),
                Op::Push { delta, past: true } => p.push(p.now.saturating_sub(delta)),
                Op::Pop => p.pop_through(Time::MAX),
                Op::PopThrough { ahead } => p.pop_through(p.now + ahead),
                Op::Kill { r } => p.kill(|seq| seq % 3 == r),
                Op::Clear => p.clear(),
                Op::Check => p.check(),
            }
        }
        p.drain();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn pops_what_a_binary_heap_pops(ops in ops()) {
            run(ops);
        }
    }

    /// A population large enough for the counted refill, on three horizons,
    /// two thirds of it cancelled on the way.
    #[test]
    fn a_large_population_drains_in_order() {
        let mut p = Pair::new();
        let mut rng = 7;
        for i in 0..50_000u64 {
            let jitter = crate::rng::splitmix64(&mut rng) >> 44;
            p.push([1_000, 40_000_000, 250_000_000_000][(i % 3) as usize] + jitter);
        }
        p.check();
        for _ in 0..10_000 {
            p.pop_through(Time::MAX);
        }
        p.kill(|seq| seq % 3 == 1);
        p.check();
        for i in 0..10_000u64 {
            p.push(p.now + i * 7_919);
            p.pop_through(Time::MAX);
        }
        p.kill(|seq| seq % 3 == 2);
        p.check();
        p.drain();
    }

    /// Keys put back at the instant just popped (the chooser's unpicked
    /// ties) and keys filed before it come out in `(time, seq)` order.
    #[test]
    fn keys_at_or_before_the_last_pop_keep_their_order() {
        let mut p = Pair::new();
        for t in [500, 500, 500, 900, 100] {
            p.push(t);
        }
        p.pop_through(Time::MAX); // (100, 4)
        p.pop_through(Time::MAX); // (500, 0): `last` is 500 now
        p.push(500);
        p.push(100);
        p.push(499);
        for _ in 0..3 {
            p.pop_through(499); // 100, 499, then nothing: 500 is past the stop
        }
        p.check();
        p.drain();
    }

    /// Dead keys far in the future never exceed the live ones by more than
    /// the floor, whether or not a refill ever meets them.
    #[test]
    fn cancelled_far_timers_are_compacted_away() {
        let mut p = Pair::new();
        for i in 0..10_000u64 {
            p.push(p.now + 1_000);
            p.push(p.now + 1_000_000_000_000);
            p.kill(|seq| seq == 2 * i + 1);
            assert!(p.timeline.len() <= 2 * p.events.len() + DEAD_FLOOR);
            p.pop_through(Time::MAX);
        }
        p.check();
        p.drain();
    }
}
