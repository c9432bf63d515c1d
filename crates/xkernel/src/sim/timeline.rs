//! The event timeline: a monotone radix heap over `(time, seq, slot)` keys.
//!
//! Virtual time only moves forward, so almost every key is filed later than
//! the last one popped. Such a key needs no exact place yet: it sits,
//! unsorted, in the bucket numbered by the highest bit in which its time
//! differs from `last`, the time the timeline last advanced to. Only the keys
//! at or before `last`, the due ones, are ordered. When they run out the
//! lowest occupied bucket is taken, `last` moves to the earliest time filed
//! in it and its keys are dealt downward: every one of them now agrees with
//! `last` in that bucket's bit, so each is due or lands in a strictly lower
//! bucket. A key moves down at most once per bit, each move a sequential
//! scan, where a binary heap sifts through `log2(n)` scattered levels on
//! every pop.
//!
//! Due keys mostly arrive in `(time, seq)` order — a population spawned at
//! one instant, zero-delay events, a bucket dealt out at its earliest time,
//! the schedule chooser's unpicked ties put back — and are appended to the
//! run, a queue popped at its front. A key that sorts before the run's tail
//! (one filed in the past) goes to a small binary heap instead, and a pop
//! takes the smaller of the two heads. `(time, seq)` is a total order and
//! both keep it exactly, so the pop sequence is the one any correct priority
//! queue produces: `sched_hash` cannot tell the difference.
//!
//! Every key outside that heap lives in a block of [`BLOCK`] keys. A bucket
//! is a stack of blocks and the run a queue of them. Dealing a bucket out
//! frees each block as soon as its keys are placed but the last, which the
//! bucket keeps, empty, for its next key (a part short of a block and of
//! spares takes the highest empty bucket's); the run frees each block its
//! front leaves behind. So the room one part gives up is the room the next
//! one takes: a timeline holds the blocks its keys fill, one part-filled or
//! kept block a bucket and two for the run. Of its free blocks it keeps
//! [`SPARE`]; the rest go back to the allocator.
//!
//! A key whose event has left the event table (a cancelled timer, a crash
//! purge) is dead. Dead keys are dropped by the first refill that meets them
//! and never outnumber the live ones by more than [`DEAD_FLOOR`]: past that
//! the timeline is compacted.
//!
//! Why not a timing wheel or calendar queue: both need a bucket width tuned
//! to the workload's timer horizons (here microseconds to a thousand
//! seconds in one run); the radix heap has no parameter.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

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

/// Keys a block holds: 768 B of them.
const BLOCK: usize = 32;

/// Free blocks a timeline keeps for the next bucket or run that needs one.
const SPARE: usize = 16;

/// Dead keys tolerated beyond the number of live ones.
const DEAD_FLOOR: usize = 64;

/// Room for [`BLOCK`] keys. A bucket's blocks and free ones are chained
/// through `next`, which sits on the first key's cache line; the run's are
/// held in order by its deque.
#[repr(C)]
struct Block {
    next: Option<Box<Block>>,
    keys: [Key; BLOCK],
}

/// Sets `slot`, which is empty, to `b`.
#[inline]
fn put(slot: &mut Option<Box<Block>>, b: Option<Box<Block>>) {
    // Checked here, not in an out-of-line drop of the empty slot.
    if let Some(old) = std::mem::replace(slot, b) {
        drop(old);
    }
}

impl Drop for Block {
    /// Unlinks the chain below one block at a time: dropped whole, it would
    /// recurse once a block.
    fn drop(&mut self) {
        let mut next = self.next.take();
        while let Some(mut b) = next {
            next = b.next.take();
        }
    }
}

/// A chain of free blocks.
struct Stack {
    top: Option<Box<Block>>,
    n: usize,
}

impl Stack {
    const EMPTY: Stack = Stack { top: None, n: 0 };

    #[inline]
    fn push(&mut self, mut b: Box<Block>) {
        put(&mut b.next, self.top.take());
        put(&mut self.top, Some(b));
        self.n += 1;
    }

    #[inline]
    fn pop(&mut self) -> Option<Box<Block>> {
        let mut b = self.top.take()?;
        put(&mut self.top, b.next.take());
        self.n -= 1;
        Some(b)
    }
}

/// Keys later than `last` whose time first differs from it in one bit, in
/// no order: a chain of blocks from the newest down, of which the top one
/// holds `fill` keys and every other is full. A bucket dealt out keeps its
/// last block, empty, for its next key, until another part takes it.
struct Bucket {
    top: Option<Box<Block>>,
    fill: usize,
    /// The earliest time filed since the bucket was last empty (`Time::MAX`
    /// while it is). Its key may have died since, but the bucket can still
    /// be dealt out relative to it.
    first: Time,
}

impl Bucket {
    fn keys(&self) -> impl Iterator<Item = &Key> {
        let mut used = self.fill;
        std::iter::successors(self.top.as_deref(), |b| b.next.as_deref()).flat_map(move |b| {
            let keys = &b.keys[..used];
            used = BLOCK;
            keys
        })
    }
}

/// Due keys that arrived in `(time, seq)` order: `len` of them, from
/// position `head` of the front block on through the blocks behind it. The
/// front block is held here, not in the deque, so that a run of fewer than
/// [`BLOCK`] keys reads and writes it without one. An empty run keeps it.
struct Run {
    front: Option<Box<Block>>,
    behind: VecDeque<Box<Block>>,
    head: usize,
    len: usize,
    /// The key appended last.
    tail: Key,
}

impl Run {
    #[inline]
    fn front(&self) -> Key {
        self.front
            .as_ref()
            .expect("a run with keys has a block")
            .keys[self.head]
    }

    fn blocks(&self) -> usize {
        usize::from(self.front.is_some()) + self.behind.len()
    }

    /// The key at `pos`, counted from the front block's first.
    fn at(&mut self, pos: usize) -> &mut Key {
        let block = match pos / BLOCK {
            0 => self.front.as_mut().expect("a run with keys has a block"),
            j => &mut self.behind[j - 1],
        };
        &mut block.keys[pos % BLOCK]
    }
}

pub(super) struct Timeline {
    run: Run,
    /// Due keys that sorted before the run's tail, in `(time, seq)` order.
    heap: BinaryHeap<Reverse<Key>>,
    /// `buckets[i]`: keys later than `last` whose time first differs from it
    /// in bit `i`.
    buckets: [Bucket; BUCKETS],
    /// Bit `i` is set when `buckets[i]` is not empty.
    occupied: u64,
    /// Bit `i` is set when `buckets[i]` holds a block, an empty one if the
    /// bucket is.
    has_block: u64,
    /// The earliest time filed in the bucket last dealt out.
    last: Time,
    /// Keys held, dead ones included.
    len: usize,
    /// Keys held whose event is gone; see [`Timeline::note_dead`].
    dead: usize,
    /// Free blocks, at most [`SPARE`].
    spare: Stack,
    /// Blocks owned, free ones included.
    blocks: usize,
}

impl Timeline {
    // clippy.toml bans a binary heap in the engine; `heap` is the one inside
    // the timeline, a few keys deep (the module doc says why).
    #[allow(clippy::disallowed_methods)]
    pub(super) fn new() -> Timeline {
        Timeline {
            run: Run {
                front: None,
                behind: VecDeque::new(),
                head: 0,
                len: 0,
                tail: (0, 0, 0),
            },
            heap: BinaryHeap::new(),
            buckets: std::array::from_fn(|_| Bucket {
                top: None,
                fill: 0,
                first: Time::MAX,
            }),
            occupied: 0,
            has_block: 0,
            last: 0,
            len: 0,
            dead: 0,
            spare: Stack::EMPTY,
            blocks: 0,
        }
    }

    /// Keys held, dead ones included.
    pub(super) fn len(&self) -> usize {
        self.len
    }

    /// Blocks holding keys, and those an empty bucket or run keeps.
    pub(super) fn blocks_in_use(&self) -> usize {
        self.blocks - self.spare.n
    }

    #[inline]
    pub(super) fn push(&mut self, key: Key) {
        self.len += 1;
        self.place(key);
    }

    /// Files `key` relative to `last`.
    #[inline(always)]
    fn place(&mut self, key: Key) {
        if key.0 <= self.last {
            self.file_due(key);
        } else {
            self.file((key.0 ^ self.last).ilog2() as usize, key);
        }
    }

    /// Appends a due key to the run, or puts it in the heap if it sorts
    /// before the run's tail.
    #[inline(always)]
    fn file_due(&mut self, key: Key) {
        let run = &mut self.run;
        let at = run.head + run.len;
        match run.front.as_deref_mut() {
            Some(front) if at < BLOCK && (run.len == 0 || key > run.tail) => {
                front.keys[at] = key;
                run.len += 1;
                run.tail = key;
            }
            _ => self.file_due_slow(key),
        }
    }

    /// [`Timeline::file_due`] for a key out of order, or one past the
    /// run's front block.
    #[inline(never)]
    fn file_due_slow(&mut self, key: Key) {
        if self.run.len != 0 && key < self.run.tail {
            self.heap.push(Reverse(key));
            return;
        }
        let at = self.run.head + self.run.len;
        if at == BLOCK * self.run.blocks() {
            let b = self.take_block();
            match self.run.front {
                None => self.run.front = Some(b),
                Some(_) => self.run.behind.push_back(b),
            }
        }
        *self.run.at(at) = key;
        self.run.len += 1;
        self.run.tail = key;
    }

    /// Files `key` in bucket `i`.
    #[inline(always)]
    fn file(&mut self, i: usize, key: Key) {
        self.occupied |= 1 << i;
        let b = &mut self.buckets[i];
        if let (Some(top), true) = (b.top.as_deref_mut(), b.fill < BLOCK) {
            top.keys[b.fill] = key;
            b.fill += 1;
            b.first = b.first.min(key.0);
        } else {
            self.file_in_new_block(i, key);
        }
    }

    /// [`Timeline::file`] for a bucket whose top block is full or missing.
    #[inline(never)]
    fn file_in_new_block(&mut self, i: usize, key: Key) {
        let mut block = self.take_block();
        block.keys[0] = key;
        let b = &mut self.buckets[i];
        b.first = b.first.min(key.0);
        put(&mut block.next, b.top.take());
        put(&mut b.top, Some(block));
        b.fill = 1;
        self.has_block |= 1 << i;
    }

    /// A free block: a spare, the one the highest empty bucket keeps, or a
    /// new one.
    #[inline]
    fn take_block(&mut self) -> Box<Block> {
        match self.spare.pop() {
            Some(b) => b,
            None => self.steal_block(),
        }
    }

    /// The block the highest empty bucket keeps — the one least likely to
    /// be filed into soon — or a new one. Without it a warm simulation
    /// would allocate whenever virtual time first reached a bucket.
    fn steal_block(&mut self) -> Box<Block> {
        let idle = self.has_block & !self.occupied;
        if idle == 0 {
            return self.new_block();
        }
        let j = idle.ilog2() as usize;
        self.has_block &= !(1 << j);
        self.buckets[j].top.take().expect("a bucket with a block")
    }

    #[cold]
    fn new_block(&mut self) -> Box<Block> {
        self.blocks += 1;
        Box::new(Block {
            next: None,
            keys: [(0, 0, 0); BLOCK],
        })
    }

    /// Keeps `b` as a spare, or gives it back to the allocator.
    #[inline]
    fn free(&mut self, b: Box<Block>) {
        if self.spare.n < SPARE {
            self.spare.push(b);
        } else {
            self.blocks -= 1;
        }
    }

    /// Pops the earliest live key if its time is at or before `stop`; dead
    /// keys met on the way are dropped. `events` is the table the keys'
    /// `(seq, slot)` address.
    #[inline(always)]
    pub(super) fn pop_through(&mut self, stop: Time, events: &impl Filed) -> Option<Key> {
        loop {
            let (key, from_run) = if self.heap.is_empty() && self.run.len != 0 {
                (self.run.front(), true)
            } else {
                self.head(events)?
            };
            let live = events.files(key.1, key.2);
            if live && key.0 > stop {
                return None;
            }
            if from_run {
                self.pop_run();
            } else {
                self.heap.pop();
            }
            self.len -= 1;
            if live {
                self.bound_dead(events);
                return Some(key);
            }
            self.dead -= 1;
        }
    }

    /// The earliest due key and whether it is the run's (else the heap's),
    /// refilling first if nothing is due; `None` when nothing live is left.
    #[inline(never)]
    fn head(&mut self, events: &impl Filed) -> Option<(Key, bool)> {
        if self.run.len == 0 && self.heap.is_empty() && !self.refill(events) {
            return None;
        }
        match self.heap.peek() {
            Some(&Reverse(h)) if self.run.len == 0 || h < self.run.front() => Some((h, false)),
            _ => Some((self.run.front(), true)),
        }
    }

    /// Drops the run's front key, and the front block once it is left
    /// behind (an emptied run keeps it).
    #[inline(always)]
    fn pop_run(&mut self) {
        let run = &mut self.run;
        run.head += 1;
        run.len -= 1;
        if run.len == 0 {
            run.head = 0;
        } else if run.head == BLOCK {
            self.free_front_block();
        }
    }

    #[inline(never)]
    fn free_front_block(&mut self) {
        self.run.head = 0;
        let next = self.run.behind.pop_front();
        let b = std::mem::replace(&mut self.run.front, next);
        self.free(b.expect("a run with keys has a block"));
    }

    /// With nothing due, deals the lowest occupied bucket's live keys
    /// downward and moves `last` to the earliest time filed there, freeing
    /// each block as it is emptied but the last. Returns true once a key is
    /// due, false when nothing live is left.
    fn refill(&mut self, events: &impl Filed) -> bool {
        while self.occupied != 0 {
            let i = self.occupied.trailing_zeros() as usize;
            self.occupied &= self.occupied - 1;
            // Nothing is dealt back into bucket `i`, so it can be taken whole.
            self.has_block &= !(1 << i);
            let bucket = &mut self.buckets[i];
            let was = std::mem::replace(&mut self.last, bucket.first);
            bucket.first = Time::MAX;
            let fill = std::mem::take(&mut bucket.fill);
            let mut next = bucket.top.take();
            if next.as_ref().is_some_and(|b| b.next.is_some()) {
                // Oldest block first, so that same-time keys reach the run
                // in the order they were filed.
                next = reversed(next);
            }
            let (mut seen, mut dropped) = (0, 0);
            while let Some(mut block) = next {
                next = block.next.take();
                let n = if next.is_some() { BLOCK } else { fill };
                seen += n;
                for &key in &block.keys[..n] {
                    if events.files(key.1, key.2) {
                        self.place(key);
                    } else {
                        dropped += 1;
                    }
                }
                if next.is_some() {
                    self.free(block);
                } else {
                    // The bucket keeps its last block, empty, for its next
                    // key.
                    put(&mut self.buckets[i].top, Some(block));
                    self.has_block |= 1 << i;
                }
            }
            self.len -= dropped;
            self.dead -= dropped;
            if seen == dropped {
                // Nothing was placed relative to the dead keys' time, and a
                // key filed later must not count as past because of them.
                self.last = was;
            } else if self.run.len != 0 || !self.heap.is_empty() {
                return true;
            }
            // Otherwise the earliest key filed had died, and every live one
            // went to a lower bucket.
        }
        false
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

    /// Drops every dead key. Pop order cannot change: the run keeps its
    /// order, the heap re-forms over the same total order and buckets have
    /// none. The run is compacted where it lies; an occupied bucket's live
    /// keys are filed again one block behind the block being read, which
    /// is freed for them, so no part ever holds more than one block extra.
    /// An empty bucket keeps its block.
    #[cold]
    fn compact(&mut self, events: &impl Filed) {
        let live = |&(_, seq, slot): &Key| events.files(seq, slot);
        self.heap.retain(|Reverse(key)| live(key));
        let head = self.run.head;
        let mut kept = 0;
        for at in head..head + self.run.len {
            let key = *self.run.at(at);
            if live(&key) {
                *self.run.at(head + kept) = key;
                self.run.tail = key;
                kept += 1;
            }
        }
        self.run.len = kept;
        if kept == 0 {
            self.run.head = 0;
        }
        let need = (self.run.head + kept).div_ceil(BLOCK).max(1);
        while self.run.blocks() > need {
            let b = self.run.behind.pop_back().expect("more blocks than needed");
            self.free(b);
        }
        self.len = self.heap.len() + kept;
        let mut todo = self.occupied;
        while todo != 0 {
            let i = todo.trailing_zeros() as usize;
            todo &= todo - 1;
            // A bucket still to do stays occupied, so no block is taken
            // from under its keys.
            self.occupied &= !(1 << i);
            let b = &mut self.buckets[i];
            let fill = std::mem::take(&mut b.fill);
            b.first = Time::MAX;
            let mut next = reversed(b.top.take());
            self.has_block &= !(1 << i);
            while let Some(mut block) = next {
                next = block.next.take();
                let n = if next.is_some() { BLOCK } else { fill };
                for &key in block.keys[..n].iter().filter(|k| live(k)) {
                    self.file(i, key);
                    self.len += 1;
                }
                self.free(block);
            }
        }
        self.dead = 0;
    }

    /// Every key held, dead ones included, in no order.
    pub(super) fn iter(&self) -> impl Iterator<Item = &Key> {
        let run = &self.run;
        let blocks = run.front.iter().chain(&run.behind);
        let keys = blocks.flat_map(|b| &b.keys).skip(run.head).take(run.len);
        keys.chain(self.heap.iter().map(|Reverse(key)| key))
            .chain(self.buckets.iter().flat_map(Bucket::keys))
    }

    /// Empties the timeline and rewinds it to time zero (a restore may file
    /// keys earlier than anything popped so far).
    pub(super) fn clear(&mut self) {
        self.heap.clear();
        while let Some(b) = self.run.behind.pop_back() {
            self.free(b);
        }
        self.run.head = 0;
        self.run.len = 0;
        for i in 0..BUCKETS {
            let b = &mut self.buckets[i];
            b.first = Time::MAX;
            let mut next = b.top.take();
            while let Some(mut block) = next {
                next = block.next.take();
                self.free(block);
            }
        }
        self.occupied = 0;
        self.has_block = 0;
        self.last = 0;
        self.len = 0;
        self.dead = 0;
    }
}

/// `chain` from its other end: a bucket's blocks, oldest first.
fn reversed(mut chain: Option<Box<Block>>) -> Option<Box<Block>> {
    let mut out = None;
    while let Some(mut b) = chain {
        chain = std::mem::replace(&mut b.next, out);
        out = Some(b);
    }
    out
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

        /// As the schedule chooser does: pops every live key tied with the
        /// earliest, takes the `pick`th of them and files the rest back,
        /// at the instant just popped.
        fn put_back(&mut self, pick: usize) {
            let Some(first) = self.timeline.pop_through(Time::MAX, &self.events) else {
                assert_eq!(self.model_pop(Time::MAX), None);
                return;
            };
            assert_eq!(Some(first), self.model_pop(Time::MAX));
            let mut ties = vec![first];
            while let Some(tied) = self.timeline.pop_through(first.0, &self.events) {
                assert_eq!(Some(tied), self.model_pop(first.0));
                ties.push(tied);
            }
            assert_eq!(self.model_pop(first.0), None);
            let (t, seq, slot) = ties.remove(pick % ties.len());
            for key in ties {
                self.timeline.push(key);
                self.model.push(Reverse(key));
            }
            self.events.remove(seq, slot);
            self.now = t;
        }

        /// The bounds on the timeline's blocks: those in use never exceed
        /// what its keys fill plus one part-filled or kept block a bucket
        /// and two for the run, and the spare ones never exceed the cap.
        fn check_blocks(&self) {
            let (held, used) = (self.timeline.len(), self.timeline.blocks_in_use());
            assert!(
                used <= held.div_ceil(BLOCK) + BUCKETS + 2,
                "{used} blocks in use for {held} keys"
            );
            assert!(self.timeline.spare.n <= SPARE);
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
            self.check_blocks();
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
        /// File a key `delta` after the last pop — or before it (one in
        /// four).
        Push {
            delta: u64,
            past: bool,
        },
        Pop,
        /// Pop only if due within `ahead` of the last pop.
        PopThrough {
            ahead: u64,
        },
        /// File `n` keys at the instant of the last pop.
        Burst {
            n: usize,
        },
        /// Pop the keys tied with the earliest, keep one and file the rest
        /// back.
        PutBack {
            pick: usize,
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
                past: p < 25,
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
                (2usize..12).prop_map(|n| Op::Burst { n }),
                (0usize..8).prop_map(|pick| Op::PutBack { pick }),
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
                Op::Burst { n } => (0..n).for_each(|_| p.push(p.now)),
                Op::PutBack { pick } => p.put_back(pick),
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

    /// The resident shape: a population filed at one instant, each key
    /// popped and filed again up to 2³⁸ ns ahead, then drained through the
    /// top bucket. At every step the blocks in use stay within what the
    /// keys fill plus one a bucket and two, and the spare ones within the
    /// cap: a bucket dealt out frees its blocks as it goes.
    #[test]
    fn a_resident_population_holds_the_blocks_its_keys_fill() {
        const N: u64 = 20_000;
        let mut p = Pair::new();
        for _ in 0..N {
            p.push(0);
            p.check_blocks();
        }
        let mut rng = 7;
        let mut peak = 0;
        for _ in 0..N {
            p.pop_through(Time::MAX);
            p.push(p.now + (crate::rng::splitmix64(&mut rng) >> 26));
            p.check_blocks();
            peak = peak.max(p.timeline.blocks_in_use());
        }
        p.check();
        while p.timeline.len() != 0 {
            p.pop_through(Time::MAX);
            p.check_blocks();
            peak = peak.max(p.timeline.blocks_in_use());
        }
        p.drain();
        assert!(
            peak <= N as usize / BLOCK + BUCKETS + 2,
            "{peak} blocks at the peak"
        );
    }

    /// Every block a timeline counts is one it holds — filled, kept by an
    /// empty bucket or the run, or spare — whether it is full, drained or
    /// cleared, so dropping it frees them all: it lends none elsewhere.
    #[test]
    fn a_dropped_timeline_frees_every_block_it_counts() {
        fn held(t: &Timeline) -> usize {
            let chain = |top: &Option<Box<Block>>| {
                std::iter::successors(top.as_deref(), |b| b.next.as_deref()).count()
            };
            let buckets: usize = t.buckets.iter().map(|b| chain(&b.top)).sum();
            chain(&t.spare.top) + t.run.blocks() + buckets
        }
        let mut p = Pair::new();
        for i in 0..1_000 {
            p.push(i * 1_000);
        }
        assert_eq!(held(&p.timeline), p.timeline.blocks);
        for _ in 0..500 {
            p.pop_through(Time::MAX);
        }
        assert_eq!(held(&p.timeline), p.timeline.blocks);
        p.drain();
        assert!(p.timeline.blocks > 0, "a drained timeline keeps some");
        assert_eq!(held(&p.timeline), p.timeline.blocks);
        p.push(p.now + 5);
        p.clear();
        assert_eq!(held(&p.timeline), p.timeline.blocks);
        assert!(
            p.timeline.blocks <= SPARE + 1,
            "clear keeps spares and the run's"
        );
    }

    /// A population spread over many blocks and buckets on three horizons,
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
