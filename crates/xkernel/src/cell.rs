//! The owner-only cell: what guards every piece of in-simulation state.
//!
//! The engine runs exactly one process body at a time, on the one OS thread
//! that drives the simulation (DESIGN.md §11); concurrency between shepherd
//! processes is *virtual*. State reached only from inside a running
//! simulation — the scheduler's engine, semaphores, session tables,
//! per-session protocol state, the wire — therefore has no second thread to
//! be excluded from, and a mutex there pays two atomic read-modify-writes
//! per acquisition to guard against nobody. [`OwnerCell`] keeps the
//! `lock()`/guard shape of a mutex and pays a plain load and two plain
//! stores instead.
//!
//! # The contract
//!
//! **One OS thread drives a simulation at a time, and a simulation changes
//! threads only through a real synchronisation point** — a
//! `std::thread::scope` spawn or join, a channel, a real mutex.
//! This is the invariant `unsafe impl Send for Coro` in [`crate::vproc`] and
//! the simulator's load-then-store scalar cells already rest on; everything
//! in the workspace honours it by building a simulation on the thread that
//! runs it ([`crate::par`] workers, `xload` sweeps) or by moving a quiescent
//! one whole.
//!
//! The cell cannot enforce this: `OwnerCell<T>` is `Sync` so that `Sim`,
//! `Kernel` and the session types stay `Send + Sync`, and a program that
//! shares one between two threads and enters it from both at once has a
//! data race. What the cell does is *notice* at every entry: `lock()`
//! asserts the cell is free before marking it held, and the assertion stays
//! on in release builds. It fires for either of two mistakes:
//!
//! * **re-entered** — a guard alive across a layer crossing, a block or a
//!   yield, and the cell taken again beneath it or by the next process. With
//!   a mutex this was a silent self-deadlock; here it is a panic naming the
//!   rule (DESIGN.md §12: never hold a guard across a crossing);
//! * **a second OS thread** inside the same simulation — the contract above
//!   is broken.
//!
//! The flag does not say which: recording *who* holds the cell means reading
//! a thread-local on every entry, which measured 3–4 % of an inline null
//! call (EXPERIMENTS.md, "The owner cell (PR 16)") for the sake of a message.
//! The check is a plain load, so against a truly concurrent second thread
//! it is best effort. A sound exclusion needs an atomic read-modify-write on
//! entry — exactly the instruction this cell exists to remove — so there is
//! no cheaper sound scheme to prefer; state that two OS threads really do
//! share (`EnableMap`'s writer lock behind the process-wide registry memo,
//! `par::run_indexed`'s result slots) keeps a real mutex from `std::sync`.
//!
//! Guards clear the flag in `Drop`, so a `CrashKill`/`FuelKill` unwind or a
//! handler panic running through frames that hold guards leaves every cell
//! free; there is no poison flag.

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};

#[cfg(debug_assertions)]
thread_local! {
    static ENTRIES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// How many times this thread has entered any [`OwnerCell`]. Debug builds
/// only: it is what `tests/cell_entries.rs` pins the entries of a warm null
/// call with; release builds carry no counter.
#[cfg(debug_assertions)]
#[doc(hidden)]
pub fn entries() -> u64 {
    ENTRIES.with(std::cell::Cell::get)
}

/// A value entered through a guard by the one thread driving its
/// simulation. See the [module docs](self) for the contract.
pub struct OwnerCell<T> {
    /// Whether a guard is alive.
    held: AtomicBool,
    value: UnsafeCell<T>,
}

// SAFETY: sound only under the module's contract — one OS thread drives a
// simulation (and so reaches its cells) at a time, and hand-off between
// threads goes through a real synchronisation point, which also publishes
// `value` and the relaxed `held` flag to the next thread. `T: Send` because
// that next thread then mutates and may drop the value. A violation is caught
// by `lock`'s assertion at best and is a data race on `value` at worst; no
// cheaper scheme is sound (exclusion needs the read-modify-write this type
// removes). `held` is an atomic and is `Sync` by itself.
unsafe impl<T: Send> Sync for OwnerCell<T> {}

/// Exclusive access to an [`OwnerCell`]'s value; leaving it frees the cell.
/// Never hold one across a layer crossing, a block or a yield.
pub struct OwnerGuard<'a, T> {
    cell: &'a OwnerCell<T>,
    /// Pins the guard to the thread that entered, as a mutex guard is.
    not_send: PhantomData<*mut ()>,
}

impl<T> OwnerCell<T> {
    /// A free cell holding `value`.
    pub const fn new(value: T) -> OwnerCell<T> {
        OwnerCell {
            held: AtomicBool::new(false),
            value: UnsafeCell::new(value),
        }
    }

    /// Enters the cell. One relaxed load, one relaxed store; the guard's
    /// drop is one more store.
    ///
    /// # Panics
    ///
    /// If the cell is already entered — always, release builds included.
    #[inline]
    pub fn lock(&self) -> OwnerGuard<'_, T> {
        if self.held.load(Relaxed) {
            already_entered();
        }
        self.held.store(true, Relaxed);
        #[cfg(debug_assertions)]
        ENTRIES.with(|n| n.set(n.get() + 1));
        OwnerGuard {
            cell: self,
            not_send: PhantomData,
        }
    }
}

#[cold]
#[inline(never)]
fn already_entered() -> ! {
    panic!(
        "OwnerCell re-entered: a guard is alive across a layer crossing, a \
         block or a yield (or a second OS thread is driving this simulation)"
    );
}

impl<T> Drop for OwnerGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.cell.held.store(false, Relaxed);
    }
}

impl<T> Deref for OwnerGuard<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: `lock` found the cell free and marked it entered; until
        // this guard drops every other `lock` panics, so under the module's
        // one-driver contract nothing else refers to the value.
        unsafe { &*self.cell.value.get() }
    }
}

impl<T> DerefMut for OwnerGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as for `deref`; `&mut self` makes this the only borrow
        // handed out through the one live guard.
        unsafe { &mut *self.cell.value.get() }
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use super::*;

    #[test]
    fn lock_mutate_drop_lock_again() {
        let c = OwnerCell::new(vec![1]);
        c.lock().push(2);
        {
            let mut g = c.lock();
            g.push(3);
            assert_eq!(g.len(), 3);
        }
        assert_eq!(*c.lock(), vec![1, 2, 3]);
    }

    // Runs under `cargo test --release` too: the assertion is not a debug
    // assertion.
    #[test]
    #[should_panic(expected = "OwnerCell re-entered")]
    fn nested_lock_panics_as_re_entered() {
        let c = OwnerCell::new(0u32);
        let _outer = c.lock();
        let _inner = c.lock();
    }

    #[test]
    fn a_guard_dropped_by_an_unwind_leaves_the_cell_free() {
        let c = OwnerCell::new(0u32);
        let r = catch_unwind(AssertUnwindSafe(|| {
            let mut g = c.lock();
            *g = 7;
            panic!("handler failed");
        }));
        assert!(r.is_err());
        assert_eq!(*c.lock(), 7);
    }

    #[test]
    fn hand_off_through_a_join_is_clean() {
        let c = OwnerCell::new(1u32);
        std::thread::scope(|s| {
            s.spawn(|| *c.lock() += 1);
        });
        assert_eq!(*c.lock(), 2);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn debug_builds_count_entries_per_thread() {
        let c = OwnerCell::new(());
        let before = entries();
        drop(c.lock());
        drop(c.lock());
        assert_eq!(entries() - before, 2);
    }
}
