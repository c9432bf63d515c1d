//! The owner-only cell: what guards every piece of in-simulation state.
//!
//! The engine runs exactly one process body at a time, on the one OS thread
//! that drives the simulation (DESIGN.md §11); concurrency between shepherd
//! processes is *virtual*. State reached only from inside a running
//! simulation — the scheduler's engine, semaphores, session tables,
//! per-session protocol state, the wire — therefore has no second thread to
//! be excluded from. [`OwnerCell`] is a [`RefCell`] with a mutex's spelling:
//! `lock()` hands out a guard, and leaving the guard frees the cell. An entry
//! is a load, a compare and a store; the guard's drop is one more store.
//!
//! The cell is not `Sync`, so rustc refuses to share one between threads;
//! which thread drives a simulation is the business of the two handles that
//! may cross (`Sim` and `Arc<Kernel>`, see [`crate::sim::Sim`]). What the
//! cell checks at every entry is the one mistake a type cannot see: a guard
//! alive across a layer crossing, a block or a yield, and the cell taken again
//! beneath it or by the next process. That panics "OwnerCell re-entered" —
//! always, release builds included — naming the rule (DESIGN.md §12: never
//! hold a guard across a crossing).
//!
//! Guards free the cell in `Drop`, so a `CrashKill`/`FuelKill` unwind or a
//! handler panic running through frames that hold guards leaves every cell
//! free; there is no poison flag.

use std::cell::{Cell, RefCell, RefMut};

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

/// A value entered through a guard by the thread driving its simulation.
/// See the [module docs](self).
pub struct OwnerCell<T> {
    value: RefCell<T>,
}

/// Exclusive access to an [`OwnerCell`]'s value; leaving it frees the cell.
/// Never hold one across a layer crossing, a block or a yield.
pub type OwnerGuard<'a, T> = RefMut<'a, T>;

impl<T> OwnerCell<T> {
    /// A free cell holding `value`.
    pub const fn new(value: T) -> OwnerCell<T> {
        OwnerCell {
            value: RefCell::new(value),
        }
    }

    /// Enters the cell.
    ///
    /// # Panics
    ///
    /// If the cell is already entered — always, release builds included.
    #[inline]
    pub fn lock(&self) -> OwnerGuard<'_, T> {
        let Ok(guard) = self.value.try_borrow_mut() else {
            already_entered();
        };
        #[cfg(debug_assertions)]
        ENTRIES.with(|n| n.set(n.get() + 1));
        guard
    }
}

/// A counter kept in a plain [`Cell`] — a protocol's id and sequence
/// numbers, its statistics: counting is a load, an add and a store.
pub trait Counter {
    /// The counted integer.
    type Value;

    /// Adds one (wrapping, as a sequence number does) and returns the new
    /// value.
    fn bump(&self) -> Self::Value;
}

macro_rules! counter {
    ($($int:ty),*) => {$(
        impl Counter for Cell<$int> {
            type Value = $int;

            #[inline]
            fn bump(&self) -> $int {
                let v = self.get().wrapping_add(1);
                self.set(v);
                v
            }
        }
    )*};
}

counter!(u16, u32, u64);

/// Updates a protocol's counters, kept whole in one [`Cell`] so that a
/// snapshot is one `get` and a restore one `set`:
/// `tally(&self.stats, |s| s.sent += 1)`.
#[inline]
pub fn tally<S: Copy>(stats: &Cell<S>, update: impl FnOnce(&mut S)) {
    let mut s = stats.get();
    update(&mut s);
    stats.set(s);
}

#[cold]
#[inline(never)]
fn already_entered() -> ! {
    panic!(
        "OwnerCell re-entered: a guard is alive across a layer crossing, a \
         block or a yield"
    );
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

    // Runs under `cargo test --release` too: the check is not a debug
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
