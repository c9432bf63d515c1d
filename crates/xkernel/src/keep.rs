//! What a protocol keeps, stated once.
//!
//! The paper's efficiency rule is "cache open sessions at all levels", so
//! every protocol holds state: tables of sessions, counters, estimators,
//! half-finished work. Four jobs need to know what that state is — a
//! snapshot saves it, a restore rewinds it, a reboot forgets part of it, and
//! a discarded kernel lets go of it — and each protocol answers them all
//! with one declaration, [`Protocol::keeps`], which names each field once,
//! by kind:
//!
//! | kind | typical fields | [`Sim::restore`] | reboot | kernel drop |
//! |------|----------------|------------------|--------|-------------|
//! | [`Keep::config`] | `EnableMap`, `UpperCell`, routes | rewound | kept | kept |
//! | [`Keep::sessions`] | `SessionMap` | rewound | emptied | emptied |
//! | [`Keep::values`] | `Cell` counters, sequence numbers, estimators | rewound | kept | kept |
//! | [`Keep::scratch`] | in-flight tables, reassemblies, waiters | emptied | emptied | emptied |
//!
//! [`Sim::snapshot`] saves the first three kinds in declaration order;
//! scratch is never saved (a quiescent simulation has nothing in flight that
//! a snapshot could resume). Before the kernel runs the [`Protocol::reboot`]
//! hooks of a restarted host it empties every protocol's sessions and
//! scratch, so a `reboot` does only a protocol's own work, such as drawing a
//! fresh incarnation. A kernel's `Drop` empties them too: a cached session
//! holds its protocol strongly, so table and session would keep each other
//! alive otherwise.
//!
//! How a field is saved and put back is its type's business, said once in
//! its [`Rewind`] impl: a [`SessionMap`](crate::map::SessionMap) keeps each
//! value's identity and rewinds whatever state stands behind it (a client
//! channel's sequence number, a pool's free list), so no protocol restates
//! what its sessions hold.
//!
//! [`Protocol::keeps`]: crate::proto::Protocol::keeps
//! [`Protocol::reboot`]: crate::proto::Protocol::reboot
//! [`Sim::snapshot`]: crate::sim::Sim::snapshot
//! [`Sim::restore`]: crate::sim::Sim::restore

use std::any::Any;
use std::cell::Cell;
use std::rc::Rc;

use crate::cell::OwnerCell;
use crate::proto::Session;

/// State a snapshot can save and a restore put back: whatever can change
/// through `&self`. Rewinding happens in place, at a quiescent instant (no
/// process running or parked on the state), and must not block, charge or
/// schedule.
pub trait Rewind {
    /// What [`Rewind::save`] captures.
    type Saved: 'static;
    /// Captures the state as it stands.
    fn save(&self) -> Self::Saved;
    /// Puts back what [`Rewind::save`] captured from this same object.
    fn rewind(&self, saved: &Self::Saved);
}

/// State a reboot or a dropped kernel empties: a table of sessions or of
/// in-flight work.
pub trait Clear {
    /// Empties it.
    fn clear(&self);
}

/// One walk over a protocol's declaration (see the module docs): a
/// snapshot's save, a restore, or the emptying a reboot and a kernel drop
/// do. A protocol's [`Protocol::keeps`](crate::proto::Protocol::keeps)
/// calls one method per field and never needs to know which walk it is in.
pub struct Keep<'a> {
    walk: Walk<'a>,
}

enum Walk<'a> {
    /// Each saved field appends what it saves.
    Save(&'a mut Vec<Box<dyn Any>>),
    /// Each saved field takes the next item; `aligned` turns false (and the
    /// rest of the walk does nothing) at the first item of another type.
    Restore {
        saved: std::slice::Iter<'a, Box<dyn Any>>,
        aligned: bool,
    },
    /// Sessions and scratch are emptied.
    Clear,
}

impl<'a> Keep<'a> {
    /// A walk appending every saved field's state to `into`.
    pub(crate) fn save(into: &'a mut Vec<Box<dyn Any>>) -> Keep<'a> {
        Keep {
            walk: Walk::Save(into),
        }
    }

    /// A walk putting back what a save walk over the same protocols left
    /// in `saved`.
    pub(crate) fn restore(saved: &'a [Box<dyn Any>]) -> Keep<'a> {
        Keep {
            walk: Walk::Restore {
                saved: saved.iter(),
                aligned: true,
            },
        }
    }

    /// A walk emptying sessions and scratch.
    pub(crate) fn clear() -> Keep<'static> {
        Keep { walk: Walk::Clear }
    }

    /// Whether a restore walk found exactly the items its save left: false
    /// when the protocols walked are not the ones saved.
    pub(crate) fn matched(self) -> bool {
        match self.walk {
            Walk::Restore { mut saved, aligned } => aligned && saved.next().is_none(),
            Walk::Save(_) | Walk::Clear => true,
        }
    }

    /// Configuration installed while the graph is set up (enables, the one
    /// upper, routes, registered procedures): rewound, kept across reboot.
    pub fn config(&mut self, field: &impl Rewind) {
        self.rewind(field);
    }

    /// Cached sessions and per-peer state: rewound, emptied at reboot and
    /// when the kernel drops.
    pub fn sessions(&mut self, field: &(impl Rewind + Clear)) {
        match self.walk {
            Walk::Clear => field.clear(),
            Walk::Save(_) | Walk::Restore { .. } => self.rewind(field),
        }
    }

    /// Counters, sequence numbers, incarnations, estimators: rewound, kept
    /// across reboot (a `reboot` that reseeds one says so itself).
    pub fn values(&mut self, field: &impl Rewind) {
        self.rewind(field);
    }

    /// Work in flight — transactions awaiting replies, partial
    /// reassemblies, parked waiters, retained copies: never saved, emptied
    /// by a restore, a reboot and a kernel drop alike.
    pub fn scratch(&mut self, field: &impl Clear) {
        match self.walk {
            Walk::Save(_) => {}
            Walk::Restore { .. } | Walk::Clear => field.clear(),
        }
    }

    fn rewind<T: Rewind>(&mut self, field: &T) {
        match &mut self.walk {
            Walk::Save(into) => into.push(Box::new(field.save())),
            Walk::Restore { saved, aligned } => {
                if !*aligned {
                    return;
                }
                match saved.next().and_then(|s| s.downcast_ref::<T::Saved>()) {
                    Some(s) => field.rewind(s),
                    None => *aligned = false,
                }
            }
            Walk::Clear => {}
        }
    }
}

impl<T: Copy + 'static> Rewind for Cell<T> {
    type Saved = T;
    fn save(&self) -> T {
        self.get()
    }
    fn rewind(&self, saved: &T) {
        self.set(*saved);
    }
}

impl<T: Clone + 'static> Rewind for OwnerCell<T> {
    type Saved = T;
    fn save(&self) -> T {
        self.lock().clone()
    }
    fn rewind(&self, saved: &T) {
        self.lock().clone_from(saved);
    }
}

impl<T: Default> Clear for OwnerCell<T> {
    fn clear(&self) {
        // What was there drops with the guard released.
        let gone = std::mem::take(&mut *self.lock());
        drop(gone);
    }
}

/// A shared handle rewinds what it points at.
impl<T: Rewind + ?Sized> Rewind for Rc<T> {
    type Saved = T::Saved;
    fn save(&self) -> T::Saved {
        (**self).save()
    }
    fn rewind(&self, saved: &T::Saved) {
        (**self).rewind(saved);
    }
}

impl<T: Rewind> Rewind for Option<T> {
    type Saved = Option<T::Saved>;
    fn save(&self) -> Self::Saved {
        self.as_ref().map(Rewind::save)
    }
    fn rewind(&self, saved: &Self::Saved) {
        if let (Some(v), Some(s)) = (self, saved) {
            v.rewind(s);
        }
    }
}

impl<A: Rewind, B: Rewind> Rewind for (A, B) {
    type Saved = (A::Saved, B::Saved);
    fn save(&self) -> Self::Saved {
        (self.0.save(), self.1.save())
    }
    fn rewind(&self, saved: &Self::Saved) {
        self.0.rewind(&saved.0);
        self.1.rewind(&saved.1);
    }
}

/// A session known only as `dyn Session` keeps nothing a snapshot must
/// rewind: a session that does is held, by the protocol that owns it, under
/// its own type, whose [`Rewind`] says what.
impl Rewind for dyn Session {
    type Saved = ();
    fn save(&self) {}
    fn rewind(&self, _: &()) {}
}

/// A plain value cannot change through `&self`: the table that holds it
/// saves it whole, and there is nothing behind it to rewind.
macro_rules! plain {
    ($($t:ty),*) => {$(
        impl $crate::keep::Rewind for $t {
            type Saved = ();
            fn save(&self) {}
            fn rewind(&self, _: &()) {}
        }
    )*};
}

plain!(u32, usize);
pub(crate) use plain;

#[cfg(test)]
mod tests {
    use super::*;

    struct Toy {
        cfg: Cell<u8>,
        count: Cell<u64>,
        inflight: OwnerCell<Vec<u32>>,
    }

    impl Toy {
        fn keeps(&self, k: &mut Keep<'_>) {
            k.config(&self.cfg);
            k.values(&self.count);
            k.scratch(&self.inflight);
        }
    }

    #[test]
    fn a_walk_saves_restores_and_clears_by_kind() {
        let toy = Toy {
            cfg: Cell::new(1),
            count: Cell::new(10),
            inflight: OwnerCell::new(vec![7]),
        };
        let mut saved = Vec::new();
        toy.keeps(&mut Keep::save(&mut saved));
        // Scratch is never saved.
        assert_eq!(saved.len(), 2);
        toy.cfg.set(2);
        toy.count.set(11);
        let mut restore = Keep::restore(&saved);
        toy.keeps(&mut restore);
        assert!(restore.matched());
        assert_eq!((toy.cfg.get(), toy.count.get()), (1, 10));
        assert!(toy.inflight.lock().is_empty());
        toy.inflight.lock().push(8);
        toy.count.set(12);
        toy.keeps(&mut Keep::clear());
        assert!(toy.inflight.lock().is_empty());
        assert_eq!(toy.count.get(), 12, "values survive a clear");
    }

    #[test]
    fn a_restore_of_another_shape_says_so_and_stops() {
        let saved: Vec<Box<dyn Any>> = vec![Box::new(5u32), Box::new(6u64)];
        let toy = Toy {
            cfg: Cell::new(1),
            count: Cell::new(10),
            inflight: OwnerCell::new(Vec::new()),
        };
        let mut restore = Keep::restore(&saved);
        toy.keeps(&mut restore);
        assert!(!restore.matched());
        assert_eq!((toy.cfg.get(), toy.count.get()), (1, 10));
        // Too many items is a mismatch too.
        let long: Vec<Box<dyn Any>> = vec![Box::new(1u8), Box::new(2u64), Box::new(3u8)];
        let mut restore = Keep::restore(&long);
        toy.keeps(&mut restore);
        assert!(!restore.matched());
    }
}
