//! The demultiplexing tables every protocol uses.
//!
//! A protocol keeps two kinds of table, and they are read very differently:
//!
//! * The **enable side** ([`EnableMap`]) is written while the graph is
//!   configured — `open_enable` binding an Ethernet type, an IP protocol
//!   number, a UDP port, a procedure number to the protocol (or handler)
//!   above — holds a handful of entries, and is read on *every* demux. It is
//!   append-only underneath, so that read takes no lock and touches no
//!   reference count.
//! * The **session side** ([`SessionMap`]) — cached passive sessions, lower
//!   sessions per peer, client and server channels, anything keyed by what
//!   arrived — changes as traffic flows. One [`OwnerCell`] guards it, a resolve
//!   is one entry, and the keys (small integers and tuples of them) go through
//!   an integer-mix hasher instead of SipHash.
//!
//! Both own their `snapshot`/`restore`, so a protocol's `snap` no longer
//! clones maps by hand. A layer with a single user keeps its one upper in an
//! [`UpperCell`] instead of a table.
//!
//! **The one rule:** a table guard is never held across a layer crossing — a
//! `push`, a `demux_to`, an `open`. In inline mode the whole round trip runs
//! on one stack and re-enters the same protocol (the reply's demux runs
//! beneath the request's push), so a guard alive across a crossing meets
//! itself: the cell's re-entry assertion panics. [`SessionMap::resolve`] and
//! friends return clones and release before returning; closures given to
//! [`SessionMap::resolve_or_insert_with`] and scopes holding a
//! [`SessionMap::lock`] guard may build a session and charge for it, but must
//! not cross.

use std::cell::{Cell, OnceCell};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use crate::cell::{OwnerCell, OwnerGuard};
use crate::error::XResult;
use crate::proto::{ProtoId, SessionRef};

/// An append-only table whose slots never move: a slot is written once, when
/// it is appended, so a reader may hold a plain `&T` into it while the table
/// grows. The simulator's host registry and each kernel's protocol registry
/// are built at configuration time and read on every layer crossing; this
/// is what keeps those reads to a load and a bounds check, with no guard.
///
/// Slots live in chunks that double in size (8, 16, 32, …) so the table
/// grows without moving an element a reader may be looking at.
pub(crate) struct AppendTable<T> {
    chunks: [OnceCell<Box<[OnceCell<T>]>>; CHUNKS],
    len: Cell<usize>,
}

/// Chunk `k` holds `8 << k` slots; 28 chunks hold 8 · (2²⁸ − 1).
const CHUNKS: usize = 28;
const FIRST_CHUNK_BITS: u32 = 3;

/// The chunk holding index `i`, and `i`'s offset inside it.
#[inline]
fn locate(i: usize) -> (usize, usize) {
    let block = (i >> FIRST_CHUNK_BITS) + 1;
    let chunk = (usize::BITS - 1 - block.leading_zeros()) as usize;
    (chunk, i - (((1 << chunk) - 1) << FIRST_CHUNK_BITS))
}

impl<T> AppendTable<T> {
    pub(crate) fn new() -> AppendTable<T> {
        AppendTable {
            chunks: [const { OnceCell::new() }; CHUNKS],
            len: Cell::new(0),
        }
    }

    /// Slots appended so far.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len.get()
    }

    /// Appends `value`; returns its index.
    pub(crate) fn push(&self, value: T) -> usize {
        let i = self.len.get();
        let (chunk, offset) = locate(i);
        let slots = self.chunks[chunk].get_or_init(|| {
            let slots = 1usize << (chunk as u32 + FIRST_CHUNK_BITS);
            (0..slots).map(|_| OnceCell::new()).collect()
        });
        assert!(slots[offset].set(value).is_ok(), "slot {i} appended twice");
        self.len.set(i + 1);
        i
    }

    /// The value in slot `i`.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        if i >= self.len() {
            return None;
        }
        let (chunk, offset) = locate(i);
        self.chunks[chunk].get()?.get(offset)?.get()
    }

    /// Every value in index order. Walks chunk by chunk: one load per
    /// chunk and one per slot.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks
            .iter()
            .map_while(OnceCell::get)
            .flat_map(|chunk| chunk.iter())
            .take(self.len())
            .filter_map(OnceCell::get)
    }
}

// ---------------------------------------------------------------------------
// The enable side
// ---------------------------------------------------------------------------

struct Enable<K, V> {
    key: K,
    value: V,
    /// Cleared by `unbind_if`, a rebind to another value, or a `restore` to a
    /// snapshot taken before the entry existed.
    live: Cell<bool>,
    next: Link<K, V>,
}

/// The link to the next entry, set once when that entry is appended.
type Link<K, V> = OnceCell<Box<Enable<K, V>>>;

/// A configure-time `key → value` table read on every demux with no guard:
/// which protocol (or handler) takes messages carrying `key`. The default
/// value type is the [`ProtoId`] an `open_enable` binds.
///
/// Entries form an append-only chain and are never removed, only marked
/// dead, so a reader holds a plain `&V` for as long as it holds the table —
/// a handler can be *called* through that borrow while the table is written
/// (a handler may enable or disable). A lookup walks the chain; the tables
/// this is for hold a handful of entries, and an empty one is one word.
/// Single-threaded by type, like every in-simulation table.
pub struct EnableMap<K, V = ProtoId> {
    head: Link<K, V>,
}

/// Which entries of an [`EnableMap`] were live when
/// [`EnableMap::snapshot`] ran. Valid only for the map it came from.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EnableSnapshot {
    live: Vec<bool>,
}

impl<K, V> Default for EnableMap<K, V> {
    fn default() -> Self {
        EnableMap {
            head: OnceCell::new(),
        }
    }
}

impl<K: Eq, V> EnableMap<K, V> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every entry, live or dead, oldest first.
    fn entries(&self) -> impl Iterator<Item = &Enable<K, V>> {
        std::iter::successors(self.head.get(), |e| e.next.get()).map(|e| &**e)
    }

    fn live_entries(&self) -> impl Iterator<Item = &Enable<K, V>> {
        self.entries().filter(|e| e.live.get())
    }

    /// The value bound to `key`. No guard, no reference count.
    #[inline]
    pub fn resolve(&self, key: &K) -> Option<&V> {
        self.find(|k| k == key)
    }

    /// The value bound to the key `is_key` accepts: [`EnableMap::resolve`]
    /// for a caller that holds the parts of a key and would have to clone
    /// them to build one.
    pub fn find(&self, mut is_key: impl FnMut(&K) -> bool) -> Option<&V> {
        self.live_entries()
            .find(|e| is_key(&e.key))
            .map(|e| &e.value)
    }

    /// Every live binding, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.live_entries().map(|e| (&e.key, &e.value))
    }

    /// Binds `key` to `value` in a fresh entry, retiring whatever `key` was
    /// bound to. For values that cannot be compared (handlers); see
    /// [`EnableMap::bind`] for those that can.
    ///
    /// Configure-time only: a retired entry is never reclaimed (a reader may
    /// still be calling through a borrow of it), so every call lengthens the
    /// chain that every lookup walks. Registering procedures while a graph
    /// is set up is what this is for; calling it per message leaks.
    pub fn replace(&self, key: K, value: V) {
        self.append(key, value);
    }

    /// The value bound to `key`, which is `value` if there was none: a
    /// compute-once cache.
    pub fn resolve_or_bind(&self, key: K, value: V) -> &V {
        match self.resolve(&key) {
            Some(bound) => bound,
            None => self.append(key, value),
        }
    }

    /// Appends a live entry, then retires the older live entries for its
    /// key — in that order, so a reader the key's comparison calls back
    /// never finds the key unbound in between. Returns the value where it
    /// now lives.
    fn append(&self, key: K, value: V) -> &V {
        let tail = self.entries().last().map_or(&self.head, |e| &e.next);
        let new = tail.get_or_init(|| {
            Box::new(Enable {
                key,
                value,
                live: Cell::new(true),
                next: OnceCell::new(),
            })
        });
        for e in self.entries().take_while(|e| !std::ptr::eq(*e, &**new)) {
            if e.key == new.key {
                e.live.set(false);
            }
        }
        &new.value
    }

    /// Unbinds `key` if it is bound to a value `pred` accepts; whether it
    /// did. (`open_disable` revokes only the caller's own enable.)
    pub fn unbind_if(&self, key: &K, pred: impl FnOnce(&V) -> bool) -> bool {
        match self.live_entries().find(|e| e.key == *key) {
            Some(e) if pred(&e.value) => {
                e.live.set(false);
                true
            }
            _ => false,
        }
    }

    /// Records which entries are live now.
    pub fn snapshot(&self) -> EnableSnapshot {
        EnableSnapshot {
            live: self.entries().map(|e| e.live.get()).collect(),
        }
    }

    /// Makes exactly the entries live that were when `snap` was taken (of
    /// this same map): later bindings die, later unbindings are undone.
    pub fn restore(&self, snap: &EnableSnapshot) {
        for (i, e) in self.entries().enumerate() {
            e.live.set(snap.live.get(i).copied().unwrap_or(false));
        }
    }
}

impl<K: Eq, V: PartialEq> EnableMap<K, V> {
    /// Binds `key` to `value`. An entry that ever held exactly this binding
    /// is revived rather than duplicated, so re-enabling the same pair —
    /// every boot, every open of a one-user layer — never grows the table.
    pub fn bind(&self, key: K, value: V) {
        let same = self.entries().find(|e| e.key == key && e.value == value);
        let Some(revived) = same else {
            self.append(key, value);
            return;
        };
        // Revive first, retire second: the key is never unbound in between.
        revived.live.set(true);
        for e in self.entries() {
            if !std::ptr::eq(e, revived) && e.key == key {
                e.live.set(false);
            }
        }
    }
}

/// The enable side of a layer with a single user — a NIC, a shim, AUTH,
/// RDGRAM: the one protocol above, or none yet. One word, read on every
/// demux with no guard.
#[derive(Default)]
pub struct UpperCell(Cell<usize>);

impl UpperCell {
    /// No upper yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// The protocol above, if one has enabled or opened this layer.
    #[inline]
    pub fn get(&self) -> Option<ProtoId> {
        // Stored off by one so that zero means none.
        self.0.get().checked_sub(1).map(ProtoId)
    }

    /// Sets (or, with `None`, clears) the protocol above.
    pub fn set(&self, upper: Option<ProtoId>) {
        self.0.set(upper.map_or(0, |p| p.0 + 1));
    }
}

// ---------------------------------------------------------------------------
// The session side
// ---------------------------------------------------------------------------

/// An integer-mix hasher for the small keys demux tables use (addresses,
/// ports, protocol and channel numbers, tuples of those): one rotate, one
/// xor and one multiply per word written, against SipHash's dozens of
/// rounds. Not DoS-resistant, which a simulator's own tables need not be.
#[derive(Clone, Copy, Default)]
pub struct MixHasher(u64);

const MIX: u64 = 0x517c_c1b7_2722_0a95;

/// Integer writes mix the value as one word instead of going byte-wise.
macro_rules! mix_whole {
    ($($write:ident $int:ty),*) => {
        $(#[inline]
        fn $write(&mut self, v: $int) {
            self.mix(v as u64);
        })*
    };
}

impl MixHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(MIX);
    }
}

impl Hasher for MixHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    mix_whole! { write_u8 u8, write_u16 u16, write_u32 u32, write_u64 u64, write_usize usize }

    #[inline]
    fn finish(&self) -> u64 {
        // The multiply leaves the low bits weakest and the table indexes by
        // them; bring the strong high bits down.
        self.0.rotate_left(26)
    }
}

/// A `HashMap` hashed with [`MixHasher`]: what a [`SessionMap`] holds, and
/// the table type for keyed state that is not a demux cache.
pub type MixMap<K, V> = HashMap<K, V, BuildHasherDefault<MixHasher>>;

/// A traffic-time `key → value` table in one [`OwnerCell`], resolved on every
/// demux or push by what arrived: cached sessions, channels, connections.
/// The default value type is a [`SessionRef`]. Per-key bookkeeping that is
/// only ever updated in place (reassembly buffers, outstanding transactions,
/// parked resolvers) is a plain `OwnerCell<MixMap<..>>`: it needs none of the
/// whole-operation methods and no snapshot.
///
/// The whole-operation methods ([`SessionMap::resolve`],
/// [`SessionMap::resolve_or_insert_with`], [`SessionMap::bind`],
/// [`SessionMap::unbind`]) enter the cell once and leave it before
/// returning. [`SessionMap::lock`] hands out the underlying map for
/// multi-step updates under that same single entry. See the module
/// docs for the rule about crossings.
pub struct SessionMap<K, V = SessionRef> {
    inner: OwnerCell<MixMap<K, V>>,
}

/// The contents of a [`SessionMap`] when [`SessionMap::snapshot`] ran.
/// Values are clones, so `Rc`-held sessions keep their identity through a
/// snapshot and restore.
pub type SessionSnapshot<K, V> = MixMap<K, V>;

impl<K, V> Default for SessionMap<K, V> {
    fn default() -> Self {
        SessionMap {
            inner: OwnerCell::new(MixMap::default()),
        }
    }
}

impl<K: Hash + Eq, V> SessionMap<K, V> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the table for a multi-step read or update under one
    /// acquisition. Do not cross a layer while the guard lives.
    #[inline]
    pub fn lock(&self) -> OwnerGuard<'_, MixMap<K, V>> {
        self.inner.lock()
    }

    /// Binds `key` to `value`; returns what it was bound to.
    pub fn bind(&self, key: K, value: V) -> Option<V> {
        self.lock().insert(key, value)
    }

    /// Unbinds `key`; returns what it was bound to.
    pub fn unbind(&self, key: &K) -> Option<V> {
        self.lock().remove(key)
    }

    /// Removes every entry.
    pub fn clear(&self) {
        self.lock().clear();
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }
}

impl<K: Hash + Eq, V: Clone> SessionMap<K, V> {
    /// The value bound to `key`, cloned out; one acquisition.
    #[inline]
    pub fn resolve(&self, key: &K) -> Option<V> {
        self.lock().get(key).cloned()
    }

    /// The value bound to `key`, binding what `make` builds if there is
    /// none — the passive-open miss, still one acquisition. `make` runs
    /// under the lock: it may construct and charge, but not cross a layer.
    pub fn resolve_or_insert_with(&self, key: K, make: impl FnOnce() -> XResult<V>) -> XResult<V> {
        let mut g = self.lock();
        if let Some(v) = g.get(&key) {
            return Ok(v.clone());
        }
        let v = make()?;
        g.insert(key, v.clone());
        Ok(v)
    }

    /// The value bound to `key`, binding what `open` produces if there is
    /// none. Unlike [`SessionMap::resolve_or_insert_with`], `open` runs with
    /// the table *unlocked* — it is the place to open a lower session, a
    /// crossing — so a miss is two acquisitions.
    pub fn resolve_or_open(&self, key: K, open: impl FnOnce() -> XResult<V>) -> XResult<V> {
        if let Some(v) = self.resolve(&key) {
            return Ok(v);
        }
        let v = open()?;
        self.bind(key, v.clone());
        Ok(v)
    }
}

impl<K: Hash + Eq + Clone, V: Clone> SessionMap<K, V> {
    /// Clones the table's contents.
    pub fn snapshot(&self) -> SessionSnapshot<K, V> {
        self.lock().clone()
    }

    /// Replaces the table's contents with `snap`'s.
    pub fn restore(&self, snap: &SessionSnapshot<K, V>) {
        *self.lock() = snap.clone();
    }
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use super::*;

    #[test]
    fn append_table_grows_without_moving_elements() {
        let t = AppendTable::new();
        let first = {
            t.push(0usize);
            t.get(0).unwrap() as *const usize
        };
        for i in 1..1000 {
            assert_eq!(t.push(i), i);
        }
        assert_eq!(t.get(0).unwrap() as *const usize, first);
        assert_eq!(t.len(), 1000);
        assert!(t.iter().copied().eq(0..1000));
        assert!(t.get(1000).is_none());
    }

    #[test]
    fn locate_covers_chunk_boundaries() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(7), (0, 7));
        assert_eq!(locate(8), (1, 0));
        assert_eq!(locate(23), (1, 15));
        assert_eq!(locate(24), (2, 0));
    }

    #[test]
    fn enable_bind_unbind_rebind() {
        let m: EnableMap<u16> = EnableMap::new();
        assert!(m.resolve(&0x0800).is_none());
        m.bind(0x0800, ProtoId(3));
        m.bind(0x0806, ProtoId(4));
        assert_eq!(m.resolve(&0x0800), Some(&ProtoId(3)));
        assert!(m.resolve(&0x0806).is_some());
        // Re-enabling the same pair is idempotent and does not grow.
        m.bind(0x0800, ProtoId(3));
        assert_eq!(m.entries().count(), 2);
        // Another upper takes the key over.
        m.bind(0x0800, ProtoId(9));
        assert_eq!(m.resolve(&0x0800), Some(&ProtoId(9)));
        // Only the owner can disable.
        assert!(!m.unbind_if(&0x0800, |v| *v == ProtoId(3)));
        assert!(m.unbind_if(&0x0800, |v| *v == ProtoId(9)));
        assert!(m.resolve(&0x0800).is_none());
        assert!(!m.unbind_if(&0x0800, |_| true));
        // Unbind-then-rebind revives the old entry.
        m.bind(0x0800, ProtoId(3));
        assert_eq!(m.resolve(&0x0800), Some(&ProtoId(3)));
        assert_eq!(m.entries().count(), 3);
        let live: Vec<_> = m.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(live, vec![(0x0800, ProtoId(3)), (0x0806, ProtoId(4))]);
    }

    #[test]
    fn enable_snapshot_restores_exactly() {
        let m: EnableMap<u8> = EnableMap::new();
        m.bind(6, ProtoId(1));
        m.bind(17, ProtoId(2));
        let snap = m.snapshot();
        m.unbind_if(&6, |_| true);
        m.bind(17, ProtoId(5));
        m.bind(1, ProtoId(7));
        m.restore(&snap);
        let mut live: Vec<_> = m.iter().map(|(k, v)| (*k, *v)).collect();
        live.sort();
        assert_eq!(live, vec![(6, ProtoId(1)), (17, ProtoId(2))]);
    }

    #[test]
    fn enable_replace_serves_uncomparable_values_by_reference() {
        let m: EnableMap<u16, Box<dyn Fn() -> u32 + Send + Sync>> = EnableMap::new();
        m.replace(1, Box::new(|| 10));
        m.replace(1, Box::new(|| 11));
        assert_eq!(m.resolve(&1).unwrap()(), 11);
        assert_eq!(m.iter().count(), 1);
        // The documented cost: a retired entry stays in the chain.
        assert_eq!(m.entries().count(), 2);
    }

    #[test]
    fn enable_resolve_or_bind_computes_once_and_find_reads_by_parts() {
        let m: EnableMap<(String, u8), Vec<u32>> = EnableMap::new();
        let first = m.resolve_or_bind(("a".into(), 1), vec![10]) as *const Vec<u32>;
        // A later value for a bound key is dropped; the first stays put.
        let again = m.resolve_or_bind(("a".into(), 1), vec![99]);
        assert_eq!(again, &vec![10]);
        assert_eq!(again as *const Vec<u32>, first);
        m.resolve_or_bind(("a".into(), 2), vec![20]);
        assert_eq!(m.entries().count(), 2);
        // Looked up from a borrowed `&str`, no key built.
        assert_eq!(m.find(|(s, n)| s == "a" && *n == 2), Some(&vec![20]));
        assert!(m.find(|(s, _)| s == "b").is_none());
    }

    #[test]
    fn upper_cell_sets_and_clears() {
        let u = UpperCell::new();
        assert_eq!(u.get(), None);
        u.set(Some(ProtoId(0)));
        assert_eq!(u.get(), Some(ProtoId(0)));
        u.set(Some(ProtoId(2)));
        assert_eq!(u.get(), Some(ProtoId(2)));
        u.set(None);
        assert_eq!(u.get(), None);
    }

    #[test]
    fn session_resolve_bind_unbind() {
        let m: SessionMap<(u32, u16), Rc<u32>> = SessionMap::new();
        assert!(m.resolve(&(1, 2)).is_none());
        let a = Rc::new(7);
        assert!(m.bind((1, 2), Rc::clone(&a)).is_none());
        assert!(Rc::ptr_eq(&m.resolve(&(1, 2)).unwrap(), &a));
        assert_eq!(m.len(), 1);
        assert!(Rc::ptr_eq(&m.unbind(&(1, 2)).unwrap(), &a));
        assert!(m.resolve(&(1, 2)).is_none());
        assert!(m.is_empty());
        // The table released its clone.
        assert_eq!(Rc::strong_count(&a), 1);
    }

    #[test]
    fn session_rebind_replaces() {
        let m: SessionMap<u32, Rc<u32>> = SessionMap::new();
        m.bind(1, Rc::new(10));
        assert_eq!(*m.resolve(&1).unwrap(), 10);
        assert_eq!(*m.bind(1, Rc::new(11)).unwrap(), 10);
        assert_eq!(*m.resolve(&1).unwrap(), 11);
        m.lock().insert(1, Rc::new(12));
        assert_eq!(*m.resolve(&1).unwrap(), 12);
        m.clear();
        assert!(m.resolve(&1).is_none());
    }

    #[test]
    fn session_resolve_or_insert_runs_make_once() {
        let m: SessionMap<u32, Rc<u32>> = SessionMap::new();
        let mut made = 0;
        for _ in 0..3 {
            let v = m
                .resolve_or_insert_with(5, || {
                    made += 1;
                    Ok(Rc::new(50))
                })
                .unwrap();
            assert_eq!(*v, 50);
        }
        assert_eq!(made, 1);
        // A failing constructor binds nothing.
        let err = m.resolve_or_insert_with(6, || Err(crate::error::XError::Unsupported("no")));
        assert!(err.is_err());
        assert!(m.resolve(&6).is_none());
    }

    #[test]
    fn session_snapshot_keeps_rc_identity() {
        let m: SessionMap<u32, Rc<u32>> = SessionMap::new();
        let a = Rc::new(1);
        m.bind(1, Rc::clone(&a));
        let snap = m.snapshot();
        assert_eq!(snap.len(), 1);
        assert!(!snap.is_empty());
        m.bind(2, Rc::new(2));
        assert_eq!(*m.resolve(&2).unwrap(), 2);
        m.unbind(&1);
        m.restore(&snap);
        assert!(m.resolve(&2).is_none());
        assert!(Rc::ptr_eq(&m.resolve(&1).unwrap(), &a));
        assert!(snap.iter().all(|(k, v)| *k == 1 && Rc::ptr_eq(v, &a)));
    }

    #[test]
    fn mix_hasher_spreads_small_integers() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<MixHasher>::default();
        let mut low7 = std::collections::HashSet::new();
        for ip in 0..128u32 {
            low7.insert(build.hash_one((0x0a00_0000 + ip, 7u16)) & 0x7f);
        }
        // 128 sequential keys land in most of 128 low-bit buckets.
        assert!(low7.len() > 64, "only {} distinct buckets", low7.len());
        // So do ETH's (hardware address, type) keys, one word per address.
        let eth: std::collections::HashSet<u64> = (0..128u16)
            .map(|i| build.hash_one((crate::addr::EthAddr::from_index(i), 0x0800u16)) & 0x7f)
            .collect();
        assert!(eth.len() > 64, "only {} distinct buckets", eth.len());
        // Byte-slice keys (hardware addresses) hash by content.
        assert_eq!(
            build.hash_one([1u8, 2, 3, 4, 5, 6]),
            build.hash_one([1u8, 2, 3, 4, 5, 6])
        );
        assert_ne!(
            build.hash_one([1u8, 2, 3, 4, 5, 6]),
            build.hash_one([1u8, 2, 3, 4, 5, 7])
        );
    }
}
