//! The x-kernel message abstraction.
//!
//! A [`Message`] is a logical byte string that protocols treat as a stack:
//! `push_header` prepends a header on the way down, `pop_header` removes one
//! on the way up. Two properties from the paper are load-bearing:
//!
//! 1. **Header pushes are pointer adjustments.** The current x-kernel
//!    "pre-allocates a single buffer that is large enough to hold all the
//!    headers and simply adjusts a pointer for each new header"; an earlier
//!    version allocated a fresh buffer per header and cost 0.50 msec/layer
//!    instead of 0.11. Both schemes are implemented here — see
//!    [`HeaderPolicy`] — so the ablation benchmark can compare them.
//! 2. **Layers can retain references to pieces of the same message.**
//!    The payload is a rope of reference-counted segments, so cloning a
//!    message for retransmission, fragmenting it, and reassembling fragments
//!    are all (nearly) copy-free. The rope holds its first segment in place
//!    and only a second spills into a vector, so a fragment, a clone of a
//!    one-segment message and a user payload allocate no list; what a
//!    message costs the host per frame is then its front buffer alone.
//!
//! The host recycles the header buffer too, per simulation. A front buffer
//! of [`DEFAULT_HEADROOM`] bytes — what every message, clone and fragment
//! header takes — comes from the spare list of the simulation current on the
//! thread (the one that last made a context, [`crate::sim::Sim::ctx`]) and
//! goes back to that same list on drop, up to 256 buffers (32 KiB); with no
//! simulation current, or any other size, it is a plain heap block. A
//! recycled buffer keeps its last owner's bytes below `start`, and nothing
//! reads them: a push writes the bytes it makes valid, and a clone copies
//! only the valid ones. [`PushStats::allocated`] still reports the modelled
//! x-kernel allocation, not the host's, so virtual time does not see the
//! recycling.

use std::borrow::Cow;
use std::cell::RefCell;
use std::fmt;
use std::ops::Deref;
use std::rc::{Rc, Weak};

use crate::error::{Reject, XError, XResult};

/// Default headroom reserved in front of user data for headers.
///
/// The deepest stack in this suite (SELECT+CHANNEL+FRAGMENT+IP+ETH) needs
/// well under 128 bytes of header.
pub const DEFAULT_HEADROOM: usize = 128;

/// How `push_header` obtains space for a new header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HeaderPolicy {
    /// The tuned scheme: one buffer with `headroom` bytes reserved up front;
    /// each push is a copy into the reserved region plus a pointer
    /// adjustment. This is the scheme the paper measured at 0.11 msec/layer.
    Headroom {
        /// Bytes reserved for headers when a fresh front buffer is created.
        headroom: usize,
    },
    /// The legacy scheme: every push allocates a fresh buffer for the header
    /// and chains the previous contents behind it. This is the scheme the
    /// paper measured at 0.50 msec/layer; it exists for the ablation.
    AllocPerHeader,
}

impl Default for HeaderPolicy {
    fn default() -> HeaderPolicy {
        HeaderPolicy::Headroom {
            headroom: DEFAULT_HEADROOM,
        }
    }
}

/// A shared, immutable slice of payload bytes. The bounds are `u32`s (a
/// segment is under 4 GiB), so a segment is two words.
#[derive(Clone, Debug)]
struct Segment {
    data: Rc<Vec<u8>>,
    start: u32,
    end: u32,
}

impl Segment {
    fn from_vec(v: Vec<u8>) -> Segment {
        let end = u32::try_from(v.len()).expect("a message segment is under 4 GiB");
        Segment {
            data: Rc::new(v),
            start: 0,
            end,
        }
    }

    #[inline]
    fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    #[inline]
    fn bytes(&self) -> &[u8] {
        &self.data[self.start as usize..self.end as usize]
    }
}

/// The payload rope: its segments in order, the first held in place and
/// the rest in a vector, so that a rope of one segment — a fragment, a
/// clone of a one-segment message, a user payload — allocates no list.
/// `first` is `None` only when `rest` is empty too.
#[derive(Default)]
struct Rope {
    first: Option<Segment>,
    rest: Vec<Segment>,
}

impl Rope {
    /// Segments in the rope.
    #[inline]
    fn len(&self) -> usize {
        usize::from(self.first.is_some()) + self.rest.len()
    }

    /// Bytes in the rope.
    #[inline]
    fn byte_len(&self) -> usize {
        let first = self.first.as_ref().map_or(0, Segment::len);
        first + self.rest.iter().map(Segment::len).sum::<usize>()
    }

    #[inline]
    fn iter(&self) -> impl Iterator<Item = &Segment> {
        self.first.iter().chain(&self.rest)
    }

    fn last_mut(&mut self) -> Option<&mut Segment> {
        match self.rest.last_mut() {
            Some(seg) => Some(seg),
            None => self.first.as_mut(),
        }
    }

    /// Takes the first segment; the next moves up.
    fn pop_front(&mut self) -> Option<Segment> {
        let first = self.first.take();
        if !self.rest.is_empty() {
            self.first = Some(self.rest.remove(0));
        }
        first
    }

    fn push_front(&mut self, seg: Segment) {
        if let Some(old) = self.first.replace(seg) {
            self.rest.insert(0, old);
        }
    }

    fn push(&mut self, seg: Segment) {
        if self.first.is_none() {
            self.first = Some(seg);
        } else {
            self.rest.push(seg);
        }
    }

    /// Moves every segment of `other` to the end of this rope.
    fn append(&mut self, other: &mut Rope) {
        if let Some(seg) = other.first.take() {
            self.push(seg);
            self.rest.append(&mut other.rest);
        }
    }

    /// Room for `n` more segments behind the first.
    fn reserve(&mut self, n: usize) {
        self.rest.reserve(n);
    }

    /// Cuts the rope before segment `at`, returning segments `at..`.
    fn split_off(&mut self, at: usize) -> Rope {
        if at == 0 {
            return std::mem::take(self);
        }
        if at > self.rest.len() {
            // Nothing past `at`: a fragment's split, every time.
            return Rope::default();
        }
        let mut tail = self.rest.drain(at - 1..);
        let first = tail.next();
        Rope {
            first,
            rest: tail.collect(),
        }
    }
}

impl Clone for Rope {
    #[inline]
    fn clone(&self) -> Rope {
        // Most ropes have no `rest`: no call into `Vec::clone` for them.
        let rest = if self.rest.is_empty() {
            Vec::new()
        } else {
            self.rest.clone()
        };
        Rope {
            first: self.first.clone(),
            rest,
        }
    }
}

impl fmt::Debug for Rope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The most [`DEFAULT_HEADROOM`]-byte front buffers a simulation keeps for
/// reuse: 32 KiB.
const SPARE_CAP: usize = 256;

/// A simulation's dropped [`DEFAULT_HEADROOM`]-byte front buffers, for its
/// next message, clone or fragment header to take in place of a zeroed heap
/// block. The simulation's core holds it, and so does every front buffer
/// taken from it, which goes back to it on drop: a buffer never moves
/// between simulations.
#[derive(Default)]
pub(crate) struct HeaderBufs(RefCell<Vec<Box<[u8]>>>);

thread_local! {
    /// The header buffers of the simulation current on this thread. Weak: a
    /// dropped simulation's buffers are freed with it.
    static CURRENT: RefCell<Weak<HeaderBufs>> = const { RefCell::new(Weak::new()) };
}

impl HeaderBufs {
    /// Makes `bufs` the list this thread's new messages take from.
    pub(crate) fn make_current(bufs: &Rc<HeaderBufs>) {
        // On `Err` the thread is being torn down: nothing is current.
        let _ = CURRENT.try_with(|c| *c.borrow_mut() = Rc::downgrade(bufs));
    }

    /// The current simulation's list, unless that simulation is gone.
    fn current() -> Option<Rc<HeaderBufs>> {
        CURRENT.try_with(|c| c.borrow().upgrade()).ok().flatten()
    }

    /// Takes `buf` back, if the list has room. Out of line, so that a
    /// message's drop, inlined wherever one ends, is a test and a call: in
    /// line it cost `bulk_xfer` about 2.5 % in alternating runs.
    #[inline(never)]
    fn give(self: Rc<Self>, buf: Box<[u8]>) {
        let mut spare = self.0.borrow_mut();
        if spare.len() < SPARE_CAP {
            spare.push(buf);
        }
    }
}

/// A [`HeaderPolicy`] in a `u32`: the headroom, or [`Policy::PER_HEADER`].
/// It rides in the front buffer's spare word, so a `Message` stays 72 B.
#[derive(Clone, Copy)]
struct Policy(u32);

impl Policy {
    /// [`HeaderPolicy::AllocPerHeader`].
    const PER_HEADER: u32 = u32::MAX;

    fn of(policy: HeaderPolicy) -> Policy {
        match policy {
            HeaderPolicy::Headroom { headroom } => Policy(
                u32::try_from(headroom)
                    .ok()
                    .filter(|&h| h != Policy::PER_HEADER)
                    .expect("headroom under 4 GiB"),
            ),
            HeaderPolicy::AllocPerHeader => Policy(Policy::PER_HEADER),
        }
    }

    /// The headroom a fresh front buffer reserves, if the policy reserves.
    #[inline]
    fn headroom(self) -> Option<usize> {
        (self.0 != Policy::PER_HEADER).then_some(self.0 as usize)
    }

    fn get(self) -> HeaderPolicy {
        match self.headroom() {
            Some(headroom) => HeaderPolicy::Headroom { headroom },
            None => HeaderPolicy::AllocPerHeader,
        }
    }
}

/// The owned front buffer; valid bytes are `buf[start..]`. The bytes below
/// `start` are never read: a recycled buffer holds its last owner's there.
/// `home` is the list the buffer came from and goes back to, and `policy`
/// the message's, which says how the next front buffer is made. A boxed
/// slice is a word shorter than a `Vec` and `start` a `u32`, so with the
/// handle a front buffer is four words.
struct FrontBuf {
    buf: Box<[u8]>,
    start: u32,
    policy: Policy,
    home: Option<Rc<HeaderBufs>>,
}

impl FrontBuf {
    /// No buffer at all: the next push under `policy` makes one.
    fn none(policy: Policy) -> FrontBuf {
        FrontBuf {
            buf: Box::default(),
            start: 0,
            policy,
            home: None,
        }
    }

    /// `room` bytes with none of them valid yet: from the current
    /// simulation's list when `room` is its size class, else a fresh block.
    fn with_room(room: usize, policy: Policy) -> FrontBuf {
        let home = if room == DEFAULT_HEADROOM {
            HeaderBufs::current()
        } else {
            None
        };
        FrontBuf::from_home(room, policy, home)
    }

    /// `room` bytes from `home`'s list if it has one spare, else fresh.
    fn from_home(room: usize, policy: Policy, home: Option<Rc<HeaderBufs>>) -> FrontBuf {
        let spare = home.as_ref().and_then(|h| h.0.borrow_mut().pop());
        FrontBuf {
            buf: spare.unwrap_or_else(|| vec![0; room].into_boxed_slice()),
            start: u32::try_from(room).expect("a front buffer is under 4 GiB"),
            policy,
            home,
        }
    }

    #[inline]
    fn start(&self) -> usize {
        self.start as usize
    }

    #[inline]
    fn len(&self) -> usize {
        self.buf.len() - self.start()
    }

    #[inline]
    fn bytes(&self) -> &[u8] {
        &self.buf[self.start()..]
    }
}

impl Clone for FrontBuf {
    /// Copies the valid bytes only, into a buffer of the same size from the
    /// same list.
    fn clone(&self) -> FrontBuf {
        let mut front = FrontBuf::from_home(self.buf.len(), self.policy, self.home.clone());
        front.start = self.start;
        front.buf[self.start()..].copy_from_slice(self.bytes());
        front
    }
}

impl Drop for FrontBuf {
    fn drop(&mut self) {
        if let Some(home) = self.home.take() {
            home.give(std::mem::take(&mut self.buf));
        }
    }
}

impl fmt::Debug for FrontBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.bytes()).finish()
    }
}

/// Cost-relevant facts about a single `push_header`, consumed by the
/// virtual-time cost accounting in [`crate::sim::Ctx::push_header`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PushStats {
    /// Whether the push had to allocate a new buffer.
    pub allocated: bool,
    /// Bytes physically copied (header bytes, plus any demoted bytes).
    pub copied: usize,
}

/// Cost-relevant facts about a single `pop_header`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PopStats {
    /// Bytes physically copied (0 on the contiguous fast path).
    pub copied: usize,
}

/// Bytes returned by [`Message::pop_header`]: borrowed on the contiguous
/// fast path, owned when the header spanned segments.
#[derive(Debug)]
pub enum Popped<'a> {
    /// Fast path: the header was contiguous; no copy was made.
    Borrowed(&'a [u8]),
    /// Slow path: the header spanned segments and was copied out.
    Owned(Vec<u8>),
}

impl Deref for Popped<'_> {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        match self {
            Popped::Borrowed(s) => s,
            Popped::Owned(v) => v,
        }
    }
}

impl Popped<'_> {
    /// Cost-relevant facts about the pop that produced this value.
    #[inline]
    pub fn stats(&self) -> PopStats {
        match self {
            Popped::Borrowed(_) => PopStats { copied: 0 },
            Popped::Owned(v) => PopStats { copied: v.len() },
        }
    }
}

/// An x-kernel message: header stack + shared payload rope.
#[derive(Clone)]
pub struct Message {
    front: FrontBuf,
    rope: Rope,
}

impl Message {
    /// An empty message under the default (headroom) policy.
    pub fn empty() -> Message {
        Message::empty_with(HeaderPolicy::default())
    }

    /// An empty message under an explicit policy.
    ///
    /// Under the headroom policy the header buffer is pre-allocated *here*,
    /// with message creation — "the current version pre-allocates a single
    /// buffer that is large enough to hold all the headers" — so pushes are
    /// pure pointer adjustments from the first header on.
    pub fn empty_with(policy: HeaderPolicy) -> Message {
        let policy = Policy::of(policy);
        let front = match policy.headroom() {
            Some(headroom) => FrontBuf::with_room(headroom, policy),
            None => FrontBuf::none(policy),
        };
        Message {
            front,
            rope: Rope::default(),
        }
    }

    /// Wraps user payload, ready for headers to be pushed in front of it.
    pub fn from_user(data: Vec<u8>) -> Message {
        Message::from_user_with(HeaderPolicy::default(), data)
    }

    /// Wraps user payload under an explicit policy.
    pub fn from_user_with(policy: HeaderPolicy, data: Vec<u8>) -> Message {
        let mut m = Message::empty_with(policy);
        if !data.is_empty() {
            m.rope.push(Segment::from_vec(data));
        }
        m
    }

    /// Wraps bytes received from the network; pops will consume from the
    /// front of this buffer by pointer adjustment.
    pub fn from_wire(data: Vec<u8>) -> Message {
        Message::from_user(data)
    }

    /// The allocation policy this message was created with.
    #[inline]
    pub fn policy(&self) -> HeaderPolicy {
        self.front.policy.get()
    }

    /// Total length in bytes (headers already pushed + payload).
    #[inline]
    pub fn len(&self) -> usize {
        self.front.len() + self.rope.byte_len()
    }

    /// True if the message carries no bytes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of underlying segments (front counts as one when non-empty);
    /// exposed for tests that assert zero-copy behaviour.
    pub fn segment_count(&self) -> usize {
        usize::from(self.front.len() > 0) + self.rope.len()
    }

    /// Visits every byte of the message in order as borrowed slices — the
    /// front buffer first, then each rope segment — without materializing a
    /// contiguous copy. This is the hot-path alternative to
    /// [`Message::to_vec`] for consumers that can fold over chunks
    /// (checksums, hashing, wire framing).
    pub fn for_each_segment(&self, mut f: impl FnMut(&[u8])) {
        if self.front.len() > 0 {
            f(self.front.bytes());
        }
        self.rope.iter().for_each(|seg| {
            if seg.len() > 0 {
                f(seg.bytes());
            }
        });
    }

    /// Converts the owned front buffer into a reference-counted segment so
    /// that subsequent `clone`s share every byte instead of copying the
    /// front. One copy of the valid front bytes happens here (never the
    /// unused headroom); after that, fan-out paths that deliver the same
    /// frame to many receivers are pure `Rc` bumps.
    pub fn share(&mut self) {
        self.freeze();
    }

    fn demote_front(&mut self) {
        if self.front.len() > 0 {
            let seg = Segment::from_vec(self.front.bytes().to_vec());
            self.rope.push_front(seg);
        }
        self.front = FrontBuf::none(self.front.policy);
    }

    /// Prepends `header` to the message, returning what the operation cost.
    ///
    /// Under [`HeaderPolicy::Headroom`] this is a copy of the header bytes
    /// into reserved space plus a pointer adjustment; under
    /// [`HeaderPolicy::AllocPerHeader`] it allocates a fresh buffer every
    /// time, deliberately reproducing the slow legacy scheme.
    #[inline]
    pub fn push_header(&mut self, header: &[u8]) -> PushStats {
        let reserved = self.front.policy.headroom().is_some();
        let start = self.front.start();
        if reserved && start >= header.len() {
            // Fast path: space is already reserved.
            let new_start = start - header.len();
            self.front.buf[new_start..start].copy_from_slice(header);
            self.front.start = new_start as u32;
            return PushStats {
                allocated: false,
                copied: header.len(),
            };
        }
        self.push_header_alloc(header)
    }

    /// The allocating half of [`Message::push_header`]: the headroom is
    /// spent, or the policy is the legacy one.
    #[inline(never)]
    fn push_header_alloc(&mut self, header: &[u8]) -> PushStats {
        // Any existing front bytes are demoted into the rope first.
        let demoted = self.front.len();
        self.demote_front();
        let policy = self.front.policy;
        self.front = match policy.headroom() {
            Some(headroom) => {
                // Reserve a fresh front buffer with headroom.
                let mut front = FrontBuf::with_room(headroom.max(header.len()), policy);
                front.start -= header.len() as u32;
                let start = front.start();
                front.buf[start..].copy_from_slice(header);
                front
            }
            // Legacy scheme: one allocation per header.
            None => FrontBuf {
                buf: header.into(),
                start: 0,
                policy,
                home: None,
            },
        };
        PushStats {
            allocated: true,
            copied: header.len() + demoted,
        }
    }

    /// Removes `n` bytes from the front of the message and returns them.
    ///
    /// Contiguous headers are returned as a borrow (pointer adjustment, no
    /// copy); headers spanning segments are copied out.
    #[inline]
    pub fn pop_header(&mut self, n: usize) -> XResult<Popped<'_>> {
        // A header that sits in the front buffer — any header this host
        // pushed — pops without a look at the rope.
        if self.front.len() >= n {
            let s = self.front.start();
            self.front.start += n as u32;
            return Ok(Popped::Borrowed(&self.front.buf[s..s + n]));
        }
        self.pop_header_rope(n)
    }

    /// The half of [`Message::pop_header`] that reads the rope: what came
    /// off the wire, or a header spanning segments.
    #[inline(never)]
    fn pop_header_rope(&mut self, n: usize) -> XResult<Popped<'_>> {
        if self.front.len() == 0 {
            // Drop empty leading segments.
            while self.rope.first.as_ref().is_some_and(|s| s.len() == 0) {
                self.rope.pop_front();
            }
            if let Some(seg) = self.rope.first.as_mut() {
                if seg.len() >= n {
                    let s = seg.start as usize;
                    seg.start += n as u32;
                    let seg_done = seg.len() == 0;
                    let data = Rc::clone(&seg.data);
                    if seg_done {
                        self.rope.pop_front();
                    }
                    // The popped bytes live at absolute offset `s` in the
                    // segment's backing buffer. If the segment survives we
                    // can borrow straight from it; if it was fully consumed
                    // (and removed) we copy out of the Rc we cloned.
                    if !seg_done {
                        let seg = self.rope.first.as_ref().expect("segment retained");
                        return Ok(Popped::Borrowed(&seg.data[s..s + n]));
                    }
                    return Ok(Popped::Owned(data[s..s + n].to_vec()));
                }
            }
        }
        // Slow path: spans front + one or more segments, if there are that
        // many bytes at all — the one case that needs the total.
        if n > self.len() {
            return Err(Reject::Corrupt("header past the end of the message").into());
        }
        let mut out = Vec::with_capacity(n);
        let take_front = self.front.len().min(n);
        out.extend_from_slice(&self.front.bytes()[..take_front]);
        self.front.start += take_front as u32;
        let mut need = n - take_front;
        while need > 0 {
            let seg = self
                .rope
                .first
                .as_mut()
                .expect("length checked above; segments must cover pop");
            let take = seg.len().min(need);
            out.extend_from_slice(&seg.bytes()[..take]);
            seg.start += take as u32;
            need -= take;
            if seg.len() == 0 {
                self.rope.pop_front();
            }
        }
        Ok(Popped::Owned(out))
    }

    /// Copies the first `n` bytes without consuming them.
    pub fn peek(&self, n: usize) -> XResult<Vec<u8>> {
        // Checked before allocating: `n` may have come off the wire.
        self.check_peek(n)?;
        let mut out = vec![0; n];
        self.copy_front(&mut out);
        Ok(out)
    }

    /// Copies the first `out.len()` bytes into `out` without consuming
    /// them: [`Message::peek`] for a caller with somewhere to put them.
    pub fn peek_into(&self, out: &mut [u8]) -> XResult<()> {
        self.check_peek(out.len())?;
        self.copy_front(out);
        Ok(())
    }

    fn check_peek(&self, n: usize) -> XResult<()> {
        // The front alone may settle it, without a walk over the rope.
        if n > self.front.len() && n > self.len() {
            return Err(Reject::Corrupt("peek past the end of the message").into());
        }
        Ok(())
    }

    /// Fills `out` from the front of the message, which holds that much.
    fn copy_front(&self, out: &mut [u8]) {
        let mut filled = 0;
        for bytes in std::iter::once(self.front.bytes()).chain(self.rope.iter().map(Segment::bytes))
        {
            if filled == out.len() {
                break;
            }
            let take = bytes.len().min(out.len() - filled);
            out[filled..filled + take].copy_from_slice(&bytes[..take]);
            filled += take;
        }
    }

    /// Freezes the owned front buffer into a shared segment so the message
    /// can be split without copying.
    fn freeze(&mut self) {
        self.demote_front();
    }

    /// Splits the message at byte offset `at`; `self` keeps `[0, at)` and the
    /// returned message holds `[at, len)`. Zero-copy: fragments share the
    /// underlying segments.
    pub fn split_off(&mut self, at: usize) -> XResult<Message> {
        let total = self.len();
        if at > total {
            return Err(XError::Unsupported("split past the end of a message"));
        }
        self.freeze();
        let mut tail = Message::empty_with(self.policy());
        // The first segment that ends past `at`, and `at`'s offset in it.
        let mut seen = 0usize;
        let straddles = self.rope.iter().position(|seg| {
            let past = seen + seg.len() > at;
            if !past {
                seen += seg.len();
            }
            past
        });
        let Some(idx) = straddles else {
            // at == total: tail is empty.
            return Ok(tail);
        };
        let within = (at - seen) as u32;
        if within == 0 {
            tail.rope = self.rope.split_off(idx);
        } else {
            tail.rope = self.rope.split_off(idx + 1);
            let seg = self.rope.last_mut().expect("the straddling segment");
            let mut right = seg.clone();
            right.start = seg.start + within;
            seg.end = right.start;
            tail.rope.push_front(right);
        }
        Ok(tail)
    }

    /// Keeps only the first `len` bytes.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len() {
            return;
        }
        // Reuse split_off's segment arithmetic and drop the tail.
        let _ = self.split_off(len);
    }

    /// Appends `other` after this message's bytes (cheap: shares segments).
    pub fn append(&mut self, mut other: Message) {
        self.freeze();
        other.freeze();
        self.rope.append(&mut other.rope);
    }

    /// Concatenates messages in order into one message. The rope is sized
    /// once, from the iterator's lower bound (a fragment is one segment).
    pub fn concat<I: IntoIterator<Item = Message>>(parts: I) -> Message {
        let mut it = parts.into_iter();
        let mut first = match it.next() {
            Some(m) => m,
            None => return Message::empty(),
        };
        first.rope.reserve(it.size_hint().0);
        for m in it {
            first.append(m);
        }
        first
    }

    /// Copies the whole message into one contiguous vector.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len());
        out.extend_from_slice(self.front.bytes());
        self.rope
            .iter()
            .for_each(|seg| out.extend_from_slice(seg.bytes()));
        out
    }

    /// A contiguous view: borrowed when the message is a single segment,
    /// copied otherwise.
    pub fn contiguous(&self) -> Cow<'_, [u8]> {
        match &self.rope.first {
            None => Cow::Borrowed(self.front.bytes()),
            Some(seg) if self.front.len() == 0 && self.rope.rest.is_empty() => {
                Cow::Borrowed(seg.bytes())
            }
            _ => Cow::Owned(self.to_vec()),
        }
    }
}

impl fmt::Debug for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Message")
            .field("policy", &self.policy())
            .field("front", &self.front)
            .field("rope", &self.rope)
            .finish()
    }
}

impl Default for Message {
    fn default() -> Message {
        Message::empty()
    }
}

impl PartialEq for Message {
    fn eq(&self, other: &Message) -> bool {
        // Byte-string equality, independent of segmentation.
        self.len() == other.len() && self.to_vec() == other.to_vec()
    }
}

impl Eq for Message {}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn push_pop_roundtrip_headroom() {
        let mut m = Message::from_user(payload(100));
        let s1 = m.push_header(b"CHANNEL-HDR");
        assert!(
            !s1.allocated,
            "headroom is pre-allocated with the message; pushes never allocate"
        );
        let s2 = m.push_header(b"ETH");
        assert!(!s2.allocated, "second push is a pointer adjustment");
        assert_eq!(s2.copied, 3);
        assert_eq!(m.len(), 100 + 11 + 3);

        let h = m.pop_header(3).unwrap();
        assert_eq!(&*h, b"ETH");
        assert!(matches!(h, Popped::Borrowed(_)));
        drop(h);
        let h = m.pop_header(11).unwrap();
        assert_eq!(&*h, b"CHANNEL-HDR");
        drop(h);
        assert_eq!(m.to_vec(), payload(100));
    }

    #[test]
    fn alloc_per_header_always_allocates() {
        let mut m = Message::from_user_with(HeaderPolicy::AllocPerHeader, payload(10));
        for _ in 0..4 {
            let s = m.push_header(b"HDRX");
            assert!(s.allocated);
        }
        assert_eq!(m.len(), 10 + 16);
        for _ in 0..4 {
            let h = m.pop_header(4).unwrap();
            assert_eq!(&*h, b"HDRX");
        }
        assert_eq!(m.to_vec(), payload(10));
    }

    #[test]
    fn pop_spanning_segments_copies() {
        let mut m = Message::from_user(payload(4));
        m.push_header(b"AB");
        // Pop 6 bytes: 2 from front, 4 from the rope.
        let h = m.pop_header(6).unwrap();
        assert_eq!(&*h, &[b'A', b'B', 0, 1, 2, 3][..]);
        assert!(matches!(h, Popped::Owned(_)));
        drop(h);
        assert!(m.is_empty());
    }

    #[test]
    fn pop_too_much_errors() {
        let mut m = Message::from_user(payload(4));
        assert!(m.pop_header(5).is_err());
        assert_eq!(m.len(), 4, "failed pop must not consume");
    }

    #[test]
    fn peek_does_not_consume() {
        let mut m = Message::from_user(payload(8));
        m.push_header(b"ZZ");
        assert_eq!(m.peek(4).unwrap(), vec![b'Z', b'Z', 0, 1]);
        assert_eq!(m.len(), 10);
    }

    #[test]
    fn split_is_zero_copy_and_lossless() {
        let mut m = Message::from_user(payload(1000));
        let tail = m.split_off(400).unwrap();
        assert_eq!(m.len(), 400);
        assert_eq!(tail.len(), 600);
        // One shared allocation behind both halves.
        assert_eq!(m.segment_count(), 1);
        assert_eq!(tail.segment_count(), 1);
        let mut joined = m.clone();
        joined.append(tail);
        assert_eq!(joined.to_vec(), payload(1000));
    }

    #[test]
    fn split_at_boundaries() {
        let mut m = Message::from_user(payload(10));
        let tail = m.split_off(0).unwrap();
        assert_eq!(m.len(), 0);
        assert_eq!(tail.len(), 10);

        let mut m = Message::from_user(payload(10));
        let tail = m.split_off(10).unwrap();
        assert_eq!(m.len(), 10);
        assert!(tail.is_empty());

        let mut m = Message::from_user(payload(10));
        assert!(m.split_off(11).is_err());
    }

    #[test]
    fn fragmentation_reassembly_identity() {
        let mut m = Message::from_user(payload(5000));
        m.push_header(b"BIGHDR");
        let mut frags = Vec::new();
        while m.len() > 1500 {
            let rest = m.split_off(1500).unwrap();
            frags.push(std::mem::replace(&mut m, rest));
        }
        frags.push(m);
        assert_eq!(frags.len(), 4);
        let whole = Message::concat(frags);
        let mut expect = b"BIGHDR".to_vec();
        expect.extend_from_slice(&payload(5000));
        assert_eq!(whole.to_vec(), expect);
    }

    #[test]
    fn truncate_keeps_prefix() {
        let mut m = Message::from_user(payload(100));
        m.truncate(30);
        assert_eq!(m.to_vec(), payload(100)[..30].to_vec());
        m.truncate(1000); // No-op beyond length.
        assert_eq!(m.len(), 30);
    }

    #[test]
    fn clone_shares_payload() {
        let m = Message::from_user(payload(100));
        let c = m.clone();
        assert_eq!(m, c);
        // Mutating the clone's view must not disturb the original.
        let mut c2 = c.clone();
        c2.truncate(10);
        assert_eq!(m.len(), 100);
    }

    #[test]
    fn equality_ignores_segmentation() {
        let mut a = Message::from_user(payload(64));
        let b = Message::from_user(payload(64));
        let tail = a.split_off(32).unwrap();
        a.append(tail);
        assert_eq!(a, b);
    }

    #[test]
    fn contiguous_borrows_single_segment() {
        let m = Message::from_user(payload(16));
        assert!(matches!(m.contiguous(), Cow::Borrowed(_)));
        let mut m2 = Message::from_user(payload(16));
        m2.push_header(b"H");
        assert!(matches!(m2.contiguous(), Cow::Owned(_)));
    }

    #[test]
    fn empty_message_behaviour() {
        let mut m = Message::empty();
        assert!(m.is_empty());
        assert_eq!(m.segment_count(), 0);
        m.push_header(b"ONLY");
        assert_eq!(m.to_vec(), b"ONLY");
    }

    #[test]
    fn pop_across_many_segments() {
        // Three rope segments via concat; a pop spanning all three copies.
        let mut m = Message::concat([
            Message::from_user(payload(3)),
            Message::from_user(payload(3)),
            Message::from_user(payload(3)),
        ]);
        assert_eq!(m.segment_count(), 3);
        let h = m.pop_header(8).unwrap();
        assert!(matches!(h, Popped::Owned(_)));
        assert_eq!(h.stats().copied, 8);
        assert_eq!(&*h, &[0, 1, 2, 0, 1, 2, 0, 1][..]);
        drop(h);
        assert_eq!(m.to_vec(), vec![2]);
    }

    #[test]
    fn pop_from_rope_borrows_while_segment_survives() {
        // Front is empty (no headers pushed), so pops read from the rope:
        // a partial pop borrows, the pop that consumes the segment copies.
        let mut m = Message::from_user(payload(8));
        let h = m.pop_header(4).unwrap();
        assert!(matches!(h, Popped::Borrowed(_)));
        assert_eq!(h.stats().copied, 0);
        drop(h);
        let h = m.pop_header(4).unwrap();
        assert!(matches!(h, Popped::Owned(_)));
        assert_eq!(&*h, &payload(8)[4..]);
        drop(h);
        assert!(m.is_empty());
        // A zero-length pop is a no-op borrow, not an error.
        assert!(matches!(m.pop_header(0).unwrap(), Popped::Borrowed(&[])));
    }

    #[test]
    fn split_boundaries_after_header_pushes() {
        // split_off(0) and split_off(len) must also work once the front
        // buffer holds pushed headers (the freeze path), and the tail must
        // inherit the allocation policy.
        for policy in [HeaderPolicy::default(), HeaderPolicy::AllocPerHeader] {
            let mut m = Message::from_user_with(policy, payload(6));
            m.push_header(b"HH");
            let mut tail = m.split_off(0).unwrap();
            assert!(m.is_empty());
            assert_eq!(tail.len(), 8);
            assert_eq!(tail.policy(), policy);
            let end = tail.split_off(tail.len()).unwrap();
            assert!(end.is_empty());
            assert_eq!(end.policy(), policy);
            assert_eq!(tail.to_vec(), [&b"HH"[..], &payload(6)].concat());
        }
    }

    #[test]
    fn split_at_exact_segment_boundary_moves_whole_segments() {
        let mut m = Message::concat([
            Message::from_user(payload(4)),
            Message::from_user(payload(4)),
        ]);
        let tail = m.split_off(4).unwrap();
        // No segment was cut: each half keeps one intact segment.
        assert_eq!(m.segment_count(), 1);
        assert_eq!(tail.segment_count(), 1);
        assert_eq!(m.to_vec(), payload(4));
        assert_eq!(tail.to_vec(), payload(4));
    }

    #[test]
    fn push_after_split_under_both_policies() {
        // split_off freezes the front, so the next headroom push must
        // re-reserve; pushes after that are pointer adjustments again.
        let mut m = Message::from_user(payload(16));
        let _ = m.split_off(8).unwrap();
        assert!(m.push_header(b"NEW").allocated);
        assert!(!m.push_header(b"TOP").allocated);
        assert_eq!(
            m.to_vec(),
            [&b"TOP"[..], b"NEW", &payload(16)[..8]].concat()
        );
        // AllocPerHeader is oblivious: it allocated per push anyway.
        let mut a = Message::from_user_with(HeaderPolicy::AllocPerHeader, payload(8));
        let _ = a.split_off(4).unwrap();
        let s = a.push_header(b"X");
        assert!(s.allocated);
        assert_eq!(s.copied, 1);
        assert_eq!(a.to_vec(), [&b"X"[..], &payload(8)[..4]].concat());
    }

    #[test]
    fn headroom_exhaustion_allocates_once_then_adjusts() {
        let mut m = Message::from_user_with(HeaderPolicy::Headroom { headroom: 8 }, payload(4));
        assert!(!m.push_header(&[1u8; 8]).allocated, "fits the headroom");
        let s = m.push_header(&[2u8; 4]);
        assert!(s.allocated, "exhausted headroom grows a new front buffer");
        assert!(!m.push_header(&[3u8; 4]).allocated);
        assert_eq!(m.len(), 4 + 8 + 4 + 4);
    }

    #[test]
    fn concat_of_one_part_keeps_its_headroom() {
        // A one-fragment reassembly is the fragment itself: a reply pushed
        // onto it (an echo) adjusts a pointer, as it did before `concat`
        // sized its rope.
        let mut m = Message::concat([Message::from_user(payload(8))]);
        assert!(!m.push_header(b"HDR").allocated);
        // Twelve fragments: the first in place and one reservation of
        // eleven behind it, not 4 → 8 → 16.
        let mut m = Message::concat((0..12).map(|_| Message::from_user(payload(8))));
        assert_eq!(m.rope.rest.capacity(), 11, "sized once");
        assert!(
            m.push_header(b"HDR").allocated,
            "more parts freeze the front"
        );
    }

    /// A simulation made current on this thread, so that front buffers
    /// recycle through its list while it lives.
    fn current_sim() -> crate::sim::Sim {
        let sim = crate::sim::Sim::new(crate::sim::SimConfig::inline_mode());
        sim.ctx(crate::sim::HostId(0));
        sim
    }

    #[test]
    fn a_buffer_goes_back_to_the_simulation_it_came_from() {
        let (a, b) = (current_sim(), current_sim());
        let from_b = Message::empty();
        let recycled = from_b.front.buf.as_ptr();
        a.ctx(crate::sim::HostId(0));
        drop(from_b);
        let from_a = Message::empty();
        assert_ne!(from_a.front.buf.as_ptr(), recycled, "b's buffer stays b's");
        b.ctx(crate::sim::HostId(0));
        assert_eq!(Message::empty().front.buf.as_ptr(), recycled);
        drop((a, b));
        let m = Message::empty();
        assert!(m.front.home.is_none(), "with no simulation, a heap block");
        drop(from_a);
    }

    #[test]
    fn a_recycled_buffer_shows_none_of_its_last_owners_bytes() {
        let _sim = current_sim();
        let mut old = Message::empty();
        old.push_header(&[0xee; DEFAULT_HEADROOM]);
        let recycled = old.front.buf.as_ptr();
        drop(old);
        let mut m = Message::from_user(payload(3));
        assert_eq!(m.front.buf.as_ptr(), recycled, "the list hands it back");
        assert!(!m.push_header(b"NEW").allocated);
        let want = [&b"NEW"[..], &payload(3)].concat();
        assert_eq!(m.to_vec(), want);
        assert_eq!(m.peek(5).unwrap(), want[..5]);
        assert_eq!(m.clone().to_vec(), want);
        assert!(!format!("{m:?}").contains("238"), "0xee shows in {m:?}");
        assert_eq!(&*m.pop_header(3).unwrap(), b"NEW");
        assert_eq!(m.to_vec(), payload(3));
    }

    mod recycling {
        use super::*;
        use proptest::prelude::*;

        #[derive(Clone, Debug)]
        enum Op {
            FromUser { len: usize, fill: u8, policy: u8 },
            Empty,
            Push { at: usize, len: usize, fill: u8 },
            Pop { at: usize, n: usize },
            Split { at: usize, off: usize },
            Clone { at: usize },
            Append { at: usize, other: usize },
            Concat { n: usize },
            Drop { at: usize },
        }

        /// Messages held at once: enough to interleave owners, few enough
        /// that drops hand buffers back between most steps.
        const HELD: usize = 8;

        fn ops() -> impl Strategy<Value = Vec<Op>> {
            let at = || 0usize..HELD;
            proptest::collection::vec(
                prop_oneof![
                    (0usize..300, any::<u8>(), 0u8..3)
                        .prop_map(|(len, fill, policy)| Op::FromUser { len, fill, policy }),
                    (0u8..1).prop_map(|_| Op::Empty),
                    // Past the headroom now and then: a new front buffer.
                    (at(), 0usize..140, any::<u8>()).prop_map(|(at, len, fill)| Op::Push {
                        at,
                        len,
                        fill
                    }),
                    // Header-sized: the common case, many to a buffer.
                    (at(), 0usize..24, any::<u8>()).prop_map(|(at, len, fill)| Op::Push {
                        at,
                        len,
                        fill
                    }),
                    (at(), 0usize..400).prop_map(|(at, n)| Op::Pop { at, n }),
                    (at(), 0usize..400).prop_map(|(at, off)| Op::Split { at, off }),
                    at().prop_map(|at| Op::Clone { at }),
                    (at(), at()).prop_map(|(at, other)| Op::Append { at, other }),
                    (1usize..4).prop_map(|n| Op::Concat { n }),
                    at().prop_map(|at| Op::Drop { at }),
                ],
                1..200,
            )
        }

        fn policy(p: u8) -> HeaderPolicy {
            match p {
                0 => HeaderPolicy::default(),
                1 => HeaderPolicy::Headroom { headroom: 8 },
                _ => HeaderPolicy::AllocPerHeader,
            }
        }

        /// Runs `ops` against messages and a `Vec<u8>` model of each,
        /// comparing every message byte for byte after every step, with a
        /// simulation current so that buffers recycle between steps.
        fn run(ops: Vec<Op>) {
            let _sim = current_sim();
            let mut held: Vec<(Message, Vec<u8>)> = Vec::new();
            for op in ops {
                if held.is_empty() {
                    held.push((Message::empty(), Vec::new()));
                }
                if held.len() >= HELD {
                    held.swap_remove(0);
                }
                match op {
                    Op::FromUser {
                        len,
                        fill,
                        policy: p,
                    } => {
                        let data: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
                        held.push((Message::from_user_with(policy(p), data.clone()), data));
                    }
                    Op::Empty => held.push((Message::empty(), Vec::new())),
                    Op::Push { at, len, fill } => {
                        let i = at % held.len();
                        let (m, want) = &mut held[i];
                        let header = vec![fill; len];
                        m.push_header(&header);
                        want.splice(0..0, header);
                    }
                    Op::Pop { at, n } => {
                        let i = at % held.len();
                        let (m, want) = &mut held[i];
                        if n > want.len() {
                            assert!(m.peek(n).is_err());
                            assert!(m.pop_header(n).is_err());
                        } else {
                            assert_eq!(m.peek(n).unwrap(), want[..n]);
                            assert_eq!(&*m.pop_header(n).unwrap(), &want[..n]);
                            want.drain(..n);
                        }
                    }
                    Op::Split { at, off } => {
                        let i = at % held.len();
                        let (m, want) = &mut held[i];
                        let off = off % (want.len() + 1);
                        let tail = m.split_off(off).unwrap();
                        let tail_want = want.split_off(off);
                        held.push((tail, tail_want));
                    }
                    Op::Clone { at } => {
                        let i = at % held.len();
                        let copy = held[i].clone();
                        held.push(copy);
                    }
                    Op::Append { at, other } => {
                        let j = other % held.len();
                        let (m, more) = held.swap_remove(j);
                        if held.is_empty() {
                            held.push((m, more));
                        } else {
                            let i = at % held.len();
                            let (into, want) = &mut held[i];
                            into.append(m);
                            want.extend(more);
                        }
                    }
                    Op::Concat { n } => {
                        let parts = held.split_off(held.len() - n.min(held.len()));
                        let want = parts.iter().flat_map(|(_, w)| w.clone()).collect();
                        let m = Message::concat(parts.into_iter().map(|(m, _)| m));
                        held.push((m, want));
                    }
                    Op::Drop { at } => {
                        let i = at % held.len();
                        drop(held.swap_remove(i));
                    }
                }
                for (m, want) in &held {
                    assert_eq!(m.len(), want.len());
                    assert_eq!(&m.to_vec(), want);
                }
            }
        }

        proptest! {
            #[test]
            fn a_recycled_buffer_never_shows_a_stale_byte(ops in ops()) {
                run(ops);
            }
        }
    }
}
