//! FRAGMENT — unreliable but *persistent* bulk transfer.
//!
//! The bottom layer of the layered Sprite RPC decomposition, designed to be
//! reusable ("a bulk transfer protocol that can be reused by other
//! protocols", e.g. Psync and the Sun RPC recomposition):
//!
//! * Each message pushed through FRAGMENT gets a unique sequence number, is
//!   split into ≤16 fragments (one bit each in the 16-bit `frag_mask`,
//!   [`crate::frags`]), and is transmitted. The sender retains a copy only
//!   of a message of more than one fragment: one that fits a single
//!   fragment has no gap a receiver could NACK, so it goes out as it is.
//! * **Unreliable**: messages may arrive out of order, duplicated, or not at
//!   all; the receiver *never* sends a positive acknowledgement. That
//!   choice — made precisely so Psync could reuse the layer — is the
//!   paper's worked example of choosing decomposition semantics.
//! * **Persistent**: a receiver that detects missing fragments (a gap timer
//!   after the last arrival) sends a NACK naming the missing bits, and the
//!   sender retransmits just those fragments from its retained copy.
//! * The sender's copy expires [`DISCARD_NS`] after it was sent: the paper's
//!   discard timer, kept as an age check on the copy (the model still pays
//!   the timer's cost at the send). A higher-level retransmission arriving
//!   later is a *new* FRAGMENT message with a new sequence number.

use std::cell::{Cell, OnceCell};
use std::cmp::Ordering;
use std::collections::VecDeque;
use std::rc::{Rc, Weak};

use xkernel::cell::{tally, OwnerCell};

use xkernel::map::MixMap;
use xkernel::prelude::*;
use xkernel::sim::{Nanos, Time};

use crate::frags::{self, Place, Slot, MAX_FRAGS};
use crate::hdr::{frag_type, FragmentHdr, FRAGMENT_HDR_LEN};
use crate::protnum::num_over;

/// How long the sender retains a transmitted message for NACK service.
const DISCARD_NS: Nanos = 500_000_000;
/// Receiver gap timer: how long after the most recent fragment before
/// concluding some are missing.
const GAP_NS: Nanos = 10_000_000;
/// How many NACKs to send before giving up on an incomplete message.
const NACK_RETRIES: u32 = 4;
/// Bound on retained messages, of more than one fragment each: a server's
/// one-fragment replies (every null call's) take no place in it. In inline
/// mode, whose clock stays at 0 so no copy ever expires, it is the only
/// bound; under load in scheduled mode it can bind before [`DISCARD_NS`]
/// does: a server sending ~480 multi-fragment replies a virtual second
/// serves NACKs for its last 64 (~130 ms), not for 500 ms.
const CACHE_CAP: usize = 64;

/// Cumulative traffic counters (tests and benchmarks).
#[derive(Clone, Copy, Debug, Default)]
pub struct FragStats {
    /// Messages pushed through FRAGMENT by upper protocols.
    pub messages_sent: u64,
    /// Data fragments put on the wire (including NACK-driven resends).
    pub fragments_sent: u64,
    /// Complete messages delivered upward.
    pub messages_delivered: u64,
    /// NACKs this host sent (missing-fragment requests).
    pub nacks_sent: u64,
    /// NACKs this host received and serviced.
    pub nacks_received: u64,
}

/// A message of more than one fragment, retained for NACK service.
#[derive(Clone)]
struct Saved {
    msg: Message,
    /// The DATA header its fragments go out under, each with its own bit.
    hdr: FragmentHdr,
    frag_size: usize,
}

struct Rasm {
    slot: Slot,
    proto_num: u32,
    /// The message's length, from the fragment that opened the slot: the
    /// reassembled message is cut to it (only the last fragment can carry
    /// link-level padding, at the very end).
    total_len: u16,
    nacks_left: u32,
    timer_armed: bool,
    /// When the most recent fragment arrived: a gap is only declared after
    /// the wire has been quiet for the full gap interval, so a long
    /// transmission still in progress is never NACKed.
    last_arrival: u64,
}

/// The FRAGMENT protocol object.
pub struct Fragment {
    weak_self: Weak<Fragment>,
    me: ProtoId,
    lower: ProtoId,
    my_ip: OnceCell<IpAddr>,
    /// The number FRAGMENT demultiplexes on over `lower`, resolved at boot.
    my_num: OnceCell<u32>,
    base_frag_size: OnceCell<usize>,
    next_seq: Cell<u32>,
    enables: EnableMap<u32>,
    send_cache: OwnerCell<SendCache<Saved>>,
    rasm: OwnerCell<MixMap<(u32, u32), Rasm>>,
    passive: SessionMap<(u32, u32)>,
    lowers: SessionMap<u32, (SessionRef, usize)>,
    stats: Cell<FragStats>,
}

impl Fragment {
    /// Creates FRAGMENT above `lower` (an IP-addressed delivery protocol:
    /// IP, VIP, or VIPADDR).
    pub fn new(me: ProtoId, lower: ProtoId) -> Rc<Fragment> {
        Rc::new_cyclic(|weak_self| Fragment {
            weak_self: weak_self.clone(),
            me,
            lower,
            my_ip: OnceCell::new(),
            my_num: OnceCell::new(),
            base_frag_size: OnceCell::new(),
            next_seq: Cell::new(0),
            enables: EnableMap::new(),
            send_cache: OwnerCell::new(VecDeque::new()),
            rasm: OwnerCell::new(MixMap::default()),
            passive: SessionMap::new(),
            lowers: SessionMap::new(),
            stats: Cell::default(),
        })
    }

    // `new` builds the only `Rc` and `&self` borrows through it, so it is
    // alive while any method runs.
    #[allow(clippy::expect_used)]
    fn self_rc(&self) -> Rc<Fragment> {
        self.weak_self.upgrade().expect("fragment alive")
    }

    fn my_ip(&self) -> XResult<IpAddr> {
        self.my_ip.get().copied().ok_or_else(unbooted)
    }

    fn my_rel_num(&self) -> XResult<u32> {
        self.my_num.get().copied().ok_or_else(unbooted)
    }

    /// The lower session (and its fragment payload size) towards `peer`.
    fn lower_for(&self, ctx: &Ctx, peer: IpAddr) -> XResult<(SessionRef, usize)> {
        self.lowers.resolve_or_open(peer.0, || {
            let parts = ParticipantSet::pair(
                Participant::proto(self.my_rel_num()?),
                Participant::host(peer),
            );
            let sess = ctx.kernel_ref().open(ctx, self.lower, self.me, &parts)?;
            let opt = sess
                .control(ctx, &ControlOp::GetOptPacket)
                .and_then(|r| r.size())
                .unwrap_or(1500);
            Ok((sess, opt - FRAGMENT_HDR_LEN))
        })
    }

    /// Puts one data fragment on the wire: `frag` under `hdr`, which names
    /// it by `bit`.
    fn push_frag(
        &self,
        ctx: &Ctx,
        lower: &SessionRef,
        hdr: &FragmentHdr,
        bit: u16,
        mut frag: Message,
    ) -> XResult<()> {
        let hdr = FragmentHdr {
            frag_mask: bit,
            ..*hdr
        };
        ctx.push_header(&mut frag, &hdr.encode());
        ctx.charge_layer_call();
        tally(&self.stats, |s| s.fragments_sent += 1);
        lower.push(ctx, frag)?;
        Ok(())
    }

    /// Transmits the fragments of `saved` selected by `mask`.
    fn transmit(&self, ctx: &Ctx, lower: &SessionRef, saved: &Saved, mask: u16) -> XResult<()> {
        for (_, bit, frag) in frags::selected(&saved.msg, saved.frag_size, mask) {
            self.push_frag(ctx, lower, &saved.hdr, bit, frag)?;
        }
        Ok(())
    }

    /// Sends `msg` to `peer` on behalf of high-level protocol `proto_num`.
    fn send(&self, ctx: &Ctx, peer: IpAddr, proto_num: u32, msg: Message) -> XResult<()> {
        let (lower, frag_size) = self.lower_for(ctx, peer)?;
        let num_frags = frags::count(msg.len(), frag_size)?;
        let seq = self.next_seq.bump();
        tally(&self.stats, |s| s.messages_sent += 1);
        // Sequence allocation + retained-copy bookkeeping.
        ctx.charge_class(OpClass::Demux, ctx.cost().demux_lookup);
        let hdr = FragmentHdr {
            typ: frag_type::DATA,
            clnt_host: self.my_ip()?,
            srvr_host: peer,
            protocol_num: proto_num,
            sequence_num: seq,
            num_frags,
            frag_mask: 0,
            len: msg.len() as u16,
        };
        if num_frags == 1 {
            // No receiver NACKs a message of one fragment (it has no gap):
            // the message goes out as it is, and no copy is kept.
            self.push_frag(ctx, &lower, &hdr, 1, msg)?;
        } else {
            let saved = Saved {
                msg,
                hdr,
                frag_size,
            };
            self.transmit(ctx, &lower, &saved, frags::full_mask(num_frags))?;
            // Retain a copy for NACK service, bounded and timed: it expires
            // by its age.
            retain(&mut self.send_cache.lock(), seq, ctx.event_time(), saved);
        }
        // The modelled host pays for the discard timer the copy stands for
        // here, where the timer was armed, whether or not a copy is kept.
        ctx.charge_class(OpClass::Timer, ctx.cost().timer_op);
        Ok(())
    }

    fn deliver_up(&self, ctx: &Ctx, from: IpAddr, proto_num: u32, msg: Message) -> XResult<()> {
        tally(&self.stats, |s| s.messages_delivered += 1);
        ctx.charge_class(OpClass::Demux, ctx.cost().demux_lookup);
        let upper = *self
            .enables
            .resolve(&proto_num)
            .ok_or(Reject::NoEnable("fragment protocol number"))?;
        let sess = self
            .passive
            .resolve_or_insert_with((from.0, proto_num), || {
                ctx.charge_class(OpClass::SessionCreate, ctx.cost().session_create);
                Ok(Rc::new(FragSession {
                    parent: self.self_rc(),
                    peer: from,
                    proto_num,
                }) as SessionRef)
            })?;
        ctx.kernel_ref().demux_to(ctx, upper, &sess, msg)
    }

    fn arm_gap_timer(&self, ctx: &Ctx, key: (u32, u32)) {
        let parent = self.self_rc();
        ctx.schedule_after(GAP_NS, move |tctx| {
            parent.on_gap_timer(tctx, key);
        });
    }

    fn on_gap_timer(&self, ctx: &Ctx, key: (u32, u32)) {
        let Ok(my_ip) = self.my_ip() else {
            return; // A reassembly only opens on a booted host.
        };
        let nack = {
            let mut rasm = self.rasm.lock();
            let Some(ent) = rasm.get_mut(&key) else {
                return; // Completed meanwhile.
            };
            ent.timer_armed = false;
            // Fragments still flowing: not a gap, just a long message.
            if ctx.now().saturating_sub(ent.last_arrival) < GAP_NS {
                ent.timer_armed = true;
                drop(rasm);
                self.arm_gap_timer(ctx, key);
                return;
            }
            if ent.nacks_left == 0 {
                rasm.remove(&key);
                ctx.trace_note("reassembly persistence exhausted");
                return;
            }
            ent.nacks_left -= 1;
            ent.timer_armed = true;
            // An open slot is never complete: `data_in` removes it then.
            FragmentHdr {
                typ: frag_type::NACK,
                clnt_host: IpAddr(key.0),
                srvr_host: my_ip,
                protocol_num: ent.proto_num,
                sequence_num: key.1,
                num_frags: ent.slot.num(),
                frag_mask: ent.slot.missing(),
                len: ent.total_len,
            }
        };
        if let Ok((lower, _)) = self.lower_for(ctx, nack.clnt_host) {
            let mut pkt = ctx.empty_msg();
            ctx.push_header(&mut pkt, &nack.encode());
            ctx.charge_layer_call();
            tally(&self.stats, |s| s.nacks_sent += 1);
            if lower.push(ctx, pkt).is_err() {
                ctx.trace_note("nack send failed");
            }
        }
        self.arm_gap_timer(ctx, key);
    }

    fn data_in(&self, ctx: &Ctx, hdr: FragmentHdr, mut msg: Message) -> XResult<()> {
        let at = Place::check(hdr.num_frags, hdr.frag_mask)?;
        // Single-fragment fast path: no state, no timers. Trim any
        // link-level padding with the header's total-length field.
        if hdr.num_frags == 1 {
            msg.truncate(usize::from(hdr.len));
            return self.deliver_up(ctx, hdr.clnt_host, hdr.protocol_num, msg);
        }
        let key = (hdr.clnt_host.0, hdr.sequence_num);
        let (proto, whole) = {
            let mut rasm = self.rasm.lock();
            let ent = rasm.entry(key).or_insert_with(|| Rasm {
                slot: Slot::new(at),
                proto_num: hdr.protocol_num,
                total_len: hdr.len,
                nacks_left: NACK_RETRIES,
                timer_armed: false,
                last_arrival: 0,
            });
            ent.slot.take(at, msg)?;
            ent.last_arrival = ctx.now();
            if !ent.slot.complete() {
                if !ent.timer_armed {
                    ent.timer_armed = true;
                    drop(rasm);
                    self.arm_gap_timer(ctx, key);
                }
                return Ok(());
            }
            let mut whole = ent.slot.assemble();
            whole.truncate(usize::from(ent.total_len));
            let proto = ent.proto_num;
            rasm.remove(&key);
            (proto, whole)
        };
        self.deliver_up(ctx, hdr.clnt_host, proto, whole)
    }

    fn nack_in(&self, ctx: &Ctx, hdr: FragmentHdr) -> XResult<()> {
        tally(&self.stats, |s| s.nacks_received += 1);
        let seq = hdr.sequence_num;
        // A copy, so the cache lock is not held across the pushes.
        let saved = {
            let cache = self.send_cache.lock();
            let at = cached(&cache, seq).and_then(|at| cache.get(at));
            let live = at.filter(|(_, sent, _)| !expired(*sent, ctx.event_time()));
            live.map(|(_, _, saved)| saved.clone())
        };
        let Some(saved) = saved else {
            // Evicted or expired: the higher-level protocol's own timeout
            // will resend the whole message under a new sequence number.
            ctx.trace_note("nack for discarded seq");
            return Ok(());
        };
        // Only the message's receiver asks for its fragments, and it names
        // the message as its fragments did.
        let sent = &saved.hdr;
        if (hdr.srvr_host, hdr.protocol_num, hdr.num_frags)
            != (sent.srvr_host, sent.protocol_num, sent.num_frags)
        {
            return Err(Reject::Denied("nack does not match its message").into());
        }
        // Retransmit the missing fragments from the retained copy.
        let (lower, _) = self.lower_for(ctx, sent.srvr_host)?;
        self.transmit(ctx, &lower, &saved, hdr.frag_mask)
    }

    /// Cumulative traffic counters.
    pub fn stats(&self) -> FragStats {
        self.stats.get()
    }

    /// Observable state for tests: open reassembly buffers.
    pub fn reassembling(&self) -> usize {
        self.rasm.lock().len()
    }

    /// Observable state for tests: messages retained for NACK service.
    pub fn retained(&self) -> usize {
        self.send_cache.lock().len()
    }
}

fn unbooted() -> XError {
    XError::Config("fragment not booted".into())
}

/// Retained messages in send order, each with its sequence number and send
/// time: sequence numbers rise (wrapping) and send times do not fall from
/// front to back. The cap evicts the front, and every copy expires
/// [`DISCARD_NS`] after its send, so the expired copies are a prefix.
type SendCache<T> = VecDeque<(u32, Time, T)>;

/// Whether a copy sent at `sent` has outlived its discard timer at `now`.
fn expired(sent: Time, now: Time) -> bool {
    now.saturating_sub(sent) >= DISCARD_NS
}

/// Whether `s` was sent before, with or after `seq`: their wrapping
/// difference read as signed, which holds while a cache's sequence numbers
/// span less than 2^31.
fn send_order(s: u32, seq: u32) -> Ordering {
    (s.wrapping_sub(seq) as i32).cmp(&0)
}

/// Where `seq` sits in `cache`, if it is still retained. Older than the
/// front is gone; past it, a binary search in send order finds every
/// retained `seq`, and only an `s == seq` can answer.
fn cached<T>(cache: &SendCache<T>, seq: u32) -> Option<usize> {
    let (front, ..) = cache.front()?;
    match send_order(seq, *front) {
        Ordering::Less => None,
        Ordering::Equal => Some(0),
        Ordering::Greater => cache.binary_search_by(|(s, ..)| send_order(*s, seq)).ok(),
    }
}

/// Retains `saved` under `seq`, the newest, sent at `now`: drops the copies
/// that have expired by then, and the oldest past [`CACHE_CAP`]. A send is
/// retained after its transmit, and no transmit re-enters its own
/// FRAGMENT's `send` (the assertion holds across the test suite); a copy
/// filed out of order would only go unfound by lookups.
fn retain<T>(cache: &mut SendCache<T>, seq: u32, now: Time, saved: T) {
    debug_assert!(
        cache
            .back()
            .is_none_or(|(s, sent, _)| send_order(*s, seq).is_lt() && *sent <= now),
        "FRAGMENT retains its messages in send order"
    );
    while cache.front().is_some_and(|e| expired(e.1, now)) {
        cache.pop_front();
    }
    cache.push_back((seq, now, saved));
    if cache.len() > CACHE_CAP {
        cache.pop_front();
    }
}

/// A FRAGMENT session towards one (peer, high-level protocol).
pub struct FragSession {
    parent: Rc<Fragment>,
    peer: IpAddr,
    proto_num: u32,
}

impl Session for FragSession {
    fn protocol_id(&self) -> ProtoId {
        self.parent.me
    }

    fn push(&self, ctx: &Ctx, msg: Message) -> XResult<Option<Message>> {
        self.parent.send(ctx, self.peer, self.proto_num, msg)?;
        Ok(None)
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            ControlOp::GetMaxPacket => {
                let (_, frag_size) = self.parent.lower_for(ctx, self.peer)?;
                Ok(ControlRes::Size(MAX_FRAGS * frag_size))
            }
            ControlOp::GetOptPacket => {
                let (_, frag_size) = self.parent.lower_for(ctx, self.peer)?;
                Ok(ControlRes::Size(frag_size))
            }
            ControlOp::GetFragCount(size) => {
                let (_, frag_size) = self.parent.lower_for(ctx, self.peer)?;
                Ok(ControlRes::Size(size.max(&1).div_ceil(frag_size)))
            }
            ControlOp::GetPeerHost => Ok(ControlRes::Ip(self.peer)),
            ControlOp::GetMyHost => self.parent.my_ip().map(ControlRes::Ip),
            _ => Err(XError::Unsupported("fragment session control")),
        }
    }
}

impl Protocol for Fragment {
    fn id(&self) -> ProtoId {
        self.me
    }

    fn boot(&self, ctx: &Ctx) -> XResult<()> {
        let kernel = ctx.kernel_ref();
        let lower = kernel.proto_ref(self.lower)?;
        self.my_num
            .set(num_over(kernel, self.me, self.lower)?)
            .map_err(|_| XError::Config("fragment double boot".into()))?;
        let my_ip = lower.control(ctx, &ControlOp::GetMyHost)?.ip()?;
        self.my_ip
            .set(my_ip)
            .map_err(|_| XError::Config("fragment double boot".into()))?;
        let opt = lower
            .control(ctx, &ControlOp::GetOptPacket)
            .and_then(|r| r.size())
            .unwrap_or(1500);
        let _ = self.base_frag_size.set(opt - FRAGMENT_HDR_LEN);
        // Receive our own packets.
        let parts = ParticipantSet::local(Participant::proto(self.my_rel_num()?));
        kernel.open_enable(ctx, self.lower, self.me, &parts)
    }

    // `next_seq` is a value, kept across reboot: reusing message ids could
    // collide with stale partials on peers. Retained copies are scratch —
    // peers must not NACK-recover a previous incarnation's messages, and at
    // a quiescent instant no NACK can name one (partial reassemblies are
    // timer-reclaimed, so none is open).
    fn keeps(&self, k: &mut Keep<'_>) {
        k.config(&self.enables);
        k.sessions(&self.passive);
        k.sessions(&self.lowers);
        k.values(&self.next_seq);
        k.values(&self.stats);
        k.scratch(&self.send_cache);
        k.scratch(&self.rasm);
    }

    fn open(&self, ctx: &Ctx, _upper: ProtoId, parts: &ParticipantSet) -> XResult<SessionRef> {
        let proto_num = parts
            .local_part()
            .and_then(|p| p.proto_num)
            .ok_or_else(|| XError::Config("fragment open needs a protocol number".into()))?;
        let peer = parts
            .remote_part()
            .and_then(|p| p.host)
            .ok_or_else(|| XError::Config("fragment open needs a peer host".into()))?;
        ctx.charge_class(OpClass::SessionCreate, ctx.cost().session_create);
        Ok(Rc::new(FragSession {
            parent: self.self_rc(),
            peer,
            proto_num,
        }))
    }

    fn open_enable(&self, _ctx: &Ctx, upper: ProtoId, parts: &ParticipantSet) -> XResult<()> {
        let proto_num = parts
            .local_part()
            .and_then(|p| p.proto_num)
            .ok_or_else(|| XError::Config("fragment enable needs a protocol number".into()))?;
        self.enables.bind(proto_num, upper);
        Ok(())
    }

    fn demux(&self, ctx: &Ctx, _lls: &SessionRef, mut msg: Message) -> XResult<()> {
        let bytes = ctx.pop_header(&mut msg, FRAGMENT_HDR_LEN)?;
        let hdr = FragmentHdr::decode(&bytes)?;
        drop(bytes);
        match hdr.typ {
            frag_type::DATA => self.data_in(ctx, hdr, msg),
            frag_type::NACK => self.nack_in(ctx, hdr),
            _ => Err(Reject::Corrupt("unknown fragment type").into()),
        }
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        let frag_size = *self
            .base_frag_size
            .get()
            .unwrap_or(&(1500 - FRAGMENT_HDR_LEN));
        match op {
            ControlOp::GetMaxPacket => Ok(ControlRes::Size(MAX_FRAGS * frag_size)),
            ControlOp::GetOptPacket => Ok(ControlRes::Size(frag_size)),
            ControlOp::GetFragCount(size) => Ok(ControlRes::Size(size.max(&1).div_ceil(frag_size))),
            // Asked by VIP: FRAGMENT never pushes more than one lower packet
            // at a time (it has its own fragmentation).
            ControlOp::GetMaxMsgSize => Ok(ControlRes::Size(frag_size + FRAGMENT_HDR_LEN)),
            ControlOp::GetMyHost => self.my_ip().map(ControlRes::Ip),
            _ => {
                let _ = ctx;
                Err(XError::Unsupported("fragment control"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use xkernel::sim::{Sim, SimConfig};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// The send-order queue against the `Vec` it replaced (drop what
        /// has expired and push on a send, drain past the cap, `find` on a
        /// NACK and skip a copy that has expired): sends one at a time and
        /// in bursts past [`CACHE_CAP`], time advanced by less than, about
        /// and more than [`DISCARD_NS`], NACK lookups of retained, evicted,
        /// expired and never-sent seqs, reboot clears, and sequence numbers
        /// that wrap past `u32::MAX`. After every step both hold the same
        /// seqs in the same order, and every lookup finds the same copy.
        #[test]
        fn the_send_queue_retains_what_the_vec_model_does(
            start in 0u32..300,
            ops in proptest::collection::vec((0u8..10, 0u32..90), 1..150),
        ) {
            let mut next_seq = u32::MAX - start;
            let mut now: Time = 0;
            let mut queue: SendCache<u64> = VecDeque::new();
            let mut model: Vec<(u32, Time, u64)> = Vec::new();
            for (step, (op, arg)) in (0u64..).zip(ops) {
                let seq = next_seq.wrapping_sub(arg);
                let sends = match op {
                    0..=3 => 1,
                    4 => arg % 70 + 1,
                    _ => 0,
                };
                for i in 0..u64::from(sends) {
                    // The copy names the step it was sent in, so a lookup
                    // that found another entry would show.
                    let copy = step << 8 | i;
                    retain(&mut queue, next_seq, now, copy);
                    model.retain(|(_, sent, _)| !expired(*sent, now));
                    model.push((next_seq, now, copy));
                    if model.len() > CACHE_CAP {
                        let excess = model.len() - CACHE_CAP;
                        model.drain(..excess);
                    }
                    next_seq = next_seq.wrapping_add(1);
                }
                match op {
                    // Up to twice the discard time, in 45ths of it.
                    5 | 6 => now += u64::from(arg) * (DISCARD_NS / 45),
                    7 | 8 => {
                        let found = cached(&queue, seq)
                            .map(|at| queue[at])
                            .filter(|(_, sent, _)| !expired(*sent, now))
                            .map(|e| e.2);
                        let want = model
                            .iter()
                            .find(|(s, sent, _)| *s == seq && !expired(*sent, now))
                            .map(|e| e.2);
                        prop_assert_eq!(found, want);
                    }
                    9 => {
                        queue.clear();
                        model.clear();
                    }
                    _ => {}
                }
                prop_assert_eq!(queue.iter().copied().collect::<Vec<_>>(), model.clone());
            }
        }
    }

    /// A stand-in lower layer masquerading as VIP with an oversized MTU, so
    /// 16 fragments can span more than 65535 bytes.
    struct BigMtuLower {
        me: ProtoId,
        opt: usize,
    }

    struct BigMtuSession {
        opt: usize,
    }

    impl Protocol for BigMtuLower {
        fn id(&self) -> ProtoId {
            self.me
        }
        fn keeps(&self, _k: &mut Keep<'_>) {}
        fn open(&self, _c: &Ctx, _u: ProtoId, _p: &ParticipantSet) -> XResult<SessionRef> {
            Ok(Rc::new(BigMtuSession { opt: self.opt }))
        }
        fn open_enable(&self, _c: &Ctx, _u: ProtoId, _p: &ParticipantSet) -> XResult<()> {
            Ok(())
        }
        fn demux(&self, _c: &Ctx, _l: &SessionRef, _m: Message) -> XResult<()> {
            Ok(())
        }
        fn control(&self, _c: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
            match op {
                ControlOp::GetMyHost => Ok(ControlRes::Ip(IpAddr::new(10, 0, 0, 1))),
                ControlOp::GetOptPacket => Ok(ControlRes::Size(self.opt)),
                _ => Err(XError::Unsupported("big-mtu lower control")),
            }
        }
    }

    impl Session for BigMtuSession {
        fn protocol_id(&self) -> ProtoId {
            ProtoId(0)
        }
        fn push(&self, _c: &Ctx, _m: Message) -> XResult<Option<Message>> {
            Ok(None)
        }
        fn control(&self, _c: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
            match op {
                ControlOp::GetOptPacket => Ok(ControlRes::Size(self.opt)),
                _ => Err(XError::Unsupported("big-mtu session control")),
            }
        }
    }

    /// Regression: with a lower MTU large enough that 16 fragments exceed
    /// 65535 bytes, the wire header's u16 `len` field used to truncate
    /// silently (`as u16`), corrupting reassembly. Such sends must be
    /// refused with `TooBig`, while sends within u16 range still work.
    #[test]
    fn sends_beyond_u16_total_length_are_rejected() {
        let sim = Sim::new(SimConfig::inline_mode());
        let kernel = Kernel::new(&sim, "host-a");
        let opt = 8_192;
        let lower = kernel
            .register("vip", ProtoContract::opaque("vip"), |me| {
                Ok(Rc::new(BigMtuLower { me, opt }) as ProtocolRef)
            })
            .unwrap();
        let frag_id = kernel
            .register("fragment", crate::contracts::fragment(), |me| {
                Ok(Fragment::new(me, lower) as ProtocolRef)
            })
            .unwrap();
        let ctx = sim.ctx(kernel.host());
        let frag = kernel.proto_ref(frag_id).unwrap();
        frag.boot(&ctx).unwrap();

        let parts = ParticipantSet::pair(
            Participant::proto(7),
            Participant::host(IpAddr::new(10, 0, 0, 2)),
        );
        let sess = kernel.open(&ctx, frag_id, frag_id, &parts).unwrap();

        // 60_000 bytes: 8 fragments of ~8k, total within u16 — accepted.
        sess.push(&ctx, ctx.msg(vec![0u8; 60_000])).unwrap();

        // 70_000 bytes: only 9 fragments (passes the 16-fragment cap) but
        // the total cannot be carried in the u16 length field.
        let err = sess.push(&ctx, ctx.msg(vec![0u8; 70_000])).unwrap_err();
        assert!(
            matches!(err, XError::TooBig { size: 70_000, .. }),
            "oversized send must be refused, got {err:?}"
        );
    }
}
