//! # simnet — a simulated 10 Mbps Ethernet testbed
//!
//! Stands in for the paper's "pair of Sun 3/75s connected by an isolated
//! 10Mbps ethernet". A [`SimNet`] holds one or more broadcast LAN segments.
//! Each attached host gets a [`Nic`] — a bottom-of-stack protocol object the
//! `inet` ETH protocol opens like any other lower layer, keeping the
//! interface uniform all the way down to the (simulated) hardware.
//!
//! The wire model reproduces the behaviour the paper's throughput numbers
//! depend on: frames occupy the shared wire FIFO for
//! `(frame + overhead) * 8 / bandwidth` seconds, so back-to-back fragments
//! are paced at wire speed and "both protocol stacks drive the ethernet
//! controller at its maximum rate" is an observable outcome, not an input.
//! Propagation delay and per-packet [`fault::FaultPlan`] faults complete the
//! model.
//!
//! In inline mode ([`xkernel::sim::Mode::Inline`]) frames are delivered by
//! direct procedure call on the sender's thread — zero latency, no events —
//! which is what `benchmark/`'s `null_inline` workload measures.

#![warn(missing_docs)]
#![warn(clippy::disallowed_types, clippy::disallowed_methods)]

pub mod fault;
mod template;

pub use template::Template;

use std::rc::{Rc, Weak};
use std::sync::Arc;

use xkernel::cell::OwnerCell;

use fault::{FaultDecision, FaultPlan, FaultSchedule};
use xkernel::lint::AddrKind;
use xkernel::prelude::*;
use xkernel::sim::{Mode, Receiver, Time};

/// Identifies one LAN segment within a [`SimNet`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LanId(pub usize);

/// Physical parameters of a LAN segment.
#[derive(Clone, Copy, Debug)]
pub struct LanConfig {
    /// Bits per second on the wire (10 Mbps for the paper's Ethernet).
    pub bandwidth_bps: u64,
    /// One-way propagation delay in nanoseconds.
    pub propagation_ns: u64,
    /// Largest frame payload a NIC accepts (Ethernet MTU: 1500).
    pub mtu: usize,
    /// Extra wire bytes per frame (preamble + CRC + interframe gap).
    pub per_frame_overhead: usize,
    /// Minimum frame size on the wire (Ethernet: 64 bytes).
    pub min_frame: usize,
    /// Controller turnaround per frame (DMA setup, interrupt latency):
    /// occupies the wire path like transmission time does. Calibrated for
    /// the Sun 3/75's LANCE-era controller.
    pub turnaround_ns: u64,
    /// Pad delivered frames to `min_frame` bytes with zeros, as real
    /// Ethernet hardware does. Off by default (most of the suite's headers
    /// carry their own lengths); turned on to reproduce the paper's §5
    /// finding that TCP — which has no length field of its own — cannot run
    /// over VIP's raw-Ethernet path.
    pub pad_frames: bool,
}

impl Default for LanConfig {
    fn default() -> LanConfig {
        LanConfig {
            bandwidth_bps: 10_000_000,
            propagation_ns: 5_000,
            mtu: 1500,
            per_frame_overhead: 24,
            min_frame: 64,
            turnaround_ns: 250_000,
            pad_frames: false,
        }
    }
}

impl LanConfig {
    /// Wire-path occupancy for a frame of `len` payload bytes: transmission
    /// time plus controller turnaround.
    pub fn tx_time(&self, len: usize) -> Time {
        let bytes = (len.max(self.min_frame) + self.per_frame_overhead) as u64;
        bytes * 8 * 1_000_000_000 / self.bandwidth_bps + self.turnaround_ns
    }
}

/// Traffic counters for one LAN (tests and the throughput harness).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LanStats {
    /// Frames handed to the wire.
    pub sent: u64,
    /// Frames delivered to at least one NIC.
    pub delivered: u64,
    /// Frames dropped by fault injection.
    pub dropped: u64,
    /// Extra copies delivered by duplication faults.
    pub duplicated: u64,
    /// Frames corrupted in flight.
    pub corrupted: u64,
    /// Total payload bytes handed to the wire.
    pub bytes: u64,
    /// Wire-time accumulated (ns) — utilization = busy_ns / elapsed.
    pub busy_ns: u64,
}

struct Attachment {
    host: HostId,
    eth: EthAddr,
    /// Weak: the kernel's protocol table owns the NIC, and the NIC owns
    /// this network; a strong edge back would keep both alive for ever.
    nic: Weak<Nic>,
}

/// Who is on a LAN.
#[derive(Default)]
struct Attached {
    /// In attach order, which is the order a broadcast is delivered in.
    list: Vec<Attachment>,
    /// `(address, index into list)`, sorted: a unicast frame finds its
    /// receiver by binary search. An address attached twice has two
    /// entries, in attach order.
    by_addr: Vec<(EthAddr, u32)>,
}

impl Attached {
    fn push(&mut self, a: Attachment) {
        let key = (a.eth, self.list.len() as u32);
        self.by_addr
            .insert(self.by_addr.partition_point(|e| *e < key), key);
        self.list.push(a);
    }

    /// Everyone but the sender whose address filter matches `dst`.
    fn receivers(&self, src: EthAddr, dst: EthAddr) -> impl Iterator<Item = &Attachment> {
        let (all, from) = if dst.is_broadcast() {
            (&self.list[..], self.by_addr.len())
        } else {
            (&[][..], self.by_addr.partition_point(|e| e.0 < dst))
        };
        let unicast = self.by_addr[from..]
            .iter()
            .take_while(move |e| e.0 == dst)
            .map(|e| &self.list[e.1 as usize]);
        all.iter().chain(unicast).filter(move |a| a.eth != src)
    }
}

/// One realized, *suppressible* fault (drop / duplicate / corrupt — not a
/// delay) on a LAN, recorded in transmission order while
/// [`SimNet::record_faults`] is active. This is the injected-fault timeline
/// the chaos bisect driver binary-searches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Virtual time the frame hit the wire.
    pub at: Time,
    /// LAN-local packet index (transmission order).
    pub index: u64,
    /// The fate the fault schedule drew.
    pub decision: FaultDecision,
}

struct Lan {
    cfg: LanConfig,
    faults: FaultSchedule,
    wire_free: Time,
    packet_index: u64,
    stats: LanStats,
    attached: Attached,
    /// Recording buffer for realized suppressible faults (`Some` while
    /// [`SimNet::record_faults`] is active).
    record: Option<Vec<FaultEvent>>,
    /// Fault-suppression cutoff: packets with `index >= cutoff` have any
    /// suppressible fault outcome overridden to Deliver — *after* the
    /// schedule draws, so PRNG consumption per packet is unchanged.
    suppress_from: Option<u64>,
}

/// Captured wire state of every LAN; see [`SimNet::snapshot`].
pub(crate) struct NetSnapshot {
    lans: Vec<LanSnap>,
}

struct LanSnap {
    wire_free: Time,
    packet_index: u64,
    stats: LanStats,
    faults: FaultSchedule,
}

struct NetInner {
    lans: OwnerCell<Vec<Lan>>,
}

/// The simulated network: LAN segments plus host attachments.
#[derive(Clone)]
pub struct SimNet {
    inner: Rc<NetInner>,
}

impl SimNet {
    /// Creates an empty network for `sim`'s hosts. The network keeps no
    /// handle on the simulator (whoever transmits brings its [`Ctx`]), so
    /// the two can be dropped in either order.
    pub fn new(_sim: &Sim) -> SimNet {
        SimNet {
            inner: Rc::new(NetInner {
                lans: OwnerCell::new(Vec::new()),
            }),
        }
    }

    /// Adds a LAN segment.
    pub fn add_lan(&self, cfg: LanConfig) -> LanId {
        let mut lans = self.inner.lans.lock();
        let id = LanId(lans.len());
        lans.push(Lan {
            cfg,
            faults: FaultSchedule::none(),
            wire_free: 0,
            packet_index: 0,
            stats: LanStats::default(),
            attached: Attached::default(),
            record: None,
            suppress_from: None,
        });
        id
    }

    /// Installs a per-packet fault plan on a LAN (no time-varying windows).
    pub fn set_faults(&self, lan: LanId, plan: FaultPlan) {
        self.set_fault_schedule(lan, FaultSchedule::from_plan(plan));
    }

    /// Installs a full time-varying fault schedule on a LAN.
    pub fn set_fault_schedule(&self, lan: LanId, schedule: FaultSchedule) {
        self.inner.lans.lock()[lan.0].faults = schedule;
    }

    /// Reads a LAN's traffic counters.
    pub fn stats(&self, lan: LanId) -> LanStats {
        self.inner.lans.lock()[lan.0].stats
    }

    /// Starts recording realized suppressible faults (drop / duplicate /
    /// corrupt — not delays) on `lan`, clearing any previous recording.
    /// The timeline is read back with [`SimNet::recorded_faults`].
    pub fn record_faults(&self, lan: LanId) {
        self.inner.lans.lock()[lan.0].record = Some(Vec::new());
    }

    /// The faults recorded on `lan` since [`SimNet::record_faults`], in
    /// transmission order. Empty if recording was never enabled.
    pub fn recorded_faults(&self, lan: LanId) -> Vec<FaultEvent> {
        self.inner.lans.lock()[lan.0]
            .record
            .clone()
            .unwrap_or_default()
    }

    /// Suppresses injected faults on `lan` for every packet with
    /// `index >= cutoff`: the fault schedule still *draws* each packet's
    /// fate — so PRNG consumption per packet is identical to the unsuppressed
    /// run — but any drop / duplicate / corrupt outcome past the cutoff is
    /// overridden to Deliver (delays are left alone; they are timing, not
    /// faults, and suppressing them would shift every later draw's wire
    /// position). `Some(0)` suppresses everything, `None` disables
    /// suppression. This prefix semantics is what the chaos bisect driver
    /// binary-searches.
    pub fn suppress_faults_from(&self, lan: LanId, cutoff: Option<u64>) {
        self.inner.lans.lock()[lan.0].suppress_from = cutoff;
    }

    /// Captures every LAN's wire position, packet index, traffic counters,
    /// and installed fault schedule. Pairs with [`xkernel::sim::Sim::snapshot`]
    /// at the same quiescent instant, which is why only [`Template`] calls it.
    pub(crate) fn snapshot(&self) -> NetSnapshot {
        let lans = self.inner.lans.lock();
        NetSnapshot {
            lans: lans
                .iter()
                .map(|l| LanSnap {
                    wire_free: l.wire_free,
                    packet_index: l.packet_index,
                    stats: l.stats,
                    faults: l.faults.clone(),
                })
                .collect(),
        }
    }

    /// Restores state captured by [`SimNet::snapshot`]. Attachments are
    /// wiring, not state, and are untouched; recording/suppression controls
    /// are harness knobs and are also left alone.
    pub(crate) fn restore(&self, snap: &NetSnapshot) {
        let mut lans = self.inner.lans.lock();
        assert_eq!(
            lans.len(),
            snap.lans.len(),
            "snapshot restore onto a different network shape"
        );
        for (l, s) in lans.iter_mut().zip(&snap.lans) {
            l.wire_free = s.wire_free;
            l.packet_index = s.packet_index;
            l.stats = s.stats;
            l.faults = s.faults.clone();
        }
    }

    /// A LAN's configuration.
    pub fn lan_config(&self, lan: LanId) -> LanConfig {
        self.inner.lans.lock()[lan.0].cfg
    }

    /// Attaches `kernel` to `lan` with hardware address `eth`, registering
    /// the NIC as protocol `name` in the kernel (so graph specs can say
    /// `eth -> nic0`). Returns the NIC's protocol id.
    pub fn attach(
        &self,
        kernel: &Arc<Kernel>,
        lan: LanId,
        name: &str,
        eth: EthAddr,
    ) -> XResult<ProtoId> {
        let net = self.clone();
        let host = kernel.host();
        let mut created: Option<Rc<Nic>> = None;
        let contract = ProtoContract::new("nic", AddrKind::Device);
        let id = kernel.register(name, contract, |me| {
            let nic = Rc::new(Nic {
                me,
                sess: Rc::new(NicSession {
                    proto: me,
                    net: net.clone(),
                    lan,
                    eth,
                }),
                net,
                lan,
                eth,
                upper: UpperCell::new(),
            });
            created = Some(Rc::clone(&nic));
            Ok(nic as ProtocolRef)
        })?;
        let nic = created.expect("constructor ran");
        self.inner.lans.lock()[lan.0].attached.push(Attachment {
            host,
            eth,
            nic: Rc::downgrade(&nic),
        });
        Ok(id)
    }

    /// Transmits `frame` from `src` onto `lan`. The first six bytes of the
    /// frame are the destination hardware address (standard Ethernet
    /// framing), which the LAN uses for delivery filtering.
    fn transmit(&self, ctx: &Ctx, lan: LanId, src: EthAddr, frame: Message) -> XResult<()> {
        let mut dst = [0u8; 6];
        frame.peek_into(&mut dst)?;
        let dst = EthAddr(dst);

        ctx.charge_class(OpClass::Device, ctx.cost().device_op);

        let mut lans = self.inner.lans.lock();
        let l = &mut lans[lan.0];
        if frame.len() > l.cfg.mtu + 14 {
            return Err(XError::TooBig {
                size: frame.len(),
                max: l.cfg.mtu + 14,
            });
        }
        let index = l.packet_index;
        l.packet_index += 1;
        l.stats.sent += 1;
        l.stats.bytes += frame.len() as u64;

        // The frame hits the wire at this virtual instant (0 inline); fault
        // windows are evaluated against it.
        let now = match ctx.mode() {
            Mode::Scheduled => ctx.event_time(),
            Mode::Inline => 0,
        };

        // Fault decision (deterministic: sim PRNG under the lock). The frame
        // is materialized contiguously only when a custom FaultFn will
        // actually inspect its bytes, and that buffer is reused below for
        // any mutation — every fault path copies the frame at most once.
        let mut frame_bytes: Option<Vec<u8>> = None;
        let mut decision = if l.faults.is_none() {
            FaultDecision::Deliver
        } else {
            if l.faults.wants_frame_bytes() {
                frame_bytes = Some(frame.to_vec());
            }
            l.faults.decide(
                now,
                index,
                src,
                dst,
                frame_bytes.as_deref().unwrap_or(&[]),
                || ctx.next_u64(),
            )
        };

        // Bisect instrumentation. Record the drawn fate first, then apply
        // the suppression cutoff — the recorded timeline is what the
        // schedule *wanted*, the journal (below) is what actually happened.
        let suppressible = matches!(
            decision,
            FaultDecision::Drop
                | FaultDecision::Duplicate
                | FaultDecision::Corrupt
                | FaultDecision::CorruptAt(_)
        );
        if suppressible {
            if let Some(rec) = l.record.as_mut() {
                rec.push(FaultEvent {
                    at: now,
                    index,
                    decision,
                });
            }
            if l.suppress_from.is_some_and(|cutoff| index >= cutoff) {
                decision = FaultDecision::Deliver;
            }
        }
        // Journal the realized (post-suppression) fault so a replayed run
        // can be cross-checked against what this run actually injected.
        match decision {
            FaultDecision::Deliver => {}
            FaultDecision::Drop => {
                ctx.journal_fault(lan.0 as u32, index, xkernel::journal::FAULT_DROP, 0);
            }
            FaultDecision::Duplicate => {
                ctx.journal_fault(lan.0 as u32, index, xkernel::journal::FAULT_DUPLICATE, 0);
            }
            FaultDecision::Corrupt => {
                ctx.journal_fault(lan.0 as u32, index, xkernel::journal::FAULT_CORRUPT, 14);
            }
            FaultDecision::CorruptAt(at) => {
                ctx.journal_fault(
                    lan.0 as u32,
                    index,
                    xkernel::journal::FAULT_CORRUPT,
                    at as u64,
                );
            }
            FaultDecision::Delay(d) => {
                ctx.journal_fault(lan.0 as u32, index, xkernel::journal::FAULT_DELAY, d);
            }
        }

        let (copies, extra_delay, corrupt_at) = match decision {
            FaultDecision::Drop => {
                l.stats.dropped += 1;
                return Ok(());
            }
            FaultDecision::Deliver => (1, 0, None),
            FaultDecision::Duplicate => {
                l.stats.duplicated += 1;
                (2, 0, None)
            }
            FaultDecision::Corrupt => {
                l.stats.corrupted += 1;
                // Default flip lands just past the 14-byte Ethernet framing,
                // in the first network-header byte.
                (1, 0, Some(14))
            }
            FaultDecision::CorruptAt(at) => {
                l.stats.corrupted += 1;
                (1, 0, Some(at))
            }
            FaultDecision::Delay(d) => (1, d, None),
        };

        let payload = if let Some(at) = corrupt_at {
            let mut v = frame_bytes.take().unwrap_or_else(|| frame.to_vec());
            // Flip a byte beyond the destination address so the frame still
            // arrives somewhere and higher-level checksums must catch it.
            let at = at.max(6).min(v.len().saturating_sub(1));
            v[at] ^= 0xff;
            Message::from_wire(v)
        } else if l.cfg.pad_frames && frame.len() < l.cfg.min_frame {
            let mut v = frame_bytes.take().unwrap_or_else(|| frame.to_vec());
            v.resize(l.cfg.min_frame, 0);
            Message::from_wire(v)
        } else {
            frame
        };

        let tx = l.cfg.tx_time(payload.len());
        let prop = l.cfg.propagation_ns;
        l.stats.busy_ns += tx * copies as u64;

        // Receivers. A unicast frame has at most one, found without a scan
        // and held without a list; only a broadcast (or an address attached
        // twice) collects the others, for the deliveries below, which run
        // after the network is let go.
        let mut listening = l
            .attached
            .receivers(src, dst)
            .filter_map(|a| Some((a.host, a.nic.upgrade()?)));
        let first = listening.next();
        let others: Vec<(HostId, Rc<Nic>)> = listening.collect();
        let receivers = || first.iter().chain(&others);
        if first.is_some() {
            l.stats.delivered += copies as u64;
        }

        // One frame, possibly many deliveries. With real fan-out (broadcast
        // or duplication) the payload's front buffer is frozen into an
        // Rc-shared segment first, so per-receiver clones bump a refcount
        // instead of copying header bytes. The single-delivery common case
        // skips the freeze and *moves* the message — zero copies either way.
        let mut pending = Some(payload);
        let total = copies * (first.iter().len() + others.len());
        if total > 1 {
            pending.as_mut().expect("payload present").share();
        }
        let mut left = total;
        let mut next_copy = move || {
            left -= 1;
            if left == 0 {
                pending.take().expect("last delivery")
            } else {
                pending.as_ref().expect("payload present").clone()
            }
        };

        match ctx.mode() {
            Mode::Inline => {
                drop(lans);
                for _ in 0..copies {
                    for (host, nic) in receivers() {
                        let rctx = ctx.with_host(*host);
                        nic.deliver_up(&rctx, next_copy())?;
                    }
                }
            }
            Mode::Scheduled => {
                // Wire contention: transmission starts when both the sender
                // is ready and the wire is free.
                let start = now.max(l.wire_free);
                l.wire_free = start + tx * copies as u64;
                let arrival = start + tx + prop + extra_delay;
                drop(lans);
                for copy in 0..copies {
                    let at = arrival + copy as u64 * tx;
                    for (host, nic) in receivers() {
                        let rx = Rc::clone(nic) as Rc<dyn Receiver>;
                        ctx.deliver_at(at, *host, rx, next_copy());
                    }
                }
            }
        }
        Ok(())
    }
}

/// The bottom-of-stack device protocol: one per (host, LAN) attachment.
pub struct Nic {
    me: ProtoId,
    net: SimNet,
    lan: LanId,
    eth: EthAddr,
    /// The NIC's one session, built with it: what `open` hands out and what
    /// every frame is delivered up on.
    sess: SessionRef,
    /// The NIC's one user (the ETH protocol above), bound by its open.
    upper: UpperCell,
}

impl Nic {
    /// The LAN this NIC is attached to.
    pub fn lan(&self) -> LanId {
        self.lan
    }

    fn deliver_up(&self, ctx: &Ctx, msg: Message) -> XResult<()> {
        let upper = self
            .upper
            .get()
            .ok_or(XError::Unsupported("frame at a nic with no upper protocol"))?;
        ctx.kernel_ref().demux_to(ctx, upper, &self.sess, msg)
    }
}

/// A scheduled frame's arrival: the process the wire files for it pays the
/// dispatch and hands the frame up.
impl Receiver for Nic {
    fn receive(&self, ctx: &Ctx, msg: Message) {
        ctx.charge_class(OpClass::Dispatch, ctx.cost().dispatch);
        // A layer's refusal was counted at its demux seam; no other error
        // has a caller here.
        let _ = self.deliver_up(ctx, msg);
    }
}

struct NicSession {
    proto: ProtoId,
    net: SimNet,
    lan: LanId,
    eth: EthAddr,
}

impl Session for NicSession {
    fn protocol_id(&self) -> ProtoId {
        self.proto
    }

    fn push(&self, ctx: &Ctx, msg: Message) -> XResult<Option<Message>> {
        self.net.transmit(ctx, self.lan, self.eth, msg)?;
        Ok(None)
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            ControlOp::GetMaxPacket | ControlOp::GetOptPacket => {
                Ok(ControlRes::Size(self.net.lan_config(self.lan).mtu + 14))
            }
            ControlOp::GetMyEth => Ok(ControlRes::Eth(self.eth)),
            _ => {
                let _ = ctx;
                Err(XError::Unsupported("nic session control"))
            }
        }
    }
}

impl Protocol for Nic {
    fn id(&self) -> ProtoId {
        self.me
    }

    fn keeps(&self, k: &mut Keep<'_>) {
        k.config(&self.upper);
    }

    fn open(&self, _ctx: &Ctx, upper: ProtoId, _parts: &ParticipantSet) -> XResult<SessionRef> {
        // A NIC has exactly one user (the ETH protocol); opening binds it.
        self.upper.set(Some(upper));
        Ok(Rc::clone(&self.sess))
    }

    fn open_enable(&self, _ctx: &Ctx, upper: ProtoId, _parts: &ParticipantSet) -> XResult<()> {
        self.upper.set(Some(upper));
        Ok(())
    }

    fn demux(&self, _ctx: &Ctx, _lls: &SessionRef, _msg: Message) -> XResult<()> {
        Err(XError::Unsupported("nic is the bottom of the stack"))
    }

    fn control(&self, _ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            ControlOp::GetMaxPacket | ControlOp::GetOptPacket => {
                Ok(ControlRes::Size(self.net.lan_config(self.lan).mtu + 14))
            }
            ControlOp::GetMyEth => Ok(ControlRes::Eth(self.eth)),
            _ => Err(XError::Unsupported("nic control")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;
    use xkernel::cost::CostModel;
    use xkernel::sim::SimConfig;

    /// Records frames delivered to it.
    struct Recorder {
        me: ProtoId,
        got: OwnerCell<Vec<Vec<u8>>>,
    }

    /// Hosts in the order frames reached them, segment-wide.
    type Arrivals = Rc<OwnerCell<Vec<HostId>>>;

    /// Signs a segment-wide arrival log with its host.
    struct Signer {
        me: ProtoId,
        log: Arrivals,
    }

    impl Protocol for Signer {
        fn id(&self) -> ProtoId {
            self.me
        }
        fn keeps(&self, _k: &mut Keep<'_>) {}
        fn open(&self, _c: &Ctx, _u: ProtoId, _p: &ParticipantSet) -> XResult<SessionRef> {
            Err(XError::Unsupported("signer"))
        }
        fn open_enable(&self, _c: &Ctx, _u: ProtoId, _p: &ParticipantSet) -> XResult<()> {
            Ok(())
        }
        fn demux(&self, ctx: &Ctx, _lls: &SessionRef, _msg: Message) -> XResult<()> {
            self.log.lock().push(ctx.host());
            Ok(())
        }
    }

    impl Protocol for Recorder {
        fn id(&self) -> ProtoId {
            self.me
        }
        fn keeps(&self, _k: &mut Keep<'_>) {}
        fn open(&self, _c: &Ctx, _u: ProtoId, _p: &ParticipantSet) -> XResult<SessionRef> {
            Err(XError::Unsupported("recorder"))
        }
        fn open_enable(&self, _c: &Ctx, _u: ProtoId, _p: &ParticipantSet) -> XResult<()> {
            Ok(())
        }
        fn demux(&self, _ctx: &Ctx, _lls: &SessionRef, msg: Message) -> XResult<()> {
            self.got.lock().push(msg.to_vec());
            Ok(())
        }
    }

    struct Rig {
        sim: Sim,
        net: SimNet,
        lan: LanId,
        kernels: Vec<Arc<Kernel>>,
        nics: Vec<SessionRef>,
    }

    fn rig(mode: Mode, n: usize) -> Rig {
        let cfg = match mode {
            Mode::Inline => SimConfig::inline_mode(),
            Mode::Scheduled => SimConfig::scheduled().with_cost(CostModel::zero()),
        };
        let sim = Sim::new(cfg);
        let net = SimNet::new(&sim);
        let lan = net.add_lan(LanConfig::default());
        let mut kernels = Vec::new();
        let mut nics = Vec::new();
        for i in 0..n {
            let k = Kernel::new(&sim, &format!("h{i}"));
            let nic_id = net
                .attach(&k, lan, "nic0", EthAddr::from_index(i as u16 + 1))
                .unwrap();
            let rec_id = k
                .register("rec", ProtoContract::opaque("recorder"), |me| {
                    Ok(Rc::new(Recorder {
                        me,
                        got: OwnerCell::new(Vec::new()),
                    }) as ProtocolRef)
                })
                .unwrap();
            let ctx = sim.ctx(k.host());
            let sess = k
                .open(&ctx, nic_id, rec_id, &ParticipantSet::new())
                .unwrap();
            kernels.push(k);
            nics.push(sess);
        }
        Rig {
            sim,
            net,
            lan,
            kernels,
            nics,
        }
    }

    fn frame_to(dst: EthAddr, body: &[u8]) -> Message {
        let mut v = dst.0.to_vec();
        v.extend_from_slice(body);
        Message::from_wire(v)
    }

    fn received(rig: &Rig, host: usize) -> Vec<Vec<u8>> {
        let rec = rig.kernels[host].get("rec").unwrap();
        let rec: &dyn Any = &*rec;
        let got = rec.downcast_ref::<Recorder>().unwrap().got.lock().clone();
        got
    }

    #[test]
    fn unicast_reaches_only_destination_inline() {
        let r = rig(Mode::Inline, 3);
        let ctx = r.sim.ctx(HostId(0));
        r.nics[0]
            .push(&ctx, frame_to(EthAddr::from_index(2), b"ping"))
            .unwrap();
        assert_eq!(received(&r, 1).len(), 1);
        assert_eq!(received(&r, 2).len(), 0);
        assert_eq!(received(&r, 0).len(), 0, "sender does not hear itself");
    }

    #[test]
    fn broadcast_reaches_everyone_else() {
        let r = rig(Mode::Inline, 3);
        let ctx = r.sim.ctx(HostId(0));
        r.nics[0]
            .push(&ctx, frame_to(EthAddr::BROADCAST, b"hail"))
            .unwrap();
        assert_eq!(received(&r, 1).len(), 1);
        assert_eq!(received(&r, 2).len(), 1);
        assert_eq!(received(&r, 0).len(), 0);
    }

    #[test]
    fn scheduled_delivery_arrives_after_tx_plus_prop() {
        let r = rig(Mode::Scheduled, 2);
        let nic = r.nics[0].clone();
        r.sim.spawn(HostId(0), move |ctx| {
            nic.push(ctx, frame_to(EthAddr::from_index(2), &[7u8; 100]))
                .unwrap();
        });
        let report = r.sim.run_until_idle();
        assert_eq!(received(&r, 1).len(), 1);
        let cfg = r.net.lan_config(r.lan);
        let expect = cfg.tx_time(106) + cfg.propagation_ns;
        assert_eq!(report.ended_at, expect);
    }

    #[test]
    fn wire_serializes_back_to_back_frames() {
        let r = rig(Mode::Scheduled, 2);
        let nic = r.nics[0].clone();
        r.sim.spawn(HostId(0), move |ctx| {
            for _ in 0..3 {
                nic.push(ctx, frame_to(EthAddr::from_index(2), &[1u8; 1400]))
                    .unwrap();
            }
        });
        let report = r.sim.run_until_idle();
        let cfg = r.net.lan_config(r.lan);
        // Three frames serialized on the wire: last arrival ≈ 3*tx + prop.
        let expect = 3 * cfg.tx_time(1406) + cfg.propagation_ns;
        assert_eq!(report.ended_at, expect);
        assert_eq!(received(&r, 1).len(), 3);
        assert_eq!(r.net.stats(r.lan).sent, 3);
    }

    #[test]
    fn drop_script_loses_exact_packets() {
        let r = rig(Mode::Scheduled, 2);
        r.net.set_faults(r.lan, FaultPlan::drop_exactly([1]));
        let nic = r.nics[0].clone();
        r.sim.spawn(HostId(0), move |ctx| {
            for i in 0..3u8 {
                nic.push(ctx, frame_to(EthAddr::from_index(2), &[i]))
                    .unwrap();
            }
        });
        r.sim.run_until_idle();
        let got = received(&r, 1);
        assert_eq!(got.len(), 2);
        assert_eq!(r.net.stats(r.lan).dropped, 1);
        // Frame payload byte after the 6-byte dst: packets 0 and 2 arrive.
        assert_eq!(got[0][6], 0);
        assert_eq!(got[1][6], 2);
    }

    #[test]
    fn duplication_delivers_twice() {
        let r = rig(Mode::Scheduled, 2);
        r.net.set_faults(
            r.lan,
            FaultPlan {
                custom: Some(Arc::new(|i, _| {
                    if i == 0 {
                        FaultDecision::Duplicate
                    } else {
                        FaultDecision::Deliver
                    }
                })),
                ..FaultPlan::default()
            },
        );
        let nic = r.nics[0].clone();
        r.sim.spawn(HostId(0), move |ctx| {
            nic.push(ctx, frame_to(EthAddr::from_index(2), b"x"))
                .unwrap();
        });
        r.sim.run_until_idle();
        assert_eq!(received(&r, 1).len(), 2);
    }

    #[test]
    fn corruption_flips_a_byte() {
        let r = rig(Mode::Scheduled, 2);
        r.net.set_faults(
            r.lan,
            FaultPlan {
                corrupt_per_mille: 1000,
                ..FaultPlan::default()
            },
        );
        let nic = r.nics[0].clone();
        r.sim.spawn(HostId(0), move |ctx| {
            nic.push(ctx, frame_to(EthAddr::from_index(2), &[0u8; 32]))
                .unwrap();
        });
        r.sim.run_until_idle();
        let got = received(&r, 1);
        assert_eq!(got.len(), 1);
        assert_ne!(got[0][6..], [0u8; 32][..], "payload must be corrupted");
    }

    #[test]
    fn oversized_frame_rejected() {
        let r = rig(Mode::Inline, 2);
        let ctx = r.sim.ctx(HostId(0));
        let err = r.nics[0]
            .push(&ctx, frame_to(EthAddr::from_index(2), &vec![0u8; 2000]))
            .unwrap_err();
        assert!(matches!(err, XError::TooBig { .. }));
    }

    #[test]
    fn nic_control_ops() {
        let r = rig(Mode::Inline, 2);
        let ctx = r.sim.ctx(HostId(0));
        assert_eq!(
            r.nics[0]
                .control(&ctx, &ControlOp::GetMaxPacket)
                .unwrap()
                .size()
                .unwrap(),
            1514
        );
        assert_eq!(
            r.nics[0]
                .control(&ctx, &ControlOp::GetMyEth)
                .unwrap()
                .eth()
                .unwrap(),
            EthAddr::from_index(1)
        );
    }

    #[test]
    fn padding_pads_small_frames_to_min_frame() {
        let sim = Sim::new(xkernel::sim::SimConfig::inline_mode());
        let net = SimNet::new(&sim);
        let lan = net.add_lan(LanConfig {
            pad_frames: true,
            ..LanConfig::default()
        });
        let mut kernels = Vec::new();
        let mut nics = Vec::new();
        for i in 0..2u16 {
            let k = Kernel::new(&sim, &format!("h{i}"));
            let nic_id = net
                .attach(&k, lan, "nic0", EthAddr::from_index(i + 1))
                .unwrap();
            let rec_id = k
                .register("rec", ProtoContract::opaque("recorder"), |me| {
                    Ok(Rc::new(Recorder {
                        me,
                        got: OwnerCell::new(Vec::new()),
                    }) as ProtocolRef)
                })
                .unwrap();
            let ctx = sim.ctx(k.host());
            let sess = k
                .open(&ctx, nic_id, rec_id, &ParticipantSet::new())
                .unwrap();
            kernels.push(k);
            nics.push(sess);
        }
        let ctx = sim.ctx(HostId(0));
        let mut v = EthAddr::from_index(2).0.to_vec();
        v.extend_from_slice(b"short");
        nics[0].push(&ctx, Message::from_wire(v)).unwrap();
        let rec = kernels[1].get("rec").unwrap();
        let rec: &dyn Any = &*rec;
        let got = rec.downcast_ref::<Recorder>().unwrap().got.lock().clone();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].len(), 64, "frame padded to min_frame");
        assert_eq!(&got[0][6..11], b"short");
        assert!(got[0][11..].iter().all(|b| *b == 0), "zero padding");
    }

    #[test]
    fn deterministic_delay_reorders_back_to_back_frames() {
        let r = rig(Mode::Scheduled, 2);
        r.net.set_faults(
            r.lan,
            FaultPlan {
                // Delay only the first frame far enough that the second
                // overtakes it.
                custom: Some(Arc::new(|i, _| {
                    if i == 0 {
                        FaultDecision::Delay(50_000_000)
                    } else {
                        FaultDecision::Deliver
                    }
                })),
                ..FaultPlan::default()
            },
        );
        let nic = r.nics[0].clone();
        r.sim.spawn(HostId(0), move |ctx| {
            nic.push(ctx, frame_to(EthAddr::from_index(2), &[1]))
                .unwrap();
            nic.push(ctx, frame_to(EthAddr::from_index(2), &[2]))
                .unwrap();
        });
        r.sim.run_until_idle();
        let got = received(&r, 1);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0][6], 2, "second frame overtook the delayed first");
        assert_eq!(got[1][6], 1);
    }

    #[test]
    fn partition_window_heals_at_schedule() {
        let r = rig(Mode::Scheduled, 2);
        let a = EthAddr::from_index(1);
        let b = EthAddr::from_index(2);
        r.net
            .set_fault_schedule(r.lan, FaultSchedule::none().partition(a, b, 0, 10_000_000));
        let nic = r.nics[0].clone();
        r.sim.spawn(HostId(0), move |ctx| {
            // Sent inside the partition window: dropped.
            nic.push(ctx, frame_to(EthAddr::from_index(2), &[1]))
                .unwrap();
            // Sent after the scheduled healing instant: delivered.
            ctx.sleep(20_000_000);
            nic.push(ctx, frame_to(EthAddr::from_index(2), &[2]))
                .unwrap();
        });
        r.sim.run_until_idle();
        let got = received(&r, 1);
        assert_eq!(got.len(), 1, "only the post-heal frame arrives");
        assert_eq!(got[0][6], 2);
        assert_eq!(r.net.stats(r.lan).dropped, 1);
    }

    #[test]
    fn corrupt_at_flips_requested_offset() {
        let r = rig(Mode::Scheduled, 2);
        r.net.set_faults(
            r.lan,
            FaultPlan {
                custom: Some(Arc::new(|_, _| FaultDecision::CorruptAt(20))),
                ..FaultPlan::default()
            },
        );
        let nic = r.nics[0].clone();
        r.sim.spawn(HostId(0), move |ctx| {
            nic.push(ctx, frame_to(EthAddr::from_index(2), &[0u8; 32]))
                .unwrap();
        });
        r.sim.run_until_idle();
        let got = received(&r, 1);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0][20], 0xff, "byte at the requested offset flipped");
        assert_eq!(r.net.stats(r.lan).corrupted, 1);
    }

    #[test]
    fn utilization_accounts_wire_time() {
        let r = rig(Mode::Scheduled, 2);
        let nic = r.nics[0].clone();
        r.sim.spawn(HostId(0), move |ctx| {
            for _ in 0..5 {
                nic.push(ctx, frame_to(EthAddr::from_index(2), &[9u8; 1000]))
                    .unwrap();
            }
        });
        let report = r.sim.run_until_idle();
        let s = r.net.stats(r.lan);
        assert!(s.busy_ns > 0);
        assert!(s.busy_ns <= report.ended_at);
    }

    /// A 32-host segment, addresses handed out against attach order, one
    /// address attached twice and one NIC gone: every frame reaches exactly
    /// the hosts the attachment scan reached, in attach order, copy by copy.
    #[test]
    fn a_segment_of_thirty_two_delivers_in_attach_order() {
        const HOSTS: usize = 32;
        let sim = Sim::new(SimConfig::scheduled().with_cost(CostModel::zero()));
        let net = SimNet::new(&sim);
        let lan = net.add_lan(LanConfig::default());
        let log: Arrivals = Rc::new(OwnerCell::new(Vec::new()));
        // Host 20 answers to host 9's address too.
        let eth_of = |i: usize| EthAddr::from_index(if i == 20 { 91 } else { 100 - i as u16 });
        let mut nics = Vec::new();
        for i in 0..HOSTS {
            let k = Kernel::new(&sim, &format!("h{i}"));
            let nic_id = net.attach(&k, lan, "nic0", eth_of(i)).unwrap();
            let log = Rc::clone(&log);
            let up = k
                .register("signer", ProtoContract::opaque("signer"), |me| {
                    Ok(Rc::new(Signer { me, log }) as ProtocolRef)
                })
                .unwrap();
            let ctx = sim.ctx(k.host());
            nics.push(k.open(&ctx, nic_id, up, &ParticipantSet::new()).unwrap());
        }
        // A NIC whose kernel is gone: its address still resolves, to nobody.
        let gone = EthAddr::from_index(7);
        net.inner.lans.lock()[lan.0].attached.push(Attachment {
            host: HostId(HOSTS),
            eth: gone,
            nic: Weak::new(),
        });

        let send = |from: usize, dst: EthAddr| {
            log.lock().clear();
            let nic = nics[from].clone();
            sim.spawn(HostId(from), move |ctx| {
                nic.push(ctx, frame_to(dst, b"x")).unwrap();
            });
            sim.run_until_idle();
            let got: Vec<usize> = log.lock().iter().map(|h| h.0).collect();
            got
        };
        let everyone_but = |from: usize| (0..HOSTS).filter(|&i| i != from).collect::<Vec<_>>();

        assert_eq!(send(0, eth_of(17)), [17]);
        assert_eq!(send(17, eth_of(0)), [0]);
        assert_eq!(send(3, eth_of(3)), [], "a sender does not hear itself");
        assert_eq!(send(3, EthAddr::from_index(500)), [], "nobody has it");
        assert_eq!(send(3, gone), [], "its NIC is gone");
        assert_eq!(send(0, eth_of(9)), [9, 20], "both holders, in attach order");
        assert_eq!(
            send(9, eth_of(9)),
            [],
            "the address filter is on the address"
        );
        assert_eq!(send(5, EthAddr::BROADCAST), everyone_but(5));
        let s = net.stats(lan);
        assert_eq!((s.sent, s.delivered), (8, 4));

        net.set_faults(
            lan,
            FaultPlan {
                custom: Some(Arc::new(|_, _| FaultDecision::Duplicate)),
                ..FaultPlan::default()
            },
        );
        assert_eq!(send(0, eth_of(17)), [17, 17]);
        assert_eq!(send(0, eth_of(9)), [9, 20, 9, 20]);
        assert_eq!(send(3, gone), []);
        assert_eq!(
            send(31, EthAddr::BROADCAST),
            [everyone_but(31), everyone_but(31)].concat()
        );
        let s = net.stats(lan);
        assert_eq!((s.sent, s.duplicated, s.delivered), (12, 4, 10));
    }
}
