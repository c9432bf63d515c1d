//! ARP — address resolution (RFC 826 style).
//!
//! Resolves 32-bit internet addresses to 48-bit hardware addresses by
//! broadcasting a request on the local wire. Two roles in this suite:
//!
//! 1. The ordinary one: IP uses it to find the next hop's hardware address.
//! 2. The paper's locality oracle: "VIP next decides if the destination host
//!    is reachable via the ethernet by trying to resolve the IP address
//!    using ARP. If ARP can resolve the address, then the destination host
//!    must be on the local ethernet" — a resolution *timeout* means the host
//!    is not local.
//!
//! Negative results are cached (like the paper's suggested table of
//! VIP-speaking hosts) so remote peers do not pay the probe on every open.

use std::cell::OnceCell;
use std::rc::Rc;

use xkernel::cell::OwnerCell;

use xkernel::map::MixMap;
use xkernel::prelude::*;

use crate::eth::eth_type;

const OP_REQUEST: u16 = 1;
const OP_REPLY: u16 = 2;

wire_header! {
    /// An ARP packet (this suite's compact layout: no hardware/protocol type
    /// and length fields, since only IP over Ethernet is ever resolved).
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct ArpPkt: ARP_PKT_LEN, "arp" {
        /// Request (1) or reply (2).
        pub op: u16,
        /// Sender's internet address.
        pub sip: IpAddr,
        /// Sender's hardware address.
        pub seth: EthAddr,
        /// Target's internet address.
        pub tip: IpAddr,
        /// Target's hardware address (broadcast in a request).
        pub teth: EthAddr,
    }
}

/// Per-attempt resolution timeout (virtual ns).
pub const ARP_TIMEOUT_NS: u64 = 50_000_000;
/// Number of request attempts before declaring the host non-local.
pub const ARP_RETRIES: u32 = 3;
/// How long a negative (not-local) conclusion is believed before the wire
/// is probed again — requests or replies may simply have been lost.
pub const ARP_NEGATIVE_TTL_NS: u64 = 10_000_000_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Entry {
    Known(EthAddr),
    /// Probed and unanswered at the recorded time: host was not on this
    /// wire then.
    NotLocal(u64),
}

/// Default translation-table capacity (entries).
pub const ARP_DEFAULT_CACHE: usize = 512;

/// A bounded translation table with least-recently-used replacement.
/// Recency is a logical access counter, not wall time, so eviction order
/// is deterministic; ties (possible only via [`ArpCache::clear`], which
/// rewinds nothing) break towards the numerically smallest address.
#[derive(Clone)]
struct ArpCache {
    map: MixMap<IpAddr, (Entry, u64)>,
    capacity: usize,
    tick: u64,
    evictions: u64,
}

impl ArpCache {
    fn new(capacity: usize) -> ArpCache {
        ArpCache {
            map: MixMap::default(),
            capacity: capacity.max(1),
            tick: 0,
            evictions: 0,
        }
    }

    /// Looks `ip` up and marks the entry most-recently used.
    fn get(&mut self, ip: IpAddr) -> Option<Entry> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(&ip).map(|slot| {
            slot.1 = tick;
            slot.0
        })
    }

    /// Inserts (or refreshes) `ip`, evicting the least-recently-used
    /// entry when the table is at capacity.
    fn insert(&mut self, ip: IpAddr, entry: Entry) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(slot) = self.map.get_mut(&ip) {
            *slot = (entry, tick);
            return;
        }
        if self.map.len() >= self.capacity {
            if let Some(victim) = self
                .map
                .iter()
                .map(|(k, (_, t))| (*t, k.0))
                .min()
                .map(|(_, k)| IpAddr(k))
            {
                self.map.remove(&victim);
                self.evictions += 1;
            }
        }
        self.map.insert(ip, (entry, tick));
    }

    fn clear(&mut self) {
        self.map.clear();
    }
}

/// The ARP protocol object.
pub struct Arp {
    me: ProtoId,
    eth: ProtoId,
    my_ip: IpAddr,
    my_eth: OnceCell<EthAddr>,
    bcast: OnceCell<SessionRef>,
    cache: OwnerCell<ArpCache>,
    waiters: OwnerCell<MixMap<IpAddr, Vec<SharedSema>>>,
}

impl Arp {
    /// Creates an ARP protocol above `eth`, answering for `my_ip`, with a
    /// translation table bounded to `capacity` entries (LRU replacement).
    pub fn new(me: ProtoId, eth: ProtoId, my_ip: IpAddr, capacity: usize) -> Rc<Arp> {
        Rc::new(Arp {
            me,
            eth,
            my_ip,
            my_eth: OnceCell::new(),
            bcast: OnceCell::new(),
            cache: OwnerCell::new(ArpCache::new(capacity)),
            waiters: OwnerCell::new(MixMap::default()),
        })
    }

    /// Number of entries currently cached.
    pub fn cache_len(&self) -> usize {
        self.cache.lock().map.len()
    }

    /// Entries evicted by LRU replacement since boot.
    pub fn cache_evictions(&self) -> u64 {
        self.cache.lock().evictions
    }

    /// The internet address this ARP answers for.
    pub fn my_ip(&self) -> IpAddr {
        self.my_ip
    }

    /// An ARP packet from this host, as the message ETH carries.
    fn packet(&self, ctx: &Ctx, op: u16, tip: IpAddr, teth: EthAddr) -> Message {
        let pkt = ArpPkt {
            op,
            sip: self.my_ip,
            seth: *self.my_eth.get().expect("arp booted"),
            tip,
            teth,
        };
        ctx.msg(pkt.encode().to_vec())
    }

    fn install(&self, ip: IpAddr, eth: EthAddr, ctx: &Ctx) {
        self.cache.lock().insert(ip, Entry::Known(eth));
        // Bound first: an `if let` on the call would keep the guard across
        // the wake-ups.
        let ws = self.waiters.lock().remove(&ip);
        for w in ws.into_iter().flatten() {
            w.v(ctx);
        }
    }

    /// Resolves `ip`, probing the wire if needed. `Err(Unreachable)` means
    /// the host did not answer: it is not on this Ethernet.
    pub fn resolve(&self, ctx: &Ctx, ip: IpAddr) -> XResult<EthAddr> {
        if ip == self.my_ip {
            return Ok(*self.my_eth.get().expect("arp booted"));
        }
        if ip.is_broadcast() {
            return Ok(EthAddr::BROADCAST);
        }
        ctx.charge_class(OpClass::Demux, ctx.cost().demux_lookup); // Cache lookup.
        match self.cache.lock().get(ip) {
            Some(Entry::Known(e)) => return Ok(e),
            Some(Entry::NotLocal(at)) if ctx.now().saturating_sub(at) < ARP_NEGATIVE_TTL_NS => {
                return Err(XError::Unreachable(format!("{ip} not on local ethernet")))
            }
            _ => {}
        }
        let bcast = self
            .bcast
            .get()
            .ok_or_else(|| XError::Config("arp used before boot".into()))?;
        for _attempt in 0..ARP_RETRIES {
            let sema = SharedSema::new(0);
            self.waiters
                .lock()
                .entry(ip)
                .or_default()
                .push(sema.clone());
            bcast.push(ctx, self.packet(ctx, OP_REQUEST, ip, EthAddr::BROADCAST))?;
            // In inline mode a live host has already answered during the
            // push above; p_timeout returns immediately either way.
            let _ = sema.p_timeout(ctx, ARP_TIMEOUT_NS);
            if let Some(Entry::Known(e)) = self.cache.lock().get(ip) {
                return Ok(e);
            }
        }
        // Cache the negative result (with a TTL) so later opens fail fast,
        // as the paper's proposed host table would.
        self.cache.lock().insert(ip, Entry::NotLocal(ctx.now()));
        self.waiters.lock().remove(&ip);
        Err(XError::Unreachable(format!("{ip} not on local ethernet")))
    }
}

impl Protocol for Arp {
    fn id(&self) -> ProtoId {
        self.me
    }

    // The translation table survives a reboot; parked resolvers do not.
    fn keeps(&self, k: &mut Keep<'_>) {
        k.values(&self.cache);
        k.scratch(&self.waiters);
    }

    fn boot(&self, ctx: &Ctx) -> XResult<()> {
        let kernel = ctx.kernel_ref();
        let parts = ParticipantSet::local(Participant::proto(u32::from(eth_type::ARP)));
        kernel.open_enable(ctx, self.eth, self.me, &parts)?;
        let bparts = ParticipantSet::pair(
            Participant::proto(u32::from(eth_type::ARP)),
            Participant::default().with_eth(EthAddr::BROADCAST),
        );
        let sess = kernel.open(ctx, self.eth, self.me, &bparts)?;
        let my_eth = sess.control(ctx, &ControlOp::GetMyEth)?.eth()?;
        self.my_eth
            .set(my_eth)
            .map_err(|_| XError::Config("arp double boot".into()))?;
        self.bcast
            .set(sess)
            .map_err(|_| XError::Config("arp double boot".into()))?;
        Ok(())
    }

    fn open(&self, _ctx: &Ctx, _upper: ProtoId, _parts: &ParticipantSet) -> XResult<SessionRef> {
        Err(XError::Unsupported("arp is control-only: use Resolve"))
    }

    fn open_enable(&self, _ctx: &Ctx, _upper: ProtoId, _parts: &ParticipantSet) -> XResult<()> {
        Err(XError::Unsupported("arp is control-only"))
    }

    fn demux(&self, ctx: &Ctx, _lls: &SessionRef, mut msg: Message) -> XResult<()> {
        let ArpPkt {
            op, sip, seth, tip, ..
        } = ArpPkt::decode(&ctx.pop_header(&mut msg, ARP_PKT_LEN)?)?;

        // Opportunistically learn the sender's mapping.
        self.install(sip, seth, ctx);

        if op == OP_REQUEST && tip == self.my_ip {
            let reply = self.packet(ctx, OP_REPLY, sip, seth);
            // Answer unicast to the requester.
            let parts = ParticipantSet::pair(
                Participant::proto(u32::from(eth_type::ARP)),
                Participant::default().with_eth(seth),
            );
            let sess = ctx.kernel_ref().open(ctx, self.eth, self.me, &parts)?;
            sess.push(ctx, reply)?;
        }
        Ok(())
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            ControlOp::Resolve(ip) => Ok(ControlRes::Eth(self.resolve(ctx, *ip)?)),
            ControlOp::InstallResolve(ip, eth) => {
                self.install(*ip, *eth, ctx);
                Ok(ControlRes::Done)
            }
            ControlOp::GetMyHost => Ok(ControlRes::Ip(self.my_ip)),
            ControlOp::GetMyEth => Ok(ControlRes::Eth(*self.my_eth.get().expect("arp booted"))),
            ControlOp::Custom("flush", _) => {
                self.cache.lock().clear();
                Ok(ControlRes::Done)
            }
            _ => Err(XError::Unsupported("arp control")),
        }
    }
}
