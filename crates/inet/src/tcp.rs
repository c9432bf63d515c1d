//! TCP — a minimal but real byte-stream transport.
//!
//! Implements the three-way handshake, cumulative acknowledgements, a fixed
//! sliding window, retransmission on timeout, and FIN teardown. No
//! congestion control and no urgent data — this is the smallest TCP that
//! exercises the property the paper cares about:
//!
//! > "TCP depends on the length field in the IP header (the TCP header does
//! > not have a length field of its own) and TCP computes a checksum that
//! > covers the IP header. ... The conclusion we draw ... is that when
//! > designing protocols, one should eliminate unnecessary dependencies on
//! > other protocols."
//!
//! Faithfully to that, our TCP checksums every segment over a pseudo-header
//! built from the lower session's host addresses and treats *all* the bytes
//! the lower layer delivers as segment payload (it has no length field of
//! its own). Over IP that is correct — IP's `total_len` trims link padding.
//! Over VIP's raw-Ethernet path no lower session can name the pseudo-header's
//! addresses and, with minimum-frame padding ([`simnet::LanConfig::min_frame`],
//! `pad_frames`), segments carry pad bytes: the checksum rejects (and counts)
//! every one, and the connection is never established — the negative result.

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::rc::{Rc, Weak};

use xkernel::cell::OwnerCell;
use xkernel::keep::Rewind;

use xkernel::prelude::*;

use crate::ip::ip_proto;

/// TCP header length (no options).
pub const TCP_HDR_LEN: usize = 20;
/// Maximum segment payload we send.
pub const TCP_MSS: usize = 1400;
/// Fixed send window, in segments.
pub const TCP_WINDOW_SEGS: usize = 8;
/// Retransmission timeout (virtual ns).
pub const TCP_RTO_NS: u64 = 200_000_000;
/// Maximum retransmissions before giving up.
pub const TCP_MAX_RETRIES: u32 = 8;
/// Connect/accept timeout (virtual ns).
pub const TCP_CONNECT_TIMEOUT_NS: u64 = 2_000_000_000;

/// A listener's pending-connection queue and its wake signal.
type AcceptQueue = (SharedSema, Rc<OwnerCell<VecDeque<Rc<TcpConn>>>>);

const FLAG_FIN: u8 = 0x01;
const FLAG_SYN: u8 = 0x02;
const FLAG_ACK: u8 = 0x10;

/// The fixed TCP header (no options).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TcpHeader {
    /// Sender's port.
    pub src_port: Port,
    /// Receiver's port.
    pub dst_port: Port,
    /// Sequence number of the first payload byte.
    pub seq: u32,
    /// Next sequence number the sender expects.
    pub ack: u32,
    /// FIN / SYN / ACK bits.
    pub flags: u8,
    /// Receive window.
    pub window: u16,
}

/// Length of the pseudo-header the TCP checksum covers.
const TCP_PSEUDO_LEN: usize = 12;

impl TcpHeader {
    /// Encodes to network byte order, with the checksum over `pseudo`, the
    /// header and `payload` in place.
    pub fn encode(&self, pseudo: &[u8; TCP_PSEUDO_LEN], payload: &[u8]) -> [u8; TCP_HDR_LEN] {
        let mut v = HdrBuf::new()
            .u16(self.src_port)
            .u16(self.dst_port)
            .u32(self.seq)
            .u32(self.ack)
            .u8(5 << 4) // Data offset.
            .u8(self.flags)
            .u16(self.window)
            .u16(0) // Checksum placeholder.
            .u16(0) // Urgent pointer.
            .finish();
        let ck = internet_checksum(&[pseudo, &v, payload]);
        v[16..18].copy_from_slice(&ck.to_be_bytes());
        v
    }

    /// Decodes from network byte order. The checksum covers the whole
    /// segment, so the caller verifies it before the header is popped.
    pub fn decode(bytes: &[u8]) -> XResult<TcpHeader> {
        let mut r = HdrReader::<TCP_HDR_LEN>::new(bytes, "tcp")?;
        let src_port = r.u16();
        let dst_port = r.u16();
        let seq = r.u32();
        let ack = r.u32();
        let _off = r.u8();
        let flags = r.u8();
        let window = r.u16();
        Ok(TcpHeader {
            src_port,
            dst_port,
            seq,
            ack,
            flags,
            window,
        })
    }
}

/// The pseudo-header for a `tcp_len`-byte segment from `src` to `dst`.
fn pseudo_header(src: IpAddr, dst: IpAddr, tcp_len: usize) -> [u8; TCP_PSEUDO_LEN] {
    HdrBuf::new()
        .ip(src)
        .ip(dst)
        .u8(0)
        .u8(ip_proto::TCP)
        .u16(tcp_len as u16)
        .finish()
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    SynSent,
    SynReceived,
    Established,
    FinSent,
    Closed,
}

#[derive(Clone)]
struct SendItem {
    seq: u32,
    flags: u8,
    payload: Vec<u8>,
    retries: u32,
}

/// A connection's state: what its [`Rewind`] saves (opaque).
#[derive(Clone)]
pub struct ConnState {
    state: State,
    snd_nxt: u32,
    snd_una: u32,
    rcv_nxt: u32,
    // Unacknowledged segments, oldest first.
    inflight: VecDeque<SendItem>,
    // Bytes the application has not yet read, in order.
    recv_buf: Vec<u8>,
    // Out-of-order segments keyed by sequence number.
    ooo: HashMap<u32, Vec<u8>>,
    retransmit_timer: Option<TimerHandle>,
    peer_fin: bool,
    error: Option<XError>,
}

/// One TCP connection endpoint.
pub struct TcpConn {
    parent: Rc<Tcp>,
    local_port: Port,
    peer: IpAddr,
    peer_port: Port,
    lower: SessionRef,
    st: OwnerCell<ConnState>,
    established: SharedSema,
    readable: SharedSema,
}

/// A connection keeps its state and the counts of its two semaphores (no
/// retransmission timer is armed at a quiescent instant).
impl Rewind for TcpConn {
    type Saved = (ConnState, i64, i64);
    fn save(&self) -> Self::Saved {
        (
            self.st.save(),
            self.established.save(),
            self.readable.save(),
        )
    }
    fn rewind(&self, (st, established, readable): &Self::Saved) {
        self.st.rewind(st);
        self.established.rewind(established);
        self.readable.rewind(readable);
    }
}

impl TcpConn {
    fn key(&self) -> (Port, u32, Port) {
        (self.local_port, self.peer.0, self.peer_port)
    }

    fn send_segment(
        self: &Rc<Self>,
        ctx: &Ctx,
        flags: u8,
        seq: u32,
        payload: &[u8],
        track: bool,
    ) -> XResult<()> {
        let (ack, window) = {
            let st = self.st.lock();
            (st.rcv_nxt, (TCP_WINDOW_SEGS * TCP_MSS) as u16)
        };
        let src = self.lower.control(ctx, &ControlOp::GetMyHost)?.ip()?;
        let hdr = TcpHeader {
            src_port: self.local_port,
            dst_port: self.peer_port,
            seq,
            ack,
            flags: flags
                | if flags & FLAG_SYN != 0 && ack == 0 {
                    0
                } else {
                    FLAG_ACK
                },
            window,
        };
        let pseudo = pseudo_header(src, self.peer, TCP_HDR_LEN + payload.len());
        ctx.charge_class(
            OpClass::Checksum,
            (TCP_HDR_LEN + payload.len()) as u64 * ctx.cost().checksum_byte,
        );
        let bytes = hdr.encode(&pseudo, payload);
        let mut msg = ctx.msg(payload.to_vec());
        ctx.push_header(&mut msg, &bytes);
        if track {
            let mut st = self.st.lock();
            st.inflight.push_back(SendItem {
                seq,
                flags,
                payload: payload.to_vec(),
                retries: 0,
            });
            drop(st);
            self.arm_retransmit(ctx);
        }
        ctx.charge_layer_call();
        self.lower.push(ctx, msg)?;
        Ok(())
    }

    fn arm_retransmit(self: &Rc<Self>, ctx: &Ctx) {
        let mut st = self.st.lock();
        if st.retransmit_timer.is_some() || st.inflight.is_empty() {
            return;
        }
        let me = Rc::clone(self);
        let h = ctx.schedule_after(TCP_RTO_NS, move |tctx| me.on_retransmit(tctx));
        st.retransmit_timer = Some(h);
    }

    fn on_retransmit(self: Rc<Self>, ctx: &Ctx) {
        let item = {
            let mut st = self.st.lock();
            st.retransmit_timer = None;
            if st.state == State::Closed || st.inflight.is_empty() {
                return;
            }
            let front = st.inflight.front_mut().expect("checked non-empty");
            front.retries += 1;
            if front.retries > TCP_MAX_RETRIES {
                st.error = Some(XError::Timeout("tcp retransmit limit".into()));
                st.state = State::Closed;
                None
            } else {
                Some((front.seq, front.flags, front.payload.clone()))
            }
        };
        match item {
            None => {
                self.established.v(ctx);
                self.readable.v(ctx);
            }
            Some((seq, flags, payload)) => {
                let _ = self.send_segment(ctx, flags, seq, &payload, false);
                self.arm_retransmit(ctx);
            }
        }
    }

    fn handle_ack(&self, ctx: &Ctx, ack: u32) {
        let mut st = self.st.lock();
        if ack.wrapping_sub(st.snd_una) as i32 > 0 || ack == st.snd_nxt {
            st.snd_una = ack;
            while let Some(front) = st.inflight.front() {
                let consumed = front.payload.len() as u32
                    + u32::from(front.flags & (FLAG_SYN | FLAG_FIN) != 0);
                if front.seq.wrapping_add(consumed).wrapping_sub(ack) as i32 <= 0 {
                    st.inflight.pop_front();
                } else {
                    break;
                }
            }
            if st.inflight.is_empty() {
                if let Some(t) = st.retransmit_timer.take() {
                    drop(st);
                    ctx.cancel_timer(t);
                }
            }
        }
    }

    /// Sends application bytes (segmenting as needed). Blocks only for
    /// window space indirectly via retransmission; errors if closed.
    pub fn send(self: &Rc<Self>, ctx: &Ctx, data: &[u8]) -> XResult<()> {
        {
            let st = self.st.lock();
            if st.state != State::Established {
                return Err(st.error.clone().unwrap_or(XError::Closed));
            }
        }
        for chunk in data.chunks(TCP_MSS) {
            let seq = {
                let mut st = self.st.lock();
                let s = st.snd_nxt;
                st.snd_nxt = st.snd_nxt.wrapping_add(chunk.len() as u32);
                s
            };
            self.send_segment(ctx, 0, seq, chunk, true)?;
        }
        Ok(())
    }

    /// Receives up to `n` bytes, blocking (with `timeout_ns`) until at least
    /// one byte, FIN, or error. Returns an empty vector on orderly EOF.
    pub fn recv(self: &Rc<Self>, ctx: &Ctx, n: usize, timeout_ns: u64) -> XResult<Vec<u8>> {
        loop {
            {
                let mut st = self.st.lock();
                if !st.recv_buf.is_empty() {
                    let take = n.min(st.recv_buf.len());
                    let out: Vec<u8> = st.recv_buf.drain(..take).collect();
                    return Ok(out);
                }
                if st.peer_fin {
                    return Ok(Vec::new());
                }
                if let Some(e) = &st.error {
                    return Err(e.clone());
                }
                if st.state == State::Closed {
                    return Err(XError::Closed);
                }
            }
            if !self.readable.p_timeout(ctx, timeout_ns) {
                return Err(XError::Timeout("tcp recv".into()));
            }
        }
    }

    /// Closes the connection (sends FIN; simplified teardown).
    pub fn close(self: &Rc<Self>, ctx: &Ctx) -> XResult<()> {
        let seq = {
            let mut st = self.st.lock();
            if st.state != State::Established {
                st.state = State::Closed;
                return Ok(());
            }
            st.state = State::FinSent;
            let s = st.snd_nxt;
            st.snd_nxt = st.snd_nxt.wrapping_add(1);
            s
        };
        self.send_segment(ctx, FLAG_FIN, seq, &[], true)
    }

    /// Current connection state name (tests).
    pub fn state_name(&self) -> &'static str {
        match self.st.lock().state {
            State::SynSent => "syn-sent",
            State::SynReceived => "syn-received",
            State::Established => "established",
            State::FinSent => "fin-sent",
            State::Closed => "closed",
        }
    }
}

/// The TCP protocol object.
pub struct Tcp {
    weak_self: Weak<Tcp>,
    me: ProtoId,
    lower: ProtoId,
    conns: SessionMap<(Port, u32, Port), Rc<TcpConn>>,
    listeners: SessionMap<Port, AcceptQueue>,
    next_port: Cell<u16>,
}

impl Tcp {
    /// Creates TCP above `lower` (meant to be IP; see the module docs for
    /// what happens over anything else).
    pub fn new(me: ProtoId, lower: ProtoId) -> Rc<Tcp> {
        Rc::new_cyclic(|weak_self| Tcp {
            weak_self: weak_self.clone(),
            me,
            lower,
            conns: SessionMap::new(),
            listeners: SessionMap::new(),
            next_port: Cell::new(40_000),
        })
    }

    fn self_rc(&self) -> Rc<Tcp> {
        self.weak_self.upgrade().expect("tcp alive")
    }

    // clippy.toml bans a std map in protocol code (demux tables are
    // xkernel::map's); `ooo` is one connection's out-of-order segments.
    #[allow(clippy::too_many_arguments, clippy::disallowed_methods)]
    fn make_conn(
        &self,
        ctx: &Ctx,
        local_port: Port,
        peer: IpAddr,
        peer_port: Port,
        lower: SessionRef,
        state: State,
        iss: u32,
    ) -> Rc<TcpConn> {
        ctx.charge_class(OpClass::SessionCreate, ctx.cost().session_create);
        let conn = Rc::new(TcpConn {
            parent: self.self_rc(),
            local_port,
            peer,
            peer_port,
            lower,
            st: OwnerCell::new(ConnState {
                state,
                snd_nxt: iss,
                snd_una: iss,
                rcv_nxt: 0,
                inflight: VecDeque::new(),
                recv_buf: Vec::new(),
                ooo: HashMap::new(),
                retransmit_timer: None,
                peer_fin: false,
                error: None,
            }),
            established: SharedSema::new(0),
            readable: SharedSema::new(0),
        });
        self.conns.bind(conn.key(), Rc::clone(&conn));
        conn
    }

    /// Actively opens a connection; blocks until established or timeout.
    pub fn connect(&self, ctx: &Ctx, peer: IpAddr, peer_port: Port) -> XResult<Rc<TcpConn>> {
        let local_port = self.next_port.bump();
        let lparts = ParticipantSet::pair(
            Participant::proto(u32::from(ip_proto::TCP)),
            Participant::host(peer),
        );
        let lower = ctx.kernel_ref().open(ctx, self.lower, self.me, &lparts)?;
        let iss = (ctx.next_u64() & 0xffff) as u32;
        let conn = self.make_conn(ctx, local_port, peer, peer_port, lower, State::SynSent, iss);
        {
            let mut st = conn.st.lock();
            st.snd_nxt = iss.wrapping_add(1);
        }
        conn.send_segment(ctx, FLAG_SYN, iss, &[], true)?;
        if conn.established.p_timeout(ctx, TCP_CONNECT_TIMEOUT_NS) {
            let st = conn.st.lock();
            if st.state == State::Established {
                drop(st);
                return Ok(conn);
            }
        }
        self.conns.unbind(&conn.key());
        Err(XError::Timeout(format!("tcp connect {peer}:{peer_port}")))
    }

    /// Passively opens `port`; returned handle accepts connections.
    pub fn listen(&self, port: Port) -> XResult<TcpListener> {
        let sema = SharedSema::new(0);
        let queue: Rc<OwnerCell<VecDeque<Rc<TcpConn>>>> = Rc::new(OwnerCell::new(VecDeque::new()));
        self.listeners.bind(port, (sema.clone(), Rc::clone(&queue)));
        Ok(TcpListener { sema, queue })
    }

    fn segment_in(&self, ctx: &Ctx, lls: &SessionRef, mut msg: Message) -> XResult<()> {
        // The checksum covers a pseudo-header of both IP addresses, so below a
        // layer with no IP header to name them (VIP's raw-Ethernet path) none passes.
        let ip = |op| lls.control(ctx, op).and_then(|r| r.ip());
        let (Ok(src), Ok(dst)) = (ip(&ControlOp::GetPeerHost), ip(&ControlOp::GetMyHost)) else {
            return Err(Reject::Corrupt("no ip pseudo-header").into());
        };
        // No TCP length field: the segment is exactly what the lower layer
        // delivered (IP's total_len already trimmed link padding; a lower
        // layer without a length field leaves pad bytes in and the checksum
        // below rejects the segment — the paper's incompatibility).
        let seg_len = msg.len();
        ctx.charge_class(OpClass::Checksum, seg_len as u64 * ctx.cost().checksum_byte);
        let mut acc = ChecksumAcc::new();
        acc.add(&pseudo_header(src, dst, seg_len));
        acc.add_message(&msg);
        if acc.finish() != 0 {
            return Err(Reject::Corrupt("tcp checksum").into());
        }
        let hdr_bytes = ctx.pop_header(&mut msg, TCP_HDR_LEN)?;
        let hdr = TcpHeader::decode(&hdr_bytes)?;
        drop(hdr_bytes);
        let payload = msg.to_vec();

        let key = (hdr.dst_port, src.0, hdr.src_port);
        let existing = self.conns.resolve(&key);
        match existing {
            Some(conn) => self.established_in(ctx, &conn, hdr, payload),
            None if hdr.flags & FLAG_SYN != 0 && hdr.flags & FLAG_ACK == 0 => {
                // New passive connection.
                let listener = self.listeners.resolve(&hdr.dst_port);
                let Some((sema, queue)) = listener else {
                    return Err(Reject::NoEnable("no listener").into());
                };
                let iss = (ctx.next_u64() & 0xffff) as u32;
                let conn = self.make_conn(
                    ctx,
                    hdr.dst_port,
                    src,
                    hdr.src_port,
                    Rc::clone(lls),
                    State::SynReceived,
                    iss,
                );
                {
                    let mut st = conn.st.lock();
                    st.rcv_nxt = hdr.seq.wrapping_add(1);
                    st.snd_nxt = iss.wrapping_add(1);
                }
                conn.send_segment(ctx, FLAG_SYN, iss, &[], true)?;
                queue.lock().push_back(conn);
                sema.v(ctx);
                Ok(())
            }
            None => Ok(()), // Stray segment.
        }
    }

    fn established_in(
        &self,
        ctx: &Ctx,
        conn: &Rc<TcpConn>,
        hdr: TcpHeader,
        payload: Vec<u8>,
    ) -> XResult<()> {
        if hdr.flags & FLAG_ACK != 0 {
            conn.handle_ack(ctx, hdr.ack);
        }
        let mut became_established = false;
        let mut need_ack = false;
        {
            let mut st = conn.st.lock();
            match st.state {
                State::SynSent if hdr.flags & FLAG_SYN != 0 => {
                    st.rcv_nxt = hdr.seq.wrapping_add(1);
                    st.state = State::Established;
                    became_established = true;
                    need_ack = true;
                }
                State::SynReceived if hdr.flags & FLAG_ACK != 0 => {
                    st.state = State::Established;
                    became_established = true;
                }
                _ => {}
            }
            if !payload.is_empty() || hdr.flags & FLAG_FIN != 0 {
                if hdr.seq == st.rcv_nxt {
                    st.rcv_nxt = st.rcv_nxt.wrapping_add(payload.len() as u32);
                    st.recv_buf.extend_from_slice(&payload);
                    // Drain any out-of-order successors.
                    loop {
                        let key = st.rcv_nxt;
                        let Some(next) = st.ooo.remove(&key) else {
                            break;
                        };
                        st.rcv_nxt = st.rcv_nxt.wrapping_add(next.len() as u32);
                        st.recv_buf.extend_from_slice(&next);
                    }

                    if hdr.flags & FLAG_FIN != 0 {
                        st.rcv_nxt = st.rcv_nxt.wrapping_add(1);
                        st.peer_fin = true;
                    }
                } else if hdr.seq.wrapping_sub(st.rcv_nxt) as i32 > 0 && !payload.is_empty() {
                    st.ooo.insert(hdr.seq, payload.clone());
                }
                need_ack = true;
            }
        }
        if became_established {
            conn.established.v(ctx);
        }
        if !payload.is_empty() || hdr.flags & FLAG_FIN != 0 {
            conn.readable.v(ctx);
        }
        if need_ack {
            // Pure ACK (not tracked, not retransmitted).
            let seq = conn.st.lock().snd_nxt;
            conn.send_segment(ctx, 0, seq, &[], false)?;
        }
        Ok(())
    }
}

/// Accept handle returned by [`Tcp::listen`].
pub struct TcpListener {
    sema: SharedSema,
    queue: Rc<OwnerCell<VecDeque<Rc<TcpConn>>>>,
}

impl TcpListener {
    /// Accepts the next connection, waiting until the handshake's SYN has
    /// arrived.
    pub fn accept(&self, ctx: &Ctx, timeout_ns: u64) -> XResult<Rc<TcpConn>> {
        if self.sema.p_timeout(ctx, timeout_ns) {
            if let Some(c) = self.queue.lock().pop_front() {
                return Ok(c);
            }
        }
        if let Some(c) = self.queue.lock().pop_front() {
            return Ok(c);
        }
        Err(XError::Timeout("tcp accept".into()))
    }
}

impl Protocol for Tcp {
    fn id(&self) -> ProtoId {
        self.me
    }

    fn keeps(&self, k: &mut Keep<'_>) {
        k.sessions(&self.conns);
        k.sessions(&self.listeners);
        k.values(&self.next_port);
    }

    fn boot(&self, ctx: &Ctx) -> XResult<()> {
        let parts = ParticipantSet::local(Participant::proto(u32::from(ip_proto::TCP)));
        ctx.kernel_ref()
            .open_enable(ctx, self.lower, self.me, &parts)
    }

    fn open(&self, ctx: &Ctx, _upper: ProtoId, parts: &ParticipantSet) -> XResult<SessionRef> {
        // The uniform-interface view: open == connect; the returned session's
        // push sends bytes on the stream.
        let remote = parts
            .remote_part()
            .ok_or_else(|| XError::Config("tcp open needs a peer".into()))?;
        let peer = remote
            .host
            .ok_or_else(|| XError::Config("tcp open needs a peer host".into()))?;
        let port = remote
            .port
            .ok_or_else(|| XError::Config("tcp open needs a peer port".into()))?;
        let conn = self.connect(ctx, peer, port)?;
        Ok(Rc::new(TcpConnSession { conn }))
    }

    fn open_enable(&self, _ctx: &Ctx, _upper: ProtoId, parts: &ParticipantSet) -> XResult<()> {
        let port = parts
            .local_part()
            .and_then(|p| p.port)
            .ok_or_else(|| XError::Config("tcp enable needs a port".into()))?;
        self.listen(port)?;
        Ok(())
    }

    fn demux(&self, ctx: &Ctx, lls: &SessionRef, msg: Message) -> XResult<()> {
        self.segment_in(ctx, lls, msg)
    }

    fn control(&self, _ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            ControlOp::GetMaxPacket => Ok(ControlRes::Size(TCP_MSS)),
            ControlOp::GetMaxMsgSize => Ok(ControlRes::Size(TCP_MSS + TCP_HDR_LEN)),
            _ => Err(XError::Unsupported("tcp control")),
        }
    }
}

/// Uniform-interface wrapper for a [`TcpConn`].
struct TcpConnSession {
    conn: Rc<TcpConn>,
}

impl Session for TcpConnSession {
    fn protocol_id(&self) -> ProtoId {
        self.conn.parent.me
    }

    fn push(&self, ctx: &Ctx, msg: Message) -> XResult<Option<Message>> {
        self.conn.send(ctx, &msg.to_vec())?;
        Ok(None)
    }

    fn control(&self, ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            ControlOp::GetPeerHost => Ok(ControlRes::Ip(self.conn.peer)),
            ControlOp::GetPeerPort => Ok(ControlRes::Port(self.conn.peer_port)),
            ControlOp::GetMyPort => Ok(ControlRes::Port(self.conn.local_port)),
            _ => {
                let _ = ctx;
                Err(XError::Unsupported("tcp session control"))
            }
        }
    }

    fn close(&self, ctx: &Ctx) -> XResult<()> {
        self.conn.close(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip_and_checksum() {
        let h = TcpHeader {
            src_port: 1234,
            dst_port: 80,
            seq: 42,
            ack: 7,
            flags: FLAG_SYN | FLAG_ACK,
            window: 8192,
        };
        let pseudo = pseudo_header(
            IpAddr::new(1, 1, 1, 1),
            IpAddr::new(2, 2, 2, 2),
            TCP_HDR_LEN,
        );
        let bytes = h.encode(&pseudo, &[]);
        assert_eq!(internet_checksum(&[&pseudo, &bytes]), 0);
        let d = TcpHeader::decode(&bytes).unwrap();
        assert_eq!(d, h);
    }

    #[test]
    fn padding_breaks_checksum() {
        // The paper's point: without a TCP length field, trailing link-level
        // pad bytes land inside the checksummed region.
        let h = TcpHeader {
            src_port: 1,
            dst_port: 2,
            seq: 0,
            ack: 0,
            flags: FLAG_SYN,
            window: 0,
        };
        let pseudo = pseudo_header(
            IpAddr::new(1, 1, 1, 1),
            IpAddr::new(2, 2, 2, 2),
            TCP_HDR_LEN,
        );
        let mut bytes = h.encode(&pseudo, &[]).to_vec();
        bytes.extend_from_slice(&[0xAA; 10]); // Ethernet pad.
        let pseudo2 = pseudo_header(
            IpAddr::new(1, 1, 1, 1),
            IpAddr::new(2, 2, 2, 2),
            bytes.len(),
        );
        assert_ne!(internet_checksum(&[&pseudo2, &bytes]), 0);
    }
}
