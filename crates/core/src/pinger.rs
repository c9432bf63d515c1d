//! PINGER — the measurement protocol for Table III's partial stacks.
//!
//! Table III reports the round-trip latency of VIP alone, FRAGMENT-VIP, and
//! CHANNEL-FRAGMENT-VIP — stacks that are not complete RPC protocols. The
//! paper measures them with a test harness that bounces a null message off
//! the peer; PINGER is that harness, expressed as just another protocol in
//! the uniform interface (which is itself a small demonstration of the
//! interface's point).
//!
//! On the echo side, PINGER pushes every received message straight back
//! down the session it arrived on — which is a datagram session for
//! VIP/FRAGMENT lowers and a reply for a CHANNEL lower. On the client side,
//! [`Pinger::rtt`] completes either synchronously (CHANNEL returns the
//! reply from `push`) or when the echo is demultiplexed back up.

use std::rc::Rc;

use xkernel::cell::OwnerCell;

use xkernel::prelude::*;

use crate::protnum::num_over;

/// How long to wait for an echo before failing.
pub const PING_TIMEOUT_NS: u64 = 5_000_000_000;

/// The PINGER protocol object.
pub struct Pinger {
    me: ProtoId,
    lower: ProtoId,
    echo: bool,
    sessions: SessionMap<u32>,
    inflight: OwnerCell<Inflight>,
}

/// What the client side has in flight, under one lock so an echo's demux
/// takes it once: at most one parked round trip or one series.
#[derive(Default)]
struct Inflight {
    waiting: Option<EchoWaiter>,
    series: Option<Series>,
}

/// A parked single round trip: wake signal plus the echoed-bytes slot.
type EchoWaiter = (SharedSema, Rc<OwnerCell<Option<Vec<u8>>>>);

/// In-flight callback-driven ping-pong series (see [`Pinger::run_series`]).
struct Series {
    remaining: usize,
    payload: Vec<u8>,
    sess: SessionRef,
    done: SharedSema,
}

impl Pinger {
    /// Creates a PINGER above `lower`; `echo` marks the responder side.
    pub fn new(me: ProtoId, lower: ProtoId, echo: bool) -> Rc<Pinger> {
        Rc::new(Pinger {
            me,
            lower,
            echo,
            sessions: SessionMap::new(),
            inflight: OwnerCell::new(Inflight::default()),
        })
    }

    fn session_for(&self, ctx: &Ctx, peer: IpAddr) -> XResult<SessionRef> {
        self.sessions.resolve_or_open(peer.0, || {
            let parts = ParticipantSet::pair(
                Participant::proto(num_over(ctx.kernel_ref(), self.me, self.lower)?),
                Participant::host(peer),
            );
            ctx.kernel_ref().open(ctx, self.lower, self.me, &parts)
        })
    }

    /// Runs `n` back-to-back round trips of a `payload_len`-byte message and
    /// returns the total virtual time.
    ///
    /// Unlike [`Pinger::rtt`], the next send is issued directly from the
    /// demux of the previous echo — callback style, with no semaphore block
    /// per round trip. This mirrors the paper's measurement of the layers
    /// *below* CHANNEL: the "synchronization and process switching that is
    /// intrinsic to the request/reply paradigm" is a cost CHANNEL adds, so
    /// the harness must not impose it on the lower layers itself. (Over a
    /// CHANNEL lower, `push` blocks and returns the reply, so the intrinsic
    /// cost is naturally included there.)
    pub fn run_series(
        &self,
        ctx: &Ctx,
        peer: IpAddr,
        n: usize,
        payload_len: usize,
    ) -> XResult<u64> {
        assert!(n >= 1, "series needs at least one round trip");
        let sess = self.session_for(ctx, peer)?;
        let payload = vec![0x5Au8; payload_len];
        let t0 = ctx.now();
        let done = SharedSema::new(0);
        self.inflight.lock().series = Some(Series {
            remaining: n,
            payload: payload.clone(),
            sess: Rc::clone(&sess),
            done: done.clone(),
        });
        if let Some(_reply) = sess.push(ctx, ctx.msg(payload.clone()))? {
            // Synchronous-reply lower (CHANNEL): a plain loop, blocking per
            // call exactly as a real RPC client would.
            self.inflight.lock().series = None;
            for _ in 1..n {
                sess.push(ctx, ctx.msg(payload.clone()))?;
            }
            return Ok(ctx.now() - t0);
        }
        // Datagram lower: the demux of each echo launches the next send;
        // block only once, at the end of the whole series.
        if !done.p_timeout(ctx, PING_TIMEOUT_NS.saturating_mul(n as u64)) {
            self.inflight.lock().series = None;
            return Err(XError::Timeout(format!("pinger series to {peer}")));
        }
        Ok(ctx.now() - t0)
    }

    /// One round trip of `payload` to the echo host at `peer`; returns the
    /// echoed bytes.
    pub fn rtt(&self, ctx: &Ctx, peer: IpAddr, payload: Vec<u8>) -> XResult<Vec<u8>> {
        let sess = self.session_for(ctx, peer)?;
        let sema = SharedSema::new(0);
        let slot: Rc<OwnerCell<Option<Vec<u8>>>> = Rc::new(OwnerCell::new(None));
        self.inflight.lock().waiting = Some((sema.clone(), Rc::clone(&slot)));
        let pushed = sess.push(ctx, ctx.msg(payload))?;
        if let Some(reply) = pushed {
            // Request/reply lower (CHANNEL): the echo came back in-band.
            self.inflight.lock().waiting = None;
            return Ok(reply.to_vec());
        }
        let ok = sema.p_timeout(ctx, PING_TIMEOUT_NS) || slot.lock().is_some();
        self.inflight.lock().waiting = None;
        if !ok {
            return Err(XError::Timeout(format!("pinger echo from {peer}")));
        }
        let data = slot.lock().take();
        data.ok_or_else(|| XError::Timeout(format!("pinger woke without echo from {peer}")))
    }
}

impl Protocol for Pinger {
    fn id(&self) -> ProtoId {
        self.me
    }

    fn boot(&self, ctx: &Ctx) -> XResult<()> {
        let kernel = ctx.kernel_ref();
        let parts =
            ParticipantSet::local(Participant::proto(num_over(kernel, self.me, self.lower)?));
        kernel.open_enable(ctx, self.lower, self.me, &parts)
    }

    fn keeps(&self, k: &mut Keep<'_>) {
        k.sessions(&self.sessions);
        k.scratch(&self.inflight);
    }

    fn open(&self, _ctx: &Ctx, _u: ProtoId, _p: &ParticipantSet) -> XResult<SessionRef> {
        Err(XError::Unsupported("pinger: use rtt()"))
    }

    fn open_enable(&self, _ctx: &Ctx, _u: ProtoId, _p: &ParticipantSet) -> XResult<()> {
        Err(XError::Unsupported("pinger has no upper protocols"))
    }

    fn demux(&self, ctx: &Ctx, lls: &SessionRef, msg: Message) -> XResult<()> {
        if self.echo {
            ctx.charge_layer_call();
            lls.push(ctx, msg)?;
            return Ok(());
        }
        enum Next {
            Send(SessionRef, Vec<u8>),
            SeriesDone(SharedSema),
            Echo(EchoWaiter),
            Nothing,
        }
        let next = {
            let mut inflight = self.inflight.lock();
            // Callback-driven series: fire the next send from this shepherd.
            match inflight.series.take() {
                Some(mut st) => {
                    st.remaining -= 1;
                    if st.remaining == 0 {
                        Next::SeriesDone(st.done)
                    } else {
                        let next = Next::Send(Rc::clone(&st.sess), st.payload.clone());
                        inflight.series = Some(st);
                        next
                    }
                }
                None => match &inflight.waiting {
                    Some(waiter) => Next::Echo(waiter.clone()),
                    None => Next::Nothing,
                },
            }
        };
        match next {
            Next::Send(sess, payload) => {
                ctx.charge_layer_call();
                sess.push(ctx, ctx.msg(payload))?;
            }
            Next::SeriesDone(done) => done.v(ctx),
            Next::Echo((sema, slot)) => {
                *slot.lock() = Some(msg.to_vec());
                sema.v(ctx);
            }
            Next::Nothing => {}
        }
        Ok(())
    }

    fn control(&self, _ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            // Asked by VIP: PINGER bounces whatever it is given; tests keep
            // payloads within one Ethernet frame.
            ControlOp::GetMaxMsgSize => Ok(ControlRes::Size(1500)),
            _ => Err(XError::Unsupported("pinger control")),
        }
    }
}
