//! Integration tests for the simulator core, kernel plumbing, graph DSL,
//! and shim layers.

use std::any::Any;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use xkernel::cost::CostModel;
use xkernel::graph::ProtocolRegistry;
use xkernel::prelude::*;
use xkernel::shim::{NullLayer, NULL_HDR_LEN};
use xkernel::sim::{Mode, RejectRow, Sim, SimConfig};

// ---------------------------------------------------------------------------
// Test protocols: a loopback "wire" and a recording sink.
// ---------------------------------------------------------------------------

/// Bottom protocol whose sessions bounce every pushed message straight back
/// up through the protocol's demux, as if it had arrived from a wire.
struct Loopback {
    me: ProtoId,
    enables: Mutex<Vec<(u32, ProtoId)>>,
}

impl Loopback {
    fn new(me: ProtoId) -> Rc<Loopback> {
        Rc::new(Loopback {
            me,
            enables: Mutex::new(Vec::new()),
        })
    }
}

struct LoopSession {
    proto: ProtoId,
    num: u32,
}

impl Session for LoopSession {
    fn protocol_id(&self) -> ProtoId {
        self.proto
    }

    fn push(&self, ctx: &Ctx, mut msg: Message) -> XResult<Option<Message>> {
        // Tag with our 4-byte "wire header" carrying the protocol number.
        ctx.push_header(&mut msg, &self.num.to_be_bytes());
        let kernel = ctx.kernel();
        let proto = kernel.proto_ref(self.proto)?;
        let me: SessionRef = Rc::new(LoopSession {
            proto: self.proto,
            num: self.num,
        });
        proto.demux(ctx, &me, msg)?;
        Ok(None)
    }

    fn control(&self, _ctx: &Ctx, op: &ControlOp) -> XResult<ControlRes> {
        match op {
            ControlOp::GetMaxPacket | ControlOp::GetOptPacket => Ok(ControlRes::Size(1500)),
            _ => Err(XError::Unsupported("loopback session control")),
        }
    }
}

impl Protocol for Loopback {
    fn name(&self) -> &'static str {
        "loopback"
    }

    fn id(&self) -> ProtoId {
        self.me
    }

    fn open(&self, _ctx: &Ctx, _upper: ProtoId, parts: &ParticipantSet) -> XResult<SessionRef> {
        let num = parts
            .local_part()
            .and_then(|p| p.proto_num)
            .ok_or_else(|| XError::Config("loopback open needs proto num".into()))?;
        Ok(Rc::new(LoopSession {
            proto: self.me,
            num,
        }))
    }

    fn open_enable(&self, _ctx: &Ctx, upper: ProtoId, parts: &ParticipantSet) -> XResult<()> {
        let num = parts
            .local_part()
            .and_then(|p| p.proto_num)
            .ok_or_else(|| XError::Config("loopback enable needs proto num".into()))?;
        self.enables.lock().unwrap().push((num, upper));
        Ok(())
    }

    fn demux(&self, ctx: &Ctx, lls: &SessionRef, mut msg: Message) -> XResult<()> {
        let hdr = ctx.pop_header(&mut msg, 4)?;
        let num = u32::from_be_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]);
        drop(hdr);
        let upper = self
            .enables
            .lock()
            .unwrap()
            .iter()
            .find(|(n, _)| *n == num)
            .map(|(_, u)| *u)
            .ok_or(Reject::NoEnable("loopback number"))?;
        ctx.kernel().demux_to(ctx, upper, lls, msg)
    }
}

/// Top protocol that records everything demuxed into it.
struct Sink {
    me: ProtoId,
    got: Mutex<Vec<Vec<u8>>>,
    sema: SharedSema,
}

impl Sink {
    fn new(me: ProtoId) -> Rc<Sink> {
        Rc::new(Sink {
            me,
            got: Mutex::new(Vec::new()),
            sema: SharedSema::new(0),
        })
    }
}

impl Protocol for Sink {
    fn name(&self) -> &'static str {
        "sink"
    }

    fn id(&self) -> ProtoId {
        self.me
    }

    fn open(&self, _ctx: &Ctx, _u: ProtoId, _p: &ParticipantSet) -> XResult<SessionRef> {
        Err(XError::Unsupported("sink is demux-only"))
    }

    fn open_enable(&self, _ctx: &Ctx, _u: ProtoId, _p: &ParticipantSet) -> XResult<()> {
        Ok(())
    }

    fn demux(&self, ctx: &Ctx, _lls: &SessionRef, msg: Message) -> XResult<()> {
        self.got.lock().unwrap().push(msg.to_vec());
        self.sema.v(ctx);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Scheduler basics.
// ---------------------------------------------------------------------------

#[test]
fn scheduled_spawn_runs_and_reports() {
    let sim = Sim::new(SimConfig::scheduled());
    let _k = Kernel::new(&sim, "h0");
    let hit = Arc::new(Mutex::new(0));
    let hit2 = Arc::clone(&hit);
    sim.spawn(HostId(0), move |_ctx| {
        *hit2.lock().unwrap() += 1;
    });
    let report = sim.run_until_idle();
    assert_eq!(*hit.lock().unwrap(), 1);
    assert_eq!(report.blocked, 0);
    assert_eq!(report.events, 1);
}

#[test]
fn charges_advance_host_cpu_independently() {
    let sim = Sim::new(SimConfig::scheduled().with_cost(CostModel::zero()));
    let _a = Kernel::new(&sim, "a");
    let _b = Kernel::new(&sim, "b");
    sim.spawn(HostId(0), |ctx| ctx.charge(500));
    sim.spawn(HostId(1), |ctx| ctx.charge(90));
    sim.run_until_idle();
    assert_eq!(sim.now_of(HostId(0)), 500);
    assert_eq!(sim.now_of(HostId(1)), 90);
}

#[test]
fn sleep_advances_virtual_time() {
    let sim = Sim::new(SimConfig::scheduled().with_cost(CostModel::zero()));
    let _k = Kernel::new(&sim, "h");
    sim.spawn(HostId(0), |ctx| {
        ctx.sleep(1_000_000);
        assert!(ctx.now() >= 1_000_000);
    });
    let r = sim.run_until_idle();
    assert_eq!(r.blocked, 0);
    assert!(sim.now_of(HostId(0)) >= 1_000_000);
}

#[test]
fn timers_fire_in_order_and_cancel() {
    let sim = Sim::new(SimConfig::scheduled().with_cost(CostModel::zero()));
    let _k = Kernel::new(&sim, "h");
    let order: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
    let (o1, o2, o3) = (order.clone(), order.clone(), order.clone());
    sim.spawn(HostId(0), move |ctx| {
        ctx.schedule_after(300, move |_| o2.lock().unwrap().push(2));
        ctx.schedule_after(100, move |_| o1.lock().unwrap().push(1));
        let h = ctx.schedule_after(200, move |_| o3.lock().unwrap().push(99));
        ctx.cancel_timer(h);
    });
    sim.run_until_idle();
    assert_eq!(*order.lock().unwrap(), vec![1, 2]);
}

#[test]
fn semaphore_rendezvous_between_processes() {
    let sim = Sim::new(SimConfig::scheduled());
    let _k = Kernel::new(&sim, "h");
    let sema = SharedSema::new(0);
    let done = Arc::new(Mutex::new(false));
    let (s1, s2) = (sema.clone(), sema.clone());
    let d = done.clone();
    sim.spawn(HostId(0), move |ctx| {
        s1.p(ctx); // Blocks until the other process Vs.
        *d.lock().unwrap() = true;
    });
    sim.spawn(HostId(0), move |ctx| {
        ctx.charge(10_000);
        s2.v(ctx);
    });
    let r = sim.run_until_idle();
    assert!(*done.lock().unwrap());
    assert_eq!(r.blocked, 0);
}

#[test]
fn p_timeout_times_out_and_reports_false() {
    let sim = Sim::new(SimConfig::scheduled());
    let _k = Kernel::new(&sim, "h");
    let sema = SharedSema::new(0);
    let got: Arc<Mutex<Option<bool>>> = Arc::new(Mutex::new(None));
    let g = got.clone();
    sim.spawn(HostId(0), move |ctx| {
        let ok = sema.p_timeout(ctx, 50_000);
        *g.lock().unwrap() = Some(ok);
    });
    let r = sim.run_until_idle();
    assert_eq!(*got.lock().unwrap(), Some(false));
    assert_eq!(r.blocked, 0);
}

#[test]
fn p_timeout_acquires_when_v_arrives_first() {
    let sim = Sim::new(SimConfig::scheduled().with_cost(CostModel::zero()));
    let _k = Kernel::new(&sim, "h");
    let sema = SharedSema::new(0);
    let got: Arc<Mutex<Option<bool>>> = Arc::new(Mutex::new(None));
    let g = got.clone();
    let (s1, s2) = (sema.clone(), sema.clone());
    sim.spawn(HostId(0), move |ctx| {
        let ok = s1.p_timeout(ctx, 1_000_000);
        *g.lock().unwrap() = Some(ok);
    });
    sim.spawn(HostId(0), move |ctx| {
        ctx.sleep(10); // Let the waiter block first.
        s2.v(ctx);
    });
    let r = sim.run_until_idle();
    assert_eq!(*got.lock().unwrap(), Some(true));
    assert_eq!(r.blocked, 0);
    // The cancelled timeout must not fire later or double-wake anything.
}

#[test]
fn deadlocked_process_is_reported_blocked() {
    let sim = Sim::new(SimConfig::scheduled());
    let _k = Kernel::new(&sim, "h");
    let sema = SharedSema::new(0);
    sim.spawn(HostId(0), move |ctx| {
        sema.p(ctx); // Nobody will V.
    });
    let r = sim.run_until_idle();
    assert_eq!(r.blocked, 1);
}

#[test]
#[should_panic(expected = "shepherd process panicked")]
fn worker_panic_propagates_to_runner() {
    let sim = Sim::new(SimConfig::scheduled());
    let _k = Kernel::new(&sim, "h");
    sim.spawn(HostId(0), |_ctx| panic!("boom in protocol"));
    sim.run_until_idle();
}

#[test]
fn determinism_same_seed_same_trace() {
    fn run() -> (u64, Vec<u64>) {
        let sim = Sim::new(SimConfig::scheduled().with_seed(42));
        let _k = Kernel::new(&sim, "h");
        let samples: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        for i in 0..10u64 {
            let s = samples.clone();
            sim.spawn(HostId(0), move |ctx| {
                ctx.charge(i * 17 + 1);
                ctx.sleep(i * 3);
                s.lock().unwrap().push(ctx.now());
            });
        }
        let r = sim.run_until_idle();
        (
            r.ended_at,
            Arc::try_unwrap(samples).unwrap().into_inner().unwrap(),
        )
    }
    assert_eq!(run(), run());
}

#[test]
fn prng_is_deterministic_per_seed() {
    let a = Sim::new(SimConfig::scheduled().with_seed(7));
    let b = Sim::new(SimConfig::scheduled().with_seed(7));
    let c = Sim::new(SimConfig::scheduled().with_seed(8));
    let xs: Vec<u64> = (0..5).map(|_| a.next_u64()).collect();
    let ys: Vec<u64> = (0..5).map(|_| b.next_u64()).collect();
    let zs: Vec<u64> = (0..5).map(|_| c.next_u64()).collect();
    assert_eq!(xs, ys);
    assert_ne!(xs, zs);
}

// ---------------------------------------------------------------------------
// Inline mode.
// ---------------------------------------------------------------------------

#[test]
fn inline_spawn_runs_immediately() {
    let sim = Sim::new(SimConfig::inline_mode());
    let _k = Kernel::new(&sim, "h");
    let hit = Arc::new(Mutex::new(false));
    let h = hit.clone();
    sim.spawn(HostId(0), move |_| *h.lock().unwrap() = true);
    assert!(
        *hit.lock().unwrap(),
        "inline spawn must run on the calling thread"
    );
}

#[test]
fn inline_sema_nonblocking_paths() {
    let sim = Sim::new(SimConfig::inline_mode());
    let _k = Kernel::new(&sim, "h");
    let ctx = sim.ctx(HostId(0));
    let sema = SharedSema::new(1);
    sema.p(&ctx); // Count available: fine.
    sema.v(&ctx);
    let empty = SharedSema::new(0);
    assert!(!empty.p_timeout(&ctx, 1_000), "inline timeout is immediate");
}

// ---------------------------------------------------------------------------
// Kernel + graph + shims, in both modes.
// ---------------------------------------------------------------------------

fn registry() -> ProtocolRegistry {
    let mut reg = ProtocolRegistry::new();
    reg.add("loopback", |a| Ok(Loopback::new(a.me) as ProtocolRef));
    reg.add("null", |a| {
        Ok(NullLayer::new(a.me, a.down(0)?) as ProtocolRef)
    });
    reg.add("sink", |a| Ok(Sink::new(a.me) as ProtocolRef));
    reg
}

const GRAPH: &str = "
    # A three-layer test stack.
    loop: loopback
    null -> loop
    sink -> null
";

fn run_stack(mode: Mode) -> Vec<Vec<u8>> {
    let cfg = match mode {
        Mode::Inline => SimConfig::inline_mode(),
        Mode::Scheduled => SimConfig::scheduled(),
    };
    let sim = Sim::new(cfg);
    let k = Kernel::new(&sim, "h");
    registry().build(&sim, &k, GRAPH).expect("graph builds");

    let send = move |ctx: &Ctx| {
        let k = ctx.kernel();
        let sink_id = k.lookup("sink").unwrap();
        let null_id = k.lookup("null").unwrap();
        let parts = ParticipantSet::local(Participant::proto(77));
        k.open_enable(ctx, null_id, sink_id, &parts).unwrap();
        let sess = k.open(ctx, null_id, sink_id, &parts).unwrap();
        let reply = sess
            .push(ctx, Message::from_user(b"hello".to_vec()))
            .unwrap();
        assert!(reply.is_none());
    };

    match mode {
        Mode::Inline => send(&sim.ctx(HostId(0))),
        Mode::Scheduled => {
            sim.spawn(HostId(0), send);
            let r = sim.run_until_idle();
            assert_eq!(r.blocked, 0);
        }
    }

    let sink = sim.kernel_of(HostId(0)).get("sink").unwrap();
    let sink: &dyn Any = &*sink;
    let sink = sink.downcast_ref::<Sink>().unwrap();
    let got = sink.got.lock().unwrap().clone();
    got
}

#[test]
fn null_layer_roundtrip_inline() {
    assert_eq!(run_stack(Mode::Inline), vec![b"hello".to_vec()]);
}

#[test]
fn null_layer_roundtrip_scheduled() {
    assert_eq!(run_stack(Mode::Scheduled), vec![b"hello".to_vec()]);
}

#[test]
fn scheduled_stack_charges_layer_costs() {
    let sim = Sim::new(SimConfig::scheduled());
    let k = Kernel::new(&sim, "h");
    registry().build(&sim, &k, GRAPH).expect("graph builds");
    sim.spawn(HostId(0), |ctx| {
        let k = ctx.kernel();
        let sink_id = k.lookup("sink").unwrap();
        let null_id = k.lookup("null").unwrap();
        let parts = ParticipantSet::local(Participant::proto(77));
        k.open_enable(ctx, null_id, sink_id, &parts).unwrap();
        let sess = k.open(ctx, null_id, sink_id, &parts).unwrap();
        sess.push(ctx, Message::from_user(vec![0u8; 64])).unwrap();
    });
    sim.run_until_idle();
    let spent = sim.now_of(HostId(0));
    // At minimum: session create + header push/pop + demux lookup + several
    // layer crossings under the sun3 model.
    assert!(
        spent > 100_000,
        "expected nontrivial virtual cost, got {spent}"
    );
}

#[test]
fn graph_rejects_unknown_and_duplicate_names() {
    let sim = Sim::new(SimConfig::inline_mode());
    let k = Kernel::new(&sim, "h");
    let reg = registry();
    assert!(reg.build(&sim, &k, "what: nothing").is_err());
    let k2 = Kernel::new(&sim, "h2");
    assert!(reg
        .build(&sim, &k2, "loop: loopback\nloop: loopback")
        .is_err());
    let k3 = Kernel::new(&sim, "h3");
    assert!(
        reg.build(&sim, &k3, "null -> nonexistent").is_err(),
        "down references must already be configured"
    );
}

#[test]
fn null_layer_propagates_max_packet_minus_header() {
    let sim = Sim::new(SimConfig::inline_mode());
    let k = Kernel::new(&sim, "h");
    registry().build(&sim, &k, GRAPH).unwrap();
    let ctx = sim.ctx(HostId(0));
    let null_id = k.lookup("null").unwrap();
    let sink_id = k.lookup("sink").unwrap();
    let parts = ParticipantSet::local(Participant::proto(5));
    let sess = k.open(&ctx, null_id, sink_id, &parts).unwrap();
    let max = sess.control(&ctx, &ControlOp::GetMaxPacket).unwrap();
    assert_eq!(max.size().unwrap(), 1500 - NULL_HDR_LEN);
}

// ---------------------------------------------------------------------------
// Kernel registry error paths.
// ---------------------------------------------------------------------------

#[test]
fn kernel_registry_error_paths() {
    let sim = Sim::new(SimConfig::inline_mode());
    let k = Kernel::new(&sim, "h");
    let id = k.reserve("loop").unwrap();
    assert!(k.reserve("loop").is_err(), "duplicate names rejected");
    assert!(
        k.proto_ref(id).is_err(),
        "reserved-but-uninstalled ids are not usable"
    );
    k.install(id, Loopback::new(id) as ProtocolRef).unwrap();
    assert!(
        k.install(id, Loopback::new(id) as ProtocolRef).is_err(),
        "double install rejected"
    );
    assert!(k.proto_ref(id).is_ok());
    assert!(k.lookup("nosuch").is_err());
    assert!(
        k.install(ProtoId(99), Loopback::new(ProtoId(99)) as ProtocolRef)
            .is_err(),
        "unreserved slot rejected"
    );
    assert_eq!(k.protocol_names(), vec!["loop".to_string()]);
}

#[test]
fn demux_to_missing_protocol_is_a_config_error() {
    let sim = Sim::new(SimConfig::inline_mode());
    let k = Kernel::new(&sim, "h");
    let id = k
        .register("loop", |me| Ok(Loopback::new(me) as ProtocolRef))
        .unwrap();
    let ctx = sim.ctx(k.host());
    let sess = k
        .open(&ctx, id, id, &ParticipantSet::local(Participant::proto(1)))
        .unwrap();
    let err = k
        .demux_to(&ctx, ProtoId(42), &sess, Message::empty())
        .unwrap_err();
    assert!(matches!(err, XError::Config(_)));
}

#[test]
fn semaphore_wakes_waiters_in_fifo_order() {
    let sim = Sim::new(SimConfig::scheduled().with_cost(CostModel::zero()));
    let _k = Kernel::new(&sim, "h");
    let sema = SharedSema::new(0);
    let order: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
    for i in 0..4u32 {
        let s = sema.clone();
        let o = Arc::clone(&order);
        sim.spawn(HostId(0), move |ctx| {
            ctx.sleep(u64::from(i)); // Establish arrival order 0,1,2,3.
            s.p(ctx);
            o.lock().unwrap().push(i);
        });
    }
    let sema2 = sema.clone();
    sim.spawn(HostId(0), move |ctx| {
        ctx.sleep(1_000);
        for _ in 0..4 {
            sema2.v(ctx);
        }
    });
    let r = sim.run_until_idle();
    assert_eq!(r.blocked, 0);
    assert_eq!(
        *order.lock().unwrap(),
        vec![0, 1, 2, 3],
        "longest waiter first"
    );
}

#[test]
fn sema_count_accumulates_when_nobody_waits() {
    let sim = Sim::new(SimConfig::inline_mode());
    let _k = Kernel::new(&sim, "h");
    let ctx = sim.ctx(HostId(0));
    let sema = SharedSema::new(0);
    sema.v(&ctx);
    sema.v(&ctx);
    assert_eq!(sema.count(), 2);
    sema.p(&ctx);
    assert_eq!(sema.count(), 1);
    assert!(sema.p_timeout(&ctx, 1), "count available: immediate");
    assert_eq!(sema.count(), 0);
}

// ---------------------------------------------------------------------------
// Host crash / restart.
// ---------------------------------------------------------------------------

/// Protocol that counts how often its reboot hook runs.
struct RebootProbe {
    me: ProtoId,
    reboots: Mutex<u32>,
}

impl Protocol for RebootProbe {
    fn name(&self) -> &'static str {
        "reboot_probe"
    }

    fn id(&self) -> ProtoId {
        self.me
    }

    fn open(&self, _ctx: &Ctx, _upper: ProtoId, _parts: &ParticipantSet) -> XResult<SessionRef> {
        Err(XError::Unsupported("probe open"))
    }

    fn open_enable(&self, _ctx: &Ctx, _upper: ProtoId, _parts: &ParticipantSet) -> XResult<()> {
        Ok(())
    }

    fn demux(&self, _ctx: &Ctx, _lls: &SessionRef, _msg: Message) -> XResult<()> {
        Ok(())
    }

    fn reboot(&self, _ctx: &Ctx) -> XResult<()> {
        *self.reboots.lock().unwrap() += 1;
        Ok(())
    }
}

#[test]
fn crash_kills_blocked_processes_and_pending_timers() {
    let sim = Sim::new(SimConfig::scheduled().with_cost(CostModel::zero()));
    let _k = Kernel::new(&sim, "h");
    let sema = SharedSema::new(0);
    let fired = Arc::new(Mutex::new(false));
    let f = fired.clone();
    sim.spawn(HostId(0), move |ctx| {
        ctx.schedule_after(1_000_000, move |_| *f.lock().unwrap() = true);
        sema.p(ctx); // Nobody will V; the crash reaps us.
    });
    sim.crash_at(500_000, HostId(0));
    let r = sim.run_until_idle();
    assert_eq!(r.blocked, 0, "a killed process is not 'blocked'");
    assert!(!*fired.lock().unwrap(), "timers die with their host");
    assert!(sim.is_down(HostId(0)));
    assert_eq!(sim.host_stats(HostId(0)).crashes, 1);
    assert_eq!(r.hosts[0].crashes, 1);
}

#[test]
fn restart_bumps_epoch_and_runs_reboot_hooks() {
    let sim = Sim::new(SimConfig::scheduled().with_cost(CostModel::zero()));
    let k = Kernel::new(&sim, "h");
    let id = k.reserve("reboot_probe").unwrap();
    let probe = Rc::new(RebootProbe {
        me: id,
        reboots: Mutex::new(0),
    });
    k.install(id, Rc::clone(&probe) as ProtocolRef).unwrap();
    sim.crash_at(100, HostId(0));
    sim.restart_at(200, HostId(0));
    sim.run_until_idle();
    assert!(!sim.is_down(HostId(0)));
    assert_eq!(sim.boot_epoch(HostId(0)), 1);
    assert_eq!(*probe.reboots.lock().unwrap(), 1);
    assert_eq!(sim.host_stats(HostId(0)).restarts, 1);
    // The host accepts fresh work after coming back up.
    let hit = Arc::new(Mutex::new(false));
    let h = hit.clone();
    sim.spawn(HostId(0), move |_| *h.lock().unwrap() = true);
    sim.run_until_idle();
    assert!(*hit.lock().unwrap());
}

#[test]
fn down_host_silently_drops_scheduled_work() {
    let sim = Sim::new(SimConfig::scheduled().with_cost(CostModel::zero()));
    let _k = Kernel::new(&sim, "h");
    sim.crash_at(0, HostId(0));
    sim.run_until_idle();
    let hit = Arc::new(Mutex::new(false));
    let h = hit.clone();
    sim.spawn(HostId(0), move |_| *h.lock().unwrap() = true);
    sim.run_until_idle();
    assert!(
        !*hit.lock().unwrap(),
        "work aimed at a down host is dropped"
    );
}

#[test]
fn robustness_counters_accumulate_per_host() {
    let sim = Sim::new(SimConfig::scheduled().with_cost(CostModel::zero()));
    let _a = Kernel::new(&sim, "a");
    let b = Kernel::new(&sim, "b");
    let lo = b
        .register("loop", |me| Ok(Loopback::new(me) as ProtocolRef))
        .unwrap();
    sim.spawn(HostId(0), |ctx| {
        ctx.note(RobustEvent::Retransmit);
        ctx.note(RobustEvent::Retransmit);
        ctx.note(RobustEvent::TimeoutFired);
    });
    sim.spawn(HostId(1), move |ctx| {
        ctx.note(RobustEvent::DuplicateSuppressed);
        // Two bytes of a four-byte header: the loopback refuses the frame
        // and its demux seam counts it.
        let k = ctx.kernel();
        let lls = k
            .open(ctx, lo, lo, &ParticipantSet::local(Participant::proto(1)))
            .unwrap();
        k.demux_to(ctx, lo, &lls, Message::from_wire(vec![0; 2]))
            .unwrap();
    });
    let r = sim.run_until_idle();
    assert_eq!(r.hosts[0].retransmits, 2);
    assert_eq!(r.hosts[0].timeouts_fired, 1);
    assert_eq!(r.hosts[0].duplicates_suppressed, 0);
    assert_eq!(r.hosts[1].duplicates_suppressed, 1);
    assert_eq!(r.hosts[1].corrupt_rejected, 1);
    assert_eq!(
        sim.rejects(),
        [RejectRow {
            host: HostId(1),
            proto: lo,
            layer: "loopback",
            why: Reject::Corrupt("header past the end of the message"),
            count: 1,
        }]
    );
}
