//! What a layer crossing costs the host: nothing that touches a reference
//! count. Probe protocols stacked three deep record, from *inside* `demux`
//! and `push`, the strong counts of their kernel and of their own protocol
//! object; every reading must equal the at-rest count, i.e. no crossing —
//! `Kernel::demux_to`, a `SessionRef` push — holds a transient clone of
//! either. The same file pins the lock-free by-name table.

use std::any::Any;
use std::rc::{self, Rc};
use std::sync::{Arc, Mutex, Weak};

use xkernel::graph::{GraphArgs, ProtocolRegistry};
use xkernel::prelude::*;
use xkernel::sim::{Sim, SimConfig};

/// `(strong count of the kernel, strong count of the protocol object)` as
/// seen from inside one crossing.
type Reading = (usize, usize);

struct Probe {
    this: rc::Weak<Probe>,
    me: ProtoId,
    kernel: Weak<Kernel>,
    down: Option<ProtoId>,
    up: UpperCell,
    seen: Mutex<Vec<Reading>>,
}

impl Probe {
    fn record(&self) {
        let reading = (self.kernel.strong_count(), self.this.strong_count());
        self.seen.lock().unwrap().push(reading);
    }

    fn take(&self) -> Vec<Reading> {
        std::mem::take(&mut self.seen.lock().unwrap())
    }
}

struct ProbeSession {
    parent: Rc<Probe>,
    lower: Option<SessionRef>,
}

impl Session for ProbeSession {
    fn protocol_id(&self) -> ProtoId {
        self.parent.me
    }

    fn push(&self, ctx: &Ctx, msg: Message) -> XResult<Option<Message>> {
        self.parent.record();
        match &self.lower {
            Some(lower) => lower.push(ctx, msg),
            None => Ok(None),
        }
    }
}

impl Protocol for Probe {
    fn id(&self) -> ProtoId {
        self.me
    }
    fn keeps(&self, _k: &mut Keep<'_>) {}

    fn boot(&self, ctx: &Ctx) -> XResult<()> {
        match self.down {
            Some(down) => ctx
                .kernel_ref()
                .open_enable(ctx, down, self.me, &ParticipantSet::new()),
            None => Ok(()),
        }
    }

    fn open(&self, ctx: &Ctx, _upper: ProtoId, parts: &ParticipantSet) -> XResult<SessionRef> {
        let lower = match self.down {
            Some(down) => Some(ctx.kernel_ref().open(ctx, down, self.me, parts)?),
            None => None,
        };
        Ok(Rc::new(ProbeSession {
            parent: self.this.upgrade().expect("probe alive"),
            lower,
        }))
    }

    fn open_enable(&self, _ctx: &Ctx, upper: ProtoId, _parts: &ParticipantSet) -> XResult<()> {
        self.up.set(Some(upper));
        Ok(())
    }

    fn demux(&self, ctx: &Ctx, lls: &SessionRef, msg: Message) -> XResult<()> {
        self.record();
        match self.up.get() {
            Some(upper) => ctx.kernel_ref().demux_to(ctx, upper, lls, msg),
            None => Ok(()),
        }
    }
}

const NAMES: [&str; 3] = ["wire", "mid", "top"];
const SPEC: &str = "wire: probe\nmid: probe -> wire\ntop: probe -> mid\n";

struct Rig {
    sim: Sim,
    kernel: Arc<Kernel>,
    ids: Vec<ProtoId>,
    probes: Vec<ProtocolRef>,
}

fn rig(cfg: SimConfig) -> Rig {
    let sim = Sim::new(cfg);
    let kernel = Kernel::new(&sim, "host");
    let mut reg = ProtocolRegistry::new();
    reg.add(ProtoContract::opaque("probe"), |a: &GraphArgs<'_>| {
        let probe = Rc::new_cyclic(|this| Probe {
            this: this.clone(),
            me: a.me,
            kernel: Arc::downgrade(a.kernel),
            down: a.down.first().copied(),
            up: UpperCell::new(),
            seen: Mutex::new(Vec::new()),
        });
        Ok(probe as ProtocolRef)
    });
    let ids = reg
        .build_unchecked(&sim, &kernel, SPEC)
        .expect("graph builds");
    let probes = ids
        .iter()
        .map(|&id| Rc::clone(kernel.proto_ref(id).expect("installed")))
        .collect();
    Rig {
        sim,
        kernel,
        ids,
        probes,
    }
}

fn crossings_hold_no_clone(cfg: SimConfig) {
    let rig = rig(cfg);
    let ctx = rig.sim.ctx(rig.kernel.host());
    let top = *rig.ids.last().expect("three protocols");
    let sess = rig
        .kernel
        .open(&ctx, top, top, &ParticipantSet::new())
        .expect("session chain opens");

    // At rest: the set-up is done, and every handle that exists now still
    // exists while the crossings below run.
    let at_rest: Vec<Reading> = rig
        .probes
        .iter()
        .map(|p| (Arc::strong_count(&rig.kernel), Rc::strong_count(p)))
        .collect();

    // Upward: three crossings through `Kernel::demux_to`.
    rig.kernel
        .demux_to(&ctx, rig.ids[0], &sess, Message::from_user(vec![1, 2, 3]))
        .expect("demux chain runs");
    // Downward: three crossings through `SessionRef` pushes.
    sess.push(&ctx, Message::from_user(vec![4, 5, 6]))
        .expect("push chain runs");

    for ((probe, rest), name) in rig.probes.iter().zip(&at_rest).zip(NAMES) {
        let probe: &dyn Any = &**probe;
        let seen = probe.downcast_ref::<Probe>().expect("a probe").take();
        assert_eq!(seen.len(), 2, "{name}: one demux and one push");
        for reading in seen {
            assert_eq!(
                reading, *rest,
                "{name}: a crossing held a transient clone (kernel, protocol)"
            );
        }
    }

    // The cloning accessors survive for set-up code and name the same
    // objects the borrowing ones do.
    assert!(Arc::ptr_eq(&ctx.kernel(), &rig.kernel));
    assert!(std::ptr::eq(ctx.kernel_ref(), &*rig.kernel));
    let cloned = rig.kernel.get("top").expect("installed");
    assert!(Rc::ptr_eq(
        &cloned,
        rig.kernel.proto_ref(top).expect("installed")
    ));
}

#[test]
fn a_crossing_clones_neither_kernel_nor_protocol() {
    crossings_hold_no_clone(SimConfig::inline_mode());
    crossings_hold_no_clone(SimConfig::scheduled());
}

#[test]
fn a_traced_crossing_clones_neither_kernel_nor_protocol() {
    crossings_hold_no_clone(SimConfig::scheduled().with_trace());
}

#[test]
fn lookup_resolves_every_configured_name_without_a_lock() {
    let rig = rig(SimConfig::inline_mode());
    for (name, id) in NAMES.iter().zip(&rig.ids) {
        assert_eq!(rig.kernel.lookup(name).expect("configured"), *id);
        assert_eq!(rig.kernel.name_of(*id).as_deref(), Some(*name));
        assert_eq!(rig.kernel.get(name).expect("installed").id(), *id);
    }
    assert_eq!(rig.kernel.protocol_names(), NAMES);
    let err = rig.kernel.lookup("nosuch").unwrap_err();
    assert!(matches!(err, XError::Config(_)), "got {err:?}");
    assert!(rig.kernel.name_of(ProtoId(NAMES.len())).is_none());
    // A name is reserved once.
    assert!(rig
        .kernel
        .reserve("mid", ProtoContract::opaque("probe"))
        .is_err());
    // A reserved, not yet installed name resolves; its protocol does not.
    let late = rig
        .kernel
        .reserve("late", ProtoContract::opaque("probe"))
        .expect("fresh name");
    assert_eq!(rig.kernel.lookup("late").expect("reserved"), late);
    assert!(rig.kernel.proto_ref(late).is_err());
}
