//! The simulator handles: [`SimCore`] (the shared state), what set-up code
//! does through the owning [`Sim`] handle (the type itself sits beside the
//! event loop in `engine.rs`) and [`WeakSim`].

use std::cell::Cell;
use std::rc::{Rc, Weak};
use std::sync::Arc;

use crate::cell::OwnerCell;
use crate::check::Violation;
use crate::cost::CostModel;
use crate::kernel::Kernel;
use crate::map::AppendTable;
use crate::msg::{HeaderBufs, HeaderPolicy};
use crate::rng::{draws_between, splitmix64};

use super::engine::{install_crash_hook, Engine, EvKind, Procs, Slab, FNV_OFFSET};
use super::observe::{mask_for, Observers};
use super::report::HostCell;
use super::timeline::Timeline;
use super::*;

/// Shared simulator state.
pub struct SimCore {
    pub(super) mode: Mode,
    pub(super) cost: CostModel,
    pub(super) policy: HeaderPolicy,
    /// Per-process fuel budget, from [`SimConfig::fuel`].
    pub(super) fuel_limit: Option<u64>,
    /// Global virtual time: the time of the last processed event.
    pub(super) now: Cell<u64>,
    /// The SplitMix64 state word of the simulation PRNG.
    pub(super) rng: Cell<u64>,
    /// Hosts in [`HostId`] order; appended to by [`Sim::add_kernel`] and
    /// read with no guard. Each is shared with the contexts aimed at it.
    pub(super) hosts: AppendTable<Rc<HostCell>>,
    /// The scheduler's compound state — and the observers' — in the
    /// simulator's one cell.
    pub(super) engine: OwnerCell<Engine>,
    /// Which observers are on, one bit each (`observe.rs`): trace and check
    /// fixed at construction, the journal toggled to scope a recording.
    pub(super) observing: Cell<u8>,
    /// The seed the PRNG stream started from — the configured one, or the
    /// last [`Sim::reseed`]'s — kept for repro strings.
    pub(super) seed: Cell<u64>,
    /// The spare header buffers this simulation's messages take and give
    /// back while it is current on its thread (see [`Sim::ctx`]).
    pub(super) header_bufs: Rc<HeaderBufs>,
    /// Semaphore ids drawn so far: the checker's names for the semaphores
    /// its probes have met (`sema.rs`).
    pub(super) semas: Cell<u64>,
}

impl SimCore {
    #[inline]
    pub(super) fn host(&self, host: HostId) -> &Rc<HostCell> {
        self.hosts
            .get(host.0)
            .expect("host id belongs to no registered kernel")
    }

    /// Next value from the simulation-wide deterministic PRNG (SplitMix64).
    pub(super) fn next_u64(&self) -> u64 {
        let mut s = self.rng.get();
        let z = splitmix64(&mut s);
        self.rng.set(s);
        z
    }
}

impl Sim {
    /// Creates a simulator.
    pub fn new(cfg: SimConfig) -> Sim {
        if cfg.fuel.is_some() {
            // Fuel kills unwind coroutines with a filtered panic payload;
            // install the hook up front so the first kill prints nothing.
            install_crash_hook();
        }
        Sim {
            core: Rc::new(SimCore {
                mode: cfg.mode,
                cost: cfg.cost,
                policy: cfg.policy,
                fuel_limit: cfg.fuel,
                now: Cell::new(0),
                rng: Cell::new(cfg.seed | 1),
                hosts: AppendTable::new(),
                engine: OwnerCell::new(Engine {
                    seq: 0,
                    timeline: Timeline::new(),
                    events: Slab::new(),
                    lps: Procs::new(),
                    next_lp: 0,
                    current: None,
                    on_driver: None,
                    stop: 0,
                    executed: 0,
                    panics: Vec::new(),
                    reap: Vec::new(),
                    fuel_exhausted: 0,
                    peak_live: 0,
                    chooser: None,
                    sched_hash: FNV_OFFSET,
                    observers: Observers::default(),
                }),
                observing: mask_for(&cfg),
                seed: Cell::new(cfg.seed),
                header_bufs: Rc::default(),
                semas: Cell::new(0),
            }),
        }
    }

    /// Execution mode.
    pub fn mode(&self) -> Mode {
        self.core.mode
    }

    /// The cost model in effect.
    pub fn cost(&self) -> &CostModel {
        &self.core.cost
    }

    /// Registers a kernel, allocating its host id. Called by `Kernel::new`.
    pub(crate) fn add_kernel(&self, k: &Arc<Kernel>) -> HostId {
        let cell = Rc::new(HostCell::new(Arc::clone(k)));
        HostId(self.core.hosts.push(cell))
    }

    /// The kernel running on `host`.
    pub fn kernel_of(&self, host: HostId) -> Arc<Kernel> {
        Arc::clone(&self.core.host(host).kernel)
    }

    /// All registered kernels.
    pub fn kernels(&self) -> Vec<Arc<Kernel>> {
        kernels_of(&self.core)
    }

    /// A handle that does not keep the simulation alive (see [`WeakSim`]).
    pub fn downgrade(&self) -> WeakSim {
        WeakSim {
            core: Rc::downgrade(&self.core),
        }
    }

    /// A context bound to `host` but to no logical process. Suitable for
    /// setup (graph building, enables) and for everything in inline mode;
    /// blocking from it panics. Makes this simulation the thread's current
    /// one, whose spare header buffers the thread's new messages take (a
    /// run's driver is made here too).
    pub fn ctx(&self, host: HostId) -> Ctx {
        HeaderBufs::make_current(&self.core.header_bufs);
        Ctx {
            core: Rc::clone(&self.core),
            host,
            cell: self.core.hosts.get(host.0).cloned(),
            lp: None,
        }
    }

    /// Spawns a shepherd process on `host`. In scheduled mode it is queued
    /// at the current virtual time and run by [`Sim::run_until_idle`]; in
    /// inline mode it executes immediately on the calling thread.
    pub fn spawn(&self, host: HostId, f: impl FnOnce(&Ctx) + 'static) {
        self.ctx(host).spawn_on(host, f);
    }

    /// Schedules a crash of `host` at absolute virtual time `t`. At that
    /// instant every in-flight message addressed to the host, every timer
    /// armed on it, and every blocked process running on it is discarded;
    /// further deliveries are dropped until a restart. Scheduled mode only.
    pub fn crash_at(&self, t: Time, host: HostId) {
        assert_eq!(
            self.core.mode,
            Mode::Scheduled,
            "crash/restart require virtual time"
        );
        install_crash_hook();
        self.core
            .engine
            .lock()
            .push_event(t, EvKind::Crash { host });
    }

    /// Crashes `host` at the current virtual time (see [`Sim::crash_at`]).
    pub fn crash(&self, host: HostId) {
        let t = self.virtual_now();
        self.crash_at(t, host);
    }

    /// Schedules a restart of a crashed `host` at absolute virtual time `t`:
    /// the host's boot epoch is bumped and every protocol's
    /// [`crate::proto::Protocol::reboot`] hook runs as a fresh shepherd
    /// process (protocols shed per-connection state and draw new boot
    /// incarnation ids there). Scheduled mode only.
    pub fn restart_at(&self, t: Time, host: HostId) {
        assert_eq!(
            self.core.mode,
            Mode::Scheduled,
            "crash/restart require virtual time"
        );
        self.core
            .engine
            .lock()
            .push_event(t, EvKind::Restart { host });
    }

    /// Restarts `host` at the current virtual time (see [`Sim::restart_at`]).
    pub fn restart(&self, host: HostId) {
        let t = self.virtual_now();
        self.restart_at(t, host);
    }

    /// Robustness counters for `host` (also in [`RunReport::hosts`]).
    pub fn host_stats(&self, host: HostId) -> HostStats {
        self.core.host(host).stats()
    }

    /// Every frame a layer refused so far, one row per (host, protocol,
    /// reason) that refused any, sorted.
    pub fn rejects(&self) -> Vec<RejectRow> {
        let mut rows = Vec::new();
        for (i, h) in self.core.hosts.iter().enumerate() {
            for &(proto, why, count) in h.rejects.lock().iter() {
                let layer = h.kernel.proto_ref(proto).map_or("?", |p| p.name());
                rows.push(RejectRow {
                    host: HostId(i),
                    proto,
                    layer,
                    why,
                    count,
                });
            }
        }
        rows.sort_unstable();
        rows
    }

    /// How many times `host` has restarted (0 until its first restart).
    pub fn boot_epoch(&self, host: HostId) -> u32 {
        self.core.host(host).epoch.get()
    }

    /// Whether `host` is currently crashed.
    pub fn is_down(&self, host: HostId) -> bool {
        self.core.host(host).down.get()
    }

    /// Spawns a stackless [`VProc`] machine as a shepherd process on
    /// `host`, queued at the current virtual time. Scheduled mode only —
    /// machines have no meaning without a scheduler to perform their
    /// blocking points.
    pub fn spawn_vproc(&self, host: HostId, m: Box<dyn VProc>) {
        self.ctx(host).spawn_vproc_on(host, m);
    }

    /// Virtual CPU time of `host`.
    pub fn now_of(&self, host: HostId) -> Time {
        self.core.host(host).cpu.get()
    }

    /// Global virtual time (time of the last processed event).
    pub fn virtual_now(&self) -> Time {
        self.core.now.get()
    }

    /// Next value from the simulation-wide deterministic PRNG (SplitMix64).
    pub fn next_u64(&self) -> u64 {
        self.core.next_u64()
    }

    /// The seed the PRNG stream started from (embedded in repro strings).
    pub fn seed(&self) -> u64 {
        self.core.seed.get()
    }

    /// Turns a rig built under one seed into the rig `seed` would have
    /// built: restarts the PRNG word at `seed | 1` (where [`Sim::new`]
    /// starts it), makes `seed` what [`Sim::seed`] reports, and has every
    /// protocol redo its boot-time draws from the new stream
    /// ([`crate::proto::Protocol::reseed`], kernels in host order, protocols
    /// in id order — the order `boot` ran). Returns how many draws that was.
    ///
    /// Meant for a simulation whose only draws so far are `boot`'s — a
    /// template just restored (DESIGN.md §13). The PRNG word is a counter,
    /// so that is checked rather than assumed.
    ///
    /// # Panics
    ///
    /// Panics unless the hooks drew exactly as often as the simulation had
    /// drawn before the call: a protocol that draws in `boot` without
    /// overriding `reseed`, or set-up that drew after `boot`, would
    /// otherwise show up only as a run that differs from the one built
    /// under `seed`.
    pub fn reseed(&self, seed: u64) -> u64 {
        let core = &self.core;
        let made = draws_between(core.seed.get() | 1, core.rng.get());
        core.seed.set(seed);
        core.rng.set(seed | 1);
        for h in core.hosts.iter() {
            let ctx = self.ctx(h.kernel.host());
            h.kernel.protocols().for_each(|p| p.reseed(&ctx));
        }
        let redone = draws_between(seed | 1, core.rng.get());
        assert!(
            redone == made,
            "Sim::reseed: this simulation had made {made} PRNG draw(s) but its \
             protocols' reseed hooks redid {redone}; every draw before a reseed \
             must be one a Protocol::boot makes and its reseed repeats"
        );
        redone
    }

    /// The schedule fingerprint accumulated so far (see
    /// [`RunReport::sched_hash`]).
    pub fn sched_hash(&self) -> u64 {
        self.core.engine.lock().sched_hash
    }

    /// Keys the timeline holds, events pending (in the event table, and the
    /// starts and wakes due in process slots) and the timeline's blocks in
    /// use, for the test that the first stays within twice the second plus
    /// a constant however many timers are cancelled, and the third within
    /// the 32-key blocks the first fills plus one part-filled or kept block
    /// a bucket and two for the due run.
    #[doc(hidden)]
    pub fn timeline_load(&self) -> (usize, usize, usize) {
        let g = self.core.engine.lock();
        (
            g.timeline.len(),
            g.events.len() + g.lps.keys(),
            g.timeline.blocks_in_use(),
        )
    }

    /// Installs a scheduling oracle: every same-time event tie becomes a
    /// forced-choice point decided by `chooser`. Used by xcheck's bounded
    /// schedule exploration; replaces any previous chooser.
    pub fn set_chooser(&self, chooser: Box<dyn ScheduleChooser>) {
        self.core.engine.lock().chooser = Some(chooser);
    }

    /// The replayable repro string for `v` under this run's seed and
    /// schedule fingerprint (see [`crate::check::parse_repro`]).
    pub fn repro(&self, v: &Violation) -> String {
        v.repro(self.seed(), self.sched_hash())
    }
}

/// A [`Sim`] handle that does not keep the simulation alive: it upgrades
/// only while some `Sim`, [`Ctx`] or suspended process still does.
#[derive(Clone)]
pub struct WeakSim {
    core: Weak<SimCore>,
}

impl WeakSim {
    /// The simulation, if it is still alive.
    pub fn upgrade(&self) -> Option<Sim> {
        self.core.upgrade().map(|core| Sim { core })
    }
}

/// Every registered kernel, in host order.
pub(super) fn kernels_of(core: &SimCore) -> Vec<Arc<Kernel>> {
    core.hosts.iter().map(|h| Arc::clone(&h.kernel)).collect()
}
