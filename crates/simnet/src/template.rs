//! A warmed rig as something to start from, any number of times.

use xkernel::sim::{Sim, SimSnapshot, Time};

use crate::{NetSnapshot, SimNet};

/// A simulation and its network captured together at one quiescent instant
/// — the only place a [`Sim::restore`] is paired with a wire restore, so
/// the two cannot be taken, or put back, at different instants.
///
/// [`Template::rewind`] puts the rig back at that instant. [`Template::fork`]
/// does that and then makes it the rig another seed would have built
/// ([`Sim::reseed`]): the start of a run that is bit-identical — report,
/// `fuel_used`, `sched_hash` — to building the rig under that seed and
/// bringing it to the same instant.
///
/// What comes back is what [`Sim::snapshot`] and the wire snapshot hold:
/// clocks, the scheduler's counters and fingerprint, the PRNG word, every
/// protocol's state, every LAN's wire position, counters and fault
/// schedule. What does not is whatever observes a run rather than takes
/// part in it — trace rings and the cost ledger, checker state, an
/// installed chooser, journal and fault recording switches — so a rig
/// that ran with one of those attached is not reused (DESIGN.md §13).
pub struct Template {
    sim: Sim,
    net: SimNet,
    sim_snap: SimSnapshot,
    net_snap: NetSnapshot,
}

impl Template {
    /// Captures `sim` and `net` as they stand.
    ///
    /// # Panics
    ///
    /// Panics unless `sim` is quiescent (see [`Sim::snapshot`]): a template
    /// is taken after `run_until_idle`, with nothing blocked.
    pub fn capture(sim: &Sim, net: &SimNet) -> Template {
        let sim_snap = sim
            .snapshot()
            .unwrap_or_else(|e| panic!("a template is captured at quiescence: {e}"));
        Template {
            sim: sim.clone(),
            net: net.clone(),
            sim_snap,
            net_snap: net.snapshot(),
        }
    }

    /// Puts the rig back at the captured instant, under the seed it has.
    ///
    /// # Panics
    ///
    /// Panics unless the simulation is quiescent now: a run that left a
    /// process blocked cannot be rewound, only discarded
    /// ([`Sim::kill_suspended`]).
    pub fn rewind(&self) {
        self.sim
            .restore(&self.sim_snap)
            .unwrap_or_else(|e| panic!("a template rewinds its own quiescent rig: {e}"));
        self.net.restore(&self.net_snap);
    }

    /// [`Template::rewind`], then [`Sim::reseed`]: the rig as `seed` would
    /// have built it. The captured instant must be one only `boot`'s PRNG
    /// draws precede — `reseed` panics, naming the count, otherwise.
    pub fn fork(&self, seed: u64) {
        self.rewind();
        self.sim.reseed(seed);
    }

    /// The simulation this template rewinds.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// The network this template rewinds.
    pub fn net(&self) -> &SimNet {
        &self.net
    }

    /// Virtual time of the captured instant.
    pub fn captured_at(&self) -> Time {
        self.sim_snap.now()
    }
}
