//! # xload — load generation over the x-kernel stacks
//!
//! The paper's tables measure one client calling one server on a quiet
//! wire. This crate asks the next question — what do the same stacks do
//! under *load*? — with the three pieces a throughput/tail-latency
//! experiment needs:
//!
//! * **Topologies** ([`topo`]): N client hosts and a server on one shared
//!   Ethernet segment, or split across a forwarding router
//!   ([`inet::testbed::routed_lans`]) so every call crosses ARP, IP
//!   routing, and — under MTU mismatch — router-side refragmentation.
//! * **Generators** ([`gen`]): a closed loop (K clients with think time,
//!   offered load adapts to service rate) and an open loop (Poisson
//!   arrivals at a target rate, offered load held constant while the
//!   system saturates). Both drive the full six-stack matrix: the five
//!   paper configurations plus Sun RPC over UDP, optionally with a
//!   server-side shepherd pool (`shepherds=`/`pending=`/`policy=`).
//! * **Accounting** ([`hist`]): per-call latencies in a log-scaled integer
//!   histogram (p50/p90/p99/p99.9 with ≤3% quantization error), plus
//!   goodput, offered load, failure and shepherd overload counters — all
//!   integers, so a [`gen::LoadReport`] derives `Eq` and determinism is a
//!   single assert.
//! * **Fork sweeps** ([`fork`]): warm the rig once, snapshot the quiescent
//!   state, and branch `SetTimeout`/`SetBackoff` policy points from the
//!   saved snapshot — every branch starts bit-identical, so report
//!   differences are attributable to policy alone.
//!
//! ```no_run
//! use xload::{GenMode, LoadSpec, LoadStack, Topology};
//!
//! let spec = LoadSpec {
//!     stack: LoadStack::Paper(xrpc::stacks::L_RPC_VIP),
//!     topo: Topology::Segment { hosts: 4 },
//!     gen: GenMode::Open { rate_cps: 800 },
//!     duration_ns: 500_000_000,
//!     payload: 64,
//!     seed: 1,
//!     shepherds: 4,
//!     pending: 32,
//!     reject: false,
//!     trace: false,
//! };
//! let report = spec.run();
//! assert!(report.goodput_cps > 0);
//! println!("p99 = {} ns", report.latency.p99_ns);
//! ```

#![warn(missing_docs)]
#![warn(clippy::disallowed_types, clippy::disallowed_methods)]

pub mod fork;
pub mod gen;
pub mod hist;
pub mod mclient;
pub mod topo;

pub use fork::{fork_sweep, ForkReport, PolicyPoint};
pub use gen::{poisson_offsets, GenMode, LoadReport, LoadSpec};
pub use hist::{Hist, LatencySummary};
pub use mclient::{MClientReport, MClientSpec};
pub use topo::{build_rig, with_params, LoadRig, LoadStack, Topology};
