//! # xkernel — the x-kernel object infrastructure, in Rust
//!
//! This crate reproduces the substrate of *RPC in the x-Kernel: Evaluating
//! New Design Techniques* (Hutchinson, Peterson, Abbott, O'Malley — SOSP
//! 1989): an object-oriented infrastructure for composing network protocols
//! with three distinguishing features the paper's techniques depend on:
//!
//! 1. **A uniform interface to all protocols** ([`proto::Protocol`],
//!    [`proto::Session`]) — protocols with the same semantics are
//!    substitutable for one another.
//! 2. **Late binding between protocol layers** — high-level protocols `open`
//!    low-level protocols at run time through capabilities configured by the
//!    [`graph`] DSL, so "exactly the right protocol for a particular
//!    situation" can be selected (this is what makes *virtual protocols*
//!    possible).
//! 3. **Light-weight layers** — crossing a layer costs one procedure call
//!    ([`kernel::Kernel::demux_to`]), which is what makes *layered
//!    protocols* economical.
//!
//! The crate also provides the execution substrate the paper's testbed
//! hardware is replaced by: a deterministic virtual-time simulator
//! ([`sim`]) with shepherd processes, semaphores, timers, and a calibrated
//! per-primitive [`cost::CostModel`], plus the header-headroom [`msg`]
//! message type whose allocation policy is itself one of the paper's
//! evaluated design choices.
//!
//! ## Quick tour
//!
//! ```
//! use xkernel::prelude::*;
//! use xkernel::sim::{Sim, SimConfig};
//!
//! // A simulator in inline mode (synchronous, no virtual time) ...
//! let sim = Sim::new(SimConfig::inline_mode());
//! // ... with one host ...
//! let kernel = Kernel::new(&sim, "host-a");
//! // ... is ready for protocols to be registered and composed. See the
//! // `inet` and `xrpc` crates for the protocol suite itself.
//! assert_eq!(kernel.name(), "host-a");
//! ```
//!
//! ## One thread by type
//!
//! One OS thread drives a simulation, and the types say so: what lives
//! inside one holds `Rc`, `Cell` and [`cell::OwnerCell`], so rustc refuses
//! to move a session, a message or a semaphore to another thread.
//!
//! ```compile_fail,E0277
//! fn elsewhere(s: xkernel::proto::SessionRef) {
//!     std::thread::spawn(move || drop(s));
//! }
//! ```
//!
//! ```compile_fail,E0277
//! let m = xkernel::msg::Message::from_user(vec![1, 2, 3]);
//! std::thread::spawn(move || drop(m));
//! ```
//!
//! ```compile_fail,E0277
//! let s = xkernel::sim::SharedSema::new(1);
//! std::thread::spawn(move || drop(s));
//! ```
//!
//! Two handles stay `Send`, a `Sim` and an `Arc<Kernel>`, under the
//! one-driver contract written beside [`sim::Sim`]: a simulation moves
//! between threads whole, at a real synchronisation point.
//!
//! ```
//! use xkernel::prelude::*;
//! use xkernel::sim::{Sim, SimConfig};
//!
//! let sim = Sim::new(SimConfig::inline_mode());
//! let kernel = Kernel::new(&sim, "host-a");
//! let moved = std::thread::spawn(move || {
//!     assert_eq!(kernel.name(), "host-a");
//!     (sim, kernel)
//! });
//! let (sim, kernel) = moved.join().unwrap();
//! assert_eq!(sim.kernel_of(kernel.host()).name(), "host-a");
//! ```

#![warn(missing_docs)]
#![warn(clippy::disallowed_types)]

pub mod addr;
pub mod cell;
pub mod check;
pub mod cost;
pub mod error;
pub mod graph;
pub mod journal;
pub mod json;
pub mod keep;
pub mod kernel;
pub mod lint;
pub mod map;
pub mod msg;
// Where OS threads meet: result slots behind a real mutex, scoped workers.
#[allow(clippy::disallowed_types)]
pub mod par;
pub mod proto;
pub mod rng;
pub mod shepherd;
pub mod shim;
// clippy.toml's thread and std-collection constructor bans: the engine runs
// every process on its own thread and keeps its state in slabs.
#[warn(clippy::disallowed_methods)]
pub mod sim;
pub mod trace;
#[allow(unsafe_code)]
#[warn(clippy::disallowed_methods)]
pub mod vproc;
pub mod wire;

pub use kernel::prelude;
