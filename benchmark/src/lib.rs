//! xkbench — the repo's benchmark. See `README.md` beside `Cargo.toml`.

pub mod alloc;
pub mod catalog;
pub mod gen;
pub mod host;
pub mod json;
pub mod layers;
pub mod probe;
pub mod rig;
pub mod run;
pub mod span;
pub mod stats;
pub mod workloads;
