//! Load topologies and the stacks a load run drives.
//!
//! Two shapes, both built from [`inet::testbed`]: a single shared Ethernet
//! segment with N client hosts and one server, and the routed internetwork
//! of [`inet::testbed::routed_lans`] — clients on segment A, the server
//! across a forwarding router on segment B, so every call exercises ARP,
//! IP routing, and (when the segments' MTUs differ) router-side
//! refragmentation.

use std::sync::{Arc, OnceLock};

use simnet::{LanConfig, SimNet};
use xkernel::graph::ProtocolRegistry;
use xkernel::prelude::*;
use xkernel::sim::{Sim, SimConfig};

use inet::testbed::{lan_hosts, routed_lans};
use xrpc::stacks::{StackDef, ALL_RPC_STACKS};

/// Sun RPC program number used by the load engine.
pub const SUN_PROG: u32 = 100_200;
/// Sun RPC program version.
pub const SUN_VERS: u32 = 1;
/// Sun RPC echo procedure.
pub const SUN_PROC: u32 = 3;

/// The Sun RPC stack's graph lines (same composition the chaos harness
/// drives): REQUEST_REPLY over UDP, AUTH_UNIX, SUN_SELECT on top.
pub const SUN_GRAPH: &str = "request_reply -> udp\n\
     auth: auth_unix uid=1000 machine=sun3 allow=1000 -> request_reply\n\
     sunselect -> auth\n";

/// A stack the load engine can drive: one of the paper's five RPC
/// configurations, or classic Sun RPC over UDP.
#[derive(Clone, Copy, Debug)]
pub enum LoadStack {
    /// A Table I/II configuration (entry is a `sprite` or `select`).
    Paper(StackDef),
    /// SUN_SELECT / AUTH_UNIX / REQUEST_REPLY / UDP.
    SunRpcUdp,
}

impl LoadStack {
    /// All six stacks, in table order then Sun RPC.
    pub fn all() -> Vec<LoadStack> {
        let mut v: Vec<LoadStack> = ALL_RPC_STACKS
            .iter()
            .copied()
            .map(LoadStack::Paper)
            .collect();
        v.push(LoadStack::SunRpcUdp);
        v
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            LoadStack::Paper(def) => def.name,
            LoadStack::SunRpcUdp => "SUNRPC-UDP",
        }
    }

    /// Graph lines appended to the standard inet graph on every host.
    pub fn graph(&self) -> &'static str {
        match self {
            LoadStack::Paper(def) => def.graph,
            LoadStack::SunRpcUdp => SUN_GRAPH,
        }
    }

    /// The graph instance that owns the server-side shepherd pool (where
    /// `shepherds=`/`pending=`/`policy=` parameters are spliced).
    pub fn pool_instance(&self) -> &'static str {
        match self {
            LoadStack::Paper(def) => def.entry,
            LoadStack::SunRpcUdp => "request_reply",
        }
    }

    /// True when the stack routes through IP, i.e. can cross the router of
    /// [`Topology::Routed`]. Only `M_RPC-ETH` speaks raw Ethernet and is
    /// confined to a single segment.
    pub fn routable(&self) -> bool {
        match self {
            LoadStack::Paper(def) => def.name != "M_RPC-ETH",
            LoadStack::SunRpcUdp => true,
        }
    }
}

/// Where the client hosts and the server sit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// `hosts` client hosts plus one server host on a single shared
    /// Ethernet segment.
    Segment {
        /// Number of client hosts.
        hosts: usize,
    },
    /// `hosts` client hosts on segment A; the server alone on segment B,
    /// reached through a forwarding router.
    Routed {
        /// Number of client hosts (segment A).
        hosts: usize,
    },
}

impl Topology {
    /// Number of client hosts.
    pub fn hosts(&self) -> usize {
        match *self {
            Topology::Segment { hosts } | Topology::Routed { hosts } => hosts,
        }
    }

    /// A short label for reports ("segment4", "routed2").
    pub fn label(&self) -> String {
        match *self {
            Topology::Segment { hosts } => format!("segment{hosts}"),
            Topology::Routed { hosts } => format!("routed{hosts}"),
        }
    }
}

/// A built load testbed: client kernels, one server kernel, the simulator.
pub struct LoadRig {
    /// The simulator.
    pub sim: Sim,
    /// The network.
    pub net: SimNet,
    /// Client kernels, in address order.
    pub clients: Vec<Arc<Kernel>>,
    /// The server kernel.
    pub server: Arc<Kernel>,
    /// The server's internet address.
    pub server_ip: IpAddr,
}

/// Splices `params` (e.g. `"shepherds=4 pending=32 policy=reject"`) into
/// the graph line that defines `instance`, right after the protocol name,
/// so a stack's canonical graph can be re-parameterized without copying it.
///
/// # Panics
///
/// Panics if no line defines `instance` — a misconfigured load spec, not a
/// runtime condition.
pub fn with_params(graph: &str, instance: &str, params: &str) -> String {
    if params.is_empty() {
        return graph.to_string();
    }
    let mut out = String::with_capacity(graph.len() + params.len() + 1);
    let mut found = false;
    for line in graph.lines() {
        let trimmed = line.trim();
        let name = match trimmed.split_once(':') {
            Some((n, _)) => n.trim(),
            None => trimmed.split_whitespace().next().unwrap_or(""),
        };
        if name == instance && !found {
            found = true;
            let (head, tail) = trimmed
                .split_once("->")
                .expect("graph line has a lower-protocol arrow");
            out.push_str(head.trim_end());
            out.push(' ');
            out.push_str(params);
            out.push_str(" -> ");
            out.push_str(tail.trim_start());
        } else {
            out.push_str(trimmed);
        }
        out.push('\n');
    }
    assert!(found, "no graph line defines instance '{instance}'");
    out
}

/// The registry every load rig in the process is built from. A registry
/// keeps the lint verdict of each configuration it has proved, so a sweep
/// that builds the same host graphs point after point lints each once.
fn registry() -> &'static ProtocolRegistry {
    static REGISTRY: OnceLock<ProtocolRegistry> = OnceLock::new();
    REGISTRY.get_or_init(sunrpc::registry)
}

/// Builds the rig for `topo` with `stack`'s graph (plus `pool_params`
/// spliced into its pool-owning line) on every host. `seed` seeds the
/// simulation PRNG; `trace` enables the structured cost ledger.
pub fn build_rig(
    topo: Topology,
    stack: LoadStack,
    pool_params: &str,
    seed: u64,
    trace: bool,
) -> XResult<LoadRig> {
    let reg = registry();
    let mut cfg = SimConfig::scheduled().with_seed(seed);
    if trace {
        cfg = cfg.with_trace();
    }
    let graph = with_params(stack.graph(), stack.pool_instance(), pool_params);
    match topo {
        Topology::Segment { hosts } => {
            let mut lan = lan_hosts(cfg, reg, &graph, hosts + 1)?;
            let server_ip = lan.ip_of(hosts);
            let server = lan.kernels.pop().expect("server kernel");
            Ok(LoadRig {
                sim: lan.sim,
                net: lan.net,
                clients: lan.kernels,
                server,
                server_ip,
            })
        }
        Topology::Routed { hosts } => {
            assert!(stack.routable(), "{} cannot cross a router", stack.name());
            let rig = routed_lans(
                cfg,
                LanConfig::default(),
                LanConfig::default(),
                reg,
                &graph,
                hosts,
                1,
            )?;
            let server_ip = rig.right_ip(0);
            Ok(LoadRig {
                sim: rig.sim,
                net: rig.net,
                clients: rig.left,
                server: rig.right.into_iter().next().expect("server kernel"),
                server_ip,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_params_splices_into_named_and_unnamed_lines() {
        let g = "vip -> ip eth arp\nmrpc: sprite -> vip\n";
        let out = with_params(g, "mrpc", "shepherds=2 pending=4");
        assert!(out.contains("mrpc: sprite shepherds=2 pending=4 -> vip"));
        assert!(out.contains("vip -> ip eth arp"));
        let out2 = with_params("select -> channel\n", "select", "policy=reject");
        assert!(out2.contains("select policy=reject -> channel"));
    }

    #[test]
    fn with_params_empty_is_identity() {
        let g = "select -> channel\n";
        assert_eq!(with_params(g, "select", ""), g);
    }

    #[test]
    #[should_panic(expected = "no graph line defines")]
    fn with_params_rejects_unknown_instance() {
        with_params("select -> channel\n", "nosuch", "x=1");
    }

    #[test]
    fn all_stacks_enumerate_six() {
        let all = LoadStack::all();
        assert_eq!(all.len(), 6);
        assert_eq!(all[5].name(), "SUNRPC-UDP");
        assert!(all.iter().filter(|s| s.routable()).count() == 5);
    }
}
