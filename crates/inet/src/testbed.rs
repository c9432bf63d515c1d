//! Reusable test/benchmark topologies.
//!
//! The canonical rig is [`TwoHosts`]: "a pair of Sun 3/75s connected by an
//! isolated 10Mbps ethernet", each running the standard inet graph plus any
//! extra protocol lines the caller appends (the RPC stacks under test).
//! [`RoutedPair`] adds the two-LAN-plus-router topology used to demonstrate
//! VIP choosing IP for off-wire peers.

use std::sync::Arc;

use simnet::{LanConfig, LanId, SimNet};
use xkernel::graph::ProtocolRegistry;
use xkernel::prelude::*;
use xkernel::sim::{Sim, SimConfig};

use crate::standard_graph;

/// Two hosts on one isolated Ethernet.
pub struct TwoHosts {
    /// The simulator.
    pub sim: Sim,
    /// The network.
    pub net: SimNet,
    /// The shared LAN.
    pub lan: LanId,
    /// Client kernel (host 0, `10.0.0.1`).
    pub client: Arc<Kernel>,
    /// Server kernel (host 1, `10.0.0.2`).
    pub server: Arc<Kernel>,
    /// Client address.
    pub client_ip: IpAddr,
    /// Server address.
    pub server_ip: IpAddr,
}

/// Builds the default registry (inet constructors); callers add their own
/// on top.
pub fn base_registry() -> ProtocolRegistry {
    let mut reg = ProtocolRegistry::new();
    crate::register_ctors(&mut reg);
    reg
}

/// N hosts (`10.0.0.1` … `10.0.0.N`) on one isolated Ethernet, each running
/// [`standard_graph`] plus `extra_graph`.
pub struct Lan {
    /// The simulator.
    pub sim: Sim,
    /// The network.
    pub net: SimNet,
    /// The shared LAN.
    pub lan: LanId,
    /// The kernels, in address order.
    pub kernels: Vec<Arc<Kernel>>,
}

impl Lan {
    /// The address of host `i` (0-based).
    pub fn ip_of(&self, i: usize) -> IpAddr {
        IpAddr::new(10, 0, 0, i as u8 + 1)
    }
}

/// Builds a [`Lan`] of `n` hosts.
pub fn lan_hosts(
    cfg: SimConfig,
    reg: &ProtocolRegistry,
    extra_graph: &str,
    n: usize,
) -> XResult<Lan> {
    let sim = Sim::new(cfg);
    let net = SimNet::new(&sim);
    let lan = net.add_lan(LanConfig::default());
    let mut kernels = Vec::new();
    for i in 0..n {
        let k = Kernel::new(&sim, &format!("host{i}"));
        net.attach(&k, lan, "nic0", EthAddr::from_index(i as u16 + 1))?;
        let ip = format!("10.0.0.{}", i + 1);
        let spec = format!("{}{}", standard_graph("nic0", &ip), extra_graph);
        reg.build(&sim, &k, &spec)?;
        kernels.push(k);
    }
    Ok(Lan {
        sim,
        net,
        lan,
        kernels,
    })
}

/// Builds [`TwoHosts`]: both kernels run [`standard_graph`] plus
/// `extra_graph` (same extra lines on both hosts), constructed from `reg`.
pub fn two_hosts(cfg: SimConfig, reg: &ProtocolRegistry, extra_graph: &str) -> XResult<TwoHosts> {
    let mut l = lan_hosts(cfg, reg, extra_graph, 2)?;
    let server = l.kernels.pop().expect("two kernels");
    let client = l.kernels.pop().expect("two kernels");
    Ok(TwoHosts {
        sim: l.sim,
        net: l.net,
        lan: l.lan,
        client,
        server,
        client_ip: IpAddr::new(10, 0, 0, 1),
        server_ip: IpAddr::new(10, 0, 0, 2),
    })
}

/// Two hosts on different LANs joined by a forwarding router.
pub struct RoutedPair {
    /// The simulator.
    pub sim: Sim,
    /// The network.
    pub net: SimNet,
    /// Client's LAN.
    pub lan_a: LanId,
    /// Server's LAN.
    pub lan_b: LanId,
    /// Client kernel (`10.0.0.1`, gateway `10.0.0.254`).
    pub client: Arc<Kernel>,
    /// The router kernel (`10.0.0.254` / `10.0.1.254`).
    pub router: Arc<Kernel>,
    /// Server kernel (`10.0.1.1`, gateway `10.0.1.254`).
    pub server: Arc<Kernel>,
    /// Client address.
    pub client_ip: IpAddr,
    /// Server address.
    pub server_ip: IpAddr,
}

/// Builds [`RoutedPair`]; `extra_graph` lines are appended on the client and
/// server (not the router).
pub fn routed_pair(
    cfg: SimConfig,
    reg: &ProtocolRegistry,
    extra_graph: &str,
) -> XResult<RoutedPair> {
    let sim = Sim::new(cfg);
    let net = SimNet::new(&sim);
    let lan_a = net.add_lan(LanConfig::default());
    let lan_b = net.add_lan(LanConfig::default());

    let client = Kernel::new(&sim, "client");
    net.attach(&client, lan_a, "nic0", EthAddr::from_index(1))?;
    let spec = format!(
        "eth -> nic0\n\
         arp ip=10.0.0.1 -> eth\n\
         ip gw=10.0.0.254 -> eth arp\n\
         udp -> ip\n\
         icmp -> ip\n{extra_graph}"
    );
    reg.build(&sim, &client, &spec)?;

    let server = Kernel::new(&sim, "server");
    net.attach(&server, lan_b, "nic0", EthAddr::from_index(2))?;
    let spec = format!(
        "eth -> nic0\n\
         arp ip=10.0.1.1 -> eth\n\
         ip gw=10.0.1.254 -> eth arp\n\
         udp -> ip\n\
         icmp -> ip\n{extra_graph}"
    );
    reg.build(&sim, &server, &spec)?;

    let router = Kernel::new(&sim, "router");
    net.attach(&router, lan_a, "nicA", EthAddr::from_index(3))?;
    net.attach(&router, lan_b, "nicB", EthAddr::from_index(4))?;
    let spec = "eth0: eth -> nicA\n\
                arp0: arp ip=10.0.0.254 -> eth0\n\
                eth1: eth -> nicB\n\
                arp1: arp ip=10.0.1.254 -> eth1\n\
                ip forward=1 -> eth0 arp0 eth1 arp1\n";
    reg.build(&sim, &router, spec)?;

    Ok(RoutedPair {
        sim,
        net,
        lan_a,
        lan_b,
        client,
        router,
        server,
        client_ip: IpAddr::new(10, 0, 0, 1),
        server_ip: IpAddr::new(10, 0, 1, 1),
    })
}

/// Two multi-host Ethernet segments joined by a forwarding router: the
/// general internetwork for load experiments. Segment A holds
/// `10.0.0.1 … 10.0.0.N` (gateway `10.0.0.254`), segment B holds
/// `10.0.1.1 … 10.0.1.M` (gateway `10.0.1.254`). Each segment takes its own
/// [`LanConfig`], so bandwidths and MTUs can differ (IP refragments at the
/// router when they do).
pub struct RoutedLans {
    /// The simulator.
    pub sim: Sim,
    /// The network.
    pub net: SimNet,
    /// Segment A.
    pub lan_a: LanId,
    /// Segment B.
    pub lan_b: LanId,
    /// Segment A kernels, in address order.
    pub left: Vec<Arc<Kernel>>,
    /// Segment B kernels, in address order.
    pub right: Vec<Arc<Kernel>>,
    /// The router kernel (`10.0.0.254` / `10.0.1.254`).
    pub router: Arc<Kernel>,
}

impl RoutedLans {
    /// The address of segment-B host `i` (0-based).
    pub fn right_ip(&self, i: usize) -> IpAddr {
        IpAddr::new(10, 0, 1, i as u8 + 1)
    }
}

/// Builds [`RoutedLans`] with `n_left` + `n_right` hosts. `extra_graph`
/// lines are appended on every host (not the router).
pub fn routed_lans(
    cfg: SimConfig,
    lan_cfg_a: LanConfig,
    lan_cfg_b: LanConfig,
    reg: &ProtocolRegistry,
    extra_graph: &str,
    n_left: usize,
    n_right: usize,
) -> XResult<RoutedLans> {
    assert!(n_left <= 200 && n_right <= 200, "segment address space");
    let sim = Sim::new(cfg);
    let net = SimNet::new(&sim);
    let mtu_a = lan_cfg_a.mtu;
    let mtu_b = lan_cfg_b.mtu;
    let lan_a = net.add_lan(lan_cfg_a);
    let lan_b = net.add_lan(lan_cfg_b);

    let build_host = |lan: LanId, name: &str, eth_idx: u16, ip: &str, gw: &str, mtu: usize| {
        let k = Kernel::new(&sim, name);
        net.attach(&k, lan, "nic0", EthAddr::from_index(eth_idx))?;
        let spec = format!(
            "eth -> nic0\n\
             arp ip={ip} -> eth\n\
             ip gw={gw} mtu={mtu} -> eth arp\n\
             udp -> ip\n\
             icmp -> ip\n{extra_graph}"
        );
        reg.build(&sim, &k, &spec)?;
        Ok::<Arc<Kernel>, XError>(k)
    };

    let mut left = Vec::new();
    for i in 0..n_left {
        let ip = format!("10.0.0.{}", i + 1);
        left.push(build_host(
            lan_a,
            &format!("left{i}"),
            i as u16 + 1,
            &ip,
            "10.0.0.254",
            mtu_a,
        )?);
    }
    let mut right = Vec::new();
    for i in 0..n_right {
        let ip = format!("10.0.1.{}", i + 1);
        right.push(build_host(
            lan_b,
            &format!("right{i}"),
            i as u16 + 301,
            &ip,
            "10.0.1.254",
            mtu_b,
        )?);
    }

    let router = Kernel::new(&sim, "router");
    net.attach(&router, lan_a, "nicA", EthAddr::from_index(601))?;
    net.attach(&router, lan_b, "nicB", EthAddr::from_index(602))?;
    let spec = format!(
        "eth0: eth -> nicA\n\
         arp0: arp ip=10.0.0.254 -> eth0\n\
         eth1: eth -> nicB\n\
         arp1: arp ip=10.0.1.254 -> eth1\n\
         ip forward=1 mtu={mtu_a},{mtu_b} -> eth0 arp0 eth1 arp1\n"
    );
    reg.build(&sim, &router, &spec)?;

    Ok(RoutedLans {
        sim,
        net,
        lan_a,
        lan_b,
        left,
        right,
        router,
    })
}
