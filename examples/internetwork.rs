//! Figure 2, live: RPC, Psync, and UDP all sharing one VIP, across a
//! two-LAN internetwork with a router.
//!
//! The same client kernel talks to a server on its own Ethernet and to a
//! server across the router. VIP makes the decision per destination at
//! open time — raw Ethernet for the local peer (IP deleted from the
//! stack), IP via the gateway for the remote one — and the protocols above
//! never know the difference.
//!
//! ```text
//! cargo run --example internetwork
//! ```

use std::sync::{Arc, Mutex};

use xkernel::prelude::*;
use xkernel::sim::{Sim, SimConfig};

fn main() -> XResult<()> {
    let sim = Sim::new(SimConfig::scheduled().with_trace());
    let net = simnet::SimNet::new(&sim);
    let lan_a = net.add_lan(simnet::LanConfig::default());
    let lan_b = net.add_lan(simnet::LanConfig::default());

    let mut registry = xkernel::graph::ProtocolRegistry::new();
    inet::register_ctors(&mut registry);
    xrpc::register_ctors(&mut registry);
    psync::register_ctors(&mut registry);

    // Figure 2's suite: Sprite RPC, Psync, and UDP over one VIP over
    // {ETH, IP-over-ETH}.
    let graph = |ip: &str, gw: &str| {
        format!(
            "eth -> nic0\n\
             arp ip={ip} -> eth\n\
             ip gw={gw} -> eth arp\n\
             udp -> ip\n\
             vip -> ip eth arp\n\
             mrpc: sprite -> vip\n\
             psync -> vip\n"
        )
    };

    let client = Kernel::new(&sim, "client");
    net.attach(&client, lan_a, "nic0", EthAddr::from_index(1))?;
    registry.build(&sim, &client, &graph("10.0.0.1", "10.0.0.254"))?;

    let local_srv = Kernel::new(&sim, "local-server");
    net.attach(&local_srv, lan_a, "nic0", EthAddr::from_index(2))?;
    registry.build(&sim, &local_srv, &graph("10.0.0.2", "10.0.0.254"))?;

    let remote_srv = Kernel::new(&sim, "remote-server");
    net.attach(&remote_srv, lan_b, "nic0", EthAddr::from_index(3))?;
    registry.build(&sim, &remote_srv, &graph("10.0.1.1", "10.0.1.254"))?;

    let router = Kernel::new(&sim, "router");
    net.attach(&router, lan_a, "nicA", EthAddr::from_index(8))?;
    net.attach(&router, lan_b, "nicB", EthAddr::from_index(9))?;
    registry.build(
        &sim,
        &router,
        "eth0: eth -> nicA\n\
         arp0: arp ip=10.0.0.254 -> eth0\n\
         eth1: eth -> nicB\n\
         arp1: arp ip=10.0.1.254 -> eth1\n\
         ip forward=1 -> eth0 arp0 eth1 arp1\n",
    )?;

    for srv in [&local_srv, &remote_srv] {
        let name = srv.name().to_string();
        xrpc::serve(srv, "mrpc", 1, move |ctx, _msg| {
            Ok(ctx.msg(name.clone().into_bytes()))
        })?;
    }

    let results: Arc<Mutex<Vec<(String, String, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let r2 = Arc::clone(&results);
    sim.spawn(client.host(), move |ctx| {
        let k = ctx.kernel();
        for (label, ip) in [
            ("same ethernet", IpAddr::new(10, 0, 0, 2)),
            ("across the router", IpAddr::new(10, 0, 1, 1)),
        ] {
            let t0 = ctx.now();
            let who = xrpc::call(ctx, &k, "mrpc", ip, 1, Vec::new()).unwrap();
            // Warm call above opened sessions; measure a second one.
            let t0_warm = ctx.now();
            let _ = xrpc::call(ctx, &k, "mrpc", ip, 1, Vec::new()).unwrap();
            let warm_ns = ctx.now() - t0_warm;
            let _ = t0;
            r2.lock().unwrap().push((
                label.to_string(),
                String::from_utf8_lossy(&who).into_owned(),
                warm_ns,
            ));
        }
    });
    let report = sim.run_until_idle();
    assert_eq!(report.blocked, 0);

    for (label, who, ns) in results.lock().unwrap().iter() {
        println!(
            "{label:>20}: answered by {who:<14} round trip {:.2} ms",
            *ns as f64 / 1e6
        );
    }
    // VIP's decisions, straight from the trace.
    for (host, note) in sim.trace_notes() {
        if note.starts_with("open:") {
            println!("  host {host:?}: vip {note}");
        }
    }
    println!(
        "LAN A carried {} frames; LAN B carried {} frames",
        net.stats(lan_a).sent,
        net.stats(lan_b).sent
    );
    Ok(())
}
