//! A three-party conversation over Psync — the many-to-many IPC protocol
//! the paper reuses FRAGMENT for. Messages carry their *context* (the
//! messages they reply to), and every participant delivers the
//! conversation in an order consistent with that partial order, even when
//! the wire reorders packets.
//!
//! ```text
//! cargo run --example psync_chat
//! ```

use std::rc::Rc;
use std::sync::{Arc, Mutex};

use inet::with_concrete;
use psync::Psync;
use simnet::fault::FaultPlan;
use xkernel::prelude::*;
use xkernel::sim::{Sim, SimConfig};

fn main() -> XResult<()> {
    let sim = Sim::new(SimConfig::scheduled());
    let net = simnet::SimNet::new(&sim);
    let lan = net.add_lan(simnet::LanConfig::default());
    // Random extra delays: packets overtake each other freely.
    net.set_faults(
        lan,
        FaultPlan {
            jitter_ns: 3_000_000,
            ..FaultPlan::default()
        },
    );

    let mut registry = xkernel::graph::ProtocolRegistry::new();
    inet::register_ctors(&mut registry);
    xrpc::register_ctors(&mut registry);
    psync::register_ctors(&mut registry);

    // Psync over FRAGMENT over VIP: big messages ride the reusable bulk
    // layer, and IP is deleted from the stack on this single Ethernet.
    let names = ["alice", "bob", "carol"];
    let mut kernels = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let k = Kernel::new(&sim, name);
        net.attach(&k, lan, "nic0", EthAddr::from_index(i as u16 + 1))?;
        let spec = format!(
            "{}vip -> ip eth arp\nfragment -> vip\npsync -> fragment\n",
            inet::standard_graph("nic0", &format!("10.0.0.{}", i + 1))
        );
        registry.build(&sim, &k, &spec)?;
        kernels.push(k);
    }
    let ips: Vec<IpAddr> = (0..3).map(|i| IpAddr::new(10, 0, 0, i + 1)).collect();

    let convs: Vec<_> = (0..3)
        .map(|i| {
            let peers = ips
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, ip)| *ip)
                .collect();
            let ctx = sim.ctx(kernels[i].host());
            with_concrete::<Psync, _>(&kernels[i], "psync", |p| p.open_conv(&ctx, 1, peers))
                .unwrap()
        })
        .collect();

    let transcript: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));

    // Alice opens the conversation — with an 8 kB attachment so FRAGMENT
    // has something to do.
    let c = Rc::clone(&convs[0]);
    sim.spawn(kernels[0].host(), move |ctx| {
        let mut opening = b"shall we reproduce a 1989 paper? [attachment: ".to_vec();
        opening.extend(vec![0u8; 8_000]);
        opening.extend_from_slice(b"]");
        c.send(ctx, opening).unwrap();
    });
    // Bob replies in Alice's context.
    let c = Rc::clone(&convs[1]);
    let t = Arc::clone(&transcript);
    sim.spawn(kernels[1].host(), move |ctx| {
        let m = c.receive(ctx, 5_000_000_000).unwrap();
        t.lock()
            .unwrap()
            .push(format!("bob heard {} bytes from {}", m.data.len(), m.from));
        c.send(ctx, b"yes - the x-kernel one".to_vec()).unwrap();
        let follow = c.receive(ctx, 5_000_000_000).unwrap();
        t.lock().unwrap().push(format!(
            "bob heard: {}",
            String::from_utf8_lossy(&follow.data)
        ));
    });
    // Carol sees everything in context order, then closes the thread.
    let c = Rc::clone(&convs[2]);
    let t = Arc::clone(&transcript);
    sim.spawn(kernels[2].host(), move |ctx| {
        let m1 = c.receive(ctx, 5_000_000_000).unwrap();
        let m2 = c.receive(ctx, 5_000_000_000).unwrap();
        assert!(
            m2.deps.contains(&m1.id),
            "bob's reply is in alice's context"
        );
        t.lock().unwrap().push(format!(
            "carol saw the {}-byte opener, then: {}",
            m1.data.len(),
            String::from_utf8_lossy(&m2.data)
        ));
        c.send(ctx, b"agreed, shipping it".to_vec()).unwrap();
    });

    let report = sim.run_until_idle();
    assert_eq!(report.blocked, 0);
    for line in transcript.lock().unwrap().iter() {
        println!("{line}");
    }
    println!(
        "wire: {} frames ({} bytes) — the 8 kB opener crossed as FRAGMENT pieces",
        net.stats(lan).sent,
        net.stats(lan).bytes
    );
    Ok(())
}
