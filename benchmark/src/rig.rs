//! Testbeds, built only from the program's public items (the README's API
//! pin list names each one).

use std::sync::{Arc, Mutex};

use inet::testbed::{base_registry, two_hosts, TwoHosts};
use inet::with_concrete;
use simnet::LanStats;
use sunrpc::sunselect::SunSelect;
use xkernel::graph::ProtocolRegistry;
use xkernel::prelude::*;
use xkernel::sim::{RunReport, Sim, SimConfig};
use xload::topo::{SUN_GRAPH, SUN_PROG, SUN_VERS};
use xrpc::pinger::Pinger;
use xrpc::stacks::StackDef;

/// Sun RPC procedure number of the benchmark's digest sink.
const SUN_SINK_PROC: u32 = 9;

/// Every constructor the six workloads and the ladder need.
pub fn registry() -> ProtocolRegistry {
    let mut reg = base_registry();
    xrpc::register_ctors(&mut reg);
    sunrpc::register_ctors(&mut reg);
    reg
}

/// The two-host rig for one of the paper's RPC stacks, standard procedures
/// registered on the server.
pub fn rpc_rig(reg: &ProtocolRegistry, stack: &StackDef, cfg: SimConfig) -> TwoHosts {
    let tb = two_hosts(cfg, reg, stack.graph).expect("testbed builds");
    xrpc::procs::register_standard(&tb.server, stack.entry).expect("procedures register");
    tb
}

/// What the digest sink replies: the request's length and byte sum, so a
/// reply proves the whole request arrived intact without echoing it.
pub fn digest(body: &[u8]) -> [u8; 8] {
    let sum: u32 = body.iter().map(|&b| u32::from(b)).sum();
    let mut out = [0; 8];
    out[..4].copy_from_slice(&(body.len() as u32).to_be_bytes());
    out[4..].copy_from_slice(&sum.to_be_bytes());
    out
}

/// The two-host Sun RPC over UDP rig, with the digest sink registered.
pub fn sun_rig(reg: &ProtocolRegistry, cfg: SimConfig) -> TwoHosts {
    let tb = two_hosts(cfg, reg, SUN_GRAPH).expect("sun rpc testbed builds");
    with_concrete::<SunSelect, _>(&tb.server, "sunselect", |s| {
        s.serve(SUN_PROG, SUN_VERS, SUN_SINK_PROC, |ctx, msg| {
            Ok(ctx.msg(digest(&msg.to_vec()).to_vec()))
        });
    })
    .expect("sunselect registered");
    tb
}

/// One Sun RPC call to the digest sink.
pub fn sun_call(ctx: &Ctx, server: IpAddr, body: Vec<u8>) -> XResult<Vec<u8>> {
    with_concrete::<SunSelect, _>(&ctx.kernel(), "sunselect", |s| {
        s.call(ctx, server, SUN_PROG, SUN_VERS, SUN_SINK_PROC, body)
    })
    .expect("sunselect registered")
}

/// A two-host rig with PINGER above `lower` (echo side on the server): the
/// paper's harness for stack prefixes that are not a whole RPC.
pub fn pinger_rig(reg: &ProtocolRegistry, graph: &str, lower: &str, cfg: SimConfig) -> TwoHosts {
    // `two_hosts` gives both hosts the same lines, but only the server
    // echoes, so the hosts are built one by one as `lan_hosts` would.
    let sim = Sim::new(cfg);
    let net = simnet::SimNet::new(&sim);
    let lan = net.add_lan(simnet::LanConfig::default());
    let mut kernels = Vec::new();
    for (i, ip) in ["10.0.0.1", "10.0.0.2"].iter().enumerate() {
        let k = Kernel::new(&sim, &format!("host{i}"));
        net.attach(&k, lan, "nic0", EthAddr::from_index(i as u16 + 1))
            .expect("nic attaches");
        let spec = format!(
            "{}{graph}pinger echo={i} -> {lower}\n",
            inet::standard_graph("nic0", ip)
        );
        reg.build(&sim, &k, &spec).expect("pinger graph builds");
        kernels.push(k);
    }
    let server = kernels.pop().expect("two kernels");
    let client = kernels.pop().expect("two kernels");
    TwoHosts {
        sim,
        net,
        lan,
        client,
        server,
        client_ip: IpAddr::new(10, 0, 0, 1),
        server_ip: IpAddr::new(10, 0, 0, 2),
    }
}

/// One PINGER round trip of an empty message.
pub fn ping(ctx: &Ctx, client: &Arc<Kernel>, server: IpAddr) -> XResult<Vec<u8>> {
    with_concrete::<Pinger, _>(client, "pinger", |p| p.rtt(ctx, server, Vec::new()))
        .expect("pinger registered")
}

/// Spawns `body` as a client process on `tb`'s client host, runs the
/// simulation until idle, and returns what `body` returned with the run's
/// report. `None` if the process never finished.
pub fn run_client<R: Send + 'static>(
    tb: &TwoHosts,
    body: impl FnOnce(&Ctx) -> R + Send + 'static,
) -> (Option<R>, RunReport) {
    let out = Arc::new(Mutex::new(None));
    let slot = Arc::clone(&out);
    tb.sim.spawn(tb.client.host(), move |ctx| {
        let r = body(ctx);
        *slot.lock().expect("no panic holds the slot") = Some(r);
    });
    let report = tb.sim.run_until_idle();
    let r = out.lock().expect("no panic holds the slot").take();
    (r, report)
}

/// Cumulative counters of a scheduled rig at one instant; two of them
/// bracket a round.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cum {
    pub virt_ns: u64,
    pub events: u64,
    pub fuel: u64,
    pub lan: LanStats,
    pub retransmits: u64,
    pub timeouts: u64,
    pub dups_suppressed: u64,
    pub corrupt_rejected: u64,
}

impl Cum {
    pub fn of(run: &RunReport, lan: LanStats) -> Cum {
        let sum = |f: fn(&xkernel::sim::HostStats) -> u64| run.hosts.iter().map(f).sum();
        Cum {
            virt_ns: run.ended_at,
            events: run.events,
            fuel: run.fuel_used,
            lan,
            retransmits: sum(|h| h.retransmits),
            timeouts: sum(|h| h.timeouts_fired),
            dups_suppressed: sum(|h| h.duplicates_suppressed),
            corrupt_rejected: sum(|h| h.corrupt_rejected),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_length_then_byte_sum() {
        assert_eq!(digest(&[]), [0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(digest(&[1, 2, 250]), [0, 0, 0, 3, 0, 0, 0, 253]);
        assert_ne!(digest(&[1, 2]), digest(&[2, 2]), "a changed byte shows");
        assert_ne!(digest(&[0]), digest(&[0, 0]), "a lost byte shows");
    }
}
