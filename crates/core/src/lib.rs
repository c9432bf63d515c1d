//! # xrpc — RPC in the x-kernel: the paper's contribution
//!
//! This crate implements both design techniques evaluated in *RPC in the
//! x-Kernel: Evaluating New Design Techniques* (SOSP '89), applied to
//! Sprite RPC:
//!
//! * **Virtual protocols** ([`vip`]): header-less protocols that multiplex
//!   messages onto lower protocols with equivalent semantics — [`vip::Vip`]
//!   dynamically inserts/deletes IP below RPC depending on whether the peer
//!   is on the local Ethernet, and the §4.3 pair
//!   [`vip::VipSize`]/[`vip::VipAddr`] dynamically deletes the FRAGMENT
//!   layer for small messages.
//! * **Layered protocols**: the monolithic Sprite RPC ([`mrpc::Mrpc`],
//!   `M_RPC`) decomposed into three independent, reusable protocols —
//!   [`select::Select`] (procedure selection and channel caching, plus the
//!   forwarding variant), [`channel::Channel`] (request/reply with
//!   at-most-once semantics), and [`fragment::Fragment`] (unreliable but
//!   persistent bulk transfer, reusable by Psync and Sun RPC). Their
//!   composition SELECT-CHANNEL-FRAGMENT is the paper's `L_RPC`.
//!
//! Stacks are configured with the x-kernel graph DSL; [`register_ctors`]
//! adds this crate's vocabulary:
//!
//! ```text
//! # Table I / II stacks:
//! vip -> ip eth arp
//! mrpc: sprite channels=8 -> vip        # M_RPC-VIP
//! # L_RPC-VIP:
//! fragment -> vip
//! channel -> fragment
//! select channels=8 -> channel
//! # §4.3: SELECT-CHANNEL-VIPSIZE-{FRAGMENT, VIPADDR}:
//! vipaddr -> ip eth arp
//! fragment -> vipaddr
//! vipsize -> fragment vipaddr
//! channel -> vipsize
//! select -> channel
//! ```
//!
//! ## End-to-end example
//!
//! ```
//! use xkernel::prelude::*;
//! use xkernel::sim::{Sim, SimConfig};
//!
//! // Two hosts on a simulated Ethernet, layered RPC over VIP.
//! let sim = Sim::new(SimConfig::inline_mode());
//! let net = simnet::SimNet::new(&sim);
//! let lan = net.add_lan(simnet::LanConfig::default());
//! let mut reg = xkernel::graph::ProtocolRegistry::new();
//! inet::register_ctors(&mut reg);
//! xrpc::register_ctors(&mut reg);
//!
//! let graph = |ip: &str| format!(
//!     "{}vip -> ip eth arp\nfragment -> vip\nchannel -> fragment\nselect -> channel\n",
//!     inet::standard_graph("nic0", ip),
//! );
//! let client = Kernel::new(&sim, "client");
//! net.attach(&client, lan, "nic0", EthAddr::from_index(1)).unwrap();
//! reg.build(&sim, &client, &graph("10.0.0.1")).unwrap();
//! let server = Kernel::new(&sim, "server");
//! net.attach(&server, lan, "nic0", EthAddr::from_index(2)).unwrap();
//! reg.build(&sim, &server, &graph("10.0.0.2")).unwrap();
//!
//! // A procedure, and a call against it.
//! xrpc::serve(&server, "select", 7, |_ctx, msg| Ok(msg)).unwrap();
//! let ctx = sim.ctx(client.host());
//! let reply = xrpc::call(
//!     &ctx, &client, "select", IpAddr::new(10, 0, 0, 2), 7, b"ping".to_vec(),
//! ).unwrap();
//! assert_eq!(reply, b"ping");
//! ```

#![warn(missing_docs)]
#![warn(clippy::disallowed_types, clippy::disallowed_methods)]

pub mod channel;
pub mod contracts;
pub mod fragment;
pub mod frags;
pub mod hdr;
pub mod mrpc;
pub mod pinger;
pub mod protnum;
pub mod rto;
pub mod select;
pub mod stacks;
pub mod txn;
pub mod vip;

use std::any::Any;
use std::sync::Arc;

use xkernel::graph::{GraphArgs, ProtocolRegistry};
use xkernel::prelude::*;
use xkernel::shepherd::ShepherdConfig;

/// Registers this crate's protocol constructors into the graph vocabulary.
///
/// * `sprite [channels=N] -> <delivery> [arp]` — monolithic Sprite RPC
///   (`M_RPC`); the ARP capability is required over raw ETH
/// * `fragment -> <delivery>` — the FRAGMENT layer
/// * `channel -> <packet mover>` — the CHANNEL layer
/// * `select [channels=N] -> <channel>` — the SELECT layer
/// * `rdgram -> <channel>` — reliable datagrams over CHANNEL
/// * `vip -> <ip> <eth> <arp>` — Virtual IP
/// * `vipaddr -> <ip> <eth> <arp>` — open-time ETH/IP selection
/// * `vipsize -> <fragment> <direct>` — per-push FRAGMENT bypass
/// * `pinger [echo=1] -> <lower>` — the Table III measurement harness
pub fn register_ctors(reg: &mut ProtocolRegistry) {
    reg.add_contract(contracts::sprite());
    reg.add_contract(contracts::fragment());
    reg.add_contract(contracts::channel());
    reg.add_contract(contracts::select());
    reg.add_contract(contracts::rdgram());
    reg.add_contract(contracts::vip());
    reg.add_contract(contracts::vipaddr());
    reg.add_contract(contracts::vipsize());
    reg.add_contract(contracts::pinger());
    reg.add("sprite", |a: &GraphArgs<'_>| {
        let cfg = mrpc::MrpcConfig {
            channels_per_peer: a.param_u64("channels", 8)? as usize,
            shepherds: ShepherdConfig::from_args(a)?,
        };
        // A second lower capability, when present, is ARP (required over
        // raw ETH).
        Ok(mrpc::Mrpc::new(a.me, a.down(0)?, a.down.get(1).copied(), cfg) as ProtocolRef)
    });
    reg.add("fragment", |a: &GraphArgs<'_>| {
        Ok(fragment::Fragment::new(a.me, a.down(0)?) as ProtocolRef)
    });
    reg.add("channel", |a: &GraphArgs<'_>| {
        let adaptive = a.param_u64("adaptive", 1)? != 0;
        Ok(channel::Channel::new(a.me, a.down(0)?, adaptive) as ProtocolRef)
    });
    reg.add("select", |a: &GraphArgs<'_>| {
        let cfg = select::SelectConfig {
            channels_per_peer: a.param_u64("channels", 8)? as usize,
            shepherds: ShepherdConfig::from_args(a)?,
        };
        Ok(select::Select::new(a.me, a.down(0)?, cfg) as ProtocolRef)
    });
    reg.add("rdgram", |a: &GraphArgs<'_>| {
        Ok(select::Rdgram::new(a.me, a.down(0)?) as ProtocolRef)
    });
    reg.add("vip", |a: &GraphArgs<'_>| {
        Ok(vip::Vip::new(a.me, a.down(0)?, a.down(1)?, a.down(2)?) as ProtocolRef)
    });
    reg.add("vipaddr", |a: &GraphArgs<'_>| {
        Ok(vip::VipAddr::new(a.me, a.down(0)?, a.down(1)?, a.down(2)?) as ProtocolRef)
    });
    reg.add("vipsize", |a: &GraphArgs<'_>| {
        Ok(vip::VipSize::new(a.me, a.down(0)?, a.down(1)?) as ProtocolRef)
    });
    reg.add("pinger", |a: &GraphArgs<'_>| {
        let echo = a.param_u64("echo", 0)? != 0;
        Ok(pinger::Pinger::new(a.me, a.down(0)?, echo) as ProtocolRef)
    });
}

/// Invokes procedure `command` on `server` through the RPC protocol
/// registered as `proto` (a `sprite` or `select` instance), returning the
/// reply bytes. This is the whole client API: open (cached) + push.
pub fn call(
    ctx: &Ctx,
    kernel: &Kernel,
    proto: &str,
    server: IpAddr,
    command: u16,
    args: Vec<u8>,
) -> XResult<Vec<u8>> {
    let id = kernel.lookup(proto)?;
    let parts = ParticipantSet::pair(
        Participant::proto(u32::from(command)),
        Participant::host(server),
    );
    let sess = kernel.open(ctx, id, id, &parts)?;
    let reply = sess
        .push(ctx, ctx.msg(args))?
        .ok_or_else(|| XError::Config("rpc session returned no reply".into()))?;
    Ok(reply.to_vec())
}

/// Registers a server procedure on the RPC protocol registered as `proto`
/// (a `sprite` or `select` instance).
pub fn serve<F>(kernel: &Arc<Kernel>, proto: &str, command: u16, f: F) -> XResult<()>
where
    F: Fn(&Ctx, Message) -> XResult<Message> + Clone + 'static,
{
    let p = kernel.get(proto)?;
    let p: &dyn Any = &*p;
    if let Some(s) = p.downcast_ref::<select::Select>() {
        s.serve(command, f);
        return Ok(());
    }
    if let Some(m) = p.downcast_ref::<mrpc::Mrpc>() {
        m.serve(command, f);
        return Ok(());
    }
    Err(XError::Config(format!(
        "protocol '{proto}' does not dispatch procedures"
    )))
}

/// A null procedure (echoes nothing) and an echo procedure, used by the
/// benchmarks and examples.
pub mod procs {
    use super::*;

    /// The latency-test procedure id: null request, null reply.
    pub const NULL_PROC: u16 = 0;
    /// Echoes the request body back.
    pub const ECHO_PROC: u16 = 1;
    /// Consumes the request, replies null (the throughput test shape).
    pub const SINK_PROC: u16 = 2;

    /// Registers the three standard procedures on `proto`.
    pub fn register_standard(kernel: &Arc<Kernel>, proto: &str) -> XResult<()> {
        serve(kernel, proto, NULL_PROC, |_ctx, _msg| Ok(Message::empty()))?;
        serve(kernel, proto, ECHO_PROC, |_ctx, msg| Ok(msg))?;
        serve(kernel, proto, SINK_PROC, |_ctx, _msg| Ok(Message::empty()))
    }
}
