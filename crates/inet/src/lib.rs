//! # inet — the Arpanet-suite substrate
//!
//! The conventional protocols the paper composes with its RPC protocols:
//! [`eth::Eth`] framing above a simulated NIC, [`arp::Arp`] resolution (also
//! VIP's locality oracle), [`ip::Ip`] with fragmentation/reassembly/routing,
//! [`udp::Udp`], [`icmp::Icmp`], and a deliberately minimal [`tcp`] whose
//! IP-pseudo-header dependence reproduces the paper's finding that TCP
//! cannot sit on VIP.
//!
//! [`register_ctors`] wires every protocol into the graph DSL so kernels are
//! configured the x-kernel way:
//!
//! ```text
//! eth -> nic0
//! arp ip=10.0.0.1 -> eth
//! ip  -> eth arp
//! udp -> ip
//! ```

#![warn(missing_docs)]
#![warn(clippy::disallowed_types, clippy::disallowed_methods)]

pub mod arp;
pub mod contracts;
pub mod eth;
pub mod icmp;
pub mod ip;
pub mod tcp;
pub mod testbed;
pub mod udp;

use std::any::Any;
use xkernel::graph::{GraphArgs, ProtocolRegistry};
use xkernel::prelude::*;

/// Parses a dotted-quad address, e.g. `"10.0.0.1"`.
pub fn parse_ip(s: &str) -> XResult<IpAddr> {
    let parts: Vec<&str> = s.split('.').collect();
    if parts.len() != 4 {
        return Err(XError::Config(format!("bad ip address '{s}'")));
    }
    let mut o = [0u8; 4];
    for (i, p) in parts.iter().enumerate() {
        o[i] = p
            .parse()
            .map_err(|_| XError::Config(format!("bad ip address '{s}'")))?;
    }
    Ok(IpAddr::new(o[0], o[1], o[2], o[3]))
}

/// Parses a netmask, accepting dotted-quad or prefix length (`"24"`).
pub fn parse_mask(s: &str) -> XResult<u32> {
    if let Ok(bits) = s.parse::<u32>() {
        if bits <= 32 {
            return Ok(if bits == 0 {
                0
            } else {
                u32::MAX << (32 - bits)
            });
        }
    }
    Ok(parse_ip(s)?.0)
}

/// Registers every inet constructor into the graph vocabulary.
///
/// * `eth -> nicX`
/// * `arp ip=<addr> -> eth`
/// * `ip [forward=1] [mask=<mask>] [gw=<addr>] -> eth arp [eth2 arp2 ...]`
///   (interface addresses come from each ARP; `gw` installs a default route)
/// * `udp -> <ip-like>`
/// * `icmp -> <ip-like>`
/// * `tcp -> ip`
pub fn register_ctors(reg: &mut ProtocolRegistry) {
    reg.add(contracts::eth(), |a: &GraphArgs<'_>| {
        Ok(eth::Eth::new(a.me, a.down(0)?) as ProtocolRef)
    });
    reg.add(contracts::arp(), |a: &GraphArgs<'_>| {
        let ip = parse_ip(a.param("ip")?)?;
        let cache = a.param_u64("cache", arp::ARP_DEFAULT_CACHE as u64)? as usize;
        Ok(arp::Arp::new(a.me, a.down(0)?, ip, cache) as ProtocolRef)
    });
    reg.add(contracts::ip(), |a: &GraphArgs<'_>| {
        if a.down.is_empty() || !a.down.len().is_multiple_of(2) {
            return Err(XError::Config(
                "ip needs (eth, arp) pairs as lower protocols".into(),
            ));
        }
        let mask = match a.params.get("mask") {
            Some(m) => parse_mask(m)?,
            None => 0xffff_ff00,
        };
        // Per-interface MTUs: `mtu=1500` applies everywhere, `mtu=1500,576`
        // names each (eth, arp) pair in order — how a router joins segments
        // with mismatched frame sizes.
        let n_ifaces = a.down.len() / 2;
        let mtus: Vec<usize> = match a.params.get("mtu") {
            None => vec![eth::ETH_MTU; n_ifaces],
            Some(spec) => {
                let vals = spec
                    .split(',')
                    .map(|v| {
                        v.trim()
                            .parse::<usize>()
                            .map_err(|_| XError::Config(format!("bad ip mtu value {v:?}")))
                    })
                    .collect::<XResult<Vec<usize>>>()?;
                if vals.iter().any(|&m| m <= ip::IP_HDR_LEN + 8) {
                    return Err(XError::Config(format!("ip mtu too small in {spec:?}")));
                }
                match vals.len() {
                    1 => vec![vals[0]; n_ifaces],
                    n if n == n_ifaces => vals,
                    _ => {
                        return Err(XError::Config(format!(
                            "ip mtu list names {} interfaces, graph has {n_ifaces}",
                            vals.len()
                        )))
                    }
                }
            }
        };
        let mut ifaces = Vec::new();
        for (i, pair) in a.down.chunks(2).enumerate() {
            let (eth_id, arp_id) = (pair[0], pair[1]);
            let arp_proto = a.kernel.proto_ref(arp_id)?;
            let arp_proto: &dyn Any = &**arp_proto;
            let arp_ref = arp_proto
                .downcast_ref::<arp::Arp>()
                .ok_or_else(|| XError::Config("ip's resolver must be arp".into()))?;
            ifaces.push(ip::Iface {
                eth: eth_id,
                arp: arp_id,
                ip: arp_ref.my_ip(),
                mask,
                mtu: mtus[i],
            });
        }
        let forward = a.param_u64("forward", 0)? != 0;
        let proto = ip::Ip::new(a.me, ifaces, forward);
        if let Some(gw) = a.params.get("gw") {
            let gw = parse_ip(gw)?;
            proto.add_route(ip::Route {
                net: 0,
                mask: 0,
                via: Some(gw),
                iface: 0,
            });
        }
        Ok(proto as ProtocolRef)
    });
    reg.add(contracts::udp(), |a: &GraphArgs<'_>| {
        Ok(udp::Udp::new(a.me, a.down(0)?) as ProtocolRef)
    });
    reg.add(contracts::icmp(), |a: &GraphArgs<'_>| {
        Ok(icmp::Icmp::new(a.me, a.down(0)?) as ProtocolRef)
    });
    reg.add(contracts::tcp(), |a: &GraphArgs<'_>| {
        Ok(tcp::Tcp::new(a.me, a.down(0)?) as ProtocolRef)
    });
}

/// The standard single-host graph used throughout tests and benchmarks:
/// ETH + ARP + IP + UDP + ICMP over NIC `nic`, host address `ip`.
pub fn standard_graph(nic: &str, ip_addr: &str) -> String {
    format!(
        "eth -> {nic}\n\
         arp ip={ip_addr} -> eth\n\
         ip -> eth arp\n\
         udp -> ip\n\
         icmp -> ip\n"
    )
}

/// Runs `f` with a typed view of a registered protocol.
pub fn with_concrete<T: 'static, R>(k: &Kernel, name: &str, f: impl FnOnce(&T) -> R) -> XResult<R> {
    let p = k.get(name)?;
    let p: &dyn Any = &*p;
    let t = p
        .downcast_ref::<T>()
        .ok_or_else(|| XError::Config(format!("protocol '{name}' has unexpected type")))?;
    Ok(f(t))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_ip_ok_and_err() {
        assert_eq!(parse_ip("10.0.0.1").unwrap(), IpAddr::new(10, 0, 0, 1));
        assert!(parse_ip("10.0.0").is_err());
        assert!(parse_ip("10.0.0.256").is_err());
    }

    #[test]
    fn parse_mask_forms() {
        assert_eq!(parse_mask("24").unwrap(), 0xffff_ff00);
        assert_eq!(parse_mask("255.255.0.0").unwrap(), 0xffff_0000);
        assert_eq!(parse_mask("0").unwrap(), 0);
    }
}
