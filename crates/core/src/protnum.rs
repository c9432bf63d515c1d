//! The protocol-number table ("prottbl").
//!
//! In the x-kernel, protocol numbers are *relative to the protocol below*:
//! Sprite RPC is Ethernet type `0x3e00` when configured directly over ETH
//! but IP protocol 101 when configured over IP or VIP. This table is what
//! lets the same protocol implementation be composed over either — and its
//! absence for UDP (two 16-bit ports cannot be mapped into one 8-bit IP
//! protocol number) is the paper's Section 5 example of why virtual
//! protocols are hard to design for conventional stacks. The suite-wide
//! standardization embodied here is the paper's proposed *meta-protocol*
//! rule: "the meta-protocol defines a standard protocol type field".
//!
//! Also home to [`peer_key`]: the peer-identity token protocols use when a
//! lower session may be Ethernet (48-bit address) or IP (32-bit address) —
//! headerless virtual protocols deliver messages up through either.

use xkernel::prelude::*;

use inet::eth::eth_type;
use inet::ip::ip_proto;

/// The number protocol `me` of `kernel` demultiplexes on over its lower
/// `lower`: `rel_proto_num` of the two kinds the kernel holds, a
/// pass-through lower read as the layer it presents ([`Kernel::space_of`]).
pub fn num_over(kernel: &Kernel, me: ProtoId, lower: ProtoId) -> XResult<u32> {
    rel_proto_num(kernel.space_of(lower)?, kernel.kind_of(me)?)
}

/// Relative protocol number of `me` when configured directly above `lower`.
///
/// Both are kinds (constructor names, [`Kernel::kind_of`]). Virtual
/// protocols (vip/vipaddr/vipsize) present IP's protocol-number space,
/// mapping into Ethernet's type space internally.
fn rel_proto_num(lower: &str, me: &str) -> XResult<u32> {
    let n = match (lower, me) {
        ("eth", "ip") => u32::from(eth_type::IP),
        ("eth", "arp") => u32::from(eth_type::ARP),
        ("eth", "sprite") => u32::from(eth_type::SPRITE_RPC),
        ("eth", "fragment") => 0x3e01,
        ("eth", "channel") => 0x3e02,
        ("eth", "psync") => 0x3e03,
        ("eth", "request_reply") => 0x3e04,
        ("eth", "pinger") => 0x3e05,
        // IP-addressed delivery protocols all present IP's number space.
        ("ip" | "vip" | "vipaddr" | "vipsize" | "fragment", proto) => match proto {
            "icmp" => u32::from(ip_proto::ICMP),
            "udp" => u32::from(ip_proto::UDP),
            "tcp" => u32::from(ip_proto::TCP),
            "sprite" => u32::from(ip_proto::SPRITE_RPC),
            "fragment" => u32::from(ip_proto::FRAGMENT),
            "channel" => u32::from(ip_proto::CHANNEL),
            "psync" => u32::from(ip_proto::PSYNC),
            "request_reply" => u32::from(ip_proto::REQUEST_REPLY),
            "pinger" => 106,
            _ => {
                return Err(XError::Config(format!(
                    "prottbl: no number for '{proto}' over '{lower}'"
                )))
            }
        },
        // CHANNEL's and REQUEST_REPLY's users get transaction-layer numbers
        // (the two layers are substitutable, so they share a number space).
        ("channel" | "request_reply", "select") => 1,
        ("channel" | "request_reply", "rdgram") => 2,
        ("channel" | "request_reply", "sunselect") => 3,
        ("channel" | "request_reply", "auth_none") => 4,
        ("channel" | "request_reply", "auth_unix") => 5,
        ("channel" | "request_reply", "pinger") => 9,
        // Auth layers are transparent pass-throughs for their single upper.
        ("auth_none" | "auth_unix", "sunselect") => 3,
        _ => {
            return Err(XError::Config(format!(
                "prottbl: no number for '{me}' over '{lower}'"
            )))
        }
    };
    Ok(n)
}

/// A peer-identity token usable whatever the lower session's address family
/// is. Headerless virtual protocols hand messages up with the raw ETH or IP
/// session as `lls`, so upper protocols key their session tables on this.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PeerKey {
    /// Peer known by internet address.
    Ip(u32),
    /// Peer known only by hardware address (hashed to 64 bits).
    Eth(u64),
}

/// Extracts the best available peer identity from a lower session.
pub fn peer_key(ctx: &Ctx, lls: &SessionRef) -> XResult<PeerKey> {
    if let Ok(r) = lls.control(ctx, &ControlOp::GetPeerHost) {
        return Ok(PeerKey::Ip(r.ip()?.0));
    }
    // Ethernet sessions know the peer's hardware address via their own
    // source/destination; expose it through GetMyEth's counterpart if
    // available, else fall back to the session object identity.
    if let Ok(ControlRes::Eth(e)) = lls.control(ctx, &ControlOp::Custom("peer-eth", Vec::new())) {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in e.0 {
            h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
        }
        return Ok(PeerKey::Eth(h));
    }
    Err(XError::Config(
        "lower session provides no peer identity".into(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_numbers_differ_by_lower() {
        let over_eth = rel_proto_num("eth", "sprite").unwrap();
        let over_ip = rel_proto_num("ip", "sprite").unwrap();
        let over_vip = rel_proto_num("vip", "sprite").unwrap();
        assert_eq!(over_eth, u32::from(eth_type::SPRITE_RPC));
        assert_eq!(over_ip, u32::from(ip_proto::SPRITE_RPC));
        assert_eq!(over_ip, over_vip, "vip presents IP's number space");
    }

    #[test]
    fn unknown_pairs_are_config_errors() {
        assert!(rel_proto_num("eth", "nosuch").is_err());
        assert!(rel_proto_num("udp", "sprite").is_err());
    }

    #[test]
    fn channel_users_have_numbers() {
        assert_eq!(rel_proto_num("channel", "select").unwrap(), 1);
        assert_ne!(
            rel_proto_num("channel", "select").unwrap(),
            rel_proto_num("channel", "rdgram").unwrap()
        );
    }
}
