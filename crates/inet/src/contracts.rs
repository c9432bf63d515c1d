//! Lint contracts ([`xkernel::lint::ProtoContract`]) for the Arpanet suite.
//!
//! These are the declarative facts `xk-lint` checks graph specs against:
//! what each protocol consumes and produces, its header budget, and its
//! shepherd-semaphore behavior. Kept beside the constructors so a protocol
//! change and its contract change land in the same crate.

use xkernel::lint::{AddrKind, BlockPoint, ProtoContract, SemaContract};

use crate::eth::ETH_HDR_LEN;
use crate::icmp::ICMP_HDR_LEN;
use crate::ip::IP_HDR_LEN;
use crate::tcp::TCP_HDR_LEN;
use crate::udp::UDP_HDR_LEN;

/// ETH: frames a device endpoint, produces hardware addressing.
pub fn eth() -> ProtoContract {
    ProtoContract::new("eth", AddrKind::Hardware)
        .lower(&[AddrKind::Device])
        .header(ETH_HDR_LEN)
        .blocks(&[BlockPoint::Wire])
}

/// ARP: an address-resolution service over ETH; off the data path.
pub fn arp() -> ProtoContract {
    ProtoContract::new("arp", AddrKind::Resolver)
        .lower(&[AddrKind::Hardware])
        .param("ip", true, false)
        .param("cache", false, true)
        .blocks(&[BlockPoint::Timer]) // request retries
}

/// IP: internet addressing over repeating `(eth, arp)` interface pairs;
/// fragments to each interface MTU.
pub fn ip() -> ProtoContract {
    ProtoContract::new("ip", AddrKind::Internet)
        .lower(&[AddrKind::Hardware])
        .lower(&[AddrKind::Resolver])
        .repeating(&[&[AddrKind::Hardware], &[AddrKind::Resolver]])
        .header(IP_HDR_LEN)
        .fragments()
        .param("forward", false, true)
        .param("mask", false, false)
        .param("gw", false, false)
        .param("mtu", false, false)
        .crashable()
        .reboots() // drops reassembly state
}

/// UDP: port addressing over anything internet-like.
pub fn udp() -> ProtoContract {
    ProtoContract::new("udp", AddrKind::Transport)
        .lower(&[AddrKind::Internet])
        .header(UDP_HDR_LEN)
}

/// ICMP: echo service over IP.
pub fn icmp() -> ProtoContract {
    ProtoContract::new("icmp", AddrKind::Transport)
        .lower(&[AddrKind::Internet])
        .header(ICMP_HDR_LEN)
}

/// TCP: byte streams whose pseudo-header checksum bakes in the participant
/// internet address — the Section 5 protocol that cannot sit above VIP.
/// `connect` blocks a shepherd on the established semaphore, signaled from
/// demux when the handshake completes.
pub fn tcp() -> ProtoContract {
    ProtoContract::new("tcp", AddrKind::Transport)
        .lower(&[AddrKind::Internet])
        .header(TCP_HDR_LEN)
        .fragments() // MSS segmentation
        .requires_stable_participants()
        .sema(SemaContract {
            acquires_pool: false,
            awaits_reply: true,
            wakes_from_demux: true,
        })
        .blocks(&[BlockPoint::Sema, BlockPoint::Timer])
        .clears_slot_on_error() // connect failure frees the port binding
}
