//! Lint contracts for the Sprite RPC protocols: the monolithic `sprite`,
//! the layered SELECT/CHANNEL/FRAGMENT decomposition, the virtual
//! protocols (VIP and variants), and the `pinger` measurement harness.

use xkernel::lint::{AddrKind, BlockPoint, ProtoContract, SemaContract};

use crate::hdr::{CHANNEL_HDR_LEN, FRAGMENT_HDR_LEN, SELECT_HDR_LEN, SPRITE_HDR_LEN};
use crate::txn::awaits_reply;

/// Monolithic Sprite RPC: delivery over internet or raw-hardware
/// addressing (ARP as an optional trailing resolver capability);
/// fragments internally; takes a channel from its pool, then blocks
/// shepherds on the channel's reply semaphore, signaled from demux.
pub fn sprite() -> ProtoContract {
    let c = ProtoContract::new("sprite", AddrKind::Rpc)
        .lower(&[AddrKind::Internet, AddrKind::Hardware])
        .optional_lower(&[AddrKind::Resolver])
        .header(SPRITE_HDR_LEN)
        .fragments()
        .param("channels", false, true)
        .param("shepherds", false, true)
        .param("pending", false, true)
        .param("policy", false, false);
    awaits_reply(c, true)
}

/// FRAGMENT: cuts oversized messages to the lower layer's packet size.
pub fn fragment() -> ProtoContract {
    ProtoContract::new("fragment", AddrKind::Internet)
        .lower(&[AddrKind::Internet])
        .header(FRAGMENT_HDR_LEN)
        .fragments()
}

/// CHANNEL: at-most-once request/reply; the layer that owns the blocking
/// reply wait in the layered stack.
pub fn channel() -> ProtoContract {
    let c = ProtoContract::new("channel", AddrKind::Rpc)
        .lower(&[AddrKind::Internet])
        .header(CHANNEL_HDR_LEN)
        .param("adaptive", false, true);
    awaits_reply(c, false)
}

/// SELECT: procedure selection + channel allocation. Its semaphore is a
/// bounded resource pool (P in push, V on completion) — not a reply wait,
/// so it composes over CHANNEL without nesting shepherd waits.
pub fn select() -> ProtoContract {
    ProtoContract::new("select", AddrKind::Rpc)
        .lower(&[AddrKind::Rpc])
        .header(SELECT_HDR_LEN)
        .param("channels", false, true)
        .param("shepherds", false, true)
        .param("pending", false, true)
        .param("policy", false, false)
        .sema(SemaContract {
            acquires_pool: true,
            awaits_reply: false,
            wakes_from_demux: false,
        })
        .blocks(&[BlockPoint::Sema])
}

/// RDGRAM: reliable datagrams over CHANNEL. It pushes no header of its own.
pub fn rdgram() -> ProtoContract {
    ProtoContract::new("rdgram", AddrKind::Rpc).lower(&[AddrKind::Rpc])
}

/// VIP: virtualizes the participant address — picks ETH or IP per peer at
/// open time. Headerless, but the identity a lower layer sees is no longer
/// the stable end-to-end participant (the Section 5 rule's lower half).
pub fn vip() -> ProtoContract {
    ProtoContract::new("vip", AddrKind::Internet)
        .lower(&[AddrKind::Internet])
        .lower(&[AddrKind::Hardware])
        .lower(&[AddrKind::Resolver])
        .virtualizes_identity()
}

/// VIPADDR: the open-time address-selection half of VIP.
pub fn vipaddr() -> ProtoContract {
    let mut c = vip();
    c.name = "vipaddr".into();
    c
}

/// VIPSIZE: per-push FRAGMENT bypass over (fragmenting, direct) lowers.
pub fn vipsize() -> ProtoContract {
    ProtoContract::new("vipsize", AddrKind::Internet)
        .lower(&[AddrKind::Internet])
        .lower(&[AddrKind::Internet])
        .virtualizes_identity()
}

/// Pinger: the Table III harness. Its echo wait lives in the application
/// call `rtt`, not in `push` on the data path, so it declares no shepherd
/// semaphore behavior and nests cleanly over CHANNEL. An echo is its
/// payload alone: PINGER pushes no header.
pub fn pinger() -> ProtoContract {
    ProtoContract::new("pinger", AddrKind::Rpc)
        .lower(&[AddrKind::Internet, AddrKind::Rpc, AddrKind::Transport])
        .param("echo", false, true)
}
