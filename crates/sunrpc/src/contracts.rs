//! Lint contracts for the Sun RPC decomposition.

use xkernel::lint::{AddrKind, ProtoContract};
use xrpc::txn::awaits_reply;

use crate::rr::RR_HDR_LEN;
use crate::sunselect::SUNSEL_HDR_LEN;

/// REQUEST_REPLY: the transaction layer; owns the blocking reply wait.
pub fn request_reply() -> ProtoContract {
    let c = ProtoContract::new("request_reply", AddrKind::Rpc)
        .lower(&[AddrKind::Transport, AddrKind::Internet])
        .header(RR_HDR_LEN)
        .param("shepherds", false, true)
        .param("pending", false, true)
        .param("policy", false, false);
    awaits_reply(c, false).crashable().reboots()
}

/// The composable auth layers (`auth_none`, `auth_unix`): an XDR
/// `(flavor, opaque body)` credential pushed per call. The body is empty
/// for AUTH_NONE; for AUTH_UNIX it is stamp + machine string + uid + gid +
/// gid count (RFC 1057 §9.2) — 28 bytes of fixed fields plus the padded
/// machine name, so 48 bounds machine names up to 20 bytes.
pub fn auth(name: &str) -> ProtoContract {
    let mut c = ProtoContract::new(name, AddrKind::Rpc)
        .lower(&[AddrKind::Rpc])
        .header(48);
    if name == "auth_unix" {
        c = c
            .param("uid", false, true)
            .param("gid", false, true)
            .param("machine", false, false)
            .param("allow", false, false);
    }
    c
}

/// SUN_SELECT: program/version/procedure dispatch.
pub fn sunselect() -> ProtoContract {
    ProtoContract::new("sunselect", AddrKind::Rpc)
        .lower(&[AddrKind::Rpc])
        .header(SUNSEL_HDR_LEN)
        .crashable()
        .reboots()
}
