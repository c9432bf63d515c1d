//! # sunrpc — the Sun RPC decomposition ("Mix and Match RPCs")
//!
//! The paper's second decomposition exercise (§5): Sun RPC divided into a
//! [`sunselect::SunSelect`] layer and a [`rr::RequestReply`] transaction
//! layer, with the authentication mechanisms as a library of optional
//! [`auth::AuthLayer`] protocol layers, all over the [`xdr`] encoding
//! substrate. The decomposition buys exactly what the paper claims:
//!
//! * auth layers are inserted or removed by editing one graph line;
//! * SUN_SELECT composes "with FRAGMENT rather than having to depend on IP
//!   to fragment large messages" (FRAGMENT is superior because it is
//!   persistent);
//! * REQUEST_REPLY (zero-or-more semantics) can be *replaced* by Sprite's
//!   CHANNEL (at-most-once semantics) under the same SUN_SELECT.
//!
//! Graph vocabulary:
//!
//! ```text
//! # Classic Sun RPC over UDP:
//! request_reply -> udp
//! auth: auth_unix uid=501 gid=20 machine=sun3 -> request_reply
//! sunselect -> auth
//!
//! # Mix and match: at-most-once Sun RPC over FRAGMENT:
//! fragment -> vip
//! channel -> fragment
//! sunselect -> channel
//! ```

#![warn(missing_docs)]
#![warn(clippy::disallowed_types, clippy::disallowed_methods)]

pub mod auth;
pub mod contracts;
pub mod rr;
pub mod sunselect;
pub mod xdr;

use std::rc::Rc;

use xkernel::graph::{GraphArgs, ProtocolRegistry};
use xkernel::prelude::*;

/// Classic Sun RPC: SUN_SELECT / AUTH_UNIX / REQUEST_REPLY / UDP.
pub const UDP_GRAPH: &str = "request_reply -> udp\n\
     auth: auth_unix uid=1000 machine=sun3 allow=1000 -> request_reply\n\
     sunselect -> auth\n";

/// The §5 mix: SUN_SELECT over CHANNEL–FRAGMENT–VIP.
pub const CHANNEL_GRAPH: &str = "vip -> ip eth arp\n\
     fragment -> vip\n\
     channel -> fragment\n\
     sunselect -> channel\n";

/// A registry holding the inet, Sprite RPC and Sun RPC vocabularies — every
/// stack the paper measures. The one place the three are put together:
/// harnesses that need more (Psync, the shim layers) add to this one.
pub fn registry() -> ProtocolRegistry {
    let mut reg = inet::testbed::base_registry();
    xrpc::register_ctors(&mut reg);
    register_ctors(&mut reg);
    reg
}

/// Registers the Sun RPC constructors:
///
/// * `request_reply -> <udp|ip|vip|fragment>`
/// * `auth_none -> <transaction layer>`
/// * `auth_unix uid=N gid=N machine=NAME [allow=UID,UID,...] -> <transaction layer>`
/// * `sunselect -> <transaction or auth layer>`
pub fn register_ctors(reg: &mut ProtocolRegistry) {
    reg.add(contracts::request_reply(), |a: &GraphArgs<'_>| {
        let shepherds = xkernel::shepherd::ShepherdConfig::from_args(a)?;
        Ok(rr::RequestReply::new(a.me, a.down(0)?, shepherds) as ProtocolRef)
    });
    reg.add(contracts::auth("auth_none"), |a: &GraphArgs<'_>| {
        Ok(auth::AuthLayer::new(a.me, a.down(0)?, Rc::new(auth::AuthNone)) as ProtocolRef)
    });
    reg.add(contracts::auth("auth_unix"), |a: &GraphArgs<'_>| {
        let allowed = match a.params.get("allow") {
            None => None,
            Some(list) => Some(
                list.split(',')
                    .map(|s| {
                        s.parse::<u32>().map_err(|_| {
                            XError::Config(format!("auth_unix: bad uid '{s}' in allow="))
                        })
                    })
                    .collect::<XResult<_>>()?,
            ),
        };
        let scheme = auth::AuthUnix {
            uid: a.param_u64("uid", 0)? as u32,
            gid: a.param_u64("gid", 0)? as u32,
            machine: a
                .params
                .get("machine")
                .cloned()
                .unwrap_or_else(|| "xkernel".to_string()),
            allowed_uids: allowed,
        };
        Ok(auth::AuthLayer::new(a.me, a.down(0)?, Rc::new(scheme)) as ProtocolRef)
    });
    reg.add(contracts::sunselect(), |a: &GraphArgs<'_>| {
        Ok(sunselect::SunSelect::new(a.me, a.down(0)?) as ProtocolRef)
    });
}
