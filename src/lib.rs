//! Umbrella crate for the x-kernel RPC reproduction.
//!
//! Re-exports nothing; its job is to assemble the full protocol vocabulary
//! (inet + Sprite RPC + Sun RPC + psync + shim layers) into one
//! [`ProtocolRegistry`] for the `xk-lint` binary and for integration tests
//! that want every constructor and every lint contract in scope at once.

use std::collections::HashMap;

use xkernel::graph::ProtocolRegistry;
use xkernel::lint::{AddrKind, ProtoContract};

/// A registry holding every protocol constructor and lint contract in the
/// workspace: inet (eth/arp/ip/udp/icmp/tcp), the Sprite RPC decomposition
/// (sprite/fragment/channel/select/rdgram/vip/vipaddr/vipsize/pinger), the
/// Sun RPC decomposition (request_reply/auth_*/sunselect), psync, the shim
/// layers (null/handicap), and xcheck's deadlock-toy pair (dl_ab/dl_ba).
pub fn full_registry() -> ProtocolRegistry {
    let mut reg = sunrpc::registry();
    psync::register_ctors(&mut reg);
    xkernel::shim::register_ctors(&mut reg);
    xcheck::toys::register_ctors(&mut reg);
    reg
}

/// Parses an address-kind name as used by `xk-lint --extern NAME[:KIND]`.
pub fn parse_addr_kind(s: &str) -> Option<AddrKind> {
    Some(match s.to_ascii_lowercase().as_str() {
        "device" => AddrKind::Device,
        "hardware" => AddrKind::Hardware,
        "internet" => AddrKind::Internet,
        "transport" => AddrKind::Transport,
        "rpc" => AddrKind::Rpc,
        "resolver" => AddrKind::Resolver,
        _ => return None,
    })
}

/// The externals every built-in spec assumes: one Ethernet device `nic0`.
pub fn default_externals() -> HashMap<String, ProtoContract> {
    let mut m = HashMap::new();
    m.insert(
        "nic0".to_string(),
        ProtoContract::new("nic", AddrKind::Device),
    );
    m
}

/// Every checked-in protocol-graph configuration, as `(name, spec)` pairs:
/// the standard inet graph, the paper's five full RPC stacks and four
/// Table III partial stacks (each composed over the standard graph), the
/// Sun RPC example stack, and the two handicap-masquerade benchmark graphs.
///
/// `xk-lint --builtin` lints all of these; they must stay clean.
pub fn builtin_specs() -> Vec<(String, String)> {
    let base = inet::standard_graph("nic0", "10.0.0.1");
    let mut specs = vec![("standard-inet".to_string(), base.clone())];
    for s in xrpc::stacks::ALL_RPC_STACKS {
        specs.push((s.name.to_string(), format!("{base}{}", s.graph)));
    }
    for (name, graph, _entry) in xrpc::stacks::TABLE3_STACKS {
        specs.push((format!("Table III {name}"), format!("{base}{graph}")));
    }
    specs.push((
        "SUN_RPC-UDP".to_string(),
        format!(
            "{base}request_reply -> udp\n\
             auth: auth_unix uid=501 gid=20 machine=sun3 -> request_reply\n\
             sunselect -> auth\n"
        ),
    ));
    specs.push((
        "N_RPC (handicap-eth)".to_string(),
        format!(
            "{base}hcap: handicap as=eth switches=1 copy256=256 fixed_ns=200000 -> eth\n\
             mrpc: sprite -> hcap arp\n"
        ),
    ));
    specs.push((
        "SunOS-UDP (handicap-ip)".to_string(),
        format!(
            "{base}hcap: handicap as=ip switches=4 copy256=512 fixed_ns=900000 -> ip\n\
             udps: udp -> hcap\n"
        ),
    ));
    specs.push(("PSYNC-IP".to_string(), format!("{base}psync -> ip\n")));
    specs
}

#[cfg(test)]
mod tests {
    use super::*;
    use xkernel::lint::LintOptions;

    /// Acceptance gate: every checked-in stack lints clean (no errors, no
    /// warnings) under the full registry.
    #[test]
    fn builtin_specs_lint_clean() {
        let reg = full_registry();
        let externals = default_externals();
        for (name, spec) in builtin_specs() {
            let diags = reg.lint(&spec, &externals, &LintOptions::default());
            assert!(
                diags.is_empty(),
                "{name} should lint clean, got:\n{}",
                diags.iter().map(|d| format!("  {d}\n")).collect::<String>()
            );
        }
    }

    #[test]
    fn addr_kind_parser_roundtrips() {
        for kind in [
            AddrKind::Device,
            AddrKind::Hardware,
            AddrKind::Internet,
            AddrKind::Transport,
            AddrKind::Rpc,
            AddrKind::Resolver,
        ] {
            assert_eq!(parse_addr_kind(&kind.to_string()), Some(kind));
        }
        assert_eq!(parse_addr_kind("bogus"), None);
    }
}
