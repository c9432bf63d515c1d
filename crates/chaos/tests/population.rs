//! Closed-loop client populations under adversity: many concurrent client
//! processes hammer one server through healing partitions and full chaos,
//! and at-most-once must hold *per call* — no payload may execute twice,
//! no matter how the population's retransmissions interleave.

use chaos::{ChaosReport, Profile, Scenario, StackKind};
use xrpc::stacks::{L_RPC_VIP, M_RPC_ETH};

/// A population larger than the CHANNEL pool (8 channels per peer), so
/// clients queue on channel allocation while partitions heal.
const POPULATION: u32 = 12;

/// Runs `sc` and asserts every invariant that applies to it.
fn checked(sc: &Scenario) -> ChaosReport {
    let r = sc.run();
    sc.check(&r);
    r
}

#[test]
fn population_survives_partitions_on_the_layered_stack() {
    let sc = Scenario {
        stack: StackKind::Paper(L_RPC_VIP),
        profile: Profile::Partitioned,
        seed: 0xf01d,
        calls: 4,
        population: POPULATION,
    };
    let r = checked(&sc);
    assert_eq!(r.attempted, 4 * POPULATION);
    assert_eq!(r.completed, r.attempted);
    assert_eq!(r.duplicate_execs, 0);
    // The partition forced at least one retransmission somewhere.
    let retransmits: u64 = r.run.hosts.iter().map(|h| h.retransmits).sum();
    assert!(retransmits > 0, "partition windows must bite");
}

#[test]
fn population_survives_chaos_on_the_monolithic_stack() {
    let sc = Scenario {
        stack: StackKind::Paper(M_RPC_ETH),
        profile: Profile::Chaotic,
        seed: 0xf02d,
        calls: 3,
        population: POPULATION,
    };
    let r = checked(&sc);
    assert_eq!(r.attempted, 3 * POPULATION);
    assert_eq!(
        r.executed, r.attempted,
        "at-most-once across the population"
    );
    assert_eq!(r.duplicate_execs, 0);
}

#[test]
fn population_of_one_matches_the_classic_scenario() {
    // The generalized client loop with population == 1 must be
    // bit-identical to the harness's original single-client run.
    let sc = Scenario {
        stack: StackKind::Paper(L_RPC_VIP),
        profile: Profile::Lossy,
        seed: 0xf03d,
        calls: 5,
        population: 1,
    };
    let a = checked(&sc);
    let b = checked(&sc);
    assert_eq!(a, b);
    assert_eq!(a.attempted, 5);
}

#[test]
fn populations_are_deterministic() {
    let sc = Scenario {
        stack: StackKind::Paper(L_RPC_VIP),
        profile: Profile::Chaotic,
        seed: 0xf04d,
        calls: 3,
        population: 6,
    };
    assert_eq!(checked(&sc), checked(&sc));
}
