//! The benchmark's contract: workloads, metrics, units, directions, bounds.
//! `BENCHMARK.json` at the repo root is `manifest()` written out (a unit test
//! holds the two together), and a run refuses to print a result whose metric
//! names differ from the lists here.

use crate::json::Json;

/// Seconds one run measures (`run_seconds`); the driver passes it back as
/// `--seconds`.
pub const RUN_SECONDS: u64 = 10;

/// `(name, why)`: why the workload exists, one line.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "null_inline",
        "Closed loop, 1 client, null calls on 5 stacks without the scheduler: the protocol layers do all the work and the engine none, so it is the control for every engine change.",
    ),
    (
        "null_sched",
        "Closed loop, 1 client, the paper's Table I/II null-call test under the event scheduler: half engine and wire model, half protocol path, so both kinds of change move it.",
    ),
    (
        "bulk_xfer",
        "Closed loop, 1 client, 16 KiB and 8 KiB requests on 3 stacks: the Message rope is split, fragmented, checksummed and reassembled, and 13 frames a call make wire delivery dominate.",
    ),
    (
        "load_contended",
        "Closed loop, 24 clients with seeded exponential think times against a 4-shepherd pool at 80% of the retransmission-collapse knee: live coroutines, semaphores, a contended wire.",
    ),
    (
        "resident_200k",
        "Closed loop, 200,000 stackless client machines resident at once: the timer heap and process tables are 200k deep, and host memory is a first-class result.",
    ),
    (
        "chaos_soak",
        "Closed loop, 1 client per scenario, the stack x fault-profile matrix with a fresh simulation per scenario: set-up, teardown and the retransmit, duplicate and checksum paths dominate.",
    ),
];

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

use Better::{Higher, Lower};

/// `(name, unit, better, bound)`: what a user of the system waits or pays
/// for, on every workload. `bound` is the share of the parent's median by
/// which the metric may worsen before a change is a regression.
pub const END_TO_END: [(&str, &str, Better, f64); 3] = [
    ("setup_s", "s", Lower, 0.25),
    ("calls_per_s", "1/s", Higher, 0.25),
    ("peak_rss_mb", "MB", Lower, 0.15),
];

/// Rungs of the host-time ladder, lowest first within each family.
pub const RUNGS: [&str; 10] = [
    "ip",
    "vip",
    "fragment",
    "channel",
    "select",
    "vipsize",
    "mrpc_eth",
    "mrpc_ip",
    "mrpc_vip",
    "sunrpc_udp",
];

/// `(name, unit, better)` of the per-layer metrics that are not generated
/// from [`RUNGS`]. Units `virt_*` are virtual (simulated Sun 3/75) time and
/// repeat exactly; everything else is host time or an exact count.
const PER_LAYER_FIXED: [(&str, &str, Better); 77] = [
    // The workload under trace, from the program's public reports.
    ("sim.events_per_call", "count", Lower),
    ("sim.ns_per_event", "ns", Lower),
    ("sim.fuel_per_call", "count", Lower),
    ("sim.peak_live", "count", Lower),
    ("simnet.frames_per_call", "count", Lower),
    ("simnet.wire_util", "ratio", Lower),
    ("simnet.dropped_per_kcall", "count", Lower),
    ("simnet.duplicated_per_kcall", "count", Lower),
    ("simnet.corrupted_per_kcall", "count", Lower),
    ("rto.retransmits_per_kcall", "count", Lower),
    ("rto.timeouts_per_kcall", "count", Lower),
    ("rto.dups_suppressed_per_kcall", "count", Lower),
    ("rto.corrupt_rejected_per_kcall", "count", Lower),
    ("shepherd.peak_queue", "count", Lower),
    ("shepherd.dropped", "count", Lower),
    ("shepherd.peak_workers", "count", Lower),
    ("alloc.allocs_per_call", "count", Lower),
    ("alloc.bytes_per_call", "bytes", Lower),
    ("virt.p50_us", "virt_us", Lower),
    ("virt.p99_us", "virt_us", Lower),
    ("virt.p999_us", "virt_us", Lower),
    ("virt.goodput_cps", "1/virt_s", Higher),
    ("virt.kb_per_s", "kB/virt_s", Higher),
    ("bench.trace_overhead_pct", "%", Lower),
    ("bench.sample_mad_pct", "%", Lower),
    // Self times by differencing ladder rungs (the paper's Table III rule).
    ("xrpc.vip_eth.self_ns", "ns", Lower),
    ("inet.ip.self_ns", "ns", Lower),
    ("xrpc.fragment.self_ns", "ns", Lower),
    ("xrpc.channel.self_ns", "ns", Lower),
    ("xrpc.select.self_ns", "ns", Lower),
    ("xrpc.mrpc.self_ns", "ns", Lower),
    ("sunrpc.self_ns", "ns", Lower),
    // Large-message slope.
    ("ladder.select.ns_per_kb", "ns", Lower),
    ("ladder.mrpc_vip.ns_per_kb", "ns", Lower),
    ("ladder.sunrpc_udp.ns_per_kb", "ns", Lower),
    // xkernel::msg and xkernel::wire.
    ("msg.hdr5.ns", "ns", Lower),
    ("msg.hdr5.allocs", "count", Lower),
    ("msg.frag16k.ns", "ns", Lower),
    ("msg.frag16k.allocs", "count", Lower),
    ("msg.frag16k.alloc_bytes", "bytes", Lower),
    ("msg.cksum1500.ns", "ns", Lower),
    // xkernel::sim and vproc, no protocols.
    ("sim.sleep.ns_per_event.k2", "ns", Lower),
    ("sim.sleep.ns_per_event.k256", "ns", Lower),
    ("sim.machine.ns_per_event.k64k", "ns", Lower),
    ("sim.sema.ns_per_handoff", "ns", Lower),
    ("sim.spawn.ns", "ns", Lower),
    ("sim.machine.spawn_ns", "ns", Lower),
    ("sim.machine.bytes_resident", "bytes", Lower),
    ("sim.engine_tax.ns_per_call", "ns", Lower),
    // simnet.
    ("simnet.vip_rt.sched_ns", "ns", Lower),
    ("simnet.sched_tax.ns_per_frame", "ns", Lower),
    // xkernel::graph and lint-on-build.
    ("graph.build_us.l_rpc_vip", "us", Lower),
    ("graph.build_us.sunrpc_udp", "us", Lower),
    ("graph.rig_us.two_hosts", "us", Lower),
    // chaos, one scenario of 8 calls on L_RPC-VIP.
    ("chaos.us_per_scenario.faultfree", "us", Lower),
    ("chaos.us_per_scenario.lossy", "us", Lower),
    ("chaos.us_per_scenario.bursty", "us", Lower),
    ("chaos.us_per_scenario.jittery", "us", Lower),
    ("chaos.us_per_scenario.partitioned", "us", Lower),
    ("chaos.us_per_scenario.chaotic", "us", Lower),
    // Observers: host time with the observer on over host time with it off.
    ("trace.overhead_ratio", "ratio", Lower),
    ("check.overhead_ratio", "ratio", Lower),
    ("journal.overhead_ratio", "ratio", Lower),
    // Odds and ends.
    ("hist.record_ns", "ns", Lower),
    ("par.speedup_2t.chaos", "ratio", Higher),
    // The modelled system: virtual time, exact.
    ("virt.rtt_us.m_rpc_eth", "virt_us", Lower),
    ("virt.rtt_us.m_rpc_ip", "virt_us", Lower),
    ("virt.rtt_us.m_rpc_vip", "virt_us", Lower),
    ("virt.rtt_us.l_rpc_vip", "virt_us", Lower),
    ("virt.rtt_us.l_rpc_vipsize", "virt_us", Lower),
    ("virt.ledger_us.eth", "virt_us", Lower),
    ("virt.ledger_us.vip", "virt_us", Lower),
    ("virt.ledger_us.fragment", "virt_us", Lower),
    ("virt.ledger_us.channel", "virt_us", Lower),
    ("virt.ledger_us.select", "virt_us", Lower),
    ("virt.ledger_us.host", "virt_us", Lower),
    ("virt.paper_err_pct", "%", Lower),
];

/// Every per-layer metric: `(name, unit, better)`.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let mut out: Vec<(String, &'static str, Better)> = Vec::new();
    for rung in RUNGS {
        out.push((format!("ladder.{rung}.ns_per_rt"), "ns", Lower));
        out.push((format!("ladder.{rung}.allocs_per_rt"), "count", Lower));
    }
    out.extend(
        PER_LAYER_FIXED
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u, b)),
    );
    out
}

/// Whether `s` may name a workload or a metric: starts with a letter or a
/// digit, then at most 64 letters, digits, `_`, `.` and `-` in all.
pub fn valid_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
}

/// Whether `s` may be a unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.`, `-`.
pub fn valid_unit(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&s.len()) && s.chars().all(ok)
}

/// The unit of `metric`, from whichever list holds it.
pub fn unit_of(metric: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.0 == metric)
        .map(|m| m.1)
        .or_else(|| per_layer().into_iter().find(|m| m.0 == metric).map(|m| m.1))
}

/// `BENCHMARK.json`.
pub fn manifest() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::from("bash"), Json::from("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::from("benchmark")])),
        ("run_seconds", Json::from(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|&(name, why)| {
                        Json::obj([("name", Json::from(name)), ("why", Json::from(why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|&(name, unit, better, bound)| {
                        Json::obj([
                            ("name", Json::from(name)),
                            ("unit", Json::from(unit)),
                            ("better", Json::from(better.word())),
                            ("bound", Json::from(bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .into_iter()
                    .map(|(name, unit, better)| {
                        Json::obj([
                            ("name", Json::from(name)),
                            ("unit", Json::from(unit)),
                            ("better", Json::from(better.word())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn name_and_unit_validators_follow_the_contract() {
        for good in [
            "a",
            "9lives",
            "sim.ns_per_event",
            "a-b_c.d",
            &"x".repeat(64),
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", ".a", "_a", "-a", "a b", "a/b", "µs", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for good in ["ms", "1/s", "%", "kB/virt_s", "count", &"u".repeat(16)] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "µs", "a b", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn the_catalogue_meets_the_contracts_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        let layers = per_layer();
        assert!(
            (1..=128).contains(&layers.len()),
            "{} per-layer",
            layers.len()
        );
        assert!((1..=60).contains(&RUN_SECONDS));

        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.0.to_string())
            .chain(END_TO_END.iter().map(|m| m.0.to_string()))
            .chain(layers.iter().map(|m| m.0.clone()));
        for name in names {
            assert!(valid_name(&name), "bad name {name}");
            assert!(seen.insert(name.clone()), "{name} is used twice");
        }
        for (name, why) in WORKLOADS {
            assert!(why.len() <= 200, "{name}: why is {} chars", why.len());
            assert!(!why.contains('\n'));
        }
        for (name, unit, _, bound) in END_TO_END {
            assert!(valid_unit(unit), "{name}: unit {unit}");
            assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
        }
        for (name, unit, _) in &layers {
            assert!(valid_unit(unit), "{name}: unit {unit}");
        }
        let setup = END_TO_END.iter().find(|m| m.0 == "setup_s");
        let widest = END_TO_END.iter().map(|m| m.3).fold(0.0, f64::max);
        assert_eq!(setup.map(|m| (m.1, m.2, m.3)), Some(("s", Lower, widest)));
        assert!(manifest().pretty().len() <= 64 * 1024);
    }

    #[test]
    fn benchmark_json_is_the_catalogue_written_out() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            manifest().pretty(),
            "regenerate with: benchmark/run.sh --manifest > BENCHMARK.json"
        );
    }
}
