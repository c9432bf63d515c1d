//! The chaos gate: seeded soaks over every paper stack, the determinism
//! invariant, the adaptive-vs-fixed retransmission comparison, and server
//! crash/restart survival.
//!
//! Every soak scenario runs twice (`checked`): pooled and unfuelled, then on
//! a rig of its own under a fuel watchdog, which no process may reach and
//! which must leave the report `Eq` to the first — a protocol that spins is a
//! named failure at a fixed event, not a hung `cargo test`.
//!
//! Any failure here is reproducible from its assertion message: the
//! scenario label carries the stack, profile, and seed.

use std::sync::{Arc, Mutex};

use chaos::{warm_arp, ChaosReport, Profile, RunOpts, Scenario, StackKind};
use inet::testbed::{base_registry, two_hosts, TwoHosts};
use inet::with_concrete;
use simnet::fault::{FaultPlan, FaultSchedule};
use xkernel::sim::SimConfig;
use xrpc::stacks::L_RPC_VIP;

/// Seeds per (stack, profile) pairing in the soak. The acceptance bar is
/// ≥ 20 seeds per paper stack; profiles cycle so every stack sees every
/// shape it supports.
const SOAK_SEEDS: u64 = 20;

/// The soak's watchdog: charged operations a process may make. A chaotic
/// ten-call client makes a few thousand; a protocol that spins would make
/// this many in a moment and be a `fuel_exhausted` in the report, not a
/// hung soak.
const WATCHDOG: u64 = 1 << 20;

/// Runs `sc` and asserts every invariant that applies to it, then runs it
/// again under the watchdog: no process may reach the budget, and a budget
/// nothing reaches must leave the report as it was.
fn checked(sc: &Scenario) -> ChaosReport {
    let r = sc.run();
    sc.check(&r);
    let opts = RunOpts {
        fuel: Some(WATCHDOG),
        ..RunOpts::default()
    };
    let fuelled = sc.run_with(opts).report;
    assert_eq!(fuelled.run.fuel_exhausted, 0, "{}", r.label);
    assert_eq!(fuelled, r, "{}: the watchdog changed the run", r.label);
    r
}

// ---------------------------------------------------------------------------
// Soak: every paper stack, 20 seeds, profiles cycling.
// ---------------------------------------------------------------------------

#[test]
fn soak_every_paper_stack_twenty_seeds() {
    for stack in StackKind::all_paper() {
        let profiles = stack.profiles();
        for seed in 0..SOAK_SEEDS {
            let profile = profiles[(seed as usize) % profiles.len()];
            checked(&Scenario {
                stack,
                profile,
                seed: 0x1000 + seed,
                calls: 10,
                population: 1,
            });
        }
    }
}

#[test]
fn soak_sun_rpc_both_transaction_layers() {
    for stack in [StackKind::SunRpcUdp, StackKind::SunRpcChannel] {
        let profiles = stack.profiles();
        for seed in 0..8 {
            let profile = profiles[(seed as usize) % profiles.len()];
            checked(&Scenario {
                stack,
                profile,
                seed: 0x2000 + seed,
                calls: 8,
                population: 1,
            });
        }
    }
}

/// The two soak cells in which REQUEST_REPLY loses all seven attempts of one
/// call (about one lossy scenario in 4,000 does). Zero-or-more means the
/// call comes back as `Timeout` — budget spent, slot released, the calls
/// after it unharmed — and that is what the stack is held to; until PR 22
/// `invariant_failures` called these two "bounded completion violated".
#[test]
fn request_reply_spending_its_whole_budget_is_a_timeout_not_a_violation() {
    for (profile, seed) in [(Profile::Lossy, 67024), (Profile::Chaotic, 99014)] {
        let sc = Scenario {
            stack: StackKind::SunRpcUdp,
            profile,
            seed,
            calls: 8,
            population: 1,
        };
        let out = sc.run_with(RunOpts::default());
        let r = &out.report;
        assert_eq!(
            (r.completed, r.failed, r.timed_out, r.run.blocked),
            (7, 1, 1, 0),
            "{}",
            r.label
        );
        assert!(r.run.hosts[0].timeouts_fired >= 7, "{:?}", r.run.hosts[0]);
        sc.check(r);
        let client = &out.sim.kernels()[0];
        let held = with_concrete::<sunrpc::rr::RequestReply, _>(client, "request_reply", |rr| {
            rr.outstanding()
        })
        .expect("request_reply registered");
        assert_eq!(held, 0, "{}: the timed-out call kept its slot", r.label);

        // The same outcome on an at-most-once stack stays a violation.
        let mut as_channel = sc;
        as_channel.stack = StackKind::SunRpcChannel;
        assert!(!as_channel.invariant_failures(r).is_empty());
    }
}

#[test]
fn soak_psync_conversations() {
    for seed in 0..6 {
        let profile = if seed % 2 == 0 {
            Profile::FaultFree
        } else {
            Profile::Jittery
        };
        checked(&Scenario {
            stack: StackKind::Psync,
            profile,
            seed: 0x3000 + seed,
            calls: 6,
            population: 1,
        });
    }
}

// ---------------------------------------------------------------------------
// Determinism: identical seeds are bit-identical; different seeds diverge.
// ---------------------------------------------------------------------------

#[test]
fn identical_seeds_reproduce_bit_identical_reports() {
    let sc = Scenario {
        stack: StackKind::Paper(L_RPC_VIP),
        profile: Profile::Chaotic,
        seed: 0xc4a05,
        calls: 12,
        population: 1,
    };
    let a = checked(&sc);
    let b = checked(&sc);
    assert_eq!(
        a, b,
        "same scenario + same seed must reproduce the run bit-for-bit \
         (RunReport, LanStats, and every counter)"
    );
    // The faults really fired — this was not a trivially quiet run.
    assert!(
        a.lan.dropped > 0,
        "chaotic profile dropped frames: {:?}",
        a.lan
    );

    let c = checked(&Scenario {
        seed: 0xc4a06,
        ..sc
    });
    assert_ne!(a, c, "a different seed must drive a different run");
}

// ---------------------------------------------------------------------------
// Adaptive RTO vs the paper's fixed step function.
// ---------------------------------------------------------------------------

const FIXED_L_RPC_GRAPH: &str = "vip -> ip eth arp\n\
                                 fragment -> vip\n\
                                 channel adaptive=0 -> fragment\n\
                                 select -> channel\n";

fn rig(graph: &str, seed: u64) -> TwoHosts {
    let mut reg = base_registry();
    xrpc::register_ctors(&mut reg);
    two_hosts(SimConfig::scheduled().with_seed(seed), &reg, graph).expect("testbed builds")
}

/// Runs `calls` sequential echo calls on `graph` under `sched`; returns
/// (completed calls, client retransmits, total wire frames, virtual end).
fn measure(graph: &str, seed: u64, sched: FaultSchedule, calls: u32) -> (u32, u64, u64, u64) {
    let tb = rig(graph, seed);
    xrpc::procs::register_standard(&tb.server, "select").expect("procs register");
    // Resolve ARP on the quiet wire: the jitter under test dwarfs ARP's
    // 50 ms-per-attempt bootstrap budget, and CHANNEL's estimator sits
    // above VIP, so the warm-up leaves both stacks' timers cold.
    warm_arp(&tb.sim, tb.client.host(), tb.server_ip);
    tb.net.set_fault_schedule(tb.lan, sched);
    let server_ip = tb.server_ip;
    let done = Arc::new(Mutex::new(0u32));
    let d2 = Arc::clone(&done);
    tb.sim.spawn(tb.client.host(), move |ctx| {
        let k = ctx.kernel();
        for i in 0..calls {
            let body = vec![i as u8; 64];
            match xrpc::call(
                ctx,
                &k,
                "select",
                server_ip,
                xrpc::procs::ECHO_PROC,
                body.clone(),
            ) {
                Ok(r) => {
                    assert_eq!(r, body, "echo integrity");
                    *d2.lock().unwrap() += 1;
                }
                Err(e) => eprintln!("call {i} failed: {e}"),
            }
        }
    });
    let r = tb.sim.run_until_idle();
    assert_eq!(r.blocked, 0);
    let client = r.hosts[0];
    let completed = *done.lock().unwrap();
    (
        completed,
        client.retransmits,
        tb.net.stats(tb.lan).sent,
        r.ended_at,
    )
}

#[test]
fn adaptive_rto_beats_fixed_step_under_heavy_jitter() {
    // Per-frame delay up to 220 ms: the real round trip regularly exceeds
    // the step function's fixed 100 ms base, so the fixed scheme fires
    // spurious retransmissions on nearly every call. The adaptive estimator
    // absorbs the first few inflated samples into SRTT/RTTVAR and stops
    // retransmitting; completion stays equal.
    let jitter = FaultSchedule::from_plan(FaultPlan {
        jitter_ns: 220_000_000,
        ..FaultPlan::default()
    });
    let calls = 40;
    let (done_a, retx_a, _, _) = measure(L_RPC_VIP.graph, 0xada, jitter.clone(), calls);
    let (done_f, retx_f, _, _) = measure(FIXED_L_RPC_GRAPH, 0xada, jitter, calls);
    assert_eq!(done_a, calls, "adaptive: every call completed");
    assert_eq!(done_f, calls, "fixed: every call completed");
    assert!(
        retx_a < retx_f,
        "equal completion, fewer retransmits: adaptive sent {retx_a}, \
         fixed step function sent {retx_f}"
    );
}

#[test]
fn adaptive_rto_changes_nothing_on_a_quiet_wire() {
    // The estimator's cold state *is* the paper's step function, and jitter
    // is only drawn on retransmissions — so on the fault-free wire of
    // Tables I–II the adaptive and fixed stacks are event-for-event
    // identical: same frames, same virtual end time, same PRNG stream.
    let calls = 12;
    let a = measure(L_RPC_VIP.graph, 0x5eed, FaultSchedule::none(), calls);
    let f = measure(FIXED_L_RPC_GRAPH, 0x5eed, FaultSchedule::none(), calls);
    assert_eq!(
        a, f,
        "fault-free latency and wire traffic must be unchanged"
    );
    assert_eq!(a.1, 0, "no retransmissions on the quiet wire");
}

// ---------------------------------------------------------------------------
// Crash and restart: the server reboots mid-conversation.
// ---------------------------------------------------------------------------

#[test]
fn client_survives_server_crash_and_restart_mid_conversation() {
    let mut reg = base_registry();
    xrpc::register_ctors(&mut reg);
    let tb = two_hosts(
        SimConfig::scheduled().with_seed(0xb007).with_trace(),
        &reg,
        L_RPC_VIP.graph,
    )
    .expect("testbed builds");
    let executed = Arc::new(Mutex::new(0u32));
    let e2 = Arc::clone(&executed);
    xrpc::serve(&tb.server, "select", 7, move |_ctx, msg| {
        *e2.lock().unwrap() += 1;
        Ok(msg)
    })
    .expect("serve");

    let server_host = tb.server.host();
    // The server dies at 45 ms — while the client sleeps between calls —
    // and comes back at 150 ms with a new boot incarnation. The client's
    // second call lands in the outage and must ride it out on CHANNEL's
    // retransmission budget.
    tb.sim.crash_at(45_000_000, server_host);
    tb.sim.restart_at(150_000_000, server_host);

    let server_ip = tb.server_ip;
    let replies: Arc<Mutex<Vec<Vec<u8>>>> = Arc::new(Mutex::new(Vec::new()));
    let r2 = Arc::clone(&replies);
    tb.sim.spawn(tb.client.host(), move |ctx| {
        let k = ctx.kernel();
        for (i, gap) in [(1u8, 50_000_000u64), (2, 10_000_000), (3, 0)] {
            let body = vec![i; 32];
            let r = xrpc::call(ctx, &k, "select", server_ip, 7, body).expect("call survives");
            r2.lock().unwrap().push(r);
            ctx.sleep(gap);
        }
    });
    let report = tb.sim.run_until_idle();
    assert_eq!(report.blocked, 0);

    // All three calls completed with correct replies; the crashed call
    // executed exactly once on the restarted server.
    let got = replies.lock().unwrap();
    assert_eq!(got.len(), 3);
    for (i, r) in got.iter().enumerate() {
        assert_eq!(*r, vec![i as u8 + 1; 32]);
    }
    assert_eq!(
        *executed.lock().unwrap(),
        3,
        "at-most-once across the reboot"
    );

    // The kernel really rebooted, and the client really retransmitted.
    assert_eq!(tb.sim.boot_epoch(server_host), 1);
    let server = tb.sim.host_stats(server_host);
    assert_eq!((server.crashes, server.restarts), (1, 1));
    let client = tb.sim.host_stats(tb.client.host());
    assert!(client.retransmits > 0, "the outage forced retransmissions");
    assert!(client.timeouts_fired > 0);

    // CHANNEL saw the new boot id in the first post-restart reply and reset
    // its sequence state for the new incarnation.
    let notes = tb.sim.trace_notes();
    assert!(
        notes.iter().any(|(_, n)| *n == "peer rebooted"),
        "client must detect the server's new boot id: {notes:?}"
    );
}

// ---------------------------------------------------------------------------
// The watchdog itself.
// ---------------------------------------------------------------------------

/// A budget that covers set-up but not a twenty-call client: the client is
/// killed mid-conversation, at the same event on every run, and the
/// invariants say why the calls are missing.
#[test]
fn a_client_that_outruns_its_budget_is_named_by_the_invariants() {
    let sc = Scenario {
        stack: StackKind::Paper(L_RPC_VIP),
        profile: Profile::FaultFree,
        seed: 0x4000,
        calls: 20,
        population: 1,
    };
    let run = || {
        let opts = RunOpts {
            fuel: Some(200),
            ..RunOpts::default()
        };
        sc.run_with(opts).report
    };
    let r = run();
    assert_eq!(r.run.fuel_exhausted, 1, "{r:?}");
    assert!(r.completed > 0 && r.completed < r.attempted, "{r:?}");
    let said = sc.invariant_failures(&r);
    assert!(
        said.iter().any(|m| m.contains("ran out of fuel")),
        "{said:?}"
    );
    assert_eq!(run(), r);
}
