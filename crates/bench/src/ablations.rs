//! §5 ablations — the design choices the Discussion section calls out:
//!
//! 1. **Buffer management**: the header-headroom message scheme versus the
//!    legacy allocate-a-buffer-per-header scheme (paper: 0.11 vs 0.50 msec
//!    minimum cost per layer).
//! 2. **Layer scaling**: a stack of N trivial layers costs ≈N × the trivial
//!    layer floor, making "protocol stacks with on the order of ten layers"
//!    reasonable.
//! 3. **Session caching**: the cost a cold path pays (ARP probe, session
//!    creation at every level) versus the steady state the paper's
//!    "cache open sessions" efficiency rule buys.

use std::sync::{Arc, Mutex};

use inet::testbed::two_hosts;
use xkernel::msg::HeaderPolicy;
use xkernel::prelude::*;
use xkernel::sim::SimConfig;
use xrpc::procs::NULL_PROC;

use crate::{ms, print_row, print_table_header, registry, LATENCY_ITERS, WARMUP_ITERS};

/// Latency of a null RPC through L_RPC-VIP with `extra` null layers wedged
/// between SELECT and CHANNEL, and the given message header policy.
fn latency_with(extra_layers: usize, policy: HeaderPolicy) -> u64 {
    let mut graph = String::from("vip -> ip eth arp\nfragment -> vip\nchannel -> fragment\n");
    let mut below = String::from("channel");
    for i in 0..extra_layers {
        graph.push_str(&format!("null{i}: null -> {below}\n"));
        below = format!("null{i}");
    }
    graph.push_str(&format!("select -> {below}\n"));

    let reg = registry();
    let cfg = SimConfig::scheduled().with_policy(policy);
    let tb = two_hosts(cfg, &reg, &graph).expect("testbed");
    xrpc::procs::register_standard(&tb.server, "select").unwrap();
    let server_ip = tb.server_ip;
    let out = Arc::new(Mutex::new(0u64));
    let o2 = Arc::clone(&out);
    tb.sim.spawn(tb.client.host(), move |ctx| {
        let k = ctx.kernel();
        let id = k.lookup("select").unwrap();
        let parts = ParticipantSet::pair(
            Participant::proto(u32::from(NULL_PROC)),
            Participant::host(server_ip),
        );
        let sess = k.open(ctx, id, id, &parts).unwrap();
        let call = |ctx: &Ctx| {
            sess.push(ctx, ctx.empty_msg()).unwrap().unwrap();
        };
        for _ in 0..WARMUP_ITERS {
            call(ctx);
        }
        let t0 = ctx.now();
        for _ in 0..LATENCY_ITERS {
            call(ctx);
        }
        *o2.lock().unwrap() = (ctx.now() - t0) / LATENCY_ITERS as u64;
    });
    let r = tb.sim.run_until_idle();
    assert_eq!(r.blocked, 0);
    let v = *out.lock().unwrap();
    v
}

/// Prints the three §5 ablation tables.
pub fn run() {
    // 1. Buffer management.
    print_table_header(
        "Ablation 1: header buffer management (paper: 0.11 vs 0.50 msec/layer floor)",
        &["Scheme", "L_RPC latency (msec)", "per-layer floor (msec)"],
    );
    let headroom = latency_with(0, HeaderPolicy::default());
    let alloc = latency_with(0, HeaderPolicy::AllocPerHeader);
    // Per-layer floor: add 4 null layers under each policy and divide.
    let headroom4 = latency_with(4, HeaderPolicy::default());
    let alloc4 = latency_with(4, HeaderPolicy::AllocPerHeader);
    print_row(&[
        "headroom (tuned)".into(),
        ms(headroom),
        ms((headroom4 - headroom) / 4).to_string(),
    ]);
    print_row(&[
        "alloc-per-header (legacy)".into(),
        ms(alloc),
        ms((alloc4 - alloc) / 4).to_string(),
    ]);

    // 2. Layer scaling.
    print_table_header(
        "Ablation 2: layer scaling (trivial layers between SELECT and CHANNEL)",
        &["Extra layers", "Latency (msec)", "Increment (msec)"],
    );
    let mut prev = headroom;
    for n in [0usize, 1, 2, 4, 8] {
        let lat = if n == 0 {
            headroom
        } else {
            latency_with(n, HeaderPolicy::default())
        };
        print_row(&[
            n.to_string(),
            ms(lat),
            if n == 0 {
                "-".into()
            } else {
                ms(lat.saturating_sub(prev))
            },
        ]);
        prev = lat;
    }
    println!(
        "\n(The paper's claim: each trivial layer costs ≥0.11 msec on a Sun \
         3/75,\n making ~10-layer stacks reasonable.)"
    );

    // 3. Session caching: first call (creates sessions at every level,
    // resolves ARP) vs steady state.
    print_table_header(
        "Ablation 3: session caching (the paper's first efficiency rule)",
        &["Call", "Latency (msec)"],
    );
    let reg = registry();
    let tb = two_hosts(
        SimConfig::scheduled(),
        &reg,
        "vip -> ip eth arp\nfragment -> vip\nchannel -> fragment\nselect -> channel\n",
    )
    .expect("testbed");
    xrpc::procs::register_standard(&tb.server, "select").unwrap();
    let server_ip = tb.server_ip;
    let samples: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let s2 = Arc::clone(&samples);
    tb.sim.spawn(tb.client.host(), move |ctx| {
        let k = ctx.kernel();
        for _ in 0..4 {
            let t0 = ctx.now();
            xrpc::call(ctx, &k, "select", server_ip, NULL_PROC, Vec::new()).unwrap();
            s2.lock().unwrap().push(ctx.now() - t0);
        }
    });
    tb.sim.run_until_idle();
    let got = samples.lock().unwrap();
    print_row(&["first (cold: opens + ARP)".into(), ms(got[0])]);
    print_row(&["second".into(), ms(got[1])]);
    print_row(&["steady state".into(), ms(got[3])]);
    println!(
        "\n(Without cached sessions every call would pay the first-call price;\n\
         caching makes it a one-time cost.)"
    );
}
