//! A pass-through layer's upward sessions: one per lower session a message
//! arrives on, so each reply goes back down the path its request came up,
//! and each rewound with the rig like every other protocol's sessions.

use std::cell::RefCell;
use std::rc::Rc;

use inet::testbed::{two_hosts, TwoHosts};
use inet::with_concrete;
use simnet::Template;
use sunrpc::sunselect::SunSelect;
use xkernel::graph::ProtocolRegistry;
use xkernel::prelude::*;
use xkernel::shim::{HandicapLayer, NullLayer};
use xkernel::sim::{RunReport, SimConfig};
use xrpc::procs::{register_standard, ECHO_PROC};

const SUN_PROG: u32 = 100_099;

/// Every stack's constructors and the shims.
fn registry() -> ProtocolRegistry {
    let mut reg = sunrpc::registry();
    xkernel::shim::register_ctors(&mut reg);
    reg
}

/// The paper's L_RPC-VIP stack with `wedge` between SELECT and CHANNEL.
fn l_rpc_over(wedge: &str) -> String {
    format!(
        "vip -> ip eth arp\nfragment -> vip\nchannel -> fragment\n\
         w: {wedge} -> channel\nselect -> w\n"
    )
}

/// What one caller's calls came back with: (caller, call, reply).
type Log = Rc<RefCell<Vec<(u8, u8, XResult<Vec<u8>>)>>>;

/// Two callers share a SELECT, so they hold two channels at once and their
/// requests come up through the null layer on two CHANNEL server sessions.
/// A reply that went down whichever session the layer saw first would leave
/// the second caller retransmitting until it gave up.
#[test]
fn two_callers_through_a_null_layer_each_get_their_replies() {
    let tb =
        two_hosts(SimConfig::scheduled(), &registry(), &l_rpc_over("null")).expect("rig builds");
    register_standard(&tb.server, "select").expect("select serves");
    let log: Log = Rc::default();
    for caller in 0..2u8 {
        let log = Rc::clone(&log);
        let server = tb.server_ip;
        tb.sim.spawn(tb.client.host(), move |ctx| {
            for call in 0..3u8 {
                let got = xrpc::call(
                    ctx,
                    ctx.kernel_ref(),
                    "select",
                    server,
                    ECHO_PROC,
                    vec![caller, call],
                );
                log.borrow_mut().push((caller, call, got));
            }
        });
    }
    assert_eq!(tb.sim.run_until_idle().blocked, 0);
    let log = log.borrow();
    assert_eq!(log.len(), 6);
    for (caller, call, got) in log.iter() {
        assert_eq!(
            got.as_ref(),
            Ok(&vec![*caller, *call]),
            "caller {caller}, call {call}"
        );
    }
}

/// Makes one echo call from the client and runs the rig idle.
fn one_call(tb: &TwoHosts, sun: bool) -> (RunReport, XResult<Vec<u8>>) {
    let out: Rc<RefCell<Option<XResult<Vec<u8>>>>> = Rc::default();
    let o = Rc::clone(&out);
    let server = tb.server_ip;
    tb.sim.spawn(tb.client.host(), move |ctx| {
        let req = b"rewind".to_vec();
        let got = if sun {
            with_concrete::<SunSelect, _>(ctx.kernel_ref(), "sunselect", |s| {
                s.call(ctx, server, SUN_PROG, 1, 1, req)
            })
            .and_then(|r| r)
        } else {
            xrpc::call(ctx, ctx.kernel_ref(), "select", server, ECHO_PROC, req)
        };
        *o.borrow_mut() = Some(got);
    });
    let report = tb.sim.run_until_idle();
    let got = out.borrow_mut().take().expect("the call returned");
    (report, got)
}

/// A rig captured before its first call makes that call again, the same to
/// the event and the nanosecond, after a rewind: a pass-through layer's
/// cached sessions go back with everything else, instead of still pointing
/// at lower sessions the restore threw away.
#[test]
fn a_cold_rig_rewinds_its_pass_through_layers() {
    let reg = registry();
    for (graph, sun) in [
        (l_rpc_over("null"), false),
        (l_rpc_over("handicap switches=1"), false),
        (sunrpc::UDP_GRAPH.to_string(), true),
    ] {
        let tb = two_hosts(SimConfig::scheduled(), &reg, &graph).expect("rig builds");
        if sun {
            with_concrete::<SunSelect, _>(&tb.server, "sunselect", |s| {
                s.serve(SUN_PROG, 1, 1, |_ctx, msg| Ok(msg))
            })
            .expect("sunselect registered");
        } else {
            register_standard(&tb.server, "select").expect("select serves");
        }
        let cold = Template::capture(&tb.sim, &tb.net);
        let first = one_call(&tb, sun);
        assert_eq!(first.1.as_deref(), Ok(&b"rewind"[..]), "{graph}");
        cold.rewind();
        assert_eq!(one_call(&tb, sun), first, "{graph}");
    }
}

/// Over REQUEST_REPLY, which passes up a fresh server session with every
/// request, a pass-through layer's upward table holds the sessions of the
/// requests still being served, not one for every request it ever served.
#[test]
fn a_pass_through_table_over_request_reply_stays_bounded() {
    let reg = registry();
    for wedge in ["null", "handicap switches=1"] {
        let graph = format!("request_reply -> udp\nh: {wedge} -> request_reply\nsunselect -> h\n");
        let tb = two_hosts(SimConfig::scheduled(), &reg, &graph).expect("rig builds");
        with_concrete::<SunSelect, _>(&tb.server, "sunselect", |s| {
            s.serve(SUN_PROG, 1, 1, |_ctx, msg| Ok(msg))
        })
        .expect("sunselect registered");
        let answered = Rc::new(RefCell::new(0));
        let a = Rc::clone(&answered);
        let server = tb.server_ip;
        tb.sim.spawn(tb.client.host(), move |ctx| {
            for call in 0..200u32 {
                let req = call.to_be_bytes().to_vec();
                let got = with_concrete::<SunSelect, _>(ctx.kernel_ref(), "sunselect", |s| {
                    s.call(ctx, server, SUN_PROG, 1, 1, req.clone())
                })
                .and_then(|r| r);
                *a.borrow_mut() += usize::from(got.as_ref() == Ok(&req));
            }
        });
        assert_eq!(tb.sim.run_until_idle().blocked, 0, "{graph}");
        assert_eq!(*answered.borrow(), 200, "{graph}");
        let held = |k: &Kernel| match wedge {
            "null" => with_concrete::<NullLayer, _>(k, "h", |l| l.upward_sessions()),
            _ => with_concrete::<HandicapLayer, _>(k, "h", |l| l.upward_sessions()),
        };
        for kernel in [&tb.client, &tb.server] {
            let held = held(kernel).expect("the wedge is there");
            assert!(held <= 2, "{wedge}: {held} upward sessions after 200 calls");
        }
    }
}
