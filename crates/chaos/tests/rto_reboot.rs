//! Regression: a crash/restart re-cold-seeds *all* adaptive-RTO state.
//!
//! The Karn-rule estimator, the base-timeout override, the backoff cap,
//! and the adaptive/fixed switch are one policy bundle. `reboot()` must
//! reset every piece: a fresh incarnation inheriting a trained estimator
//! would mis-time its first retransmissions, and one inheriting a
//! `SetBackoff`/`set_adaptive` override would run policy its configuration
//! never specified.

use inet::testbed::{base_registry, two_hosts};
use inet::with_concrete;
use sunrpc::rr::RequestReply;
use sunrpc::sunselect::SunSelect;
use xkernel::prelude::*;
use xkernel::sim::SimConfig;
use xrpc::channel::Channel;
use xrpc::stacks::L_RPC_VIP;

#[test]
fn channel_rto_state_re_cold_seeds_on_reboot() {
    let mut reg = base_registry();
    xrpc::register_ctors(&mut reg);
    let tb = two_hosts(
        SimConfig::scheduled().with_seed(0xc01d),
        &reg,
        L_RPC_VIP.graph,
    )
    .expect("testbed builds");
    xrpc::serve(&tb.server, "select", 7, |_ctx, msg| Ok(msg)).expect("serve");

    // Warm: two calls train the client's estimator.
    let server_ip = tb.server_ip;
    tb.sim.spawn(tb.client.host(), move |ctx| {
        let k = ctx.kernel();
        for _ in 0..2 {
            xrpc::call(ctx, &k, "select", server_ip, 7, vec![7; 16]).expect("warm call");
        }
    });
    assert_eq!(tb.sim.run_until_idle().blocked, 0);
    let warm_rtt = with_concrete::<Channel, _>(&tb.client, "channel", |c| c.rto().rtt_estimate())
        .expect("channel registered");
    assert!(warm_rtt > 0, "replies trained the estimator");

    // Override the run-time policy knobs (protocol-level control ops).
    tb.sim.spawn(tb.client.host(), |ctx| {
        with_concrete::<Channel, _>(&ctx.kernel(), "channel", |c| {
            c.control(ctx, &ControlOp::SetTimeout(1_000_000)).unwrap();
            c.control(ctx, &ControlOp::SetBackoff(0)).unwrap();
            c.rto().set_adaptive(false);
        })
        .expect("channel registered");
    });
    assert_eq!(tb.sim.run_until_idle().blocked, 0);
    with_concrete::<Channel, _>(&tb.client, "channel", |c| {
        assert_eq!(c.rto().max_backoff(), 0, "override in effect");
        assert!(!c.rto().adaptive(), "override in effect");
    })
    .expect("channel registered");

    // Crash and restart the client host.
    let host = tb.client.host();
    let t = tb.sim.ctx(host).event_time();
    tb.sim.crash_at(t + 1_000_000, host);
    tb.sim.restart_at(t + 2_000_000, host);
    assert_eq!(tb.sim.run_until_idle().blocked, 0);
    assert_eq!(tb.sim.boot_epoch(host), 1, "the client really rebooted");

    // Everything is factory-fresh again.
    with_concrete::<Channel, _>(&tb.client, "channel", |c| {
        assert_eq!(c.rto().rtt_estimate(), 0, "Karn state re-cold-seeded");
        assert_eq!(c.rto().max_backoff(), 6, "backoff cap back to default");
        assert!(
            c.rto().adaptive(),
            "adaptive switch back to configured value"
        );
    })
    .expect("channel registered");

    // And the fresh incarnation is immediately usable.
    tb.sim.spawn(host, move |ctx| {
        let k = ctx.kernel();
        xrpc::call(ctx, &k, "select", server_ip, 7, vec![9; 16]).expect("post-reboot call");
    });
    assert_eq!(tb.sim.run_until_idle().blocked, 0);
}

#[test]
fn request_reply_rto_state_re_cold_seeds_on_reboot() {
    let mut reg = base_registry();
    xrpc::register_ctors(&mut reg);
    sunrpc::register_ctors(&mut reg);
    let tb = two_hosts(
        SimConfig::scheduled().with_seed(0xc01e),
        &reg,
        chaos::SUNRPC_UDP_GRAPH,
    )
    .expect("testbed builds");
    with_concrete::<SunSelect, _>(&tb.server, "sunselect", |s| {
        s.serve(100_099, 1, 7, |_ctx, msg| Ok(msg))
    })
    .expect("sunselect registered");

    let server_ip = tb.server_ip;
    tb.sim.spawn(tb.client.host(), move |ctx| {
        with_concrete::<SunSelect, _>(&ctx.kernel(), "sunselect", |s| {
            for _ in 0..2 {
                s.call(ctx, server_ip, 100_099, 1, 7, vec![7; 16])
                    .expect("warm call");
            }
        })
        .expect("sunselect registered");
    });
    assert_eq!(tb.sim.run_until_idle().blocked, 0);
    let warm_rtt =
        with_concrete::<RequestReply, _>(&tb.client, "request_reply", |r| r.rto().rtt_estimate())
            .expect("request_reply registered");
    assert!(warm_rtt > 0, "replies trained the estimator");

    tb.sim.spawn(tb.client.host(), |ctx| {
        with_concrete::<RequestReply, _>(&ctx.kernel(), "request_reply", |r| {
            r.control(ctx, &ControlOp::SetTimeout(1_000_000)).unwrap();
            r.control(ctx, &ControlOp::SetBackoff(0)).unwrap();
            r.rto().set_adaptive(false);
        })
        .expect("request_reply registered");
    });
    assert_eq!(tb.sim.run_until_idle().blocked, 0);

    let host = tb.client.host();
    let t = tb.sim.ctx(host).event_time();
    tb.sim.crash_at(t + 1_000_000, host);
    tb.sim.restart_at(t + 2_000_000, host);
    assert_eq!(tb.sim.run_until_idle().blocked, 0);
    assert_eq!(tb.sim.boot_epoch(host), 1, "the client really rebooted");

    with_concrete::<RequestReply, _>(&tb.client, "request_reply", |r| {
        assert_eq!(r.rto().rtt_estimate(), 0, "Karn state re-cold-seeded");
        assert_eq!(r.rto().max_backoff(), 6, "backoff cap back to default");
        assert!(
            r.rto().adaptive(),
            "adaptive switch back to configured value"
        );
    })
    .expect("request_reply registered");

    tb.sim.spawn(host, move |ctx| {
        with_concrete::<SunSelect, _>(&ctx.kernel(), "sunselect", |s| {
            s.call(ctx, server_ip, 100_099, 1, 7, vec![9; 16])
                .expect("post-reboot call")
        })
        .expect("sunselect registered");
    });
    assert_eq!(tb.sim.run_until_idle().blocked, 0);
}

/// What the processes of the kill test did, in order.
type Log = std::sync::Arc<std::sync::Mutex<Vec<&'static str>>>;

/// Logs when dropped: a killed process's frames unwind through it.
struct Frame(Log, &'static str);

impl Drop for Frame {
    fn drop(&mut self) {
        self.0.lock().unwrap().push(self.1);
    }
}

/// A crash kills whatever its host is running by unwinding the coroutine —
/// the client's through SELECT, CHANNEL and the transaction wait, the
/// server's through every `demux` frame from the NIC up to the handler. A
/// cell guard on one of those frames is released by the unwind and there is
/// no poison to clear, so the restarted host's protocols can be entered
/// again: the next call completes instead of panicking on a held cell.
#[test]
fn a_process_killed_mid_call_leaves_every_cell_free() {
    let mut reg = base_registry();
    xrpc::register_ctors(&mut reg);
    let tb = two_hosts(
        SimConfig::scheduled().with_seed(0xce11),
        &reg,
        L_RPC_VIP.graph,
    )
    .expect("testbed builds");
    let log = Log::default();
    // Procedure 7 answers at once; procedure 8 parks its shepherd beneath
    // the server's demux frames for 50 ms first.
    xrpc::serve(&tb.server, "select", 7, |_ctx, msg| Ok(msg)).expect("serve");
    let l = log.clone();
    xrpc::serve(&tb.server, "select", 8, move |ctx, msg| {
        let _frame = Frame(l.clone(), "handler dropped");
        ctx.sleep(50_000_000);
        l.lock().unwrap().push("handler returned");
        Ok(msg)
    })
    .expect("serve");

    let server_ip = tb.server_ip;
    let call = move |ctx: &Ctx, command: u16| {
        xrpc::call(
            ctx,
            &ctx.kernel(),
            "select",
            server_ip,
            command,
            vec![7; 16],
        )
    };
    tb.sim.spawn(tb.client.host(), move |ctx| {
        call(ctx, 7).expect("warm call");
    });
    assert_eq!(tb.sim.run_until_idle().blocked, 0);

    for (victim, killed) in [
        (tb.client.host(), "caller dropped"),
        (tb.server.host(), "handler dropped"),
    ] {
        log.lock().unwrap().clear();
        let l = log.clone();
        tb.sim.spawn(tb.client.host(), move |ctx| {
            let _frame = Frame(l.clone(), "caller dropped");
            // Whatever a server crash makes of the call, the caller gets it.
            let _ = call(ctx, 8);
            l.lock().unwrap().push("caller returned");
        });
        // 10 ms in, the request has arrived and the handler is asleep.
        let t = tb.sim.ctx(victim).event_time();
        tb.sim.crash_at(t + 10_000_000, victim);
        tb.sim.restart_at(t + 20_000_000, victim);
        assert_eq!(tb.sim.run_until_idle().blocked, 0);
        let seen = std::mem::take(&mut *log.lock().unwrap());
        // A frame that returns logs that first; the first thing logged is
        // a bare drop, so the crash unwound it in mid-call.
        assert_eq!(seen.first(), Some(&killed), "{seen:?}");

        let l = log.clone();
        tb.sim.spawn(tb.client.host(), move |ctx| {
            assert_eq!(call(ctx, 7).expect("post-reboot call"), vec![7; 16]);
            l.lock().unwrap().push("next call done");
        });
        assert_eq!(tb.sim.run_until_idle().blocked, 0);
        assert_eq!(
            *log.lock().unwrap(),
            ["next call done"],
            "a cell stayed held"
        );
    }
}
