//! §1 introduction numbers: UDP/IP round trip in the x-kernel (2.00 msec)
//! versus SunOS 4.0 sockets (5.36 msec), and the §3.1 figure that the IP
//! layer costs 0.37 msec per RPC round trip.

use std::rc::Rc;
use std::sync::{Arc, Mutex};

use inet::testbed::two_hosts;
use inet::with_concrete;
use xkernel::prelude::*;
use xkernel::sim::SimConfig;
use xrpc::stacks::{M_RPC_ETH, M_RPC_IP};

use crate::{
    ms, print_row, print_table_header, registry, rpc_latency, LATENCY_ITERS, WARMUP_ITERS,
};

/// UDP echo round trip using a pinger-style responder above UDP.
fn udp_latency(handicapped: bool) -> u64 {
    // The standard stack already includes udp->ip. For the SunOS model,
    // interpose a handicap layer charging socket-stack overheads between a
    // second UDP instance and IP.
    let reg = registry();
    let tb = two_hosts(
        SimConfig::scheduled(),
        &reg,
        if handicapped {
            "hcap: handicap as=ip switches=4 copy256=512 fixed_ns=900000 -> ip\n\
             udps: udp -> hcap\n"
        } else {
            ""
        },
    )
    .expect("testbed");
    let udp_name = if handicapped { "udps" } else { "udp" };
    // Server: echo every datagram arriving on port 7 back to the sender.
    struct UdpEcho {
        me: ProtoId,
    }
    impl Protocol for UdpEcho {
        fn name(&self) -> &'static str {
            "udpecho"
        }
        fn id(&self) -> ProtoId {
            self.me
        }
        fn open(&self, _c: &Ctx, _u: ProtoId, _p: &ParticipantSet) -> XResult<SessionRef> {
            Err(XError::Unsupported("echo"))
        }
        fn open_enable(&self, _c: &Ctx, _u: ProtoId, _p: &ParticipantSet) -> XResult<()> {
            Ok(())
        }
        fn demux(&self, ctx: &Ctx, lls: &SessionRef, msg: Message) -> XResult<()> {
            lls.push(ctx, msg)?;
            Ok(())
        }
    }
    // Client: waiter protocol that Vs a semaphore per echo received.
    struct UdpWait {
        me: ProtoId,
        sema: SharedSema,
    }
    impl Protocol for UdpWait {
        fn name(&self) -> &'static str {
            "udpwait"
        }
        fn id(&self) -> ProtoId {
            self.me
        }
        fn open(&self, _c: &Ctx, _u: ProtoId, _p: &ParticipantSet) -> XResult<SessionRef> {
            Err(XError::Unsupported("wait"))
        }
        fn open_enable(&self, _c: &Ctx, _u: ProtoId, _p: &ParticipantSet) -> XResult<()> {
            Ok(())
        }
        fn demux(&self, ctx: &Ctx, _lls: &SessionRef, _msg: Message) -> XResult<()> {
            self.sema.v(ctx);
            Ok(())
        }
    }

    let sema = SharedSema::new(0);
    let echo_id = tb
        .server
        .register("udpecho", |me| Ok(Rc::new(UdpEcho { me }) as ProtocolRef))
        .unwrap();
    let wait_sema = sema.clone();
    let wait_id = tb
        .client
        .register("udpwait", |me| {
            Ok(Rc::new(UdpWait {
                me,
                sema: wait_sema,
            }) as ProtocolRef)
        })
        .unwrap();
    {
        let ctx = tb.sim.ctx(tb.server.host());
        let udp = tb.server.lookup(udp_name).unwrap();
        let parts = ParticipantSet::local(Participant::default().with_port(7));
        tb.server.open_enable(&ctx, udp, echo_id, &parts).unwrap();
    }
    {
        let ctx = tb.sim.ctx(tb.client.host());
        let udp = tb.client.lookup(udp_name).unwrap();
        let parts = ParticipantSet::local(Participant::default().with_port(5000));
        tb.client.open_enable(&ctx, udp, wait_id, &parts).unwrap();
    }
    let server_ip = tb.server_ip;
    let udp_name2: String = udp_name.to_string();
    let out = Arc::new(Mutex::new(0u64));
    let o2 = Arc::clone(&out);
    tb.sim.spawn(tb.client.host(), move |ctx| {
        let k = ctx.kernel();
        let udp = k.lookup(&udp_name2).unwrap();
        let wait = k.lookup("udpwait").unwrap();
        let parts = ParticipantSet::pair(
            Participant::default().with_port(5000),
            Participant::host_port(server_ip, 7),
        );
        let sess = k.open(ctx, udp, wait, &parts).unwrap();
        let ping = || Message::from_user(vec![0u8; 16]);
        for _ in 0..WARMUP_ITERS {
            sess.push(ctx, ping()).unwrap();
            assert!(sema.p_timeout(ctx, 1_000_000_000));
        }
        let t0 = ctx.now();
        for _ in 0..LATENCY_ITERS {
            sess.push(ctx, ping()).unwrap();
            assert!(sema.p_timeout(ctx, 1_000_000_000));
        }
        *o2.lock().unwrap() = (ctx.now() - t0) / LATENCY_ITERS as u64;
    });
    let r = tb.sim.run_until_idle();
    assert_eq!(r.blocked, 0);
    let _ = with_concrete::<inet::udp::Udp, ()>(&tb.client, "udp", |_| ());
    let v = *out.lock().unwrap();
    v
}

/// Prints the §1 / §3.1 motivating numbers.
pub fn run() {
    print_table_header(
        "Sec 1 / 3.1: motivating numbers (paper in parentheses)",
        &["Measurement", "msec"],
    );
    let xk_udp = udp_latency(false);
    let sunos_udp = udp_latency(true);
    print_row(&[
        "UDP/IP round trip, x-kernel".into(),
        format!("{} (2.00)", ms(xk_udp)),
    ]);
    print_row(&[
        "UDP/IP round trip, SunOS model".into(),
        format!("{} (5.36)", ms(sunos_udp)),
    ]);
    let eth = rpc_latency(&M_RPC_ETH);
    let ip = rpc_latency(&M_RPC_IP);
    print_row(&[
        "IP cost per RPC round trip".into(),
        format!("{} (0.37)", ms(ip.saturating_sub(eth))),
    ]);
    print_row(&[
        "IP latency penalty on RPC".into(),
        format!(
            "{:.0}% (21%)",
            (ip as f64 - eth as f64) / eth as f64 * 100.0
        ),
    ]);
    println!();
}
