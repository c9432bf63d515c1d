//! Every workload at 1/100 size: calls verify, and rounds of identical work
//! count identically (the check each benchmark run makes on itself).

use xkbench::catalog::WORKLOADS;
use xkbench::probe::Stopwatch;
use xkbench::span::Tracer;
use xkbench::workloads::build;

#[test]
fn every_workload_verifies_and_repeats() {
    for (name, _) in WORKLOADS {
        let mut w = build(name, 7, 100).expect("a catalogued workload builds");
        let mut tr = Tracer::new(true);
        let mut sw = Stopwatch::default();
        sw.start();
        let rounds: Vec<_> = (0..3).map(|r| w.round(r, &mut tr, &mut sw)).collect();
        sw.stop();
        for (r, c) in rounds.iter().enumerate() {
            assert!(c.calls > 0, "{name} round {r} verified no call");
            assert_eq!(c.failed, 0, "{name} round {r}");
        }
        if w.rounds_repeat() {
            assert_eq!(rounds[1], rounds[2], "{name}: identical rounds differ");
        }
        assert!(!tr.spans().is_empty(), "{name} recorded no span");
    }
    assert!(build("no_such_workload", 7, 100).is_none());
}
