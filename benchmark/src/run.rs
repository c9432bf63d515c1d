//! One run of one workload: set-up, timed rounds, verification, and the
//! result line. `--trace 0` gives the end-to-end metrics with every observer
//! off; `--trace 1` is the separate traced run that gives the per-layer ones.

use std::collections::BTreeMap;

use crate::alloc::{counting, AllocCount};
use crate::catalog::{self, END_TO_END};
use crate::host;
use crate::json::Json;
use crate::layers::Layers;
use crate::probe::{Lap, Stopwatch};
use crate::span::Tracer;
use crate::stats::{mad, median};
use crate::workloads::{self, Counters, Workload};

/// Times a workload is set up in one run; `setup_s` is the median.
const SETUPS: usize = 3;

/// Round-size divisor of `--quick`, the smoke run.
const QUICK_DIV: u64 = 20;

/// What the command line asked for.
pub struct Args {
    /// A name from the catalogue.
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub quick: bool,
}

/// A finished run.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
    /// Lines for people, printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line. Refuses a metric set that differs from the
    /// catalogue's, so a renamed or forgotten metric cannot slip out.
    pub fn result_line(&self, trace: bool) -> Json {
        let want: Vec<String> = if trace {
            catalog::per_layer().into_iter().map(|m| m.0).collect()
        } else {
            END_TO_END.iter().map(|m| m.0.to_string()).collect()
        };
        let mut sorted: Vec<&String> = want.iter().collect();
        sorted.sort();
        let have: Vec<&String> = self.metrics.keys().collect();
        assert_eq!(have, sorted, "metrics differ from the catalogue");
        let metrics = want.iter().map(|name| {
            let unit = catalog::unit_of(name).expect("a catalogued metric");
            let value = Json::obj([
                ("value", Json::from(self.metrics[name])),
                ("unit", Json::from(unit)),
            ]);
            (name.clone(), value)
        });
        Json::obj([
            ("correct", Json::from(self.failed == 0)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// Builds the workload and runs its warm-up round; returns it with the
/// time that took.
fn set_up(args: &Args, sw: &mut Stopwatch) -> Result<(Box<dyn Workload>, Lap), String> {
    let div = if args.quick { QUICK_DIV } else { 1 };
    sw.start();
    let mut w = workloads::build(args.workload, args.seed, div).expect("a catalogued workload");
    let warm = w.round(0, &mut Tracer::new(false), sw);
    let lap = sw.stop();
    if warm.failed != 0 {
        return Err(format!("{} calls failed in the warm-up", warm.failed));
    }
    Ok((w, lap))
}

/// Runs round `r`; returns its counters and the time it took.
fn timed_round(
    w: &mut dyn Workload,
    r: u64,
    tr: &mut Tracer,
    sw: &mut Stopwatch,
) -> (Counters, Lap) {
    sw.start();
    let c = w.round(r, tr, sw);
    (c, sw.stop())
}

/// Verified and failed calls over the rounds so far, with the first
/// round's counters as the reference every repeat must reproduce.
struct Verdict {
    first: Option<Counters>,
    repeat: bool,
    attempted: u64,
    failed: u64,
}

impl Verdict {
    fn new(w: &dyn Workload) -> Verdict {
        Verdict {
            first: None,
            repeat: w.rounds_repeat(),
            attempted: 0,
            failed: 0,
        }
    }

    fn take(&mut self, c: &Counters) {
        self.attempted += c.calls + c.failed;
        self.failed += c.failed;
        match &self.first {
            None => self.first = Some(*c),
            // Identical work from an identical state that counts
            // differently: none of the round's calls can be trusted.
            Some(first) if self.repeat && first != c => self.failed += c.calls,
            Some(_) => {}
        }
    }
}

fn raw(laps: &[Lap]) -> Vec<f64> {
    laps.iter().map(|l| l.raw_s).collect()
}

fn scaled(laps: &[Lap]) -> Vec<f64> {
    laps.iter().map(|l| l.scaled_s).collect()
}

fn listed(xs: &[f64]) -> String {
    let cells: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
    cells.join(" ")
}

/// The untraced run.
pub fn end_to_end(args: &Args) -> Result<Outcome, String> {
    let mut sw = Stopwatch::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        // Let go of the last one first, so two are never held at once.
        drop(kept.take());
        let (w, lap) = set_up(args, &mut sw)?;
        setups.push(lap);
        kept = Some(w);
    }
    let mut w = kept.expect("set up at least once");

    let rounds = workloads::rounds_for(args.workload, args.seconds, args.quick);
    let mut tr = Tracer::new(false);
    let mut verdict = Verdict::new(w.as_ref());
    let mut laps = Vec::with_capacity(rounds as usize);
    for r in 1..=rounds {
        let (c, lap) = timed_round(w.as_mut(), r, &mut tr, &mut sw);
        verdict.take(&c);
        laps.push(lap);
    }
    let first = verdict.first.expect("at least one round");

    let round_s = median(&scaled(&laps));
    let metrics = BTreeMap::from([
        ("setup_s".to_string(), median(&scaled(&setups))),
        ("calls_per_s".to_string(), first.calls as f64 / round_s),
        (
            "peak_rss_mb".to_string(),
            host::peak_rss_bytes() as f64 / 1e6,
        ),
    ]);
    let raw_round_s = median(&raw(&laps));
    let notes = vec![
        format!(
            "info {} rounds {rounds} calls_per_round {} raw_round_s {raw_round_s:.4} \
             raw_calls_per_s {:.0} raw_setup_s {:.4} scaled_mad_pct {:.2} probe_s {:.4}",
            args.workload,
            first.calls,
            first.calls as f64 / raw_round_s,
            median(&raw(&setups)),
            100.0 * mad(&scaled(&laps)) / round_s,
            median(&sw.probes),
        ),
        format!(
            "info {} raw_rounds_s {}",
            args.workload,
            listed(&raw(&laps))
        ),
        format!(
            "info {} scaled_rounds_s {}",
            args.workload,
            listed(&scaled(&laps))
        ),
        format!("info {} probes_s {}", args.workload, listed(&sw.probes)),
    ];
    Ok(Outcome {
        attempted: verdict.attempted,
        failed: verdict.failed,
        metrics,
        notes,
    })
}

/// The share of `--seconds` the traced run spends on the workload itself;
/// the layer ledger gets the rest.
const TRACED_WORKLOAD_SHARE: f64 = 0.4;

/// Seconds one round of the layer ledger takes, nominally.
const LEDGER_ROUND_S: f64 = 0.8;

/// The traced run: the workload in alternating untraced and traced rounds
/// (their ratio is the tracing overhead), then the layer ledger.
pub fn per_layer(args: &Args) -> Result<(Outcome, Tracer), String> {
    let mut tr = Tracer::new(true);
    let label = args.workload;
    let outcome = tr.span("run", label, 1, |tr| -> Result<Outcome, String> {
        let mut sw = Stopwatch::default();
        let (mut w, _) = tr.span("set_up", label, 1, |_| set_up(args, &mut sw))?;

        // Pairs of rounds: as many as the workload's share of `--seconds`
        // holds, and no more rounds than the untraced run makes.
        let budget = args.seconds as f64 * TRACED_WORKLOAD_SHARE;
        let pairs = ((budget / (2.0 * workloads::nominal_round_s(args.workload))) as u64)
            .min(workloads::rounds_for(args.workload, args.seconds, args.quick) / 2)
            .max(1);
        let mut verdict = Verdict::new(w.as_ref());
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let mut alloc = AllocCount::default();
        let mut traced_calls = 0;
        tr.span("workload", label, pairs * 2, |tr| {
            for pair in 0..pairs {
                // Both rounds of a pair do the same work (round `pair + 1`),
                // so the only difference between them is the tracing.
                let (c, lap) = timed_round(w.as_mut(), pair + 1, &mut Tracer::new(false), &mut sw);
                verdict.take(&c);
                plain.push(lap);

                let (grown, (c, lap)) = counting(|| {
                    tr.span("round", label, c.calls + c.failed, |tr| {
                        timed_round(w.as_mut(), pair + 1, tr, &mut sw)
                    })
                });
                alloc.allocs += grown.allocs;
                alloc.bytes += grown.bytes;
                traced_calls += c.calls;
                verdict.take(&c);
                traced.push(lap);
            }
        });
        let first = verdict.first.expect("at least one pair");
        let mut metrics = workload_ledger(&first);
        let per_call = |v: u64| v as f64 / traced_calls.max(1) as f64;
        metrics.insert("alloc.allocs_per_call".into(), per_call(alloc.allocs));
        metrics.insert("alloc.bytes_per_call".into(), per_call(alloc.bytes));
        let plain_s = median(&scaled(&plain));
        let traced_s = median(&scaled(&traced));
        let ns_per_event = match first.events {
            0 => 0.0,
            events => plain_s * 1e9 / events as f64,
        };
        metrics.insert("sim.ns_per_event".into(), ns_per_event);
        metrics.insert(
            "bench.trace_overhead_pct".into(),
            100.0 * (traced_s / plain_s - 1.0),
        );
        metrics.insert(
            "bench.sample_mad_pct".into(),
            100.0 * mad(&scaled(&plain)) / plain_s,
        );

        // The ledger's rounds fill what is left of `--seconds`.
        let mut layers = tr.span("Layers::new", label, 1, |_| Layers::new(args.seed));
        let ledger_rounds = match args.quick {
            true => 2,
            false => {
                let left = args.seconds as f64 * (1.0 - TRACED_WORKLOAD_SHARE);
                ((left / LEDGER_ROUND_S) as u64).max(3)
            }
        };
        tr.span("ledger", label, ledger_rounds, |tr| {
            for _ in 0..ledger_rounds {
                tr.span("round", "ledger", 1, |tr| layers.round(tr, &mut sw));
            }
            tr.span("once", "ledger", 1, |tr| layers.once(tr));
        });
        let ledger = layers.finish();
        metrics.extend(ledger.metrics);

        let notes = vec![format!(
            "info {} pairs {pairs} calls_per_round {} plain_round_s {plain_s:.4} \
             traced_round_s {traced_s:.4} ledger_rounds {ledger_rounds} probe_s {:.4}",
            args.workload,
            first.calls,
            median(&sw.probes),
        )];
        Ok(Outcome {
            attempted: verdict.attempted + ledger.attempted,
            failed: verdict.failed + ledger.failed,
            metrics,
            notes,
        })
    })?;
    Ok((outcome, tr))
}

/// The per-layer metrics that come free from the program's public reports
/// of one round of the workload.
fn workload_ledger(c: &Counters) -> BTreeMap<String, f64> {
    let calls = c.calls.max(1) as f64;
    let per_call = |v: u64| v as f64 / calls;
    let per_kcall = |v: u64| 1e3 * v as f64 / calls;
    let virt_s = c.virt_ns as f64 / 1e9;
    let per_virt_s = |v: f64| if c.virt_ns == 0 { 0.0 } else { v / virt_s };
    let us = |ns: u64| ns as f64 / 1e3;
    BTreeMap::from(
        [
            ("sim.events_per_call", per_call(c.events)),
            ("sim.fuel_per_call", per_call(c.fuel)),
            ("sim.peak_live", c.peak_live as f64),
            ("simnet.frames_per_call", per_call(c.frames)),
            ("simnet.wire_util", per_virt_s(c.wire_busy_ns as f64 / 1e9)),
            ("simnet.dropped_per_kcall", per_kcall(c.dropped)),
            ("simnet.duplicated_per_kcall", per_kcall(c.duplicated)),
            ("simnet.corrupted_per_kcall", per_kcall(c.corrupted)),
            ("rto.retransmits_per_kcall", per_kcall(c.retransmits)),
            ("rto.timeouts_per_kcall", per_kcall(c.timeouts)),
            (
                "rto.dups_suppressed_per_kcall",
                per_kcall(c.dups_suppressed),
            ),
            (
                "rto.corrupt_rejected_per_kcall",
                per_kcall(c.corrupt_rejected),
            ),
            ("shepherd.peak_queue", c.shepherd_peak_queue as f64),
            ("shepherd.dropped", c.shepherd_dropped as f64),
            ("shepherd.peak_workers", c.shepherd_peak_workers as f64),
            ("virt.p50_us", us(c.lat.p50_ns)),
            ("virt.p99_us", us(c.lat.p99_ns)),
            ("virt.p999_us", us(c.lat.p999_ns)),
            ("virt.goodput_cps", per_virt_s(c.calls as f64)),
            ("virt.kb_per_s", per_virt_s(c.payload_bytes as f64 / 1e3)),
        ]
        .map(|(k, v)| (k.to_string(), v)),
    )
}

/// Writes the spans of a traced run to `out/trace_<workload>.json` beside the
/// benchmark's `Cargo.toml` and returns the path.
pub fn write_trace(workload: &str, tr: &Tracer) -> Result<String, String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/trace_{workload}.json");
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, tr.to_json().pretty()))
        .map_err(|e| format!("writing {path}: {e}"))?;
    Ok(path)
}
