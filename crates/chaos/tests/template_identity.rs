//! A scenario forked from a pooled template is the scenario built from
//! scratch.
//!
//! `Scenario::run` takes its stack's rig from a thread-local pool, rewinds it
//! to the warmed instant, reseeds it, runs, and puts it back. Everything
//! below holds that to the one standard a fork has (SNIPPETS.md, x07's
//! replay rule): the same output, the same `fuel_used`, the same
//! `sched_hash` — `ChaosReport: Eq` covers all three — as a rig nobody had
//! used, built under the scenario's own seed.
//!
//! Two oracles. `run_with(check)` builds a rig for that one run under the
//! scenario's seed (its rewind comes straight after the capture and its
//! reseed redraws the same seed's draws: both the identity), and the checker
//! only observes (`check_identity.rs`), so its report is the from-scratch
//! one. And the matrix's reports fold to a pinned digest, first taken from
//! the runner before templates existed, when every scenario built its own
//! rig and nothing was ever restored. It was re-pinned once since, when
//! FRAGMENT's retained copies began to expire by their age instead of on a
//! discard timer: on the FRAGMENT stacks the run ends earlier and files
//! fewer events, so only `ended_at`, `events`, `sched_hash` and the hosts'
//! final clocks (`cpu_ns`) moved.
//!
//! A folded digest that fails names what moved: each report is also held to
//! its line in `tests/pins/`, one line per scenario, taken when the digest
//! was pinned. The first scenario whose line differs is printed field by
//! field, with how many differ in all, and the whole new list is written
//! under the test's target directory for review.

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use chaos::{full_matrix, pool_stats, run_matrix, ChaosReport, PoolStats, RunOpts, Scenario};
use inet::testbed::{base_registry, two_hosts};
use simnet::Template;
use xkernel::prelude::*;
use xkernel::sim::SimConfig;

const SEED_BASES: [u64; 5] = [0, 1000, 7000, 67000, 99000];
const SEEDS_PER_CELL: u64 = 25;

fn from_scratch(sc: &Scenario) -> ChaosReport {
    let opts = RunOpts {
        check: true,
        ..RunOpts::default()
    };
    sc.run_with(opts).report
}

/// FNV-1a over what a report held before `timed_out` was split out of
/// `failed` — the fields the pre-template digests were taken over.
fn fold(h: u64, r: &ChaosReport) -> u64 {
    let line = format!(
        "{} {:?} {:?} {} {} {} {} {} {} {}\n",
        r.label,
        r.run,
        r.lan,
        r.attempted,
        r.completed,
        r.mismatched,
        r.failed,
        r.executed,
        r.garbage,
        r.duplicate_execs
    );
    line.bytes().fold(h, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A report's fields by name: every field [`fold`] reads but its label.
fn fields(r: &ChaosReport) -> Vec<(String, u64)> {
    let run = &r.run;
    let mut fields = vec![
        ("ended_at".to_string(), run.ended_at),
        ("events".into(), run.events),
        ("blocked".into(), run.blocked as u64),
        ("breakdown".into(), run.breakdown.entries.len() as u64),
        ("sched_hash".into(), run.sched_hash),
        ("fuel_used".into(), run.fuel_used),
        ("fuel_exhausted".into(), run.fuel_exhausted),
        ("peak_live".into(), run.peak_live as u64),
    ];
    for (i, h) in run.hosts.iter().enumerate() {
        let host = [
            ("retransmits", h.retransmits),
            ("duplicates_suppressed", h.duplicates_suppressed),
            ("corrupt_rejected", h.corrupt_rejected),
            ("timeouts_fired", h.timeouts_fired),
            ("crashes", h.crashes),
            ("restarts", h.restarts),
            ("cpu_ns", h.cpu_ns),
        ];
        fields.extend(host.map(|(name, v)| (format!("h{i}.{name}"), v)));
    }
    let lan = &r.lan;
    fields.extend([
        ("lan.sent".into(), lan.sent),
        ("lan.delivered".into(), lan.delivered),
        ("lan.dropped".into(), lan.dropped),
        ("lan.duplicated".into(), lan.duplicated),
        ("lan.corrupted".into(), lan.corrupted),
        ("lan.bytes".into(), lan.bytes),
        ("lan.busy_ns".into(), lan.busy_ns),
    ]);
    for (name, v) in [
        ("attempted", r.attempted),
        ("completed", r.completed),
        ("mismatched", r.mismatched),
        ("failed", r.failed),
        ("executed", r.executed),
        ("garbage", r.garbage),
        ("duplicate_execs", r.duplicate_execs),
    ] {
        fields.push((name.into(), u64::from(v)));
    }
    fields
}

/// Reports as a pin list: a `#` line naming the columns, then one line of
/// values a report, in order. A field that is 0 in every report has no
/// column.
fn render(reports: &[ChaosReport]) -> String {
    let rows: Vec<_> = reports.iter().map(fields).collect();
    let mut columns: Vec<&str> = Vec::new();
    for (name, v) in rows.iter().flatten() {
        if *v != 0 && !columns.contains(&name.as_str()) {
            columns.push(name);
        }
    }
    let mut list = format!("# {}\n", columns.join(" "));
    for row in &rows {
        let value = |c: &&str| row.iter().find(|(n, _)| n == c).map_or(0, |f| f.1);
        let values: Vec<String> = columns.iter().map(|c| value(c).to_string()).collect();
        list += &values.join(" ");
        list.push('\n');
    }
    list
}

/// A pin list's rows, each as its fields by name.
fn parse(list: &str) -> Vec<BTreeMap<&str, &str>> {
    let mut lines = list.lines();
    let header = lines.next().unwrap_or("#");
    let columns: Vec<&str> = header.split(' ').skip(1).collect();
    lines
        .map(|line| columns.iter().copied().zip(line.split(' ')).collect())
        .collect()
}

/// A row's `name` field; a column the row's list lacks reads as 0.
fn get<'a>(row: &BTreeMap<&str, &'a str>, name: &str) -> &'a str {
    row.get(name).copied().unwrap_or("0")
}

/// Holds `reports` to the list `pins/{name}` (`pinned`, taken when `digest`
/// was pinned) row by row, then to `digest`. Rows that differ fail first:
/// the message names the first one's scenario and each of its fields that
/// moved (pinned value -> now), and counts the rows each field moved in. The
/// new list is written to the test's target directory, so a justified re-pin
/// is one copy.
fn check_pins(name: &str, reports: &[ChaosReport], pinned: &str, digest: u64) {
    let list = render(reports);
    let (now, was) = (parse(&list), parse(pinned));
    let mut first = None;
    let mut rows_moved = 0;
    let mut moved_in: BTreeMap<&str, usize> = BTreeMap::new();
    for (at, (n, w)) in now.iter().zip(&was).enumerate() {
        let names: BTreeSet<&str> = n.keys().chain(w.keys()).copied().collect();
        let moved: Vec<&str> = names
            .into_iter()
            .filter(|f| get(w, f) != get(n, f))
            .collect();
        if moved.is_empty() {
            continue;
        }
        rows_moved += 1;
        for f in &moved {
            *moved_in.entry(f).or_default() += 1;
        }
        first.get_or_insert_with(|| {
            let fields = moved
                .iter()
                .map(|f| format!("{f}: {} -> {}", get(w, f), get(n, f)));
            let fields: Vec<String> = fields.collect();
            format!("{}:\n    {}", reports[at].label, fields.join("\n    "))
        });
    }
    if rows_moved > 0 || now.len() != was.len() {
        let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        std::fs::write(&out, &list).expect("the new list is written");
        panic!(
            "{rows_moved} of {} reports differ from the {} rows of pins/{name}\n\
             rows each field moved in: {moved_in:?}\n\
             the first is {}\n\
             the new list is {}",
            now.len(),
            was.len(),
            first.unwrap_or_default(),
            out.display()
        );
    }
    let folded = reports.iter().fold(FNV_OFFSET, fold);
    assert_eq!(
        folded, digest,
        "every report matches its row in pins/{name}, but they fold to {folded:#x}"
    );
}

#[test]
fn every_cell_of_the_matrix_forks_to_its_from_scratch_report() {
    let mut reports = Vec::new();
    let mut n = 0u64;
    for base in SEED_BASES {
        let matrix = full_matrix(base, SEEDS_PER_CELL, 8);
        assert_eq!(matrix.len() as u64, 43 * SEEDS_PER_CELL);
        for sc in &matrix {
            // Both orders: neither run may leave anything behind that the
            // other picks up.
            let (pooled, scratch) = if n.is_multiple_of(2) {
                let pooled = sc.run();
                (pooled, from_scratch(sc))
            } else {
                let scratch = from_scratch(sc);
                (sc.run(), scratch)
            };
            assert_eq!(pooled, scratch, "pooled vs from scratch");
            // The same rig, the same scenario, back to back.
            assert_eq!(sc.run(), pooled, "{}: second run on the rig", pooled.label);
            reports.push(pooled);
            n += 1;
        }
    }
    assert_eq!(n, 5_375);
    check_pins(
        "template_matrix.txt",
        &reports,
        include_str!("pins/template_matrix.txt"),
        0x2a12_9565_8ad3_3661,
    );
}

#[test]
fn populations_fork_to_their_from_scratch_reports() {
    let mut reports = Vec::new();
    for sc in full_matrix(31, 2, 20) {
        if sc.stack.name() == "PSYNC" {
            continue; // two-party: populations do not apply
        }
        let sc = Scenario {
            population: 3,
            ..sc
        };
        let pooled = sc.run();
        assert_eq!(pooled.attempted, 60);
        assert_eq!(pooled, from_scratch(&sc));
        assert_eq!(sc.run(), pooled);
        reports.push(pooled);
    }
    assert_eq!(reports.len(), 82);
    check_pins(
        "template_populations.txt",
        &reports,
        include_str!("pins/template_populations.txt"),
        0x7fc5_1fe7_94bb_2b6b,
    );
}

/// Each worker thread owns its pool, so which rig a scenario lands on
/// depends on the thread count; its report must not.
#[test]
fn the_matrix_is_the_same_matrix_on_one_thread_and_two() {
    let matrix = full_matrix(4100, 6, 8);
    let one = run_matrix(matrix.clone(), 1, false);
    let two = run_matrix(matrix, 2, false);
    assert_eq!(one, two);
}

#[test]
fn a_thousand_scenarios_build_eight_rigs() {
    let cells = full_matrix(0, 1, 8);
    assert_eq!(
        pool_stats(),
        PoolStats::default(),
        "a new thread, a new pool"
    );
    for i in 0..1_000 {
        let mut sc = cells[i % cells.len()];
        sc.seed = 500_000 + i as u64;
        sc.run();
    }
    assert_eq!(
        pool_stats(),
        PoolStats {
            built: 8,
            forked: 1_000,
            given_away: 0,
            discarded: 0
        }
    );
    // An outcome takes its rig with it; the next run builds the stack's next.
    let out = cells[0].run_with(RunOpts::default());
    assert_eq!(out.report, cells[0].run());
    assert_eq!(
        pool_stats(),
        PoolStats {
            built: 9,
            forked: 1_002,
            given_away: 1,
            discarded: 0
        }
    );
}

/// A protocol that draws from the simulation's PRNG in `boot` and does not
/// say so in `reseed`.
struct Drawer {
    me: ProtoId,
}

impl Protocol for Drawer {
    fn name(&self) -> &'static str {
        "drawer"
    }

    fn id(&self) -> ProtoId {
        self.me
    }

    fn open(&self, _ctx: &Ctx, _u: ProtoId, _p: &ParticipantSet) -> XResult<SessionRef> {
        Err(XError::Unsupported("drawer opens nothing"))
    }

    fn open_enable(&self, _ctx: &Ctx, _u: ProtoId, _p: &ParticipantSet) -> XResult<()> {
        Ok(())
    }

    fn demux(&self, _ctx: &Ctx, _lls: &SessionRef, _msg: Message) -> XResult<()> {
        Ok(())
    }

    fn boot(&self, ctx: &Ctx) -> XResult<()> {
        ctx.next_u64();
        Ok(())
    }
}

/// Two hosts, one unhooked draw each, beside CHANNEL's hooked one: the
/// template's set-up made four draws and the hooks redo two. Caught at the
/// first fork, by count — not three PRs later by a report that differs.
#[test]
#[should_panic(expected = "had made 4 PRNG draw(s) but its protocols' reseed hooks redid 2")]
fn a_boot_time_draw_without_a_reseed_hook_fails_the_first_fork() {
    let mut reg = base_registry();
    xrpc::register_ctors(&mut reg);
    reg.add(
        "drawer",
        |a| Ok(Rc::new(Drawer { me: a.me }) as ProtocolRef),
    );
    let graph = format!("{}drawer\n", xrpc::stacks::L_RPC_VIP.graph);
    let tb = two_hosts(SimConfig::scheduled().with_seed(1), &reg, &graph).expect("rig builds");
    Template::capture(&tb.sim, &tb.net).fork(2);
}
