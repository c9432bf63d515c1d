//! Every way of running a scenario gives the same result: one matrix.
//!
//! Rows are what is run: the chaos matrix (every stack × profile cell, 25
//! seeds from each of five bases, 8 calls: 5,375 scenarios), its 82
//! populations (three clients of 20 calls each) and two load runs forked
//! from a warmed snapshot. Columns are the paths a run can take:
//!
//! - **fresh**: a rig built for the one run, with no observer (a fuel budget
//!   no process reaches makes `run_with` build one). Every other cell is held
//!   to it, and **invariants** holds it to the scenario's invariants;
//! - **fork**: `Scenario::run` twice back to back on this thread's pooled
//!   rig, before or after the fresh run, and held to the lists in `pins/`
//!   and their digests. A load row forks its warmed snapshot under a policy
//!   point, the baseline and the point again: the baseline is the fresh run;
//! - **traced**: the ledger fills, and the rest is the fresh report;
//! - **checked**: the concurrency checker watches and finds nothing;
//! - **journaled**: the journal records, stamped with the run's fingerprint;
//! - **replay**: the journal's tie picks steer a journaled rerun, which
//!   re-records the same stream;
//! - **snapshot**: split at `calls / 2`, restored, the tail run again: the
//!   replay is its own phased run (which files one more event than the
//!   straight run, at the phase boundary);
//! - **observers**: all sixteen subsets of trace, check, journal and fault
//!   recording, on one row of each stack family;
//! - **1 worker**: `run_matrix` over every chaos row on one thread (the
//!   passes above run on two), asserting each row's invariants where they
//!   hold.
//!
//! A cell compares whole reports by `Eq`: the output, `fuel_used` and
//! `sched_hash` (x07's replay rule, SNIPPETS.md). A cell that differs names
//! its row and column and lists every field that moved. A column that does
//! not apply to a row says why; `--nocapture` prints the coverage table.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::time::Instant;

use chaos::{full_matrix, run_matrix, ChaosReport, FaultRecording, Profile, RunOpts, Scenario};
use xkernel::journal::Journal;
use xkernel::par::run_indexed;
use xload::{fork_sweep, GenMode, LoadSpec, LoadStack, PolicyPoint, Topology};

const SEED_BASES: [u64; 5] = [0, 1000, 7000, 67000, 99000];
const SEEDS_PER_CELL: u64 = 25;
/// The threads a pass fans its rows out to.
const THREADS: usize = 2;

/// One stack × profile a stack family: its first seed's row runs every
/// subset of observers.
const FAMILIES: [(&str, Profile); 4] = [
    ("L_RPC-VIP", Profile::Lossy),
    ("M_RPC-IP", Profile::Chaotic),
    ("SUNRPC-UDP", Profile::Bursty),
    ("PSYNC", Profile::Jittery),
];

const NOT_LOAD: &str = "a load spec takes no checker, journal, snapshot or observer set";

/// The chaos rows: the matrix, then its populations (PSYNC is two-party).
fn scenarios() -> Vec<Scenario> {
    let mut rows: Vec<Scenario> = SEED_BASES
        .iter()
        .flat_map(|&base| full_matrix(base, SEEDS_PER_CELL, 8))
        .collect();
    let populations = full_matrix(31, 2, 20).into_iter();
    let populations = populations.filter(|sc| sc.stack.name() != "PSYNC");
    rows.extend(populations.map(|sc| Scenario {
        population: 3,
        ..sc
    }));
    rows
}

fn label(sc: &Scenario) -> String {
    let (stack, profile, seed) = (sc.stack.name(), sc.profile, sc.seed);
    let label = format!("{stack}/{profile:?}/seed={seed}");
    match sc.population {
        0 | 1 => label,
        n => format!("{label}/population={n}"),
    }
}

fn is_family(sc: &Scenario) -> bool {
    sc.seed == SEED_BASES[0] && FAMILIES.contains(&(sc.stack.name(), sc.profile))
}

/// Why a population on SUNRPC-CHANNEL is not held to its invariants.
const CHANNEL_POPULATIONS: &str = "SUNRPC-CHANNEL refuses a second caller on a channel \
    with a call outstanding, so a population fails calls even fault-free (CHANGES.md)";

/// Whether the scenario's invariants hold for it.
fn held(sc: &Scenario) -> bool {
    sc.population <= 1 || sc.stack.name() != "SUNRPC-CHANNEL"
}

/// `r` held to the scenario's invariants, where they hold.
fn invariants(sc: &Scenario, r: &ChaosReport) -> Option<Cell> {
    if !held(sc) {
        return None;
    }
    let failures = sc.invariant_failures(r);
    Some(ensure(failures.is_empty(), || failures.join("; ")))
}

/// The plain run's options, as `set` changes them.
fn opts(set: impl FnOnce(&mut RunOpts)) -> RunOpts {
    let mut opts = RunOpts::default();
    set(&mut opts);
    opts
}

/// What one cell found: nothing, or what moved.
type Cell = Result<(), String>;

fn ensure(holds: bool, what: impl FnOnce() -> String) -> Cell {
    if holds {
        Ok(())
    } else {
        Err(what())
    }
}

/// A report's fields by path, read off its `{:#?}`.
fn paths(r: &impl Debug) -> Vec<(String, String)> {
    let text = format!("{r:#?}");
    let mut open: Vec<(String, usize)> = vec![(String::new(), 0)];
    let mut fields = Vec::new();
    for line in text.lines().skip(1) {
        let line = line.trim().trim_end_matches(',');
        if matches!(line, "}" | "]" | ")") {
            open.pop();
            continue;
        }
        let (at, items) = open.last_mut().expect("inside the report");
        let (path, value) = match line.split_once(": ") {
            Some((name, value)) => (format!("{at}.{name}"), value),
            None => {
                *items += 1;
                (format!("{at}[{}]", *items - 1), line)
            }
        };
        if value.ends_with(['{', '[', '(']) {
            open.push((path, 0));
        } else {
            fields.push((path[1..].to_string(), value.to_string()));
        }
    }
    fields
}

/// `got` against `want`: whole reports by `Eq`, and when they differ, each
/// field that moved (`want -> got`).
fn same<R: PartialEq + Debug>(want: &R, got: &R) -> Cell {
    if want == got {
        return Ok(());
    }
    let (w, g) = (paths(want), paths(got));
    let value = |fields: &[(String, String)], path: &str| {
        let found = fields.iter().find(|(p, _)| p == path);
        found.map_or("-".to_string(), |(_, v)| v.clone())
    };
    let added = g.iter().filter(|(p, _)| !w.iter().any(|(q, _)| q == p));
    let moved: Vec<String> = (w.iter().chain(added))
        .map(|(path, _)| (path, value(&w, path), value(&g, path)))
        .filter(|(_, was, now)| was != now)
        .map(|(path, was, now)| format!("{path}: {was} -> {now}"))
        .collect();
    Err(format!("moved {}", moved.join("; ")))
}

/// One cell's verdict, filed under its column.
enum Mark {
    Ran(&'static str, Cell),
    Na(&'static str, &'static str),
}

fn ran(column: &'static str, cell: impl FnOnce() -> Cell) -> Mark {
    Mark::Ran(column, cell())
}

#[derive(Default)]
struct Column {
    name: &'static str,
    ran: usize,
    moved: usize,
    /// The first row that moved, and what moved in it.
    first: Option<String>,
    na: BTreeMap<&'static str, usize>,
}

/// The coverage table.
#[derive(Default)]
struct Table(Vec<Column>);

impl Table {
    /// Runs `cells` on every row across [`THREADS`] threads, files the
    /// marks, and returns what each row kept for later columns.
    fn pass<T: Send>(
        &mut self,
        rows: &[Scenario],
        cells: impl Fn(usize, &Scenario) -> (Vec<Mark>, T) + Sync,
    ) -> Vec<T> {
        let done = run_indexed((0..rows.len()).collect(), THREADS, |&i| cells(i, &rows[i]));
        let mut kept = Vec::with_capacity(rows.len());
        for (sc, (marks, keep)) in rows.iter().zip(done) {
            for mark in marks {
                self.file(|| label(sc), mark);
            }
            kept.push(keep);
        }
        kept
    }

    fn file(&mut self, row: impl Fn() -> String, mark: Mark) {
        let (Mark::Ran(name, _) | Mark::Na(name, _)) = mark;
        if !self.0.iter().any(|c| c.name == name) {
            self.0.push(Column {
                name,
                ..Column::default()
            });
        }
        let column = self.0.iter_mut().find(|c| c.name == name).expect("filed");
        match mark {
            Mark::Ran(_, Ok(())) => column.ran += 1,
            Mark::Ran(_, Err(what)) => {
                column.ran += 1;
                column.moved += 1;
                let first = || format!("{} × {name}: {what}", row());
                column.first.get_or_insert_with(first);
            }
            Mark::Na(_, why) => *column.na.entry(why).or_default() += 1,
        }
    }

    /// Prints the coverage table, then fails naming the first cell that
    /// differed in each column.
    fn finish(&self, since: Instant) {
        let cells: usize = self.0.iter().map(|c| c.ran).sum();
        let rows = self.0.iter().map(|c| c.ran + c.na.values().sum::<usize>());
        let (rows, columns) = (rows.max().unwrap_or(0), self.0.len());
        let wall = since.elapsed().as_secs_f64();
        println!("run paths: {rows} rows x {columns} columns, {cells} cells run, {wall:.2} s");
        println!("column        ran  moved    n/a  n/a because");
        for c in &self.0 {
            let na: usize = c.na.values().sum();
            let why: Vec<String> = c.na.iter().map(|(why, n)| format!("{n}: {why}")).collect();
            let (name, ran, moved, why) = (c.name, c.ran, c.moved, why.join("; "));
            println!("{name:<10} {ran:>6} {moved:>6} {na:>6}  {why}");
        }
        let moved: usize = self.0.iter().map(|c| c.moved).sum();
        let firsts: Vec<&str> = self.0.iter().flat_map(|c| c.first.as_deref()).collect();
        let firsts = firsts.join("\n");
        assert!(
            moved == 0,
            "{moved} of {cells} cells differ; the first in each column:\n{firsts}"
        );
    }
}

/// The fresh, invariants and fork columns: each row's fresh report and its
/// first fork's.
fn fresh_and_fork(table: &mut Table, rows: &[Scenario]) -> Vec<(ChaosReport, ChaosReport)> {
    table.pass(rows, |i, sc| {
        let fresh = || sc.run_with(opts(|o| o.fuel = Some(u64::MAX))).report;
        // Both orders: neither path may leave anything on the thread that
        // the other picks up.
        let (fresh, (a, b)) = if i % 2 == 0 {
            let fork = (sc.run(), sc.run());
            (fresh(), fork)
        } else {
            (fresh(), (sc.run(), sc.run()))
        };
        let untraced = fresh.run.breakdown.is_empty();
        let marks = vec![
            ran("fresh", || {
                ensure(untraced, || "an untraced run filled the ledger".into())
            }),
            match invariants(sc, &fresh) {
                Some(held) => Mark::Ran("invariants", held),
                None => Mark::Na("invariants", CHANNEL_POPULATIONS),
            },
            ran("fork", || same(&fresh, &a).and(same(&a, &b))),
        ];
        (marks, (fresh, a))
    })
}

/// The traced, checked, journaled, replay, snapshot and observers columns.
/// A subset of observers reports what the traced column reports if it traces
/// and what the fresh run reports if not, and journals the journaled
/// column's journal if it journals.
fn other_paths(table: &mut Table, rows: &[Scenario], fresh: &[ChaosReport]) {
    table.pass(rows, |i, sc| {
        let fresh = &fresh[i];
        let run = |opts| sc.run_with(opts);
        let mut traced = run(opts(|o| o.trace = true)).report;
        let ledger = std::mem::take(&mut traced.run.breakdown);
        let mut marks = vec![ran("traced", || {
            ensure(!ledger.is_empty(), || "the ledger is empty".into())?;
            same(fresh, &traced)
        })];
        traced.run.breakdown = ledger;
        marks.push(ran("checked", || {
            let out = run(opts(|o| o.check = true));
            let check = out.sim.check_report();
            ensure(check.enabled && check.lps > 0, || "nothing checked".into())?;
            let repros: Vec<String> = check.violations.iter().map(|v| out.sim.repro(v)).collect();
            ensure(repros.is_empty(), || format!("violations: {repros:?}"))?;
            same(fresh, &out.report)
        }));
        let journaled = |replay: Option<&Journal>| {
            let out = run(opts(|o| {
                o.journal = true;
                o.chooser = replay.map(|j| Box::new(j.chooser()) as _);
            }));
            (out.report, out.journal.expect("journaling was on"))
        };
        let (report, journal) = journaled(None);
        marks.push(ran("journaled", || {
            let stamped = journal.matches(fresh.run.sched_hash);
            ensure(stamped, || {
                "the journal's fingerprint is not the run's".into()
            })?;
            same(fresh, &report)
        }));
        marks.push(ran("replay", || {
            let (report, again) = journaled(Some(&journal));
            let (was, now) = (journal.tie_picks().len(), again.tie_picks().len());
            ensure(again.records == journal.records, || {
                format!("re-recorded another stream: {was} tie picks -> {now}")
            })?;
            same(fresh, &report)
        }));
        marks.push(ran("snapshot", || {
            let split = run(opts(|o| o.snapshot_at = Some(sc.calls / 2)));
            let split = split.replayed.expect("snapshot_at was set");
            ensure(split.snapshot_at > 0, || "snapshot at t=0".into())?;
            invariants(sc, &split.first).unwrap_or(Ok(()))?;
            same(&split.first, &split.replayed)
        }));
        if !is_family(sc) {
            let why = "the subsets run on one row of each stack family";
            marks.push(Mark::Na("observers", why));
            return (marks, ());
        }
        let lan = &fresh.lan;
        let faulted = lan.dropped + lan.duplicated + lan.corrupted > 0;
        marks.push(ran("observers", || {
            for subset in 0..16u8 {
                let [trace, check, journaling, recording] = [1, 2, 4, 8].map(|b| subset & b != 0);
                let out = run(opts(|o| {
                    (o.trace, o.check, o.journal) = (trace, check, journaling);
                    if recording {
                        o.record_faults = FaultRecording::On {
                            suppress_from: None,
                        };
                    }
                }));
                let subset = format!("subset {subset:#06b}");
                let want = if trace { &traced } else { fresh };
                same(want, &out.report).map_err(|m| format!("{subset}: {m}"))?;
                let found = out.sim.check_report();
                let checked = found.enabled == check && found.violations.is_empty();
                ensure(checked, || format!("{subset}: checker {found:?}"))?;
                let journal = out.journal.as_ref() == journaling.then_some(&journal);
                ensure(journal, || {
                    format!("{subset}: not the journaled column's journal")
                })?;
                let timeline = out.faults.is_empty() != (recording && faulted);
                ensure(timeline, || format!("{subset}: fault timeline"))?;
            }
            Ok(())
        }));
        (marks, ())
    });
}

/// The 1 worker column's runs: `run_matrix` over every chaos row on one
/// thread. `checked` asserts each row's invariants as it completes, so the
/// SUNRPC-CHANNEL populations, last in the list, run unchecked.
fn one_worker(rows: &[Scenario]) -> Vec<ChaosReport> {
    let checked = rows.iter().filter(|sc| held(sc)).count();
    let mut reports = run_matrix(rows[..checked].to_vec(), 1, true);
    reports.extend(run_matrix(rows[checked..].to_vec(), 1, false));
    reports
}

/// The load rows: a drop-policy pool of one under open-loop pressure sheds
/// requests, so clients retransmit and the RTO knobs show; and a closed loop
/// on a CHANNEL stack, which owns the same knobs, on the quiet wire. Each
/// with the policy point its fork column sweeps beside the baseline. Each
/// row's label comes with its marks.
fn loads() -> Vec<(String, Vec<Mark>)> {
    let sunrpc = LoadSpec {
        stack: LoadStack::SunRpcUdp,
        topo: Topology::Segment { hosts: 2 },
        gen: GenMode::Open { rate_cps: 2_000 },
        duration_ns: 200_000_000,
        payload: 64,
        seed: 7,
        shepherds: 1,
        pending: 1,
        reject: false,
        trace: false,
    };
    let channel = LoadSpec {
        stack: LoadStack::Paper(xrpc::stacks::L_RPC_VIP),
        gen: GenMode::Closed {
            clients: 4,
            think_ns: 1_000_000,
        },
        duration_ns: 100_000_000,
        seed: 5,
        shepherds: 0,
        pending: 0,
        ..sunrpc
    };
    let policy = |timeout_ns, backoff| PolicyPoint {
        timeout_ns: Some(timeout_ns),
        backoff,
    };
    let rows = [
        (sunrpc, policy(10_000_000, Some(2))),
        (channel, policy(400_000_000, None)),
    ];
    let rows = rows.into_iter().map(|(spec, point)| {
        let fresh = spec.run();
        let fork = ran("fork", || {
            let sweep = fork_sweep(&spec, &[point, PolicyPoint::baseline(), point]);
            let warm = sweep.warmed_at > 0 && fresh.completed > 0;
            ensure(warm, || "no warm-up, or no call completed".into())?;
            let [a, base, b] = [0, 1, 2].map(|i| &sweep.branches[i].report);
            same(&fresh, base).and(same(a, b))
        });
        let traced = ran("traced", || {
            let mut traced = LoadSpec {
                trace: true,
                ..spec
            }
            .run();
            let ledger = std::mem::take(&mut traced.run.breakdown);
            ensure(!ledger.is_empty(), || "the ledger is empty".into())?;
            same(&fresh, &traced)
        });
        let (stack, gen, seed) = (spec.stack.name(), spec.gen.label(), spec.seed);
        let row = format!("xload {stack}/{gen}/seed={seed}");
        let mut marks = vec![Mark::Ran("fresh", Ok(())), fork, traced];
        marks.push(Mark::Na("invariants", "a load run checks its own"));
        for column in ["checked", "journaled", "replay", "snapshot", "observers"] {
            marks.push(Mark::Na(column, NOT_LOAD));
        }
        marks.push(Mark::Na("1 worker", "run_matrix runs chaos scenarios"));
        (row, marks)
    });
    rows.collect()
}

#[test]
fn every_run_path_reports_what_a_fresh_rig_reports() {
    let since = Instant::now();
    let rows = scenarios();
    assert_eq!(rows.len(), 5_375 + 82);
    let mut table = Table::default();
    // The one-thread runs and the pin checks are serial: they run beside
    // the two-thread passes.
    std::thread::scope(|s| {
        let one = s.spawn(|| (one_worker(&rows), loads()));
        let (fresh, forks): (Vec<_>, Vec<_>) =
            fresh_and_fork(&mut table, &rows).into_iter().unzip();
        let pins = s.spawn(move || {
            let (matrix, populations) = forks.split_at(5_375);
            let pins = include_str!("pins/template_matrix.txt");
            check_pins("template_matrix.txt", matrix, pins, 0x2a12_9565_8ad3_3661);
            let pins = include_str!("pins/template_populations.txt");
            check_pins(
                "template_populations.txt",
                populations,
                pins,
                0x7fc5_1fe7_94bb_2b6b,
            );
        });
        other_paths(&mut table, &rows, &fresh);
        let (one, loads) = joined(one);
        for ((sc, fresh), got) in rows.iter().zip(&fresh).zip(one) {
            table.file(|| label(sc), ran("1 worker", || same(fresh, &got)));
        }
        for (row, marks) in loads {
            for mark in marks {
                table.file(|| row.clone(), mark);
            }
        }
        table.finish(since);
        joined(pins);
    });
}

/// What a helper thread returned, or its panic, passed on.
fn joined<T>(thread: std::thread::ScopedJoinHandle<T>) -> T {
    thread
        .join()
        .unwrap_or_else(|e| std::panic::resume_unwind(e))
}

/// The matrix is not vacuous: a planted column that runs its row under the
/// next seed fails, naming the row, the column and each field that moved.
#[test]
#[should_panic(expected = "M_RPC-ETH/FaultFree/seed=0 × seed+1: moved \
    label: \"M_RPC-ETH/FaultFree/seed=0\" -> \"M_RPC-ETH/FaultFree/seed=1\"; \
    run.ended_at: ")]
fn a_planted_column_fails_naming_its_row_column_and_fields() {
    let since = Instant::now();
    let rows = [full_matrix(0, 1, 8)[0]];
    let mut table = Table::default();
    let (fresh, _): (Vec<_>, Vec<_>) = fresh_and_fork(&mut table, &rows).into_iter().unzip();
    table.pass(&rows, |i, sc| {
        let next = Scenario {
            seed: sc.seed + 1,
            ..*sc
        };
        (vec![ran("seed+1", || same(&fresh[i], &next.run()))], ())
    });
    table.finish(since);
}

/// FNV-1a over what a report held before `timed_out` was split out of
/// `failed`: the fields the pre-template digests were taken over.
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

/// The numbers [`fold`] reads, by name as the pin lists name them: a run's
/// without `run.`, each host's as `h0.`, `h1.`.
fn fields(r: &ChaosReport) -> Vec<(String, u64)> {
    let numeric = paths(r).into_iter();
    let numeric = numeric.filter(|(path, _)| path != "timed_out");
    let numeric = numeric.filter_map(|(path, v)| Some((path, v.parse::<u64>().ok()?)));
    let named = numeric.map(|(path, v)| {
        let path = path.trim_start_matches("run.");
        let path = match path.strip_prefix("hosts[") {
            Some(host) => format!("h{}", host.replacen("].", ".", 1)),
            None => path.to_string(),
        };
        (path, v)
    });
    named.collect()
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
/// moved (pinned -> now), and counts the rows each field moved in. The new
/// list is written to the test's target directory, so a justified re-pin is
/// one copy.
fn check_pins(name: &str, reports: &[ChaosReport], pinned: &str, digest: u64) {
    let list = render(reports);
    let (now, was) = (parse(&list), parse(pinned));
    let mut first = None;
    let mut moved_in: BTreeMap<&str, usize> = BTreeMap::new();
    let mut rows_moved = 0;
    for (at, (n, w)) in now.iter().zip(&was).enumerate() {
        let names: BTreeSet<&str> = n.keys().chain(w.keys()).copied().collect();
        let moved = names.into_iter().filter(|f| get(w, f) != get(n, f));
        let moved: Vec<String> = moved
            .map(|f| {
                *moved_in.entry(f).or_default() += 1;
                format!("{f}: {} -> {}", get(w, f), get(n, f))
            })
            .collect();
        if !moved.is_empty() {
            rows_moved += 1;
            let label = &reports[at].label;
            first.get_or_insert_with(|| format!("{label}:\n    {}", moved.join("\n    ")));
        }
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
