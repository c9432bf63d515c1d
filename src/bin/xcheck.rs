//! `xcheck` — bounded schedule exploration for the x-kernel simulator.
//!
//! Runs the concurrency toys under the dynamic checker, either
//! exhaustively enumerating every forced-choice interleaving (small
//! scenarios) or random-walking the schedule space with seeded choosers.
//! Prints every violation with its replayable repro string, then one
//! machine-readable `xcheck-v1` summary line per scenario.
//!
//! ```text
//! xcheck [OPTIONS] [--toy NAME]...
//!
//!   --toy NAME   scenario to explore: handshake, deadlock, crosshost
//!                (repeatable; default: all three)
//!   --walk       random-walk instead of exhaustive DFS
//!   --limit N    max schedules to enumerate exhaustively (default 10000)
//!   --walks N    walks per scenario in --walk mode (default 8)
//!   --seed N     simulation seed (default 42)
//!   --quiet      print summary lines only
//! ```
//!
//! Exit status: 0 (report-only; violations are findings, not failures),
//! 2 on usage errors. CI greps the summary lines and the violation kinds.

use std::process::ExitCode;

use xcheck::explore::{explore, WalkChooser};
use xcheck::summary::Summary;
use xcheck::toys::{self, ToyOutcome};
use xkernel::sim::ScheduleChooser;

const TOYS: [&str; 3] = ["handshake", "deadlock", "crosshost"];

struct Options {
    toys: Vec<String>,
    walk: bool,
    limit: usize,
    walks: usize,
    seed: u64,
    quiet: bool,
}

fn usage() -> &'static str {
    "usage: xcheck [--toy handshake|deadlock|crosshost]... [--walk]\n\
     \x20             [--limit N] [--walks N] [--seed N] [--quiet]"
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        toys: Vec::new(),
        walk: false,
        limit: 10_000,
        walks: 8,
        seed: 42,
        quiet: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--walk" => opts.walk = true,
            "--quiet" | "-q" => opts.quiet = true,
            "--help" | "-h" => return Err(String::new()),
            "--toy" => {
                let name = it.next().ok_or("--toy needs a scenario name")?;
                if !TOYS.contains(&name.as_str()) {
                    return Err(format!("unknown toy '{name}' (want one of {TOYS:?})"));
                }
                opts.toys.push(name.clone());
            }
            "--limit" => {
                let n = it.next().ok_or("--limit needs a number")?;
                opts.limit = n.parse().map_err(|_| format!("bad --limit '{n}'"))?;
            }
            "--walks" => {
                let n = it.next().ok_or("--walks needs a number")?;
                opts.walks = n.parse().map_err(|_| format!("bad --walks '{n}'"))?;
            }
            "--seed" => {
                let n = it.next().ok_or("--seed needs a number")?;
                opts.seed = n.parse().map_err(|_| format!("bad --seed '{n}'"))?;
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    if opts.toys.is_empty() {
        opts.toys = TOYS.iter().map(|s| s.to_string()).collect();
    }
    Ok(opts)
}

fn run_toy(name: &str, seed: u64, chooser: Option<Box<dyn ScheduleChooser>>) -> ToyOutcome {
    match name {
        "handshake" => toys::run_handshake(seed, chooser),
        "deadlock" => toys::run_deadlock_spec(seed, chooser),
        "crosshost" => toys::run_crosshost(seed, chooser),
        _ => unreachable!("toy names validated at parse time"),
    }
}

/// Explores one scenario and prints its findings; returns the summary.
fn explore_toy(name: &str, opts: &Options) -> Summary {
    let (outcomes, complete, mode) = if opts.walk {
        let outs: Vec<ToyOutcome> = (0..opts.walks)
            .map(|w| {
                let walk_seed = opts
                    .seed
                    .wrapping_add(w as u64)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15);
                run_toy(name, opts.seed, Some(Box::new(WalkChooser::new(walk_seed))))
            })
            .collect();
        (outs, false, "walk")
    } else {
        let ex = explore(opts.limit, |ch| run_toy(name, opts.seed, Some(ch)));
        (ex.outcomes, ex.complete, "exhaustive")
    };
    let mut hashes = std::collections::HashSet::new();
    let mut violations = 0;
    for out in &outcomes {
        hashes.insert(out.sched_hash);
        violations += out.check.violations.len();
        if !opts.quiet {
            for (v, repro) in out.check.violations.iter().zip(&out.repros) {
                println!("{name}: {v}");
                println!("{name}:   repro: {repro}");
            }
        }
    }
    Summary {
        scenario: name.to_string(),
        mode: mode.to_string(),
        schedules: outcomes.len(),
        complete,
        distinct_hashes: hashes.len(),
        violations,
        invariant_failures: 0,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            if msg.is_empty() {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("xcheck: {msg}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    for name in &opts.toys {
        println!("{}", explore_toy(name, &opts).to_json());
    }
    ExitCode::SUCCESS
}
