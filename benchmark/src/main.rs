//! `xkbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]`
//! runs one workload and prints its metrics, the result line last.
//! `xkbench --manifest` prints `BENCHMARK.json`.

use std::process::ExitCode;

use xkbench::alloc::CountingAlloc;
use xkbench::catalog;
use xkbench::run::{self, Args};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str =
    "usage: xkbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--quick]
       xkbench --manifest";

fn parse() -> Result<Option<Args>, String> {
    let mut workload = String::new();
    let mut args = Args {
        workload: "",
        seed: 1,
        seconds: catalog::RUN_SECONDS,
        trace: false,
        quick: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--manifest" => return Ok(None),
            "--quick" => args.quick = true,
            "--workload" => workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let names = catalog::WORKLOADS.map(|w| w.0);
    args.workload = names
        .into_iter()
        .find(|name| *name == workload)
        .ok_or_else(|| format!("--workload must be one of {}", names.join(", ")))?;
    if !(1..=60).contains(&args.seconds) {
        return Err("--seconds must be 1 to 60".to_string());
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", catalog::manifest().pretty());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("xkbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        run::per_layer(&args).and_then(|(outcome, tracer)| {
            let path = run::write_trace(args.workload, &tracer)?;
            eprintln!("xkbench: {} spans written to {path}", tracer.spans().len());
            Ok(outcome)
        })
    } else {
        run::end_to_end(&args)
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("xkbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    let line = outcome.result_line(args.trace);
    let kind = if args.trace { "layer" } else { "e2e" };
    for (name, value) in &outcome.metrics {
        let unit = catalog::unit_of(name).expect("a catalogued metric");
        println!("{kind} {} {name} {value} {unit}", args.workload);
    }
    println!(
        "calls {} attempted {} failed {}",
        args.workload, outcome.attempted, outcome.failed
    );
    println!("{line}");
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
