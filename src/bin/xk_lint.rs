//! `xk-lint` — static protocol-graph verifier for the x-kernel stack.
//!
//! Lints protocol-graph specs (the text DSL consumed by
//! `ProtocolRegistry::build`) without running the simulator, reporting
//! structured diagnostics: rule id, severity, line, and a fix hint.
//!
//! ```text
//! xk-lint [OPTIONS] [SPEC_FILE...]
//!
//!   --builtin             lint every checked-in paper stack
//!   --extern NAME[:KIND]  declare a pre-existing instance (default kind:
//!                         device); repeatable. KIND is one of device,
//!                         hardware, internet, transport, rpc, resolver.
//!   --allow RULES         comma-separated rule ids to suppress (XK008,...)
//!   --xcheck              report only the concurrency-verifier rules
//!                         (XK010-XK015: semaphore discipline, blocking
//!                         points, lock order)
//!   --warn-as-error       non-zero exit on warnings too
//!   --quiet               print errors only
//!   -                     read a spec from stdin
//! ```
//!
//! Exit status: 0 clean, 1 findings at the failing severity, 2 usage error.
//! The rule catalogue is `xkernel::lint::RULES`.

use std::collections::HashMap;
use std::io::Read;
use std::process::ExitCode;

use xkernel::lint::{Diagnostic, LintOptions, ProtoContract, Severity, RULES};
use xkernel_repro::{default_externals, full_registry, parse_addr_kind};

struct Options {
    builtin: bool,
    warn_as_error: bool,
    quiet: bool,
    lint: LintOptions,
    externals: HashMap<String, ProtoContract>,
    inputs: Vec<String>,
}

fn usage() -> &'static str {
    "usage: xk-lint [--builtin] [--extern NAME[:KIND]]... [--allow RULES]\n\
     \x20              [--xcheck] [--warn-as-error] [--quiet] [SPEC_FILE | -]..."
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        builtin: false,
        warn_as_error: false,
        quiet: false,
        lint: LintOptions::default(),
        externals: default_externals(),
        inputs: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--builtin" => opts.builtin = true,
            "--xcheck" => opts
                .lint
                .allow
                .extend(RULES.iter().filter(|r| !r.xcheck).map(|r| r.id.to_string())),
            "--warn-as-error" => opts.warn_as_error = true,
            "--quiet" | "-q" => opts.quiet = true,
            "--help" | "-h" => return Err(String::new()),
            "--allow" => {
                let list = it.next().ok_or("--allow needs a rule list")?;
                for rule in list.split(',').filter(|r| !r.is_empty()) {
                    opts.lint.allow.insert(rule.trim().to_string());
                }
            }
            "--extern" => {
                let decl = it.next().ok_or("--extern needs NAME[:KIND]")?;
                let (name, kind) = match decl.split_once(':') {
                    None => (decl.as_str(), "device"),
                    Some((n, k)) => (n, k),
                };
                let kind = parse_addr_kind(kind)
                    .ok_or_else(|| format!("unknown address kind '{kind}'"))?;
                opts.externals
                    .insert(name.to_string(), ProtoContract::new(name, kind));
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown option '{other}'"));
            }
            other => opts.inputs.push(other.to_string()),
        }
    }
    if !opts.builtin && opts.inputs.is_empty() {
        return Err("no spec files given (or use --builtin)".to_string());
    }
    Ok(opts)
}

/// Prints `diags` for the spec `label`; returns (warnings, errors) counts.
fn report(label: &str, diags: &[Diagnostic], quiet: bool) -> (usize, usize) {
    let (mut warnings, mut errors) = (0, 0);
    for d in diags {
        match d.severity {
            Severity::Warning => warnings += 1,
            Severity::Error => errors += 1,
        }
        if !quiet || d.severity == Severity::Error {
            println!("{label}: {d}");
        }
    }
    (warnings, errors)
}

fn run(opts: &Options) -> Result<(usize, usize, usize), String> {
    let reg = full_registry();
    let (mut specs, mut warnings, mut errors) = (0, 0, 0);
    let mut lint_one = |label: &str, spec: &str| {
        specs += 1;
        let diags = reg.lint(spec, &opts.externals, &opts.lint);
        let (w, e) = report(label, &diags, opts.quiet);
        warnings += w;
        errors += e;
    };
    if opts.builtin {
        for (name, spec) in xkernel_repro::builtin_specs() {
            lint_one(&name, &spec);
        }
    }
    for path in &opts.inputs {
        let spec = if path == "-" {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| format!("stdin: {e}"))?;
            buf
        } else {
            std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?
        };
        lint_one(path, &spec);
    }
    Ok((specs, warnings, errors))
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
            eprintln!("xk-lint: {msg}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok((specs, warnings, errors)) => {
            if !opts.quiet {
                println!("xk-lint: {specs} spec(s), {errors} error(s), {warnings} warning(s)");
            }
            if errors > 0 || (opts.warn_as_error && warnings > 0) {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(msg) => {
            eprintln!("xk-lint: {msg}");
            ExitCode::from(2)
        }
    }
}
