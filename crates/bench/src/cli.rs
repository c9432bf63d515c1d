//! `xbench`'s one argument parser: nine subcommands, one usage text, and
//! every malformed command line an `Err` the binary turns into exit 2.

use std::path::PathBuf;

use xkernel::par;

use crate::{ablations, intro, load, prof, tables};

/// What the binary prints beside any parse error, and alone for `--help`.
pub const USAGE: &str = "\
usage: xbench <table1|table2|table3|fig3|intro|ablations|sweep>
       xbench xload [--quick] [--threads N] [--out PATH]
       xbench xprof [--quick] [--out-dir DIR]
xload and xprof write under target/xbench/ unless told otherwise.";

/// Where `xload` and `xprof` write by default: a build output directory
/// that is never checked in.
const OUT_DIR: &str = "target/xbench";

/// One parsed command line.
#[derive(Debug)]
pub enum Command {
    /// One of the seven subcommands that print a table and take no flags.
    Table(fn()),
    /// `xbench xload`.
    Xload(load::Opts),
    /// `xbench xprof`.
    Xprof(prof::Opts),
    /// `-h` / `--help`.
    Help,
}

/// The value that must follow `flag`.
fn value(flags: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, String> {
    flags
        .next()
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}

/// Parses everything after the program name.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let (sub, flags) = args.split_first().ok_or("no subcommand")?;
    let mut flags = flags.iter();
    let table: fn() = match sub.as_str() {
        "-h" | "--help" => return Ok(Command::Help),
        "table1" => tables::table1,
        "table2" => tables::table2,
        "table3" => tables::table3,
        "fig3" => tables::fig3,
        "sweep" => tables::sweep,
        "intro" => intro::run,
        "ablations" => ablations::run,
        "xload" => {
            let mut opts = load::Opts {
                quick: false,
                threads: par::detect_cores(),
                out: PathBuf::from(OUT_DIR).join("BENCH_xload.json"),
            };
            while let Some(flag) = flags.next() {
                match flag.as_str() {
                    "--quick" => opts.quick = true,
                    "--threads" => {
                        let v = value(&mut flags, "--threads")?;
                        opts.threads = v
                            .parse()
                            .map_err(|_| format!("--threads needs a number, got '{v}'"))?;
                    }
                    "--out" => opts.out = PathBuf::from(value(&mut flags, "--out")?),
                    other => return Err(format!("xload: unknown argument '{other}'")),
                }
            }
            return Ok(Command::Xload(opts));
        }
        "xprof" => {
            let mut opts = prof::Opts {
                quick: false,
                out_dir: PathBuf::from(OUT_DIR),
            };
            while let Some(flag) = flags.next() {
                match flag.as_str() {
                    "--quick" => opts.quick = true,
                    "--out-dir" => opts.out_dir = PathBuf::from(value(&mut flags, "--out-dir")?),
                    other => return Err(format!("xprof: unknown argument '{other}'")),
                }
            }
            return Ok(Command::Xprof(opts));
        }
        other => return Err(format!("unknown subcommand '{other}'")),
    };
    match flags.next() {
        None => Ok(Command::Table(table)),
        Some(extra) => Err(format!("{sub} takes no arguments, got '{extra}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Command, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn every_subcommand_parses() {
        for sub in [
            "table1",
            "table2",
            "table3",
            "fig3",
            "intro",
            "ablations",
            "sweep",
        ] {
            assert!(matches!(parse_str(sub), Ok(Command::Table(_))), "{sub}");
        }
        let want = load::Opts {
            quick: true,
            threads: 3,
            out: "/tmp/x.json".into(),
        };
        let got = parse_str("xload --threads 3 --quick --out /tmp/x.json");
        assert!(
            matches!(&got, Ok(Command::Xload(o)) if *o == want),
            "{got:?}"
        );
        let want = prof::Opts {
            quick: false,
            out_dir: "/tmp/p".into(),
        };
        let got = parse_str("xprof --out-dir /tmp/p");
        assert!(
            matches!(&got, Ok(Command::Xprof(o)) if *o == want),
            "{got:?}"
        );
        assert!(matches!(parse_str("--help"), Ok(Command::Help)));
    }

    #[test]
    fn a_bare_report_run_writes_under_target() {
        let Ok(Command::Xload(load)) = parse_str("xload") else {
            panic!("xload parses");
        };
        let Ok(Command::Xprof(prof)) = parse_str("xprof --quick") else {
            panic!("xprof parses");
        };
        assert!(load.out.starts_with("target"), "{:?}", load.out);
        assert!(prof.out_dir.starts_with("target"), "{:?}", prof.out_dir);
    }

    #[test]
    fn every_malformed_form_is_an_error_not_a_panic() {
        for (line, says) in [
            ("", "no subcommand"),
            ("table9", "unknown subcommand 'table9'"),
            ("--quick", "unknown subcommand '--quick'"),
            ("table1 --quick", "table1 takes no arguments"),
            ("sweep xload", "sweep takes no arguments"),
            ("xload --threads", "--threads needs a value"),
            (
                "xload --threads many",
                "--threads needs a number, got 'many'",
            ),
            ("xload --threads -1", "--threads needs a number, got '-1'"),
            ("xload --quick --out", "--out needs a value"),
            ("xload --out-dir d", "xload: unknown argument '--out-dir'"),
            ("xprof --out-dir", "--out-dir needs a value"),
            ("xprof --threads 2", "xprof: unknown argument '--threads'"),
            ("xprof extra", "xprof: unknown argument 'extra'"),
        ] {
            match parse_str(line) {
                Err(msg) => assert!(msg.contains(says), "'{line}': {msg}"),
                Ok(cmd) => panic!("'{line}' parsed as {cmd:?}"),
            }
        }
    }
}
