//! `xbench <subcommand> [flags]` — every table, figure and report of the
//! reproduction from one binary (see [`xbench::cli::USAGE`]).
//!
//! Exit status: 0 on success, 1 when a report cannot be written, 2 on a
//! usage error.

#![warn(clippy::disallowed_types)]

use std::process::ExitCode;

use xbench::cli::{self, Command, USAGE};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match cli::parse(&args) {
        Ok(Command::Table(print)) => {
            print();
            Ok(())
        }
        Ok(Command::Xload(opts)) => xbench::load::run(&opts),
        Ok(Command::Xprof(opts)) => xbench::prof::run(&opts),
        Ok(Command::Help) => {
            println!("{USAGE}");
            Ok(())
        }
        Err(msg) => {
            eprintln!("xbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("xbench: {msg}");
            ExitCode::FAILURE
        }
    }
}
