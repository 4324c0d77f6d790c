//! The `pbit` command-line entry point. Parsing and every command live in
//! `phonebit_cli::dispatch` so they can be unit-tested; this file prints
//! what it returns.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match phonebit_cli::dispatch(&args) {
        Ok(text) => {
            println!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
