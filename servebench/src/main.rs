//! End-to-end serving benchmark for the HMMM suite.
//!
//! Brings the server up as `hmmm serve --listen` does (catalog file →
//! `ModelSnapshot::build` → `QueryServer::start` → `NetServer::start` on
//! loopback) and drives it over real TCP with `NetClient`, from the same
//! process. See `README.md` for the workloads, metrics and checks.
//!
//! ```text
//! servebench --workload <skewed-closed|learn-mixed> --seed N \
//!            --seconds S --trace <0|1> [--archive-seed N]
//! servebench --selftest
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The process exits non-zero when any
//! operation failed its checks.

mod bringup;
mod check;
mod fixture;
mod run;
mod selftest;
mod traffic;
mod util;
mod verify;

use fixture::Shape;
use std::path::PathBuf;
use std::process::ExitCode;

/// The archive seed every workload uses unless told otherwise; the request
/// seed (`--seed`) varies per run.
pub const DEFAULT_ARCHIVE_SEED: u64 = 2006;

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

fn number<T: std::str::FromStr>(args: &[String], name: &str, default: Option<T>) -> Result<T, String> {
    match flag(args, name) {
        Some(text) => text.parse().map_err(|_| format!("{name}: cannot parse `{text}`")),
        None => default.ok_or_else(|| format!("{name} is required")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("gen-fixture") {
        gen_fixture(&args).map(|()| true)
    } else if args.iter().any(|a| a == "--selftest") {
        number(&args, "--archive-seed", Some(DEFAULT_ARCHIVE_SEED)).and_then(selftest::run)
    } else {
        parse_run(&args).and_then(|config| run::run(&config))
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(2)
        }
    }
}

fn gen_fixture(args: &[String]) -> Result<(), String> {
    let shape = flag(args, "--shape").and_then(|s| Shape::parse(&s)).ok_or("--shape is required")?;
    let seed = number(args, "--archive-seed", None)?;
    let out = PathBuf::from(flag(args, "--out").ok_or("--out is required")?);
    fixture::generate_to(shape, seed, &out)
}

fn parse_run(args: &[String]) -> Result<run::Config, String> {
    let name = flag(args, "--workload").ok_or("--workload is required")?;
    let workload = run::Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seconds: u64 = number(args, "--seconds", None)?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace: u8 = number(args, "--trace", Some(0))?;
    Ok(run::Config {
        workload,
        seed: number(args, "--seed", None)?,
        seconds,
        trace: match trace {
            0 => false,
            1 => true,
            _ => return Err("--trace takes 0 or 1".into()),
        },
        archive_seed: number(args, "--archive-seed", Some(DEFAULT_ARCHIVE_SEED))?,
    })
}
