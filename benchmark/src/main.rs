//! `payment_path`: the repository's end-to-end benchmark. See `README.md`.
//!
//! ```text
//! payment_path --workload <name> [--seed n] [--seconds s] [--trace 0|1] [--smoke] [--out dir]
//! payment_path [--traced] [--smoke] ...      every workload, one process each
//! payment_path --compare <dir> <dir>         two full runs against the bounds
//! ```

mod harness;
mod json;
mod layers;
mod observed;
mod procfs;
mod report;
mod spec;
mod stats;
mod stream;
mod sut;
mod trace;

use report::Options;
use spec::Workload;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

struct Cli {
    workload: Option<Workload>,
    compare: Option<(PathBuf, PathBuf)>,
    opts: Options,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        compare: None,
        opts: Options {
            seed: 1,
            seconds: spec::RUN_SECONDS,
            traced: false,
            smoke: false,
            out: PathBuf::from("benchmark/out"),
        },
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let known = Workload::ALL.map(Workload::name).join(", ");
                cli.workload = Some(
                    Workload::parse(name)
                        .ok_or(format!("unknown workload {name}; one of {known}"))?,
                );
            }
            "--seed" => {
                cli.opts.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.opts.seconds =
                    value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                cli.opts.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--traced" => cli.opts.traced = true,
            "--smoke" => cli.opts.smoke = true,
            "--out" => cli.opts.out = PathBuf::from(value("a directory")?),
            "--compare" => {
                cli.compare = Some((
                    PathBuf::from(value("two directories")?),
                    PathBuf::from(value("two directories")?),
                ));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// Every workload in a process of its own, so that `rss_peak_mb` is the
/// workload's and a wedged cluster cannot take the others with it.
fn run_all(opts: &Options) -> bool {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return false;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&opts.out);
        if opts.smoke {
            cmd.arg("--smoke");
        }
        // `status` waits for the child to end.
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                println!("{} FAILED ({status})", w.name());
                ok = false;
            }
            Err(e) => {
                println!("{} did not start: {e}", w.name());
                ok = false;
            }
        }
        println!();
    }
    if !opts.traced {
        report::summarize(&opts.out);
    }
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("payment_path: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match (&cli.compare, cli.workload) {
        (Some((first, second)), _) => report::compare(first, second),
        (None, Some(workload)) => report::run(workload, &cli.opts),
        (None, None) => run_all(&cli.opts),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
