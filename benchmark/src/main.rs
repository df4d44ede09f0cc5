//! `flowcube-benchmark`: one invocation runs one named workload from one
//! seed, checks that the product's answers are correct, and prints every
//! metric by name with its unit. See README.md.
//!
//! ```text
//! flowcube-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! flowcube-benchmark describe            # BENCHMARK.json, from the tables
//! flowcube-benchmark prepare ...         # set-up child, spawned by a run
//! ```

mod client;
mod data;
mod load;
mod metrics;
mod prepare;
mod serving;
mod targets;
mod trace;
mod util;
mod workloads;

use data::Workload;
use metrics::Report;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// `BENCHMARK.json`'s `run_seconds`, and the default of `--seconds`.
const RUN_SECONDS: u64 = 25;
const DEFAULT_SEED: u64 = 42;

struct Args {
    subcommand: Option<String>,
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    traced: bool,
    dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        subcommand: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        traced: false,
        dir: None,
    };
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().is_some_and(|a| !a.starts_with("--")) {
        args.subcommand = argv.next();
    }
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.traced = number()? != 0,
            "--dir" => args.dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// `benchmark/out` under the checkout root the command is run from —
/// the only place a run writes to.
fn out_dir() -> Result<PathBuf, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("benchmark/Cargo.toml").is_file() {
        return Err("run from the root of the checkout (benchmark/Cargo.toml not found)".into());
    }
    Ok(root.join("benchmark/out"))
}

fn write_trace(out: &Path, name: &str, workload: Workload) {
    let path = out.join(format!("{}.{name}.json", workload.name()));
    if let Err(e) = trace::write(&path, workload.name()) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    trace::init();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("usage error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.subcommand.as_deref() == Some("describe") {
        print!("{}", metrics::describe(RUN_SECONDS));
        return ExitCode::SUCCESS;
    }
    let Some(workload) = args.workload else {
        eprintln!("usage error: --workload <name> is required");
        return ExitCode::from(2);
    };
    trace::set_on(args.traced);
    let out = match out_dir() {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(3);
        }
    };

    if args.subcommand.as_deref() == Some("prepare") {
        let Some(dir) = args.dir else {
            eprintln!("usage error: prepare needs --dir");
            return ExitCode::from(2);
        };
        let prepared = prepare::run(workload, args.seed, &dir, args.traced);
        if let Err(e) = prepared.save(&dir) {
            eprintln!("error: saving set-up: {e}");
            return ExitCode::from(3);
        }
        if args.traced {
            write_trace(&out, "setup.trace", workload);
        }
        return ExitCode::SUCCESS;
    }
    if let Some(other) = args.subcommand {
        eprintln!("usage error: unknown subcommand {other}");
        return ExitCode::from(2);
    }

    let dir = out.join(format!("{}-{}", workload.name(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: {}: {e}", dir.display());
        return ExitCode::from(3);
    }
    let run = workloads::Run {
        workload,
        seed: args.seed,
        window: Duration::from_secs(args.seconds),
        traced: args.traced,
        dir: dir.clone(),
    };
    let mut report = Report::default();
    let outcome = run.execute(&mut report);
    let _ = std::fs::remove_dir_all(&dir);
    if args.traced {
        write_trace(&out, "trace", workload);
    }
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        return ExitCode::from(3);
    }

    // A failed operation is a wrong answer: every workload is built so
    // that none fails.
    if report.failed > 0 {
        report.violations.push(format!(
            "{} of {} operations failed",
            report.failed, report.attempted
        ));
    }
    println!(
        "workload {} seed {} window {} s trace {} ({} cores)",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.traced),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    print!("{}", metrics::human_table(&report));
    println!("ops {} failed_ops {}", report.attempted, report.failed);
    for violation in &report.violations {
        println!("VIOLATION: {violation}");
    }
    for metric in metrics::END_TO_END {
        if report.get(metric.name) <= 0.0 {
            eprintln!("error: end-to-end metric {} was not measured", metric.name);
            return ExitCode::from(3);
        }
    }
    println!("{}", metrics::result_line(&report, args.traced));
    if report.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
