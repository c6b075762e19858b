//! The repository benchmark. See `benchmark/README.md`.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one result line
//! benchmark run [--seed N] [--seconds S] [--workload W]… [--smoke] [--trace FILE] [--out FILE]
//! benchmark compare A.json B.json
//! ```

mod calib;
mod compare;
mod json;
mod machine;
mod metrics;
mod runner;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;

const USAGE: &str = "usage:
  benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke] [--trace-file FILE]
  benchmark run [--seed N] [--seconds S] [--workload W]... [--smoke] [--trace FILE] [--out FILE]
  benchmark compare A.json B.json";

/// Flags shared by the single-workload mode and `run`.
#[derive(Debug, Default)]
struct Flags {
    workloads: Vec<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<String>,
    trace_file: Option<PathBuf>,
    out: Option<PathBuf>,
    smoke: bool,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--workload" => flags.workloads.push(value()?),
            "--seed" => {
                flags.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?);
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                flags.seconds = Some(s);
            }
            "--trace" => flags.trace = Some(value()?),
            "--trace-file" => flags.trace_file = Some(value()?.into()),
            "--out" => flags.out = Some(value()?.into()),
            "--smoke" => flags.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(flags)
}

/// The options of the single-workload mode.
fn single(flags: Flags) -> Result<runner::Opts, String> {
    let [workload] = <[String; 1]>::try_from(flags.workloads)
        .map_err(|_| "exactly one --workload is needed".to_string())?;
    let trace = match flags.trace.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, got '{other}'")),
    };
    Ok(runner::Opts {
        workload,
        seed: flags.seed.unwrap_or(1),
        seconds: flags.seconds.unwrap_or(10.0),
        trace,
        smoke: flags.smoke,
        trace_file: flags.trace_file,
    })
}

/// Parse the command line into the command to run; `Err` is a usage error.
fn command(args: &[String]) -> Result<Box<dyn FnOnce() -> Result<i32, String>>, String> {
    match args.first().map(String::as_str) {
        Some("run") => {
            let flags = parse_flags(&args[1..])?;
            let opts = suite::SuiteOpts {
                workloads: flags.workloads,
                seed: flags.seed.unwrap_or(1),
                seconds: flags.seconds.unwrap_or(10.0),
                smoke: flags.smoke,
                trace: flags.trace.map(PathBuf::from),
                out: flags.out,
            };
            Ok(Box::new(move || suite::run(&opts)))
        }
        Some("compare") => match &args[1..] {
            [a, b] => {
                let (a, b) = (PathBuf::from(a), PathBuf::from(b));
                Ok(Box::new(move || compare::run(&a, &b)))
            }
            _ => Err("compare takes exactly two result files".into()),
        },
        Some(_) => {
            let opts = single(parse_flags(args)?)?;
            Ok(Box::new(move || Ok(runner::run(&opts))))
        }
        None => Err("no arguments".into()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match command(&args) {
        Err(usage_error) => {
            eprintln!("benchmark: {usage_error}\n{USAGE}");
            2
        }
        Ok(run) => run().unwrap_or_else(|e| {
            eprintln!("benchmark: {e}");
            2
        }),
    };
    std::process::exit(code);
}
