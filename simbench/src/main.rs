//! `simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! With `--trace 0`, times untraced runs and prints the end-to-end
//! metrics; with `--trace 1`, the per-layer metrics of a traced run. The
//! last line of standard output is the JSON result. The exit code is
//! nonzero when any run fails a check.

use std::process::ExitCode;

use simbench::measure;
use simbench::report::{end_to_end, per_layer};
use simbench::{host, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed {value:?}: expected an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds {value:?}: expected seconds >= 0"))?;
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!("simbench: {e}");
            eprintln!(
                "usage: simbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let sim_secs = w.sim_secs();
    println!("{}", host::fingerprint());
    println!(
        "workload: {} seed={} simulated_s={sim_secs} domains={} trace={}",
        w.name(),
        args.seed,
        w.domains(),
        u8::from(args.trace)
    );
    let (report, catalogue) = if args.trace {
        let r = measure::traced(w, args.seed, args.seconds, sim_secs);
        (r, per_layer())
    } else {
        let r = measure::untraced(w, args.seed, args.seconds, sim_secs);
        (r, end_to_end())
    };
    for note in &report.notes {
        println!("{note}");
    }
    for (name, unit, value) in report.metrics(&catalogue) {
        println!("metric: {name} = {value} {unit}");
    }
    println!("{}", report.result_line(&catalogue));
    if report.failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
