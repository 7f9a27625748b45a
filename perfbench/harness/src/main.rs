//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 [--print-digests]`
//!
//! Prints record lines (prefixed `#`), one `FAIL` line per failed check,
//! and as its last line the JSON result object.

use perfbench::report::{json_str, result_line};
use perfbench::{run_workload, RunConfig, CANONICAL_SEED, HELD_OUT_SEED, WORKLOADS};
use std::process::ExitCode;

struct Args {
    workload: String,
    cfg: RunConfig,
    print_digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut print_digests = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = Some(
                    value("--seed")?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            "--print-digests" => print_digests = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        cfg: RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        },
        print_digests,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "# record {{\"workload\": {}, \"seed\": {}, \"canonical_seed\": {CANONICAL_SEED}, \
         \"held_out_seed\": {HELD_OUT_SEED}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         {}}}",
        json_str(&args.workload),
        args.cfg.seed,
        args.cfg.seconds,
        args.cfg.trace,
        perfbench::serve::load_record(),
    );
    let outcome = run_workload(&args.workload, &args.cfg).expect("workload name checked");
    for note in &outcome.notes {
        println!("# {note}");
    }
    if args.print_digests {
        for (job, digest) in &outcome.digests {
            println!("{job} {digest:016x}");
        }
    }
    for failure in &outcome.failures {
        println!("FAIL {failure}");
    }
    println!(
        "{}",
        result_line(
            outcome.failures.is_empty(),
            outcome.attempted,
            outcome.failed(),
            &outcome.metrics
        )
    );
    ExitCode::SUCCESS
}
