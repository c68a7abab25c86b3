//! Benchmark entry point.
//!
//! ```text
//! spmvbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every metric with its unit, writes the full result document to
//! `out/<workload>-seed<n>-trace<t>.json` in the package directory, and
//! ends its standard output with a one-line JSON summary. Exits 1 when any
//! operation or correctness check failed, 2 on bad arguments.

use spmvbench::{run, Args, Size, NAMES};
use std::process::ExitCode;

fn parse(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got `{other}`")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            NAMES.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size: Size::Full,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let report = match parse(&argv).and_then(|args| run(&args)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("spmvbench: {e}");
            return ExitCode::from(2);
        }
    };
    for m in &report.metrics {
        println!("{:<40} {:>16.9e} {}", m.name, m.value, m.unit);
    }
    let path = spmvbench::run::package_dir().join("out").join(format!(
        "{}-seed{}-trace{}.json",
        report.workload,
        report.seed,
        u8::from(report.trace)
    ));
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, report.to_value().render() + "\n"));
    match written {
        Ok(()) => println!("result written to {}", path.display()),
        Err(e) => eprintln!("spmvbench: cannot write {}: {e}", path.display()),
    }
    println!("{}", report.summary_line());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
