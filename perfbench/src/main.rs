//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! (`perfbench --probe` runs one host-speed probe and prints its
//! seconds; the benchmark starts it as a child process.)
//!
//! Prints every metric of the chosen workload(s) with its unit as `#`
//! lines, then one JSON result line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. With
//! `--workload all` the three workloads run in this one process and the
//! result line names each metric `<workload>/<metric>`.

use std::process::ExitCode;
use std::time::Duration;

use perfbench::calibrate::probe_seconds;
use perfbench::report::render_json;
use perfbench::{Metric, Prober, Size, Workload};

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workloads = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Some(Workload::ALL.to_vec()),
            "--workload" => {
                let w = Workload::from_name(&value)
                    .ok_or_else(|| format!("unknown workload {value:?}"))?;
                workloads = Some(vec![w]);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err("--seconds must lie in 0..=3600".to_string());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    if std::env::args().skip(1).eq(["--probe"]) {
        println!("{}", probe_seconds());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <oneshot_default|match_heavy|serving_zipf|all> \
                 --seed <n> --seconds <s> [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let single = args.workloads.len() == 1;
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics: Vec<Metric> = Vec::new();
    let prober = Prober::this_program();
    for workload in args.workloads {
        let report = perfbench::run(workload, args.seed, args.seconds, Size::Full, &prober);
        print!("{}", report.render_text());
        correct &= report.correct();
        attempted += report.attempted;
        failed += report.failed;
        let chosen = if args.trace {
            &report.per_layer
        } else {
            &report.end_to_end
        };
        metrics.extend(chosen.iter().map(|m| {
            let name = if single {
                m.name.clone()
            } else {
                format!("{}/{}", report.workload, m.name)
            };
            Metric::new(name, m.value, m.unit)
        }));
    }
    println!("{}", render_json(correct, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
