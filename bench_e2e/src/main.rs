//! End-to-end Sequoia benchmark for Paradise.
//!
//! ```text
//! bench_e2e --workload <browse|sequoia|sequoia_tcp|ingest> --seed N --seconds S --trace <0|1>
//! bench_e2e compare BASE NEW [--bench BENCHMARK.json]
//! ```
//!
//! A run prints every metric with its unit, a `RUN {...}` record (the
//! input of compare mode) and, as its last line, the result object. It
//! exits with status 1 on a wrong answer.

mod calib;
mod compare;
mod json;
mod oracle;
mod run;
mod stats;
mod trace;
mod workload;

use run::{Opts, Outcome};
use workload::Workload;

const USAGE: &str = "usage: bench_e2e --workload <browse|sequoia|sequoia_tcp|ingest> --seed N \
                     --seconds S --trace <0|1>\n       bench_e2e compare BASE NEW [--bench BENCHMARK.json]";

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value != "0",
            other => return Err(format!("unknown option {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Opts { workload, seed, seconds, trace })
}

fn print(opts: &Opts, out: &Outcome) {
    let mode = if opts.trace { "traced (per-layer)" } else { "untraced (end-to-end)" };
    println!(
        "workload {} seed {} seconds {} {mode}",
        opts.workload.name(),
        opts.seed,
        opts.seconds
    );
    for (k, v) in &out.detail {
        println!("  {k}: {v}");
    }
    for m in &out.metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let metrics = || {
        out.metrics
            .iter()
            .map(|m| format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, m.value, m.unit))
            .collect::<Vec<_>>()
            .join(",")
    };
    let detail =
        out.detail.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect::<Vec<_>>().join(",");
    println!(
        "RUN {{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"correct\":{},\"metrics\":{{{}}},\"detail\":{{{detail}}}}}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace),
        out.correct,
        metrics()
    );
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        match compare::main(&args[1..]) {
            Ok(clean) => std::process::exit(if clean { 0 } else { 3 }),
            Err(e) => {
                eprintln!("compare: {e}");
                std::process::exit(2);
            }
        }
    }
    let opts = match parse_opts(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run::run(&opts) {
        Ok(out) => {
            print(&opts, &out);
            if !out.correct {
                eprintln!("wrong answer: see WRONG lines above");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            std::process::exit(2);
        }
    }
}
