//! Workload benchmark for the C-PNN stack.
//!
//! ```text
//! layerbench --workload <lb1d-vr|syn2d-knn|serve-mixed|routed-1d> --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run builds its inputs from the seed, sets up (timed as
//! `setup_s`), measures for `--seconds`, checks the answers off the
//! clock, and prints one JSON object as its last stdout line: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of the
//! traced replay with `--trace 1`. See METRICS.md for every metric.

mod awake;
mod common;
mod durable;
mod layers;
mod lb1d;
mod load;
mod replay;
mod routed;
mod serve;
mod syn2d;
mod trace;

use common::Opts;

const WORKLOADS: &[&str] = &["lb1d-vr", "syn2d-knn", "serve-mixed", "routed-1d"];

fn usage() -> ! {
    eprintln!(
        "usage: layerbench --workload <{}> --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn main() {
    let mut workload = None;
    let mut opts = Opts {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => opts.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => opts.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if opts.seconds.is_nan() || opts.seconds <= 0.0 {
        usage();
    }
    let outcome = match workload.as_deref() {
        Some("lb1d-vr") => lb1d::run(opts),
        Some("syn2d-knn") => syn2d::run(opts),
        Some("serve-mixed") => serve::run(opts),
        Some("routed-1d") => routed::run(opts),
        _ => usage(),
    };
    for reason in &outcome.broken {
        eprintln!("correctness: {reason}");
    }
    if !outcome.correct() {
        // A run that got answers wrong has no result: report it on stderr
        // and fail.
        eprintln!("layerbench: incorrect run: {}", outcome.to_json());
        std::process::exit(1);
    }
    println!("{}", outcome.to_json());
}
