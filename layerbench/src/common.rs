//! Shared plumbing: run options, seeded randomness, peak memory, the
//! set-up timer, answer comparison, and the result line.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use cpnn_core::pipeline::{CpnnResult, QuerySpec, Strategy};

use crate::load::{quantile, Summary};

/// The paper's default threshold `P`.
pub const P: f64 = 0.3;
/// The paper's default tolerance `Δ`.
pub const DELTA: f64 = 0.01;
/// Seed of the fixed data sets (the workload seed draws queries and
/// writes).
pub const DATA_SEED: u64 = 2008;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The C-PNN spec every workload uses (`k` varies only on syn2d-knn).
pub fn spec(k: usize) -> QuerySpec {
    QuerySpec::knn(k, P, DELTA, Strategy::Verified)
}

/// Command-line options shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Derive an independent stream seed from the workload seed and a label,
/// so each generated input (data, query points, writes) has its own
/// stream and the same `--seed` always yields the same inputs.
pub fn derive_seed(seed: u64, label: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for b in label.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64: the benchmark's own generator for write positions and the
/// Monte-Carlo check, independent of the library's sampling code.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

pub fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Run `build` [`SETUP_REPS`] times, keeping only the last result (earlier
/// ones are dropped before the next build so peak memory counts one
/// copy). Returns the result and the median build time in seconds.
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let start = Instant::now();
        let value = build();
        times.push(start.elapsed().as_secs_f64());
        kept = Some(value);
    }
    (
        kept.expect("at least one set-up"),
        quantile(&mut times, 0.5),
    )
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Do two results carry the same verdicts and bit-identical bounds, in the
/// same candidate order?
pub fn same_reports(a: &CpnnResult, b: &CpnnResult) -> bool {
    a.answers == b.answers
        && a.reports.len() == b.reports.len()
        && a.reports.iter().zip(&b.reports).all(|(x, y)| {
            x.id == y.id
                && x.label == y.label
                && x.bound.lo().to_bits() == y.bound.lo().to_bits()
                && x.bound.hi().to_bits() == y.bound.hi().to_bits()
        })
}

/// A work directory inside the checkout for journals, sockets and trace
/// files. Relative, so socket paths stay short wherever the checkout is.
pub fn work_dir(name: &str) -> std::path::PathBuf {
    let dir =
        std::path::PathBuf::from(".bench_work").join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create work directory");
    dir
}

/// What one run prints as its last line.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Sum over the correctness gates of each gate's failure rate.
    fail_rate: f64,
    /// Correctness properties that broke, for the error output.
    pub broken: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Count one correctness gate: `failed` of `checked` operations went
    /// wrong (errors among timed operations, wrong re-checked answers,
    /// lost writes, replay mismatches). Each gate adds its own failure
    /// rate to `ok_frac`, so one wrong answer among a few hundred
    /// re-checks shows even when tens of thousands of queries were timed.
    pub fn gate(&mut self, checked: u64, failed: u64) {
        self.attempted += checked;
        self.failed += failed;
        if failed > 0 {
            self.fail_rate += failed as f64 / checked.max(failed) as f64;
        }
    }

    /// A correctness property that is not a per-operation count broke
    /// (e.g. recovery returned the wrong object count): a gate of one
    /// check that failed.
    pub fn broke(&mut self, reason: String) {
        self.gate(1, 1);
        self.broken.push(reason);
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.to_string(), value, unit));
    }

    /// The end-to-end metrics (`--trace 0`) of a run whose set-up took
    /// `setup_s`, whose queries measured `reads`, and whose process peaked
    /// at `peak_rss_mb`.
    pub fn end_to_end(&mut self, setup_s: f64, reads: &Summary, peak_rss_mb: f64) {
        self.metric("setup_s", setup_s, "s");
        self.metric("qps", reads.rate, "1/s");
        self.metric("query_p50_us", reads.p50_us, "us");
        self.metric("ok_frac", 1.0 - self.fail_rate.min(1.0), "ratio");
        self.metric("peak_rss_mb", peak_rss_mb, "MiB");
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}
