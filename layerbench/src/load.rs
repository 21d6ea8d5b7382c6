//! Load generation and latency summaries shared by the workloads.

use std::time::{Duration, Instant};

use cpnn_core::pipeline::CpnnResult;

use crate::common::nanos;

/// The closed-loop correctness sample starts with every `SAMPLE_EVERY`-th
/// query. Whenever it reaches `SAMPLE_MAX`, every other sample is dropped
/// and the stride doubles, so the sample spans the whole run.
const SAMPLE_EVERY: usize = 64;
const SAMPLE_MAX: usize = 600;

/// Windows the p50 is taken over.
const WINDOWS: usize = 20;

/// Throughput and latency of a measured section.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub ops: u64,
    /// Completed operations per second of measured time.
    pub rate: f64,
    /// The first quartile of the per-window medians: the samples are
    /// split, in time order, into 20 windows of equal count. On a virtual
    /// machine shared with other tenants, a server's hand-off latency
    /// flips between modes for seconds at a time. This figure ignores a
    /// slowdown that holds in fewer than three quarters of the windows
    /// (15 of 20), and moves fully with one that holds in more.
    pub p50_us: f64,
    /// The 99th percentile of all samples.
    pub p99_us: f64,
}

/// Nearest-rank percentile of `sorted` nanosecond samples, in µs.
pub fn percentile_us(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / 1e3
}

/// Linear-interpolated quantile `q` of `values`.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// Summarize `(completion offset ns, latency ns)` samples, in completion
/// order, offsets from the start of the measured section.
pub fn summarize(samples: &[(u64, u64)]) -> Summary {
    let Some(&(end_ns, _)) = samples.last() else {
        return Summary::default();
    };
    let per = samples.len().div_ceil(WINDOWS);
    let mut medians: Vec<f64> = samples
        .chunks(per)
        .map(|window| {
            let mut lat: Vec<u64> = window.iter().map(|s| s.1).collect();
            lat.sort_unstable();
            percentile_us(&lat, 0.50)
        })
        .collect();
    let mut lat: Vec<u64> = samples.iter().map(|s| s.1).collect();
    lat.sort_unstable();
    Summary {
        ops: samples.len() as u64,
        rate: samples.len() as f64 / (end_ns.max(1) as f64 / 1e9),
        p50_us: quantile(&mut medians, 0.25),
        p99_us: percentile_us(&lat, 0.99),
    }
}

/// Run `query` over `points` in a closed loop for `seconds`; returns the
/// summary and the sampled `(point, result)` pairs for the correctness
/// gate.
pub fn closed_loop<Q: Copy>(
    points: &[Q],
    seconds: f64,
    mut query: impl FnMut(&Q) -> Option<CpnnResult>,
) -> (Summary, Vec<(Q, Option<CpnnResult>)>) {
    let budget = Duration::from_secs_f64(seconds);
    let mut lat = Vec::with_capacity(points.len());
    let mut samples = Vec::new();
    let mut stride = SAMPLE_EVERY;
    let start = Instant::now();
    for (i, q) in points.iter().cycle().enumerate() {
        let t = Instant::now();
        let res = query(q);
        let done = Instant::now();
        lat.push((nanos(done - start), nanos(done - t)));
        if i % stride == 0 {
            samples.push((*q, res));
            if samples.len() == SAMPLE_MAX {
                let mut keep = false;
                samples.retain(|_| {
                    keep = !keep;
                    keep
                });
                stride *= 2;
            }
        }
        if done - start >= budget {
            break;
        }
    }
    (summarize(&lat), samples)
}
