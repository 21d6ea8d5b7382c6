//! `syn2d-knn`: 10,000 synthetic disks and rectangles (domain 1000,
//! radius 1–6). Uniform query points alternate k = 1 (C-PNN) and k = 4
//! (C-PkNN); one client calls `pipeline::cpnn_with` in a closed loop.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use cpnn_core::pipeline::{cpnn_with, CpnnResult, DistanceModel};
use cpnn_core::verifiers::VerificationState;
use cpnn_core::{CandidateSet, Label, Object2d, ObjectId, QueryScratch, UncertainDb2d};
use cpnn_datagen::Synthetic2dConfig;

use crate::common::*;
use crate::layers::{mean_us, ratio, Layers};
use crate::load::closed_loop;
use crate::replay::{self, EvalTally};
use crate::trace::{Tracer, ROOT};

const DOMAIN: f64 = 1_000.0;
/// Sampled worlds per Monte-Carlo check.
const MC_WORLDS: usize = 20_000;
/// Allowance for the 2-D engine's discretization of each distance
/// distribution (48 bins), on top of the sampling band.
const DISCRETIZATION_BAND: f64 = 0.005;

fn config() -> Synthetic2dConfig {
    Synthetic2dConfig {
        count: 10_000,
        domain: DOMAIN,
        min_radius: 1.0,
        max_radius: 6.0,
    }
}

/// Query point and its `k`, alternating 1 and 4.
type Query = ([f64; 2], usize);

fn queries(seed: u64, seconds: f64) -> Vec<Query> {
    let count = ((seconds * 600.0) as usize).max(2_000);
    cpnn_datagen::query_points_2d(derive_seed(seed, "syn2d-queries"), count, DOMAIN)
        .into_iter()
        .enumerate()
        .map(|(i, q)| (q, if i % 2 == 0 { 1 } else { 4 }))
        .collect()
}

fn dist(a: [f64; 2], b: [f64; 2]) -> f64 {
    ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2)).sqrt()
}

/// Nearest and farthest possible distance from `q`, computed here (not by
/// the library) for the Monte-Carlo check.
fn near_far(o: &Object2d, q: [f64; 2]) -> (f64, f64) {
    match o {
        Object2d::Circle(c) => {
            let d = dist(q, c.center);
            ((d - c.radius).max(0.0), d + c.radius)
        }
        Object2d::Rectangle { rect, .. } => {
            let dx = (rect.min[0] - q[0]).max(q[0] - rect.max[0]).max(0.0);
            let dy = (rect.min[1] - q[1]).max(q[1] - rect.max[1]).max(0.0);
            let fx = (q[0] - rect.min[0]).abs().max((rect.max[0] - q[0]).abs());
            let fy = (q[1] - rect.min[1]).abs().max((rect.max[1] - q[1]).abs());
            ((dx * dx + dy * dy).sqrt(), (fx * fx + fy * fy).sqrt())
        }
    }
}

/// A uniform position inside the object's region.
fn sample_point(o: &Object2d, rng: &mut Rng) -> [f64; 2] {
    match o {
        Object2d::Circle(c) => loop {
            let x = rng.range(-1.0, 1.0);
            let y = rng.range(-1.0, 1.0);
            if x * x + y * y <= 1.0 {
                break [c.center[0] + c.radius * x, c.center[1] + c.radius * y];
            }
        },
        Object2d::Rectangle { rect, .. } => [
            rng.range(rect.min[0], rect.max[0]),
            rng.range(rect.min[1], rect.max[1]),
        ],
    }
}

/// The 2-D correctness gate, independent of the library's quadrature:
/// estimate each object's probability of being among the `k` nearest by
/// sampling worlds, then require every verdict to agree outside the band
/// `4σ(P) + DISCRETIZATION_BAND` around the threshold (Satisfy needs
/// p̂ ≥ P − Δ − band, Fail and non-candidates need p̂ ≤ P + band).
fn monte_carlo_gate(
    objects: &[Object2d],
    q: [f64; 2],
    k: usize,
    result: &CpnnResult,
    rng: &mut Rng,
) -> bool {
    let nf: Vec<(f64, f64)> = objects.iter().map(|o| near_far(o, q)).collect();
    let mut fars: Vec<f64> = nf.iter().map(|x| x.1).collect();
    let kth = (k - 1).min(fars.len() - 1);
    fars.select_nth_unstable_by(kth, f64::total_cmp);
    let horizon = fars[kth];
    let cands: Vec<usize> = (0..objects.len()).filter(|&i| nf[i].0 <= horizon).collect();

    let mut hits = vec![0u32; cands.len()];
    let mut d = vec![0.0f64; cands.len()];
    let mut order: Vec<usize> = (0..cands.len()).collect();
    for _ in 0..MC_WORLDS {
        for (slot, &i) in cands.iter().enumerate() {
            d[slot] = dist(q, sample_point(&objects[i], rng));
        }
        if k == 1 {
            let best = (0..cands.len())
                .min_by(|&a, &b| d[a].total_cmp(&d[b]))
                .expect("candidates");
            hits[best] += 1;
        } else {
            let kk = k.min(cands.len());
            order.select_nth_unstable_by(kk - 1, |&a, &b| d[a].total_cmp(&d[b]));
            for &slot in &order[..kk] {
                hits[slot] += 1;
            }
        }
    }
    let band = 4.0 * (P * (1.0 - P) / MC_WORLDS as f64).sqrt() + DISCRETIZATION_BAND;
    let p_hat: HashMap<ObjectId, f64> = cands
        .iter()
        .zip(&hits)
        .map(|(&i, &h)| (objects[i].id(), h as f64 / MC_WORLDS as f64))
        .collect();
    let reported: HashMap<ObjectId, Label> =
        result.reports.iter().map(|r| (r.id, r.label)).collect();
    let verdicts_hold = result.reports.iter().all(|r| {
        let p = p_hat.get(&r.id).copied().unwrap_or(0.0);
        match r.label {
            Label::Satisfy => p >= P - DELTA - band,
            Label::Fail => p <= P + band,
            Label::Unknown => false,
        }
    });
    let omissions_hold = p_hat
        .iter()
        .all(|(id, &p)| reported.contains_key(id) || p <= P + band);
    verdicts_hold && omissions_hold
}

pub fn run(opts: Opts) -> Outcome {
    let (db, setup_s) = timed_setup(|| {
        let db = UncertainDb2d::build(cpnn_datagen::objects_2d(DATA_SEED, config()))
            .expect("dataset builds");
        let mut scratch = QueryScratch::new();
        let cfg = cpnn_core::PipelineConfig::default();
        for (q, k) in queries(DATA_SEED, 0.0).iter().take(40) {
            cpnn_with(&db, q, &spec(*k), &cfg, &mut scratch).expect("warm-up query");
        }
        db
    });
    let objects = db.objects();
    let points = queries(opts.seed, opts.seconds);
    let cfg = cpnn_core::PipelineConfig::default();
    let mut scratch = QueryScratch::new();
    let mut errors = 0u64;
    let measure_s = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let (reads, samples) = closed_loop(&points, measure_s, |(q, k)| {
        let res = cpnn_with(&db, q, &spec(*k), &cfg, &mut scratch);
        errors += u64::from(res.is_err());
        res.ok()
    });

    let mut rng = Rng::new(derive_seed(opts.seed, "syn2d-montecarlo"));
    let wrong = samples
        .iter()
        .filter(|((q, k), res)| {
            !res.as_ref()
                .is_some_and(|r| monte_carlo_gate(&objects, *q, *k, r, &mut rng))
        })
        .count() as u64;

    let mut out = Outcome::default();
    out.gate(reads.ops, errors);
    out.gate(samples.len() as u64, wrong);
    eprintln!(
        "syn2d-knn: {} queries; {} Monte-Carlo re-checks ({MC_WORLDS} worlds), {wrong} wrong",
        reads.ops,
        samples.len()
    );
    if opts.trace {
        let (mut layers, (replayed, mismatched)) = traced(&db, &objects, &points, opts, reads.rate);
        out.gate(replayed, mismatched);
        layers.set_tails(&reads);
        layers.emit(&mut out);
    } else {
        out.end_to_end(setup_s, &reads, peak_rss_mb());
    }
    out
}

fn traced(
    db: &UncertainDb2d,
    objects: &[Object2d],
    points: &[Query],
    opts: Opts,
    untraced_qps: f64,
) -> (Layers, (u64, u64)) {
    let by_id: HashMap<ObjectId, &Object2d> = objects.iter().map(|o| (o.id(), o)).collect();
    let bins = db.config().distance_bins;
    let cfg = cpnn_core::PipelineConfig::default();
    let mut tracer = Tracer::new(1 << 18);
    let mut state = VerificationState::default();
    let mut scratch = QueryScratch::new();
    let mut tally = EvalTally::default();
    let (mut filter_ns, mut dist_ns, mut assemble_ns) = (0u64, 0u64, 0u64);
    let (mut survivors, mut kept) = (0u64, 0u64);
    let (mut replayed, mut mismatched, mut traced_ns) = (0u64, 0u64, 0u64);
    let budget = Duration::from_secs_f64(opts.seconds / 2.0);
    let start = Instant::now();
    for (i, (q, k)) in points.iter().rev().cycle().enumerate() {
        if start.elapsed() >= budget {
            break;
        }
        let req = i as u32;
        let root = tracer.begin("request", ROOT, req);
        let (filtered, f_ns) = tracer.span("rtree.filter", root, req, || {
            db.filter(q, *k).expect("filter")
        });
        // Replay the distance distributions the filter call built for its
        // survivors, to split its time.
        let (_, d_ns) = tracer.span("engine2d.dist", root, req, || {
            filtered
                .items
                .iter()
                .map(|(id, _)| {
                    by_id[id]
                        .distance_distribution(*q, bins)
                        .expect("distribution")
                })
                .collect::<Vec<_>>()
        });
        let n_items = filtered.items.len() as u64;
        let (cands, a_ns) = tracer.span("candidate.assemble", root, req, || {
            CandidateSet::from_distances(filtered.items, *k)
        });
        let result = replay::evaluate(&mut tracer, root, req, &cands, *k, &mut state, &mut tally);
        traced_ns += tracer.end(root);
        filter_ns += f_ns;
        dist_ns += d_ns;
        assemble_ns += a_ns;
        survivors += n_items;
        kept += cands.len() as u64;

        let direct = cpnn_with(db, q, &spec(*k), &cfg, &mut scratch).expect("direct query");
        replayed += 1;
        mismatched += u64::from(!same_reports(&direct, &result));
    }
    let n = replayed;
    let mut layers = Layers::default();
    layers.set(
        "rtree.prune_us",
        mean_us(filter_ns.saturating_sub(dist_ns), n),
    );
    layers.set(
        "rtree.candidates_per_query",
        ratio(survivors as f64, n as f64),
    );
    layers.set("engine2d.dist_us", mean_us(dist_ns, n));
    layers.set(
        "engine2d.dists_per_query",
        ratio(survivors as f64, n as f64),
    );
    layers.set("candidate.assemble_us", mean_us(assemble_ns, n));
    layers.set("candidate.kept_ratio", ratio(kept as f64, survivors as f64));
    tally.emit(&mut layers);
    let traced_qps = n as f64 / (traced_ns as f64 / 1e9);
    layers.set("trace.coverage", tracer.coverage());
    layers.set("trace.overhead_ratio", ratio(traced_qps, untraced_qps));
    let _ = tracer.save("syn2d-knn");
    eprintln!("syn2d-knn traced: {n} replayed queries, {mismatched} differ from cpnn_with");
    (layers, (n, mismatched))
}
