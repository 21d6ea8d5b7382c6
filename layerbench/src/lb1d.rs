//! `lb1d-vr`: the 1-D Long Beach analog at the paper's |T| = 53,144,
//! engine defaults, no cache. One client calls `pipeline::cpnn_with` in a
//! closed loop, reusing one `QueryScratch`.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use cpnn_core::pipeline::{cpnn, cpnn_with, CpnnResult, DistanceModel, QuerySpec, Strategy};
use cpnn_core::verifiers::VerificationState;
use cpnn_core::{
    CandidateSet, DistanceDistribution, EngineConfig, Label, ObjectId, PipelineConfig,
    QueryScratch, UncertainDb, UncertainObject,
};

use crate::common::*;
use crate::layers::{mean_us, ratio, Layers};
use crate::load::closed_loop;
use crate::replay::{self, EvalTally};
use crate::trace::{Tracer, ROOT};

/// The Long Beach analog. Like the paper's real data set it is one fixed
/// set: the workload seed draws the query points, not the data.
pub fn dataset() -> Vec<UncertainObject> {
    cpnn_datagen::longbeach_analog(DATA_SEED)
}

/// Uniform, distinct query points for this seed — enough for a run of
/// `seconds` at well above the expected rate.
pub fn query_points(seed: u64, seconds: f64) -> Vec<f64> {
    let count = ((seconds * 12_000.0) as usize).max(20_000);
    let mut points = cpnn_datagen::query_points(derive_seed(seed, "lb1d-queries"), count);
    let mut seen = std::collections::HashSet::with_capacity(points.len());
    points.retain(|q| seen.insert(q.to_bits()));
    points
}

/// The 1-D correctness gate: `result` (a Verified answer) against the
/// exact probabilities of a `Strategy::RefineOnly` re-evaluation at Δ = 0.
/// Each verdict is judged from the exact probability, not from the
/// re-evaluation's own label, so the check does not trust the classifier
/// it checks: a Satisfy needs the exact probability ≥ P − Δ, a Fail needs
/// it < P (both with 1e-9 slack for floating-point ties), which leaves
/// the tie band the tolerance allows. Returns false on a mismatch.
pub fn refine_gate<M: DistanceModel<Query = f64>>(model: &M, q: f64, result: &CpnnResult) -> bool {
    let exact_spec = QuerySpec::nn(P, 0.0, Strategy::RefineOnly);
    let Ok(exact) = cpnn(model, &q, &exact_spec, &PipelineConfig::default()) else {
        return false;
    };
    if exact.reports.len() != result.reports.len() {
        return false;
    }
    let by_id: HashMap<ObjectId, _> = exact.reports.iter().map(|r| (r.id, r)).collect();
    const SLACK: f64 = 1e-9;
    result.reports.iter().all(|r| {
        let Some(e) = by_id.get(&r.id) else {
            return false;
        };
        match r.label {
            Label::Satisfy => e.bound.hi() >= P - DELTA - SLACK,
            Label::Fail => e.bound.lo() < P + SLACK,
            Label::Unknown => false,
        }
    })
}

pub fn run(opts: Opts) -> Outcome {
    let (db, setup_s) = timed_setup(|| {
        let db =
            UncertainDb::with_config(dataset(), EngineConfig::default()).expect("dataset builds");
        // Warm-up (fixed points, so set-up is the same work on every
        // seed): first-touch page faults and allocator growth.
        let mut scratch = QueryScratch::new();
        let cfg = EngineConfig::default().pipeline();
        for q in query_points(DATA_SEED, 0.0).iter().take(300) {
            cpnn_with(&db, q, &spec(1), &cfg, &mut scratch).expect("warm-up query");
        }
        db
    });
    let points = query_points(opts.seed, opts.seconds);
    let cfg = EngineConfig::default().pipeline();
    let spec1 = spec(1);
    let mut out = Outcome::default();
    let mut scratch = QueryScratch::new();
    let mut errors = 0u64;

    let measure_s = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let (reads, samples) = closed_loop(&points, measure_s, |q| {
        let res = cpnn_with(&db, q, &spec1, &cfg, &mut scratch);
        errors += u64::from(res.is_err());
        res.ok()
    });

    // Correctness gate, off the clock.
    let wrong = samples
        .iter()
        .filter(|(q, res)| !res.as_ref().is_some_and(|r| refine_gate(&db, *q, r)))
        .count() as u64;

    out.gate(reads.ops, errors);
    out.gate(samples.len() as u64, wrong);
    eprintln!(
        "lb1d-vr: {} queries; {} sampled re-checks, {wrong} wrong",
        reads.ops,
        samples.len()
    );

    if opts.trace {
        let (mut layers, (replayed, mismatched)) = traced(&db, &points, opts, reads.rate);
        out.gate(replayed, mismatched);
        layers.set_tails(&reads);
        layers.emit(&mut out);
    } else {
        out.end_to_end(setup_s, &reads, peak_rss_mb());
    }
    out
}

/// The traced replay: each query's stages through their public calls,
/// under spans, checked bit for bit against `cpnn_with`. Returns the layer
/// metrics and `(replayed, mismatched)` counts.
fn traced(db: &UncertainDb, points: &[f64], opts: Opts, untraced_qps: f64) -> (Layers, (u64, u64)) {
    let objects: HashMap<ObjectId, UncertainObject> =
        db.objects().into_iter().map(|o| (o.id(), o)).collect();
    let cfg = EngineConfig::default().pipeline();
    let max_bins = EngineConfig::default().max_distance_bins;
    let spec1 = spec(1);
    let mut tracer = Tracer::new(1 << 20);
    let mut state = VerificationState::default();
    let mut scratch = QueryScratch::new();
    let mut tally = EvalTally::default();
    let (mut filter_ns, mut fold_ns, mut rebin_ns, mut assemble_ns) = (0u64, 0u64, 0u64, 0u64);
    let (mut survivors, mut kept, mut used_sum) = (0u64, 0u64, 0.0f64);
    let (mut replayed, mut mismatched, mut traced_ns) = (0u64, 0u64, 0u64);
    let budget = Duration::from_secs_f64(opts.seconds / 2.0);
    let start = Instant::now();
    // Replay from the other end of the pool so the points differ from the
    // untraced half's.
    for (i, q) in points.iter().rev().cycle().enumerate() {
        if start.elapsed() >= budget {
            break;
        }
        let req = i as u32;
        let root = tracer.begin("request", ROOT, req);
        let (filtered, f_ns) = tracer.span("rtree.filter", root, req, || {
            db.filter(q, 1).expect("filter")
        });
        // Replay the fold and the re-bin the filter call did for its
        // survivors, to split its time.
        let (folded, fo_ns) = tracer.span("distance.fold", root, req, || {
            filtered
                .items
                .iter()
                .map(|(id, _)| DistanceDistribution::from_pdf(objects[id].pdf(), *q).expect("fold"))
                .collect::<Vec<_>>()
        });
        let (rebinned, rb_ns) = tracer.span("distance.rebin", root, req, || {
            folded
                .iter()
                .cloned()
                .map(|d| d.with_max_bins(max_bins).expect("rebin"))
                .collect::<Vec<_>>()
        });
        drop(rebinned);
        let n_items = filtered.items.len() as u64;
        let (cands, a_ns) = tracer.span("candidate.assemble", root, req, || {
            CandidateSet::from_distances(filtered.items, 1)
        });
        let result = replay::evaluate(&mut tracer, root, req, &cands, 1, &mut state, &mut tally);
        traced_ns += tracer.end(root);

        filter_ns += f_ns;
        fold_ns += fo_ns;
        rebin_ns += rb_ns;
        assemble_ns += a_ns;
        survivors += n_items;
        kept += cands.len() as u64;
        let horizon = cands.horizon();
        for d in &folded {
            let (near, far) = (d.near(), d.far());
            used_sum += if far > near {
                ((horizon.min(far) - near) / (far - near)).clamp(0.0, 1.0)
            } else {
                1.0
            };
        }

        // Off the trace: the pipeline's own answer must match bit for bit.
        let direct = cpnn_with(db, q, &spec1, &cfg, &mut scratch).expect("direct query");
        replayed += 1;
        mismatched += u64::from(!same_reports(&direct, &result));
    }
    let n = replayed;
    let mut layers = Layers::default();
    layers.set(
        "rtree.prune_us",
        mean_us(filter_ns.saturating_sub(fold_ns + rebin_ns), n),
    );
    layers.set(
        "rtree.candidates_per_query",
        ratio(survivors as f64, n as f64),
    );
    layers.set("distance.fold_us", mean_us(fold_ns, n));
    layers.set("distance.rebin_us", mean_us(rebin_ns, n));
    layers.set(
        "distance.support_used_ratio",
        ratio(used_sum, survivors as f64),
    );
    layers.set("candidate.assemble_us", mean_us(assemble_ns, n));
    layers.set("candidate.kept_ratio", ratio(kept as f64, survivors as f64));
    tally.emit(&mut layers);
    // Traced request time excludes the off-trace equality check.
    let traced_qps = n as f64 / (traced_ns as f64 / 1e9);
    layers.set("trace.coverage", tracer.coverage());
    layers.set("trace.overhead_ratio", ratio(traced_qps, untraced_qps));
    let _ = tracer.save("lb1d-vr");
    eprintln!("lb1d-vr traced: {n} replayed queries, {mismatched} differ from cpnn_with");
    (layers, (n, mismatched))
}
