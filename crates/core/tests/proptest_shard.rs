//! Properties of the domain partitioner ([`ShardedDb`]) and the fan-out
//! merge on random workloads — the in-process half of the router's
//! correctness contract. Each property partitions a database, selects
//! the overlapping shards with `select_overlapping`, merges their filter
//! output with `fan_out_filter` and evaluates the merged candidates once
//! (the router's path, minus the wire), and checks that the answer is
//! exactly the flat database's:
//!
//! 1. **1-D equivalence** — at every tested shard count (1, 2, 3, 8),
//!    the fan-out C-PNN answer has exactly the verdicts and probability
//!    bounds of the flat database;
//! 2. **k-NN equivalence** — same, for C-PkNN (`k > 1`), where the
//!    pruning horizon is the `k`-th smallest far point and shard
//!    selection must account for partially-filled candidate sets;
//! 3. **2-D equivalence** — same, over the disk/rectangle engine (bbox
//!    tiles instead of domain intervals).

use cpnn_core::pipeline::{
    cpnn, evaluate_candidates, fan_out_filter, PipelineConfig, QuerySpec, QueryStats,
};
use cpnn_core::shard::select_overlapping;
use cpnn_core::Strategy as EvalStrategy;
use cpnn_core::{
    CandidateSet, CpnnResult, Object2d, ObjectId, QueryScratch, ShardPoint, ShardableModel,
    ShardedDb, UncertainDb, UncertainDb2d, UncertainObject,
};
use proptest::prelude::*;
use proptest::TestCaseError;

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// Random uniform-pdf 1-D objects with ids `0..n` on a bounded domain.
fn objects(max: usize) -> impl Strategy<Value = Vec<UncertainObject>> {
    prop::collection::vec((-40.0f64..40.0, 0.5f64..12.0), 3..max).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (lo, w))| UncertainObject::uniform(ObjectId(i as u64), lo, lo + w).unwrap())
            .collect()
    })
}

/// Random 2-D objects: disks and axis-aligned rectangles, ids `0..n`.
fn objects_2d(max: usize) -> impl Strategy<Value = Vec<Object2d>> {
    prop::collection::vec(
        (-30.0f64..30.0, -30.0f64..30.0, 0.5f64..5.0, prop::bool::ANY),
        3..max,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (x, y, r, disk))| {
                let id = ObjectId(i as u64);
                if disk {
                    Object2d::circle(id, [x, y], r).unwrap()
                } else {
                    Object2d::rectangle(id, [x - r, y - r * 0.7], [x + r, y + r * 0.7]).unwrap()
                }
            })
            .collect()
    })
}

/// Partition `model`'s objects into `shards` equal-width slabs.
fn partition<M: ShardableModel>(model: &M, config: M::Config, shards: usize) -> ShardedDb<M> {
    ShardedDb::build(model.shard_objects(), config, shards).unwrap()
}

/// The router's evaluation, in process: select the overlapping shards,
/// merge their survivors through `fan_out_filter`, evaluate once.
fn fan_out_cpnn<M>(db: &ShardedDb<M>, q: &M::Query, spec: &QuerySpec) -> CpnnResult
where
    M: ShardableModel,
    M::Query: ShardPoint,
{
    let k = spec.k.max(1);
    let summaries: Vec<_> = (0..db.num_shards())
        .map(|i| {
            let shard = db.shard_model(i);
            (shard.model_extent(), shard.total_objects())
        })
        .collect();
    let selected = select_overlapping(&summaries, q, k);
    let merged =
        fan_out_filter(selected.iter().map(|&(d, i)| (d, db.shard_model(i))), q, k).unwrap();
    let cands = CandidateSet::from_distances(merged.items, k);
    evaluate_candidates(
        &cands,
        spec,
        &db.pipeline_config(),
        &mut QueryScratch::new(),
        QueryStats::default(),
    )
    .unwrap()
}

/// Bit-for-bit result comparison: answers plus every report (id, label,
/// and probability bounds — `ObjectReport` derives `PartialEq`).
fn assert_same(got: &CpnnResult, want: &CpnnResult, ctx: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(&got.answers, &want.answers, "answers differ: {}", ctx);
    prop_assert_eq!(&got.reports, &want.reports, "reports differ: {}", ctx);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property 1: fan-out ≡ flat for 1-D C-PNN at every shard count.
    #[test]
    fn sharded_equals_unsharded_1d(
        objs in objects(24),
        points in prop::collection::vec(-60.0f64..60.0, 1..16),
        threshold in 0.05f64..0.95,
    ) {
        let flat = UncertainDb::build(objs.clone()).unwrap();
        let cfg = PipelineConfig::default();
        let spec = QuerySpec::nn(threshold, 0.01, EvalStrategy::Verified);
        for shards in SHARD_COUNTS {
            let sharded = partition(&flat, *flat.config(), shards);
            prop_assert_eq!(sharded.num_shards(), shards);
            prop_assert_eq!(sharded.shard_sizes().iter().sum::<usize>(), objs.len());
            for &q in &points {
                let want = cpnn(&flat, &q, &spec, &cfg).unwrap();
                let got = fan_out_cpnn(&sharded, &q, &spec);
                assert_same(&got, &want, &format!("q = {q}, {shards} shards, P = {threshold}"))?;
            }
        }
    }

    /// Property 2: fan-out ≡ flat for C-PkNN (the k-NN horizon is the
    /// k-th smallest far point; shard selection must stay sound while
    /// fewer than k candidates have been collected).
    #[test]
    fn sharded_equals_unsharded_knn(
        objs in objects(20),
        points in prop::collection::vec(-60.0f64..60.0, 1..10),
        k in 2usize..5,
    ) {
        let flat = UncertainDb::build(objs).unwrap();
        let cfg = PipelineConfig::default();
        let spec = QuerySpec::knn(k, 0.4, 0.0, EvalStrategy::Verified);
        for shards in SHARD_COUNTS {
            let sharded = partition(&flat, *flat.config(), shards);
            for &q in &points {
                let want = cpnn(&flat, &q, &spec, &cfg).unwrap();
                let got = fan_out_cpnn(&sharded, &q, &spec);
                assert_same(&got, &want, &format!("q = {q}, k = {k}, {shards} shards"))?;
            }
        }
    }

    /// Property 3: fan-out ≡ flat over the 2-D engine (bbox tiles), for
    /// both 1-NN and k-NN specs.
    #[test]
    fn sharded_equals_unsharded_2d(
        objs in objects_2d(16),
        points in prop::collection::vec((-40.0f64..40.0, -40.0f64..40.0), 1..8),
        k in 1usize..4,
    ) {
        let flat = UncertainDb2d::build(objs).unwrap();
        let cfg = PipelineConfig::default();
        let spec = QuerySpec::knn(k, 0.3, 0.01, EvalStrategy::Verified);
        for shards in SHARD_COUNTS {
            let sharded = partition(&flat, *flat.config(), shards);
            for &(x, y) in &points {
                let q = [x, y];
                let want = cpnn(&flat, &q, &spec, &cfg).unwrap();
                let got = fan_out_cpnn(&sharded, &q, &spec);
                assert_same(&got, &want, &format!("q = {q:?}, k = {k}, {shards} shards"))?;
            }
        }
    }
}
