//! Snapshot round-trip properties of the generalized (dimension-tagged)
//! persistence format: for 1-D and 2-D databases — including empty
//! databases and single-bar histograms — `read_model(write_model(db))`
//! answers **every** query identically to the live database, report for
//! report. Sharded (kind-1) checkpoints, which only older builds wrote,
//! read back as the flat database over the same objects.
//!
//! Bit-exactness caveat baked into the generators: the 1-D snapshot
//! stores per-bar *masses* (cdf differences) and rebuilding divides by
//! bar width then re-normalizes, so a round trip is bit-identical
//! exactly when bar widths are powers of two and masses are dyadic
//! rationals summing to exactly 1.0. The generators below emit integer
//! edges with widths in {1, 2, 4} and masses on the k/64 grid, which the
//! format preserves exactly. (2-D objects store raw f64 bits — circles
//! and rectangles round-trip exactly for arbitrary coordinates.)

use cpnn_core::persist::{self, SnapshotError};
use cpnn_core::{
    CpnnQuery, CpnnResult, EngineConfig, Object2d, ObjectId, ShardBalance, Strategy, UncertainDb,
    UncertainDb2d, UncertainObject,
};
use cpnn_pdf::HistogramPdf;
use proptest::prelude::*;
use proptest::Strategy as _;
use proptest::TestCaseError;

mod legacy_sharded;
use legacy_sharded::sharded_image;

/// Raw material for one dyadic histogram object: an integer low edge,
/// per-bar power-of-two widths, and mass cut points on the /64 grid.
type RawObject = (i32, Vec<f64>, Vec<u32>);

/// Objects whose histograms round-trip bit-for-bit (see module docs):
/// integer edges, widths in {1, 2, 4}, masses summing to exactly 64/64.
/// `cuts` may collapse to nothing after dedup — a single-bar histogram.
fn dyadic_objects(max: usize) -> impl proptest::Strategy<Value = Vec<UncertainObject>> {
    prop::collection::vec(
        (
            -64i32..64,
            prop::collection::vec(prop::sample::select(vec![1.0f64, 2.0, 4.0]), 1..5),
            prop::collection::vec(1u32..64, 0..4),
        ),
        0..max,
    )
    .prop_map(|raw: Vec<RawObject>| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (lo, widths, cuts))| {
                // Bars share the histogram: `widths.len()` geometric bars,
                // masses split at the (deduped) cut points on the /64 grid.
                let mut cuts: Vec<u32> = cuts.into_iter().map(|c| c % 63 + 1).collect();
                cuts.sort_unstable();
                cuts.dedup();
                cuts.truncate(widths.len() - 1);
                // Edges: integers via power-of-two partial sums (exact).
                let mut edges = vec![lo as f64];
                let bars = cuts.len() + 1;
                for w in widths.iter().take(bars) {
                    edges.push(edges.last().unwrap() + w);
                }
                // Masses: consecutive differences of [0, cuts.., 64] / 64.
                let mut bounds = vec![0u32];
                bounds.extend(&cuts);
                bounds.push(64);
                let masses: Vec<f64> = bounds
                    .windows(2)
                    .map(|w| (w[1] - w[0]) as f64 / 64.0)
                    .collect();
                let pdf = HistogramPdf::from_masses(edges, masses).expect("dyadic histogram");
                UncertainObject::from_histogram(ObjectId(i as u64), pdf)
            })
            .collect()
    })
}

fn assert_same(got: &CpnnResult, want: &CpnnResult, ctx: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(&got.answers, &want.answers, "answers differ: {}", ctx);
    prop_assert_eq!(&got.reports, &want.reports, "reports differ: {}", ctx);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// 1-D: `read_model(write_model(db))` — including the snapshot
    /// version tag — answers every C-PNN and C-PkNN query identically.
    #[test]
    fn snapshot_round_trip_1d(
        objects in dyadic_objects(12),
        points in prop::collection::vec(-70.0f64..70.0, 2..5),
        version in 0u64..1000,
    ) {
        let db = UncertainDb::build(objects).unwrap();
        let mut image = Vec::new();
        persist::write_model(&db, version, &mut image).unwrap();
        let (back, got_version) =
            persist::read_model::<UncertainDb, _>(image.as_slice(), &EngineConfig::default())
                .unwrap();
        prop_assert_eq!(got_version, version);
        prop_assert_eq!(back.len(), db.len());
        for &q in &points {
            let query = CpnnQuery::new(q, 0.25, 0.01);
            let a = db.cpnn(&query, Strategy::Verified).unwrap();
            let b = back.cpnn(&query, Strategy::Verified).unwrap();
            assert_same(&a, &b, &format!("cpnn q = {q}"))?;
            let a = db.cknn(q, 2, 0.4, 0.0).unwrap();
            let b = back.cknn(q, 2, 0.4, 0.0).unwrap();
            assert_same(&a, &b, &format!("cknn q = {q}"))?;
        }
    }

    /// 2-D: circles and rectangles store raw f64 bits, so arbitrary
    /// coordinates round-trip exactly — every 2-D k-NN query agrees.
    #[test]
    fn snapshot_round_trip_2d(
        circles in prop::collection::vec((-40.0f64..40.0, -40.0f64..40.0, 0.5f64..5.0), 0..8),
        rects in prop::collection::vec((-40.0f64..40.0, -40.0f64..40.0, 0.5f64..6.0, 0.5f64..4.0), 0..6),
        points in prop::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 2..4),
    ) {
        let mut objects: Vec<Object2d> = Vec::new();
        for (i, &(x, y, r)) in circles.iter().enumerate() {
            objects.push(Object2d::circle(ObjectId(i as u64), [x, y], r).unwrap());
        }
        for (i, &(x, y, w, h)) in rects.iter().enumerate() {
            objects.push(
                Object2d::rectangle(ObjectId(1_000 + i as u64), [x, y], [x + w, y + h]).unwrap(),
            );
        }
        let db = UncertainDb2d::build(objects).unwrap();
        let mut image = Vec::new();
        persist::write_model(&db, 7, &mut image).unwrap();
        let (back, _) = persist::read_model::<UncertainDb2d, _>(
            image.as_slice(),
            &Default::default(),
        )
        .unwrap();
        prop_assert_eq!(back.len(), db.len());
        for &(x, y) in &points {
            let a = db.cpnn([x, y], 0.3, 0.01).unwrap();
            let b = back.cpnn([x, y], 0.3, 0.01).unwrap();
            assert_same(&a, &b, &format!("2d q = ({x}, {y})"))?;
            let a = db.cknn([x, y], 2, 0.4, 0.0).unwrap();
            let b = back.cknn([x, y], 2, 0.4, 0.0).unwrap();
            assert_same(&a, &b, &format!("2d knn q = ({x}, {y})"))?;
        }
    }

    /// Sharded: a kind-1 checkpoint (axis, exact slab bounds, one object
    /// list per slab — the layout older `serve --data-dir` runs wrote)
    /// reads back through the flat reader as the flat database over the
    /// same objects, under both balancing schemes.
    #[test]
    fn snapshot_round_trip_sharded(
        objects in dyadic_objects(16),
        points in prop::collection::vec(-70.0f64..70.0, 2..4),
        shards in prop::sample::select(vec![1usize, 3, 5]),
        quantile in prop::bool::ANY,
    ) {
        let balance = if quantile { ShardBalance::Quantile } else { ShardBalance::Width };
        let flat = UncertainDb::build(objects.clone()).unwrap();
        let image = sharded_image(objects, shards, balance, 3);
        let (back, version) =
            persist::read_model::<UncertainDb, _>(image.as_slice(), &EngineConfig::default())
                .unwrap();
        prop_assert_eq!(version, 3);
        prop_assert_eq!(back.len(), flat.len());
        for &q in &points {
            let query = CpnnQuery::new(q, 0.25, 0.01);
            let a = flat.cpnn(&query, Strategy::Verified).unwrap();
            let b = back.cpnn(&query, Strategy::Verified).unwrap();
            assert_same(&a, &b, &format!("sharded q = {q}, {shards} shards"))?;
        }
    }
}

/// An empty database round-trips (zero records, version preserved).
#[test]
fn empty_database_round_trips() {
    let db = UncertainDb::build(Vec::new()).unwrap();
    let mut image = Vec::new();
    persist::write_model(&db, 11, &mut image).unwrap();
    let (back, version) =
        persist::read_model::<UncertainDb, _>(image.as_slice(), &EngineConfig::default()).unwrap();
    assert_eq!(version, 11);
    assert_eq!(back.len(), 0);
}

/// A single-bar (pure uniform) histogram with a power-of-two width
/// round-trips bit for bit.
#[test]
fn single_bar_histogram_round_trips() {
    let pdf = HistogramPdf::from_masses(vec![3.0, 7.0], vec![1.0]).unwrap();
    let db = UncertainDb::build(vec![UncertainObject::from_histogram(ObjectId(1), pdf)]).unwrap();
    let mut image = Vec::new();
    persist::write_model(&db, 0, &mut image).unwrap();
    let (back, _) =
        persist::read_model::<UncertainDb, _>(image.as_slice(), &EngineConfig::default()).unwrap();
    let a = db
        .cpnn(&CpnnQuery::new(5.0, 0.3, 0.01), Strategy::Verified)
        .unwrap();
    let b = back
        .cpnn(&CpnnQuery::new(5.0, 0.3, 0.01), Strategy::Verified)
        .unwrap();
    assert_eq!(a.answers, b.answers);
    assert_eq!(a.reports, b.reports);
}

/// A version-bumped header is a *dedicated* error — future formats must
/// be distinguishable from corruption through the public load path.
#[test]
fn version_bumped_header_is_unsupported_not_corrupt() {
    let db = UncertainDb::build(vec![
        UncertainObject::uniform(ObjectId(1), 0.0, 4.0).unwrap()
    ])
    .unwrap();
    let mut image = Vec::new();
    persist::write_model(&db, 0, &mut image).unwrap();
    // Bump the little-endian version word (bytes 4..8) past the current
    // format version.
    image[4] = 0xEE;
    match persist::read_model::<UncertainDb, _>(image.as_slice(), &EngineConfig::default()) {
        Err(SnapshotError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, 0xEE);
            assert_eq!(supported, persist::VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}
