//! `routed-1d`: a `QueryRouter` over Unix sockets to 2 shard servers
//! (`ShardServerHandle`, 1 worker each) hosted in this process. The data
//! is `lb1d-vr`'s set, partitioned the way `cpnn shard-split --shards 2`
//! does it; the query points are `lb1d-vr`'s. One client, closed loop.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cpnn_core::pipeline::{cpnn_with, evaluate_candidates, DistanceModel, QueryStats};
use cpnn_core::shard::{select_overlapping, ShardBalance, ShardableModel};
use cpnn_core::{CandidateSet, EngineConfig, QueryScratch, QueryServer, UncertainDb};
use cpnn_router::{
    merge_replies, QueryRouter, Response, RouterConfig, ShardAddr, ShardListener, ShardMap,
    ShardReply, ShardServeConfig, ShardServerHandle,
};

use crate::awake::KeepAwake;
use crate::common::*;
use crate::layers::{mean_us, ratio, Layers};
use crate::lb1d::{dataset, query_points, refine_gate};
use crate::load::closed_loop;
use crate::trace::{Tracer, ROOT};

const SHARDS: usize = 2;

struct Fleet {
    router: QueryRouter<UncertainDb>,
    handles: Vec<ShardServerHandle<UncertainDb>>,
}

impl Fleet {
    /// The models the shard servers currently serve.
    fn shard_models(&self) -> Vec<Arc<UncertainDb>> {
        self.handles
            .iter()
            .map(|h| h.server().snapshot().model)
            .collect()
    }
}

fn start_fleet(dir: &std::path::Path, rep: usize, points: &[f64]) -> Fleet {
    let sharded = UncertainDb::build_sharded_with(dataset(), SHARDS, ShardBalance::default())
        .expect("dataset shards");
    let cfg = sharded.pipeline_config();
    let mut handles = Vec::with_capacity(SHARDS);
    let mut addrs = Vec::with_capacity(SHARDS);
    for i in 0..sharded.num_shards() {
        let model = UncertainDb::with_config(
            sharded.shard_model(i).shard_objects(),
            *sharded.shard_configuration(),
        )
        .expect("shard model builds");
        let server = Arc::new(QueryServer::start(model, 1, cfg));
        let addr = ShardAddr::Unix(dir.join(format!("r{rep}s{i}.sock")));
        let listener = ShardListener::bind(&addr).expect("bind shard socket");
        handles.push(
            ShardServerHandle::spawn(server, listener, ShardServeConfig::default())
                .expect("spawn shard"),
        );
        addrs.push(addr);
    }
    let map = ShardMap {
        axis: sharded.partition_axis(),
        bounds: sharded.slab_bounds().to_vec(),
        addrs,
    };
    let router_cfg = RouterConfig {
        timeout: Duration::from_secs(30),
        retries: 1,
        backoff: Duration::from_millis(10),
    };
    let mut router = QueryRouter::connect(&map, cfg, router_cfg).expect("connect to fleet");
    for q in points.iter().take(300) {
        router.query(q, &spec(1)).expect("warm-up query");
    }
    Fleet { router, handles }
}

pub fn run(opts: Opts) -> Outcome {
    // Every routed query hands work across sockets between threads that
    // block; keep the processors awake so those hand-offs do not pay the
    // virtual machine's idle wake-up (see `awake`).
    let _awake = KeepAwake::start();
    let work = work_dir("routed-1d");
    let warm = query_points(DATA_SEED, 0.0);
    let mut rep = 0;
    let (mut fleet, setup_s) = timed_setup(|| {
        rep += 1;
        start_fleet(&work, rep, &warm)
    });
    let points = query_points(opts.seed, opts.seconds);
    let spec1 = spec(1);
    let cfg = EngineConfig::default().pipeline();
    let mut errors = 0u64;
    let measure_s = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let (reads, samples) = closed_loop(&points, measure_s, |q| {
        let res = fleet.router.query(q, &spec1);
        errors += u64::from(res.is_err());
        res.ok()
    });
    // Peak memory of the fleet and the router, read before the checks
    // below build their unpartitioned twin.
    let peak_mb = peak_rss_mb();

    // The unpartitioned twin, for the direct comparison (not part of set-up).
    let flat =
        UncertainDb::with_config(dataset(), EngineConfig::default()).expect("dataset builds");
    // Correctness: the refine gate, and routed ≡ direct bit for bit.
    let mut scratch = QueryScratch::new();
    let wrong = samples
        .iter()
        .filter(|(q, res)| {
            !res.as_ref().is_some_and(|r| {
                refine_gate(&flat, *q, r)
                    && cpnn_with(&flat, q, &spec1, &cfg, &mut scratch)
                        .is_ok_and(|d| same_reports(&d, r))
            })
        })
        .count() as u64;

    let mut out = Outcome::default();
    out.gate(reads.ops, errors);
    out.gate(samples.len() as u64, wrong);
    eprintln!(
        "routed-1d: {} queries; {} sampled re-checks, {wrong} wrong",
        reads.ops,
        samples.len()
    );
    if opts.trace {
        let (mut layers, (replayed, mismatched)) =
            traced(&mut fleet, &flat, &points, opts, reads.rate);
        out.gate(replayed, mismatched);
        layers.set_tails(&reads);
        layers.emit(&mut out);
    } else {
        out.end_to_end(setup_s, &reads, peak_mb);
    }
    drop(fleet);
    let _ = std::fs::remove_dir_all(&work);
    out
}

/// The traced run: each query through `QueryRouter::query`, then its
/// layers replayed through their public calls — each selected shard
/// model's own `filter`, the `Candidates` reply encoded and decoded,
/// `merge_replies`, candidate assembly and `evaluate_candidates` — checked
/// bit for bit against the routed answer and direct `cpnn_with`.
///
/// The router sends to every selected shard before it reads any reply, so
/// the shards filter and encode in parallel while the router decodes the
/// replies one by one. A routed query's own work is therefore the slowest
/// shard's filter and encode, plus every decode, the merge and the
/// evaluation; the wire is the rest of the `QueryRouter::query` time.
fn traced(
    fleet: &mut Fleet,
    flat: &UncertainDb,
    points: &[f64],
    opts: Opts,
    untraced_qps: f64,
) -> (Layers, (u64, u64)) {
    let shard_models = fleet.shard_models();
    let summaries: Vec<_> = shard_models
        .iter()
        .map(|m| (m.model_extent(), m.total_objects()))
        .collect();
    let spec1 = spec(1);
    let cfg = EngineConfig::default().pipeline();
    let mut tracer = Tracer::new(1 << 20);
    let mut scratch = QueryScratch::new();
    let mut direct_scratch = QueryScratch::new();
    let (mut query_ns, mut filter_ns, mut codec_ns, mut merge_ns, mut eval_ns, mut direct_ns) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    // Σ per query of the routed query's own work (see above).
    let mut critical_ns = 0u64;
    let mut reply_bytes = 0u64;
    let (mut replayed, mut mismatched) = (0u64, 0u64);
    let before = fleet.router.router_stats().clone();
    let budget = Duration::from_secs_f64(opts.seconds / 2.0);
    let start = Instant::now();
    for (i, q) in points.iter().rev().cycle().enumerate() {
        if start.elapsed() >= budget {
            break;
        }
        let req = i as u32;
        let root = tracer.begin("request", ROOT, req);
        let (routed, ns) = tracer.span("router.query", root, req, || fleet.router.query(q, &spec1));
        tracer.end(root);
        query_ns += ns;

        let replay = tracer.begin("replay", ROOT, req);
        let mut replies = Vec::new();
        let (mut slowest_shard_ns, mut decode_ns) = (0u64, 0u64);
        for (near, shard) in select_overlapping(&summaries, q, 1) {
            let (items, f_ns) = tracer.span("router.shard_filter", replay, req, || {
                shard_models[shard]
                    .filter(q, 1)
                    .expect("shard filter")
                    .items
            });
            let (bytes, e_ns) = tracer.span("router.encode", replay, req, || {
                Response::Candidates { version: 0, items }.encode()
            });
            let (items, d_ns) =
                tracer.span("router.decode", replay, req, || {
                    match Response::decode(&bytes).expect("reply decodes") {
                        Response::Candidates { items, .. } => items,
                        _ => unreachable!("encoded a Candidates reply"),
                    }
                });
            filter_ns += f_ns;
            codec_ns += e_ns + d_ns;
            slowest_shard_ns = slowest_shard_ns.max(f_ns + e_ns);
            decode_ns += d_ns;
            reply_bytes += bytes.len() as u64;
            replies.push(ShardReply { near, shard, items });
        }
        let (merged, m_ns) = tracer.span("router.merge", replay, req, || {
            merge_replies(replies, 1).expect("merge")
        });
        let (result, v_ns) = tracer.span("router.eval", replay, req, || {
            let cands = CandidateSet::from_distances(merged.items, 1);
            evaluate_candidates(&cands, &spec1, &cfg, &mut scratch, QueryStats::default())
                .expect("evaluate")
        });
        tracer.end(replay);
        merge_ns += m_ns;
        eval_ns += v_ns;
        critical_ns += (slowest_shard_ns + decode_ns + m_ns + v_ns).min(ns);

        let t = Instant::now();
        let direct = cpnn_with(flat, q, &spec1, &cfg, &mut direct_scratch).expect("direct query");
        direct_ns += nanos(t.elapsed());
        replayed += 1;
        let routed_ok = routed.is_ok_and(|r| same_reports(&r, &direct));
        mismatched += u64::from(!(routed_ok && same_reports(&result, &direct)));
    }
    let after = fleet.router.router_stats().clone();
    let n = replayed;
    let wire_ns = query_ns - critical_ns;
    let fanout = ratio((after.fanned_out - before.fanned_out) as f64, n as f64);
    let mut layers = Layers::default();
    layers.set("router.query_us", mean_us(query_ns, n));
    layers.set("router.shard_filter_us", mean_us(filter_ns, n));
    layers.set("router.codec_us", mean_us(codec_ns, n));
    layers.set("router.merge_us", mean_us(merge_ns, n));
    layers.set("router.eval_us", mean_us(eval_ns, n));
    layers.set("router.wire_us", mean_us(wire_ns, n));
    layers.set("router.direct_us", mean_us(direct_ns, n));
    layers.set("router.fanout", fanout);
    layers.set("router.reply_bytes", ratio(reply_bytes as f64, n as f64));
    layers.set(
        "router.retries",
        ratio((after.retries - before.retries) as f64, n as f64),
    );
    // The share of the routed request time the replayed layers account
    // for; the rest is the wire.
    layers.set("trace.coverage", ratio(critical_ns as f64, query_ns as f64));
    let traced_qps = n as f64 / (query_ns as f64 / 1e9);
    layers.set("trace.overhead_ratio", ratio(traced_qps, untraced_qps));
    let _ = tracer.save("routed-1d");
    eprintln!("routed-1d traced: {n} replayed queries, {mismatched} differ from direct cpnn_with");
    // The routing-tax account: where a routed query's time goes, next to
    // the direct pipeline on the same points.
    println!(
        "routing tax per query (us): routed {:.1} = own work {:.1} + wire {:.1}; \
         work summed over shards: shard filter {:.1}, codec {:.1}; merge {:.1}, eval {:.1}; \
         direct cpnn_with {:.1} on the same points (fan-out {fanout:.2})",
        mean_us(query_ns, n),
        mean_us(critical_ns, n),
        mean_us(wire_ns, n),
        mean_us(filter_ns, n),
        mean_us(codec_ns, n),
        mean_us(merge_ns, n),
        mean_us(eval_ns, n),
        mean_us(direct_ns, n),
    );
    (layers, (n, mismatched))
}
