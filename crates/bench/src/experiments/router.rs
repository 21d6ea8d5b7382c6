//! Distributed-serving experiment — beyond the paper: what the socket
//! hop costs. The same VR workload runs both ways:
//!
//! * **direct** — in-process [`cpnn`] over the flat [`UncertainDb`] (the
//!   answer the router must match bit-for-bit), measured once;
//! * **routed**, per shard count — through a [`QueryRouter`] fanning out to one shard
//!   *server* per shard over Unix sockets, candidates shipped back raw
//!   and verified router-side.
//!
//! The gap between the columns is the entire distribution tax: framing,
//! checksums, histogram transport, and the router-side merge. Horizon
//! pruning keeps the fan-out per query well under the shard count, so
//! the tax should grow far slower than linearly in shards; tail
//! latencies (p95/p99) surface the per-connection round-trip cost that
//! means hide.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cpnn_core::pipeline::cpnn;
use cpnn_core::{QueryServer, QuerySpec, ShardableModel, ShardedDb, Strategy, UncertainDb};
use cpnn_router::{
    QueryRouter, RouterConfig, ShardAddr, ShardListener, ShardMap, ShardServeConfig,
    ShardServerHandle,
};

use crate::experiments::{longbeach_db, workload_queries, DEFAULT_DELTA, DEFAULT_P};
use crate::report::Table;

/// Shard-process counts to sweep (the acceptance set of the routed
/// equivalence proof).
const SHARD_SWEEP: [usize; 3] = [1, 2, 4];

/// One shard server per shard of `db`, on Unix sockets under `dir`,
/// plus the map a router needs to reach them.
fn spawn_fleet(
    db: &ShardedDb<UncertainDb>,
    dir: &std::path::Path,
) -> (Vec<ShardServerHandle<UncertainDb>>, ShardMap) {
    let mut handles = Vec::new();
    let mut addrs = Vec::new();
    for i in 0..db.num_shards() {
        let model =
            UncertainDb::with_config(db.shard_model(i).shard_objects(), *db.shard_configuration())
                .expect("shard model rebuilds");
        let server = Arc::new(QueryServer::start(model, 1, db.pipeline_config()));
        let addr = ShardAddr::Unix(dir.join(format!("s{i}.sock")));
        let listener = ShardListener::bind(&addr).expect("bind shard socket");
        handles.push(
            ShardServerHandle::spawn(server, listener, ShardServeConfig::default())
                .expect("spawn shard server"),
        );
        addrs.push(addr);
    }
    let map = ShardMap {
        axis: db.partition_axis(),
        bounds: db.slab_bounds().to_vec(),
        addrs,
    };
    (handles, map)
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn us(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e6)
}

/// Run the experiment. Rows sweep the shard-process count; columns
/// compare routed and direct execution of the identical workload
/// (queries/s and routed latency percentiles), and report the mean
/// per-query fan-out after horizon pruning.
pub fn run(quick: bool) -> Table {
    let flat = longbeach_db(quick);
    let queries = workload_queries(quick);
    let spec = QuerySpec::nn(DEFAULT_P, DEFAULT_DELTA, Strategy::Verified);
    let dir = std::env::temp_dir().join(format!("cpnn-bench-router-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench socket dir");

    let mut table = Table::new(
        "Router",
        "Distributed serving: routed (Unix sockets) vs in-process, VR strategy",
        &[
            "shard procs",
            "routed q/s",
            "p50 (us)",
            "p95 (us)",
            "p99 (us)",
            "direct q/s",
            "routed/direct",
            "fanout/query",
        ],
    );
    // Direct baseline: the flat in-process pipeline the router must match.
    let cfg = flat.config().pipeline();
    let start = Instant::now();
    for q in &queries {
        cpnn(&flat, q, &spec, &cfg).expect("direct query");
    }
    let direct_wall = start.elapsed();
    let direct_qps = queries.len() as f64 / direct_wall.as_secs_f64();

    for &shards in &SHARD_SWEEP {
        let sharded = ShardedDb::build(flat.shard_objects(), *flat.config(), shards)
            .expect("shardable workload");
        let (handles, map) = spawn_fleet(&sharded, &dir);
        let router_cfg = RouterConfig {
            timeout: Duration::from_secs(30),
            retries: 1,
            backoff: Duration::from_millis(10),
        };
        let mut router: QueryRouter<UncertainDb> =
            QueryRouter::connect(&map, cfg, router_cfg).expect("connect to fleet");
        // One warm-up pass so connection setup and first-touch page
        // faults stay out of the measured distribution.
        for q in queries.iter().take(queries.len().min(8)) {
            router.query(q, &spec).expect("warm-up query");
        }
        let fanned_before = router.router_stats().fanned_out;
        let mut lat = Vec::with_capacity(queries.len());
        let start = Instant::now();
        for q in &queries {
            let t = Instant::now();
            let routed = router.query(q, &spec).expect("routed query");
            lat.push(t.elapsed());
            debug_assert!(!routed.answers.is_empty() || routed.stats.candidates == 0);
        }
        let routed_wall = start.elapsed();
        let fanout =
            (router.router_stats().fanned_out - fanned_before) as f64 / queries.len() as f64;
        for h in handles {
            h.shutdown();
        }

        lat.sort();
        let routed_qps = queries.len() as f64 / routed_wall.as_secs_f64();
        table.push_row(vec![
            shards.to_string(),
            format!("{routed_qps:.0}"),
            us(percentile(&lat, 0.50)),
            us(percentile(&lat, 0.95)),
            us(percentile(&lat, 0.99)),
            format!("{direct_qps:.0}"),
            format!(
                "{:.2}x",
                direct_wall.as_secs_f64() / routed_wall.as_secs_f64().max(1e-12)
            ),
            format!("{fanout:.2}"),
        ]);
    }
    let _ = std::fs::remove_dir_all(&dir);
    table.note(format!(
        "{} queries, p = {DEFAULT_P}, delta = {DEFAULT_DELTA}; shard servers run the filter \
         phase only, candidates verified once router-side (the equivalence-proof seam); \
         routed/direct < 1 is the socket+codec tax",
        queries.len()
    ));
    table
}
