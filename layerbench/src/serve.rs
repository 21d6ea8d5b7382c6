//! `serve-mixed`: a `QueryServer` over the Long Beach analog (2 workers,
//! a per-thread cache of 1,024 entries plus a shared tier of 1,024,
//! quantum 0) with a durable `FileBackend`. Reads arrive open loop at a
//! fixed 1,000 q/s (Zipf(1.1) over 4,096 hot spots); writes arrive at
//! 200 ops/s in bursts of 4 every 20 ms, each burst queued with
//! `queue_insert` / `queue_remove` and committed by `flush_writes` (one
//! fsync'd journal record per burst).
//!
//! Load threads: a read sender, a read completer that waits on the tickets
//! in order and stamps each response as it arrives, and a writer. The
//! writer spends its busy time blocked in fsync; giving a flush to either
//! read thread would stall sends or arrival stamps by the length of an
//! fsync.
//!
//! The two read threads poll (the clock, the head ticket) and yield the
//! processor between polls instead of sleeping or blocking. Server
//! threads therefore get a processor the moment they are runnable, and the
//! processors never go idle. On a virtual machine, waking an idle virtual
//! processor costs hundreds of microseconds and depends on the load other
//! tenants put on the host; with blocking clients that cost, not the
//! server, set the latency and made it swing several-fold between runs.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use cpnn_core::cache::CacheConfig;
use cpnn_core::pipeline::{cpnn_with, CpnnResult};
use cpnn_core::store::CowModel;
use cpnn_core::{
    EngineConfig, ObjectId, PipelineConfig, QueryScratch, QueryServer, ServerStats,
    SharedCacheConfig, UncertainDb, UncertainObject,
};

use crate::common::*;
use crate::durable::{commit_burst, durable_server, recover, Acked, OwnWrites, WriteOp};
use crate::layers::{mean_us, ratio, Layers};
use crate::lb1d::dataset;
use crate::load::{percentile_us, quantile, summarize};
use crate::trace::{Tracer, ROOT};

const WORKERS: usize = 2;
const CACHE_ENTRIES: usize = 1_024;
const READ_RATE: f64 = 1_000.0;
const HOT_SPOTS: usize = 4_096;
const ZIPF: f64 = 1.1;
const BURST_EVERY: Duration = Duration::from_millis(20);
/// Every `SAMPLE_EVERY`-th response is re-checked against its snapshot.
const SAMPLE_EVERY: usize = 16;
/// Reads that fill the caches before measuring (the hit ratio is still
/// climbing after 2,000).
const WARMUP_READS: usize = 8_000;

fn pipeline() -> PipelineConfig {
    PipelineConfig {
        cache: CacheConfig::new(CACHE_ENTRIES, 0.0),
        shared_cache: SharedCacheConfig::new(CACHE_ENTRIES),
        ..EngineConfig::default().pipeline()
    }
}

/// The read stream: Zipf(1.1) ranks over 4,096 hot spots. The hot spots
/// are fixed, like the data (popular places do not move with the seed);
/// the seed draws the sequence of ranks.
fn read_points(seed: u64, count: usize) -> Vec<f64> {
    let mut places = Rng::new(derive_seed(DATA_SEED, "serve-hot-spots"));
    let centers: Vec<f64> = (0..HOT_SPOTS)
        .map(|_| places.range(0.0, 10_000.0))
        .collect();
    let mut cumulative = Vec::with_capacity(HOT_SPOTS);
    let mut total = 0.0;
    for rank in 1..=HOT_SPOTS {
        total += (rank as f64).powf(-ZIPF);
        cumulative.push(total);
    }
    let mut rng = Rng::new(derive_seed(seed, "serve-reads"));
    (0..count)
        .map(|_| {
            let u = rng.range(0.0, total);
            centers[cumulative.partition_point(|&c| c <= u).min(HOT_SPOTS - 1)]
        })
        .collect()
}

/// A fresh interval of the Long Beach median length near `center`.
fn new_interval(id: u64, center: f64, rng: &mut Rng) -> UncertainObject {
    let len = rng.range(4.0, 20.0);
    let lo = (center - len / 2.0).clamp(0.0, 10_000.0 - len);
    UncertainObject::uniform(ObjectId(id), lo, lo + len).expect("valid interval")
}

/// Poll the clock until `due`, yielding the processor between polls.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// Sleep until shortly before `due`, then poll: for the writer, whose
/// bursts are 20 ms apart.
fn sleep_until(due: Instant) {
    let early = due - Duration::from_micros(200);
    let now = Instant::now();
    if early > now {
        std::thread::sleep(early - now);
    }
    wait_until(due);
}

/// A read as the completer sees it.
struct InFlight {
    index: usize,
    due: Instant,
    sent: Instant,
    submitted: Instant,
    ticket: cpnn_core::Ticket,
}

/// State that outlives one open-loop phase: the durable writes, the
/// published snapshots, and the benchmark's own live inserts.
struct Book {
    /// Every published snapshot by version, kept so sampled answers can be
    /// re-checked against the exact version they cite.
    snapshots: HashMap<u64, Arc<UncertainDb>>,
    own: OwnWrites,
    acked: Acked,
    last_version: u64,
    write_failures: u64,
}

/// What one open-loop phase measured.
#[derive(Default)]
struct Phase {
    reads: Vec<(u64, u64)>,
    writes: Vec<(u64, u64)>,
    errors: u64,
    samples: Vec<(f64, u64, CpnnResult)>,
    late_ns: Vec<u64>,
    backlog_max: u64,
    submit_ns: u64,
    queue_wait_ns: u64,
    flush_ns: Vec<u64>,
    cow_ns: u64,
    ops: u64,
    tracer: Option<Tracer>,
}

/// Run reads and writes open loop for `seconds`.
fn open_loop(
    server: &QueryServer<UncertainDb>,
    points: &[f64],
    seconds: f64,
    seed: u64,
    book: &mut Book,
    trace: bool,
) -> Phase {
    let spec1 = spec(1);
    let period = Duration::from_secs_f64(1.0 / READ_RATE);
    let budget = Duration::from_secs_f64(seconds);
    let reads_due = (seconds * READ_RATE) as usize;
    let completed = AtomicU64::new(0);
    let t0 = Instant::now() + Duration::from_millis(2);
    let (tx, rx) = mpsc::channel::<InFlight>();

    std::thread::scope(|scope| {
        // Completer: waits on the tickets in order, polling, and stamps
        // each response when it arrives.
        let completer = scope.spawn(|| {
            let mut phase = Phase {
                tracer: trace.then(|| Tracer::new(4 * reads_due + 16)),
                ..Phase::default()
            };
            let mut req = 0u32;
            let rx = rx;
            loop {
                let f = match rx.try_recv() {
                    Ok(f) => f,
                    Err(mpsc::TryRecvError::Empty) => {
                        std::thread::yield_now();
                        continue;
                    }
                    Err(mpsc::TryRecvError::Disconnected) => break,
                };
                let served = loop {
                    if let Some(served) = f.ticket.try_wait() {
                        break served;
                    }
                    std::thread::yield_now();
                };
                let arrived = Instant::now();
                completed.fetch_add(1, Ordering::Relaxed);
                phase
                    .reads
                    .push((nanos(arrived - t0), nanos(arrived - f.due)));
                match served.result {
                    Ok(result) => {
                        if let Some(tracer) = phase.tracer.as_mut() {
                            let root = tracer.record("request", f.sent, arrived, ROOT, req);
                            tracer.record("server.submit", f.sent, f.submitted, root, req);
                            // The worker's own phase times (filter, init,
                            // verify, refine) as reported in QueryStats,
                            // placed at the end of the response.
                            let eval_time = result.stats.total_time();
                            let eval_start = arrived
                                .checked_sub(eval_time)
                                .unwrap_or(f.sent)
                                .max(f.submitted);
                            tracer.record("pipeline.eval", eval_start, arrived, root, req);
                            let eval = nanos(eval_time);
                            let response = nanos(arrived - f.sent);
                            phase.queue_wait_ns += response.saturating_sub(eval);
                            phase.submit_ns += nanos(f.submitted - f.sent);
                            req += 1;
                        }
                        if f.index % SAMPLE_EVERY == 0 {
                            phase.samples.push((
                                points[f.index % points.len()],
                                served.snapshot_version,
                                result,
                            ));
                        }
                    }
                    Err(_) => phase.errors += 1,
                }
            }
            phase
        });

        // Writer: one burst of 4 ops every 20 ms, committed by one flush.
        let writer = scope.spawn(|| {
            let mut rng = Rng::new(derive_seed(
                seed,
                if trace {
                    "serve-writes-traced"
                } else {
                    "serve-writes"
                },
            ));
            let (mut writes, mut flush_ns, mut cow_ns, mut ops) =
                (Vec::new(), Vec::new(), 0u64, 0u64);
            for b in 0u32.. {
                let due = t0 + BURST_EVERY * b + BURST_EVERY / 2;
                if due - t0 >= budget {
                    break;
                }
                sleep_until(due);
                let base = server.snapshot();
                let burst = book.own.burst(|id| {
                    let center =
                        points[rng.next_u64() as usize % points.len()] + rng.range(-3.0, 3.0);
                    new_interval(id, center, &mut rng)
                });
                let replay = trace.then(|| burst.clone());
                ops += burst.len() as u64;
                let acked_before = book.acked.len();
                let flush_start = Instant::now();
                book.write_failures += commit_burst(server, burst, &mut book.acked) as u64;
                let acked_at = Instant::now();
                flush_ns.push(nanos(acked_at - flush_start));
                let n = book.acked.len() - acked_before;
                writes.extend(std::iter::repeat_n(
                    (nanos(acked_at - t0), nanos(acked_at - due)),
                    n,
                ));
                // The only writer: the current snapshot is this burst's.
                let snap = server.snapshot();
                book.last_version = snap.version;
                book.snapshots.entry(snap.version).or_insert(snap.model);
                if let Some(burst) = replay {
                    // The burst replayed as copy-on-write successor builds
                    // on the snapshot it was applied to.
                    let start = Instant::now();
                    let mut model = (*base.model).clone();
                    for op in burst {
                        model = match op {
                            WriteOp::Insert(o) => model.with_inserted(o).expect("cow insert"),
                            WriteOp::Remove(id) => model.with_removed(ObjectId(id)).0,
                        };
                    }
                    cow_ns += nanos(start.elapsed());
                }
            }
            (writes, flush_ns, cow_ns, ops)
        });

        // Sender (this thread): reads on a fixed schedule.
        let mut late = Vec::with_capacity(reads_due);
        let mut backlog_max = 0u64;
        for i in 0..reads_due {
            let due = t0 + period * i as u32;
            wait_until(due);
            let sent = Instant::now();
            let ticket = server.submit(points[i % points.len()], spec1);
            let submitted = Instant::now();
            late.push(nanos(sent - due));
            backlog_max = backlog_max.max(i as u64 + 1 - completed.load(Ordering::Relaxed));
            tx.send(InFlight {
                index: i,
                due,
                sent,
                submitted,
                ticket,
            })
            .expect("completer alive");
        }
        drop(tx);
        let mut phase = completer.join().expect("completer exits cleanly");
        let (writes, flush_ns, cow_ns, ops) = writer.join().expect("writer exits cleanly");
        phase.writes = writes;
        phase.flush_ns = flush_ns;
        phase.cow_ns = cow_ns;
        phase.ops = ops;
        phase.late_ns = late;
        phase.backlog_max = backlog_max;
        phase
    })
}

/// A started server with its durable store, checkpointed and warmed up.
fn start_server(dir: &Path, points: &[f64]) -> (QueryServer<UncertainDb>, Arc<UncertainDb>, f64) {
    let db = Arc::new(
        UncertainDb::with_config(dataset(), EngineConfig::default()).expect("dataset builds"),
    );
    let (server, checkpoint_s) = durable_server(Arc::clone(&db), dir, WORKERS, pipeline());
    // Warm-up: fill both cache tiers from the head of the read stream.
    let tickets: Vec<_> = points
        .iter()
        .take(WARMUP_READS)
        .map(|q| server.submit(*q, spec(1)))
        .collect();
    for t in tickets {
        t.wait().result.expect("warm-up query");
    }
    (server, db, checkpoint_s)
}

pub fn run(opts: Opts) -> Outcome {
    let work = work_dir("serve-mixed");
    let points = read_points(
        opts.seed,
        ((opts.seconds * READ_RATE) as usize).max(WARMUP_READS) + WARMUP_READS,
    );
    let mut checkpoint_times = Vec::new();
    let mut rep = 0;
    let ((server, db, dir), setup_s) = timed_setup(|| {
        rep += 1;
        let dir: PathBuf = work.join(format!("data{rep}"));
        let (server, db, checkpoint_s) = start_server(&dir, &points);
        checkpoint_times.push(checkpoint_s);
        (server, db, dir)
    });
    // Remove the data directories of the discarded set-ups.
    for r in 1..rep {
        let _ = std::fs::remove_dir_all(work.join(format!("data{r}")));
    }
    let stream = &points[WARMUP_READS..];
    let mut book = Book {
        snapshots: HashMap::from([(0, Arc::clone(&db))]),
        own: OwnWrites::new(500_000_000),
        acked: Acked::new(),
        last_version: 0,
        write_failures: 0,
    };
    let initial_objects = db.len();
    // Untraced phase (the whole run with --trace 0, its first half with
    // --trace 1), then the traced phase.
    let untraced_s = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let main = open_loop(&server, stream, untraced_s, opts.seed, &mut book, false);
    let stats_before = server.stats();
    let traced = opts.trace.then(|| {
        open_loop(
            &server,
            stream,
            opts.seconds / 2.0,
            opts.seed,
            &mut book,
            true,
        )
    });
    let stats_after = server.stats();
    // Peak memory of the server and the load, read before recovery builds
    // a second model. It includes the snapshots kept for the answer check.
    let peak_mb = peak_rss_mb();
    drop(server);
    let wal_bytes = std::fs::metadata(dir.join("wal.cpwl"))
        .map(|m| {
            m.len()
                .saturating_sub(cpnn_core::storage::wal_header().len() as u64)
        })
        .unwrap_or(0);

    // Durability: everything acknowledged must come back from disk.
    let recovery = recover(&dir, &book.acked, initial_objects);
    let lost = recovery.lost;
    let mut out = Outcome::default();
    for problem in recovery.problems {
        out.broke(problem);
    }
    if recovery.version != book.last_version {
        out.broke(format!(
            "recovered version {} but {} was acknowledged",
            recovery.version, book.last_version
        ));
    }

    // Answers: each sampled response against its cited snapshot.
    let phases: Vec<&Phase> = std::iter::once(&main).chain(traced.as_ref()).collect();
    let cfg = EngineConfig::default().pipeline();
    let mut scratch = QueryScratch::new();
    let mut wrong = 0u64;
    let mut checked = 0u64;
    for phase in &phases {
        for (q, version, result) in &phase.samples {
            checked += 1;
            let ok = book.snapshots.get(version).is_some_and(|snap| {
                cpnn_with(snap.as_ref(), q, &spec(1), &cfg, &mut scratch)
                    .is_ok_and(|d| same_reports(&d, result))
            });
            wrong += u64::from(!ok);
        }
    }
    let reads: u64 = phases.iter().map(|p| p.reads.len() as u64).sum();
    let ops: u64 = phases.iter().map(|p| p.ops).sum();
    let errors: u64 = phases.iter().map(|p| p.errors).sum();
    out.gate(reads, errors);
    out.gate(checked, wrong);
    out.gate(ops, book.write_failures);
    out.gate(book.acked.len() as u64, lost);
    let reads_summary = summarize(&main.reads);
    let writes_summary = summarize(&main.writes);
    eprintln!(
        "serve-mixed: {reads} reads, {ops} writes ({} acknowledged), {checked} answers re-checked \
         ({wrong} wrong), {lost} acknowledged writes lost on recovery",
        book.acked.len(),
    );
    let _ = std::fs::remove_dir_all(&work);

    match traced {
        None => out.end_to_end(setup_s, &reads_summary, peak_mb),
        Some(t) => {
            let mut layers = traced_layers(&t, reads_summary.rate, &stats_before, &stats_after);
            layers.set(
                "storage.wal_bytes_per_op",
                ratio(wal_bytes as f64, ops as f64),
            );
            layers.set("storage.checkpoint_s", quantile(&mut checkpoint_times, 0.5));
            layers.set("storage.recover_s", recovery.recover_s);
            layers.set_tails(&reads_summary);
            layers.set("load.write_ack_p50_us", writes_summary.p50_us);
            layers.set("load.write_ack_p99_us", writes_summary.p99_us);
            layers.emit(&mut out);
        }
    }
    out
}

fn traced_layers(
    t: &Phase,
    untraced_qps: f64,
    before: &ServerStats,
    after: &ServerStats,
) -> Layers {
    let mut layers = Layers::default();
    let n = t.reads.len() as u64;
    let hits = after.cache_hits - before.cache_hits;
    let misses = after.cache_misses - before.cache_misses;
    let shared = after.shared_hits - before.shared_hits;
    let outcome = after.outcome_hits - before.outcome_hits;
    let lookups = (hits + misses + shared) as f64;
    layers.set("cache.hit_ratio", ratio(hits as f64, lookups));
    layers.set("cache.shared_hit_ratio", ratio(shared as f64, lookups));
    layers.set("cache.outcome_hit_ratio", ratio(outcome as f64, lookups));
    layers.set("server.submit_us", mean_us(t.submit_ns, n));
    layers.set("server.queue_wait_us", mean_us(t.queue_wait_ns, n));
    layers.set("server.backlog_max", t.backlog_max as f64);
    let bursts = t.flush_ns.len() as u64;
    layers.set("store.cow_us", mean_us(t.cow_ns, bursts));
    layers.set("storage.flush_us", mean_us(t.flush_ns.iter().sum(), bursts));
    let records = after.wal_records - before.wal_records;
    layers.set("storage.fsyncs_per_op", ratio(records as f64, t.ops as f64));
    let mut late = t.late_ns.clone();
    late.sort_unstable();
    layers.set("load.late_p99_us", percentile_us(&late, 0.99));
    layers.set("load.late_max_us", percentile_us(&late, 1.0));
    if let Some(tracer) = &t.tracer {
        layers.set("trace.coverage", tracer.coverage());
        let _ = tracer.save("serve-mixed");
    }
    let traced_qps = summarize(&t.reads).rate;
    layers.set("trace.overhead_ratio", ratio(traced_qps, untraced_qps));
    layers
}
