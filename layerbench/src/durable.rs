//! Writes: the benchmark's own insert/remove bursts, committed durably
//! through `QueryServer::flush_writes` with a `FileBackend` attached, and
//! the check that recovery returns every acknowledged write.

use std::collections::{HashSet, VecDeque};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use cpnn_core::pipeline::DistanceModel;
use cpnn_core::store::CowModel;
use cpnn_core::{
    EngineConfig, FileBackend, ObjectId, PipelineConfig, QueryServer, UncertainDb, UncertainObject,
};

/// One write of a burst.
#[derive(Debug, Clone)]
pub enum WriteOp<O> {
    Insert(O),
    Remove(u64),
}

/// Ops per write burst: two inserts, then two removes.
const BURST_OPS: usize = 4;

/// The benchmark's own writes. Each burst inserts two new objects and
/// removes the two oldest of its earlier inserts still live, which keeps
/// the object count steady (the first bursts, with too few live inserts,
/// insert only).
#[derive(Debug)]
pub struct OwnWrites {
    live: VecDeque<u64>,
    next_id: u64,
}

impl OwnWrites {
    /// Ids start at `first_id`, far above any data set's.
    pub fn new(first_id: u64) -> Self {
        Self {
            live: VecDeque::new(),
            next_id: first_id,
        }
    }

    pub fn burst<O>(&mut self, mut new_object: impl FnMut(u64) -> O) -> Vec<WriteOp<O>> {
        (0..BURST_OPS)
            .map(|op| {
                if op >= BURST_OPS / 2 && self.live.len() > BURST_OPS {
                    WriteOp::Remove(self.live.pop_front().expect("live insert"))
                } else {
                    let id = self.next_id;
                    self.next_id += 1;
                    self.live.push_back(id);
                    WriteOp::Insert(new_object(id))
                }
            })
            .collect()
    }
}

/// Acknowledged writes, `(id, inserted?)` in commit order.
pub type Acked = Vec<(u64, bool)>;

/// A server over `model` with a `FileBackend` in `dir`, checkpointed.
/// Returns the server and the checkpoint time in seconds.
pub fn durable_server(
    model: Arc<UncertainDb>,
    dir: &Path,
    workers: usize,
    cfg: PipelineConfig,
) -> (QueryServer<UncertainDb>, f64) {
    let _ = std::fs::remove_dir_all(dir);
    let server = QueryServer::start(model, workers, cfg);
    server.attach_storage(Box::new(
        FileBackend::open(dir).expect("open data directory"),
    ));
    let start = Instant::now();
    server.checkpoint_now().expect("initial checkpoint");
    (server, start.elapsed().as_secs_f64())
}

/// Queue one burst and commit it with one flush; returns the failed ops
/// and records the acknowledged ones.
pub fn commit_burst(
    server: &QueryServer<UncertainDb>,
    ops: Vec<WriteOp<UncertainObject>>,
    acked: &mut Acked,
) -> usize {
    let tickets: Vec<_> = ops
        .into_iter()
        .map(|op| match op {
            WriteOp::Insert(o) => (o.id().0, true, server.queue_insert(o)),
            WriteOp::Remove(id) => (id, false, server.queue_remove(ObjectId(id))),
        })
        .collect();
    server.flush_writes();
    let mut failed = 0;
    for (id, insert, ticket) in tickets {
        if ticket.wait().result.is_ok() {
            acked.push((id, insert));
        } else {
            failed += 1;
        }
    }
    failed
}

/// What recovery found.
pub struct Recovery {
    /// Acknowledged writes the recovered model does not reflect (an
    /// acknowledged insert missing, or an acknowledged remove present).
    pub lost: u64,
    /// Other disagreements (object count).
    pub problems: Vec<String>,
    pub version: u64,
    pub recover_s: f64,
}

/// Recover `dir` and check it against the acknowledged writes.
pub fn recover(dir: &Path, acked: &Acked, initial_objects: usize) -> Recovery {
    let start = Instant::now();
    let recovered = FileBackend::open(dir)
        .expect("reopen data directory")
        .recover::<UncertainDb>(&EngineConfig::default())
        .expect("recovery succeeds")
        .expect("checkpoint present");
    let recover_s = start.elapsed().as_secs_f64();
    let mut live: HashSet<u64> = HashSet::new();
    let mut removed: HashSet<u64> = HashSet::new();
    for &(id, inserted) in acked {
        if inserted {
            live.insert(id);
        } else {
            live.remove(&id);
            removed.insert(id);
        }
    }
    let model = &recovered.model;
    let lost = live
        .iter()
        .filter(|id| !model.contains_id(ObjectId(**id)))
        .count()
        + removed
            .iter()
            .filter(|id| model.contains_id(ObjectId(**id)))
            .count();
    let mut problems = Vec::new();
    if model.total_objects() != initial_objects + live.len() {
        problems.push(format!(
            "recovered {} objects, expected {}",
            model.total_objects(),
            initial_objects + live.len()
        ));
    }
    Recovery {
        lost: lost as u64,
        problems,
        version: recovered.version,
        recover_s,
    }
}
