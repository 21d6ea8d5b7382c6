//! The per-layer metrics a traced run prints. Every run prints every
//! name; a layer the workload does not run reads 0 (see METRICS.md for
//! which workload each metric applies to).

use std::collections::BTreeMap;

use crate::common::Outcome;
use crate::load::Summary;

/// `(name, unit)` in print order.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("rtree.prune_us", "us"),
    ("rtree.candidates_per_query", "count"),
    ("distance.fold_us", "us"),
    ("distance.rebin_us", "us"),
    ("distance.support_used_ratio", "ratio"),
    ("candidate.assemble_us", "us"),
    ("candidate.kept_ratio", "ratio"),
    ("engine2d.dist_us", "us"),
    ("engine2d.dists_per_query", "count"),
    ("subregion.build_us", "us"),
    ("subregion.cells", "count"),
    ("verifiers.rs_us", "us"),
    ("verifiers.lsr_us", "us"),
    ("verifiers.usr_us", "us"),
    ("verifiers.unknown_after_rs", "ratio"),
    ("verifiers.unknown_after_lsr", "ratio"),
    ("verifiers.unknown_after_usr", "ratio"),
    ("knn.srk_us", "us"),
    ("knn.unknown_after_srk", "ratio"),
    ("refine.us", "us"),
    ("refine.objects_per_query", "count"),
    ("refine.integrations_per_query", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.shared_hit_ratio", "ratio"),
    ("cache.outcome_hit_ratio", "ratio"),
    ("server.submit_us", "us"),
    ("server.queue_wait_us", "us"),
    ("server.backlog_max", "count"),
    ("store.cow_us", "us"),
    ("storage.flush_us", "us"),
    ("storage.wal_bytes_per_op", "B"),
    ("storage.fsyncs_per_op", "count"),
    ("storage.checkpoint_s", "s"),
    ("storage.recover_s", "s"),
    ("router.query_us", "us"),
    ("router.shard_filter_us", "us"),
    ("router.codec_us", "us"),
    ("router.merge_us", "us"),
    ("router.eval_us", "us"),
    ("router.wire_us", "us"),
    ("router.direct_us", "us"),
    ("router.fanout", "count"),
    ("router.reply_bytes", "B"),
    ("router.retries", "count"),
    ("load.query_p99_us", "us"),
    ("load.write_ack_p50_us", "us"),
    ("load.write_ack_p99_us", "us"),
    ("load.late_p99_us", "us"),
    ("load.late_max_us", "us"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Values collected by a traced run, keyed by metric name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            LAYER_METRICS.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// The query p99 of the untraced half of a traced run. It is reported
    /// here, without a bound, because on a virtual machine shared with
    /// other tenants it moves with their load by more than the largest
    /// bound an end-to-end metric may have (see METRICS.md).
    pub fn set_tails(&mut self, reads: &Summary) {
        self.set("load.query_p99_us", reads.p99_us);
    }

    /// Append every per-layer metric, in table order, to `out`.
    pub fn emit(&self, out: &mut Outcome) {
        for &(name, unit) in LAYER_METRICS {
            let unit: &'static str = unit;
            out.metric(name, self.get(name), unit);
        }
    }
}

/// Mean of a nanosecond total over `n` items, in µs.
pub fn mean_us(total_ns: u64, n: u64) -> f64 {
    total_ns as f64 / 1e3 / n.max(1) as f64
}

/// `num / den`, 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
