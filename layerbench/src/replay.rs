//! The back half of a C-PNN query (table → verifier stages → refine),
//! replayed one public call at a time under spans. The replay must give
//! the same verdicts and bit-identical bounds as `pipeline::cpnn_with`;
//! callers check that on every replayed query.

use std::collections::BTreeMap;

use cpnn_core::framework::{classify_all, default_verifiers, knn_verifiers};
use cpnn_core::pipeline::{CpnnResult, ObjectReport, QueryStats};
use cpnn_core::refine::{incremental_refine_with, RefinementOrder};
use cpnn_core::verifiers::{kernels, VerificationState};
use cpnn_core::{CandidateSet, Classifier, Label, SubregionTable};

use crate::common::{DELTA, P};
use crate::layers::{mean_us, ratio, Layers};
use crate::trace::Tracer;

/// Span / metric name of a verifier stage.
fn stage_metric(verifier: &str) -> (&'static str, &'static str) {
    match verifier {
        "RS" => ("verifiers.rs", "verifiers.unknown_after_rs"),
        "L-SR" => ("verifiers.lsr", "verifiers.unknown_after_lsr"),
        "U-SR" => ("verifiers.usr", "verifiers.unknown_after_usr"),
        "SR-k" => ("knn.srk", "knn.unknown_after_srk"),
        other => panic!("unexpected verifier stage {other}"),
    }
}

/// Totals over every replayed query.
#[derive(Debug, Default)]
pub struct EvalTally {
    queries: u64,
    table_ns: u64,
    cells: u64,
    /// Stage span name → total ns.
    stage_ns: BTreeMap<&'static str, u64>,
    /// Unknown-after metric name → (Σ unknown, Σ |C| of queries whose
    /// chain has that stage).
    unknown: BTreeMap<&'static str, (u64, u64)>,
    refine_ns: u64,
    refined_objects: u64,
    integrations: u64,
}

impl EvalTally {
    /// Write the subregion / verifier / knn / refine metrics.
    pub fn emit(&self, layers: &mut Layers) {
        let n = self.queries;
        layers.set("subregion.build_us", mean_us(self.table_ns, n));
        layers.set("subregion.cells", ratio(self.cells as f64, n as f64));
        for (span, metric) in [
            ("verifiers.rs", "verifiers.rs_us"),
            ("verifiers.lsr", "verifiers.lsr_us"),
            ("verifiers.usr", "verifiers.usr_us"),
            ("knn.srk", "knn.srk_us"),
        ] {
            layers.set(
                metric,
                mean_us(self.stage_ns.get(span).copied().unwrap_or(0), n),
            );
        }
        for (&metric, &(unknown, total)) in &self.unknown {
            layers.set(metric, ratio(unknown as f64, total as f64));
        }
        layers.set("refine.us", mean_us(self.refine_ns, n));
        layers.set(
            "refine.objects_per_query",
            ratio(self.refined_objects as f64, n as f64),
        );
        layers.set(
            "refine.integrations_per_query",
            ratio(self.integrations as f64, n as f64),
        );
    }
}

/// Build the table, run the verifier chain stage by stage, and refine —
/// each under its own span, children of `parent`.
pub fn evaluate(
    tracer: &mut Tracer,
    parent: u32,
    request: u32,
    cands: &CandidateSet,
    k: usize,
    state: &mut VerificationState,
    tally: &mut EvalTally,
) -> CpnnResult {
    let classifier = Classifier::new(P, DELTA).expect("valid threshold");
    let (table, ns) = tracer.span("subregion.build", parent, request, || {
        SubregionTable::build(cands)
    });
    tally.queries += 1;
    tally.table_ns += ns;
    tally.cells += (table.n_objects() * table.subregion_count()) as u64;

    state.reset(&table);
    let chain = if k == 1 {
        default_verifiers()
    } else {
        knn_verifiers(k)
    };
    let n = cands.len() as u64;
    let mut resolved = false;
    for v in &chain {
        let (span, unknown_metric) = stage_metric(v.name());
        let unknown = tally.unknown.entry(unknown_metric).or_default();
        unknown.1 += n;
        if resolved {
            continue;
        }
        let (_, ns) = tracer.span(span, parent, request, || {
            v.apply(&table, state);
            classify_all(&classifier, state);
        });
        *tally.stage_ns.entry(span).or_default() += ns;
        unknown.0 += state.unknown_count() as u64;
        resolved = state.unknown_count() == 0;
    }

    let (report, ns) = tracer.span("refine", parent, request, || {
        if k == 1 {
            incremental_refine_with(
                &table,
                &classifier,
                state,
                RefinementOrder::DescendingMass,
                |i, j, scr| kernels::nn_qualification(&table, i, j, scr),
            )
        } else {
            incremental_refine_with(
                &table,
                &classifier,
                state,
                RefinementOrder::DescendingMass,
                |i, j, scr| kernels::knn_qualification(&table, i, j, k, scr),
            )
        }
    });
    tally.refine_ns += ns;
    tally.refined_objects += report.refined_objects as u64;
    tally.integrations += report.integrations as u64;

    let reports: Vec<ObjectReport> = cands
        .members()
        .iter()
        .zip(state.bounds.iter().zip(&state.labels))
        .map(|(m, (&bound, &label))| ObjectReport {
            id: m.id,
            bound,
            label,
        })
        .collect();
    let mut answers: Vec<_> = reports
        .iter()
        .filter(|r| r.label == Label::Satisfy)
        .map(|r| r.id)
        .collect();
    answers.sort_unstable();
    CpnnResult {
        answers,
        reports,
        stats: QueryStats::default(),
    }
}
