//! Per-layer metrics: the list BENCHMARK.json declares, and how the traced
//! run's span and counter aggregates turn into them.
//!
//! Every traced run reports every metric. A metric that belongs to a layer
//! the workload never enters reads 0: that layer did no work. Times are
//! always span total ÷ span count, never the aggregator's log₂-bucket
//! quantiles.

use std::collections::BTreeMap;

use dance_telemetry::span::{SpanAgg, SpanStats};

use crate::Outcome;

/// Per-layer metrics, in BENCHMARK.json order.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("core.weight_step_ms", "ms"),
    ("core.arch_step_ms", "ms"),
    ("core.epoch_other_ms", "ms"),
    ("autograd.backward_ms_per_step", "ms"),
    ("autograd.tape_nodes_per_step", "count"),
    ("nas.supernet_fwd_bwd_ms", "ms"),
    ("backend.linear_gflops", "GFLOP/s"),
    ("backend.linear_gbps", "GB/s"),
    ("backend.matmul_gflops", "GFLOP/s"),
    ("backend.dwconv_gflops", "GFLOP/s"),
    ("backend.small_op_us", "us"),
    ("backend.arena_reuse_frac", "fraction"),
    ("evaluator.predict_metrics_us", "us"),
    ("evaluator.hwgen_epoch_ms", "ms"),
    ("evaluator.cost_epoch_ms", "ms"),
    ("evaluator.train_rows_per_s", "1/s"),
    ("hwgen.table_build_s", "s"),
    ("hwgen.optimal_us", "us"),
    ("hwgen.exhaustive_ms", "ms"),
    ("hwgen.branch_and_bound_ms", "ms"),
    ("hwgen.gt_samples_per_s", "1/s"),
    ("cost.evaluate_us", "us"),
    ("plan.freeze_ms", "ms"),
    ("plan.run_b1_us", "us"),
    ("plan.run_b8_us_per_row", "us"),
    ("plan.tape_b1_us", "us"),
    ("serve.cache_hit_rate", "fraction"),
    ("serve.p50_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.analytic_p50_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.miss_wait_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.gen_late_ms", "ms"),
    ("guard.checkpoint_save_ms", "ms"),
    ("guard.atomic_write_us", "us"),
    ("fleet.job_p50_s", "s"),
    ("fleet.ledger_saves_per_job", "count"),
    ("fleet.lease_renewals_per_job", "count"),
    ("fleet.worker_busy_frac", "fraction"),
    ("fleet.reclaims", "count"),
    ("fleet.fenced", "count"),
    ("telemetry.overhead_frac", "fraction"),
];

/// Span total ÷ count in nanoseconds (0 for an empty span).
pub fn mean_ns(s: &SpanStats) -> f64 {
    if s.count == 0 {
        0.0
    } else {
        s.total_ns as f64 / s.count as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer values derived from the traced workload's own aggregates,
/// plus the values the workload measured itself.
pub fn from_telemetry(
    spans: &[SpanAgg],
    counters: &BTreeMap<String, u64>,
    out: &Outcome,
) -> BTreeMap<&'static str, f64> {
    let span = |name: &str| {
        spans
            .iter()
            .find(|a| a.name == name)
            .map(|a| a.stats.clone())
            .unwrap_or_default()
    };
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    let (weight, arch, epoch) = (
        span("search.weight_step"),
        span("search.arch_step"),
        span("search.epoch"),
    );
    let backward = span("autograd.backward");
    let mut m = BTreeMap::new();
    m.insert("core.weight_step_ms", mean_ns(&weight) / 1e6);
    m.insert("core.arch_step_ms", mean_ns(&arch) / 1e6);
    m.insert(
        "core.epoch_other_ms",
        ratio(
            epoch.total_ns as f64 - weight.total_ns as f64 - arch.total_ns as f64,
            epoch.count as f64,
        ) / 1e6,
    );
    m.insert("autograd.backward_ms_per_step", mean_ns(&backward) / 1e6);
    m.insert(
        "autograd.tape_nodes_per_step",
        ratio(counter("tape.nodes"), backward.count as f64),
    );
    let (reuse, fresh) = (counter("arena.reuse"), counter("arena.fresh"));
    m.insert("backend.arena_reuse_frac", ratio(reuse, reuse + fresh));
    m.insert(
        "evaluator.hwgen_epoch_ms",
        mean_ns(&span("evaluator.hwgen.epoch")) / 1e6,
    );
    m.insert(
        "evaluator.cost_epoch_ms",
        mean_ns(&span("evaluator.cost.epoch")) / 1e6,
    );
    m.extend(out.layer.iter().map(|(k, v)| (*k, *v)));
    m
}

/// The fleet's durable-write and lease counters per finished job (0 when
/// no fleet ran).
pub fn fleet_counters(counters: &BTreeMap<String, u64>) -> [(&'static str, f64); 2] {
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    let jobs = counter("fleet.jobs.done");
    [
        (
            "fleet.ledger_saves_per_job",
            ratio(counter("fleet.ledger.saves"), jobs),
        ),
        (
            "fleet.lease_renewals_per_job",
            ratio(counter("fleet.lease.renewed"), jobs),
        ),
    ]
}

/// Folds in the probe values and the metrics derived from both sides.
pub fn finish(m: &mut BTreeMap<&'static str, f64>, probed: &BTreeMap<&'static str, f64>) {
    m.extend(probed.iter().map(|(k, v)| (*k, *v)));
    if let (Some(&miss), Some(&run_b1)) = (m.get("serve.miss_p50_ms"), m.get("plan.run_b1_us")) {
        if miss > 0.0 {
            m.insert("serve.miss_wait_ms", miss - run_b1 / 1e3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
    }

    #[test]
    fn miss_wait_subtracts_the_plan_run() {
        let mut m = BTreeMap::from([("serve.miss_p50_ms", 1.5)]);
        finish(&mut m, &BTreeMap::from([("plan.run_b1_us", 300.0)]));
        assert!((m["serve.miss_wait_ms"] - 1.2).abs() < 1e-12);
    }
}
