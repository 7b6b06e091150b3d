//! `search`: DANCE co-exploration on `Benchmark::cifar` with the hardware
//! cost flowing through a width-128 evaluator (`Penalty::Evaluator`, EDAP),
//! a λ₂ ramp and a durable checkpoint every epoch.
//!
//! The run repeats one fixed search until the time budget is spent (at
//! least twice), so every repeat must reproduce the same arch-digest. The
//! timed operation is the epoch, read from the search's epoch observer,
//! which also samples the reference kernel outside the epoch's timing.

use std::time::Instant;

use dance::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::reference::Reference;
use crate::{digests, stats, Check, Ctx, Outcome};

const EPOCHS: usize = 3;
const BATCH: usize = 64;
const LAMBDA2: f32 = 0.3;
/// Set-ups before the first search; one more is timed after each search,
/// so the set-up median spans the run like the epochs do.
const SETUP_REPS: usize = 3;
/// Hidden width of the evaluator (the paper's width).
pub const EVAL_WIDTH: usize = 128;
/// Seed of the evaluator's fixed weights.
pub const EVAL_SEED: u64 = 0;

/// An untrained, fixed-seed width-128 evaluator with feature forwarding.
pub fn evaluator(sampling: HeadSampling) -> Evaluator {
    let arch_width = NetworkTemplate::cifar10().num_slots() * SlotChoice::CANDIDATES.len();
    let mut rng = StdRng::seed_from_u64(EVAL_SEED);
    let hwgen = HwGenNet::new(arch_width, EVAL_WIDTH, &mut rng);
    let cost = CostNet::new(
        arch_width + dance::accel::space::ENCODED_WIDTH,
        EVAL_WIDTH,
        &mut rng,
    );
    Evaluator::with_feature_forwarding(hwgen, cost, arch_width, sampling)
}

struct Setup {
    pipeline: Pipeline,
    evaluator: Evaluator,
    reference: f64,
}

fn set_up(seed: u64) -> Setup {
    let pipeline = {
        let _span = dance_telemetry::span!("perfbench.pipeline.new");
        Pipeline::new(Benchmark::cifar(seed), CostFunction::Edap)
    };
    let reference = pipeline.reference_cost();
    Setup {
        pipeline,
        evaluator: evaluator(HeadSampling::Gumbel { tau: 1.0 }),
        reference,
    }
}

fn search_once(
    s: &Setup,
    seed: u64,
    ckpt: &std::path::Path,
    on_epoch: &mut dyn FnMut(&EpochStats),
) -> SearchOutcome {
    let bench = &s.pipeline.benchmark;
    let mut rng = StdRng::seed_from_u64(seed);
    let net = Supernet::new(bench.supernet, &mut rng);
    let arch = ArchParams::new(bench.template.num_slots(), &mut rng);
    let cfg = SearchConfig::builder()
        .epochs(EPOCHS)
        .batch_size(BATCH)
        .lambda2(LambdaWarmup::ramp(LAMBDA2, EPOCHS))
        .seed(seed)
        .build()
        .expect("the search workload's configuration is valid");
    let guard = GuardConfig {
        checkpoint: Some(CheckpointConfig::every_epoch(ckpt)),
        cost_fallback: None,
        ..GuardConfig::default()
    };
    let penalty = Penalty::Evaluator {
        evaluator: &s.evaluator,
        cost_fn: s.pipeline.cost_fn,
        reference: s.reference,
    };
    let _span = dance_telemetry::span!("perfbench.dance_search_traced");
    dance_search_traced(&net, &arch, &bench.data, &penalty, &cfg, &guard, on_epoch)
}

/// The arch-digest of one search for `seed` (for recording digests).
pub fn digest(seed: u64, ckpt: &std::path::Path) -> u64 {
    search_once(&set_up(seed), seed, ckpt, &mut |_| {}).digest()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut t0 = ctx.started;
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        setup = Some(set_up(ctx.seed));
        out.setup_s.push(t0.elapsed().as_secs_f64());
        t0 = Instant::now();
    }
    let setup = setup.expect("at least one set-up");
    let ckpt = ctx.work.join("search-ckpt");
    let begin = Instant::now();
    let mut epoch_ms = Vec::new();
    let mut ref_ms = Vec::new();
    let mut reference = Reference::new();
    let mut digests_seen = Vec::new();
    while digests_seen.len() < 2 || begin.elapsed().as_secs_f64() < ctx.seconds {
        // A fresh directory per repeat: every repeat writes all its epochs.
        let _ignored = std::fs::remove_dir_all(&ckpt);
        let mut last = Instant::now();
        let result = search_once(&setup, ctx.seed, &ckpt, &mut |_| {
            epoch_ms.push(last.elapsed().as_secs_f64() * 1e3);
            ref_ms.push(reference.sample_ms());
            last = Instant::now();
        });
        out.attempted += 1;
        let g = &result.guard;
        let clean = !g.cost_model_degraded
            && g.watchdog_trips == 0
            && g.rollbacks == 0
            && g.checkpoints_written as usize == EPOCHS
            && result.history.len() == EPOCHS;
        if !clean {
            out.failed += 1;
            out.checks.push(Check::new(
                "search.guard_report",
                false,
                format!("repeat {}: {g:?}", digests_seen.len()),
            ));
        }
        digests_seen.push(result.digest());
        let t = Instant::now();
        drop(set_up(ctx.seed));
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    if out.failed == 0 {
        out.checks.push(Check::new(
            "search.guard_report",
            true,
            "evaluator path kept, no watchdog trips, one checkpoint per epoch",
        ));
    }
    out.checks.push(digests::check(
        "search.arch_digest",
        digests::SEARCH,
        ctx.seed,
        &digests_seen,
    ));
    // The first epoch of the first repeat pays the warm-up.
    let timed = &epoch_ms[1..];
    let rows = setup.pipeline.benchmark.data.train.len() as f64;
    out.ops_per_s = rows * timed.len() as f64 / (timed.iter().sum::<f64>() / 1e3);
    out.work_ms = stats::median(timed);
    out.op_ms = timed.to_vec();
    out.ref_ms = ref_ms[1..].to_vec();
    out.params = vec![
        ("benchmark", "cifar".into()),
        ("penalty", "evaluator".into()),
        ("cost_fn", "edap".into()),
        ("eval_width", EVAL_WIDTH.to_string()),
        ("eval_heads", "gumbel tau=1".into()),
        ("eval_seed", EVAL_SEED.to_string()),
        ("epochs_per_search", EPOCHS.to_string()),
        ("batch", BATCH.to_string()),
        ("lambda2", format!("ramp to {LAMBDA2} over {EPOCHS} epochs")),
        ("checkpoint", "every epoch".into()),
        ("cost_fallback", "none".into()),
        ("searches", digests_seen.len().to_string()),
        ("op", "search epoch".into()),
        ("ops_per_s", "training rows per second".into()),
    ];
    out
}
