//! `evaluator`: build the evaluator the way the paper does (§3.3).
//!
//! One round generates hwgen and cost ground truth on `Benchmark::cifar`'s
//! cost table (`HwSampling::Mixed` for the cost set) and trains both
//! networks at width 128 and batch 256. Rounds repeat the same inputs until
//! the time budget is spent (at least twice). The timed operation is the
//! round: ground truth plus training; the reference kernel is sampled after
//! each round. Outside the timing, each round checks its ground truth
//! against the slow paths and its trained evaluator's frozen plan against
//! the tape.

use std::time::Instant;

use dance::hwgen::exhaustive::{exhaustive_search, exhaustive_search_table};
use dance::prelude::*;
use dance_plan::Executor;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::reference::Reference;
use crate::{digests, stats, Check, Ctx, Outcome};

const HWGEN_SAMPLES: usize = 3000;
const COST_SAMPLES: usize = 6000;
const HWGEN_EPOCHS: usize = 3;
const COST_EPOCHS: usize = 3;
const WIDTH: usize = 128;
const BATCH: usize = 256;
const EXHAUSTIVE_CHECKS: usize = 2;
const COST_SPOT_CHECKS: usize = 64;
/// Set-ups before the first round; one more is timed after each round, so
/// the set-up median spans the run like the rounds do.
const SETUP_REPS: usize = 3;

/// Both ground-truth datasets for `seed`.
fn ground_truth(p: &Pipeline, seed: u64) -> (Vec<HwGenSample>, Vec<CostSample>) {
    let hw = {
        let _span = dance_telemetry::span!("perfbench.generate_hwgen_dataset");
        generate_hwgen_dataset(&p.table, &p.cost_fn, HWGEN_SAMPLES, seed)
    };
    let cost = {
        let _span = dance_telemetry::span!("perfbench.generate_cost_dataset");
        generate_cost_dataset(
            &p.table,
            &p.cost_fn,
            HwSampling::Mixed,
            COST_SAMPLES,
            seed ^ 0xC0FFEE,
        )
    };
    (hw, cost)
}

fn fold(hw: &[HwGenSample], cost: &[CostSample]) -> u64 {
    let mut f = digests::Fnv::new();
    for s in hw {
        f.floats(&s.arch);
        let (a, b, c, d) = s.heads;
        for h in [a, b, c, d] {
            f.word(h as u64);
        }
    }
    for s in cost {
        f.floats(&s.arch);
        f.floats(&s.hw);
        f.floats(&s.metrics);
    }
    f.finish()
}

/// The ground-truth digest for `seed` (for recording digests).
pub fn digest(seed: u64) -> u64 {
    let p = Pipeline::new(Benchmark::cifar(seed), CostFunction::Edap);
    let (hw, cost) = ground_truth(&p, seed);
    fold(&hw, &cost)
}

#[derive(Default)]
struct Round {
    gt_s: f64,
    train_s: f64,
    train_rows: usize,
    digest: u64,
    exhaustive_ms: Vec<f64>,
    /// Failed spot checks.
    failures: Vec<String>,
}

/// Re-derives sampled ground truth through the slow paths: the exact
/// search without the table must find the optimum the table finds and the
/// hwgen sample holds, and the full cost model must reproduce the cost
/// set's metrics.
fn spot_check(p: &Pipeline, hw: &[HwGenSample], cost: &[CostSample], r: &mut Round) {
    let model = CostModel::new();
    let space = p.table.space();
    let template = &p.benchmark.template;
    for i in 0..EXHAUSTIVE_CHECKS {
        let sample = &hw[i * hw.len() / EXHAUSTIVE_CHECKS];
        let choices = decode_choices(&sample.arch);
        let network = template.instantiate(&choices);
        let t = Instant::now();
        let exact = {
            let _span = dance_telemetry::span!("perfbench.exhaustive_search");
            exhaustive_search(&network, space, &model, &p.cost_fn)
        };
        r.exhaustive_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let tabled = exhaustive_search_table(&p.table, &choices, &p.cost_fn);
        if exact.config_index != tabled.config_index
            || space.head_indices(&exact.config) != sample.heads
        {
            r.failures.push(format!(
                "hwgen sample {i}: exhaustive_search picked {}, the table {}, the ground \
                 truth heads {:?}",
                exact.config_index, tabled.config_index, sample.heads
            ));
        }
    }
    for i in 0..COST_SPOT_CHECKS {
        let sample = &cost[i * cost.len() / COST_SPOT_CHECKS];
        let choices = decode_choices(&sample.arch);
        let cfg = space.index_of(&space.decode_one_hot(&sample.hw));
        let direct = dance::hwgen::table::cost_direct(template, &model, space, &choices, cfg);
        let want = [
            direct.latency_ms as f32,
            direct.energy_mj as f32,
            direct.area_mm2 as f32,
        ];
        let close = want
            .iter()
            .zip(sample.metrics)
            .all(|(w, g)| (w - g).abs() <= 1e-6 * w.abs().max(g.abs()));
        if !close {
            r.failures.push(format!(
                "cost sample {i}: {:?} but the cost model gives {want:?}",
                sample.metrics
            ));
        }
    }
}

/// One ground-truth and training round.
fn round(p: &Pipeline, seed: u64) -> Round {
    let mut r = Round::default();
    let t = Instant::now();
    let (hw, cost) = ground_truth(p, seed);
    r.gt_s = t.elapsed().as_secs_f64();
    r.digest = fold(&hw, &cost);

    let arch_width = p.benchmark.arch_width();
    let mut rng = StdRng::seed_from_u64(seed);
    let t = Instant::now();
    let (htrain, hval) = split(&hw, 5.0 / 6.0);
    let hwgen = HwGenNet::new(arch_width, WIDTH, &mut rng);
    let hcfg = TrainConfig {
        epochs: HWGEN_EPOCHS,
        batch_size: BATCH,
        lr: 2e-3,
        seed,
    };
    {
        let _span = dance_telemetry::span!("perfbench.train_hwgen");
        train_hwgen(&hwgen, &htrain, &hval, &hcfg, OptimKind::Adam);
    }
    let (ctrain, cval) = split(&cost, 0.8);
    let mut cost_net = CostNet::new(
        arch_width + dance::accel::space::ENCODED_WIDTH,
        WIDTH,
        &mut rng,
    );
    let ccfg = TrainConfig {
        epochs: COST_EPOCHS,
        batch_size: BATCH,
        lr: 1e-3,
        seed,
    };
    {
        let _span = dance_telemetry::span!("perfbench.train_cost");
        train_cost(
            &mut cost_net,
            &ctrain,
            &cval,
            &ccfg,
            CostInput::ArchPlusHw,
            RegressionLoss::Msre,
        );
    }
    r.train_s = t.elapsed().as_secs_f64();
    r.train_rows = htrain.len() * HWGEN_EPOCHS + ctrain.len() * COST_EPOCHS;

    spot_check(p, &hw, &cost, &mut r);
    // The trained evaluator's frozen plan must answer exactly what its tape
    // answers.
    let ev = Evaluator::with_feature_forwarding(
        hwgen,
        cost_net,
        arch_width,
        HeadSampling::Softmax { tau: 1.0 },
    );
    match ev.freeze_plan(1) {
        Ok(plan) => {
            let mut exec = Executor::new(plan);
            let row = &cost[0].arch;
            let x = Var::constant(Tensor::from_vec(row.clone(), &[1, arch_width]));
            let tape = ev
                .predict_metrics(&x, &mut StdRng::seed_from_u64(0))
                .value();
            exec.input_mut(1).copy_from_slice(row);
            exec.run(1);
            let same = exec
                .output(0, 1)
                .iter()
                .zip(tape.data())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            if !same {
                r.failures
                    .push("plan metrics differ from the tape's".to_string());
            }
        }
        Err(e) => r
            .failures
            .push(format!("the trained evaluator does not freeze: {e}")),
    }
    r
}

fn set_up(seed: u64) -> Pipeline {
    let _span = dance_telemetry::span!("perfbench.pipeline.new");
    Pipeline::new(Benchmark::cifar(seed), CostFunction::Edap)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut t0 = ctx.started;
    let mut pipeline = None;
    for _ in 0..SETUP_REPS {
        pipeline = Some(set_up(ctx.seed));
        out.setup_s.push(t0.elapsed().as_secs_f64());
        t0 = Instant::now();
    }
    let p = pipeline.expect("at least one set-up");
    let begin = Instant::now();
    let mut rounds = Vec::new();
    let mut reference = Reference::new();
    while rounds.len() < 2 || begin.elapsed().as_secs_f64() < ctx.seconds {
        rounds.push(round(&p, ctx.seed));
        out.ref_ms.push(reference.sample_ms());
        let t = Instant::now();
        drop(set_up(ctx.seed));
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut failures = Vec::new();
    for r in &rounds {
        out.attempted += 1;
        if !r.failures.is_empty() {
            out.failed += 1;
            failures.extend(r.failures.iter().cloned());
        }
    }
    out.checks.push(Check::new(
        "evaluator.slow_path_agreement",
        failures.is_empty(),
        if failures.is_empty() {
            "exact search agrees with the table and the ground truth; cost model reproduces \
             sampled metrics; plan equals tape"
                .to_string()
        } else {
            failures.join("; ")
        },
    ));
    let round_digests: Vec<u64> = rounds.iter().map(|r| r.digest).collect();
    out.checks.push(digests::check(
        "evaluator.ground_truth_digest",
        digests::GROUND_TRUTH,
        ctx.seed,
        &round_digests,
    ));
    let total = |f: fn(&Round) -> f64| rounds.iter().map(f).sum::<f64>();
    let gt_rate = (HWGEN_SAMPLES + COST_SAMPLES) as f64 * rounds.len() as f64 / total(|r| r.gt_s);
    let exhaustive_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.exhaustive_ms.iter().copied())
        .collect();
    out.op_ms = rounds.iter().map(|r| (r.gt_s + r.train_s) * 1e3).collect();
    out.ops_per_s = total(|r| r.train_rows as f64) / total(|r| r.train_s);
    out.work_ms = stats::median(&out.op_ms);
    out.layer.insert("hwgen.gt_samples_per_s", gt_rate);
    out.layer
        .insert("evaluator.train_rows_per_s", out.ops_per_s);
    out.params = vec![
        ("benchmark", "cifar".into()),
        ("hwgen_samples", HWGEN_SAMPLES.to_string()),
        ("cost_samples", format!("{COST_SAMPLES} (mixed)")),
        ("eval_width", WIDTH.to_string()),
        ("batch", BATCH.to_string()),
        ("hwgen_epochs", HWGEN_EPOCHS.to_string()),
        ("cost_epochs", COST_EPOCHS.to_string()),
        ("rounds", rounds.len().to_string()),
        (
            "exhaustive_ms_median",
            stats::median(&exhaustive_ms).to_string(),
        ),
        ("exhaustive_samples", exhaustive_ms.len().to_string()),
        ("op", "ground truth + training round".into()),
        ("ops_per_s", "training rows x epochs per second".into()),
    ];
    out
}
