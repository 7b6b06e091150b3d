//! Per-layer probes: each layer's public API timed from outside at the
//! shapes the workloads issue. Every traced run measures all of them the
//! same way, in its untraced child after the workload, so no span or
//! counter cost lands in these numbers.
//!
//! Kernel FLOPs and bytes are computed from the shapes, not measured: bytes
//! count each operand read and each result written once per pass.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use dance::guard::checkpoint::{atomic_write_text, CheckpointStore, Snapshot};
use dance::hwgen::exhaustive::{branch_and_bound, exhaustive_search};
use dance::prelude::*;
use dance_plan::Executor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{search, stats, Ctx};

/// Median wall time of `f` in seconds over `reps` calls, after `warm`
/// untimed calls.
fn median_s(warm: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..warm {
        f();
    }
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&samples)
}

fn random(rng: &mut StdRng, shape: &[usize]) -> Tensor {
    let n = shape.iter().product();
    Tensor::from_vec((0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect(), shape)
}

/// Forward + backward of one op, through a scalar sum.
fn fwd_bwd(op: impl Fn() -> Var) -> f32 {
    let y = op();
    y.sum().backward();
    y.with_value(|t| t.data()[0])
}

/// `linear` fwd+bwd at the evaluator-training shape: batch 256, 128 → 128.
fn linear(rng: &mut StdRng, m: &mut BTreeMap<&'static str, f64>) {
    let (b, i, o) = (256usize, 128usize, 128usize);
    let x = Var::constant(random(rng, &[b, i]));
    let w = Var::parameter(random(rng, &[i, o]));
    let bias = Var::parameter(random(rng, &[o]));
    let s = median_s(5, 40, || {
        black_box(fwd_bwd(|| x.linear(&w, &bias, true)));
        w.zero_grad();
        bias.zero_grad();
    });
    let (b, i, o) = (b as f64, i as f64, o as f64);
    // Forward Y = XW + b; backward dX = dY·Wᵀ, dW = Xᵀ·dY, db = Σ dY.
    let flops = 6.0 * b * i * o;
    let elems = (b * i + i * o + o + b * o)
        + (b * o + i * o + b * i)
        + (b * i + b * o + i * o)
        + (b * o + o);
    m.insert("backend.linear_gflops", flops / s / 1e9);
    m.insert("backend.linear_gbps", 4.0 * elems / s / 1e9);
}

/// `matmul` fwd+bwd at the cifar supernet's stage-2 pointwise expansion:
/// (batch 64 × length 4) rows, 16 → 96 channels.
fn matmul(rng: &mut StdRng, m: &mut BTreeMap<&'static str, f64>) {
    let (r, k, n) = (256usize, 16usize, 96usize);
    let x = Var::parameter(random(rng, &[r, k]));
    let w = Var::parameter(random(rng, &[k, n]));
    let s = median_s(5, 60, || {
        black_box(fwd_bwd(|| x.matmul(&w)));
        x.zero_grad();
        w.zero_grad();
    });
    m.insert("backend.matmul_gflops", 6.0 * (r * k * n) as f64 / s / 1e9);
}

/// Depthwise conv fwd+bwd at the cifar supernet's stage-2 MB5x5_e6 block:
/// batch 64, 96 channels, length 4, kernel 5.
fn dwconv(rng: &mut StdRng, m: &mut BTreeMap<&'static str, f64>) {
    let (b, c, l, k) = (64usize, 96usize, 4usize, 5usize);
    let x = Var::parameter(random(rng, &[b, c, l]));
    let w = Var::parameter(random(rng, &[c, k]));
    let s = median_s(5, 60, || {
        black_box(fwd_bwd(|| x.dw_conv1d(&w)));
        x.zero_grad();
        w.zero_grad();
    });
    m.insert(
        "backend.dwconv_gflops",
        6.0 * (b * c * l * k) as f64 / s / 1e9,
    );
}

/// One small op fwd+bwd at the tiny supernet's shape (the fleet's jobs):
/// depthwise conv, batch 32, 36 channels, length 2, kernel 3.
fn small_op(rng: &mut StdRng, m: &mut BTreeMap<&'static str, f64>) {
    let x = Var::parameter(random(rng, &[32, 36, 2]));
    let w = Var::parameter(random(rng, &[36, 3]));
    let s = median_s(20, 400, || {
        black_box(fwd_bwd(|| x.dw_conv1d(&w)));
        x.zero_grad();
        w.zero_grad();
    });
    m.insert("backend.small_op_us", s * 1e6);
}

/// One batch-64 mixture forward + backward of the cifar supernet.
fn supernet(seed: u64, m: &mut BTreeMap<&'static str, f64>) {
    let bench = Benchmark::cifar(seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let net = Supernet::new(bench.supernet, &mut rng);
    let arch = ArchParams::new(bench.template.num_slots(), &mut rng);
    let batcher = Batcher::new(&bench.data.train, 64);
    let batch = batcher.gather(&(0..64).collect::<Vec<_>>());
    let s = median_s(2, 12, || {
        let x = net.input_from(&batch.x, batch.batch);
        let logits = net.forward(&x, ForwardMode::Mixture(&arch));
        let loss = cross_entropy(&logits, &batch.y, 0.1);
        loss.backward();
        for p in net.parameters().iter().chain(arch.parameters().iter()) {
            p.zero_grad();
        }
    });
    m.insert("nas.supernet_fwd_bwd_ms", s * 1e3);
}

/// The hardware-generation and cost-model layers on random cifar networks.
fn hwgen_and_cost(rng: &mut StdRng, m: &mut BTreeMap<&'static str, f64>) {
    let template = NetworkTemplate::cifar10();
    let model = CostModel::new();
    let space = HardwareSpace::new();
    let cost_fn = CostFunction::Edap;
    let mut table = None;
    let s = median_s(0, 3, || {
        table = Some(CostTable::new(&template, &model, &space));
    });
    m.insert("hwgen.table_build_s", s);
    let table = table.expect("table built");
    let nets: Vec<Vec<SlotChoice>> = (0..16)
        .map(|_| random_choices(template.num_slots(), rng))
        .collect();
    let mut i = 0;
    let s = median_s(10, 200, || {
        black_box(table.optimal(&nets[i % nets.len()], &cost_fn));
        i += 1;
    });
    m.insert("hwgen.optimal_us", s * 1e6);
    let networks: Vec<Network> = nets.iter().map(|c| template.instantiate(c)).collect();
    let mut i = 0;
    let s = median_s(1, 5, || {
        black_box(exhaustive_search(
            &networks[i % 16],
            &space,
            &model,
            &cost_fn,
        ));
        i += 1;
    });
    m.insert("hwgen.exhaustive_ms", s * 1e3);
    let mut i = 0;
    let s = median_s(1, 5, || {
        black_box(branch_and_bound(
            &networks[i % 16],
            &space,
            &model,
            &cost_fn,
        ));
        i += 1;
    });
    m.insert("hwgen.branch_and_bound_ms", s * 1e3);
    let configs: Vec<AcceleratorConfig> = (0..64)
        .map(|_| space.config_at(rng.gen_range(0..space.len())))
        .collect();
    let mut i = 0;
    let s = median_s(50, 1000, || {
        black_box(model.evaluate(&networks[i % 16], &configs[i % 64], Detail::Totals));
        i += 1;
    });
    m.insert("cost.evaluate_us", s * 1e6);
}

/// Tape prediction vs the frozen plan for the width-128 evaluator.
fn evaluator_and_plan(rng: &mut StdRng, m: &mut BTreeMap<&'static str, f64>) {
    let gumbel = search::evaluator(HeadSampling::Gumbel { tau: 1.0 });
    gumbel.freeze();
    let width = gumbel.arch_width();
    let rows: Vec<Tensor> = (0..8).map(|_| random(rng, &[1, width])).collect();
    let mut draw = StdRng::seed_from_u64(0);
    let mut i = 0;
    let s = median_s(20, 300, || {
        let x = Var::constant(rows[i % 8].clone());
        black_box(
            gumbel
                .predict_metrics(&x, &mut draw)
                .with_value(|t| t.data()[0]),
        );
        i += 1;
    });
    m.insert("evaluator.predict_metrics_us", s * 1e6);

    let ev = search::evaluator(HeadSampling::Softmax { tau: 1.0 });
    let s = median_s(1, 5, || {
        black_box(ev.freeze_plan(64).is_ok());
    });
    m.insert("plan.freeze_ms", s * 1e3);
    let Ok(plan) = ev.freeze_plan(64) else {
        return;
    };
    let mut exec = Executor::new(plan);
    let space = HardwareSpace::new();
    let mut run = |b: usize, data: &[f32]| {
        exec.input_mut(b).copy_from_slice(data);
        exec.run(b);
        let mut acc = exec.output(0, b)[0];
        for (h, &w) in HEAD_WIDTHS.iter().enumerate() {
            let logits = exec.output(1 + h, b);
            for r in 0..b {
                let row = &logits[r * w..(r + 1) * w];
                let mut best = 0;
                for j in 1..w {
                    if row[j] >= row[best] {
                        best = j;
                    }
                }
                acc += best as f32;
            }
        }
        acc
    };
    let single: Vec<f32> = rows[0].data().to_vec();
    let batch: Vec<f32> = rows.iter().flat_map(|r| r.data().to_vec()).collect();
    let s = median_s(50, 1000, || {
        black_box(run(1, &single));
    });
    m.insert("plan.run_b1_us", s * 1e6);
    let s = median_s(20, 400, || {
        black_box(run(8, &batch));
    });
    m.insert("plan.run_b8_us_per_row", s * 1e6 / 8.0);
    let s = median_s(20, 300, || {
        let x = Var::constant(rows[0].clone());
        let metrics = ev.predict_metrics(&x, &mut draw);
        let configs = ev.predict_configs(&x, &space);
        black_box(metrics.with_value(|t| t.data()[0]) + configs.len() as f32);
    });
    m.insert("plan.tape_b1_us", s * 1e6);
}

/// The durable-write layer: a cifar-supernet-sized checkpoint through the
/// checkpointer, and a ledger-sized text file through the atomic writer.
fn guard(ctx: &Ctx, seed: u64, m: &mut BTreeMap<&'static str, f64>) {
    let bench = Benchmark::cifar(seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let net = Supernet::new(bench.supernet, &mut rng);
    let arch = ArchParams::new(bench.template.num_slots(), &mut rng);
    // Weights, momentum-sized copies and α: the search snapshot's bulk.
    let mut snap = Snapshot::new();
    snap.put_params("supernet", &net.parameters());
    snap.put_params("opt.w.vel", &net.parameters());
    snap.put_params("alpha", &arch.parameters());
    let store = CheckpointStore::new(CheckpointConfig::every_epoch(ctx.work.join("probe-ckpt")));
    let mut epoch = 0;
    let s = median_s(1, 7, || {
        if let Err(e) = store.save(epoch, &snap) {
            eprintln!("perfbench: checkpoint probe failed: {e}");
        }
        epoch += 1;
    });
    m.insert("guard.checkpoint_save_ms", s * 1e3);
    let text: String = (0..96)
        .map(|i| format!("{{\"job\":\"fjob-{i:016x}\",\"status\":\"done\",\"attempt\":1}}\n"))
        .collect();
    let path = ctx.work.join("probe-ledger.json");
    let s = median_s(3, 40, || {
        if let Err(e) = atomic_write_text(&path, &text) {
            eprintln!("perfbench: atomic write probe failed: {e}");
        }
    });
    m.insert("guard.atomic_write_us", s * 1e6);
}

pub fn run(ctx: &Ctx) -> BTreeMap<&'static str, f64> {
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x9E0B);
    let mut m = BTreeMap::new();
    linear(&mut rng, &mut m);
    matmul(&mut rng, &mut m);
    dwconv(&mut rng, &mut m);
    small_op(&mut rng, &mut m);
    supernet(ctx.seed, &mut m);
    hwgen_and_cost(&mut rng, &mut m);
    evaluator_and_plan(&mut rng, &mut m);
    guard(ctx, ctx.seed, &mut m);
    m
}
