//! Training loops for the evaluator's two component networks.
//!
//! The paper trains the hardware generation network with cross-entropy
//! (`Loss_CE_HW`, SGD with step decay) and the cost estimation network with
//! the MSRE loss of Eq. 2 (Adam). Epoch counts and dataset sizes are
//! parameters — the experiment harness scales them to the CPU budget and
//! EXPERIMENTS.md records the values used.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dance_autograd::loss::{cross_entropy, mse, msre};
use dance_autograd::optim::{Adam, Optimizer, Sgd, StepLr};
use dance_autograd::tensor::Tensor;
use dance_autograd::var::Var;
use dance_hwgen::dataset::{CostSample, HwGenSample};

use crate::cost_net::CostNet;
use crate::hwgen_net::HwGenNet;
use crate::metrics::{head_accuracy, relative_accuracy};

/// Shared trainer knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Initial learning rate.
    pub lr: f32,
    /// RNG seed for shuffling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 20,
            batch_size: 256,
            lr: 1e-3,
            seed: 0,
        }
    }
}

/// Which optimizer a trainer uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimKind {
    /// SGD with momentum 0.9 and ×0.1 step decay every quarter of training —
    /// the paper's hardware-generation recipe, compressed.
    SgdStep,
    /// Adam at a fixed learning rate — the paper's cost-estimation recipe.
    Adam,
}

/// Regression loss selection (MSRE is the paper's choice; MSE is the
/// ablation discussed in §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegressionLoss {
    /// Mean squared relative error (Eq. 2).
    Msre,
    /// Plain mean squared error.
    Mse,
}

/// What the cost network receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostInput {
    /// Architecture encoding only (the *without feature forwarding*
    /// variant).
    ArchOnly,
    /// Architecture concatenated with the hardware one-hot (the *with
    /// feature forwarding* variant).
    ArchPlusHw,
}

fn shuffled_indices(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        idx.swap(i, j);
    }
    idx
}

fn rows_to_tensor(rows: &[&[f32]]) -> Tensor {
    let cols = rows.first().map_or(0, |r| r.len());
    let mut data = Vec::with_capacity(rows.len() * cols);
    for r in rows {
        data.extend_from_slice(r);
    }
    Tensor::from_vec(data, &[rows.len(), cols])
}

fn cost_input_row(sample: &CostSample, input: CostInput) -> Vec<f32> {
    match input {
        CostInput::ArchOnly => sample.arch.clone(),
        CostInput::ArchPlusHw => {
            let mut v = sample.arch.clone();
            v.extend_from_slice(&sample.hw);
            v
        }
    }
}

/// Trains the hardware generation network; returns per-head validation
/// accuracies (percent) in `(PE_X, PE_Y, RF, dataflow)` order.
pub fn train_hwgen(
    net: &HwGenNet,
    train: &[HwGenSample],
    val: &[HwGenSample],
    cfg: &TrainConfig,
    optim: OptimKind,
) -> [f32; 4] {
    assert!(!train.is_empty(), "empty hwgen training set");
    // Every Tensor op below dispatches through the shared worker pool;
    // re-emit its width so it lands inside this training run's telemetry.
    dance_telemetry::gauge!("backend.threads", dance_backend::threads() as f64);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let schedule = StepLr::new(cfg.lr, (cfg.epochs / 4).max(1), 0.1);
    let mut sgd = Sgd::new(net.parameters(), cfg.lr).with_momentum(0.9);
    let mut adam = Adam::new(net.parameters(), cfg.lr);

    for epoch in 0..cfg.epochs {
        let _epoch_span = dance_telemetry::hot_span!("evaluator.hwgen.epoch");
        if optim == OptimKind::SgdStep {
            sgd.set_lr(schedule.lr_at(epoch));
        }
        let order = shuffled_indices(train.len(), &mut rng);
        for chunk in order.chunks(cfg.batch_size) {
            let rows: Vec<&[f32]> = chunk.iter().map(|&i| train[i].arch.as_slice()).collect();
            let x = Var::constant(rows_to_tensor(&rows));
            let logits = net.head_logits(&x);
            let targets: [Vec<usize>; 4] = [
                chunk.iter().map(|&i| train[i].heads.0).collect(),
                chunk.iter().map(|&i| train[i].heads.1).collect(),
                chunk.iter().map(|&i| train[i].heads.2).collect(),
                chunk.iter().map(|&i| train[i].heads.3).collect(),
            ];
            let mut loss = cross_entropy(&logits[0], &targets[0], 0.0);
            for h in 1..4 {
                loss = loss.add(&cross_entropy(&logits[h], &targets[h], 0.0));
            }
            dance_telemetry::histogram!("evaluator.hwgen.loss", f64::from(loss.item()));
            match optim {
                OptimKind::SgdStep => {
                    sgd.zero_grad();
                    loss.backward();
                    sgd.step();
                }
                OptimKind::Adam => {
                    adam.zero_grad();
                    loss.backward();
                    adam.step();
                }
            }
        }
    }
    let acc = eval_hwgen(net, val);
    dance_telemetry::gauge!(
        "evaluator.hwgen.val_acc_mean",
        f64::from(acc.iter().sum::<f32>()) / 4.0
    );
    acc
}

/// Per-head accuracies (percent) on a dataset.
pub fn eval_hwgen(net: &HwGenNet, data: &[HwGenSample]) -> [f32; 4] {
    assert!(!data.is_empty(), "empty hwgen evaluation set");
    let rows: Vec<&[f32]> = data.iter().map(|s| s.arch.as_slice()).collect();
    let x = Var::constant(rows_to_tensor(&rows));
    let logits = net.head_logits(&x);
    let targets: [Vec<usize>; 4] = [
        data.iter().map(|s| s.heads.0).collect(),
        data.iter().map(|s| s.heads.1).collect(),
        data.iter().map(|s| s.heads.2).collect(),
        data.iter().map(|s| s.heads.3).collect(),
    ];
    [
        head_accuracy(&logits[0].value(), &targets[0]),
        head_accuracy(&logits[1].value(), &targets[1]),
        head_accuracy(&logits[2].value(), &targets[2]),
        head_accuracy(&logits[3].value(), &targets[3]),
    ]
}

/// Trains the cost estimation network; returns per-metric relative
/// accuracies (percent) on the validation set.
///
/// Sets the network's normalizer from the training-set metric means before
/// training.
pub fn train_cost(
    net: &mut CostNet,
    train: &[CostSample],
    val: &[CostSample],
    cfg: &TrainConfig,
    input: CostInput,
    loss_kind: RegressionLoss,
) -> [f32; 3] {
    assert!(!train.is_empty(), "empty cost training set");
    dance_telemetry::gauge!("backend.threads", dance_backend::threads() as f64);
    net.set_normalizer(dance_hwgen::dataset::metric_means(train));
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut opt = Adam::new(net.parameters(), cfg.lr);
    let norm = net.normalizer();

    net.set_training(true);
    for _ in 0..cfg.epochs {
        let _epoch_span = dance_telemetry::hot_span!("evaluator.cost.epoch");
        let order = shuffled_indices(train.len(), &mut rng);
        for chunk in order.chunks(cfg.batch_size) {
            if chunk.len() < 2 {
                continue; // batch norm needs at least two samples
            }
            let rows: Vec<Vec<f32>> = chunk
                .iter()
                .map(|&i| cost_input_row(&train[i], input))
                .collect();
            let row_refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
            let x = Var::constant(rows_to_tensor(&row_refs));
            let mut target = Tensor::zeros(&[chunk.len(), 3]);
            let td = target.data_mut();
            for (bi, &i) in chunk.iter().enumerate() {
                for m in 0..3 {
                    td[bi * 3 + m] = train[i].metrics[m] / norm[m];
                }
            }
            let pred = net.forward_normalized(&x);
            let loss = match loss_kind {
                RegressionLoss::Msre => msre(&pred, &target),
                RegressionLoss::Mse => mse(&pred, &target),
            };
            dance_telemetry::histogram!("evaluator.cost.loss", f64::from(loss.item()));
            opt.zero_grad();
            loss.backward();
            // Relative losses on multi-decade targets produce occasional
            // huge gradients; clip for stability.
            dance_autograd::optim::clip_grad_norm(&net.parameters(), 5.0);
            opt.step();
        }
    }
    net.set_training(false);
    let acc = eval_cost(net, val, input);
    dance_telemetry::gauge!(
        "evaluator.cost.val_acc_mean",
        f64::from(acc.iter().sum::<f32>()) / 3.0
    );
    acc
}

/// Per-metric relative accuracies (percent) on a dataset (inference mode).
pub fn eval_cost(net: &CostNet, data: &[CostSample], input: CostInput) -> [f32; 3] {
    assert!(!data.is_empty(), "empty cost evaluation set");
    net.set_training(false);
    // Evaluate in chunks to bound memory.
    let mut preds = Vec::with_capacity(data.len() * 3);
    for chunk in data.chunks(1024) {
        let rows: Vec<Vec<f32>> = chunk.iter().map(|s| cost_input_row(s, input)).collect();
        let row_refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
        let x = Var::constant(rows_to_tensor(&row_refs));
        preds.extend_from_slice(net.forward(&x).value().data());
    }
    let pred = Tensor::from_vec(preds, &[data.len(), 3]);
    let mut target = Tensor::zeros(&[data.len(), 3]);
    let td = target.data_mut();
    for (i, s) in data.iter().enumerate() {
        for m in 0..3 {
            td[i * 3 + m] = s.metrics[m];
        }
    }
    relative_accuracy(&pred, &target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dance_accel::space::HardwareSpace;
    use dance_accel::workload::NetworkTemplate;
    use dance_cost::metrics::CostFunction;
    use dance_cost::model::CostModel;
    use dance_hwgen::dataset::{generate_cost_dataset, generate_hwgen_dataset, split, HwSampling};
    use dance_hwgen::table::CostTable;

    fn table() -> CostTable {
        CostTable::new(
            &NetworkTemplate::cifar10(),
            &CostModel::new(),
            &HardwareSpace::new(),
        )
    }

    #[test]
    fn hwgen_training_beats_chance() {
        let t = table();
        let data = generate_hwgen_dataset(&t, &CostFunction::Edap, 600, 1);
        let (train, val) = split(&data, 0.8);
        let mut rng = StdRng::seed_from_u64(0);
        let net = HwGenNet::new(63, 64, &mut rng);
        let cfg = TrainConfig {
            epochs: 30,
            batch_size: 64,
            lr: 2e-3,
            seed: 0,
        };
        let acc = train_hwgen(&net, &train, &val, &cfg, OptimKind::Adam);
        // Chance levels: 1/17 ≈ 5.9% for PE heads, 20% RF, 33% dataflow.
        assert!(acc[0] > 20.0, "PE_X accuracy {} at chance", acc[0]);
        assert!(acc[2] > 40.0, "RF accuracy {} at chance", acc[2]);
        assert!(acc[3] > 60.0, "dataflow accuracy {} at chance", acc[3]);
    }

    #[test]
    fn cost_training_reaches_high_relative_accuracy() {
        let t = table();
        let data = generate_cost_dataset(&t, &CostFunction::Edap, HwSampling::Random, 1_500, 2);
        let (train, val) = split(&data, 0.8);
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = CostNet::new(63 + 42, 64, &mut rng);
        let cfg = TrainConfig {
            epochs: 30,
            batch_size: 128,
            lr: 2e-3,
            seed: 1,
        };
        let acc = train_cost(
            &mut net,
            &train,
            &val,
            &cfg,
            CostInput::ArchPlusHw,
            RegressionLoss::Msre,
        );
        for (i, a) in acc.iter().enumerate() {
            assert!(*a > 80.0, "metric {i} relative accuracy only {a}");
        }
    }

    #[test]
    fn eval_cost_handles_arch_only_input() {
        let t = table();
        let data = generate_cost_dataset(&t, &CostFunction::Edap, HwSampling::Optimal, 64, 3);
        let mut rng = StdRng::seed_from_u64(2);
        let net = CostNet::new(63, 32, &mut rng);
        let acc = eval_cost(&net, &data, CostInput::ArchOnly);
        assert!(acc.iter().all(|a| a.is_finite()));
    }

    #[test]
    #[should_panic(expected = "empty hwgen training set")]
    fn empty_training_set_panics() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = HwGenNet::new(63, 16, &mut rng);
        let _ = train_hwgen(&net, &[], &[], &TrainConfig::default(), OptimKind::Adam);
    }
}
