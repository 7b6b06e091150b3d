//! Plan-vs-tape equivalence over random op chains.
//!
//! The freezer's contract is *bit-identical* outputs: for any graph it
//! accepts, executing the compiled plan must reproduce the tape forward's
//! `f32` bits exactly — at every batch size up to `max_batch` and at any
//! `DANCE_THREADS` (`scripts/check.sh` runs this suite pinned to 1 and to
//! 8 workers). The chain generator draws from every op family the freezer
//! supports on 2-D activations; the round-trip property additionally
//! pushes each plan through serialize → parse before executing it.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use dance_autograd::nn::{mul_row_broadcast, BatchNorm1d, Module};
use dance_autograd::tensor::Tensor;
use dance_autograd::var::Var;
use dance_plan::{freeze, Executor, Plan};

const WIDTH: usize = 5;

/// Builds one random-but-valid op chain over `[batch, WIDTH]` activations:
/// `codes` indexes the op palette, `rng` draws the folded weights. Returns
/// the probe input and the chain's output.
fn build_chain(codes: &[usize], rng: &mut StdRng) -> (Var, Var) {
    let probe = Var::constant(Tensor::zeros(&[1, WIDTH]));
    let mut h = probe.clone();
    for &code in codes {
        h = replay_op(code, &h, rng);
    }
    (probe, h)
}

/// Tape-forward reference: rebuilds the same chain (same RNG stream, so
/// identical folded weights) directly on the real input and reads the tape
/// value.
fn tape_forward(codes: &[usize], seed: u64, x: &Tensor) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut h = Var::constant(x.clone());
    for &code in codes {
        h = replay_op(code, &h, &mut rng);
    }
    h.value().data().iter().map(|v| v.to_bits()).collect()
}

/// The op palette: one entry per op family the freezer supports on 2-D
/// activations. Codes 0 and 14–19 draw folded weights from `rng`, so
/// rebuilding a chain with the same RNG stream reproduces the constants.
fn replay_op(code: usize, h: &Var, rng: &mut StdRng) -> Var {
    match code {
        // Linear layer: const weight + const row-broadcast bias.
        0 => {
            let w = Var::parameter(Tensor::rand_uniform(&[WIDTH, WIDTH], -0.6, 0.6, rng));
            let b = Var::parameter(Tensor::rand_uniform(&[WIDTH], -0.1, 0.1, rng));
            h.matmul(&w).add_row_broadcast(&b)
        }
        1 => h.relu(),
        2 => h.sigmoid(),
        3 => h.tanh(),
        4 => h.exp(),
        5 => h.ln(),
        6 => h.scale(0.5),
        7 => h.add_scalar(0.25),
        8 => h.softmax_rows(),
        9 => h.log_softmax_rows(),
        10 => h.add(&h.scale(-0.5)),
        11 => h.mul(&h.sigmoid()),
        12 => h.sub(&h.tanh()),
        13 => Var::concat_cols(&[h, h]).slice_cols(WIDTH / 2, WIDTH),
        14 => {
            let s = Var::parameter(Tensor::rand_uniform(&[WIDTH], 0.5, 1.5, rng));
            mul_row_broadcast(h, &s)
        }
        15 => {
            let bn = BatchNorm1d::new(WIDTH);
            bn.set_running_stats(
                Tensor::rand_uniform(&[WIDTH], -0.2, 0.2, rng),
                Tensor::rand_uniform(&[WIDTH], 0.8, 1.2, rng),
            );
            bn.set_training(false);
            bn.forward(h)
        }
        // Fused linear / linear+relu: single tape node, single plan step.
        16 | 17 => {
            let w = Var::parameter(Tensor::rand_uniform(&[WIDTH, WIDTH], -0.6, 0.6, rng));
            let b = Var::parameter(Tensor::rand_uniform(&[WIDTH], -0.1, 0.1, rng));
            h.linear(&w, &b, code == 17)
        }
        // Channels-last depthwise conv, one channel over the WIDTH columns
        // as positions: stride 1, kernel 3.
        18 => {
            let batch = h.shape()[0];
            let w = Var::parameter(Tensor::rand_uniform(&[1, 3], -0.8, 0.8, rng));
            h.reshape(&[batch * WIDTH, 1])
                .dw_conv1d_cl(&w, batch, WIDTH, 1, false)
                .reshape(&[batch, WIDTH])
        }
        // Two channels × WIDTH positions (the row duplicated), stride 2,
        // kernel 5, fused ReLU; the ⌈WIDTH/2⌉·2 outputs are sliced back to
        // WIDTH columns.
        _ => {
            let batch = h.shape()[0];
            let w = Var::parameter(Tensor::rand_uniform(&[2, 5], -0.8, 0.8, rng));
            let lo = WIDTH.div_ceil(2);
            Var::concat_cols(&[h, &h.scale(-1.0)])
                .reshape(&[batch * WIDTH, 2])
                .dw_conv1d_cl(&w, batch, WIDTH, 2, true)
                .reshape(&[batch, lo * 2])
                .slice_cols(0, WIDTH)
        }
    }
}

fn exec_bits(exec: &mut Executor, x: &Tensor, batch: usize) -> Vec<u32> {
    exec.input_mut(batch).copy_from_slice(x.data());
    exec.run(batch);
    exec.output(0, batch).iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_chain_plan_matches_tape_bitwise(
        codes in prop::collection::vec(0usize..20, 6),
        seed in 0u64..1_000_000,
        batch in 1usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (probe, out) = build_chain(&codes, &mut rng);
        let plan = freeze(&probe, &[out], 4).expect("palette chains are freezable");
        let mut exec = Executor::new(plan);

        let mut data_rng = StdRng::seed_from_u64(seed ^ 0x9e37);
        let x = Tensor::rand_uniform(&[batch, WIDTH], -1.0, 1.0, &mut data_rng);
        let got = exec_bits(&mut exec, &x, batch);
        let want = tape_forward(&codes, seed, &x);
        prop_assert_eq!(got, want, "chain {:?} diverged at batch {}", codes, batch);
    }

    #[test]
    fn serialized_plans_execute_identically_after_reload(
        codes in prop::collection::vec(0usize..20, 5),
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (probe, out) = build_chain(&codes, &mut rng);
        let plan = freeze(&probe, &[out], 3).expect("palette chains are freezable");

        let text = plan.serialize();
        let reloaded = Plan::parse(&text).expect("serialized plan parses");
        prop_assert_eq!(&reloaded.serialize(), &text, "round-trip changed the artifact");

        let mut exec_a = Executor::new(plan);
        let mut exec_b = Executor::new(reloaded);
        for batch in 1..=3usize {
            let mut data_rng = StdRng::seed_from_u64(seed.wrapping_add(batch as u64));
            let x = Tensor::rand_uniform(&[batch, WIDTH], -1.0, 1.0, &mut data_rng);
            let a = exec_bits(&mut exec_a, &x, batch);
            let b = exec_bits(&mut exec_b, &x, batch);
            prop_assert_eq!(a, b, "reloaded plan diverged (chain {:?} batch {})", codes, batch);
        }
    }
}
