//! The backend pool must be invisible in results: a search run produces the
//! same architecture digest, epoch statistics, and choices no matter how
//! many worker threads execute the kernels.
//!
//! Both runs happen in one process via [`dance_backend::set_threads`] — the
//! shapes are sized so the supernet's matmul/conv kernels clear the
//! parallel-dispatch threshold, so the 8-thread run genuinely exercises the
//! chunked kernels rather than falling back to the scalar path.

use dance::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over the bit patterns of the final architecture probabilities —
/// the same fingerprint the `dance_search` CLI prints as `arch-digest`.
fn arch_digest(probs: &[Vec<f32>]) -> u64 {
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for row in probs {
        for &p in row {
            digest ^= u64::from(p.to_bits());
            digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    digest
}

/// One full (small) search; returns everything the caller compares bit-wise.
fn search_once() -> (u64, Vec<String>, Vec<(u32, u32, u32)>) {
    let task = SynthTask::new(SynthSpec {
        num_classes: 3,
        channels: 4,
        length: 32,
        noise: 0.25,
        distractor: 0.15,
        seed: 7,
    });
    let data = TaskData {
        train: task.generate(128, 1),
        val: task.generate(32, 2),
        test: task.generate(32, 3),
        task,
    };
    let mut rng = StdRng::seed_from_u64(7);
    let net = Supernet::new(
        SupernetConfig {
            input_channels: 4,
            length: 32,
            num_classes: 3,
            stem_width: 12,
            stage_widths: [12, 16, 24],
            head_width: 32,
        },
        &mut rng,
    );
    let arch = ArchParams::new(net.num_slots(), &mut rng);
    let template = NetworkTemplate::cifar10();
    let cfg = SearchConfig::builder()
        .epochs(2)
        .batch_size(64)
        .lambda2(LambdaWarmup::ramp(0.3, 1))
        .seed(7)
        .build()
        .expect("determinism test config is statically valid");
    let out = dance_search(&net, &arch, &data, &Penalty::Flops(&template), &cfg);
    let choices: Vec<String> = out.choices.iter().map(ToString::to_string).collect();
    let stats: Vec<(u32, u32, u32)> = out
        .history
        .iter()
        .map(|s| {
            (
                s.train_ce.to_bits(),
                s.hw_cost.to_bits(),
                s.arch_entropy.to_bits(),
            )
        })
        .collect();
    (arch_digest(&out.probs), choices, stats)
}

#[test]
fn search_is_bit_identical_across_thread_counts() {
    dance_backend::set_threads(1);
    let single = search_once();
    dance_backend::set_threads(8);
    let parallel = search_once();
    dance_backend::set_threads(1);
    assert_eq!(
        single.0, parallel.0,
        "arch-digest differs between 1 and 8 backend threads"
    );
    assert_eq!(single.1, parallel.1, "derived choices differ");
    assert_eq!(
        single.2, parallel.2,
        "per-epoch loss statistics differ bit-wise"
    );
}

#[test]
fn search_is_bit_identical_with_arena_disabled() {
    // The storage arena recycles tape buffers across steps; recycling must
    // be invisible in results exactly like the thread pool is. A fresh-
    // allocation run (`DANCE_ARENA=off` equivalent) must land on the same
    // arch digest, choices, and per-epoch statistics bit for bit.
    dance_backend::set_threads(1);
    dance_backend::set_arena_enabled(true);
    let recycled = search_once();
    dance_backend::set_arena_enabled(false);
    dance_backend::storage::clear_arena();
    let fresh = search_once();
    dance_backend::set_arena_enabled(true);
    assert_eq!(
        recycled.0, fresh.0,
        "arch-digest differs between arena-recycled and fresh allocation"
    );
    assert_eq!(recycled.1, fresh.1, "derived choices differ");
    assert_eq!(
        recycled.2, fresh.2,
        "per-epoch loss statistics differ bit-wise"
    );
}

/// FNV-1a digest of one batch-64 cifar supernet mixture forward + backward
/// (seed 0): the loss bits, then every weight gradient, then every
/// architecture gradient, element by element.
fn supernet_grad_digest() -> u64 {
    let bench = Benchmark::cifar(0);
    let mut rng = StdRng::seed_from_u64(0);
    let net = Supernet::new(bench.supernet, &mut rng);
    let arch = ArchParams::new(net.num_slots(), &mut rng);
    let batch = Batcher::new(&bench.data.train, 64).gather(&(0..64).collect::<Vec<_>>());
    let x = net.input_from(&batch.x, batch.batch);
    let loss = cross_entropy(&net.forward(&x, ForwardMode::Mixture(&arch)), &batch.y, 0.1);
    loss.backward();
    let mut digest = fnv_fold(
        0xcbf2_9ce4_8422_2325,
        u64::from(loss.value().data()[0].to_bits()),
    );
    for p in net.parameters().iter().chain(arch.parameters().iter()) {
        let grad = p
            .grad()
            .expect("every supernet parameter receives a gradient");
        for &g in grad.data() {
            digest = fnv_fold(digest, u64::from(g.to_bits()));
        }
    }
    digest
}

/// The digest [`supernet_grad_digest`] produced when the MBConv depthwise
/// convolutions still ran channels-first; layout and kernel changes must
/// keep every bit of the loss and of every gradient.
const SUPERNET_GRAD_DIGEST: u64 = 0x8570_c019_6202_2bd6;

#[test]
fn supernet_gradients_keep_their_recorded_bits() {
    dance_backend::set_threads(1);
    let single = supernet_grad_digest();
    dance_backend::set_threads(8);
    let pooled = supernet_grad_digest();
    dance_backend::set_threads(1);
    assert_eq!(
        single, pooled,
        "supernet gradients differ between 1 and 8 threads"
    );
    assert_eq!(
        single, SUPERNET_GRAD_DIGEST,
        "supernet gradients moved: {single:#018x}"
    );
}
