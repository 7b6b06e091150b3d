//! Property tests pinning the backend determinism contract: the parallel
//! kernel implementation is **exactly** (bit-for-bit) equal to the scalar
//! reference for every kernel, at a thread count high enough to force real
//! chunked dispatch whenever the problem crosses the parallel threshold.
//!
//! Sizes are drawn to straddle the dispatch thresholds so both the inline
//! and the pooled paths are exercised; values include exact zeros to cover
//! the sparsity fast paths.

use std::sync::Arc;

use dance_backend::{
    BinaryOp, Data, DwConv1dGeom, Kernels, ParallelKernels, ScalarKernels, Storage, UnaryOp,
};
use proptest::prelude::*;

const SCALAR: ScalarKernels = ScalarKernels;
const PARALLEL: ParallelKernels = ParallelKernels;

/// Values in ±2 with a fat spike of exact zeros (sparsity fast paths).
fn values(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-2.0f32..2.0, len).prop_map(|v| {
        v.into_iter()
            .map(|x| if x.abs() < 0.25 { 0.0 } else { x })
            .collect()
    })
}

/// Adopts a plain `Vec` — deliberately the *unaligned, non-arena* layout, so
/// every proptest also exercises legacy-vec inputs against aligned outputs.
fn data(v: Vec<f32>) -> Data {
    Arc::new(Storage::from_vec(v))
}

/// Copies into an aligned, arena-backed buffer.
fn aligned(v: &[f32]) -> Data {
    Arc::new(Storage::from_slice(v))
}

/// All proptests force a multi-worker pool; every test writes the same
/// value, so concurrent test threads cannot disturb each other.
fn force_parallel_pool() {
    dance_backend::set_threads(8);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_matmul_parallel_equals_scalar(
        m in 16usize..64,
        k in 8usize..40,
        n in 8usize..40,
        seed in 0u64..1000,
    ) {
        force_parallel_pool();
        let a = data(values(m * k).sample_value(&mut proptest::test_rng(&format!("mm-a-{seed}"))));
        let b = data(values(k * n).sample_value(&mut proptest::test_rng(&format!("mm-b-{seed}"))));
        prop_assert_eq!(SCALAR.matmul(&a, &b, m, k, n), PARALLEL.matmul(&a, &b, m, k, n));
    }

    #[test]
    fn prop_transpose_parallel_equals_scalar(
        m in 1usize..300,
        n in 1usize..300,
        seed in 0u64..1000,
    ) {
        force_parallel_pool();
        let a = data(values(m * n).sample_value(&mut proptest::test_rng(&format!("tr-{seed}"))));
        prop_assert_eq!(SCALAR.transpose(&a, m, n), PARALLEL.transpose(&a, m, n));
    }

    #[test]
    fn prop_unary_parallel_equals_scalar(
        len in 1usize..120_000,
        which in 0usize..16,
        seed in 0u64..1000,
    ) {
        force_parallel_pool();
        let ops = [
            UnaryOp::Relu,
            UnaryOp::ReluMask,
            UnaryOp::Sigmoid,
            UnaryOp::SigmoidGrad,
            UnaryOp::Tanh,
            UnaryOp::TanhGrad,
            UnaryOp::Exp,
            UnaryOp::LnClamped,
            UnaryOp::LnGradClamped,
            UnaryOp::Scale(-1.75),
            UnaryOp::AddScalar(0.5),
            UnaryOp::LnFloor(1e-20),
            UnaryOp::Recip,
            UnaryOp::SqrtAdd(1e-8),
            UnaryOp::RecipSignedClamped(1e-9),
            UnaryOp::NegRecipSq,
        ];
        let op = ops[which];
        let a = data(values(len).sample_value(&mut proptest::test_rng(&format!("un-{seed}"))));
        // Recip of exact zeros produces inf/NaN — compare bit patterns so
        // the equality stays exact *and* total.
        let bits = |s: Storage| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(SCALAR.unary(&a, op)), bits(PARALLEL.unary(&a, op)));
        // Aligned, arena-backed inputs produce the same bits as the
        // adopted-Vec legacy layout.
        let al = aligned(&a);
        prop_assert_eq!(bits(SCALAR.unary(&a, op)), bits(SCALAR.unary(&al, op)));
    }

    #[test]
    fn prop_binary_parallel_equals_scalar(
        len in 1usize..120_000,
        which in 0usize..6,
        seed in 0u64..1000,
    ) {
        force_parallel_pool();
        let ops = [
            BinaryOp::Add,
            BinaryOp::Sub,
            BinaryOp::Mul,
            BinaryOp::Div,
            BinaryOp::AddScaled(0.37),
            BinaryOp::MaskMul,
        ];
        let op = ops[which];
        let a = data(values(len).sample_value(&mut proptest::test_rng(&format!("bi-a-{seed}"))));
        let b = data(values(len).sample_value(&mut proptest::test_rng(&format!("bi-b-{seed}"))));
        // Div of exact zeros produces NaN, for which `==` is always false —
        // compare bit patterns so the equality stays exact *and* total.
        let bits = |s: Storage| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(
            bits(SCALAR.binary(&a, &b, op)),
            bits(PARALLEL.binary(&a, &b, op))
        );
        let (al, bl) = (aligned(&a), aligned(&b));
        prop_assert_eq!(
            bits(SCALAR.binary(&a, &b, op)),
            bits(SCALAR.binary(&al, &bl, op))
        );
    }

    #[test]
    fn prop_sum_parallel_equals_scalar(
        len in 1usize..200_000,
        seed in 0u64..1000,
    ) {
        force_parallel_pool();
        let a = data(values(len).sample_value(&mut proptest::test_rng(&format!("sum-{seed}"))));
        let s = SCALAR.sum(&a);
        let p = PARALLEL.sum(&a);
        prop_assert_eq!(s.to_bits(), p.to_bits());
    }

    #[test]
    fn prop_sum_rows_parallel_equals_scalar(
        m in 1usize..200,
        n in 1usize..400,
        seed in 0u64..1000,
    ) {
        force_parallel_pool();
        let a = data(values(m * n).sample_value(&mut proptest::test_rng(&format!("sr-{seed}"))));
        prop_assert_eq!(SCALAR.sum_rows(&a, m, n), PARALLEL.sum_rows(&a, m, n));
    }

    #[test]
    fn prop_softmax_rows_parallel_equals_scalar(
        m in 1usize..600,
        n in 1usize..80,
        seed in 0u64..1000,
    ) {
        force_parallel_pool();
        let a = data(values(m * n).sample_value(&mut proptest::test_rng(&format!("sm-{seed}"))));
        prop_assert_eq!(SCALAR.softmax_rows(&a, m, n), PARALLEL.softmax_rows(&a, m, n));
    }

    #[test]
    fn prop_row_broadcasts_parallel_equal_scalar(
        m in 1usize..500,
        n in 1usize..120,
        seed in 0u64..1000,
    ) {
        force_parallel_pool();
        let x = data(values(m * n).sample_value(&mut proptest::test_rng(&format!("rb-x-{seed}"))));
        let r = data(values(n).sample_value(&mut proptest::test_rng(&format!("rb-r-{seed}"))));
        prop_assert_eq!(
            SCALAR.add_row_broadcast(&x, &r, m, n),
            PARALLEL.add_row_broadcast(&x, &r, m, n)
        );
        prop_assert_eq!(
            SCALAR.mul_row_broadcast(&x, &r, m, n),
            PARALLEL.mul_row_broadcast(&x, &r, m, n)
        );
    }

    #[test]
    fn prop_pw_conv1d_parallel_equals_scalar(
        bsz in 1usize..6,
        c in 4usize..24,
        l in 16usize..96,
        k in 4usize..24,
        seed in 0u64..1000,
    ) {
        force_parallel_pool();
        let x = data(values(bsz * c * l).sample_value(&mut proptest::test_rng(&format!("pw-x-{seed}"))));
        let w = data(values(k * c).sample_value(&mut proptest::test_rng(&format!("pw-w-{seed}"))));
        let bias = data(values(k).sample_value(&mut proptest::test_rng(&format!("pw-b-{seed}"))));
        let g = data(values(bsz * k * l).sample_value(&mut proptest::test_rng(&format!("pw-g-{seed}"))));
        prop_assert_eq!(
            SCALAR.pw_conv1d_fwd(&x, &w, &bias, bsz, c, l, k),
            PARALLEL.pw_conv1d_fwd(&x, &w, &bias, bsz, c, l, k)
        );
        let (sdx, sdw, sdb) = SCALAR.pw_conv1d_bwd(&x, &w, &g, bsz, c, l, k);
        let (pdx, pdw, pdb) = PARALLEL.pw_conv1d_bwd(&x, &w, &g, bsz, c, l, k);
        prop_assert_eq!(sdx, pdx);
        prop_assert_eq!(sdw, pdw);
        prop_assert_eq!(sdb, pdb);
    }

    /// The channels-last depthwise kernel against the channels-first
    /// oracle under permutation, at sizes straddling the parallel
    /// threshold (up to 40·40·40·7 work).
    #[test]
    fn prop_dw_conv1d_cl_matches_channels_first_oracle(
        bsz in 1usize..40,
        c in 1usize..40,
        l in 1usize..40,
        kw_idx in 0usize..3,
        stride in 1usize..3,
        relu_sel in 0usize..2,
        seed in 0u64..1000,
    ) {
        force_parallel_pool();
        let geom = DwConv1dGeom { batch: bsz, channels: c, len: l, kernel: [3, 5, 7][kw_idx], stride };
        check_dw_against_oracle(geom, relu_sel == 1, &format!("dwp-{seed}"));
    }

    #[test]
    fn prop_channel_permutes_parallel_equal_scalar_and_invert(
        bsz in 1usize..8,
        c in 1usize..32,
        l in 1usize..256,
        seed in 0u64..1000,
    ) {
        force_parallel_pool();
        let x = data(values(bsz * c * l).sample_value(&mut proptest::test_rng(&format!("cl-{seed}"))));
        let s_cl = SCALAR.to_channels_last(&x, bsz, c, l);
        let p_cl = PARALLEL.to_channels_last(&x, bsz, c, l);
        prop_assert_eq!(&s_cl, &p_cl);
        let back = PARALLEL.from_channels_last(&Arc::new(p_cl), bsz, c, l);
        prop_assert_eq!(&back, &*x);
        prop_assert_eq!(
            SCALAR.from_channels_last(&x, bsz, l, c),
            PARALLEL.from_channels_last(&x, bsz, l, c)
        );
    }

    /// `matmul_bt`/`matmul_at` are bit-identical to materializing the
    /// transpose and calling plain `matmul` — the contract that lets the
    /// backward pass drop its transpose allocations.
    #[test]
    fn prop_transpose_free_matmuls_equal_composed(
        m in 4usize..48,
        k in 4usize..40,
        n in 4usize..40,
        seed in 0u64..1000,
    ) {
        force_parallel_pool();
        let g = data(values(m * n).sample_value(&mut proptest::test_rng(&format!("tf-g-{seed}"))));
        let w = data(values(k * n).sample_value(&mut proptest::test_rng(&format!("tf-w-{seed}"))));
        let x = data(values(m * k).sample_value(&mut proptest::test_rng(&format!("tf-x-{seed}"))));
        let wt = Arc::new(SCALAR.transpose(&w, k, n));
        let xt = Arc::new(SCALAR.transpose(&x, m, k));
        prop_assert_eq!(SCALAR.matmul_bt(&g, &w, m, n, k), SCALAR.matmul(&g, &wt, m, n, k));
        prop_assert_eq!(PARALLEL.matmul_bt(&g, &w, m, n, k), SCALAR.matmul(&g, &wt, m, n, k));
        prop_assert_eq!(SCALAR.matmul_at(&x, &g, m, k, n), SCALAR.matmul(&xt, &g, k, m, n));
        prop_assert_eq!(PARALLEL.matmul_at(&x, &g, m, k, n), SCALAR.matmul(&xt, &g, k, m, n));
    }

    /// Fused `linear` is bit-identical to matmul → add_row_broadcast → relu.
    #[test]
    fn prop_linear_fusion_equals_composed(
        m in 4usize..48,
        k in 4usize..40,
        n in 4usize..40,
        relu_sel in 0usize..2,
        seed in 0u64..1000,
    ) {
        force_parallel_pool();
        let relu = relu_sel == 1;
        let x = data(values(m * k).sample_value(&mut proptest::test_rng(&format!("ln-x-{seed}"))));
        let w = data(values(k * n).sample_value(&mut proptest::test_rng(&format!("ln-w-{seed}"))));
        let bias = data(values(n).sample_value(&mut proptest::test_rng(&format!("ln-b-{seed}"))));
        let mm = Arc::new(SCALAR.matmul(&x, &w, m, k, n));
        let biased = Arc::new(SCALAR.add_row_broadcast(&mm, &bias, m, n));
        let expect = if relu {
            SCALAR.unary(&biased, UnaryOp::Relu)
        } else {
            biased.as_slice().to_vec().into()
        };
        prop_assert_eq!(SCALAR.linear(&x, &w, &bias, m, k, n, relu), expect.clone());
        prop_assert_eq!(PARALLEL.linear(&x, &w, &bias, m, k, n, relu), expect);
    }

    /// `dot` matches sum-of-products at every length (both sides of the
    /// SUM_CHUNK blocking boundary).
    #[test]
    fn prop_dot_fusion_equals_composed(
        len in 1usize..140_000,
        seed in 0u64..1000,
    ) {
        force_parallel_pool();
        let a = data(values(len).sample_value(&mut proptest::test_rng(&format!("dot-a-{seed}"))));
        let b = data(values(len).sample_value(&mut proptest::test_rng(&format!("dot-b-{seed}"))));
        let prod = Arc::new(SCALAR.binary(&a, &b, BinaryOp::Mul));
        prop_assert_eq!(SCALAR.dot(&a, &b).to_bits(), SCALAR.sum(&prod).to_bits());
        prop_assert_eq!(PARALLEL.dot(&a, &b).to_bits(), SCALAR.sum(&prod).to_bits());
    }
}

/// The `kernels()` accessor must hand out the parallel implementation, and
/// the whole suite must behave identically when the pool is pinned to one
/// thread (the inline path).
#[test]
fn kernels_accessor_single_thread_matches_scalar() {
    dance_backend::set_threads(1);
    let ks = dance_backend::kernels();
    let a = data((0..64 * 48).map(|i| (i as f32 * 0.37).sin()).collect());
    let b = data((0..48 * 32).map(|i| (i as f32 * 0.11).cos()).collect());
    assert_eq!(
        ks.matmul(&a, &b, 64, 48, 32),
        SCALAR.matmul(&a, &b, 64, 48, 32)
    );
    dance_backend::set_threads(8);
    assert_eq!(
        ks.matmul(&a, &b, 64, 48, 32),
        SCALAR.matmul(&a, &b, 64, 48, 32)
    );
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The evaluator's backward shapes, which the proptests above (`n, k < 40`)
/// never reach: at width 128, `n · kdim` equals the chunk grain, so the
/// parallel `matmul_bt` runs one output row per chunk. Covers that regime
/// (256×128×128), a single row (m = 1, inline path) and the 128→8 head
/// (16 rows per chunk), each against `matmul(g, transpose(w))`.
#[test]
fn matmul_bt_evaluator_shapes_are_bit_identical() {
    force_parallel_pool();
    for (m, n, kdim) in [(256, 128, 128), (1, 128, 128), (256, 8, 128)] {
        let tag = format!("{m}x{n}x{kdim}");
        let g = data(values(m * n).sample_value(&mut proptest::test_rng(&format!("bt-g-{tag}"))));
        let w = aligned(
            &values(kdim * n).sample_value(&mut proptest::test_rng(&format!("bt-w-{tag}"))),
        );
        let wt = Arc::new(SCALAR.transpose(&w, kdim, n));
        let composed = bits(&SCALAR.matmul(&g, &wt, m, n, kdim));
        assert_eq!(
            bits(&SCALAR.matmul_bt(&g, &w, m, n, kdim)),
            composed,
            "scalar {tag}"
        );
        assert_eq!(
            bits(&PARALLEL.matmul_bt(&g, &w, m, n, kdim)),
            composed,
            "parallel {tag}"
        );
    }
}

// ---------------------------------------------------------------------------
// Depthwise convolution: the channels-first oracle.
// ---------------------------------------------------------------------------

/// The historical channels-first depthwise forward over `[B, C, L]` at
/// stride 1 (tap-outer shifted multiply-adds, ReLU on the finished sum):
/// the loop nest the channels-last kernel replaced, kept as its oracle.
fn cf_dw_fwd(x: &[f32], w: &[f32], c: usize, l: usize, kw: usize, relu: bool) -> Vec<f32> {
    let pad = kw / 2;
    let mut out = vec![0.0f32; x.len()];
    for (r, o_row) in out.chunks_exact_mut(l).enumerate() {
        let x_row = &x[r * l..(r + 1) * l];
        for (j, &wv) in w[(r % c) * kw..][..kw].iter().enumerate() {
            let (o_part, x_part) = if j >= pad {
                let off = j - pad;
                if off >= l {
                    continue;
                }
                (&mut o_row[..l - off], &x_row[off..])
            } else {
                let off = pad - j;
                if off >= l {
                    continue;
                }
                (&mut o_row[off..], &x_row[..l - off])
            };
            for (o, &xv) in o_part.iter_mut().zip(x_part) {
                *o += wv * xv;
            }
        }
        if relu {
            for o in o_row.iter_mut() {
                *o = o.max(0.0);
            }
        }
    }
    out
}

/// The historical channels-first depthwise backward over full-length
/// `[B, C, L]` gradients: `dx` scattered tap by tap in descending tap
/// order, `dw[c, j]` accumulated over `(b, li)` ascending.
fn cf_dw_bwd(
    x: &[f32],
    w: &[f32],
    g: &[f32],
    c: usize,
    l: usize,
    kw: usize,
) -> (Vec<f32>, Vec<f32>) {
    let pad = kw / 2;
    let mut dx = vec![0.0f32; x.len()];
    let mut dw = vec![0.0f32; c * kw];
    for (r, d_row) in dx.chunks_exact_mut(l).enumerate() {
        let ci = r % c;
        let (g_row, x_row) = (&g[r * l..(r + 1) * l], &x[r * l..(r + 1) * l]);
        for j in (0..kw).rev() {
            let wv = w[ci * kw + j];
            let (d_part, g_part) = if j >= pad {
                let off = j - pad;
                if off >= l {
                    continue;
                }
                (&mut d_row[off..], &g_row[..l - off])
            } else {
                let off = pad - j;
                if off >= l {
                    continue;
                }
                (&mut d_row[..l - off], &g_row[off..])
            };
            for (d, &gv) in d_part.iter_mut().zip(g_part) {
                *d += gv * wv;
            }
        }
        // Rows run in `(b, ci)` order, so each `dw[ci, j]` still sees its
        // batches in ascending order.
        for j in 0..kw {
            let (gs, xs) = if j >= pad {
                let off = j - pad;
                if off >= l {
                    continue;
                }
                (&g_row[..l - off], &x_row[off..])
            } else {
                let off = pad - j;
                if off >= l {
                    continue;
                }
                (&g_row[off..], &x_row[..l - off])
            };
            let acc = &mut dw[ci * kw + j];
            for (&gv, &xv) in gs.iter().zip(xs) {
                *acc += gv * xv;
            }
        }
    }
    (dx, dw)
}

/// `[B, C, L] → [B·L, C]`.
fn to_cl(x: &[f32], bsz: usize, c: usize, l: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; x.len()];
    for b in 0..bsz {
        for ci in 0..c {
            for li in 0..l {
                out[(b * l + li) * c + ci] = x[(b * c + ci) * l + li];
            }
        }
    }
    out
}

/// `[B·L, C] → [B, C, L]`.
fn from_cl(x: &[f32], bsz: usize, c: usize, l: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; x.len()];
    for b in 0..bsz {
        for ci in 0..c {
            for li in 0..l {
                out[(b * c + ci) * l + li] = x[(b * l + li) * c + ci];
            }
        }
    }
    out
}

/// Runs the channels-last kernel (scalar, parallel and the plan's `_into`
/// form) against the oracle: full-length channels-first conv (+ReLU),
/// then a stride-`s` subsample, permuted to channels-last; backward from a
/// kept-output gradient zero-scattered to full length. All `to_bits`.
fn check_dw_against_oracle(geom: DwConv1dGeom, relu: bool, tag: &str) {
    let DwConv1dGeom {
        batch: bsz,
        channels: c,
        len: l,
        kernel: kw,
        stride,
    } = geom;
    let lo = geom.out_len();
    let sample = |n: usize, what: &str| {
        values(n).sample_value(&mut proptest::test_rng(&format!("{tag}-{what}")))
    };
    let x_cf = sample(bsz * c * l, "x");
    let w = sample(c * kw, "w");
    let g_cl = sample(bsz * lo * c, "g");

    let full = cf_dw_fwd(&x_cf, &w, c, l, kw, relu);
    let mut kept = vec![0.0f32; bsz * c * lo];
    let mut g_full = vec![0.0f32; bsz * c * l];
    let g_cf = from_cl(&g_cl, bsz, c, lo);
    for r in 0..bsz * c {
        for q in 0..lo {
            kept[r * lo + q] = full[r * l + q * stride];
            g_full[r * l + q * stride] = g_cf[r * lo + q];
        }
    }
    let want_y = bits(&to_cl(&kept, bsz, c, lo));
    let (dx_cf, want_dw) = cf_dw_bwd(&x_cf, &w, &g_full, c, l, kw);
    let want_dx = bits(&to_cl(&dx_cf, bsz, c, l));
    let want_dw = bits(&want_dw);

    let (x, w, g) = (data(to_cl(&x_cf, bsz, c, l)), data(w), data(g_cl));
    let ctx = format!("{geom:?} relu {relu}");
    for (name, k) in [("scalar", &SCALAR as &dyn Kernels), ("parallel", &PARALLEL)] {
        assert_eq!(
            bits(&k.dw_conv1d_cl_fwd(&x, &w, geom, relu)),
            want_y,
            "{name} fwd {ctx}"
        );
        let (dx, dw) = k.dw_conv1d_cl_bwd(&x, &w, &g, geom);
        assert_eq!(bits(&dx), want_dx, "{name} dx {ctx}");
        assert_eq!(bits(&dw), want_dw, "{name} dw {ctx}");
    }
    let wt = SCALAR.transpose(&w, c, kw);
    let mut out = vec![f32::NAN; bsz * lo * c];
    PARALLEL.dw_conv1d_cl_fwd_into(&x, &wt, geom, relu, &mut out);
    assert_eq!(bits(&out), want_y, "fwd_into {ctx}");
}

/// Every kernel width and stride the supernet uses, at lengths shorter
/// than, equal to and longer than the padding (L = 1, 2, 3, 16), with and
/// without the fused ReLU; batch 64 × 24 channels puts the L = 16 cases
/// over the parallel threshold.
#[test]
fn dw_conv1d_cl_sweep_matches_channels_first_oracle() {
    force_parallel_pool();
    for kernel in [3, 5, 7] {
        for stride in [1, 2] {
            for len in [1, 2, 3, 16] {
                for relu in [false, true] {
                    let geom = DwConv1dGeom {
                        batch: 64,
                        channels: 24,
                        len,
                        kernel,
                        stride,
                    };
                    check_dw_against_oracle(geom, relu, &format!("dws-{kernel}-{stride}-{len}"));
                }
            }
        }
    }
}
