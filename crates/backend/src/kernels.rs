//! The kernel set the tensor ops dispatch through.
//!
//! Two implementations of one [`Kernels`] trait:
//!
//! * [`ScalarKernels`] — the reference: literally the original single-thread
//!   loop nests the autograd crate shipped with.
//! * [`ParallelKernels`] — the default: partitions each kernel's *output*
//!   into disjoint contiguous chunks executed on the [`crate::pool`].
//!
//! Every allocating method returns an aligned, arena-recycled
//! [`Storage`] (see [`crate::storage`]); the shared handle type the tensor
//! layer passes in is [`Data`] (`Arc<Storage>`).
//!
//! **Determinism contract.** Every parallel kernel decomposes its output by
//! problem size alone (never by thread count), and within each output
//! element the floating-point accumulation order is identical to the scalar
//! reference. Consequently `ParallelKernels` is *bit-identical* to
//! `ScalarKernels` at any `DANCE_THREADS` value — checkpoint digests, serve
//! cache byte-replay and seed-tuned test expectations are all preserved.
//! The one deliberately re-associated op is the full reduction [`Kernels::sum`]
//! (and its inner-product sibling [`Kernels::dot`]), which always folds
//! fixed [`SUM_CHUNK`]-sized blocks (so it too is identical across thread
//! counts *and* between the two implementations, and coincides with the
//! strict left-to-right sum below [`SUM_CHUNK`] elements).
//!
//! **Fused kernels.** [`Kernels::linear`] (matmul + row-broadcast bias +
//! optional ReLU), [`Kernels::dw_conv1d_relu_fwd`], and the backward
//! products [`Kernels::matmul_bt`] / [`Kernels::matmul_at`] (no transpose
//! tensor or tape node; `matmul_bt` transposes `w` once per call into a
//! private buffer) fold what used to be separate tape nodes into one
//! kernel pass. Each fused loop nest preserves the exact per-element
//! operation sequence of the ops it replaces (same accumulation order, same
//! sparsity skips, multiply-form ReLU masking), so fusion is bit-invisible
//! to digests and checkpoints.

use std::sync::Arc;

use crate::pool;
use crate::storage::Storage;

/// Shared tensor storage: kernels borrow it and clone the `Arc` (not the
/// data) into pool jobs.
pub type Data = Arc<Storage>;

/// Fixed block size for the chunked full reduction.
pub const SUM_CHUNK: usize = 65_536;

/// Minimum per-kernel work (output elements × inner length) before a
/// parallel dispatch pays for itself; below it the scalar path runs inline.
const PAR_MIN_WORK: usize = 32_768;

/// Target work units per chunk. Chunk counts derive from this and the
/// problem size only — never from the thread count.
const GRAIN: usize = 16_384;

/// Element-wise unary operations (enumerated so jobs stay `'static`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UnaryOp {
    /// `max(x, 0)`.
    Relu,
    /// `1` where `x > 0`, else `0` (the ReLU gradient mask).
    ReluMask,
    /// Logistic sigmoid.
    Sigmoid,
    /// `y·(1−y)` applied to a sigmoid *output*.
    SigmoidGrad,
    /// Hyperbolic tangent.
    Tanh,
    /// `1−y²` applied to a tanh *output*.
    TanhGrad,
    /// `exp(x)`.
    Exp,
    /// `ln(max(x, 1e-12))` — the clamped log the autograd ops use.
    LnClamped,
    /// `1 / max(x, 1e-12)` — the clamped-log gradient.
    LnGradClamped,
    /// `ln(max(x, c))` — floored log with a caller-chosen floor (the
    /// `log_softmax` path floors at `1e-20`, distinct from [`UnaryOp::LnClamped`]).
    LnFloor(f32),
    /// `1 / x` — exact reciprocal (the `div` gradient).
    Recip,
    /// `−1 / x²` — the div-backward denominator factor.
    NegRecipSq,
    /// `sqrt(x) + c` — the Adam denominator.
    SqrtAdd(f32),
    /// `1 / max(|x|, c) · sign(x)` — the signed clamped reciprocal the MSRE
    /// loss uses.
    RecipSignedClamped(f32),
    /// `x·c`.
    Scale(f32),
    /// `x + c`.
    AddScalar(f32),
}

impl UnaryOp {
    #[inline]
    fn apply(self, x: f32) -> f32 {
        match self {
            UnaryOp::Relu => x.max(0.0),
            UnaryOp::ReluMask => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            UnaryOp::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            UnaryOp::SigmoidGrad => x * (1.0 - x),
            UnaryOp::Tanh => x.tanh(),
            UnaryOp::TanhGrad => 1.0 - x * x,
            UnaryOp::Exp => x.exp(),
            UnaryOp::LnClamped => x.max(1e-12).ln(),
            UnaryOp::LnGradClamped => 1.0 / x.max(1e-12),
            UnaryOp::LnFloor(c) => x.max(c).ln(),
            UnaryOp::Recip => 1.0 / x,
            UnaryOp::NegRecipSq => -1.0 / (x * x),
            UnaryOp::SqrtAdd(c) => x.sqrt() + c,
            UnaryOp::RecipSignedClamped(c) => 1.0 / x.abs().max(c) * x.signum(),
            UnaryOp::Scale(c) => x * c,
            UnaryOp::AddScalar(c) => x + c,
        }
    }
}

/// Element-wise binary operations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BinaryOp {
    /// `a + b`.
    Add,
    /// `a − b`.
    Sub,
    /// `a · b`.
    Mul,
    /// `a / b`.
    Div,
    /// `a + b·c` (fused accumulate used by mixture ops).
    AddScaled(f32),
    /// `a · (b > 0 ? 1 : 0)` — the fused ReLU backward mask-multiply.
    /// Kept in multiply form (never a branch select on `a`) so NaN/inf and
    /// signed-zero bits match the historical mask-then-multiply sequence.
    MaskMul,
}

impl BinaryOp {
    #[inline]
    fn apply(self, a: f32, b: f32) -> f32 {
        match self {
            BinaryOp::Add => a + b,
            BinaryOp::Sub => a - b,
            BinaryOp::Mul => a * b,
            BinaryOp::Div => a / b,
            BinaryOp::AddScaled(c) => a + b * c,
            BinaryOp::MaskMul => a * if b > 0.0 { 1.0 } else { 0.0 },
        }
    }
}

/// The compute kernels the `Tensor`/`Var` hot paths dispatch through.
///
/// Shapes are passed explicitly (row-major storage throughout); every
/// allocating method returns a freshly arena-allocated [`Storage`]. See the
/// module docs for the determinism contract binding the implementations
/// together.
pub trait Kernels: Sync {
    /// `[m, k] × [k, n] → [m, n]` matrix product.
    fn matmul(&self, a: &Data, b: &Data, m: usize, k: usize, n: usize) -> Storage;

    /// `g × wᵀ` in one kernel call: `[m, n] × [kdim, n]ᵀ → [m, kdim]`.
    /// Transposes `w` once per call into a private buffer (never a tensor
    /// or tape node) and runs the `matmul` loop nest on it, so it is
    /// bit-identical to `matmul(g, transpose(w))`.
    fn matmul_bt(&self, g: &Data, w: &Data, m: usize, n: usize, kdim: usize) -> Storage;

    /// `xᵀ × g` without materializing the transpose:
    /// `[m, kdim]ᵀ × [m, n] → [kdim, n]`. Bit-identical to
    /// `matmul(transpose(x), g)`.
    fn matmul_at(&self, x: &Data, g: &Data, m: usize, kdim: usize, n: usize) -> Storage;

    /// Transpose of an `[m, n]` matrix.
    fn transpose(&self, a: &Data, m: usize, n: usize) -> Storage;

    /// Element-wise unary map.
    fn unary(&self, a: &Data, op: UnaryOp) -> Storage;

    /// Element-wise binary combination of equal-length data.
    fn binary(&self, a: &Data, b: &Data, op: BinaryOp) -> Storage;

    /// Full reduction (fixed-block association; see module docs).
    fn sum(&self, a: &Data) -> f32;

    /// Inner product with the same fixed-block association as
    /// [`Kernels::sum`] over the element-wise products — bit-identical to
    /// `sum(binary(a, b, Mul))` without the intermediate buffer.
    fn dot(&self, a: &Data, b: &Data) -> f32 {
        dot_blocked(a, b)
    }

    /// Column sums of an `[m, n]` matrix → `[n]`.
    fn sum_rows(&self, a: &Data, m: usize, n: usize) -> Storage;

    /// Row-wise numerically stable softmax of an `[m, n]` matrix.
    fn softmax_rows(&self, a: &Data, m: usize, n: usize) -> Storage;

    /// `out[i, j] = x[i, j] + bias[j]` over an `[m, n]` matrix.
    fn add_row_broadcast(&self, x: &Data, bias: &Data, m: usize, n: usize) -> Storage;

    /// `out[i, j] = x[i, j] · scale[j]` over an `[m, n]` matrix.
    fn mul_row_broadcast(&self, x: &Data, scale: &Data, m: usize, n: usize) -> Storage;

    /// Fused `x × w + bias` (and `max(·, 0)` when `relu`) over
    /// `[m, k] × [k, n]`: one pass instead of two or three tape nodes.
    /// Bit-identical to `matmul` → `add_row_broadcast` (→ `relu`).
    #[allow(clippy::too_many_arguments)]
    fn linear(
        &self,
        x: &Data,
        w: &Data,
        bias: &Data,
        m: usize,
        k: usize,
        n: usize,
        relu: bool,
    ) -> Storage;

    /// Pointwise conv forward: `[B, C, L] × [K, C] (+[K]) → [B, K, L]`.
    #[allow(clippy::too_many_arguments)]
    fn pw_conv1d_fwd(
        &self,
        x: &Data,
        w: &Data,
        bias: &Data,
        bsz: usize,
        c: usize,
        l: usize,
        k: usize,
    ) -> Storage;

    /// Pointwise conv backward: returns `(dx, dw, db)`.
    #[allow(clippy::too_many_arguments)]
    fn pw_conv1d_bwd(
        &self,
        x: &Data,
        w: &Data,
        g: &Data,
        bsz: usize,
        c: usize,
        l: usize,
        k: usize,
    ) -> (Storage, Storage, Storage);

    /// Depthwise conv forward ("same" padding, odd `kw`):
    /// `[B, C, L] × [C, Kw] → [B, C, L]`.
    fn dw_conv1d_fwd(
        &self,
        x: &Data,
        w: &Data,
        bsz: usize,
        c: usize,
        l: usize,
        kw: usize,
    ) -> Storage;

    /// Fused depthwise conv + ReLU forward — bit-identical to
    /// `dw_conv1d_fwd` followed by `max(·, 0)`.
    fn dw_conv1d_relu_fwd(
        &self,
        x: &Data,
        w: &Data,
        bsz: usize,
        c: usize,
        l: usize,
        kw: usize,
    ) -> Storage;

    /// Depthwise conv backward: returns `(dx, dw)`.
    #[allow(clippy::too_many_arguments)]
    fn dw_conv1d_bwd(
        &self,
        x: &Data,
        w: &Data,
        g: &Data,
        bsz: usize,
        c: usize,
        l: usize,
        kw: usize,
    ) -> (Storage, Storage);

    /// `[B, C, L] → [B·L, C]` permutation.
    fn to_channels_last(&self, x: &Data, bsz: usize, c: usize, l: usize) -> Storage;

    /// `[B·L, C] → [B, C, L]` permutation.
    fn from_channels_last(&self, x: &Data, bsz: usize, c: usize, l: usize) -> Storage;

    // -- Allocation-free forward variants -----------------------------------
    //
    // Provided methods writing into caller-owned buffers, for frozen
    // inference plans (`dance-plan`) that preallocate every activation.
    // Each runs the same scalar loop nest as the reference implementation,
    // so outputs are bit-identical to the allocating methods at any thread
    // count (the parallel methods are themselves bit-identical to scalar
    // per the module contract).

    /// [`Kernels::matmul`] into a caller-owned `[m·n]` buffer.
    fn matmul_into(&self, a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
        matmul_rows_into(a, b, k, n, 0..m, out);
    }

    /// [`Kernels::linear`] into a caller-owned `[m·n]` buffer.
    #[allow(clippy::too_many_arguments)]
    fn linear_into(
        &self,
        x: &[f32],
        w: &[f32],
        bias: &[f32],
        m: usize,
        k: usize,
        n: usize,
        relu: bool,
        out: &mut [f32],
    ) {
        linear_rows_into(x, w, bias, k, n, relu, 0..m, out);
    }

    /// [`Kernels::unary`] into a caller-owned buffer of `a.len()`.
    fn unary_into(&self, a: &[f32], op: UnaryOp, out: &mut [f32]) {
        unary_range_into(a, op, 0..a.len(), out);
    }

    /// [`Kernels::binary`] into a caller-owned buffer of `a.len()`.
    fn binary_into(&self, a: &[f32], b: &[f32], op: BinaryOp, out: &mut [f32]) {
        binary_range_into(a, b, op, 0..a.len(), out);
    }

    /// [`Kernels::sum`] of a plain slice (same fixed-block association).
    fn sum_slice(&self, a: &[f32]) -> f32 {
        blocked_sum(a)
    }

    /// [`Kernels::dot`] of plain slices (same fixed-block association).
    fn dot_slices(&self, a: &[f32], b: &[f32]) -> f32 {
        dot_blocked(a, b)
    }

    /// [`Kernels::softmax_rows`] into a caller-owned `[m·n]` buffer.
    fn softmax_rows_into(&self, a: &[f32], m: usize, n: usize, out: &mut [f32]) {
        softmax_rows_range_into(a, n, 0..m, out);
    }

    /// [`Kernels::add_row_broadcast`] into a caller-owned `[m·n]` buffer.
    fn add_row_broadcast_into(&self, x: &[f32], bias: &[f32], m: usize, n: usize, out: &mut [f32]) {
        add_row_broadcast_rows_into(x, bias, n, 0..m, out);
    }

    /// [`Kernels::mul_row_broadcast`] into a caller-owned `[m·n]` buffer.
    fn mul_row_broadcast_into(
        &self,
        x: &[f32],
        scale: &[f32],
        m: usize,
        n: usize,
        out: &mut [f32],
    ) {
        mul_row_broadcast_rows_into(x, scale, n, 0..m, out);
    }

    /// [`Kernels::pw_conv1d_fwd`] into a caller-owned `[B·K·L]` buffer.
    #[allow(clippy::too_many_arguments)]
    fn pw_conv1d_fwd_into(
        &self,
        x: &[f32],
        w: &[f32],
        bias: &[f32],
        bsz: usize,
        c: usize,
        l: usize,
        k: usize,
        out: &mut [f32],
    ) {
        pw_fwd_rows_into(x, w, bias, c, l, k, 0..bsz * k, out);
    }

    /// [`Kernels::dw_conv1d_fwd`] into a caller-owned `[B·C·L]` buffer.
    #[allow(clippy::too_many_arguments)]
    fn dw_conv1d_fwd_into(
        &self,
        x: &[f32],
        w: &[f32],
        bsz: usize,
        c: usize,
        l: usize,
        kw: usize,
        out: &mut [f32],
    ) {
        dw_fwd_rows_into(x, w, c, l, kw, false, 0..bsz * c, out);
    }

    /// [`Kernels::dw_conv1d_relu_fwd`] into a caller-owned `[B·C·L]` buffer.
    #[allow(clippy::too_many_arguments)]
    fn dw_conv1d_relu_fwd_into(
        &self,
        x: &[f32],
        w: &[f32],
        bsz: usize,
        c: usize,
        l: usize,
        kw: usize,
        out: &mut [f32],
    ) {
        dw_fwd_rows_into(x, w, c, l, kw, true, 0..bsz * c, out);
    }

    /// [`Kernels::to_channels_last`] into a caller-owned `[B·L·C]` buffer.
    fn to_channels_last_into(&self, x: &[f32], bsz: usize, c: usize, l: usize, out: &mut [f32]) {
        to_cl_batches_into(x, c, l, 0..bsz, out);
    }

    /// [`Kernels::from_channels_last`] into a caller-owned `[B·C·L]` buffer.
    fn from_channels_last_into(&self, x: &[f32], bsz: usize, c: usize, l: usize, out: &mut [f32]) {
        from_cl_batches_into(x, c, l, 0..bsz, out);
    }
}

// ---------------------------------------------------------------------------
// Range-parameterized loop nests shared by both implementations. Each helper
// computes rows `rows.start..rows.end` (or the stated range) of the output,
// with per-element accumulation order identical to the original code.
// ---------------------------------------------------------------------------

use std::ops::Range;

fn matmul_rows_into(a: &[f32], b: &[f32], k: usize, n: usize, rows: Range<usize>, out: &mut [f32]) {
    out.fill(0.0);
    for (local, i) in rows.enumerate() {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut out[local * n..(local + 1) * n];
        // Register-block four `p` steps per pass over `c_row`: each output
        // element still accumulates its terms in ascending-`p` order
        // (`(((c+t₀)+t₁)+t₂)+t₃` is the same chain the scalar loop builds),
        // but the row is loaded/stored once per four terms instead of once
        // per term, and the branch-free body vectorizes. The historical
        // exact-zero skip on `a[i, p]` is gone: with finite operands,
        // adding `0·b` terms is a bit-level no-op (`±0.0` cannot move a
        // partial sum, which is never `-0.0` mid-chain under
        // round-to-nearest), and the dense unrolled loop beats the skip
        // even on the ~50%-sparse ReLU-masked gradients it was built for.
        let mut p = 0;
        while p + 4 <= k {
            let (a0, a1, a2, a3) = (a_row[p], a_row[p + 1], a_row[p + 2], a_row[p + 3]);
            let b0 = &b[p * n..][..n];
            let b1 = &b[(p + 1) * n..][..n];
            let b2 = &b[(p + 2) * n..][..n];
            let b3 = &b[(p + 3) * n..][..n];
            for j in 0..n {
                c_row[j] = (((c_row[j] + a0 * b0[j]) + a1 * b1[j]) + a2 * b2[j]) + a3 * b3[j];
            }
            p += 4;
        }
        for (q, &av) in a_row[p..].iter().enumerate() {
            let b_row = &b[(p + q) * n..][..n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row.iter()) {
                *cv += av * bv;
            }
        }
    }
}

fn matmul_rows(a: &[f32], b: &[f32], k: usize, n: usize, rows: Range<usize>) -> Vec<f32> {
    let mut out = vec![0.0f32; rows.len() * n];
    matmul_rows_into(a, b, k, n, rows, &mut out);
    out
}

/// Fused matmul + bias (+ ReLU): the bias/activation pass runs per row right
/// after that row's accumulation, element order identical to the historical
/// matmul → add_row_broadcast → relu sequence.
#[allow(clippy::too_many_arguments)]
fn linear_rows_into(
    x: &[f32],
    w: &[f32],
    bias: &[f32],
    k: usize,
    n: usize,
    relu: bool,
    rows: Range<usize>,
    out: &mut [f32],
) {
    matmul_rows_into(x, w, k, n, rows.clone(), out);
    for local in 0..rows.len() {
        let o_row = &mut out[local * n..(local + 1) * n];
        if relu {
            for (o, &bv) in o_row.iter_mut().zip(bias.iter()) {
                *o = (*o + bv).max(0.0);
            }
        } else {
            for (o, &bv) in o_row.iter_mut().zip(bias.iter()) {
                *o += bv;
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn linear_rows(
    x: &[f32],
    w: &[f32],
    bias: &[f32],
    k: usize,
    n: usize,
    relu: bool,
    rows: Range<usize>,
) -> Vec<f32> {
    let mut out = vec![0.0f32; rows.len() * n];
    linear_rows_into(x, w, bias, k, n, relu, rows, &mut out);
    out
}

/// `wᵀ` for the `g × wᵀ` product, as a `[n, kdim]` plain heap buffer.
///
/// Both [`Kernels::matmul_bt`] implementations transpose the `[kdim, n]`
/// weight exactly once per call and then run [`matmul_rows_into`] on it, so
/// the product *is* `matmul(g, wᵀ)` — the identity the kernel's bit-exactness
/// contract is stated against (per output element the terms arrive in
/// ascending `j`). At width 128 the transpose costs as much as a whole
/// one-row chunk, so it must never be repeated per chunk.
///
/// Deliberately not arena [`Storage`]: the parallel path shares the buffer
/// with its chunks through the pool job's closure, and the closure can be
/// dropped last on a worker thread — an arena buffer would then be recycled
/// into that worker's thread-local free list, where the caller never finds
/// it again, and every call would strand one more.
fn transposed(w: &[f32], kdim: usize, n: usize) -> Vec<f32> {
    let mut wt = vec![0.0f32; n * kdim];
    transpose_cols_into(w, kdim, n, 0..n, &mut wt);
    wt
}

/// `xᵀ × g` rows: output row `i` (a column of `x`), iterating `p` ascending
/// with the exact-zero skip on `x[p, i]` — the same term order the
/// historical `matmul(transpose(x), g)` produced, with contiguous reads of
/// `g` and writes of `out`.
fn matmul_at_rows_into(
    x: &[f32],
    g: &[f32],
    m: usize,
    kdim: usize,
    n: usize,
    rows: Range<usize>,
    out: &mut [f32],
) {
    // Gathering the requested columns of `x` into contiguous rows turns
    // the stride-`kdim` walk into sequential reads, after which this *is*
    // `matmul(xᵀ, g)` restricted to those rows — same ascending-`p` term
    // order, same exact-zero skip on `x[p, i]`, so bit-identical. Only the
    // chunk's own rows are transposed, so parallel callers do no
    // duplicate work.
    let mut xt = Storage::uninit(rows.len() * m);
    transpose_cols_into(x, m, kdim, rows.clone(), &mut xt);
    matmul_rows_into(&xt, g, m, n, 0..rows.len(), out);
}

fn matmul_at_rows(
    x: &[f32],
    g: &[f32],
    m: usize,
    kdim: usize,
    n: usize,
    rows: Range<usize>,
) -> Vec<f32> {
    let mut out = vec![0.0f32; rows.len() * n];
    matmul_at_rows_into(x, g, m, kdim, n, rows, &mut out);
    out
}

fn transpose_cols_into(a: &[f32], m: usize, n: usize, cols: Range<usize>, out: &mut [f32]) {
    for (local, j) in cols.enumerate() {
        for i in 0..m {
            out[local * m + i] = a[i * n + j];
        }
    }
}

fn transpose_cols(a: &[f32], m: usize, n: usize, cols: Range<usize>) -> Vec<f32> {
    let mut out = vec![0.0f32; cols.len() * m];
    transpose_cols_into(a, m, n, cols, &mut out);
    out
}

fn unary_range_into(a: &[f32], op: UnaryOp, range: Range<usize>, out: &mut [f32]) {
    for (o, &x) in out.iter_mut().zip(a[range].iter()) {
        *o = op.apply(x);
    }
}

fn unary_range(a: &[f32], op: UnaryOp, range: Range<usize>) -> Vec<f32> {
    let mut out = vec![0.0f32; range.len()];
    unary_range_into(a, op, range, &mut out);
    out
}

fn binary_range_into(a: &[f32], b: &[f32], op: BinaryOp, range: Range<usize>, out: &mut [f32]) {
    for ((o, &x), &y) in out
        .iter_mut()
        .zip(a[range.clone()].iter())
        .zip(b[range].iter())
    {
        *o = op.apply(x, y);
    }
}

fn binary_range(a: &[f32], b: &[f32], op: BinaryOp, range: Range<usize>) -> Vec<f32> {
    let mut out = vec![0.0f32; range.len()];
    binary_range_into(a, b, op, range, &mut out);
    out
}

/// Fixed-block sum: strict left-to-right inside each `SUM_CHUNK` block,
/// blocks combined in order. Equal to the plain sequential sum whenever
/// `a.len() <= SUM_CHUNK`.
fn blocked_sum(a: &[f32]) -> f32 {
    if a.len() <= SUM_CHUNK {
        return a.iter().sum();
    }
    a.chunks(SUM_CHUNK).map(|c| c.iter().sum::<f32>()).sum()
}

/// Fixed-block inner product: sums `a[i]·b[i]` with the same association as
/// [`blocked_sum`] over the products — bit-identical to materializing the
/// element-wise product and then summing it.
fn dot_blocked(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    if a.len() <= SUM_CHUNK {
        return a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum();
    }
    a.chunks(SUM_CHUNK)
        .zip(b.chunks(SUM_CHUNK))
        .map(|(ca, cb)| ca.iter().zip(cb.iter()).map(|(&x, &y)| x * y).sum::<f32>())
        .sum()
}

fn sum_rows_cols_into(a: &[f32], m: usize, n: usize, cols: Range<usize>, out: &mut [f32]) {
    out.fill(0.0);
    for i in 0..m {
        for (local, j) in cols.clone().enumerate() {
            out[local] += a[i * n + j];
        }
    }
}

fn sum_rows_cols(a: &[f32], m: usize, n: usize, cols: Range<usize>) -> Vec<f32> {
    let mut out = vec![0.0f32; cols.len()];
    sum_rows_cols_into(a, m, n, cols, &mut out);
    out
}

fn softmax_rows_range_into(a: &[f32], n: usize, rows: Range<usize>, out: &mut [f32]) {
    for (local, i) in rows.enumerate() {
        let row = &a[i * n..(i + 1) * n];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0;
        for j in 0..n {
            let e = (row[j] - max).exp();
            out[local * n + j] = e;
            denom += e;
        }
        for v in &mut out[local * n..(local + 1) * n] {
            *v /= denom;
        }
    }
}

fn softmax_rows_range(a: &[f32], n: usize, rows: Range<usize>) -> Vec<f32> {
    let mut out = vec![0.0f32; rows.len() * n];
    softmax_rows_range_into(a, n, rows, &mut out);
    out
}

fn add_row_broadcast_rows_into(
    x: &[f32],
    bias: &[f32],
    n: usize,
    rows: Range<usize>,
    out: &mut [f32],
) {
    for (local, i) in rows.enumerate() {
        for j in 0..n {
            out[local * n + j] = x[i * n + j] + bias[j];
        }
    }
}

fn add_row_broadcast_rows(x: &[f32], bias: &[f32], n: usize, rows: Range<usize>) -> Vec<f32> {
    let mut out = vec![0.0f32; rows.len() * n];
    add_row_broadcast_rows_into(x, bias, n, rows, &mut out);
    out
}

fn mul_row_broadcast_rows_into(
    x: &[f32],
    scale: &[f32],
    n: usize,
    rows: Range<usize>,
    out: &mut [f32],
) {
    for (local, i) in rows.enumerate() {
        for j in 0..n {
            out[local * n + j] = x[i * n + j] * scale[j];
        }
    }
}

fn mul_row_broadcast_rows(x: &[f32], scale: &[f32], n: usize, rows: Range<usize>) -> Vec<f32> {
    let mut out = vec![0.0f32; rows.len() * n];
    mul_row_broadcast_rows_into(x, scale, n, rows, &mut out);
    out
}

/// Pointwise forward over flattened output rows `r = b·K + ko` (each row is
/// the contiguous `L`-length span `out[(b·K + ko)·L ..]`).
#[allow(clippy::too_many_arguments)]
fn pw_fwd_rows_into(
    x: &[f32],
    w: &[f32],
    bias: &[f32],
    c: usize,
    l: usize,
    k: usize,
    rows: Range<usize>,
    out: &mut [f32],
) {
    out.fill(0.0);
    for (local, r) in rows.enumerate() {
        let (b, ko) = (r / k, r % k);
        let w_row = &w[ko * c..(ko + 1) * c];
        let o_row = &mut out[local * l..(local + 1) * l];
        for (ci, &wv) in w_row.iter().enumerate() {
            // lint: allow(float-eq) exact-zero skip: sparsity fast path, not a tolerance check
            if wv == 0.0 {
                continue;
            }
            let x_base = (b * c + ci) * l;
            for (li, o) in o_row.iter_mut().enumerate() {
                *o += wv * x[x_base + li];
            }
        }
        for o in o_row.iter_mut() {
            *o += bias[ko];
        }
    }
}

fn pw_fwd_rows(
    x: &[f32],
    w: &[f32],
    bias: &[f32],
    c: usize,
    l: usize,
    k: usize,
    rows: Range<usize>,
) -> Vec<f32> {
    let mut out = vec![0.0f32; rows.len() * l];
    pw_fwd_rows_into(x, w, bias, c, l, k, rows, &mut out);
    out
}

/// Pointwise backward, weight/bias half: for each output channel `ko` in
/// the range, accumulates `dw[ko, :]` and `db[ko]` over batches in batch
/// order — exactly the original `b`-outer traversal restricted to `ko`.
#[allow(clippy::too_many_arguments)]
fn pw_bwd_dwdb_kos_into(
    x: &[f32],
    g: &[f32],
    bsz: usize,
    c: usize,
    l: usize,
    k: usize,
    kos: Range<usize>,
    dw: &mut [f32],
    db: &mut [f32],
) {
    dw.fill(0.0);
    db.fill(0.0);
    for (local, ko) in kos.enumerate() {
        for b in 0..bsz {
            let g_row = &g[(b * k + ko) * l..(b * k + ko + 1) * l];
            db[local] += g_row.iter().sum::<f32>();
            for ci in 0..c {
                let x_base = (b * c + ci) * l;
                let mut dw_acc = 0.0;
                for (li, &gv) in g_row.iter().enumerate() {
                    dw_acc += gv * x[x_base + li];
                }
                dw[local * c + ci] += dw_acc;
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn pw_bwd_dwdb_kos(
    x: &[f32],
    g: &[f32],
    bsz: usize,
    c: usize,
    l: usize,
    k: usize,
    kos: Range<usize>,
) -> (Vec<f32>, Vec<f32>) {
    let mut dw = vec![0.0f32; kos.len() * c];
    let mut db = vec![0.0f32; kos.len()];
    pw_bwd_dwdb_kos_into(x, g, bsz, c, l, k, kos, &mut dw, &mut db);
    (dw, db)
}

/// Pointwise backward, input half: `dx` for whole batches in the range
/// (each batch is the contiguous span `dx[b·C·L ..]`); `ko` stays the inner
/// accumulation axis, as in the original.
fn pw_bwd_dx_batches_into(
    w: &[f32],
    g: &[f32],
    c: usize,
    l: usize,
    k: usize,
    batches: Range<usize>,
    dx: &mut [f32],
) {
    dx.fill(0.0);
    for (local, b) in batches.enumerate() {
        for ko in 0..k {
            let g_row = &g[(b * k + ko) * l..(b * k + ko + 1) * l];
            for ci in 0..c {
                let wv = w[ko * c + ci];
                let dx_base = (local * c + ci) * l;
                for (li, &gv) in g_row.iter().enumerate() {
                    dx[dx_base + li] += wv * gv;
                }
            }
        }
    }
}

fn pw_bwd_dx_batches(
    w: &[f32],
    g: &[f32],
    c: usize,
    l: usize,
    k: usize,
    batches: Range<usize>,
) -> Vec<f32> {
    let mut dx = vec![0.0f32; batches.len() * c * l];
    pw_bwd_dx_batches_into(w, g, c, l, k, batches, &mut dx);
    dx
}

/// Depthwise forward over flattened rows `r = b·C + ci` (contiguous
/// output); `relu` folds the `max(·, 0)` into the store, matching a
/// separate ReLU pass bit-for-bit.
#[allow(clippy::too_many_arguments)]
fn dw_fwd_rows_into(
    x: &[f32],
    w: &[f32],
    c: usize,
    l: usize,
    kw: usize,
    relu: bool,
    rows: Range<usize>,
    out: &mut [f32],
) {
    let pad = kw / 2;
    for (local, r) in rows.enumerate() {
        let ci = r % c;
        let x_row = &x[r * l..(r + 1) * l];
        let w_row = &w[ci * kw..(ci + 1) * kw];
        let o_row = &mut out[local * l..(local + 1) * l];
        // Tap-outer form: each kernel tap is one contiguous shifted SAXPY
        // over the row instead of a per-element boundary branch. Every
        // output element still sums its valid taps in ascending-`j` order
        // (taps out of range simply never touch that element), and folding
        // the ReLU into a trailing pass applies `max(·, 0)` to the same
        // accumulated value the per-element form produced.
        o_row.fill(0.0);
        for (j, &wv) in w_row.iter().enumerate() {
            if j >= pad {
                let off = j - pad; // reads x_row[li + off]
                if off >= l {
                    continue; // tap falls wholly outside a very short row
                }
                for (o, &xv) in o_row[..l - off].iter_mut().zip(x_row[off..].iter()) {
                    *o += wv * xv;
                }
            } else {
                let off = pad - j; // reads x_row[li - off], li >= off
                if off >= l {
                    continue;
                }
                for (o, &xv) in o_row[off..].iter_mut().zip(x_row[..l - off].iter()) {
                    *o += wv * xv;
                }
            }
        }
        if relu {
            for o in o_row.iter_mut() {
                *o = o.max(0.0);
            }
        }
    }
}

fn dw_fwd_rows(
    x: &[f32],
    w: &[f32],
    c: usize,
    l: usize,
    kw: usize,
    relu: bool,
    rows: Range<usize>,
) -> Vec<f32> {
    let mut out = vec![0.0f32; rows.len() * l];
    dw_fwd_rows_into(x, w, c, l, kw, relu, rows, &mut out);
    out
}

/// Depthwise backward, input half: `dx` rows `r = b·C + ci` (contiguous).
/// A depthwise `dx[b, ci]` row only receives contributions from the matching
/// `g[b, ci]` row, in the original `(li, j)` order.
fn dw_bwd_dx_rows_into(
    w: &[f32],
    g: &[f32],
    c: usize,
    l: usize,
    kw: usize,
    rows: Range<usize>,
    dx: &mut [f32],
) {
    let pad = kw / 2;
    dx.fill(0.0);
    for (local, r) in rows.enumerate() {
        let ci = r % c;
        let g_row = &g[r * l..(r + 1) * l];
        let w_row = &w[ci * kw..(ci + 1) * kw];
        let d_row = &mut dx[local * l..(local + 1) * l];
        // Tap-outer form of the scatter: `dx[li + j - pad] += g[li]·w[j]`
        // becomes one shifted SAXPY per tap. Each `dx` element's terms come
        // from ascending `li`, which is *descending* `j` — so the taps run
        // in reverse to keep the accumulation chain identical to the
        // per-element original. The historical `g[li] == 0` skip is gone:
        // with finite weights, adding `0·w` to a running sum is a bit-level
        // no-op (a partial sum can never be `-0.0` mid-chain), and the
        // branch-free loop vectorizes where the skip could not.
        for j in (0..kw).rev() {
            let wv = w_row[j];
            if j >= pad {
                let off = j - pad; // writes d_row[li + off], reads g_row[li]
                if off >= l {
                    continue;
                }
                for (o, &gv) in d_row[off..].iter_mut().zip(g_row[..l - off].iter()) {
                    *o += gv * wv;
                }
            } else {
                let off = pad - j;
                if off >= l {
                    continue;
                }
                for (o, &gv) in d_row[..l - off].iter_mut().zip(g_row[off..].iter()) {
                    *o += gv * wv;
                }
            }
        }
    }
}

fn dw_bwd_dx_rows(
    w: &[f32],
    g: &[f32],
    c: usize,
    l: usize,
    kw: usize,
    rows: Range<usize>,
) -> Vec<f32> {
    let mut dx = vec![0.0f32; rows.len() * l];
    dw_bwd_dx_rows_into(w, g, c, l, kw, rows, &mut dx);
    dx
}

/// Depthwise backward, weight half: `dw[ci, :]` for channels in the range,
/// accumulated in the original `(b, li, j)` order restricted to each `ci`.
#[allow(clippy::too_many_arguments)]
fn dw_bwd_dw_channels_into(
    x: &[f32],
    g: &[f32],
    bsz: usize,
    c: usize,
    l: usize,
    kw: usize,
    cis: Range<usize>,
    dw: &mut [f32],
) {
    let pad = kw / 2;
    dw.fill(0.0);
    for (local, ci) in cis.enumerate() {
        for b in 0..bsz {
            let base = (b * c + ci) * l;
            let g_row = &g[base..base + l];
            let x_row = &x[base..base + l];
            // Tap-outer form: `dw[j]` is the dot of `g` with `x` shifted by
            // `j - pad`. Each tap's terms run over ascending `li` — exactly
            // the order the per-element original fed `dw[j]` — and the
            // `(b, li)` outer order is preserved by accumulating per batch.
            // The historical `g[li] == 0` skip is dropped on the same
            // finite-weight grounds as `dw_bwd_dx_rows_into`: `0·x` terms
            // cannot move a running sum at the bit level.
            for (j, dwj) in dw[local * kw..(local + 1) * kw].iter_mut().enumerate() {
                let (gs, xs) = if j >= pad {
                    let off = j - pad; // pairs g_row[li] with x_row[li + off]
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
                let mut acc = *dwj;
                for (&gv, &xv) in gs.iter().zip(xs.iter()) {
                    acc += gv * xv;
                }
                *dwj = acc;
            }
        }
    }
}

fn dw_bwd_dw_channels(
    x: &[f32],
    g: &[f32],
    bsz: usize,
    c: usize,
    l: usize,
    kw: usize,
    cis: Range<usize>,
) -> Vec<f32> {
    let mut dw = vec![0.0f32; cis.len() * kw];
    dw_bwd_dw_channels_into(x, g, bsz, c, l, kw, cis, &mut dw);
    dw
}

/// `[B, C, L] → [B·L, C]` for whole batches (contiguous output spans).
fn to_cl_batches_into(x: &[f32], c: usize, l: usize, batches: Range<usize>, out: &mut [f32]) {
    for (local, b) in batches.enumerate() {
        for ci in 0..c {
            for li in 0..l {
                out[(local * l + li) * c + ci] = x[(b * c + ci) * l + li];
            }
        }
    }
}

fn to_cl_batches(x: &[f32], c: usize, l: usize, batches: Range<usize>) -> Vec<f32> {
    let mut out = vec![0.0f32; batches.len() * l * c];
    to_cl_batches_into(x, c, l, batches, &mut out);
    out
}

/// `[B·L, C] → [B, C, L]` for whole batches (contiguous output spans).
fn from_cl_batches_into(x: &[f32], c: usize, l: usize, batches: Range<usize>, out: &mut [f32]) {
    for (local, b) in batches.enumerate() {
        for ci in 0..c {
            for li in 0..l {
                out[(local * c + ci) * l + li] = x[(b * l + li) * c + ci];
            }
        }
    }
}

fn from_cl_batches(x: &[f32], c: usize, l: usize, batches: Range<usize>) -> Vec<f32> {
    let mut out = vec![0.0f32; batches.len() * c * l];
    from_cl_batches_into(x, c, l, batches, &mut out);
    out
}

/// Runs chunk closures on the pool and splices their spans, in chunk order,
/// into one arena-allocated [`Storage`].
fn run_concat_storage<F>(n_chunks: usize, total_len: usize, work: F) -> Storage
where
    F: Fn(usize) -> Vec<f32> + Send + Sync + 'static,
{
    let parts = pool::run(n_chunks, work);
    let mut out = Storage::uninit(total_len);
    let mut off = 0;
    for p in parts {
        out[off..off + p.len()].copy_from_slice(&p);
        off += p.len();
    }
    debug_assert_eq!(off, total_len, "kernel chunks must cover the output");
    out
}

// ---------------------------------------------------------------------------
// Scalar reference implementation.
// ---------------------------------------------------------------------------

/// Single-thread reference implementation (the original loop nests), writing
/// directly into arena-allocated output buffers.
#[derive(Debug, Default, Clone, Copy)]
pub struct ScalarKernels;

impl Kernels for ScalarKernels {
    fn matmul(&self, a: &Data, b: &Data, m: usize, k: usize, n: usize) -> Storage {
        let mut out = Storage::uninit(m * n);
        matmul_rows_into(a, b, k, n, 0..m, &mut out);
        out
    }

    fn matmul_bt(&self, g: &Data, w: &Data, m: usize, n: usize, kdim: usize) -> Storage {
        let mut out = Storage::uninit(m * kdim);
        matmul_rows_into(g, &transposed(w, kdim, n), n, kdim, 0..m, &mut out);
        out
    }

    fn matmul_at(&self, x: &Data, g: &Data, m: usize, kdim: usize, n: usize) -> Storage {
        let mut out = Storage::uninit(kdim * n);
        matmul_at_rows_into(x, g, m, kdim, n, 0..kdim, &mut out);
        out
    }

    fn transpose(&self, a: &Data, m: usize, n: usize) -> Storage {
        let mut out = Storage::uninit(m * n);
        transpose_cols_into(a, m, n, 0..n, &mut out);
        out
    }

    fn unary(&self, a: &Data, op: UnaryOp) -> Storage {
        let mut out = Storage::uninit(a.len());
        unary_range_into(a, op, 0..a.len(), &mut out);
        out
    }

    fn binary(&self, a: &Data, b: &Data, op: BinaryOp) -> Storage {
        let mut out = Storage::uninit(a.len());
        binary_range_into(a, b, op, 0..a.len(), &mut out);
        out
    }

    fn sum(&self, a: &Data) -> f32 {
        blocked_sum(a)
    }

    fn sum_rows(&self, a: &Data, m: usize, n: usize) -> Storage {
        let mut out = Storage::uninit(n);
        sum_rows_cols_into(a, m, n, 0..n, &mut out);
        out
    }

    fn softmax_rows(&self, a: &Data, m: usize, n: usize) -> Storage {
        let mut out = Storage::uninit(m * n);
        softmax_rows_range_into(a, n, 0..m, &mut out);
        out
    }

    fn add_row_broadcast(&self, x: &Data, bias: &Data, m: usize, n: usize) -> Storage {
        let mut out = Storage::uninit(m * n);
        add_row_broadcast_rows_into(x, bias, n, 0..m, &mut out);
        out
    }

    fn mul_row_broadcast(&self, x: &Data, scale: &Data, m: usize, n: usize) -> Storage {
        let mut out = Storage::uninit(m * n);
        mul_row_broadcast_rows_into(x, scale, n, 0..m, &mut out);
        out
    }

    fn linear(
        &self,
        x: &Data,
        w: &Data,
        bias: &Data,
        m: usize,
        k: usize,
        n: usize,
        relu: bool,
    ) -> Storage {
        let mut out = Storage::uninit(m * n);
        linear_rows_into(x, w, bias, k, n, relu, 0..m, &mut out);
        out
    }

    fn pw_conv1d_fwd(
        &self,
        x: &Data,
        w: &Data,
        bias: &Data,
        bsz: usize,
        c: usize,
        l: usize,
        k: usize,
    ) -> Storage {
        let mut out = Storage::uninit(bsz * k * l);
        pw_fwd_rows_into(x, w, bias, c, l, k, 0..bsz * k, &mut out);
        out
    }

    fn pw_conv1d_bwd(
        &self,
        x: &Data,
        w: &Data,
        g: &Data,
        bsz: usize,
        c: usize,
        l: usize,
        k: usize,
    ) -> (Storage, Storage, Storage) {
        let mut dw = Storage::uninit(k * c);
        let mut db = Storage::uninit(k);
        pw_bwd_dwdb_kos_into(x, g, bsz, c, l, k, 0..k, &mut dw, &mut db);
        let mut dx = Storage::uninit(bsz * c * l);
        pw_bwd_dx_batches_into(w, g, c, l, k, 0..bsz, &mut dx);
        (dx, dw, db)
    }

    fn dw_conv1d_fwd(
        &self,
        x: &Data,
        w: &Data,
        bsz: usize,
        c: usize,
        l: usize,
        kw: usize,
    ) -> Storage {
        let mut out = Storage::uninit(bsz * c * l);
        dw_fwd_rows_into(x, w, c, l, kw, false, 0..bsz * c, &mut out);
        out
    }

    fn dw_conv1d_relu_fwd(
        &self,
        x: &Data,
        w: &Data,
        bsz: usize,
        c: usize,
        l: usize,
        kw: usize,
    ) -> Storage {
        let mut out = Storage::uninit(bsz * c * l);
        dw_fwd_rows_into(x, w, c, l, kw, true, 0..bsz * c, &mut out);
        out
    }

    fn dw_conv1d_bwd(
        &self,
        x: &Data,
        w: &Data,
        g: &Data,
        bsz: usize,
        c: usize,
        l: usize,
        kw: usize,
    ) -> (Storage, Storage) {
        let mut dx = Storage::uninit(bsz * c * l);
        dw_bwd_dx_rows_into(w, g, c, l, kw, 0..bsz * c, &mut dx);
        let mut dw = Storage::uninit(c * kw);
        dw_bwd_dw_channels_into(x, g, bsz, c, l, kw, 0..c, &mut dw);
        (dx, dw)
    }

    fn to_channels_last(&self, x: &Data, bsz: usize, c: usize, l: usize) -> Storage {
        let mut out = Storage::uninit(bsz * c * l);
        to_cl_batches_into(x, c, l, 0..bsz, &mut out);
        out
    }

    fn from_channels_last(&self, x: &Data, bsz: usize, c: usize, l: usize) -> Storage {
        let mut out = Storage::uninit(bsz * c * l);
        from_cl_batches_into(x, c, l, 0..bsz, &mut out);
        out
    }
}

// ---------------------------------------------------------------------------
// Parallel implementation.
// ---------------------------------------------------------------------------

/// Chunked-parallel implementation dispatching on the worker pool.
#[derive(Debug, Default, Clone, Copy)]
pub struct ParallelKernels;

/// Splits `rows` output rows of `row_work` work units each into chunk
/// ranges of roughly [`GRAIN`] work, independent of the thread count.
fn row_chunks(rows: usize, row_work: usize) -> (usize, usize) {
    let per_chunk = (GRAIN / row_work.max(1)).max(1);
    (rows.div_ceil(per_chunk), per_chunk)
}

/// Whether a kernel of `total_work` units should dispatch in parallel.
fn parallel_worthwhile(total_work: usize) -> bool {
    total_work >= PAR_MIN_WORK && pool::threads() > 1
}

impl Kernels for ParallelKernels {
    fn matmul(&self, a: &Data, b: &Data, m: usize, k: usize, n: usize) -> Storage {
        if !parallel_worthwhile(m * k * n) {
            return ScalarKernels.matmul(a, b, m, k, n);
        }
        let _span = dance_telemetry::hot_span!("backend.matmul");
        let (n_chunks, per_chunk) = row_chunks(m, k * n);
        let (a, b) = (a.clone(), b.clone());
        run_concat_storage(n_chunks, m * n, move |i| {
            let rows = i * per_chunk..((i + 1) * per_chunk).min(m);
            matmul_rows(&a, &b, k, n, rows)
        })
    }

    fn matmul_bt(&self, g: &Data, w: &Data, m: usize, n: usize, kdim: usize) -> Storage {
        if !parallel_worthwhile(m * n * kdim) {
            return ScalarKernels.matmul_bt(g, w, m, n, kdim);
        }
        let _span = dance_telemetry::hot_span!("backend.matmul_bt");
        let (n_chunks, per_chunk) = row_chunks(m, n * kdim);
        let (g, wt) = (g.clone(), Arc::new(transposed(w, kdim, n)));
        run_concat_storage(n_chunks, m * kdim, move |i| {
            let rows = i * per_chunk..((i + 1) * per_chunk).min(m);
            matmul_rows(&g, &wt, n, kdim, rows)
        })
    }

    fn matmul_at(&self, x: &Data, g: &Data, m: usize, kdim: usize, n: usize) -> Storage {
        if !parallel_worthwhile(m * kdim * n) {
            return ScalarKernels.matmul_at(x, g, m, kdim, n);
        }
        let _span = dance_telemetry::hot_span!("backend.matmul_at");
        let (n_chunks, per_chunk) = row_chunks(kdim, m * n);
        let (x, g) = (x.clone(), g.clone());
        run_concat_storage(n_chunks, kdim * n, move |i| {
            let rows = i * per_chunk..((i + 1) * per_chunk).min(kdim);
            matmul_at_rows(&x, &g, m, kdim, n, rows)
        })
    }

    fn transpose(&self, a: &Data, m: usize, n: usize) -> Storage {
        if !parallel_worthwhile(m * n) {
            return ScalarKernels.transpose(a, m, n);
        }
        let _span = dance_telemetry::hot_span!("backend.transpose");
        let (n_chunks, per_chunk) = row_chunks(n, m);
        let a = a.clone();
        run_concat_storage(n_chunks, m * n, move |i| {
            let cols = i * per_chunk..((i + 1) * per_chunk).min(n);
            transpose_cols(&a, m, n, cols)
        })
    }

    fn unary(&self, a: &Data, op: UnaryOp) -> Storage {
        let len = a.len();
        if !parallel_worthwhile(len) {
            return ScalarKernels.unary(a, op);
        }
        let _span = dance_telemetry::hot_span!("backend.unary");
        let (n_chunks, per_chunk) = row_chunks(len, 1);
        let a = a.clone();
        run_concat_storage(n_chunks, len, move |i| {
            let range = i * per_chunk..((i + 1) * per_chunk).min(len);
            unary_range(&a, op, range)
        })
    }

    fn binary(&self, a: &Data, b: &Data, op: BinaryOp) -> Storage {
        let len = a.len();
        if !parallel_worthwhile(len) {
            return ScalarKernels.binary(a, b, op);
        }
        let _span = dance_telemetry::hot_span!("backend.binary");
        let (n_chunks, per_chunk) = row_chunks(len, 1);
        let (a, b) = (a.clone(), b.clone());
        run_concat_storage(n_chunks, len, move |i| {
            let range = i * per_chunk..((i + 1) * per_chunk).min(len);
            binary_range(&a, &b, op, range)
        })
    }

    fn sum(&self, a: &Data) -> f32 {
        let len = a.len();
        if len <= SUM_CHUNK || !parallel_worthwhile(len) {
            return blocked_sum(a);
        }
        let _span = dance_telemetry::hot_span!("backend.sum");
        let n_chunks = len.div_ceil(SUM_CHUNK);
        let a = a.clone();
        let partials = pool::run(n_chunks, move |i| {
            let range = i * SUM_CHUNK..((i + 1) * SUM_CHUNK).min(len);
            a[range].iter().sum::<f32>()
        });
        partials.iter().sum()
    }

    fn sum_rows(&self, a: &Data, m: usize, n: usize) -> Storage {
        if !parallel_worthwhile(m * n) {
            return ScalarKernels.sum_rows(a, m, n);
        }
        let _span = dance_telemetry::hot_span!("backend.sum_rows");
        let (n_chunks, per_chunk) = row_chunks(n, m);
        let a = a.clone();
        run_concat_storage(n_chunks, n, move |i| {
            let cols = i * per_chunk..((i + 1) * per_chunk).min(n);
            sum_rows_cols(&a, m, n, cols)
        })
    }

    fn softmax_rows(&self, a: &Data, m: usize, n: usize) -> Storage {
        if !parallel_worthwhile(m * n) {
            return ScalarKernels.softmax_rows(a, m, n);
        }
        let _span = dance_telemetry::hot_span!("backend.softmax_rows");
        let (n_chunks, per_chunk) = row_chunks(m, n);
        let a = a.clone();
        run_concat_storage(n_chunks, m * n, move |i| {
            let rows = i * per_chunk..((i + 1) * per_chunk).min(m);
            softmax_rows_range(&a, n, rows)
        })
    }

    fn add_row_broadcast(&self, x: &Data, bias: &Data, m: usize, n: usize) -> Storage {
        if !parallel_worthwhile(m * n) {
            return ScalarKernels.add_row_broadcast(x, bias, m, n);
        }
        let _span = dance_telemetry::hot_span!("backend.add_row_broadcast");
        let (n_chunks, per_chunk) = row_chunks(m, n);
        let (x, bias) = (x.clone(), bias.clone());
        run_concat_storage(n_chunks, m * n, move |i| {
            let rows = i * per_chunk..((i + 1) * per_chunk).min(m);
            add_row_broadcast_rows(&x, &bias, n, rows)
        })
    }

    fn mul_row_broadcast(&self, x: &Data, scale: &Data, m: usize, n: usize) -> Storage {
        if !parallel_worthwhile(m * n) {
            return ScalarKernels.mul_row_broadcast(x, scale, m, n);
        }
        let _span = dance_telemetry::hot_span!("backend.mul_row_broadcast");
        let (n_chunks, per_chunk) = row_chunks(m, n);
        let (x, scale) = (x.clone(), scale.clone());
        run_concat_storage(n_chunks, m * n, move |i| {
            let rows = i * per_chunk..((i + 1) * per_chunk).min(m);
            mul_row_broadcast_rows(&x, &scale, n, rows)
        })
    }

    fn linear(
        &self,
        x: &Data,
        w: &Data,
        bias: &Data,
        m: usize,
        k: usize,
        n: usize,
        relu: bool,
    ) -> Storage {
        if !parallel_worthwhile(m * k * n) {
            return ScalarKernels.linear(x, w, bias, m, k, n, relu);
        }
        let _span = dance_telemetry::hot_span!("backend.linear");
        let (n_chunks, per_chunk) = row_chunks(m, k * n);
        let (x, w, bias) = (x.clone(), w.clone(), bias.clone());
        run_concat_storage(n_chunks, m * n, move |i| {
            let rows = i * per_chunk..((i + 1) * per_chunk).min(m);
            linear_rows(&x, &w, &bias, k, n, relu, rows)
        })
    }

    fn pw_conv1d_fwd(
        &self,
        x: &Data,
        w: &Data,
        bias: &Data,
        bsz: usize,
        c: usize,
        l: usize,
        k: usize,
    ) -> Storage {
        let rows = bsz * k;
        if !parallel_worthwhile(rows * c * l) {
            return ScalarKernels.pw_conv1d_fwd(x, w, bias, bsz, c, l, k);
        }
        let _span = dance_telemetry::hot_span!("backend.pw_conv1d_fwd");
        let (n_chunks, per_chunk) = row_chunks(rows, c * l);
        let (x, w, bias) = (x.clone(), w.clone(), bias.clone());
        run_concat_storage(n_chunks, rows * l, move |i| {
            let r = i * per_chunk..((i + 1) * per_chunk).min(rows);
            pw_fwd_rows(&x, &w, &bias, c, l, k, r)
        })
    }

    fn pw_conv1d_bwd(
        &self,
        x: &Data,
        w: &Data,
        g: &Data,
        bsz: usize,
        c: usize,
        l: usize,
        k: usize,
    ) -> (Storage, Storage, Storage) {
        if !parallel_worthwhile(bsz * k * c * l) {
            return ScalarKernels.pw_conv1d_bwd(x, w, g, bsz, c, l, k);
        }
        let _span = dance_telemetry::hot_span!("backend.pw_conv1d_bwd");
        // Weight/bias half: partition over output channels.
        let (ko_chunks, ko_per) = row_chunks(k, bsz * c * l);
        let (xc, gc) = (x.clone(), g.clone());
        let wdb = pool::run(ko_chunks, move |i| {
            let kos = i * ko_per..((i + 1) * ko_per).min(k);
            pw_bwd_dwdb_kos(&xc, &gc, bsz, c, l, k, kos)
        });
        let mut dw = Storage::uninit(k * c);
        let mut db = Storage::uninit(k);
        let (mut dw_off, mut db_off) = (0, 0);
        for (dw_part, db_part) in wdb {
            dw[dw_off..dw_off + dw_part.len()].copy_from_slice(&dw_part);
            db[db_off..db_off + db_part.len()].copy_from_slice(&db_part);
            dw_off += dw_part.len();
            db_off += db_part.len();
        }
        // Input half: partition over batches.
        let (b_chunks, b_per) = row_chunks(bsz, k * c * l);
        let (wc, gc) = (w.clone(), g.clone());
        let dx = run_concat_storage(b_chunks, bsz * c * l, move |i| {
            let bs = i * b_per..((i + 1) * b_per).min(bsz);
            pw_bwd_dx_batches(&wc, &gc, c, l, k, bs)
        });
        (dx, dw, db)
    }

    fn dw_conv1d_fwd(
        &self,
        x: &Data,
        w: &Data,
        bsz: usize,
        c: usize,
        l: usize,
        kw: usize,
    ) -> Storage {
        let rows = bsz * c;
        if !parallel_worthwhile(rows * l * kw) {
            return ScalarKernels.dw_conv1d_fwd(x, w, bsz, c, l, kw);
        }
        let _span = dance_telemetry::hot_span!("backend.dw_conv1d_fwd");
        let (n_chunks, per_chunk) = row_chunks(rows, l * kw);
        let (x, w) = (x.clone(), w.clone());
        run_concat_storage(n_chunks, rows * l, move |i| {
            let r = i * per_chunk..((i + 1) * per_chunk).min(rows);
            dw_fwd_rows(&x, &w, c, l, kw, false, r)
        })
    }

    fn dw_conv1d_relu_fwd(
        &self,
        x: &Data,
        w: &Data,
        bsz: usize,
        c: usize,
        l: usize,
        kw: usize,
    ) -> Storage {
        let rows = bsz * c;
        if !parallel_worthwhile(rows * l * kw) {
            return ScalarKernels.dw_conv1d_relu_fwd(x, w, bsz, c, l, kw);
        }
        let _span = dance_telemetry::hot_span!("backend.dw_conv1d_relu_fwd");
        let (n_chunks, per_chunk) = row_chunks(rows, l * kw);
        let (x, w) = (x.clone(), w.clone());
        run_concat_storage(n_chunks, rows * l, move |i| {
            let r = i * per_chunk..((i + 1) * per_chunk).min(rows);
            dw_fwd_rows(&x, &w, c, l, kw, true, r)
        })
    }

    fn dw_conv1d_bwd(
        &self,
        x: &Data,
        w: &Data,
        g: &Data,
        bsz: usize,
        c: usize,
        l: usize,
        kw: usize,
    ) -> (Storage, Storage) {
        let rows = bsz * c;
        if !parallel_worthwhile(rows * l * kw) {
            return ScalarKernels.dw_conv1d_bwd(x, w, g, bsz, c, l, kw);
        }
        let _span = dance_telemetry::hot_span!("backend.dw_conv1d_bwd");
        // Input half: partition over (batch, channel) rows.
        let (r_chunks, r_per) = row_chunks(rows, l * kw);
        let (wc, gc) = (w.clone(), g.clone());
        let dx = run_concat_storage(r_chunks, rows * l, move |i| {
            let r = i * r_per..((i + 1) * r_per).min(rows);
            dw_bwd_dx_rows(&wc, &gc, c, l, kw, r)
        });
        // Weight half: partition over channels.
        let (c_chunks, c_per) = row_chunks(c, bsz * l * kw);
        let (xc, gc) = (x.clone(), g.clone());
        let dw = run_concat_storage(c_chunks, c * kw, move |i| {
            let cis = i * c_per..((i + 1) * c_per).min(c);
            dw_bwd_dw_channels(&xc, &gc, bsz, c, l, kw, cis)
        });
        (dx, dw)
    }

    fn to_channels_last(&self, x: &Data, bsz: usize, c: usize, l: usize) -> Storage {
        if !parallel_worthwhile(bsz * c * l) {
            return ScalarKernels.to_channels_last(x, bsz, c, l);
        }
        let _span = dance_telemetry::hot_span!("backend.to_channels_last");
        let (n_chunks, per_chunk) = row_chunks(bsz, c * l);
        let x = x.clone();
        run_concat_storage(n_chunks, bsz * c * l, move |i| {
            let bs = i * per_chunk..((i + 1) * per_chunk).min(bsz);
            to_cl_batches(&x, c, l, bs)
        })
    }

    fn from_channels_last(&self, x: &Data, bsz: usize, c: usize, l: usize) -> Storage {
        if !parallel_worthwhile(bsz * c * l) {
            return ScalarKernels.from_channels_last(x, bsz, c, l);
        }
        let _span = dance_telemetry::hot_span!("backend.from_channels_last");
        let (n_chunks, per_chunk) = row_chunks(bsz, c * l);
        let x = x.clone();
        run_concat_storage(n_chunks, bsz * c * l, move |i| {
            let bs = i * per_chunk..((i + 1) * per_chunk).min(bsz);
            from_cl_batches(&x, c, l, bs)
        })
    }
}

static PARALLEL: ParallelKernels = ParallelKernels;

/// The process-wide kernel implementation tensor ops dispatch through.
///
/// Always the parallel implementation; it degrades to the scalar loops
/// whenever `threads() == 1` or the problem is too small to split.
pub fn kernels() -> &'static dyn Kernels {
    &PARALLEL
}
