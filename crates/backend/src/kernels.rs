//! The kernel set the tensor ops dispatch through.
//!
//! Two implementations of one [`Kernels`] trait:
//!
//! * [`ScalarKernels`] — the reference: one inline pass of each op's
//!   row-range loop nest over the whole output.
//! * [`ParallelKernels`] — the default: partitions each kernel's *output*
//!   into disjoint contiguous row ranges executed on the [`crate::pool`].
//!
//! Each op's loop nest is written once, as a row-range `*_into` function
//! over `(inputs, rows, &mut out)`; the scalar path, the parallel chunks
//! (through one alloc-then-splice helper) and the allocation-free `*_into`
//! trait methods the frozen plans call all run that same function.
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
//! optional ReLU), [`Kernels::dw_conv1d_cl_fwd`] (depthwise conv + stride +
//! optional ReLU), and the backward products [`Kernels::matmul_bt`] /
//! [`Kernels::matmul_at`] (no transpose tensor or tape node; `matmul_bt`
//! transposes `w` once per call into a private buffer) fold what used to be
//! separate tape nodes into one kernel pass. Each fused loop nest preserves
//! the exact per-element operation sequence of the ops it replaces (same
//! accumulation order, multiply-form ReLU masking), so fusion is
//! bit-invisible to digests and checkpoints.
//!
//! **Depthwise convolution is channels-last.** The MBConv supernet keeps its
//! block interiors as `[B·L, C]` matrices (the layout the pointwise
//! `linear`s read and write), so the one depthwise kernel family,
//! [`Kernels::dw_conv1d_cl_fwd`] / [`Kernels::dw_conv1d_cl_bwd`], runs its
//! inner loop over contiguous channels and computes strided outputs only at
//! the positions a stride keeps ([`DwConv1dGeom`]).

use std::ops::Range;
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

/// Fewest channels one chunk of the depthwise weight gradient covers: its
/// inner loop runs over a chunk's channels, so a chunk spans at least one
/// 64-byte line of every row it reads.
const DW_CHANNEL_BLOCK: usize = 16;

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

/// Geometry of a channels-last depthwise 1-D convolution with "same" zero
/// padding: input `[batch·len, channels]`, weight `[channels, kernel]`
/// (odd `kernel`), output `[batch·out_len, channels]` holding only the
/// positions `0, stride, 2·stride, …` a strided convolution keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DwConv1dGeom {
    /// Batch size.
    pub batch: usize,
    /// Channels — the contiguous axis of every row.
    pub channels: usize,
    /// Input length.
    pub len: usize,
    /// Kernel width (odd).
    pub kernel: usize,
    /// Output stride (≥ 1).
    pub stride: usize,
}

impl DwConv1dGeom {
    /// Output length, `⌈len / stride⌉`.
    #[must_use]
    pub fn out_len(&self) -> usize {
        self.len.div_ceil(self.stride)
    }

    /// Input rows, `batch · len`.
    #[must_use]
    pub fn in_rows(&self) -> usize {
        self.batch * self.len
    }

    /// Output rows, `batch · out_len`.
    #[must_use]
    pub fn out_rows(&self) -> usize {
        self.batch * self.out_len()
    }

    /// The taps `j` of the output at position `li` whose input position
    /// `li + j − kernel/2` lies inside the row (never empty: the centre tap
    /// always does).
    fn taps(&self, li: usize) -> Range<usize> {
        let pad = self.kernel / 2;
        pad.saturating_sub(li)..(self.len + pad - li).min(self.kernel)
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

    /// Channels-last depthwise conv forward:
    /// `[B·L, C] × [C, Kw] → [B·⌈L/s⌉, C]` (see [`DwConv1dGeom`]), with
    /// `max(·, 0)` applied to each finished sum when `relu`. Transposes
    /// `w` to `[Kw, C]` once per call.
    fn dw_conv1d_cl_fwd(&self, x: &Data, w: &Data, geom: DwConv1dGeom, relu: bool) -> Storage;

    /// Channels-last depthwise conv backward from the kept-output gradient
    /// `g` (`[B·⌈L/s⌉, C]`, already ReLU-masked by the caller): returns
    /// `(dx [B·L, C], dw [C, Kw])`.
    fn dw_conv1d_cl_bwd(
        &self,
        x: &Data,
        w: &Data,
        g: &Data,
        geom: DwConv1dGeom,
    ) -> (Storage, Storage);

    /// `[B, C, L] → [B·L, C]` permutation.
    fn to_channels_last(&self, x: &Data, bsz: usize, c: usize, l: usize) -> Storage;

    /// `[B·L, C] → [B, C, L]` permutation.
    fn from_channels_last(&self, x: &Data, bsz: usize, c: usize, l: usize) -> Storage;

    // -- Allocation-free forward variants -----------------------------------
    //
    // Provided methods writing into caller-owned buffers, for frozen
    // inference plans (`dance-plan`) that preallocate every activation.
    // Each runs the same row-range loop nest as the allocating methods, so
    // outputs are bit-identical to them at any thread count.

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

    /// [`Kernels::dw_conv1d_cl_fwd`] into a caller-owned `[B·⌈L/s⌉·C]`
    /// buffer. Takes the kernel already transposed to `[Kw, C]` (frozen
    /// plans fold it that way), so a plan run allocates nothing.
    fn dw_conv1d_cl_fwd_into(
        &self,
        x: &[f32],
        wt: &[f32],
        geom: DwConv1dGeom,
        relu: bool,
        out: &mut [f32],
    ) {
        dw_cl_fwd_rows_into(x, wt, geom, relu, 0..geom.out_rows(), out);
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
// Row-range loop nests shared by both implementations. Each helper computes
// rows `rows.start..rows.end` (or the stated range) of the output into a
// slice holding exactly those rows, with per-element accumulation order
// identical to the original code.
// ---------------------------------------------------------------------------

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

/// The `[n, kdim]` transpose of a `[kdim, n]` matrix as a plain heap
/// buffer: `wᵀ` for the `g × wᵀ` product, and the `[Kw, C]` tap-major
/// depthwise kernel.
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
/// — the same term order the historical `matmul(transpose(x), g)` produced,
/// with contiguous reads of `g` and writes of `out`.
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
    // order, so bit-identical. Only the chunk's own rows are transposed,
    // so parallel callers do no duplicate work.
    let mut xt = Storage::uninit(rows.len() * m);
    transpose_cols_into(x, m, kdim, rows.clone(), &mut xt);
    matmul_rows_into(&xt, g, m, n, 0..rows.len(), out);
}

fn transpose_cols_into(a: &[f32], m: usize, n: usize, cols: Range<usize>, out: &mut [f32]) {
    for (local, j) in cols.enumerate() {
        for i in 0..m {
            out[local * m + i] = a[i * n + j];
        }
    }
}

fn unary_range_into(a: &[f32], op: UnaryOp, range: Range<usize>, out: &mut [f32]) {
    for (o, &x) in out.iter_mut().zip(a[range].iter()) {
        *o = op.apply(x);
    }
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

/// Channels-last depthwise forward over output rows `r = b·⌈L/s⌉ + q`
/// (input position `li = q·s`), `wt` the `[Kw, C]` tap-major kernel.
///
/// Each tap is one contiguous multiply-add over the row's channels. Every
/// output element sums its in-range taps in ascending order onto `+0.0`
/// — the per-element chain of the historical channels-first loop nest —
/// and `relu` applies `max(·, 0)` to the finished sum, as a separate ReLU
/// pass would. Positions a stride drops are never computed.
fn dw_cl_fwd_rows_into(
    x: &[f32],
    wt: &[f32],
    geom: DwConv1dGeom,
    relu: bool,
    rows: Range<usize>,
    out: &mut [f32],
) {
    let (c, lo, pad) = (geom.channels, geom.out_len(), geom.kernel / 2);
    for (o_row, r) in out.chunks_exact_mut(c).zip(rows) {
        let (b, li) = (r / lo, (r % lo) * geom.stride);
        o_row.fill(0.0);
        for j in geom.taps(li) {
            let x_row = &x[(b * geom.len + li + j - pad) * c..][..c];
            let w_row = &wt[j * c..][..c];
            for ((o, &xv), &wv) in o_row.iter_mut().zip(x_row).zip(w_row) {
                *o += wv * xv;
            }
        }
        if relu {
            for o in o_row.iter_mut() {
                *o = o.max(0.0);
            }
        }
    }
}

/// Channels-last depthwise input gradient over input rows `r = b·L + p`,
/// from the kept-output gradient `g` (`[B·⌈L/s⌉, C]`).
///
/// Input position `p` receives `g[li]·w[j]` from every output position
/// `li = p + pad − j`; the terms arrive in descending `j` (ascending `li`),
/// the historical scatter's per-element order. Output positions a stride
/// drops carry a zero gradient, and their `±0·w` terms cannot move a sum
/// started at `+0.0` (it is never `-0.0` mid-chain under round-to-nearest),
/// so skipping them keeps every bit.
fn dw_cl_dx_rows_into(
    g: &[f32],
    wt: &[f32],
    geom: DwConv1dGeom,
    rows: Range<usize>,
    dx: &mut [f32],
) {
    let (c, lo, pad, s) = (geom.channels, geom.out_len(), geom.kernel / 2, geom.stride);
    for (d_row, r) in dx.chunks_exact_mut(c).zip(rows) {
        let (b, p) = (r / geom.len, r % geom.len);
        d_row.fill(0.0);
        for j in (0..geom.kernel).rev() {
            let Some(li) = (p + pad).checked_sub(j) else {
                continue;
            };
            if li >= geom.len || li % s != 0 {
                continue;
            }
            let g_row = &g[(b * lo + li / s) * c..][..c];
            let w_row = &wt[j * c..][..c];
            for ((d, &gv), &wv) in d_row.iter_mut().zip(g_row).zip(w_row) {
                *d += gv * wv;
            }
        }
    }
}

/// Channels-last depthwise weight gradient for the channel block `cs`: the
/// rows `dw[cs, :]` of the `[C, Kw]` gradient.
///
/// Accumulates tap-major (`[Kw, |cs|]`, contiguous over channels), then
/// transposes into place. Each `dw[c, j]` sums `g·x` over `(b, q)`
/// ascending — the historical `(b, li)` order with the strided-out,
/// zero-gradient positions dropped, which (as in [`dw_cl_dx_rows_into`])
/// keeps every bit.
fn dw_cl_dw_channels_into(
    x: &[f32],
    g: &[f32],
    geom: DwConv1dGeom,
    cs: Range<usize>,
    dw: &mut [f32],
) {
    let (c, lo, pad, kw, nc) = (
        geom.channels,
        geom.out_len(),
        geom.kernel / 2,
        geom.kernel,
        cs.len(),
    );
    let mut acc = Storage::zeroed(kw * nc);
    for b in 0..geom.batch {
        for q in 0..lo {
            let li = q * geom.stride;
            let g_row = &g[(b * lo + q) * c + cs.start..][..nc];
            for j in geom.taps(li) {
                let x_row = &x[(b * geom.len + li + j - pad) * c + cs.start..][..nc];
                for ((a, &gv), &xv) in acc[j * nc..][..nc].iter_mut().zip(g_row).zip(x_row) {
                    *a += gv * xv;
                }
            }
        }
    }
    for (local, d_row) in dw.chunks_exact_mut(kw).enumerate() {
        for (j, d) in d_row.iter_mut().enumerate() {
            *d = acc[j * nc + local];
        }
    }
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

// ---------------------------------------------------------------------------
// Scalar reference implementation.
// ---------------------------------------------------------------------------

/// Single-thread reference implementation: each op's row-range loop nest
/// over the whole output, written directly into an arena-allocated buffer.
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

    fn dw_conv1d_cl_fwd(&self, x: &Data, w: &Data, geom: DwConv1dGeom, relu: bool) -> Storage {
        let wt = transposed(w, geom.channels, geom.kernel);
        let mut out = Storage::uninit(geom.out_rows() * geom.channels);
        dw_cl_fwd_rows_into(x, &wt, geom, relu, 0..geom.out_rows(), &mut out);
        out
    }

    fn dw_conv1d_cl_bwd(
        &self,
        x: &Data,
        w: &Data,
        g: &Data,
        geom: DwConv1dGeom,
    ) -> (Storage, Storage) {
        let wt = transposed(w, geom.channels, geom.kernel);
        let mut dx = Storage::uninit(geom.in_rows() * geom.channels);
        dw_cl_dx_rows_into(g, &wt, geom, 0..geom.in_rows(), &mut dx);
        let mut dw = Storage::uninit(geom.channels * geom.kernel);
        dw_cl_dw_channels_into(x, g, geom, 0..geom.channels, &mut dw);
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

/// Output rows per chunk for rows of `row_work` work units each: roughly
/// [`GRAIN`] work per chunk, independent of the thread count.
fn rows_per_chunk(row_work: usize) -> usize {
    (GRAIN / row_work.max(1)).max(1)
}

/// Whether a kernel of `total_work` units should dispatch in parallel.
fn parallel_worthwhile(total_work: usize) -> bool {
    total_work >= PAR_MIN_WORK && pool::threads() > 1
}

/// Computes `rows` output rows of `row_len` elements on the pool,
/// `per_chunk` rows per job: each job runs `fill(row_range, out)` — an
/// op's row-range `*_into` loop nest — into its own buffer, and the parts
/// are spliced in row order into one arena-allocated [`Storage`].
fn par_rows<F>(rows: usize, row_len: usize, per_chunk: usize, fill: F) -> Storage
where
    F: Fn(Range<usize>, &mut [f32]) + Send + Sync + 'static,
{
    let parts = pool::run(rows.div_ceil(per_chunk), move |i| {
        let range = i * per_chunk..((i + 1) * per_chunk).min(rows);
        let mut part = vec![0.0f32; range.len() * row_len];
        fill(range, &mut part);
        part
    });
    let mut out = Storage::uninit(rows * row_len);
    let mut off = 0;
    for p in parts {
        out[off..off + p.len()].copy_from_slice(&p);
        off += p.len();
    }
    debug_assert_eq!(off, rows * row_len, "kernel chunks must cover the output");
    out
}

impl Kernels for ParallelKernels {
    fn matmul(&self, a: &Data, b: &Data, m: usize, k: usize, n: usize) -> Storage {
        if !parallel_worthwhile(m * k * n) {
            return ScalarKernels.matmul(a, b, m, k, n);
        }
        let _span = dance_telemetry::hot_span!("backend.matmul");
        let (a, b) = (a.clone(), b.clone());
        par_rows(m, n, rows_per_chunk(k * n), move |rows, out| {
            matmul_rows_into(&a, &b, k, n, rows, out);
        })
    }

    fn matmul_bt(&self, g: &Data, w: &Data, m: usize, n: usize, kdim: usize) -> Storage {
        if !parallel_worthwhile(m * n * kdim) {
            return ScalarKernels.matmul_bt(g, w, m, n, kdim);
        }
        let _span = dance_telemetry::hot_span!("backend.matmul_bt");
        let (g, wt) = (g.clone(), Arc::new(transposed(w, kdim, n)));
        par_rows(m, kdim, rows_per_chunk(n * kdim), move |rows, out| {
            matmul_rows_into(&g, &wt, n, kdim, rows, out);
        })
    }

    fn matmul_at(&self, x: &Data, g: &Data, m: usize, kdim: usize, n: usize) -> Storage {
        if !parallel_worthwhile(m * kdim * n) {
            return ScalarKernels.matmul_at(x, g, m, kdim, n);
        }
        let _span = dance_telemetry::hot_span!("backend.matmul_at");
        let (x, g) = (x.clone(), g.clone());
        par_rows(kdim, n, rows_per_chunk(m * n), move |rows, out| {
            matmul_at_rows_into(&x, &g, m, kdim, n, rows, out);
        })
    }

    fn transpose(&self, a: &Data, m: usize, n: usize) -> Storage {
        if !parallel_worthwhile(m * n) {
            return ScalarKernels.transpose(a, m, n);
        }
        let _span = dance_telemetry::hot_span!("backend.transpose");
        let a = a.clone();
        par_rows(n, m, rows_per_chunk(m), move |cols, out| {
            transpose_cols_into(&a, m, n, cols, out);
        })
    }

    fn unary(&self, a: &Data, op: UnaryOp) -> Storage {
        let len = a.len();
        if !parallel_worthwhile(len) {
            return ScalarKernels.unary(a, op);
        }
        let _span = dance_telemetry::hot_span!("backend.unary");
        let a = a.clone();
        par_rows(len, 1, rows_per_chunk(1), move |range, out| {
            unary_range_into(&a, op, range, out);
        })
    }

    fn binary(&self, a: &Data, b: &Data, op: BinaryOp) -> Storage {
        let len = a.len();
        if !parallel_worthwhile(len) {
            return ScalarKernels.binary(a, b, op);
        }
        let _span = dance_telemetry::hot_span!("backend.binary");
        let (a, b) = (a.clone(), b.clone());
        par_rows(len, 1, rows_per_chunk(1), move |range, out| {
            binary_range_into(&a, &b, op, range, out);
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
        let a = a.clone();
        par_rows(n, 1, rows_per_chunk(m), move |cols, out| {
            sum_rows_cols_into(&a, m, n, cols, out);
        })
    }

    fn softmax_rows(&self, a: &Data, m: usize, n: usize) -> Storage {
        if !parallel_worthwhile(m * n) {
            return ScalarKernels.softmax_rows(a, m, n);
        }
        let _span = dance_telemetry::hot_span!("backend.softmax_rows");
        let a = a.clone();
        par_rows(m, n, rows_per_chunk(n), move |rows, out| {
            softmax_rows_range_into(&a, n, rows, out);
        })
    }

    fn add_row_broadcast(&self, x: &Data, bias: &Data, m: usize, n: usize) -> Storage {
        if !parallel_worthwhile(m * n) {
            return ScalarKernels.add_row_broadcast(x, bias, m, n);
        }
        let _span = dance_telemetry::hot_span!("backend.add_row_broadcast");
        let (x, bias) = (x.clone(), bias.clone());
        par_rows(m, n, rows_per_chunk(n), move |rows, out| {
            add_row_broadcast_rows_into(&x, &bias, n, rows, out);
        })
    }

    fn mul_row_broadcast(&self, x: &Data, scale: &Data, m: usize, n: usize) -> Storage {
        if !parallel_worthwhile(m * n) {
            return ScalarKernels.mul_row_broadcast(x, scale, m, n);
        }
        let _span = dance_telemetry::hot_span!("backend.mul_row_broadcast");
        let (x, scale) = (x.clone(), scale.clone());
        par_rows(m, n, rows_per_chunk(n), move |rows, out| {
            mul_row_broadcast_rows_into(&x, &scale, n, rows, out);
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
        let (x, w, bias) = (x.clone(), w.clone(), bias.clone());
        par_rows(m, n, rows_per_chunk(k * n), move |rows, out| {
            linear_rows_into(&x, &w, &bias, k, n, relu, rows, out);
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
        let (x, w, bias) = (x.clone(), w.clone(), bias.clone());
        par_rows(rows, l, rows_per_chunk(c * l), move |r, out| {
            pw_fwd_rows_into(&x, &w, &bias, c, l, k, r, out);
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
        let ko_per = rows_per_chunk(bsz * c * l);
        let (xc, gc) = (x.clone(), g.clone());
        let wdb = pool::run(k.div_ceil(ko_per), move |i| {
            let kos = i * ko_per..((i + 1) * ko_per).min(k);
            let mut dw = vec![0.0f32; kos.len() * c];
            let mut db = vec![0.0f32; kos.len()];
            pw_bwd_dwdb_kos_into(&xc, &gc, bsz, c, l, k, kos, &mut dw, &mut db);
            (dw, db)
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
        let (wc, gc) = (w.clone(), g.clone());
        let dx = par_rows(bsz, c * l, rows_per_chunk(k * c * l), move |bs, out| {
            pw_bwd_dx_batches_into(&wc, &gc, c, l, k, bs, out);
        });
        (dx, dw, db)
    }

    fn dw_conv1d_cl_fwd(&self, x: &Data, w: &Data, geom: DwConv1dGeom, relu: bool) -> Storage {
        let (c, kw) = (geom.channels, geom.kernel);
        if !parallel_worthwhile(geom.out_rows() * c * kw) {
            return ScalarKernels.dw_conv1d_cl_fwd(x, w, geom, relu);
        }
        let _span = dance_telemetry::hot_span!("backend.dw_conv1d_cl_fwd");
        let (x, wt) = (x.clone(), Arc::new(transposed(w, c, kw)));
        par_rows(
            geom.out_rows(),
            c,
            rows_per_chunk(c * kw),
            move |rows, out| {
                dw_cl_fwd_rows_into(&x, &wt, geom, relu, rows, out);
            },
        )
    }

    fn dw_conv1d_cl_bwd(
        &self,
        x: &Data,
        w: &Data,
        g: &Data,
        geom: DwConv1dGeom,
    ) -> (Storage, Storage) {
        let (c, kw) = (geom.channels, geom.kernel);
        if !parallel_worthwhile(geom.in_rows() * c * kw) {
            return ScalarKernels.dw_conv1d_cl_bwd(x, w, g, geom);
        }
        let _span = dance_telemetry::hot_span!("backend.dw_conv1d_cl_bwd");
        // Input half: partition over input rows.
        let (gc, wt) = (g.clone(), Arc::new(transposed(w, c, kw)));
        let dx = par_rows(
            geom.in_rows(),
            c,
            rows_per_chunk(c * kw),
            move |rows, out| {
                dw_cl_dx_rows_into(&gc, &wt, geom, rows, out);
            },
        );
        // Weight half: partition over channel blocks.
        let per = rows_per_chunk(geom.out_rows() * kw).max(DW_CHANNEL_BLOCK);
        let (xc, gc) = (x.clone(), g.clone());
        let dw = par_rows(c, kw, per, move |cs, out| {
            dw_cl_dw_channels_into(&xc, &gc, geom, cs, out);
        });
        (dx, dw)
    }

    fn to_channels_last(&self, x: &Data, bsz: usize, c: usize, l: usize) -> Storage {
        if !parallel_worthwhile(bsz * c * l) {
            return ScalarKernels.to_channels_last(x, bsz, c, l);
        }
        let _span = dance_telemetry::hot_span!("backend.to_channels_last");
        let x = x.clone();
        par_rows(bsz, c * l, rows_per_chunk(c * l), move |bs, out| {
            to_cl_batches_into(&x, c, l, bs, out);
        })
    }

    fn from_channels_last(&self, x: &Data, bsz: usize, c: usize, l: usize) -> Storage {
        if !parallel_worthwhile(bsz * c * l) {
            return ScalarKernels.from_channels_last(x, bsz, c, l);
        }
        let _span = dance_telemetry::hot_span!("backend.from_channels_last");
        let x = x.clone();
        par_rows(bsz, c * l, rows_per_chunk(c * l), move |bs, out| {
            from_cl_batches_into(&x, c, l, bs, out);
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
