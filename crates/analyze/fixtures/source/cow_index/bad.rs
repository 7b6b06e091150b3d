//! Seeded `cow-index` violation: `.data_mut()[…]` indexed per element in
//! library code. `scripts/check.sh` runs the source linter over this
//! directory and requires it to FAIL — if this fixture stops tripping the
//! rule, the analyzer went blind.

/// Fills a tensor one element at a time through `data_mut()`, paying the
/// copy-on-write check (`Arc::make_mut`) on every write — the pattern that
/// made the batch-norm forward and backward passes cost more than the
/// matmuls around them.
pub fn fill(t: &mut Tensor, value: f32) {
    for i in 0..t.numel() {
        t.data_mut()[i] = value;
    }
}
