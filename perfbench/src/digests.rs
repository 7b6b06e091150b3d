//! Recorded output digests, per input seed, and the FNV-1a fold behind them.
//!
//! Regenerate after an intended change to the workloads' numerics with
//! `perfbench --record-digests 32` and paste its output here. A seed with
//! no recorded digest is still checked: every repeat inside the run must
//! reproduce the first one bit for bit.

/// `(seed, arch-digest)` of the `search` workload's search.
pub const SEARCH: &[(u64, u64)] = &[
    (0, 0x6d42ba45bd430f39),
    (1, 0x82ee024c02ee0439),
    (2, 0x29e825791a75814b),
    (3, 0x4fdc5a07440ba287),
    (4, 0x12c831d36af898d5),
    (5, 0xabaaf60fa8532fa3),
    (6, 0x6cc635059bfbdb2e),
    (7, 0x9a62205682b5b9ea),
    (8, 0x9d818d8bf45c8390),
    (9, 0x8c03539eeba5f6e9),
    (10, 0xa0944b2853908cf1),
    (11, 0x4dbfefc255cfbea1),
    (12, 0x783bd9c9a761dae4),
    (13, 0x5879a5c67a5e76af),
    (14, 0xe85f2a4baeec3fcc),
    (15, 0xc9fd49696a33a49f),
    (16, 0xca6c88fcc874556d),
    (17, 0x9458b6a75a4d7490),
    (18, 0x8191baa456811f5a),
    (19, 0x3a2e79bb712bd252),
    (20, 0xa3977ff2c49890eb),
    (21, 0xa6bbe618012a5cf3),
    (22, 0x896113aa5183b04b),
    (23, 0x679882d571445a28),
    (24, 0x457e50f9f3b53d5d),
    (25, 0xc97e473d5612c431),
    (26, 0xdf3388670af48c56),
    (27, 0xb5f8c940905f6bc7),
    (28, 0xa7160015aec2f60c),
    (29, 0xfb1c5547ced25f0f),
    (30, 0x7b60b27f599de564),
    (31, 0xd68ee1a297403ddc),
];

/// `(seed, fold of both ground-truth datasets)` of the `evaluator` workload.
pub const GROUND_TRUTH: &[(u64, u64)] = &[
    (0, 0x00682fbf9b8953d4),
    (1, 0xa19051d3cdbb05b9),
    (2, 0x0546cbd1f85d843e),
    (3, 0x5aef4ecf79997607),
    (4, 0x75b4e8072a5dbf7f),
    (5, 0x42ec04cfb84801ca),
    (6, 0x46fd0f51a5d3e5e9),
    (7, 0x4ad44cd5ec922932),
    (8, 0x3a4da71a96e6279f),
    (9, 0xa4ad184dc2bb0618),
    (10, 0x521010ccfb5211a2),
    (11, 0x816529befa223110),
    (12, 0xedb37d67a36ca1f7),
    (13, 0xc308af5801cae6f1),
    (14, 0x422aba57df4588b7),
    (15, 0x2633e9dbb8cba308),
    (16, 0xcec6fee6285f728f),
    (17, 0x9079c80e881af429),
    (18, 0xe42f59c46d79821b),
    (19, 0xeb371a18df5e955c),
    (20, 0xedac916970979cd7),
    (21, 0xf1b005d38e541d24),
    (22, 0x123a34a69fcabfa7),
    (23, 0x5796af07137c0e16),
    (24, 0x6831369ab7a2b52e),
    (25, 0x557f3f4232e4ca71),
    (26, 0xaea2263438af53ea),
    (27, 0x369b1c3a2c7c06a6),
    (28, 0xca1cd1be760fad68),
    (29, 0x269030a101ba9033),
    (30, 0xff3611f81ae1fe0a),
    (31, 0x467dc1c0bff6bed4),
];

/// The recorded digest for `seed`, if any.
pub fn recorded(table: &[(u64, u64)], seed: u64) -> Option<u64> {
    table.iter().find(|(s, _)| *s == seed).map(|(_, d)| *d)
}

/// FNV-1a over 64-bit words.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        self.0 ^= w;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn floats(&mut self, xs: &[f32]) {
        for x in xs {
            self.word(u64::from(x.to_bits()));
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Checks `digest` against the recorded value for `seed` and against the
/// run's earlier repeats.
pub fn check(name: &'static str, table: &[(u64, u64)], seed: u64, digests: &[u64]) -> crate::Check {
    let Some(&first) = digests.first() else {
        return crate::Check::new(name, false, "no digest was produced");
    };
    let repeats_agree = digests.iter().all(|&d| d == first);
    match recorded(table, seed) {
        Some(want) => crate::Check::new(
            name,
            repeats_agree && first == want,
            format!(
                "{first:016x} vs recorded {want:016x} over {} repeats",
                digests.len()
            ),
        ),
        None => crate::Check::new(
            name,
            repeats_agree && digests.len() >= 2,
            format!(
                "{first:016x}; no recorded digest for seed {seed}, {} repeats agree: {repeats_agree}",
                digests.len()
            ),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_of_nothing_is_the_offset_basis() {
        assert_eq!(Fnv::new().finish(), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn check_needs_agreeing_repeats_and_the_recorded_value() {
        let table = [(7, 0xabc)];
        assert!(check("d", &table, 7, &[0xabc, 0xabc]).ok);
        assert!(!check("d", &table, 7, &[0xabd]).ok);
        assert!(!check("d", &table, 7, &[0xabc, 0xabd]).ok);
        // Unrecorded seeds need at least two agreeing repeats.
        assert!(check("d", &table, 8, &[1, 1]).ok);
        assert!(!check("d", &table, 8, &[1]).ok);
        assert!(!check("d", &table, 8, &[]).ok);
    }
}
