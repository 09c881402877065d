//! SplitMix64: the benchmark's one source of randomness. Every stream is
//! derived from the `--seed` argument and a fixed per-stream tag, so the
//! same seed gives the same inputs.

#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// Stream `tag` of the workload seed `seed`.
    pub fn stream(seed: u64, tag: u64) -> SplitMix {
        let mut s = SplitMix(seed ^ tag.wrapping_mul(0xD1B5_4A32_D192_ED03));
        s.next_u64();
        s
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}
