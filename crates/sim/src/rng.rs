//! The simulator's one source of randomness.
//!
//! Workloads, link jitter, the baseline's client failover and the chaos
//! tests' delivery order draw from one seeded [`Rng`], so a run is a
//! function of its seed. The generator
//! is xoshiro256++ (Blackman & Vigna) with its state expanded from the
//! seed by splitmix64: fast and statistically adequate for simulation,
//! not for cryptography (that lives in `astro-crypto`).

/// A seeded xoshiro256++ generator.
#[derive(Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// The generator for `seed`: four splitmix64 outputs form its state.
    pub fn seeded(seed: u64) -> Self {
        let mut sm = seed;
        let mut splitmix64 = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        Rng { s: [splitmix64(), splitmix64(), splitmix64(), splitmix64()] }
    }

    /// The next 64 uniformly random bits.
    pub(crate) fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A draw from `0..n`, as `next_u64() % n` (the bias toward small
    /// values is at most `n / 2^64`).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `p`: 53 random bits, read as a uniform float
    /// in `[0, 1)`, compared with `p`. Never true for `p <= 0`, always for
    /// `p >= 1`.
    pub fn chance(&mut self, p: f64) -> bool {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }
}

#[cfg(test)]
mod tests {
    use super::Rng;

    /// The first outputs for seed 7. Seeded workloads, jitter and chaos
    /// schedules all replay from this stream; a changed value changes
    /// every seeded run.
    #[test]
    fn seed_7_stream_is_pinned() {
        let mut rng = Rng::seeded(7);
        let head: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            head,
            [
                0x0e2c_1a00_2aae_913d,
                0x2c0f_c8dd_fa4e_9e14,
                0xb7b3_11b3_b0d4_5872,
                0x6d5d_9f6a_6318_013c
            ]
        );
        assert_ne!(Rng::seeded(8).next_u64(), Rng::seeded(7).next_u64());
    }
}
