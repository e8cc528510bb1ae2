//! A frozen, portable pseudo-random generator: xoshiro256++.
//!
//! Algorithm by David Blackman and Sebastiano Vigna (2019), public domain
//! reference implementation at <https://prng.di.unimi.it/>. Seeding uses
//! SplitMix64 as the authors recommend, so a single `u64` seed expands to a
//! full 256-bit state with no zero-state risk.

/// SplitMix64 step (Vigna). Used for seed expansion and nothing else.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256++ 1.0 — 256 bits of state, period 2^256 − 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Expands a 64-bit seed into the full state via SplitMix64.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Xoshiro256pp { s }
    }

    /// Creates a generator from a full 256-bit state.
    ///
    /// # Panics
    ///
    /// Panics when all four words are zero (the one forbidden state).
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(s.iter().any(|&w| w != 0), "xoshiro state must be non-zero");
        Xoshiro256pp { s }
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_raw(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform double in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // Take the top 53 bits; multiply by 2^-53.
        (self.next_raw() >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
    }

    /// A uniform double in the *open* interval `(0, 1)` — never exactly 0,
    /// safe to pass to `ln()` in inverse-transform samplers.
    #[inline]
    pub fn next_f64_open(&mut self) -> f64 {
        loop {
            let u = self.next_f64();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// A uniform integer in `[0, bound)` using Lemire's unbiased method.
    #[inline]
    pub fn next_bounded(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Widening-multiply rejection sampling (unbiased).
        let mut x = self.next_raw();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_raw();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Advances the state by one position without computing an output word:
    /// the state transition of [`next_raw`](Self::next_raw) minus the
    /// rotate-and-add result path, which never feeds back into the state.
    /// [`jump`](Self::jump) discards 256 outputs per call, so batching its
    /// steps through this transition-only path removes the dead result
    /// computation while landing on the exact same state.
    #[inline]
    fn step(&mut self) {
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
    }

    /// The "jump" function: advances the stream by 2^128 steps, producing a
    /// non-overlapping substream. Used to derive independent per-component
    /// streams (failures vs. workload jitter) from one master seed.
    pub fn jump(&mut self) {
        coopckpt_obs::count(coopckpt_obs::Counter::RngSubstreamDraws, 1);
        const JUMP: [u64; 4] = [
            0x180E_C6D3_3CFD_0ABA,
            0xD5A6_1266_F0C9_392C,
            0xA958_2618_E03F_C9AA,
            0x39AB_DC45_29B1_661C,
        ];
        let mut s = [0u64; 4];
        for j in JUMP {
            for b in 0..64 {
                if (j & (1u64 << b)) != 0 {
                    s[0] ^= self.s[0];
                    s[1] ^= self.s[1];
                    s[2] ^= self.s[2];
                    s[3] ^= self.s[3];
                }
                self.step();
            }
        }
        self.s = s;
    }

    /// Returns a new generator 2^128 steps ahead, advancing `self` too.
    /// Successive calls yield mutually non-overlapping streams.
    pub fn split(&mut self) -> Xoshiro256pp {
        let child = self.clone();
        self.jump();
        child
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vector() {
        // Reference values computed from the public-domain C implementation
        // seeded with SplitMix64(0): s = {e220a8397b1dcdaf, 6e789e6aa1b965f4,
        // 06c45d188009454f, f88bb8a8724c81ec}.
        let rng = Xoshiro256pp::seed_from_u64(0);
        assert_eq!(rng.s[0], 0xe220_a839_7b1d_cdaf);
        assert_eq!(rng.s[1], 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(rng.s[2], 0x06c4_5d18_8009_454f);
        assert_eq!(rng.s[3], 0xf88b_b8a8_724c_81ec);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = Xoshiro256pp::seed_from_u64(1234);
        let mut b = Xoshiro256pp::seed_from_u64(1234);
        for _ in 0..1000 {
            assert_eq!(a.next_raw(), b.next_raw());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Xoshiro256pp::seed_from_u64(1);
        let mut b = Xoshiro256pp::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_raw() == b.next_raw()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_is_in_unit_interval() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        for _ in 0..100_000 {
            let u = rng.next_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn f64_mean_is_about_half() {
        let mut rng = Xoshiro256pp::seed_from_u64(99);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn bounded_is_unbiased_over_small_range() {
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let mut counts = [0u32; 7];
        let n = 70_000;
        for _ in 0..n {
            counts[rng.next_bounded(7) as usize] += 1;
        }
        for &c in &counts {
            let expected = n as f64 / 7.0;
            assert!(
                (c as f64 - expected).abs() < expected * 0.05,
                "bucket count {c} vs expected {expected}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn bounded_rejects_zero() {
        Xoshiro256pp::seed_from_u64(0).next_bounded(0);
    }

    #[test]
    fn fast_jump_matches_the_draw_discarding_reference() {
        // jump() batches its 256 state advances through the output-free
        // `step`; the original implementation called next_raw and threw
        // the result away. Both must land on bit-identical state — this is
        // what keeps every downstream drawn sequence unchanged.
        fn reference_jump(rng: &mut Xoshiro256pp) {
            const JUMP: [u64; 4] = [
                0x180E_C6D3_3CFD_0ABA,
                0xD5A6_1266_F0C9_392C,
                0xA958_2618_E03F_C9AA,
                0x39AB_DC45_29B1_661C,
            ];
            let mut s = [0u64; 4];
            for j in JUMP {
                for b in 0..64 {
                    if (j & (1u64 << b)) != 0 {
                        s[0] ^= rng.s[0];
                        s[1] ^= rng.s[1];
                        s[2] ^= rng.s[2];
                        s[3] ^= rng.s[3];
                    }
                    rng.next_raw();
                }
            }
            rng.s = s;
        }
        for seed in [0, 1, 42, u64::MAX] {
            let mut fast = Xoshiro256pp::seed_from_u64(seed);
            let mut reference = Xoshiro256pp::seed_from_u64(seed);
            fast.jump();
            reference_jump(&mut reference);
            assert_eq!(fast, reference, "jump diverged for seed {seed}");
            // And the streams they produce afterwards agree too.
            for _ in 0..64 {
                assert_eq!(fast.next_raw(), reference.next_raw());
            }
        }
    }

    #[test]
    fn jump_produces_disjoint_streams() {
        let mut master = Xoshiro256pp::seed_from_u64(11);
        let mut a = master.split();
        let mut b = master.split();
        let xs: Vec<u64> = (0..64).map(|_| a.next_raw()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_raw()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_state_rejected() {
        Xoshiro256pp::from_state([0; 4]);
    }
}
