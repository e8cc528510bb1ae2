//! Statistical distributions via inverse-transform sampling.
//!
//! Implemented in-house (rather than through `rand_distr`) so sampled
//! sequences are frozen: a seed identifies a simulation instance forever.
//! Each distribution validates its parameters at construction and exposes
//! analytic moments used by the tests.

use crate::rng::Xoshiro256pp;

/// A distribution over `f64` that can be sampled with the project RNG.
pub trait Sample {
    /// Draws one value.
    fn sample(&self, rng: &mut Xoshiro256pp) -> f64;

    /// The distribution mean (used by estimators and tests).
    fn mean(&self) -> f64;
}

/// Continuous uniform distribution on `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Creates a uniform distribution on `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics unless `lo < hi` and both are finite.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "invalid uniform bounds [{lo}, {hi})"
        );
        Uniform { lo, hi }
    }

    /// Lower bound.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound.
    pub fn hi(&self) -> f64 {
        self.hi
    }
}

impl Sample for Uniform {
    fn sample(&self, rng: &mut Xoshiro256pp) -> f64 {
        self.lo + (self.hi - self.lo) * rng.next_f64()
    }

    fn mean(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }
}

/// Exponential distribution with the given **mean** (not rate).
///
/// Sampling is by inverse transform: `x = −mean · ln(u)`, `u ∈ (0,1)`.
/// This is the paper's failure inter-arrival law.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given mean.
    ///
    /// # Panics
    ///
    /// Panics unless the mean is positive and finite.
    pub fn from_mean(mean: f64) -> Self {
        assert!(
            mean.is_finite() && mean > 0.0,
            "exponential mean must be positive, got {mean}"
        );
        Exponential { mean }
    }

    /// Creates an exponential distribution with the given rate `λ = 1/mean`.
    pub fn from_rate(rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "exponential rate must be positive, got {rate}"
        );
        Exponential { mean: 1.0 / rate }
    }

    /// The rate parameter λ.
    pub fn rate(&self) -> f64 {
        1.0 / self.mean
    }
}

impl Sample for Exponential {
    fn sample(&self, rng: &mut Xoshiro256pp) -> f64 {
        -self.mean * rng.next_f64_open().ln()
    }

    fn mean(&self) -> f64 {
        self.mean
    }
}

/// Weibull distribution with shape `k` and scale `λ`.
///
/// `k < 1` models infant-mortality failure behaviour observed on real HPC
/// systems (Tiwari et al., DSN'14); `k = 1` degenerates to the exponential.
/// Sampling is by inverse transform: `x = λ (−ln u)^{1/k}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull {
    shape: f64,
    scale: f64,
}

impl Weibull {
    /// Creates a Weibull distribution from shape and scale.
    ///
    /// # Panics
    ///
    /// Panics unless both parameters are positive and finite.
    pub fn new(shape: f64, scale: f64) -> Self {
        assert!(
            shape.is_finite() && shape > 0.0 && scale.is_finite() && scale > 0.0,
            "invalid Weibull parameters (k={shape}, λ={scale})"
        );
        Weibull { shape, scale }
    }

    /// Creates a Weibull with shape `k` whose **mean** equals `mean`
    /// (`λ = mean / Γ(1 + 1/k)`), handy for MTBF-matched ablations.
    ///
    /// # Panics
    ///
    /// Panics where [`try_from_mean`](Self::try_from_mean) fails.
    pub fn from_mean(shape: f64, mean: f64) -> Self {
        Self::try_from_mean(shape, mean).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`from_mean`](Self::from_mean), or why no Weibull of that shape has
    /// that mean: the shape or the mean is not positive and finite, or the
    /// shape is so small (below about 0.007) that `Γ(1 + 1/k)` overflows
    /// and the matching scale is 0.
    pub fn try_from_mean(shape: f64, mean: f64) -> Result<Self, String> {
        if !(mean.is_finite() && mean > 0.0) {
            return Err(format!("Weibull mean must be positive, got {mean:?}"));
        }
        if !(shape.is_finite() && shape > 0.0) {
            return Err(format!("Weibull shape must be positive, got {shape:?}"));
        }
        let scale = mean / gamma(1.0 + 1.0 / shape);
        if !(scale.is_finite() && scale > 0.0) {
            return Err(format!(
                "Weibull shape {shape:?} is too small: Γ(1 + 1/k) overflows \
                 below about 0.007, so no scale gives the mean {mean:?}"
            ));
        }
        Ok(Weibull::new(shape, scale))
    }

    /// Shape parameter `k`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// Scale parameter `λ`.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

impl Sample for Weibull {
    fn sample(&self, rng: &mut Xoshiro256pp) -> f64 {
        self.scale * (-rng.next_f64_open().ln()).powf(1.0 / self.shape)
    }

    fn mean(&self) -> f64 {
        self.scale * gamma(1.0 + 1.0 / self.shape)
    }
}

/// Lanczos approximation of the gamma function (g = 7, n = 9), accurate to
/// ~15 significant digits for the `x > 0` arguments used here.
fn gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * gamma(1.0 - x))
    } else {
        let x = x - 1.0;
        let mut a = COEF[0];
        let t = x + G + 0.5;
        for (i, &c) in COEF.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        (2.0 * std::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mean(dist: &impl Sample, seed: u64, n: usize) -> f64 {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        (0..n).map(|_| dist.sample(&mut rng)).sum::<f64>() / n as f64
    }

    fn sample_var(dist: &impl Sample, seed: u64, n: usize) -> f64 {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let xs: Vec<f64> = (0..n).map(|_| dist.sample(&mut rng)).collect();
        let m = xs.iter().sum::<f64>() / n as f64;
        xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (n - 1) as f64
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let d = Uniform::new(2.0, 6.0);
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((2.0..6.0).contains(&x));
        }
        assert_eq!(d.mean(), 4.0);
        assert!((sample_mean(&d, 2, 100_000) - 4.0).abs() < 0.02);
    }

    #[test]
    #[should_panic(expected = "invalid uniform bounds")]
    fn uniform_rejects_inverted_bounds() {
        Uniform::new(5.0, 5.0);
    }

    #[test]
    fn exponential_moments() {
        let d = Exponential::from_mean(100.0);
        assert!((sample_mean(&d, 3, 200_000) - 100.0).abs() < 1.5);
        // Var = mean² for exponential.
        assert!((sample_var(&d, 4, 200_000) - 10_000.0).abs() < 500.0);
        assert!((d.rate() - 0.01).abs() < 1e-15);
        let d2 = Exponential::from_rate(0.01);
        assert_eq!(d2.mean(), 100.0);
    }

    #[test]
    fn exponential_is_positive() {
        let d = Exponential::from_mean(1.0);
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        for _ in 0..100_000 {
            assert!(d.sample(&mut rng) > 0.0);
        }
    }

    #[test]
    fn exponential_memoryless_tail() {
        // P(X > t) = exp(-t/mean): check the empirical tail at one mean.
        let d = Exponential::from_mean(50.0);
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        let n = 200_000;
        let tail = (0..n).filter(|_| d.sample(&mut rng) > 50.0).count() as f64 / n as f64;
        assert!((tail - (-1.0f64).exp()).abs() < 0.01, "tail {tail}");
    }

    #[test]
    fn weibull_shape_one_is_exponential() {
        let w = Weibull::new(1.0, 100.0);
        assert!((w.mean() - 100.0).abs() < 1e-9);
        assert!((sample_mean(&w, 10, 200_000) - 100.0).abs() < 1.5);
    }

    #[test]
    fn weibull_from_mean_matches_target() {
        for k in [0.7, 1.0, 1.5, 3.0] {
            let w = Weibull::from_mean(k, 42.0);
            assert!((w.mean() - 42.0).abs() < 1e-9, "k={k} mean {}", w.mean());
            assert!((sample_mean(&w, 11, 200_000) - 42.0).abs() < 1.0, "k={k}");
        }
    }

    #[test]
    fn tiny_weibull_shapes_are_errors_not_zero_scales() {
        // Γ(1 + 1/k) overflows in the Lanczos series from 1/k ≈ 141.
        assert!(Weibull::try_from_mean(0.008, 3600.0).is_ok());
        for k in [0.007, 1e-3, 1e-300, 5e-324] {
            let e = Weibull::try_from_mean(k, 3600.0).expect_err("scale would be 0");
            assert!(e.contains("too small"), "k={k}: {e}");
        }
        assert!(Weibull::try_from_mean(0.7, f64::INFINITY).is_err());
        assert!(Weibull::try_from_mean(f64::NAN, 3600.0).is_err());
    }

    #[test]
    fn gamma_function_known_values() {
        assert!((gamma(1.0) - 1.0).abs() < 1e-12);
        assert!((gamma(2.0) - 1.0).abs() < 1e-12);
        assert!((gamma(5.0) - 24.0).abs() < 1e-9);
        assert!((gamma(0.5) - std::f64::consts::PI.sqrt()).abs() < 1e-12);
        assert!((gamma(1.5) - 0.5 * std::f64::consts::PI.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn sampling_is_deterministic() {
        let d = Exponential::from_mean(10.0);
        let a: Vec<f64> = {
            let mut rng = Xoshiro256pp::seed_from_u64(77);
            (0..32).map(|_| d.sample(&mut rng)).collect()
        };
        let b: Vec<f64> = {
            let mut rng = Xoshiro256pp::seed_from_u64(77);
            (0..32).map(|_| d.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Exponential samples are always positive and finite.
        #[test]
        fn exponential_support(seed in proptest::num::u64::ANY, mean in 1e-3f64..1e9) {
            let d = Exponential::from_mean(mean);
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            for _ in 0..100 {
                let x = d.sample(&mut rng);
                prop_assert!(x > 0.0 && x.is_finite());
            }
        }

        /// Weibull(mean-matched) keeps its mean across shapes.
        #[test]
        fn weibull_mean_invariant(k in 0.5f64..5.0, mean in 1.0f64..1e6) {
            let w = Weibull::from_mean(k, mean);
            prop_assert!((w.mean() - mean).abs() / mean < 1e-9);
        }

        /// Uniform samples stay in range.
        #[test]
        fn uniform_support(seed in proptest::num::u64::ANY, lo in -1e6f64..1e6, width in 1e-6f64..1e6) {
            let d = Uniform::new(lo, lo + width);
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            for _ in 0..100 {
                let x = d.sample(&mut rng);
                prop_assert!(x >= lo && x < lo + width);
            }
        }
    }
}
