//! The P² (Piecewise-Parabolic) streaming quantile estimator.
//!
//! Jain & Chlamtac (CACM 1985): estimates a single quantile of a stream in
//! O(1) memory by maintaining five markers whose heights follow a
//! piecewise-parabolic interpolation of the empirical CDF. Exact quantiles
//! (`coopckpt_stats::quantile`) need the full sample; P² supports
//! paper-scale Monte-Carlo sweeps (millions of instances) where buffering
//! every waste ratio is unnecessary.
//!
//! Lives in `coopckpt-obs` (the workspace's dependency-free leaf) so the
//! telemetry layer can aggregate sample times without pulling
//! `coopckpt-stats` — and with it the simulation-time types — into the
//! instrumented kernel crates. `coopckpt-stats` re-exports it under the
//! original `coopckpt_stats::P2Quantile` path.
//!
//! Accuracy is typically within a fraction of a percent of the exact
//! quantile for unimodal distributions; the property tests quantify this
//! against the exact estimator.

/// Linear-interpolation quantile of a **sorted** slice (type-7 estimator,
/// matching `coopckpt_stats::quantile`), used for exact small-sample
/// estimates before the five P² markers fill.
fn small_sample_quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty sample");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = q * (n - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = h - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Streaming estimator for one quantile `q` of an unbounded sample.
#[derive(Debug, Clone)]
pub struct P2Quantile {
    q: f64,
    /// Marker heights (estimated quantile positions).
    heights: [f64; 5],
    /// Actual marker positions (1-based observation ranks).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired position increments per observation.
    increments: [f64; 5],
    /// Observations seen so far.
    count: usize,
}

impl P2Quantile {
    /// Creates an estimator for the `q`-quantile, `q ∈ (0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics for `q` outside the open unit interval.
    pub fn new(q: f64) -> Self {
        assert!(
            q > 0.0 && q < 1.0,
            "P² estimates interior quantiles, got q = {q}"
        );
        P2Quantile {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            count: 0,
        }
    }

    /// The targeted quantile.
    pub fn q(&self) -> f64 {
        self.q
    }

    /// Number of observations consumed.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "observation must be finite");
        if self.count < 5 {
            self.heights[self.count] = x;
            self.count += 1;
            if self.count == 5 {
                self.heights
                    .sort_by(|a, b| a.partial_cmp(b).expect("finite observations"));
            }
            return;
        }
        self.count += 1;

        // Find the cell k containing x and clamp the extreme markers.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x < self.heights[1] {
            0
        } else if x < self.heights[2] {
            1
        } else if x < self.heights[3] {
            2
        } else if x <= self.heights[4] {
            3
        } else {
            self.heights[4] = x;
            3
        };

        for p in &mut self.positions[k + 1..] {
            *p += 1.0;
        }
        for (d, inc) in self.desired.iter_mut().zip(self.increments) {
            *d += inc;
        }

        // Adjust the three interior markers toward their desired positions.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right_gap = self.positions[i + 1] - self.positions[i];
            let left_gap = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right_gap > 1.0) || (d <= -1.0 && left_gap < -1.0) {
                let d = d.signum();
                let candidate = self.parabolic(i, d);
                let new_height =
                    if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                        candidate
                    } else {
                        self.linear(i, d)
                    };
                self.heights[i] = new_height;
                self.positions[i] += d;
            }
        }
    }

    /// Piecewise-parabolic (P²) height prediction for marker `i` moved by
    /// `d ∈ {−1, +1}`.
    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let p = &self.positions;
        let h = &self.heights;
        h[i] + d / (p[i + 1] - p[i - 1])
            * ((p[i] - p[i - 1] + d) * (h[i + 1] - h[i]) / (p[i + 1] - p[i])
                + (p[i + 1] - p[i] - d) * (h[i] - h[i - 1]) / (p[i] - p[i - 1]))
    }

    /// Linear fallback when the parabolic prediction leaves the bracket.
    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.heights[i]
            + d * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// The current estimate (`None` until at least one observation).
    ///
    /// Up to five observations the exact small-sample quantile is
    /// returned: the markers still hold the raw sample then.
    pub fn estimate(&self) -> Option<f64> {
        match self.count {
            0 => None,
            n if n <= 5 => {
                let mut buf: Vec<f64> = self.heights[..n].to_vec();
                buf.sort_by(|a, b| a.partial_cmp(b).expect("finite observations"));
                Some(small_sample_quantile(&buf, self.q))
            }
            _ => Some(self.heights[2]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(n: usize, f: impl Fn(usize) -> f64) -> Vec<f64> {
        (0..n).map(f).collect()
    }

    fn exact(values: &mut [f64], q: f64) -> f64 {
        values.sort_by(|a, b| a.total_cmp(b));
        small_sample_quantile(values, q)
    }

    #[test]
    fn median_of_uniform_ramp() {
        let mut est = P2Quantile::new(0.5);
        // A deterministic shuffled ramp (multiplicative stepping).
        let xs = stream(10_001, |i| ((i * 7919) % 10_001) as f64);
        for &x in &xs {
            est.push(x);
        }
        let got = est.estimate().unwrap();
        let want = exact(&mut xs.clone(), 0.5);
        assert!(
            (got - want).abs() / want < 0.01,
            "P² median {got} vs exact {want}"
        );
    }

    #[test]
    fn tails_of_skewed_stream() {
        for q in [0.1, 0.9] {
            let mut est = P2Quantile::new(q);
            // Quadratic ramp: heavily skewed.
            let xs = stream(20_000, |i| {
                let r = ((i * 104_729) % 20_000) as f64 / 20_000.0;
                r * r * 1000.0
            });
            for &x in &xs {
                est.push(x);
            }
            let got = est.estimate().unwrap();
            let want = exact(&mut xs.clone(), q);
            assert!(
                (got - want).abs() < 0.05 * 1000.0 * q.max(1.0 - q),
                "q={q}: P² {got} vs exact {want}"
            );
        }
    }

    #[test]
    fn small_samples_are_exact() {
        let mut est = P2Quantile::new(0.5);
        assert!(est.estimate().is_none());
        est.push(3.0);
        assert_eq!(est.estimate(), Some(3.0));
        est.push(1.0);
        est.push(2.0);
        // Exact median of {1,2,3}.
        assert_eq!(est.estimate(), Some(2.0));
        assert_eq!(est.count(), 3);
    }

    #[test]
    fn five_samples_are_exact() {
        let mut p95 = P2Quantile::new(0.95);
        let mut p50 = P2Quantile::new(0.5);
        for x in [3.0, 1.0, 5.0, 2.0, 4.0] {
            p95.push(x);
            p50.push(x);
        }
        assert!((p95.estimate().unwrap() - 4.8).abs() < 1e-12);
        assert_eq!(p50.estimate(), Some(3.0));
    }

    #[test]
    fn constant_stream() {
        let mut est = P2Quantile::new(0.75);
        for _ in 0..1000 {
            est.push(42.0);
        }
        assert_eq!(est.estimate(), Some(42.0));
    }

    #[test]
    fn monotone_stream() {
        let mut est = P2Quantile::new(0.25);
        for i in 0..10_000 {
            est.push(i as f64);
        }
        let got = est.estimate().unwrap();
        assert!(
            (got - 2500.0).abs() < 100.0,
            "first quartile of 0..10000 ≈ 2500, got {got}"
        );
    }

    #[test]
    #[should_panic(expected = "interior quantiles")]
    fn rejects_extreme_q() {
        P2Quantile::new(1.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// P² stays within the observed range and lands near the exact
        /// quantile for moderately sized random streams.
        #[test]
        fn tracks_exact_quantile(
            xs in proptest::collection::vec(-1e3f64..1e3, 100..2000),
            qi in 1usize..10,
        ) {
            let q = qi as f64 / 10.0;
            let mut est = P2Quantile::new(q);
            for &x in &xs {
                est.push(x);
            }
            let got = est.estimate().unwrap();
            let mut sorted = xs.clone();
            sorted.sort_by(|a, b| a.total_cmp(b));
            let lo = sorted[0];
            let hi = sorted[sorted.len() - 1];
            prop_assert!(got >= lo && got <= hi, "estimate {got} escaped [{lo}, {hi}]");
            let want = small_sample_quantile(&sorted, q);
            // Tolerance: 15 % of the sample range (P² is approximate for
            // small adversarial streams; typical error is far lower).
            prop_assert!(
                (got - want).abs() <= 0.15 * (hi - lo) + 1e-9,
                "q={q}: P² {got} vs exact {want} (range {lo}..{hi})"
            );
        }
    }
}
