//! Steady-state analysis: the platform-waste lower bound of Section 4.
//!
//! In steady state, class `A_i` runs `n_i` jobs of `q_i` nodes each with
//! checkpoint cost `C_i` and recovery cost `R_i`. A job checkpointing with
//! period `P_i` wastes (Eq. 3)
//!
//! ```text
//! W_i = C_i / P_i + (q_i / µ)(P_i/2 + R_i)          µ = node MTBF
//! ```
//!
//! and the platform waste is the allocation-weighted mean (Eq. 4/7)
//!
//! ```text
//! W = Σ_i (n_i q_i / N) W_i .
//! ```
//!
//! Without I/O constraints each class would use its Young/Daly period
//! `P_i = √(2 µ_i C_i)` (Eq. 5), but checkpoints must also *fit* on the
//! file system: `F = Σ_i n_i C_i / P_i ≤ 1` (Eq. 6). The KKT conditions
//! give (Eq. 8)
//!
//! ```text
//! P_i(λ) = √( (2 µ N / q_i²) (q_i/N + λ) C_i )
//! ```
//!
//! with the smallest `λ ≥ 0` making `F ≤ 1`, found numerically
//! ([`solve_lambda`]). [`try_lower_bound`] assembles Theorem 1: the
//! optimal periods, the multiplier, and the resulting waste — the
//! "Theoretical Model" curve of Figures 1–3. On a platform so extreme that
//! a period overflows or no multiplier fits the checkpoints, it returns a
//! [`BoundError`] naming the input to blame; [`lower_bound`] panics there.

mod numeric;

pub use numeric::{bisect, BisectError};

use coopckpt_des::Duration;
use coopckpt_model::{AppClass, Platform};

/// Steady-state parameters of one application class, as used by Section 4.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassParams {
    /// Class name (for reports).
    pub name: String,
    /// Number of concurrently running jobs `n_i` (fractional values are
    /// meaningful in steady state: a class holding 1.5 jobs' worth of nodes
    /// on average).
    pub n_jobs: f64,
    /// Nodes per job `q_i`.
    pub q_nodes: usize,
    /// Interference-free checkpoint commit time `C_i`.
    pub ckpt: Duration,
    /// Recovery read time `R_i`.
    pub recovery: Duration,
}

impl ClassParams {
    /// Derives steady-state parameters from an [`AppClass`] on `platform`:
    /// `n_i = share_i · N / q_i` jobs and `C_i = R_i = size_i / β`.
    pub fn from_app_class(class: &AppClass, platform: &Platform) -> Self {
        let c = class.ckpt_duration(platform.pfs_bandwidth);
        ClassParams {
            name: class.name.clone(),
            n_jobs: class.resource_share * platform.nodes as f64 / class.q_nodes as f64,
            q_nodes: class.q_nodes,
            ckpt: c,
            recovery: class.recovery_duration(platform.pfs_bandwidth),
        }
    }

    /// Validates the parameters.
    ///
    /// # Panics
    ///
    /// Panics on non-positive job counts, node counts, or checkpoint costs.
    pub fn validate(&self) {
        assert!(self.n_jobs > 0.0, "{}: n_jobs must be positive", self.name);
        assert!(self.q_nodes > 0, "{}: q_nodes must be positive", self.name);
        assert!(
            self.ckpt.is_positive() && self.ckpt.is_finite(),
            "{}: checkpoint cost must be positive",
            self.name
        );
        assert!(
            self.recovery.as_secs() >= 0.0 && self.recovery.is_finite(),
            "{}: recovery cost must be non-negative",
            self.name
        );
    }
}

/// The result of Theorem 1: optimal periods under the I/O constraint.
#[derive(Debug, Clone, PartialEq)]
pub struct LowerBound {
    /// The KKT multiplier: 0 when the file system is not the bottleneck.
    pub lambda: f64,
    /// Optimal checkpoint period of each class (same order as the input).
    pub periods: Vec<Duration>,
    /// Platform waste `W` at those periods (Eq. 7) — a lower bound on any
    /// schedule's waste ratio.
    pub waste: f64,
    /// File-system usage fraction `F` at those periods (Eq. 6).
    pub io_fraction: f64,
}

impl LowerBound {
    /// Efficiency `1 − W`.
    pub fn efficiency(&self) -> f64 {
        1.0 - self.waste
    }

    /// True when the I/O constraint binds (λ > 0), i.e. some classes run
    /// with periods longer than Young/Daly.
    pub fn io_constrained(&self) -> bool {
        self.lambda > 0.0
    }
}

/// Eq. (8): the optimal period of one class for a given multiplier λ.
pub fn period_for_lambda(platform: &Platform, class: &ClassParams, lambda: f64) -> Duration {
    let mu = platform.node_mtbf.as_secs();
    let n = platform.nodes as f64;
    let q = class.q_nodes as f64;
    let c = class.ckpt.as_secs();
    Duration::from_secs((2.0 * mu * n / (q * q) * (q / n + lambda) * c).sqrt())
}

/// Eq. (6): the file-system usage fraction `F = Σ n_i C_i / P_i` for the
/// periods induced by λ.
pub fn io_fraction_for_lambda(platform: &Platform, classes: &[ClassParams], lambda: f64) -> f64 {
    classes
        .iter()
        .map(|cl| {
            let p = period_for_lambda(platform, cl, lambda);
            cl.n_jobs * cl.ckpt.as_secs() / p.as_secs()
        })
        .sum()
}

/// Eq. (7): the platform waste for explicit per-class periods.
///
/// # Panics
///
/// Panics when `periods.len() != classes.len()`.
pub fn platform_waste(platform: &Platform, classes: &[ClassParams], periods: &[Duration]) -> f64 {
    assert_eq!(
        classes.len(),
        periods.len(),
        "one period per class required"
    );
    let mu = platform.node_mtbf.as_secs();
    let n = platform.nodes as f64;
    classes
        .iter()
        .zip(periods)
        .map(|(cl, p)| {
            let q = cl.q_nodes as f64;
            let wi = cl.ckpt.as_secs() / p.as_secs()
                + q / mu * (p.as_secs() / 2.0 + cl.recovery.as_secs());
            cl.n_jobs * q / n * wi
        })
        .sum()
}

/// Why Theorem 1 has no finite answer: a period overflows (or vanishes),
/// or no multiplier below 1e30 fits the checkpoints on the file system.
/// Either way one input is astronomically far from a real platform; the
/// error blames the one further from 1 s in orders of magnitude.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundError {
    /// The node MTBF, in seconds.
    NodeMtbf(f64),
    /// One class's checkpoint cost, in seconds: the bandwidth is too low
    /// for its checkpoint size.
    CheckpointCost {
        /// The class with the most extreme cost.
        class: String,
        /// Its checkpoint cost.
        secs: f64,
    },
}

impl std::fmt::Display for BoundError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoundError::NodeMtbf(secs) => write!(
                f,
                "no finite Theorem 1 bound with a node MTBF of {secs:.3e} s"
            ),
            BoundError::CheckpointCost { class, secs } => write!(
                f,
                "no finite Theorem 1 bound: class {class} takes {secs:.3e} s to checkpoint"
            ),
        }
    }
}

impl std::error::Error for BoundError {}

impl BoundError {
    /// Blames the node MTBF or the most extreme checkpoint cost, whichever
    /// lies more orders of magnitude from 1 s.
    fn blame(platform: &Platform, classes: &[ClassParams]) -> BoundError {
        let magnitude = |secs: f64| secs.ln().abs();
        let mu = platform.node_mtbf.as_secs();
        let worst = classes
            .iter()
            .max_by(|a, b| magnitude(a.ckpt.as_secs()).total_cmp(&magnitude(b.ckpt.as_secs())));
        match worst {
            Some(c) if magnitude(c.ckpt.as_secs()) > magnitude(mu) => BoundError::CheckpointCost {
                class: c.name.clone(),
                secs: c.ckpt.as_secs(),
            },
            _ => BoundError::NodeMtbf(mu),
        }
    }
}

/// Finds the smallest `λ ≥ 0` such that `F(λ) ≤ 1` (Section 4).
///
/// `F` is continuous and strictly decreasing in λ, so when `F(0) > 1`
/// the unique root of `F(λ) − 1` is bracketed by doubling and bisected.
/// Fails when no λ below 1e30 brackets it.
pub fn solve_lambda(platform: &Platform, classes: &[ClassParams]) -> Result<f64, BoundError> {
    for c in classes {
        c.validate();
    }
    let f0 = io_fraction_for_lambda(platform, classes, 0.0);
    if f0 <= 1.0 {
        return Ok(0.0);
    }
    // Bracket: F(λ) ~ λ^(-1/2) for large λ, so doubling terminates quickly.
    let mut hi = 1e-12;
    while io_fraction_for_lambda(platform, classes, hi) > 1.0 {
        hi *= 2.0;
        if hi >= 1e30 {
            return Err(BoundError::blame(platform, classes));
        }
    }
    Ok(bisect(
        |lambda| io_fraction_for_lambda(platform, classes, lambda) - 1.0,
        hi / 2.0_f64.max(1e-12),
        hi,
        1e-14,
        200,
    )
    .unwrap_or(hi))
}

/// Theorem 1: the optimal checkpoint periods under the I/O constraint and
/// the resulting platform-waste lower bound, or a [`BoundError`] when an
/// extreme input leaves a period, the waste or the I/O fraction without a
/// finite value.
pub fn try_lower_bound(
    platform: &Platform,
    classes: &[ClassParams],
) -> Result<LowerBound, BoundError> {
    let finite_positive = |secs: f64| secs.is_finite() && secs > 0.0;
    if !classes.iter().all(|c| {
        finite_positive(c.ckpt.as_secs())
            && finite_positive(period_for_lambda(platform, c, 0.0).as_secs())
    }) {
        return Err(BoundError::blame(platform, classes));
    }
    let lambda = solve_lambda(platform, classes)?;
    let periods: Vec<Duration> = classes
        .iter()
        .map(|c| period_for_lambda(platform, c, lambda))
        .collect();
    let waste = platform_waste(platform, classes, &periods);
    let io_fraction = io_fraction_for_lambda(platform, classes, lambda);
    if !(periods.iter().all(|p| finite_positive(p.as_secs()))
        && waste.is_finite()
        && io_fraction.is_finite())
    {
        return Err(BoundError::blame(platform, classes));
    }
    Ok(LowerBound {
        lambda,
        periods,
        waste,
        io_fraction,
    })
}

/// [`try_lower_bound`] for platforms known to have a finite bound.
///
/// # Panics
///
/// Panics with the [`BoundError`] where [`try_lower_bound`] fails.
pub fn lower_bound(platform: &Platform, classes: &[ClassParams]) -> LowerBound {
    try_lower_bound(platform, classes).unwrap_or_else(|e| panic!("{e}"))
}

/// Young/Daly periods (Eq. 5) for every class — the unconstrained optimum,
/// also `period_for_lambda(·, 0)`.
pub fn unconstrained_periods(platform: &Platform, classes: &[ClassParams]) -> Vec<Duration> {
    classes
        .iter()
        .map(|c| period_for_lambda(platform, c, 0.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use coopckpt_model::{Bandwidth, Bytes};

    fn platform(nodes: usize, bw_gbps: f64, mtbf_years: f64) -> Platform {
        Platform::new(
            "t",
            nodes,
            8,
            Bytes::from_gb(16.0),
            Bandwidth::from_gbps(bw_gbps),
            Duration::from_years(mtbf_years),
        )
        .unwrap()
    }

    fn one_class(n_jobs: f64, q: usize, ckpt_secs: f64) -> ClassParams {
        ClassParams {
            name: "c".into(),
            n_jobs,
            q_nodes: q,
            ckpt: Duration::from_secs(ckpt_secs),
            recovery: Duration::from_secs(ckpt_secs),
        }
    }

    #[test]
    fn lambda_zero_reduces_to_young_daly() {
        let p = platform(1000, 1000.0, 2.0);
        let c = one_class(1.0, 100, 60.0);
        let period = period_for_lambda(&p, &c, 0.0);
        let mu_job = p.job_mtbf(100);
        let daly = coopckpt_model::young_daly_period(c.ckpt, mu_job);
        assert!((period.as_secs() - daly.as_secs()).abs() < 1e-6);
    }

    #[test]
    fn unconstrained_when_io_is_cheap() {
        // Tiny checkpoints: F(0) well below 1 → λ = 0.
        let p = platform(1000, 1000.0, 2.0);
        let classes = vec![one_class(2.0, 100, 10.0), one_class(3.0, 50, 5.0)];
        let lb = lower_bound(&p, &classes);
        assert_eq!(lb.lambda, 0.0);
        assert!(!lb.io_constrained());
        assert!(lb.io_fraction < 1.0);
        let daly = unconstrained_periods(&p, &classes);
        for (a, b) in lb.periods.iter().zip(&daly) {
            assert!((a.as_secs() - b.as_secs()).abs() < 1e-9);
        }
    }

    #[test]
    fn constrained_when_io_is_scarce() {
        // Huge checkpoints: F(0) > 1 → λ > 0 and F(λ) = 1.
        let p = platform(1000, 10.0, 2.0);
        let classes = vec![one_class(5.0, 100, 20_000.0), one_class(8.0, 50, 10_000.0)];
        let f0 = io_fraction_for_lambda(&p, &classes, 0.0);
        assert!(f0 > 1.0, "test premise: unconstrained F = {f0}");
        let lb = lower_bound(&p, &classes);
        assert!(lb.io_constrained());
        assert!(
            (lb.io_fraction - 1.0).abs() < 1e-6,
            "constraint should be tight, F = {}",
            lb.io_fraction
        );
        // Constrained periods are longer than Young/Daly.
        for (p_opt, p_daly) in lb.periods.iter().zip(unconstrained_periods(&p, &classes)) {
            assert!(p_opt > &p_daly);
        }
    }

    #[test]
    fn constrained_waste_exceeds_unconstrained_ideal() {
        let p = platform(1000, 10.0, 2.0);
        let classes = vec![one_class(10.0, 100, 20_000.0)];
        let lb = lower_bound(&p, &classes);
        assert!(lb.io_constrained(), "premise: F(0) > 1");
        let ideal = platform_waste(&p, &classes, &unconstrained_periods(&p, &classes));
        assert!(
            lb.waste > ideal,
            "constrained waste {} must exceed ideal {ideal}",
            lb.waste
        );
    }

    #[test]
    fn kkt_periods_minimize_waste_on_the_constraint() {
        // Perturb the optimal periods along the constraint manifold (two
        // classes: move P1 down, adjust P2 to keep F = 1) — waste must rise.
        let p = platform(1000, 10.0, 2.0);
        let classes = vec![one_class(5.0, 100, 20_000.0), one_class(8.0, 50, 10_000.0)];
        let lb = lower_bound(&p, &classes);
        assert!(lb.io_constrained());
        let w_opt = lb.waste;
        let f_target = lb.io_fraction;
        for delta in [-0.05, -0.02, 0.02, 0.05] {
            let p1 = lb.periods[0] * (1.0 + delta);
            // Solve n2 C2 / P2 = F − n1 C1/P1 for P2.
            let f1 = classes[0].n_jobs * classes[0].ckpt.as_secs() / p1.as_secs();
            let rem = f_target - f1;
            if rem <= 0.0 {
                continue;
            }
            let p2 = Duration::from_secs(classes[1].n_jobs * classes[1].ckpt.as_secs() / rem);
            let w = platform_waste(&p, &classes, &[p1, p2]);
            assert!(
                w >= w_opt - 1e-12,
                "perturbed waste {w} fell below optimum {w_opt} at delta {delta}"
            );
        }
    }

    #[test]
    fn more_bandwidth_never_hurts() {
        let classes_at = |bw: f64| {
            let p = platform(1000, bw, 2.0);
            let size = Bytes::from_tb(20.0);
            let c = size.transfer_time(p.pfs_bandwidth);
            (
                p,
                vec![ClassParams {
                    name: "x".into(),
                    n_jobs: 5.0,
                    q_nodes: 100,
                    ckpt: c,
                    recovery: c,
                }],
            )
        };
        let mut last = f64::INFINITY;
        for bw in [10.0, 20.0, 40.0, 80.0, 160.0, 320.0] {
            let (p, cls) = classes_at(bw);
            let w = lower_bound(&p, &cls).waste;
            assert!(
                w <= last + 1e-12,
                "waste increased with bandwidth at {bw} GB/s: {w} > {last}"
            );
            last = w;
        }
    }

    #[test]
    fn waste_decreases_with_reliability() {
        let mut last = f64::INFINITY;
        for years in [1.0, 2.0, 5.0, 10.0, 50.0] {
            let p = platform(1000, 100.0, years);
            let classes = vec![one_class(5.0, 100, 300.0)];
            let w = lower_bound(&p, &classes).waste;
            assert!(w < last, "waste must fall as MTBF grows ({years}y: {w})");
            last = w;
        }
    }

    #[test]
    fn from_app_class_derives_steady_state_params() {
        let p = platform(1000, 100.0, 2.0);
        let app = AppClass {
            name: "EAPish".into(),
            q_nodes: 100,
            walltime: Duration::from_hours(100.0),
            resource_share: 0.5,
            input_bytes: Bytes::ZERO,
            output_bytes: Bytes::ZERO,
            ckpt_bytes: Bytes::from_tb(3.0),
            regular_io_bytes: Bytes::ZERO,
        };
        let cp = ClassParams::from_app_class(&app, &p);
        assert!((cp.n_jobs - 5.0).abs() < 1e-12); // 0.5 × 1000 / 100
        assert!((cp.ckpt.as_secs() - 30.0).abs() < 1e-9); // 3 TB at 100 GB/s
        assert_eq!(cp.recovery, cp.ckpt);
    }

    #[test]
    #[should_panic(expected = "n_jobs must be positive")]
    fn validate_rejects_zero_jobs() {
        one_class(0.0, 10, 10.0).validate();
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use coopckpt_model::{Bandwidth, Bytes};
    use proptest::prelude::*;

    fn arb_platform() -> impl Strategy<Value = Platform> {
        (100usize..20_000, 1.0f64..1000.0, 0.5f64..50.0).prop_map(|(n, bw, y)| {
            Platform::new(
                "p",
                n,
                8,
                Bytes::from_gb(16.0),
                Bandwidth::from_gbps(bw),
                Duration::from_years(y),
            )
            .unwrap()
        })
    }

    fn arb_classes(max_nodes: usize) -> impl Strategy<Value = Vec<ClassParams>> {
        proptest::collection::vec((1.0f64..20.0, 1usize..500, 1.0f64..5000.0), 1..5).prop_map(
            move |rows| {
                rows.into_iter()
                    .enumerate()
                    .map(|(i, (n_jobs, q, c))| ClassParams {
                        name: format!("c{i}"),
                        n_jobs,
                        q_nodes: q.min(max_nodes),
                        ckpt: Duration::from_secs(c),
                        recovery: Duration::from_secs(c),
                    })
                    .collect()
            },
        )
    }

    proptest! {
        /// The solver always satisfies the constraint, with equality when
        /// it binds; periods never fall below Young/Daly.
        #[test]
        fn solver_invariants((p, classes) in arb_platform().prop_flat_map(|p| {
            let n = p.nodes;
            (Just(p), arb_classes(n))
        })) {
            let lb = lower_bound(&p, &classes);
            prop_assert!(lb.io_fraction <= 1.0 + 1e-9);
            if lb.lambda > 0.0 {
                prop_assert!((lb.io_fraction - 1.0).abs() < 1e-6,
                    "binding constraint must be tight: F={}", lb.io_fraction);
            }
            for (popt, pdaly) in lb.periods.iter().zip(unconstrained_periods(&p, &classes)) {
                prop_assert!(popt.as_secs() >= pdaly.as_secs() - 1e-9);
            }
            prop_assert!(lb.waste >= 0.0);
        }
    }
}
