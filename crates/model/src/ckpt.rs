//! Checkpoint-interval mathematics.
//!
//! * [`young_daly_period`] — the first-order optimum `P = √(2 µ C)` used
//!   throughout the paper (their `P_Daly`).
//! * [`steady_state_waste`] — Eq. (3): the fraction of a job's node-time
//!   lost to resilience when checkpointing with period `P`.
//! * [`class_restore_costs`] / [`steady_state_waste_mix`] — the
//!   multi-level extension (paper Section 8): per-class restore costs on a
//!   storage hierarchy and Eq. (3) under their failure-class mix.
//! * [`daly_period_energy`] / [`steady_state_energy_waste`] — the
//!   time-vs-energy trade-off of Aupy, Benoit, Hérault, Robert, Dongarra
//!   (*Optimal Checkpointing Period: Time vs. Energy*): when the platform
//!   draws different power while checkpointing than while (re-)computing,
//!   the energy-optimal period stretches the Young/Daly period by
//!   `√(ρ_ckpt / ρ_comp)`.

use crate::units::{Bandwidth, Bytes};
use coopckpt_des::Duration;

/// First-order optimal checkpoint period `P = √(2 µ C)` (Young 1974 /
/// Daly 2006, as used in the paper).
///
/// `c` is the interference-free checkpoint commit time, `mtbf` the MTBF of
/// the *job* (`µ_j = µ_ind / q_j`).
///
/// # Panics
///
/// Panics if either argument is non-positive or non-finite.
pub fn young_daly_period(c: Duration, mtbf: Duration) -> Duration {
    assert!(
        c.is_finite() && c.is_positive(),
        "checkpoint cost must be positive, got {c}"
    );
    assert!(
        mtbf.is_finite() && mtbf.is_positive(),
        "MTBF must be positive, got {mtbf}"
    );
    Duration::from_secs((2.0 * mtbf.as_secs() * c.as_secs()).sqrt())
}

/// Steady-state waste of a job checkpointing with period `p` (paper Eq. (3)):
///
/// `W = C/P + (1/µ)(P/2 + R)`
///
/// where `µ` is the job MTBF. The first term is time spent writing
/// checkpoints; the second is expected rollback-and-recover time per unit
/// time. Valid in the first-order regime `P ≪ µ`.
pub fn steady_state_waste(c: Duration, r: Duration, p: Duration, mtbf: Duration) -> f64 {
    assert!(p.is_positive(), "period must be positive, got {p}");
    assert!(mtbf.is_positive(), "MTBF must be positive, got {mtbf}");
    c.as_secs() / p.as_secs() + (p.as_secs() / 2.0 + r.as_secs()) / mtbf.as_secs()
}

/// The energy-optimal checkpoint period (Aupy et al.):
///
/// `P_E = √(2 µ C · ρ_ckpt / ρ_comp)`
///
/// where `ρ_ckpt` is the platform's power draw (watts) during a checkpoint
/// write and `ρ_comp` its draw during computation. The derivation mirrors
/// Young/Daly: the energy waste per unit of useful work,
/// `E(P) = ρ_ckpt·C/P + ρ_comp·P/(2µ) + const`, is minimized where the two
/// marginal terms balance. Three regimes:
///
/// * `ρ_ckpt < ρ_comp` (checkpoint writes cheaper than compute — idle CPUs,
///   modest I/O draw): checkpoints are energy-cheap relative to the
///   re-execution they avert, so `P_E < P_Daly` — checkpoint *more* often.
/// * `ρ_ckpt = ρ_comp` (zero power differential): `P_E = P_Daly` exactly.
/// * `ρ_ckpt > ρ_comp` (I/O-heavy platforms, the Aupy et al. Exascale
///   projection): `P_E > P_Daly` — checkpoint *less* often.
///
/// ```
/// use coopckpt_des::Duration;
/// use coopckpt_model::{daly_period_energy, young_daly_period};
///
/// let c = Duration::from_secs(200.0);
/// let mu = Duration::from_secs(10_000.0);
/// // Zero differential: exactly Young/Daly.
/// assert_eq!(daly_period_energy(c, mu, 220.0, 220.0), young_daly_period(c, mu));
/// // I/O draw 4x compute draw: the period doubles.
/// let p = daly_period_energy(c, mu, 880.0, 220.0);
/// assert!((p.as_secs() / young_daly_period(c, mu).as_secs() - 2.0).abs() < 1e-12);
/// ```
///
/// # Panics
///
/// Panics when `c` or `mtbf` is non-positive, or either power draw is not
/// strictly positive and finite.
pub fn daly_period_energy(c: Duration, mtbf: Duration, ckpt_w: f64, compute_w: f64) -> Duration {
    assert!(
        ckpt_w.is_finite() && ckpt_w > 0.0,
        "checkpoint-phase draw must be positive, got {ckpt_w}"
    );
    assert!(
        compute_w.is_finite() && compute_w > 0.0,
        "compute-phase draw must be positive, got {compute_w}"
    );
    let daly = young_daly_period(c, mtbf);
    Duration::from_secs(daly.as_secs() * (ckpt_w / compute_w).sqrt())
}

/// The wall-clock checkpoint period of a job pacing in *usage*
/// (node-hours) under a platform-wide quantum (Graziani, Lusch &
/// Messer): the platform publishes one usage quantum derived from a
/// reference checkpoint cost `ref_usage_cost` (node-seconds), and a job
/// consuming usage at rate `q` converts it to wall-clock as
///
/// `P_U = U*/q = √(2 µ_node · C_u^ref) / q
///      = P_Daly · √(C_u^ref / C_u^job)`
///
/// where `C_u^job = q · C` is the job's own checkpoint cost in
/// node-seconds and `P_Daly = √(2 µ_j C)` its wall-clock Young/Daly
/// period. The rightmost form is how this function computes: it
/// delegates to [`young_daly_period`] and scales by
/// `√(C_u^ref / C_u^job)`, so when the reference cost *is* the job's own
/// cost — every homogeneous single-class workload — the factor is
/// exactly `1.0` and the usage-paced period is **bit-identical** to the
/// wall-clock one:
///
/// ```
/// use coopckpt_des::Duration;
/// use coopckpt_model::{daly_usage_period, young_daly_period};
///
/// let c = Duration::from_secs(200.0);
/// let mu = Duration::from_secs(10_000.0); // job MTBF (µ_node / q)
/// // Homogeneous workload: the platform reference is the job itself.
/// assert_eq!(
///     daly_usage_period(c, mu, 51_200.0, 51_200.0),
///     young_daly_period(c, mu)
/// );
/// // A heterogeneous platform whose reference cost is 4x the job's:
/// // the shared quantum makes this job checkpoint half as often.
/// let p = daly_usage_period(c, mu, 51_200.0, 4.0 * 51_200.0);
/// assert!((p.as_secs() / young_daly_period(c, mu).as_secs() - 2.0).abs() < 1e-12);
/// ```
///
/// # Panics
///
/// Panics when `c` or `mtbf` is non-positive, or either usage cost is
/// not strictly positive and finite.
pub fn daly_usage_period(
    c: Duration,
    mtbf: Duration,
    job_usage_cost: f64,
    ref_usage_cost: f64,
) -> Duration {
    assert!(
        job_usage_cost.is_finite() && job_usage_cost > 0.0,
        "job usage cost must be positive node-seconds, got {job_usage_cost}"
    );
    assert!(
        ref_usage_cost.is_finite() && ref_usage_cost > 0.0,
        "reference usage cost must be positive node-seconds, got {ref_usage_cost}"
    );
    let daly = young_daly_period(c, mtbf);
    Duration::from_secs(daly.as_secs() * (ref_usage_cost / job_usage_cost).sqrt())
}

/// Steady-state *energy* waste of a job checkpointing with period `p`, per
/// unit of useful compute energy — the energy twin of
/// [`steady_state_waste`] (Aupy et al.):
///
/// `W_E = (C/P · ρ_ckpt + (1/µ)(P/2 · ρ_comp + R · ρ_rec)) / ρ_comp`
///
/// Each waste term of Eq. (3) is priced at its phase's draw and the total
/// is normalized by the compute draw, so with a zero power differential
/// `W_E` reduces exactly to the time-domain waste of Eq. (3). Minimized at
/// [`daly_period_energy`]. Valid in the first-order regime `P ≪ µ`.
pub fn steady_state_energy_waste(
    c: Duration,
    r: Duration,
    p: Duration,
    mtbf: Duration,
    ckpt_w: f64,
    compute_w: f64,
    recovery_w: f64,
) -> f64 {
    assert!(p.is_positive(), "period must be positive, got {p}");
    assert!(mtbf.is_positive(), "MTBF must be positive, got {mtbf}");
    assert!(
        compute_w.is_finite() && compute_w > 0.0,
        "compute-phase draw must be positive, got {compute_w}"
    );
    assert!(
        ckpt_w.is_finite() && ckpt_w >= 0.0 && recovery_w.is_finite() && recovery_w >= 0.0,
        "phase draws must be finite and non-negative"
    );
    let waste_power = c.as_secs() / p.as_secs() * ckpt_w
        + (p.as_secs() / 2.0 * compute_w + r.as_secs() * recovery_w) / mtbf.as_secs();
    waste_power / compute_w
}

/// Expected restore cost under a failure-class mix: `E[R] = Σ_c p_c R_c`,
/// where `p_c` is class `c`'s share of the failure rate and `R_c` the
/// restore cost of the tier class `c` recovers from.
///
/// With a single class the mix degenerates *exactly* (IEEE `1.0 × R = R`)
/// to that class's cost, so the multi-level forms reduce bit-for-bit to
/// the paper's single-class model.
///
/// ```
/// use coopckpt_des::Duration;
/// use coopckpt_model::expected_restore_cost;
///
/// // 70 % of failures restore from a fast tier (10 s), 30 % from the
/// // PFS (250 s): E[R] = 82 s.
/// let r = expected_restore_cost(
///     &[0.7, 0.3],
///     &[Duration::from_secs(10.0), Duration::from_secs(250.0)],
/// );
/// assert!((r.as_secs() - 82.0).abs() < 1e-9);
/// ```
///
/// # Panics
///
/// Panics when the slices differ in length, a share is negative or
/// non-finite, or the shares do not sum to 1 (±1e-6).
pub fn expected_restore_cost(shares: &[f64], restore_costs: &[Duration]) -> Duration {
    assert_eq!(
        shares.len(),
        restore_costs.len(),
        "one restore cost per failure class required ({} shares, {} costs)",
        shares.len(),
        restore_costs.len()
    );
    let mut sum = 0.0;
    let mut total_share = 0.0;
    for (&p, &r) in shares.iter().zip(restore_costs) {
        assert!(
            p.is_finite() && p >= 0.0,
            "class shares must be finite and non-negative, got {p}"
        );
        assert!(
            r.is_finite() && r.as_secs() >= 0.0,
            "restore costs must be finite and non-negative, got {r}"
        );
        sum += p * r.as_secs();
        total_share += p;
    }
    assert!(
        (total_share - 1.0).abs() <= 1e-6,
        "class shares must sum to 1, got {total_share}"
    );
    Duration::from_secs(sum)
}

/// Per-class restore costs on a storage hierarchy in steady state: class
/// `c` (severity `s_c` = number of shallowest levels its strikes
/// invalidate) recovers from level `s_c` — the shallowest copy that
/// survives it, since a drained checkpoint leaves retained copies at
/// every level it visited — at that level's read bandwidth, or from the
/// PFS when `s_c` reaches past the deepest tier.
///
/// `level_read_bws[ℓ]` is the effective read bandwidth of level `ℓ` as
/// the job sees it (per-node bandwidths multiplied by the job's node
/// count).
///
/// ```
/// use coopckpt_model::{class_restore_costs, Bandwidth, Bytes};
///
/// // 1 TB checkpoint; tiers at 100 and 50 GB/s over a 10 GB/s PFS.
/// let costs = class_restore_costs(
///     Bytes::from_tb(1.0),
///     &[Bandwidth::from_gbps(100.0), Bandwidth::from_gbps(50.0)],
///     Bandwidth::from_gbps(10.0),
///     &[0, 1, usize::MAX], // process crash, node loss, system outage
/// );
/// assert!((costs[0].as_secs() - 10.0).abs() < 1e-9);  // level 0
/// assert!((costs[1].as_secs() - 20.0).abs() < 1e-9);  // level 1
/// assert!((costs[2].as_secs() - 100.0).abs() < 1e-9); // PFS
/// ```
///
/// # Panics
///
/// Panics when the volume or any bandwidth is non-positive.
pub fn class_restore_costs(
    volume: Bytes,
    level_read_bws: &[Bandwidth],
    pfs_bw: Bandwidth,
    severities: &[usize],
) -> Vec<Duration> {
    assert!(
        volume.is_valid() && !volume.is_zero(),
        "checkpoint volume must be positive, got {volume}"
    );
    assert!(
        pfs_bw.is_valid() && !pfs_bw.is_zero(),
        "PFS bandwidth must be positive, got {pfs_bw}"
    );
    severities
        .iter()
        .map(|&s| {
            let bw = if s < level_read_bws.len() {
                let bw = level_read_bws[s];
                assert!(
                    bw.is_valid() && !bw.is_zero(),
                    "tier read bandwidth must be positive, got {bw}"
                );
                bw
            } else {
                pfs_bw
            };
            volume.transfer_time(bw)
        })
        .collect()
}

/// Steady-state waste of a job checkpointing with period `p` under a
/// failure-class mix — Eq. (3) with the recovery term replaced by the
/// class-probability mix of [`expected_restore_cost`]:
///
/// `W = C/P + (1/µ)(P/2 + Σ_c p_c R_c)`
///
/// `mtbf` is the job MTBF of the *total* failure process (the mix
/// partitions the rate; it does not add failures). With a single class
/// this is exactly [`steady_state_waste`].
///
/// ```
/// use coopckpt_des::Duration;
/// use coopckpt_model::{steady_state_waste, steady_state_waste_mix};
///
/// let (c, p, mu) = (
///     Duration::from_secs(100.0),
///     Duration::from_secs(2000.0),
///     Duration::from_secs(50_000.0),
/// );
/// // Single system class: the mix reduces to Eq. (3) exactly.
/// let single = steady_state_waste_mix(c, p, mu, &[1.0], &[c]);
/// assert_eq!(single, steady_state_waste(c, c, p, mu));
/// // Shifting half the failures to a 10x-faster tier cuts the waste.
/// let mixed = steady_state_waste_mix(c, p, mu, &[0.5, 0.5], &[c / 10.0, c]);
/// assert!(mixed < single);
/// ```
pub fn steady_state_waste_mix(
    c: Duration,
    p: Duration,
    mtbf: Duration,
    shares: &[f64],
    restore_costs: &[Duration],
) -> f64 {
    let r = expected_restore_cost(shares, restore_costs);
    steady_state_waste(c, r, p, mtbf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn young_daly_matches_closed_form() {
        // C = 200 s, µ = 10000 s → P = sqrt(2*200*10000) = 2000 s.
        let p = young_daly_period(Duration::from_secs(200.0), Duration::from_secs(10_000.0));
        assert!((p.as_secs() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn young_daly_scales_as_sqrt() {
        let p1 = young_daly_period(Duration::from_secs(100.0), Duration::from_secs(10_000.0));
        let p2 = young_daly_period(Duration::from_secs(400.0), Duration::from_secs(10_000.0));
        assert!((p2.as_secs() / p1.as_secs() - 2.0).abs() < 1e-12);
        let p3 = young_daly_period(Duration::from_secs(100.0), Duration::from_secs(40_000.0));
        assert!((p3.as_secs() / p1.as_secs() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "checkpoint cost must be positive")]
    fn young_daly_rejects_zero_cost() {
        young_daly_period(Duration::ZERO, Duration::from_secs(100.0));
    }

    #[test]
    #[should_panic(expected = "MTBF must be positive")]
    fn young_daly_rejects_zero_mtbf() {
        young_daly_period(Duration::from_secs(10.0), Duration::ZERO);
    }

    #[test]
    fn waste_minimized_at_daly_period() {
        let c = Duration::from_secs(300.0);
        let r = Duration::from_secs(300.0);
        let mu = Duration::from_secs(30_000.0);
        let p_star = young_daly_period(c, mu);
        let w_star = steady_state_waste(c, r, p_star, mu);
        for factor in [0.5, 0.8, 1.25, 2.0] {
            let w = steady_state_waste(c, r, p_star * factor, mu);
            assert!(
                w > w_star,
                "waste at {factor}x period ({w}) should exceed optimum ({w_star})"
            );
        }
    }

    #[test]
    fn energy_period_reduces_to_daly_at_zero_differential() {
        let c = Duration::from_secs(300.0);
        let mu = Duration::from_secs(30_000.0);
        assert_eq!(
            daly_period_energy(c, mu, 220.0, 220.0),
            young_daly_period(c, mu)
        );
    }

    #[test]
    fn energy_period_direction_follows_the_power_ratio() {
        let c = Duration::from_secs(300.0);
        let mu = Duration::from_secs(30_000.0);
        let daly = young_daly_period(c, mu);
        // Cheap checkpoints: checkpoint more often.
        assert!(daly_period_energy(c, mu, 100.0, 220.0) < daly);
        // I/O-heavy platform: checkpoint less often.
        assert!(daly_period_energy(c, mu, 480.0, 220.0) > daly);
    }

    #[test]
    fn energy_waste_minimized_at_energy_period() {
        let c = Duration::from_secs(300.0);
        let r = Duration::from_secs(300.0);
        let mu = Duration::from_secs(30_000.0);
        let (ckpt_w, compute_w, rec_w) = (480.0, 220.0, 480.0);
        let p_star = daly_period_energy(c, mu, ckpt_w, compute_w);
        let w_star = steady_state_energy_waste(c, r, p_star, mu, ckpt_w, compute_w, rec_w);
        for factor in [0.5, 0.8, 1.25, 2.0] {
            let w = steady_state_energy_waste(c, r, p_star * factor, mu, ckpt_w, compute_w, rec_w);
            assert!(
                w > w_star,
                "energy waste at {factor}x period ({w}) should exceed optimum ({w_star})"
            );
        }
    }

    #[test]
    fn energy_waste_reduces_to_time_waste_at_zero_differential() {
        let c = Duration::from_secs(120.0);
        let r = Duration::from_secs(240.0);
        let p = Duration::from_secs(4000.0);
        let mu = Duration::from_secs(50_000.0);
        let t = steady_state_waste(c, r, p, mu);
        let e = steady_state_energy_waste(c, r, p, mu, 175.0, 175.0, 175.0);
        assert!((t - e).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "checkpoint-phase draw must be positive")]
    fn energy_period_rejects_zero_draw() {
        daly_period_energy(
            Duration::from_secs(10.0),
            Duration::from_secs(1000.0),
            0.0,
            100.0,
        );
    }

    #[test]
    fn usage_period_is_bit_identical_to_daly_when_reference_matches() {
        let c = Duration::from_secs(300.0);
        let mu = Duration::from_secs(30_000.0);
        let cu = 128.0 * 300.0;
        assert_eq!(daly_usage_period(c, mu, cu, cu), young_daly_period(c, mu));
    }

    #[test]
    fn usage_period_scales_inversely_with_node_count_at_a_shared_quantum() {
        // Two jobs under one platform quantum: equal per-node checkpoint
        // cost, 4x the nodes => 4x the usage rate => quarter the wall
        // period (q * P_U is the same quantum for both).
        let mu_node = Duration::from_years(1.0);
        let c = Duration::from_secs(200.0);
        let (q_small, q_big) = (64.0, 256.0);
        let ref_cu = 100.0 * c.as_secs();
        let p_small = daly_usage_period(
            c,
            Duration::from_secs(mu_node.as_secs() / q_small),
            q_small * c.as_secs(),
            ref_cu,
        );
        let p_big = daly_usage_period(
            c,
            Duration::from_secs(mu_node.as_secs() / q_big),
            q_big * c.as_secs(),
            ref_cu,
        );
        assert!((q_small * p_small.as_secs() - q_big * p_big.as_secs()).abs() < 1e-6);
        // And both convert the same quantum, U* = sqrt(2 µ_node C_u).
        let u = (2.0 * mu_node.as_secs() * ref_cu).sqrt();
        assert!((q_small * p_small.as_secs() - u).abs() < 1e-6);
    }

    #[test]
    fn expected_restore_cost_mixes_linearly() {
        let fast = Duration::from_secs(10.0);
        let slow = Duration::from_secs(100.0);
        let r = expected_restore_cost(&[0.25, 0.75], &[fast, slow]);
        assert!((r.as_secs() - (0.25 * 10.0 + 0.75 * 100.0)).abs() < 1e-12);
        // Single class: exact identity, not just approximate.
        assert_eq!(expected_restore_cost(&[1.0], &[slow]), slow);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn expected_restore_cost_rejects_unnormalized_shares() {
        expected_restore_cost(&[0.5, 0.4], &[Duration::ZERO, Duration::ZERO]);
    }

    #[test]
    fn class_restore_costs_pick_the_surviving_level() {
        let costs = class_restore_costs(
            Bytes::from_tb(2.0),
            &[Bandwidth::from_gbps(200.0), Bandwidth::from_gbps(100.0)],
            Bandwidth::from_gbps(20.0),
            &[0, 1, 2, usize::MAX],
        );
        assert!((costs[0].as_secs() - 10.0).abs() < 1e-9);
        assert!((costs[1].as_secs() - 20.0).abs() < 1e-9);
        // Severity past the stack (2 levels): PFS for both.
        assert!((costs[2].as_secs() - 100.0).abs() < 1e-9);
        assert_eq!(costs[2], costs[3]);
    }

    #[test]
    fn waste_mix_reduces_to_eq3_for_a_single_system_class() {
        let c = Duration::from_secs(250.0);
        let p = Duration::from_secs(3000.0);
        let mu = Duration::from_secs(40_000.0);
        assert_eq!(
            steady_state_waste_mix(c, p, mu, &[1.0], &[c]),
            steady_state_waste(c, c, p, mu)
        );
    }

    #[test]
    fn waste_mix_falls_as_shallow_shares_grow() {
        // Total failure rate fixed; shifting probability mass from the
        // PFS restore to a 10x-faster tier restore cuts the waste
        // monotonically.
        let c = Duration::from_secs(250.0);
        let p = Duration::from_secs(3000.0);
        let mu = Duration::from_secs(40_000.0);
        let costs = [c / 10.0, c];
        let mut last = f64::INFINITY;
        for local in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let w = steady_state_waste_mix(c, p, mu, &[local, 1.0 - local], &costs);
            assert!(w < last, "waste must fall with the local share");
            last = w;
        }
    }

    #[test]
    fn waste_components_add_up() {
        // With no failures contribution removed (µ → ∞) waste ≈ C/P.
        let w = steady_state_waste(
            Duration::from_secs(60.0),
            Duration::from_secs(60.0),
            Duration::from_secs(3600.0),
            Duration::from_secs(1e15),
        );
        assert!((w - 60.0 / 3600.0).abs() < 1e-9);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The Young/Daly period minimizes Eq. (3) over a dense grid of
        /// alternative periods, for arbitrary parameter combinations.
        #[test]
        fn daly_is_argmin_of_waste(
            c_secs in 1.0f64..5_000.0,
            mu_secs in 10_000.0f64..1e9,
            r_factor in 0.0f64..4.0,
        ) {
            let c = Duration::from_secs(c_secs);
            let r = Duration::from_secs(c_secs * r_factor);
            let mu = Duration::from_secs(mu_secs);
            let p_star = young_daly_period(c, mu);
            let w_star = steady_state_waste(c, r, p_star, mu);
            for k in [0.25, 0.5, 0.9, 1.1, 2.0, 4.0] {
                let w = steady_state_waste(c, r, p_star * k, mu);
                prop_assert!(w >= w_star - 1e-12);
            }
        }

        /// The energy-optimal period is the argmin of the energy waste
        /// for arbitrary checkpoint/compute power ratios.
        #[test]
        fn energy_daly_is_argmin_of_energy_waste(
            c_secs in 1.0f64..5_000.0,
            mu_secs in 10_000.0f64..1e9,
            power_ratio in 0.1f64..10.0,
        ) {
            let c = Duration::from_secs(c_secs);
            let r = Duration::from_secs(c_secs);
            let mu = Duration::from_secs(mu_secs);
            let compute_w = 220.0;
            let ckpt_w = compute_w * power_ratio;
            let p_star = daly_period_energy(c, mu, ckpt_w, compute_w);
            let w_star = steady_state_energy_waste(c, r, p_star, mu, ckpt_w, compute_w, ckpt_w);
            for k in [0.25, 0.5, 0.9, 1.1, 2.0, 4.0] {
                let w = steady_state_energy_waste(c, r, p_star * k, mu, ckpt_w, compute_w, ckpt_w);
                prop_assert!(w >= w_star - 1e-12);
            }
        }

        /// The class mix is monotone: moving share from a slow restore to
        /// a strictly faster one never raises the steady-state waste, for
        /// arbitrary operating points.
        #[test]
        fn waste_mix_is_monotone_in_the_fast_share(
            c_secs in 1.0f64..5_000.0,
            mu_secs in 10_000.0f64..1e9,
            speedup in 1.0f64..100.0,
            shift in 0.0f64..1.0,
        ) {
            let c = Duration::from_secs(c_secs);
            let mu = Duration::from_secs(mu_secs);
            let p = young_daly_period(c, mu);
            let costs = [Duration::from_secs(c_secs / speedup), c];
            let base = steady_state_waste_mix(c, p, mu, &[0.0, 1.0], &costs);
            let shifted = steady_state_waste_mix(c, p, mu, &[shift, 1.0 - shift], &costs);
            prop_assert!(shifted <= base + 1e-12);
        }

        /// P scales as sqrt(µ) and sqrt(C).
        #[test]
        fn daly_scaling_laws(c in 1.0f64..1000.0, mu in 1000.0f64..1e8) {
            let p = young_daly_period(Duration::from_secs(c), Duration::from_secs(mu));
            let p4c = young_daly_period(Duration::from_secs(4.0 * c), Duration::from_secs(mu));
            let p4mu = young_daly_period(Duration::from_secs(c), Duration::from_secs(4.0 * mu));
            prop_assert!((p4c.as_secs() / p.as_secs() - 2.0).abs() < 1e-9);
            prop_assert!((p4mu.as_secs() / p.as_secs() - 2.0).abs() < 1e-9);
        }
    }
}
