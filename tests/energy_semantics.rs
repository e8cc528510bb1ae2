//! Energy-accounting semantics: the simulator's measured energy must obey
//! conservation, degenerate to the time-domain accounting when the power
//! differential vanishes, bracket the Aupy et al. closed form in steady
//! state (same tolerances `theory_vs_sim.rs` applies to time waste), and
//! reproduce the headline time-vs-energy result — on an I/O-heavy
//! platform the energy-optimal checkpoint period strictly exceeds the
//! time-optimal Young/Daly period.

mod common;

use common::{
    steady_classes, steady_platform, BOUND_LOWER_FRAC, BOUND_UPPER_FACTOR, BOUND_UPPER_SLACK,
    STEADY_SAMPLES, STEADY_SPAN_DAYS,
};
use coopckpt::prelude::*;
use coopckpt_energy::EnergyMeter;
use coopckpt_model::{daly_period_energy, steady_state_energy_waste, young_daly_period};
// No glob import: `proptest::prelude::*` would pull in the `Strategy`
// strategy trait, shadowing the paper's `Strategy` type.
use proptest::{prop_assert, prop_assert_eq, proptest};

/// Mean simulated `(waste_ratio, energy_waste_ratio)` over a small
/// Monte-Carlo set of `config` (one set of instances, both metrics).
fn mean_ratios(config: &SimConfig, samples: usize) -> (f64, f64) {
    let results = run_all(config, &MonteCarloConfig::new(samples));
    let n = results.len() as f64;
    let time = results.iter().map(|r| r.waste_ratio).sum::<f64>() / n;
    let energy = results
        .iter()
        .map(|r| {
            r.energy
                .as_ref()
                .expect("power model configured")
                .energy_waste_ratio
        })
        .sum::<f64>()
        / n;
    (time, energy)
}

proptest! {
    /// Conservation: however the meter is fed, the per-phase energies sum
    /// to `total_power_integral` exactly (same additions, same order),
    /// and the independently accumulated running total agrees to
    /// floating-point association noise.
    #[test]
    fn per_phase_energies_sum_to_total_power_integral(
        intervals in proptest::collection::vec(
            (0usize..7, 1usize..64, 0.0f64..1000.0, 0.0f64..200.0),
            1..60,
        ),
        nodes in 1usize..512,
    ) {
        let job_phases = [
            Phase::Compute,
            Phase::RegularIo,
            Phase::CkptWrite,
            Phase::Blocked,
            Phase::Dilation,
            Phase::Recovery,
            Phase::Rework,
        ];
        let mut meter = EnergyMeter::new(
            Time::from_secs(50.0),
            Time::from_secs(900.0),
            PowerModel::prospective(),
            3,
        );
        for (i, &(phase, q, t0, dt)) in intervals.iter().enumerate() {
            meter.record(
                i as u64,
                job_phases[phase],
                q,
                Time::from_secs(t0),
                Time::from_secs(t0 + dt),
            );
        }
        meter.mark_pfs_busy(Duration::from_secs(10.0), false);
        meter.mark_pfs_busy(Duration::from_secs(300.0), true);
        meter.mark_tier_active(40.0, false);
        meter.mark_tier_active(90.0, true);
        meter.finalize(nodes);

        let breakdown_sum: f64 = meter.breakdown().iter().map(|(_, j)| j).sum();
        prop_assert_eq!(breakdown_sum, meter.total_power_integral());
        let total = meter.total_power_integral();
        prop_assert!(
            (meter.running_total() - total).abs() <= 1e-9 * total.max(1.0),
            "running total {} drifted from phase sum {}",
            meter.running_total(),
            total
        );
        // The three report aggregates partition the same total.
        let parts = meter.useful_joules() + meter.wasted_joules()
            + meter.platform_overhead_joules();
        prop_assert!((parts - total).abs() <= 1e-9 * total.max(1.0));
    }
}

#[test]
fn zero_power_differential_recovers_the_time_domain() {
    // Closed form: the energy-optimal period IS the Young/Daly period.
    let c = Duration::from_secs(180.0);
    let mu = Duration::from_hours(6.0);
    assert_eq!(
        daly_period_energy(c, mu, 220.0, 220.0),
        young_daly_period(c, mu)
    );
    // And the closed-form energy waste is the Eq. (3) time waste.
    let p = Duration::from_secs(2000.0);
    let w_t = coopckpt_model::steady_state_waste(c, c, p, mu);
    let w_e = steady_state_energy_waste(c, c, p, mu, 220.0, 220.0, 220.0);
    assert!((w_t - w_e).abs() < 1e-12);

    // Simulated: a uniform power model makes the measured energy waste
    // ratio coincide with the measured time waste ratio.
    let platform = steady_platform(20.0, 3.0);
    let config = SimConfig::new(
        platform.clone(),
        steady_classes(&platform),
        Strategy::least_waste(),
    )
    .with_span(Duration::from_days(3.0))
    .with_power(PowerModel::uniform(220.0));
    let (time, energy) = mean_ratios(&config, 2);
    assert!(
        (time - energy).abs() < 1e-9,
        "uniform power: energy ratio {energy} != time ratio {time}"
    );
}

#[test]
fn simulated_energy_brackets_the_aupy_closed_form() {
    // The steady operating point of `theory_vs_sim.rs` under the
    // I/O-heavy prospective power model: the simulated steady-state
    // energy waste must bracket the Aupy et al. closed form within the
    // same tolerances the time-domain suite uses for Theorem 1.
    let power = PowerModel::prospective();
    let platform = steady_platform(20.0, 3.0);
    let classes = steady_classes(&platform);

    // Closed form, weighted by the classes' resource shares: each class
    // checkpoints at its Young/Daly period (the simulator's Daly policy),
    // so the energy waste is Eq. (3) with each term priced at its phase's
    // draw (recovery reads the checkpoint back: R = C).
    let mut predicted = 0.0;
    let mut share_sum = 0.0;
    for class in &classes {
        let c = class.ckpt_bytes.transfer_time(platform.pfs_bandwidth);
        let mu = platform.job_mtbf(class.q_nodes);
        let p = young_daly_period(c, mu);
        predicted += class.resource_share
            * steady_state_energy_waste(
                c,
                c,
                p,
                mu,
                power.ckpt_w,
                power.compute_w,
                power.recovery_w,
            );
        share_sum += class.resource_share;
    }
    predicted /= share_sum;
    assert!(
        predicted > 0.0 && predicted < 1.0,
        "premise: meaningful closed form, got {predicted}"
    );

    for strategy in [
        Strategy::ordered_nb(CheckpointPolicy::Daly),
        Strategy::least_waste(),
    ] {
        let config = SimConfig::new(platform.clone(), classes.clone(), strategy)
            .with_span(Duration::from_days(STEADY_SPAN_DAYS))
            .with_power(power);
        let (_, energy) = mean_ratios(&config, STEADY_SAMPLES);
        assert!(
            energy > predicted * BOUND_LOWER_FRAC,
            "{}: simulated energy waste {energy} sits far below the closed form {predicted}",
            strategy.name()
        );
        assert!(
            energy < predicted * BOUND_UPPER_FACTOR + BOUND_UPPER_SLACK,
            "{}: simulated energy waste {energy} fails to track the closed form {predicted}",
            strategy.name()
        );
    }
}

#[test]
fn energy_optimal_period_exceeds_time_optimal_on_io_heavy_platforms() {
    // The acceptance scenario: Cielo under an Exascale-projection power
    // model whose checkpoint-write draw exceeds the compute draw while
    // idle draw sits below it.
    let scenario = Scenario::load(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/energy_tradeoff.json"
    ))
    .expect("checked-in scenario loads");
    let power = scenario.power.expect("scenario carries a power block");
    assert!(
        power.idle_w < power.compute_w,
        "premise: idle draw below compute draw"
    );
    assert!(
        power.ckpt_w > power.compute_w,
        "premise: I/O-heavy platform (checkpoint draw above compute draw)"
    );

    let config = scenario.into_config().unwrap();
    let class = &config.classes[0];
    let c = class
        .ckpt_bytes
        .transfer_time(config.platform.pfs_bandwidth);
    let mu = config.platform.job_mtbf(class.q_nodes);
    let p_time = young_daly_period(c, mu);
    let p_energy = daly_period_energy(c, mu, power.ckpt_w, power.compute_w);
    assert!(
        p_energy.as_secs() > p_time.as_secs() * 1.05,
        "closed form: energy-optimal period {p_energy} must strictly exceed \
         the time-optimal {p_time}"
    );

    // Sweep the checkpoint period across the two optima in simulation
    // (same seeds per point, so the comparison uses common random
    // numbers): moving from the time-optimal to the energy-optimal period
    // must strictly cut energy waste while strictly raising time waste —
    // i.e. the simulated energy optimum sits above the time optimum.
    let at_period = |p: Duration| -> (f64, f64) {
        let cfg = SimConfig {
            strategy: Strategy::ordered_nb(CheckpointPolicy::Fixed(p)),
            ..config.clone()
        };
        mean_ratios(&cfg, scenario.samples)
    };
    let (time_at_pt, energy_at_pt) = at_period(p_time);
    let (time_at_pe, energy_at_pe) = at_period(p_energy);
    assert!(
        energy_at_pe < energy_at_pt,
        "stretching the period from P_Daly to P_E must cut energy waste \
         ({energy_at_pt} -> {energy_at_pe})"
    );
    assert!(
        time_at_pe > time_at_pt,
        "stretching the period past P_Daly must cost time waste \
         ({time_at_pt} -> {time_at_pe})"
    );
}
