//! Ablation: the time-vs-energy checkpoint trade-off (Aupy et al.,
//! *Optimal Checkpointing Period: Time vs. Energy*).
//!
//! Sweeps the checkpoint/compute power ratio `ρ_ckpt / ρ_comp` at the
//! scarce-bandwidth Cielo operating point and reports the **energy** waste
//! ratio per strategy — the only sweep whose metric is energy, not time.
//! The base power model is the Cielo preset; each point rescales the
//! checkpoint and recovery draws.
//!
//! The whole experiment is one declarative [`Scenario`] with a
//! `power-ratio` sweep axis, executed by the same `run_scenario` front
//! door as the CLI — the equivalent file is
//! `{"platform": {"preset": "cielo", "bandwidth_gbps": 40}, "power":
//! "cielo", "sweep": {"axis": "power-ratio"}}`.
//!
//! The run ends with the closed-form check behind the trade-off: the
//! energy-optimal period `P_E = P_Daly · √(ρ_ckpt/ρ_comp)` falls below
//! the Young/Daly period when checkpoint writes are energy-cheap and
//! stretches beyond it on I/O-heavy platforms.
//!
//! ```sh
//! cargo run --release -p coopckpt-bench --bin ablation_energy [-- --json out.json]
//! ```

use coopckpt::experiments::run_scenario;
use coopckpt::prelude::*;
use coopckpt_bench::{banner, cielo_scenario, emit_report, or_exit, sweep_mean, BenchScale};
use coopckpt_model::{daly_period_energy, young_daly_period};

fn main() {
    let scale = BenchScale::from_env();
    banner(
        "Ablation: time-vs-energy trade-off (Cielo, 40 GB/s, node MTBF 2 y)",
        &scale,
    );

    let mut scenario = cielo_scenario(40.0, &scale)
        .with_name("ablation-energy")
        .with_power(PowerModel::cielo());
    scenario.sweep =
        Some(Sweep::new("power-ratio", Some(vec![0.25, 0.5, 1.0, 2.0, 4.0])).expect("valid sweep"));
    let report = or_exit(run_scenario(&scenario));
    emit_report(&report);

    // The acceptance claim: at a fixed (time-optimal) period, pricier
    // checkpoint writes strictly raise the energy waste.
    let mean_of = |series: &str, x: f64| sweep_mean(&report, series, x);
    let cheap = mean_of("Least-Waste", 0.25);
    let dear = mean_of("Least-Waste", 4.0);
    println!(
        "\nLeast-Waste energy waste: ratio 0.25 {cheap:.4} -> ratio 4 {dear:.4} ({})",
        if dear > cheap {
            "I/O draw dominates the energy bill"
        } else {
            "NO INCREASE — unexpected at this operating point"
        }
    );

    // The closed form behind the sweep: how far the energy-optimal period
    // strays from Young/Daly at each power ratio (EAP-like class: 8 TB
    // checkpoint at 40 GB/s on 4096 of 17888 two-year-MTBF nodes).
    let c = Duration::from_secs(200.0);
    let mu = coopckpt_workload::cielo().job_mtbf(4096);
    let p_daly = young_daly_period(c, mu);
    println!("\nclosed form (C = {c}, job MTBF = {mu}):");
    println!("  P_Daly (time-optimal) = {p_daly}");
    for ratio in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let p_e = daly_period_energy(c, mu, 220.0 * ratio, 220.0);
        println!(
            "  ratio {ratio:>4}: P_E = {p_e} ({:.2}x P_Daly)",
            p_e.as_secs() / p_daly.as_secs()
        );
    }
}
