//! Ablation: multi-level recovery under per-level failure classes.
//!
//! Sweeps the share of failures that are *node-local* (severity 1: the
//! victim's node-local checkpoint copy dies with it, shared tiers
//! survive) rather than system-wide, on a 3-tier Cielo stack at scarce
//! 40 GB/s. The platform failure *rate* is identical at every point —
//! only the recovery source moves: local failures read the checkpoint
//! back from the shallowest surviving tier, token-free, instead of
//! re-reading it through the contended PFS. The waste ratio falls as the
//! local share grows; `x = 0` is the paper's single-class model.
//!
//! The whole experiment is one declarative [`Scenario`] with a
//! `local-failure-share` sweep axis, executed by the same `run_scenario`
//! front door as the CLI — the equivalent file is
//! `{"platform": {"preset": "cielo", "bandwidth_gbps": 40}, "tiers": 3,
//! "sweep": {"axis": "local-failure-share"}}`.
//!
//! The run ends with the closed forms behind the sweep: per-class restore
//! costs on the tier stack, the expected restore cost of the class mix,
//! and the Eq. (3) steady-state waste with the mixed recovery term.
//!
//! ```sh
//! cargo run --release -p coopckpt-bench --bin ablation_recovery [-- --json out.json]
//! ```

use coopckpt::experiments::run_scenario;
use coopckpt::prelude::*;
use coopckpt_bench::{banner, cielo_scenario, emit_report, or_exit, sweep_mean, BenchScale};
use coopckpt_model::{
    class_restore_costs, expected_restore_cost, steady_state_waste_mix, young_daly_period,
};

fn main() {
    let scale = BenchScale::from_env();
    banner(
        "Ablation: multi-level recovery (Cielo, 40 GB/s, 3 tiers, node MTBF 2 y)",
        &scale,
    );

    let mut scenario = cielo_scenario(40.0, &scale)
        .with_name("ablation-recovery")
        .with_tier_depth(3);
    scenario.sweep = Some(
        Sweep::new("local-failure-share", Some(vec![0.0, 0.25, 0.5, 0.75, 0.9]))
            .expect("valid sweep"),
    );
    let report = or_exit(run_scenario(&scenario));
    emit_report(&report);

    // The acceptance claim: shifting failures from system severity to
    // node-local severity (same total rate) strictly cuts the waste.
    let mean_of = |series: &str, x: f64| sweep_mean(&report, series, x);
    let all_system = mean_of("Tiered-Daly", 0.0);
    let mostly_local = mean_of("Tiered-Daly", 0.9);
    println!(
        "\nTiered-Daly waste: local share 0 {all_system:.4} -> share 0.9 {mostly_local:.4} ({})",
        if mostly_local < all_system {
            "shallow restores cut the recovery bill"
        } else {
            "NO DECREASE — unexpected at this operating point"
        }
    );

    // The closed forms behind the sweep, on the EAP-like operating point
    // (8 TB checkpoint, 4096 of 17888 two-year-MTBF nodes): per-class
    // restore costs on the geometric 3-tier stack, and Eq. (3) with the
    // mixed recovery term at the Young/Daly period.
    let platform = coopckpt_workload::cielo().with_bandwidth(Bandwidth::from_gbps(40.0));
    let tiers = geometric_tiers(&platform, 3);
    let volume = Bytes::from_tb(8.0);
    let q = 4096.0;
    let level_bws: Vec<Bandwidth> = tiers
        .iter()
        .map(|t| {
            if t.per_writer_node {
                t.write_bw * q
            } else {
                t.write_bw
            }
        })
        .collect();
    let severities = [1usize, usize::MAX];
    let costs = class_restore_costs(volume, &level_bws, platform.pfs_bandwidth, &severities);
    let c = volume.transfer_time(platform.pfs_bandwidth);
    let mu = platform.job_mtbf(4096);
    let p = young_daly_period(c, mu);
    println!("\nclosed form (C = {c}, job MTBF = {mu}, P_Daly = {p}):");
    println!(
        "  restore costs: local -> tier 1 {:.1} s, system -> PFS {:.1} s",
        costs[0].as_secs(),
        costs[1].as_secs()
    );
    for local in [0.0, 0.25, 0.5, 0.75, 0.9] {
        let shares = [local, 1.0 - local];
        let er = expected_restore_cost(&shares, &costs);
        let w = steady_state_waste_mix(c, p, mu, &shares, &costs);
        println!(
            "  local share {local:>4}: E[R] = {:>7.1} s, steady-state waste = {w:.4}",
            er.as_secs()
        );
    }
}
