//! Ablation: multi-level checkpoint storage hierarchies (paper Section 8).
//!
//! Generalizes `ablation_burst_buffer` from one tier to an N-deep stack
//! (node-local → burst buffer → campaign storage → PFS): checkpoints are
//! absorbed by the shallowest tier with space and drain tier-by-tier to
//! the PFS in the background; the job blocks only for the absorb, and
//! durability arrives when the final drain lands. The sweep measures the
//! waste ratio against hierarchy depth at the scarce-bandwidth operating
//! point of Figure 2, including the level-aware `Tiered` discipline that
//! skips the PFS token for absorbable checkpoints.
//!
//! The whole experiment is one declarative [`Scenario`] with a `tiers`
//! sweep axis, executed by the same [`run_scenario`] front door as the
//! CLI — the equivalent file is
//! `{"platform": {"preset": "cielo", "bandwidth_gbps": 40}, "sweep":
//! {"axis": "tiers", "values": [0, 1, 2, 3]}}`.
//!
//! The run ends by checking the headline claim: at equal PFS bandwidth, a
//! 3-tier hierarchy strictly reduces the blocking `Ordered-Daly` waste
//! relative to the PFS-only baseline.
//!
//! ```sh
//! cargo run --release -p coopckpt-bench --bin ablation_multilevel [-- --json out.json]
//! ```

use coopckpt::experiments::run_scenario;
use coopckpt::prelude::*;
use coopckpt_bench::{banner, cielo_scenario, emit_report, or_exit, sweep_mean, BenchScale};

fn main() {
    let scale = BenchScale::from_env();
    banner(
        "Ablation: multi-level storage hierarchy (Cielo, 40 GB/s, node MTBF 2 y)",
        &scale,
    );

    let mut scenario = cielo_scenario(40.0, &scale).with_name("ablation-multilevel");
    scenario.sweep =
        Some(Sweep::new("tiers", Some(vec![0.0, 1.0, 2.0, 3.0])).expect("valid sweep"));
    let report = or_exit(run_scenario(&scenario));
    emit_report(&report);

    // The acceptance claim: 3 tiers beat PFS-only for the blocking
    // discipline at equal PFS bandwidth.
    let mean_of = |series: &str, x: f64| sweep_mean(&report, series, x);
    let baseline = mean_of("Ordered-Daly", 0.0);
    let three = mean_of("Ordered-Daly", 3.0);
    println!(
        "\nOrdered-Daly waste: PFS-only {baseline:.4} -> 3 tiers {three:.4} ({})",
        if three < baseline {
            "hierarchy wins"
        } else {
            "NO IMPROVEMENT — unexpected at this operating point"
        }
    );
    println!("(inter-tier drains never touch the PFS; only the final drain contends)");
}
