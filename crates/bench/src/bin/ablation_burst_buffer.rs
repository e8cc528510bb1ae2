//! Ablation: the burst-buffer tier (paper Section 8, future work).
//!
//! The paper speculates that NVRAM burst buffers absorbing checkpoint
//! writes would "provide relief to the shared I/O subsystem". This
//! ablation adds a node-local buffer tier (absorb at `write_bw_per_node ×
//! q`, background drain to the PFS, durability on drain completion,
//! admission control on capacity) and measures the waste reduction at the
//! scarce-bandwidth operating point of Figure 2.
//!
//! Each variant is the shared base [`Scenario`] with only its `tiers`
//! swapped for a one-tier node-local stack, and results flow through the
//! same [`Report`] writers as the CLI (`--csv <path>` / `--json <path>`).
//!
//! ```sh
//! cargo run --release -p coopckpt-bench --bin ablation_burst_buffer [-- --json out.json]
//! ```

use coopckpt::prelude::*;
use coopckpt_bench::{banner, cielo_scenario, emit_report, or_exit, BenchScale};

fn main() {
    let scale = BenchScale::from_env();
    banner(
        "Ablation: burst-buffer tier (Cielo, 40 GB/s, node MTBF 2 y)",
        &scale,
    );

    let base = cielo_scenario(40.0, &scale).with_name("ablation-burst-buffer");
    let platform = base.resolve_platform().expect("cielo preset is valid");

    // Buffer variants: none; half the platform memory at 1 GB/s per node;
    // 2x platform memory at 4 GB/s per node (ample NVRAM).
    let buffer = |mem_factor: f64, gbps: f64| {
        TiersSpec::Explicit(vec![TierSpec::per_node(
            "burst-buffer",
            platform.total_memory() * mem_factor,
            Bandwidth::from_gbps(gbps),
        )])
    };
    let variants = [
        ("no burst buffer", TiersSpec::Geometric(0)),
        ("0.5x mem, 1 GB/s/node", buffer(0.5, 1.0)),
        ("2x mem, 4 GB/s/node", buffer(2.0, 4.0)),
    ];

    let mut report = Report::new("ablation_burst_buffer", Some(base.clone()));
    report.note(
        "waste ratio; the drain still contends on the PFS, so gains shrink when it saturates",
    );
    let table = report.section(
        "waste_by_buffer",
        ["strategy".to_string()]
            .into_iter()
            .chain(variants.iter().map(|(label, _)| label.to_string())),
    );
    for strategy in [
        Strategy::oblivious(CheckpointPolicy::Daly),
        Strategy::ordered(CheckpointPolicy::Daly),
        Strategy::ordered_nb(CheckpointPolicy::Daly),
        Strategy::least_waste(),
    ] {
        let mut cells = vec![Cell::text(strategy.name())];
        for (_, tiers) in &variants {
            let mut sc = base.clone().with_strategy(strategy);
            sc.tiers = tiers.clone();
            let config = or_exit(sc.into_config());
            cells.push(Cell::f4(run_many(&config, &sc.mc()).mean()));
        }
        table.row(cells);
    }
    emit_report(&report);
}
