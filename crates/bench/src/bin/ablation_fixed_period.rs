//! Ablation: the fixed checkpoint period.
//!
//! The paper's `Fixed` variants use the common "once per hour" heuristic.
//! This ablation sweeps the period (0.5 h – 4 h) under both a blocking
//! (Oblivious) and a non-blocking (Ordered-NB) discipline, bracketing them
//! with the Daly policy, to show (a) how wrong the hourly heuristic is at
//! scarce bandwidth, and (b) how the non-blocking discipline flattens the
//! penalty (Figure 2's "Ordered-NB-Fixed performs comparably" observation).
//!
//! Each variant is the shared base [`Scenario`] with only its strategy
//! swapped, and results flow through the same [`Report`] writers as the
//! CLI (`--csv <path>` / `--json <path>`).
//!
//! ```sh
//! cargo run --release -p coopckpt-bench --bin ablation_fixed_period [-- --json out.json]
//! ```

use coopckpt::prelude::*;
use coopckpt_bench::{banner, cielo_scenario, emit_report, or_exit, BenchScale};

fn main() {
    let scale = BenchScale::from_env();
    banner(
        "Ablation: fixed checkpoint period (Cielo, 40 GB/s, node MTBF 2 y)",
        &scale,
    );

    let base = cielo_scenario(40.0, &scale).with_name("ablation-fixed-period");
    let policies: Vec<(String, CheckpointPolicy)> = [0.5, 1.0, 2.0, 4.0]
        .iter()
        .map(|&h| {
            (
                format!("fixed {h}h"),
                CheckpointPolicy::Fixed(Duration::from_hours(h)),
            )
        })
        .chain(std::iter::once((
            "daly".to_string(),
            CheckpointPolicy::Daly,
        )))
        .collect();

    let mut report = Report::new("ablation_fixed_period", Some(base.clone()));
    report.note("waste ratio; the Daly row is the adaptive reference");
    let table = report.section("waste_by_period", ["period", "Oblivious", "Ordered-NB"]);
    for (label, policy) in &policies {
        let mut cells = vec![Cell::text(label.clone())];
        for strategy in [Strategy::oblivious(*policy), Strategy::ordered_nb(*policy)] {
            let sc = base.clone().with_strategy(strategy);
            let config = or_exit(sc.into_config());
            cells.push(Cell::f4(run_many(&config, &sc.mc()).mean()));
        }
        table.row(cells);
    }
    emit_report(&report);
}
