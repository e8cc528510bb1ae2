//! Ablation: the failure law.
//!
//! The paper injects exponential failures; real systems show Weibull
//! behaviour with shape `k < 1` (infant mortality — the paper's related
//! work \[24\], \[41\]). This ablation mean-matches Weibull traces to the exponential
//! system MTBF and compares shapes `k ∈ {0.7, 1.0, 1.5}` (k = 1 *is* the
//! exponential).
//!
//! Expectation: burstier failures (k < 1) hurt every strategy somewhat,
//! but the cooperative ranking is preserved — the heuristic does not rely
//! on the memoryless property.
//!
//! Each variant is the shared base [`Scenario`] with only its failure law
//! swapped, and results flow through the same [`Report`] writers as the
//! CLI (`--csv <path>` / `--json <path>`).
//!
//! ```sh
//! cargo run --release -p coopckpt-bench --bin ablation_weibull [-- --json out.json]
//! ```

use coopckpt::prelude::*;
use coopckpt::sim::FailureModel;
use coopckpt_bench::{banner, cielo_scenario, emit_report, or_exit, BenchScale};

fn main() {
    let scale = BenchScale::from_env();
    banner(
        "Ablation: failure law (Cielo, 40 GB/s, node MTBF 2 y, mean-matched)",
        &scale,
    );

    let base = cielo_scenario(40.0, &scale).with_name("ablation-weibull");
    let laws = [
        FailureModel::Weibull(0.7),
        FailureModel::Exponential,
        FailureModel::Weibull(1.5),
    ];

    let mut report = Report::new("ablation_weibull", Some(base.clone()));
    report.note("waste ratio; k=1 equals the exponential law");
    let table = report.section(
        "waste_by_law",
        ["strategy".to_string()]
            .into_iter()
            .chain(laws.iter().map(FailureModel::spec_name)),
    );
    for strategy in Strategy::all_seven() {
        let mut cells = vec![Cell::text(strategy.name())];
        for law in &laws {
            let sc = base.clone().with_strategy(strategy).with_failures(*law);
            let config = or_exit(sc.into_config());
            cells.push(Cell::f4(run_many(&config, &sc.mc()).mean()));
        }
        table.row(cells);
    }
    emit_report(&report);
}
