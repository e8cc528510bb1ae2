//! Ablation: the interference model (paper footnote 2).
//!
//! The paper assumes a *linear* model — constant global throughput shared
//! proportionally to job size — and notes a "more adversarial interference
//! model can be substituted". This ablation quantifies how the strategy
//! ranking responds when contention carries a real cost
//! ([`DegradedShare`](coopckpt_io::DegradedShare), global throughput
//! `∝ k^(−α)`) or when the file system ignores job size
//! ([`EqualShare`](coopckpt_io::EqualShare)).
//!
//! Expectation: token-based strategies (Ordered*, Least-Waste) are immune —
//! they keep a single stream active — while Oblivious degrades further,
//! widening the cooperative advantage.
//!
//! Each variant is the shared base [`Scenario`] with only its interference
//! mode swapped, and results flow through the same [`Report`] writers as
//! the CLI (`--csv <path>` / `--json <path>`).
//!
//! ```sh
//! cargo run --release -p coopckpt-bench --bin ablation_interference [-- --json out.json]
//! ```

use coopckpt::prelude::*;
use coopckpt::sim::InterferenceKind;
use coopckpt_bench::{banner, cielo_scenario, emit_report, or_exit, BenchScale};

fn main() {
    let scale = BenchScale::from_env();
    banner(
        "Ablation: interference model (Cielo, 40 GB/s, node MTBF 2 y)",
        &scale,
    );

    let base = cielo_scenario(40.0, &scale).with_name("ablation-interference");
    let models = [
        InterferenceKind::Linear,
        InterferenceKind::Degraded(0.2),
        InterferenceKind::Degraded(0.5),
        InterferenceKind::Equal,
    ];

    let mut report = Report::new("ablation_interference", Some(base.clone()));
    report
        .note("waste ratio; token-based strategies serialize I/O and are insensitive to the model");
    let table = report.section(
        "waste_by_model",
        ["strategy".to_string()]
            .into_iter()
            .chain(models.iter().map(InterferenceKind::spec_name)),
    );
    for strategy in Strategy::all_seven() {
        let mut cells = vec![Cell::text(strategy.name())];
        for kind in &models {
            let sc = base
                .clone()
                .with_strategy(strategy)
                .with_interference(*kind);
            let config = or_exit(sc.into_config());
            cells.push(Cell::f4(run_many(&config, &sc.mc()).mean()));
        }
        table.row(cells);
    }
    emit_report(&report);
}
