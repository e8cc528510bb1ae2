//! Figure 3 of the paper: the minimum aggregate file-system bandwidth each
//! strategy needs to sustain 80 % platform efficiency on the prospective
//! 7 PB / 50,000-node system, as the node MTBF varies (5 → 25 years).
//!
//! This is the most expensive figure (a bandwidth bisection per strategy
//! per MTBF point); scale it down with `COOPCKPT_SAMPLES` /
//! `COOPCKPT_SPAN_DAYS` and fewer bisection steps via
//! `COOPCKPT_BISECT_ITERS` (default 7).
//!
//! ```sh
//! COOPCKPT_SAMPLES=20 COOPCKPT_SPAN_DAYS=20 \
//!   cargo run --release -p coopckpt-bench --bin fig3 [-- --csv fig3.csv]
//! ```

use coopckpt::experiments::{min_bandwidth_for_efficiency, theory_min_bandwidth};
use coopckpt::prelude::*;
use coopckpt_bench::{banner, bisect_iters, emit, env_var, or_exit, BenchScale};
use coopckpt_stats::Table;

fn main() {
    let scale = BenchScale::from_env();
    let iters = or_exit(bisect_iters(env_var));
    banner(
        "Figure 3: min bandwidth for 80% efficiency vs node MTBF (prospective system)",
        &scale,
    );

    let target = 0.80;
    let (lo, hi) = (200.0, 200_000.0); // GB/s search bracket
    let mtbf_years = [5.0, 10.0, 15.0, 20.0, 25.0];
    let base = scale.apply(Scenario {
        platform: PlatformSpec::Preset {
            name: "prospective".to_string(),
            bandwidth: None,
            node_mtbf: None,
        },
        ..Scenario::default()
    });

    let mut t = Table::new(["node_mtbf_years", "series", "min_bandwidth_tbps"]);
    for &years in &mtbf_years {
        let template = or_exit(base.clone().with_mtbf_years(years).into_config());
        for strategy in Strategy::all_seven() {
            let found = min_bandwidth_for_efficiency(
                &template,
                strategy,
                target,
                lo,
                hi,
                iters,
                &scale.mc(),
            );
            t.row([
                format!("{years}"),
                strategy.name(),
                match found {
                    Some(gbps) => format!("{:.2}", gbps / 1000.0),
                    None => format!("> {:.0}", hi / 1000.0),
                },
            ]);
        }
        let theory = theory_min_bandwidth(&template.platform, &template.classes, target, lo, hi);
        t.row([
            format!("{years}"),
            "Theoretical Model".to_string(),
            match theory {
                Some(gbps) => format!("{:.2}", gbps / 1000.0),
                None => format!("> {:.0}", hi / 1000.0),
            },
        ]);
    }
    emit(&t);
}
