//! The paper's core comparison in miniature: all seven strategies on the
//! APEX/Cielo workload at one operating point, with candlestick statistics
//! over a set of Monte-Carlo instances — a one-value bandwidth sweep.
//!
//! Run with (sample count and bandwidth tunable):
//!
//! ```sh
//! cargo run --release --example apex_cielo -- [samples] [bandwidth_gbps]
//! ```

use coopckpt::experiments::run_scenario;
use coopckpt::prelude::*;
use coopckpt_stats::Table;

fn main() {
    let mut args = std::env::args().skip(1);
    let samples: usize = args
        .next()
        .map(|s| s.parse().expect("samples must be an integer"))
        .unwrap_or(10);
    let gbps: f64 = args
        .next()
        .map(|s| s.parse().expect("bandwidth must be a number"))
        .unwrap_or(40.0);

    // The Cielo preset with its 14-day default span; the sweep's one
    // value sets the bandwidth, and its rows are the seven strategies
    // plus the Theorem 1 bound.
    let mut scenario = Scenario::default().with_sampling(samples, 1);
    scenario.sweep = Some(Sweep::new("bandwidth", Some(vec![gbps])).expect("valid bandwidth"));
    let platform = coopckpt_workload::cielo().with_bandwidth(Bandwidth::from_gbps(gbps));
    println!(
        "APEX on {} at {} — {} instances per strategy, 14-day span\n",
        platform.name, platform.pfs_bandwidth, samples
    );

    let report = run_scenario(&scenario).expect("valid scenario");
    let mut table = Table::new(["strategy", "mean", "d1", "q1", "q3", "d9"]);
    for row in &report.sections[0].rows {
        // Sweep columns: bandwidth, series, mean, d1, q1, median, q3, d9, n.
        table.row([1, 2, 3, 4, 6, 7].map(|i| match &row[i] {
            Cell::Float { value, .. } => format!("{value:.3}"),
            other => other.display(),
        }));
    }

    print!("{}", table.to_text());
    println!("\n(waste ratio; lower is better — compare with the paper's Figure 1/2)");
}
