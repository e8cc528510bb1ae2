//! Figure 1 of the paper: waste ratio as a function of the aggregate
//! system bandwidth (40 → 160 GB/s) for the seven strategies and the
//! theoretical lower bound; LANL APEX workload on Cielo, 2-year node MTBF.
//!
//! ```sh
//! COOPCKPT_SAMPLES=1000 cargo run --release -p coopckpt-bench --bin fig1 [-- --csv fig1.csv]
//! ```

use coopckpt::experiments::run_scenario;
use coopckpt::prelude::*;
use coopckpt_bench::{banner, emit, or_exit, sweep_table, BenchScale};

fn main() {
    let scale = BenchScale::from_env();
    banner(
        "Figure 1: waste ratio vs system bandwidth (Cielo, node MTBF 2 y)",
        &scale,
    );

    // The Cielo preset (node MTBF = 2 years), its bandwidth swept.
    let mut scenario = scale.apply(Scenario::default());
    let bandwidths = vec![40.0, 60.0, 80.0, 100.0, 120.0, 140.0, 160.0];
    scenario.sweep = Some(Sweep::new("bandwidth", Some(bandwidths)).expect("valid sweep"));
    let report = or_exit(run_scenario(&scenario));
    emit(&sweep_table("bandwidth_gbps", &report));
}
