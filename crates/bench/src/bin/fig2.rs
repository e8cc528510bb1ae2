//! Figure 2 of the paper: waste ratio as a function of node MTBF
//! (2 → 50 years) at a fixed, scarce 40 GB/s of aggregate bandwidth;
//! LANL APEX workload on Cielo.
//!
//! ```sh
//! COOPCKPT_SAMPLES=1000 cargo run --release -p coopckpt-bench --bin fig2 [-- --csv fig2.csv]
//! ```

use coopckpt::experiments::run_scenario;
use coopckpt::prelude::*;
use coopckpt_bench::{banner, cielo_scenario, emit, or_exit, sweep_table, BenchScale};

fn main() {
    let scale = BenchScale::from_env();
    banner(
        "Figure 2: waste ratio vs node MTBF (Cielo, 40 GB/s)",
        &scale,
    );

    let mut scenario = cielo_scenario(40.0, &scale);
    let mtbf_years = vec![2.0, 4.0, 7.0, 10.0, 20.0, 35.0, 50.0];
    scenario.sweep = Some(Sweep::new("mtbf", Some(mtbf_years)).expect("valid sweep"));
    let report = or_exit(run_scenario(&scenario));
    emit(&sweep_table("node_mtbf_years", &report));
}
