//! Sweep semantics: a sweep is a one-axis grid crossed with the strategy
//! roster, so every row it reports is a plain `run` at one operating point.
//!
//! * **Row = run** — on every sweep axis, each non-bound row equals the
//!   candlestick of the axis's metric over `run_all` at that row's
//!   operating point, compiled straight from the scenario. (This pins the
//!   bandwidth axis re-sizing geometric tiers per point, exactly as
//!   `run --bandwidth x --tiers k` does.)
//! * **Shared work** — sweep points are fetched through the caller's
//!   operating-point cache: a second identical sweep simulates nothing.
//! * **One axis system** — suite grids take every sweep axis under its
//!   grid key, with the same domains and the same setters.

use coopckpt::experiments::{local_failure_mix, run_scenario_with_cache};
use coopckpt::prelude::*;
use coopckpt::report::candlestick_cells;
use coopckpt::sim::FailureModel;
use std::path::PathBuf;

/// The 3-tier Cielo stack at 40 GB/s: a 1-day span, two samples.
const BASE: &str = r#""platform": {"preset": "cielo", "bandwidth_gbps": 40},
    "tiers": 3, "span_days": 1, "samples": 2, "seed": 3"#;

fn base() -> Scenario {
    Scenario::parse(&format!("{{{BASE}}}")).expect("base parses")
}

fn sweep(axis: &str, values: &[f64]) -> Scenario {
    Scenario::parse(&format!(
        r#"{{{BASE}, "sweep": {{"axis": "{axis}", "values": {values:?}}}}}"#
    ))
    .expect("sweep scenario parses")
}

/// The operating point a sweep row stands for, built independently of the
/// sweep machinery: the axis value applied to the scenario by hand.
fn point(axis: &str, sc: Scenario, x: f64) -> Scenario {
    match axis {
        "bandwidth" => sc.with_bandwidth_gbps(x),
        "mtbf" => sc.with_mtbf_years(x),
        "tiers" => sc.with_tier_depth(x as usize),
        "weibull-shape" => sc.with_failures(FailureModel::Weibull(x)),
        "power-ratio" => {
            let base = PowerModel::cielo();
            sc.with_power(PowerModel {
                ckpt_w: base.compute_w * x,
                recovery_w: base.compute_w * x,
                ..base
            })
        }
        "local-failure-share" => sc.with_failure_classes(local_failure_mix(x)),
        "ckpt-mem-fraction" => {
            let platform = sc.resolve_platform().expect("platform resolves");
            let classes = sc
                .resolve_classes(&platform)
                .expect("classes resolve")
                .into_iter()
                .map(|c| AppClass {
                    ckpt_bytes: Bytes::new(platform.mem_per_node.as_bytes() * c.q_nodes as f64 * x),
                    ..c
                })
                .collect();
            let mut sc = sc;
            sc.workload = WorkloadSource::Custom(classes);
            sc
        }
        other => panic!("no point builder for axis {other}"),
    }
}

#[test]
fn every_sweep_row_equals_run_at_its_operating_point() {
    let mut roster = Strategy::all_seven().to_vec();
    roster.push(Strategy::tiered(CheckpointPolicy::Daly));
    let mut mismatches = Vec::new();
    for (axis, values) in [
        ("bandwidth", [20.0, 80.0]),
        ("mtbf", [2.0, 10.0]),
        ("tiers", [1.0, 2.0]),
        ("weibull-shape", [0.7, 1.5]),
        ("power-ratio", [0.5, 2.0]),
        ("local-failure-share", [0.3, 0.9]),
        ("ckpt-mem-fraction", [0.1, 0.5]),
    ] {
        let sc = sweep(axis, &values);
        let report = run_scenario_with_cache(&sc, &OpPointCache::new()).expect("sweep runs");
        let rows = &report.sections[0].rows;
        assert!(!rows.is_empty(), "{axis}: empty sweep");
        for row in rows {
            let (Cell::Float { value: x, .. }, Cell::Text(series)) = (&row[0], &row[1]) else {
                panic!("{axis}: malformed row {row:?}");
            };
            if series == "Theoretical Model" {
                continue;
            }
            let strategy = *roster
                .iter()
                .find(|s| s.name() == *series)
                .unwrap_or_else(|| panic!("{axis}: unknown series {series}"));
            let at = point(axis, base().with_strategy(strategy), *x);
            let config = at.into_config().expect("point compiles");
            let metric: Vec<f64> = run_all(&config, &at.mc())
                .iter()
                .map(|r| match axis {
                    "power-ratio" => r.energy.as_ref().expect("metered").energy_waste_ratio,
                    _ => r.waste_ratio,
                })
                .collect();
            let expected: Vec<Cell> =
                candlestick_cells(&Candlestick::from_samples(&metric)).collect();
            if row[2..] != expected[..] {
                mismatches.push(format!("{axis} x={x} {series}: {row:?} vs {expected:?}"));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "sweep rows differ from run at their operating points:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn sweeps_share_work_through_the_operating_point_cache() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("scenarios/apex_workload.json");
    let sc = Scenario::load(path).expect("preset loads");
    let cache = OpPointCache::new();
    let first = run_scenario_with_cache(&sc, &cache).expect("sweep runs");
    // Two bandwidths × the seven strategies, each simulated once...
    assert_eq!(cache.len(), 14);
    // ...and served from the cache on a rerun.
    let second = run_scenario_with_cache(&sc, &cache).expect("sweep reruns");
    assert_eq!(cache.len(), 14);
    assert_eq!(first, second);
}

#[test]
fn suite_grids_take_every_sweep_axis() {
    let suite = Suite::parse(
        r#"{
            "name": "g",
            "base": {"span_days": 1, "samples": 1},
            "grid": {"weibull_shape": [0.7], "power_ratio": [2], "ckpt_mem_fraction": [0.5]}
        }"#,
    )
    .expect("suite parses");
    let points = suite.expand().expect("grid expands");
    // Each axis set in document order, exactly as a sweep sets it.
    let base = Scenario::parse(r#"{"span_days": 1, "samples": 1}"#).expect("base parses");
    let weibull = point("weibull-shape", base, 0.7);
    let expected = point("ckpt-mem-fraction", point("power-ratio", weibull, 2.0), 0.5);
    assert_eq!(
        points,
        [expected.with_name("g/weibull_shape=0.7/power_ratio=2/ckpt_mem_fraction=0.5")]
    );
    // A setter's own error is a typed error naming the grid axis.
    let e = Suite::parse(
        r#"{"base": {"workload": {"trace": "synthetic:jobs=20,seed=1"}},
            "grid": {"ckpt_mem_fraction": [0.5]}}"#,
    )
    .expect("suite parses")
    .expand()
    .unwrap_err()
    .to_string();
    assert!(
        e.contains("grid.ckpt_mem_fraction") && e.contains("trace"),
        "{e}"
    );
}
