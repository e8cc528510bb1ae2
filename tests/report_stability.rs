//! Report output stability: thread-count determinism and golden files.
//!
//! * **Determinism** — one scenario executed at `--threads 1`, `2` and
//!   `8` must produce bit-identical `Report` output: the Monte-Carlo pool
//!   orders results by seed and every random draw comes from per-seed
//!   (and, within a run, per-failure-class) RNG streams, so worker count
//!   can never leak into results.
//! * **Golden files** — the rendered text/CSV/JSON `Report` output of
//!   four checked-in `scenarios/` presets, plus one tiny sweep per sweep
//!   axis, is itself checked in under `tests/golden/` and compared byte
//!   for byte, so format drift (added columns, reordered sections,
//!   float-precision changes) and result drift are caught in review
//!   instead of silently shipped. The canonical JSON text and cache key
//!   of two scenarios that spell every scenario key are pinned the same
//!   way. After an *intentional* change, refresh with:
//!
//!   ```sh
//!   COOPCKPT_BLESS=1 cargo test --test report_stability
//!   ```

use coopckpt::experiments::run_scenario;
use coopckpt::json::Json;
use coopckpt::prelude::*;
use std::path::PathBuf;

fn preset_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join(format!("{name}.json"))
}

/// The report's JSON with the scenario echo dropped — the echo contains
/// the `threads` knob itself, which is exactly the field the determinism
/// test varies (it is documented not to affect results).
fn json_without_echo(report: &Report) -> String {
    match report.to_json() {
        Json::Obj(pairs) => {
            Json::Obj(pairs.into_iter().filter(|(k, _)| k != "scenario").collect()).pretty()
        }
        other => other.pretty(),
    }
}

#[test]
fn thread_count_never_changes_the_report() {
    let base = Scenario::load(preset_path("multilevel_recovery")).expect("preset loads");
    let render = |threads: usize| {
        let mut sc = base.clone();
        sc.threads = threads;
        let report = run_scenario(&sc).expect("preset runs");
        (
            report.to_text(),
            report.to_csv(),
            json_without_echo(&report),
        )
    };
    let single = render(1);
    for threads in [2, 8] {
        let multi = render(threads);
        assert_eq!(single.0, multi.0, "text differs at --threads {threads}");
        assert_eq!(single.1, multi.1, "CSV differs at --threads {threads}");
        assert_eq!(single.2, multi.2, "JSON differs at --threads {threads}");
    }
}

/// The campaign x Monte-Carlo matrix on the same preset: the report must
/// also be stable when the *campaign* pool owns the threads and workers
/// steal the point's sample chunks, at thread counts below, at, and above
/// the sample count's natural parallelism.
#[test]
fn campaign_pool_never_changes_the_report_either() {
    use coopckpt::campaign::{run_suite, CampaignOptions, Suite};
    use std::sync::Arc;

    let suite = Suite::load(preset_path("multilevel_recovery")).expect("preset loads");
    let render = |threads: usize| {
        let opts = CampaignOptions {
            threads,
            cache: None,
            op_cache: Some(Arc::new(OpPointCache::new())),
        };
        let campaign = run_suite(&suite, &opts).expect("preset runs as a one-point suite");
        (campaign.to_text(), campaign.to_csv())
    };
    let single = render(1);
    for threads in [2, 8] {
        let multi = render(threads);
        assert_eq!(single.0, multi.0, "text differs at --threads {threads}");
        assert_eq!(single.1, multi.1, "CSV differs at --threads {threads}");
    }
}

/// Compares (or, under `COOPCKPT_BLESS=1`, rewrites) one preset's
/// rendered report against its golden files.
fn check_golden(preset: &str) {
    let sc = Scenario::load(preset_path(preset)).expect("preset loads");
    check_report_golden(preset, &run_scenario(&sc).expect("preset runs"));
}

/// Compares (or blesses) `report` against `tests/golden/<name>.{txt,csv,json}`.
fn check_report_golden(name: &str, report: &Report) {
    check_golden_files(
        name,
        [
            ("txt", report.to_text()),
            ("csv", report.to_csv()),
            ("json", report.to_json().pretty() + "\n"),
        ],
    );
}

/// Compares (or, under `COOPCKPT_BLESS=1`, rewrites) each rendering
/// against `tests/golden/<name>.<ext>`.
fn check_golden_files<const N: usize>(name: &str, renderings: [(&str, String); N]) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let bless = std::env::var("COOPCKPT_BLESS").is_ok_and(|v| !v.is_empty() && v != "0");
    for (ext, rendered) in renderings {
        let path = dir.join(format!("{name}.{ext}"));
        if bless {
            std::fs::create_dir_all(&dir).expect("golden dir");
            std::fs::write(&path, &rendered).expect("write golden");
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "cannot read golden file {} ({e}); run COOPCKPT_BLESS=1 \
                 cargo test --test report_stability to create it",
                path.display()
            )
        });
        assert_eq!(
            rendered, expected,
            "{name}.{ext} drifted from its golden file — if the format \
             change is intentional, re-bless with COOPCKPT_BLESS=1"
        );
    }
}

/// A tiny sweep on the 3-tier Cielo stack at 40 GB/s: 1-day span, two
/// samples, two swept values. Pinned as `tests/golden/sweep_<axis>.*`.
fn check_tiny_sweep_golden(axis: &str, values: &str) {
    let sc = Scenario::parse(&format!(
        r#"{{
            "name": "sweep-{axis}",
            "platform": {{"preset": "cielo", "bandwidth_gbps": 40}},
            "tiers": 3,
            "span_days": 1,
            "samples": 2,
            "seed": 1,
            "sweep": {{"axis": "{axis}", "values": [{values}]}}
        }}"#
    ))
    .expect("sweep scenario parses");
    let report = run_scenario(&sc).expect("sweep runs");
    check_report_golden(&format!("sweep_{}", axis.replace('-', "_")), &report);
}

/// Campaign-level queue differential (the `heap-oracle` CI lane): the
/// checked-in `paper_grid` suite — all seven strategies at two bandwidth
/// points — runs once on the default calendar queue and once on the
/// binary-heap oracle, and the merged campaign documents are diffed with
/// [`compare_campaigns`] at **relative tolerance 0**, i.e. bit-equality
/// on every numeric cell of every point's report.
///
/// Each run gets a *fresh* [`OpPointCache`]: with a shared (or the
/// process-global) cache the second run would be served memoized results
/// from the first and the comparison would be vacuous.
///
/// Off by default (it doubles this suite's runtime); CI enables it with
/// `--features heap-oracle`.
#[cfg(feature = "heap-oracle")]
#[test]
fn paper_grid_campaign_is_bit_identical_on_the_heap_oracle() {
    use std::sync::Arc;

    let suite_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join("paper_grid.json");
    let suite = Suite::load(&suite_path).expect("paper_grid suite loads");
    let run_with_backend = |heap: bool| {
        use_heap_oracle(heap);
        let opts = CampaignOptions {
            threads: 2,
            cache: None,
            op_cache: Some(Arc::new(OpPointCache::new())),
        };
        let campaign = run_suite(&suite, &opts).expect("paper_grid runs");
        use_heap_oracle(false);
        campaign.to_json()
    };
    let calendar = run_with_backend(false);
    let heap = run_with_backend(true);
    let outcome = compare_campaigns(&calendar, &heap, 0.0, "calendar-queue", "heap-oracle")
        .expect("campaign documents are comparable");
    assert_eq!(
        outcome.differences,
        0,
        "paper_grid diverged between queue backends:\n{}",
        outcome.report.to_text()
    );
}

#[test]
fn golden_report_custom_lab() {
    check_golden("custom_lab");
}

#[test]
fn golden_report_multilevel_recovery() {
    check_golden("multilevel_recovery");
}

#[test]
fn golden_sweep_bandwidth_apex_workload() {
    check_golden("apex_workload");
}

#[test]
fn golden_sweep_ckpt_mem_fraction() {
    check_golden("ckpt_mem_fraction");
}

#[test]
fn golden_sweep_mtbf() {
    check_tiny_sweep_golden("mtbf", "2, 20");
}

#[test]
fn golden_sweep_tiers() {
    check_tiny_sweep_golden("tiers", "0, 2");
}

#[test]
fn golden_sweep_weibull_shape() {
    check_tiny_sweep_golden("weibull-shape", "0.7, 1.5");
}

#[test]
fn golden_sweep_power_ratio() {
    check_tiny_sweep_golden("power-ratio", "0.5, 2");
}

#[test]
fn golden_sweep_local_failure_share() {
    check_tiny_sweep_golden("local-failure-share", "0, 0.9");
}

/// Canonical scenario bytes: two scenarios that between them spell every
/// scenario key (human units in, raw units out) must serialize to their
/// checked-in canonical text and cache key, and the canonical text must
/// reproduce itself. Every cache key is a hash of these bytes, so a drift
/// here silently invalidates on-disk campaign caches.
#[test]
fn golden_canonical_scenarios() {
    let preset_mix = r#"{
        "name": "canonical-preset-mix",
        "platform": {"preset": "cielo", "bandwidth_gbps": 40, "mtbf_years": 5},
        "workload": {"trace": "synthetic:jobs=50,seed=3,projects=2,max_nodes=8"},
        "strategy": "least-waste",
        "interference": "degraded:0.5",
        "failures": "weibull:0.7",
        "failure_classes": [
            {"name": "transient", "share": 0.3, "severity": 0},
            {"name": "node", "share": 0.4, "severity": 1},
            {"name": "system", "share": 0.3, "severity": "system"}
        ],
        "tiers": 3,
        "span_days": 3,
        "samples": 2,
        "seed": "9007199254740993",
        "threads": 3,
        "measure_margin_days": 0.25,
        "regular_io_chunks": 4,
        "workload_slack": 1.25,
        "power": {"preset": "cielo", "ckpt_w": 450},
        "sweep": {"axis": "power-ratio", "values": [0.5, 2]}
    }"#;
    let custom_lab = r#"{
        "name": "canonical-custom-lab",
        "platform": {"name": "lab", "nodes": 64, "cores_per_node": 8,
                     "mem_per_node_gb": 16, "bandwidth_gbps": 10, "mtbf_years": 5},
        "workload": {"classes": [
            {"name": "big", "q_nodes": 32, "walltime_hours": 12, "resource_share": 0.6,
             "input_gb": 10, "output_gb": 20, "ckpt_gb": 256, "regular_io_gb": 50},
            {"name": "small", "q_nodes": 8, "walltime_secs": 21600, "resource_share": 0.4,
             "input_bytes": 1e9, "output_bytes": 2e9, "ckpt_bytes": 6.4e10,
             "regular_io_bytes": 0}
        ]},
        "strategy": "ordered-nb-daly",
        "interference": "equal",
        "failures": "exponential",
        "tiers": [
            {"name": "local", "capacity_gb": 512, "write_bw_gbps": 2, "per_writer_node": true},
            {"name": "shared", "capacity_bytes": 2e13, "write_bw_bytes_per_sec": 5e10}
        ],
        "span_secs": 259200,
        "samples": 3,
        "seed": 7,
        "measure_margin_secs": 21600,
        "power": {"idle_w": 100, "compute_w": 200, "io_w": 150, "ckpt_w": 300,
                  "recovery_w": 250, "down_w": 10, "pfs_static_w": 1000,
                  "pfs_active_w": 2000, "tier_static_w": 50, "tier_active_w": 80}
    }"#;
    for (name, doc) in [
        ("canonical_preset_mix", preset_mix),
        ("canonical_custom_lab", custom_lab),
    ] {
        let sc = Scenario::parse(doc).expect("pinned scenario parses");
        let text = sc.to_json_string();
        let again = Scenario::parse(&text).expect("canonical text parses");
        assert_eq!(again.to_json_string(), text, "{name}");
        check_golden_files(name, [("json", text), ("key", cache_key(&sc) + "\n")]);
    }
}
