//! Threading semantics: the two-level work-sharing pool's contract.
//!
//! * **Honored thread count** — `suite --threads 1` runs exactly one
//!   simulation worker (the pre-pool runner mapped a lone worker to
//!   "all cores", silently oversubscribing); `--threads n` never exceeds
//!   `n` concurrent unit workers.
//! * **Wrapping seeds** — library-level Monte-Carlo seed arithmetic wraps
//!   at `u64::MAX` by definition instead of panicking in debug builds,
//!   and wrapped seed ranges overlap unwrapped ones exactly.
//! * **Thread-identity matrix** — single-big-point, many-small-point and
//!   sweep-point suites render bit-identically at `--threads 1`, `2` and
//!   `8`, and the telemetry journal matches too once its wall-clock/
//!   worker-id fields (inherently nondeterministic) are stripped. Direct
//!   sweeps render identically at any thread count as well.
//!
//! The worker-count gauge and the telemetry journal are process-global,
//! so every test in this binary serializes on a gate and restores the
//! telemetry-off default on drop (panic-safe) — the same discipline as
//! `telemetry_semantics.rs`, kept in its own binary so unrelated parallel
//! tests cannot execute chunks (or journal lines) mid-measurement.

use coopckpt::campaign::{run_suite, CampaignOptions, Suite};
use coopckpt::experiments::run_scenario_with_cache;
use coopckpt::json::Json;
use coopckpt::prelude::*;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

static GATE: Mutex<()> = Mutex::new(());

/// Holds the gate for the test's duration and forces telemetry back off
/// on drop, even when the test body panics.
struct ThreadingGate(#[allow(dead_code)] MutexGuard<'static, ()>);

fn threading_test() -> ThreadingGate {
    ThreadingGate(GATE.lock().unwrap_or_else(|e| e.into_inner()))
}

impl Drop for ThreadingGate {
    fn drop(&mut self) {
        coopckpt_obs::set_enabled(false);
    }
}

/// One point, `samples` Monte-Carlo instances: the shape that used to pin
/// a single point-level worker while every other core idled.
fn single_big_point_suite(samples: usize) -> Suite {
    Suite::parse(&format!(
        r#"{{
            "name": "bigpoint",
            "base": {{
                "platform": {{"preset": "cielo", "bandwidth_gbps": 40}},
                "span_days": 0.25,
                "samples": {samples},
                "seed": 7
            }},
            "grid": {{"strategy": ["least-waste"]}}
        }}"#,
    ))
    .expect("big-point suite parses")
}

/// Four cheap points, two samples each: more points than some thread
/// counts, fewer than others.
fn many_small_points_suite() -> Suite {
    Suite::parse(
        r#"{
            "name": "manysmall",
            "base": {
                "platform": {"preset": "cielo", "bandwidth_gbps": 40},
                "span_days": 0.25,
                "samples": 2,
                "seed": 7
            },
            "grid": {
                "strategy": ["least-waste", "oblivious-daly"],
                "bandwidth_gbps": [40, 80]
            }
        }"#,
    )
    .expect("many-small suite parses")
}

/// A small MTBF sweep on Cielo: two values × (seven strategies + the
/// bound). As a file it is also a one-point suite.
const SWEEP_DOC: &str = r#"{
    "name": "sweep",
    "platform": {"preset": "cielo", "bandwidth_gbps": 40},
    "span_days": 0.25,
    "samples": 2,
    "seed": 7,
    "sweep": {"axis": "mtbf", "values": [2, 20]}
}"#;

/// The sweep run directly at `threads`, against a fresh cache.
fn sweep_at(threads: usize) -> Report {
    let mut sc = Scenario::parse(SWEEP_DOC).expect("sweep parses");
    sc.threads = threads;
    run_scenario_with_cache(&sc, &OpPointCache::new()).expect("sweep runs")
}

fn run_at(suite: &Suite, threads: usize) -> coopckpt::campaign::Campaign {
    // A fresh operating-point cache per run so every thread count really
    // recomputes — the shared global cache would mask scheduling bugs.
    let opts = CampaignOptions {
        threads,
        cache: None,
        op_cache: Some(Arc::new(OpPointCache::new())),
    };
    run_suite(suite, &opts).expect("suite runs")
}

fn renders(c: &coopckpt::campaign::Campaign) -> (String, String, String) {
    (c.to_text(), c.to_csv(), c.to_json().pretty())
}

// ----- honored thread count ----------------------------------------------

#[test]
fn suite_threads_1_runs_exactly_one_simulation_worker() {
    let _gate = threading_test();
    let suite = single_big_point_suite(16);

    // The regression this pins: `--threads 1` used to map the lone
    // worker's inner Monte-Carlo pool to "one thread per core", so a
    // single-thread request used the whole machine.
    coopckpt_sched::exec::reset_unit_worker_peak();
    run_at(&suite, 1);
    assert_eq!(
        coopckpt_sched::exec::unit_worker_peak(),
        1,
        "--threads 1 must never run two simulation units concurrently"
    );

    // And an explicit larger count is an upper bound, not a hint.
    coopckpt_sched::exec::reset_unit_worker_peak();
    run_at(&suite, 4);
    let peak = coopckpt_sched::exec::unit_worker_peak();
    assert!(
        (1..=4).contains(&peak),
        "--threads 4 ran {peak} concurrent unit workers"
    );

    // A sweep runs its points on the same worker loop: directly, and as
    // a suite point feeding the campaign's pool.
    coopckpt_sched::exec::reset_unit_worker_peak();
    sweep_at(1);
    assert_eq!(
        coopckpt_sched::exec::unit_worker_peak(),
        1,
        "a --threads 1 sweep must never run two simulation units concurrently"
    );
    coopckpt_sched::exec::reset_unit_worker_peak();
    run_at(&Suite::parse(SWEEP_DOC).expect("sweep suite parses"), 1);
    assert_eq!(
        coopckpt_sched::exec::unit_worker_peak(),
        1,
        "a sweep run as a --threads 1 suite point must stay on one worker"
    );
}

// ----- wrapping seed arithmetic ------------------------------------------

#[test]
fn montecarlo_seed_arithmetic_wraps_at_u64_max() {
    let _gate = threading_test();
    let config = Scenario {
        span: Duration::from_days(0.25),
        ..Scenario::default()
    }
    .into_config()
    .expect("scenario compiles");

    // Seeds MAX-1, MAX, 0, 1 — the last two wrap. Before the executor
    // defined wrapping semantics this panicked in debug builds.
    let wrapped = run_many(
        &config,
        &MonteCarloConfig::new(4).with_base_seed(u64::MAX - 1),
    );
    let low = run_many(&config, &MonteCarloConfig::new(2).with_base_seed(0));
    assert_eq!(
        wrapped.values()[2..],
        low.values()[..],
        "wrapped seeds must coincide with the same seeds reached directly"
    );
}

// ----- campaign x Monte-Carlo thread-identity matrix ---------------------

/// Journal lines with the fields that legitimately vary run-to-run
/// (wall clock, per-phase timings, worker id) stripped; everything left —
/// point names, order, sample counts, cache outcomes, queue/cache/engine
/// counters — must be thread-count invariant.
fn canonical_journal(text: &str) -> Vec<String> {
    text.lines()
        .map(|line| {
            let rec = Json::parse(line).expect("journal line parses");
            match rec {
                Json::Obj(pairs) => Json::Obj(
                    pairs
                        .into_iter()
                        .filter(|(k, _)| {
                            !matches!(k.as_str(), "wall_ms" | "worker" | "phases_ms" | "sample_ms")
                        })
                        .collect(),
                )
                .to_string(),
                other => other.to_string(),
            }
        })
        .collect()
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "coopckpt_threading_{tag}_{}.jsonl",
        std::process::id()
    ))
}

#[test]
fn thread_identity_matrix_with_telemetry_journal() {
    let _gate = threading_test();
    for (shape, suite) in [
        ("single-big-point", single_big_point_suite(24)),
        ("many-small-points", many_small_points_suite()),
        (
            "sweep-point",
            Suite::parse(SWEEP_DOC).expect("sweep suite parses"),
        ),
    ] {
        let mut baseline: Option<((String, String, String), Vec<String>)> = None;
        for threads in [1usize, 2, 8] {
            let path = scratch(&format!("{shape}_{threads}"));
            coopckpt_obs::init(Some(&path)).expect("journal opens");
            let campaign = run_at(&suite, threads);
            coopckpt_obs::set_enabled(false);
            let journal_text = std::fs::read_to_string(&path).expect("journal readable");
            std::fs::remove_file(&path).ok();

            let rendered = renders(&campaign);
            let journal = canonical_journal(&journal_text);
            assert_eq!(
                journal.len(),
                campaign.entries.len(),
                "{shape}: one journal record per point at --threads {threads}"
            );
            match &baseline {
                None => baseline = Some((rendered, journal)),
                Some((r1, j1)) => {
                    assert_eq!(
                        r1.0, rendered.0,
                        "{shape}: text differs at --threads {threads}"
                    );
                    assert_eq!(
                        r1.1, rendered.1,
                        "{shape}: CSV differs at --threads {threads}"
                    );
                    assert_eq!(
                        r1.2, rendered.2,
                        "{shape}: JSON differs at --threads {threads}"
                    );
                    assert_eq!(
                        j1, &journal,
                        "{shape}: journal differs at --threads {threads}"
                    );
                }
            }
        }
    }
}

#[test]
fn direct_sweeps_render_identically_at_any_thread_count() {
    let _gate = threading_test();
    let single = sweep_at(1);
    for threads in [2, 8] {
        let multi = sweep_at(threads);
        // The scenario echo carries the `threads` knob itself; everything
        // the sweep computed must not move.
        assert_eq!(
            single.notes, multi.notes,
            "notes differ at --threads {threads}"
        );
        assert_eq!(
            single.sections, multi.sections,
            "sweep differs at --threads {threads}"
        );
        assert_eq!(single.to_text(), multi.to_text());
        assert_eq!(single.to_csv(), multi.to_csv());
    }
}
