//! Telemetry semantics: the `coopckpt-obs` layer is provably inert.
//!
//! * **Bit identity** — rendered reports (text, CSV, JSON) are identical
//!   with telemetry on and off, across strategies and tier depths; the
//!   top-level `run_scenario` adds exactly one `telemetry` section and
//!   one journal record, for a single point and a sweep alike.
//! * **Counter sanity** — conservation laws hold: queue inserts ≥ pops,
//!   op-cache hits + misses = lookups, one sample span per Monte-Carlo
//!   instance.
//! * **Queue cost** — the calendar queue's entries compared per pop stay
//!   low on a dense trace, an exact count at equal seed.
//! * **Journal** — run-journal lines parse back through [`Json`], carry
//!   the queue/cache counter groups, and a campaign journal lists the
//!   same points in the same (name-sorted) order at any thread count.
//!
//! Telemetry state is process-global, so every test serializes on a gate
//! and restores the disabled default via the guard's `Drop` (panic-safe).

use coopckpt::campaign::{run_suite, CampaignOptions, Suite};
use coopckpt::json::Json;
use coopckpt::prelude::*;
use coopckpt::telemetry::TELEMETRY_SECTION;
use coopckpt_obs::{Counter, Hist};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

static GATE: Mutex<()> = Mutex::new(());

/// Holds the gate for the test's duration and forces telemetry back off
/// on drop, even when the test body panics.
struct TelemetryGate(#[allow(dead_code)] MutexGuard<'static, ()>);

fn telemetry_test() -> TelemetryGate {
    TelemetryGate(GATE.lock().unwrap_or_else(|e| e.into_inner()))
}

impl Drop for TelemetryGate {
    fn drop(&mut self) {
        coopckpt_obs::set_enabled(false);
    }
}

/// A deliberately cheap scenario: half-day span, three samples.
fn scenario(strategy: &str, tiers: usize) -> Scenario {
    Scenario {
        name: Some(format!("telemetry/{strategy}/tiers{tiers}")),
        strategy: strategy.parse().expect("strategy parses"),
        tiers: TiersSpec::Geometric(tiers),
        span: Duration::from_days(0.5),
        samples: 3,
        seed: 11,
        ..Scenario::default()
    }
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "coopckpt_telemetry_{tag}_{}.jsonl",
        std::process::id()
    ))
}

const FORMATS: [OutputFormat; 3] = [OutputFormat::Text, OutputFormat::Csv, OutputFormat::Json];

#[test]
fn reports_are_bit_identical_with_telemetry_on_and_off() {
    let _gate = telemetry_test();
    for (strategy, tiers) in [
        ("least-waste", 0),
        ("ordered-daly", 0),
        ("oblivious-fixed", 0),
        ("tiered", 2),
    ] {
        let sc = scenario(strategy, tiers);
        // Fresh operating-point caches on both sides: each run computes
        // its Monte-Carlo work from scratch, so identity is not an
        // artifact of memoization.
        coopckpt_obs::set_enabled(false);
        let off = run_scenario_with_cache(&sc, &OpPointCache::new()).expect("telemetry-off run");
        coopckpt_obs::set_enabled(true);
        let scope = coopckpt_obs::new_scope();
        let on = {
            let _guard = coopckpt_obs::enter(&scope);
            run_scenario_with_cache(&sc, &OpPointCache::new()).expect("telemetry-on run")
        };
        coopckpt_obs::set_enabled(false);
        for format in FORMATS {
            assert_eq!(
                off.render(format),
                on.render(format),
                "{strategy}/tiers{tiers} must render identically under {format:?}"
            );
        }
        // The identical run really was recorded.
        let snap = scope.snapshot();
        assert!(
            snap.counter(Counter::QueueInserts) > 0,
            "{strategy}/tiers{tiers}: the telemetry-on run recorded nothing"
        );
    }
}

#[test]
fn top_level_run_appends_exactly_one_telemetry_section() {
    let _gate = telemetry_test();
    let mut sweep = scenario("least-waste", 0);
    sweep.sweep = Some(Sweep::new("mtbf", Some(vec![2.0, 20.0])).expect("valid sweep"));
    for sc in [scenario("least-waste", 0), sweep] {
        let label = sc.name.clone().expect("named");
        coopckpt_obs::set_enabled(false);
        let off = run_scenario(&sc).expect("telemetry-off run");
        let path = scratch("top_level");
        coopckpt_obs::init(Some(&path)).expect("journal opens");
        let mut on = run_scenario(&sc).expect("telemetry-on run");
        coopckpt_obs::set_enabled(false);
        let journal = std::fs::read_to_string(&path).expect("journal readable");
        std::fs::remove_file(&path).ok();

        assert_eq!(journal.lines().count(), 1, "{label}: one journal record");
        assert_eq!(on.sections.len(), off.sections.len() + 1, "{label}");
        assert_eq!(
            on.sections.last().expect("nonempty").name,
            TELEMETRY_SECTION,
            "{label}: the telemetry section is appended last"
        );
        on.sections.retain(|s| s.name != TELEMETRY_SECTION);
        for format in FORMATS {
            assert_eq!(
                off.render(format),
                on.render(format),
                "{label}: stripping the telemetry section must restore the off report ({format:?})"
            );
        }
    }
}

#[test]
fn counters_obey_conservation_laws() {
    let _gate = telemetry_test();
    coopckpt_obs::set_enabled(true);
    let scope = coopckpt_obs::new_scope();
    let sc = scenario("least-waste", 2);
    {
        let _guard = coopckpt_obs::enter(&scope);
        run_scenario_with_cache(&sc, &OpPointCache::new()).expect("run");
    }
    coopckpt_obs::set_enabled(false);
    let snap = scope.snapshot();

    let inserts = snap.counter(Counter::QueueInserts);
    let pops = snap.counter(Counter::QueuePops);
    assert!(inserts > 0, "a simulation schedules events");
    assert!(
        inserts >= pops,
        "every popped event was inserted ({inserts} inserts vs {pops} pops)"
    );
    assert_eq!(
        snap.counter(Counter::OpCacheHits) + snap.counter(Counter::OpCacheMisses),
        snap.counter(Counter::OpCacheLookups),
        "op-cache hits + misses account for every lookup"
    );
    assert!(snap.counter(Counter::ReplayNs) > 0, "replay was timed");
    assert_eq!(
        snap.samples.count, sc.samples as u64,
        "one sample span per Monte-Carlo instance"
    );
    assert!(
        snap.hist(Hist::PeakLiveJobs).count >= sc.samples as u64,
        "peak-live-jobs observed at least once per instance"
    );
    assert!(
        snap.counter(Counter::TierAbsorbs) > 0,
        "a tiered run absorbs checkpoints into the hierarchy"
    );
}

/// Regression pin for the calendar queue's pop cost. On a dense synthetic
/// trace, hundreds of jobs' timers fire minutes apart while the failure
/// trace spans the whole window. A width fitted to the failures would put
/// the timers in one bucket, and each pop would compare them all.
#[test]
fn calendar_pops_compare_few_entries_on_a_dense_trace() {
    let _gate = telemetry_test();
    let sc = Scenario::parse(
        r#"{
            "platform": {"preset": "cielo", "bandwidth_gbps": 40},
            "workload": {"trace": "synthetic:jobs=5000,max_nodes=512,mean_walltime_hours=1,max_walltime_hours=4,mean_interarrival_secs=30"},
            "strategy": "ordered-nb-daly-usage",
            "span_days": 2,
            "samples": 1,
            "seed": 1
        }"#,
    )
    .expect("scenario parses");
    coopckpt_obs::set_enabled(true);
    let scope = coopckpt_obs::new_scope();
    {
        let _guard = coopckpt_obs::enter(&scope);
        run_scenario_with_cache(&sc, &OpPointCache::new()).expect("run");
    }
    coopckpt_obs::set_enabled(false);
    let entries = scope.snapshot().hist(Hist::QueueEntryScans).mean();
    assert!(entries <= 8.0, "queue.entry_scans_mean {entries}");
}

#[test]
fn journal_records_parse_and_carry_counters() {
    let _gate = telemetry_test();
    let path = scratch("run");
    coopckpt_obs::init(Some(&path)).expect("journal opens");
    let sc = scenario("least-waste", 0);
    run_scenario(&sc).expect("run");
    coopckpt_obs::set_enabled(false);

    let text = std::fs::read_to_string(&path).expect("journal readable");
    std::fs::remove_file(&path).ok();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1, "one record per completed scenario");
    let rec = Json::parse(lines[0]).expect("journal line parses");
    assert_eq!(
        rec.get("point").and_then(Json::as_str),
        Some("telemetry/least-waste/tiers0")
    );
    assert_eq!(rec.get("samples").and_then(Json::as_u64), Some(3));
    assert_eq!(
        rec.get("cache_hit").map(|j| matches!(j, Json::Bool(false))),
        Some(true)
    );
    assert!(rec.get("wall_ms").and_then(Json::as_f64).expect("wall_ms") >= 0.0);
    let queue = rec.get("queue").expect("queue counter group");
    assert!(
        queue
            .get("inserts")
            .and_then(Json::as_u64)
            .expect("inserts")
            > 0
    );
    let cache = rec.get("cache").expect("cache counter group");
    assert!(
        cache
            .get("op_lookups")
            .and_then(Json::as_u64)
            .expect("lookups")
            > 0
    );
    assert!(rec.get("engine").is_some() && rec.get("phases_ms").is_some());
}

#[test]
fn campaign_journal_is_thread_count_stable_and_sorted() {
    let _gate = telemetry_test();
    let suite = Suite::parse(
        r#"{
            "name": "tiny",
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
    .expect("suite parses");

    let mut journals = Vec::new();
    for threads in [1usize, 4] {
        let path = scratch(&format!("suite{threads}"));
        coopckpt_obs::init(Some(&path)).expect("journal opens");
        let opts = CampaignOptions {
            threads,
            cache: None,
            op_cache: Some(std::sync::Arc::new(OpPointCache::new())),
        };
        run_suite(&suite, &opts).expect("suite runs");
        coopckpt_obs::set_enabled(false);
        let text = std::fs::read_to_string(&path).expect("journal readable");
        std::fs::remove_file(&path).ok();

        let points: Vec<String> = text
            .lines()
            .map(|line| {
                let rec = Json::parse(line).expect("journal line parses");
                let worker = rec.get("worker").and_then(Json::as_u64).expect("worker id");
                assert!(worker < threads as u64, "worker id within the pool");
                assert!(rec.get("queue").is_some(), "queue counters present");
                rec.get("point")
                    .and_then(Json::as_str)
                    .expect("point name")
                    .to_string()
            })
            .collect();
        assert_eq!(points.len(), 4, "one record per campaign point");
        let mut sorted = points.clone();
        sorted.sort();
        assert_eq!(points, sorted, "journal is sorted by point name");
        journals.push(points);
    }
    assert_eq!(
        journals[0], journals[1],
        "the journal's point sequence is thread-count independent"
    );
}
