//! Campaign semantics: the guarantees that make suite files trustworthy.
//!
//! * **Expansion** — a suite's grid expands to a duplicate-free,
//!   order-stable scenario list (property-tested over random grids), with
//!   unique auto-generated names and the runner-owned `threads` knob
//!   normalized out.
//! * **Thread identity** — the merged campaign output (text, CSV, JSON)
//!   is bit-identical at `--threads 1`, `2` and `8`: workers steal points
//!   through an atomic cursor but the merge is in expansion order.
//! * **Resume identity** — with an on-disk [`ResultCache`], a warm rerun
//!   serves every point from cache and renders bit-identically to the
//!   cold run, including after a partial cache loss. A point that reads a
//!   job-log file is served from cache only while the file's bytes are
//!   the ones it was computed from.
//! * **Key hygiene** — [`cache_key`] is invariant under JSON field order,
//!   human-unit spellings and the `threads` knob, and distinct under any
//!   result-affecting change (seed, samples, an axis value).
//! * **Golden campaign output** — the checked-in `paper_grid` suite's
//!   rendered output is compared byte-for-byte against
//!   `tests/golden/paper_grid.*`, and `compare` is exercised against a
//!   deliberately perturbed copy. Refresh after an intentional format
//!   change with `COOPCKPT_BLESS=1 cargo test --test campaign_semantics`.

use coopckpt::campaign::{
    cache_key, compare_campaigns, run_suite, CampaignOptions, ResultCache, Suite,
};
use coopckpt::json::Json;
use coopckpt::prelude::*;
use proptest::prelude::{prop_assert, prop_assert_eq, proptest};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn preset_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join(format!("{name}.json"))
}

/// A per-test scratch directory under the OS temp dir (removed by the
/// test when it finishes cleanly).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("coopckpt_campaign_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A deliberately cheap four-point suite (half-day spans, two samples).
fn tiny_suite() -> Suite {
    Suite::parse(
        r#"{
            "name": "tiny",
            "base": {
                "platform": {"preset": "cielo", "bandwidth_gbps": 40},
                "span_days": 0.5,
                "samples": 2,
                "seed": 7
            },
            "grid": {
                "strategy": ["least-waste", "oblivious-daly"],
                "bandwidth_gbps": [40, 80]
            }
        }"#,
    )
    .expect("tiny suite parses")
}

/// Renders a campaign in all three formats.
fn renders(c: &coopckpt::campaign::Campaign) -> (String, String, String) {
    (c.to_text(), c.to_csv(), c.to_json().pretty())
}

// ----- grid expansion ----------------------------------------------------

const STRATEGY_SET: [&str; 7] = [
    "oblivious-fixed",
    "oblivious-daly",
    "ordered-fixed",
    "ordered-daly",
    "ordered-nb-fixed",
    "ordered-nb-daly",
    "least-waste",
];
const BW_SET: [f64; 4] = [40.0, 80.0, 120.0, 160.0];

/// Builds a suite whose grid axes come from generated picks — the
/// bandwidth and seed axes may list *duplicate* values, which expansion
/// must collapse.
fn picked_suite(strat_mask: u8, bw_picks: &[usize], seed_picks: &[u64]) -> Suite {
    let strategies: Vec<String> = STRATEGY_SET
        .iter()
        .enumerate()
        .filter(|(i, _)| strat_mask & (1 << i) != 0)
        .map(|(_, s)| format!("\"{s}\""))
        .collect();
    let bws: Vec<String> = bw_picks.iter().map(|&i| format!("{}", BW_SET[i])).collect();
    let seeds: Vec<String> = seed_picks.iter().map(|s| format!("{s}")).collect();
    Suite::parse(&format!(
        r#"{{
            "name": "gen",
            "base": {{"span_days": 1, "samples": 1}},
            "grid": {{
                "strategy": [{}],
                "bandwidth_gbps": [{}],
                "seed": [{}]
            }}
        }}"#,
        strategies.join(","),
        bws.join(","),
        seeds.join(",")
    ))
    .expect("generated suite parses")
}

proptest! {
    #[test]
    fn grid_expansion_is_duplicate_free_and_order_stable(
        strat_mask in 1u8..128,
        (b0, b1, b2, nb) in (0usize..4, 0usize..4, 0usize..4, 1usize..4),
        (s0, s1, ns) in (1u64..4, 1u64..4, 1usize..3),
    ) {
        let bw_picks = [b0, b1, b2][..nb].to_vec();
        let seed_picks = [s0, s1][..ns].to_vec();
        let suite = picked_suite(strat_mask, &bw_picks, &seed_picks);
        let points = suite.expand().expect("generated suite expands");

        // Size: the product of *distinct* per-axis values (duplicate axis
        // values collapse because they produce identical scenarios).
        let n_strats = strat_mask.count_ones() as usize;
        let n_bws = bw_picks.iter().collect::<std::collections::HashSet<_>>().len();
        let n_seeds = seed_picks.iter().collect::<std::collections::HashSet<_>>().len();
        prop_assert_eq!(points.len(), n_strats * n_bws * n_seeds);

        // Duplicate-free, with unique names, and threads normalized out.
        let mut specs = std::collections::HashSet::new();
        let mut names = std::collections::HashSet::new();
        for sc in &points {
            prop_assert!(specs.insert(sc.to_json_string()), "duplicate scenario survived");
            prop_assert!(names.insert(sc.name.clone().expect("auto-named")), "name collision");
            prop_assert_eq!(sc.threads, 0, "runner-owned threads leaked into a point");
        }

        // Order-stable: a second expansion is identical.
        prop_assert_eq!(&points, &suite.expand().expect("second expansion"));

        // Row-major order: the first point carries the first value of
        // every axis.
        let first = STRATEGY_SET[strat_mask.trailing_zeros() as usize];
        let expected = format!(
            "gen/strategy={first}/bandwidth_gbps={}/seed={}",
            BW_SET[bw_picks[0]], seed_picks[0]
        );
        prop_assert_eq!(points[0].name.as_deref(), Some(expected.as_str()));
    }
}

#[test]
fn explicit_scenarios_append_after_the_grid_and_dedup_keeps_first() {
    let suite = Suite::parse(
        r#"{
            "name": "mix",
            "base": {"span_days": 1, "samples": 1},
            "grid": {"strategy": ["least-waste", "ordered-daly"]},
            "scenarios": [
                {"name": "extra", "strategy": "tiered", "tiers": 2,
                 "span_days": 1, "samples": 1},
                {"name": "mix/strategy=least-waste", "strategy": "least-waste",
                 "span_days": 1, "samples": 1}
            ]
        }"#,
    )
    .expect("mixed suite parses");
    let points = suite.expand().expect("expands");
    let names: Vec<&str> = points.iter().map(|s| s.name.as_deref().unwrap()).collect();
    // The duplicated explicit member (same name, same spec as the first
    // grid point) collapses onto the grid's occurrence.
    assert_eq!(
        names,
        [
            "mix/strategy=least-waste",
            "mix/strategy=ordered-daly",
            "extra"
        ]
    );
}

#[test]
fn plain_scenario_files_are_one_point_suites() {
    let suite = Suite::load(preset_path("cielo_baseline")).expect("plain scenario loads");
    let points = suite.expand().expect("expands");
    assert_eq!(points.len(), 1);
    assert_eq!(points[0].name.as_deref(), Some("cielo-baseline"));
}

#[test]
fn bad_suites_are_rejected_with_field_context() {
    for (doc, needle) in [
        (r#"{"grid": {"strategy": []}}"#, "grid.strategy"),
        (r#"{"grid": {"warp": [1]}}"#, "grid.warp"),
        (r#"{"grid": {"strategy": ["sorcery"]}}"#, "grid.strategy"),
        (r#"{"grid": {"bandwidth_gbps": [-4]}}"#, "bandwidth_gbps"),
        (r#"{"grid": {"tiers": [99]}}"#, "tiers"),
        (r#"{"grid": {"samples": [0]}}"#, "samples"),
        (
            r#"{"grid": {"local_failure_share": [1.5]}}"#,
            "local_failure_share",
        ),
        (
            r#"{"grid": {"ckpt_mem_fraction": [1.5]}}"#,
            "ckpt_mem_fraction",
        ),
        (r#"{"base": {}, "rocket": 1}"#, "rocket"),
        (r#"{"base": {}, "scenarios": "nope"}"#, "scenarios"),
    ] {
        let err = Suite::parse(doc).expect_err(doc).to_string();
        assert!(err.contains(needle), "{doc} -> {err}");
    }
    // An empty suite fails at expansion.
    let err = Suite::parse(r#"{"name": "empty", "scenarios": []}"#)
        .expect("parses")
        .expand()
        .expect_err("empty suite must not expand")
        .to_string();
    assert!(err.contains("no scenarios"), "{err}");
    // A zero-sample point fails before anything runs, naming the point.
    // (The JSON parser already rejects `samples: 0`, so a hand-built
    // suite is the only way to reach the expansion-time guard.)
    let mut bad =
        Suite::parse(r#"{"base": {"span_days": 1, "samples": 1}, "grid": {"seed": [1, 2]}}"#)
            .expect("parses");
    bad.base.samples = 0;
    let err = bad
        .expand()
        .expect_err("zero-sample points must be rejected")
        .to_string();
    assert!(err.contains("seed=1") && err.contains("sample"), "{err}");
}

// ----- cache-key hygiene -------------------------------------------------

#[test]
fn cache_key_is_stable_across_field_order_and_unit_spellings() {
    let canonical = Scenario::parse(
        r#"{"platform": {"preset": "cielo", "bandwidth_gbps": 40.0},
            "strategy": "least-waste", "span_secs": 172800.0,
            "samples": 2, "seed": 1}"#,
    )
    .unwrap();
    // Reordered fields, `span_days` instead of `span_secs`, an integer
    // bandwidth spelling, and explicit defaults: one operating point, one
    // key.
    let respelled = Scenario::parse(
        r#"{"seed": 1, "samples": 2, "span_days": 2,
            "strategy": "least-waste", "failures": "exponential",
            "platform": {"bandwidth_gbps": 40, "preset": "cielo"}}"#,
    )
    .unwrap();
    assert_eq!(cache_key(&canonical), cache_key(&respelled));

    // The runner-owned threads knob never reaches the key.
    let mut threaded = canonical.clone();
    threaded.threads = 3;
    assert_eq!(cache_key(&canonical), cache_key(&threaded));

    // Every result-affecting field does.
    let mut distinct = std::collections::HashSet::new();
    distinct.insert(cache_key(&canonical));
    let mut reseeded = canonical.clone();
    reseeded.seed = 2;
    assert!(
        distinct.insert(cache_key(&reseeded)),
        "seed must change the key"
    );
    let mut resampled = canonical.clone();
    resampled.samples = 3;
    assert!(
        distinct.insert(cache_key(&resampled)),
        "samples must change the key"
    );
    let rebanded = canonical.clone().with_bandwidth_gbps(80.0);
    assert!(
        distinct.insert(cache_key(&rebanded)),
        "bandwidth must change the key"
    );
    let restrat = canonical
        .clone()
        .with_strategy("ordered-daly".parse().unwrap());
    assert!(
        distinct.insert(cache_key(&restrat)),
        "strategy must change the key"
    );

    // The name is part of the key on purpose: cached entries embed the
    // rendered `# scenario:` header, which must never go stale.
    let mut renamed = canonical.clone();
    renamed.name = Some("alias".to_string());
    assert!(
        distinct.insert(cache_key(&renamed)),
        "name must change the key"
    );
}

// ----- thread identity ---------------------------------------------------

#[test]
fn merged_output_is_bit_identical_across_thread_counts() {
    let suite = tiny_suite();
    // Fresh operating-point caches per run, so every thread count really
    // recomputes (the shared global cache would mask ordering bugs).
    let run_at = |threads: usize| {
        let opts = CampaignOptions {
            threads,
            cache: None,
            op_cache: Some(Arc::new(OpPointCache::new())),
        };
        renders(&run_suite(&suite, &opts).expect("tiny suite runs"))
    };
    let single = run_at(1);
    for threads in [2, 8] {
        let multi = run_at(threads);
        assert_eq!(single.0, multi.0, "text differs at --threads {threads}");
        assert_eq!(single.1, multi.1, "CSV differs at --threads {threads}");
        assert_eq!(single.2, multi.2, "JSON differs at --threads {threads}");
    }
    // And the output never mentions cache provenance.
    assert!(!single.2.contains("from_cache"));
}

#[test]
fn single_big_point_suite_is_bit_identical_across_thread_counts() {
    // The two-level pool's hardest case: one point, many samples. Every
    // worker steals seed-range chunks from the same point, so the sample
    // reduction order — not just the point merge order — is what this
    // pins across thread counts (including more workers than points).
    let suite = Suite::parse(
        r#"{
            "name": "bigpoint",
            "base": {
                "platform": {"preset": "cielo", "bandwidth_gbps": 40},
                "span_days": 0.25,
                "samples": 24,
                "seed": 7
            },
            "grid": {"strategy": ["least-waste"]}
        }"#,
    )
    .expect("big-point suite parses");
    let run_at = |threads: usize| {
        let opts = CampaignOptions {
            threads,
            cache: None,
            op_cache: Some(Arc::new(OpPointCache::new())),
        };
        renders(&run_suite(&suite, &opts).expect("big-point suite runs"))
    };
    let single = run_at(1);
    for threads in [2, 8] {
        let multi = run_at(threads);
        assert_eq!(single.0, multi.0, "text differs at --threads {threads}");
        assert_eq!(single.1, multi.1, "CSV differs at --threads {threads}");
        assert_eq!(single.2, multi.2, "JSON differs at --threads {threads}");
    }
}

// ----- resume identity ---------------------------------------------------

#[test]
fn warm_cache_resume_is_bit_identical_to_a_cold_run() {
    let suite = tiny_suite();
    let dir = scratch_dir("resume");
    let run_cached = || {
        let opts = CampaignOptions {
            threads: 2,
            cache: Some(ResultCache::new(&dir).expect("cache dir")),
            op_cache: Some(Arc::new(OpPointCache::new())),
        };
        run_suite(&suite, &opts).expect("cached run")
    };

    let cold = run_cached();
    let n = cold.entries.len();
    assert_eq!(cold.cached_points(), 0, "first run must compute everything");

    let warm = run_cached();
    assert_eq!(warm.cached_points(), n, "second run must be fully cached");
    assert_eq!(renders(&cold), renders(&warm), "resume changed the output");

    // Partial resume: lose one entry, rerun — only that point recomputes,
    // and the output still matches.
    let victim = dir.join(format!("{}.json", cold.entries[1].key));
    std::fs::remove_file(&victim).expect("cache entry exists on disk");
    let partial = run_cached();
    assert_eq!(
        partial.cached_points(),
        n - 1,
        "exactly one point recomputes"
    );
    assert_eq!(
        renders(&cold),
        renders(&partial),
        "partial resume changed the output"
    );

    // A corrupt entry reads as a miss, not an error.
    std::fs::write(dir.join(format!("{}.json", cold.entries[0].key)), "{ nope").unwrap();
    let healed = run_cached();
    assert_eq!(healed.cached_points(), n - 1);
    assert_eq!(renders(&cold), renders(&healed));

    std::fs::remove_dir_all(&dir).ok();
}

/// Runs the one-point suite over the job log at `log` (one day, two
/// samples), into the result cache at `cache` or cold without one. Each
/// run gets a fresh operating-point cache, as a new process would.
fn run_log_suite(log: &Path, cache: Option<&Path>) -> coopckpt::campaign::Campaign {
    let trace = Json::str(log.to_str().expect("utf-8 temp path"));
    let doc = Json::obj([
        ("workload", Json::obj([("trace", trace)])),
        ("span_days", Json::Num(1.0)),
        ("samples", Json::Num(2.0)),
        ("seed", Json::Num(1.0)),
    ]);
    let suite = Suite::parse(&doc.to_string()).expect("job-log suite parses");
    let opts = CampaignOptions {
        threads: 1,
        cache: cache.map(|dir| ResultCache::new(dir).expect("cache dir")),
        op_cache: Some(Arc::new(OpPointCache::new())),
    };
    run_suite(&suite, &opts).expect("job-log suite runs")
}

/// The checked-in 1k-job log's text.
fn sample_log() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("scenarios/traces/sample_1k.csv");
    std::fs::read_to_string(path).expect("sample log is checked in")
}

#[test]
fn an_edited_job_log_is_recomputed_not_served_from_cache() {
    let dir = scratch_dir("log_edit");
    std::fs::create_dir_all(&dir).unwrap();
    let (log, cache) = (dir.join("t.csv"), dir.join("cache"));
    let run = |cache: Option<&Path>| run_log_suite(&log, cache);

    let original = sample_log();
    std::fs::write(&log, &original).unwrap();
    let first = run(Some(&cache));
    assert_eq!(first.cached_points(), 0);

    // Same path, other jobs: the header and every other record.
    let edited: String = original
        .lines()
        .step_by(2)
        .map(|line| format!("{line}\n"))
        .collect();
    std::fs::write(&log, &edited).unwrap();
    let rerun = run(Some(&cache));
    assert_eq!(rerun.cached_points(), 0, "a stale report was served");
    assert_eq!(
        renders(&rerun),
        renders(&run(None)),
        "rerun differs from a cold run"
    );
    assert_ne!(
        renders(&rerun),
        renders(&first),
        "the edit changes the report"
    );

    // The recomputed entry replaced the stale one.
    assert_eq!(run(Some(&cache)).cached_points(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_unchanged_job_log_is_served_from_cache() {
    let dir = scratch_dir("log_same");
    std::fs::create_dir_all(&dir).unwrap();
    let (log, cache) = (dir.join("t.csv"), dir.join("cache"));
    let run = |cache: Option<&Path>| run_log_suite(&log, cache);

    std::fs::write(&log, sample_log()).unwrap();
    let cold = run(Some(&cache));
    // Rewriting the same bytes keeps every entry.
    std::fs::write(&log, sample_log()).unwrap();
    let warm = run(Some(&cache));
    assert_eq!(warm.cached_points(), 1);
    assert_eq!(renders(&cold), renders(&warm));
    std::fs::remove_dir_all(&dir).ok();
}

// ----- the checked-in paper grid -----------------------------------------

#[test]
fn paper_grid_expands_and_runs_identically_at_any_thread_count() {
    let suite = Suite::load(preset_path("paper_grid")).expect("paper_grid loads");
    let points = suite.expand().expect("paper_grid expands");
    assert!(
        points.len() >= 12,
        "paper_grid must cover the Table-1 strategy grid, got {} points",
        points.len()
    );

    // The global operating-point cache makes the second and third run
    // nearly free — which is itself the memoization satellite at work.
    let run_at = |threads: usize, cache: Option<ResultCache>| {
        let opts = CampaignOptions {
            threads,
            cache,
            op_cache: None,
        };
        run_suite(&suite, &opts).expect("paper_grid runs")
    };
    let single = run_at(1, None);
    assert_eq!(single.entries.len(), points.len());
    for threads in [2, 8] {
        assert_eq!(
            renders(&single),
            renders(&run_at(threads, None)),
            "paper_grid output differs at --threads {threads}"
        );
    }

    // Cold-vs-resumed identity on the real preset.
    let dir = scratch_dir("paper_grid");
    let cold = run_at(0, Some(ResultCache::new(&dir).expect("cache dir")));
    let warm = run_at(0, Some(ResultCache::new(&dir).expect("cache dir")));
    assert_eq!(warm.cached_points(), points.len());
    assert_eq!(renders(&cold), renders(&warm));
    assert_eq!(renders(&single), renders(&warm));
    std::fs::remove_dir_all(&dir).ok();
}

// ----- golden campaign output + compare fixtures -------------------------

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn bless_mode() -> bool {
    std::env::var("COOPCKPT_BLESS").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Compares `rendered` against (or, under `COOPCKPT_BLESS=1`, rewrites)
/// one golden file.
fn check_golden_file(name: &str, rendered: &str) {
    let path = golden_dir().join(name);
    if bless_mode() {
        std::fs::create_dir_all(golden_dir()).expect("golden dir");
        std::fs::write(&path, rendered).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden file {} ({e}); run COOPCKPT_BLESS=1 \
             cargo test --test campaign_semantics to create it",
            path.display()
        )
    });
    assert_eq!(
        rendered, &expected,
        "{name} drifted from its golden file — if the change is \
         intentional, re-bless with COOPCKPT_BLESS=1"
    );
}

/// Multiplies the first comfortably-nonzero numeric cell of the first
/// point's report by `factor`, returning the perturbed document and the
/// original value.
fn perturb_first_metric(doc: &Json, factor: f64) -> (Json, f64) {
    fn perturb(v: &Json, factor: f64, done: &mut Option<f64>) -> Json {
        match v {
            Json::Obj(pairs) => Json::Obj(
                pairs
                    .iter()
                    .map(|(k, val)| (k.clone(), perturb(val, factor, done)))
                    .collect(),
            ),
            Json::Arr(items) => Json::Arr(
                items
                    .iter()
                    .map(|item| perturb(item, factor, done))
                    .collect(),
            ),
            Json::Num(x) if done.is_none() && x.abs() > 1e-6 => {
                *done = Some(*x);
                Json::Num(x * factor)
            }
            other => other.clone(),
        }
    }
    let results = doc
        .get("results")
        .and_then(Json::as_array)
        .expect("results");
    let first_rows = results[0]
        .get("report")
        .and_then(|r| r.get("sections"))
        .and_then(Json::as_array)
        .expect("sections")[0]
        .get("rows")
        .expect("rows");
    let mut original = None;
    let perturbed_rows = perturb(first_rows, factor, &mut original);
    // Splice the perturbed rows back in along the same path.
    fn splice(v: &Json, replacement: &Json) -> Json {
        match v {
            Json::Obj(pairs) => Json::Obj(
                pairs
                    .iter()
                    .map(|(k, val)| {
                        let new = match k.as_str() {
                            "results" | "report" | "sections" => splice(val, replacement),
                            "rows" => replacement.clone(),
                            _ => val.clone(),
                        };
                        (k.clone(), new)
                    })
                    .collect(),
            ),
            Json::Arr(items) => {
                // Only the first element (first result / first section)
                // is on the perturbation path.
                let mut out: Vec<Json> = items.to_vec();
                if let Some(first) = out.first_mut() {
                    *first = splice(first, replacement);
                }
                Json::Arr(out)
            }
            other => other.clone(),
        }
    }
    (
        splice(doc, &perturbed_rows),
        original.expect("a nonzero metric to perturb"),
    )
}

#[test]
fn golden_campaign_output_and_compare_fixture() {
    let suite = Suite::load(preset_path("paper_grid")).expect("paper_grid loads");
    let campaign = run_suite(&suite, &CampaignOptions::default()).expect("paper_grid runs");
    check_golden_file("paper_grid.txt", &campaign.to_text());
    check_golden_file("paper_grid.csv", &campaign.to_csv());
    let doc = campaign.to_json();
    check_golden_file("paper_grid.json", &(doc.pretty() + "\n"));

    // Identical documents compare clean at zero tolerance.
    let clean = compare_campaigns(&doc, &doc, 0.0, "golden", "golden").expect("compare runs");
    assert_eq!(clean.differences, 0, "\n{}", clean.report.to_text());

    // A single metric perturbed by 10% must be the one and only finding
    // at 5% tolerance...
    let (perturbed, original) = perturb_first_metric(&doc, 1.1);
    check_golden_file("paper_grid_perturbed.json", &(perturbed.pretty() + "\n"));
    let outcome =
        compare_campaigns(&doc, &perturbed, 0.05, "golden", "perturbed").expect("compare runs");
    assert_eq!(
        outcome.differences,
        1,
        "expected exactly the perturbed cell (original {original}):\n{}",
        outcome.report.to_text()
    );
    check_golden_file("paper_grid_compare.txt", &outcome.report.to_text());

    // ...and disappears inside a generous tolerance.
    let tolerant =
        compare_campaigns(&doc, &perturbed, 0.2, "golden", "perturbed").expect("compare runs");
    assert_eq!(tolerant.differences, 0);
}
