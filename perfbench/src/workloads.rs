//! The three workloads, their untraced (end-to-end) and traced
//! (per-layer) runs, and the output checks that feed the error count.
//!
//! Every workload is a closed batch: one scenario or suite is submitted
//! and the benchmark waits for its report before submitting the next
//! batch. Each batch gets a fresh `OpPointCache` and, for campaigns, a
//! fresh cache directory, so no timed batch is served from an earlier
//! batch's memo. `run_scenario` (which memoizes through the process-wide
//! cache) is never timed.

use crate::inputs::{self, SuiteShape};
use crate::stats::{median, ratio, summarize, Tracer};
use coopckpt::campaign::{
    cache_key, compare_campaigns, run_suite_with, CampaignOptions, ResultCache, Suite,
};
use coopckpt::experiments::run_scenario_with_cache;
use coopckpt::montecarlo::{run_all, MonteCarloConfig, OpPointCache};
use coopckpt::report::OutputFormat;
use coopckpt::scenario::{Scenario, WorkloadSource};
use coopckpt::sim::{run_simulation, FailureModel, PowerModel, SimConfig, SimResult};
use coopckpt::strategy::{CheckpointPolicy, Strategy};
use coopckpt_des::Time;
use coopckpt_failure::{FailureTrace, Xoshiro256pp};
use coopckpt_obs::{Counter, Hist, Snapshot};
use coopckpt_stats::Category;
use coopckpt_theory::{lower_bound, ClassParams};
use coopckpt_workload::{JobStream, TraceClasses, TraceSpec, WorkloadSpec};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The benchmark's workloads (see `BENCHMARK.json` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperPoint,
    TraceStream,
    CampaignResume,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperPoint,
        Workload::TraceStream,
        Workload::CampaignResume,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperPoint => "paper_point",
            Workload::TraceStream => "trace_stream",
            Workload::CampaignResume => "campaign_resume",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Problem sizes. [`Sizes::full`] is the benchmark; [`Sizes::smoke`] is
/// a seconds-long version of every workload for the test suite.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// `paper_point` span (the paper's Section-5 instance: 60 days).
    pub paper_span_days: f64,
    /// `paper_point` instances per batch.
    pub paper_samples: usize,
    /// `trace_stream` job-log length.
    pub trace_jobs: usize,
    pub trace_span_days: f64,
    /// `trace_stream` instances per batch.
    pub trace_samples: usize,
    /// `campaign_resume` suite shape.
    pub suite: SuiteShape,
    /// Traced run: set-up repetitions per layer (their median is reported).
    pub setup_reps: usize,
    /// Least warm re-runs per batch.
    pub warm_reps: usize,
    /// Batches run even when `--seconds` has already elapsed.
    pub min_batches: usize,
    /// Traced run: most instance pairs timed with and without metering.
    pub energy_pairs: usize,
    /// Traced run: most instances in the 1-thread vs all-thread batch.
    pub exec_instances: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            paper_span_days: 60.0,
            // Short batches: warm rounds follow every batch, so warm work
            // is sampled at many moments of the run.
            paper_samples: 128,
            trace_jobs: 100_000,
            trace_span_days: 45.0,
            trace_samples: 4,
            suite: SuiteShape {
                bandwidths: 3,
                mtbfs: 4,
                // Long enough that simulation, not the cache's file
                // writes, dominates a cold point.
                span_days: 6.0,
                samples: 4,
            },
            setup_reps: 9,
            warm_reps: 5,
            min_batches: 3,
            energy_pairs: 32,
            exec_instances: 64,
        }
    }

    #[cfg(test)]
    pub fn smoke() -> Sizes {
        Sizes {
            paper_span_days: 4.0,
            paper_samples: 4,
            trace_jobs: 5_000,
            trace_span_days: 3.0,
            trace_samples: 2,
            suite: SuiteShape {
                bandwidths: 1,
                mtbfs: 1,
                span_days: 0.5,
                samples: 1,
            },
            setup_reps: 2,
            warm_reps: 2,
            min_batches: 1,
            energy_pairs: 2,
            exec_instances: 4,
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run produced: its metrics and its output-check tally.
#[derive(Debug)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Output checks made.
    pub attempted: u64,
    /// Descriptions of the checks that failed.
    pub failures: Vec<String>,
}

/// Output checks: each call is one attempt; failures keep their reason.
#[derive(Debug, Default)]
struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The generated input files of one run.
struct Inputs {
    kind: Workload,
    /// The run's private work directory.
    dir: PathBuf,
    /// The scenario (or suite) file handed to the program.
    spec: PathBuf,
    threads: usize,
    warm_reps: usize,
}

fn prepare(
    kind: Workload,
    seed: u64,
    sizes: &Sizes,
    dir: &Path,
    threads: usize,
) -> Result<Inputs, String> {
    let spec = dir.join(match kind {
        Workload::CampaignResume => "suite.json",
        _ => "scenario.json",
    });
    let text = match kind {
        Workload::PaperPoint => {
            inputs::paper_point_scenario(seed, sizes.paper_span_days, sizes.paper_samples, threads)
        }
        Workload::TraceStream => {
            let csv = dir.join("jobs.csv");
            inputs::write_trace_csv(&csv, seed, sizes.trace_jobs).map_err(err)?;
            let csv = csv.to_str().ok_or("work directory is not valid UTF-8")?;
            inputs::trace_scenario(
                seed,
                csv,
                sizes.trace_span_days,
                sizes.trace_samples,
                threads,
            )
        }
        Workload::CampaignResume => {
            let mut strategies: Vec<String> = Strategy::all_seven()
                .iter()
                .map(Strategy::spec_name)
                .collect();
            strategies.push(Strategy::tiered(CheckpointPolicy::Daly).spec_name());
            inputs::campaign_suite(seed, &strategies, &sizes.suite)
        }
    };
    std::fs::write(&spec, text).map_err(err)?;
    Ok(Inputs {
        kind,
        dir: dir.to_path_buf(),
        spec,
        threads,
        warm_reps: sizes.warm_reps,
    })
}

/// One operating point, compiled.
struct Point {
    scenario: Scenario,
    config: SimConfig,
}

/// A workload after set-up: one scenario, or a suite and its points.
#[allow(clippy::large_enum_variant)] // one value per run
enum Loaded {
    Single(Point),
    Suite { suite: Suite, points: Vec<Point> },
}

impl Loaded {
    fn points(&self) -> &[Point] {
        match self {
            Loaded::Single(p) => std::slice::from_ref(p),
            Loaded::Suite { points, .. } => points,
        }
    }
}

/// What the user-visible set-up yields.
#[allow(clippy::large_enum_variant)] // one value per run
enum SetUp {
    Single(Point),
    Suite(Suite, Vec<Scenario>),
}

/// The user-visible set-up, as the `run` and `suite` commands do it:
/// load the file, compile it (`into_config`, which scans a trace
/// workload; `Suite::expand` validates every point the same way) and, for
/// a campaign, open the cache directory.
fn set_up(inputs: &Inputs, cache_dir: &Path) -> Result<SetUp, String> {
    match inputs.kind {
        Workload::CampaignResume => {
            let suite = Suite::load(&inputs.spec).map_err(err)?;
            let scenarios = suite.expand().map_err(err)?;
            ResultCache::new(cache_dir).map_err(err)?;
            Ok(SetUp::Suite(suite, scenarios))
        }
        _ => {
            let scenario = Scenario::load(&inputs.spec).map_err(err)?;
            let config = scenario.into_config().map_err(err)?;
            Ok(SetUp::Single(Point { scenario, config }))
        }
    }
}

/// Compiles suite points to configs (the benchmark's own bookkeeping for
/// the output checks, kept out of the set-up time).
fn compile(set_up: SetUp) -> Result<Loaded, String> {
    match set_up {
        SetUp::Single(p) => Ok(Loaded::Single(p)),
        SetUp::Suite(suite, scenarios) => Ok(Loaded::Suite {
            suite,
            points: compile_points(&scenarios)?,
        }),
    }
}

fn compile_points(scenarios: &[Scenario]) -> Result<Vec<Point>, String> {
    scenarios
        .iter()
        .map(|sc| {
            Ok(Point {
                scenario: sc.clone(),
                config: sc.into_config().map_err(err)?,
            })
        })
        .collect()
}

/// Whether a repeated measurement has enough samples: at least
/// `min_reps`, and at least `min_total_s` of measured time (so
/// microsecond-scale steps still get a stable estimate), up to a cap.
fn enough(times: &[f64], min_reps: usize, min_total_s: f64) -> bool {
    times.len() >= 10_000
        || (times.len() >= min_reps.max(1) && times.iter().sum::<f64>() >= min_total_s)
}

/// One round of concurrent calls: each of `clients` threads calls
/// `f(client, call)` in a closed loop (its next call when its last one
/// returns) until `round_s` has passed. Returns the round's wall seconds,
/// the calls completed, and the sum of their results.
///
/// Repeated steps run this way, never on one thread: a single thread's
/// speed on a shared host swings about 1.5× with the core it lands on,
/// while a load on every core reads steadily.
fn round(
    clients: usize,
    round_s: f64,
    f: impl Fn(usize, usize) -> Result<usize, String> + Sync,
) -> Result<(f64, usize, usize), String> {
    let t = Instant::now();
    let f = &f;
    let per_client = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients.max(1))
            .map(|c| {
                s.spawn(move || -> Result<(usize, usize), String> {
                    let (mut calls, mut sum) = (0, 0);
                    while calls == 0 || secs(t) < round_s {
                        sum += f(c, calls)?;
                        calls += 1;
                    }
                    Ok((calls, sum))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("round client panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let wall_s = secs(t);
    let (calls, sum) = per_client
        .iter()
        .fold((0, 0), |(n, s), &(c, x)| (n + c, s + x));
    Ok((wall_s, calls, sum))
}

/// One block of set-up rounds (see [`round`], [`enough`]): appends each
/// round's wall seconds per set-up completed to `times`.
fn set_up_block(inputs: &Inputs, times: &mut Vec<f64>) -> Result<(), String> {
    let mut walls = Vec::new();
    while !enough(&walls, 3, SETUP_BLOCK_S) {
        let tag = times.len();
        let (wall_s, calls, _) = round(inputs.threads, SETUP_ROUND_S, |c, i| {
            let cache_dir = inputs.dir.join(format!("setup-cache-{tag}-{c}-{i}"));
            let s = set_up(inputs, &cache_dir);
            let _ = std::fs::remove_dir_all(&cache_dir);
            s.map(|_| 0)
        })?;
        walls.push(wall_s);
        times.push(wall_s / calls as f64);
    }
    Ok(())
}

/// Least measured time in one block of (at least three) set-up rounds. A
/// block runs before every batch, so set-up is sampled across the whole
/// run.
const SETUP_BLOCK_S: f64 = 0.03;
/// Least wall time of one set-up round.
const SETUP_ROUND_S: f64 = 0.01;
/// Least measured time of a batch's warm re-runs.
const WARM_MIN_TOTAL_S: f64 = 0.05;
/// Least wall time of one round of warm re-runs of a single scenario.
const WARM_ROUND_S: f64 = 0.05;

/// What the campaign layer did in one cold + warm pass.
struct CampaignStats {
    /// Per-point wall times, ms, from the runner's `on_done` callbacks.
    point_ms: Vec<f64>,
    points: usize,
    /// Points the last warm pass served from disk.
    hits: usize,
    cache_bytes: u64,
    compare_s: f64,
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Runs `suite` cold into a fresh cache directory, then `warm_reps` times
/// warm from it (each with a fresh operating-point cache, so every warm
/// point must come from disk), and diffs cold against warm.
fn campaign_pass(
    suite: &Suite,
    dir: &Path,
    threads: usize,
    warm_reps: usize,
    checks: &mut Checks,
) -> Result<Batch, String> {
    let _ = std::fs::remove_dir_all(dir);
    let op = Arc::new(OpPointCache::new());
    let opts = CampaignOptions {
        threads,
        cache: Some(ResultCache::new(dir).map_err(err)?),
        op_cache: Some(Arc::clone(&op)),
    };
    // Point wall times: `on_done` reports whole milliseconds, too coarse
    // for millisecond points, so each point is timed as the interval
    // since the previous `on_done` on the same worker (or the pass start)
    // — a worker claims its next point right after reporting one.
    let laps = Mutex::new((HashMap::new(), Vec::new()));
    let t = Instant::now();
    let cold = run_suite_with(suite, &opts, |_, _, _| {
        let now = Instant::now();
        let mut guard = laps.lock().expect("point-time lock");
        let (last, point_ms) = &mut *guard;
        let prev = last.insert(std::thread::current().id(), now).unwrap_or(t);
        point_ms.push(now.duration_since(prev).as_secs_f64() * 1e3);
    })
    .map_err(err)?;
    let output = cold.render(OutputFormat::Json);
    let cold_s = secs(t);
    let points = cold.entries.len();
    checks.check(cold.cached_points() == 0, || {
        format!(
            "cold campaign served {} points from a fresh cache",
            cold.cached_points()
        )
    });
    checks.check(op.len() == points, || {
        format!("op-cache misses {} != points simulated {points}", op.len())
    });
    let cache_bytes = dir_bytes(dir);

    let mut warm_s = Vec::new();
    let mut last_warm = None;
    while !enough(&warm_s, warm_reps, WARM_MIN_TOTAL_S) {
        let warm_op = Arc::new(OpPointCache::new());
        let opts = CampaignOptions {
            threads,
            cache: Some(ResultCache::new(dir).map_err(err)?),
            op_cache: Some(Arc::clone(&warm_op)),
        };
        let t = Instant::now();
        let warm = run_suite_with(suite, &opts, |_, _, _| {}).map_err(err)?;
        let again = warm.render(OutputFormat::Json);
        warm_s.push(secs(t));
        checks.check(again == output, || {
            "warm merged output is not byte-identical to cold".into()
        });
        checks.check(warm.cached_points() == points, || {
            format!("warm run hit {} of {points} points", warm.cached_points())
        });
        checks.check(warm_op.is_empty(), || {
            format!("warm run simulated {} points", warm_op.len())
        });
        last_warm = Some(warm);
    }
    let warm = last_warm.expect("at least one warm pass");
    let t = Instant::now();
    let diff =
        compare_campaigns(&cold.to_json(), &warm.to_json(), 0.0, "cold", "warm").map_err(err)?;
    let compare_s = secs(t);
    checks.check(diff.differences == 0, || {
        format!(
            "compare_campaigns found {} cold/warm differences",
            diff.differences
        )
    });
    Ok(Batch {
        cold_s,
        warm_s,
        output,
        op,
        campaign: Some(CampaignStats {
            point_ms: laps.into_inner().expect("point-time lock").1,
            points,
            hits: warm.cached_points(),
            cache_bytes,
            compare_s,
        }),
    })
}

/// One closed batch: the workload's scenario (or suite) run cold, then
/// warm. Single scenarios go through `run_scenario_with_cache`; warm
/// re-runs hit the batch's own `OpPointCache` in concurrent rounds.
struct Batch {
    cold_s: f64,
    /// Wall seconds per warm pass over all points (for a single scenario,
    /// a round's wall time per request served).
    warm_s: Vec<f64>,
    output: String,
    op: Arc<OpPointCache>,
    campaign: Option<CampaignStats>,
}

fn run_batch(
    loaded: &Loaded,
    inputs: &Inputs,
    tag: &str,
    checks: &mut Checks,
) -> Result<Batch, String> {
    match loaded {
        Loaded::Single(p) => {
            let op = Arc::new(OpPointCache::new());
            let t = Instant::now();
            let report = run_scenario_with_cache(&p.scenario, &op).map_err(err)?;
            let output = report.render(OutputFormat::Json);
            let cold_s = secs(t);
            let (mut warm_s, mut walls) = (Vec::new(), Vec::new());
            while !enough(&walls, inputs.warm_reps, WARM_MIN_TOTAL_S) {
                let (wall_s, calls, differ) = round(inputs.threads, WARM_ROUND_S, |_, _| {
                    let again = run_scenario_with_cache(&p.scenario, &op)
                        .map_err(err)?
                        .render(OutputFormat::Json);
                    Ok(usize::from(again != output))
                })?;
                walls.push(wall_s);
                warm_s.push(wall_s / calls as f64);
                checks.check(differ == 0, || {
                    format!("{differ} of {calls} warm reports differ from cold")
                });
            }
            checks.check(op.len() == 1, || {
                format!("op-cache misses {} != points simulated 1", op.len())
            });
            Ok(Batch {
                cold_s,
                warm_s,
                output,
                op,
                campaign: None,
            })
        }
        Loaded::Suite { suite, .. } => {
            let dir = inputs.dir.join(format!("cache-{tag}"));
            let batch = campaign_pass(suite, &dir, inputs.threads, inputs.warm_reps, checks);
            let _ = std::fs::remove_dir_all(&dir);
            batch
        }
    }
}

/// The work a batch did, counted from its results.
#[derive(Debug, Clone, Copy)]
struct Tally {
    points: f64,
    instances: f64,
    /// Jobs fed to the engine: the generated job list of a batch instance
    /// (its `peak_live_jobs`, since everything is admitted at t = 0), or
    /// the trace rows inside the horizon for a streamed instance.
    jobs: f64,
}

/// Trace rows submitted inside the scenario's horizon (the validation
/// scan's count).
fn trace_rows(p: &Point) -> Result<usize, String> {
    let WorkloadSource::Trace(spec) = &p.scenario.workload else {
        return Ok(0);
    };
    let spec = TraceSpec::parse(spec).map_err(err)?;
    let horizon = Time::ZERO + p.config.span;
    Ok(TraceClasses::scan_spec(&spec, &p.config.platform, horizon)
        .map_err(err)?
        .jobs)
}

/// Checks every point's instances (read back through the batch's
/// operating-point cache, which must serve them without simulating) and
/// counts the batch's work.
fn verify(
    kind: Workload,
    loaded: &Loaded,
    op: &OpPointCache,
    rows: usize,
    checks: &mut Checks,
) -> Tally {
    let mut tally = Tally {
        points: 0.0,
        instances: 0.0,
        jobs: 0.0,
    };
    let memoized = op.len();
    for p in loaded.points() {
        let results = op.run_all(&p.config, &p.scenario.mc());
        let samples = p.scenario.samples;
        checks.check(results.len() == samples, || {
            format!("{} instances returned, {samples} requested", results.len())
        });
        checks.check(
            results.iter().all(|r| (0.0..=1.0).contains(&r.waste_ratio)),
            || "a waste ratio lies outside [0, 1]".into(),
        );
        tally.points += 1.0;
        tally.instances += results.len() as f64;
        for r in results.iter() {
            tally.jobs += if rows > 0 {
                rows as f64
            } else {
                r.peak_live_jobs as f64
            };
        }
        match kind {
            Workload::PaperPoint => check_bound(p, &results, checks),
            Workload::TraceStream => check_projects(&results, rows, checks),
            Workload::CampaignResume => checks
                .check(results.iter().all(|r| r.energy.is_some()), || {
                    "a metered point carries no energy summary".into()
                }),
        }
    }
    checks.check(op.len() == memoized, || {
        "reading the batch back simulated again".into()
    });
    tally
}

/// The mean waste brackets the Theorem-1 bound within the tolerances of
/// the repository's `theory_vs_sim` suite (above `0.85 × bound`, below
/// `3 × bound + 0.02`), widened by three standard errors of the mean so a
/// correct simulator passes at any seed.
fn check_bound(p: &Point, results: &[SimResult], checks: &mut Checks) {
    let params: Vec<ClassParams> = p
        .config
        .classes
        .iter()
        .map(|c| ClassParams::from_app_class(c, &p.config.platform))
        .collect();
    let bound = lower_bound(&p.config.platform, &params).waste;
    let n = results.len() as f64;
    let mean = results.iter().map(|r| r.waste_ratio).sum::<f64>() / n;
    let var = results
        .iter()
        .map(|r| (r.waste_ratio - mean).powi(2))
        .sum::<f64>()
        / (n - 1.0).max(1.0);
    let se3 = 3.0 * (var / n).sqrt();
    checks.check(mean + se3 >= 0.85 * bound, || {
        format!("mean waste {mean:.4} sits far below the Theorem-1 bound {bound:.4}")
    });
    checks.check(mean - se3 <= 3.0 * bound + 0.02, || {
        format!("mean waste {mean:.4} fails to track the Theorem-1 bound {bound:.4}")
    });
}

/// Project rows fold to the totals bit-exactly, the totals match the
/// platform ledger, and the stream never held the whole log.
fn check_projects(results: &[SimResult], rows: usize, checks: &mut Checks) {
    for r in results {
        let Some(projects) = &r.projects else {
            checks.check(false, || {
                "a trace instance carries no project ledger".into()
            });
            continue;
        };
        let totals = projects.totals();
        for cat in Category::ALL {
            let mut fold = 0.0;
            for (_, ledger) in projects.iter() {
                fold += ledger.get(cat);
            }
            checks.check(fold == totals.get(cat), || {
                format!(
                    "{}: project rows sum to {fold}, totals say {}",
                    cat.label(),
                    totals.get(cat)
                )
            });
            let platform = r
                .breakdown
                .iter()
                .find(|(label, _)| *label == cat.label())
                .map_or(0.0, |(_, v)| *v);
            checks.check(
                (totals.get(cat) - platform).abs() <= 1e-9 * platform.abs() + 1e-6,
                || {
                    format!(
                        "{}: project totals {} vs platform {platform}",
                        cat.label(),
                        totals.get(cat)
                    )
                },
            );
        }
        checks.check(r.peak_live_jobs as usize * 10 <= rows, || {
            format!(
                "peak live jobs {} is not far below the {rows}-row trace",
                r.peak_live_jobs
            )
        });
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

// ----- the untraced run: end-to-end metrics --------------------------------

/// Set-up, then closed batches until `seconds` have passed (at least
/// `sizes.min_batches`). Telemetry stays off.
pub fn run_untraced(
    kind: Workload,
    seed: u64,
    seconds: f64,
    sizes: &Sizes,
    dir: &Path,
    threads: usize,
) -> Result<Outcome, String> {
    let inputs = prepare(kind, seed, sizes, dir, threads)?;
    let mut checks = Checks::default();
    let cache_dir = inputs.dir.join("setup-cache");
    let loaded = compile(set_up(&inputs, &cache_dir)?)?;
    let _ = std::fs::remove_dir_all(&cache_dir);
    let rows = trace_rows(&loaded.points()[0])?;

    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let (mut setup_s, mut cold_s, mut warm_s) = (vec![], vec![], vec![]);
    let mut first: Option<(String, Tally)> = None;
    let mut b = 0usize;
    while b < sizes.min_batches || Instant::now() < deadline {
        set_up_block(&inputs, &mut setup_s)?;
        let batch = run_batch(&loaded, &inputs, &b.to_string(), &mut checks)?;
        match &first {
            None => {
                let tally = verify(kind, &loaded, &batch.op, rows, &mut checks);
                first = Some((batch.output.clone(), tally));
            }
            Some((output, _)) => checks.check(&batch.output == output, || {
                format!("batch {b} output differs from batch 0 at the same inputs")
            }),
        }
        eprintln!(
            "  batch {b}: cold {:.4} s, warm {:.6} s (median of {})",
            batch.cold_s,
            median(&batch.warm_s),
            batch.warm_s.len()
        );
        cold_s.push(batch.cold_s);
        warm_s.extend(batch.warm_s);
        b += 1;
    }
    let tally = first.expect("at least one batch").1;
    let (cold, warm, setup) = (median(&cold_s), median(&warm_s), median(&setup_s));
    eprintln!(
        "  medians: cold {cold:.4} s of {b}, warm {warm:.6} s of {}, set-up {setup:.6} s of {}",
        warm_s.len(),
        setup_s.len()
    );
    Ok(Outcome {
        metrics: vec![
            metric("setup_s", setup, "s"),
            metric("instances_per_s", tally.instances / cold, "1/s"),
            metric("jobs_per_s", tally.jobs / cold, "1/s"),
            metric("cold_points_per_s", tally.points / cold, "1/s"),
            metric("warm_points_per_s", tally.points / warm, "1/s"),
            metric("peak_rss_mb", peak_rss_mb(), "MB"),
        ],
        attempted: checks.attempted,
        failures: checks.failures,
    })
}

// ----- the traced run: per-layer metrics -----------------------------------

/// Runs `f` in a span named `name` and returns its value and wall
/// seconds.
fn timed<T>(tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    tr.span(name, |_| {
        let t = Instant::now();
        let v = f();
        (v, secs(t))
    })
}

/// Median of `reps` timed repetitions of `f` (each its own span), in
/// seconds, plus the last repetition's value.
fn timed_reps<T>(
    tr: &mut Tracer,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let (v, s) = timed(tr, name, &mut f);
        times.push(s);
        last = Some(v?);
    }
    Ok((last.expect("at least one repetition"), median(&times)))
}

fn counter(a: &Snapshot, b: &Snapshot, c: Counter) -> f64 {
    (b.counter(c) - a.counter(c)) as f64
}

/// Mean observation of a histogram between two snapshots, and the
/// observation count (its base).
fn hist_mean(a: &Snapshot, b: &Snapshot, h: Hist) -> (f64, f64) {
    let n = (b.hist(h).count - a.hist(h).count) as f64;
    let sum = (b.hist(h).sum - a.hist(h).sum) as f64;
    (ratio(sum, n), n)
}

/// The run's instances: every point's seeds, in order.
fn instances(loaded: &Loaded) -> Vec<(usize, u64)> {
    loaded
        .points()
        .iter()
        .enumerate()
        .flat_map(|(i, p)| (0..p.scenario.samples as u64).map(move |k| (i, p.scenario.seed + k)))
        .collect()
}

/// The per-instance workload construction `run_simulation` performs:
/// `WorkloadSpec::generate` for a generated workload, `JobStream::open`
/// for a streamed one. Returns seconds.
fn time_workload_gen(config: &SimConfig, seed: u64) -> Result<f64, String> {
    if let Some(source) = &config.workload_source {
        let spec = TraceSpec::parse(source).map_err(err)?;
        let classes = TraceClasses::from_classes(&config.classes);
        let t = Instant::now();
        let stream = JobStream::open(&spec, &classes, &config.platform, Time::ZERO + config.span)
            .map_err(err)?;
        black_box(stream);
        return Ok(secs(t));
    }
    let mut master = Xoshiro256pp::seed_from_u64(seed);
    let mut workload_rng = master.split();
    let t = Instant::now();
    let spec = WorkloadSpec::new(config.classes.clone())
        .with_min_span(config.span * config.workload_slack.max(1.0));
    black_box(spec.generate(&config.platform, &mut workload_rng));
    Ok(secs(t))
}

/// `FailureTrace::generate_mixed` on the instance's failure substream, as
/// the engine draws it. Returns seconds.
fn time_failure_gen(config: &SimConfig, seed: u64) -> f64 {
    let mut master = Xoshiro256pp::seed_from_u64(seed);
    let _workload_rng = master.split();
    let mut failure_rng = master.split();
    let classes = if config.failure_classes.is_empty() {
        coopckpt_failure::system_only()
    } else {
        config.failure_classes.clone()
    };
    let shape = match config.failures {
        FailureModel::Exponential => None,
        FailureModel::Weibull(k) => Some(k),
        FailureModel::None => return 0.0,
    };
    let t = Instant::now();
    black_box(FailureTrace::generate_mixed(
        &mut failure_rng,
        config.platform.nodes,
        config.platform.node_mtbf,
        shape,
        &classes,
        Time::ZERO + config.span,
    ));
    secs(t)
}

/// The traced run: every layer timed from outside, around calls to its
/// public functions, plus the `coopckpt-obs` counters over one traced
/// batch. Does a fixed amount of work, so counts repeat exactly.
pub fn run_traced(
    kind: Workload,
    seed: u64,
    sizes: &Sizes,
    dir: &Path,
    threads: usize,
) -> Result<Outcome, String> {
    let inputs = prepare(kind, seed, sizes, dir, threads)?;
    let mut checks = Checks::default();
    let mut tr = Tracer::default();
    let mut metrics = tr.span("bench.traced", |tr| {
        traced_layers(tr, &inputs, sizes, &mut checks)
    })?;
    let (closure, wall_s) = tr.closure();
    eprintln!("  layer profile (self time, share of the traced wall):");
    for (name, s) in tr.self_times() {
        eprintln!(
            "    {name:<28} {:>10.3} ms {:>7.2}%",
            s * 1e3,
            100.0 * ratio(s, wall_s)
        );
    }
    metrics.push(metric("bench.closure", closure, "ratio"));
    metrics.push(metric("bench.traced_wall_ms", wall_s * 1e3, "ms"));
    Ok(Outcome {
        metrics,
        attempted: checks.attempted,
        failures: checks.failures,
    })
}

fn traced_layers(
    tr: &mut Tracer,
    inputs: &Inputs,
    sizes: &Sizes,
    checks: &mut Checks,
) -> Result<Vec<Metric>, String> {
    let reps = sizes.setup_reps;
    let threads = inputs.threads;
    let spec = inputs.spec.clone();

    // Set-up layers: load, compile (expand for a suite), workload scan.
    let (loaded, load_s, expand_s, into_config_s) = match inputs.kind {
        Workload::CampaignResume => {
            let (suite, load_s) = timed_reps(tr, "scenario.load", reps, || {
                Suite::load(&spec).map_err(err)
            })?;
            let (scenarios, expand_s) =
                timed_reps(tr, "campaign.expand", reps, || suite.expand().map_err(err))?;
            let (points, into_config_s) = timed_reps(tr, "scenario.into_config", reps, || {
                compile_points(&scenarios)
            })?;
            (
                Loaded::Suite { suite, points },
                load_s,
                expand_s,
                into_config_s,
            )
        }
        _ => {
            let (scenario, load_s) = timed_reps(tr, "scenario.load", reps, || {
                Scenario::load(&spec).map_err(err)
            })?;
            let (config, into_config_s) = timed_reps(tr, "scenario.into_config", reps, || {
                scenario.into_config().map_err(err)
            })?;
            // The campaign layer's view of the same file: a one-point suite.
            let one = Suite::load(&spec).map_err(err)?;
            let (_, expand_s) =
                timed_reps(tr, "campaign.expand", reps, || one.expand().map_err(err))?;
            (
                Loaded::Single(Point { scenario, config }),
                load_s,
                expand_s,
                into_config_s,
            )
        }
    };
    let points = loaded.points();

    // Workload resolution: the trace scan for a job log, the class table
    // (APEX Table 1) otherwise.
    let (rows, scan_s) = timed_reps(tr, "workload.trace_scan", reps, || {
        let mut rows = 0;
        for p in points {
            match &p.scenario.workload {
                WorkloadSource::Trace(_) => rows += trace_rows(p)?,
                _ => {
                    black_box(
                        p.scenario
                            .resolve_classes(&p.config.platform)
                            .map_err(err)?,
                    );
                }
            }
        }
        Ok(rows)
    })?;

    // Stream throughput: `JobStream` drained without the engine.
    let mut rows_per_s = 0.0;
    if rows > 0 {
        let p = &points[0];
        let source = p.config.workload_source.as_deref().unwrap_or_default();
        let (drained, s) = timed(tr, "workload.trace_rows", || -> Result<usize, String> {
            let spec = TraceSpec::parse(source).map_err(err)?;
            let classes = TraceClasses::from_classes(&p.config.classes);
            let mut stream = JobStream::open(
                &spec,
                &classes,
                &p.config.platform,
                Time::ZERO + p.config.span,
            )
            .map_err(err)?;
            let mut n = 0usize;
            while let Some(job) = stream.next_submission() {
                black_box(job);
                n += 1;
            }
            Ok(n)
        });
        let drained = drained?;
        checks.check(drained == rows, || {
            format!("JobStream yielded {drained} rows, the scan counted {rows}")
        });
        rows_per_s = ratio(drained as f64, s);
    }

    // Per-instance generation at the run's seeds.
    let insts = instances(&loaded);
    let (gen, _) = timed(tr, "workload.generate", || {
        insts
            .iter()
            .map(|&(i, seed)| time_workload_gen(&points[i].config, seed))
            .collect::<Result<Vec<f64>, String>>()
    });
    let gen = gen?;
    let (fail, _) = timed(tr, "failure.trace_gen", || {
        insts
            .iter()
            .map(|&(i, seed)| time_failure_gen(&points[i].config, seed))
            .collect::<Vec<f64>>()
    });

    // Single-threaded instances: timing, exact event counts.
    let ((inst_s, events, peak_live), _) = timed(tr, "sim.instances", || {
        let mut times = Vec::with_capacity(insts.len());
        let (mut events, mut peak) = (0u64, 0u64);
        for &(i, seed) in &insts {
            let t = Instant::now();
            let r = run_simulation(&points[i].config, seed);
            times.push(secs(t));
            events += r.events;
            peak = peak.max(r.peak_live_jobs);
        }
        (times, events, peak)
    });
    let inst_sum: f64 = inst_s.iter().sum();
    let gen_sum: f64 = gen.iter().sum::<f64>() + fail.iter().sum::<f64>();
    let inst = summarize(&inst_s);

    // Energy metering: the same instances with and without a power model.
    let pairs: Vec<(usize, u64)> = insts.iter().copied().take(sizes.energy_pairs).collect();
    let ((metered_s, plain_s), _) = timed(tr, "energy.pairs", || {
        let (mut metered_s, mut plain_s) = (0.0, 0.0);
        for (k, &(i, seed)) in pairs.iter().enumerate() {
            let base = &points[i].config;
            let mut metered = base.clone();
            metered.power = Some(base.power.unwrap_or_else(PowerModel::cielo));
            let mut plain = base.clone();
            plain.power = None;
            let run = |config: &SimConfig, acc: &mut f64| {
                let t = Instant::now();
                let r = run_simulation(config, seed);
                *acc += secs(t);
                r
            };
            // Alternate which side runs first.
            let (a, b) = if k % 2 == 0 {
                let a = run(&metered, &mut metered_s);
                (a, run(&plain, &mut plain_s))
            } else {
                let b = run(&plain, &mut plain_s);
                (run(&metered, &mut metered_s), b)
            };
            checks.check(
                a.waste_ratio == b.waste_ratio && a.events == b.events + 2,
                || "metering changed the simulated trajectory".into(),
            );
        }
        (metered_s, plain_s)
    });

    // Executor scaling: one batch at 1 thread, then at `threads`.
    let (one_s, all_s, batch_instances) = match &loaded {
        Loaded::Single(p) => {
            let n = p.scenario.samples.min(sizes.exec_instances);
            let mc = MonteCarloConfig::new(n).with_base_seed(p.scenario.seed);
            let (one, one_s) = timed(tr, "exec.one_thread", || {
                run_all(&p.config, &mc.clone().with_threads(1))
            });
            let (all, all_s) = timed(tr, "montecarlo.batch", || {
                run_all(&p.config, &mc.clone().with_threads(threads))
            });
            checks.check(
                one.iter()
                    .zip(&all)
                    .all(|(a, b)| a.waste_ratio == b.waste_ratio),
                || "thread count changed Monte-Carlo results".into(),
            );
            (one_s, all_s, n)
        }
        Loaded::Suite { suite, .. } => {
            let run = |threads: usize| -> Result<String, String> {
                let opts = CampaignOptions {
                    threads,
                    cache: None,
                    op_cache: Some(Arc::new(OpPointCache::new())),
                };
                Ok(run_suite_with(suite, &opts, |_, _, _| {})
                    .map_err(err)?
                    .render(OutputFormat::Json))
            };
            let (one, one_s) = timed(tr, "exec.one_thread", || run(1));
            let (all, all_s) = timed(tr, "montecarlo.batch", || run(threads));
            checks.check(one? == all?, || {
                "thread count changed campaign output".into()
            });
            (one_s, all_s, insts.len())
        }
    };

    // The workload's batch untraced, then with telemetry on.
    let (plain_batch, plain_s_batch) = timed(tr, "bench.batch_untraced", || {
        run_batch(&loaded, inputs, "untraced", checks)
    });
    let plain_batch = plain_batch?;
    coopckpt_obs::set_enabled(true);
    let before = coopckpt_obs::totals();
    let (traced_batch, traced_s_batch) = timed(tr, "bench.batch_traced", || {
        run_batch(&loaded, inputs, "traced", checks)
    });
    let after = coopckpt_obs::totals();
    coopckpt_obs::set_enabled(false);
    let traced_batch = traced_batch?;
    checks.check(traced_batch.output == plain_batch.output, || {
        "traced report is not byte-identical to the untraced one".into()
    });
    let tally = tr.span("bench.verify", |_| {
        verify(inputs.kind, &loaded, &traced_batch.op, rows, checks)
    });
    let misses = counter(&before, &after, Counter::OpCacheMisses);
    checks.check(misses == tally.points, || {
        format!(
            "op-cache misses {misses} != points simulated {}",
            tally.points
        )
    });

    // The campaign layer: the suite's own pass, or a one-point suite of
    // the scenario file for a single-scenario workload.
    let one_point;
    let camp_batch = if plain_batch.campaign.is_some() {
        &plain_batch
    } else {
        let one = Suite::load(&spec).map_err(err)?;
        let dir = inputs.dir.join("cache-one-point");
        let (batch, _) = timed(tr, "campaign.one_point", || {
            campaign_pass(&one, &dir, threads, inputs.warm_reps, checks)
        });
        one_point = batch?;
        &one_point
    };
    let camp = camp_batch.campaign.as_ref().expect("a campaign pass");
    let point = summarize(&camp.point_ms);
    let key_reps = 200usize.div_ceil(points.len()).max(1);
    let (_, key_s) = timed(tr, "campaign.cache_key", || {
        for _ in 0..key_reps {
            for p in points {
                black_box(cache_key(&p.scenario));
            }
        }
    });

    // Report rendering: each point's report in the three formats a
    // campaign entry stores.
    let (reports, _) = timed(tr, "report.build", || {
        points
            .iter()
            .map(|p| run_scenario_with_cache(&p.scenario, &plain_batch.op).map_err(err))
            .collect::<Result<Vec<_>, String>>()
    });
    let reports = reports?;
    let (bytes, render_s) = timed(tr, "report.render", || {
        reports
            .iter()
            .map(|r| {
                [OutputFormat::Json, OutputFormat::Text, OutputFormat::Csv]
                    .into_iter()
                    .map(|f| r.render(f).len())
                    .sum::<usize>()
            })
            .sum::<usize>()
    });

    eprintln!(
        "  prediction check: generation is {:.3}% of instance time (predicted < 5%); \
         rendering is {:.4}% of the batch (predicted < 1% on paper_point)",
        100.0 * ratio(gen_sum, inst_sum),
        100.0 * ratio(render_s, plain_batch.cold_s)
    );
    let (scan_words, allocs) = hist_mean(&before, &after, Hist::PoolScanWords);
    let (bucket_scans, _) = hist_mean(&before, &after, Hist::QueueBucketScans);
    let inserts = counter(&before, &after, Counter::QueueInserts);
    let absorbs = counter(&before, &after, Counter::TierAbsorbs);
    let cpu_ms = |c| counter(&before, &after, c) * 1e-6;
    let n_insts = insts.len() as f64;
    Ok(vec![
        metric("scenario.load_ms", load_s * 1e3, "ms"),
        metric("scenario.into_config_ms", into_config_s * 1e3, "ms"),
        metric("workload.trace_scan_ms", scan_s * 1e3, "ms"),
        metric("workload.trace_rows", rows as f64, "count"),
        metric("workload.trace_rows_per_s", rows_per_s, "1/s"),
        metric("workload.generate_us", median(&gen) * 1e6, "us"),
        metric("failure.trace_gen_us", median(&fail) * 1e6, "us"),
        metric("sim.instances", n_insts, "count"),
        metric("sim.instance_p50_ms", inst.median * 1e3, "ms"),
        metric("sim.instance_tail_ms", inst.tail * 1e3, "ms"),
        metric("sim.instance_tail_q", inst.tail_q, "ratio"),
        metric("sim.replay_share", 1.0 - ratio(gen_sum, inst_sum), "ratio"),
        metric("sim.events", events as f64, "count"),
        metric("sim.events_per_s", ratio(events as f64, inst_sum), "1/s"),
        metric("sim.peak_live_jobs", peak_live as f64, "count"),
        metric("des.inserts", inserts, "count"),
        metric(
            "des.pops",
            counter(&before, &after, Counter::QueuePops),
            "count",
        ),
        metric(
            "des.cancel_ratio",
            ratio(counter(&before, &after, Counter::QueueCancels), inserts),
            "ratio",
        ),
        metric("des.bucket_scan_mean", bucket_scans, "buckets"),
        metric(
            "des.resizes",
            counter(&before, &after, Counter::QueueResizes),
            "count",
        ),
        metric(
            "io.token_waits",
            counter(&before, &after, Counter::TokenWaits),
            "count",
        ),
        metric("io.tier_absorbs", absorbs, "count"),
        metric(
            "io.tier_drains",
            counter(&before, &after, Counter::TierDrains),
            "count",
        ),
        metric(
            "io.spill_ratio",
            ratio(counter(&before, &after, Counter::TierSpills), absorbs),
            "ratio",
        ),
        metric("sched.pool_allocs", allocs, "count"),
        metric("sched.pool_scan_words_mean", scan_words, "words"),
        metric("energy.pairs", pairs.len() as f64, "count"),
        metric(
            "energy.overhead_share",
            ratio(metered_s - plain_s, plain_s),
            "ratio",
        ),
        metric("exec.threads", threads as f64, "count"),
        metric(
            "montecarlo.batch_instances",
            batch_instances as f64,
            "count",
        ),
        metric("montecarlo.batch_ms", all_s * 1e3, "ms"),
        metric(
            "exec.scaling_eff",
            ratio(one_s, threads as f64 * all_s),
            "ratio",
        ),
        metric("report.render_ms", render_s * 1e3, "ms"),
        metric("report.bytes", bytes as f64, "bytes"),
        metric(
            "report.render_share",
            ratio(render_s, plain_batch.cold_s),
            "ratio",
        ),
        metric("campaign.points", camp.points as f64, "count"),
        metric("campaign.expand_ms", expand_s * 1e3, "ms"),
        metric(
            "campaign.cache_key_us",
            key_s * 1e6 / (key_reps * points.len()) as f64,
            "us",
        ),
        metric("campaign.cold_ms", camp_batch.cold_s * 1e3, "ms"),
        metric("campaign.warm_ms", median(&camp_batch.warm_s) * 1e3, "ms"),
        metric(
            "campaign.hit_ratio",
            ratio(camp.hits as f64, camp.points as f64),
            "ratio",
        ),
        metric("campaign.cache_bytes", camp.cache_bytes as f64, "bytes"),
        metric("campaign.compare_ms", camp.compare_s * 1e3, "ms"),
        metric("campaign.point_p50_ms", point.median, "ms"),
        metric("campaign.point_tail_ms", point.tail, "ms"),
        metric("campaign.point_tail_q", point.tail_q, "ratio"),
        metric("campaign.op_cache_misses", misses, "count"),
        metric(
            "obs.trace_gen_cpu_ms",
            cpu_ms(Counter::TraceGenNs),
            "cpu_ms",
        ),
        metric("obs.replay_cpu_ms", cpu_ms(Counter::ReplayNs), "cpu_ms"),
        metric("obs.sample_cpu_ms", cpu_ms(Counter::SampleNs), "cpu_ms"),
        metric(
            "obs.overhead_share",
            ratio(traced_s_batch - plain_s_batch, plain_s_batch),
            "ratio",
        ),
    ])
}
