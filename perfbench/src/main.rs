//! The coopckpt benchmark: three seeded workloads, end-to-end throughput
//! with output checks, and a traced per-layer profile.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_point|trace_stream|campaign_resume \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The benchmark writes its seeded inputs
//! (scenario, job log, suite) under `perfbench/work/`, runs closed
//! batches on `nproc` threads for `--seconds`, checks every output, and
//! prints one JSON line last: `{"correct", "attempted", "failed",
//! "metrics"}`. A `# stamp` line before it records the commit, source
//! fingerprint, host, nproc, threads, seed and workload. It exits 1 when
//! any output check fails (`failed / attempted` is the error rate; the
//! human summary on stderr prints it with its base).
//!
//! # Workloads
//!
//! * `paper_point` — Cielo, APEX Table 1, 40 GB/s, 60-day span,
//!   Least-Waste, flat PFS, no power model; Monte-Carlo batches through
//!   `run_scenario_with_cache`. The paper's unit of work: the engine
//!   replay dominates.
//! * `trace_stream` — a 100k-job CSV log written from the seed, 45-day
//!   span, `ordered-nb-daly-usage`, a few instances: the CSV reader,
//!   `JobStream`, `NodePool` and the project ledger; set-up holds the
//!   trace scan.
//! * `campaign_resume` — 192 points (7 paper strategies + `tiered-daly` ×
//!   3 bandwidths × 4 MTBFs × tiers {0, 3}, power model on), run cold into
//!   a fresh `ResultCache`, then warm from it. The seed jitters the
//!   bandwidth and MTBF values; the simulator seed is fixed, so every
//!   benchmark seed replays the same job-list and failure draws.
//!
//! # End-to-end metrics (`--trace 0`, telemetry off)
//!
//! | metric | unit | what |
//! |---|---|---|
//! | `setup_s` | s | load + `into_config` (trace scan included; `Suite::expand` for a suite) + cache-dir open, per set-up with `threads` clients setting up at once; input generation excluded |
//! | `instances_per_s` | 1/s | simulated instances per wall second of a cold batch |
//! | `jobs_per_s` | 1/s | jobs fed to the engine per wall second (trace rows streamed; generated jobs for APEX) |
//! | `cold_points_per_s` | 1/s | operating points simulated and reported per wall second |
//! | `warm_points_per_s` | 1/s | points served from cache per second: the on-disk `ResultCache` for the suite, the batch's `OpPointCache` (from `threads` concurrent clients) for a single scenario |
//! | `peak_rss_mb` | MB | peak resident set size (`VmHWM`) |
//!
//! Every batch of a run does identical work. Set-up is repeated in a
//! short block before every batch, and warm re-runs follow every cold
//! one, so all three are sampled across the whole run. Each end-to-end
//! time is the median of its samples; throughputs divide a batch's work
//! by it. Set-up and warm re-runs run as rounds of `threads` concurrent
//! clients, as cold work fills every core: a single thread's speed on a
//! shared host swings about 1.5× with the core it lands on. So `setup_s`
//! is a round's wall time per set-up completed: set-ups overlap, so it
//! reads below one set-up's latency. `bench.closure` is the
//! summed self time of every layer span under the traced run's root over
//! the root's wall time; the stderr layer profile lists each span.
//!
//! # Per-layer metrics (`--trace 1`), the layer, and what they should move
//!
//! | metric | layer | moves |
//! |---|---|---|
//! | `scenario.load_ms`, `scenario.into_config_ms` | scenario | `setup_s`, all workloads |
//! | `workload.trace_scan_ms` | workload (`TraceClasses::scan_spec`; `resolve_classes` for APEX) | `setup_s` on `trace_stream` |
//! | `workload.trace_rows`, `workload.trace_rows_per_s` | workload (`JobStream` drained alone) | `jobs_per_s` on `trace_stream` |
//! | `workload.generate_us`, `failure.trace_gen_us` | workload, failure (per instance) | `instances_per_s` on `paper_point` |
//! | `sim.instances`, `sim.instance_p50_ms`, `sim.instance_tail_ms`, `sim.instance_tail_q`, `sim.replay_share` | sim (single-threaded `run_simulation`) | `instances_per_s`, `jobs_per_s` |
//! | `sim.events`, `sim.events_per_s`, `sim.peak_live_jobs` | sim | `instances_per_s`, `jobs_per_s`; peak jobs → `peak_rss_mb` on `trace_stream` |
//! | `des.inserts`, `des.pops`, `des.cancel_ratio`, `des.bucket_scan_mean`, `des.resizes` | des | `instances_per_s` on `paper_point` |
//! | `io.token_waits` | io (PFS tokens) | `instances_per_s` on `paper_point` |
//! | `io.tier_absorbs`, `io.tier_drains`, `io.spill_ratio` | io (storage tiers) | `cold_points_per_s`; zero elsewhere |
//! | `sched.pool_allocs`, `sched.pool_scan_words_mean` | sched (`NodePool` bitset) | `jobs_per_s` on `trace_stream` |
//! | `energy.pairs`, `energy.overhead_share` | energy (metered vs unmetered, same seeds) | `cold_points_per_s` |
//! | `exec.threads`, `montecarlo.batch_instances`, `montecarlo.batch_ms`, `exec.scaling_eff` | montecarlo, exec | `instances_per_s`, `cold_points_per_s`; not `warm_points_per_s` |
//! | `report.render_ms`, `report.bytes`, `report.render_share` | report | `cold_points_per_s` |
//! | `campaign.points`, `campaign.expand_ms`, `campaign.cache_key_us`, `campaign.warm_ms`, `campaign.hit_ratio`, `campaign.cache_bytes`, `campaign.compare_ms` | campaign | `warm_points_per_s` |
//! | `campaign.cold_ms`, `campaign.point_p50_ms`, `campaign.point_tail_ms`, `campaign.point_tail_q`, `campaign.op_cache_misses` | campaign | `cold_points_per_s` |
//! | `obs.trace_gen_cpu_ms`, `obs.replay_cpu_ms`, `obs.sample_cpu_ms` | `coopckpt-obs` phase counters: thread-summed CPU ms, not wall time | — |
//! | `obs.overhead_share`, `bench.closure`, `bench.traced_wall_ms` | the traced run itself | — |
//!
//! Every layer metric is measured on every workload; a layer a workload
//! does not exercise reads zero (counts, ratios) or times its public call
//! on the workload's own input (a single scenario's campaign numbers come
//! from a one-point suite of its scenario file). Timings are reported as
//! a median plus the 11th-largest sample (`*_tail_*`, nominal quantile
//! `1 − 10/n` in `*_tail_q`), or the maximum with `tail_q = 1` below 11
//! samples. Each ratio's base is its own metric (`des.inserts`,
//! `io.tier_absorbs`, `campaign.points`, `energy.pairs`, ...). Exact
//! counts (`sim.events`, `des.pops`, `campaign.hit_ratio`) repeat at equal
//! seed.
//!
//! The repository's `BENCH_*.json` baselines and criterion micro-benches
//! are separate and left untouched by this benchmark.

mod inputs;
mod stats;
mod workloads;

use coopckpt::json::Json;
use std::path::{Path, PathBuf};
use workloads::{Metric, Outcome, Sizes, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload paper_point|trace_stream|campaign_resume \
                     --seed N --seconds S --trace 0|1";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0 && s <= 120.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Runs one workload in a private work directory, removed afterwards.
fn run(args: &Args, sizes: &Sizes, threads: usize) -> Result<Outcome, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("work")
        .join(format!(
            "{}-{}-{}",
            args.workload.name(),
            args.seed,
            std::process::id()
        ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let outcome = if args.trace {
        workloads::run_traced(args.workload, args.seed, sizes, &dir, threads)
    } else {
        workloads::run_untraced(args.workload, args.seed, args.seconds, sizes, &dir, threads)
    };
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(outcome: &Outcome) -> String {
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            (
                m.name.to_string(),
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))]),
            )
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(outcome.failures.is_empty())),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failures.len() as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_string()
}

/// FNV-1a over the simulator sources (`crates/*/src`, sorted by path):
/// identifies the code measured when no commit id is available.
fn source_fingerprint(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(std::fs::read(f).unwrap_or_default()) {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn stamp(args: &Args, threads: usize, nproc: usize) -> Json {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    // Only a checkout that is itself a git repository has a commit; git is
    // not asked otherwise, so it never searches directories above it.
    let commit = root
        .join(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .arg("-C")
                .arg(&root)
                .args(["rev-parse", "--short", "HEAD"])
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|h| h.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    Json::obj([
        ("workload", Json::str(args.workload.name())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("commit", Json::str(commit)),
        ("source", Json::str(source_fingerprint(&root))),
        ("host", Json::str(host)),
        ("nproc", Json::Num(nproc as f64)),
        ("threads", Json::Num(threads as f64)),
    ])
}

fn print_summary(outcome: &Outcome) {
    for m in &outcome.metrics {
        eprintln!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let failed = outcome.failures.len();
    eprintln!(
        "  error_rate {:.6} ({failed} failed of {} checks)",
        failed as f64 / outcome.attempted.max(1) as f64,
        outcome.attempted
    );
    for f in &outcome.failures {
        eprintln!("  FAILED: {f}");
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc;
    println!("# stamp {}", stamp(&args, threads, nproc));
    match run(&args, &Sizes::full(), threads) {
        Ok(outcome) => {
            print_summary(&outcome);
            println!("{}", result_line(&outcome));
            if !outcome.failures.is_empty() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            let failed = Outcome {
                metrics: Vec::<Metric>::new(),
                attempted: 1,
                failures: vec![e],
            };
            println!("{}", result_line(&failed));
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&args(
            "--workload trace_stream --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::TraceStream);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&args("--workload paper_point --seed 1")).is_err());
        assert!(parse_args(&args("--workload paper_point --seed 1 --seconds 0")).is_err());
    }

    #[test]
    fn result_line_parses_back_with_exactly_the_contract_keys() {
        let outcome = Outcome {
            metrics: vec![
                Metric {
                    name: "setup_s",
                    value: 0.8127,
                    unit: "s",
                },
                Metric {
                    name: "instances_per_s",
                    value: 123.456789,
                    unit: "1/s",
                },
            ],
            attempted: 12,
            failures: vec![],
        };
        let line = result_line(&outcome);
        assert!(!line.contains('\n'));
        let v = Json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Json::as_u64), Some(12));
        assert_eq!(v.get("failed").and_then(Json::as_u64), Some(0));
        let m = v.get("metrics").unwrap().get("instances_per_s").unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(123.456789));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("1/s"));
    }

    /// Every workload, untraced and traced, at seconds-long sizes: each
    /// prints its full metric set and passes every output check.
    #[test]
    fn smoke_every_workload() {
        let sizes = Sizes::smoke();
        for w in Workload::ALL {
            for trace in [false, true] {
                let a = Args {
                    workload: w,
                    seed: 3,
                    seconds: 0.01,
                    trace,
                };
                let outcome = run(&a, &sizes, 2).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
                assert!(
                    outcome.failures.is_empty(),
                    "{} trace={trace}: {:?}",
                    w.name(),
                    outcome.failures
                );
                assert!(outcome.attempted > 0);
                let expected = if trace { 53 } else { 6 };
                assert_eq!(outcome.metrics.len(), expected, "{}", w.name());
                for m in &outcome.metrics {
                    assert!(m.value.is_finite(), "{} {}", w.name(), m.name);
                }
                let v = Json::parse(&result_line(&outcome)).unwrap();
                assert_eq!(v.get("correct").and_then(Json::as_bool), Some(true));
            }
        }
    }
}
