//! Subcommand implementations.
//!
//! Every subcommand compiles its flags into a single [`Scenario`] (the
//! declarative spec; `--scenario <file.json>` loads one directly and the
//! remaining flags override its fields) and emits its results through the
//! unified [`Report`] type, so text, CSV and JSON output share one writer.

use crate::args::Args;
use coopckpt::experiments::{run_scenario, theory_bound};
use coopckpt::json::Json;
use coopckpt::prelude::*;
use coopckpt_theory::ClassParams;
use coopckpt_workload::{classes_for, APEX_SPECS};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Top-level usage text.
pub const USAGE: &str = "\
coopckpt — cooperative checkpointing for shared HPC platforms
          (reproduction of Herault et al., IPDPS 2018)

USAGE:
  coopckpt <command> [--flag value]...

COMMANDS:
  table1      Print the APEX workload (paper Table 1) with derived
              checkpoint costs and Daly periods.
  theory      Evaluate the Section-4 lower bound (Theorem 1).
  run         Execute one scenario: Monte-Carlo simulate one strategy at
              one operating point (or the file's sweep, if it has one).
  sweep       Sweep one axis (bandwidth, MTBF, tier depth, ...) across
              strategies.
  suite       Execute a campaign suite file (many scenarios / a cartesian
              grid) across a thread pool, with an optional resumable
              on-disk result cache.
  compare     Diff two campaign outputs and flag metric drift beyond a
              relative tolerance.
  workload    Generate and dump one randomized job mix.
  trace       Simulate one instance and dump its execution trace.
  help        Show this message.

Run `coopckpt <command> --help` for per-command flags and examples.

COMMON FLAGS:
  --scenario <file.json>         load a declarative scenario file; the
                                 remaining flags override its fields
  --platform cielo|prospective|exascale
                                 target machine          [cielo]
  --bandwidth <GB/s>             PFS bandwidth override
  --mtbf-years <years>           node MTBF override
  --span-days <days>             simulated span          [14]
  --samples <n>                  Monte-Carlo instances   [10]
  --seed <n>                     base seed               [1]
  --strategy <name>              oblivious-fixed|oblivious-daly|
                                 ordered-fixed|ordered-daly|
                                 ordered-nb-fixed|ordered-nb-daly|
                                 least-waste|tiered|tiered-fixed
                                 (any -daly accepts -daly-usage: cadence
                                 in consumed node-hours)  [least-waste]
  --workload apex|<trace>|synthetic:...
                                 job mix: the APEX paper mix, a job-log
                                 file (CSV or JSON lines), or a seeded
                                 synthetic trace            [apex]
  --interference linear|degraded:<a>|equal               [linear]
  --failures exponential|weibull:<k>|none                [exponential]
  --failure-classes <name>:<share>:<severity>,...        [system:1:system]
                                 failure severity mix; severity = number of
                                 storage levels a strike wipes, or 'system'
  --power cielo|prospective|none                         [none]
  --telemetry <out.jsonl>        record engine/queue/cache counters and
                                 phase timings; one JSON-lines journal
                                 record per completed point (or set
                                 COOPCKPT_TELEMETRY)
  --format text|csv|json                                 [text]

EXAMPLES:
  coopckpt run --scenario scenarios/cielo_baseline.json --format json
  coopckpt trace --strategy least-waste --span-days 2 --bandwidth 40
  coopckpt theory --bandwidth 40 --format json
  coopckpt run --strategy ordered-nb-daly --bandwidth 40 --samples 20
  coopckpt run --strategy tiered --tiers 3 --bandwidth 40
  coopckpt run --scenario scenarios/multilevel_recovery.json --format json
  coopckpt run --scenario scenarios/energy_tradeoff.json --format json
  coopckpt sweep --axis bandwidth --values 40,80,120,160 --samples 50
  coopckpt sweep --axis tiers --values 0,1,2,3 --bandwidth 40
  coopckpt sweep --axis local-failure-share --tiers 3 --bandwidth 40
  coopckpt sweep --axis power-ratio --power cielo --values 0.5,1,2,4
  coopckpt sweep --axis ckpt-mem-fraction --platform exascale
  coopckpt run --workload scenarios/traces/sample_1k.csv --span-days 14
  coopckpt run --workload synthetic:jobs=5000,seed=3 --strategy ordered-nb-daly-usage
  coopckpt suite scenarios/paper_grid.json --cache .campaign --format json
  coopckpt suite --cache .campaign --gc
  coopckpt compare cold.json warm.json --tolerance 0.05
";

/// `coopckpt run --help`
pub const RUN_HELP: &str = "\
coopckpt run — execute one scenario (Monte-Carlo at one operating point)

USAGE:
  coopckpt run [--scenario <file.json>] [--strategy <name>] [--flag value]...

Runs `--samples` randomized instances (seeds `--seed`..) of the selected
strategy and reports candlestick statistics (mean, deciles, quartiles,
median) of the platform waste ratio plus utilization and event-count
summaries. When the scenario file declares a sweep axis, `run` executes
the whole sweep (so every checked-in scenario runs with this one
subcommand).

FLAGS:
  --scenario <file>    load a scenario file; flags below override fields
  --strategy <name>    oblivious-fixed|oblivious-daly|ordered-fixed|
                       ordered-daly|ordered-nb-fixed|ordered-nb-daly|
                       least-waste|tiered|tiered-fixed   [least-waste]
                       every -daly discipline also accepts -daly-usage
                       (checkpoint cadence in consumed node-hours)
  --workload <source>  apex (the paper's Table 1 mix), a job-log trace
                       file (CSV or JSON lines: project, submit_time,
                       nodes, walltime[, ckpt_bytes]), or a generated
                       trace `synthetic:jobs=N,seed=S,...`      [apex]
                       Trace runs stream jobs at their submit times and
                       add a per-project waste breakdown ('projects'
                       section) to the report.
  --tiers <n>          storage-hierarchy depth: n tiers scaled to the
                       platform (node-local, burst-buffer, campaign, ...);
                       0 = the paper's PFS-only platform  [0]
  --platform cielo|prospective|exascale                   [cielo]
  --bandwidth <GB/s>   PFS bandwidth override
  --mtbf-years <y>     node MTBF override
  --span-days <days>   simulated span per instance        [14]
  --samples <n>        Monte-Carlo instances              [10]
  --seed <n>           base seed                          [1]
  --interference linear|degraded:<a>|equal                [linear]
  --failures exponential|weibull:<k>|none                 [exponential]
  --failure-classes <name>:<share>:<severity>,...
                       failure severity mix: shares sum to 1, severity is
                       the number of storage levels a strike invalidates
                       (0 = every tier copy survives) or 'system' (PFS-only
                       recovery, the paper's model). Sub-system failures
                       restore from the shallowest surviving tier copy,
                       token-free.             [system:1:system]
  --power <model>      meter per-phase energy under a power model:
                       cielo|prospective|none              [none]
  --telemetry <file>   write a JSON-lines run journal and append a
                       `telemetry` report section (counters, phase
                       timings, sample quantiles); simulation results are
                       bit-identical with or without it    [off]
  --format text|csv|json                                  [text]

With `--power` (or a scenario `power` block) the report gains energy
sections: the energy waste ratio, per-phase joules, and platform totals.

EXAMPLES:
  coopckpt run --scenario scenarios/cielo_baseline.json --format json
  coopckpt run --strategy least-waste --bandwidth 40 --samples 20
  coopckpt run --strategy tiered --tiers 3 --bandwidth 40 --samples 20
  coopckpt run --tiers 3 --failure-classes node:0.6:1,system:0.4:system
  coopckpt run --scenario scenarios/multilevel_recovery.json --format json
  coopckpt run --scenario scenarios/weibull_ablation.json --samples 50
  coopckpt run --scenario scenarios/energy_tradeoff.json --format json
  coopckpt run --workload scenarios/traces/sample_1k.csv --span-days 14
  coopckpt run --workload synthetic:jobs=5000,projects=12,seed=3
";

/// `coopckpt sweep --help`
pub const SWEEP_HELP: &str = "\
coopckpt sweep — sweep one axis across all strategies (figures 1/2 data)

USAGE:
  coopckpt sweep --axis <axis> [--values a,b,c] [--flag value]...

Simulates every strategy at each point of the swept axis and prints one
row per (x, strategy) with candlestick statistics of the waste ratio.
Each row is exactly the operating point `run` would simulate with the
axis set to x: the `bandwidth` axis, for one, re-sizes geometric
`--tiers` to each point's bandwidth. The `bandwidth`, `mtbf` and
`ckpt-mem-fraction` axes add the Theorem 1 bound as a 'Theoretical
Model' series; the other axes have no analytic bound. The `power-ratio`
axis sweeps the checkpoint/compute draw ratio and reports the *energy*
waste ratio (Aupy et al. time-vs-energy trade-off). Points run on the
`suite` worker pool; `--threads` is the total thread count.

FLAGS:
  --scenario <file>    load a scenario file; flags below override fields
  --axis <name>        bandwidth (GB/s, Fig. 1) | mtbf (years, Fig. 2) |
                       tiers (hierarchy depth) | weibull-shape |
                       power-ratio (energy metric) |
                       local-failure-share (recovery mix) |
                       ckpt-mem-fraction (checkpointed share of node
                       memory, in (0, 1])                  [bandwidth]
  --values a,b,c       swept values
                       [bandwidth: 40..160; mtbf: 2..50; tiers: 0..3;
                        weibull-shape: 0.5..2; power-ratio: 0.25..4;
                        local-failure-share: 0..0.9;
                        ckpt-mem-fraction: 0.05..1]
  --samples <n>        Monte-Carlo instances per point     [10]
  --seed <n>           base seed                           [1]
  --power <model>      base power model for power-ratio    [cielo]
  --platform, --bandwidth, --mtbf-years, --span-days, --interference,
  --failures, --failure-classes, --telemetry, --format as in
  `coopckpt run --help`

The local-failure-share axis installs `{local: x, system: 1-x}` severity
classes per point (total failure rate unchanged): local failures restore
from the shallowest surviving storage tier, so waste falls as x grows —
run it with `--tiers` >= 2 to give restores somewhere to read from.

The ckpt-mem-fraction axis rescales every class's checkpoint volume to
the given fraction of its nodes' memory (comd-ft progress-rate style);
pair it with `--platform exascale` for the projective study. It is
incompatible with trace workloads, whose checkpoint sizes come from the
trace itself.

EXAMPLES:
  coopckpt sweep --axis bandwidth --values 40,80,120,160 --samples 50
  coopckpt sweep --axis mtbf --values 2,5,10,20,50 --bandwidth 40
  coopckpt sweep --axis tiers --values 0,1,2,3 --bandwidth 40 --format csv
  coopckpt sweep --axis weibull-shape --values 0.5,0.7,1,1.5 --bandwidth 40
  coopckpt sweep --axis power-ratio --power cielo --bandwidth 40
  coopckpt sweep --axis local-failure-share --tiers 3 --bandwidth 40
  coopckpt sweep --axis ckpt-mem-fraction --platform exascale --samples 20
  coopckpt sweep --scenario scenarios/cielo_baseline.json --axis mtbf
";

/// `coopckpt trace --help`
pub const TRACE_HELP: &str = "\
coopckpt trace — simulate one instance and dump its execution trace

USAGE:
  coopckpt trace [--scenario <file.json>] [--strategy <name>] [--flag value]...

Prints one row per lifecycle event (`t_secs,event,job,detail`) to stdout
and a one-line summary to stderr (the summary joins the report as notes
under `--format json`). Events: job_started, io_started, io_completed,
checkpoint_durable, tier_absorb, tier_drain, tier_spill, tier_restore,
failure, job_completed.

FLAGS:
  --scenario <file>    load a scenario file; flags below override fields
  --strategy <name>    as in `coopckpt run --help`        [least-waste]
  --tiers <n>          storage-hierarchy depth            [0]
  --seed <n>           instance seed                      [1]
  --power <model>      meter energy; the summary line gains the
                       instance's energy waste ratio      [none]
  --format text|csv|json                                  [csv]
  --platform, --bandwidth, --mtbf-years, --span-days, --interference,
  --failures as in `coopckpt run --help`

EXAMPLES:
  coopckpt trace --strategy least-waste --span-days 2 --bandwidth 40
  coopckpt trace --strategy tiered --tiers 3 --span-days 2 > trace.csv
  coopckpt trace --seed 7 --failures weibull:0.7 --span-days 2 --format json
";

/// `coopckpt suite --help`
pub const SUITE_HELP: &str = "\
coopckpt suite — execute a campaign suite file across a thread pool

USAGE:
  coopckpt suite <suite.json> [--threads n] [--cache dir] [--flag value]...

A suite file declares many scenarios at once: an optional `base` scenario,
a `grid` of axes whose cartesian product is applied to the base
(axes: strategy|bandwidth_gbps|mtbf_years|tiers|weibull_shape|
power_ratio|local_failure_share|ckpt_mem_fraction|span_days|samples|
seed|workload), and/or an explicit `scenarios` list. A
plain scenario file is accepted as a one-point suite. Expansion is
deduplicated and order-stable; each point is auto-named
`prefix/axis=value/...` (slashes in values become underscores).

Execution uses a two-level work-sharing pool: `--threads` is the *total*
simulation thread count (honored exactly — `--threads 1` runs one
thread). Workers shard points, and each point's Monte-Carlo samples are
enqueued as seed-range chunks that idle workers steal across points, so
a single huge point still saturates every thread. Samples reduce in
seed order and the merged output is ordered by expansion, so it is
bit-identical at any `--threads` value.

With `--cache <dir>`, each point's report is stored under a
content-addressed key (canonical scenario JSON + code-version salt):
rerunning the suite skips computed points and the resumed output is
bit-identical to a cold run. Progress streams to stderr as points
finish.

FLAGS:
  --suite <file>       the suite file (or pass it as the positional)
  --threads <n>        total simulation threads; 0 = one per core  [0]
  --cache <dir>        content-addressed on-disk result cache (resumable)
  --list               print the expansion (key + name per point) and exit
  --gc                 sweep the --cache directory first: evict entries
                       from older code versions, corrupt files and
                       abandoned .tmp spills; without a suite file,
                       collect and exit
  --telemetry <file>   write one JSON-lines journal record per point
                       (queue/cache/engine counters, wall ms, worker id),
                       sorted by point name — thread-count independent
  --format text|csv|json                                       [text]

EXAMPLES:
  coopckpt suite scenarios/paper_grid.json
  coopckpt suite scenarios/paper_grid.json --list
  coopckpt suite scenarios/paper_grid.json --cache .campaign --format json
  coopckpt suite scenarios/cielo_baseline.json --threads 1
  coopckpt suite --cache .campaign --gc
";

/// `coopckpt compare --help`
pub const COMPARE_HELP: &str = "\
coopckpt compare — diff two campaign outputs

USAGE:
  coopckpt compare <a.json> <b.json> [--tolerance t] [--format f]

Reads two campaign documents (`coopckpt suite --format json` output; a
single `run` report works too), matches points by name, sections by name
and rows by position, and reports every numeric cell where
|b - a| > tolerance * max(|a|, |b|) — a relative tolerance, so
`--tolerance 0` (the default) demands bit-equality and `0.05` allows 5%
drift. Structural changes (missing points/sections, row-count or column
drift) always count. Exits non-zero when any difference is found, so CI
can gate on it.

FLAGS:
  --tolerance <t>      relative tolerance for numeric cells   [0]
  --format text|csv|json                                      [text]

EXAMPLES:
  coopckpt suite scenarios/paper_grid.json --format json > cold.json
  coopckpt suite scenarios/paper_grid.json --format json > warm.json
  coopckpt compare cold.json warm.json
  coopckpt compare baseline.json candidate.json --tolerance 0.05
";

/// The help text for a subcommand, when it has a dedicated page.
pub fn help_for(command: &str) -> Option<&'static str> {
    match command {
        "run" => Some(RUN_HELP),
        "sweep" => Some(SWEEP_HELP),
        "trace" => Some(TRACE_HELP),
        "suite" => Some(SUITE_HELP),
        "compare" => Some(COMPARE_HELP),
        _ => None,
    }
}

/// Flags shared by every scenario-driven subcommand.
const SCENARIO_FLAGS: &[&str] = &[
    "scenario",
    "platform",
    "bandwidth",
    "mtbf-years",
    "span-days",
    "samples",
    "seed",
    "threads",
    "strategy",
    "workload",
    "interference",
    "failures",
    "failure-classes",
    "tiers",
    "power",
    "telemetry",
    "format",
    "help",
];

const SWEEP_FLAGS: &[&str] = &[
    "scenario",
    "platform",
    "bandwidth",
    "mtbf-years",
    "span-days",
    "samples",
    "seed",
    "threads",
    "workload",
    "interference",
    "failures",
    "failure-classes",
    "tiers",
    "power",
    "telemetry",
    "axis",
    "values",
    "format",
    "help",
];

const PLATFORM_FLAGS: &[&str] = &[
    "scenario",
    "platform",
    "bandwidth",
    "mtbf-years",
    "format",
    "help",
];

const WORKLOAD_FLAGS: &[&str] = &[
    "scenario",
    "platform",
    "bandwidth",
    "mtbf-years",
    "span-days",
    "seed",
    "format",
    "help",
];

const SUITE_FLAGS: &[&str] = &[
    "suite",
    "threads",
    "cache",
    "list",
    "gc",
    "telemetry",
    "format",
    "help",
];

const COMPARE_FLAGS: &[&str] = &["tolerance", "format", "help"];

/// Every dispatchable subcommand (used to distinguish "unknown command"
/// from "unknown flag" errors).
pub const COMMANDS: &[&str] = &[
    "table1", "theory", "run", "sweep", "suite", "compare", "workload", "trace", "help",
];

/// The flags a subcommand accepts, for typo detection
/// ([`Args::check_known`]).
pub fn known_flags(command: &str) -> &'static [&'static str] {
    match command {
        "run" | "trace" => SCENARIO_FLAGS,
        "sweep" => SWEEP_FLAGS,
        "suite" => SUITE_FLAGS,
        "compare" => COMPARE_FLAGS,
        "table1" | "theory" => PLATFORM_FLAGS,
        "workload" => WORKLOAD_FLAGS,
        _ => &["help"],
    }
}

/// Boxed error for command results.
pub type CmdResult = Result<(), Box<dyn std::error::Error>>;

/// Compiles the command line into a [`Scenario`]: `--scenario <file>`
/// loads the base spec (defaults otherwise) and every other flag
/// overrides the matching field.
fn scenario_from(args: &Args) -> Result<Scenario, Box<dyn std::error::Error>> {
    let mut sc = match args.get("scenario") {
        Some(path) => Scenario::load(path)?,
        None => Scenario::default(),
    };
    if let Some(name) = args.get("platform") {
        sc.platform = match sc.platform {
            // Keep any bandwidth/MTBF overrides from the file; only the
            // preset itself is switched.
            PlatformSpec::Preset {
                bandwidth,
                node_mtbf,
                ..
            } => PlatformSpec::Preset {
                name: name.to_string(),
                bandwidth,
                node_mtbf,
            },
            PlatformSpec::Custom(_) => PlatformSpec::Preset {
                name: name.to_string(),
                bandwidth: None,
                node_mtbf: None,
            },
        };
    }
    if let Some(raw) = args.get("bandwidth") {
        let gbps: f64 = raw
            .parse()
            .map_err(|_| format!("bad --bandwidth '{raw}'"))?;
        sc = sc.with_bandwidth_gbps(gbps);
    }
    if let Some(raw) = args.get("mtbf-years") {
        let years: f64 = raw
            .parse()
            .map_err(|_| format!("bad --mtbf-years '{raw}'"))?;
        sc = sc.with_mtbf_years(years);
    }
    if let Some(days) = args.get("span-days") {
        let d: f64 = days
            .parse()
            .map_err(|_| format!("bad --span-days '{days}'"))?;
        sc.span = Duration::from_days(d);
    }
    sc.samples = args.get_parsed_or("samples", sc.samples, "an integer")?;
    sc.seed = args.get_parsed_or("seed", sc.seed, "an integer")?;
    sc.threads = args.get_parsed_or("threads", sc.threads, "an integer")?;
    if let Some(name) = args.get("strategy") {
        sc.strategy = name.parse::<Strategy>()?;
    }
    if let Some(raw) = args.get("interference") {
        sc.interference = raw.parse::<coopckpt::sim::InterferenceKind>()?;
    }
    if let Some(raw) = args.get("failures") {
        sc.failures = raw.parse::<coopckpt::sim::FailureModel>()?;
    }
    if let Some(raw) = args.get("tiers") {
        let depth: usize = raw.parse().map_err(|_| format!("bad --tiers '{raw}'"))?;
        sc.tiers = TiersSpec::Geometric(depth);
    }
    if let Some(raw) = args.get("workload") {
        sc.workload = WorkloadSource::from_spec(raw);
    }
    if let Some(raw) = args.get("failure-classes") {
        sc.failure_classes = parse_failure_classes(raw)?;
    }
    if let Some(raw) = args.get("power") {
        sc.power =
            match raw {
                "none" => None,
                name => Some(PowerModel::preset(name).ok_or_else(|| {
                    format!("unknown power model '{name}' (cielo|prospective|none)")
                })?),
            };
    }
    Ok(sc)
}

/// Parses the `--failure-classes` grammar: comma-separated
/// `<name>:<share>:<severity>` triples with `<severity>` a level count or
/// `system`, e.g. `local:0.6:1,system:0.4:system`. `none` clears the mix
/// back to the paper's single system class.
fn parse_failure_classes(raw: &str) -> Result<Vec<FailureClass>, Box<dyn std::error::Error>> {
    if raw == "none" {
        return Ok(Vec::new());
    }
    let mut classes = Vec::new();
    for part in raw.split(',') {
        let fields: Vec<&str> = part.trim().split(':').collect();
        let [name, share, severity] = fields.as_slice() else {
            return Err(format!(
                "bad failure class '{part}' (expected <name>:<share>:<severity>, \
                 severity a level count or 'system')"
            )
            .into());
        };
        let share: f64 = share
            .parse()
            .map_err(|_| format!("bad failure-class share '{share}' in '{part}'"))?;
        let severity = if *severity == "system" {
            FailureClass::SYSTEM
        } else {
            // A number that happens to equal the sentinel is not "system".
            severity
                .parse::<usize>()
                .ok()
                .filter(|&s| s != FailureClass::SYSTEM)
                .ok_or_else(|| format!("bad failure-class severity '{severity}' in '{part}'"))?
        };
        classes.push(FailureClass {
            name: name.to_string(),
            share,
            severity,
        });
    }
    coopckpt::scenario::check_failure_classes(&classes)?;
    Ok(classes)
}

/// The requested output format (`--format text|csv|json`).
fn format_from(
    args: &Args,
    default: OutputFormat,
) -> Result<OutputFormat, Box<dyn std::error::Error>> {
    match args.get("format") {
        None => Ok(default),
        Some(raw) => Ok(raw.parse::<OutputFormat>()?),
    }
}

/// Prints a report in the requested format.
fn emit(report: &Report, args: &Args) -> CmdResult {
    print!("{}", report.render(format_from(args, OutputFormat::Text)?));
    Ok(())
}

/// `coopckpt table1`
pub fn table1(args: &Args) -> CmdResult {
    let sc = scenario_from(args)?;
    let platform = sc.resolve_platform()?;
    let mut report = Report::new("table1", Some(sc.clone()));
    report.note(platform.to_string());
    let classes = report.section(
        "classes",
        [
            "workflow",
            "share_pct",
            "work_h",
            "cores",
            "nodes",
            "input_gb",
            "output_gb",
            "ckpt_gb",
            "c_secs",
            "p_daly_min",
        ],
    );
    for (spec, class) in APEX_SPECS.iter().zip(classes_for(&platform)) {
        classes.row([
            Cell::text(spec.name),
            Cell::float(spec.workload_pct, 0),
            Cell::float(spec.work_hours, 1),
            Cell::Int(spec.cores as i64),
            Cell::Int(class.q_nodes as i64),
            Cell::float(class.input_bytes.as_gb(), 1),
            Cell::float(class.output_bytes.as_gb(), 1),
            Cell::float(class.ckpt_bytes.as_gb(), 1),
            Cell::float(class.ckpt_duration(platform.pfs_bandwidth).as_secs(), 1),
            Cell::float(class.daly_period(&platform).as_secs() / 60.0, 1),
        ]);
    }
    emit(&report, args)
}

/// `coopckpt theory`
pub fn theory(args: &Args) -> CmdResult {
    let sc = scenario_from(args)?;
    let platform = sc.resolve_platform()?;
    let classes = sc.resolve_classes(&platform)?;
    let params: Vec<ClassParams> = classes
        .iter()
        .map(|c| ClassParams::from_app_class(c, &platform))
        .collect();
    let lb = theory_bound(&platform, &params)?;

    let mut report = Report::new("theory", Some(sc.clone()));
    report.note(platform.to_string());
    report
        .section("bound", ["lambda", "io_fraction", "waste", "efficiency"])
        .row([
            Cell::float(lb.lambda, 9),
            Cell::f4(lb.io_fraction),
            Cell::f4(lb.waste),
            Cell::f4(lb.efficiency()),
        ]);
    let periods = report.section("periods", ["class", "p_daly_min", "p_opt_min", "stretched"]);
    for ((cp, period), class) in params.iter().zip(&lb.periods).zip(&classes) {
        let daly = coopckpt_theory::period_for_lambda(&platform, cp, 0.0);
        periods.row([
            Cell::text(class.name.clone()),
            Cell::float(daly.as_secs() / 60.0, 1),
            Cell::float(period.as_secs() / 60.0, 1),
            Cell::float(period.as_secs() / daly.as_secs(), 2),
        ]);
    }
    emit(&report, args)
}

/// `coopckpt run` — the scenario front door: a single operating point, or
/// the file's sweep when one is declared.
pub fn run(args: &Args) -> CmdResult {
    let sc = scenario_from(args)?;
    let report = run_scenario(&sc)?;
    emit(&report, args)
}

/// `coopckpt sweep`
pub fn sweep(args: &Args) -> CmdResult {
    let mut sc = scenario_from(args)?;
    // `--axis` keeps the file's values when the file sweeps that axis.
    let axis = args
        .get("axis")
        .or(sc.sweep.as_ref().map(Sweep::name))
        .unwrap_or("bandwidth");
    let file_values = sc.sweep.take().filter(|s| s.name() == axis);
    let values = args
        .get_f64_list("values")?
        .or(file_values.map(|s| s.values));
    sc.sweep = Some(Sweep::new(axis, values)?);
    let report = run_scenario(&sc)?;
    emit(&report, args)
}

/// `coopckpt suite` — expand a campaign suite file and execute every
/// point across the work-stealing runner.
pub fn suite(args: &Args) -> CmdResult {
    if args.is_set("gc") {
        // Garbage-collect the result cache: evict entries whose
        // code-version salt no longer matches (they can never hit again),
        // corrupt files, and abandoned `.tmp` spills. Standalone
        // `suite --cache <dir> --gc` collects and exits; with a suite
        // file, the run proceeds against the freshly swept cache.
        let dir = args
            .get("cache")
            .ok_or("suite: --gc needs --cache <dir> to know which cache to sweep")?;
        let cache = ResultCache::new(dir)?;
        let (kept, evicted) = cache.gc()?;
        eprintln!("# cache gc: kept {kept} live entries, evicted {evicted} stale files");
        if args.get("suite").is_none() && args.positionals.is_empty() {
            return Ok(());
        }
    }
    let path = args
        .get("suite")
        .or_else(|| args.positionals.first().map(String::as_str))
        .ok_or("suite: give a suite file (`coopckpt suite <file.json>`)")?
        .to_string();
    let suite = Suite::load(&path)?;
    let points = suite.expand()?;
    let n = points.len();
    if args.is_set("list") {
        for sc in &points {
            println!(
                "{}  {}",
                cache_key(sc),
                sc.name.as_deref().unwrap_or("<unnamed>")
            );
        }
        eprintln!("# {n} points");
        return Ok(());
    }
    let opts = CampaignOptions {
        threads: args.get_parsed_or("threads", 0usize, "an integer")?,
        cache: match args.get("cache") {
            Some(dir) => Some(ResultCache::new(dir)?),
            None => None,
        },
        op_cache: None,
    };
    // Progress streams to stderr in completion order; the merged report
    // on stdout stays in expansion order (thread-count independent).
    let done = AtomicUsize::new(0);
    let spent_ms = std::sync::atomic::AtomicU64::new(0);
    let campaign = run_suite_with(&suite, &opts, |_, entry, wall_ms| {
        let k = done.fetch_add(1, Ordering::Relaxed) + 1;
        let total_ms = spent_ms.fetch_add(wall_ms, Ordering::Relaxed) + wall_ms;
        let tag = if entry.from_cache { " (cached)" } else { "" };
        // ETA from the running mean point cost; wall-clock under multiple
        // workers divides by however many run concurrently, so this is an
        // upper bound — good enough for a progress line.
        let eta_s = (total_ms as f64 / k as f64) * (n - k) as f64 / 1e3;
        let eta = if k < n {
            format!(" eta {}s", eta_s.round() as u64)
        } else {
            String::new()
        };
        eprintln!("[{k}/{n}] {} {wall_ms}ms{tag}{eta}", entry.label());
    })?;
    eprintln!(
        "# suite complete: {} points, {} from cache",
        campaign.entries.len(),
        campaign.cached_points()
    );
    print!(
        "{}",
        campaign.render(format_from(args, OutputFormat::Text)?)
    );
    Ok(())
}

/// `coopckpt compare` — diff two campaign outputs; non-zero exit when any
/// beyond-tolerance difference is found (CI gate).
pub fn compare(args: &Args) -> CmdResult {
    let [path_a, path_b] = args.positionals.as_slice() else {
        return Err("compare: give exactly two campaign JSON files".into());
    };
    let tolerance: f64 = args.get_parsed_or("tolerance", 0.0, "a number")?;
    let read = |path: &str| -> Result<Json, Box<dyn std::error::Error>> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Ok(Json::parse(&text)?)
    };
    let outcome = compare_campaigns(&read(path_a)?, &read(path_b)?, tolerance, path_a, path_b)?;
    emit(&outcome.report, args)?;
    if outcome.differences > 0 {
        return Err(format!(
            "{} difference(s) beyond tolerance {tolerance}",
            outcome.differences
        )
        .into());
    }
    Ok(())
}

/// `coopckpt trace`
pub fn trace(args: &Args) -> CmdResult {
    let sc = scenario_from(args)?;
    let config = sc.into_config()?.with_trace();
    let result = coopckpt::run_simulation(&config, sc.seed);
    let trace = result.trace.as_ref().expect("trace was requested");
    let mut summary = format!(
        "{} events; waste ratio {:.4}; {} checkpoints; {} failures on jobs",
        trace.len(),
        result.waste_ratio,
        result.checkpoints_committed,
        result.failures_hitting_jobs
    );
    if let Some(energy) = &result.energy {
        summary.push_str(&format!(
            "; energy waste ratio {:.4} ({:.3} GJ total)",
            energy.energy_waste_ratio,
            energy.total_joules / 1e9
        ));
    }
    // Traces default to their historical raw-CSV form; `--format json`
    // wraps the same rows in the structured report.
    match format_from(args, OutputFormat::Csv)? {
        OutputFormat::Text | OutputFormat::Csv => {
            print!("{}", trace.to_csv());
            eprintln!("# {summary}");
        }
        OutputFormat::Json => {
            let mut report = Report::new("trace", Some(sc.clone()));
            report.note(summary);
            let events = report.section("events", ["t_secs", "event", "job", "detail"]);
            for event in trace.events() {
                events.row([
                    Cell::float(event.at().as_secs(), 3),
                    Cell::text(event.label()),
                    Cell::text(event.job_column()),
                    Cell::text(event.detail()),
                ]);
            }
            emit(&report, args)?;
        }
    }
    Ok(())
}

/// `coopckpt workload`
pub fn workload(args: &Args) -> CmdResult {
    use coopckpt_failure::Xoshiro256pp;
    use coopckpt_workload::generator::WorkloadSpec;
    let mut sc = scenario_from(args)?;
    if args.get("span-days").is_none() && args.get("scenario").is_none() {
        // Historical default: dump a platform-sized 60-day mix.
        sc.span = Duration::from_days(60.0);
    }
    let platform = sc.resolve_platform()?;
    let classes = sc.resolve_classes(&platform)?;
    let spec = WorkloadSpec::try_new(classes.clone())?.with_min_span(sc.span);
    spec.check_draft_budget(&platform)?;
    let mut rng = Xoshiro256pp::seed_from_u64(sc.seed);
    let jobs = spec.generate(&platform, &mut rng);

    let mut report = Report::new("workload", Some(sc.clone()));
    let shares = spec.achieved_shares(&jobs);
    report.note(format!(
        "{} jobs; achieved shares: {}",
        jobs.len(),
        shares
            .iter()
            .zip(&classes)
            .map(|(s, c)| format!("{} {:.1}%", c.name, 100.0 * s))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let table = report.section(
        "jobs",
        [
            "job",
            "class",
            "nodes",
            "work_h",
            "input_gb",
            "output_gb",
            "ckpt_gb",
            "priority",
        ],
    );
    for j in &jobs {
        table.row([
            Cell::Int(j.id.0 as i64),
            Cell::text(classes[j.class.0].name.clone()),
            Cell::Int(j.q_nodes as i64),
            Cell::float(j.work.as_hours(), 2),
            Cell::float(j.input_bytes.as_gb(), 1),
            Cell::float(j.output_bytes.as_gb(), 1),
            Cell::float(j.ckpt_bytes.as_gb(), 1),
            Cell::Int(j.priority),
        ]);
    }
    emit(&report, args)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coopckpt::sim::{FailureModel, InterferenceKind};

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().copied()).expect("valid test args")
    }

    #[test]
    fn default_scenario_matches_cli_defaults() {
        let sc = scenario_from(&args(&["run"])).unwrap();
        assert_eq!(sc, Scenario::default());
        let cfg = sc.into_config().unwrap();
        assert_eq!(cfg.platform.name, "Cielo");
        assert_eq!(cfg.span, Duration::from_days(14.0));
    }

    #[test]
    fn platform_flags_override() {
        let sc = scenario_from(&args(&["x", "--platform", "prospective"])).unwrap();
        assert_eq!(sc.resolve_platform().unwrap().name, "Prospective");
        let sc = scenario_from(&args(&["x", "--bandwidth", "40", "--mtbf-years", "5"])).unwrap();
        let p = sc.resolve_platform().unwrap();
        assert_eq!(p.pfs_bandwidth, Bandwidth::from_gbps(40.0));
        assert_eq!(p.node_mtbf, Duration::from_years(5.0));
        assert!(scenario_from(&args(&["x", "--platform", "nope"]))
            .unwrap()
            .resolve_platform()
            .is_err());
        assert!(scenario_from(&args(&["x", "--bandwidth", "fast"])).is_err());
    }

    #[test]
    fn strategy_names_round_trip() {
        for (name, expect) in [
            ("oblivious-fixed", "Oblivious-Fixed"),
            ("oblivious-daly", "Oblivious-Daly"),
            ("ordered-fixed", "Ordered-Fixed"),
            ("ordered-daly", "Ordered-Daly"),
            ("ordered-nb-fixed", "Ordered-NB-Fixed"),
            ("ordered-nb-daly", "Ordered-NB-Daly"),
            ("least-waste", "Least-Waste"),
            ("tiered", "Tiered-Daly"),
            ("tiered-daly", "Tiered-Daly"),
            ("tiered-fixed", "Tiered-Fixed"),
        ] {
            let sc = scenario_from(&args(&["x", "--strategy", name])).unwrap();
            assert_eq!(sc.strategy.name(), expect);
        }
        assert!(scenario_from(&args(&["x", "--strategy", "magic"])).is_err());
    }

    #[test]
    fn model_flags_override() {
        let sc = scenario_from(&args(&[
            "x",
            "--interference",
            "degraded:0.3",
            "--failures",
            "weibull:0.7",
        ]))
        .unwrap();
        assert_eq!(sc.interference, InterferenceKind::Degraded(0.3));
        assert_eq!(sc.failures, FailureModel::Weibull(0.7));
        assert!(scenario_from(&args(&["x", "--interference", "chaotic"])).is_err());
        assert!(scenario_from(&args(&["x", "--failures", "weibull:k"])).is_err());
    }

    #[test]
    fn sampling_and_span_flags_override() {
        let sc = scenario_from(&args(&[
            "x",
            "--span-days",
            "7",
            "--samples",
            "33",
            "--seed",
            "5",
        ]))
        .unwrap();
        assert_eq!(sc.span, Duration::from_days(7.0));
        assert_eq!(sc.samples, 33);
        assert_eq!(sc.seed, 5);
    }

    #[test]
    fn tiers_flag_installs_a_hierarchy() {
        let sc = scenario_from(&args(&["x", "--tiers", "3"])).unwrap();
        let cfg = sc.into_config().unwrap();
        assert_eq!(cfg.tiers.len(), 3);
        assert_eq!(cfg.tiers[1].name, "burst-buffer");
        let cfg = scenario_from(&args(&["x"])).unwrap().into_config().unwrap();
        assert!(cfg.tiers.is_empty());
        assert!(scenario_from(&args(&["x", "--tiers", "many"])).is_err());
    }

    #[test]
    fn failure_classes_flag_parses_the_triple_grammar() {
        let sc = scenario_from(&args(&[
            "x",
            "--failure-classes",
            "transient:0.3:0,node:0.4:1,system:0.3:system",
        ]))
        .unwrap();
        assert_eq!(sc.failure_classes.len(), 3);
        assert_eq!(sc.failure_classes[0].name, "transient");
        assert_eq!(sc.failure_classes[0].severity, 0);
        assert_eq!(sc.failure_classes[1].severity, 1);
        assert!(sc.failure_classes[2].is_system());
        // `none` clears a file-provided mix back to the paper's model.
        let sc = scenario_from(&args(&["x", "--failure-classes", "none"])).unwrap();
        assert!(sc.failure_classes.is_empty());
        // Bad grammar, bad shares, and unnormalized mixes are rejected.
        for bad in [
            "node:0.4",
            "node:lots:1",
            "node:0.4:rack",
            "node:1.5:1",
            "node:0.4:1,system:0.4:system",
            // Severity bound matches the JSON parser, so the scenario
            // echo of a flag-built run always round-trips.
            "node:1:20",
        ] {
            assert!(
                scenario_from(&args(&["x", "--failure-classes", bad])).is_err(),
                "{bad} should be rejected"
            );
        }
        // And the mix reaches the config.
        let cfg = scenario_from(&args(&[
            "x",
            "--failure-classes",
            "local:0.5:1,system:0.5:system",
        ]))
        .unwrap()
        .into_config()
        .unwrap();
        assert_eq!(cfg.failure_classes.len(), 2);
    }

    #[test]
    fn power_flag_selects_a_model() {
        let sc = scenario_from(&args(&["x", "--power", "cielo"])).unwrap();
        assert_eq!(sc.power, Some(PowerModel::cielo()));
        let sc = scenario_from(&args(&["x", "--power", "prospective"])).unwrap();
        assert_eq!(sc.power, Some(PowerModel::prospective()));
        let sc = scenario_from(&args(&["x", "--power", "none"])).unwrap();
        assert_eq!(sc.power, None);
        assert!(scenario_from(&args(&["x", "--power", "fusion"])).is_err());
        // The config inherits the model.
        let cfg = scenario_from(&args(&["x", "--power", "cielo"]))
            .unwrap()
            .into_config()
            .unwrap();
        assert_eq!(cfg.power, Some(PowerModel::cielo()));
    }

    #[test]
    fn new_sweep_axes_are_accepted() {
        for axis in [
            "weibull-shape",
            "power-ratio",
            "local-failure-share",
            "ckpt-mem-fraction",
        ] {
            assert_eq!(Sweep::new(axis, None).unwrap().name(), axis);
        }
        assert!(known_flags("sweep").contains(&"power"));
        assert!(known_flags("run").contains(&"power"));
        assert!(!known_flags("table1").contains(&"power"));
        assert!(known_flags("run").contains(&"failure-classes"));
        assert!(known_flags("sweep").contains(&"failure-classes"));
        assert!(!known_flags("table1").contains(&"failure-classes"));
        assert!(known_flags("run").contains(&"workload"));
        assert!(known_flags("sweep").contains(&"workload"));
        assert!(!known_flags("table1").contains(&"workload"));
        assert!(known_flags("suite").contains(&"gc"));
        assert!(!known_flags("run").contains(&"gc"));
        assert!(known_flags("run").contains(&"telemetry"));
        assert!(known_flags("sweep").contains(&"telemetry"));
        assert!(known_flags("suite").contains(&"telemetry"));
        assert!(!known_flags("table1").contains(&"telemetry"));
    }

    #[test]
    fn out_of_domain_sweep_values_are_typed_errors() {
        // `--values` meets the same domain rule as a file's `sweep.values`.
        for (axis, values) in [("bandwidth", "-40"), ("bandwidth", "inf"), ("mtbf", "0")] {
            let e = sweep(&args(&["sweep", "--axis", axis, "--values", values]))
                .expect_err("out-of-domain values must be rejected");
            assert!(
                e.to_string().contains("sweep.values"),
                "{axis} {values}: {e}"
            );
        }
    }

    #[test]
    fn theory_without_a_finite_bound_is_a_typed_error() {
        // No finite bound exists on these platforms: a period overflows,
        // or no multiplier fits the checkpoints. The error names the
        // platform field to blame.
        for (flag, value, field) in [
            ("--bandwidth", "1e-300", "platform.bandwidth_gbps"),
            ("--mtbf-years", "1e300", "platform.mtbf_years"),
            ("--mtbf-years", "1e-300", "platform.mtbf_years"),
        ] {
            let e = theory(&args(&["theory", flag, value]))
                .expect_err("no finite bound must be an error");
            assert!(e.to_string().contains(field), "{flag} {value}: {e}");
        }
    }

    #[test]
    fn workload_flag_selects_a_source() {
        // Default stays the paper's APEX mix.
        let sc = scenario_from(&args(&["run"])).unwrap();
        assert_eq!(sc.workload, WorkloadSource::Apex);
        let sc = scenario_from(&args(&["run", "--workload", "apex"])).unwrap();
        assert_eq!(sc.workload, WorkloadSource::Apex);
        // Any other value is a trace spec, carried verbatim; validation
        // happens when the scenario compiles.
        let sc = scenario_from(&args(&["run", "--workload", "synthetic:jobs=40,seed=2"])).unwrap();
        assert_eq!(
            sc.workload,
            WorkloadSource::Trace("synthetic:jobs=40,seed=2".to_string())
        );
        let cfg = sc.into_config().unwrap();
        assert!(cfg.workload_source.is_some());
        let sc = scenario_from(&args(&["run", "--workload", "/no/such/trace.csv"])).unwrap();
        assert!(sc.into_config().is_err());
    }

    #[test]
    fn exascale_platform_flag_resolves() {
        let sc = scenario_from(&args(&["run", "--platform", "exascale"])).unwrap();
        assert_eq!(sc.resolve_platform().unwrap().name, "Exascale");
    }

    #[test]
    fn scenario_file_loads_and_flags_override_it() {
        let dir = std::env::temp_dir();
        let path = dir.join("coopckpt_cli_test_scenario.json");
        std::fs::write(
            &path,
            r#"{
                "name": "from-file",
                "platform": {"preset": "cielo", "bandwidth_gbps": 40},
                "strategy": "ordered-daly",
                "span_days": 7,
                "samples": 5,
                "seed": 3
            }"#,
        )
        .unwrap();
        let p = path.to_str().unwrap();

        let sc = scenario_from(&args(&["run", "--scenario", p])).unwrap();
        assert_eq!(sc.name.as_deref(), Some("from-file"));
        assert_eq!(sc.strategy.name(), "Ordered-Daly");
        assert_eq!(sc.samples, 5);
        assert_eq!(
            sc.resolve_platform().unwrap().pfs_bandwidth,
            Bandwidth::from_gbps(40.0)
        );

        // Flags override file fields; untouched fields survive.
        let sc = scenario_from(&args(&[
            "run",
            "--scenario",
            p,
            "--strategy",
            "least-waste",
            "--samples",
            "2",
        ]))
        .unwrap();
        assert_eq!(sc.strategy, Strategy::least_waste());
        assert_eq!(sc.samples, 2);
        assert_eq!(sc.seed, 3);
        assert_eq!(sc.span, Duration::from_days(7.0));

        // Switching presets keeps the file's bandwidth override.
        let sc = scenario_from(&args(&[
            "run",
            "--scenario",
            p,
            "--platform",
            "prospective",
        ]))
        .unwrap();
        let platform = sc.resolve_platform().unwrap();
        assert_eq!(platform.name, "Prospective");
        assert_eq!(platform.pfs_bandwidth, Bandwidth::from_gbps(40.0));

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_scenario_file_is_an_error() {
        assert!(scenario_from(&args(&["run", "--scenario", "/no/such.json"])).is_err());
    }

    #[test]
    fn format_selection() {
        assert_eq!(
            format_from(&args(&["x"]), OutputFormat::Text).unwrap(),
            OutputFormat::Text
        );
        assert_eq!(
            format_from(&args(&["x", "--format", "json"]), OutputFormat::Text).unwrap(),
            OutputFormat::Json
        );
        assert!(format_from(&args(&["x", "--format", "yaml"]), OutputFormat::Text).is_err());
    }

    #[test]
    fn every_subcommand_knows_its_flags() {
        for cmd in ["run", "sweep", "trace", "table1", "theory", "workload"] {
            let known = known_flags(cmd);
            assert!(known.contains(&"scenario"), "{cmd} must accept --scenario");
            assert!(known.contains(&"format"), "{cmd} must accept --format");
            assert!(known.contains(&"help"), "{cmd} must accept --help");
        }
        assert!(known_flags("sweep").contains(&"axis"));
        assert!(!known_flags("table1").contains(&"strategy"));
    }

    #[test]
    fn per_subcommand_help_pages() {
        for (cmd, needle) in [
            ("run", "--tiers <n>"),
            ("run", "--power <model>"),
            ("run", "--workload <source>"),
            ("run", "--telemetry <file>"),
            ("sweep", "--telemetry"),
            ("sweep", "power-ratio"),
            ("sweep", "weibull-shape"),
            ("sweep", "ckpt-mem-fraction"),
            ("trace", "tier_absorb"),
        ] {
            let page = help_for(cmd).expect("dedicated help page");
            assert!(page.contains(needle), "{cmd} help should mention {needle}");
            assert!(page.starts_with(&format!("coopckpt {cmd}")));
            assert!(
                page.contains("--scenario"),
                "{cmd} help should mention --scenario"
            );
        }
        assert!(help_for("table1").is_none());
        assert!(USAGE.contains("--format text|csv|json"));
        let suite_page = help_for("suite").unwrap();
        assert!(suite_page.contains("--gc"));
        assert!(suite_page.contains("workload"));
        assert!(suite_page.contains("--telemetry <file>"));
        assert!(USAGE.contains("--telemetry <out.jsonl>"));
        assert!(USAGE.contains("exascale"));
        assert!(USAGE.contains("--gc"));
    }
}
