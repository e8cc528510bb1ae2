//! The discrete-event platform simulator (paper Section 5).
//!
//! One simulation instance is defined by a [`SimConfig`] (platform, class
//! mix, strategy, interference and failure models) plus a seed. The run:
//!
//! 1. generates a job list matching the class shares for the configured
//!    span and a node-failure trace (both functions of the seed),
//! 2. schedules jobs with a greedy first-fit scheduler, re-queueing failed
//!    jobs at the head with their remaining work,
//! 3. drives every job through the `input → (compute ⇄ checkpoint) →
//!    output` lifecycle against the shared, fluid-flow PFS under the
//!    selected [`Strategy`], and
//! 4. accounts every node-second to a [`Category`](coopckpt_stats::Category)
//!    inside the measurement window (first/last day excluded).
//!
//! The headline output is [`SimResult::waste_ratio`], the paper's y-axis.

mod engine;
pub mod trace;

use crate::strategy::Strategy;
use coopckpt_des::Duration;
use coopckpt_failure::Xoshiro256pp;
use coopckpt_model::{AppClass, Bandwidth, Platform};
use coopckpt_stats::WasteLedger;
use coopckpt_workload::generator::WorkloadSpec;
use coopckpt_workload::trace_workload::{JobStream, TraceClasses, TraceSpec};

pub use coopckpt_stats::ProjectLedger;

pub use coopckpt_energy::{EnergyMeter, EnergySummary, Phase, PowerModel};
pub use coopckpt_failure::FailureClass;
pub use coopckpt_io::hierarchy::{RetainedCopies, TierSpec};

/// Process-wide event-queue backend selector: 0 = unset (consult the
/// `COOPCKPT_QUEUE` environment variable), 1 = calendar, 2 = heap oracle.
static QUEUE_BACKEND: std::sync::atomic::AtomicU8 = std::sync::atomic::AtomicU8::new(0);

/// Selects the engine's event-queue backend for every subsequent
/// [`run_simulation`] in this process: `true` routes runs through the
/// original binary-heap implementation
/// ([`EventQueue::heap_oracle`](coopckpt_des::EventQueue::heap_oracle)),
/// `false` through the default calendar queue.
///
/// Both backends are bit-identical by contract — this switch exists so the
/// differential suites (`tests/queue_equivalence.rs`, the
/// `--features heap-oracle` lane of `tests/report_stability.rs`) can prove
/// it on full campaign runs. Until the first call, the `COOPCKPT_QUEUE=heap`
/// environment variable selects the oracle, which lets the differential CI
/// lane drive released binaries without a code hook.
pub fn use_heap_oracle(enabled: bool) {
    QUEUE_BACKEND.store(
        if enabled { 2 } else { 1 },
        std::sync::atomic::Ordering::SeqCst,
    );
}

/// True when [`use_heap_oracle`] (or `COOPCKPT_QUEUE=heap`) routed the
/// engine onto the heap-oracle backend.
pub(crate) fn heap_oracle_active() -> bool {
    match QUEUE_BACKEND.load(std::sync::atomic::Ordering::SeqCst) {
        1 => false,
        2 => true,
        _ => std::env::var("COOPCKPT_QUEUE").is_ok_and(|v| v == "heap"),
    }
}

/// Interference model selection (mirrors `coopckpt_io`'s models as plain
/// data so configs stay `Clone + Send`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InterferenceKind {
    /// Constant global throughput, shares proportional to job size — the
    /// paper's model.
    Linear,
    /// Global throughput degrades as `k^(−alpha)` with `k` concurrent
    /// streams (footnote 2's "more adversarial" variant).
    Degraded(f64),
    /// Equal split regardless of stream size.
    Equal,
}

impl InterferenceKind {
    /// Canonical spec string, the inverse of the
    /// [`FromStr`](std::str::FromStr) grammar:
    /// `"linear"`, `"equal"`, or `"degraded:<alpha>"`.
    pub fn spec_name(&self) -> String {
        match self {
            InterferenceKind::Linear => "linear".to_string(),
            InterferenceKind::Equal => "equal".to_string(),
            InterferenceKind::Degraded(a) => format!("degraded:{a}"),
        }
    }
}

impl std::str::FromStr for InterferenceKind {
    type Err = String;

    /// Parses `linear`, `equal`, or `degraded:<alpha>`.
    fn from_str(s: &str) -> Result<InterferenceKind, String> {
        match s {
            "linear" => Ok(InterferenceKind::Linear),
            "equal" => Ok(InterferenceKind::Equal),
            other => {
                if let Some(alpha) = other.strip_prefix("degraded:") {
                    let a: f64 = alpha
                        .parse()
                        .map_err(|_| format!("bad degraded exponent '{alpha}'"))?;
                    if !a.is_finite() {
                        return Err(format!("degraded exponent must be finite, got '{alpha}'"));
                    }
                    Ok(InterferenceKind::Degraded(a))
                } else {
                    Err(format!(
                        "unknown interference model '{other}' (linear|degraded:<a>|equal)"
                    ))
                }
            }
        }
    }
}

/// Failure-injection model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailureModel {
    /// Exponential inter-arrival at system rate `N/µ_ind` (the paper).
    Exponential,
    /// Weibull inter-arrival with the given shape, mean-matched to the
    /// exponential system MTBF (ablation; `shape < 1` = infant mortality).
    Weibull(f64),
    /// No failures (baseline / debugging).
    None,
}

impl FailureModel {
    /// Canonical spec string, the inverse of the
    /// [`FromStr`](std::str::FromStr) grammar:
    /// `"exponential"`, `"none"`, or `"weibull:<shape>"`.
    pub fn spec_name(&self) -> String {
        match self {
            FailureModel::Exponential => "exponential".to_string(),
            FailureModel::None => "none".to_string(),
            FailureModel::Weibull(k) => format!("weibull:{k}"),
        }
    }
}

impl std::str::FromStr for FailureModel {
    type Err = String;

    /// Parses `exponential`, `none`, or `weibull:<shape>`.
    fn from_str(s: &str) -> Result<FailureModel, String> {
        match s {
            "exponential" => Ok(FailureModel::Exponential),
            "none" => Ok(FailureModel::None),
            other => {
                if let Some(shape) = other.strip_prefix("weibull:") {
                    let k: f64 = shape
                        .parse()
                        .map_err(|_| format!("bad Weibull shape '{shape}'"))?;
                    if !(k.is_finite() && k > 0.0) {
                        return Err(format!("Weibull shape must be positive, got '{shape}'"));
                    }
                    Ok(FailureModel::Weibull(k))
                } else {
                    Err(format!(
                        "unknown failure model '{other}' (exponential|weibull:<k>|none)"
                    ))
                }
            }
        }
    }
}

/// Full description of one simulation experiment.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The machine.
    pub platform: Platform,
    /// Application classes with target shares summing to 1.
    pub classes: Vec<AppClass>,
    /// The I/O + checkpoint scheduling strategy under test.
    pub strategy: Strategy,
    /// Simulated span (also the workload-sizing target). Default 60 days.
    pub span: Duration,
    /// Margin excluded from measurement at each end. Default 1 day.
    pub measure_margin: Duration,
    /// How concurrent streams share the PFS.
    pub interference: InterferenceKind,
    /// Failure injection model.
    pub failures: FailureModel,
    /// Number of chunks a job's regular (non-CR) I/O volume splits into.
    pub regular_io_chunks: usize,
    /// Workload oversubscription: the job list carries `span ×
    /// workload_slack` of work so the platform stays enrolled through the
    /// whole measurement window even under efficient strategies (the paper
    /// enforces ≥ 98 % enrollment over the segment).
    pub workload_slack: f64,
    /// Multi-level checkpoint storage hierarchy, shallow to deep (empty =
    /// no tiers). Checkpoints are absorbed by the shallowest tier with
    /// space and drain tier-by-tier to the PFS in the background; see
    /// [`coopckpt_io::hierarchy`].
    pub tiers: Vec<TierSpec>,
    /// Failure severity classes: how deep into the storage hierarchy each
    /// strike reaches, and what fraction of the failure rate it carries
    /// (see [`coopckpt_failure::classes`]). Empty (the default) means the
    /// paper's model — a single system-severity class whose every failure
    /// recovers from the PFS — and is *bit-identical* to it: same failure
    /// trace, same recovery path, same results at equal seed. Shares
    /// partition the platform failure rate, so a mix never changes the
    /// total number of expected failures, only where recovery reads from.
    pub failure_classes: Vec<FailureClass>,
    /// Record a structured execution trace (see [`trace`]); off by default
    /// because traces of 60-day instances hold hundreds of thousands of
    /// events.
    pub record_trace: bool,
    /// Optional power model: when set, the engine time-integrates platform
    /// power by execution phase and [`SimResult::energy`] carries the
    /// per-phase energy accounting (None = the paper's time-only model).
    /// Metering never changes the simulated trajectory: waste ratios,
    /// breakdowns and job/failure counters are bit-identical with and
    /// without it. Only [`SimResult::events`] differs — by exactly the
    /// two window-boundary sampling events metering schedules.
    pub power: Option<PowerModel>,
    /// Trace-driven workload source: a canonical
    /// [`coopckpt_workload::trace_workload::TraceSpec`] string
    /// (a job-log path, or `synthetic:...`). When set,
    /// [`classes`](SimConfig::classes) must be the shape table a validation scan of
    /// this very spec synthesized (scenario loading does this): jobs are
    /// then *streamed* from the source at their submit times instead of
    /// generated and admitted at `t = 0`, and [`SimResult::projects`]
    /// carries the per-project accounting.
    pub workload_source: Option<String>,
}

impl SimConfig {
    /// Creates a config with the paper's defaults: 60-day span, 1-day
    /// measurement margins, linear interference, exponential failures.
    pub fn new(platform: Platform, classes: Vec<AppClass>, strategy: Strategy) -> Self {
        SimConfig {
            platform,
            classes,
            strategy,
            span: Duration::from_days(60.0),
            measure_margin: Duration::DAY,
            interference: InterferenceKind::Linear,
            failures: FailureModel::Exponential,
            regular_io_chunks: 16,
            workload_slack: 1.5,
            tiers: Vec::new(),
            failure_classes: Vec::new(),
            record_trace: false,
            power: None,
            workload_source: None,
        }
    }

    /// How much work a generated workload carries: `span ×
    /// workload_slack` (never less than the span).
    pub fn workload_span(&self) -> Duration {
        self.span * self.workload_slack.max(1.0)
    }

    /// Overrides the simulated span (margins shrink for short spans so the
    /// window stays non-empty).
    pub fn with_span(mut self, span: Duration) -> Self {
        assert!(span.is_positive(), "span must be positive");
        self.span = span;
        if self.measure_margin * 2.5 > span {
            self.measure_margin = span / 10.0;
        }
        self
    }

    /// Overrides the strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Overrides the interference model.
    pub fn with_interference(mut self, kind: InterferenceKind) -> Self {
        self.interference = kind;
        self
    }

    /// Overrides the failure model.
    pub fn with_failures(mut self, failures: FailureModel) -> Self {
        self.failures = failures;
        self
    }

    /// Installs a multi-level storage hierarchy (shallow to deep).
    pub fn with_tiers(mut self, tiers: Vec<TierSpec>) -> Self {
        self.tiers = tiers;
        self
    }

    /// Installs a failure severity-class mix (shares must sum to 1; see
    /// [`SimConfig::failure_classes`]).
    ///
    /// # Panics
    ///
    /// Panics when the mix is non-empty but invalid.
    pub fn with_failure_classes(mut self, classes: Vec<FailureClass>) -> Self {
        if !classes.is_empty() {
            coopckpt_failure::validate_classes(&classes)
                .unwrap_or_else(|e| panic!("invalid failure classes: {e}"));
        }
        self.failure_classes = classes;
        self
    }

    /// Enables execution-trace recording.
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Enables per-phase energy metering under the given power model.
    pub fn with_power(mut self, power: PowerModel) -> Self {
        self.power = Some(power);
        self
    }

    /// Switches the workload to a trace stream: scans `spec` against the
    /// platform (synthesizing the shape-class table) and installs its
    /// canonical string as [`SimConfig::workload_source`].
    ///
    /// # Errors
    ///
    /// Returns the scan's [`TraceError`](coopckpt_workload::TraceError)
    /// rendered as a string when the trace is unreadable or invalid.
    pub fn with_workload_source(mut self, spec: &str) -> Result<Self, String> {
        let spec = TraceSpec::parse(spec).map_err(|e| e.to_string())?;
        let horizon = coopckpt_des::Time::ZERO + self.span;
        let scanned =
            TraceClasses::scan_spec(&spec, &self.platform, horizon).map_err(|e| e.to_string())?;
        self.classes = scanned.classes;
        self.workload_source = Some(spec.spec_string());
        Ok(self)
    }

    /// The measurement window `[margin, span − margin]`.
    pub fn window(&self) -> (Duration, Duration) {
        (self.measure_margin, self.span - self.measure_margin)
    }
}

/// Aggregate outcome of one simulation instance.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Wasted fraction of consumed node-time in the window — the paper's
    /// waste ratio.
    pub waste_ratio: f64,
    /// `1 − waste_ratio`.
    pub efficiency: f64,
    /// Node-seconds per category (label, amount), reporting order.
    pub breakdown: Vec<(&'static str, f64)>,
    /// Consumed node-time over the window divided by `N × window` —
    /// the enrollment level (paper targets ≥ 98 %).
    pub utilization: f64,
    /// Failures that struck a running job.
    pub failures_hitting_jobs: u64,
    /// Total failures injected over the span.
    pub failures_total: u64,
    /// Checkpoints successfully committed.
    pub checkpoints_committed: u64,
    /// Jobs that ran to completion.
    pub jobs_completed: u64,
    /// Restart jobs created.
    pub restarts: u64,
    /// Recovery reads served from a storage tier's retained checkpoint
    /// copy instead of the PFS (0 under the paper's single-class model).
    pub tier_restores: u64,
    /// DES events processed.
    pub events: u64,
    /// Peak number of jobs simultaneously admitted-but-unfinished (a
    /// restart replaces the job it restarts). For a batch workload this is
    /// simply the job-list length (everything is admitted at `t = 0`); for
    /// a trace stream it bounds what the engine holds: a finished job's
    /// slot is reused, so the job slab never outgrows this peak plus the
    /// finished jobs still draining a checkpoint through storage tiers
    /// (none without tiers). Telemetry reports the slab's length as
    /// `job_slots`.
    pub peak_live_jobs: u64,
    /// Per-project accounting, when the workload was a trace stream
    /// ([`SimConfig::workload_source`]).
    pub projects: Option<ProjectLedger>,
    /// The execution trace, when [`SimConfig::record_trace`] was set.
    pub trace: Option<trace::Trace>,
    /// Per-phase energy accounting, when [`SimConfig::power`] was set.
    pub energy: Option<EnergySummary>,
}

/// A standard `levels`-deep storage hierarchy scaled to `platform`, for
/// sweeps and quick experiments (`levels = 0` returns no tiers, i.e. the
/// paper's PFS-only base platform).
///
/// The stack mirrors real deployments, fast-and-small to slow-and-large:
///
/// * level 0 — *node-local* storage, 2 GB/s per node of the writing job,
///   capacity half the platform's total memory;
/// * level ℓ ≥ 1 — shared stores ("burst-buffer", then "campaign", then
///   generic `tier<ℓ>`): capacity `2^ℓ ×` total memory, aggregate write
///   bandwidth `2^(levels−ℓ) ×` the PFS bandwidth, so every tier writes
///   faster than the PFS and the advantage shrinks with depth.
pub fn geometric_tiers(platform: &Platform, levels: usize) -> Vec<TierSpec> {
    (0..levels)
        .map(|level| {
            if level == 0 {
                TierSpec::per_node(
                    "node-local",
                    platform.total_memory() * 0.5,
                    Bandwidth::from_gbps(2.0),
                )
            } else {
                let name = match level {
                    1 => "burst-buffer".to_string(),
                    2 => "campaign".to_string(),
                    l => format!("tier{l}"),
                };
                TierSpec::new(
                    name,
                    platform.total_memory() * 2f64.powi(level as i32),
                    platform.pfs_bandwidth * 2f64.powi((levels - level) as i32),
                )
            }
        })
        .collect()
}

/// Runs one simulation instance. Deterministic per `(config, seed)`.
pub fn run_simulation(config: &SimConfig, seed: u64) -> SimResult {
    let mut master = Xoshiro256pp::seed_from_u64(seed);
    let mut workload_rng = master.split();
    let mut failure_rng = master.split();

    let (w0, w1) = config.window();
    let ledger = WasteLedger::new(coopckpt_des::Time::ZERO + w0, coopckpt_des::Time::ZERO + w1);

    if let Some(source) = &config.workload_source {
        // Trace-driven: re-open the already-validated source and stream
        // it. The shape table is reconstructed from the config's classes
        // (each class *is* one scanned shape), so no second scan pass is
        // needed per seed. The workload RNG stays split off untouched: a
        // trace is its own workload, but the failure substream must not
        // shift relative to generated-workload runs.
        let _ = workload_rng;
        let spec = TraceSpec::parse(source)
            .unwrap_or_else(|e| panic!("invalid workload source '{source}': {e}"));
        let classes = TraceClasses::from_classes(&config.classes);
        let horizon = coopckpt_des::Time::ZERO + config.span;
        let stream = JobStream::open(&spec, &classes, &config.platform, horizon)
            .unwrap_or_else(|e| panic!("cannot reopen workload source '{source}': {e}"));
        return engine::Engine::run_stream(config, stream, &mut failure_rng, ledger);
    }

    let spec = WorkloadSpec::new(config.classes.clone()).with_min_span(config.workload_span());
    let jobs = {
        let _span = coopckpt_obs::span(coopckpt_obs::Phase::TraceGen);
        spec.generate(&config.platform, &mut workload_rng)
    };

    engine::Engine::run(config, jobs, &mut failure_rng, ledger)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::CheckpointPolicy;
    use coopckpt_model::{Bandwidth, Bytes};

    fn tiny_platform() -> Platform {
        Platform::new(
            "tiny",
            64,
            8,
            Bytes::from_gb(16.0),
            Bandwidth::from_gbps(10.0),
            Duration::from_years(5.0),
        )
        .unwrap()
    }

    fn tiny_classes(p: &Platform) -> Vec<AppClass> {
        vec![
            AppClass {
                name: "A".into(),
                q_nodes: 16,
                walltime: Duration::from_hours(20.0),
                resource_share: 0.6,
                input_bytes: Bytes::from_gb(50.0),
                output_bytes: Bytes::from_gb(200.0),
                ckpt_bytes: p.mem_per_node * 16.0,
                regular_io_bytes: Bytes::ZERO,
            },
            AppClass {
                name: "B".into(),
                q_nodes: 8,
                walltime: Duration::from_hours(10.0),
                resource_share: 0.4,
                input_bytes: Bytes::from_gb(20.0),
                output_bytes: Bytes::from_gb(100.0),
                ckpt_bytes: p.mem_per_node * 8.0,
                regular_io_bytes: Bytes::ZERO,
            },
        ]
    }

    #[test]
    fn config_window_respects_margins() {
        let p = tiny_platform();
        let cfg = SimConfig::new(p.clone(), tiny_classes(&p), Strategy::least_waste());
        let (a, b) = cfg.window();
        assert_eq!(a.as_days(), 1.0);
        assert_eq!(b.as_days(), 59.0);
        let cfg = cfg.with_span(Duration::from_days(2.0));
        let (a, b) = cfg.window();
        assert!(a.as_secs() > 0.0 && b < Duration::from_days(2.0) && a < b);
    }

    #[test]
    fn simulation_runs_and_is_deterministic() {
        let p = tiny_platform();
        let cfg = SimConfig::new(p.clone(), tiny_classes(&p), Strategy::least_waste())
            .with_span(Duration::from_days(5.0));
        let a = run_simulation(&cfg, 7);
        let b = run_simulation(&cfg, 7);
        assert_eq!(a.waste_ratio, b.waste_ratio);
        assert_eq!(a.checkpoints_committed, b.checkpoints_committed);
        assert_eq!(a.events, b.events);
        assert!(a.waste_ratio >= 0.0 && a.waste_ratio <= 1.0);
        assert!(a.checkpoints_committed > 0, "jobs must checkpoint");
    }

    #[test]
    fn no_failures_means_no_restarts() {
        let p = tiny_platform();
        let cfg = SimConfig::new(
            p.clone(),
            tiny_classes(&p),
            Strategy::ordered(CheckpointPolicy::Daly),
        )
        .with_span(Duration::from_days(4.0))
        .with_failures(FailureModel::None);
        let r = run_simulation(&cfg, 3);
        assert_eq!(r.failures_total, 0);
        assert_eq!(r.restarts, 0);
        assert_eq!(
            r.breakdown
                .iter()
                .find(|(l, _)| *l == "lost_work")
                .unwrap()
                .1,
            0.0
        );
        assert_eq!(
            r.breakdown
                .iter()
                .find(|(l, _)| *l == "recovery")
                .unwrap()
                .1,
            0.0
        );
    }

    #[test]
    fn burst_buffer_reduces_blocked_commit_time() {
        // With a generous buffer and fast absorb, the job-visible commit
        // shrinks and waste falls under scarce PFS bandwidth.
        let p = tiny_platform();
        let base = SimConfig::new(
            p.clone(),
            tiny_classes(&p),
            Strategy::ordered(CheckpointPolicy::Daly),
        )
        .with_span(Duration::from_days(4.0));
        let with_bb = base.clone().with_tiers(vec![TierSpec::per_node(
            "burst-buffer",
            Bytes::from_tb(50.0),
            Bandwidth::from_gbps(4.0),
        )]);
        let plain = run_simulation(&base, 5);
        let burst = run_simulation(&with_bb, 5);
        assert!(
            burst.waste_ratio < plain.waste_ratio,
            "burst buffer should reduce waste: {} vs {}",
            burst.waste_ratio,
            plain.waste_ratio
        );
        assert!(burst.checkpoints_committed > 0);
    }

    #[test]
    fn tiny_burst_buffer_falls_back_to_pfs() {
        // A buffer smaller than one checkpoint rejects every absorb; the
        // simulation must still run correctly through the fallback path.
        let p = tiny_platform();
        let cfg = SimConfig::new(p.clone(), tiny_classes(&p), Strategy::least_waste())
            .with_span(Duration::from_days(3.0))
            .with_tiers(vec![TierSpec::per_node(
                "burst-buffer",
                Bytes::from_gb(1.0),
                Bandwidth::from_gbps(4.0),
            )]);
        let r = run_simulation(&cfg, 8);
        assert!(r.checkpoints_committed > 0);
        assert!(r.waste_ratio > 0.0 && r.waste_ratio <= 1.0);
    }

    #[test]
    fn burst_buffer_runs_deterministically_under_all_strategies() {
        let p = tiny_platform();
        for strat in Strategy::all_seven() {
            let cfg = SimConfig::new(p.clone(), tiny_classes(&p), strat)
                .with_span(Duration::from_days(2.0))
                .with_tiers(vec![TierSpec::per_node(
                    "burst-buffer",
                    Bytes::from_tb(10.0),
                    Bandwidth::from_gbps(2.0),
                )]);
            let a = run_simulation(&cfg, 3);
            let b = run_simulation(&cfg, 3);
            assert_eq!(a.waste_ratio, b.waste_ratio, "{}", strat.name());
            assert_eq!(a.events, b.events, "{}", strat.name());
        }
    }

    #[test]
    fn three_tier_hierarchy_reduces_waste_vs_pfs_only() {
        // Same PFS bandwidth; the hierarchy absorbs commits fast and
        // drains in the background, so blocking waste must fall.
        let p = tiny_platform();
        let base = SimConfig::new(
            p.clone(),
            tiny_classes(&p),
            Strategy::ordered(CheckpointPolicy::Daly),
        )
        .with_span(Duration::from_days(4.0));
        let tiered = base.clone().with_tiers(geometric_tiers(&p, 3));
        let plain = run_simulation(&base, 5);
        let multi = run_simulation(&tiered, 5);
        assert!(
            multi.waste_ratio < plain.waste_ratio,
            "3-tier hierarchy should reduce waste: {} vs {}",
            multi.waste_ratio,
            plain.waste_ratio
        );
        assert!(multi.checkpoints_committed > 0);
    }

    #[test]
    fn hierarchy_runs_deterministically_under_all_disciplines() {
        let p = tiny_platform();
        let mut strategies = Strategy::all_seven().to_vec();
        strategies.push(Strategy::tiered(CheckpointPolicy::Daly));
        for strat in strategies {
            let cfg = SimConfig::new(p.clone(), tiny_classes(&p), strat)
                .with_span(Duration::from_days(2.0))
                .with_tiers(geometric_tiers(&p, 3));
            let a = run_simulation(&cfg, 3);
            let b = run_simulation(&cfg, 3);
            assert_eq!(a.waste_ratio, b.waste_ratio, "{}", strat.name());
            assert_eq!(a.events, b.events, "{}", strat.name());
        }
    }

    #[test]
    fn tiny_tiers_fall_back_to_pfs() {
        // Tiers smaller than one checkpoint reject every absorb; the
        // simulation must still run correctly through the spill path.
        let p = tiny_platform();
        let tiers = vec![
            TierSpec::per_node("local", Bytes::from_gb(1.0), Bandwidth::from_gbps(4.0)),
            TierSpec::new("bb", Bytes::from_gb(2.0), Bandwidth::from_gbps(100.0)),
        ];
        let cfg = SimConfig::new(p.clone(), tiny_classes(&p), Strategy::least_waste())
            .with_span(Duration::from_days(3.0))
            .with_tiers(tiers);
        let r = run_simulation(&cfg, 8);
        assert!(r.checkpoints_committed > 0);
        assert!(r.waste_ratio > 0.0 && r.waste_ratio <= 1.0);
    }

    #[test]
    fn tiered_discipline_without_tiers_matches_ordered_nb() {
        // Degenerate case: with no hierarchy the Tiered fast path never
        // fires, so the discipline is Ordered-NB by construction.
        let p = tiny_platform();
        let nb = SimConfig::new(
            p.clone(),
            tiny_classes(&p),
            Strategy::ordered_nb(CheckpointPolicy::Daly),
        )
        .with_span(Duration::from_days(3.0));
        let tiered = nb
            .clone()
            .with_strategy(Strategy::tiered(CheckpointPolicy::Daly));
        let a = run_simulation(&nb, 4);
        let b = run_simulation(&tiered, 4);
        assert_eq!(a.waste_ratio, b.waste_ratio);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn geometric_tiers_shape() {
        let p = tiny_platform();
        assert!(geometric_tiers(&p, 0).is_empty());
        let tiers = geometric_tiers(&p, 3);
        assert_eq!(tiers.len(), 3);
        assert!(tiers[0].per_writer_node);
        assert_eq!(tiers[1].name, "burst-buffer");
        assert_eq!(tiers[2].name, "campaign");
        // Capacities grow and aggregate bandwidths shrink with depth.
        assert!(tiers[2].capacity > tiers[1].capacity);
        assert!(tiers[1].write_bw > tiers[2].write_bw);
        assert!(tiers[2].write_bw > p.pfs_bandwidth);
    }

    #[test]
    fn power_metering_never_changes_the_trajectory() {
        // The headline invariant: turning energy metering on changes no
        // simulated outcome — only `energy` appears.
        let p = tiny_platform();
        let base = SimConfig::new(p.clone(), tiny_classes(&p), Strategy::least_waste())
            .with_span(Duration::from_days(4.0));
        let metered = base.clone().with_power(PowerModel::cielo());
        let a = run_simulation(&base, 7);
        let b = run_simulation(&metered, 7);
        assert_eq!(a.waste_ratio, b.waste_ratio);
        assert_eq!(a.breakdown, b.breakdown);
        assert_eq!(a.checkpoints_committed, b.checkpoints_committed);
        assert_eq!(a.jobs_completed, b.jobs_completed);
        // Only the two window-boundary sampling events are extra.
        assert_eq!(a.events + 2, b.events);
        assert!(a.energy.is_none());
        let energy = b.energy.expect("metered run must carry energy");
        assert!(energy.total_joules > 0.0);
        assert!(energy.useful_joules > 0.0);
        assert!((0.0..=1.0).contains(&energy.energy_waste_ratio));
        assert!(!energy.per_job.is_empty());
    }

    #[test]
    fn energy_breakdown_is_consistent() {
        let p = tiny_platform();
        let cfg = SimConfig::new(
            p.clone(),
            tiny_classes(&p),
            Strategy::ordered(CheckpointPolicy::Daly),
        )
        .with_span(Duration::from_days(4.0))
        .with_tiers(geometric_tiers(&p, 2))
        .with_power(PowerModel::prospective());
        let r = run_simulation(&cfg, 5);
        let energy = r.energy.expect("metered run must carry energy");
        // Per-phase joules sum to the total power integral.
        let sum: f64 = energy.breakdown.iter().map(|(_, j)| j).sum();
        assert_eq!(sum, energy.total_joules);
        // The three aggregates partition the total.
        let parts = energy.useful_joules + energy.wasted_joules + energy.platform_overhead_joules;
        assert!((parts - energy.total_joules).abs() <= 1e-9 * energy.total_joules);
        // The hierarchy moved data, so tier and PFS activity drew energy.
        let get = |label: &str| {
            energy
                .breakdown
                .iter()
                .find(|(l, _)| *l == label)
                .map(|(_, j)| *j)
                .unwrap()
        };
        assert!(get("ckpt_write") > 0.0);
        assert!(get("pfs_active") > 0.0);
        assert!(get("tier_active") > 0.0);
        assert!(get("tier_static") > 0.0);
        assert_eq!(get("down"), 0.0);
        // Failures happened, so some compute energy was voided.
        if r.failures_hitting_jobs > 0 {
            assert!(get("rework") > 0.0);
        }
    }

    #[test]
    fn uniform_power_matches_time_waste() {
        // Zero power differential and no platform consumers: the energy
        // waste ratio degenerates to the time waste ratio.
        let p = tiny_platform();
        let cfg = SimConfig::new(p.clone(), tiny_classes(&p), Strategy::least_waste())
            .with_span(Duration::from_days(3.0))
            .with_power(PowerModel::uniform(200.0));
        let r = run_simulation(&cfg, 9);
        let energy = r.energy.expect("metered run must carry energy");
        assert!(
            (energy.energy_waste_ratio - r.waste_ratio).abs() < 1e-9,
            "uniform-power energy ratio {} != time waste ratio {}",
            energy.energy_waste_ratio,
            r.waste_ratio
        );
    }

    #[test]
    fn trace_workload_streams_deterministically_with_projects() {
        let p = tiny_platform();
        let source = "synthetic:jobs=400,seed=9,projects=4,max_nodes=8,\
                      mean_walltime_hours=1,max_walltime_hours=3,\
                      mean_interarrival_secs=600,gb_per_node=8";
        let cfg = SimConfig::new(p.clone(), tiny_classes(&p), Strategy::least_waste())
            .with_span(Duration::from_days(4.0))
            .with_workload_source(source)
            .expect("synthetic source must validate");
        // The scan replaced the classes with the trace's shape table.
        assert!(cfg.classes.iter().all(|c| c.name.starts_with('q')));
        let a = run_simulation(&cfg, 7);
        let b = run_simulation(&cfg, 7);
        assert_eq!(a.waste_ratio, b.waste_ratio);
        assert_eq!(a.events, b.events);
        assert!(a.jobs_completed > 0);
        // Streaming bound: arrivals spread over days, so the platform
        // never holds anywhere near the full log.
        assert!(
            a.peak_live_jobs < 200,
            "peak live {} of 400",
            a.peak_live_jobs
        );
        let projects = a.projects.expect("trace runs carry per-project accounting");
        assert!(!projects.is_empty() && projects.len() <= 4);
        // The project rows fold to the platform totals (same data, only
        // grouped): compare against the global ledger's breakdown.
        let totals = projects.totals();
        for (label, amount) in &a.breakdown {
            let cat = coopckpt_stats::Category::ALL
                .iter()
                .copied()
                .find(|c| c.label() == *label)
                .unwrap();
            let tol = 1e-9 * amount.abs() + 1e-6;
            assert!(
                (totals.get(cat) - amount).abs() <= tol,
                "{label}: projects fold {} vs platform {amount}",
                totals.get(cat)
            );
        }
    }

    #[test]
    fn batch_workloads_carry_no_project_ledger() {
        let p = tiny_platform();
        let cfg = SimConfig::new(p.clone(), tiny_classes(&p), Strategy::least_waste())
            .with_span(Duration::from_days(2.0));
        let r = run_simulation(&cfg, 3);
        assert!(r.projects.is_none());
        assert!(r.peak_live_jobs > 0);
    }

    #[test]
    fn all_seven_strategies_complete() {
        let p = tiny_platform();
        for strat in Strategy::all_seven() {
            let cfg = SimConfig::new(p.clone(), tiny_classes(&p), strat)
                .with_span(Duration::from_days(3.0));
            let r = run_simulation(&cfg, 11);
            assert!(
                r.waste_ratio >= 0.0 && r.waste_ratio <= 1.0,
                "{}: waste {}",
                strat.name(),
                r.waste_ratio
            );
            assert!(r.jobs_completed > 0, "{}: no jobs completed", strat.name());
        }
    }
}
