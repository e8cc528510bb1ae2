//! The declarative scenario API: one serializable spec for a whole
//! experiment.
//!
//! Every result in the paper is an *instantiation* — a platform crossed
//! with a workload, a strategy, a failure law, an interference mode, a
//! storage hierarchy and a seed. A [`Scenario`] captures one such
//! operating point (plus an optional sweep axis) as plain data with
//! hand-rolled JSON parse/serialize (see [`crate::json`]), so experiments
//! live in versionable files instead of shell one-liners:
//!
//! ```json
//! {
//!   "name": "cielo-baseline",
//!   "platform": {"preset": "cielo", "bandwidth_gbps": 40.0},
//!   "workload": "apex",
//!   "strategy": "least-waste",
//!   "failures": "exponential",
//!   "span_days": 14,
//!   "samples": 10,
//!   "seed": 1
//! }
//! ```
//!
//! The spec converts losslessly to and from the low-level [`SimConfig`]
//! builder ([`Scenario::into_config`] / [`Scenario::from_config`]), so a
//! scenario-driven run is bit-identical to the equivalent hand-built run
//! at the same seed. [`crate::experiments::run_scenario`] executes a
//! scenario end to end and returns a [`Report`](crate::report::Report).
//!
//! # Units
//!
//! Hand-written files may use human units (`bandwidth_gbps`,
//! `span_days`, `mtbf_years`, `capacity_gb`, ...). Canonical
//! serialization ([`Scenario::to_json`]) always emits raw SI base units
//! (`bandwidth_bytes_per_sec`, `span_secs`, `capacity_bytes`, ...) with
//! shortest-round-trip floats, so `parse(serialize(s)) == s` exactly for
//! every representable scenario.

use crate::axis::{Axis, AxisValue, SweepFacts};
use crate::json::{Json, JsonError};
use crate::montecarlo::MonteCarloConfig;
use crate::sim::{
    geometric_tiers, FailureClass, FailureModel, InterferenceKind, PowerModel, SimConfig, TierSpec,
};
use crate::strategy::Strategy;
use coopckpt_des::Duration;
use coopckpt_model::{AppClass, Bandwidth, Bytes, Platform};
use coopckpt_workload::trace_workload::{TraceClasses, TraceSpec};
use coopckpt_workload::WorkloadSpec;
use std::fmt;
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// Errors raised while loading, parsing or validating a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The document is not valid JSON.
    Json(JsonError),
    /// The scenario file could not be read.
    Io {
        /// Offending path.
        path: PathBuf,
        /// OS error message.
        message: String,
    },
    /// The document is valid JSON but not a valid scenario.
    Invalid {
        /// Dotted field path (e.g. `platform.bandwidth_gbps`), or `""`
        /// for document-level problems.
        field: String,
        /// What is wrong.
        message: String,
    },
}

impl ScenarioError {
    pub(crate) fn invalid(field: impl Into<String>, message: impl Into<String>) -> ScenarioError {
        ScenarioError::Invalid {
            field: field.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Json(e) => write!(f, "{e}"),
            ScenarioError::Io { path, message } => {
                write!(f, "cannot read scenario {}: {message}", path.display())
            }
            ScenarioError::Invalid { field, message } if field.is_empty() => {
                write!(f, "invalid scenario: {message}")
            }
            ScenarioError::Invalid { field, message } => {
                write!(f, "invalid scenario field '{field}': {message}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<JsonError> for ScenarioError {
    fn from(e: JsonError) -> Self {
        ScenarioError::Json(e)
    }
}

/// Which machine the scenario runs on.
#[derive(Debug, Clone, PartialEq)]
pub enum PlatformSpec {
    /// A named preset (`"cielo"` or `"prospective"`) with optional
    /// bandwidth/MTBF overrides — the form every CLI flag combination
    /// compiles to.
    Preset {
        /// Preset name.
        name: String,
        /// PFS bandwidth override.
        bandwidth: Option<Bandwidth>,
        /// Node MTBF override.
        node_mtbf: Option<Duration>,
    },
    /// A fully spelled-out platform.
    Custom(Platform),
}

/// Where the application classes come from.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSource {
    /// The LANL APEX workload (paper Table 1) instantiated on the
    /// platform via [`coopckpt_workload::classes_for`].
    Apex,
    /// Explicit application classes.
    Custom(Vec<AppClass>),
    /// A trace-driven workload: a job-log path (CSV or JSON-lines) or a
    /// `synthetic:...` generator spec (see
    /// [`coopckpt_workload::trace_workload::TraceSpec`]). Jobs are
    /// streamed into the simulation at their submit times instead of all
    /// arriving at `t = 0`, and results carry per-project accounting.
    Trace(String),
}

impl WorkloadSource {
    /// Reads a workload spec: `"apex"`, or else a trace spec (a job-log
    /// path or a `synthetic:...` generator spec, validated when the
    /// scenario compiles).
    pub fn from_spec(spec: &str) -> WorkloadSource {
        match spec {
            "apex" => WorkloadSource::Apex,
            spec => WorkloadSource::Trace(spec.to_string()),
        }
    }
}

/// Upper bound on geometric hierarchy depth. Real deployments stage
/// through a handful of levels; far past this, `geometric_tiers`'
/// exponential capacity scaling overflows `f64` anyway, so absurd depths
/// (typos, hostile files) are rejected instead of allocating per-level
/// state.
pub const MAX_TIER_DEPTH: usize = 16;

/// The checkpoint storage hierarchy.
#[derive(Debug, Clone, PartialEq)]
pub enum TiersSpec {
    /// `k` standard tiers scaled to the platform via
    /// [`geometric_tiers`] (`0` = the paper's PFS-only base platform).
    Geometric(usize),
    /// An explicit tier stack, shallow to deep.
    Explicit(Vec<TierSpec>),
}

impl TiersSpec {
    /// True for the PFS-only base platform.
    pub fn is_empty(&self) -> bool {
        match self {
            TiersSpec::Geometric(k) => *k == 0,
            TiersSpec::Explicit(t) => t.is_empty(),
        }
    }
}

/// An optional sweep: vary one axis, simulate every strategy per point.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// The varied axis (one of the sweepable [`AXES`](crate::axis::AXES)).
    pub axis: &'static Axis,
    /// The swept values (never empty).
    pub values: Vec<f64>,
}

impl Sweep {
    /// A sweep over the axis spelled `axis` (`"bandwidth"`, `"mtbf"`,
    /// ...) at `values`, or at the axis defaults when `None`.
    pub fn new(axis: &str, values: Option<Vec<f64>>) -> Result<Sweep, ScenarioError> {
        let axis =
            crate::axis::sweep_axis(axis).map_err(|e| ScenarioError::invalid("sweep.axis", e))?;
        let sweep = Sweep {
            axis,
            values: values
                .unwrap_or_else(|| axis.sweep.as_ref().map_or(&[][..], |s| s.defaults).to_vec()),
        };
        sweep.check()?;
        Ok(sweep)
    }

    /// The axis's sweep spelling.
    pub fn name(&self) -> &'static str {
        self.axis.sweep_name()
    }

    /// Checks the sweep against its axis: sweepable, at least one value,
    /// every value in the axis domain.
    pub fn check(&self) -> Result<&'static SweepFacts, ScenarioError> {
        let facts = self.axis.sweep.as_ref().ok_or_else(|| {
            ScenarioError::invalid(
                "sweep.axis",
                format!("the {} axis cannot be swept", self.axis.key),
            )
        })?;
        if self.values.is_empty() {
            return Err(ScenarioError::invalid(
                "sweep.values",
                "at least one swept value required",
            ));
        }
        for &x in &self.values {
            self.axis
                .check(&AxisValue::Num(x))
                .map_err(|e| ScenarioError::invalid("sweep.values", e))?;
        }
        Ok(facts)
    }
}

/// One declarative experiment: the single front door to the simulator.
///
/// See the [module docs](self) for the JSON schema and
/// [`crate::experiments::run_scenario`] for execution.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Optional human-readable label, echoed in reports.
    pub name: Option<String>,
    /// The machine.
    pub platform: PlatformSpec,
    /// The application classes.
    pub workload: WorkloadSource,
    /// The strategy under test (ignored by sweeps, which run the paper's
    /// whole strategy roster per point).
    pub strategy: Strategy,
    /// How concurrent streams share the PFS.
    pub interference: InterferenceKind,
    /// Failure injection model.
    pub failures: FailureModel,
    /// Failure severity classes (empty = the paper's single system class;
    /// see [`SimConfig::failure_classes`]).
    pub failure_classes: Vec<FailureClass>,
    /// Checkpoint storage hierarchy.
    pub tiers: TiersSpec,
    /// Simulated span per instance.
    pub span: Duration,
    /// Monte-Carlo instances (seeds `seed..seed + samples`).
    pub samples: usize,
    /// Base seed.
    pub seed: u64,
    /// Worker threads (0 = one per core). Does not affect results.
    pub threads: usize,
    /// Optional sweep axis.
    pub sweep: Option<Sweep>,
    /// Measurement-margin override (None = derived from the span as in
    /// [`SimConfig::with_span`]).
    pub measure_margin: Option<Duration>,
    /// Override for [`SimConfig::regular_io_chunks`].
    pub regular_io_chunks: Option<usize>,
    /// Override for [`SimConfig::workload_slack`].
    pub workload_slack: Option<f64>,
    /// Optional power model: when present, runs meter per-phase energy
    /// and reports carry energy sections (None = the paper's time-only
    /// accounting).
    pub power: Option<PowerModel>,
}

impl Default for Scenario {
    /// The CLI's defaults: Cielo, APEX workload, Least-Waste, linear
    /// interference, exponential failures, no tiers, 14-day span, 10
    /// samples from seed 1.
    fn default() -> Scenario {
        Scenario {
            name: None,
            platform: PlatformSpec::Preset {
                name: "cielo".to_string(),
                bandwidth: None,
                node_mtbf: None,
            },
            workload: WorkloadSource::Apex,
            strategy: Strategy::least_waste(),
            interference: InterferenceKind::Linear,
            failures: FailureModel::Exponential,
            failure_classes: Vec::new(),
            tiers: TiersSpec::Geometric(0),
            span: Duration::from_days(14.0),
            samples: 10,
            seed: 1,
            threads: 0,
            sweep: None,
            measure_margin: None,
            regular_io_chunks: None,
            workload_slack: None,
            power: None,
        }
    }
}

impl Scenario {
    /// Parses a scenario from JSON text.
    pub fn parse(text: &str) -> Result<Scenario, ScenarioError> {
        Scenario::from_json(&Json::parse(text)?)
    }

    /// Loads a scenario from a JSON file.
    pub fn load(path: impl AsRef<Path>) -> Result<Scenario, ScenarioError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| ScenarioError::Io {
            path: path.to_path_buf(),
            message: e.to_string(),
        })?;
        Scenario::parse(&text)
    }

    /// Builder: sets the label.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Builder: overrides the strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Builder: overrides the failure model.
    pub fn with_failures(mut self, failures: FailureModel) -> Self {
        self.failures = failures;
        self
    }

    /// Builder: installs a failure severity-class mix (empty = the
    /// paper's single system class). Validated at
    /// [`into_config`](Scenario::into_config) time.
    pub fn with_failure_classes(mut self, classes: Vec<FailureClass>) -> Self {
        self.failure_classes = classes;
        self
    }

    /// Builder: overrides the interference model.
    pub fn with_interference(mut self, interference: InterferenceKind) -> Self {
        self.interference = interference;
        self
    }

    /// Builder: overrides the span.
    pub fn with_span(mut self, span: Duration) -> Self {
        self.span = span;
        self
    }

    /// Builder: overrides samples and base seed.
    pub fn with_sampling(mut self, samples: usize, seed: u64) -> Self {
        self.samples = samples;
        self.seed = seed;
        self
    }

    /// Builder: installs a geometric hierarchy of the given depth.
    pub fn with_tier_depth(mut self, levels: usize) -> Self {
        self.tiers = TiersSpec::Geometric(levels);
        self
    }

    /// Builder: enables energy metering under the given power model.
    pub fn with_power(mut self, power: PowerModel) -> Self {
        self.power = Some(power);
        self
    }

    /// Builder: overrides the platform's aggregate PFS bandwidth, keeping
    /// everything else about the spec (preset or custom) intact — the
    /// `--bandwidth` flag and the campaign `bandwidth_gbps` grid axis.
    pub fn with_bandwidth_gbps(mut self, gbps: f64) -> Self {
        let bw = Bandwidth::from_gbps(gbps);
        match &mut self.platform {
            PlatformSpec::Preset { bandwidth, .. } => *bandwidth = Some(bw),
            PlatformSpec::Custom(p) => *p = p.with_bandwidth(bw),
        }
        self
    }

    /// Builder: overrides the platform's node MTBF — the `--mtbf-years`
    /// flag and the campaign `mtbf_years` grid axis.
    pub fn with_mtbf_years(mut self, years: f64) -> Self {
        let mtbf = Duration::from_years(years);
        match &mut self.platform {
            PlatformSpec::Preset { node_mtbf, .. } => *node_mtbf = Some(mtbf),
            PlatformSpec::Custom(p) => *p = p.with_node_mtbf(mtbf),
        }
        self
    }

    /// Resolves the platform description (preset + overrides, or custom).
    pub fn resolve_platform(&self) -> Result<Platform, ScenarioError> {
        let platform = match &self.platform {
            PlatformSpec::Preset {
                name,
                bandwidth,
                node_mtbf,
            } => {
                let mut p = match name.as_str() {
                    "cielo" => coopckpt_workload::cielo(),
                    "prospective" => coopckpt_workload::prospective(),
                    "exascale" => coopckpt_workload::exascale(),
                    other => {
                        return Err(ScenarioError::invalid(
                            "platform.preset",
                            format!("unknown platform '{other}' (cielo|prospective|exascale)"),
                        ))
                    }
                };
                if let Some(bw) = bandwidth {
                    p = p.with_bandwidth(*bw);
                }
                if let Some(mtbf) = node_mtbf {
                    p = p.with_node_mtbf(*mtbf);
                }
                p
            }
            PlatformSpec::Custom(p) => p.clone(),
        };
        platform
            .validate()
            .map_err(|e| ScenarioError::invalid("platform", e.to_string()))?;
        Ok(platform)
    }

    /// The application classes on the given platform. Trace workloads
    /// are scanned up to the scenario span and return the synthesized
    /// shape table — which is why resolution can fail (missing file,
    /// malformed record, no jobs inside the span). Custom classes get the
    /// two job checks a trace record gets: the job fits the platform and
    /// its checkpoint is not empty.
    pub fn resolve_classes(&self, platform: &Platform) -> Result<Vec<AppClass>, ScenarioError> {
        match &self.workload {
            WorkloadSource::Apex => Ok(coopckpt_workload::classes_for(platform)),
            WorkloadSource::Custom(classes) => {
                for (i, c) in classes.iter().enumerate() {
                    let field = |key: &str| format!("workload.classes[{i}].{key}");
                    if c.q_nodes > platform.nodes {
                        return Err(ScenarioError::invalid(
                            field("q_nodes"),
                            format!(
                                "class '{}' requests {} nodes but {} has only {}",
                                c.name, c.q_nodes, platform.name, platform.nodes
                            ),
                        ));
                    }
                    if !c.ckpt_bytes.is_valid() || c.ckpt_bytes.is_zero() {
                        return Err(ScenarioError::invalid(
                            field(CKPT.human),
                            format!("class '{}': checkpoint volume must be positive", c.name),
                        ));
                    }
                }
                Ok(classes.clone())
            }
            WorkloadSource::Trace(spec) => Ok(self.scan_trace(spec, platform)?.0),
        }
    }

    /// Scans a trace workload spec into its shape table, returning the
    /// classes and the canonical spec string (the value stored in
    /// [`SimConfig::workload_source`]).
    fn scan_trace(
        &self,
        spec: &str,
        platform: &Platform,
    ) -> Result<(Vec<AppClass>, String), ScenarioError> {
        let spec = TraceSpec::parse(spec)
            .map_err(|e| ScenarioError::invalid("workload.trace", e.to_string()))?;
        let horizon = coopckpt_des::Time::ZERO + self.span;
        let scanned = TraceClasses::scan_spec(&spec, platform, horizon)
            .map_err(|e| ScenarioError::invalid("workload.trace", e.to_string()))?;
        if scanned.classes.is_empty() {
            return Err(ScenarioError::invalid(
                "workload.trace",
                "trace submits no jobs inside the scenario span",
            ));
        }
        Ok((scanned.classes, spec.spec_string()))
    }

    /// Compiles the spec into the low-level [`SimConfig`] builder. The
    /// conversion is lossless: it takes exactly the same construction path
    /// as hand-built configs, so a scenario-driven run is bit-identical to
    /// the equivalent builder-driven run at equal seed.
    pub fn into_config(&self) -> Result<SimConfig, ScenarioError> {
        if !(self.span.is_finite() && self.span.is_positive()) {
            return Err(ScenarioError::invalid("span_secs", "span must be positive"));
        }
        // The JSON reader applies the same rules; they are checked again
        // here because flag-built scenarios and grid points (a suite's
        // axes are applied after the base parses) never pass through it.
        check_samples(self.samples)?;
        check_seed_range(self.seed, self.samples)?;
        let platform = self.resolve_platform()?;
        let (classes, trace_source) = match &self.workload {
            WorkloadSource::Trace(spec) => {
                let (classes, canonical) = self.scan_trace(spec, &platform)?;
                (classes, Some(canonical))
            }
            _ => (self.resolve_classes(&platform)?, None),
        };
        let mut config = SimConfig::new(platform, classes, self.strategy)
            .with_span(self.span)
            .with_interference(self.interference)
            .with_failures(self.failures);
        config.workload_source = trace_source;
        check_failure_classes(&self.failure_classes)?;
        config.failure_classes = self.failure_classes.clone();
        if let FailureModel::Weibull(shape) = self.failures {
            // No classes means the paper's single system class, as in the
            // engine.
            let paper = coopckpt_failure::system_only();
            let mix = if self.failure_classes.is_empty() {
                &paper
            } else {
                &self.failure_classes
            };
            let p = &config.platform;
            coopckpt_failure::FailureTrace::check_weibull(p.nodes, p.node_mtbf, shape, mix)
                .map_err(|e| ScenarioError::invalid("failures", e))?;
        }
        config.tiers = match &self.tiers {
            TiersSpec::Geometric(k) => {
                geometric_tiers(&config.platform, check_tier_depth(*k as u64)?)
            }
            TiersSpec::Explicit(tiers) => tiers.clone(),
        };
        if let Some(margin) = self.measure_margin {
            // Also false for NaN: the window is [margin, span - margin].
            if !(margin.as_secs() >= 0.0 && margin * 2.0 < self.span) {
                return Err(ScenarioError::invalid(
                    "measure_margin_secs",
                    "margins must be non-negative and leave a non-empty measurement window",
                ));
            }
            config.measure_margin = margin;
        }
        if let Some(chunks) = self.regular_io_chunks {
            // The engine counts regular-I/O chunks in a `u32`.
            if !(1..=u32::MAX as usize).contains(&chunks) {
                return Err(ScenarioError::invalid(
                    "regular_io_chunks",
                    format!("expected 1..={} chunks, got {chunks}", u32::MAX),
                ));
            }
            config.regular_io_chunks = chunks;
        }
        if let Some(slack) = self.workload_slack {
            if !(slack.is_finite() && slack > 0.0) {
                return Err(ScenarioError::invalid(
                    "workload_slack",
                    "workload slack must be positive",
                ));
            }
            config.workload_slack = slack;
        }
        if let Some(power) = self.power {
            power
                .validate()
                .map_err(|e| ScenarioError::invalid("power", e))?;
            config = config.with_power(power);
        }
        // Trace workloads stream their jobs; generated ones must fit the
        // generator's draft budget, so no accepted span reaches its limit.
        // The classes move through the generator spec and back: warm
        // cache hits compile the scenario too, so this stays clone-free.
        if config.workload_source.is_none() {
            let spec = WorkloadSpec::try_new(std::mem::take(&mut config.classes))
                .map_err(|e| ScenarioError::invalid("workload.classes", e))?
                .with_min_span(config.workload_span());
            spec.check_draft_budget(&config.platform).map_err(|e| {
                ScenarioError::invalid(
                    "span_secs",
                    format!("span of {} days is too long: {e}", self.span.as_days()),
                )
            })?;
            config.classes = spec.classes;
        }
        Ok(config)
    }

    /// The inverse of [`Scenario::into_config`]: wraps a hand-built config
    /// as a scenario (custom platform + explicit classes/tiers, all
    /// overrides pinned), with default sampling. `record_trace` is a
    /// run-mode flag, not part of the spec, and is not carried over.
    pub fn from_config(config: &SimConfig) -> Scenario {
        Scenario {
            name: None,
            platform: PlatformSpec::Custom(config.platform.clone()),
            workload: match &config.workload_source {
                // The canonical spec string round-trips through a rescan:
                // the classes ARE the scan of the spec at this span, so
                // `into_config` rebuilds them identically (and cache keys
                // distinguish trace configs from equal-shaped batch ones).
                Some(spec) => WorkloadSource::Trace(spec.clone()),
                None => WorkloadSource::Custom(config.classes.clone()),
            },
            strategy: config.strategy,
            interference: config.interference,
            failures: config.failures,
            failure_classes: config.failure_classes.clone(),
            tiers: if config.tiers.is_empty() {
                TiersSpec::Geometric(0)
            } else {
                TiersSpec::Explicit(config.tiers.clone())
            },
            span: config.span,
            measure_margin: Some(config.measure_margin),
            regular_io_chunks: Some(config.regular_io_chunks),
            workload_slack: Some(config.workload_slack),
            power: config.power,
            ..Scenario::default()
        }
    }

    /// The Monte-Carlo configuration this scenario asks for.
    pub fn mc(&self) -> MonteCarloConfig {
        MonteCarloConfig::new(self.samples)
            .with_base_seed(self.seed)
            .with_threads(self.threads)
    }

    // ----- JSON serialization -------------------------------------------

    /// Serializes to the canonical JSON form (raw base units, every
    /// non-default field present). `Scenario::from_json(&s.to_json()) == s`
    /// exactly.
    pub fn to_json(&self) -> Json {
        let mut pairs = Vec::with_capacity(20);
        if let Some(name) = &self.name {
            pairs.push(("name", Json::str(name.clone())));
        }
        pairs.push(("platform", platform_to_json(&self.platform)));
        pairs.push((
            "workload",
            match &self.workload {
                WorkloadSource::Apex => Json::str("apex"),
                WorkloadSource::Custom(classes) => Json::obj([(
                    "classes",
                    Json::Arr(classes.iter().map(class_to_json).collect()),
                )]),
                WorkloadSource::Trace(spec) => Json::obj([("trace", Json::str(spec.clone()))]),
            },
        ));
        pairs.push(("strategy", Json::str(self.strategy.spec_name())));
        pairs.push(("interference", Json::str(self.interference.spec_name())));
        pairs.push(("failures", Json::str(self.failures.spec_name())));
        if !self.failure_classes.is_empty() {
            let classes = self.failure_classes.iter().map(failure_class_to_json);
            pairs.push(("failure_classes", Json::Arr(classes.collect())));
        }
        pairs.push((
            "tiers",
            match &self.tiers {
                TiersSpec::Geometric(k) => Json::Num(*k as f64),
                TiersSpec::Explicit(tiers) => Json::Arr(tiers.iter().map(tier_to_json).collect()),
            },
        ));
        pairs.push(SPAN.entry(self.span));
        pairs.push(("samples", Json::Num(self.samples as f64)));
        // Seeds above 2^53 would be silently rounded as JSON numbers;
        // emit them as decimal strings so the round trip stays exact.
        pairs.push((
            "seed",
            if self.seed <= (1 << 53) {
                Json::Num(self.seed as f64)
            } else {
                Json::str(self.seed.to_string())
            },
        ));
        if self.threads != 0 {
            pairs.push(("threads", Json::Num(self.threads as f64)));
        }
        pairs.extend(self.measure_margin.map(|m| MEASURE_MARGIN.entry(m)));
        if let Some(chunks) = self.regular_io_chunks {
            pairs.push(("regular_io_chunks", Json::Num(chunks as f64)));
        }
        if let Some(slack) = self.workload_slack {
            pairs.push(("workload_slack", Json::Num(slack)));
        }
        if let Some(power) = &self.power {
            pairs.push(("power", power_to_json(power)));
        }
        if let Some(sweep) = &self.sweep {
            let values = sweep.values.iter().map(|&v| Json::Num(v)).collect();
            pairs.push((
                "sweep",
                Json::obj([
                    ("axis", Json::str(sweep.name())),
                    ("values", Json::Arr(values)),
                ]),
            ));
        }
        Json::obj(pairs)
    }

    /// Pretty-printed canonical JSON (see [`Scenario::to_json`]).
    pub fn to_json_string(&self) -> String {
        self.to_json().pretty()
    }

    /// Parses a scenario from a JSON value. Missing fields take the
    /// [`Scenario::default`] values; unknown keys are rejected.
    pub fn from_json(v: &Json) -> Result<Scenario, ScenarioError> {
        let mut f = Fields::new(v, "")?;
        let mut sc = Scenario {
            name: f.str("name")?.map(str::to_string),
            ..Scenario::default()
        };
        if let Some(p) = f.get("platform") {
            sc.platform = platform_from_json(p)?;
        }
        if let Some(w) = f.get("workload") {
            sc.workload = workload_from_json(w)?;
        }
        sc.strategy = f.spec("strategy")?.unwrap_or(sc.strategy);
        sc.interference = f.spec("interference")?.unwrap_or(sc.interference);
        sc.failures = f.spec("failures")?.unwrap_or(sc.failures);
        if let Some(fc) = f.get("failure_classes") {
            sc.failure_classes = failure_classes_from_json(fc)?;
        }
        if let Some(t) = f.get("tiers") {
            sc.tiers = tiers_from_json(t)?;
        }
        sc.span = f.quantity(&SPAN)?.unwrap_or(sc.span);
        if let Some(samples) = f.usize("samples")? {
            check_samples(samples)?;
            sc.samples = samples;
        }
        if let Some(v) = f.get("seed") {
            // Numbers for everyday seeds; decimal strings keep seeds
            // above 2^53 exact (the canonical serializer emits those).
            sc.seed = match v {
                Json::Str(s) => s.parse().ok(),
                other => other.as_u64(),
            }
            .ok_or_else(|| ScenarioError::invalid("seed", "expected a non-negative integer"))?;
        }
        check_seed_range(sc.seed, sc.samples)?;
        sc.threads = f.usize("threads")?.unwrap_or(sc.threads);
        sc.measure_margin = f.quantity(&MEASURE_MARGIN)?;
        sc.regular_io_chunks = f.usize("regular_io_chunks")?;
        sc.workload_slack = f.f64("workload_slack")?;
        sc.power = f.get("power").map(power_from_json).transpose()?;
        sc.sweep = f.get("sweep").map(sweep_from_json).transpose()?;
        f.done()?;
        Ok(sc)
    }
}

// ----- validation rules shared by every front door -----------------------

/// At least one Monte-Carlo instance.
fn check_samples(samples: usize) -> Result<(), ScenarioError> {
    if samples == 0 {
        return Err(ScenarioError::invalid(
            "samples",
            "at least one sample required",
        ));
    }
    Ok(())
}

/// Instance seeds are `seed.wrapping_add(0 .. samples)`. Library callers
/// get the documented wrap; a *scenario* whose seed range would wrap past
/// `u64::MAX` is almost certainly a typo, and the wrapped instances would
/// silently collide with low-seed points, so it is rejected.
fn check_seed_range(seed: u64, samples: usize) -> Result<(), ScenarioError> {
    if seed
        .checked_add((samples as u64).saturating_sub(1))
        .is_none()
    {
        return Err(ScenarioError::invalid(
            "seed",
            format!(
                "seed {seed} + samples {samples} overflows the u64 seed range; \
                 lower the seed or the sample count"
            ),
        ));
    }
    Ok(())
}

/// A geometric hierarchy depth, at most [`MAX_TIER_DEPTH`].
fn check_tier_depth(levels: u64) -> Result<usize, ScenarioError> {
    if levels > MAX_TIER_DEPTH as u64 {
        return Err(ScenarioError::invalid(
            "tiers",
            format!("hierarchy depth {levels} exceeds the maximum of {MAX_TIER_DEPTH}"),
        ));
    }
    Ok(levels as usize)
}

/// Checks a failure-class mix wherever one enters: scenario JSON, the
/// CLI's `--failure-classes` and [`Scenario::into_config`]. Each share
/// lies in `[0, 1]` and the shares sum to 1; numeric severities go no
/// deeper than [`MAX_TIER_DEPTH`] (deeper strikes are spelled
/// `"system"`), so the echo of every runnable scenario re-parses. An
/// empty mix is the paper's single system class.
pub fn check_failure_classes(classes: &[FailureClass]) -> Result<(), ScenarioError> {
    if classes.is_empty() {
        return Ok(());
    }
    for (i, class) in classes.iter().enumerate() {
        let field = |key: &str| format!("failure_classes[{i}].{key}");
        if !(class.share.is_finite() && (0.0..=1.0).contains(&class.share)) {
            return Err(ScenarioError::invalid(
                field("share"),
                format!("share must be in [0, 1], got {}", class.share),
            ));
        }
        if !class.is_system() && class.severity > MAX_TIER_DEPTH {
            return Err(ScenarioError::invalid(
                field("severity"),
                format!(
                    "class '{}': severity {} exceeds the maximum depth \
                     {MAX_TIER_DEPTH} (use \"system\")",
                    class.name, class.severity
                ),
            ));
        }
    }
    coopckpt_failure::validate_classes(classes)
        .map_err(|e| ScenarioError::invalid("failure_classes", e))
}

// ----- JSON reader and unit declarations ---------------------------------

/// Room for the most keys one scenario object accepts (the top level's 19).
const MAX_KEYS: usize = 24;

/// Reads one JSON object. Each getter names a key the object accepts, and
/// [`Fields::done`] rejects any other key, listing the accepted ones, so
/// an object accepts exactly the keys its parser reads.
struct Fields<'a> {
    pairs: &'a [(String, Json)],
    /// Dotted path of the object (`""` at the top level).
    path: &'a str,
    asked: [&'static str; MAX_KEYS],
    n_asked: usize,
    /// How many of `pairs` the getters found.
    found: usize,
}

impl<'a> Fields<'a> {
    fn new(v: &'a Json, path: &'a str) -> Result<Fields<'a>, ScenarioError> {
        let pairs = v
            .as_object()
            .ok_or_else(|| ScenarioError::invalid(path, "expected a JSON object"))?;
        Ok(Fields {
            pairs,
            path,
            asked: [""; MAX_KEYS],
            n_asked: 0,
            found: 0,
        })
    }

    /// An error naming `key` of this object by its dotted path.
    fn error(&self, key: &str, message: impl Into<String>) -> ScenarioError {
        if self.path.is_empty() {
            ScenarioError::invalid(key, message)
        } else {
            ScenarioError::invalid(format!("{}.{key}", self.path), message)
        }
    }

    fn missing(&self, key: &str) -> ScenarioError {
        self.error(key, "required field is missing")
    }

    /// The value of `key`, if present. Each key is asked for once.
    fn get(&mut self, key: &'static str) -> Option<&'a Json> {
        debug_assert!(
            !self.asked[..self.n_asked].contains(&key),
            "{key} read twice"
        );
        self.asked[self.n_asked] = key;
        self.n_asked += 1;
        let value = self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        self.found += usize::from(value.is_some());
        value
    }

    /// The value of `key` converted by `read`; `expected` names the type
    /// when the conversion fails.
    fn typed<T>(
        &mut self,
        key: &'static str,
        read: fn(&'a Json) -> Option<T>,
        expected: &str,
    ) -> Result<Option<T>, ScenarioError> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => read(v).map(Some).ok_or_else(|| self.error(key, expected)),
        }
    }

    fn f64(&mut self, key: &'static str) -> Result<Option<f64>, ScenarioError> {
        self.typed(key, Json::as_f64, "expected a number")
    }

    fn usize(&mut self, key: &'static str) -> Result<Option<usize>, ScenarioError> {
        let read = |v: &Json| v.as_u64().and_then(|n| usize::try_from(n).ok());
        self.typed(key, read, "expected a non-negative integer")
    }

    fn str(&mut self, key: &'static str) -> Result<Option<&'a str>, ScenarioError> {
        self.typed(key, Json::as_str, "expected a string")
    }

    /// A spec string read through its `FromStr` grammar.
    fn spec<T: FromStr<Err = String>>(
        &mut self,
        key: &'static str,
    ) -> Result<Option<T>, ScenarioError> {
        match self.str(key)? {
            None => Ok(None),
            Some(s) => s.parse().map(Some).map_err(|e| self.error(key, e)),
        }
    }

    /// A quantity in either of its spellings (not both).
    fn quantity<T: BaseUnit>(&mut self, q: &Quantity<T>) -> Result<Option<T>, ScenarioError> {
        match (self.f64(q.raw)?, self.f64(q.human)?) {
            (Some(_), Some(_)) => Err(self.error(
                q.raw,
                format!("give either {} or {}, not both", q.raw, q.human),
            )),
            (raw, human) => Ok(raw.map(T::from_base).or(human.map(q.from_human))),
        }
    }

    /// A required quantity; a missing one is reported under its human key.
    fn need<T: BaseUnit>(&mut self, q: &Quantity<T>) -> Result<T, ScenarioError> {
        self.quantity(q)?.ok_or_else(|| self.missing(q.human))
    }

    /// Rejects any key no getter asked for.
    fn done(self) -> Result<(), ScenarioError> {
        if self.found == self.pairs.len() {
            return Ok(());
        }
        let asked = &self.asked[..self.n_asked];
        for (key, _) in self.pairs {
            if !asked.contains(&key.as_str()) {
                let known = asked.join(", ");
                return Err(self.error(key, format!("unknown key (known keys: {known})")));
            }
        }
        Ok(())
    }
}

/// A unit type whose raw JSON spelling is its base unit (seconds, bytes,
/// bytes per second).
trait BaseUnit: Copy {
    fn from_base(x: f64) -> Self;
    fn base(self) -> f64;
}

impl BaseUnit for Duration {
    fn from_base(x: f64) -> Self {
        Duration::from_secs(x)
    }
    fn base(self) -> f64 {
        self.as_secs()
    }
}

impl BaseUnit for Bytes {
    fn from_base(x: f64) -> Self {
        Bytes::new(x)
    }
    fn base(self) -> f64 {
        self.as_bytes()
    }
}

impl BaseUnit for Bandwidth {
    fn from_base(x: f64) -> Self {
        Bandwidth::new(x)
    }
    fn base(self) -> f64 {
        self.as_bytes_per_sec()
    }
}

/// A quantity a file may spell in raw base units or in one human unit
/// (`span_secs` or `span_days`). The canonical writer emits the raw key.
struct Quantity<T> {
    raw: &'static str,
    human: &'static str,
    from_human: fn(f64) -> T,
}

impl<T: BaseUnit> Quantity<T> {
    const fn new(raw: &'static str, human: &'static str, from_human: fn(f64) -> T) -> Self {
        Quantity {
            raw,
            human,
            from_human,
        }
    }

    /// The canonical `(raw key, value)` entry.
    fn entry(&self, value: T) -> (&'static str, Json) {
        (self.raw, Json::Num(value.base()))
    }
}

const SPAN: Quantity<Duration> = Quantity::new("span_secs", "span_days", Duration::from_days);
const MEASURE_MARGIN: Quantity<Duration> = Quantity::new(
    "measure_margin_secs",
    "measure_margin_days",
    Duration::from_days,
);
const PFS_BANDWIDTH: Quantity<Bandwidth> = Quantity::new(
    "bandwidth_bytes_per_sec",
    "bandwidth_gbps",
    Bandwidth::from_gbps,
);
const NODE_MTBF: Quantity<Duration> =
    Quantity::new("node_mtbf_secs", "mtbf_years", Duration::from_years);
const MEM_PER_NODE: Quantity<Bytes> =
    Quantity::new("mem_per_node_bytes", "mem_per_node_gb", Bytes::from_gb);
const WALLTIME: Quantity<Duration> =
    Quantity::new("walltime_secs", "walltime_hours", Duration::from_hours);
const INPUT: Quantity<Bytes> = Quantity::new("input_bytes", "input_gb", Bytes::from_gb);
const OUTPUT: Quantity<Bytes> = Quantity::new("output_bytes", "output_gb", Bytes::from_gb);
const CKPT: Quantity<Bytes> = Quantity::new("ckpt_bytes", "ckpt_gb", Bytes::from_gb);
const REGULAR_IO: Quantity<Bytes> =
    Quantity::new("regular_io_bytes", "regular_io_gb", Bytes::from_gb);
const TIER_CAPACITY: Quantity<Bytes> =
    Quantity::new("capacity_bytes", "capacity_gb", Bytes::from_gb);
const TIER_WRITE_BW: Quantity<Bandwidth> = Quantity::new(
    "write_bw_bytes_per_sec",
    "write_bw_gbps",
    Bandwidth::from_gbps,
);

/// A power-model draw: its JSON key and its field.
type Draw = (&'static str, fn(&mut PowerModel) -> &mut f64);

/// The power model's draws, in canonical order.
const POWER_DRAWS: [Draw; 10] = [
    ("idle_w", |p| &mut p.idle_w),
    ("compute_w", |p| &mut p.compute_w),
    ("io_w", |p| &mut p.io_w),
    ("ckpt_w", |p| &mut p.ckpt_w),
    ("recovery_w", |p| &mut p.recovery_w),
    ("down_w", |p| &mut p.down_w),
    ("pfs_static_w", |p| &mut p.pfs_static_w),
    ("pfs_active_w", |p| &mut p.pfs_active_w),
    ("tier_static_w", |p| &mut p.tier_static_w),
    ("tier_active_w", |p| &mut p.tier_active_w),
];

// ----- per-object readers and writers -------------------------------------

fn platform_to_json(spec: &PlatformSpec) -> Json {
    match spec {
        PlatformSpec::Preset {
            name,
            bandwidth,
            node_mtbf,
        } => {
            let mut pairs = vec![("preset", Json::str(name.clone()))];
            pairs.extend(bandwidth.map(|bw| PFS_BANDWIDTH.entry(bw)));
            pairs.extend(node_mtbf.map(|mtbf| NODE_MTBF.entry(mtbf)));
            Json::obj(pairs)
        }
        PlatformSpec::Custom(p) => Json::obj([
            ("name", Json::str(p.name.clone())),
            ("nodes", Json::Num(p.nodes as f64)),
            ("cores_per_node", Json::Num(p.cores_per_node as f64)),
            MEM_PER_NODE.entry(p.mem_per_node),
            PFS_BANDWIDTH.entry(p.pfs_bandwidth),
            NODE_MTBF.entry(p.node_mtbf),
        ]),
    }
}

fn platform_from_json(v: &Json) -> Result<PlatformSpec, ScenarioError> {
    // Bare string shorthand: "cielo" == {"preset": "cielo"}.
    if let Some(name) = v.as_str() {
        return Ok(PlatformSpec::Preset {
            name: name.to_string(),
            bandwidth: None,
            node_mtbf: None,
        });
    }
    let mut f = Fields::new(v, "platform")?;
    let bandwidth = f.quantity(&PFS_BANDWIDTH)?;
    let node_mtbf = f.quantity(&NODE_MTBF)?;
    let spec = match f.str("preset")? {
        Some(name) => PlatformSpec::Preset {
            name: name.to_string(),
            bandwidth,
            node_mtbf,
        },
        None => {
            let name = f.str("name")?.ok_or_else(|| f.missing("name"))?;
            let nodes = f.usize("nodes")?.ok_or_else(|| f.missing("nodes"))?;
            let cores = f.usize("cores_per_node")?.unwrap_or(1);
            let mem = f.need(&MEM_PER_NODE)?;
            let bandwidth = bandwidth.ok_or_else(|| f.missing(PFS_BANDWIDTH.human))?;
            let node_mtbf = node_mtbf.ok_or_else(|| f.missing(NODE_MTBF.human))?;
            let platform = Platform::new(name, nodes, cores, mem, bandwidth, node_mtbf)
                .map_err(|e| ScenarioError::invalid("platform", e.to_string()))?;
            PlatformSpec::Custom(platform)
        }
    };
    f.done()?;
    Ok(spec)
}

fn workload_from_json(v: &Json) -> Result<WorkloadSource, ScenarioError> {
    if let Some(s) = v.as_str() {
        return match s {
            "apex" => Ok(WorkloadSource::Apex),
            other => Err(ScenarioError::invalid(
                "workload",
                format!("unknown workload '{other}' (apex, or an object with classes or trace)"),
            )),
        };
    }
    let mut f = Fields::new(v, "workload")?;
    let (trace, classes) = (f.get("trace"), f.get("classes"));
    f.done()?;
    if let Some(trace) = trace {
        if classes.is_some() {
            return Err(ScenarioError::invalid(
                "workload",
                "give either classes or trace, not both",
            ));
        }
        let spec = trace.as_str().ok_or_else(|| {
            ScenarioError::invalid(
                "workload.trace",
                "expected a job-log path or a synthetic:... spec string",
            )
        })?;
        return Ok(WorkloadSource::Trace(spec.to_string()));
    }
    let items = classes
        .ok_or_else(|| ScenarioError::invalid("workload.classes", "required field is missing"))?
        .as_array()
        .ok_or_else(|| ScenarioError::invalid("workload.classes", "expected an array"))?;
    if items.is_empty() {
        return Err(ScenarioError::invalid(
            "workload.classes",
            "at least one application class required",
        ));
    }
    let classes = items
        .iter()
        .enumerate()
        .map(|(i, c)| class_from_json(c, &format!("workload.classes[{i}]")))
        .collect::<Result<Vec<AppClass>, _>>()?;
    Ok(WorkloadSource::Custom(classes))
}

fn class_to_json(c: &AppClass) -> Json {
    Json::obj([
        ("name", Json::str(c.name.clone())),
        ("q_nodes", Json::Num(c.q_nodes as f64)),
        WALLTIME.entry(c.walltime),
        ("resource_share", Json::Num(c.resource_share)),
        INPUT.entry(c.input_bytes),
        OUTPUT.entry(c.output_bytes),
        CKPT.entry(c.ckpt_bytes),
        REGULAR_IO.entry(c.regular_io_bytes),
    ])
}

fn class_from_json(v: &Json, path: &str) -> Result<AppClass, ScenarioError> {
    let mut f = Fields::new(v, path)?;
    let name = f.str("name")?.ok_or_else(|| f.missing("name"))?;
    let q_nodes = f.usize("q_nodes")?.ok_or_else(|| f.missing("q_nodes"))?;
    if q_nodes == 0 {
        return Err(f.error("q_nodes", "jobs must use at least one node"));
    }
    let walltime = f.need(&WALLTIME)?;
    if !(walltime.is_finite() && walltime.is_positive()) {
        return Err(f.error(WALLTIME.human, "walltime must be positive"));
    }
    let resource_share = f
        .f64("resource_share")?
        .ok_or_else(|| f.missing("resource_share"))?;
    if !(resource_share.is_finite() && resource_share > 0.0 && resource_share <= 1.0) {
        return Err(f.error("resource_share", "resource share must be in (0, 1]"));
    }
    let mut volume = |q: &Quantity<Bytes>, required: bool| match f.quantity(q)? {
        Some(b) if b.is_valid() => Ok(b),
        Some(_) => Err(f.error(q.human, "volumes must be finite and non-negative")),
        None if required => Err(f.missing(q.human)),
        None => Ok(Bytes::ZERO),
    };
    let class = AppClass {
        name: name.to_string(),
        q_nodes,
        walltime,
        resource_share,
        input_bytes: volume(&INPUT, true)?,
        output_bytes: volume(&OUTPUT, true)?,
        ckpt_bytes: volume(&CKPT, true)?,
        regular_io_bytes: volume(&REGULAR_IO, false)?,
    };
    f.done()?;
    Ok(class)
}

fn tiers_from_json(v: &Json) -> Result<TiersSpec, ScenarioError> {
    if let Some(k) = v.as_u64() {
        return Ok(TiersSpec::Geometric(check_tier_depth(k)?));
    }
    let items = v.as_array().ok_or_else(|| {
        ScenarioError::invalid("tiers", "expected a tier count or an array of tier objects")
    })?;
    let tiers = items
        .iter()
        .enumerate()
        .map(|(i, t)| tier_from_json(t, &format!("tiers[{i}]")))
        .collect::<Result<Vec<TierSpec>, _>>()?;
    Ok(TiersSpec::Explicit(tiers))
}

fn tier_to_json(t: &TierSpec) -> Json {
    let mut pairs = vec![
        ("name", Json::str(t.name.clone())),
        TIER_CAPACITY.entry(t.capacity),
        TIER_WRITE_BW.entry(t.write_bw),
    ];
    if t.per_writer_node {
        pairs.push(("per_writer_node", Json::Bool(true)));
    }
    Json::obj(pairs)
}

fn tier_from_json(v: &Json, path: &str) -> Result<TierSpec, ScenarioError> {
    let mut f = Fields::new(v, path)?;
    let name = f.str("name")?.ok_or_else(|| f.missing("name"))?;
    let capacity = f.need(&TIER_CAPACITY)?;
    let write_bw = f.need(&TIER_WRITE_BW)?;
    let positive =
        capacity.is_valid() && !capacity.is_zero() && write_bw.is_valid() && !write_bw.is_zero();
    if !positive {
        return Err(ScenarioError::invalid(
            path,
            "tier capacity and write bandwidth must be positive and finite",
        ));
    }
    let per_writer_node = f
        .typed("per_writer_node", Json::as_bool, "expected a boolean")?
        .unwrap_or(false);
    f.done()?;
    Ok(if per_writer_node {
        TierSpec::per_node(name, capacity, write_bw)
    } else {
        TierSpec::new(name, capacity, write_bw)
    })
}

fn failure_class_to_json(c: &FailureClass) -> Json {
    Json::obj([
        ("name", Json::str(c.name.clone())),
        ("share", Json::Num(c.share)),
        (
            "severity",
            if c.is_system() {
                Json::str("system")
            } else {
                Json::Num(c.severity as f64)
            },
        ),
    ])
}

/// Parses one failure class: `severity` is the number of shallowest
/// hierarchy levels a strike invalidates, or the string `"system"` for
/// the paper's PFS-only recovery.
fn failure_class_from_json(v: &Json, path: &str) -> Result<FailureClass, ScenarioError> {
    let mut f = Fields::new(v, path)?;
    let name = f.str("name")?.ok_or_else(|| f.missing("name"))?;
    let share = f.f64("share")?.ok_or_else(|| f.missing("share"))?;
    let severity = match f.get("severity") {
        None => return Err(f.missing("severity")),
        Some(Json::Str(s)) if s == "system" => FailureClass::SYSTEM,
        Some(v) => v
            .as_u64()
            .and_then(|s| usize::try_from(s).ok())
            .ok_or_else(|| f.error("severity", "expected a non-negative integer or \"system\""))?,
    };
    f.done()?;
    Ok(FailureClass {
        name: name.to_string(),
        share,
        severity,
    })
}

fn failure_classes_from_json(v: &Json) -> Result<Vec<FailureClass>, ScenarioError> {
    let items = v
        .as_array()
        .ok_or_else(|| ScenarioError::invalid("failure_classes", "expected an array"))?;
    let classes = items
        .iter()
        .enumerate()
        .map(|(i, c)| failure_class_from_json(c, &format!("failure_classes[{i}]")))
        .collect::<Result<Vec<FailureClass>, _>>()?;
    check_failure_classes(&classes)?;
    Ok(classes)
}

fn power_to_json(p: &PowerModel) -> Json {
    let mut p = *p;
    Json::obj(POWER_DRAWS.map(|(key, draw)| (key, Json::Num(*draw(&mut p)))))
}

/// Parses a power block: a bare preset name (`"cielo"`, `"prospective"`),
/// or an object whose fields override a base model — the named `preset`
/// when given, an all-zero model otherwise (so a minimal
/// `{"compute_w": 200, "ckpt_w": 400}` describes a pure trade-off model).
fn power_from_json(v: &Json) -> Result<PowerModel, ScenarioError> {
    let preset = |name: &str, path: &str| {
        PowerModel::preset(name).ok_or_else(|| {
            ScenarioError::invalid(
                path,
                format!("unknown power preset '{name}' (cielo|prospective)"),
            )
        })
    };
    if let Some(name) = v.as_str() {
        return preset(name, "power");
    }
    let mut f = Fields::new(v, "power")?;
    let mut p = match f.str("preset")? {
        Some(name) => preset(name, "power.preset")?,
        None => PowerModel::uniform(0.0),
    };
    for (key, draw) in POWER_DRAWS {
        if let Some(w) = f.f64(key)? {
            *draw(&mut p) = w;
        }
    }
    f.done()?;
    p.validate()
        .map_err(|e| ScenarioError::invalid("power", e))?;
    Ok(p)
}

fn sweep_from_json(v: &Json) -> Result<Sweep, ScenarioError> {
    let mut f = Fields::new(v, "sweep")?;
    let axis = f.str("axis")?.ok_or_else(|| f.missing("axis"))?;
    let values = match f.get("values") {
        None => None,
        Some(v) => Some(
            v.as_array()
                .ok_or_else(|| ScenarioError::invalid("sweep.values", "expected an array"))?
                .iter()
                .map(|item| {
                    item.as_f64()
                        .ok_or_else(|| ScenarioError::invalid("sweep.values", "expected numbers"))
                })
                .collect::<Result<Vec<f64>, _>>()?,
        ),
    };
    f.done()?;
    Sweep::new(axis, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::CheckpointPolicy;

    #[test]
    fn default_scenario_compiles_to_the_cli_default_config() {
        let sc = Scenario::default();
        let cfg = sc.into_config().unwrap();
        assert_eq!(cfg.platform.name, "Cielo");
        assert_eq!(cfg.classes.len(), 4);
        assert_eq!(cfg.span, Duration::from_days(14.0));
        assert_eq!(cfg.strategy, Strategy::least_waste());
        assert!(cfg.tiers.is_empty());
    }

    #[test]
    fn minimal_document_parses_with_defaults() {
        let sc = Scenario::parse("{}").unwrap();
        assert_eq!(sc, Scenario::default());
        let sc = Scenario::parse(r#"{"platform": "prospective"}"#).unwrap();
        assert_eq!(sc.resolve_platform().unwrap().name, "Prospective");
    }

    #[test]
    fn human_units_match_the_cli_construction_path() {
        let sc = Scenario::parse(
            r#"{
                "platform": {"preset": "cielo", "bandwidth_gbps": 40, "mtbf_years": 5},
                "span_days": 7
            }"#,
        )
        .unwrap();
        let cfg = sc.into_config().unwrap();
        assert_eq!(cfg.platform.pfs_bandwidth, Bandwidth::from_gbps(40.0));
        assert_eq!(cfg.platform.node_mtbf, Duration::from_years(5.0));
        assert_eq!(cfg.span, Duration::from_days(7.0));
    }

    #[test]
    fn canonical_serialization_round_trips_exactly() {
        let mut sc = Scenario::default()
            .with_name("x")
            .with_strategy(Strategy::tiered(CheckpointPolicy::fixed_hourly()))
            .with_failures(FailureModel::Weibull(0.7))
            .with_interference(InterferenceKind::Degraded(1.0 / 3.0))
            .with_tier_depth(3)
            .with_sampling(17, 99);
        sc.sweep = Some(Sweep::new("mtbf", Some(vec![2.0, 50.0])).unwrap());
        sc.workload_slack = Some(1.25);
        let back = Scenario::parse(&sc.to_json_string()).unwrap();
        assert_eq!(back, sc);
    }

    #[test]
    fn from_config_into_config_is_lossless() {
        let platform = Platform::new(
            "lab",
            64,
            8,
            Bytes::from_gb(16.0),
            Bandwidth::from_gbps(10.0),
            Duration::from_years(5.0),
        )
        .unwrap();
        let classes = coopckpt_workload::classes_for(&platform);
        let base = SimConfig::new(platform, classes, Strategy::ordered(CheckpointPolicy::Daly))
            .with_span(Duration::from_days(9.0))
            .with_failures(FailureModel::Weibull(0.8))
            .with_interference(InterferenceKind::Equal);
        let tiers = geometric_tiers(&base.platform, 2);
        let base = base.with_tiers(tiers);

        let sc = Scenario::from_config(&base);
        let cfg = sc.into_config().unwrap();
        assert_eq!(cfg.platform, base.platform);
        assert_eq!(cfg.classes, base.classes);
        assert_eq!(cfg.strategy, base.strategy);
        assert_eq!(cfg.span, base.span);
        assert_eq!(cfg.measure_margin, base.measure_margin);
        assert_eq!(cfg.interference, base.interference);
        assert_eq!(cfg.failures, base.failures);
        assert_eq!(cfg.regular_io_chunks, base.regular_io_chunks);
        assert_eq!(cfg.workload_slack, base.workload_slack);
        assert_eq!(cfg.tiers, base.tiers);

        // And the scenario itself survives a JSON hop.
        let back = Scenario::parse(&sc.to_json_string()).unwrap();
        assert_eq!(back, sc);
    }

    #[test]
    fn unknown_keys_are_rejected_with_the_known_list() {
        let e = Scenario::parse(r#"{"tires": 3}"#).unwrap_err();
        match e {
            ScenarioError::Invalid { field, message } => {
                assert_eq!(field, "tires");
                assert!(message.contains("tiers"), "{message}");
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
        assert!(Scenario::parse(r#"{"platform": {"preset": "cielo", "bw": 1}}"#).is_err());
        assert!(Scenario::parse(r#"{"sweep": {"axis": "bandwidth", "vals": [1]}}"#).is_err());
    }

    #[test]
    fn conflicting_unit_aliases_are_rejected() {
        let e = Scenario::parse(r#"{"span_secs": 60, "span_days": 1}"#).unwrap_err();
        assert!(e.to_string().contains("not both"), "{e}");
    }

    #[test]
    fn validation_errors_carry_field_paths() {
        for (doc, needle) in [
            (r#"{"samples": 0}"#, "samples"),
            (r#"{"strategy": "magic"}"#, "strategy"),
            (r#"{"failures": "weibull:x"}"#, "failures"),
            (r#"{"failures": "weibull:0.007"}"#, "failures"),
            (r#"{"failures": "weibull:1e-300"}"#, "failures"),
            (
                r#"{"sweep": {"axis": "weibull-shape", "values": [1e-300]}}"#,
                "failures",
            ),
            (r#"{"interference": "chaotic"}"#, "interference"),
            (r#"{"interference": "degraded:-0.5"}"#, "interference"),
            (r#"{"platform": {"preset": "nope"}}"#, "platform"),
            (r#"{"sweep": {"axis": "altitude"}}"#, "sweep.axis"),
            (
                r#"{"sweep": {"axis": "tiers", "values": [1.5]}}"#,
                "sweep.values",
            ),
            (
                r#"{"sweep": {"axis": "bandwidth", "values": [-40]}}"#,
                "sweep.values",
            ),
            (r#"{"workload": {"classes": []}}"#, "workload.classes"),
            (r#"{"span_days": -1}"#, "span"),
            (r#"{"span_days": 1e9}"#, "span"),
            (
                r#"{"workload": {"classes": [{"name": "a", "q_nodes": 8,
                    "walltime_hours": 10, "resource_share": 0.5, "input_gb": 1,
                    "output_gb": 1, "ckpt_gb": 1}]}}"#,
                "workload.classes",
            ),
            (
                r#"{"workload": {"classes": [{"name": "a", "q_nodes": 99999,
                    "walltime_hours": 10, "resource_share": 1, "input_gb": 1,
                    "output_gb": 1, "ckpt_gb": 1}]}}"#,
                "workload.classes",
            ),
            (
                r#"{"workload": {"classes": [{"name": "a", "q_nodes": 8,
                    "walltime_hours": 10, "resource_share": 1, "input_gb": 1,
                    "output_gb": 1, "ckpt_gb": 0}]}}"#,
                "workload.classes",
            ),
            (r#"{"regular_io_chunks": 0}"#, "regular_io_chunks"),
            (r#"{"regular_io_chunks": 4294967297}"#, "regular_io_chunks"),
            (
                r#"{"measure_margin_days": -1, "span_days": 2, "samples": 1}"#,
                "measure_margin_secs",
            ),
        ] {
            let sc = Scenario::parse(doc);
            // A sweep compiles each point as it runs; a bad value fails
            // there, before any point simulates.
            let err = match sc {
                Err(e) => e,
                Ok(s) => s
                    .into_config()
                    .and_then(|_| crate::experiments::run_scenario(&s))
                    .expect_err(doc),
            };
            assert!(err.to_string().contains(needle), "{doc}: {err}");
        }
    }

    #[test]
    fn explicit_tiers_and_burst_buffer_parse() {
        let tiers = r#""tiers": [
            {"name": "local", "capacity_gb": 100, "write_bw_gbps": 2, "per_writer_node": true},
            {"name": "bb", "capacity_gb": 1000, "write_bw_gbps": 500}
        ]"#;
        let sc = Scenario::parse(&format!("{{{tiers}}}")).unwrap();
        let TiersSpec::Explicit(tiers_read) = &sc.tiers else {
            panic!("explicit tiers expected");
        };
        assert_eq!(tiers_read.len(), 2);
        assert!(tiers_read[0].per_writer_node);
        assert!(!tiers_read[1].per_writer_node);
        let back = Scenario::parse(&sc.to_json_string()).unwrap();
        assert_eq!(back, sc);
        // A burst buffer is a one-tier `tiers` stack; its old key is unknown.
        let bb = r#""burst_buffer": {"capacity_gb": 50, "write_bw_per_node_gbps": 1}"#;
        match Scenario::parse(&format!("{{{tiers}, {bb}}}")).unwrap_err() {
            ScenarioError::Invalid { field, message } => {
                assert_eq!(field, "burst_buffer");
                assert!(message.contains("tiers"), "{message}");
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn power_block_parses_presets_and_overrides() {
        // Bare preset string.
        let sc = Scenario::parse(r#"{"power": "cielo"}"#).unwrap();
        assert_eq!(sc.power, Some(PowerModel::cielo()));
        // Preset with overrides.
        let sc = Scenario::parse(r#"{"power": {"preset": "prospective", "ckpt_w": 999}}"#).unwrap();
        let p = sc.power.unwrap();
        assert_eq!(p.ckpt_w, 999.0);
        assert_eq!(p.compute_w, PowerModel::prospective().compute_w);
        // Minimal custom model: unset fields default to zero.
        let sc = Scenario::parse(r#"{"power": {"compute_w": 200, "ckpt_w": 400}}"#).unwrap();
        let p = sc.power.unwrap();
        assert_eq!(p.idle_w, 0.0);
        assert_eq!((p.compute_w, p.ckpt_w), (200.0, 400.0));
        // Unknown presets and keys are rejected.
        assert!(Scenario::parse(r#"{"power": "fusion"}"#).is_err());
        assert!(Scenario::parse(r#"{"power": {"watts": 5}}"#).is_err());
        // A model failing validation is rejected at parse time.
        let e = Scenario::parse(r#"{"power": {"compute_w": 0, "ckpt_w": 400}}"#).unwrap_err();
        assert!(e.to_string().contains("power"), "{e}");
    }

    #[test]
    fn power_round_trips_and_reaches_the_config() {
        let sc = Scenario::default().with_power(PowerModel::prospective());
        let back = Scenario::parse(&sc.to_json_string()).unwrap();
        assert_eq!(back, sc);
        let cfg = sc.into_config().unwrap();
        assert_eq!(cfg.power, Some(PowerModel::prospective()));
        // And it survives the config round trip too.
        let sc2 = Scenario::from_config(&cfg);
        assert_eq!(sc2.power, Some(PowerModel::prospective()));
    }

    #[test]
    fn new_sweep_axes_parse_and_validate() {
        let sc = Scenario::parse(r#"{"sweep": {"axis": "weibull-shape"}}"#).unwrap();
        assert_eq!(sc.sweep.unwrap().name(), "weibull-shape");
        let sc =
            Scenario::parse(r#"{"sweep": {"axis": "power-ratio", "values": [0.5, 2]}}"#).unwrap();
        assert_eq!(sc.sweep.unwrap().values, vec![0.5, 2.0]);
        for doc in [
            r#"{"sweep": {"axis": "weibull-shape", "values": [0]}}"#,
            r#"{"sweep": {"axis": "power-ratio", "values": [-1]}}"#,
        ] {
            let e = Scenario::parse(doc).unwrap_err();
            assert!(e.to_string().contains("positive"), "{doc}: {e}");
        }
    }

    #[test]
    fn failure_classes_parse_serialize_and_reach_the_config() {
        let sc = Scenario::parse(
            r#"{
                "tiers": 3,
                "failure_classes": [
                    {"name": "transient", "share": 0.3, "severity": 0},
                    {"name": "node", "share": 0.4, "severity": 1},
                    {"name": "system", "share": 0.3, "severity": "system"}
                ]
            }"#,
        )
        .unwrap();
        assert_eq!(sc.failure_classes.len(), 3);
        assert_eq!(sc.failure_classes[0].severity, 0);
        assert_eq!(sc.failure_classes[1].severity, 1);
        assert!(sc.failure_classes[2].is_system());
        // Canonical round trip is exact.
        let back = Scenario::parse(&sc.to_json_string()).unwrap();
        assert_eq!(back, sc);
        // And the mix reaches the SimConfig.
        let cfg = sc.into_config().unwrap();
        assert_eq!(cfg.failure_classes.len(), 3);
        assert_eq!(cfg.failure_classes[1].name, "node");
        // The default (no block) stays the paper's model.
        let cfg = Scenario::parse("{}").unwrap().into_config().unwrap();
        assert!(cfg.failure_classes.is_empty());
    }

    #[test]
    fn failure_class_validation_errors_carry_paths() {
        for (doc, needle) in [
            (
                r#"{"failure_classes": [{"name": "a", "share": 1.5, "severity": 0}]}"#,
                "share",
            ),
            (
                r#"{"failure_classes": [{"name": "a", "share": 1.0, "severity": "rackish"}]}"#,
                "severity",
            ),
            (
                r#"{"failure_classes": [{"name": "a", "share": 1.0, "severity": 999}]}"#,
                "severity",
            ),
            (
                r#"{"failure_classes": [{"name": "a", "share": 0.5, "severity": 0}]}"#,
                "sum to 1",
            ),
            (
                r#"{"failure_classes": [{"name": "a", "share": 1.0, "severity": 0, "depth": 2}]}"#,
                "unknown key",
            ),
            (r#"{"failure_classes": 3}"#, "expected an array"),
        ] {
            let e = Scenario::parse(doc).unwrap_err();
            assert!(e.to_string().contains(needle), "{doc}: {e}");
        }
    }

    #[test]
    fn programmatic_overdeep_severities_are_rejected_like_json_ones() {
        // The JSON parser bounds numeric severities at MAX_TIER_DEPTH;
        // builder-built scenarios must hit the same wall at into_config
        // time, so every runnable scenario's echo re-parses.
        let sc = Scenario::default().with_failure_classes(vec![FailureClass::new(
            "deep",
            1.0,
            MAX_TIER_DEPTH + 1,
        )]);
        let e = sc.into_config().unwrap_err();
        assert!(e.to_string().contains("system"), "{e}");
        // The sentinel itself is always fine.
        assert!(Scenario::default()
            .with_failure_classes(vec![FailureClass::system("s", 1.0)])
            .into_config()
            .is_ok());
    }

    #[test]
    fn local_failure_share_axis_parses_and_validates() {
        let sc = Scenario::parse(r#"{"sweep": {"axis": "local-failure-share"}}"#).unwrap();
        assert_eq!(
            sc.sweep,
            Some(Sweep::new("local-failure-share", None).unwrap())
        );
        let e = Scenario::parse(r#"{"sweep": {"axis": "local-failure-share", "values": [1.5]}}"#)
            .unwrap_err();
        assert!(e.to_string().contains("[0, 1]"), "{e}");
    }

    #[test]
    fn sweep_defaults_fill_in_axis_values() {
        let sc = Scenario::parse(r#"{"sweep": {"axis": "mtbf"}}"#).unwrap();
        let sweep = sc.sweep.unwrap();
        assert_eq!(sweep.name(), "mtbf");
        assert_eq!(sweep.values, [2.0, 4.0, 10.0, 20.0, 50.0]);
    }

    #[test]
    fn huge_seeds_round_trip_exactly() {
        let sc = Scenario::default().with_sampling(3, u64::MAX - 7);
        let text = sc.to_json_string();
        let back = Scenario::parse(&text).unwrap();
        assert_eq!(back.seed, u64::MAX - 7);
        assert_eq!(back, sc);
        // Everyday seeds still serialize as plain numbers.
        let sc = Scenario::default().with_sampling(3, 42);
        assert!(sc.to_json_string().contains("\"seed\": 42"));
        // Garbage seed strings are rejected.
        assert!(Scenario::parse(r#"{"seed": "not-a-number"}"#).is_err());
    }

    #[test]
    fn wrapping_seed_ranges_are_rejected_at_parse_and_config_time() {
        // The very last representable seed with one sample is fine...
        let max = u64::MAX.to_string();
        let sc = Scenario::parse(&format!(r#"{{"seed": "{max}", "samples": 1}}"#)).unwrap();
        assert_eq!(sc.seed, u64::MAX);
        // ...but a range that would wrap past u64::MAX is a parse error
        // naming the field.
        let e = Scenario::parse(&format!(r#"{{"seed": "{max}", "samples": 2}}"#)).unwrap_err();
        assert!(e.to_string().contains("seed"), "{e}");
        assert!(e.to_string().contains("overflow"), "{e}");
        // Builder-made scenarios hit the same guard at config time (the
        // path grid axes and CLI flags go through).
        let e = Scenario::default()
            .with_sampling(9, u64::MAX - 7)
            .into_config()
            .unwrap_err();
        assert!(e.to_string().contains("overflow"), "{e}");
        assert!(Scenario::default()
            .with_sampling(8, u64::MAX - 7)
            .into_config()
            .is_ok());
    }

    #[test]
    fn absurd_tier_depths_are_rejected() {
        let e = Scenario::parse(r#"{"tiers": 9999999}"#).unwrap_err();
        assert!(e.to_string().contains("maximum"), "{e}");
        let e = Scenario::default()
            .with_tier_depth(MAX_TIER_DEPTH + 1)
            .into_config()
            .unwrap_err();
        assert!(e.to_string().contains("maximum"), "{e}");
        let e =
            Scenario::parse(r#"{"sweep": {"axis": "tiers", "values": [9999999]}}"#).unwrap_err();
        assert!(e.to_string().contains("0..="), "{e}");
        // The cap itself is fine.
        assert!(Scenario::default()
            .with_tier_depth(MAX_TIER_DEPTH)
            .into_config()
            .is_ok());
    }

    #[test]
    fn geometric_tiers_compile_like_the_cli_flag() {
        let sc = Scenario::default().with_tier_depth(3);
        let cfg = sc.into_config().unwrap();
        assert_eq!(cfg.tiers.len(), 3);
        assert_eq!(cfg.tiers[1].name, "burst-buffer");
    }

    #[test]
    fn exascale_preset_resolves() {
        let sc = Scenario::parse(r#"{"platform": "exascale"}"#).unwrap();
        let p = sc.resolve_platform().unwrap();
        assert_eq!(p.name, "Exascale");
        assert_eq!(p.nodes, 12_655);
    }

    #[test]
    fn trace_workload_parses_compiles_and_round_trips() {
        let spec = "synthetic:jobs=50,seed=3,projects=2,max_nodes=8,\
                    mean_walltime_hours=1,max_walltime_hours=2,\
                    mean_interarrival_secs=300,gb_per_node=4";
        let doc = format!(
            r#"{{"platform": "prospective", "workload": {{"trace": "{spec}"}}, "span_days": 2}}"#
        );
        let sc = Scenario::parse(&doc).unwrap();
        let WorkloadSource::Trace(s) = &sc.workload else {
            panic!("trace workload expected");
        };
        assert_eq!(s, spec);
        // Compiling scans the spec: classes are the shape table and the
        // config remembers the canonical source string.
        let cfg = sc.into_config().unwrap();
        assert!(!cfg.classes.is_empty());
        assert!(cfg.classes.iter().all(|c| c.name.starts_with('q')));
        let source = cfg.workload_source.as_deref().unwrap();
        assert!(source.starts_with("synthetic:jobs=50,"), "{source}");
        // from_config keeps the trace identity (cache keys must see it)
        // and the scenario survives a JSON hop.
        let sc2 = Scenario::from_config(&cfg);
        assert!(matches!(&sc2.workload, WorkloadSource::Trace(s) if s == source));
        let back = Scenario::parse(&sc2.to_json_string()).unwrap();
        assert_eq!(back, sc2);
        // And recompiling the echo reproduces the same class table.
        let cfg2 = sc2.into_config().unwrap();
        assert_eq!(cfg2.classes, cfg.classes);
        assert_eq!(cfg2.workload_source, cfg.workload_source);
    }

    #[test]
    fn trace_workload_errors_carry_paths() {
        // Missing file.
        let sc = Scenario::parse(r#"{"workload": {"trace": "/nonexistent/trace.csv"}}"#).unwrap();
        let e = sc.into_config().unwrap_err();
        assert!(e.to_string().contains("workload.trace"), "{e}");
        // Malformed synthetic spec.
        let sc = Scenario::parse(r#"{"workload": {"trace": "synthetic:jobs=0"}}"#).unwrap();
        assert!(sc.into_config().is_err());
        // classes and trace are mutually exclusive; trace must be a string.
        assert!(Scenario::parse(r#"{"workload": {"trace": "x", "classes": []}}"#).is_err());
        assert!(Scenario::parse(r#"{"workload": {"trace": 3}}"#).is_err());
    }

    #[test]
    fn ckpt_mem_fraction_axis_parses_and_validates() {
        let sc = Scenario::parse(r#"{"sweep": {"axis": "ckpt-mem-fraction"}}"#).unwrap();
        assert_eq!(
            sc.sweep,
            Some(Sweep::new("ckpt-mem-fraction", None).unwrap())
        );
        for doc in [
            r#"{"sweep": {"axis": "ckpt-mem-fraction", "values": [0]}}"#,
            r#"{"sweep": {"axis": "ckpt-mem-fraction", "values": [1.5]}}"#,
        ] {
            let e = Scenario::parse(doc).unwrap_err();
            assert!(e.to_string().contains("(0, 1]"), "{doc}: {e}");
        }
    }

    #[test]
    fn load_reports_missing_files() {
        let e = Scenario::load("/nonexistent/scenario.json").unwrap_err();
        assert!(matches!(e, ScenarioError::Io { .. }));
        assert!(e.to_string().contains("scenario"));
    }
}
