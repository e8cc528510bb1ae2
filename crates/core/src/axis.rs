//! The one axis system: every knob a suite grid or a sweep can vary, in
//! one table.
//!
//! An [`Axis`] entry names the knob — its `grid` key in suite files and,
//! for the seven sweepable axes, its `sweep` spelling in scenario files
//! and on the CLI — says which values it admits ([`Domain`], the only
//! validation rule for grid values, `sweep.values` and `--values`), and
//! sets one value on a [`Scenario`]. A suite grid is the cartesian
//! product of axes applied to a base scenario; a sweep is a one-axis
//! grid crossed with the strategy roster, and its [`SweepFacts`] say what
//! the sweep reports besides the roster (see
//! [`crate::experiments::run_scenario`]). Adding an axis is one entry in
//! [`AXES`].

use crate::experiments::local_failure_mix;
use crate::json::Json;
use crate::scenario::{Scenario, WorkloadSource, MAX_TIER_DEPTH};
use crate::sim::{FailureModel, PowerModel, SimConfig};
use crate::strategy::Strategy;
use coopckpt_des::Duration;
use coopckpt_model::{AppClass, Bytes};
use std::fmt;

/// One value on an axis.
#[derive(Debug, Clone, PartialEq)]
pub enum AxisValue {
    /// A number (integral on the count axes).
    Num(f64),
    /// A strategy (the `strategy` axis).
    Strategy(Strategy),
    /// A workload spec: `"apex"`, a trace path, or `synthetic:...`.
    Workload(String),
}

impl AxisValue {
    /// The value's label in auto-generated grid point names (numbers use
    /// Rust's shortest round-trip formatting, so `40.0` labels as `40`).
    pub(crate) fn label(&self) -> String {
        match self {
            AxisValue::Num(x) => format!("{x}"),
            AxisValue::Strategy(s) => s.spec_name(),
            AxisValue::Workload(w) => w.clone(),
        }
    }

    fn num(&self) -> Result<f64, String> {
        match self {
            AxisValue::Num(x) => Ok(*x),
            other => Err(format!("expected a number, got '{}'", other.label())),
        }
    }
}

/// The values an axis admits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Strategy spec names (the `--strategy` grammar).
    Strategy,
    /// Workload specs: `"apex"`, a trace path, or `synthetic:...`.
    Workload,
    /// Finite numbers `> 0`.
    Positive,
    /// Numbers in `[0, 1]`.
    Share,
    /// Numbers in `(0, 1]`.
    Fraction,
    /// Integers in `0..=MAX_TIER_DEPTH`.
    TierDepth,
    /// Integers `>= 1`.
    Count,
    /// Integers `>= 0`, exact in a JSON number.
    Seed,
}

/// Largest integer a JSON number (an `f64`) holds exactly.
const MAX_EXACT_INT: f64 = 9_007_199_254_740_992.0;

impl Domain {
    /// What the domain admits, for error messages.
    pub(crate) fn describe(self) -> String {
        match self {
            Domain::Strategy => "strategy spec names".to_string(),
            Domain::Workload => "workload specs (\"apex\", a trace path, or synthetic:...)".into(),
            Domain::Positive => "positive numbers".to_string(),
            Domain::Share => "numbers in [0, 1]".to_string(),
            Domain::Fraction => "numbers in (0, 1]".to_string(),
            Domain::TierDepth => format!("integers in 0..={MAX_TIER_DEPTH}"),
            Domain::Count => "positive integers".to_string(),
            Domain::Seed => "non-negative integers".to_string(),
        }
    }

    /// Whether `value` lies in the domain.
    pub(crate) fn admits(self, value: &AxisValue) -> bool {
        let x = match (self, value) {
            (Domain::Strategy, AxisValue::Strategy(_)) => return true,
            (Domain::Workload, AxisValue::Workload(_)) => return true,
            (_, AxisValue::Num(x)) => *x,
            _ => return false,
        };
        let int = x.fract() == 0.0;
        match self {
            Domain::Strategy | Domain::Workload => false,
            Domain::Positive => x.is_finite() && x > 0.0,
            Domain::Share => (0.0..=1.0).contains(&x),
            Domain::Fraction => x > 0.0 && x <= 1.0,
            Domain::TierDepth => int && (0.0..=MAX_TIER_DEPTH as f64).contains(&x),
            Domain::Count => int && (1.0..=MAX_EXACT_INT).contains(&x),
            Domain::Seed => int && (0.0..=MAX_EXACT_INT).contains(&x),
        }
    }

    /// Reads one JSON value into the domain.
    fn parse(self, v: &Json) -> Result<AxisValue, String> {
        let value = match self {
            Domain::Strategy => {
                let spec = v.as_str().ok_or("expected strategy spec names")?;
                AxisValue::Strategy(spec.parse()?)
            }
            Domain::Workload => AxisValue::Workload(
                v.as_str()
                    .ok_or_else(|| format!("expected {}", self.describe()))?
                    .to_string(),
            ),
            _ => AxisValue::Num(v.as_f64().unwrap_or(f64::NAN)),
        };
        if !self.admits(&value) {
            return Err(format!("values must be {}, got {v}", self.describe()));
        }
        Ok(value)
    }
}

/// What a sweep over an axis reports besides the strategy roster.
#[derive(Debug)]
pub struct SweepFacts {
    /// The axis's sweep spelling (`"bandwidth"`, `"power-ratio"`, ...).
    pub name: &'static str,
    /// The swept values when a sweep names only the axis.
    pub defaults: &'static [f64],
    /// Adds the Theorem 1 bound as a `Theoretical Model` row per value.
    /// Only where the bound is a lower bound: it prices every checkpoint
    /// and recovery at the PFS, under exponential failures.
    pub bound: bool,
    /// Adds the level-aware `Tiered-Daly` discipline to the roster.
    pub tiered_daly: bool,
    /// Candlesticks summarize the energy waste ratio, not the time one.
    pub energy: bool,
    /// Report notes, each added when its test holds on the compiled base
    /// configuration.
    pub notes: &'static [Note],
}

/// A sweep report note and the test on the compiled base configuration
/// that adds it.
pub type Note = (fn(&SimConfig) -> bool, &'static str);

/// Sets one admitted value on a scenario.
type Setter = fn(Scenario, &AxisValue) -> Result<Scenario, String>;

/// One knob a grid or a sweep can vary. See the [module docs](self).
pub struct Axis {
    /// The `grid` key in suite files (and the auto-name label).
    pub key: &'static str,
    /// The values the axis admits.
    pub domain: Domain,
    set: Setter,
    /// Sweep spelling, defaults and report facts, on sweepable axes.
    pub sweep: Option<SweepFacts>,
}

impl fmt::Debug for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.key)
    }
}

impl PartialEq for Axis {
    fn eq(&self, other: &Axis) -> bool {
        self.key == other.key
    }
}

impl Axis {
    /// The sweep spelling (the grid key on axes that cannot be swept).
    pub fn sweep_name(&self) -> &'static str {
        self.sweep.as_ref().map_or(self.key, |s| s.name)
    }

    /// Checks `value` against the domain.
    pub(crate) fn check(&self, value: &AxisValue) -> Result<(), String> {
        if self.domain.admits(value) {
            return Ok(());
        }
        Err(format!(
            "{} values must be {}, got {}",
            self.sweep_name(),
            self.domain.describe(),
            value.label()
        ))
    }

    /// Sets `value` on `sc`, after checking it against the domain.
    pub(crate) fn apply(&self, sc: Scenario, value: &AxisValue) -> Result<Scenario, String> {
        self.check(value)?;
        (self.set)(sc, value)
    }

    /// Parses a `grid` entry: a non-empty array of domain values.
    pub(crate) fn parse_values(&self, v: &Json) -> Result<Vec<AxisValue>, String> {
        let items = v.as_array().ok_or("expected an array of values")?;
        if items.is_empty() {
            return Err("axis must list values".to_string());
        }
        items.iter().map(|item| self.domain.parse(item)).collect()
    }
}

/// The axis behind a suite-file `grid` key.
pub(crate) fn grid_axis(key: &str) -> Result<&'static Axis, String> {
    AXES.iter().find(|a| a.key == key).ok_or_else(|| {
        let keys: Vec<&str> = AXES.iter().map(|a| a.key).collect();
        format!("unknown grid axis (expected {})", keys.join("|"))
    })
}

/// The axis behind a sweep spelling.
pub(crate) fn sweep_axis(name: &str) -> Result<&'static Axis, String> {
    let sweepable = AXES.iter().filter(|a| a.sweep.is_some());
    sweepable
        .clone()
        .find(|a| a.sweep_name() == name)
        .ok_or_else(|| {
            let names: Vec<&str> = sweepable.map(Axis::sweep_name).collect();
            format!("unknown sweep axis '{name}' ({})", names.join("|"))
        })
}

/// A sweep that reports the roster alone; entries override the rest.
const PLAIN: SweepFacts = SweepFacts {
    name: "",
    defaults: &[],
    bound: false,
    tiered_daly: false,
    energy: false,
    notes: &[],
};

/// Every axis. Order is the order error messages list them.
pub static AXES: &[Axis] = &[
    Axis {
        key: "strategy",
        domain: Domain::Strategy,
        set: |sc, v| match v {
            AxisValue::Strategy(s) => Ok(sc.with_strategy(*s)),
            other => Err(format!("expected a strategy, got '{}'", other.label())),
        },
        sweep: None,
    },
    Axis {
        key: "bandwidth_gbps",
        domain: Domain::Positive,
        set: |sc, v| Ok(sc.with_bandwidth_gbps(v.num()?)),
        sweep: Some(SweepFacts {
            name: "bandwidth",
            defaults: &[40.0, 60.0, 80.0, 100.0, 120.0, 140.0, 160.0],
            bound: true,
            ..PLAIN
        }),
    },
    Axis {
        key: "mtbf_years",
        domain: Domain::Positive,
        set: |sc, v| Ok(sc.with_mtbf_years(v.num()?)),
        sweep: Some(SweepFacts {
            name: "mtbf",
            defaults: &[2.0, 4.0, 10.0, 20.0, 50.0],
            bound: true,
            ..PLAIN
        }),
    },
    Axis {
        key: "tiers",
        domain: Domain::TierDepth,
        set: |sc, v| Ok(sc.with_tier_depth(v.num()? as usize)),
        sweep: Some(SweepFacts {
            name: "tiers",
            defaults: &[0.0, 1.0, 2.0, 3.0],
            tiered_daly: true,
            ..PLAIN
        }),
    },
    Axis {
        // Mean-matched to the platform MTBF; shape 1 is exponential.
        key: "weibull_shape",
        domain: Domain::Positive,
        set: |sc, v| Ok(sc.with_failures(FailureModel::Weibull(v.num()?))),
        sweep: Some(SweepFacts {
            name: "weibull-shape",
            defaults: &[0.5, 0.7, 1.0, 1.5, 2.0],
            ..PLAIN
        }),
    },
    Axis {
        // Checkpoint and recovery draws at `x ×` the compute draw of the
        // scenario's power model (the Cielo preset when it has none).
        key: "power_ratio",
        domain: Domain::Positive,
        set: |sc, v| {
            let ratio = v.num()?;
            let base = sc.power.unwrap_or_else(PowerModel::cielo);
            Ok(sc.with_power(PowerModel {
                ckpt_w: base.compute_w * ratio,
                recovery_w: base.compute_w * ratio,
                ..base
            }))
        },
        sweep: Some(SweepFacts {
            name: "power-ratio",
            defaults: &[0.25, 0.5, 1.0, 2.0, 4.0],
            energy: true,
            ..PLAIN
        }),
    },
    Axis {
        // Installs the `{local: x, system: 1 - x}` severity mix at the
        // platform's unchanged total failure rate; `0` is the paper.
        key: "local_failure_share",
        domain: Domain::Share,
        set: |sc, v| Ok(sc.with_failure_classes(local_failure_mix(v.num()?))),
        sweep: Some(SweepFacts {
            name: "local-failure-share",
            defaults: &[0.0, 0.25, 0.5, 0.75, 0.9],
            tiered_daly: true,
            notes: &[
                (
                    |c| c.tiers.is_empty(),
                    "local-failure-share sweep over a PFS-only platform: \
                     without storage tiers no retained copy can serve a \
                     restore, so every point recovers from the PFS \
                     (configure tiers >= 2 to see the effect)",
                ),
                (
                    |c| !c.failure_classes.is_empty(),
                    "configured failure_classes ignored: the \
                     local-failure-share axis installs its own \
                     {local, system} two-class mix at every point",
                ),
            ],
            ..PLAIN
        }),
    },
    Axis {
        // Every class checkpoints `f ×` its nodes' memory (the comd-ft
        // progress-rate study); walltimes and shares stay fixed.
        key: "ckpt_mem_fraction",
        domain: Domain::Fraction,
        set: |mut sc, v| {
            let f = v.num()?;
            if let WorkloadSource::Trace(_) = sc.workload {
                // Trace classes key the stream's shape table; rescaling
                // them would desynchronize the stream from its scan.
                return Err("ckpt-mem-fraction rescales class checkpoint volumes, \
                            which trace workloads derive from the trace itself; use \
                            an apex or classes workload for this axis"
                    .to_string());
            }
            let platform = sc.resolve_platform().map_err(|e| e.to_string())?;
            let classes = sc.resolve_classes(&platform).map_err(|e| e.to_string())?;
            let per_node = platform.mem_per_node.as_bytes();
            sc.workload = WorkloadSource::Custom(
                classes
                    .into_iter()
                    .map(|c| AppClass {
                        ckpt_bytes: Bytes::new(per_node * c.q_nodes as f64 * f),
                        ..c
                    })
                    .collect(),
            );
            Ok(sc)
        },
        sweep: Some(SweepFacts {
            name: "ckpt-mem-fraction",
            defaults: &[0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0],
            bound: true,
            ..PLAIN
        }),
    },
    Axis {
        key: "span_days",
        domain: Domain::Positive,
        set: |sc, v| Ok(sc.with_span(Duration::from_days(v.num()?))),
        sweep: None,
    },
    Axis {
        key: "samples",
        domain: Domain::Count,
        set: |sc, v| {
            let seed = sc.seed;
            Ok(sc.with_sampling(v.num()? as usize, seed))
        },
        sweep: None,
    },
    Axis {
        key: "seed",
        domain: Domain::Seed,
        set: |sc, v| {
            let samples = sc.samples;
            Ok(sc.with_sampling(samples, v.num()? as u64))
        },
        sweep: None,
    },
    Axis {
        key: "workload",
        domain: Domain::Workload,
        set: |mut sc, v| match v {
            AxisValue::Workload(spec) => {
                sc.workload = WorkloadSource::from_spec(spec);
                Ok(sc)
            }
            other => Err(format!("expected a workload spec, got '{}'", other.label())),
        },
        sweep: None,
    },
];
