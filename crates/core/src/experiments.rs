//! Scenario execution and the paper's figure experiments.
//!
//! * [`run_scenario`] — the front door: one operating point, or the
//!   scenario's sweep. A sweep is a one-axis grid (see [`crate::axis`])
//!   crossed with the strategy roster, run as plain operating points:
//!   Figure 1 sweeps the PFS bandwidth, Figure 2 the node MTBF.
//! * [`min_bandwidth_for_efficiency`] — Figure 3: the smallest bandwidth
//!   reaching a target efficiency (80 % in the paper), per strategy, found
//!   by bisection over the bandwidth axis.

use crate::axis::AxisValue;
use crate::montecarlo::{run_many, run_points, MonteCarloConfig, OpPointCache};
use crate::report::{candlestick_cells, Cell, Report, CANDLESTICK_COLUMNS};
use crate::scenario::{Scenario, ScenarioError, Sweep};
use crate::sim::{EnergySummary, FailureClass, SimConfig, SimResult};
use crate::strategy::{CheckpointPolicy, Strategy};
use coopckpt_model::{AppClass, Bandwidth, Platform};
use coopckpt_stats::{Candlestick, Category, ProjectLedger, WasteLedger};
use coopckpt_theory::{lower_bound, try_lower_bound, BoundError, ClassParams, LowerBound};

/// The two-class mix the `local_failure_share` axis installs at share
/// `x`: node-local failures (severity 1 — the victim's node-local copy
/// dies with its node; every shared tier survives) carrying `x` of the
/// platform failure rate, system failures the rest. `x = 0` is exactly
/// the paper's single-class model.
pub fn local_failure_mix(local_share: f64) -> Vec<FailureClass> {
    vec![
        FailureClass::new("local", local_share, 1),
        FailureClass::system("system", 1.0 - local_share),
    ]
}

/// Appends the `sweep` section: one row per `(value, series)` with
/// candlestick columns, values outer and the strategy roster inner.
///
/// Every row is an operating point `run` would simulate: the scenario
/// with the axis set to the value and the strategy set, compiled by
/// [`Scenario::into_config`] and fetched through `cache`. The points run
/// on the campaign runner's worker loop ([`run_points`]) — inside a
/// campaign, on the calling worker, feeding the ambient pool.
fn sweep_section(
    report: &mut Report,
    scenario: &Scenario,
    sweep: &Sweep,
    base_config: &SimConfig,
    cache: &OpPointCache,
) -> Result<(), ScenarioError> {
    let facts = sweep.check()?;
    let mut base = Scenario {
        sweep: None,
        ..scenario.clone()
    };
    if !facts.energy && base.power.is_some() {
        // Time-metric sweeps have no column to report energy in; don't
        // pay per-event metering for numbers that would be discarded.
        base.power = None;
        report.note(
            "power model ignored: sweeps report energy only on the \
             power-ratio axis (single-point runs get energy sections)",
        );
    }
    for (applies, note) in facts.notes {
        if applies(base_config) {
            report.note(*note);
        }
    }
    let mut roster = Strategy::all_seven().to_vec();
    if facts.tiered_daly {
        roster.push(Strategy::tiered(CheckpointPolicy::Daly));
    }
    // One entry per report row; simulated rows index `points`, bound
    // rows carry their closed-form value.
    let mut rows: Vec<(f64, String, Option<Candlestick>)> = Vec::new();
    let mut points: Vec<SimConfig> = Vec::new();
    for &x in &sweep.values {
        let at = sweep
            .axis
            .apply(base.clone(), &AxisValue::Num(x))
            .map_err(|e| ScenarioError::invalid("sweep.axis", e))?;
        // The strategy is not an input to compilation, so one compile
        // serves the whole roster at this value.
        let config = at.into_config()?;
        for &strategy in &roster {
            points.push(config.clone().with_strategy(strategy));
            rows.push((x, strategy.name(), None));
        }
        if facts.bound {
            let params: Vec<ClassParams> = config
                .classes
                .iter()
                .map(|c| ClassParams::from_app_class(c, &config.platform))
                .collect();
            let waste = theory_bound(&config.platform, &params)?.waste;
            rows.push((
                x,
                "Theoretical Model".to_string(),
                Some(Candlestick::from_samples(&[waste])),
            ));
        }
    }
    let mc = scenario.mc();
    let mut simulated = run_points(points.len(), scenario.threads, |i, _| {
        let results = cache.run_all(&points[i], &mc);
        let metric: Vec<f64> = results
            .iter()
            .map(|r| match &r.energy {
                Some(e) if facts.energy => e.energy_waste_ratio,
                _ => r.waste_ratio,
            })
            .collect();
        Ok::<_, ScenarioError>(Candlestick::from_samples(&metric))
    })?
    .into_iter();
    let section = report.section(
        "sweep",
        [sweep.name(), "series"]
            .into_iter()
            .chain(CANDLESTICK_COLUMNS),
    );
    for (x, series, bound) in rows {
        let stats = bound
            .or_else(|| simulated.next())
            .expect("one result per point");
        section.row(
            [Cell::Float {
                value: x,
                precision: if x.fract() == 0.0 { 0 } else { 2 },
            }]
            .into_iter()
            .chain([Cell::text(series)])
            .chain(candlestick_cells(&stats)),
        );
    }
    Ok(())
}

/// Runs a [`Scenario`] end to end and returns the unified [`Report`]:
///
/// * without a sweep — `samples` Monte-Carlo instances of the scenario's
///   strategy, reported as waste candlesticks plus utilization and
///   counter summaries;
/// * with a sweep — the full strategy roster at every swept value, as
///   one `sweep` section (see [`crate::axis`] for what each axis adds).
pub fn run_scenario(scenario: &Scenario) -> Result<Report, ScenarioError> {
    if !coopckpt_obs::enabled() {
        return run_scenario_with_cache(scenario, OpPointCache::global());
    }
    // Telemetry: run the scenario under a fresh attribution scope, then
    // append the `telemetry` report section and emit one journal record.
    // Only this top-level entry point is instrumented —
    // `run_scenario_with_cache` stays telemetry-free so campaign result
    // caches never store telemetry-bearing payloads (cold and resumed
    // campaigns must render bit-identically).
    let scope = coopckpt_obs::new_scope();
    let start = std::time::Instant::now();
    let mut report = {
        let _guard = coopckpt_obs::enter(&scope);
        run_scenario_with_cache(scenario, OpPointCache::global())?
    };
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let snap = scope.snapshot();
    crate::telemetry::append_section(&mut report, &snap, wall_ms);
    let point = scenario.name.as_deref().unwrap_or("run");
    let record =
        crate::telemetry::journal_record(point, wall_ms, scenario.samples, false, 0, &snap);
    coopckpt_obs::journal_line(&record.to_string());
    Ok(report)
}

/// [`run_scenario`] against an explicit operating-point cache.
///
/// Single-point runs fetch their Monte-Carlo instances through `cache`,
/// so scenarios sharing an operating point (same platform, strategy,
/// span, sampling, ...) compute it once per process — the campaign
/// runner's work-sharing path, also used by the heavyweight test suites.
/// Sweeps fetch every (value, strategy) point through `cache` too.
pub fn run_scenario_with_cache(
    scenario: &Scenario,
    cache: &OpPointCache,
) -> Result<Report, ScenarioError> {
    let config = scenario.into_config()?;
    let mc = scenario.mc();
    let command = if scenario.sweep.is_some() {
        "sweep"
    } else {
        "run"
    };
    let mut report = Report::new(command, Some(scenario.clone()));
    if let Some(name) = &scenario.name {
        report.note(format!("scenario: {name}"));
    }
    report.note(config.platform.to_string());

    match &scenario.sweep {
        Some(sweep) => sweep_section(&mut report, scenario, sweep, &config, cache)?,
        None => {
            let results = cache.run_all(&config, &mc);
            let metric = |f: fn(&SimResult) -> f64| -> Vec<f64> { results.iter().map(f).collect() };
            let waste = Candlestick::from_samples(&metric(|r| r.waste_ratio));
            report
                .section("waste", ["strategy"].into_iter().chain(CANDLESTICK_COLUMNS))
                .row(
                    [Cell::text(config.strategy.name())]
                        .into_iter()
                        .chain(candlestick_cells(&waste)),
                );
            let summary = report.section("summary", ["metric", "mean", "min", "max"]);
            for (label, values, precision) in [
                ("utilization", metric(|r| r.utilization), 4),
                ("efficiency", metric(|r| r.efficiency), 4),
                (
                    "checkpoints_committed",
                    metric(|r| r.checkpoints_committed as f64),
                    1,
                ),
                ("failures_total", metric(|r| r.failures_total as f64), 1),
                (
                    "failures_hitting_jobs",
                    metric(|r| r.failures_hitting_jobs as f64),
                    1,
                ),
                ("jobs_completed", metric(|r| r.jobs_completed as f64), 1),
                ("restarts", metric(|r| r.restarts as f64), 1),
                ("tier_restores", metric(|r| r.tier_restores as f64), 1),
            ] {
                let mean = values.iter().sum::<f64>() / values.len() as f64;
                let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
                let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                summary.row([
                    Cell::text(label),
                    Cell::float(mean, precision),
                    Cell::float(min, precision),
                    Cell::float(max, precision),
                ]);
            }
            energy_sections(&mut report, &results[..]);
            projects_section(&mut report, &results[..]);
        }
    }
    Ok(report)
}

/// Appends the `projects` section when the instances carried per-project
/// accounting (trace-driven runs; a no-op otherwise). Ledgers are merged
/// across the Monte-Carlo instances; the closing `TOTAL` row is
/// [`ProjectLedger::totals`] — the in-order fold of the project rows —
/// so the per-project rows sum to it exactly, bit for bit.
fn projects_section(report: &mut Report, results: &[SimResult]) {
    let mut merged: Option<ProjectLedger> = None;
    for r in results {
        if let Some(p) = &r.projects {
            match &mut merged {
                Some(m) => m.merge(p),
                None => merged = Some(p.clone()),
            }
        }
    }
    let Some(merged) = merged else { return };
    const NH: f64 = 3600.0;
    let cells = |l: &WasteLedger| {
        [
            Cell::float((l.useful() + l.wasted()) / NH, 1),
            Cell::float(l.useful() / NH, 1),
            Cell::float(l.get(Category::CkptCommit) / NH, 1),
            Cell::float(l.get(Category::LostWork) / NH, 1),
            Cell::float(l.waste_ratio(), 4),
        ]
    };
    let section = report.section(
        "projects",
        [
            "project",
            "node_hours",
            "useful_nh",
            "ckpt_nh",
            "lost_nh",
            "waste_ratio",
        ],
    );
    for (name, ledger) in merged.iter() {
        section.row(
            [Cell::text(name.to_string())]
                .into_iter()
                .chain(cells(ledger)),
        );
    }
    section.row(
        [Cell::text("TOTAL")]
            .into_iter()
            .chain(cells(&merged.totals())),
    );
}

/// Appends the `energy` and `energy_breakdown` sections when the instances
/// carried energy metering (no-op otherwise). Totals are reported in
/// gigajoules; the waste-ratio candlestick mirrors the time-waste row.
fn energy_sections(report: &mut Report, results: &[SimResult]) {
    let energies: Vec<&EnergySummary> = results.iter().filter_map(|r| r.energy.as_ref()).collect();
    if energies.is_empty() {
        return;
    }
    const GJ: f64 = 1e9;
    let ratios: Vec<f64> = energies.iter().map(|e| e.energy_waste_ratio).collect();
    let stats = Candlestick::from_samples(&ratios);
    report
        .section("energy", ["metric"].into_iter().chain(CANDLESTICK_COLUMNS))
        .row(
            [Cell::text("energy_waste_ratio")]
                .into_iter()
                .chain(candlestick_cells(&stats)),
        );
    let totals = report.section("energy_totals", ["metric", "mean_gj", "min_gj", "max_gj"]);
    type Pick = fn(&EnergySummary) -> f64;
    for (label, pick) in [
        ("useful", (|e: &EnergySummary| e.useful_joules) as Pick),
        ("wasted", |e| e.wasted_joules),
        ("platform_overhead", |e| e.platform_overhead_joules),
        ("total", |e| e.total_joules),
    ] {
        let values: Vec<f64> = energies.iter().map(|e| pick(e)).collect();
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        totals.row([
            Cell::text(label),
            Cell::float(mean / GJ, 3),
            Cell::float(min / GJ, 3),
            Cell::float(max / GJ, 3),
        ]);
    }
    let mean_total: f64 =
        energies.iter().map(|e| e.total_joules).sum::<f64>() / energies.len() as f64;
    let breakdown = report.section("energy_breakdown", ["phase", "mean_gj", "share_pct"]);
    for (i, (label, _)) in energies[0].breakdown.iter().enumerate() {
        let mean: f64 =
            energies.iter().map(|e| e.breakdown[i].1).sum::<f64>() / energies.len() as f64;
        breakdown.row([
            Cell::text(*label),
            Cell::float(mean / GJ, 3),
            Cell::float(100.0 * mean / mean_total.max(f64::MIN_POSITIVE), 2),
        ]);
    }
}

/// Figure 3: the minimum aggregate bandwidth (GB/s) at which `strategy`
/// reaches `target_efficiency` (mean over the Monte-Carlo instances), found
/// by bisection on a log-bandwidth grid within `[lo_gbps, hi_gbps]`.
///
/// Returns `None` when even `hi_gbps` misses the target.
pub fn min_bandwidth_for_efficiency(
    template: &SimConfig,
    strategy: Strategy,
    target_efficiency: f64,
    lo_gbps: f64,
    hi_gbps: f64,
    iterations: u32,
    mc: &MonteCarloConfig,
) -> Option<f64> {
    assert!(
        (0.0..1.0).contains(&target_efficiency),
        "target efficiency must be in (0, 1)"
    );
    assert!(
        lo_gbps > 0.0 && lo_gbps < hi_gbps,
        "invalid bandwidth range"
    );
    let mean_eff = |gbps: f64| -> f64 {
        let cfg = SimConfig {
            platform: template.platform.with_bandwidth(Bandwidth::from_gbps(gbps)),
            strategy,
            ..template.clone()
        };
        1.0 - run_many(&cfg, mc).mean()
    };
    if mean_eff(hi_gbps) < target_efficiency {
        return None;
    }
    if mean_eff(lo_gbps) >= target_efficiency {
        return Some(lo_gbps);
    }
    // Efficiency is monotone (noisy) in bandwidth: bisect on log scale.
    let (mut lo, mut hi) = (lo_gbps.ln(), hi_gbps.ln());
    for _ in 0..iterations {
        let mid = 0.5 * (lo + hi);
        if mean_eff(mid.exp()) >= target_efficiency {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi.exp())
}

/// Theorem 1 on `platform`, or a typed error naming the platform field
/// that leaves it without a finite answer: the node MTBF, or the
/// bandwidth when a class's checkpoint cost is to blame (see
/// [`BoundError`]).
pub fn theory_bound(
    platform: &Platform,
    params: &[ClassParams],
) -> Result<LowerBound, ScenarioError> {
    try_lower_bound(platform, params).map_err(|e| {
        let field = match e {
            BoundError::NodeMtbf(_) => "platform.mtbf_years",
            BoundError::CheckpointCost { .. } => "platform.bandwidth_gbps",
        };
        ScenarioError::invalid(field, e.to_string())
    })
}

/// The theoretical counterpart of [`min_bandwidth_for_efficiency`]: the
/// smallest bandwidth at which the Section 4 lower bound reaches the target
/// efficiency (no simulation, pure bisection on the analytic model).
pub fn theory_min_bandwidth(
    platform: &Platform,
    classes: &[AppClass],
    target_efficiency: f64,
    lo_gbps: f64,
    hi_gbps: f64,
) -> Option<f64> {
    let eff = |gbps: f64| {
        let p = platform.with_bandwidth(Bandwidth::from_gbps(gbps));
        let params: Vec<ClassParams> = classes
            .iter()
            .map(|c| ClassParams::from_app_class(c, &p))
            .collect();
        lower_bound(&p, &params).efficiency()
    };
    if eff(hi_gbps) < target_efficiency {
        return None;
    }
    if eff(lo_gbps) >= target_efficiency {
        return Some(lo_gbps);
    }
    let (mut lo, mut hi) = (lo_gbps.ln(), hi_gbps.ln());
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if eff(mid.exp()) >= target_efficiency {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi.exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{geometric_tiers, PowerModel};
    use coopckpt_des::Duration;
    use coopckpt_model::Bytes;

    fn template() -> SimConfig {
        let platform = Platform::new(
            "tiny",
            32,
            8,
            Bytes::from_gb(8.0),
            Bandwidth::from_gbps(4.0),
            Duration::from_years(3.0),
        )
        .unwrap();
        let classes = vec![AppClass {
            name: "A".into(),
            q_nodes: 8,
            walltime: Duration::from_hours(12.0),
            resource_share: 1.0,
            input_bytes: Bytes::from_gb(10.0),
            output_bytes: Bytes::from_gb(50.0),
            ckpt_bytes: Bytes::from_gb(64.0),
            regular_io_bytes: Bytes::ZERO,
        }];
        SimConfig::new(platform, classes, Strategy::least_waste())
            .with_span(Duration::from_days(2.0))
    }

    const BOUND: &str = "Theoretical Model";

    /// What one sweep case checks: `mean(series, x)` reads a row's mean,
    /// `plain` is the unswept template's Least-Waste mean waste.
    type Property = fn(&dyn Fn(&str, f64) -> f64, f64) -> bool;

    /// One sweep per axis on the tiny template: the axis, its two values,
    /// the template's tier depth, the expected row count, and the property
    /// the rows must show.
    const SWEEP_CASES: [(&str, [f64; 2], usize, usize, Property); 7] = [
        // Two values × (seven strategies + the bound); more bandwidth
        // never raises the bound.
        ("bandwidth", [2.0, 8.0], 0, 16, |m, _| {
            m(BOUND, 8.0) <= m(BOUND, 2.0) + 1e-12
        }),
        // The bound falls with reliability.
        ("mtbf", [2.0, 20.0], 0, 16, |m, _| {
            m(BOUND, 20.0) < m(BOUND, 2.0)
        }),
        // Tiered-Daly joins the roster, no bound. A deeper hierarchy at
        // the same PFS bandwidth must not hurt the blocking strategy.
        ("tiers", [0.0, 3.0], 0, 16, |m, _| {
            m("Ordered-Daly", 3.0) <= m("Ordered-Daly", 0.0) + 1e-9
        }),
        // No bound. Shape 1.0 is the mean-matched exponential law; its
        // instants differ from the exponential sampler's by ulps (the
        // mean-matching scale divides by a Lanczos Γ(2) ≈ 1), but a
        // broken mean-match would move the waste far more than this.
        ("weibull-shape", [0.7, 1.0], 0, 14, |m, plain| {
            (m("Least-Waste", 1.0) - plain).abs() < 0.02
        }),
        // Energy metric, no bound: pricier checkpoints must not lower the
        // energy waste at a fixed (time-optimal) period.
        ("power-ratio", [0.25, 4.0], 0, 14, |m, _| {
            let (cheap, dear) = (m("Least-Waste", 0.25), m("Least-Waste", 4.0));
            0.0 < cheap && cheap < dear && dear < 1.0
        }),
        // Tiered-Daly joins, no bound: mostly-local failures restore from
        // fast tiers, so waste must not grow versus all-system failures.
        ("local-failure-share", [0.0, 0.9], 3, 16, |m, _| {
            m("Least-Waste", 0.9) <= m("Least-Waste", 0.0) + 1e-9
        }),
        // The bound tracks the axis: smaller checkpoints cannot raise it.
        ("ckpt-mem-fraction", [0.1, 1.0], 0, 16, |m, _| {
            m(BOUND, 0.1) <= m(BOUND, 1.0) + 1e-12
        }),
    ];

    fn sweep_case(axis: &str) {
        let (_, values, tiers, rows, property) = SWEEP_CASES
            .into_iter()
            .find(|case| case.0 == axis)
            .expect("one case per sweep axis");
        let t = SimConfig {
            tiers: geometric_tiers(&template().platform, tiers),
            ..template()
        };
        let mut sc = Scenario::from_config(&t).with_sampling(2, 1);
        sc.sweep = Some(Sweep::new(axis, Some(values.to_vec())).unwrap());
        let report = run_scenario_with_cache(&sc, &OpPointCache::new()).unwrap();
        let sweep = &report.sections[0];
        assert_eq!(sweep.rows.len(), rows, "{axis}: {:?}", sweep.rows);
        let value = |cell: &Cell| match cell {
            Cell::Float { value, .. } => *value,
            other => panic!("{axis}: expected a number, got {other:?}"),
        };
        let mean = |series: &str, x: f64| -> f64 {
            let row = sweep
                .rows
                .iter()
                .find(|r| value(&r[0]) == x && r[1] == Cell::text(series))
                .unwrap_or_else(|| panic!("{axis}: no {series} row at {x}"));
            value(&row[2])
        };
        let plain = run_many(&t, &sc.mc()).candlestick().mean;
        assert!(property(&mean, plain), "{axis}: {:?}", sweep.rows);
    }

    #[test]
    fn bandwidth_sweep_produces_all_series() {
        sweep_case("bandwidth");
    }

    #[test]
    fn mtbf_sweep_produces_all_series() {
        sweep_case("mtbf");
    }

    #[test]
    fn tier_count_sweep_produces_all_series() {
        sweep_case("tiers");
    }

    #[test]
    fn weibull_shape_sweep_produces_all_series() {
        sweep_case("weibull-shape");
    }

    #[test]
    fn local_failure_share_sweep_produces_all_series() {
        sweep_case("local-failure-share");
    }

    #[test]
    fn power_ratio_sweep_reports_energy_waste() {
        sweep_case("power-ratio");
    }

    #[test]
    fn ckpt_mem_fraction_sweep_produces_all_series() {
        sweep_case("ckpt-mem-fraction");
    }

    #[test]
    fn tierless_local_share_sweep_carries_a_note() {
        let mut sc = Scenario::from_config(&template()).with_sampling(1, 1);
        sc.sweep = Some(Sweep::new("local-failure-share", Some(vec![0.0, 0.5])).unwrap());
        let report = run_scenario(&sc).unwrap();
        assert!(
            report.notes.iter().any(|n| n.contains("PFS-only platform")),
            "{:?}",
            report.notes
        );
        // With tiers configured, no such note.
        let tiered = SimConfig {
            tiers: geometric_tiers(&template().platform, 2),
            ..template()
        };
        let mut sc = Scenario::from_config(&tiered).with_sampling(1, 1);
        sc.sweep = Some(Sweep::new("local-failure-share", Some(vec![0.5])).unwrap());
        let report = run_scenario(&sc).unwrap();
        assert!(!report.notes.iter().any(|n| n.contains("PFS-only platform")));
    }

    #[test]
    fn local_share_sweep_notes_a_replaced_class_mix() {
        // The axis installs its own two-class mix per point; a
        // user-configured mix must not be dropped silently.
        let tiered = SimConfig {
            tiers: geometric_tiers(&template().platform, 2),
            failure_classes: local_failure_mix(0.3),
            ..template()
        };
        let mut sc = Scenario::from_config(&tiered).with_sampling(1, 1);
        sc.sweep = Some(Sweep::new("local-failure-share", Some(vec![0.5])).unwrap());
        let report = run_scenario(&sc).unwrap();
        assert!(
            report
                .notes
                .iter()
                .any(|n| n.contains("failure_classes ignored")),
            "{:?}",
            report.notes
        );
    }

    #[test]
    fn local_failure_mix_shapes() {
        let mix = local_failure_mix(0.7);
        assert_eq!(mix.len(), 2);
        assert_eq!(mix[0].severity, 1);
        assert!((mix[0].share - 0.7).abs() < 1e-12);
        assert!(mix[1].is_system());
        // The endpoints are valid mixes too.
        coopckpt_failure::validate_classes(&local_failure_mix(0.0)).unwrap();
        coopckpt_failure::validate_classes(&local_failure_mix(1.0)).unwrap();
    }

    #[test]
    fn ckpt_mem_fraction_sweep_rejects_trace_workloads() {
        let mut sc = Scenario::from_config(&template()).with_sampling(1, 1);
        sc.workload = crate::scenario::WorkloadSource::Trace(
            "synthetic:jobs=20,seed=1,projects=2,max_nodes=8,mean_walltime_hours=1,\
             max_walltime_hours=2,mean_interarrival_secs=600,gb_per_node=2"
                .into(),
        );
        sc.sweep = Some(Sweep::new("ckpt-mem-fraction", Some(vec![0.5])).unwrap());
        let e = run_scenario(&sc).unwrap_err();
        assert!(e.to_string().contains("trace"), "{e}");
    }

    #[test]
    fn trace_scenarios_report_a_projects_section() {
        let mut sc = Scenario::from_config(&template()).with_sampling(2, 1);
        sc.workload = crate::scenario::WorkloadSource::Trace(
            "synthetic:jobs=60,seed=5,projects=3,max_nodes=8,mean_walltime_hours=1,\
             max_walltime_hours=3,mean_interarrival_secs=900,gb_per_node=2"
                .into(),
        );
        let report = run_scenario(&sc).unwrap();
        let projects = report
            .sections
            .iter()
            .find(|s| s.name == "projects")
            .expect("trace runs carry a projects section");
        // At least one project row plus the TOTAL fold.
        assert!(projects.rows.len() >= 2, "{:?}", projects.rows);
        match &projects.rows.last().unwrap()[0] {
            Cell::Text(s) => assert_eq!(s, "TOTAL"),
            other => panic!("expected the TOTAL row, got {other:?}"),
        }
        // Batch runs never emit one.
        let sc = Scenario::from_config(&template()).with_sampling(1, 1);
        let report = run_scenario(&sc).unwrap();
        assert!(report.sections.iter().all(|s| s.name != "projects"));
    }

    #[test]
    fn run_scenario_with_power_adds_energy_sections() {
        let t = template().with_power(PowerModel::cielo());
        let sc = Scenario::from_config(&t).with_sampling(2, 1);
        let report = run_scenario(&sc).unwrap();
        let names: Vec<&str> = report.sections.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "waste",
                "summary",
                "energy",
                "energy_totals",
                "energy_breakdown"
            ]
        );
        let breakdown = &report.sections[4];
        assert_eq!(breakdown.rows.len(), crate::sim::Phase::ALL.len());
        // Without power, no energy sections appear.
        let sc = Scenario::from_config(&template()).with_sampling(2, 1);
        let report = run_scenario(&sc).unwrap();
        assert_eq!(report.sections.len(), 2);
    }

    #[test]
    fn time_metric_sweeps_drop_the_power_model_with_a_note() {
        let t = template().with_power(PowerModel::cielo());
        let mut sc = Scenario::from_config(&t).with_sampling(1, 1);
        sc.sweep = Some(Sweep::new("bandwidth", Some(vec![2.0])).unwrap());
        let report = run_scenario(&sc).unwrap();
        assert!(
            report
                .notes
                .iter()
                .any(|n| n.contains("power model ignored")),
            "{:?}",
            report.notes
        );
        // The power-ratio axis keeps (and uses) the model: no such note.
        sc.sweep = Some(Sweep::new("power-ratio", Some(vec![1.0])).unwrap());
        let report = run_scenario(&sc).unwrap();
        assert!(!report
            .notes
            .iter()
            .any(|n| n.contains("power model ignored")));
    }

    #[test]
    fn run_scenario_power_ratio_sweep() {
        let t = template();
        let mut sc = Scenario::from_config(&t).with_sampling(1, 1);
        sc.sweep = Some(Sweep::new("power-ratio", Some(vec![0.5, 2.0])).unwrap());
        let report = run_scenario(&sc).unwrap();
        let sweep = &report.sections[0];
        assert_eq!(sweep.columns[0], "power-ratio");
        // Two x-values x seven strategies, no analytic bound.
        assert_eq!(sweep.rows.len(), 2 * 7);
    }

    #[test]
    fn run_scenario_single_point_report() {
        let t = template();
        let mut sc = Scenario::from_config(&t).with_sampling(2, 1);
        sc.name = Some("unit".to_string());
        let report = run_scenario(&sc).unwrap();
        assert_eq!(report.command, "run");
        assert_eq!(report.sections.len(), 2);
        assert_eq!(report.sections[0].name, "waste");
        assert_eq!(report.sections[1].name, "summary");
        assert_eq!(report.sections[0].rows.len(), 1);
        // The waste row matches a direct Monte-Carlo run at equal seeds.
        let direct = run_many(&t, &sc.mc()).candlestick();
        match &report.sections[0].rows[0][1] {
            Cell::Float { value, .. } => assert_eq!(*value, direct.mean),
            other => panic!("expected a float mean, got {other:?}"),
        }
        assert!(report.notes.iter().any(|n| n.contains("unit")));
    }

    #[test]
    fn run_scenario_sweep_report() {
        let t = template();
        let mut sc = Scenario::from_config(&t).with_sampling(1, 1);
        sc.sweep = Some(Sweep::new("bandwidth", Some(vec![2.0, 8.0])).unwrap());
        let report = run_scenario(&sc).unwrap();
        assert_eq!(report.command, "sweep");
        assert_eq!(report.sections.len(), 1);
        let sweep = &report.sections[0];
        assert_eq!(sweep.name, "sweep");
        // Two x-values × (seven strategies + the analytic bound).
        assert_eq!(sweep.rows.len(), 2 * 8);
        assert_eq!(sweep.columns[0], "bandwidth");
    }

    #[test]
    fn fractional_tier_sweep_is_rejected() {
        // Values set past the parser (the `--values` path) meet the axis
        // domain before any point compiles, as a typed error.
        for (axis, bad) in [
            ("tiers", 0.5),
            ("bandwidth", -40.0),
            ("bandwidth", f64::INFINITY),
            ("mtbf", 0.0),
            ("weibull-shape", f64::NAN),
            ("power-ratio", -1.0),
            ("local-failure-share", 1.5),
            ("ckpt-mem-fraction", 0.0),
        ] {
            let mut sc = Scenario::from_config(&template());
            sc.sweep = Some(Sweep {
                axis: crate::axis::sweep_axis(axis).unwrap(),
                values: vec![bad],
            });
            let e = run_scenario(&sc).unwrap_err();
            assert!(e.to_string().contains("sweep.values"), "{axis} {bad}: {e}");
        }
    }

    #[test]
    fn theory_min_bandwidth_brackets() {
        let t = template();
        // The analytic bound reaches 80 % efficiency somewhere in range.
        let bw = theory_min_bandwidth(&t.platform, &t.classes, 0.8, 0.1, 1000.0)
            .expect("bound must reach 80% by 1000 GB/s");
        assert!((0.1..=1000.0).contains(&bw));
        // And a stricter target needs at least as much bandwidth.
        let bw95 = theory_min_bandwidth(&t.platform, &t.classes, 0.95, 0.1, 1000.0);
        if let Some(b) = bw95 {
            assert!(b >= bw * 0.99, "95% target ({b}) below 80% target ({bw})");
        }
    }

    #[test]
    fn min_bandwidth_search_is_consistent() {
        let t = template();
        let mc = MonteCarloConfig::new(1);
        let found =
            min_bandwidth_for_efficiency(&t, Strategy::least_waste(), 0.5, 0.25, 64.0, 6, &mc);
        let bw = found.expect("50% efficiency must be reachable at 64 GB/s");
        assert!((0.25..=64.0).contains(&bw));
    }
}
