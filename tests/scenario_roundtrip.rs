//! The declarative Scenario API's two headline guarantees:
//!
//! 1. **Serialization is exact** — `Scenario → JSON → Scenario` yields an
//!    identical spec for arbitrary scenarios (canonical serialization uses
//!    raw base units with shortest-round-trip floats).
//! 2. **The spec layer is free** — `Scenario::into_config` followed by
//!    `run_simulation` is bit-identical to the equivalent hand-built
//!    `SimConfig` run at the same seed.
//!
//! Plus the repo-level guarantee that every checked-in `scenarios/*.json`
//! preset loads, validates, and survives a serialize → parse hop
//! unchanged (the CI smoke step additionally *runs* each preset).

use coopckpt::prelude::*;
use coopckpt::sim::{FailureModel, InterferenceKind};
use proptest::prelude::{prop_assert_eq, proptest, ProptestConfig};

/// Deterministically builds a scenario from generated primitives, covering
/// presets and custom platforms, all strategies/laws/modes, geometric and
/// explicit tiers, and optional sweeps.
#[allow(clippy::too_many_arguments)]
fn build_scenario(
    (pick_platform, pick_strategy, pick_interference, pick_failures, tier_depth, seed): (
        u8,
        u8,
        u8,
        u8,
        u8,
        u32,
    ),
    (span_days, bw_gbps, alpha, shape, samples, pick_sweep): (f64, f64, f64, f64, u16, u8),
) -> Scenario {
    let platform = match pick_platform % 3 {
        0 => PlatformSpec::Preset {
            name: "cielo".to_string(),
            bandwidth: Some(Bandwidth::from_gbps(bw_gbps)),
            node_mtbf: None,
        },
        1 => PlatformSpec::Preset {
            name: "prospective".to_string(),
            bandwidth: None,
            node_mtbf: Some(Duration::from_years(1.0 + alpha)),
        },
        _ => PlatformSpec::Custom(
            Platform::new(
                "lab",
                64,
                8,
                Bytes::from_gb(16.0),
                Bandwidth::from_gbps(bw_gbps),
                Duration::from_years(5.0),
            )
            .expect("valid platform"),
        ),
    };
    let mut sc = Scenario {
        platform,
        ..Scenario::default()
    };
    let strategies = [
        Strategy::least_waste(),
        Strategy::oblivious(CheckpointPolicy::fixed_hourly()),
        Strategy::oblivious(CheckpointPolicy::Daly),
        Strategy::ordered(CheckpointPolicy::fixed_hourly()),
        Strategy::ordered(CheckpointPolicy::Daly),
        Strategy::ordered_nb(CheckpointPolicy::Fixed(Duration::from_secs(1800.0 + alpha))),
        Strategy::ordered_nb(CheckpointPolicy::Daly),
        Strategy::tiered(CheckpointPolicy::Daly),
    ];
    sc.strategy = strategies[pick_strategy as usize % strategies.len()];
    sc.interference = match pick_interference % 3 {
        0 => InterferenceKind::Linear,
        1 => InterferenceKind::Equal,
        _ => InterferenceKind::Degraded(alpha),
    };
    sc.failures = match pick_failures % 3 {
        0 => FailureModel::Exponential,
        1 => FailureModel::None,
        _ => FailureModel::Weibull(shape),
    };
    sc.tiers = if tier_depth % 5 == 4 {
        TiersSpec::Explicit(vec![
            TierSpec::per_node(
                "local",
                Bytes::from_gb(bw_gbps + 1.0),
                Bandwidth::from_gbps(2.0),
            ),
            TierSpec::new(
                "bb",
                Bytes::from_tb(1.0),
                Bandwidth::from_gbps(bw_gbps + 7.0),
            ),
        ])
    } else {
        TiersSpec::Geometric((tier_depth % 5) as usize)
    };
    sc.span = Duration::from_days(span_days);
    sc.samples = samples as usize + 1;
    sc.seed = seed as u64;
    sc.sweep = match pick_sweep % 4 {
        0 => None,
        1 => Some(Sweep::new("bandwidth", Some(vec![bw_gbps, bw_gbps * 2.0])).unwrap()),
        2 => Some(Sweep::new("mtbf", Some(vec![2.0, alpha + 3.0])).unwrap()),
        _ => Some(Sweep::new("tiers", Some(vec![0.0, 2.0])).unwrap()),
    };
    if pick_sweep % 2 == 0 {
        sc.workload_slack = Some(1.0 + alpha);
        sc.measure_margin = Some(sc.span / 10.0);
        sc.regular_io_chunks = Some(tier_depth as usize + 1);
    }
    sc
}

proptest! {
    /// Guarantee 1: the JSON hop is the identity on specs.
    #[test]
    fn scenario_json_round_trips_to_an_identical_spec(
        picks in (0u8..255, 0u8..255, 0u8..255, 0u8..255, 0u8..255, 0u32..1_000_000),
        knobs in (0.5f64..60.0, 1.0f64..500.0, 0.0f64..2.0, 0.1f64..3.0, 0u16..50, 0u8..255),
    ) {
        let sc = build_scenario(picks, knobs);
        let text = sc.to_json_string();
        let back = Scenario::parse(&text).expect("canonical serialization parses");
        prop_assert_eq!(&back, &sc, "round trip changed the spec:\n{}", text);
        // A second hop is the identity on the text, too.
        prop_assert_eq!(back.to_json_string(), text);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Guarantee 2: compiling through the Scenario layer costs nothing —
    /// the simulation is bit-identical to the hand-built config's run.
    #[test]
    fn scenario_run_is_bit_identical_to_builder_run(
        seed in 0u64..1000,
        pick_strategy in 0u8..7,
        tiers in 0u8..3,
    ) {
        let platform = Platform::new(
            "lab",
            64,
            8,
            Bytes::from_gb(16.0),
            Bandwidth::from_gbps(10.0),
            Duration::from_years(5.0),
        )
        .expect("valid platform");
        let classes = coopckpt_workload::classes_for(&platform);
        let strategy = Strategy::all_seven()[pick_strategy as usize % 7];

        // The builder path, exactly as pre-Scenario callers wrote it.
        let mut by_hand = SimConfig::new(platform.clone(), classes, strategy)
            .with_span(Duration::from_days(2.0))
            .with_failures(FailureModel::Weibull(0.8));
        if tiers > 0 {
            by_hand = by_hand.with_tiers(geometric_tiers(&platform, tiers as usize));
        }

        // The spec path: a scenario describing the same operating point.
        let mut sc = Scenario::from_config(&by_hand);
        sc.seed = seed;
        let via_scenario = sc.into_config().expect("valid scenario");

        let a = run_simulation(&by_hand, seed);
        let b = run_simulation(&via_scenario, seed);
        prop_assert_eq!(a.waste_ratio.to_bits(), b.waste_ratio.to_bits());
        prop_assert_eq!(a.utilization.to_bits(), b.utilization.to_bits());
        prop_assert_eq!(a.events, b.events);
        prop_assert_eq!(a.checkpoints_committed, b.checkpoints_committed);
        prop_assert_eq!(a.failures_total, b.failures_total);
        prop_assert_eq!(a.jobs_completed, b.jobs_completed);
    }
}

/// The flag-built default scenario (what `coopckpt run --bandwidth 20`
/// compiles to, at a short span) is bit-identical to the historical
/// hand-assembled CLI config.
#[test]
fn flag_equivalent_scenario_matches_the_historical_cli_assembly() {
    let sc = Scenario {
        platform: PlatformSpec::Preset {
            name: "cielo".to_string(),
            bandwidth: Some(Bandwidth::from_gbps(20.0)),
            node_mtbf: None,
        },
        span: Duration::from_days(2.0),
        ..Scenario::default()
    };
    let via_scenario = sc.into_config().expect("valid scenario");

    // What `commands.rs` used to assemble by hand.
    let platform = coopckpt_workload::cielo().with_bandwidth(Bandwidth::from_gbps(20.0));
    let classes = coopckpt_workload::classes_for(&platform);
    let by_hand = SimConfig::new(platform, classes, Strategy::least_waste())
        .with_span(Duration::from_days(2.0));

    let a = run_simulation(&by_hand, 42);
    let b = run_simulation(&via_scenario, 42);
    assert_eq!(a.waste_ratio.to_bits(), b.waste_ratio.to_bits());
    assert_eq!(a.events, b.events);
}

/// Every checked-in preset loads, validates, converts, and survives the
/// serialize → parse hop unchanged. Suite files (e.g. `paper_grid.json`)
/// load through [`coopckpt::campaign::Suite`] — a plain scenario is a
/// one-point suite — and every expanded point must round-trip.
#[test]
fn checked_in_presets_load_and_round_trip() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let mut presets: Vec<_> = std::fs::read_dir(&dir)
        .expect("scenarios/ directory exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    presets.sort();
    assert!(
        presets.len() >= 4,
        "expected the preset suite, found {presets:?}"
    );
    for path in presets {
        let suite = coopckpt::campaign::Suite::load(&path)
            .unwrap_or_else(|e| panic!("{} must load: {e}", path.display()));
        let points = suite
            .expand()
            .unwrap_or_else(|e| panic!("{} must expand: {e}", path.display()));
        assert!(!points.is_empty(), "{} expands to nothing", path.display());
        for sc in points {
            // Valid and convertible.
            sc.clone()
                .into_config()
                .unwrap_or_else(|e| panic!("{} must convert: {e}", path.display()));
            // Round-trips unchanged through canonical serialization.
            let back = Scenario::parse(&sc.to_json_string())
                .unwrap_or_else(|e| panic!("{} must re-parse: {e}", path.display()));
            assert_eq!(
                back,
                sc,
                "{} changed across serialize → parse",
                path.display()
            );
            // Presets must be labelled; reports echo the name.
            assert!(sc.name.is_some(), "{} needs a name", path.display());
        }
    }
}
