//! # coopckpt — cooperative checkpointing for shared HPC platforms
//!
//! A reproduction of Hérault, Robert, Bouteiller, Arnold, Ferreira,
//! Bosilca, Dongarra: *Optimal Cooperative Checkpointing for Shared
//! High-Performance Computing Platforms* (IPDPS 2018, INRIA RR-9109).
//!
//! Space-shared HPC platforms time-share their parallel file system, so
//! checkpoint/restart traffic from concurrent jobs contends for bandwidth.
//! This crate provides:
//!
//! * The paper's seven **I/O-and-checkpoint scheduling strategies**
//!   ([`Strategy`]): `Oblivious`, `Ordered`, `Ordered-NB` — each with a
//!   `Fixed` (1 h) or `Daly` checkpoint period — plus `Least-Waste`, the
//!   cooperative heuristic that grants the I/O token to the request
//!   minimizing expected platform waste (Equations (1)–(2)).
//! * A full **discrete-event platform simulator** ([`sim`]) with fluid
//!   bandwidth sharing, a first-fit job scheduler, exponential node
//!   failures, restart-from-checkpoint semantics, and node-second waste
//!   accounting — Section 5 of the paper.
//! * A parallel **Monte-Carlo runner** ([`montecarlo`]) and the
//!   **experiment sweeps** ([`experiments`]) regenerating Figures 1–3,
//!   over one axis system ([`axis`]) shared with campaign grids.
//! * The analytical **lower bound** from [`coopckpt_theory`] (Theorem 1),
//!   used as the "Theoretical Model" reference curve.
//!
//! ## Quickstart
//!
//! ```
//! use coopckpt::prelude::*;
//!
//! // The LANL APEX workload on Cielo, 40 GB/s of PFS bandwidth.
//! let platform = coopckpt_workload::cielo()
//!     .with_bandwidth(Bandwidth::from_gbps(40.0));
//! let classes = coopckpt_workload::classes_for(&platform);
//!
//! // Simulate a short horizon with the Least-Waste strategy.
//! let config = SimConfig::new(platform, classes, Strategy::least_waste())
//!     .with_span(Duration::from_days(4.0));
//! let result = run_simulation(&config, 42);
//! assert!(result.waste_ratio >= 0.0 && result.waste_ratio <= 1.0);
//! ```

pub mod axis;
pub mod campaign;
pub mod experiments;
pub mod json;
pub mod montecarlo;
pub mod report;
pub mod scenario;
pub mod sim;
pub mod strategy;
pub mod telemetry;

pub use axis::{Axis, AxisValue};
pub use campaign::{
    cache_key, compare_campaigns, run_suite, run_suite_with, Campaign, CampaignEntry,
    CampaignError, CampaignOptions, CompareOutcome, ResultCache, Suite,
};
pub use montecarlo::OpPointCache;
pub use report::{Cell, OutputFormat, Report, Section};
pub use scenario::{PlatformSpec, Scenario, ScenarioError, Sweep, TiersSpec};
pub use sim::{
    geometric_tiers, run_simulation, use_heap_oracle, EnergySummary, FailureClass, Phase,
    PowerModel, SimConfig, SimResult, TierSpec,
};
pub use strategy::{CheckpointPolicy, IoDiscipline, Strategy};

/// Convenience re-exports for downstream users.
pub mod prelude {
    pub use crate::campaign::{
        cache_key, compare_campaigns, run_suite, run_suite_with, Campaign, CampaignEntry,
        CampaignError, CampaignOptions, CompareOutcome, ResultCache, Suite,
    };
    pub use crate::experiments::{run_scenario, run_scenario_with_cache};
    pub use crate::montecarlo::{run_all, run_many, MonteCarloConfig, OpPointCache};
    pub use crate::report::{Cell, OutputFormat, Report, Section};
    pub use crate::scenario::{
        PlatformSpec, Scenario, ScenarioError, Sweep, TiersSpec, WorkloadSource,
    };
    pub use crate::sim::{
        geometric_tiers, run_simulation, use_heap_oracle, EnergySummary, FailureClass, Phase,
        PowerModel, SimConfig, SimResult, TierSpec,
    };
    pub use crate::strategy::{CheckpointPolicy, IoDiscipline, Strategy};
    pub use coopckpt_des::{Duration, Time};
    pub use coopckpt_model::{AppClass, Bandwidth, Bytes, Platform};
    pub use coopckpt_stats::{Candlestick, Samples};
}
