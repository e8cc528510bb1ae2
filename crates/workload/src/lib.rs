//! Workload substrate: the LANL APEX application classes, the platforms the
//! paper evaluates, and Monte-Carlo job-mix generation.
//!
//! * [`apex`] embeds Table 1 of the paper (EAP, LAP, Silverton, VPIC from
//!   the APEX workflows report) and projects it onto any
//!   [`Platform`](coopckpt_model::Platform):
//!   a class's I/O volumes are percentages of its per-job memory footprint,
//!   so the same specification scales from Cielo to the prospective
//!   7 PB machine of Section 6.2.
//! * [`platforms`] provides [`platforms::cielo`] (143,104 cores, 286 TB,
//!   160 GB/s) and [`platforms::prospective`] (50,000 nodes, 7 PB).
//! * [`generator`] instantiates a random job list matching the class
//!   resource shares within tolerance and lasting at least the requested
//!   span — Section 5's initial-condition sampling.
//! * [`trace_workload`] replays a job log instead: streaming CSV /
//!   JSON-lines ingestion (`project, submit_time, nodes, walltime[,
//!   ckpt_bytes]`), a seeded `synthetic:...` generator, and the
//!   [`JobSource`] seam that feeds the engine one submission at a time so
//!   a 300k-job trace runs in memory bounded by its resident jobs.
//!
//! ```
//! use coopckpt_workload::{apex, generator::WorkloadSpec, platforms};
//! use coopckpt_failure::Xoshiro256pp;
//!
//! let platform = platforms::cielo();
//! let classes = apex::classes_for(&platform);
//! let spec = WorkloadSpec::new(classes);
//! let mut rng = Xoshiro256pp::seed_from_u64(7);
//! let jobs = spec.generate(&platform, &mut rng);
//! assert!(!jobs.is_empty());
//! ```

pub mod apex;
pub mod generator;
pub mod platforms;
pub mod trace_workload;

pub use apex::{classes_for, ApexClassSpec, APEX_SPECS};
pub use generator::WorkloadSpec;
pub use platforms::{cielo, exascale, prospective};
pub use trace_workload::{
    JobSource, JobStream, MaterializedSource, SubmittedJob, SyntheticSource, SyntheticSpec,
    TraceClasses, TraceError, TraceJob, TraceReader, TraceSpec,
};
