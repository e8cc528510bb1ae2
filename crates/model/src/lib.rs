//! Domain model for cooperative checkpointing on shared HPC platforms.
//!
//! This crate defines the vocabulary shared by every other coopckpt crate:
//!
//! * **Units** — [`Bytes`] and [`Bandwidth`] newtypes ([`Time`] and
//!   [`Duration`] are re-exported from the DES kernel), so quantities carry
//!   their dimension in the type system and a checkpoint size can never be
//!   silently added to a walltime.
//! * **Platform** — [`Platform`] describes the machine: node count, memory,
//!   parallel-file-system bandwidth, and per-node MTBF.
//! * **Application classes and jobs** — [`AppClass`] captures the paper's
//!   `A_i = (n_i, q_i, P_i, C_i, R_i)` tuples plus the I/O volumes from the
//!   APEX workflow report; [`JobSpec`] is one instance of a class with its
//!   own jittered work duration.
//! * **Checkpoint mathematics** — the Young/Daly first-order period and
//!   the per-job waste function of Eq. (3), with their failure-class,
//!   energy and usage-paced variants.
//!
//! The model follows Section 2 of Hérault et al., *Optimal Cooperative
//! Checkpointing for Shared High-Performance Computing Platforms* (IPDPS
//! 2018 / INRIA RR-9109).

pub mod app;
pub mod ckpt;
pub mod platform;
pub mod units;

pub use app::{AppClass, ClassId, JobId, JobSpec};
pub use ckpt::{
    class_restore_costs, daly_period_energy, daly_usage_period, expected_restore_cost,
    steady_state_energy_waste, steady_state_waste, steady_state_waste_mix, young_daly_period,
};
pub use coopckpt_des::{Duration, Time};
pub use platform::{Platform, PlatformError};
pub use units::{Bandwidth, Bytes};
