//! Failure substrate: deterministic random-number streams, statistical
//! distributions, and node-failure trace generation.
//!
//! The paper's evaluation injects node failures with exponentially
//! distributed inter-arrival times at the platform level (Section 5) and
//! discusses Weibull failures in related work; both are provided here.
//!
//! # Why an in-house RNG and distributions?
//!
//! Reproducibility across machines and library versions is a hard
//! requirement for a simulation study: every Monte-Carlo instance is
//! identified by a seed, and the same seed must replay the same execution
//! forever. We therefore implement [`rng::Xoshiro256pp`] (a small, fast,
//! well-studied generator with a frozen algorithm) and inverse-transform
//! samplers in [`dist`], instead of depending on `StdRng` (documented as
//! non-portable across `rand` versions) or `rand_distr` (outside the
//! allowed dependency set).
//!
//! # Example
//!
//! ```
//! use coopckpt_failure::{rng::Xoshiro256pp, trace::FailureTrace};
//! use coopckpt_des::{Duration, Time};
//!
//! let mut rng = Xoshiro256pp::seed_from_u64(42);
//! let trace = FailureTrace::generate_exponential(
//!     &mut rng,
//!     1000,                           // nodes
//!     Duration::from_years(2.0),      // node MTBF
//!     Time::from_secs(86_400.0 * 30.0), // horizon: 30 days
//! );
//! // Mean inter-arrival ≈ node MTBF / nodes ≈ 17.5 h.
//! assert!(!trace.is_empty());
//! ```

pub mod classes;
pub mod dist;
pub mod rng;
pub mod trace;

pub use classes::{is_system_only, system_only, validate_classes, FailureClass};
pub use dist::{Exponential, Sample, Uniform, Weibull};
pub use rng::Xoshiro256pp;
pub use trace::{FailureEvent, FailureTrace};
