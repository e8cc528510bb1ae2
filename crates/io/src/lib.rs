//! Parallel-file-system substrate: time-shared bandwidth with pluggable
//! interference models.
//!
//! The paper's platform model (Section 2) space-shares compute nodes but
//! *time-shares* the PFS: concurrent transfers split the aggregate bandwidth.
//! This crate provides:
//!
//! * [`Pfs`] — a fluid-flow model of the shared file system. Transfers are
//!   fluid streams with a remaining volume; whenever the active set changes,
//!   rates are recomputed from the [`InterferenceModel`] and progress is
//!   integrated exactly (piecewise-linear in time). The model is *passive*:
//!   the caller drives it with explicit timestamps, which keeps it
//!   independent of any particular event loop and directly testable.
//! * [`InterferenceModel`] — how bandwidth divides among streams.
//!   [`LinearShare`] is the paper's model (constant global throughput,
//!   shares proportional to job size); [`DegradedShare`] implements the
//!   "more adversarial" variant of footnote 2; [`EqualShare`] ignores
//!   weights.
//! * [`RequestQueue`] — the pending-request pool used by the token-based
//!   disciplines (*Ordered*, *Ordered-NB*, *Least-Waste*): FCFS pop for the
//!   ordered strategies, arbitrary argmin selection for Least-Waste.
//! * [`hierarchy`] — the multi-level storage extension (paper Section 8,
//!   future work): a [`StorageHierarchy`] of stacked tiers (node-local →
//!   burst buffer → campaign storage → PFS) with admission control,
//!   deterministic spill, and background drain cascades, driven by the
//!   same passive timestamp protocol.
//!
//! # Example: two equal jobs share the PFS
//!
//! ```
//! use coopckpt_io::{LinearShare, Pfs};
//! use coopckpt_model::{Bandwidth, Bytes, Time};
//!
//! let mut pfs: Pfs<&str> = Pfs::new(Bandwidth::from_gbps(100.0), LinearShare);
//! let a = pfs.start(Time::ZERO, Bytes::from_gb(100.0), 1.0, "a");
//! let b = pfs.start(Time::ZERO, Bytes::from_gb(100.0), 1.0, "b");
//! // Each gets 50 GB/s → both complete at t = 2 s (vs 1 s alone).
//! assert_eq!(pfs.next_completion(), Some(Time::from_secs(2.0)));
//! pfs.advance(Time::from_secs(2.0));
//! let done = pfs.take_completed();
//! assert_eq!(done.len(), 2);
//! # let _ = (a, b);
//! ```

pub mod hierarchy;
pub mod interference;
pub mod pfs;
pub mod queue;

pub use hierarchy::{DrainHop, Placement, StorageHierarchy, Tier, TierSpec, TierStats};
pub use interference::{DegradedShare, EqualShare, InterferenceModel, LinearShare};
pub use pfs::{CompletedTransfer, Pfs, PfsStats, TransferId};
pub use queue::{PendingRequest, RequestId, RequestQueue};
