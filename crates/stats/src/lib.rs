//! Statistics substrate: quantiles, candlestick summaries, waste ledgers,
//! and plain-text/CSV table rendering.
//!
//! The paper's Monte-Carlo methodology (Section 5) reports, per operating
//! point, the mean together with the first/last deciles and quartiles over
//! ≥1000 simulation instances, measured on a fixed-length segment that
//! excludes the first and last simulated days. The pieces here mirror that:
//!
//! * [`Candlestick`] — the five-number summary (d1/q1/mean/q3/d9) drawn in
//!   the paper's figures, computed from a sample buffer.
//! * [`WasteLedger`] — node-second accounting by category, clipped to a
//!   measurement window; its [`waste_ratio`](WasteLedger::waste_ratio) is
//!   the quantity plotted on the paper's y-axes.
//! * [`ProjectLedger`] — the same node-second accounting broken down per
//!   project for trace-driven workloads; platform totals are the in-order
//!   fold of the project rows, so rows sum to totals bit-exactly.
//! * [`Table`] — aligned text / CSV rendering for the bench binaries.

pub mod ledger;
pub mod project;
pub mod quantile;
pub mod table;

pub use ledger::{Category, WasteLedger};
pub use project::ProjectLedger;
pub use quantile::{quantile, Candlestick, Samples};
pub use table::Table;
