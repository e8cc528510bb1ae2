//! The fluid-flow PFS model.
//!
//! Transfers are fluid streams: each has a remaining volume and, at any
//! instant, a rate assigned by the interference model. Between changes of
//! the active set, rates are constant, so progress integrates exactly. The
//! model is driven with explicit timestamps (`advance`, `start`, `cancel`)
//! and never schedules anything itself; the caller asks for
//! [`next_completion`](Pfs::next_completion) and wakes the model at (or
//! before) that instant.
//!
//! Correctness does not depend on the caller's granularity: `advance`
//! internally steps through every intermediate completion boundary and
//! re-splits bandwidth at each, so coarse advances produce the same
//! trajectories as fine-grained ones.

use crate::interference::InterferenceModel;
use coopckpt_des::{Duration, Time};
use coopckpt_model::{Bandwidth, Bytes};
use std::cell::Cell;

/// Residual volumes below this are treated as complete (transfers here are
/// gigabytes to terabytes; one byte is far below f64 resolution noise at
/// that scale).
const EPS_BYTES: f64 = 1.0;

/// Residual transfer *times* below this are treated as complete. Late in a
/// long simulation the clock's f64 ulp exceeds the time a few residual
/// bytes need, so `clock + residual/rate == clock` and time cannot advance
/// across the completion; harvesting sub-microsecond residuals up front
/// removes that trap (a microsecond is eight orders of magnitude below the
/// transfer durations modeled here).
const EPS_SECONDS: f64 = 1e-6;

/// Identifier of a transfer within one [`Pfs`] instance. Never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransferId(u64);

struct Active<M> {
    id: TransferId,
    meta: M,
    volume: Bytes,
    remaining: Bytes,
    weight: f64,
    started: Time,
    rate: Bandwidth,
}

/// A finished transfer, as reported by [`Pfs::take_completed`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedTransfer<M> {
    /// The transfer's id.
    pub id: TransferId,
    /// Caller-supplied metadata.
    pub meta: M,
    /// Total volume moved.
    pub volume: Bytes,
    /// When the transfer entered the PFS.
    pub started: Time,
    /// When the last byte moved.
    pub finished: Time,
}

impl<M> CompletedTransfer<M> {
    /// Wall-clock duration of the transfer.
    pub fn duration(&self) -> Duration {
        self.finished.since(self.started)
    }

    /// The contention-free duration at dedicated full bandwidth, and hence
    /// the baseline against which dilation is measured.
    pub fn nominal(&self, full_bw: Bandwidth) -> Duration {
        self.volume.transfer_time(full_bw)
    }

    /// Extra time caused by contention or reduced rate:
    /// `duration − nominal`, clamped at zero.
    pub fn dilation(&self, full_bw: Bandwidth) -> Duration {
        (self.duration() - self.nominal(full_bw)).max_zero()
    }
}

/// Aggregate PFS statistics, maintained incrementally.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PfsStats {
    /// Total bytes fully transferred (completed transfers only).
    pub bytes_completed: Bytes,
    /// Total bytes moved, including partial progress of cancelled transfers.
    pub bytes_moved: Bytes,
    /// Number of completed transfers.
    pub transfers_completed: u64,
    /// Number of cancelled transfers.
    pub transfers_cancelled: u64,
    /// Time during which at least one transfer was active.
    pub busy_time: Duration,
}

/// The shared parallel file system.
///
/// `M` is caller-supplied per-transfer metadata returned on completion
/// (the coopckpt simulator stores the job id and transfer kind there).
pub struct Pfs<M> {
    bandwidth: Bandwidth,
    model: Box<dyn InterferenceModel>,
    active: Vec<Active<M>>,
    completed: Vec<CompletedTransfer<M>>,
    clock: Time,
    next_id: u64,
    stats: PfsStats,
    // Scratch buffers, reused across rate recomputations.
    scratch_weights: Vec<f64>,
    scratch_rates: Vec<Bandwidth>,
    /// Memoized [`next_completion`](Pfs::next_completion) answer. While
    /// the active set (and hence the rate split) is unchanged, every
    /// transfer's completion *instant* is constant even as `advance`
    /// integrates progress, so the O(k) minimum is computed once per rate
    /// change instead of once per query. `None` = stale; invalidated by
    /// [`recompute_rates`](Pfs::recompute_rates).
    cached_next: Cell<Option<Option<Time>>>,
}

impl<M> Pfs<M> {
    /// Creates a PFS with the given aggregate bandwidth and interference
    /// model.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is not positive and finite.
    pub fn new(bandwidth: Bandwidth, model: impl InterferenceModel) -> Self {
        assert!(
            bandwidth.is_valid() && !bandwidth.is_zero(),
            "PFS bandwidth must be positive, got {bandwidth}"
        );
        Pfs {
            bandwidth,
            model: Box::new(model),
            active: Vec::new(),
            completed: Vec::new(),
            clock: Time::ZERO,
            next_id: 0,
            stats: PfsStats::default(),
            scratch_weights: Vec::new(),
            scratch_rates: Vec::new(),
            cached_next: Cell::new(Some(None)),
        }
    }

    /// The aggregate bandwidth.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bandwidth
    }

    /// The model's internal clock (the latest `advance`/`start`/`cancel`
    /// timestamp seen).
    pub fn clock(&self) -> Time {
        self.clock
    }

    /// True when no transfer is in flight.
    pub fn is_idle(&self) -> bool {
        self.active.is_empty()
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> PfsStats {
        self.stats
    }

    /// Cumulative busy time as of `now`, *without* mutating the model —
    /// an exact read-ahead of what [`stats`](Pfs::stats) would report
    /// after `advance(now)`. Sound because the caller (the simulation
    /// engine) wakes the model at every completion instant: between the
    /// internal clock and any `now` not past the next completion, the
    /// active set is constant, so the PFS is either busy or idle for the
    /// whole stretch.
    ///
    /// # Panics
    ///
    /// Panics when `now` precedes the model clock.
    pub fn busy_time_at(&self, now: Time) -> Duration {
        assert!(
            now >= self.clock,
            "PFS clock cannot move backwards: clock={}, now={}",
            self.clock,
            now
        );
        if self.active.is_empty() {
            self.stats.busy_time
        } else {
            self.stats.busy_time + now.since(self.clock)
        }
    }

    /// Remaining volume of an in-flight transfer (after an implicit advance
    /// to the model clock — callers should `advance(now)` first for fresh
    /// numbers).
    pub fn remaining(&self, id: TransferId) -> Option<Bytes> {
        self.active.iter().find(|t| t.id == id).map(|t| t.remaining)
    }

    /// Starts a transfer of `volume` with share weight `weight` at `now`.
    ///
    /// Zero-volume transfers complete instantly (they appear in the next
    /// [`take_completed`](Pfs::take_completed)).
    ///
    /// # Panics
    ///
    /// Panics when `volume` is invalid, `weight` is not positive, or `now`
    /// precedes the model clock.
    pub fn start(&mut self, now: Time, volume: Bytes, weight: f64, meta: M) -> TransferId {
        assert!(volume.is_valid(), "invalid transfer volume {volume}");
        assert!(
            weight.is_finite() && weight > 0.0,
            "transfer weight must be positive, got {weight}"
        );
        self.advance(now);
        let id = TransferId(self.next_id);
        self.next_id += 1;
        if volume.as_bytes() <= EPS_BYTES {
            // Degenerate transfer: completes immediately.
            self.completed.push(CompletedTransfer {
                id,
                meta,
                volume,
                started: now,
                finished: now,
            });
            self.stats.bytes_completed += volume;
            self.stats.bytes_moved += volume;
            self.stats.transfers_completed += 1;
            return id;
        }
        self.active.push(Active {
            id,
            meta,
            volume,
            remaining: volume,
            weight,
            started: now,
            rate: Bandwidth::ZERO,
        });
        self.recompute_rates();
        id
    }

    /// Cancels an in-flight transfer (e.g. the owning job failed), returning
    /// its metadata and the unmoved remainder.
    pub fn cancel(&mut self, now: Time, id: TransferId) -> Option<(M, Bytes)> {
        self.advance(now);
        let idx = self.active.iter().position(|t| t.id == id)?;
        let t = self.active.swap_remove(idx);
        self.stats.bytes_moved += t.volume - t.remaining;
        self.stats.transfers_cancelled += 1;
        self.recompute_rates();
        Some((t.meta, t.remaining))
    }

    /// The instant the earliest in-flight transfer will complete under the
    /// *current* active set, or `None` when idle.
    ///
    /// Any `start`/`cancel` invalidates previous answers; the caller must
    /// re-query after mutating the set. Memoized per rate change: with an
    /// unchanged writer set the completion instants are fixed, so repeated
    /// queries (the simulator asks after every wake) cost O(1).
    pub fn next_completion(&self) -> Option<Time> {
        if let Some(cached) = self.cached_next.get() {
            return cached;
        }
        let next = self
            .active
            .iter()
            .filter(|t| !t.rate.is_zero())
            .map(|t| self.clock + t.remaining.transfer_time(t.rate))
            .min();
        self.cached_next.set(Some(next));
        next
    }

    /// Integrates progress up to `now`, stepping through every intermediate
    /// completion boundary (rates are re-split as transfers drain).
    ///
    /// # Panics
    ///
    /// Panics when `now` precedes the model clock.
    pub fn advance(&mut self, now: Time) {
        assert!(
            now >= self.clock,
            "PFS clock cannot move backwards: clock={}, now={}",
            self.clock,
            now
        );
        // Harvest residuals that are already due at the current clock, so a
        // zero-width advance still makes progress (see `EPS_SECONDS`).
        self.harvest_completed();
        while self.clock < now {
            if self.active.is_empty() {
                self.clock = now;
                return;
            }
            // Earliest internal completion under current rates.
            let step_end = self.next_completion().map_or(now, |t| t.min(now));
            let dt = step_end.since(self.clock);
            if dt.is_positive() {
                for t in &mut self.active {
                    let moved = t.rate * dt;
                    t.remaining = (t.remaining - moved).max_zero();
                }
                self.stats.busy_time += dt;
            }
            self.clock = step_end;
            self.harvest_completed();
        }
    }

    /// Moves drained transfers to the completed list and re-splits rates.
    fn harvest_completed(&mut self) {
        let mut any = false;
        let mut i = 0;
        while i < self.active.len() {
            let t = &self.active[i];
            if t.remaining.as_bytes() <= EPS_BYTES
                || t.remaining.as_bytes() <= t.rate.as_bytes_per_sec() * EPS_SECONDS
            {
                let t = self.active.swap_remove(i);
                self.stats.bytes_completed += t.volume;
                self.stats.bytes_moved += t.volume;
                self.stats.transfers_completed += 1;
                self.completed.push(CompletedTransfer {
                    id: t.id,
                    meta: t.meta,
                    volume: t.volume,
                    started: t.started,
                    finished: self.clock,
                });
                any = true;
            } else {
                i += 1;
            }
        }
        if any {
            self.recompute_rates();
        }
    }

    /// Drains the list of completed transfers accumulated since the last
    /// call, in completion order.
    pub fn take_completed(&mut self) -> Vec<CompletedTransfer<M>> {
        let mut done = std::mem::take(&mut self.completed);
        done.sort_by(|a, b| a.finished.cmp(&b.finished).then(a.id.cmp(&b.id)));
        done
    }

    fn recompute_rates(&mut self) {
        // The writer set changed: previously computed completion instants
        // are void.
        self.cached_next.set(None);
        let k = self.active.len();
        if k == 0 {
            // An empty set needs no O(k) scan: pin the answer directly.
            self.cached_next.set(Some(None));
            return;
        }
        self.scratch_weights.clear();
        self.scratch_weights
            .extend(self.active.iter().map(|t| t.weight));
        self.scratch_rates.clear();
        self.scratch_rates.resize(k, Bandwidth::ZERO);
        self.model.split(
            self.bandwidth,
            &self.scratch_weights,
            &mut self.scratch_rates,
        );
        for (t, &rate) in self.active.iter_mut().zip(&self.scratch_rates) {
            t.rate = rate;
        }
    }
}

impl<M> std::fmt::Debug for Pfs<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pfs")
            .field("bandwidth", &self.bandwidth)
            .field("model", &self.model.name())
            .field("clock", &self.clock)
            .field("active", &self.active.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interference::{EqualShare, LinearShare};

    fn pfs_100() -> Pfs<u32> {
        Pfs::new(Bandwidth::from_gbps(100.0), LinearShare)
    }

    #[test]
    fn single_transfer_runs_at_full_bandwidth() {
        let mut pfs = pfs_100();
        pfs.start(Time::ZERO, Bytes::from_gb(200.0), 4.0, 1);
        assert_eq!(pfs.next_completion(), Some(Time::from_secs(2.0)));
        pfs.advance(Time::from_secs(2.0));
        let done = pfs.take_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].finished, Time::from_secs(2.0));
        assert!(pfs.is_idle());
    }

    #[test]
    fn two_equal_transfers_halve_rates() {
        let mut pfs = pfs_100();
        pfs.start(Time::ZERO, Bytes::from_gb(100.0), 1.0, 1);
        pfs.start(Time::ZERO, Bytes::from_gb(100.0), 1.0, 2);
        // 50 GB/s each → 2 s.
        assert_eq!(pfs.next_completion(), Some(Time::from_secs(2.0)));
        pfs.advance(Time::from_secs(2.0));
        assert_eq!(pfs.take_completed().len(), 2);
    }

    #[test]
    fn late_joiner_slows_first_transfer() {
        let mut pfs = pfs_100();
        // A: 100 GB alone for 0.5 s (50 GB moved), then shares 50/50.
        pfs.start(Time::ZERO, Bytes::from_gb(100.0), 1.0, 1);
        pfs.start(Time::from_secs(0.5), Bytes::from_gb(100.0), 1.0, 2);
        // A has 50 GB left at 50 GB/s → completes at 1.5 s.
        assert_eq!(pfs.next_completion(), Some(Time::from_secs(1.5)));
        pfs.advance(Time::from_secs(1.5));
        let done = pfs.take_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].meta, 1);
        // B then runs alone: 50 GB left at 100 GB/s → completes at 2.0 s.
        assert_eq!(pfs.next_completion(), Some(Time::from_secs(2.0)));
        pfs.advance(Time::from_secs(2.0));
        let done = pfs.take_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].meta, 2);
        assert_eq!(done[0].finished, Time::from_secs(2.0));
    }

    #[test]
    fn coarse_advance_steps_through_boundaries() {
        // Identical scenario to `late_joiner...` but advanced in one jump:
        // internal boundary stepping must produce the same completion times.
        let mut pfs = pfs_100();
        pfs.start(Time::ZERO, Bytes::from_gb(100.0), 1.0, 1);
        pfs.start(Time::from_secs(0.5), Bytes::from_gb(100.0), 1.0, 2);
        pfs.advance(Time::from_secs(10.0));
        let done = pfs.take_completed();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].meta, 1);
        assert!((done[0].finished.as_secs() - 1.5).abs() < 1e-9);
        assert_eq!(done[1].meta, 2);
        assert!((done[1].finished.as_secs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn weights_bias_shares() {
        let mut pfs = pfs_100();
        // Weight 3 vs 1: rates 75 and 25 GB/s.
        pfs.start(Time::ZERO, Bytes::from_gb(75.0), 3.0, 1);
        pfs.start(Time::ZERO, Bytes::from_gb(75.0), 1.0, 2);
        // First completes at t=1, second has 50 GB left, then full speed.
        pfs.advance(Time::from_secs(1.0));
        let done = pfs.take_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].meta, 1);
        assert_eq!(pfs.next_completion(), Some(Time::from_secs(1.5)));
    }

    #[test]
    fn cancel_returns_remainder_and_frees_bandwidth() {
        let mut pfs = pfs_100();
        let a = pfs.start(Time::ZERO, Bytes::from_gb(100.0), 1.0, 1);
        pfs.start(Time::ZERO, Bytes::from_gb(100.0), 1.0, 2);
        // At t=1, each moved 50 GB.
        let (meta, remaining) = pfs.cancel(Time::from_secs(1.0), a).unwrap();
        assert_eq!(meta, 1);
        assert!((remaining.as_gb() - 50.0).abs() < 1e-9);
        // B now runs alone; 50 GB left → completes at t=1.5.
        assert_eq!(pfs.next_completion(), Some(Time::from_secs(1.5)));
        // Cancelling again is a no-op.
        assert!(pfs.cancel(Time::from_secs(1.2), a).is_none());
    }

    #[test]
    fn zero_volume_completes_instantly() {
        let mut pfs = pfs_100();
        pfs.start(Time::from_secs(3.0), Bytes::ZERO, 1.0, 9);
        let done = pfs.take_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].started, done[0].finished);
        assert!(pfs.is_idle());
    }

    #[test]
    fn dilation_measures_contention() {
        let mut pfs = pfs_100();
        pfs.start(Time::ZERO, Bytes::from_gb(100.0), 1.0, 1);
        pfs.start(Time::ZERO, Bytes::from_gb(100.0), 1.0, 2);
        pfs.advance(Time::from_secs(2.0));
        let done = pfs.take_completed();
        let full = Bandwidth::from_gbps(100.0);
        for t in &done {
            assert!((t.duration().as_secs() - 2.0).abs() < 1e-9);
            assert!((t.nominal(full).as_secs() - 1.0).abs() < 1e-9);
            assert!((t.dilation(full).as_secs() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn stats_account_volume_and_busy_time() {
        let mut pfs = pfs_100();
        let a = pfs.start(Time::ZERO, Bytes::from_gb(100.0), 1.0, 1);
        pfs.advance(Time::from_secs(0.25));
        pfs.cancel(Time::from_secs(0.5), a); // 50 GB moved
        pfs.start(Time::from_secs(1.0), Bytes::from_gb(100.0), 1.0, 2);
        pfs.advance(Time::from_secs(5.0));
        let stats = pfs.stats();
        assert_eq!(stats.transfers_completed, 1);
        assert_eq!(stats.transfers_cancelled, 1);
        assert!((stats.bytes_completed.as_gb() - 100.0).abs() < 1e-9);
        assert!((stats.bytes_moved.as_gb() - 150.0).abs() < 1e-9);
        // Busy: [0, 0.5] and [1.0, 2.0] → 1.5 s.
        assert!((stats.busy_time.as_secs() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn equal_share_model_integration() {
        let mut pfs: Pfs<u32> = Pfs::new(Bandwidth::from_gbps(90.0), EqualShare);
        pfs.start(Time::ZERO, Bytes::from_gb(30.0), 100.0, 1);
        pfs.start(Time::ZERO, Bytes::from_gb(30.0), 1.0, 2);
        pfs.start(Time::ZERO, Bytes::from_gb(30.0), 1.0, 3);
        // 30 GB/s each despite weights → all complete at t=1.
        pfs.advance(Time::from_secs(1.0));
        assert_eq!(pfs.take_completed().len(), 3);
    }

    #[test]
    #[should_panic(expected = "clock cannot move backwards")]
    fn advance_rejects_time_travel() {
        let mut pfs = pfs_100();
        pfs.advance(Time::from_secs(2.0));
        pfs.advance(Time::from_secs(1.0));
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn start_rejects_zero_weight() {
        pfs_100().start(Time::ZERO, Bytes::from_gb(1.0), 0.0, 1);
    }

    #[test]
    fn completed_order_is_deterministic() {
        let mut pfs = pfs_100();
        // Three transfers finishing at the same instant.
        for i in 0..3 {
            pfs.start(Time::ZERO, Bytes::from_gb(100.0), 1.0, i);
        }
        pfs.advance(Time::from_secs(10.0));
        let metas: Vec<u32> = pfs.take_completed().into_iter().map(|t| t.meta).collect();
        assert_eq!(metas, vec![0, 1, 2]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::interference::LinearShare;
    use proptest::prelude::*;

    proptest! {
        /// Volume conservation: whatever the join pattern, every transfer
        /// completes having moved exactly its volume, and total bytes moved
        /// equal the integral of consumed bandwidth (≤ capacity × busy time).
        #[test]
        fn volume_is_conserved(
            starts in proptest::collection::vec((0.0f64..100.0, 1.0f64..500.0, 1.0f64..64.0), 1..40)
        ) {
            let bw = Bandwidth::from_gbps(100.0);
            let mut pfs: Pfs<usize> = Pfs::new(bw, LinearShare);
            let mut events: Vec<(f64, f64, f64)> = starts;
            events.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut total_volume = 0.0;
            for (i, &(t, gb, w)) in events.iter().enumerate() {
                pfs.start(Time::from_secs(t), Bytes::from_gb(gb), w, i);
                total_volume += gb;
            }
            // Run long enough for everything to finish.
            pfs.advance(Time::from_secs(1e6));
            let done = pfs.take_completed();
            prop_assert_eq!(done.len(), events.len());
            let stats = pfs.stats();
            prop_assert!((stats.bytes_completed.as_gb() - total_volume).abs() < 1e-6 * total_volume.max(1.0));
            // Work conservation: bytes moved == bandwidth × busy_time for the
            // linear (work-conserving) model.
            let capacity_gb = stats.busy_time.as_secs() * 100.0;
            prop_assert!((stats.bytes_moved.as_gb() - capacity_gb).abs() < 1e-6 * capacity_gb.max(1.0),
                "moved {} vs capacity {}", stats.bytes_moved.as_gb(), capacity_gb);
        }

        /// Completion times do not depend on how finely the caller advances
        /// the clock.
        #[test]
        fn advance_granularity_is_irrelevant(
            starts in proptest::collection::vec((0.0f64..50.0, 1.0f64..200.0, 1.0f64..8.0), 1..15),
            step in 0.05f64..7.0,
        ) {
            let bw = Bandwidth::from_gbps(100.0);
            let mut sorted = starts;
            sorted.sort_by(|a, b| a.0.total_cmp(&b.0));

            // Coarse: single advance to the end.
            let mut coarse: Pfs<usize> = Pfs::new(bw, LinearShare);
            for (i, &(t, gb, w)) in sorted.iter().enumerate() {
                coarse.start(Time::from_secs(t), Bytes::from_gb(gb), w, i);
            }
            coarse.advance(Time::from_secs(1e5));
            let mut a = coarse.take_completed();
            a.sort_by_key(|c| c.meta);

            // Fine: advance in `step`-second increments.
            let mut fine: Pfs<usize> = Pfs::new(bw, LinearShare);
            let mut idx = 0;
            let mut t_now = 0.0;
            while t_now < 1e5 {
                while idx < sorted.len() && sorted[idx].0 <= t_now + step {
                    let (t, gb, w) = sorted[idx];
                    fine.start(Time::from_secs(t.max(t_now)), Bytes::from_gb(gb), w, idx);
                    idx += 1;
                }
                t_now += step;
                fine.advance(Time::from_secs(t_now));
                if idx == sorted.len() && fine.is_idle() {
                    break;
                }
            }
            fine.advance(Time::from_secs(2e5));
            let mut b = fine.take_completed();
            b.sort_by_key(|c| c.meta);

            prop_assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                prop_assert!((x.finished.as_secs() - y.finished.as_secs()).abs() < 1e-6,
                    "meta {}: coarse {} vs fine {}", x.meta, x.finished, y.finished);
            }
        }
    }
}
