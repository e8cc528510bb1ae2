//! Multi-level checkpoint storage hierarchy.
//!
//! Real platforms stage checkpoints through a chain of stores — node-local
//! NVRAM, a shared burst buffer, campaign storage — before the parallel
//! file system. Each tier is small and fast relative to the one below it; a
//! write is absorbed by the shallowest tier with free space and then
//! *drains* tier by tier toward the PFS in the background. The writer is
//! blocked only for the absorb; durability (usability for restart) arrives
//! when the final drain lands on the PFS.
//!
//! Like [`Pfs`](crate::Pfs), the hierarchy is a *passive,
//! timestamp-driven state machine*: it never schedules anything itself.
//! The caller (the simulation engine) asks for admission, runs the absorb
//! for the returned duration, then repeatedly plans and completes drain
//! hops until the data reaches the PFS. This keeps the model independent
//! of any event loop and directly testable.
//!
//! Protocol per checkpoint:
//!
//! 1. [`admit`](StorageHierarchy::admit) — finds the shallowest tier with
//!    free space (full tiers are *spilled through*, deterministically, and
//!    counted in their [`TierStats::spills`]). Space is reserved
//!    immediately. When every tier is full, the caller must write to the
//!    PFS directly ([`Placement::Pfs`]).
//! 2. After the absorb completes, [`plan_drain`](StorageHierarchy::plan_drain)
//!    picks the drain destination: the shallowest deeper tier with free
//!    space (reserved immediately), or the PFS when none has room.
//! 3. When the hop's transfer finishes,
//!    [`drain_complete`](StorageHierarchy::drain_complete) frees the source
//!    tier. Repeat from step 2 at the destination level until the data
//!    lands on the PFS.
//! 4. If the owning job fails mid-flight, [`discard`](StorageHierarchy::discard)
//!    releases reserved space without counting it as drained.
//!
//! # Retained copies and restores
//!
//! As a checkpoint cascades down, each tier it visits keeps a *retained
//! copy* in the job's per-tier checkpoint slot after the bytes move on.
//! Retained copies are metadata, not occupancy: the hierarchy reserves
//! space only for data *in flight* (each job cycles one checkpoint slot
//! per tier, overwritten by the next cascade), so tracking them never
//! changes admission or spill decisions. The caller records the visited
//! levels of the last *durable* checkpoint in a [`RetainedCopies`] set;
//! when a failure of severity `s` strikes (invalidating levels `< s`),
//! [`RetainedCopies::restore_source`] picks the shallowest surviving copy
//! and [`restore_from`](StorageHierarchy::restore_from) prices the
//! read-back — at the tier's own bandwidth, without touching the PFS.
//!
//! # Example: a write cascades through two tiers to the PFS
//!
//! ```
//! use coopckpt_io::hierarchy::{DrainHop, Placement, StorageHierarchy, TierSpec};
//! use coopckpt_model::{Bandwidth, Bytes, Time};
//!
//! let mut h = StorageHierarchy::new(vec![
//!     TierSpec::new("node-local", Bytes::from_tb(1.0), Bandwidth::from_gbps(500.0)),
//!     TierSpec::new("burst-buffer", Bytes::from_tb(10.0), Bandwidth::from_gbps(200.0)),
//! ]);
//! let v = Bytes::from_gb(500.0);
//!
//! // 1. Admission lands in the fast top tier: 500 GB at 500 GB/s = 1 s.
//! let Placement::Tier { level, absorb_time } = h.admit(Time::ZERO, v, 1) else {
//!     panic!("tier 0 has space");
//! };
//! assert_eq!(level, 0);
//! assert!((absorb_time.as_secs() - 1.0).abs() < 1e-9);
//!
//! // 2. The drain hops to tier 1 (500 GB at 200 GB/s = 2.5 s)...
//! let DrainHop::Tier { level: dest, transfer_time } = h.plan_drain(0, v) else {
//!     panic!("tier 1 has space");
//! };
//! assert_eq!(dest, 1);
//! assert!((transfer_time.as_secs() - 2.5).abs() < 1e-9);
//! h.drain_complete(0, v); // tier 0 is free again
//!
//! // 3. ...and from the last tier the only way down is the PFS.
//! assert_eq!(h.plan_drain(1, v), DrainHop::Pfs);
//! h.drain_complete(1, v);
//! assert!(h.occupancy_total().is_zero());
//! ```

use coopckpt_des::{Duration, Time};
use coopckpt_model::{Bandwidth, Bytes};

/// Static description of one storage tier.
#[derive(Debug, Clone, PartialEq)]
pub struct TierSpec {
    /// Human-readable tier name (used in tables and traces).
    pub name: String,
    /// Total capacity of the tier.
    pub capacity: Bytes,
    /// Write bandwidth into the tier. Aggregate by default; see
    /// [`TierSpec::per_node`].
    pub write_bw: Bandwidth,
    /// When true, `write_bw` is contributed *per node of the writing job*
    /// (node-local storage: a q-node job absorbs at `write_bw × q`).
    /// Background drains between tiers always move at the destination's
    /// aggregate rate.
    pub per_writer_node: bool,
}

impl TierSpec {
    /// A tier with aggregate write bandwidth (shared stores: burst buffers,
    /// campaign storage).
    ///
    /// # Panics
    ///
    /// Panics unless capacity and write bandwidth are positive and finite.
    pub fn new(name: impl Into<String>, capacity: Bytes, write_bw: Bandwidth) -> Self {
        let spec = TierSpec {
            name: name.into(),
            capacity,
            write_bw,
            per_writer_node: false,
        };
        spec.validate();
        spec
    }

    /// A tier whose write bandwidth scales with the writing job's node
    /// count (node-local storage).
    ///
    /// # Panics
    ///
    /// Panics unless capacity and write bandwidth are positive and finite.
    pub fn per_node(
        name: impl Into<String>,
        capacity: Bytes,
        write_bw_per_node: Bandwidth,
    ) -> Self {
        let spec = TierSpec {
            name: name.into(),
            capacity,
            write_bw: write_bw_per_node,
            per_writer_node: true,
        };
        spec.validate();
        spec
    }

    fn validate(&self) {
        assert!(
            self.capacity.is_valid() && !self.capacity.is_zero(),
            "tier '{}': capacity must be positive, got {}",
            self.name,
            self.capacity
        );
        assert!(
            self.write_bw.is_valid() && !self.write_bw.is_zero(),
            "tier '{}': write bandwidth must be positive, got {}",
            self.name,
            self.write_bw
        );
    }
}

/// Aggregate statistics of one tier.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TierStats {
    /// Writes admitted into this tier.
    pub admitted: u64,
    /// Writes that found this tier full and fell through to the next one
    /// (or to the PFS).
    pub spills: u64,
    /// Bytes absorbed from writers.
    pub bytes_absorbed: Bytes,
    /// Bytes that arrived by draining from a shallower tier.
    pub bytes_forwarded_in: Bytes,
    /// Bytes drained out toward the PFS.
    pub bytes_drained_out: Bytes,
    /// Bytes discarded (owning job failed before the drain landed).
    pub bytes_discarded: Bytes,
    /// Peak occupancy observed.
    pub peak_occupancy: Bytes,
    /// Recovery reads served from this tier's retained copies.
    pub restores: u64,
    /// Bytes read back for recovery from this tier.
    pub bytes_restored: Bytes,
}

/// The set of hierarchy levels holding a retained copy of one job's last
/// durable checkpoint (a compact level bitmask; see the
/// [module docs](self) for the retention model).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetainedCopies(u32);

impl RetainedCopies {
    /// No retained copies: only the PFS holds the checkpoint.
    pub const EMPTY: RetainedCopies = RetainedCopies(0);

    /// Marks a retained copy at `level`.
    pub fn record(&mut self, level: usize) {
        debug_assert!(level < 32, "level {level} out of bitmask range");
        self.0 |= 1 << level;
    }

    /// Drops the copy at `level` (overwritten by a newer cascade).
    pub fn forget(&mut self, level: usize) {
        debug_assert!(level < 32, "level {level} out of bitmask range");
        self.0 &= !(1 << level);
    }

    /// Drops every retained copy (a fresh checkpoint committed straight to
    /// the PFS, superseding all tier copies).
    pub fn clear(&mut self) {
        self.0 = 0;
    }

    /// True when `level` holds a retained copy.
    pub fn contains(&self, level: usize) -> bool {
        level < 32 && self.0 & (1 << level) != 0
    }

    /// True when no tier holds a copy.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Applies a severity-`severity` strike: copies at levels
    /// `< severity` are lost (pass [`usize::MAX`] for a system failure
    /// that wipes every tier).
    pub fn invalidate_below(&mut self, severity: usize) {
        if severity >= 32 {
            self.0 = 0;
        } else {
            self.0 &= !((1u32 << severity) - 1);
        }
    }

    /// The restore source after a severity-`severity` strike: the
    /// shallowest retained level the strike did not reach (`>= severity`),
    /// or `None` when only the PFS copy survives. Never returns a level
    /// shallower than the shallowest surviving copy — the recovery-
    /// semantics property suite pins this down.
    pub fn restore_source(&self, severity: usize) -> Option<usize> {
        if severity >= 32 {
            return None;
        }
        let surviving = self.0 & !((1u32 << severity) - 1);
        if surviving == 0 {
            None
        } else {
            Some(surviving.trailing_zeros() as usize)
        }
    }

    /// The retained levels, shallow to deep.
    pub fn levels(&self) -> impl Iterator<Item = usize> + '_ {
        (0..32).filter(|&l| self.contains(l))
    }
}

/// One tier's live state.
#[derive(Debug, Clone)]
pub struct Tier {
    spec: TierSpec,
    occupancy: Bytes,
    stats: TierStats,
}

impl Tier {
    /// The static description.
    pub fn spec(&self) -> &TierSpec {
        &self.spec
    }

    /// Bytes currently held (reserved space included).
    pub fn occupancy(&self) -> Bytes {
        self.occupancy
    }

    /// Free space.
    pub fn free(&self) -> Bytes {
        (self.spec.capacity - self.occupancy).max_zero()
    }

    /// Statistics so far.
    pub fn stats(&self) -> TierStats {
        self.stats
    }

    fn reserve(&mut self, volume: Bytes) {
        self.occupancy += volume;
        self.stats.peak_occupancy = self.stats.peak_occupancy.max(self.occupancy);
    }

    fn release(&mut self, volume: Bytes) {
        debug_assert!(
            volume.as_bytes() <= self.occupancy.as_bytes() + 1.0,
            "tier '{}': releasing {volume} exceeds occupancy {}",
            self.spec.name,
            self.occupancy
        );
        self.occupancy = (self.occupancy - volume).max_zero();
    }
}

/// Outcome of asking the hierarchy to absorb a write.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Placement {
    /// Tier `level` accepted the write; the writer blocks for
    /// `absorb_time`, after which a drain from `level` must be planned.
    Tier {
        /// The accepting tier (0 is the shallowest/fastest).
        level: usize,
        /// How long the writer is blocked.
        absorb_time: Duration,
    },
    /// Every tier is full (or the hierarchy is empty): the caller must
    /// write to the PFS directly.
    Pfs,
}

/// Destination of one background drain hop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DrainHop {
    /// Drain into tier `level`; space there is already reserved. The hop
    /// takes `transfer_time` at the destination's aggregate bandwidth.
    Tier {
        /// The destination tier.
        level: usize,
        /// Duration of the hop.
        transfer_time: Duration,
    },
    /// No deeper tier has room (or this is the last tier): drain to the
    /// PFS through whatever I/O discipline the caller runs.
    Pfs,
}

/// A fixed stack of storage tiers between writers and the PFS.
///
/// Tier 0 is the shallowest (fastest, closest to the job); higher indices
/// sit deeper, and the PFS is the implicit terminal level below them all.
#[derive(Debug, Clone)]
pub struct StorageHierarchy {
    tiers: Vec<Tier>,
}

impl StorageHierarchy {
    /// Creates a hierarchy from shallow to deep. An empty spec list is a
    /// valid degenerate hierarchy that admits nothing (everything goes to
    /// the PFS).
    pub fn new(specs: Vec<TierSpec>) -> Self {
        StorageHierarchy {
            tiers: specs
                .into_iter()
                .map(|spec| {
                    spec.validate();
                    Tier {
                        spec,
                        occupancy: Bytes::ZERO,
                        stats: TierStats::default(),
                    }
                })
                .collect(),
        }
    }

    /// Number of tiers.
    pub fn levels(&self) -> usize {
        self.tiers.len()
    }

    /// True when there are no tiers at all.
    pub fn is_empty(&self) -> bool {
        self.tiers.is_empty()
    }

    /// The tier at `level` (0 = shallowest).
    pub fn tier(&self, level: usize) -> &Tier {
        &self.tiers[level]
    }

    /// All tiers, shallow to deep.
    pub fn tiers(&self) -> &[Tier] {
        &self.tiers
    }

    /// Sum of all tier occupancies.
    pub fn occupancy_total(&self) -> Bytes {
        self.tiers.iter().map(|t| t.occupancy).sum()
    }

    /// The time tier `level` needs to absorb `volume` from a
    /// `writer_nodes`-node job.
    pub fn absorb_time(&self, level: usize, volume: Bytes, writer_nodes: usize) -> Duration {
        let tier = &self.tiers[level];
        let bw = if tier.spec.per_writer_node {
            tier.spec.write_bw * writer_nodes.max(1) as f64
        } else {
            tier.spec.write_bw
        };
        volume.transfer_time(bw)
    }

    /// The level [`admit`](StorageHierarchy::admit) would place `volume`
    /// at, without reserving anything or touching statistics.
    pub fn would_admit(&self, volume: Bytes) -> Option<usize> {
        self.tiers.iter().position(|t| volume <= t.free())
    }

    /// Requests admission of a `volume`-byte write from a
    /// `writer_nodes`-node job at `now`.
    ///
    /// Walks tiers shallow to deep; full tiers record a spill and the
    /// write falls through. The accepting tier reserves the space
    /// immediately. Returns [`Placement::Pfs`] when every tier is full.
    pub fn admit(&mut self, _now: Time, volume: Bytes, writer_nodes: usize) -> Placement {
        assert!(volume.is_valid(), "invalid write volume {volume}");
        for level in 0..self.tiers.len() {
            if volume <= self.tiers[level].free() {
                self.tiers[level].reserve(volume);
                self.tiers[level].stats.admitted += 1;
                self.tiers[level].stats.bytes_absorbed += volume;
                coopckpt_obs::count(coopckpt_obs::Counter::TierAbsorbs, 1);
                return Placement::Tier {
                    level,
                    absorb_time: self.absorb_time(level, volume, writer_nodes),
                };
            }
            self.tiers[level].stats.spills += 1;
            coopckpt_obs::count(coopckpt_obs::Counter::TierSpills, 1);
        }
        Placement::Pfs
    }

    /// Plans the next background drain hop for `volume` bytes currently
    /// held at `from`: the shallowest deeper tier with free space (its
    /// space is reserved immediately), or the PFS when none has room.
    ///
    /// The source tier stays occupied until
    /// [`drain_complete`](StorageHierarchy::drain_complete).
    pub fn plan_drain(&mut self, from: usize, volume: Bytes) -> DrainHop {
        assert!(from < self.tiers.len(), "no tier at level {from}");
        for level in from + 1..self.tiers.len() {
            if volume <= self.tiers[level].free() {
                self.tiers[level].reserve(volume);
                self.tiers[level].stats.bytes_forwarded_in += volume;
                let transfer_time = volume.transfer_time(self.tiers[level].spec.write_bw);
                return DrainHop::Tier {
                    level,
                    transfer_time,
                };
            }
            self.tiers[level].stats.spills += 1;
            coopckpt_obs::count(coopckpt_obs::Counter::TierSpills, 1);
        }
        DrainHop::Pfs
    }

    /// Notifies the hierarchy that a drain of `volume` bytes out of tier
    /// `from` finished (either into the next tier, whose space was
    /// reserved by [`plan_drain`](StorageHierarchy::plan_drain), or onto
    /// the PFS), freeing the source space.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when more bytes are drained than are held —
    /// a protocol bug in the caller.
    pub fn drain_complete(&mut self, from: usize, volume: Bytes) {
        self.tiers[from].release(volume);
        self.tiers[from].stats.bytes_drained_out += volume;
        coopckpt_obs::count(coopckpt_obs::Counter::TierDrains, 1);
    }

    /// Discards `volume` bytes held at `level` without draining (the
    /// owning job failed; its buffered checkpoint is useless).
    pub fn discard(&mut self, level: usize, volume: Bytes) {
        self.tiers[level].release(volume);
        self.tiers[level].stats.bytes_discarded += volume;
    }

    /// The time a `reader_nodes`-node job needs to read `volume` bytes
    /// back from tier `level` — symmetric to the absorb path (read
    /// bandwidth equals write bandwidth, matching the paper's `R = C`
    /// assumption for the PFS). Non-mutating: use it to *price* a
    /// candidate restore (level-aware Least-Waste) without recording one.
    pub fn restore_time(&self, level: usize, volume: Bytes, reader_nodes: usize) -> Duration {
        self.absorb_time(level, volume, reader_nodes)
    }

    /// Serves a recovery read of `volume` bytes from tier `level`'s
    /// retained copy: returns the read-back duration and records the
    /// restore in the tier's statistics. The read never touches the PFS
    /// (no token, no shared-bandwidth stream) and occupies no tier
    /// capacity — the copy is already resident.
    pub fn restore_from(&mut self, level: usize, volume: Bytes, reader_nodes: usize) -> Duration {
        assert!(volume.is_valid(), "invalid restore volume {volume}");
        let duration = self.restore_time(level, volume, reader_nodes);
        self.tiers[level].stats.restores += 1;
        self.tiers[level].stats.bytes_restored += volume;
        duration
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_tier() -> StorageHierarchy {
        StorageHierarchy::new(vec![
            TierSpec::per_node("local", Bytes::from_tb(1.0), Bandwidth::from_gbps(2.0)),
            TierSpec::new("bb", Bytes::from_tb(4.0), Bandwidth::from_gbps(400.0)),
            TierSpec::new(
                "campaign",
                Bytes::from_tb(16.0),
                Bandwidth::from_gbps(100.0),
            ),
        ])
    }

    #[test]
    fn admission_prefers_the_shallowest_tier() {
        let mut h = three_tier();
        match h.admit(Time::ZERO, Bytes::from_gb(800.0), 100) {
            Placement::Tier { level, absorb_time } => {
                assert_eq!(level, 0);
                // 800 GB at 2 GB/s x 100 nodes = 4 s.
                assert!((absorb_time.as_secs() - 4.0).abs() < 1e-9);
            }
            other => panic!("expected tier 0, got {other:?}"),
        }
        assert_eq!(h.tier(0).stats().admitted, 1);
    }

    #[test]
    fn full_tiers_spill_deterministically() {
        let mut h = three_tier();
        // Fill tier 0; the next write must land at tier 1 and record the
        // spill against tier 0.
        h.admit(Time::ZERO, Bytes::from_tb(1.0), 4);
        match h.admit(Time::ZERO, Bytes::from_gb(500.0), 4) {
            Placement::Tier { level, .. } => assert_eq!(level, 1),
            other => panic!("expected tier 1, got {other:?}"),
        }
        assert_eq!(h.tier(0).stats().spills, 1);
        assert_eq!(h.tier(1).stats().admitted, 1);
        // A volume larger than every tier goes to the PFS.
        assert_eq!(
            h.admit(Time::ZERO, Bytes::from_tb(100.0), 4),
            Placement::Pfs
        );
    }

    #[test]
    fn drain_cascade_conserves_bytes() {
        let mut h = three_tier();
        let v = Bytes::from_gb(600.0);
        h.admit(Time::ZERO, v, 8);
        // Hop 0 -> 1: reserved at 1, still held at 0 until completion.
        let DrainHop::Tier { level, .. } = h.plan_drain(0, v) else {
            panic!("tier 1 has room");
        };
        assert_eq!(level, 1);
        assert_eq!(h.occupancy_total(), v * 2.0);
        h.drain_complete(0, v);
        assert!(h.tier(0).occupancy().is_zero());
        assert_eq!(h.tier(1).occupancy(), v);
        // Hop 1 -> 2, then 2 -> PFS.
        assert!(matches!(
            h.plan_drain(1, v),
            DrainHop::Tier { level: 2, .. }
        ));
        h.drain_complete(1, v);
        assert_eq!(h.plan_drain(2, v), DrainHop::Pfs);
        h.drain_complete(2, v);
        assert!(h.occupancy_total().is_zero());
        // Per-tier conservation: in == out everywhere.
        for t in h.tiers() {
            let s = t.stats();
            let inflow = s.bytes_absorbed + s.bytes_forwarded_in;
            let outflow = s.bytes_drained_out + s.bytes_discarded;
            assert!((inflow.as_bytes() - outflow.as_bytes()).abs() < 1.0);
        }
    }

    #[test]
    fn drain_skips_full_middle_tier() {
        let mut h = three_tier();
        // Fill tier 1 completely; a drain from tier 0 must hop to tier 2.
        h.tiers[1].reserve(Bytes::from_tb(4.0));
        let v = Bytes::from_gb(100.0);
        h.admit(Time::ZERO, v, 2);
        match h.plan_drain(0, v) {
            DrainHop::Tier { level, .. } => assert_eq!(level, 2),
            other => panic!("expected tier 2, got {other:?}"),
        }
        assert_eq!(h.tier(1).stats().spills, 1);
    }

    #[test]
    fn discard_frees_without_draining() {
        let mut h = three_tier();
        let v = Bytes::from_gb(300.0);
        h.admit(Time::ZERO, v, 2);
        h.discard(0, v);
        assert!(h.tier(0).occupancy().is_zero());
        assert!(h.tier(0).stats().bytes_drained_out.is_zero());
        assert_eq!(h.tier(0).stats().bytes_discarded, v);
    }

    #[test]
    fn empty_hierarchy_sends_everything_to_the_pfs() {
        let mut h = StorageHierarchy::new(Vec::new());
        assert!(h.is_empty());
        assert_eq!(h.would_admit(Bytes::from_gb(1.0)), None);
        assert_eq!(h.admit(Time::ZERO, Bytes::from_gb(1.0), 1), Placement::Pfs);
    }

    #[test]
    fn would_admit_matches_admit() {
        let mut h = three_tier();
        let v = Bytes::from_gb(900.0);
        for _ in 0..8 {
            let predicted = h.would_admit(v);
            match h.admit(Time::ZERO, v, 4) {
                Placement::Tier { level, .. } => assert_eq!(predicted, Some(level)),
                Placement::Pfs => assert_eq!(predicted, None),
            }
        }
    }

    #[test]
    fn restore_from_prices_reads_like_absorbs_and_counts_stats() {
        let mut h = three_tier();
        let v = Bytes::from_gb(800.0);
        // Tier 0 is per-node at 2 GB/s: 100 readers -> 4 s, like the
        // absorb in `admission_prefers_the_shallowest_tier`.
        assert!((h.restore_time(0, v, 100).as_secs() - 4.0).abs() < 1e-9);
        let d = h.restore_from(0, v, 100);
        assert_eq!(d, h.restore_time(0, v, 100));
        assert_eq!(h.tier(0).stats().restores, 1);
        assert_eq!(h.tier(0).stats().bytes_restored, v);
        // Aggregate tier 1 at 400 GB/s: 2 s regardless of reader count.
        assert!((h.restore_from(1, v, 1).as_secs() - 2.0).abs() < 1e-9);
        assert_eq!(h.tier(1).stats().restores, 1);
        // Restores never touch occupancy.
        assert!(h.occupancy_total().is_zero());
    }

    #[test]
    fn retained_copies_track_record_forget_clear() {
        let mut r = RetainedCopies::EMPTY;
        assert!(r.is_empty());
        r.record(0);
        r.record(2);
        assert!(r.contains(0) && !r.contains(1) && r.contains(2));
        assert_eq!(r.levels().collect::<Vec<_>>(), vec![0, 2]);
        r.forget(0);
        assert!(!r.contains(0) && r.contains(2));
        r.clear();
        assert!(r.is_empty());
    }

    #[test]
    fn restore_source_is_the_shallowest_surviving_copy() {
        let mut r = RetainedCopies::EMPTY;
        r.record(0);
        r.record(1);
        r.record(2);
        // Severity 0 (process crash): even the shallowest copy survives.
        assert_eq!(r.restore_source(0), Some(0));
        // Severity 1 (node loss): the node-local copy is gone.
        assert_eq!(r.restore_source(1), Some(1));
        // Severity past the deepest copy: PFS only.
        assert_eq!(r.restore_source(3), None);
        assert_eq!(r.restore_source(usize::MAX), None);
        // Gaps are skipped: with only level 2 retained, a severity-1
        // strike restores from level 2.
        let mut sparse = RetainedCopies::EMPTY;
        sparse.record(2);
        assert_eq!(sparse.restore_source(1), Some(2));
    }

    #[test]
    fn invalidate_below_wipes_exactly_the_shallow_levels() {
        let mut r = RetainedCopies::EMPTY;
        for l in 0..4 {
            r.record(l);
        }
        r.invalidate_below(2);
        assert_eq!(r.levels().collect::<Vec<_>>(), vec![2, 3]);
        r.invalidate_below(0); // no-op
        assert_eq!(r.levels().collect::<Vec<_>>(), vec![2, 3]);
        r.invalidate_below(usize::MAX); // system strike
        assert!(r.is_empty());
        assert_eq!(r.restore_source(0), None);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        TierSpec::new("bad", Bytes::ZERO, Bandwidth::from_gbps(1.0));
    }

    #[test]
    #[should_panic(expected = "write bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        TierSpec::per_node("bad", Bytes::from_gb(1.0), Bandwidth::ZERO);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Replays a random operation sequence against a small hierarchy,
    /// tracking every write the model accepted so completions/discards are
    /// always legal, then checks the structural invariants.
    fn run_ops(ops: &[(u8, u16)], levels: usize) -> StorageHierarchy {
        let specs: Vec<TierSpec> = (0..levels)
            .map(|l| {
                TierSpec::new(
                    format!("t{l}"),
                    Bytes::from_gb(100.0 * (l + 1) as f64),
                    Bandwidth::from_gbps(10.0),
                )
            })
            .collect();
        let mut h = StorageHierarchy::new(specs);
        // Writes currently resident at some level, eligible to drain.
        let mut resident: Vec<(usize, Bytes)> = Vec::new();
        // In-flight hops: (from, dest-or-PFS, volume).
        let mut hops: Vec<(usize, Option<usize>, Bytes)> = Vec::new();
        for &(op, raw) in ops {
            let volume = Bytes::from_gb(f64::from(raw % 120) + 1.0);
            match op % 4 {
                0 => {
                    if let Placement::Tier { level, .. } = h.admit(Time::ZERO, volume, 4) {
                        resident.push((level, volume));
                    }
                }
                1 => {
                    if let Some((level, v)) = resident.pop() {
                        match h.plan_drain(level, v) {
                            DrainHop::Tier { level: dest, .. } => hops.push((level, Some(dest), v)),
                            DrainHop::Pfs => hops.push((level, None, v)),
                        }
                    }
                }
                2 => {
                    if let Some((from, dest, v)) = hops.pop() {
                        h.drain_complete(from, v);
                        if let Some(dest) = dest {
                            resident.push((dest, v));
                        }
                    }
                }
                _ => {
                    if let Some((level, v)) = resident.pop() {
                        h.discard(level, v);
                    }
                }
            }
        }
        h
    }

    proptest! {
        /// Occupancy never exceeds capacity at any tier, under arbitrary
        /// interleavings of admissions, drains, completions and discards.
        #[test]
        fn occupancy_bounded_by_capacity(
            ops in proptest::collection::vec((0u8..4, 0u16..1000), 0..60),
            levels in 1usize..4,
        ) {
            let h = run_ops(&ops, levels);
            for t in h.tiers() {
                prop_assert!(t.occupancy().as_bytes() <= t.spec().capacity.as_bytes() + 1.0);
                prop_assert!(t.stats().peak_occupancy.as_bytes()
                    <= t.spec().capacity.as_bytes() + 1.0);
            }
        }

        /// Bytes are conserved at every tier: what flowed in equals what
        /// flowed out plus what is still resident.
        #[test]
        fn bytes_conserved_per_tier(
            ops in proptest::collection::vec((0u8..4, 0u16..1000), 0..60),
            levels in 1usize..4,
        ) {
            let h = run_ops(&ops, levels);
            for t in h.tiers() {
                let s = t.stats();
                let inflow = s.bytes_absorbed + s.bytes_forwarded_in;
                let outflow = s.bytes_drained_out + s.bytes_discarded;
                let balance = inflow.as_bytes() - outflow.as_bytes() - t.occupancy().as_bytes();
                prop_assert!(balance.abs() < 1.0, "tier imbalance: {balance}");
            }
        }

        /// Spill is deterministic: admission always lands exactly where
        /// `would_admit` predicts, for any prior operation history.
        #[test]
        fn spill_falls_through_deterministically(
            ops in proptest::collection::vec((0u8..4, 0u16..1000), 0..60),
            volume_gb in 1u16..200,
        ) {
            let mut h = run_ops(&ops, 3);
            let v = Bytes::from_gb(f64::from(volume_gb));
            let predicted = h.would_admit(v);
            match h.admit(Time::ZERO, v, 4) {
                Placement::Tier { level, .. } => {
                    prop_assert_eq!(predicted, Some(level));
                    // Everything shallower was genuinely full.
                    for l in 0..level {
                        prop_assert!(h.tier(l).free() < v);
                    }
                }
                Placement::Pfs => {
                    prop_assert_eq!(predicted, None);
                    for t in h.tiers() {
                        prop_assert!(t.free() < v);
                    }
                }
            }
        }
    }
}
