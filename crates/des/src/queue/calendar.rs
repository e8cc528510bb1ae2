//! Bucketed calendar queue (Brown 1988), the default [`EventQueue`]
//! backend.
//!
//! Time is divided into *years* of `nbuckets × width` seconds; each year
//! into `nbuckets` *days* of `width` seconds. An event at time `t` lives in
//! virtual bucket `⌊t / width⌋`, stored physically at that index modulo
//! `nbuckets` (a power of two, so the modulo is a mask). Buckets are plain
//! unsorted vectors of slab-slot indices, and every entry carries a
//! back-pointer `(bucket, pos)` to its position:
//!
//! * **insert** — push onto the target bucket: O(1).
//! * **cancel** — `swap_remove` at the recorded position and fix the one
//!   back-pointer the swap moved: O(1), and the event is *gone*. This is
//!   the whole point versus the heap backend: the engine's dominant
//!   pattern (checkpoint-due / milestone events re-armed far more often
//!   than they fire) produces no tombstones at all.
//! * **pop** — scan the cursor's bucket for events belonging to the
//!   cursor's year and take the minimum `(time, seq)`; FIFO tie-breaking
//!   falls out because equal timestamps always share a bucket. Empty
//!   virtual buckets advance the cursor; a full fruitless round falls back
//!   to a direct global-minimum search (events sparse relative to the year
//!   span) and jumps the cursor there.
//!
//! The bucket count tracks the live population (doubling above 2 events
//! per bucket, shrinking below 1/4). Each rebuild sets the width from the
//! spacing of the events about to fire, as Brown's own resize rule does:
//! take the 32 earliest live times, average their consecutive gaps, drop
//! the gaps above twice that average, and use three times the mean of the
//! rest. The next events then land about three to a bucket however far the
//! population reaches, so a failure trace queued over 45 days cannot
//! stretch the buckets the next minute's timers share. A trimmed mean of
//! 0 means an equal-time cluster, which no width can split; the width then
//! falls back to twice the live time span per event.
//!
//! The spacing of the next events drifts without the population moving, so
//! pops re-estimate too once they get expensive. A pop rebuilds when the
//! pops since the last rebuild reach a *patience* of `max(len, 16)` and
//! the entries they compared average more than 4 per pop. Each
//! cost-triggered rebuild doubles the patience, so futile re-estimates
//! (an equal-time cluster again) stay logarithmic in the number of pops.
//! Rebuilds reuse the bucket vectors. None of this touches the pop order,
//! which `(time, seq)` alone fixes.
//!
//! [`EventQueue`]: super::EventQueue

use super::EventKey;
use crate::time::Time;

/// Smallest bucket array; also the shrink floor.
const MIN_BUCKETS: usize = 16;

/// Earliest live events whose spacing sets the bucket width.
const WIDTH_SAMPLE: usize = 32;

/// Bucket width in trimmed mean gaps between those events.
const GAPS_PER_BUCKET: f64 = 3.0;

/// Entries compared per pop above which pops count as expensive.
const EXPENSIVE_ENTRIES_PER_POP: u64 = 4;

/// Smallest patience: pops before cost may trigger a rebuild.
const MIN_PATIENCE: u64 = 16;

/// Calendar-internal telemetry, accumulated as plain integers so the hot
/// path never touches an atomic: the telemetry switch is sampled once at
/// construction into [`CalendarQueue::track`], and when it is off each
/// update collapses to a predicted-untaken branch. The wrapper drains the
/// tallies through [`EventQueue::flush_telemetry`] once per replay.
///
/// [`EventQueue::flush_telemetry`]: super::EventQueue::flush_telemetry
#[derive(Debug, Default, Clone, Copy)]
pub(super) struct CalendarStats {
    /// Bucket-array rebuilds (grow, shrink or cost-triggered).
    pub(super) resizes: u64,
    /// Bucket scans per successful `next_slot`: count/sum/max.
    pub(super) scans_count: u64,
    pub(super) scans_sum: u64,
    pub(super) scans_max: u64,
    /// Entries compared per successful `next_slot` (the lengths of the
    /// buckets it walked): sum/max, counted alongside `scans_count`.
    pub(super) entries_sum: u64,
    pub(super) entries_max: u64,
    /// Target-bucket occupancy after each insert: count/sum/max.
    pub(super) occ_count: u64,
    pub(super) occ_sum: u64,
    pub(super) occ_max: u64,
}

impl CalendarStats {
    #[inline]
    fn scan(&mut self, scanned: u64, entries: u64) {
        self.scans_count += 1;
        self.scans_sum += scanned;
        self.scans_max = self.scans_max.max(scanned);
        self.entries_sum += entries;
        self.entries_max = self.entries_max.max(entries);
    }
}

struct Entry<E> {
    seq: u64,
    time: Time,
    /// `Some` while the event is pending; taken on pop/cancel, which also
    /// frees the slot (a `None` here marks a free or in-flight slot, so
    /// stale keys whose slot was freed but not yet recycled stay no-ops).
    payload: Option<E>,
    /// Physical bucket currently holding this slot.
    bucket: u32,
    /// Position inside that bucket's vector.
    pos: u32,
}

pub(super) struct CalendarQueue<E> {
    entries: Vec<Entry<E>>,
    /// Free slots in `entries` available for reuse.
    free: Vec<u32>,
    /// Unsorted slot indices, one vector per physical bucket. Length is
    /// always a power of two.
    buckets: Vec<Vec<u32>>,
    /// Bucket width in seconds; finite and strictly positive.
    width: f64,
    /// Virtual bucket index of the pop cursor. Invariant: no live event
    /// maps to a virtual bucket below it.
    cursor: i64,
    len: usize,
    /// Pops since the last rebuild, and the entries `next_slot` compared
    /// since then: the cost trigger's tallies, kept whether telemetry is on
    /// or off.
    pops: u64,
    compared: u64,
    /// Pops since the last rebuild before cost may trigger the next one.
    patience: u64,
    /// Whether telemetry was enabled when this queue was built; gates every
    /// `stats` update so the disabled path costs one predictable branch.
    track: bool,
    stats: CalendarStats,
}

impl<E> CalendarQueue<E> {
    pub(super) fn new() -> Self {
        Self::with_capacity(0)
    }

    pub(super) fn with_capacity(cap: usize) -> Self {
        CalendarQueue {
            entries: Vec::with_capacity(cap),
            free: Vec::new(),
            buckets: vec![Vec::new(); MIN_BUCKETS],
            width: 1.0,
            cursor: 0,
            len: 0,
            pops: 0,
            compared: 0,
            patience: MIN_PATIENCE,
            track: coopckpt_obs::enabled(),
            stats: CalendarStats::default(),
        }
    }

    /// Drains the accumulated telemetry counters.
    pub(super) fn take_stats(&mut self) -> CalendarStats {
        std::mem::take(&mut self.stats)
    }

    pub(super) fn len(&self) -> usize {
        self.len
    }

    /// Virtual bucket index for `time`. The `as i64` cast saturates for
    /// extreme times; saturated indices still hash consistently and
    /// ordering is enforced by the explicit `(time, seq)` comparison, so
    /// correctness survives (only bucket spread degrades).
    #[inline]
    fn vbucket(&self, time: Time) -> i64 {
        (time.as_secs() / self.width).floor() as i64
    }

    /// Physical bucket for a virtual index: modulo the power-of-two bucket
    /// count. Masking the low bits of the two's-complement representation
    /// handles negative indices.
    #[inline]
    fn phys(&self, vb: i64) -> usize {
        (vb & (self.buckets.len() as i64 - 1)) as usize
    }

    pub(super) fn schedule(&mut self, seq: u64, time: Time, payload: E) -> u32 {
        let vb = self.vbucket(time);
        let b = self.phys(vb);
        let entry = Entry {
            seq,
            time,
            payload: Some(payload),
            bucket: b as u32,
            pos: self.buckets[b].len() as u32,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.entries[slot as usize] = entry;
                slot
            }
            None => {
                assert!(
                    self.entries.len() < u32::MAX as usize,
                    "event slab overflow"
                );
                self.entries.push(entry);
                (self.entries.len() - 1) as u32
            }
        };
        self.buckets[b].push(slot);
        if self.track {
            let occ = self.buckets[b].len() as u64;
            self.stats.occ_count += 1;
            self.stats.occ_sum += occ;
            self.stats.occ_max = self.stats.occ_max.max(occ);
        }
        if self.len == 0 || vb < self.cursor {
            self.cursor = vb;
        }
        self.len += 1;
        if self.len > self.buckets.len() * 2 {
            self.rebuild();
        }
        slot
    }

    pub(super) fn cancel(&mut self, key: EventKey) -> Option<E> {
        let entry = self.entries.get_mut(key.slot as usize)?;
        if entry.seq != key.seq || entry.payload.is_none() {
            return None;
        }
        let payload = entry.payload.take();
        let (b, pos) = (entry.bucket as usize, entry.pos as usize);
        self.detach(b, pos);
        self.free.push(key.slot);
        self.len -= 1;
        self.maybe_shrink();
        payload
    }

    pub(super) fn peek_time(&mut self) -> Option<Time> {
        self.next_slot()
            .map(|slot| self.entries[slot as usize].time)
    }

    pub(super) fn pop(&mut self) -> Option<(Time, E)> {
        let slot = self.next_slot()?;
        let entry = &mut self.entries[slot as usize];
        let time = entry.time;
        let payload = entry.payload.take().expect("live entry holds a payload");
        let (b, pos) = (entry.bucket as usize, entry.pos as usize);
        self.detach(b, pos);
        self.free.push(slot);
        self.len -= 1;
        self.maybe_shrink();
        self.pops += 1;
        if self.pops >= self.patience && self.compared > EXPENSIVE_ENTRIES_PER_POP * self.pops {
            let patience = self.patience;
            self.rebuild();
            self.patience = self.patience.max(2 * patience);
        }
        Some((time, payload))
    }

    pub(super) fn clear(&mut self) {
        self.entries.clear();
        self.free.clear();
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.cursor = 0;
        self.len = 0;
        self.pops = 0;
        self.compared = 0;
        self.patience = MIN_PATIENCE;
    }

    /// Removes the bucket slot at `(b, pos)` via `swap_remove`, fixing the
    /// back-pointer of the one slot the swap moved.
    fn detach(&mut self, b: usize, pos: usize) {
        self.buckets[b].swap_remove(pos);
        if let Some(&moved) = self.buckets[b].get(pos) {
            self.entries[moved as usize].pos = pos as u32;
        }
    }

    /// Advances the cursor to the first virtual bucket holding a live event
    /// and returns the minimum-`(time, seq)` slot in it. Only empty virtual
    /// buckets are skipped, so calling this from `peek_time` (without
    /// popping) is safe.
    fn next_slot(&mut self) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let mut scanned = 0u64;
        let mut entries = 0u64;
        for _ in 0..self.buckets.len() {
            let b = self.phys(self.cursor);
            scanned += 1;
            entries += self.buckets[b].len() as u64;
            if let Some(slot) = self.min_in_year(b, self.cursor) {
                self.compared += entries;
                if self.track {
                    self.stats.scan(scanned, entries);
                }
                return Some(slot);
            }
            self.cursor += 1;
        }
        // A full round without an in-year event: the population is sparse
        // relative to the year span. Find the global minimum directly and
        // jump the cursor to it.
        let mut best: Option<u32> = None;
        for bucket in &self.buckets {
            for &slot in bucket {
                let e = &self.entries[slot as usize];
                let better = match best {
                    None => true,
                    Some(cur) => {
                        let c = &self.entries[cur as usize];
                        (e.time, e.seq) < (c.time, c.seq)
                    }
                };
                if better {
                    best = Some(slot);
                }
            }
        }
        let slot = best.expect("len > 0 implies a live event");
        self.cursor = self.vbucket(self.entries[slot as usize].time);
        self.compared += entries + self.len as u64;
        if self.track {
            // The fallback walked every bucket, and every entry, a second
            // time.
            self.stats.scan(
                scanned + self.buckets.len() as u64,
                entries + self.len as u64,
            );
        }
        Some(slot)
    }

    /// Minimum-`(time, seq)` slot among the events in physical bucket `b`
    /// that belong to virtual bucket `vb` (i.e. to the cursor's year).
    fn min_in_year(&self, b: usize, vb: i64) -> Option<u32> {
        let mut best: Option<u32> = None;
        for &slot in &self.buckets[b] {
            let e = &self.entries[slot as usize];
            if self.vbucket(e.time) != vb {
                continue;
            }
            let better = match best {
                None => true,
                Some(cur) => {
                    let c = &self.entries[cur as usize];
                    (e.time, e.seq) < (c.time, c.seq)
                }
            };
            if better {
                best = Some(slot);
            }
        }
        best
    }

    fn maybe_shrink(&mut self) {
        if self.buckets.len() > MIN_BUCKETS && self.len * 4 < self.buckets.len() {
            self.rebuild();
        }
    }

    /// Rebuilds the bucket array for the current population: the bucket
    /// count is the next power of two ≥ `len`, and the width is re-fitted
    /// to the earliest live events (see [`fit_width`]). O(len), amortized
    /// over the ≥ len/2 inserts or removals, or the ≥ len expensive pops,
    /// since the last rebuild.
    ///
    /// [`fit_width`]: CalendarQueue::fit_width
    fn rebuild(&mut self) {
        if self.track {
            self.stats.resizes += 1;
        }
        let mut live = Vec::with_capacity(self.len);
        for bucket in &mut self.buckets {
            live.append(bucket);
        }
        debug_assert_eq!(live.len(), self.len);
        self.width = self.fit_width(&mut live);
        let target = self.len.next_power_of_two().max(MIN_BUCKETS);
        self.buckets.resize_with(target, Vec::new);
        for &slot in &live {
            let vb = self.vbucket(self.entries[slot as usize].time);
            let b = self.phys(vb);
            self.entries[slot as usize].bucket = b as u32;
            self.entries[slot as usize].pos = self.buckets[b].len() as u32;
            self.buckets[b].push(slot);
        }
        if let Some(&first) = live.first() {
            self.cursor = self.vbucket(self.entries[first as usize].time);
        }
        self.pops = 0;
        self.compared = 0;
        self.patience = (self.len as u64).max(MIN_PATIENCE);
    }

    /// The bucket width for the live slots in `live`: [`GAPS_PER_BUCKET`]
    /// times the trimmed mean gap between the [`WIDTH_SAMPLE`] earliest,
    /// which it moves to the front of `live` in time order. An equal-time
    /// head falls back to twice the live span per event; a degenerate span
    /// keeps the current width, and a non-finite one gives 1 s. Any positive
    /// width is correct: ordering comes from `(time, seq)`.
    fn fit_width(&self, live: &mut [u32]) -> f64 {
        let time = |slot: &u32| self.entries[*slot as usize].time.as_secs();
        let by_time = |a: &u32, b: &u32| time(a).total_cmp(&time(b));
        let k = live.len().min(WIDTH_SAMPLE);
        if k < live.len() {
            live.select_nth_unstable_by(k, by_time);
        }
        let head = &mut live[..k];
        head.sort_unstable_by(by_time);
        let mut width = 0.0;
        if k >= 2 {
            // The consecutive gaps telescope: their mean is the head's span
            // over k - 1.
            let mean = (time(&head[k - 1]) - time(&head[0])) / (k - 1) as f64;
            let (sum, n) = head
                .windows(2)
                .map(|w| time(&w[1]) - time(&w[0]))
                .filter(|&gap| gap <= 2.0 * mean)
                .fold((0.0, 0u32), |(sum, n), gap| (sum + gap, n + 1));
            width = GAPS_PER_BUCKET * sum / f64::from(n.max(1));
        }
        if !(width.is_finite() && width > 0.0) {
            let (min_t, max_t) = live
                .iter()
                .map(time)
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), t| {
                    (lo.min(t), hi.max(t))
                });
            width = if live.len() >= 2 && max_t > min_t {
                (max_t - min_t) / live.len() as f64 * 2.0
            } else {
                self.width
            };
        }
        if width.is_finite() && width > 0.0 {
            width
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::EventQueue;
    use super::*;

    /// Peeks inside the facade at the calendar backend.
    fn inner<E>(q: &EventQueue<E>) -> &CalendarQueue<E> {
        match &q.backend {
            super::super::Backend::Calendar(c) => c,
            super::super::Backend::Heap(_) => panic!("expected calendar backend"),
        }
    }

    #[test]
    fn slots_are_recycled() {
        let mut q = EventQueue::new();
        for round in 0..10 {
            for i in 0..100 {
                q.schedule(Time::from_secs((round * 100 + i) as f64), i);
            }
            while q.pop().is_some() {}
        }
        // Cancellation/pop frees slots eagerly, so the slab never grows
        // past the maximum concurrent population.
        assert!(
            inner(&q).entries.len() <= 100,
            "slab grew to {}",
            inner(&q).entries.len()
        );
    }

    #[test]
    fn heavy_cancellation_leaves_no_tombstones() {
        // The engine's pattern: far-future events scheduled and almost all
        // cancelled before firing. The calendar queue removes cancelled
        // events physically, so total stored slots == live events.
        let mut q = EventQueue::new();
        for round in 0..1000 {
            let keys: Vec<_> = (0..64)
                .map(|i| q.schedule(Time::from_secs(1e7 + (round * 64 + i) as f64), i))
                .collect();
            for k in &keys[1..] {
                q.cancel(*k);
            }
        }
        assert_eq!(q.len(), 1000);
        let stored: usize = inner(&q).buckets.iter().map(Vec::len).sum();
        assert_eq!(stored, 1000, "cancelled events left residue in buckets");
        // And every surviving event still pops, in order.
        let mut popped = 0;
        let mut last = f64::NEG_INFINITY;
        while let Some((t, _)) = q.pop() {
            assert!(t.as_secs() >= last);
            last = t.as_secs();
            popped += 1;
        }
        assert_eq!(popped, 1000);
    }

    #[test]
    fn bucket_count_tracks_population() {
        let mut q = EventQueue::new();
        let keys: Vec<_> = (0..10_000)
            .map(|i| q.schedule(Time::from_secs(i as f64), i))
            .collect();
        let grown = inner(&q).buckets.len();
        assert!(grown >= 10_000 / 2, "buckets did not grow: {grown}");
        for k in &keys[..9_990] {
            q.cancel(*k);
        }
        let shrunk = inner(&q).buckets.len();
        assert!(
            shrunk <= MIN_BUCKETS * 4,
            "buckets did not shrink: {shrunk}"
        );
        assert_eq!(q.len(), 10);
    }

    #[test]
    fn clustered_times_far_from_origin_stay_ordered() {
        // A tight cluster at a huge offset: width shrinks at rebuild and
        // virtual bucket indices become large; order must survive.
        let mut q = EventQueue::new();
        for i in 0..500 {
            q.schedule(Time::from_secs(1e9 + (i % 50) as f64 * 1e-3), i);
        }
        let mut last = (f64::NEG_INFINITY, 0usize);
        let mut n = 0;
        while let Some((t, i)) = q.pop() {
            assert!(
                (t.as_secs(), i) > last || n == 0,
                "order violated at {t:?}, {i}"
            );
            last = (t.as_secs(), i);
            n += 1;
        }
        assert_eq!(n, 500);
    }

    #[test]
    fn entry_scans_expose_a_crowded_near_term_bucket() {
        // A trace-like population: failures spread over 45 days stretch
        // the width estimate, so the next hour's events share one bucket
        // and every pop compares all of them while visiting one bucket.
        let mut q = CalendarQueue::new();
        q.track = true;
        let day = 86_400.0;
        for i in 0..1000u64 {
            q.schedule(i, Time::from_secs(i as f64 * 45.0 * day / 1000.0), i);
        }
        for i in 0..150u64 {
            q.schedule(1000 + i, Time::from_secs(i as f64 * 24.0), 1000 + i);
        }
        for _ in 0..150 {
            q.pop().expect("live event");
        }
        let stats = q.take_stats();
        let pops = stats.scans_count as f64;
        let buckets = stats.scans_sum as f64 / pops;
        let entries = stats.entries_sum as f64 / pops;
        assert!(buckets < 2.0, "buckets per pop {buckets}");
        assert!(
            entries > 20.0 * buckets,
            "entries per pop {entries} vs buckets per pop {buckets}"
        );
        assert!(stats.entries_max >= 150, "max {}", stats.entries_max);
    }

    /// A fixed xorshift stream of exponential delays with a one-minute
    /// mean: the near-term churn of checkpoint and milestone timers.
    fn minute_delays() -> impl FnMut() -> f64 {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let u = (x >> 11) as f64 / (1u64 << 53) as f64;
            -60.0 * (1.0 - u).ln()
        }
    }

    #[test]
    fn expensive_pops_refit_the_width_to_the_next_events() {
        // The trace-replay shape: 1,000 failures over 45 days queued
        // first fit the width to hours, then 160 timers a minute apart
        // crowd the head bucket. Each popped event re-arms, so the
        // population holds still and every rebuild from here on is
        // cost-triggered.
        let mut q = CalendarQueue::new();
        q.track = true;
        let mut delay = minute_delays();
        let day = 86_400.0;
        let mut seq = 0u64;
        for i in 0..1000 {
            q.schedule(seq, Time::from_secs(i as f64 * 45.0 * day / 1000.0), seq);
            seq += 1;
        }
        for _ in 0..160 {
            q.schedule(seq, Time::from_secs(delay()), seq);
            seq += 1;
        }
        let setup = q.take_stats();
        let width = q.width;
        let mut replay = |q: &mut CalendarQueue<u64>, pops: usize| {
            for _ in 0..pops {
                let (t, _) = q.pop().expect("live event");
                q.schedule(seq, Time::from_secs(t.as_secs() + delay()), seq);
                seq += 1;
            }
            q.take_stats()
        };
        let first = replay(&mut q, 5_000);
        assert!(
            first.resizes >= 1,
            "no cost-triggered rebuild (setup rebuilt {} times)",
            setup.resizes
        );
        assert!(
            q.width < width / 100.0,
            "width {} s from {width} s",
            q.width
        );
        let later = replay(&mut q, 5_000);
        let entries = later.entries_sum as f64 / later.scans_count as f64;
        assert!(entries < 6.0, "entries per pop {entries}");
    }

    #[test]
    fn futile_re_estimates_back_off_geometrically() {
        // An equal-time cluster: every pop compares the whole population
        // and no width can split it. Patience doubles after each futile
        // re-estimate, so 64 × len pops rebuild at most log2(64) + 1 times.
        let mut q = CalendarQueue::new();
        q.track = true;
        let len = 256u64;
        for seq in 0..len {
            q.schedule(seq, Time::from_secs(5.0), seq);
        }
        q.take_stats();
        for seq in len..len + 64 * len {
            let (t, _) = q.pop().expect("live event");
            q.schedule(seq, t, seq);
        }
        let stats = q.take_stats();
        assert!(
            (1..=7).contains(&stats.resizes),
            "{} rebuilds",
            stats.resizes
        );
    }

    #[test]
    fn sparse_events_use_the_global_min_fallback() {
        // Events many "years" apart force the fruitless-round fallback.
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.schedule(Time::from_secs(i as f64 * 1e12), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }
}
