//! The event queue: a priority queue keyed by [`Time`] with deterministic
//! FIFO tie-breaking and O(1) cancellation.
//!
//! Two interchangeable backends live behind the [`EventQueue`] facade:
//!
//! * [`calendar`] — the default: a bucketed calendar queue (Brown 1988)
//!   tuned for the engine's cancel-heavy pattern. Inserts and cancels are
//!   O(1) (cancellation physically removes the event, so no tombstones
//!   accumulate), pops scan one bucket.
//! * [`heap`] — the original `BinaryHeap` + lazy-tombstone implementation,
//!   kept alive as a **test oracle**. Construct it with
//!   [`EventQueue::heap_oracle`]; the differential suites in
//!   `tests/queue_equivalence.rs` and `tests/report_stability.rs` (under
//!   `--features heap-oracle`) assert both backends produce bit-identical
//!   pop sequences and simulation reports.
//!
//! Both backends share the same [`EventKey`] shape and the same ordering
//! contract: events pop in non-decreasing time order, equal timestamps pop
//! in schedule order (FIFO).

mod calendar;
mod heap;

use crate::time::Time;
use calendar::{CalendarQueue, CalendarStats};
use heap::HeapQueue;

/// Handle to a scheduled event, used to cancel it before it fires.
///
/// A key embeds both the event's unique sequence number and its slot in
/// the queue's entry slab, so cancellation is a direct index — no hash
/// lookup. Sequence numbers are never reused, so a stale key held after
/// its event fired (or was cancelled) is harmless: cancelling it is a
/// no-op even if the slot has since been recycled for a newer event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventKey {
    seq: u64,
    slot: u32,
}

impl EventKey {
    /// The raw sequence number backing this key (monotone in schedule order).
    pub fn raw(self) -> u64 {
        self.seq
    }
}

/// Error returned when scheduling at a non-finite time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleError;

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "event time must be finite (got NaN or infinity)")
    }
}

impl std::error::Error for ScheduleError {}

enum Backend<E> {
    Calendar(CalendarQueue<E>),
    Heap(HeapQueue<E>),
}

/// A future-event list with deterministic ordering and O(1) cancellation.
///
/// Events of type `E` are scheduled at absolute [`Time`]s. [`pop`] returns
/// them in non-decreasing time order; events with identical timestamps pop
/// in the order they were scheduled (FIFO), which makes simulations
/// reproducible.
///
/// [`new`] and [`with_capacity`] construct the default calendar-queue
/// backend; [`heap_oracle`] constructs the original binary-heap
/// implementation for differential testing. The two are observably
/// identical — same pop order, same cancel semantics, same key behavior.
///
/// [`pop`]: EventQueue::pop
/// [`new`]: EventQueue::new
/// [`with_capacity`]: EventQueue::with_capacity
/// [`heap_oracle`]: EventQueue::heap_oracle
pub struct EventQueue<E> {
    backend: Backend<E>,
    /// Next sequence number (ties broken FIFO by this; shared across
    /// backends so keys behave identically on both).
    next_seq: u64,
    /// Telemetry tallies as plain integers — the hot path never touches
    /// an atomic; [`flush_telemetry`] publishes and resets them.
    ///
    /// [`flush_telemetry`]: EventQueue::flush_telemetry
    inserts: u64,
    cancels: u64,
    pops: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue (calendar backend).
    pub fn new() -> Self {
        Self::from_backend(Backend::Calendar(CalendarQueue::new()))
    }

    /// Creates an empty queue with room for `cap` events (calendar backend).
    pub fn with_capacity(cap: usize) -> Self {
        Self::from_backend(Backend::Calendar(CalendarQueue::with_capacity(cap)))
    }

    /// Creates an empty queue backed by the original binary-heap
    /// implementation — the differential-test oracle.
    pub fn heap_oracle() -> Self {
        Self::from_backend(Backend::Heap(HeapQueue::new()))
    }

    fn from_backend(backend: Backend<E>) -> Self {
        EventQueue {
            backend,
            next_seq: 0,
            inserts: 0,
            cancels: 0,
            pops: 0,
        }
    }

    /// True when this queue runs on the heap-oracle backend.
    pub fn is_heap_oracle(&self) -> bool {
        matches!(self.backend, Backend::Heap(_))
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Calendar(q) => q.len(),
            Backend::Heap(q) => q.len(),
        }
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `payload` to fire at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN or infinite. Use [`try_schedule`] for a
    /// non-panicking variant.
    ///
    /// [`try_schedule`]: EventQueue::try_schedule
    pub fn schedule(&mut self, time: Time, payload: E) -> EventKey {
        self.try_schedule(time, payload)
            .expect("event time must be finite")
    }

    /// Schedules `payload` at `time`, returning an error for non-finite times.
    pub fn try_schedule(&mut self, time: Time, payload: E) -> Result<EventKey, ScheduleError> {
        if !time.is_finite() {
            return Err(ScheduleError);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match &mut self.backend {
            Backend::Calendar(q) => q.schedule(seq, time, payload),
            Backend::Heap(q) => q.schedule(seq, time, payload),
        };
        self.inserts += 1;
        Ok(EventKey { seq, slot })
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns the payload if the event was still pending; `None` if it had
    /// already fired or been cancelled (stale keys are harmless). On the
    /// calendar backend the event is physically removed — no tombstone.
    pub fn cancel(&mut self, key: EventKey) -> Option<E> {
        let cancelled = match &mut self.backend {
            Backend::Calendar(q) => q.cancel(key),
            Backend::Heap(q) => q.cancel(key),
        };
        if cancelled.is_some() {
            self.cancels += 1;
        }
        cancelled
    }

    /// The time of the next pending event, if any.
    pub fn peek_time(&mut self) -> Option<Time> {
        match &mut self.backend {
            Backend::Calendar(q) => q.peek_time(),
            Backend::Heap(q) => q.peek_time(),
        }
    }

    /// Removes and returns the next pending event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let popped = match &mut self.backend {
            Backend::Calendar(q) => q.pop(),
            Backend::Heap(q) => q.pop(),
        };
        if popped.is_some() {
            self.pops += 1;
        }
        popped
    }

    /// Publishes the queue's accumulated telemetry into [`coopckpt_obs`]
    /// and resets the tallies. The hot path only bumps plain integers;
    /// this is the single point where they become obs counters and
    /// histograms — the engine calls it once per replay, so the disabled
    /// path costs nothing measurable.
    pub fn flush_telemetry(&mut self) {
        let inserts = std::mem::take(&mut self.inserts);
        let cancels = std::mem::take(&mut self.cancels);
        let pops = std::mem::take(&mut self.pops);
        let cal = match &mut self.backend {
            Backend::Calendar(q) => q.take_stats(),
            Backend::Heap(_) => CalendarStats::default(),
        };
        if !coopckpt_obs::enabled() {
            return;
        }
        use coopckpt_obs::{Counter, Hist};
        coopckpt_obs::count(Counter::QueueInserts, inserts);
        coopckpt_obs::count(Counter::QueueCancels, cancels);
        coopckpt_obs::count(Counter::QueuePops, pops);
        coopckpt_obs::count(Counter::QueueResizes, cal.resizes);
        coopckpt_obs::observe_batch(
            Hist::QueueBucketScans,
            cal.scans_count,
            cal.scans_sum,
            cal.scans_max,
        );
        coopckpt_obs::observe_batch(
            Hist::QueueBucketOccupancy,
            cal.occ_count,
            cal.occ_sum,
            cal.occ_max,
        );
        coopckpt_obs::observe_batch(
            Hist::QueueEntryScans,
            cal.scans_count,
            cal.entries_sum,
            cal.entries_max,
        );
    }

    /// Discards every pending event. Keys stay unique: sequence numbers
    /// keep counting up, so keys issued before the clear remain harmless.
    pub fn clear(&mut self) {
        match &mut self.backend {
            Backend::Calendar(q) => q.clear(),
            Backend::Heap(q) => q.clear(),
        }
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let backend = match &self.backend {
            Backend::Calendar(_) => "calendar",
            Backend::Heap(_) => "heap-oracle",
        };
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .field("backend", &backend)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both backends, so every shared-behavior test runs on each.
    fn both<E>() -> [EventQueue<E>; 2] {
        [EventQueue::new(), EventQueue::heap_oracle()]
    }

    #[test]
    fn pops_in_time_order() {
        for mut q in both() {
            q.schedule(Time::from_secs(3.0), 'c');
            q.schedule(Time::from_secs(1.0), 'a');
            q.schedule(Time::from_secs(2.0), 'b');
            let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(order, vec!['a', 'b', 'c'], "{q:?}");
        }
    }

    #[test]
    fn equal_times_pop_fifo() {
        for mut q in both() {
            let t = Time::from_secs(5.0);
            for i in 0..100 {
                q.schedule(t, i);
            }
            let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>(), "{q:?}");
        }
    }

    #[test]
    fn cancel_removes_event() {
        for mut q in both() {
            let k1 = q.schedule(Time::from_secs(1.0), "one");
            q.schedule(Time::from_secs(2.0), "two");
            assert_eq!(q.len(), 2);
            assert_eq!(q.cancel(k1), Some("one"));
            assert_eq!(q.len(), 1);
            assert_eq!(q.pop().map(|(_, e)| e), Some("two"));
            assert!(q.pop().is_none());
        }
    }

    #[test]
    fn cancel_is_idempotent_and_stale_keys_are_safe() {
        for mut q in both() {
            let k = q.schedule(Time::from_secs(1.0), 7u32);
            assert_eq!(q.cancel(k), Some(7));
            assert_eq!(q.cancel(k), None);
            // Key of an already-popped event.
            let k2 = q.schedule(Time::from_secs(1.0), 8u32);
            assert!(q.pop().is_some());
            assert_eq!(q.cancel(k2), None);
            // Key whose slot has been recycled for a newer event: the seq
            // mismatch makes the stale key a no-op and leaves the new
            // event untouched.
            let k3 = q.schedule(Time::from_secs(3.0), 9u32);
            q.cancel(k3);
            let k4 = q.schedule(Time::from_secs(4.0), 10u32);
            assert_eq!(q.cancel(k3), None);
            assert_eq!(q.len(), 1);
            assert_eq!(q.cancel(k4), Some(10));
        }
    }

    #[test]
    fn peek_time_skips_cancelled() {
        for mut q in both() {
            let k = q.schedule(Time::from_secs(1.0), 1);
            q.schedule(Time::from_secs(2.0), 2);
            q.cancel(k);
            assert_eq!(q.peek_time(), Some(Time::from_secs(2.0)), "{q:?}");
        }
    }

    #[test]
    fn rejects_non_finite_times() {
        for mut q in both::<()>() {
            assert!(q.try_schedule(Time::from_secs(f64::NAN), ()).is_err());
            assert!(q.try_schedule(Time::INFINITY, ()).is_err());
            assert!(q.try_schedule(Time::from_secs(0.0), ()).is_ok());
        }
    }

    #[test]
    fn len_tracks_cancellations() {
        for mut q in both() {
            let keys: Vec<_> = (0..10)
                .map(|i| q.schedule(Time::from_secs(i as f64), i))
                .collect();
            assert_eq!(q.len(), 10);
            for k in &keys[..5] {
                q.cancel(*k);
            }
            assert_eq!(q.len(), 5);
            assert!(!q.is_empty());
            let mut n = 0;
            while q.pop().is_some() {
                n += 1;
            }
            assert_eq!(n, 5);
            assert!(q.is_empty());
        }
    }

    #[test]
    fn clear_empties_everything() {
        for mut q in both() {
            q.schedule(Time::from_secs(1.0), 1);
            q.schedule(Time::from_secs(2.0), 2);
            q.clear();
            assert!(q.is_empty());
            assert!(q.pop().is_none());
            // Still usable after a clear.
            q.schedule(Time::from_secs(3.0), 3);
            assert_eq!(q.pop().map(|(_, e)| e), Some(3));
        }
    }

    #[test]
    fn interleaved_schedule_pop_preserves_order() {
        for mut q in both() {
            q.schedule(Time::from_secs(10.0), 10);
            q.schedule(Time::from_secs(1.0), 1);
            assert_eq!(q.pop().map(|(_, e)| e), Some(1));
            q.schedule(Time::from_secs(5.0), 5);
            q.schedule(Time::from_secs(2.0), 2);
            assert_eq!(q.pop().map(|(_, e)| e), Some(2));
            assert_eq!(q.pop().map(|(_, e)| e), Some(5));
            assert_eq!(q.pop().map(|(_, e)| e), Some(10));
        }
    }

    #[test]
    fn scheduling_before_a_popped_time_still_pops_in_order() {
        // The generic API allows scheduling earlier than the last popped
        // event; the calendar cursor must rewind.
        for mut q in both() {
            q.schedule(Time::from_secs(100.0), 100);
            assert_eq!(q.pop().map(|(_, e)| e), Some(100));
            q.schedule(Time::from_secs(1.0), 1);
            q.schedule(Time::from_secs(50.0), 50);
            assert_eq!(q.pop().map(|(_, e)| e), Some(1));
            assert_eq!(q.pop().map(|(_, e)| e), Some(50));
        }
    }

    #[test]
    fn negative_times_are_ordered_correctly() {
        for mut q in both() {
            q.schedule(Time::from_secs(2.0), 2);
            q.schedule(Time::from_secs(-5.0), -5);
            q.schedule(Time::from_secs(0.0), 0);
            q.schedule(Time::from_secs(-1.5), -1);
            let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            assert_eq!(order, vec![-5, -1, 0, 2], "{q:?}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn both<E>() -> [EventQueue<E>; 2] {
        [EventQueue::new(), EventQueue::heap_oracle()]
    }

    proptest! {
        /// Events always pop in non-decreasing time order, with FIFO ties,
        /// regardless of insertion order — on both backends.
        #[test]
        fn pop_order_is_sorted_stable(times in proptest::collection::vec(0.0f64..1e6, 1..200)) {
            for mut q in both() {
                for (i, &t) in times.iter().enumerate() {
                    q.schedule(Time::from_secs(t), i);
                }
                let mut last_time = f64::NEG_INFINITY;
                let mut last_seq_at_time: Option<usize> = None;
                while let Some((t, idx)) = q.pop() {
                    prop_assert!(t.as_secs() >= last_time);
                    if t.as_secs() == last_time {
                        if let Some(prev) = last_seq_at_time {
                            prop_assert!(idx > prev, "FIFO violated at t={}", t);
                        }
                    } else {
                        last_time = t.as_secs();
                    }
                    last_seq_at_time = Some(idx);
                }
            }
        }

        /// Cancelling an arbitrary subset leaves exactly the complement, in order.
        #[test]
        fn cancel_subset(
            times in proptest::collection::vec(0.0f64..1e4, 1..100),
            mask in proptest::collection::vec(proptest::bool::ANY, 100),
        ) {
            for mut q in both() {
                let keys: Vec<(EventKey, usize)> = times
                    .iter()
                    .enumerate()
                    .map(|(i, &t)| (q.schedule(Time::from_secs(t), i), i))
                    .collect();
                let mut expect: Vec<(f64, usize)> = Vec::new();
                for (i, (key, idx)) in keys.iter().enumerate() {
                    if mask[i % mask.len()] {
                        q.cancel(*key);
                    } else {
                        expect.push((times[*idx], *idx));
                    }
                }
                expect.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                let got: Vec<(f64, usize)> =
                    std::iter::from_fn(|| q.pop().map(|(t, i)| (t.as_secs(), i))).collect();
                prop_assert_eq!(got, expect);
            }
        }

        /// len() is always consistent with the number of pops remaining.
        #[test]
        fn len_matches_drain(times in proptest::collection::vec(0.0f64..100.0, 0..50)) {
            for mut q in both() {
                for (i, &t) in times.iter().enumerate() {
                    q.schedule(Time::from_secs(t), i);
                }
                let mut remaining = q.len();
                prop_assert_eq!(remaining, times.len());
                while q.pop().is_some() {
                    remaining -= 1;
                    prop_assert_eq!(q.len(), remaining);
                }
                prop_assert_eq!(q.len(), 0);
            }
        }
    }
}
