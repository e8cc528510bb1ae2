//! The original `BinaryHeap` implementation of the event queue, retained
//! verbatim (lazy tombstones, compaction sweep, seq→slot side index) as
//! the **differential-test oracle** for the calendar backend.
//!
//! It is deliberately *not* modernised: the point of an oracle is to be
//! the independently-trusted reference, so its structure — including the
//! hash-map cancellation index the calendar queue exists to eliminate —
//! matches the pre-calendar implementation. Construct it through
//! [`EventQueue::heap_oracle`]. It is also the yardstick of the
//! workspace's same-run performance gates (`tests/perf_gates.rs`): the
//! calendar queue is timed against it on the same schedules.
//!
//! Cancellation tombstones whose timestamps lie far in the future would
//! sit in the heap indefinitely (the engine's dominant pattern:
//! checkpoint-due and milestone events are almost always cancelled and
//! re-armed before they fire), so when dead items come to outnumber live
//! ones — more than half the heap — the heap is rebuilt from the live
//! items: an O(n) sweep amortized over the ≥ n/2 cancellations that
//! caused it. This compaction threshold lives *only here* now; the
//! calendar backend removes cancelled events physically and has no
//! tombstones to sweep.
//!
//! [`EventQueue::heap_oracle`]: super::EventQueue::heap_oracle

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::collections::HashMap;

use super::EventKey;
use crate::time::Time;

/// Below this heap size the tombstone sweep is not worth the rebuild.
const COMPACT_MIN_HEAP: usize = 64;

struct Entry<E> {
    seq: u64,
    payload: Option<E>,
    cancelled: bool,
}

/// Min-heap wrapper: `BinaryHeap` is a max-heap, so comparisons are reversed.
struct HeapItem {
    time: Time,
    seq: u64,
    /// Index into the entry slab.
    slot: u32,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for HeapItem {}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: earliest time first; among equal times, lowest seq first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

pub(super) struct HeapQueue<E> {
    heap: BinaryHeap<HeapItem>,
    entries: Vec<Entry<E>>,
    /// Free slots in `entries` available for reuse.
    free: Vec<u32>,
    /// Map from seq to slot for cancellation — the per-event hash lookup
    /// the calendar backend replaces with slot-embedded keys.
    live: HashMap<u64, u32>,
    /// Number of scheduled-but-not-yet-popped, non-cancelled events.
    len: usize,
}

impl<E> HeapQueue<E> {
    pub(super) fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            entries: Vec::new(),
            free: Vec::new(),
            live: HashMap::new(),
            len: 0,
        }
    }

    pub(super) fn len(&self) -> usize {
        self.len
    }

    pub(super) fn schedule(&mut self, seq: u64, time: Time, payload: E) -> u32 {
        let entry = Entry {
            seq,
            payload: Some(payload),
            cancelled: false,
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
        self.heap.push(HeapItem { time, seq, slot });
        self.live.insert(seq, slot);
        self.len += 1;
        slot
    }

    pub(super) fn cancel(&mut self, key: EventKey) -> Option<E> {
        let slot = self.live.remove(&key.seq)?;
        let entry = &mut self.entries[slot as usize];
        debug_assert_eq!(entry.seq, key.seq);
        entry.cancelled = true;
        self.len -= 1;
        let payload = entry.payload.take();
        // Lazy-deletion sweep: when tombstones outnumber live events
        // (and the heap is big enough for the rebuild to pay off),
        // rebuild the heap from the live items.
        if self.heap.len() >= COMPACT_MIN_HEAP && self.heap.len() - self.len > self.heap.len() / 2 {
            self.compact();
        }
        payload
    }

    /// Rebuilds the heap from its live items, dropping every tombstone and
    /// recycling their slots. O(n); triggered by [`cancel`](Self::cancel)
    /// only after at least `n/2` cancellations accumulated, so the
    /// amortized cost per cancellation stays O(1) (plus the O(log n) heap
    /// rebuild share).
    fn compact(&mut self) {
        let mut live_items = Vec::with_capacity(self.len);
        for item in self.heap.drain() {
            let entry = &self.entries[item.slot as usize];
            if entry.seq == item.seq && !entry.cancelled {
                live_items.push(item);
            } else if entry.seq == item.seq {
                // Tombstone for exactly this event: recycle the slot. A
                // mismatched seq means the slot already hosts a newer
                // event; that newer event owns it, so leave it alone.
                self.free.push(item.slot);
            }
        }
        debug_assert_eq!(live_items.len(), self.len);
        self.heap = BinaryHeap::from(live_items);
    }

    pub(super) fn peek_time(&mut self) -> Option<Time> {
        self.skip_cancelled();
        self.heap.peek().map(|item| item.time)
    }

    pub(super) fn pop(&mut self) -> Option<(Time, E)> {
        loop {
            let item = self.heap.pop()?;
            let entry = &mut self.entries[item.slot as usize];
            // A slot may have been recycled for a newer event; the seq check
            // distinguishes "this heap item points at a tombstone" from
            // "this slot now holds someone else".
            if entry.seq != item.seq || entry.cancelled {
                if entry.seq == item.seq {
                    // Tombstone for exactly this event: recycle the slot.
                    self.free.push(item.slot);
                }
                continue;
            }
            let payload = entry
                .payload
                .take()
                .expect("live entry must hold a payload");
            self.live.remove(&item.seq);
            self.free.push(item.slot);
            self.len -= 1;
            return Some((item.time, payload));
        }
    }

    pub(super) fn clear(&mut self) {
        self.heap.clear();
        self.entries.clear();
        self.free.clear();
        self.live.clear();
        self.len = 0;
    }

    /// Drops cancelled items sitting at the top of the heap so `peek_time`
    /// reports the next *live* event.
    fn skip_cancelled(&mut self) {
        while let Some(item) = self.heap.peek() {
            let entry = &self.entries[item.slot as usize];
            if entry.seq == item.seq && !entry.cancelled {
                return;
            }
            let item = self.heap.pop().expect("peeked item must pop");
            if self.entries[item.slot as usize].seq == item.seq {
                self.free.push(item.slot);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::EventQueue;
    use super::*;

    /// Peeks inside the facade at the heap backend.
    fn inner<E>(q: &EventQueue<E>) -> &HeapQueue<E> {
        match &q.backend {
            super::super::Backend::Heap(h) => h,
            super::super::Backend::Calendar(_) => panic!("expected heap backend"),
        }
    }

    #[test]
    fn slots_are_recycled() {
        let mut q = EventQueue::heap_oracle();
        for round in 0..10 {
            for i in 0..100 {
                q.schedule(Time::from_secs((round * 100 + i) as f64), i);
            }
            while q.pop().is_some() {}
        }
        // After draining, the slab should not have grown past one round's worth
        // (plus the heap's lazily recycled tombstones).
        assert!(
            inner(&q).entries.len() <= 200,
            "slab grew to {}",
            inner(&q).entries.len()
        );
    }

    #[test]
    fn heavy_cancellation_compacts_the_heap() {
        // The engine's pattern: far-future events scheduled and almost all
        // cancelled before firing. The lazy-deletion sweep must keep the
        // heap proportional to the *live* events, not the tombstones.
        let mut q = EventQueue::heap_oracle();
        for round in 0..1000 {
            let keys: Vec<_> = (0..64)
                .map(|i| q.schedule(Time::from_secs(1e7 + (round * 64 + i) as f64), i))
                .collect();
            for k in &keys[1..] {
                q.cancel(*k);
            }
        }
        assert_eq!(q.len(), 1000);
        assert!(
            inner(&q).heap.len() <= 2 * q.len().max(COMPACT_MIN_HEAP),
            "heap holds {} items for {} live events — tombstones not swept",
            inner(&q).heap.len(),
            q.len()
        );
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
    fn compaction_preserves_order_and_stale_keys() {
        let mut q = EventQueue::heap_oracle();
        // Interleave: schedule a batch, cancel most, keep handles to the
        // survivors and cancel *them* after compaction has run.
        let mut survivors = Vec::new();
        for round in 0..50 {
            let keys: Vec<_> = (0..32)
                .map(|i| q.schedule(Time::from_secs((round * 32 + i) as f64), round * 32 + i))
                .collect();
            for (i, k) in keys.iter().enumerate() {
                if i == 0 {
                    survivors.push(*k);
                } else {
                    q.cancel(*k);
                }
            }
        }
        // Cancelling survivors after sweeps is still correct, and stale
        // keys of swept tombstones stay harmless.
        assert!(q.cancel(survivors[10]).is_some());
        assert!(q.cancel(survivors[10]).is_none());
        let got: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        let expect: Vec<usize> = (0..50).filter(|r| *r != 10).map(|r| r * 32).collect();
        assert_eq!(got, expect);
    }
}
