//! The node pool: who occupies which node.

/// Identifier of one allocation (a job's set of nodes).
///
/// An id pairs a sequence number with a slot. The sequence number counts
/// successful allocations from 0 and is never reused. The slot is the
/// allocation's index in the pool's allocation slab, and a released
/// allocation's slot is reused by a later one, so the slab and any
/// per-allocation vector indexed by [`slot`](AllocId::slot) stay as long
/// as the peak number of live allocations, not the number ever issued. A
/// released id stays dead after its slot is reused: its sequence number no
/// longer matches the slot's. The pair packs into 8 bytes because the pool
/// stores one id per allocated node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AllocId {
    seq: u32,
    slot: u32,
}

const _: () = assert!(std::mem::size_of::<AllocId>() == 8);

impl AllocId {
    /// The allocation's slot in the pool's slab, shared with earlier,
    /// released allocations.
    pub fn slot(self) -> usize {
        self.slot as usize
    }
}

/// One entry of the allocation slab: the `(word, mask)` pairs of the
/// allocation whose sequence number is `seq`, in word order; empty once
/// it is released (an allocation takes at least one node).
#[derive(Debug, Clone)]
struct Slot {
    seq: u32,
    words: Vec<(usize, u64)>,
}

/// Tracks the occupancy of the platform's nodes.
///
/// Nodes are indexed `0..nodes`. Allocation hands out the lowest-numbered
/// free nodes (deterministic, and irrelevant to the model since nodes are
/// interchangeable — the index only matters to map a failing node to its
/// victim).
///
/// The pool works on its free-node bitset a word (64 nodes) at a time. An
/// allocation is stored as the `(word, mask)` pairs it took, so a release
/// ORs its masks back, and an allocation takes each wholly free word with
/// one mask operation: only its last, partly taken word is walked bit by
/// bit. A failed ~2300-node Cielo job is freed and re-placed ~36 words at
/// a time, not node by node.
#[derive(Debug, Clone)]
pub struct NodePool {
    /// Occupant of each node, valid only while the node's free bit is
    /// clear: allocation writes it, release leaves it stale.
    owner: Vec<AllocId>,
    /// Free-node bitset: bit `n % 64` of word `n / 64` is set iff node
    /// `n` is free (bits past the last node stay clear). Scanning words
    /// low-to-high keeps allocation deterministic, lowest index first.
    free_bits: Vec<u64>,
    /// Number of set bits in `free_bits`.
    free_count: usize,
    /// Lowest word of `free_bits` that may contain a set bit (scan hint;
    /// every word below it is known-empty).
    first_maybe_free: usize,
    /// Allocation slab, indexed by [`AllocId::slot`]. Released slots
    /// keep their word vector's capacity for the next occupant.
    allocs: Vec<Slot>,
    /// Released slots, reused last-in first-out.
    free_slots: Vec<u32>,
    next_seq: u32,
}

impl NodePool {
    /// Creates a pool of `nodes` free nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0, "pool must have at least one node");
        let words = nodes.div_ceil(64);
        let mut free_bits = vec![!0u64; words];
        if nodes % 64 != 0 {
            free_bits[words - 1] = (1u64 << (nodes % 64)) - 1;
        }
        NodePool {
            owner: vec![AllocId { seq: 0, slot: 0 }; nodes],
            free_bits,
            free_count: nodes,
            first_maybe_free: 0,
            allocs: Vec::new(),
            free_slots: Vec::new(),
            next_seq: 0,
        }
    }

    /// Total number of nodes.
    pub fn total(&self) -> usize {
        self.owner.len()
    }

    /// Number of free nodes.
    pub fn free_count(&self) -> usize {
        self.free_count
    }

    /// Number of allocated nodes.
    pub fn allocated_count(&self) -> usize {
        self.total() - self.free_count()
    }

    /// Fraction of nodes allocated, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        self.allocated_count() as f64 / self.total() as f64
    }

    /// Allocates `q` nodes (the `q` lowest-indexed free ones), or returns
    /// `None` if fewer are free.
    ///
    /// # Panics
    ///
    /// Panics when `q` is zero, or once the 32-bit sequence numbers run
    /// out (about 4.3 billion allocations; the engine's event budget ends
    /// an instance long before).
    pub fn allocate(&mut self, q: usize) -> Option<AllocId> {
        assert!(q > 0, "allocation must request at least one node");
        if q > self.free_count {
            return None;
        }
        let seq = self.next_seq;
        self.next_seq = seq
            .checked_add(1)
            .expect("allocation sequence numbers exhausted");
        let slot = self.free_slots.pop().unwrap_or_else(|| {
            self.allocs.push(Slot {
                seq,
                words: Vec::new(),
            });
            (self.allocs.len() - 1) as u32
        });
        let id = AllocId { seq, slot };
        let mut words = std::mem::take(&mut self.allocs[id.slot()].words);
        // Exact when the free nodes are contiguous; a hint otherwise.
        words.reserve(q.div_ceil(64) + 1);
        let mut need = q;
        let start_w = self.first_maybe_free;
        let mut w = start_w;
        loop {
            debug_assert!(w < self.free_bits.len(), "free_count overstated");
            let bits = self.free_bits[w];
            if bits != 0 {
                let avail = bits.count_ones() as usize;
                let taken = if avail <= need {
                    bits
                } else {
                    lowest_set_bits(bits, need)
                };
                debug_assert_eq!(taken & !bits, 0, "assigned a node that was not free");
                self.free_bits[w] = bits & !taken;
                self.set_owner(w, taken, id);
                words.push((w, taken));
                need -= avail.min(need);
                if need == 0 {
                    break;
                }
            }
            w += 1;
        }
        // Every word below `w` was drained (or was already empty).
        self.first_maybe_free = w;
        coopckpt_obs::observe(coopckpt_obs::Hist::PoolScanWords, (w - start_w + 1) as u64);
        self.free_count -= q;
        self.allocs[id.slot()] = Slot { seq, words };
        Some(id)
    }

    /// Records `id` as the occupant of the nodes in `mask` of word `w`,
    /// one slice fill per run of consecutive nodes.
    fn set_owner(&mut self, w: usize, mask: u64, id: AllocId) {
        let mut m = mask;
        while m != 0 {
            let lo = m.trailing_zeros() as usize;
            let len = (m >> lo).trailing_ones() as usize;
            self.owner[w * 64 + lo..][..len].fill(id);
            // Adding the lowest set bit carries through (clears) its run.
            m &= m.wrapping_add(m & m.wrapping_neg());
        }
    }

    /// The `(word, mask)` pairs of a live allocation.
    fn words_of(&self, id: AllocId) -> Option<&[(usize, u64)]> {
        let slot = self.allocs.get(id.slot())?;
        (slot.seq == id.seq && !slot.words.is_empty()).then_some(&slot.words[..])
    }

    /// Releases an allocation, freeing its nodes and its slot. Returns the
    /// number of nodes freed, or `None` if the id is not live (already
    /// released, even when its slot now holds a newer allocation).
    pub fn release(&mut self, id: AllocId) -> Option<usize> {
        self.words_of(id)?;
        let mut words = std::mem::take(&mut self.allocs[id.slot()].words);
        let mut freed = 0;
        for &(w, mask) in &words {
            debug_assert_eq!(self.free_bits[w] & mask, 0, "released a node that was free");
            self.free_bits[w] |= mask;
            freed += mask.count_ones() as usize;
        }
        // Words are stored in ascending order, and never empty.
        self.first_maybe_free = self.first_maybe_free.min(words[0].0);
        self.free_count += freed;
        words.clear();
        self.allocs[id.slot()].words = words;
        self.free_slots.push(id.slot);
        Some(freed)
    }

    /// The allocation occupying `node`, if any.
    ///
    /// # Panics
    ///
    /// Panics when `node` is out of range.
    pub fn occupant(&self, node: usize) -> Option<AllocId> {
        let owner = self.owner[node];
        (self.free_bits[node / 64] >> (node % 64) & 1 == 0).then_some(owner)
    }

    /// The nodes of a live allocation, in ascending order.
    pub fn nodes_of(&self, id: AllocId) -> Option<Vec<usize>> {
        let words = self.words_of(id)?;
        let mut nodes = Vec::new();
        for &(w, mut mask) in words {
            while mask != 0 {
                nodes.push(w * 64 + mask.trailing_zeros() as usize);
                mask &= mask - 1;
            }
        }
        Some(nodes)
    }

    /// Number of live allocations.
    pub fn live_allocations(&self) -> usize {
        self.allocs.len() - self.free_slots.len()
    }
}

/// The lowest `k` set bits of `bits`, which has more than `k` set.
fn lowest_set_bits(bits: u64, k: usize) -> u64 {
    let mut rest = bits;
    for _ in 0..k {
        rest &= rest - 1;
    }
    bits ^ rest
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_and_release_roundtrip() {
        let mut pool = NodePool::new(10);
        let a = pool.allocate(4).unwrap();
        assert_eq!(pool.free_count(), 6);
        assert_eq!(pool.allocated_count(), 4);
        assert_eq!(pool.nodes_of(a).unwrap().len(), 4);
        assert_eq!(pool.release(a), Some(4));
        assert_eq!(pool.free_count(), 10);
        assert!(pool.release(a).is_none(), "double release is a no-op");
    }

    #[test]
    fn refuses_oversized_requests() {
        let mut pool = NodePool::new(5);
        assert!(pool.allocate(6).is_none());
        let _a = pool.allocate(3).unwrap();
        assert!(pool.allocate(3).is_none());
        assert!(pool.allocate(2).is_some());
        assert_eq!(pool.free_count(), 0);
    }

    #[test]
    fn occupant_lookup() {
        let mut pool = NodePool::new(8);
        let a = pool.allocate(3).unwrap();
        let b = pool.allocate(2).unwrap();
        for n in 0..8 {
            let occ = pool.occupant(n);
            if pool.nodes_of(a).unwrap().contains(&n) {
                assert_eq!(occ, Some(a));
            } else if pool.nodes_of(b).unwrap().contains(&n) {
                assert_eq!(occ, Some(b));
            } else {
                assert_eq!(occ, None);
            }
        }
    }

    #[test]
    fn lowest_nodes_allocated_first() {
        let mut pool = NodePool::new(10);
        let a = pool.allocate(3).unwrap();
        assert_eq!(pool.nodes_of(a).unwrap(), &[0, 1, 2]);
        let b = pool.allocate(2).unwrap();
        assert_eq!(pool.nodes_of(b).unwrap(), &[3, 4]);
        pool.release(a);
        let c = pool.allocate(4).unwrap();
        assert_eq!(pool.nodes_of(c).unwrap(), &[0, 1, 2, 5]);
    }

    #[test]
    fn utilization_fraction() {
        let mut pool = NodePool::new(100);
        assert_eq!(pool.utilization(), 0.0);
        pool.allocate(25).unwrap();
        assert!((pool.utilization() - 0.25).abs() < 1e-12);
        pool.allocate(75).unwrap();
        assert_eq!(pool.utilization(), 1.0);
    }

    #[test]
    fn released_ids_stay_dead_when_their_slot_is_reused() {
        let mut pool = NodePool::new(10);
        let a = pool.allocate(4).unwrap();
        pool.release(a);
        let b = pool.allocate(2).unwrap();
        assert_eq!((a.seq, b.seq), (0, 1));
        assert_eq!(b.slot(), a.slot(), "the released slot is reused");
        assert!(pool.release(a).is_none());
        assert!(pool.nodes_of(a).is_none());
        assert_eq!(pool.nodes_of(b).unwrap(), &[0, 1]);
        assert_eq!(pool.occupant(0), Some(b));
        assert_eq!(pool.release(b), Some(2));
    }

    #[test]
    fn live_allocation_count() {
        let mut pool = NodePool::new(10);
        let a = pool.allocate(1).unwrap();
        let _b = pool.allocate(1).unwrap();
        assert_eq!(pool.live_allocations(), 2);
        pool.release(a);
        assert_eq!(pool.live_allocations(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_size_pool_rejected() {
        NodePool::new(0);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_node_request_rejected() {
        NodePool::new(4).allocate(0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The pool's contract, one node at a time: an allocation takes the
    /// `q` lowest-indexed free nodes (or is refused when fewer are free),
    /// every node has at most one owner, and ids count successful
    /// allocations from 0. The differential test holds [`NodePool`] to it.
    struct Model {
        owner: Vec<Option<u32>>,
        next_id: u32,
    }

    impl Model {
        fn new(nodes: usize) -> Self {
            Model {
                owner: vec![None; nodes],
                next_id: 0,
            }
        }

        fn free_count(&self) -> usize {
            self.owner.iter().filter(|o| o.is_none()).count()
        }

        fn allocate(&mut self, q: usize) -> Option<u32> {
            let free: Vec<usize> = (0..self.owner.len())
                .filter(|&n| self.owner[n].is_none())
                .take(q)
                .collect();
            if free.len() < q {
                return None;
            }
            let id = self.next_id;
            self.next_id += 1;
            for n in free {
                self.owner[n] = Some(id);
            }
            Some(id)
        }

        fn release(&mut self, id: u32) -> usize {
            let mut freed = 0;
            for o in self.owner.iter_mut().filter(|o| **o == Some(id)) {
                *o = None;
                freed += 1;
            }
            freed
        }

        fn nodes_of(&self, id: u32) -> Vec<usize> {
            (0..self.owner.len())
                .filter(|&n| self.owner[n] == Some(id))
                .collect()
        }
    }

    /// Pool sizes on both sides of word boundaries, plus Cielo's.
    const SIZES: [usize; 5] = [1, 63, 65, 200, 8944];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Differential test against [`Model`]: random allocations (from
        /// one node to the whole pool, plus requests beyond the free
        /// count) and releases in random order. After every step each live
        /// allocation holds exactly the model's nodes, every node has the
        /// model's occupant, and the free counts agree. Every released id
        /// stays dead once later allocations reuse its slot, and the slab
        /// never holds more slots than the peak number of live
        /// allocations.
        #[test]
        fn conservation_under_random_ops(
            size in 0usize..SIZES.len(),
            ops in proptest::collection::vec((0u8..6, 0usize..usize::MAX, 0u32..14), 1..60),
        ) {
            let nodes = SIZES[size];
            let mut pool = NodePool::new(nodes);
            let mut model = Model::new(nodes);
            let mut live: Vec<AllocId> = Vec::new();
            let mut released: Vec<AllocId> = Vec::new();
            let mut peak_live = 0;
            for (kind, draw, shift) in ops {
                if kind < 2 && !live.is_empty() {
                    let id = live.swap_remove(draw % live.len());
                    let freed = model.release(id.seq);
                    prop_assert_eq!(pool.release(id), Some(freed));
                    prop_assert!(pool.release(id).is_none(), "double release is a no-op");
                    released.push(id);
                } else {
                    let q = match kind {
                        2 => model.free_count() + 1 + draw % 3,
                        3 if draw % 2 == 0 => nodes,
                        3 => model.free_count().max(1),
                        _ => 1 + draw % (nodes >> shift).max(1),
                    };
                    let id = pool.allocate(q);
                    prop_assert_eq!(id.map(|id| id.seq), model.allocate(q));
                    live.extend(id);
                }
                peak_live = peak_live.max(live.len());
                prop_assert_eq!(pool.free_count(), model.free_count());
                prop_assert_eq!(pool.free_count() + pool.allocated_count(), nodes);
                prop_assert_eq!(pool.live_allocations(), live.len());
                for &id in &live {
                    prop_assert_eq!(pool.nodes_of(id), Some(model.nodes_of(id.seq)));
                }
                for &id in &released {
                    prop_assert!(pool.release(id).is_none(), "released id {:?} came back", id);
                    prop_assert!(pool.nodes_of(id).is_none(), "released id {:?} owns nodes", id);
                }
                prop_assert!(pool.allocs.len() <= peak_live, "slab outgrew the peak live count");
                for n in 0..nodes {
                    prop_assert_eq!(pool.occupant(n).map(|id| id.seq), model.owner[n]);
                }
            }
        }
    }
}
