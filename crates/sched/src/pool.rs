//! The node pool: who occupies which node.

/// Identifier of one allocation (a job's set of nodes). Never reused.
///
/// Ids are dense and monotone (0, 1, 2, …), so they double as direct
/// indices — see [`index`](AllocId::index) — letting the pool and the
/// simulation engine keep per-allocation state in plain vectors instead of
/// hash maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AllocId(u64);

impl AllocId {
    /// The allocation's dense slab index (its position in issue order).
    pub fn index(self) -> usize {
        self.0 as usize
    }
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
    /// The `(word, mask)` pairs of each allocation ever issued, in word
    /// order, indexed by [`AllocId::index`]; `None` once released. Ids are
    /// dense, so this is a slab, not a map.
    allocs: Vec<Option<Vec<(usize, u64)>>>,
    /// Number of live (unreleased) allocations.
    live: usize,
    next_id: u64,
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
            owner: vec![AllocId(0); nodes],
            free_bits,
            free_count: nodes,
            first_maybe_free: 0,
            allocs: Vec::new(),
            live: 0,
            next_id: 0,
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
    pub fn allocate(&mut self, q: usize) -> Option<AllocId> {
        assert!(q > 0, "allocation must request at least one node");
        if q > self.free_count {
            return None;
        }
        let id = AllocId(self.next_id);
        self.next_id += 1;
        // Exact when the free nodes are contiguous; a hint otherwise.
        let mut words = Vec::with_capacity(q.div_ceil(64) + 1);
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
        debug_assert_eq!(self.allocs.len(), id.index());
        self.allocs.push(Some(words));
        self.live += 1;
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

    /// Releases an allocation, freeing its nodes. Returns the number of
    /// nodes freed, or `None` if the id is unknown (already released).
    pub fn release(&mut self, id: AllocId) -> Option<usize> {
        let words = self.allocs.get_mut(id.index())?.take()?;
        self.live -= 1;
        let mut freed = 0;
        for &(w, mask) in &words {
            debug_assert_eq!(self.free_bits[w] & mask, 0, "released a node that was free");
            self.free_bits[w] |= mask;
            freed += mask.count_ones() as usize;
        }
        // Words are stored in ascending order, and never empty.
        self.first_maybe_free = self.first_maybe_free.min(words[0].0);
        self.free_count += freed;
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
        let words = self.allocs.get(id.index())?.as_ref()?;
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
        self.live
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
        owner: Vec<Option<usize>>,
        next_id: usize,
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

        fn allocate(&mut self, q: usize) -> Option<usize> {
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

        fn release(&mut self, id: usize) -> usize {
            let mut freed = 0;
            for o in self.owner.iter_mut().filter(|o| **o == Some(id)) {
                *o = None;
                freed += 1;
            }
            freed
        }

        fn nodes_of(&self, id: usize) -> Vec<usize> {
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
        /// model's occupant, and the free counts agree.
        #[test]
        fn conservation_under_random_ops(
            size in 0usize..SIZES.len(),
            ops in proptest::collection::vec((0u8..6, 0usize..usize::MAX, 0u32..14), 1..60),
        ) {
            let nodes = SIZES[size];
            let mut pool = NodePool::new(nodes);
            let mut model = Model::new(nodes);
            let mut live: Vec<AllocId> = Vec::new();
            for (kind, draw, shift) in ops {
                if kind < 2 && !live.is_empty() {
                    let id = live.swap_remove(draw % live.len());
                    let freed = model.release(id.index());
                    prop_assert_eq!(pool.release(id), Some(freed));
                    prop_assert!(pool.release(id).is_none(), "double release is a no-op");
                } else {
                    let q = match kind {
                        2 => model.free_count() + 1 + draw % 3,
                        3 if draw % 2 == 0 => nodes,
                        3 => model.free_count().max(1),
                        _ => 1 + draw % (nodes >> shift).max(1),
                    };
                    let id = pool.allocate(q);
                    prop_assert_eq!(id.map(AllocId::index), model.allocate(q));
                    live.extend(id);
                }
                prop_assert_eq!(pool.free_count(), model.free_count());
                prop_assert_eq!(pool.free_count() + pool.allocated_count(), nodes);
                prop_assert_eq!(pool.live_allocations(), live.len());
                for &id in &live {
                    prop_assert_eq!(pool.nodes_of(id), Some(model.nodes_of(id.index())));
                }
                for n in 0..nodes {
                    prop_assert_eq!(pool.occupant(n).map(AllocId::index), model.owner[n]);
                }
            }
        }
    }
}
