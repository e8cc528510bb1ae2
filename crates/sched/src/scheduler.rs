//! The greedy first-fit online scheduler.

use crate::pool::{AllocId, NodePool};

/// A job started by a fit pass: its allocation plus the caller's payload.
#[derive(Debug, Clone, PartialEq)]
pub struct StartedJob<J> {
    /// The allocation holding the job's nodes.
    pub alloc: AllocId,
    /// Nodes granted.
    pub q_nodes: usize,
    /// Caller payload (job spec, runtime state handle, ...).
    pub payload: J,
}

struct Pending<J> {
    priority: i64,
    seq: u64,
    q_nodes: usize,
    payload: J,
}

/// Online first-fit scheduler over a [`NodePool`].
///
/// Pending jobs are kept in `(priority, submission order)` order; a *fit
/// pass* walks them in that order and starts every job that fits in the
/// currently free nodes — so a large high-priority job does not block
/// smaller later jobs from backfilling around it (exactly the paper's
/// "simple, greedy first-fit algorithm"). Restarted jobs are submitted with
/// a lower `priority` value than everything pending, putting them at the
/// head of the walk.
pub struct Scheduler<J> {
    pool: NodePool,
    pending: Vec<Pending<J>>,
    next_seq: u64,
    min_priority_seen: i64,
}

impl<J> Scheduler<J> {
    /// Creates a scheduler over a fresh pool of `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        Scheduler {
            pool: NodePool::new(nodes),
            pending: Vec::new(),
            next_seq: 0,
            min_priority_seen: i64::MAX,
        }
    }

    /// Read access to the node pool (occupancy queries).
    pub fn pool(&self) -> &NodePool {
        &self.pool
    }

    /// Number of jobs waiting for nodes.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// A priority value strictly ahead of everything submitted so far
    /// (used for failed-job resubmission).
    pub fn head_priority(&self) -> i64 {
        self.min_priority_seen.saturating_sub(1)
    }

    /// Submits a job. Smaller `priority` = earlier in the fit pass; ties
    /// break by submission order.
    pub fn submit(&mut self, priority: i64, q_nodes: usize, payload: J) {
        assert!(q_nodes > 0, "job must request at least one node");
        assert!(
            q_nodes <= self.pool.total(),
            "job requests {q_nodes} nodes but the platform has {}",
            self.pool.total()
        );
        self.min_priority_seen = self.min_priority_seen.min(priority);
        let seq = self.next_seq;
        self.next_seq += 1;
        // Insert keeping (priority, seq) order; bulk submissions at the
        // simulation start dominate, and those arrive roughly sorted.
        let pos = self
            .pending
            .binary_search_by(|p| (p.priority, p.seq).cmp(&(priority, seq)))
            .unwrap_err();
        self.pending.insert(
            pos,
            Pending {
                priority,
                seq,
                q_nodes,
                payload,
            },
        );
    }

    /// Runs one first-fit pass: starts, in priority order, every pending
    /// job that fits in the free nodes. Returns the started jobs in start
    /// order.
    pub fn run_fit_pass(&mut self) -> Vec<StartedJob<J>> {
        let mut started = Vec::new();
        let mut i = 0;
        while i < self.pending.len() {
            if self.pool.free_count() == 0 {
                break;
            }
            if self.pending[i].q_nodes <= self.pool.free_count() {
                let job = self.pending.remove(i);
                let alloc = self
                    .pool
                    .allocate(job.q_nodes)
                    .expect("fit was checked against free count");
                started.push(StartedJob {
                    alloc,
                    q_nodes: job.q_nodes,
                    payload: job.payload,
                });
            } else {
                i += 1;
            }
        }
        started
    }

    /// Releases a finished or failed job's nodes. Returns the number of
    /// nodes freed (`None` if the allocation was already released).
    pub fn release(&mut self, alloc: AllocId) -> Option<usize> {
        self.pool.release(alloc)
    }

    /// Maps a node index to the allocation occupying it.
    pub fn occupant(&self, node: usize) -> Option<AllocId> {
        self.pool.occupant(node)
    }
}

impl<J> std::fmt::Debug for Scheduler<J> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("free", &self.pool.free_count())
            .field("total", &self.pool.total())
            .field("pending", &self.pending.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_pass_respects_priority_order() {
        let mut s: Scheduler<u32> = Scheduler::new(10);
        s.submit(2, 5, 2);
        s.submit(0, 5, 0);
        s.submit(1, 5, 1);
        let started = s.run_fit_pass();
        let ids: Vec<u32> = started.iter().map(|j| j.payload).collect();
        assert_eq!(ids, vec![0, 1]);
        assert_eq!(s.pending_count(), 1);
    }

    #[test]
    fn backfill_around_blocked_job() {
        let mut s: Scheduler<&str> = Scheduler::new(100);
        s.submit(0, 80, "a");
        s.submit(1, 50, "blocked");
        s.submit(2, 20, "backfill");
        let names: Vec<&str> = s.run_fit_pass().iter().map(|j| j.payload).collect();
        assert_eq!(names, vec!["a", "backfill"]);
    }

    #[test]
    fn release_unblocks_pending() {
        let mut s: Scheduler<&str> = Scheduler::new(10);
        s.submit(0, 10, "first");
        let started = s.run_fit_pass();
        assert_eq!(started.len(), 1);
        s.submit(1, 10, "second");
        assert!(s.run_fit_pass().is_empty());
        s.release(started[0].alloc);
        let names: Vec<&str> = s.run_fit_pass().iter().map(|j| j.payload).collect();
        assert_eq!(names, vec!["second"]);
    }

    #[test]
    fn head_priority_precedes_everything() {
        let mut s: Scheduler<()> = Scheduler::new(4);
        s.submit(5, 1, ());
        s.submit(-3, 1, ());
        assert_eq!(s.head_priority(), -4);
        // A restart submitted at head priority starts before priority 5.
        let mut s: Scheduler<&str> = Scheduler::new(1);
        s.submit(5, 1, "normal");
        let head = s.head_priority();
        s.submit(head, 1, "restart");
        let names: Vec<&str> = s.run_fit_pass().iter().map(|j| j.payload).collect();
        assert_eq!(names, vec!["restart"]);
    }

    #[test]
    fn ties_break_by_submission_order() {
        let mut s: Scheduler<u32> = Scheduler::new(3);
        s.submit(1, 1, 10);
        s.submit(1, 1, 11);
        s.submit(1, 1, 12);
        let ids: Vec<u32> = s.run_fit_pass().iter().map(|j| j.payload).collect();
        assert_eq!(ids, vec![10, 11, 12]);
    }

    #[test]
    fn occupant_maps_to_started_job() {
        let mut s: Scheduler<&str> = Scheduler::new(6);
        s.submit(0, 4, "a");
        s.submit(1, 2, "b");
        let started = s.run_fit_pass();
        let a = &started[0];
        let b = &started[1];
        assert_eq!(s.occupant(0), Some(a.alloc));
        assert_eq!(s.occupant(4), Some(b.alloc));
    }

    #[test]
    #[should_panic(expected = "platform has")]
    fn oversized_job_rejected_at_submit() {
        let mut s: Scheduler<()> = Scheduler::new(4);
        s.submit(0, 5, ());
    }

    #[test]
    fn stress_many_jobs_fill_machine() {
        let mut s: Scheduler<usize> = Scheduler::new(1024);
        for i in 0..2000 {
            s.submit(i as i64, 1 + (i * 7) % 64, i);
        }
        let started = s.run_fit_pass();
        let used: usize = started.iter().map(|j| j.q_nodes).sum();
        assert!(used <= 1024);
        // First-fit should pack the machine essentially full.
        assert!(
            s.pool().utilization() > 0.95,
            "utilization {}",
            s.pool().utilization()
        );
    }
}
