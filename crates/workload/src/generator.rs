//! Monte-Carlo job-mix generation (Section 5's initial conditions).
//!
//! A workload instance is a randomized list of jobs such that
//!
//! 1. the total work volume keeps the platform busy for at least the
//!    requested span (default 60 days), and
//! 2. each class's share of the generated node-time matches its target
//!    share within a tolerance (default 1 %, as in the paper),
//!
//! with per-job work durations jittered uniformly in `[0.8 w, 1.2 w]`
//! (Section 5). All jobs are presented to the scheduler at once in a
//! shuffled order, which becomes their priority.

use coopckpt_des::Duration;
use coopckpt_failure::{Sample, Uniform, Xoshiro256pp};
use coopckpt_model::{AppClass, ClassId, JobId, JobSpec, Platform};

/// Jobs [`WorkloadSpec::generate`] may draft before it gives up. Specs
/// that [`WorkloadSpec::check_draft_budget`] accepts never reach it.
const MAX_DRAFTS: u64 = 1_000_000;

/// Parameters of the workload generator.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// The application classes with their target resource shares.
    pub classes: Vec<AppClass>,
    /// Minimum platform-filling span of the generated work.
    pub min_span: Duration,
    /// Work-duration jitter as `[lo, hi]` multiples of the class walltime.
    pub jitter: (f64, f64),
    /// Allowed absolute deviation of each class's share (fraction of the
    /// platform's node-time).
    pub share_tolerance: f64,
}

impl WorkloadSpec {
    /// Creates a spec with the paper's defaults: 60-day span, 0.8–1.2×
    /// jitter, 1 % share tolerance.
    ///
    /// # Panics
    ///
    /// Panics when `classes` is empty or shares do not sum to ≈1.
    pub fn new(classes: Vec<AppClass>) -> Self {
        Self::try_new(classes).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`new`](Self::new), returning an error when `classes` is empty or
    /// the shares do not sum to ≈1.
    pub fn try_new(classes: Vec<AppClass>) -> Result<Self, String> {
        if classes.is_empty() {
            return Err("workload needs at least one class".into());
        }
        let total_share: f64 = classes.iter().map(|c| c.resource_share).sum();
        if (total_share - 1.0).abs() >= 1e-6 {
            return Err(format!("class shares must sum to 1, got {total_share}"));
        }
        Ok(WorkloadSpec {
            classes,
            min_span: Duration::from_days(60.0),
            jitter: (0.8, 1.2),
            share_tolerance: 0.01,
        })
    }

    /// Overrides the minimum span.
    pub fn with_min_span(mut self, span: Duration) -> Self {
        assert!(span.is_positive(), "span must be positive");
        self.min_span = span;
        self
    }

    /// Checks that [`generate`](Self::generate) finishes within its
    /// draft limit (one million jobs) on `platform`.
    ///
    /// Drafting tops up a class only while it is at or below its target
    /// share, so a class never exceeds its share of the total node-time
    /// `T` by more than one of its largest jobs, `b_i`; every share is then
    /// within `Σ b_i / T` of its target. Drafting therefore stops once `T`
    /// covers both the span and (with a 2× margin for rounding) `2 Σ b_i /
    /// tolerance`, and every draft adds at least the smallest job. The
    /// check compares that bound with the limit.
    pub fn check_draft_budget(&self, platform: &Platform) -> Result<(), String> {
        let bound = self.max_drafts(platform);
        if bound < MAX_DRAFTS as f64 {
            Ok(())
        } else {
            Err(format!(
                "{:.1} days of work may need up to {bound:.3e} generated jobs, \
                 over the workload generator's limit of {MAX_DRAFTS}",
                self.min_span.as_days()
            ))
        }
    }

    /// The upper bound on drafted jobs that
    /// [`check_draft_budget`](Self::check_draft_budget) derives.
    fn max_drafts(&self, platform: &Platform) -> f64 {
        let (lo, hi) = self.jitter;
        let job = |c: &AppClass, m: f64| c.q_nodes as f64 * c.walltime.as_secs() * m;
        let smallest = self
            .classes
            .iter()
            .map(|c| job(c, lo))
            .fold(f64::INFINITY, f64::min);
        let largest_sum: f64 = self.classes.iter().map(|c| job(c, hi)).sum();
        let span_work = platform.nodes as f64 * self.min_span.as_secs();
        let settle_work = 2.0 * largest_sum / self.share_tolerance;
        span_work.max(settle_work) / smallest + 1.0
    }

    /// Generates one workload instance: a shuffled list of jobs whose
    /// priorities equal their position in the shuffle.
    ///
    /// # Panics
    ///
    /// Panics when drafting exceeds its limit, which
    /// [`check_draft_budget`](Self::check_draft_budget) rules out.
    pub fn generate(&self, platform: &Platform, rng: &mut Xoshiro256pp) -> Vec<JobSpec> {
        let target_node_seconds = platform.nodes as f64 * self.min_span.as_secs();
        let n_classes = self.classes.len();
        let mut class_node_seconds = vec![0.0f64; n_classes];
        let jitter = Uniform::new(self.jitter.0, self.jitter.1);

        // Draft phase: add jobs class-by-class, always topping up the class
        // whose share is furthest below target. This converges to the target
        // mix deterministically; randomness lives in the durations and the
        // final shuffle (which fixes priorities), like the paper's shuffled
        // simultaneous submission.
        let mut drafts: Vec<(usize, Duration)> = Vec::new();
        for iteration in 0u64.. {
            assert!(
                iteration < MAX_DRAFTS,
                "workload generation failed to converge (tolerance too tight \
                 for the job granularity?)"
            );
            let total: f64 = class_node_seconds.iter().sum();
            let enough_work = total >= target_node_seconds;
            // Signed deviation of each class from its target share. Adding a
            // job can only grow a share, so surpluses are corrected by
            // topping up the most-deficient class until granularity shrinks
            // below the tolerance (the paper keeps instantiating jobs until
            // the mix is within 1 % of the target percentages).
            let (worst, deficit, max_abs_dev) = {
                let mut worst = 0;
                let mut max_deficit = f64::NEG_INFINITY;
                let mut max_abs = 0.0f64;
                for (i, c) in self.classes.iter().enumerate() {
                    let share = if total > 0.0 {
                        class_node_seconds[i] / total
                    } else {
                        0.0
                    };
                    let dev = c.resource_share - share;
                    if dev > max_deficit {
                        max_deficit = dev;
                        worst = i;
                    }
                    max_abs = max_abs.max(dev.abs());
                }
                (worst, max_deficit, max_abs)
            };
            let _ = deficit;
            if enough_work && max_abs_dev <= self.share_tolerance {
                break;
            }
            let class = &self.classes[worst];
            let work = class.walltime * jitter.sample(rng);
            class_node_seconds[worst] += class.q_nodes as f64 * work.as_secs();
            drafts.push((worst, work));
        }

        // Shuffle to randomize priorities (Fisher–Yates with the instance
        // RNG, so the whole workload is a function of the seed).
        for i in (1..drafts.len()).rev() {
            let j = rng.next_bounded(i as u64 + 1) as usize;
            drafts.swap(i, j);
        }

        drafts
            .into_iter()
            .enumerate()
            .map(|(rank, (class_idx, work))| {
                JobSpec::from_class(
                    JobId(rank),
                    ClassId(class_idx),
                    &self.classes[class_idx],
                    work,
                    rank as i64,
                )
            })
            .collect()
    }

    /// The achieved share of each class in a generated job list, as a
    /// fraction of total node-time (used by tests and reports).
    pub fn achieved_shares(&self, jobs: &[JobSpec]) -> Vec<f64> {
        let mut per_class = vec![0.0f64; self.classes.len()];
        for job in jobs {
            per_class[job.class.0] += job.q_nodes as f64 * job.work.as_secs();
        }
        let total: f64 = per_class.iter().sum();
        if total > 0.0 {
            for v in &mut per_class {
                *v /= total;
            }
        }
        per_class
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apex::classes_for;
    use crate::platforms::cielo;

    fn spec() -> (Platform, WorkloadSpec) {
        let p = cielo();
        let s = WorkloadSpec::new(classes_for(&p));
        (p, s)
    }

    #[test]
    fn generates_enough_work_for_span() {
        let (p, s) = spec();
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let jobs = s.generate(&p, &mut rng);
        let total: f64 = jobs
            .iter()
            .map(|j| j.q_nodes as f64 * j.work.as_secs())
            .sum();
        let needed = p.nodes as f64 * Duration::from_days(60.0).as_secs();
        assert!(total >= needed, "work {total} < needed {needed}");
    }

    #[test]
    fn shares_within_tolerance() {
        let (p, s) = spec();
        for seed in 0..5 {
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let jobs = s.generate(&p, &mut rng);
            let shares = s.achieved_shares(&jobs);
            for (share, class) in shares.iter().zip(&s.classes) {
                assert!(
                    (share - class.resource_share).abs() <= s.share_tolerance + 1e-9,
                    "seed {seed}: class {} share {share} vs target {}",
                    class.name,
                    class.resource_share
                );
            }
        }
    }

    #[test]
    fn durations_are_jittered_within_bounds() {
        let (p, s) = spec();
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let jobs = s.generate(&p, &mut rng);
        let mut distinct = std::collections::HashSet::new();
        for job in &jobs {
            let w = s.classes[job.class.0].walltime;
            let ratio = job.work / w;
            assert!((0.8..=1.2).contains(&ratio), "job {} ratio {ratio}", job.id);
            distinct.insert((job.work.as_secs() * 1000.0) as i64);
        }
        assert!(distinct.len() > jobs.len() / 2, "durations look constant");
    }

    #[test]
    fn priorities_are_a_permutation_of_ranks() {
        let (p, s) = spec();
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let jobs = s.generate(&p, &mut rng);
        let mut prios: Vec<i64> = jobs.iter().map(|j| j.priority).collect();
        prios.sort_unstable();
        let expected: Vec<i64> = (0..jobs.len() as i64).collect();
        assert_eq!(prios, expected);
        // Ids equal priorities by construction (rank in shuffled order).
        for j in &jobs {
            assert_eq!(j.id.0 as i64, j.priority);
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let (p, s) = spec();
        let a = s.generate(&p, &mut Xoshiro256pp::seed_from_u64(9));
        let b = s.generate(&p, &mut Xoshiro256pp::seed_from_u64(9));
        assert_eq!(a, b);
        let c = s.generate(&p, &mut Xoshiro256pp::seed_from_u64(10));
        assert_ne!(a, c);
    }

    #[test]
    fn shorter_spans_generate_fewer_jobs() {
        let (p, s) = spec();
        let short = s.clone().with_min_span(Duration::from_days(10.0));
        let long = s.with_min_span(Duration::from_days(120.0));
        let a = short
            .generate(&p, &mut Xoshiro256pp::seed_from_u64(5))
            .len();
        let b = long.generate(&p, &mut Xoshiro256pp::seed_from_u64(5)).len();
        assert!(a < b, "10-day mix {a} jobs vs 120-day mix {b}");
    }

    #[test]
    #[should_panic(expected = "shares must sum to 1")]
    fn rejects_bad_shares() {
        let p = cielo();
        let mut classes = classes_for(&p);
        classes.pop();
        WorkloadSpec::new(classes);
    }

    #[test]
    fn regenerating_with_same_rng_stream_is_stable_under_clone() {
        let (p, s) = spec();
        let s2 = s.clone();
        let a = s.generate(&p, &mut Xoshiro256pp::seed_from_u64(42));
        let b = s2.generate(&p, &mut Xoshiro256pp::seed_from_u64(42));
        assert_eq!(a, b);
    }

    #[test]
    fn jobs_inherit_class_volumes() {
        let (p, s) = spec();
        let mut rng = Xoshiro256pp::seed_from_u64(6);
        let jobs = s.generate(&p, &mut rng);
        for j in &jobs {
            let c = &s.classes[j.class.0];
            assert_eq!(j.q_nodes, c.q_nodes);
            assert_eq!(j.ckpt_bytes, c.ckpt_bytes);
            assert_eq!(j.input_bytes, c.input_bytes);
            assert_eq!(j.output_bytes, c.output_bytes);
            assert!(!j.is_restart);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use coopckpt_model::{Bandwidth, Bytes};
    use proptest::prelude::*;

    /// Arbitrary 2–4 class mixes with shares summing to 1.
    fn arb_mix() -> impl Strategy<Value = (Platform, Vec<AppClass>)> {
        (
            64usize..512,
            proptest::collection::vec((1usize..32, 2.0f64..40.0, 1.0f64..10.0), 2..5),
        )
            .prop_map(|(nodes, rows)| {
                let platform = Platform::new(
                    "prop",
                    nodes,
                    8,
                    Bytes::from_gb(16.0),
                    Bandwidth::from_gbps(50.0),
                    coopckpt_des::Duration::from_years(5.0),
                )
                .unwrap();
                let weight_sum: f64 = rows.iter().map(|r| r.2).sum();
                let classes: Vec<AppClass> = rows
                    .iter()
                    .enumerate()
                    .map(|(i, &(q, hours, w))| AppClass {
                        name: format!("c{i}"),
                        q_nodes: q.min(nodes),
                        walltime: coopckpt_des::Duration::from_hours(hours),
                        resource_share: w / weight_sum,
                        input_bytes: Bytes::from_gb(1.0),
                        output_bytes: Bytes::from_gb(2.0),
                        ckpt_bytes: Bytes::from_gb(q as f64 * 16.0),
                        regular_io_bytes: Bytes::ZERO,
                    })
                    .collect();
                (platform, classes)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// For arbitrary class mixes the generator hits every share within
        /// tolerance and provides enough work for the span.
        #[test]
        fn generator_invariants((platform, classes) in arb_mix(), seed in proptest::num::u64::ANY) {
            let spec = WorkloadSpec::new(classes)
                .with_min_span(coopckpt_des::Duration::from_days(3.0));
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let jobs = spec.generate(&platform, &mut rng);
            prop_assert!(!jobs.is_empty());
            // The draft bound `check_draft_budget` relies on holds.
            prop_assert!(jobs.len() as f64 <= spec.max_drafts(&platform));
            // Enough work.
            let total: f64 = jobs.iter().map(|j| j.q_nodes as f64 * j.work.as_secs()).sum();
            let needed = platform.nodes as f64 * coopckpt_des::Duration::from_days(3.0).as_secs();
            prop_assert!(total >= needed);
            // Shares within tolerance.
            let shares = spec.achieved_shares(&jobs);
            for (share, class) in shares.iter().zip(&spec.classes) {
                prop_assert!(
                    (share - class.resource_share).abs() <= spec.share_tolerance + 1e-9,
                    "class {} share {share} target {}", class.name, class.resource_share
                );
            }
            // Durations jittered within bounds.
            for j in &jobs {
                let ratio = j.work / spec.classes[j.class.0].walltime;
                prop_assert!((0.8..=1.2).contains(&ratio));
            }
        }
    }
}
