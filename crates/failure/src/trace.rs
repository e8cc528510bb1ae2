//! Node-failure traces.
//!
//! Following Section 5 of the paper, a simulation instance pre-computes its
//! failure schedule: inter-arrival times are drawn from an exponential (or,
//! for ablations, Weibull) distribution with the *system* MTBF
//! `µ_sys = µ_ind / N`, and each failure strikes a uniformly random node.

use crate::classes::FailureClass;
use crate::dist::{Exponential, Sample, Weibull};
use crate::rng::Xoshiro256pp;
use coopckpt_des::{Duration, Time};

/// One node failure: which node dies, when, and how severe the strike is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureEvent {
    /// The instant of the failure.
    pub at: Time,
    /// Index of the struck node in `[0, nodes)`.
    pub node: usize,
    /// Index into the generating [`FailureClass`] mix (0 for single-class
    /// traces — the paper's model).
    pub class: usize,
}

/// A precomputed, time-ordered schedule of node failures.
#[derive(Debug, Clone, Default)]
pub struct FailureTrace {
    events: Vec<FailureEvent>,
}

impl FailureTrace {
    /// An empty (failure-free) trace.
    pub fn empty() -> Self {
        FailureTrace { events: Vec::new() }
    }

    /// Builds a trace from explicit events (must be time-ordered).
    ///
    /// # Panics
    ///
    /// Panics if events are not sorted by time.
    pub fn from_events(events: Vec<FailureEvent>) -> Self {
        assert!(
            events.windows(2).all(|w| w[0].at <= w[1].at),
            "failure events must be time-ordered"
        );
        FailureTrace { events }
    }

    /// Generates a trace with exponential inter-arrival times at system rate
    /// `nodes / node_mtbf`, up to `horizon`. This is the paper's model.
    pub fn generate_exponential(
        rng: &mut Xoshiro256pp,
        nodes: usize,
        node_mtbf: Duration,
        horizon: Time,
    ) -> Self {
        assert!(nodes > 0, "need at least one node");
        let system_mean = node_mtbf.as_secs() / nodes as f64;
        let dist = Exponential::from_mean(system_mean);
        Self::generate_with(rng, nodes, &dist, horizon)
    }

    /// Generates a trace with Weibull inter-arrival times whose mean matches
    /// the exponential system MTBF (`shape < 1` = infant mortality). Used by
    /// the failure-distribution ablation.
    pub fn generate_weibull(
        rng: &mut Xoshiro256pp,
        nodes: usize,
        node_mtbf: Duration,
        shape: f64,
        horizon: Time,
    ) -> Self {
        assert!(nodes > 0, "need at least one node");
        let system_mean = node_mtbf.as_secs() / nodes as f64;
        let dist = Weibull::from_mean(shape, system_mean);
        Self::generate_with(rng, nodes, &dist, horizon)
    }

    /// Generates a trace from an arbitrary inter-arrival distribution.
    pub fn generate_with(
        rng: &mut Xoshiro256pp,
        nodes: usize,
        inter_arrival: &impl Sample,
        horizon: Time,
    ) -> Self {
        Self::generate_class(rng, nodes, inter_arrival, 0, horizon)
    }

    /// Generates the events of one failure class: like
    /// [`generate_with`](FailureTrace::generate_with), with every event
    /// tagged `class`.
    pub fn generate_class(
        rng: &mut Xoshiro256pp,
        nodes: usize,
        inter_arrival: &impl Sample,
        class: usize,
        horizon: Time,
    ) -> Self {
        assert!(horizon.is_finite(), "horizon must be finite");
        let mut events = Vec::with_capacity(expected_events(inter_arrival.mean(), horizon));
        let mut t = 0.0;
        loop {
            t += inter_arrival.sample(rng);
            if t > horizon.as_secs() {
                break;
            }
            let node = rng.next_bounded(nodes as u64) as usize;
            events.push(FailureEvent {
                at: Time::from_secs(t),
                node,
                class,
            });
        }
        FailureTrace { events }
    }

    /// Generates a trace for a [`FailureClass`] mix: each class `c` draws
    /// its own events from a *dedicated RNG substream*
    /// ([`Xoshiro256pp::split`]) at rate `share_c × nodes / node_mtbf`,
    /// mean-matched Weibull when `weibull_shape` is given, exponential
    /// otherwise; the per-class schedules are then merged by time (ties
    /// break by class index).
    ///
    /// Two properties follow from the substream layout:
    ///
    /// * **Single-class degeneration.** The first split of `rng` replays
    ///   exactly the stream [`generate_exponential`](Self::generate_exponential)
    ///   (or [`generate_weibull`](Self::generate_weibull)) would have
    ///   drawn from `rng` directly, so a one-class mix with share 1
    ///   reproduces the paper's trace *bit for bit*.
    /// * **Share-sweep stability.** Zero-share classes still consume their
    ///   split, so sweeping one class's share through 0 never reshuffles
    ///   the other classes' draws.
    ///
    /// # Panics
    ///
    /// Panics when `classes` is empty, `nodes` is zero, or the horizon is
    /// not finite.
    pub fn generate_mixed(
        rng: &mut Xoshiro256pp,
        nodes: usize,
        node_mtbf: Duration,
        weibull_shape: Option<f64>,
        classes: &[FailureClass],
        horizon: Time,
    ) -> Self {
        assert!(nodes > 0, "need at least one node");
        assert!(!classes.is_empty(), "need at least one failure class");
        assert!(horizon.is_finite(), "horizon must be finite");
        let system_mean = node_mtbf.as_secs() / nodes as f64;
        // The merged schedule has the full system rate regardless of how
        // it is shared out, so one up-front reservation covers the extends.
        let mut events: Vec<FailureEvent> =
            Vec::with_capacity(expected_events(system_mean, horizon));
        for (idx, mean) in class_means(nodes, node_mtbf, classes).enumerate() {
            // Split unconditionally so every class owns a stable stream.
            let mut class_rng = rng.split();
            let Some(mean) = mean else { continue };
            let trace = match weibull_shape {
                Some(shape) => Self::generate_class(
                    &mut class_rng,
                    nodes,
                    &Weibull::from_mean(shape, mean),
                    idx,
                    horizon,
                ),
                None => Self::generate_class(
                    &mut class_rng,
                    nodes,
                    &Exponential::from_mean(mean),
                    idx,
                    horizon,
                ),
            };
            events.extend(trace.events);
        }
        // Stable by-time merge: per-class schedules are already sorted and
        // were appended in class order, so equal instants keep the lower
        // class index first — fully deterministic.
        events.sort_by(|a, b| a.at.as_secs().total_cmp(&b.at.as_secs()));
        FailureTrace { events }
    }

    /// Checks that every class of a mix has the mean-matched Weibull law
    /// at `shape` that [`generate_mixed`](Self::generate_mixed) draws from:
    /// the [`Weibull::try_from_mean`] error of the first class without one.
    pub fn check_weibull(
        nodes: usize,
        node_mtbf: Duration,
        shape: f64,
        classes: &[FailureClass],
    ) -> Result<(), String> {
        class_means(nodes, node_mtbf, classes)
            .flatten()
            .try_for_each(|mean| Weibull::try_from_mean(shape, mean).map(drop))
    }

    /// Number of failures in the trace.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the trace has no failures.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The failures, in time order.
    pub fn events(&self) -> &[FailureEvent] {
        &self.events
    }

    /// Iterates over the failures in time order.
    pub fn iter(&self) -> impl Iterator<Item = &FailureEvent> {
        self.events.iter()
    }

    /// Empirical mean time between failures of the trace (over the window
    /// `[0, horizon]` it was generated for, approximated by the last event).
    pub fn empirical_mtbf(&self) -> Option<Duration> {
        if self.events.len() < 2 {
            return None;
        }
        let span = self.events.last().unwrap().at.as_secs() - self.events[0].at.as_secs();
        Some(Duration::from_secs(span / (self.events.len() - 1) as f64))
    }

    /// Counts failures striking each node (histogram of length `nodes`).
    pub fn per_node_counts(&self, nodes: usize) -> Vec<u32> {
        let mut counts = vec![0u32; nodes];
        for ev in &self.events {
            counts[ev.node] += 1;
        }
        counts
    }
}

/// Mean inter-arrival time of each class's failures: the system MTBF
/// `node_mtbf / nodes` over the class's share, or `None` for a zero share,
/// which draws no events.
fn class_means(
    nodes: usize,
    node_mtbf: Duration,
    classes: &[FailureClass],
) -> impl Iterator<Item = Option<f64>> + '_ {
    let system_mean = node_mtbf.as_secs() / nodes as f64;
    classes
        .iter()
        .map(move |class| (class.share > 0.0).then(|| system_mean / class.share))
}

/// Capacity estimate for a trace: the expected event count `horizon/mean`
/// plus a four-sigma Poisson margin, so almost every generation runs
/// without reallocating. Clamped so a pathological mean cannot demand an
/// absurd up-front allocation.
fn expected_events(mean: f64, horizon: Time) -> usize {
    if !(mean.is_finite() && mean > 0.0) || horizon.as_secs() <= 0.0 {
        return 0;
    }
    let expected = horizon.as_secs() / mean;
    (expected + 4.0 * expected.sqrt() + 8.0).min(4_000_000.0) as usize
}

impl<'a> IntoIterator for &'a FailureTrace {
    type Item = &'a FailureEvent;
    type IntoIter = std::slice::Iter<'a, FailureEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_trace_matches_system_mtbf() {
        let mut rng = Xoshiro256pp::seed_from_u64(42);
        // 1000 nodes, 2-year node MTBF → system MTBF ≈ 17.52 h.
        let horizon = Time::from_secs(Duration::from_days(3650.0).as_secs());
        let trace =
            FailureTrace::generate_exponential(&mut rng, 1000, Duration::from_years(2.0), horizon);
        let expected = Duration::from_years(2.0).as_secs() / 1000.0;
        let got = trace.empirical_mtbf().unwrap().as_secs();
        assert!(
            (got - expected).abs() / expected < 0.05,
            "empirical MTBF {got} vs expected {expected}"
        );
    }

    #[test]
    fn trace_is_time_ordered() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let trace = FailureTrace::generate_exponential(
            &mut rng,
            100,
            Duration::from_years(1.0),
            Time::from_secs(Duration::from_days(365.0).as_secs()),
        );
        assert!(trace.events().windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn nodes_struck_roughly_uniformly() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let nodes = 50;
        let trace = FailureTrace::generate_exponential(
            &mut rng,
            nodes,
            Duration::from_days(10.0), // very unreliable → many failures
            Time::from_secs(Duration::from_days(1000.0).as_secs()),
        );
        let counts = trace.per_node_counts(nodes);
        let total: u32 = counts.iter().sum();
        assert_eq!(total as usize, trace.len());
        let expected = total as f64 / nodes as f64;
        assert!(expected > 50.0, "need enough samples, got {expected}");
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected).abs() < expected * 0.5,
                "node {i} count {c} vs expected {expected}"
            );
        }
    }

    #[test]
    fn weibull_trace_mean_matches() {
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let trace = FailureTrace::generate_weibull(
            &mut rng,
            1000,
            Duration::from_years(2.0),
            0.7,
            Time::from_secs(Duration::from_days(3650.0).as_secs()),
        );
        let expected = Duration::from_years(2.0).as_secs() / 1000.0;
        let got = trace.empirical_mtbf().unwrap().as_secs();
        assert!(
            (got - expected).abs() / expected < 0.08,
            "Weibull empirical MTBF {got} vs {expected}"
        );
    }

    #[test]
    fn empty_and_tiny_traces() {
        assert!(FailureTrace::empty().is_empty());
        assert!(FailureTrace::empty().empirical_mtbf().is_none());
        let one = FailureTrace::from_events(vec![FailureEvent {
            at: Time::from_secs(5.0),
            node: 0,
            class: 0,
        }]);
        assert_eq!(one.len(), 1);
        assert!(one.empirical_mtbf().is_none());
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn from_events_rejects_unsorted() {
        FailureTrace::from_events(vec![
            FailureEvent {
                at: Time::from_secs(5.0),
                node: 0,
                class: 0,
            },
            FailureEvent {
                at: Time::from_secs(1.0),
                node: 1,
                class: 0,
            },
        ]);
    }

    #[test]
    fn generation_is_deterministic() {
        let horizon = Time::from_secs(Duration::from_days(100.0).as_secs());
        let t1 = {
            let mut rng = Xoshiro256pp::seed_from_u64(9);
            FailureTrace::generate_exponential(&mut rng, 64, Duration::from_years(1.0), horizon)
        };
        let t2 = {
            let mut rng = Xoshiro256pp::seed_from_u64(9);
            FailureTrace::generate_exponential(&mut rng, 64, Duration::from_years(1.0), horizon)
        };
        assert_eq!(t1.events(), t2.events());
    }

    #[test]
    fn single_class_mix_is_bit_identical_to_the_plain_generator() {
        // The headline degeneration: one system class with share 1 must
        // replay exactly the paper's trace (same draws via the first
        // split), for both laws.
        let horizon = Time::from_secs(Duration::from_days(200.0).as_secs());
        let mix = crate::classes::system_only();
        let plain = {
            let mut rng = Xoshiro256pp::seed_from_u64(17);
            FailureTrace::generate_exponential(&mut rng, 128, Duration::from_years(1.0), horizon)
        };
        let mixed = {
            let mut rng = Xoshiro256pp::seed_from_u64(17);
            FailureTrace::generate_mixed(
                &mut rng,
                128,
                Duration::from_years(1.0),
                None,
                &mix,
                horizon,
            )
        };
        assert_eq!(plain.events(), mixed.events());
        let plain_w = {
            let mut rng = Xoshiro256pp::seed_from_u64(17);
            FailureTrace::generate_weibull(&mut rng, 128, Duration::from_years(1.0), 0.7, horizon)
        };
        let mixed_w = {
            let mut rng = Xoshiro256pp::seed_from_u64(17);
            FailureTrace::generate_mixed(
                &mut rng,
                128,
                Duration::from_years(1.0),
                Some(0.7),
                &mix,
                horizon,
            )
        };
        assert_eq!(plain_w.events(), mixed_w.events());
    }

    #[test]
    fn mixed_trace_preserves_the_total_rate_and_splits_by_share() {
        let horizon = Time::from_secs(Duration::from_days(5000.0).as_secs());
        let classes = vec![
            FailureClass::new("local", 0.75, 1),
            FailureClass::system("system", 0.25),
        ];
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let trace = FailureTrace::generate_mixed(
            &mut rng,
            200,
            Duration::from_years(2.0),
            None,
            &classes,
            horizon,
        );
        // Total rate matches the single-class system MTBF.
        let expected = Duration::from_years(2.0).as_secs() / 200.0;
        let got = trace.empirical_mtbf().unwrap().as_secs();
        assert!(
            (got - expected).abs() / expected < 0.05,
            "mixed empirical MTBF {got} vs expected {expected}"
        );
        // Per-class counts follow the shares.
        let local = trace.iter().filter(|e| e.class == 0).count() as f64;
        let system = trace.iter().filter(|e| e.class == 1).count() as f64;
        let frac = local / (local + system);
        assert!((frac - 0.75).abs() < 0.03, "local share {frac} vs 0.75");
        // And the merge is time-ordered.
        assert!(trace.events().windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn zero_share_classes_never_fire_but_keep_streams_stable() {
        // Dropping a class's share to zero must not reshuffle the other
        // classes' draws: the remaining class's events are identical
        // whether its neighbour is dormant or absent... with the dormant
        // class still occupying its split slot.
        let horizon = Time::from_secs(Duration::from_days(500.0).as_secs());
        let dormant = vec![
            FailureClass::new("local", 0.0, 1),
            FailureClass::system("system", 1.0),
        ];
        let active = vec![
            FailureClass::new("local", 0.5, 1),
            FailureClass::system("system", 0.5),
        ];
        let t_dormant = {
            let mut rng = Xoshiro256pp::seed_from_u64(9);
            FailureTrace::generate_mixed(
                &mut rng,
                64,
                Duration::from_years(1.0),
                None,
                &dormant,
                horizon,
            )
        };
        assert!(t_dormant.iter().all(|e| e.class == 1));
        let t_active = {
            let mut rng = Xoshiro256pp::seed_from_u64(9);
            FailureTrace::generate_mixed(
                &mut rng,
                64,
                Duration::from_years(1.0),
                None,
                &active,
                horizon,
            )
        };
        // The system class draws the same inter-arrival *sequence* in both
        // runs (same substream); only the rate scale differs. Check the
        // stream stability through the struck-node sequence, which is
        // scale-independent.
        let nodes_dormant: Vec<usize> = t_dormant.iter().map(|e| e.node).take(20).collect();
        let nodes_active: Vec<usize> = t_active
            .iter()
            .filter(|e| e.class == 1)
            .map(|e| e.node)
            .take(20)
            .collect();
        assert_eq!(nodes_dormant, nodes_active);
    }

    #[test]
    fn iterator_visits_all() {
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let trace = FailureTrace::generate_exponential(
            &mut rng,
            16,
            Duration::from_days(30.0),
            Time::from_secs(Duration::from_days(90.0).as_secs()),
        );
        assert_eq!(trace.iter().count(), trace.len());
        assert_eq!((&trace).into_iter().count(), trace.len());
    }
}
