//! Differential determinism: the calendar queue vs the binary-heap oracle.
//!
//! PR 7 replaced the DES core's binary heap with a bucketed calendar
//! queue; the old heap stays alive behind `EventQueue::heap_oracle()` as
//! a test oracle. Three layers of evidence keep the swap honest:
//!
//! * **Queue-level, random** — proptest drives random interleavings of
//!   schedule / cancel (live, stale, and double) / pop / peek through both
//!   backends and demands identical observable behaviour at every step,
//!   including the FIFO tie-break for equal timestamps and `None` for stale
//!   cancels.
//! * **Queue-level, engine-shaped** — long seeded scripts shaped like a
//!   replay (a sparse failure trace queued up front, dense re-armed timers,
//!   cancellations, equal-time bursts, subnormal gaps beside far events),
//!   long enough for the calendar to re-estimate its bucket width mid-run.
//! * **Engine-level** — full simulations (every paper strategy, flat and
//!   3-tier storage, classless and mixed failure-class presets) run once
//!   per backend via the process-wide [`use_heap_oracle`] switch and must
//!   produce bit-identical results *and* bit-identical execution traces.
//!
//! A fourth layer — the `paper_grid` campaign diffed at tolerance 0 — lives
//! in `report_stability.rs` behind the `heap-oracle` feature.

use coopckpt::prelude::*;
use coopckpt::sim::FailureClass;
use coopckpt_des::{EventKey, EventQueue, Time as DesTime};
use coopckpt_failure::Xoshiro256pp;
// No glob import of proptest::prelude: it would pull in the `Strategy`
// strategy trait, shadowing the paper's `Strategy` type.
use proptest::proptest;

// ---------------------------------------------------------------------------
// Both backends in lockstep.

/// The calendar queue and the heap oracle driven through the same
/// operations, each result compared on the spot. An event's payload is its
/// index in the order of scheduling, which also names it for [`cancel`].
///
/// [`cancel`]: Lockstep::cancel
struct Lockstep {
    calendar: EventQueue<usize>,
    heap: EventQueue<usize>,
    // The same operations yield the same key sequence on both backends, but
    // keys are backend-private (slot layout differs) — track them per side.
    cal_keys: Vec<EventKey>,
    heap_keys: Vec<EventKey>,
    /// Operations applied so far.
    ops: usize,
}

impl Lockstep {
    fn new() -> Self {
        let (calendar, heap) = (EventQueue::new(), EventQueue::heap_oracle());
        assert!(!calendar.is_heap_oracle() && heap.is_heap_oracle());
        Lockstep {
            calendar,
            heap,
            cal_keys: Vec::new(),
            heap_keys: Vec::new(),
            ops: 0,
        }
    }

    /// Schedules the next event at `t` and returns its index.
    fn schedule(&mut self, t: f64) -> usize {
        let id = self.cal_keys.len();
        let t = DesTime::from_secs(t);
        self.cal_keys.push(self.calendar.schedule(t, id));
        self.heap_keys.push(self.heap.schedule(t, id));
        self.step();
        id
    }

    /// Cancels event `id` (live, fired or already cancelled alike).
    fn cancel(&mut self, id: usize) {
        let a = self.calendar.cancel(self.cal_keys[id]);
        let b = self.heap.cancel(self.heap_keys[id]);
        assert_eq!(a, b, "cancel of event {id} diverged at op {}", self.ops);
        self.step();
    }

    fn pop(&mut self) -> Option<(f64, usize)> {
        let a = self.calendar.pop();
        let b = self.heap.pop();
        assert_eq!(a, b, "pop diverged at op {}", self.ops);
        self.step();
        a.map(|(t, id)| (t.as_secs(), id))
    }

    fn peek(&mut self) {
        let a = self.calendar.peek_time();
        let b = self.heap.peek_time();
        assert_eq!(a, b, "peek diverged at op {}", self.ops);
        self.step();
    }

    fn step(&mut self) {
        assert_eq!(
            self.calendar.len(),
            self.heap.len(),
            "len after op {}",
            self.ops
        );
        assert_eq!(self.calendar.is_empty(), self.heap.is_empty());
        self.ops += 1;
    }

    /// Pops whatever is left: the full residual order must agree too.
    fn drain(mut self) {
        while self.pop().is_some() {}
        assert!(self.calendar.is_empty() && self.heap.is_empty());
    }
}

// ---------------------------------------------------------------------------
// Queue-level differential: random op interleavings.

/// One scripted operation, decoded from a proptest `(selector, time)` pair.
/// Schedules dominate (the engine's mix) so runs grow long enough for the
/// calendar queue to resize; cancels target live, stale, and already
/// cancelled keys alike.
#[derive(Debug, Clone, Copy)]
enum Op {
    Schedule(f64),
    /// Cancel the event at `index % issued` (twice-cancelled keys and keys
    /// whose slot was since recycled both decode here).
    Cancel(usize),
    Pop,
    Peek,
}

fn decode(selector: u8, time: f64) -> Op {
    match selector % 10 {
        0..=4 => Op::Schedule(time),
        5..=6 => Op::Cancel(time as usize),
        7..=8 => Op::Pop,
        _ => Op::Peek,
    }
}

/// Applies the same op script to both backends, asserting identical
/// observable behaviour after every single step.
fn run_differential(script: &[(u8, f64)]) {
    let mut q = Lockstep::new();
    for &(selector, time) in script {
        match decode(selector, time) {
            Op::Schedule(t) => {
                q.schedule(t);
            }
            Op::Cancel(raw) => {
                if !q.cal_keys.is_empty() {
                    q.cancel(raw % q.cal_keys.len());
                }
            }
            Op::Pop => {
                q.pop();
            }
            Op::Peek => q.peek(),
        }
    }
    q.drain();
}

proptest! {
    /// Random interleavings over a wide time range (resizes trigger).
    #[test]
    fn backends_agree_on_random_interleavings(
        script in proptest::collection::vec((0u8..=255, 0.0f64..1e9), 1..400),
    ) {
        run_differential(&script);
    }

    /// Clustered timestamps: many collisions per calendar bucket, so the
    /// FIFO tie-break and in-bucket min scans are exercised hard.
    #[test]
    fn backends_agree_under_heavy_time_collisions(
        script in proptest::collection::vec((0u8..=255, 0.0f64..16.0), 1..300),
    ) {
        // Quantize to whole seconds: most events tie exactly.
        let script: Vec<_> = script.iter().map(|&(s, t)| (s, t.floor())).collect();
        run_differential(&script);
    }

    /// Cancel-heavy scripts with sparse far-apart times: the calendar
    /// queue's global-min fallback path and slot recycling under churn.
    #[test]
    fn backends_agree_on_sparse_cancel_heavy_scripts(
        script in proptest::collection::vec((0u8..=255, 0.0f64..1e15), 1..200),
    ) {
        // Re-weight toward cancels: map the schedule-heavy decode onto a
        // cancel-heavy one by folding selectors 2..=4 into cancels.
        let script: Vec<_> = script
            .iter()
            .map(|&(s, t)| (if (2..=4).contains(&(s % 10)) { 5 } else { s }, t))
            .collect();
        run_differential(&script);
    }
}

// ---------------------------------------------------------------------------
// Queue-level differential: engine-shaped scripts.

/// Operations per engine-shaped script, before the final drain.
const ENGINE_SCRIPT_OPS: usize = 20_000;

/// Re-armed timers live at once, about the number of jobs a Cielo replay
/// keeps running.
const TIMERS: usize = 160;

const DAY: f64 = 86_400.0;

/// Replays a seeded, replay-shaped script through both backends. `far`
/// events are queued first, like the failure trace at t = 0. Then
/// [`TIMERS`] timers fire and re-arm at `now + delay`, where `now` is the
/// last popped time, so time only moves forward. About a fifth of the
/// timers are cancelled and re-armed before they fire, as the engine
/// re-arms checkpoint and milestone events, and now and then a burst of
/// equal-time one-shot events lands at a single instant.
fn run_engine_shaped(seed: u64, far: &[f64], delay: impl Fn(&mut Xoshiro256pp) -> f64) {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut q = Lockstep::new();
    for &t in far {
        q.schedule(t);
    }
    // `timer_of[id]` is the timer that event `id` belongs to, if any, and
    // `timers[j]` the pending event of timer `j`.
    let mut timer_of: Vec<Option<usize>> = vec![None; far.len()];
    let mut timers = Vec::with_capacity(TIMERS);
    for j in 0..TIMERS {
        timers.push(q.schedule(delay(&mut rng)));
        timer_of.push(Some(j));
    }
    let mut now = 0.0;
    while q.ops < ENGINE_SCRIPT_OPS {
        match rng.next_bounded(100) {
            0..=74 => {
                let Some((t, id)) = q.pop() else { continue };
                assert!(t >= now, "time went backwards");
                now = t;
                if let Some(j) = timer_of[id] {
                    timers[j] = q.schedule(now + delay(&mut rng));
                    timer_of.push(Some(j));
                }
            }
            75..=92 => {
                let j = rng.next_bounded(TIMERS as u64) as usize;
                q.cancel(timers[j]);
                timers[j] = q.schedule(now + delay(&mut rng));
                timer_of.push(Some(j));
            }
            93..=95 => {
                let t = now + delay(&mut rng);
                for _ in 0..2 + rng.next_bounded(30) {
                    q.schedule(t);
                    timer_of.push(None);
                }
            }
            _ => q.peek(),
        }
    }
    q.drain();
}

/// Exponential delays with a one-minute mean: the near-term churn of
/// checkpoint, I/O and milestone events.
fn minute_delays(rng: &mut Xoshiro256pp) -> f64 {
    -60.0 * rng.next_f64_open().ln()
}

/// A sparse failure trace: `n` sorted times spread over `days`.
fn failure_trace(seed: u64, n: usize, days: f64) -> Vec<f64> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x5eed);
    let mut times: Vec<f64> = (0..n).map(|_| rng.next_f64() * days * DAY).collect();
    times.sort_by(f64::total_cmp);
    times
}

/// The trace-replay shape: ~1,000 failures over 45 days queued up front,
/// dense minute-scale timers beside them.
#[test]
fn backends_agree_on_replay_shaped_scripts() {
    for seed in 1..=3 {
        run_engine_shaped(seed, &failure_trace(seed, 1_000, 45.0), minute_delays);
    }
}

/// The same replay shape over a week, with a denser failure trace.
#[test]
fn backends_agree_on_a_dense_week_of_failures() {
    run_engine_shaped(4, &failure_trace(4, 2_000, 7.0), minute_delays);
}

/// Timers `k × 1e-300` s apart, right beside events at 5e6 s. A bucket
/// width fitted to the cluster maps the far events past `i64::MAX` virtual
/// buckets, so their index saturates. One re-arm in 64 jumps 5e6 s ahead,
/// so the cluster thins out and time reaches the far events. From there a
/// `k × 1e-300` delay adds nothing (`5e6 + 1e-300 == 5e6`), and re-armed
/// timers pile up in equal-time clusters.
#[test]
fn backends_agree_on_subnormal_gaps_beside_far_events() {
    for seed in 1..=2 {
        let far: Vec<f64> = (0..1_000).map(|i| 5e6 + (i / 4) as f64).collect();
        run_engine_shaped(seed, &far, |rng| {
            if rng.next_bounded(64) == 0 {
                5e6
            } else {
                (1 + rng.next_bounded(64)) as f64 * 1e-300
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Engine-level differential: full simulations on both backends.

/// A small, failure-prone platform: short instances, many failures, every
/// event type exercised.
fn diff_platform() -> Platform {
    Platform::new(
        "queue-diff",
        128,
        8,
        Bytes::from_gb(16.0),
        Bandwidth::from_gbps(8.0),
        Duration::from_years(0.5),
    )
    .unwrap()
}

fn diff_classes(p: &Platform) -> Vec<AppClass> {
    vec![AppClass {
        name: "only".into(),
        q_nodes: 32,
        walltime: Duration::from_hours(30.0),
        resource_share: 1.0,
        input_bytes: Bytes::from_gb(32.0),
        output_bytes: Bytes::from_gb(64.0),
        ckpt_bytes: p.mem_per_node * 32.0,
        regular_io_bytes: Bytes::ZERO,
    }]
}

/// Runs `config` once per queue backend and demands bit-identical results,
/// counters, and execution traces.
///
/// [`use_heap_oracle`] is process-wide, and the two engine tests in this
/// binary run concurrently — a mutex keeps each paired comparison under a
/// consistent flag (without it a pair could silently compare calendar
/// against calendar and prove nothing).
fn assert_backends_identical(config: &SimConfig, seed: u64, tag: &str) {
    static BACKEND_FLAG: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = BACKEND_FLAG.lock().unwrap_or_else(|e| e.into_inner());
    use_heap_oracle(false);
    let a = run_simulation(config, seed);
    use_heap_oracle(true);
    let b = run_simulation(config, seed);
    use_heap_oracle(false);

    assert_eq!(
        a.waste_ratio.to_bits(),
        b.waste_ratio.to_bits(),
        "{tag}: waste ratio diverged (calendar {} vs heap {})",
        a.waste_ratio,
        b.waste_ratio
    );
    assert_eq!(
        a.efficiency.to_bits(),
        b.efficiency.to_bits(),
        "{tag}: efficiency"
    );
    assert_eq!(a.breakdown, b.breakdown, "{tag}: waste breakdown");
    assert_eq!(
        a.utilization.to_bits(),
        b.utilization.to_bits(),
        "{tag}: utilization"
    );
    assert_eq!(
        a.failures_total, b.failures_total,
        "{tag}: failures injected"
    );
    assert_eq!(
        a.failures_hitting_jobs, b.failures_hitting_jobs,
        "{tag}: failures hitting jobs"
    );
    assert_eq!(
        a.checkpoints_committed, b.checkpoints_committed,
        "{tag}: checkpoints"
    );
    assert_eq!(a.jobs_completed, b.jobs_completed, "{tag}: jobs completed");
    assert_eq!(a.restarts, b.restarts, "{tag}: restarts");
    assert_eq!(a.tier_restores, b.tier_restores, "{tag}: tier restores");
    assert_eq!(a.events, b.events, "{tag}: DES event count");
    let (ta, tb) = (
        a.trace.expect("trace recorded"),
        b.trace.expect("trace recorded"),
    );
    assert_eq!(ta.events(), tb.events(), "{tag}: execution trace diverged");
}

/// Every paper strategy on the flat (PFS-only, classless) platform.
#[test]
fn engine_is_bit_identical_across_backends_flat() {
    let p = diff_platform();
    for strategy in Strategy::all_seven() {
        let config = SimConfig::new(p.clone(), diff_classes(&p), strategy)
            .with_span(Duration::from_days(2.0))
            .with_trace();
        assert_backends_identical(&config, 11, &format!("{} flat", strategy.name()));
    }
}

/// Every paper strategy plus the tiered strategy on a 3-tier hierarchy
/// with a mixed failure-class preset (shallow + system severities).
#[test]
fn engine_is_bit_identical_across_backends_tiered_mixed_classes() {
    let p = diff_platform();
    let mix = vec![
        FailureClass::new("local", 0.5, 1),
        FailureClass::system("system", 0.5),
    ];
    let mut strategies = Strategy::all_seven().to_vec();
    strategies.push(Strategy::tiered(CheckpointPolicy::Daly));
    for strategy in strategies {
        let config = SimConfig::new(p.clone(), diff_classes(&p), strategy)
            .with_span(Duration::from_days(2.0))
            .with_tiers(geometric_tiers(&p, 3))
            .with_failure_classes(mix.clone())
            .with_trace();
        assert_backends_identical(&config, 13, &format!("{} tiered+mixed", strategy.name()));
    }
}
