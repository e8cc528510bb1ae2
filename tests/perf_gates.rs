//! Same-run performance gates for the event queue and the sample pool.
//!
//! Every gate compares two kernels timed back to back in one process, so
//! the host's speed cancels out and no baseline file is needed:
//!
//! * **pool floor**: a one-point 32-sample suite must run faster on the
//!   shared pool (`threads` 0) than on one thread, by a floor that scales
//!   with the core count (`pool_speedup_floor`);
//! * **queue regression**: on a 10k-event schedule, calendar-queue time
//!   over heap-oracle time may exceed a reference ratio
//!   (`QUEUE_RATIO_REF`) by at most 25%;
//! * **cancel-heavy**: on the cancel-heavy kernel the calendar queue must
//!   beat the heap oracle by at least 5×.
//!
//! Timing unoptimized code proves nothing, so the timed gates compile
//! only in release builds:
//!
//! ```text
//! cargo test --release -q -p coopckpt-suite --test perf_gates
//! ```
//!
//! They also compile under clippy, which checks code but never runs it,
//! so a debug `cargo clippy --all-targets` lints them too.

/// The pool gate's floor by core count. `None` skips the gate: one core
/// has no parallelism to exploit. Two or three cores leave little
/// headroom after scheduling overhead; four and up must show 2×.
fn pool_speedup_floor(cores: usize) -> Option<f64> {
    match cores {
        0 | 1 => None,
        2 | 3 => Some(1.2),
        _ => Some(2.0),
    }
}

#[test]
fn pool_gate_floor_scales_with_core_count() {
    assert_eq!(pool_speedup_floor(1), None, "one core cannot speed up");
    assert_eq!(pool_speedup_floor(2), Some(1.2));
    assert_eq!(pool_speedup_floor(3), Some(1.2));
    assert_eq!(pool_speedup_floor(4), Some(2.0));
    assert_eq!(pool_speedup_floor(64), Some(2.0));
}

#[cfg(any(not(debug_assertions), clippy))]
mod timed {
    use std::hint::black_box;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use coopckpt::campaign::{run_suite, CampaignOptions, Suite};
    use coopckpt::montecarlo::OpPointCache;
    use coopckpt_des::{EventQueue, Time};
    use coopckpt_failure::Xoshiro256pp;

    use super::pool_speedup_floor;

    /// Calendar time over heap-oracle time on [`event_queue_10k`]: the
    /// median of 12 release runs of this file at commit `51b8d55` on a
    /// 2-vCPU Linux VM.
    const QUEUE_RATIO_REF: f64 = 0.706;

    /// The queue-regression gate's allowed rise over [`QUEUE_RATIO_REF`].
    const QUEUE_REGRESSION: f64 = 0.25;

    /// The cancel-heavy gate's floor on heap-oracle time over calendar
    /// time.
    const MIN_CANCEL_SPEEDUP: f64 = 5.0;

    /// Back-to-back pairs timed per gate. One pair on a shared 2-vCPU VM
    /// read the cancel-heavy speedup anywhere in 3.1–7.7×; the median of
    /// five pairs holds still enough to gate.
    const ROUNDS: usize = 5;

    /// Median wall time of `routine`: a 50 ms warm-up, then back-to-back
    /// timed calls for 300 ms.
    fn median_time<O>(mut routine: impl FnMut() -> O) -> f64 {
        let warm_until = Instant::now() + Duration::from_millis(50);
        while Instant::now() < warm_until {
            black_box(routine());
        }
        let mut samples = Vec::new();
        let measure_until = Instant::now() + Duration::from_millis(300);
        while Instant::now() < measure_until {
            let start = Instant::now();
            black_box(routine());
            samples.push(start.elapsed().as_secs_f64());
        }
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    }

    /// `ROUNDS` readings of `median_time(a) / median_time(b)`, each timing
    /// `a` first and `b` right after, sorted.
    fn ratios<O>(mut a: impl FnMut() -> O, mut b: impl FnMut() -> O) -> Vec<f64> {
        let mut ratios: Vec<f64> = (0..ROUNDS)
            .map(|_| median_time(&mut a) / median_time(&mut b))
            .collect();
        ratios.sort_by(f64::total_cmp);
        ratios
    }

    /// Schedules every time in `times` on a fresh queue, then drains it.
    fn event_queue_10k(new_queue: fn() -> EventQueue<usize>, times: &[f64]) -> usize {
        let mut q = new_queue();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Time::from_secs(t), i);
        }
        let mut n = 0;
        while q.pop().is_some() {
            n += 1;
        }
        n
    }

    /// The engine's dominant pattern at campaign scale: checkpoint-due and
    /// milestone events scheduled far ahead and almost always cancelled
    /// before they fire, on top of a large standing population of live
    /// timers. The calendar queue removes a cancelled event in O(1); the
    /// heap oracle pays a deep sift plus two `HashMap` touches per churned
    /// event and keeps far-future tombstones until its compaction sweep.
    fn cancel_heavy(new_queue: fn() -> EventQueue<usize>) -> usize {
        let mut q = new_queue();
        // The standing population: live far-future timers that survive
        // the whole churn phase.
        for i in 0..100_000 {
            q.schedule(Time::from_secs(1e7 + i as f64 * 100.0), i);
        }
        // The churn: batches scheduled far ahead, all but one cancelled
        // before anything fires.
        let mut t = 0.0f64;
        for round in 0..4000 {
            let keys: Vec<_> = (0..64)
                .map(|i| {
                    t += 1.0;
                    q.schedule(Time::from_secs(t + 1e7), round * 64 + i)
                })
                .collect();
            for k in &keys[1..] {
                q.cancel(*k);
            }
        }
        let mut n = 0;
        while q.pop().is_some() {
            n += 1;
        }
        n
    }

    /// Runs `suite` on `threads` threads (0 = one per core) with a fresh
    /// operating-point cache, so every sample simulates.
    fn run_fresh(suite: &Suite, threads: usize) -> usize {
        let opts = CampaignOptions {
            threads,
            cache: None,
            op_cache: Some(Arc::new(OpPointCache::new())),
        };
        run_suite(suite, &opts).expect("suite runs").entries.len()
    }

    /// The three gates in sequence, in one test, so that nothing else
    /// runs beside the pool gate. The pool gate goes first: run after the
    /// queue kernels, the pooled arm read slower than one thread
    /// (0.88–0.96×) in 3 of 3 runs on a 2-vCPU VM. `QUEUE_RATIO_REF` was
    /// measured with this exact sequence, so the order is part of the
    /// gate.
    #[test]
    fn same_run_gates_hold() {
        let mut failures = Vec::new();
        let range = |r: &[f64]| format!("rounds {:.3}–{:.3}", r[0], r[ROUNDS - 1]);

        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        match pool_speedup_floor(cores) {
            None => println!("pool floor: skipped on one core"),
            Some(floor) => {
                let suite = Suite::parse(
                    r#"{
                        "name": "bigpoint",
                        "base": {
                            "platform": {"preset": "cielo", "bandwidth_gbps": 40},
                            "span_days": 0.25,
                            "samples": 32,
                            "seed": 7
                        },
                        "grid": {"strategy": ["least-waste"]}
                    }"#,
                )
                .expect("one-point suite parses");
                let r = ratios(|| run_fresh(&suite, 0), || run_fresh(&suite, 1));
                let speedup = 1.0 / r[ROUNDS / 2];
                println!(
                    "pool floor: threads 1 / threads 0 {speedup:.2}x \
                     (pooled/one-thread {}; floor {floor}x on {cores} cores)",
                    range(&r)
                );
                if speedup < floor {
                    failures.push(format!(
                        "pool floor: a one-point suite is only {speedup:.2}x faster on \
                         the pool than on one thread (required ≥{floor}x on {cores} cores)"
                    ));
                }
            }
        }

        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let times: Vec<f64> = (0..10_000).map(|_| rng.next_f64() * 1e6).collect();
        let r = ratios(
            || event_queue_10k(EventQueue::new, &times),
            || event_queue_10k(EventQueue::heap_oracle, &times),
        );
        let ratio = r[ROUNDS / 2];
        let limit = (1.0 + QUEUE_REGRESSION) * QUEUE_RATIO_REF;
        println!(
            "queue regression: calendar/heap {ratio:.3} on event_queue_10k \
             ({}; limit {limit:.3})",
            range(&r)
        );
        if ratio > limit {
            failures.push(format!(
                "queue regression: calendar/heap {ratio:.3} on event_queue_10k exceeds \
                 {limit:.3} ({QUEUE_RATIO_REF} + {:.0}%)",
                QUEUE_REGRESSION * 100.0
            ));
        }

        let r = ratios(
            || cancel_heavy(EventQueue::new),
            || cancel_heavy(EventQueue::heap_oracle),
        );
        let speedup = 1.0 / r[ROUNDS / 2];
        println!(
            "cancel-heavy: heap/calendar {speedup:.2}x \
             (calendar/heap {}; floor {MIN_CANCEL_SPEEDUP}x)",
            range(&r)
        );
        if speedup < MIN_CANCEL_SPEEDUP {
            failures.push(format!(
                "cancel-heavy: the calendar queue is only {speedup:.2}x faster than the \
                 heap oracle (required ≥{MIN_CANCEL_SPEEDUP}x)"
            ));
        }

        assert!(failures.is_empty(), "{}", failures.join("\n"));
    }
}
