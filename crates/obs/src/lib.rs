//! Zero-cost-when-off telemetry for the coopckpt workspace.
//!
//! A process-wide registry of named monotonic [`Counter`]s, log₂-bucketed
//! value [`Hist`]ograms, and RAII [`span`] timers over simulation
//! [`Phase`]s. Telemetry is **off by default**: every recording entry
//! point starts with a single relaxed [`AtomicBool`] load and returns
//! immediately, so instrumented hot paths cost one predictable branch.
//! Enabling it (via [`init`], [`init_from_env`], or [`set_enabled`]) only
//! ever changes what is *recorded* — instrumented code must never branch
//! on telemetry to alter simulated results, and `tests/telemetry_semantics.rs`
//! asserts reports stay bit-identical with telemetry on vs. off.
//!
//! # Scopes
//!
//! Recordings always accumulate into a process-wide root scope
//! ([`totals`]) and, additionally, into the innermost [`Scope`] the
//! current thread has [`enter`]ed. Campaign workers give each point its
//! own scope so per-point queue/cache deltas survive concurrent
//! execution; worker threads spawned *inside* a point adopt the parent's
//! scope via [`current_scope`] + [`enter`].
//!
//! # Journal
//!
//! [`journal_line`] appends one line to the JSON-lines run journal when
//! one was configured with [`init`]. Callers build the record text
//! themselves (the `coopckpt` crate uses its `json` module) — this crate
//! stays a leaf below the JSON layer.

use std::cell::RefCell;
use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

pub mod p2;

pub use p2::P2Quantile;

/// Monotonic event counters. Phase timers accumulate elapsed nanoseconds
/// under the same mechanism (`*Ns` variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Events scheduled into the DES queue.
    QueueInserts,
    /// Events physically cancelled before firing.
    QueueCancels,
    /// Events popped and dispatched.
    QueuePops,
    /// Calendar-queue bucket-array rebuilds.
    QueueResizes,
    /// Operating-point cache probes (`OpPointCache::run_all`).
    OpCacheLookups,
    /// ... of which were already memoized.
    OpCacheHits,
    /// ... of which ran the Monte-Carlo sweep.
    OpCacheMisses,
    /// On-disk campaign result-cache probes.
    ResultCacheLookups,
    /// ... served from disk.
    ResultCacheHits,
    /// ... recomputed.
    ResultCacheMisses,
    /// I/O requests that had to queue for a PFS token.
    TokenWaits,
    /// Checkpoints absorbed token-free by a storage tier.
    TierAbsorbs,
    /// Tier admissions refused for lack of room (spilled downward).
    TierSpills,
    /// Background drain transfers completed.
    TierDrains,
    /// RNG substream jumps (`Xoshiro256pp::jump`).
    RngSubstreamDraws,
    /// Nanoseconds generating failure traces and workloads.
    TraceGenNs,
    /// Nanoseconds replaying events through the engine.
    ReplayNs,
    /// Nanoseconds rendering reports.
    RenderNs,
    /// Nanoseconds across individual Monte-Carlo samples.
    SampleNs,
}

/// Number of [`Counter`] variants (array sizing).
pub const NUM_COUNTERS: usize = 19;

impl Counter {
    /// Every counter, in declaration order.
    pub const ALL: [Counter; NUM_COUNTERS] = [
        Counter::QueueInserts,
        Counter::QueueCancels,
        Counter::QueuePops,
        Counter::QueueResizes,
        Counter::OpCacheLookups,
        Counter::OpCacheHits,
        Counter::OpCacheMisses,
        Counter::ResultCacheLookups,
        Counter::ResultCacheHits,
        Counter::ResultCacheMisses,
        Counter::TokenWaits,
        Counter::TierAbsorbs,
        Counter::TierSpills,
        Counter::TierDrains,
        Counter::RngSubstreamDraws,
        Counter::TraceGenNs,
        Counter::ReplayNs,
        Counter::RenderNs,
        Counter::SampleNs,
    ];

    /// Stable snake_case name used in reports and journals.
    pub fn name(self) -> &'static str {
        match self {
            Counter::QueueInserts => "queue_inserts",
            Counter::QueueCancels => "queue_cancels",
            Counter::QueuePops => "queue_pops",
            Counter::QueueResizes => "queue_resizes",
            Counter::OpCacheLookups => "op_cache_lookups",
            Counter::OpCacheHits => "op_cache_hits",
            Counter::OpCacheMisses => "op_cache_misses",
            Counter::ResultCacheLookups => "result_cache_lookups",
            Counter::ResultCacheHits => "result_cache_hits",
            Counter::ResultCacheMisses => "result_cache_misses",
            Counter::TokenWaits => "token_waits",
            Counter::TierAbsorbs => "tier_absorbs",
            Counter::TierSpills => "tier_spills",
            Counter::TierDrains => "tier_drains",
            Counter::RngSubstreamDraws => "rng_substream_draws",
            Counter::TraceGenNs => "trace_gen_ns",
            Counter::ReplayNs => "replay_ns",
            Counter::RenderNs => "render_ns",
            Counter::SampleNs => "sample_ns",
        }
    }

    /// True for the `*Ns` phase-time accumulators.
    pub fn is_phase_ns(self) -> bool {
        matches!(
            self,
            Counter::TraceGenNs | Counter::ReplayNs | Counter::RenderNs | Counter::SampleNs
        )
    }
}

/// Value histograms (log₂ buckets plus exact count / sum / max).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// Calendar buckets examined per `next_slot` query.
    QueueBucketScans,
    /// Bucket occupancy observed after each calendar insert.
    QueueBucketOccupancy,
    /// Bitset words examined per successful `NodePool` allocation.
    PoolScanWords,
    /// `peak_live_jobs` at the end of each simulated instance.
    PeakLiveJobs,
    /// Calendar entries compared per `next_slot` query: the lengths of
    /// the buckets it walked.
    QueueEntryScans,
    /// The engine's job-slab length at the end of each simulated
    /// instance: its high-water mark of resident job slots.
    JobSlots,
}

/// Number of [`Hist`] variants (array sizing).
pub const NUM_HISTS: usize = 6;

impl Hist {
    /// Every histogram, in declaration order.
    pub const ALL: [Hist; NUM_HISTS] = [
        Hist::QueueBucketScans,
        Hist::QueueBucketOccupancy,
        Hist::PoolScanWords,
        Hist::PeakLiveJobs,
        Hist::QueueEntryScans,
        Hist::JobSlots,
    ];

    /// Stable snake_case name used in reports and journals.
    pub fn name(self) -> &'static str {
        match self {
            Hist::QueueBucketScans => "queue_bucket_scans",
            Hist::QueueBucketOccupancy => "queue_bucket_occupancy",
            Hist::PoolScanWords => "pool_scan_words",
            Hist::PeakLiveJobs => "peak_live_jobs",
            Hist::QueueEntryScans => "queue_entry_scans",
            Hist::JobSlots => "job_slots",
        }
    }
}

/// Profiled simulation phases (see [`span`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Failure-trace and workload generation.
    TraceGen,
    /// Event replay through the engine (`sim.run`).
    Replay,
    /// Report rendering.
    Render,
    /// One full Monte-Carlo sample (feeds the sample-time quantiles).
    Sample,
}

impl Phase {
    fn counter(self) -> Counter {
        match self {
            Phase::TraceGen => Counter::TraceGenNs,
            Phase::Replay => Counter::ReplayNs,
            Phase::Render => Counter::RenderNs,
            Phase::Sample => Counter::SampleNs,
        }
    }
}

/// Log₂ bucket count: bucket 0 holds value 0, bucket `k ≥ 1` holds
/// `[2^(k−1), 2^k)`; the top bucket absorbs everything beyond 2²².
const HIST_BUCKETS: usize = 24;

fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

#[derive(Debug)]
struct HistBins {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl HistBins {
    fn new() -> HistBins {
        HistBins {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn observe(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Merges a pre-aggregated batch: `count` observations totalling
    /// `sum` with maximum `max`. Count, sum and max stay exact; bucket
    /// attribution uses the batch mean (batching callers trade bucket
    /// shape for zero per-observation cost).
    fn merge(&self, count: u64, sum: u64, max: u64) {
        if count == 0 {
            return;
        }
        self.count.fetch_add(count, Ordering::Relaxed);
        self.sum.fetch_add(sum, Ordering::Relaxed);
        self.max.fetch_max(max, Ordering::Relaxed);
        self.buckets[bucket_of(sum / count)].fetch_add(count, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// Sample-time quantile state (P² needs `&mut`, hence the mutex; samples
/// are milliseconds-scale, so contention is negligible).
#[derive(Debug)]
struct SampleTimes {
    p50: P2Quantile,
    p95: P2Quantile,
    max_ns: u64,
}

impl SampleTimes {
    fn new() -> SampleTimes {
        SampleTimes {
            p50: P2Quantile::new(0.5),
            p95: P2Quantile::new(0.95),
            max_ns: 0,
        }
    }
}

/// One attribution bucket: counters + histograms + sample-time quantiles.
#[derive(Debug)]
pub struct ScopeStats {
    counters: [AtomicU64; NUM_COUNTERS],
    hists: [HistBins; NUM_HISTS],
    samples: Mutex<SampleTimes>,
}

impl ScopeStats {
    fn new() -> ScopeStats {
        ScopeStats {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            hists: std::array::from_fn(|_| HistBins::new()),
            samples: Mutex::new(SampleTimes::new()),
        }
    }

    fn snapshot(&self) -> Snapshot {
        let samples = {
            let t = lock(&self.samples);
            SampleSnapshot {
                count: t.p50.count() as u64,
                p50_ns: t.p50.estimate().unwrap_or(0.0),
                p95_ns: t.p95.estimate().unwrap_or(0.0),
                max_ns: t.max_ns,
            }
        };
        Snapshot {
            counters: std::array::from_fn(|i| self.counters[i].load(Ordering::Relaxed)),
            hists: std::array::from_fn(|i| self.hists[i].snapshot()),
            samples,
        }
    }
}

/// A cloneable handle to a [`ScopeStats`] attribution bucket.
#[derive(Debug, Clone)]
pub struct Scope(Arc<ScopeStats>);

impl Scope {
    /// Reads the scope's accumulated state.
    pub fn snapshot(&self) -> Snapshot {
        self.0.snapshot()
    }
}

/// Point-in-time read of one histogram.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// Log₂ occupancy counts (see [`Hist`] docs for the bucket rule).
    pub buckets: [u64; HIST_BUCKETS],
}

impl HistSnapshot {
    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Point-in-time read of the Monte-Carlo sample-time distribution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SampleSnapshot {
    /// Samples timed.
    pub count: u64,
    /// P² median sample time, nanoseconds.
    pub p50_ns: f64,
    /// P² 95th-percentile sample time, nanoseconds.
    pub p95_ns: f64,
    /// Slowest sample, nanoseconds.
    pub max_ns: u64,
}

/// Point-in-time read of a whole scope.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    counters: [u64; NUM_COUNTERS],
    hists: [HistSnapshot; NUM_HISTS],
    /// Sample-time quantiles.
    pub samples: SampleSnapshot,
}

impl Snapshot {
    /// The counter's value.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// The histogram's state.
    pub fn hist(&self, h: Hist) -> &HistSnapshot {
        &self.hists[h as usize]
    }
}

// --- Process-wide state -----------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static JOURNAL: Mutex<Option<File>> = Mutex::new(None);

fn root() -> &'static ScopeStats {
    static ROOT: OnceLock<ScopeStats> = OnceLock::new();
    ROOT.get_or_init(ScopeStats::new)
}

thread_local! {
    /// The innermost entered scope; `None` means root-only recording.
    static CURRENT: RefCell<Option<Arc<ScopeStats>>> = const { RefCell::new(None) };
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Telemetry must never take the process down; ignore poisoning.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether telemetry is recording. Inlined so disabled call sites cost
/// one relaxed load and a branch.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off (tests; production uses [`init`]).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Enables telemetry, optionally routing the run journal to `journal`
/// (created/truncated). `init(None)` records counters without a journal.
pub fn init(journal: Option<&Path>) -> std::io::Result<()> {
    let file = match journal {
        Some(p) => Some(File::create(p)?),
        None => None,
    };
    *lock(&JOURNAL) = file;
    set_enabled(true);
    Ok(())
}

/// Applies the `COOPCKPT_TELEMETRY` environment variable: unset or empty
/// leaves telemetry off; `1`/`true` enables counters without a journal;
/// anything else is the journal path.
pub fn init_from_env() -> std::io::Result<()> {
    match std::env::var("COOPCKPT_TELEMETRY") {
        Ok(v) if v.is_empty() => Ok(()),
        Ok(v) if v == "1" || v == "true" => {
            set_enabled(true);
            Ok(())
        }
        Ok(v) => init(Some(Path::new(&v))),
        Err(_) => Ok(()),
    }
}

/// Appends one line to the run journal, if telemetry is on and a journal
/// was configured. Lines are flushed eagerly so a stalled run still
/// leaves a readable journal.
pub fn journal_line(line: &str) {
    if !enabled() {
        return;
    }
    if let Some(f) = lock(&JOURNAL).as_mut() {
        let _ = writeln!(f, "{line}");
        let _ = f.flush();
    }
}

/// Applies `f` to the root scope and, when the thread has entered one,
/// the current scope.
#[inline]
fn record(f: impl Fn(&ScopeStats)) {
    f(root());
    CURRENT.with(|c| {
        if let Some(s) = c.borrow().as_deref() {
            f(s);
        }
    });
}

/// Adds `n` to a counter. No-op when telemetry is off.
#[inline]
pub fn count(c: Counter, n: u64) {
    if !enabled() {
        return;
    }
    record(|s| {
        s.counters[c as usize].fetch_add(n, Ordering::Relaxed);
    });
}

/// Records one histogram observation. No-op when telemetry is off.
#[inline]
pub fn observe(h: Hist, v: u64) {
    if !enabled() {
        return;
    }
    record(|s| s.hists[h as usize].observe(v));
}

/// Merges a pre-aggregated batch of observations — `count` of them,
/// totalling `sum`, with maximum `max` — into `h`. Hot loops that cannot
/// afford a per-observation call accumulate plain local counters and
/// publish them once through this; count/sum/max stay exact, bucket
/// attribution collapses to the batch mean. No-op when telemetry is off
/// or `count` is zero.
#[inline]
pub fn observe_batch(h: Hist, count: u64, sum: u64, max: u64) {
    if !enabled() {
        return;
    }
    record(|s| s.hists[h as usize].merge(count, sum, max));
}

/// An RAII phase timer; elapsed wall-clock nanoseconds are added to the
/// phase's counter on drop. [`Phase::Sample`] spans additionally feed the
/// sample-time quantiles.
#[must_use = "a span records on drop; bind it to a variable for the phase's duration"]
#[derive(Debug)]
pub struct Span(Option<SpanInner>);

#[derive(Debug)]
struct SpanInner {
    phase: Phase,
    start: Instant,
}

/// Starts timing a phase. When telemetry is off the returned guard is
/// empty and its drop does nothing.
#[inline]
pub fn span(phase: Phase) -> Span {
    if !enabled() {
        return Span(None);
    }
    Span(Some(SpanInner {
        phase,
        start: Instant::now(),
    }))
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.0.take() else { return };
        let ns = inner.start.elapsed().as_nanos() as u64;
        record(|s| {
            s.counters[inner.phase.counter() as usize].fetch_add(ns, Ordering::Relaxed);
            if inner.phase == Phase::Sample {
                let mut t = lock(&s.samples);
                t.p50.push(ns as f64);
                t.p95.push(ns as f64);
                t.max_ns = t.max_ns.max(ns);
            }
        });
    }
}

/// Creates a fresh attribution scope.
pub fn new_scope() -> Scope {
    Scope(Arc::new(ScopeStats::new()))
}

/// The scope the current thread records into, if any (and telemetry is
/// on). Worker threads pass this handle to children so their recordings
/// attribute to the same campaign point.
pub fn current_scope() -> Option<Scope> {
    if !enabled() {
        return None;
    }
    CURRENT.with(|c| c.borrow().clone().map(Scope))
}

/// Restores the previously entered scope on drop.
#[must_use = "dropping the guard immediately exits the scope"]
#[derive(Debug)]
pub struct ScopeGuard {
    prev: Option<Arc<ScopeStats>>,
}

/// Makes `scope` the current thread's attribution target until the
/// returned guard drops (which restores the previous target).
pub fn enter(scope: &Scope) -> ScopeGuard {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(scope.0.clone()));
    ScopeGuard { prev }
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// Reads the process-wide totals (the root scope).
pub fn totals() -> Snapshot {
    root().snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Process-global state: every test that flips ENABLED or records
    /// must hold this.
    fn guard() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        lock(&GATE)
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = guard();
        set_enabled(false);
        let before = totals();
        count(Counter::QueueInserts, 7);
        observe(Hist::PoolScanWords, 3);
        drop(span(Phase::Replay));
        assert_eq!(totals(), before);
    }

    #[test]
    fn counters_and_hists_accumulate() {
        let _g = guard();
        set_enabled(true);
        let before = totals();
        count(Counter::QueueInserts, 2);
        count(Counter::QueueInserts, 3);
        observe(Hist::PoolScanWords, 4);
        observe(Hist::PoolScanWords, 10);
        set_enabled(false);
        let after = totals();
        assert_eq!(
            after.counter(Counter::QueueInserts) - before.counter(Counter::QueueInserts),
            5
        );
        let (h0, h1) = (
            before.hist(Hist::PoolScanWords).clone(),
            after.hist(Hist::PoolScanWords).clone(),
        );
        assert_eq!(h1.count - h0.count, 2);
        assert_eq!(h1.sum - h0.sum, 14);
        assert!(h1.max >= 10);
        let bucket_total: u64 = h1.buckets.iter().sum();
        assert_eq!(bucket_total, h1.count);
    }

    #[test]
    fn scopes_attribute_and_nest() {
        let _g = guard();
        set_enabled(true);
        let outer = new_scope();
        let inner = new_scope();
        {
            let _o = enter(&outer);
            count(Counter::QueuePops, 1);
            {
                let _i = enter(&inner);
                count(Counter::QueuePops, 10);
            }
            // Guard dropped: back to outer.
            count(Counter::QueuePops, 100);
        }
        set_enabled(false);
        assert_eq!(outer.snapshot().counter(Counter::QueuePops), 101);
        assert_eq!(inner.snapshot().counter(Counter::QueuePops), 10);
    }

    #[test]
    fn scope_handles_cross_threads() {
        let _g = guard();
        set_enabled(true);
        let scope = new_scope();
        let handle = {
            let _s = enter(&scope);
            current_scope().expect("entered scope is current")
        };
        std::thread::scope(|s| {
            s.spawn(|| {
                let _s = enter(&handle);
                count(Counter::RngSubstreamDraws, 5);
            });
        });
        set_enabled(false);
        assert_eq!(scope.snapshot().counter(Counter::RngSubstreamDraws), 5);
    }

    #[test]
    fn sample_spans_feed_quantiles() {
        let _g = guard();
        set_enabled(true);
        let scope = new_scope();
        {
            let _s = enter(&scope);
            for _ in 0..8 {
                drop(span(Phase::Sample));
            }
        }
        set_enabled(false);
        let snap = scope.snapshot();
        assert_eq!(snap.samples.count, 8);
        assert!(snap.samples.max_ns >= snap.samples.p50_ns as u64 / 2);
        assert!(snap.counter(Counter::SampleNs) >= snap.samples.max_ns);
    }

    #[test]
    fn bucket_rule() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn names_are_stable_and_unique() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.extend(Hist::ALL.iter().map(|h| h.name()));
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "telemetry names must be unique");
        assert!(Counter::SampleNs.is_phase_ns());
        assert!(!Counter::QueuePops.is_phase_ns());
    }
}
