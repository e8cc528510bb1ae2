//! Parallel Monte-Carlo execution of simulation instances.
//!
//! The paper's methodology (Section 5) runs ≥1000 randomized instances per
//! operating point and reports candlestick statistics of the waste ratio.
//! [`run_many`] executes instances across threads; results are ordered by
//! seed, so the returned sample set is identical regardless of thread count
//! or scheduling.
//!
//! Execution rides the shared two-level executor in
//! [`coopckpt_sched::exec`]. When a campaign runner has installed an
//! *ambient pool* on this thread (see [`set_ambient_pool`]), a batch is
//! submitted there as seed-range chunks and the calling thread joins it —
//! executing chunks itself while idle campaign workers steal the rest, so
//! one big point saturates every worker without spawning extra threads.
//! `run_points` is the worker loop that installs it, for campaign
//! suites and sweeps alike. Without an ambient pool (a plain `run`), a
//! transient standalone pool of `mc.threads` threads runs the batch.

use crate::sim::{
    run_simulation, FailureClass, FailureModel, InterferenceKind, PowerModel, SimConfig, SimResult,
    TierSpec,
};
use crate::strategy::{CheckpointPolicy, Strategy};
use coopckpt_model::{AppClass, Platform};
use coopckpt_stats::Samples;
use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// How many instances to run and how.
#[derive(Debug, Clone)]
pub struct MonteCarloConfig {
    /// Number of instances (seeds `base_seed.wrapping_add(0..samples)`).
    pub samples: usize,
    /// First seed. Instance seeds advance with **wrapping** arithmetic,
    /// so a base near `u64::MAX` walks around zero instead of panicking
    /// ([`Scenario`](crate::scenario::Scenario) parsing rejects such
    /// combinations up front; direct library users get the wrap).
    pub base_seed: u64,
    /// Worker threads; 0 = one per available core. Ignored when an
    /// ambient campaign pool owns the machine (see [`set_ambient_pool`]).
    pub threads: usize,
}

impl MonteCarloConfig {
    /// `samples` instances starting at seed 1, one thread per core.
    pub fn new(samples: usize) -> Self {
        MonteCarloConfig {
            samples,
            base_seed: 1,
            threads: 0,
        }
    }

    /// Overrides the base seed.
    pub fn with_base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Overrides the thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    fn effective_threads(&self, samples: usize) -> usize {
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let t = if self.threads == 0 { hw } else { self.threads };
        t.clamp(1, samples.max(1))
    }
}

/// The simulation-batch pool type: context = the operating point's
/// config, unit = one seeded instance.
pub type SimPool = coopckpt_sched::exec::Pool<SimConfig, SimResult>;

thread_local! {
    /// The campaign pool this thread's Monte-Carlo batches should be
    /// submitted to, if a campaign runner owns the machine.
    static AMBIENT_POOL: RefCell<Option<Arc<SimPool>>> = const { RefCell::new(None) };
}

/// Restores the previous ambient pool when dropped.
pub struct AmbientPoolGuard {
    prev: Option<Arc<SimPool>>,
}

impl Drop for AmbientPoolGuard {
    fn drop(&mut self) {
        AMBIENT_POOL.with(|slot| *slot.borrow_mut() = self.prev.take());
    }
}

/// Installs `pool` as this thread's ambient simulation pool until the
/// returned guard drops. While installed, every [`run_many`]/[`run_all`]
/// batch from this thread is submitted to `pool` as seed-range chunks
/// (the caller joins, executing chunks itself) instead of spawning its
/// own threads — the campaign's worker count stays the *total* thread
/// count, and idle workers steal sample chunks across points.
pub fn set_ambient_pool(pool: Arc<SimPool>) -> AmbientPoolGuard {
    AmbientPoolGuard {
        prev: AMBIENT_POOL.with(|slot| slot.borrow_mut().replace(pool)),
    }
}

/// Builds a simulation pool sized for `workers` threads (chunk
/// granularity only — threads donate themselves via join/help).
pub fn sim_pool(workers: usize) -> Arc<SimPool> {
    Arc::new(coopckpt_sched::exec::Pool::new(workers, sim_unit))
}

/// The worker loop behind campaign suites and sweeps: calls
/// `task(i, worker)` once for every point `i in 0..n` and returns the
/// results in point order, or the first error (points not yet claimed
/// are then skipped). A panicking task stops the claiming the same way,
/// and its panic is re-raised here once every worker has returned.
///
/// `threads` (0 = one per core) is the **total** simulation thread
/// count. Each worker claims points through an atomic cursor and
/// installs one shared [`sim_pool`] as its ambient pool, so every
/// point's Monte-Carlo batch is enqueued as seed-range chunks that any
/// worker can steal — workers out of points keep helping until the last
/// point completes. Samples reduce in seed order, so results are
/// bit-identical at any thread count.
///
/// When the calling thread already has an ambient pool (a campaign
/// worker running a sweep point), the points run here, in order, and
/// their chunks feed that pool instead: the campaign's thread count
/// stays the total. Workers record telemetry into the caller's scope.
pub(crate) fn run_points<T, E, F>(n: usize, threads: usize, task: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize, usize) -> Result<T, E> + Sync,
{
    if AMBIENT_POOL.with(|slot| slot.borrow().is_some()) {
        return (0..n).map(|i| task(i, 0)).collect();
    }
    let hw = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    // Not clamped to the point count: with more workers than points the
    // surplus threads still shard samples inside the points.
    let workers = (if threads == 0 { hw } else { threads }).max(1);
    let pool = sim_pool(workers);
    let obs_scope = coopckpt_obs::current_scope();
    let next = AtomicUsize::new(0);
    // Points claimed but not yet finished; point-less workers keep
    // helping until the cursor is exhausted *and* this reaches zero.
    let active = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    let failure: Mutex<Option<E>> = Mutex::new(None);
    let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for worker in 0..workers {
            // `move` is only for the worker index; everything else is
            // captured as a shared borrow.
            let (pool, obs_scope, next, active, slots, failure, panicked, task) = (
                &pool, &obs_scope, &next, &active, &slots, &failure, &panicked, &task,
            );
            scope.spawn(move || {
                let _ambient = set_ambient_pool(Arc::clone(pool));
                let _obs = obs_scope.as_ref().map(coopckpt_obs::enter);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    active.fetch_add(1, Ordering::SeqCst);
                    let finished = match panic::catch_unwind(AssertUnwindSafe(|| task(i, worker))) {
                        Ok(Ok(value)) => {
                            slots.lock().unwrap()[i] = Some(value);
                            true
                        }
                        Ok(Err(e)) => {
                            failure.lock().unwrap().get_or_insert(e);
                            false
                        }
                        Err(payload) => {
                            panicked.lock().unwrap().get_or_insert(payload);
                            false
                        }
                    };
                    if !finished {
                        // Park the cursor so idle workers stop claiming
                        // points (in-flight ones finish harmlessly).
                        next.store(n, Ordering::Relaxed);
                    }
                    active.fetch_sub(1, Ordering::SeqCst);
                    // A help_until condition below may have just become
                    // true; wake the waiters so they re-check.
                    pool.notify();
                    if !finished {
                        break;
                    }
                }
                // Out of points: keep executing other points' sample
                // chunks until every claimed point has finished. (A
                // point claimed between our cursor read and this check
                // may slip by and complete owner-only — harmless, its
                // owner drains its own job.)
                pool.help_until(|| {
                    next.load(Ordering::Relaxed) >= n && active.load(Ordering::SeqCst) == 0
                });
            });
        }
    });
    if let Some(payload) = panicked.into_inner().unwrap() {
        panic::resume_unwind(payload);
    }
    if let Some(e) = failure.into_inner().unwrap() {
        return Err(e);
    }
    Ok(slots
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|slot| slot.expect("every point completed"))
        .collect())
}

/// One executor unit: a single seeded instance, timed as a sample span
/// in whatever telemetry scope the executing chunk entered.
fn sim_unit(config: &SimConfig, seed: u64) -> SimResult {
    let _span = coopckpt_obs::span(coopckpt_obs::Phase::Sample);
    run_simulation(config, seed)
}

/// The shared thread-pool core: runs `mc.samples` instances and returns
/// `map` applied to each result, ordered by seed (deterministic across
/// thread counts, chunk sizes and scheduling).
fn run_map<T, F>(config: &SimConfig, mc: &MonteCarloConfig, map: F) -> Vec<T>
where
    T: Send,
    F: Fn(SimResult) -> T + Sync,
{
    assert!(mc.samples > 0, "at least one sample required");
    let n = mc.samples;
    let results = match AMBIENT_POOL.with(|slot| slot.borrow().clone()) {
        // A campaign owns the machine: enqueue there and help drain it.
        // The pool captures the caller's telemetry scope, so samples
        // stolen by other workers still bill to this point.
        Some(pool) => {
            let job = pool.submit(Arc::new(config.clone()), mc.base_seed, n);
            pool.join(&job)
        }
        // Standalone run: a transient pool of our own threads.
        None => coopckpt_sched::exec::run_standalone(
            mc.effective_threads(n),
            Arc::new(config.clone()),
            mc.base_seed,
            n,
            sim_unit,
        ),
    };
    results.into_iter().map(map).collect()
}

/// Runs `mc.samples` instances of `config` and returns `metric` evaluated
/// on each result, ordered by seed (deterministic across thread counts).
pub fn run_many_by<F>(config: &SimConfig, mc: &MonteCarloConfig, metric: F) -> Samples
where
    F: Fn(&SimResult) -> f64 + Sync,
{
    run_map(config, mc, |r| metric(&r)).into_iter().collect()
}

/// Runs `mc.samples` instances and returns their waste ratios (the paper's
/// headline metric), ordered by seed.
pub fn run_many(config: &SimConfig, mc: &MonteCarloConfig) -> Samples {
    run_many_by(config, mc, |r| r.waste_ratio)
}

/// Runs `mc.samples` instances and returns the full [`SimResult`] per
/// instance, ordered by seed. Used when a report needs more than one
/// metric (waste *and* utilization *and* counters) without paying for the
/// simulations twice.
pub fn run_all(config: &SimConfig, mc: &MonteCarloConfig) -> Vec<SimResult> {
    run_map(config, mc, |r| r)
}

/// A cache slot: filled once, then shared by every caller of the point.
type OpPointSlot = Arc<OnceLock<Arc<Vec<SimResult>>>>;

/// A memoizing front end to [`run_all`]: one entry per *operating point*,
/// shared behind an `Arc` so repeated evaluations of the same point —
/// different assertions in a test binary, different campaign scenarios
/// that happen to coincide — pay for one set of simulated instances.
///
/// This is the library promotion of the test suites' ad-hoc
/// `steady_mean_waste` memoization. An entry is keyed on a 128-bit digest
/// of every field [`Scenario::from_config`](crate::scenario::Scenario::from_config)
/// writes, plus the sample count and base seed: the platform, the
/// classes (or, for a trace workload, its spec string instead of the
/// shape table its scan produced), strategy, span and margin,
/// interference, failure model and classes, tiers, chunking, slack and
/// power. Floats enter by bit pattern, so two configs share an entry
/// exactly when their canonical scenario texts agree. The Monte-Carlo
/// `threads` knob is documented not to affect results and is
/// deliberately *not* part of the key.
///
/// The digest is two lanes of std's `DefaultHasher` over the same field
/// stream. It lives only in memory, so it does not matter that std
/// leaves the algorithm unspecified across releases (the on-disk
/// [`ResultCache`](crate::campaign::ResultCache) has its own key). A
/// non-finite field the scenario writer would reject panics while the
/// key is built, before any lock is taken.
///
/// Fills are serialized **per key** (concurrent callers of the same point
/// block on one computation; distinct points proceed in parallel), and
/// the map lock is held only to find or insert a slot, so a campaign
/// runner sharding scenarios across threads is never funneled through a
/// global lock.
///
/// Trace-recording configs bypass the cache entirely: `record_trace` is a
/// run-mode flag outside the scenario spec, and cached entries must stay
/// trace-free.
#[derive(Default)]
pub struct OpPointCache {
    map: Mutex<HashMap<u128, OpPointSlot>>,
}

impl OpPointCache {
    /// An empty cache (for injection into runners and tests; most callers
    /// want [`OpPointCache::global`]).
    pub fn new() -> OpPointCache {
        OpPointCache::default()
    }

    /// The process-wide shared cache.
    pub fn global() -> &'static OpPointCache {
        static GLOBAL: OnceLock<OpPointCache> = OnceLock::new();
        GLOBAL.get_or_init(OpPointCache::new)
    }

    /// Number of memoized operating points.
    pub fn len(&self) -> usize {
        let map = self.map.lock().unwrap_or_else(PoisonError::into_inner);
        map.len()
    }

    /// True when nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// [`run_all`], memoized per operating point. Results are ordered by
    /// seed and shared behind an `Arc`; the first caller of a point
    /// computes (with its own `mc.threads` setting — which cannot change
    /// the results), concurrent callers of the *same* point wait for that
    /// fill, and other points are unaffected.
    pub fn run_all(&self, config: &SimConfig, mc: &MonteCarloConfig) -> Arc<Vec<SimResult>> {
        if config.record_trace {
            return Arc::new(run_all(config, mc));
        }
        coopckpt_obs::count(coopckpt_obs::Counter::OpCacheLookups, 1);
        let key = op_point_key(config, mc);
        let slot = {
            // The key is built before this lock, so a non-finite field
            // panics with no lock held; under it a lookup only inserts an
            // empty slot. The map is valid after every step, so a poisoned
            // guard is still safe to recover.
            let mut map = self.map.lock().unwrap_or_else(PoisonError::into_inner);
            map.entry(key).or_default().clone()
        };
        let mut computed = false;
        let results = slot
            .get_or_init(|| {
                computed = true;
                Arc::new(run_all(config, mc))
            })
            .clone();
        coopckpt_obs::count(
            if computed {
                coopckpt_obs::Counter::OpCacheMisses
            } else {
                coopckpt_obs::Counter::OpCacheHits
            },
            1,
        );
        results
    }
}

/// Two 64-bit `DefaultHasher` lanes fed the same field stream; the second
/// starts from one extra byte, so the lanes hash different inputs.
struct Digest([DefaultHasher; 2]);

impl Digest {
    fn new() -> Digest {
        let mut second = DefaultHasher::new();
        second.write_u8(1);
        Digest([DefaultHasher::new(), second])
    }

    fn int(&mut self, x: u64) {
        for lane in &mut self.0 {
            lane.write_u64(x);
        }
    }

    fn text(&mut self, s: &str) {
        for lane in &mut self.0 {
            s.hash(lane);
        }
    }

    /// A field the scenario writer emits as a JSON number: non-finite
    /// values panic, as the writer does.
    fn num(&mut self, x: f64) {
        assert!(x.is_finite(), "JSON cannot represent {x}");
        self.int(x.to_bits());
    }

    /// A float the scenario writer spells inside a spec string (a fixed
    /// period, a degradation exponent, a Weibull shape). That text never
    /// rejected a non-finite value and spells every NaN `NaN`, so NaNs
    /// fold to one pattern.
    fn spec_num(&mut self, x: f64) {
        self.int(if x.is_nan() { f64::NAN } else { x }.to_bits());
    }

    fn finish(&self) -> u128 {
        (u128::from(self.0[0].finish()) << 64) | u128::from(self.0[1].finish())
    }
}

/// The [`OpPointCache`] key: a digest of the fields the canonical
/// scenario of `config` holds, plus `mc`'s sample count and base seed.
/// Every struct is destructured in full, so a field added later does not
/// compile here until someone decides how it is keyed.
fn op_point_key(config: &SimConfig, mc: &MonteCarloConfig) -> u128 {
    let SimConfig {
        platform,
        classes,
        strategy,
        span,
        measure_margin,
        interference,
        failures,
        regular_io_chunks,
        workload_slack,
        tiers,
        failure_classes,
        // Trace-recording runs bypass the cache before keying.
        record_trace: _,
        power,
        workload_source,
    } = config;
    let MonteCarloConfig {
        samples,
        base_seed,
        threads: _,
    } = mc;
    let mut d = Digest::new();

    let Platform {
        name,
        nodes,
        cores_per_node,
        mem_per_node,
        pfs_bandwidth,
        node_mtbf,
    } = platform;
    d.text(name);
    d.int(*nodes as u64);
    d.int(*cores_per_node as u64);
    d.num(mem_per_node.as_bytes());
    d.num(pfs_bandwidth.as_bytes_per_sec());
    d.num(node_mtbf.as_secs());

    match workload_source {
        // A trace config is keyed by its spec: its classes are the scan
        // of that spec at this span.
        Some(spec) => {
            d.int(1);
            d.text(spec);
        }
        None => {
            d.int(0);
            d.int(classes.len() as u64);
            for class in classes {
                let AppClass {
                    name,
                    q_nodes,
                    walltime,
                    resource_share,
                    input_bytes,
                    output_bytes,
                    ckpt_bytes,
                    regular_io_bytes,
                } = class;
                d.text(name);
                d.int(*q_nodes as u64);
                d.num(walltime.as_secs());
                d.num(*resource_share);
                d.num(input_bytes.as_bytes());
                d.num(output_bytes.as_bytes());
                d.num(ckpt_bytes.as_bytes());
                d.num(regular_io_bytes.as_bytes());
            }
        }
    }

    let Strategy { discipline, policy } = strategy;
    d.int(*discipline as u64);
    match policy {
        CheckpointPolicy::Fixed(period) => {
            d.int(0);
            d.spec_num(period.as_secs());
        }
        CheckpointPolicy::Daly => d.int(1),
        CheckpointPolicy::DalyUsage => d.int(2),
    }

    d.num(span.as_secs());
    d.num(measure_margin.as_secs());
    match interference {
        InterferenceKind::Linear => d.int(0),
        InterferenceKind::Degraded(alpha) => {
            d.int(1);
            d.spec_num(*alpha);
        }
        InterferenceKind::Equal => d.int(2),
    }
    match failures {
        FailureModel::Exponential => d.int(0),
        FailureModel::Weibull(shape) => {
            d.int(1);
            d.spec_num(*shape);
        }
        FailureModel::None => d.int(2),
    }
    d.int(*regular_io_chunks as u64);
    d.num(*workload_slack);

    d.int(tiers.len() as u64);
    for tier in tiers {
        let TierSpec {
            name,
            capacity,
            write_bw,
            per_writer_node,
        } = tier;
        d.text(name);
        d.num(capacity.as_bytes());
        d.num(write_bw.as_bytes_per_sec());
        d.int(u64::from(*per_writer_node));
    }
    d.int(failure_classes.len() as u64);
    for class in failure_classes {
        let FailureClass {
            name,
            share,
            severity,
        } = class;
        d.text(name);
        d.num(*share);
        d.int(*severity as u64);
    }
    match power {
        None => d.int(0),
        Some(PowerModel {
            idle_w,
            compute_w,
            io_w,
            ckpt_w,
            recovery_w,
            down_w,
            pfs_static_w,
            pfs_active_w,
            tier_static_w,
            tier_active_w,
        }) => {
            d.int(1);
            for draw in [
                idle_w,
                compute_w,
                io_w,
                ckpt_w,
                recovery_w,
                down_w,
                pfs_static_w,
                pfs_active_w,
                tier_static_w,
                tier_active_w,
            ] {
                d.num(*draw);
            }
        }
    }

    d.int(*samples as u64);
    d.int(*base_seed);
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axis::{AxisValue, Domain, AXES};
    use crate::scenario::Scenario;
    use coopckpt_des::Duration;
    use coopckpt_model::{Bandwidth, Bytes};
    use std::collections::HashSet;

    fn config() -> SimConfig {
        let platform = Platform::new(
            "tiny",
            32,
            8,
            Bytes::from_gb(8.0),
            Bandwidth::from_gbps(5.0),
            Duration::from_years(3.0),
        )
        .unwrap();
        let classes = vec![AppClass {
            name: "A".into(),
            q_nodes: 8,
            walltime: Duration::from_hours(12.0),
            resource_share: 1.0,
            input_bytes: Bytes::from_gb(10.0),
            output_bytes: Bytes::from_gb(50.0),
            ckpt_bytes: Bytes::from_gb(64.0),
            regular_io_bytes: Bytes::ZERO,
        }];
        SimConfig::new(platform, classes, Strategy::least_waste())
            .with_span(Duration::from_days(3.0))
    }

    #[test]
    fn sample_count_matches_request() {
        let s = run_many(&config(), &MonteCarloConfig::new(8));
        assert_eq!(s.len(), 8);
        for &v in s.values() {
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let cfg = config();
        let a = run_many(&cfg, &MonteCarloConfig::new(6).with_threads(1));
        let b = run_many(&cfg, &MonteCarloConfig::new(6).with_threads(4));
        assert_eq!(a.values(), b.values());
    }

    #[test]
    fn base_seed_shifts_instances() {
        let cfg = config();
        let a = run_many(&cfg, &MonteCarloConfig::new(4).with_base_seed(1));
        let b = run_many(&cfg, &MonteCarloConfig::new(4).with_base_seed(100));
        assert_ne!(a.values(), b.values());
        // Overlapping seeds produce overlapping values.
        let c = run_many(&cfg, &MonteCarloConfig::new(4).with_base_seed(2));
        assert_eq!(a.values()[1..], c.values()[..3]);
    }

    #[test]
    fn run_all_matches_run_many() {
        let cfg = config();
        let mc = MonteCarloConfig::new(5);
        let full = run_all(&cfg, &mc);
        let wastes = run_many(&cfg, &mc);
        assert_eq!(full.len(), 5);
        for (r, &w) in full.iter().zip(wastes.values()) {
            assert_eq!(r.waste_ratio, w);
            assert!(r.utilization > 0.0);
        }
    }

    #[test]
    fn op_cache_matches_uncached_results() {
        let cfg = config();
        let mc = MonteCarloConfig::new(4);
        let cache = OpPointCache::new();
        let cached = cache.run_all(&cfg, &mc);
        let fresh = run_all(&cfg, &mc);
        assert_eq!(cached.len(), fresh.len());
        for (a, b) in cached.iter().zip(&fresh) {
            assert_eq!(a.waste_ratio, b.waste_ratio);
            assert_eq!(a.checkpoints_committed, b.checkpoints_committed);
        }
    }

    #[test]
    fn op_cache_shares_one_entry_per_point() {
        let cfg = config();
        let mc = MonteCarloConfig::new(2);
        let cache = OpPointCache::new();
        assert!(cache.is_empty());
        let first = cache.run_all(&cfg, &mc);
        assert_eq!(cache.len(), 1);
        let second = cache.run_all(&cfg, &mc);
        assert_eq!(cache.len(), 1, "same point must not add an entry");
        assert!(
            Arc::ptr_eq(&first, &second),
            "repeat lookups must share the memoized allocation"
        );
        // The thread knob is not part of the key...
        cache.run_all(&cfg, &mc.clone().with_threads(3));
        assert_eq!(cache.len(), 1);
        // ...but the seed and sample count are.
        cache.run_all(&cfg, &mc.clone().with_base_seed(9));
        assert_eq!(cache.len(), 2);
        cache.run_all(&cfg, &MonteCarloConfig::new(3));
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn op_cache_bypasses_trace_runs() {
        let cfg = config().with_trace();
        let cache = OpPointCache::new();
        let results = cache.run_all(&cfg, &MonteCarloConfig::new(1));
        assert!(results[0].trace.is_some(), "trace must still be recorded");
        assert!(cache.is_empty(), "trace runs must not be memoized");
    }

    #[test]
    fn a_key_that_panics_leaves_the_cache_usable() {
        // A NaN field panics while the key is built, before the map lock
        // is taken.
        let mut bad = config();
        bad.workload_slack = f64::NAN;
        let cache = OpPointCache::new();
        let mc = MonteCarloConfig::new(1);
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| cache.run_all(&bad, &mc)));
        assert!(outcome.is_err(), "a non-finite key must panic");
        assert_eq!(cache.run_all(&config(), &mc).len(), 1);
        assert_eq!(cache.len(), 1);
    }

    /// The key before the field digest: the pretty-printed canonical
    /// scenario of the config, with the sample count and seed.
    fn text_key(config: &SimConfig, mc: &MonteCarloConfig) -> String {
        let mut sc = Scenario::from_config(config);
        sc.samples = mc.samples;
        sc.seed = mc.base_seed;
        sc.to_json_string()
    }

    /// Two values in each axis domain, so every axis moves off the base.
    fn axis_values(domain: Domain) -> Vec<AxisValue> {
        let nums = |xs: [f64; 2]| xs.map(AxisValue::Num).to_vec();
        match domain {
            Domain::Strategy => ["least-waste", "ordered-fixed:0.5h"]
                .map(|s| AxisValue::Strategy(s.parse().unwrap()))
                .to_vec(),
            Domain::Workload => ["apex", "synthetic:jobs=30,seed=3,projects=2,max_nodes=8"]
                .map(|w| AxisValue::Workload(w.to_string()))
                .to_vec(),
            Domain::Positive => nums([0.7, 2.0]),
            Domain::Share => nums([0.0, 0.5]),
            Domain::Fraction => nums([0.25, 1.0]),
            Domain::TierDepth => nums([0.0, 3.0]),
            Domain::Count => nums([1.0, 3.0]),
            Domain::Seed => nums([1.0, 7.0]),
        }
    }

    #[test]
    fn the_digest_splits_configs_exactly_as_the_canonical_text_did() {
        let mut roster = Strategy::all_seven().to_vec();
        roster.push(Strategy::tiered(CheckpointPolicy::Daly));
        // Knobs no axis moves, one at a time on top of the base.
        let extras = [
            r#""interference": "degraded:0.5""#,
            r#""measure_margin_days": 0.5"#,
            r#""regular_io_chunks": 4"#,
            r#""workload_slack": 2"#,
            r#""power": "prospective""#,
        ];
        let mut scenarios = Vec::new();
        for preset in ["cielo", "prospective", "exascale"] {
            for &strategy in &roster {
                let base = format!(r#""platform": "{preset}", "span_days": 2"#);
                let parse = |doc: &str| {
                    let sc = Scenario::parse(&format!("{{{doc}}}")).unwrap();
                    sc.with_strategy(strategy)
                };
                for extra in extras {
                    scenarios.push(parse(&format!("{base}, {extra}")));
                }
                let base = parse(&base);
                for axis in AXES {
                    for value in axis_values(axis.domain) {
                        scenarios.push(axis.apply(base.clone(), &value).unwrap());
                    }
                }
            }
        }
        let mut configs: Vec<SimConfig> = scenarios
            .iter()
            .map(|sc| sc.into_config().unwrap())
            .collect();
        // Fields no scenario axis moves: the platform name, and the shape
        // table of a trace config (keyed by its spec alone).
        let mut renamed = configs[0].clone();
        renamed.platform.name.push('2');
        let trace = configs.iter().find(|c| c.workload_source.is_some());
        let mut reshaped = trace.expect("a trace config").clone();
        reshaped.classes[0].q_nodes += 1;
        configs.extend([renamed, reshaped]);

        let mut by_text: HashMap<String, u128> = HashMap::new();
        let mut by_digest: HashMap<u128, String> = HashMap::new();
        let mut keyed = 0;
        for config in &configs {
            for mc in [
                MonteCarloConfig::new(1),
                MonteCarloConfig::new(4).with_base_seed(9),
                MonteCarloConfig::new(4).with_base_seed(9).with_threads(3),
            ] {
                let (text, digest) = (text_key(config, &mc), op_point_key(config, &mc));
                keyed += 1;
                let seen = by_text.entry(text.clone()).or_insert(digest);
                assert_eq!(*seen, digest, "one text, two digests:\n{text}");
                let seen = by_digest.entry(digest).or_insert_with(|| text.clone());
                assert_eq!(*seen, text, "one digest, two texts");
            }
        }
        // Both directions were exercised: many distinct points, and many
        // keyings that landed on a point already seen.
        let distinct: HashSet<u128> = by_text.values().copied().collect();
        assert_eq!(distinct.len(), by_text.len());
        assert!(by_text.len() > 500, "{} distinct points", by_text.len());
        assert!(keyed > 2 * by_text.len(), "{keyed} keyings");
    }

    /// Runs `f` on its own thread and returns the message it panicked
    /// with. Fails if `f` returns normally or is still running after ten
    /// seconds, so a hang fails by the deadline instead of stalling the
    /// suite.
    fn panic_within_deadline(f: impl FnOnce() + Send + 'static) -> String {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let outcome = panic::catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
                payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_default()
            });
            tx.send(outcome).ok();
        });
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("still running after 10 s")
            .expect_err("must panic")
    }

    #[test]
    fn a_panicking_point_reaches_the_caller_instead_of_hanging() {
        let message = panic_within_deadline(|| {
            let _ = run_points(6, 2, |i, _| {
                if i == 2 {
                    panic!("point 2 fails");
                }
                Ok::<usize, ()>(i)
            });
        });
        assert!(message.contains("point 2 fails"), "{message}");
        // The same when the panic comes from a sample that another worker
        // may have stolen from the point's batch.
        let message = panic_within_deadline(|| {
            let bad = config().with_interference(InterferenceKind::Degraded(-1.0));
            let _ = run_points(4, 2, |i, _| {
                let cfg = if i == 1 { bad.clone() } else { config() };
                Ok::<usize, ()>(run_all(&cfg, &MonteCarloConfig::new(6)).len())
            });
        });
        assert!(message.contains("non-negative"), "{message}");
    }

    #[test]
    fn custom_metric_extraction() {
        let cfg = config();
        let s = run_many_by(&cfg, &MonteCarloConfig::new(3), |r| {
            r.checkpoints_committed as f64
        });
        for &v in s.values() {
            assert!(v > 0.0, "every instance should commit checkpoints");
        }
    }
}
