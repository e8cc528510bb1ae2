//! The event-driven platform engine.
//!
//! One [`Engine`] instance executes one simulation: it owns the job
//! runtimes, the first-fit scheduler, the fluid PFS, and the token queue,
//! and implements [`Process`] over the DES kernel. The job lifecycle is
//!
//! ```text
//!           ┌─────────────────(restart at head priority)───────────────┐
//!           ▼                                                           │
//! Waiting ─► input/recovery ─► Computing ⇄ {chunk I/O, checkpoint} ─► output ─► Done
//!                                   ▲ └──────────── failure ────────────┘
//! ```
//!
//! Checkpoint semantics per strategy (Section 3):
//! * **Oblivious** — commits start immediately on the shared PFS; the job
//!   blocks for the (possibly dilated) commit.
//! * **Ordered** — commits and blocking I/O serialize FCFS; the job idles
//!   from request to completion.
//! * **Ordered-NB / Least-Waste** — blocking I/O idles in the FCFS queue,
//!   but a job *keeps computing* while its checkpoint request waits; the
//!   checkpoint captures progress at token-grant time. Least-Waste grants
//!   the token to the candidate minimizing expected waste (Eqs. (1)–(2)).

use super::trace::{Trace, TraceEvent, TraceIo};
use super::{FailureModel, InterferenceKind, SimConfig, SimResult};
use crate::strategy::{CheckpointPolicy, IoDiscipline};
use coopckpt_des::{Duration, EventKey, Process, Simulator, StepControl, Time};
use coopckpt_energy::{EnergyMeter, Phase};
use coopckpt_failure::{FailureClass, FailureTrace, Xoshiro256pp};
use coopckpt_io::hierarchy::{DrainHop, Placement, RetainedCopies, StorageHierarchy};
use coopckpt_io::{
    DegradedShare, EqualShare, LinearShare, Pfs, RequestId, RequestQueue, TransferId,
};
use coopckpt_model::{Bytes, JobId, JobSpec, Platform};
use coopckpt_sched::{AllocId, Scheduler};
use coopckpt_stats::{Category, ProjectLedger, WasteLedger};
use coopckpt_workload::trace_workload::{JobStream, SubmittedJob};

/// Work-progress comparisons tolerate this much floating-point slack.
const EPS_WORK: f64 = 1e-6;
/// Volumes below one byte complete instantly without touching the PFS.
const EPS_BYTES: f64 = 1.0;

type JobIdx = usize;

/// What an I/O stream carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Initial input read (blocking).
    Input,
    /// Post-failure recovery read (blocking).
    Recovery,
    /// One chunk of the job's regular in-run I/O (blocking).
    Chunk,
    /// Final output write (blocking).
    Output,
    /// Checkpoint commit.
    Ckpt,
    /// Background drain of a burst-buffered checkpoint to the PFS. The
    /// owning job is *not* blocked; durability arrives on completion.
    Drain,
}

impl Kind {
    fn trace_io(self) -> TraceIo {
        match self {
            Kind::Input => TraceIo::Input,
            Kind::Recovery => TraceIo::Recovery,
            Kind::Chunk => TraceIo::Chunk,
            Kind::Output => TraceIo::Output,
            Kind::Ckpt => TraceIo::Checkpoint,
            Kind::Drain => TraceIo::Drain,
        }
    }
}

/// Per-transfer metadata stored in the PFS.
#[derive(Debug, Clone, Copy)]
struct TMeta {
    job: JobIdx,
    kind: Kind,
}

/// Pending token-queue request.
#[derive(Debug, Clone, Copy)]
struct RMeta {
    job: JobIdx,
    kind: Kind,
    volume: Bytes,
}

/// DES event payload.
#[derive(Debug, Clone, Copy)]
pub(super) enum Event {
    /// The buffered trace submission's arrival time came: admit it and
    /// pull the next record from the stream (trace-driven workloads only;
    /// batch workloads admit everything up front and never see this).
    Submit,
    /// Run a scheduler fit pass.
    FitPass,
    /// The earliest PFS transfer may have completed.
    PfsWake,
    /// A job's checkpoint period elapsed.
    CkptDue(JobIdx),
    /// A job reached a work milestone (chunk I/O due, or work complete).
    Milestone(JobIdx),
    /// A node fails; `class` indexes the configured severity mix.
    Failure {
        /// The struck node.
        node: usize,
        /// The failure's severity class.
        class: usize,
    },
    /// A storage-tier absorb finished; the job resumes and the drain
    /// cascade toward the PFS begins.
    AbsorbDone(JobIdx),
    /// An inter-tier drain hop landed; the cascade continues one level
    /// deeper (or onto the PFS).
    DrainHopDone(JobIdx),
    /// A restart's recovery read from a storage tier's retained copy
    /// finished (the token-free twin of a PFS recovery transfer).
    RestoreDone(JobIdx),
    /// Energy metering: sample the platform-level cumulative counters
    /// (PFS busy time, tier traffic) at a measurement-window boundary
    /// (`true` = window end). Scheduled only when a power model is
    /// configured; the handler never mutates job state, so metering leaves
    /// the simulated trajectory bit-identical.
    PowerMark(bool),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JState {
    /// Submitted, waiting for nodes.
    Waiting,
    /// Idling in the token queue for blocking I/O (kind ≠ Ckpt except under
    /// blocking disciplines, where checkpoint waits also idle).
    WaitIo(Kind),
    /// Blocking transfer in flight.
    Transfer(Kind),
    /// Progressing work.
    Computing,
    /// Progressing work with a queued non-blocking checkpoint request.
    NbWait,
    /// Checkpoint commit in flight (job blocked).
    Commit,
    /// Finished.
    Done,
}

struct Job {
    spec: JobSpec,
    /// Project id the job's node-seconds are booked to (0 when
    /// per-project accounting is off); restarts inherit it.
    project: usize,
    state: JState,
    /// When the current state was entered (start of the open interval).
    state_since: Time,
    alloc: Option<AllocId>,
    /// Accumulated compute progress.
    work_done: Duration,
    /// Checkpoint period per the strategy's policy.
    period: Duration,
    /// Contention-free commit time `C_j` at full bandwidth.
    ckpt_nominal: Duration,
    /// The commit cost the job actually blocks for: the storage-tier
    /// absorb time when a tier can hold its checkpoint, `C_j` otherwise.
    /// The Daly period is derived from this, so the post-commit delay
    /// subtracts it to keep the request cycle at one period.
    ckpt_visible: Duration,
    /// Contention-free recovery time `R_j`.
    recovery_nominal: Duration,
    /// Progress captured by the last *successful* commit.
    last_ckpt_content: Duration,
    /// Progress captured by the in-flight commit (applied on completion).
    pending_content: Duration,
    /// Wall time of the last commit start (the paper's `d_j` reference for
    /// checkpoint candidates); initialized to compute start.
    last_ckpt_wall: Time,
    /// Deferred checkpoint: the period elapsed while the job was busy with
    /// blocking I/O; request as soon as compute resumes.
    ckpt_asap: bool,
    /// Chunk milestones that elapsed while waiting non-blocking.
    deferred_chunks: u32,
    chunks_done: u32,
    chunks_total: u32,
    request: Option<RequestId>,
    transfer: Option<TransferId>,
    ckpt_event: Option<EventKey>,
    milestone_event: Option<EventKey>,
    /// In-flight storage-tier absorb: `(event, volume, level)`.
    absorb: Option<(EventKey, Bytes, usize)>,
    /// At most one outstanding drain cascade per job (admission control).
    drain: Option<DrainState>,
    /// Hierarchy levels holding a retained copy of the last durable
    /// checkpoint (invalidated per failure-class severity; restarts
    /// inherit the survivors).
    retained: RetainedCopies,
    /// For restarts: the tier the recovery read is served from (`None` =
    /// the PFS, the paper's model). Decided at failure time.
    restore_level: Option<usize>,
    /// In-flight token-free tier restore.
    restore_event: Option<EventKey>,
}

/// A tier-buffered checkpoint on its way down the hierarchy to the PFS.
#[derive(Debug, Clone, Copy)]
struct DrainState {
    volume: Bytes,
    /// Progress this checkpoint captured; applied when the final PFS
    /// drain lands.
    content: Duration,
    /// The tier currently holding the bytes.
    level: usize,
    /// Queued final drain to the PFS (exclusive disciplines).
    request: Option<RequestId>,
    /// Final PFS drain in flight.
    transfer: Option<TransferId>,
    /// In-flight inter-tier hop: `(event, destination level)`. The
    /// destination's space is already reserved.
    hop: Option<(EventKey, usize)>,
    /// Levels this cascade has visited: the retained-copy set the
    /// checkpoint leaves behind once the final PFS drain lands.
    visited: RetainedCopies,
}

impl Job {
    /// A job waiting for nodes: no progress, nothing in flight, no
    /// retained checkpoint copies. Regular I/O splits into `chunks`
    /// chunks when the job has any.
    fn waiting(
        spec: JobSpec,
        project: usize,
        period: Duration,
        ckpt_nominal: Duration,
        ckpt_visible: Duration,
        chunks: u32,
    ) -> Job {
        let chunks_total = if spec.regular_io_bytes.as_bytes() > EPS_BYTES {
            chunks
        } else {
            0
        };
        Job {
            spec,
            project,
            state: JState::Waiting,
            state_since: Time::ZERO,
            alloc: None,
            work_done: Duration::ZERO,
            period,
            ckpt_nominal,
            ckpt_visible,
            recovery_nominal: ckpt_nominal,
            last_ckpt_content: Duration::ZERO,
            pending_content: Duration::ZERO,
            last_ckpt_wall: Time::ZERO,
            ckpt_asap: false,
            deferred_chunks: 0,
            chunks_done: 0,
            chunks_total,
            request: None,
            transfer: None,
            ckpt_event: None,
            milestone_event: None,
            absorb: None,
            drain: None,
            retained: RetainedCopies::EMPTY,
            restore_level: None,
            restore_event: None,
        }
    }

    fn q(&self) -> usize {
        self.spec.q_nodes
    }

    fn is_live(&self) -> bool {
        self.state != JState::Done
    }

    /// The next work target: the next chunk boundary, or total work.
    /// Returns `(target, is_chunk)`.
    fn next_work_target(&self) -> (Duration, bool) {
        if self.chunks_done < self.chunks_total {
            let k = (self.chunks_done + self.deferred_chunks + 1) as f64;
            let target = self.spec.work * (k / (self.chunks_total as f64 + 1.0));
            if target < self.spec.work {
                return (target, true);
            }
        }
        (self.spec.work, false)
    }

    fn chunk_volume(&self) -> Bytes {
        if self.chunks_total == 0 {
            Bytes::ZERO
        } else {
            self.spec.regular_io_bytes / self.chunks_total as f64
        }
    }
}

pub(super) struct Engine {
    platform: Platform,
    discipline: IoDiscipline,
    policy: CheckpointPolicy,
    /// Per-class node counts, kept only to cross-check admitted specs.
    class_nodes: Vec<usize>,
    /// The platform-wide reference checkpoint usage cost `q·C` in
    /// node-seconds under [`CheckpointPolicy::DalyUsage`] (the
    /// share-weighted class mean; exactly the single class value on a
    /// homogeneous mix, so the usage cadence then reproduces Daly
    /// bit-identically).
    usage_ref_cu: f64,
    full_bw: coopckpt_model::Bandwidth,
    node_mtbf_secs: f64,
    regular_io_chunks: u32,

    /// Trace-driven workload stream, drained as simulated time reaches
    /// each record's submit time (`None` = batch workload, or exhausted).
    stream: Option<JobStream>,
    /// The single record of stream lookahead: the submission whose
    /// `Event::Submit` is armed.
    pending_submit: Option<SubmittedJob>,
    /// Per-project accounting (trace-driven workloads only).
    projects: Option<ProjectLedger>,
    /// Jobs admitted but not yet Done (a restart replaces the job it
    /// restarts), and the running maximum.
    live_jobs: usize,
    peak_live_jobs: usize,

    /// Job slab. A slot is reused once nothing can name its job: a killed
    /// job's slot passes straight to its restart, and a Done job's slot
    /// frees once its drain cascade (which outlives the job) has landed.
    /// So the slab holds at most the live jobs plus the finished ones
    /// still draining, never the whole stream.
    jobs: Vec<Job>,
    /// Vacated slots of `jobs`, reused last-in first-out.
    free_slots: Vec<JobIdx>,
    scheduler: Scheduler<JobIdx>,
    /// Job of each live allocation, indexed by [`AllocId::slot`]; `None`
    /// once the allocation is released. The pool reuses released slots,
    /// so this is as long as the peak number of running jobs.
    alloc_jobs: Vec<Option<JobIdx>>,
    pfs: Pfs<TMeta>,
    queue: RequestQueue<RMeta>,
    /// The multi-level checkpoint storage hierarchy (empty = PFS only).
    storage: StorageHierarchy,
    /// The failure severity mix ([`FailureClass`]); a single system class
    /// reproduces the paper's model exactly.
    fclasses: Vec<FailureClass>,
    ledger: WasteLedger,
    /// Per-phase energy accounting (None = time-only, the paper's model).
    meter: Option<EnergyMeter>,

    pfs_wake: Option<(EventKey, Time)>,
    fit_scheduled: bool,
    next_job_id: usize,
    trace: Option<Trace>,

    // Counters.
    failures_total: u64,
    failures_hitting_jobs: u64,
    ckpts_committed: u64,
    jobs_completed: u64,
    restarts: u64,
    tier_restores: u64,
}

/// How the engine receives its jobs: all at once at `t = 0` (the paper's
/// batch model) or streamed one record at a time from a job log.
pub(super) enum Feed {
    Batch(Vec<JobSpec>),
    Stream(JobStream),
}

impl Engine {
    /// Builds and runs one simulation over a batch workload to completion.
    pub(super) fn run(
        config: &SimConfig,
        specs: Vec<JobSpec>,
        failure_rng: &mut Xoshiro256pp,
        ledger: WasteLedger,
    ) -> SimResult {
        Self::run_feed(config, Feed::Batch(specs), failure_rng, ledger)
    }

    /// Builds and runs one simulation over a streamed trace workload:
    /// submissions are drawn from the stream as simulated time advances
    /// (one record of lookahead), and every node-second is additionally
    /// booked to the submitting job's project.
    pub(super) fn run_stream(
        config: &SimConfig,
        stream: JobStream,
        failure_rng: &mut Xoshiro256pp,
        ledger: WasteLedger,
    ) -> SimResult {
        Self::run_feed(config, Feed::Stream(stream), failure_rng, ledger)
    }

    fn run_feed(
        config: &SimConfig,
        feed: Feed,
        failure_rng: &mut Xoshiro256pp,
        ledger: WasteLedger,
    ) -> SimResult {
        let platform = config.platform.clone();
        let horizon = Time::ZERO + config.span;
        let (batch, stream) = match feed {
            Feed::Batch(specs) => (specs, None),
            Feed::Stream(stream) => (Vec::new(), Some(stream)),
        };

        let pfs: Pfs<TMeta> = match config.interference {
            InterferenceKind::Linear => Pfs::new(platform.pfs_bandwidth, LinearShare),
            InterferenceKind::Degraded(alpha) => {
                Pfs::new(platform.pfs_bandwidth, DegradedShare::new(alpha))
            }
            InterferenceKind::Equal => Pfs::new(platform.pfs_bandwidth, EqualShare),
        };

        // Resolve the severity mix: empty = the paper's single
        // system-severity class. The mixed generator splits one dedicated
        // RNG substream per class, and its first split replays exactly the
        // stream the pre-class generators drew from `failure_rng` — so the
        // default mix is bit-identical to the original code path.
        let fclasses = if config.failure_classes.is_empty() {
            coopckpt_failure::system_only()
        } else {
            config.failure_classes.clone()
        };
        let trace_span = coopckpt_obs::span(coopckpt_obs::Phase::TraceGen);
        let trace = match config.failures {
            FailureModel::Exponential => FailureTrace::generate_mixed(
                failure_rng,
                platform.nodes,
                platform.node_mtbf,
                None,
                &fclasses,
                horizon,
            ),
            FailureModel::Weibull(shape) => FailureTrace::generate_mixed(
                failure_rng,
                platform.nodes,
                platform.node_mtbf,
                Some(shape),
                &fclasses,
                horizon,
            ),
            FailureModel::None => FailureTrace::empty(),
        };
        drop(trace_span);

        let storage = StorageHierarchy::new(config.tiers.clone());

        let (w0, w1) = ledger.window();
        let meter = config
            .power
            .map(|power| EnergyMeter::new(w0, w1, power, storage.levels()));
        let projects = stream.is_some().then(|| ProjectLedger::new(w0, w1));

        // The Daly-Usage reference cost: the share-weighted class mean of
        // `q·C` node-seconds per checkpoint. A homogeneous mix short-cuts
        // to the bare class value, so the `(share·x)/share` round trip can
        // never perturb the exact-coincidence-with-Daly guarantee.
        let usage_ref_cu = {
            let vals: Vec<f64> = config
                .classes
                .iter()
                .map(|c| {
                    c.q_nodes as f64 * c.ckpt_bytes.transfer_time(platform.pfs_bandwidth).as_secs()
                })
                .collect();
            if vals.windows(2).all(|w| w[0] == w[1]) {
                vals[0]
            } else {
                let shares: f64 = config.classes.iter().map(|c| c.resource_share).sum();
                let weighted: f64 = config
                    .classes
                    .iter()
                    .zip(&vals)
                    .map(|(c, v)| c.resource_share * v)
                    .sum();
                weighted / shares
            }
        };

        let mut engine = Engine {
            full_bw: platform.pfs_bandwidth,
            node_mtbf_secs: platform.node_mtbf.as_secs(),
            regular_io_chunks: config.regular_io_chunks as u32,
            discipline: config.strategy.discipline,
            policy: config.strategy.policy,
            class_nodes: config.classes.iter().map(|c| c.q_nodes).collect(),
            usage_ref_cu,
            stream,
            pending_submit: None,
            projects,
            live_jobs: 0,
            peak_live_jobs: 0,
            // Batch jobs all live from t = 0 and restarts reuse their
            // slots; a stream's slab grows to its peak resident jobs.
            jobs: Vec::with_capacity(batch.len()),
            free_slots: Vec::new(),
            scheduler: Scheduler::new(platform.nodes),
            alloc_jobs: Vec::new(),
            pfs,
            queue: RequestQueue::new(),
            storage,
            fclasses,
            ledger,
            meter,
            pfs_wake: None,
            fit_scheduled: false,
            trace: config.record_trace.then(Trace::new),
            next_job_id: batch.len(),
            failures_total: trace.len() as u64,
            failures_hitting_jobs: 0,
            ckpts_committed: 0,
            jobs_completed: 0,
            restarts: 0,
            tier_restores: 0,
            platform,
        };

        // The queue backend is normally the calendar queue; the heap
        // oracle is selectable process-wide for differential testing (see
        // `super::use_heap_oracle`). Both are bit-identical by contract.
        let queue = if super::heap_oracle_active() {
            coopckpt_des::EventQueue::heap_oracle()
        } else {
            coopckpt_des::EventQueue::new()
        };
        let mut sim: Simulator<Event> = Simulator::new()
            .with_queue(queue)
            .with_horizon(horizon)
            .with_event_budget(500_000_000);

        for ev in trace.iter() {
            sim.schedule_at(
                ev.at,
                Event::Failure {
                    node: ev.node,
                    class: ev.class,
                },
            );
        }
        if engine.meter.is_some() {
            // Sample the cumulative platform counters at both window
            // boundaries so active energies can be clipped to the window.
            sim.schedule_at(w0, Event::PowerMark(false));
            sim.schedule_at(w1, Event::PowerMark(true));
        }
        if engine.stream.is_some() {
            // Arm the first submission; everything else follows from
            // `Event::Submit` as simulated time reaches each record.
            engine.advance_stream(&mut sim);
        } else {
            for spec in batch {
                engine.admit(spec, 0);
            }
            engine.fit_scheduled = true;
            sim.schedule_at(Time::ZERO, Event::FitPass);
        }

        let replay_span = coopckpt_obs::span(coopckpt_obs::Phase::Replay);
        let outcome = sim.run(&mut engine);
        drop(replay_span);
        sim.flush_telemetry();
        assert!(
            outcome != coopckpt_des::SimOutcome::BudgetExhausted,
            "simulation exhausted its event budget — this indicates an \
             event livelock in the engine, not a valid result"
        );
        let end = sim.now().min(horizon);
        engine.finalize(end);
        coopckpt_obs::observe(
            coopckpt_obs::Hist::PeakLiveJobs,
            engine.peak_live_jobs as u64,
        );
        coopckpt_obs::observe(coopckpt_obs::Hist::JobSlots, engine.jobs.len() as u64);
        let energy = engine.meter.take().map(|mut m| {
            m.finalize(engine.platform.nodes);
            m.summary()
        });

        let (w0, w1) = engine.ledger.window();
        let window_secs = w1.since(w0).as_secs();
        let consumed = engine.ledger.useful() + engine.ledger.wasted();
        SimResult {
            waste_ratio: engine.ledger.waste_ratio(),
            efficiency: engine.ledger.efficiency(),
            breakdown: engine.ledger.breakdown(),
            utilization: consumed / (engine.platform.nodes as f64 * window_secs),
            failures_hitting_jobs: engine.failures_hitting_jobs,
            failures_total: engine.failures_total,
            checkpoints_committed: engine.ckpts_committed,
            jobs_completed: engine.jobs_completed,
            restarts: engine.restarts,
            tier_restores: engine.tier_restores,
            events: sim.events_processed(),
            peak_live_jobs: engine.peak_live_jobs as u64,
            projects: engine.projects.take(),
            trace: engine.trace.take(),
            energy,
        }
    }

    /// Arms an `Event::Submit` for the stream's next record, or drops the
    /// exhausted stream. At most one record is ever buffered.
    fn advance_stream(&mut self, sim: &mut Simulator<Event>) {
        let Some(stream) = &mut self.stream else {
            return;
        };
        match stream.next_submission() {
            Some(sub) => {
                let at = sub.submit;
                self.pending_submit = Some(sub);
                sim.schedule_at(at, Event::Submit);
            }
            None => self.stream = None,
        }
    }

    /// The buffered submission's arrival time came: assign it an engine
    /// job id, admit it under its project, and pull the next record.
    fn on_submit(&mut self, sim: &mut Simulator<Event>, now: Time) {
        let Some(sub) = self.pending_submit.take() else {
            return;
        };
        let project = match &mut self.projects {
            Some(projects) => projects.project_id(&sub.project),
            None => 0,
        };
        let mut spec = sub.spec;
        spec.id = JobId(self.next_job_id);
        self.next_job_id += 1;
        self.admit(spec, project);
        self.schedule_fit_pass(sim, now);
        self.advance_stream(sim);
    }

    /// Creates the runtime entry for a job spec and submits it for nodes.
    fn admit(&mut self, spec: JobSpec, project: usize) {
        debug_assert_eq!(self.class_nodes[spec.class.0], spec.q_nodes);
        let c_nominal = spec.ckpt_bytes.transfer_time(self.full_bw);
        // The commit cost the *job* observes: with a storage hierarchy the
        // job blocks only for the (fast) absorb, which shortens the Daly
        // period (paper Section 8: more bandwidth "increases the optimal
        // checkpoint frequency"). A hierarchy no tier of which can ever
        // hold this job's checkpoint contributes nothing: the commit always
        // spills to the PFS, so the visible cost stays the full commit.
        let absorbing_level = self.storage.would_admit(spec.ckpt_bytes);
        let c_visible = if let Some(level) = absorbing_level {
            self.storage
                .absorb_time(level, spec.ckpt_bytes, spec.q_nodes)
                .min(c_nominal)
        } else {
            c_nominal
        };
        let period = match self.policy {
            CheckpointPolicy::Fixed(p) => p,
            CheckpointPolicy::Daly | CheckpointPolicy::DalyUsage => {
                let mtbf = self.platform.job_mtbf(spec.q_nodes);
                let daly = if self.policy == CheckpointPolicy::DalyUsage {
                    // Usage-based cadence: pace the checkpoint in consumed
                    // node-hours at the platform-wide quantum, so the wall
                    // period scales as 1/q across job sizes instead of
                    // Daly's 1/√q (and coincides with Daly exactly when
                    // the job's `q·C` equals the reference).
                    coopckpt_model::daly_usage_period(
                        c_visible,
                        mtbf,
                        spec.q_nodes as f64 * c_nominal.as_secs(),
                        self.usage_ref_cu,
                    )
                } else {
                    coopckpt_model::young_daly_period(c_visible, mtbf)
                };
                if absorbing_level.is_some() {
                    // Drain-aware pacing: a cheap absorb invites a short
                    // period, but every checkpoint must still drain through
                    // the PFS. Flooring the period at the job's fair-share
                    // drain duty cycle (n_i·C_i/P_i ≤ share_i, i.e.
                    // P ≥ N·C_pfs/q) caps the aggregate drain demand at
                    // F = 1 — the Eq. (6) feasibility condition.
                    let floor = Duration::from_secs(
                        c_nominal.as_secs() * self.platform.nodes as f64 / spec.q_nodes as f64,
                    );
                    daly.max(floor)
                } else {
                    daly
                }
            }
        };
        let priority = spec.priority;
        let q = spec.q_nodes;
        let job = Job::waiting(
            spec,
            project,
            period,
            c_nominal,
            c_visible,
            self.regular_io_chunks,
        );
        let idx = match self.free_slots.pop() {
            Some(idx) => {
                self.jobs[idx] = job;
                idx
            }
            None => {
                self.jobs.push(job);
                self.jobs.len() - 1
            }
        };
        self.live_jobs += 1;
        self.peak_live_jobs = self.peak_live_jobs.max(self.live_jobs);
        self.scheduler.submit(priority, q, idx);
    }

    /// Returns a Done job's slot for reuse. Nothing may name it any more:
    /// its nodes, events, token requests and transfers are gone, and so
    /// is its drain cascade.
    fn vacate(&mut self, idx: JobIdx) {
        let job = &self.jobs[idx];
        debug_assert!(
            job.state == JState::Done
                && job.alloc.is_none()
                && job.request.is_none()
                && job.transfer.is_none()
                && job.ckpt_event.is_none()
                && job.milestone_event.is_none()
                && job.absorb.is_none()
                && job.drain.is_none()
                && job.restore_event.is_none(),
            "vacating a slot that is still named"
        );
        self.free_slots.push(idx);
    }

    fn record(&mut self, ev: TraceEvent) {
        if let Some(trace) = &mut self.trace {
            trace.push(ev);
        }
    }

    // ------------------------------------------------------------------
    // Accounting helpers
    // ------------------------------------------------------------------

    /// The energy phase a time category's node-seconds are priced at.
    fn phase_for(cat: Category) -> Phase {
        match cat {
            Category::Work => Phase::Compute,
            Category::RegularIo => Phase::RegularIo,
            Category::CkptCommit => Phase::CkptWrite,
            Category::IoWait => Phase::Blocked,
            Category::Dilation => Phase::Dilation,
            Category::Recovery => Phase::Recovery,
            Category::LostWork => Phase::Rework,
        }
    }

    /// Books one closed interval of job `idx` into the time ledger and,
    /// when metering, into the energy meter at the matching phase's draw.
    fn account(&mut self, idx: JobIdx, cat: Category, from: Time, to: Time) {
        let q = self.jobs[idx].q();
        self.ledger.record(cat, q, from, to);
        if let Some(projects) = &mut self.projects {
            projects.record(self.jobs[idx].project, cat, q, from, to);
        }
        if let Some(meter) = &mut self.meter {
            let id = self.jobs[idx].spec.id.0 as u64;
            meter.record(id, Self::phase_for(cat), q, from, to);
        }
    }

    /// Closes the current state interval into `cat` and restarts it at
    /// `now`; accrues work progress for progressing states.
    fn mark(&mut self, idx: JobIdx, now: Time, cat: Category) {
        let job = &mut self.jobs[idx];
        let dt = now.since(job.state_since);
        if dt.is_positive() {
            if matches!(job.state, JState::Computing | JState::NbWait) {
                job.work_done += dt;
            }
            let from = job.state_since;
            self.account(idx, cat, from, now);
        }
        self.jobs[idx].state_since = now;
    }

    /// Records a completed or interrupted blocking transfer interval,
    /// splitting useful nominal time from contention dilation.
    fn mark_transfer(&mut self, idx: JobIdx, now: Time, kind: Kind, volume: Bytes) {
        let t0 = self.jobs[idx].state_since;
        match kind {
            Kind::Recovery => self.account(idx, Category::Recovery, t0, now),
            Kind::Ckpt | Kind::Drain => self.account(idx, Category::CkptCommit, t0, now),
            Kind::Input | Kind::Output | Kind::Chunk => {
                let nominal = volume.transfer_time(self.full_bw);
                let split = (t0 + nominal).min(now);
                self.account(idx, Category::RegularIo, t0, split);
                self.account(idx, Category::Dilation, split, now);
            }
        }
        self.jobs[idx].state_since = now;
    }

    /// Cumulative data-movement time across the storage tiers, normalized
    /// to each tier's reference write bandwidth (absorbed plus
    /// forwarded-in plus restored bytes per tier). Sampled at the window
    /// boundaries to clip tier active energy to the measurement window.
    fn tier_active_seconds(&self) -> f64 {
        (0..self.storage.levels())
            .map(|level| {
                let tier = self.storage.tier(level);
                let stats = tier.stats();
                let moved = stats.bytes_absorbed + stats.bytes_forwarded_in + stats.bytes_restored;
                moved.as_bytes() / tier.spec().write_bw.as_bytes_per_sec()
            })
            .sum()
    }

    /// Window-boundary sample of the cumulative platform counters (see
    /// [`Event::PowerMark`]). Reads the PFS busy time via the
    /// non-mutating [`Pfs::busy_time_at`] — the handler touches no
    /// simulation state at all, so job trajectories are untouched by
    /// construction.
    fn on_power_mark(&mut self, now: Time, end: bool) {
        let busy = self.pfs.busy_time_at(now);
        let tier_secs = self.tier_active_seconds();
        if let Some(meter) = &mut self.meter {
            meter.mark_pfs_busy(busy, end);
            meter.mark_tier_active(tier_secs, end);
        }
    }

    // ------------------------------------------------------------------
    // Lifecycle
    // ------------------------------------------------------------------

    /// Starts a blocking I/O (input, recovery, chunk, or output).
    fn start_blocking_io(
        &mut self,
        sim: &mut Simulator<Event>,
        idx: JobIdx,
        now: Time,
        kind: Kind,
        volume: Bytes,
    ) {
        debug_assert!(kind != Kind::Ckpt);
        if volume.as_bytes() <= EPS_BYTES {
            // Degenerate volume: completes instantly.
            self.jobs[idx].state = JState::Transfer(kind);
            self.jobs[idx].state_since = now;
            self.finish_blocking_io(sim, idx, now, kind, volume);
            return;
        }
        if self.discipline.is_exclusive() {
            self.jobs[idx].state = JState::WaitIo(kind);
            self.jobs[idx].state_since = now;
            let id = self.queue.push(
                now,
                RMeta {
                    job: idx,
                    kind,
                    volume,
                },
            );
            self.jobs[idx].request = Some(id);
            self.try_grant(sim, now);
        } else {
            let q = self.jobs[idx].q();
            self.jobs[idx].state = JState::Transfer(kind);
            self.jobs[idx].state_since = now;
            let tid = self
                .pfs
                .start(now, volume, q as f64, TMeta { job: idx, kind });
            self.jobs[idx].transfer = Some(tid);
            self.record(TraceEvent::IoStarted {
                at: now,
                job: self.jobs[idx].spec.id,
                kind: kind.trace_io(),
                volume,
            });
            self.resync_wake(sim);
        }
    }

    /// A blocking transfer finished: account it and move the job on.
    fn finish_blocking_io(
        &mut self,
        sim: &mut Simulator<Event>,
        idx: JobIdx,
        now: Time,
        kind: Kind,
        volume: Bytes,
    ) {
        let transfer_duration = now.since(self.jobs[idx].state_since).max_zero();
        self.mark_transfer(idx, now, kind, volume);
        self.jobs[idx].transfer = None;
        self.record(TraceEvent::IoCompleted {
            at: now,
            job: self.jobs[idx].spec.id,
            kind: kind.trace_io(),
            volume,
            duration: transfer_duration,
        });
        match kind {
            Kind::Input | Kind::Recovery => {
                // First checkpoint P after compute starts (paper Section 2).
                let due = now + self.jobs[idx].period;
                let key = sim.schedule_at(due, Event::CkptDue(idx));
                self.jobs[idx].ckpt_event = Some(key);
                self.jobs[idx].last_ckpt_wall = now;
                self.enter_computing(sim, idx, now);
            }
            Kind::Chunk => {
                self.enter_computing(sim, idx, now);
            }
            Kind::Output => {
                self.complete_job(sim, idx, now);
            }
            Kind::Ckpt | Kind::Drain => {
                unreachable!("checkpoints and drains have dedicated handlers")
            }
        }
    }

    /// Moves a job (back) into the computing state, honouring deferred
    /// chunk I/O and deferred checkpoint requests.
    fn enter_computing(&mut self, sim: &mut Simulator<Event>, idx: JobIdx, now: Time) {
        self.jobs[idx].state = JState::Computing;
        self.jobs[idx].state_since = now;
        if self.jobs[idx].deferred_chunks > 0 {
            self.jobs[idx].deferred_chunks -= 1;
            self.jobs[idx].chunks_done += 1;
            let volume = self.jobs[idx].chunk_volume();
            self.start_blocking_io(sim, idx, now, Kind::Chunk, volume);
            return;
        }
        if self.jobs[idx].ckpt_asap {
            self.jobs[idx].ckpt_asap = false;
            self.issue_ckpt_request(sim, idx, now);
            return;
        }
        let (target, _) = self.jobs[idx].next_work_target();
        let remaining = (target - self.jobs[idx].work_done).max_zero();
        let key = sim.schedule_in(remaining, Event::Milestone(idx));
        self.jobs[idx].milestone_event = Some(key);
    }

    /// The job's checkpoint period elapsed: request the I/O token (or the
    /// PFS directly under Oblivious).
    fn issue_ckpt_request(&mut self, sim: &mut Simulator<Event>, idx: JobIdx, now: Time) {
        debug_assert_eq!(self.jobs[idx].state, JState::Computing);
        let volume = self.jobs[idx].spec.ckpt_bytes;
        // Level-aware fast path (Tiered): a checkpoint the hierarchy can
        // absorb never touches the shared PFS, so it needs no token —
        // start the commit immediately. Falls through to the Ordered-NB
        // queue when every tier is full or the previous cascade is still
        // draining.
        if self.discipline == IoDiscipline::Tiered
            && self.jobs[idx].drain.is_none()
            && volume.as_bytes() > EPS_BYTES
            && self.storage.would_admit(volume).is_some()
        {
            // begin_commit closes the Computing interval and cancels the
            // milestone itself.
            self.begin_commit(sim, idx, now);
            return;
        }
        // Pause or continue? Blocking disciplines stop the job now.
        if self.discipline.checkpoint_is_non_blocking() {
            self.mark(idx, now, Category::Work);
            self.jobs[idx].state = JState::NbWait;
            let id = self.queue.push(
                now,
                RMeta {
                    job: idx,
                    kind: Kind::Ckpt,
                    volume,
                },
            );
            self.jobs[idx].request = Some(id);
            // Work continues; the milestone event stays armed.
            self.try_grant(sim, now);
        } else {
            self.mark(idx, now, Category::Work);
            if let Some(key) = self.jobs[idx].milestone_event.take() {
                sim.cancel(key);
            }
            match self.discipline {
                IoDiscipline::Oblivious => self.begin_commit(sim, idx, now),
                IoDiscipline::Ordered => {
                    self.jobs[idx].state = JState::WaitIo(Kind::Ckpt);
                    let id = self.queue.push(
                        now,
                        RMeta {
                            job: idx,
                            kind: Kind::Ckpt,
                            volume,
                        },
                    );
                    self.jobs[idx].request = Some(id);
                    self.try_grant(sim, now);
                }
                _ => unreachable!("non-blocking disciplines handled above"),
            }
        }
    }

    /// Starts the checkpoint transfer (token granted, or Oblivious).
    fn begin_commit(&mut self, sim: &mut Simulator<Event>, idx: JobIdx, now: Time) {
        // Close the current interval: NbWait progressed work, WaitIo idled.
        match self.jobs[idx].state {
            JState::NbWait => self.mark(idx, now, Category::Work),
            JState::WaitIo(Kind::Ckpt) => self.mark(idx, now, Category::IoWait),
            JState::Computing => self.mark(idx, now, Category::Work), // Oblivious
            other => unreachable!("begin_commit from state {other:?}"),
        }
        if let Some(key) = self.jobs[idx].milestone_event.take() {
            sim.cancel(key);
        }
        let volume = self.jobs[idx].spec.ckpt_bytes;
        self.jobs[idx].pending_content = self.jobs[idx].work_done;
        self.jobs[idx].last_ckpt_wall = now;
        self.jobs[idx].state = JState::Commit;
        self.jobs[idx].state_since = now;
        if volume.as_bytes() <= EPS_BYTES {
            self.finish_commit(sim, idx, now);
            return;
        }
        // Storage-hierarchy fast path: absorb into the shallowest tier
        // with space (full tiers spill through deterministically), then
        // drain toward the PFS in the background. Falls back to the direct
        // PFS commit when every tier is full or the job's previous drain
        // cascade is still in flight.
        if self.jobs[idx].drain.is_none() && !self.storage.is_empty() {
            let q = self.jobs[idx].q();
            match self.storage.admit(now, volume, q) {
                Placement::Tier { level, absorb_time } => {
                    self.record_spills(idx, now, 0, level, volume);
                    let key = sim.schedule_in(absorb_time, Event::AbsorbDone(idx));
                    self.jobs[idx].absorb = Some((key, volume, level));
                    // The absorb overwrites the job's per-tier checkpoint
                    // slot at this level: the previous durable
                    // checkpoint's copy there is gone.
                    self.jobs[idx].retained.forget(level);
                    return;
                }
                Placement::Pfs => {
                    let levels = self.storage.levels();
                    self.record_spills(idx, now, 0, levels, volume);
                }
            }
        }
        let q = self.jobs[idx].q();
        let tid = self.pfs.start(
            now,
            volume,
            q as f64,
            TMeta {
                job: idx,
                kind: Kind::Ckpt,
            },
        );
        self.jobs[idx].transfer = Some(tid);
        self.record(TraceEvent::IoStarted {
            at: now,
            job: self.jobs[idx].spec.id,
            kind: TraceIo::Checkpoint,
            volume,
        });
        self.resync_wake(sim);
    }

    /// Records one `TierSpill` per full tier a write fell through
    /// (`levels [from, to)`), in level order.
    fn record_spills(&mut self, idx: JobIdx, now: Time, from: usize, to: usize, volume: Bytes) {
        if self.trace.is_none() {
            return;
        }
        let job = self.jobs[idx].spec.id;
        for level in from..to {
            self.record(TraceEvent::TierSpill {
                at: now,
                job,
                level,
                volume,
            });
        }
    }

    /// A tier absorb finished: the job's blocked interval ends, the
    /// checkpoint waits in the tier, and its background drain cascade
    /// toward the PFS begins. Durability arrives only when the final PFS
    /// drain lands (a failure before then rolls back to the previous
    /// PFS-resident checkpoint).
    fn on_absorb_done(&mut self, sim: &mut Simulator<Event>, idx: JobIdx, now: Time) {
        if !self.jobs[idx].is_live() {
            return;
        }
        let Some((_, volume, level)) = self.jobs[idx].absorb.take() else {
            return;
        };
        debug_assert_eq!(self.jobs[idx].state, JState::Commit);
        self.mark(idx, now, Category::CkptCommit);
        self.record(TraceEvent::TierAbsorb {
            at: now,
            job: self.jobs[idx].spec.id,
            level,
            volume,
        });
        let content = self.jobs[idx].pending_content;
        let mut visited = RetainedCopies::EMPTY;
        visited.record(level);
        self.jobs[idx].drain = Some(DrainState {
            volume,
            content,
            level,
            request: None,
            transfer: None,
            hop: None,
            visited,
        });
        self.start_drain_hop(sim, idx, now);
        // Schedule the next checkpoint relative to the job-visible commit
        // cost (the absorb the period derivation priced in, not the full
        // PFS commit) and resume computing.
        let delay = (self.jobs[idx].period - self.jobs[idx].ckpt_visible).max_zero();
        let key = sim.schedule_in(delay, Event::CkptDue(idx));
        self.jobs[idx].ckpt_event = Some(key);
        self.enter_computing(sim, idx, now);
        self.try_grant(sim, now);
        self.resync_wake(sim);
    }

    /// Plans and launches the next hop of a job's drain cascade: into the
    /// shallowest deeper tier with space (a plain timed event — inter-tier
    /// traffic never touches the PFS), or onto the PFS through the
    /// configured I/O discipline when no tier below has room.
    fn start_drain_hop(&mut self, sim: &mut Simulator<Event>, idx: JobIdx, now: Time) {
        let Some(drain) = self.jobs[idx].drain else {
            return;
        };
        let (volume, from) = (drain.volume, drain.level);
        let job = self.jobs[idx].spec.id;
        match self.storage.plan_drain(from, volume) {
            DrainHop::Tier {
                level: dest,
                transfer_time,
            } => {
                self.record_spills(idx, now, from + 1, dest, volume);
                self.record(TraceEvent::TierDrain {
                    at: now,
                    job,
                    from_level: from,
                    to_level: Some(dest),
                    volume,
                });
                let key = sim.schedule_in(transfer_time, Event::DrainHopDone(idx));
                if let Some(d) = self.jobs[idx].drain.as_mut() {
                    d.hop = Some((key, dest));
                }
            }
            DrainHop::Pfs => {
                self.record_spills(idx, now, from + 1, self.storage.levels(), volume);
                self.record(TraceEvent::TierDrain {
                    at: now,
                    job,
                    from_level: from,
                    to_level: None,
                    volume,
                });
                if self.discipline.is_exclusive() {
                    let id = self.queue.push(
                        now,
                        RMeta {
                            job: idx,
                            kind: Kind::Drain,
                            volume,
                        },
                    );
                    if let Some(d) = self.jobs[idx].drain.as_mut() {
                        d.request = Some(id);
                    }
                    self.try_grant(sim, now);
                } else {
                    let q = self.jobs[idx].q();
                    let tid = self.pfs.start(
                        now,
                        volume,
                        q as f64,
                        TMeta {
                            job: idx,
                            kind: Kind::Drain,
                        },
                    );
                    if let Some(d) = self.jobs[idx].drain.as_mut() {
                        d.transfer = Some(tid);
                    }
                    self.resync_wake(sim);
                }
            }
        }
    }

    /// An inter-tier hop landed: free the source tier and continue the
    /// cascade from the destination. Runs even for jobs that finished
    /// meanwhile (the data is still theirs to move and free).
    fn on_drain_hop_done(&mut self, sim: &mut Simulator<Event>, idx: JobIdx, now: Time) {
        let Some(drain) = self.jobs[idx].drain.as_mut() else {
            return;
        };
        let Some((_, dest)) = drain.hop.take() else {
            return;
        };
        let (from, volume) = (drain.level, drain.volume);
        drain.level = dest;
        drain.visited.record(dest);
        // Landing at `dest` overwrites the previous checkpoint's retained
        // copy in the job's slot there.
        self.jobs[idx].retained.forget(dest);
        self.storage.drain_complete(from, volume);
        self.start_drain_hop(sim, idx, now);
    }

    /// The final drain landed on the PFS: the buffered checkpoint becomes
    /// the durable restart point and the last tier's space is freed. Runs
    /// even for jobs that finished meanwhile, whose slot it then vacates.
    fn on_drain_complete(&mut self, sim: &mut Simulator<Event>, idx: JobIdx, now: Time) {
        let Some(drain) = self.jobs[idx].drain.take() else {
            return;
        };
        self.storage.drain_complete(drain.level, drain.volume);
        if !self.jobs[idx].is_live() {
            self.vacate(idx);
            return;
        }
        // A cascade can land *after* a newer checkpoint already committed
        // directly to the PFS (the direct path is the fallback exactly
        // while a drain is in flight, and queue ordering can complete the
        // newer commit first): a stale landing must not roll the durable
        // restart point — or the retained-copy set — back to older
        // content.
        if drain.content >= self.jobs[idx].last_ckpt_content {
            self.jobs[idx].last_ckpt_content = drain.content;
            // The new durable checkpoint leaves retained copies at every
            // level the cascade visited — the restore sources for
            // sub-system failure classes.
            self.jobs[idx].retained = drain.visited;
            self.ckpts_committed += 1;
            self.record(TraceEvent::CheckpointDurable {
                at: now,
                job: self.jobs[idx].spec.id,
                content: drain.content,
            });
        }
        let _ = sim;
    }

    /// A checkpoint commit completed: it becomes the durable restart point
    /// and the next request is scheduled `P − C` later (paper Section 2).
    fn finish_commit(&mut self, sim: &mut Simulator<Event>, idx: JobIdx, now: Time) {
        self.mark(idx, now, Category::CkptCommit);
        self.jobs[idx].transfer = None;
        self.jobs[idx].last_ckpt_content = self.jobs[idx].pending_content;
        // A direct PFS commit supersedes every tier copy: the retained
        // copies hold *older* content and must never serve a restore.
        self.jobs[idx].retained.clear();
        self.ckpts_committed += 1;
        self.record(TraceEvent::CheckpointDurable {
            at: now,
            job: self.jobs[idx].spec.id,
            content: self.jobs[idx].last_ckpt_content,
        });
        let delay = (self.jobs[idx].period - self.jobs[idx].ckpt_nominal).max_zero();
        let key = sim.schedule_in(delay, Event::CkptDue(idx));
        self.jobs[idx].ckpt_event = Some(key);
        self.enter_computing(sim, idx, now);
    }

    /// Job finished its output: release nodes.
    fn complete_job(&mut self, sim: &mut Simulator<Event>, idx: JobIdx, now: Time) {
        self.jobs[idx].state = JState::Done;
        self.jobs[idx].state_since = now;
        self.live_jobs -= 1;
        if let Some(key) = self.jobs[idx].ckpt_event.take() {
            sim.cancel(key);
        }
        if let Some(alloc) = self.jobs[idx].alloc.take() {
            self.alloc_jobs[alloc.slot()] = None;
            self.scheduler.release(alloc);
        }
        self.jobs_completed += 1;
        self.record(TraceEvent::JobCompleted {
            at: now,
            job: self.jobs[idx].spec.id,
        });
        // A drain still in flight vacates the slot when it lands.
        if self.jobs[idx].drain.is_none() {
            self.vacate(idx);
        }
        self.schedule_fit_pass(sim, now);
    }

    // ------------------------------------------------------------------
    // Token queue / PFS interplay
    // ------------------------------------------------------------------

    /// Under exclusive disciplines, grants the token when the PFS is idle:
    /// FCFS for Ordered(-NB), waste-minimizing for Least-Waste.
    fn try_grant(&mut self, sim: &mut Simulator<Event>, now: Time) {
        if !self.discipline.is_exclusive() {
            return;
        }
        if !self.pfs.is_idle() || self.queue.is_empty() {
            return;
        }
        let granted = match self.discipline {
            IoDiscipline::Ordered | IoDiscipline::OrderedNb | IoDiscipline::Tiered => {
                self.queue.pop_fcfs().expect("queue checked non-empty")
            }
            IoDiscipline::LeastWaste => self.select_least_waste(now),
            IoDiscipline::Oblivious => unreachable!(),
        };
        let idx = granted.meta.job;
        if granted.meta.kind == Kind::Drain {
            // Background stream: the job keeps whatever it is doing.
            let q = self.jobs[idx].q();
            let tid = self.pfs.start(
                now,
                granted.meta.volume,
                q as f64,
                TMeta {
                    job: idx,
                    kind: Kind::Drain,
                },
            );
            if let Some(drain) = self.jobs[idx].drain.as_mut() {
                drain.request = None;
                drain.transfer = Some(tid);
            }
            self.resync_wake(sim);
            return;
        }
        self.jobs[idx].request = None;
        match granted.meta.kind {
            Kind::Ckpt => self.begin_commit(sim, idx, now),
            Kind::Drain => unreachable!("drains handled above"),
            kind => {
                // Close the waiting interval; start the transfer alone at
                // full bandwidth.
                self.mark(idx, now, Category::IoWait);
                self.jobs[idx].state = JState::Transfer(kind);
                let q = self.jobs[idx].q();
                let tid =
                    self.pfs
                        .start(now, granted.meta.volume, q as f64, TMeta { job: idx, kind });
                self.jobs[idx].transfer = Some(tid);
                self.record(TraceEvent::IoStarted {
                    at: now,
                    job: self.jobs[idx].spec.id,
                    kind: kind.trace_io(),
                    volume: granted.meta.volume,
                });
                self.resync_wake(sim);
            }
        }
    }

    /// The expected recovery read time of job `idx` under the configured
    /// failure-class mix: `E[R] = Σ_c share_c × R(source_c)`, where
    /// `source_c` is the tier the job would restore from if a class-`c`
    /// failure struck now given its retained copies (the PFS read
    /// `R_j` when no copy survives). With the paper's single system
    /// class this is exactly `1.0 × R_j = R_j` — bit-identical to the
    /// level-blind cost.
    fn expected_recovery_secs(&self, idx: JobIdx) -> f64 {
        let job = &self.jobs[idx];
        let nominal = job.recovery_nominal.as_secs();
        if self.storage.is_empty() {
            return nominal;
        }
        let volume = job.spec.ckpt_bytes;
        let q = job.q();
        self.fclasses
            .iter()
            .map(|class| {
                if class.share <= 0.0 {
                    return 0.0;
                }
                let secs = match job.retained.restore_source(class.severity) {
                    Some(level) => self.storage.restore_time(level, volume, q).as_secs(),
                    None => nominal,
                };
                class.share * secs
            })
            .sum()
    }

    /// Implements Equations (1) and (2): picks the candidate whose grant
    /// minimizes the expected waste inflicted on every *other* candidate.
    /// The recovery term is level-aware: each checkpoint candidate is
    /// priced at its *expected* restore cost under the failure-class mix
    /// ([`Engine::expected_recovery_secs`]), so jobs whose rework is cheap
    /// to restore (surviving shallow copies) weigh less than jobs that
    /// would pay a full PFS read.
    fn select_least_waste(&mut self, now: Time) -> coopckpt_io::PendingRequest<RMeta> {
        // Precompute the candidate sums so each cost evaluation is O(1).
        let mut s_io_qd = 0.0; // Σ_IO q_j d_j
        let mut s_io_q = 0.0; // Σ_IO q_j
        let mut s_ck_qqrd = 0.0; // Σ_Ckpt q_j² (E[R_j] + d_j)
        let mut s_ck_qq = 0.0; // Σ_Ckpt q_j²
                               // The expected restore cost collapses to the plain `R_j` field
                               // read whenever no tier could ever serve a restore — the paper's
                               // default — so this grant hot path only pays for the class-mix
                               // table when a sub-system class is actually configured. The
                               // table is a small sorted-by-insertion vector (one entry per
                               // queued checkpoint), looked up linearly — the queue is short
                               // and this beats hashing.
        let level_aware =
            !self.storage.is_empty() && !coopckpt_failure::is_system_only(&self.fclasses);
        let expected_r: Option<Vec<(JobIdx, f64)>> = level_aware.then(|| {
            self.queue
                .iter()
                .filter(|req| req.meta.kind == Kind::Ckpt)
                .map(|req| (req.meta.job, self.expected_recovery_secs(req.meta.job)))
                .collect()
        });
        let jobs = &self.jobs;
        let recovery_secs = |idx: JobIdx| match &expected_r {
            Some(table) => {
                table
                    .iter()
                    .find(|(job, _)| *job == idx)
                    .expect("every queued checkpoint has a table entry")
                    .1
            }
            None => jobs[idx].recovery_nominal.as_secs(),
        };
        for req in self.queue.iter() {
            let job = &jobs[req.meta.job];
            let q = job.q() as f64;
            if req.meta.kind == Kind::Ckpt {
                let d = now.since(job.last_ckpt_wall).as_secs().max(0.0);
                s_ck_qqrd += q * q * (recovery_secs(req.meta.job) + d);
                s_ck_qq += q * q;
            } else {
                let d = now.since(req.arrived).as_secs().max(0.0);
                s_io_qd += q * d;
                s_io_q += q;
            }
        }
        let mu = self.node_mtbf_secs;
        let full_bw = self.full_bw;
        self.queue
            .pop_min_by(|req| {
                let job = &jobs[req.meta.job];
                let q = job.q() as f64;
                // Time the grant would occupy the PFS (full bandwidth).
                let u = req.meta.volume.transfer_time(full_bw).as_secs();
                let (io_qd, io_q, ck_qqrd, ck_qq);
                if req.meta.kind == Kind::Ckpt {
                    let d = now.since(job.last_ckpt_wall).as_secs().max(0.0);
                    io_qd = s_io_qd;
                    io_q = s_io_q;
                    ck_qqrd = s_ck_qqrd - q * q * (recovery_secs(req.meta.job) + d);
                    ck_qq = s_ck_qq - q * q;
                } else {
                    let d = now.since(req.arrived).as_secs().max(0.0);
                    io_qd = s_io_qd - q * d;
                    io_q = s_io_q - q;
                    ck_qqrd = s_ck_qqrd;
                    ck_qq = s_ck_qq;
                }
                let io_term = io_qd + u * io_q;
                let ck_term = (ck_qqrd + u / 2.0 * ck_qq) / mu;
                u * (io_term + ck_term)
            })
            .expect("queue checked non-empty")
    }

    /// Keeps exactly one `PfsWake` event armed at the PFS's next completion.
    fn resync_wake(&mut self, sim: &mut Simulator<Event>) {
        let target = self.pfs.next_completion();
        if let Some((key, at)) = self.pfs_wake.take() {
            if target == Some(at) {
                self.pfs_wake = Some((key, at));
                return;
            }
            sim.cancel(key);
        }
        if let Some(at) = target {
            let at = at.max(sim.now());
            let key = sim.schedule_at(at, Event::PfsWake);
            self.pfs_wake = Some((key, at));
        }
    }

    fn schedule_fit_pass(&mut self, sim: &mut Simulator<Event>, now: Time) {
        if !self.fit_scheduled {
            self.fit_scheduled = true;
            sim.schedule_at(now, Event::FitPass);
        }
    }

    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    fn on_fit_pass(&mut self, sim: &mut Simulator<Event>, now: Time) {
        self.fit_scheduled = false;
        let started = self.scheduler.run_fit_pass();
        for s in started {
            let idx = s.payload;
            debug_assert_eq!(self.jobs[idx].state, JState::Waiting);
            self.jobs[idx].alloc = Some(s.alloc);
            if self.alloc_jobs.len() <= s.alloc.slot() {
                self.alloc_jobs.resize(s.alloc.slot() + 1, None);
            }
            self.alloc_jobs[s.alloc.slot()] = Some(idx);
            self.jobs[idx].state_since = now;
            let kind = if self.jobs[idx].spec.is_restart {
                Kind::Recovery
            } else {
                Kind::Input
            };
            self.record(TraceEvent::JobStarted {
                at: now,
                job: self.jobs[idx].spec.id,
                nodes: self.jobs[idx].q(),
                is_restart: self.jobs[idx].spec.is_restart,
            });
            let volume = self.jobs[idx].spec.input_bytes;
            // Restarts whose last checkpoint left a surviving tier copy
            // read it back from the tier — token-free, off the PFS.
            if kind == Kind::Recovery {
                if let Some(level) = self.jobs[idx].restore_level {
                    self.start_tier_restore(sim, idx, now, level, volume);
                    continue;
                }
            }
            self.start_blocking_io(sim, idx, now, kind, volume);
        }
    }

    /// Starts a recovery read from tier `level`'s retained checkpoint
    /// copy: a plain timed event at the tier's bandwidth, never touching
    /// the PFS or the I/O token.
    fn start_tier_restore(
        &mut self,
        sim: &mut Simulator<Event>,
        idx: JobIdx,
        now: Time,
        level: usize,
        volume: Bytes,
    ) {
        self.jobs[idx].state = JState::Transfer(Kind::Recovery);
        self.jobs[idx].state_since = now;
        self.record(TraceEvent::TierRestore {
            at: now,
            job: self.jobs[idx].spec.id,
            level,
            volume,
        });
        self.tier_restores += 1;
        if volume.as_bytes() <= EPS_BYTES {
            self.finish_tier_restore(sim, idx, now);
            return;
        }
        let q = self.jobs[idx].q();
        let duration = self.storage.restore_from(level, volume, q);
        let key = sim.schedule_in(duration, Event::RestoreDone(idx));
        self.jobs[idx].restore_event = Some(key);
    }

    /// A tier restore finished: the recovery interval closes and the job
    /// starts computing, exactly like a PFS recovery completion — except
    /// in the trace, where `TierRestore` is the whole story: no
    /// `io_started`/`io_completed` pair is emitted, because the read
    /// never was a PFS transfer (consumers pairing the io rows to
    /// reconstruct PFS occupancy must not see token-free reads).
    fn finish_tier_restore(&mut self, sim: &mut Simulator<Event>, idx: JobIdx, now: Time) {
        let volume = self.jobs[idx].spec.input_bytes;
        self.mark_transfer(idx, now, Kind::Recovery, volume);
        // First checkpoint P after compute starts (paper Section 2),
        // exactly as after a PFS recovery read.
        let due = now + self.jobs[idx].period;
        let key = sim.schedule_at(due, Event::CkptDue(idx));
        self.jobs[idx].ckpt_event = Some(key);
        self.jobs[idx].last_ckpt_wall = now;
        self.enter_computing(sim, idx, now);
    }

    fn on_restore_done(&mut self, sim: &mut Simulator<Event>, idx: JobIdx, now: Time) {
        if !self.jobs[idx].is_live() {
            return;
        }
        if self.jobs[idx].restore_event.take().is_none() {
            return;
        }
        self.finish_tier_restore(sim, idx, now);
    }

    fn on_pfs_wake(&mut self, sim: &mut Simulator<Event>, now: Time) {
        self.pfs_wake = None;
        self.pfs.advance(now);
        for done in self.pfs.take_completed() {
            // Each completion goes to the job whose transfer (or drain
            // transfer) it is. A killed job's transfer may have completed
            // inside the `pfs.cancel` that tore it down; its slot now
            // holds the restart, which does not await that id.
            let TMeta { job: idx, kind } = done.meta;
            if kind == Kind::Drain {
                // Drains free buffer space even for completed jobs.
                if self.jobs[idx]
                    .drain
                    .is_some_and(|d| d.transfer == Some(done.id))
                {
                    self.on_drain_complete(sim, idx, now);
                }
                continue;
            }
            if self.jobs[idx].transfer != Some(done.id) {
                continue;
            }
            match kind {
                Kind::Ckpt => self.finish_commit(sim, idx, now),
                k => self.finish_blocking_io(sim, idx, now, k, done.volume),
            }
        }
        self.try_grant(sim, now);
        self.resync_wake(sim);
    }

    fn on_ckpt_due(&mut self, sim: &mut Simulator<Event>, idx: JobIdx, now: Time) {
        self.jobs[idx].ckpt_event = None;
        match self.jobs[idx].state {
            JState::Computing => self.issue_ckpt_request(sim, idx, now),
            JState::WaitIo(_) | JState::Transfer(_) => {
                // Busy with blocking I/O: checkpoint as soon as compute
                // resumes (the effective period dilates, Section 2).
                self.jobs[idx].ckpt_asap = true;
            }
            // Already checkpointing, done, or dead: nothing to do.
            _ => {}
        }
    }

    fn on_milestone(&mut self, sim: &mut Simulator<Event>, idx: JobIdx, now: Time) {
        self.jobs[idx].milestone_event = None;
        if !matches!(self.jobs[idx].state, JState::Computing | JState::NbWait) {
            return; // stale (kept as defense; normally cancelled)
        }
        self.mark(idx, now, Category::Work);
        let (target, is_chunk) = self.jobs[idx].next_work_target();
        if self.jobs[idx].work_done.as_secs() + EPS_WORK < target.as_secs() {
            // Floating-point slack: re-arm for the remainder.
            let remaining = target - self.jobs[idx].work_done;
            let key = sim.schedule_in(remaining, Event::Milestone(idx));
            self.jobs[idx].milestone_event = Some(key);
            return;
        }
        if is_chunk {
            if self.jobs[idx].state == JState::NbWait {
                // Cannot block while a checkpoint request is queued: defer
                // the chunk until after the commit.
                self.jobs[idx].deferred_chunks += 1;
                let (next, _) = self.jobs[idx].next_work_target();
                let remaining = (next - self.jobs[idx].work_done).max_zero();
                let key = sim.schedule_in(remaining, Event::Milestone(idx));
                self.jobs[idx].milestone_event = Some(key);
            } else {
                self.jobs[idx].chunks_done += 1;
                let volume = self.jobs[idx].chunk_volume();
                self.start_blocking_io(sim, idx, now, Kind::Chunk, volume);
            }
            return;
        }
        // Work complete: withdraw any pending checkpoint request and write
        // the final output.
        if let Some(req) = self.jobs[idx].request.take() {
            self.queue.remove(req);
        }
        if let Some(key) = self.jobs[idx].ckpt_event.take() {
            sim.cancel(key);
        }
        let volume = self.jobs[idx].spec.output_bytes;
        self.start_blocking_io(sim, idx, now, Kind::Output, volume);
    }

    fn on_failure(&mut self, sim: &mut Simulator<Event>, node: usize, class: usize, now: Time) {
        // Failed nodes are replaced from hot spares instantly (paper model),
        // so the pool size is unchanged; only the victim job suffers.
        let Some(alloc) = self.scheduler.occupant(node) else {
            self.record(TraceEvent::Failure {
                at: now,
                node,
                class,
                victim: None,
                lost_work: Duration::ZERO,
            });
            return; // idle node
        };
        let idx = self.alloc_jobs[alloc.slot()].expect("every allocation maps to a job");
        self.failures_hitting_jobs += 1;
        // Include the open computing interval in the lost-work figure (the
        // ledger reclassification in `kill_and_restart` does the same after
        // closing the interval).
        let mut lost = (self.jobs[idx].work_done - self.jobs[idx].last_ckpt_content).max_zero();
        if matches!(self.jobs[idx].state, JState::Computing | JState::NbWait) {
            lost += now.since(self.jobs[idx].state_since).max_zero();
        }
        self.record(TraceEvent::Failure {
            at: now,
            node,
            class,
            victim: Some(self.jobs[idx].spec.id),
            lost_work: lost,
        });
        self.kill_and_restart(sim, idx, class, now);
        self.try_grant(sim, now);
        self.resync_wake(sim);
    }

    /// The severity of failure class `class` (how many shallow hierarchy
    /// levels its strikes invalidate); out-of-range indices are treated as
    /// system failures.
    fn severity_of(&self, class: usize) -> usize {
        self.fclasses
            .get(class)
            .map_or(FailureClass::SYSTEM, |c| c.severity)
    }

    /// Kills a running job and resubmits its remainder at head priority.
    /// `class` is the striking failure's severity class: it decides which
    /// retained checkpoint copies survive and, from those, the restart's
    /// restore source.
    fn kill_and_restart(
        &mut self,
        sim: &mut Simulator<Event>,
        idx: JobIdx,
        class: usize,
        now: Time,
    ) {
        // Close the open interval under the appropriate category.
        match self.jobs[idx].state {
            JState::Computing | JState::NbWait => self.mark(idx, now, Category::Work),
            JState::WaitIo(_) => self.mark(idx, now, Category::IoWait),
            JState::Commit => self.mark(idx, now, Category::CkptCommit),
            JState::Transfer(kind) => {
                let cat = match kind {
                    Kind::Recovery => Category::Recovery,
                    _ => Category::IoWait,
                };
                self.mark(idx, now, cat);
            }
            JState::Waiting | JState::Done => {
                unreachable!("failure can only strike an allocated, live job")
            }
        }
        // Work since the last durable checkpoint is void: it will be
        // re-executed after the restart.
        let lost = (self.jobs[idx].work_done - self.jobs[idx].last_ckpt_content).max_zero();
        if lost.is_positive() {
            let node_seconds = self.jobs[idx].q() as f64 * lost.as_secs();
            self.ledger
                .reclassify(Category::Work, Category::LostWork, node_seconds, now);
            if let Some(projects) = &mut self.projects {
                projects.reclassify(
                    self.jobs[idx].project,
                    Category::Work,
                    Category::LostWork,
                    node_seconds,
                    now,
                );
            }
            if let Some(meter) = &mut self.meter {
                // The voided progress drew compute power; its energy moves
                // to the rework phase.
                meter.reclassify_rework(node_seconds, now);
            }
        }
        // Tear down in-flight activity.
        if let Some(tid) = self.jobs[idx].transfer.take() {
            self.pfs.cancel(now, tid);
        }
        if let Some(req) = self.jobs[idx].request.take() {
            self.queue.remove(req);
        }
        if let Some((key, volume, level)) = self.jobs[idx].absorb.take() {
            // Failure mid-absorb: the buffered bytes are useless.
            sim.cancel(key);
            self.storage.discard(level, volume);
        }
        if let Some(drain) = self.jobs[idx].drain.take() {
            // The undrained checkpoint dies with the job, wherever it is
            // in the cascade.
            if let Some(req) = drain.request {
                self.queue.remove(req);
            }
            if let Some(tid) = drain.transfer {
                self.pfs.cancel(now, tid);
            }
            if let Some((key, dest)) = drain.hop {
                // Mid-hop: space is reserved at both ends.
                sim.cancel(key);
                self.storage.discard(dest, drain.volume);
            }
            self.storage.discard(drain.level, drain.volume);
        }
        if let Some(key) = self.jobs[idx].ckpt_event.take() {
            sim.cancel(key);
        }
        if let Some(key) = self.jobs[idx].milestone_event.take() {
            sim.cancel(key);
        }
        if let Some(key) = self.jobs[idx].restore_event.take() {
            // Failure mid-restore: the read is abandoned; the restart
            // decides its own source below.
            sim.cancel(key);
        }
        if let Some(alloc) = self.jobs[idx].alloc.take() {
            self.alloc_jobs[alloc.slot()] = None;
            self.scheduler.release(alloc);
        }

        // The strike's severity wipes the shallow retained copies; the
        // restart recovers from the shallowest survivor (token-free, at
        // tier bandwidth), or from the PFS when none survives — the
        // paper's original path, and the only path under a system class.
        let severity = self.severity_of(class);
        self.jobs[idx].retained.invalidate_below(severity);
        let restore_level = self.jobs[idx].retained.restore_source(severity);

        // Resubmit with the remaining work from the last commit *start*
        // (paper: "a new wall-time equal to the fraction that remained when
        // the last checkpoint commit started").
        let remaining = (self.jobs[idx].spec.work - self.jobs[idx].last_ckpt_content).max_zero();
        let new_id = JobId(self.next_job_id);
        self.next_job_id += 1;
        let priority = self.scheduler.head_priority();
        let old = &self.jobs[idx];
        let restart_spec = old.spec.restart(new_id, remaining, priority);
        let q = restart_spec.q_nodes;
        self.restarts += 1;

        // The restart takes over the killed job's slot, its project and
        // its class-derived checkpoint parameters. The teardown above left
        // nothing that names the killed job: a transfer that completed
        // inside `pfs.cancel` is told apart by its id in `on_pfs_wake`.
        let mut restart = Job::waiting(
            restart_spec,
            old.project,
            old.period,
            old.ckpt_nominal,
            old.ckpt_visible,
            self.regular_io_chunks,
        );
        restart.retained = old.retained;
        restart.restore_level = restore_level;
        self.jobs[idx] = restart;
        self.scheduler.submit(priority, q, idx);
        self.schedule_fit_pass(sim, now);
    }

    /// Closes every open interval at the end of the simulated horizon.
    /// Jobs close in `JobId` order, the order they were admitted, so
    /// every ledger, project and meter sum adds in one order whatever
    /// slots the jobs hold.
    fn finalize(&mut self, end: Time) {
        let mut running: Vec<JobIdx> = (0..self.jobs.len())
            .filter(|&idx| self.jobs[idx].is_live() && self.jobs[idx].alloc.is_some())
            .collect();
        running.sort_unstable_by_key(|&idx| self.jobs[idx].spec.id);
        for idx in running {
            match self.jobs[idx].state {
                JState::Computing | JState::NbWait => self.mark(idx, end, Category::Work),
                JState::WaitIo(_) => self.mark(idx, end, Category::IoWait),
                JState::Commit => self.mark(idx, end, Category::CkptCommit),
                JState::Transfer(kind) => {
                    let volume = match kind {
                        Kind::Input | Kind::Recovery => self.jobs[idx].spec.input_bytes,
                        Kind::Output => self.jobs[idx].spec.output_bytes,
                        Kind::Chunk => self.jobs[idx].chunk_volume(),
                        Kind::Ckpt | Kind::Drain => self.jobs[idx].spec.ckpt_bytes,
                    };
                    self.mark_transfer(idx, end, kind, volume);
                }
                JState::Waiting | JState::Done => {}
            }
        }
    }
}

impl Process for Engine {
    type Event = Event;

    fn handle(&mut self, sim: &mut Simulator<Event>, now: Time, event: Event) -> StepControl {
        match event {
            Event::Submit => self.on_submit(sim, now),
            Event::FitPass => self.on_fit_pass(sim, now),
            Event::PfsWake => self.on_pfs_wake(sim, now),
            Event::CkptDue(idx) => self.on_ckpt_due(sim, idx, now),
            Event::Milestone(idx) => self.on_milestone(sim, idx, now),
            Event::Failure { node, class } => self.on_failure(sim, node, class, now),
            Event::AbsorbDone(idx) => self.on_absorb_done(sim, idx, now),
            Event::DrainHopDone(idx) => self.on_drain_hop_done(sim, idx, now),
            Event::RestoreDone(idx) => self.on_restore_done(sim, idx, now),
            Event::PowerMark(end) => self.on_power_mark(now, end),
        }
        StepControl::Continue
    }
}
