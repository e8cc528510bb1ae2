//! Trace-driven workloads: streaming job-log ingestion.
//!
//! The APEX generator in [`crate::generator`] samples a synthetic job mix
//! from class shares; this module instead *replays a job log* — either a
//! real one (the Frontier CY2024 analysis of Graziani, Lusch & Messer
//! covers 331,640 production jobs) or a seeded synthetic one — feeding the
//! engine lazily through the [`JobSource`] trait so a 300k-job trace runs
//! in memory bounded by its resident jobs, not its length. Three things
//! make up that bound: the source holds one line, the stream one record
//! of lookahead, and the engine reuses a finished job's slot (and the node
//! pool a released allocation's), so its job slab holds the live jobs
//! plus any finished ones still draining a checkpoint. What grows with
//! the log is only reported output: one row per distinct project and,
//! with a power model, the energy meter's per-job joules.
//!
//! The pieces:
//!
//! * [`TraceJob`] — one log record: `project, submit_time, nodes,
//!   walltime[, ckpt_bytes]`.
//! * [`JobSource`] — the pull seam: `next_job()` yields records in
//!   nondecreasing submit order, one at a time.
//! * [`TraceReader`] — streaming CSV / JSON-lines file reader.
//! * [`SyntheticSpec`] / [`SyntheticSource`] — the seeded generator
//!   (`synthetic:jobs=1000,seed=7,...` grammar) so tests, benches, and CI
//!   need no external file.
//! * [`TraceClasses`] — a bounded-memory validation scan that synthesizes
//!   one [`AppClass`] per distinct job *shape* (`q_nodes`, checkpoint
//!   size); the engine's per-class machinery (Least-Waste statistics,
//!   theory bounds) then works unchanged on trace jobs.
//! * [`JobStream`] — the run-time adapter handed to the engine: pulls one
//!   record ahead, maps it onto its shape class, and emits a
//!   [`SubmittedJob`] carrying the submit time and project label.
//!
//! The scan and the stream apply identical validation and identical
//! checkpoint-size defaulting (a missing `ckpt_bytes` means the job's full
//! memory footprint, `q_nodes × mem_per_node`), so every streamed job maps
//! onto a scanned shape bit-exactly.

mod reader;
mod synthetic;

pub use reader::TraceReader;
pub use synthetic::{SyntheticSource, SyntheticSpec};

use coopckpt_des::{Duration, Time};
use coopckpt_model::{AppClass, Bytes, ClassId, JobId, JobSpec, Platform};
use std::collections::HashMap;

/// One record of a job log.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceJob {
    /// Project (allocation) label the job charges to.
    pub project: String,
    /// Submission time, seconds from trace start.
    pub submit: Time,
    /// Nodes requested.
    pub nodes: usize,
    /// Requested walltime — interpreted as the job's work duration.
    pub walltime: Duration,
    /// Checkpoint volume; `None` defaults to the job's full memory
    /// footprint on the target platform.
    pub ckpt_bytes: Option<Bytes>,
    /// Where the record came from, for error messages: its 1-based line
    /// in a job-log file, or its 1-based ordinal in a generated source.
    pub line: usize,
}

/// A trace problem: what went wrong, where.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceError {
    /// The trace spec or file path the error came from.
    pub context: String,
    /// 1-based line number, or 0 for whole-source errors.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl TraceError {
    pub(crate) fn new(context: &str, line: usize, message: impl Into<String>) -> Self {
        TraceError {
            context: context.to_string(),
            line,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(f, "{}:{}: {}", self.context, self.line, self.message)
        } else {
            write!(f, "{}: {}", self.context, self.message)
        }
    }
}

impl std::error::Error for TraceError {}

/// A pull-based stream of job records in nondecreasing submit order.
///
/// Implementations must yield records one at a time without materializing
/// the remainder. The engine draws submissions as simulated time advances
/// and reuses finished jobs' slots, so a 300k-job trace holds only its
/// resident jobs in memory (see the module docs for the full bound).
pub trait JobSource {
    /// The next record, `None` when the source is exhausted. After an
    /// error or `None` the source need not yield anything further.
    fn next_job(&mut self) -> Option<Result<TraceJob, TraceError>>;
}

/// An in-memory [`JobSource`] over a pre-built record list.
///
/// The test double for streaming readers: slurp a reader eagerly, then
/// replay it through the same engine path to check bit-identity, or build
/// records by hand for unit tests. Records must already be in
/// nondecreasing submit order.
#[derive(Debug, Clone)]
pub struct MaterializedSource {
    jobs: std::collections::VecDeque<TraceJob>,
}

impl MaterializedSource {
    /// Wraps an explicit record list.
    pub fn new(jobs: Vec<TraceJob>) -> Self {
        MaterializedSource { jobs: jobs.into() }
    }

    /// Drains `source` eagerly into memory.
    pub fn slurp(source: &mut dyn JobSource) -> Result<Self, TraceError> {
        let mut jobs = Vec::new();
        while let Some(job) = source.next_job() {
            jobs.push(job?);
        }
        Ok(MaterializedSource::new(jobs))
    }

    /// Records left to yield.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when fully drained.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

impl JobSource for MaterializedSource {
    fn next_job(&mut self) -> Option<Result<TraceJob, TraceError>> {
        self.jobs.pop_front().map(Ok)
    }
}

/// Where a trace workload comes from: a log file or the synthetic grammar.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceSpec {
    /// A CSV or JSON-lines job log on disk.
    Path(String),
    /// The seeded synthetic generator.
    Synthetic(SyntheticSpec),
}

impl TraceSpec {
    /// Parses a workload spec string: `synthetic:<grammar>` or a file path.
    pub fn parse(s: &str) -> Result<TraceSpec, TraceError> {
        if let Some(rest) = s.strip_prefix("synthetic:") {
            SyntheticSpec::parse(rest, s).map(TraceSpec::Synthetic)
        } else if s.is_empty() {
            Err(TraceError::new(
                s,
                0,
                "empty workload trace spec (expected a file path or synthetic:...)",
            ))
        } else {
            Ok(TraceSpec::Path(s.to_string()))
        }
    }

    /// The canonical spec string, the inverse of [`parse`](Self::parse).
    /// Synthetic specs render every field explicitly, so two specs that
    /// differ only in spelled-out defaults canonicalize identically.
    pub fn spec_string(&self) -> String {
        match self {
            TraceSpec::Path(p) => p.clone(),
            TraceSpec::Synthetic(s) => s.spec_string(),
        }
    }

    /// Opens a fresh source positioned at the first record. Sources are
    /// cheap to reopen: the validation scan and the simulation run each
    /// take their own pass.
    pub fn open(&self) -> Result<Box<dyn JobSource>, TraceError> {
        match self {
            TraceSpec::Path(p) => Ok(Box::new(TraceReader::open(p)?)),
            TraceSpec::Synthetic(s) => Ok(Box::new(SyntheticSource::new(s.clone()))),
        }
    }
}

/// A job shape: node count plus exact checkpoint volume (bit pattern, so
/// shape identity is exact rather than tolerance-based).
type ShapeKey = (usize, u64);

fn shape_key(nodes: usize, ckpt: Bytes) -> ShapeKey {
    (nodes, ckpt.as_bytes().to_bits())
}

/// The checkpoint volume a record actually uses: explicit when given,
/// otherwise the job's full memory footprint on `platform`. Scan and
/// stream share this, so shapes always match.
fn effective_ckpt(job: &TraceJob, platform: &Platform) -> Bytes {
    job.ckpt_bytes
        .unwrap_or(platform.mem_per_node * job.nodes as f64)
}

/// Per-shape accumulator used during the scan.
struct ShapeStats {
    nodes: usize,
    ckpt: Bytes,
    count: usize,
    wall_sum_secs: f64,
    node_secs: f64,
}

/// The class table synthesized from one validation pass over a trace.
///
/// Memory is bounded by the number of *distinct shapes* and *distinct
/// projects*, not by the number of jobs — the pass itself streams.
#[derive(Debug, Clone)]
pub struct TraceClasses {
    /// One class per distinct shape, in first-seen order. Walltime is the
    /// shape's mean; `resource_share` is its node-seconds share; I/O
    /// volumes other than the checkpoint are zero (job logs don't record
    /// them).
    pub classes: Vec<AppClass>,
    /// Jobs within the horizon.
    pub jobs: usize,
    /// Distinct project labels within the horizon.
    pub projects: usize,
    /// Submit time of the last job within the horizon.
    pub last_submit: Time,
    shape_ids: HashMap<ShapeKey, usize>,
}

impl TraceClasses {
    /// Streams `source` once, validating every record against `platform`
    /// and collecting shapes. Records submitted after `horizon` are
    /// ignored (the engine never admits them either).
    pub fn scan(
        source: &mut dyn JobSource,
        platform: &Platform,
        horizon: Time,
        context: &str,
    ) -> Result<TraceClasses, TraceError> {
        let mut shapes: Vec<ShapeStats> = Vec::new();
        let mut shape_ids: HashMap<ShapeKey, usize> = HashMap::new();
        let mut projects: HashMap<String, ()> = HashMap::new();
        let mut jobs = 0usize;
        let mut last_submit = Time::ZERO;
        while let Some(record) = source.next_job() {
            let job = record?;
            let line = job.line;
            if !(job.submit.is_finite() && job.submit >= Time::ZERO) {
                return Err(TraceError::new(
                    context,
                    line,
                    format!(
                        "submit time must be finite and non-negative, got {}",
                        job.submit
                    ),
                ));
            }
            if job.submit < last_submit {
                return Err(TraceError::new(
                    context,
                    line,
                    format!(
                        "records must be in nondecreasing submit order \
                         ({} after {last_submit})",
                        job.submit
                    ),
                ));
            }
            if job.submit > horizon {
                break;
            }
            if job.nodes == 0 {
                return Err(TraceError::new(context, line, "job requests zero nodes"));
            }
            if job.nodes > platform.nodes {
                return Err(TraceError::new(
                    context,
                    line,
                    format!(
                        "job requests {} nodes but {} has only {}",
                        job.nodes, platform.name, platform.nodes
                    ),
                ));
            }
            if !(job.walltime.is_finite() && job.walltime.is_positive()) {
                return Err(TraceError::new(
                    context,
                    line,
                    format!("walltime must be positive, got {}", job.walltime),
                ));
            }
            let ckpt = effective_ckpt(&job, platform);
            if !ckpt.is_valid() || ckpt.is_zero() {
                return Err(TraceError::new(
                    context,
                    line,
                    "ckpt_bytes must be positive (omit it to default to the \
                     job's memory footprint)",
                ));
            }
            last_submit = job.submit;
            jobs += 1;
            projects.entry(job.project.clone()).or_insert(());
            let key = shape_key(job.nodes, ckpt);
            let idx = *shape_ids.entry(key).or_insert_with(|| {
                shapes.push(ShapeStats {
                    nodes: job.nodes,
                    ckpt,
                    count: 0,
                    wall_sum_secs: 0.0,
                    node_secs: 0.0,
                });
                shapes.len() - 1
            });
            shapes[idx].count += 1;
            shapes[idx].wall_sum_secs += job.walltime.as_secs();
            shapes[idx].node_secs += job.nodes as f64 * job.walltime.as_secs();
        }
        if jobs == 0 {
            return Err(TraceError::new(
                context,
                0,
                format!("trace contains no jobs within the {horizon} horizon"),
            ));
        }
        let total_node_secs: f64 = shapes.iter().map(|s| s.node_secs).sum();
        // Shape names: "q<nodes>", disambiguated by checkpoint-size ordinal
        // when one node count carries several checkpoint volumes.
        let mut per_nodes: HashMap<usize, usize> = HashMap::new();
        for s in &shapes {
            *per_nodes.entry(s.nodes).or_insert(0) += 1;
        }
        let mut ordinal: HashMap<usize, usize> = HashMap::new();
        let classes = shapes
            .iter()
            .map(|s| {
                let name = if per_nodes[&s.nodes] > 1 {
                    let n = ordinal.entry(s.nodes).or_insert(0);
                    *n += 1;
                    format!("q{}.{}", s.nodes, n)
                } else {
                    format!("q{}", s.nodes)
                };
                AppClass {
                    name,
                    q_nodes: s.nodes,
                    walltime: Duration::from_secs(s.wall_sum_secs / s.count as f64),
                    resource_share: s.node_secs / total_node_secs,
                    input_bytes: Bytes::ZERO,
                    output_bytes: Bytes::ZERO,
                    ckpt_bytes: s.ckpt,
                    regular_io_bytes: Bytes::ZERO,
                }
            })
            .collect();
        Ok(TraceClasses {
            classes,
            jobs,
            projects: projects.len(),
            last_submit,
            shape_ids,
        })
    }

    /// Rebuilds the shape table from an already-synthesized class list
    /// (each class *is* one shape: its `q_nodes` and `ckpt_bytes` key it).
    /// Lets a run reconstruct the [`JobStream`] mapping from a stored
    /// config without a second scan pass; the job/project counters are
    /// not recoverable from classes alone and read zero.
    pub fn from_classes(classes: &[AppClass]) -> TraceClasses {
        let shape_ids = classes
            .iter()
            .enumerate()
            .map(|(idx, c)| (shape_key(c.q_nodes, c.ckpt_bytes), idx))
            .collect();
        TraceClasses {
            classes: classes.to_vec(),
            jobs: 0,
            projects: 0,
            last_submit: Time::ZERO,
            shape_ids,
        }
    }

    /// Convenience: open `spec` and scan it.
    pub fn scan_spec(
        spec: &TraceSpec,
        platform: &Platform,
        horizon: Time,
    ) -> Result<TraceClasses, TraceError> {
        let mut source = spec.open()?;
        TraceClasses::scan(source.as_mut(), platform, horizon, &spec.spec_string())
    }

    /// The class for a job shape, when the scan saw it.
    pub fn class_of(&self, nodes: usize, ckpt: Bytes) -> Option<ClassId> {
        self.shape_ids
            .get(&shape_key(nodes, ckpt))
            .map(|&i| ClassId(i))
    }
}

/// One job arrival handed to the engine: when, what, and whose.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmittedJob {
    /// Simulated submit time.
    pub submit: Time,
    /// Project (allocation) label, for per-project accounting.
    pub project: String,
    /// The job itself. The id is a stream-local rank; the engine assigns
    /// its own id space on admission (restarts share the same counter).
    pub spec: JobSpec,
}

/// The run-time adapter the engine pulls from: one record of lookahead,
/// each mapped onto its scanned shape class.
pub struct JobStream {
    source: Box<dyn JobSource>,
    context: String,
    mem_per_node: Bytes,
    shape_ids: HashMap<ShapeKey, usize>,
    horizon: Time,
    rank: usize,
    done: bool,
}

impl JobStream {
    /// Opens a fresh stream over `spec` against the class table a prior
    /// [`TraceClasses::scan_spec`] built (same platform, same horizon).
    pub fn open(
        spec: &TraceSpec,
        classes: &TraceClasses,
        platform: &Platform,
        horizon: Time,
    ) -> Result<JobStream, TraceError> {
        Ok(JobStream {
            source: spec.open()?,
            context: spec.spec_string(),
            mem_per_node: platform.mem_per_node,
            shape_ids: classes.shape_ids.clone(),
            horizon,
            rank: 0,
            done: false,
        })
    }

    /// Builds a stream over an already-open source (test seam — lets the
    /// bit-identity tests drive a [`MaterializedSource`] and a file reader
    /// through the identical path).
    pub fn over(
        source: Box<dyn JobSource>,
        classes: &TraceClasses,
        platform: &Platform,
        horizon: Time,
        context: &str,
    ) -> JobStream {
        JobStream {
            source,
            context: context.to_string(),
            mem_per_node: platform.mem_per_node,
            shape_ids: classes.shape_ids.clone(),
            horizon,
            rank: 0,
            done: false,
        }
    }

    /// The next arrival in submit order, `None` once the source is
    /// exhausted or past the horizon.
    ///
    /// # Panics
    ///
    /// Panics when the source yields an error or an unscanned shape — the
    /// validation scan accepted this spec, so either means the trace
    /// changed between validation and the run.
    pub fn next_submission(&mut self) -> Option<SubmittedJob> {
        if self.done {
            return None;
        }
        let job = match self.source.next_job()? {
            Ok(job) => job,
            Err(e) => panic!("trace changed since validation: {e}"),
        };
        if job.submit > self.horizon {
            self.done = true;
            return None;
        }
        let ckpt = job
            .ckpt_bytes
            .unwrap_or(self.mem_per_node * job.nodes as f64);
        let &class = self
            .shape_ids
            .get(&shape_key(job.nodes, ckpt))
            .unwrap_or_else(|| {
                panic!(
                    "trace changed since validation: {}: unscanned job shape \
                     ({} nodes, {} checkpoint)",
                    self.context, job.nodes, ckpt
                )
            });
        let rank = self.rank;
        self.rank += 1;
        Some(SubmittedJob {
            submit: job.submit,
            project: job.project,
            spec: JobSpec {
                id: JobId(rank),
                class: ClassId(class),
                q_nodes: job.nodes,
                work: job.walltime,
                input_bytes: Bytes::ZERO,
                output_bytes: Bytes::ZERO,
                ckpt_bytes: ckpt,
                regular_io_bytes: Bytes::ZERO,
                priority: rank as i64,
                is_restart: false,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platforms::cielo;

    fn job(project: &str, submit: f64, nodes: usize, wall: f64) -> TraceJob {
        TraceJob {
            project: project.to_string(),
            submit: Time::from_secs(submit),
            nodes,
            walltime: Duration::from_secs(wall),
            ckpt_bytes: None,
            line: 1,
        }
    }

    #[test]
    fn scan_groups_jobs_into_shape_classes() {
        let p = cielo();
        let mut src = MaterializedSource::new(vec![
            job("astro", 0.0, 128, 3600.0),
            job("bio", 10.0, 256, 7200.0),
            job("astro", 20.0, 128, 1800.0),
        ]);
        let t = TraceClasses::scan(&mut src, &p, Time::from_secs(1e6), "test").unwrap();
        assert_eq!(t.jobs, 3);
        assert_eq!(t.projects, 2);
        assert_eq!(t.classes.len(), 2);
        assert_eq!(t.classes[0].name, "q128");
        assert_eq!(t.classes[0].q_nodes, 128);
        // Mean walltime of the two q128 jobs.
        assert_eq!(t.classes[0].walltime.as_secs(), (3600.0 + 1800.0) / 2.0);
        // Default checkpoint = full footprint.
        assert_eq!(
            t.classes[0].ckpt_bytes.as_bytes(),
            (p.mem_per_node * 128.0).as_bytes()
        );
        // Shares sum to 1 over node-seconds.
        let share: f64 = t.classes.iter().map(|c| c.resource_share).sum();
        assert!((share - 1.0).abs() < 1e-12);
        assert!(t.class_of(128, p.mem_per_node * 128.0).is_some());
        assert!(t.class_of(64, p.mem_per_node * 64.0).is_none());
    }

    #[test]
    fn same_nodes_different_ckpt_are_distinct_shapes() {
        let p = cielo();
        let mut a = job("x", 0.0, 128, 100.0);
        a.ckpt_bytes = Some(Bytes::from_gb(10.0));
        let mut b = job("x", 1.0, 128, 100.0);
        b.ckpt_bytes = Some(Bytes::from_gb(20.0));
        let mut src = MaterializedSource::new(vec![a, b]);
        let t = TraceClasses::scan(&mut src, &p, Time::from_secs(1e6), "test").unwrap();
        assert_eq!(t.classes.len(), 2);
        assert_eq!(t.classes[0].name, "q128.1");
        assert_eq!(t.classes[1].name, "q128.2");
    }

    #[test]
    fn scan_rejects_out_of_order_and_oversized() {
        // Errors cite each record's source line (here as if comments and
        // blank lines sat between records), not its ordinal.
        let p = cielo();
        let at = |line, job| TraceJob { line, ..job };
        let mut src = MaterializedSource::new(vec![
            at(3, job("x", 10.0, 1, 1.0)),
            at(7, job("x", 5.0, 1, 1.0)),
        ]);
        let err = TraceClasses::scan(&mut src, &p, Time::from_secs(1e6), "test").unwrap_err();
        assert!(err.message.contains("nondecreasing"), "{err}");
        assert_eq!(err.line, 7);
        let mut src = MaterializedSource::new(vec![at(4, job("x", 0.0, p.nodes + 1, 1.0))]);
        let err = TraceClasses::scan(&mut src, &p, Time::from_secs(1e6), "test").unwrap_err();
        assert!(err.message.contains("only"), "{err}");
        assert_eq!(err.line, 4);
    }

    #[test]
    fn scan_stops_at_the_horizon() {
        let p = cielo();
        let mut src = MaterializedSource::new(vec![
            job("x", 0.0, 1, 1.0),
            job("x", 100.0, 2, 1.0),
            job("x", 1e9, 4, 1.0),
        ]);
        let t = TraceClasses::scan(&mut src, &p, Time::from_secs(200.0), "test").unwrap();
        assert_eq!(t.jobs, 2);
        assert_eq!(t.classes.len(), 2);
        assert_eq!(t.last_submit, Time::from_secs(100.0));
    }

    #[test]
    fn stream_maps_jobs_onto_scanned_shapes() {
        let p = cielo();
        let records = vec![
            job("astro", 0.0, 128, 3600.0),
            job("bio", 10.0, 256, 7200.0),
        ];
        let mut src = MaterializedSource::new(records.clone());
        let horizon = Time::from_secs(1e6);
        let t = TraceClasses::scan(&mut src, &p, horizon, "test").unwrap();
        let mut stream = JobStream::over(
            Box::new(MaterializedSource::new(records)),
            &t,
            &p,
            horizon,
            "test",
        );
        let first = stream.next_submission().unwrap();
        assert_eq!(first.project, "astro");
        assert_eq!(first.spec.q_nodes, 128);
        assert_eq!(
            first.spec.class,
            t.class_of(128, p.mem_per_node * 128.0).unwrap()
        );
        assert_eq!(first.spec.work.as_secs(), 3600.0);
        let second = stream.next_submission().unwrap();
        assert_eq!(second.project, "bio");
        assert_eq!(second.spec.priority, 1);
        assert!(stream.next_submission().is_none());
    }

    #[test]
    fn trace_spec_parse_round_trips() {
        let p = TraceSpec::parse("scenarios/traces/sample.csv").unwrap();
        assert_eq!(p.spec_string(), "scenarios/traces/sample.csv");
        let s = TraceSpec::parse("synthetic:jobs=10,seed=3").unwrap();
        let canon = s.spec_string();
        assert!(canon.starts_with("synthetic:jobs=10,"), "{canon}");
        // Canonical strings are fixed points of parse ∘ spec_string.
        assert_eq!(TraceSpec::parse(&canon).unwrap().spec_string(), canon);
        assert!(TraceSpec::parse("").is_err());
        assert!(TraceSpec::parse("synthetic:bogus=1").is_err());
    }
}
