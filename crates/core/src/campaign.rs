//! Campaign suites: many scenarios declared in one file, executed by a
//! work-stealing runner, with a content-addressed on-disk result cache.
//!
//! The paper's experiments are *grids* — strategies × bandwidths × MTBFs ×
//! failure-class mixes — but a plain `run` invocation executes one
//! scenario. A [`Suite`] declares a whole campaign in one JSON document:
//!
//! ```json
//! {
//!   "name": "paper-grid",
//!   "base": { "platform": {"preset": "cielo"}, "span_days": 2, "samples": 2 },
//!   "grid": {
//!     "strategy": ["least-waste", "ordered-daly"],
//!     "bandwidth_gbps": [40, 160]
//!   },
//!   "scenarios": [ { "name": "extra-point", "strategy": "tiered", "tiers": 3 } ]
//! }
//! ```
//!
//! * `base` (optional) is a regular scenario object; every grid point
//!   starts from it.
//! * `grid` (optional) maps axis names to value lists; the cartesian
//!   product is applied to `base` in row-major order (first axis
//!   outermost), each point auto-named `prefix/axis=value/...`.
//! * `scenarios` (optional) appends explicit scenario objects after the
//!   grid points.
//! * A document with none of those keys is accepted as a degenerate
//!   one-scenario suite, so `suite` also runs plain scenario files.
//!
//! [`Suite::expand`] yields the deduplicated, order-stable list of
//! concrete [`Scenario`]s; [`run_suite`] shards them across a thread pool
//! (work-stealing via an atomic cursor, the same deterministic pattern as
//! the Monte-Carlo pool) and merges the per-point [`Report`]s in
//! expansion order, so the merged output is **bit-identical regardless of
//! thread count**. With a [`ResultCache`], each point's rendered report is
//! stored under its [`cache_key`] — rerunning a suite skips
//! already-computed points, and a resumed campaign's output is
//! bit-identical to a cold one. A point that reads a job-log file also
//! stores a fingerprint of the file's bytes, so editing the log turns its
//! entries into misses.
//!
//! [`compare_campaigns`] diffs two campaign (or single-report) JSON
//! documents and highlights metric drift beyond a relative tolerance.

use crate::axis::{grid_axis, Axis, AxisValue};
use crate::experiments::run_scenario_with_cache;
use crate::json::{Json, JsonError};
use crate::montecarlo::{run_points, OpPointCache};
use crate::report::{Cell, OutputFormat, Report};
use crate::scenario::{Scenario, ScenarioError, WorkloadSource};
use coopckpt_workload::trace_workload::TraceSpec;
use std::collections::HashSet;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Errors raised while loading, expanding, running or comparing a
/// campaign.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// A scenario inside the suite failed to parse or validate.
    Scenario(ScenarioError),
    /// The suite document is not valid JSON.
    Json(JsonError),
    /// A file could not be read or written.
    Io {
        /// Offending path.
        path: PathBuf,
        /// OS error message.
        message: String,
    },
    /// The document is valid JSON but not a valid suite / campaign.
    Invalid {
        /// Dotted field path (e.g. `grid.tiers`), or `""` for
        /// document-level problems.
        field: String,
        /// What is wrong.
        message: String,
    },
    /// One expanded point failed validation.
    Point {
        /// The point's auto- or user-assigned name.
        name: String,
        /// The underlying scenario error.
        source: ScenarioError,
    },
}

impl CampaignError {
    fn invalid(field: impl Into<String>, message: impl Into<String>) -> CampaignError {
        CampaignError::Invalid {
            field: field.into(),
            message: message.into(),
        }
    }

    fn io(path: impl Into<PathBuf>, e: std::io::Error) -> CampaignError {
        CampaignError::Io {
            path: path.into(),
            message: e.to_string(),
        }
    }
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Scenario(e) => write!(f, "{e}"),
            CampaignError::Json(e) => write!(f, "{e}"),
            CampaignError::Io { path, message } => {
                write!(f, "campaign I/O error on {}: {message}", path.display())
            }
            CampaignError::Invalid { field, message } if field.is_empty() => {
                write!(f, "invalid suite: {message}")
            }
            CampaignError::Invalid { field, message } => {
                write!(f, "invalid suite field '{field}': {message}")
            }
            CampaignError::Point { name, source } => {
                write!(f, "suite point '{name}': {source}")
            }
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<ScenarioError> for CampaignError {
    fn from(e: ScenarioError) -> Self {
        CampaignError::Scenario(e)
    }
}

impl From<JsonError> for CampaignError {
    fn from(e: JsonError) -> Self {
        CampaignError::Json(e)
    }
}

/// A declarative campaign: a base scenario, an optional cartesian grid
/// over [`Axis`] values, and optional explicit member scenarios. See the
/// [module docs](self) for the JSON schema.
#[derive(Debug, Clone, PartialEq)]
pub struct Suite {
    /// Optional campaign label (echoed in the merged output, and the
    /// auto-name prefix when the base scenario is unnamed).
    pub name: Option<String>,
    /// Every grid point starts from this scenario.
    pub base: Scenario,
    /// Explicit members, appended after the grid points.
    pub scenarios: Vec<Scenario>,
    /// Grid axes with their values, in document order (first axis
    /// outermost).
    pub grid: Vec<(&'static Axis, Vec<AxisValue>)>,
}

impl Suite {
    /// Parses a suite from JSON text.
    pub fn parse(text: &str) -> Result<Suite, CampaignError> {
        Suite::from_json(&Json::parse(text)?)
    }

    /// Loads a suite from a JSON file.
    pub fn load(path: impl AsRef<Path>) -> Result<Suite, CampaignError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| CampaignError::io(path, e))?;
        Suite::parse(&text)
    }

    /// Parses a suite from a JSON value. A document without any of the
    /// suite keys (`base`, `grid`, `scenarios`) is read as a plain
    /// scenario and wrapped as a one-point suite.
    pub fn from_json(v: &Json) -> Result<Suite, CampaignError> {
        let pairs = v
            .as_object()
            .ok_or_else(|| CampaignError::invalid("", "suite must be a JSON object"))?;
        let is_suite = pairs
            .iter()
            .any(|(k, _)| matches!(k.as_str(), "base" | "grid" | "scenarios"));
        if !is_suite {
            let sc = Scenario::from_json(v)?;
            return Ok(Suite {
                name: sc.name.clone(),
                base: Scenario::default(),
                scenarios: vec![sc],
                grid: Vec::new(),
            });
        }
        for (k, _) in pairs {
            if !matches!(k.as_str(), "name" | "base" | "grid" | "scenarios") {
                return Err(CampaignError::invalid(
                    k,
                    "unknown suite key (name|base|grid|scenarios)",
                ));
            }
        }
        let name = match v.get("name") {
            None => None,
            Some(n) => Some(
                n.as_str()
                    .ok_or_else(|| CampaignError::invalid("name", "expected a string"))?
                    .to_string(),
            ),
        };
        let base = match v.get("base") {
            None => Scenario::default(),
            Some(b) => Scenario::from_json(b)?,
        };
        let scenarios = match v.get("scenarios") {
            None => Vec::new(),
            Some(list) => {
                let items = list.as_array().ok_or_else(|| {
                    CampaignError::invalid("scenarios", "expected an array of scenario objects")
                })?;
                items
                    .iter()
                    .map(Scenario::from_json)
                    .collect::<Result<Vec<Scenario>, ScenarioError>>()?
            }
        };
        let grid = match v.get("grid") {
            None => Vec::new(),
            Some(g) => {
                let entries = g
                    .as_object()
                    .ok_or_else(|| CampaignError::invalid("grid", "expected an object of axes"))?;
                let mut seen = HashSet::new();
                let mut axes = Vec::with_capacity(entries.len());
                for (k, val) in entries {
                    if !seen.insert(k.as_str()) {
                        return Err(CampaignError::invalid(
                            format!("grid.{k}"),
                            "duplicate grid axis",
                        ));
                    }
                    let field = format!("grid.{k}");
                    let axis = grid_axis(k).map_err(|e| CampaignError::invalid(&field, e))?;
                    let values = axis
                        .parse_values(val)
                        .map_err(|e| CampaignError::invalid(&field, e))?;
                    axes.push((axis, values));
                }
                axes
            }
        };
        // A document declaring only a `base` (no grid, no members) is the
        // degenerate one-point campaign of that base. An explicitly empty
        // `scenarios` list without a base stays empty — and fails at
        // expansion — rather than silently running a default scenario.
        let mut scenarios = scenarios;
        if grid.is_empty() && scenarios.is_empty() && v.get("base").is_some() {
            scenarios.push(base.clone());
        }
        Ok(Suite {
            name,
            base,
            scenarios,
            grid,
        })
    }

    /// Expands the suite to its concrete scenarios: the grid's cartesian
    /// product applied to `base` in row-major order (first axis
    /// outermost, auto-named `prefix/axis=value/...`), then the explicit
    /// `scenarios`, deduplicated on canonical scenario JSON keeping the
    /// first occurrence. The `threads` knob is normalized to `0` on every
    /// point — execution parallelism belongs to the campaign runner, and
    /// must never leak into the canonical spec (or the cache key).
    ///
    /// Every point is validated before any of them runs, so a bad grid
    /// value fails the whole campaign up front instead of mid-flight.
    pub fn expand(&self) -> Result<Vec<Scenario>, CampaignError> {
        let mut points: Vec<Scenario> = Vec::new();
        if !self.grid.is_empty() {
            let dims: Vec<usize> = self.grid.iter().map(|(_, values)| values.len()).collect();
            if dims.contains(&0) {
                return Err(CampaignError::invalid("grid", "axis must list values"));
            }
            let total: usize = dims.iter().product();
            let prefix = self.base.name.clone().or_else(|| self.name.clone());
            for flat in 0..total {
                let mut rem = flat;
                let mut idx = vec![0usize; dims.len()];
                for (d, &dim) in dims.iter().enumerate().rev() {
                    idx[d] = rem % dim;
                    rem /= dim;
                }
                let mut sc = self.base.clone();
                let mut label = Vec::with_capacity(self.grid.len());
                for ((axis, values), &i) in self.grid.iter().zip(&idx) {
                    sc = axis
                        .apply(sc, &values[i])
                        .map_err(|e| CampaignError::invalid(format!("grid.{}", axis.key), e))?;
                    // `/` separates the name's axis segments (and these
                    // names become file-ish labels downstream), so values
                    // carrying one — trace paths — are flattened to `_`.
                    let value = values[i].label().replace('/', "_");
                    label.push(format!("{}={}", axis.key, value));
                }
                let label = label.join("/");
                let name = match &prefix {
                    Some(p) => format!("{p}/{label}"),
                    None => label,
                };
                sc.name = Some(name);
                points.push(sc);
            }
        }
        points.extend(self.scenarios.iter().cloned());
        for sc in &mut points {
            sc.threads = 0;
        }
        let mut seen = HashSet::new();
        points.retain(|sc| seen.insert(sc.to_json_string()));
        for sc in &points {
            sc.into_config().map_err(|source| CampaignError::Point {
                name: sc.name.clone().unwrap_or_else(|| "<unnamed>".to_string()),
                source,
            })?;
        }
        if points.is_empty() {
            return Err(CampaignError::invalid(
                "",
                "suite declares no scenarios (add a 'grid' or a 'scenarios' list)",
            ));
        }
        Ok(points)
    }
}

// ----- content-addressed result cache -----------------------------------

/// Salt folded into every [`cache_key`]. Bump the version tag whenever a
/// change alters simulation results or report formatting without touching
/// the scenario schema, so stale caches miss instead of lying.
pub const CACHE_SALT: &str = concat!("coopckpt-campaign-v1:", env!("CARGO_PKG_VERSION"));

fn fnv1a64(bytes: &[u8], offset_basis: u64) -> u64 {
    let mut h = offset_basis;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The content-addressed cache key of one concrete scenario: 128 bits of
/// FNV-1a (hex) over [`CACHE_SALT`] plus the canonical scenario JSON with
/// `threads` normalized out (the runner owns parallelism, and thread
/// count never changes results).
///
/// Canonical serialization does the hygiene work: human-unit spellings
/// (`span_days` vs `span_secs`, `bandwidth_gbps` vs raw bytes/s) and JSON
/// field order all collapse to one key, while every result-affecting
/// field — seed, samples, strategy, any axis — feeds the hash.
///
/// A job-log workload enters the key by its path only; the
/// [`ResultCache`] checks the log's content separately.
pub fn cache_key(scenario: &Scenario) -> String {
    let mut sc = scenario.clone();
    sc.threads = 0;
    fnv128_hex(format!("{CACHE_SALT}\n{}", sc.to_json_string()).as_bytes())
}

/// 128 bits of FNV-1a over `bytes`, in hex. Two passes with distinct
/// offset bases: a 64-bit birthday bound is uncomfortable for long-lived
/// caches; 128 bits is not.
fn fnv128_hex(bytes: &[u8]) -> String {
    let h1 = fnv1a64(bytes, 0xcbf2_9ce4_8422_2325);
    let h2 = fnv1a64(bytes, 0x6c62_272e_07bb_0142);
    format!("{h1:016x}{h2:016x}")
}

/// The content fingerprint of a point whose workload is a job-log file:
/// [`fnv128_hex`] of the file's bytes, or `None` for any other workload
/// (a `synthetic:` spec is its own content, and the key holds it).
fn trace_fingerprint(sc: &Scenario) -> Result<Option<String>, CampaignError> {
    let WorkloadSource::Trace(spec) = &sc.workload else {
        return Ok(None);
    };
    let Ok(TraceSpec::Path(path)) = TraceSpec::parse(spec) else {
        return Ok(None);
    };
    let bytes = std::fs::read(&path).map_err(|e| CampaignError::io(&path, e))?;
    Ok(Some(fnv128_hex(&bytes)))
}

/// What the disk cache stores per point: the report's JSON document plus
/// its exact text and CSV renderings. All three are kept because a
/// `Report` is not losslessly reconstructible from its JSON (per-cell
/// display precision is a rendering-time property), and resumed campaigns
/// must be bit-identical to cold ones in every format.
struct CachedResult {
    report: Json,
    text: String,
    csv: String,
}

/// A directory of content-addressed campaign results (`<key>.json`, one
/// per operating point). Corrupt, truncated or salt-mismatched entries
/// read as misses and are recomputed, as does an entry whose job-log
/// fingerprint (`trace_fnv`) is missing or no longer matches the log's
/// bytes; writes go through a temp file + rename so a crashed run never
/// leaves a half-written entry behind.
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Opens (creating if needed) a cache directory.
    pub fn new(dir: impl Into<PathBuf>) -> Result<ResultCache, CampaignError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| CampaignError::io(&dir, e))?;
        Ok(ResultCache { dir })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    fn load(&self, key: &str, trace_fnv: Option<&str>) -> Option<CachedResult> {
        let text = std::fs::read_to_string(self.entry_path(key)).ok()?;
        let v = Json::parse(&text).ok()?;
        if v.get("salt").and_then(Json::as_str) != Some(CACHE_SALT)
            || v.get("key").and_then(Json::as_str) != Some(key)
            || v.get("trace_fnv").and_then(Json::as_str) != trace_fnv
        {
            return None;
        }
        Some(CachedResult {
            report: v.get("report")?.clone(),
            text: v.get("text")?.as_str()?.to_string(),
            csv: v.get("csv")?.as_str()?.to_string(),
        })
    }

    /// Evicts every entry the running binary can never hit: files whose
    /// embedded salt differs from [`CACHE_SALT`] (older versions keyed
    /// and salted differently, so they read as misses forever), whose
    /// `key` field disagrees with the file name, or that fail to parse
    /// at all — plus any `.tmp` leftovers from crashed writers. Files
    /// without a `.json` extension are foreign and left untouched.
    /// Returns `(kept, evicted)` counts.
    pub fn gc(&self) -> Result<(usize, usize), CampaignError> {
        let mut kept = 0usize;
        let mut evicted = 0usize;
        let entries = std::fs::read_dir(&self.dir).map_err(|e| CampaignError::io(&self.dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| CampaignError::io(&self.dir, e))?;
            let path = entry.path();
            let Some(name) = path
                .file_name()
                .and_then(|n| n.to_str())
                .map(str::to_string)
            else {
                continue;
            };
            let evict = || -> Result<(), CampaignError> {
                std::fs::remove_file(&path).map_err(|e| CampaignError::io(&path, e))
            };
            if name.ends_with(".tmp") {
                evict()?;
                evicted += 1;
                continue;
            }
            let Some(key) = name.strip_suffix(".json") else {
                continue;
            };
            let live = std::fs::read_to_string(&path)
                .ok()
                .and_then(|text| Json::parse(&text).ok())
                .is_some_and(|v| {
                    v.get("salt").and_then(Json::as_str) == Some(CACHE_SALT)
                        && v.get("key").and_then(Json::as_str) == Some(key)
                });
            if live {
                kept += 1;
            } else {
                evict()?;
                evicted += 1;
            }
        }
        Ok((kept, evicted))
    }

    fn store(
        &self,
        key: &str,
        trace_fnv: Option<&str>,
        entry: &CampaignEntry,
    ) -> Result<(), CampaignError> {
        let mut fields = vec![("salt", Json::str(CACHE_SALT))];
        fields.extend(trace_fnv.map(|fp| ("trace_fnv", Json::str(fp))));
        fields.extend([
            ("key", Json::str(key)),
            ("report", entry.report.clone()),
            ("text", Json::str(entry.text.clone())),
            ("csv", Json::str(entry.csv.clone())),
        ]);
        let doc = Json::obj(fields);
        // Per-process temp name: within one run keys are unique (the
        // suite is deduplicated), so only concurrent *processes* can race
        // on a key — and then both write identical content and the
        // atomic rename makes either winner correct.
        let tmp = self.dir.join(format!("{key}.{}.tmp", std::process::id()));
        std::fs::write(&tmp, doc.pretty()).map_err(|e| CampaignError::io(&tmp, e))?;
        std::fs::rename(&tmp, self.entry_path(key)).map_err(|e| CampaignError::io(&tmp, e))?;
        Ok(())
    }
}

// ----- the work-stealing runner ------------------------------------------

/// How to execute a campaign.
#[derive(Default)]
pub struct CampaignOptions {
    /// Worker threads sharding scenarios; 0 = one per available core.
    /// Does not affect the merged output.
    pub threads: usize,
    /// Optional on-disk result cache (resumable campaigns).
    pub cache: Option<ResultCache>,
    /// Operating-point cache to share Monte-Carlo work through; `None`
    /// uses the process-global [`OpPointCache`].
    pub op_cache: Option<Arc<OpPointCache>>,
}

/// One completed point of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignEntry {
    /// The point's name (from expansion), if any.
    pub name: Option<String>,
    /// Its content-addressed [`cache_key`].
    pub key: String,
    /// The point's full report document (JSON value).
    pub report: Json,
    /// The report's text rendering.
    pub text: String,
    /// The report's CSV rendering.
    pub csv: String,
    /// Whether the result came from the on-disk cache. Surfaced in
    /// progress output only — never in the merged document, which must be
    /// identical whether results were cached or computed fresh.
    pub from_cache: bool,
}

impl CampaignEntry {
    /// The point's display label: its name, or its key when unnamed.
    pub fn label(&self) -> &str {
        self.name.as_deref().unwrap_or(&self.key)
    }
}

/// A completed campaign: every point's report, in expansion order.
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    /// The suite's label.
    pub suite: Option<String>,
    /// Completed points, ordered as [`Suite::expand`] listed them.
    pub entries: Vec<CampaignEntry>,
}

impl Campaign {
    /// Number of points served from the on-disk cache.
    pub fn cached_points(&self) -> usize {
        self.entries.iter().filter(|e| e.from_cache).count()
    }

    /// The merged structured document: suite header plus every point's
    /// report. Deliberately free of cache provenance, so cold and resumed
    /// runs are bit-identical.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![("command".to_string(), Json::str("suite"))];
        if let Some(name) = &self.suite {
            pairs.push(("suite".to_string(), Json::str(name.clone())));
        }
        pairs.push(("points".to_string(), Json::Num(self.entries.len() as f64)));
        pairs.push((
            "results".to_string(),
            Json::Arr(
                self.entries
                    .iter()
                    .map(|e| {
                        let mut r = Vec::new();
                        if let Some(name) = &e.name {
                            r.push(("name".to_string(), Json::str(name.clone())));
                        }
                        r.push(("key".to_string(), Json::str(e.key.clone())));
                        r.push(("report".to_string(), e.report.clone()));
                        Json::Obj(r)
                    })
                    .collect(),
            ),
        ));
        Json::Obj(pairs)
    }

    /// Merged text rendering: a suite header, then each point's report
    /// under a `== point: name ==` heading.
    pub fn to_text(&self) -> String {
        let mut out = match &self.suite {
            Some(name) => format!("# suite: {name} ({} points)\n", self.entries.len()),
            None => format!("# suite: {} points\n", self.entries.len()),
        };
        for entry in &self.entries {
            out.push_str(&format!("\n== point: {} ==\n", entry.label()));
            out.push_str(&entry.text);
        }
        out
    }

    /// Merged CSV rendering: `#` comment headers between per-point
    /// tables.
    pub fn to_csv(&self) -> String {
        let mut out = match &self.suite {
            Some(name) => format!("# suite: {name} ({} points)\n", self.entries.len()),
            None => format!("# suite: {} points\n", self.entries.len()),
        };
        for entry in &self.entries {
            out.push_str(&format!("\n# point: {}\n", entry.label()));
            out.push_str(&entry.csv);
        }
        out
    }

    /// Renders in the requested format.
    pub fn render(&self, format: OutputFormat) -> String {
        match format {
            OutputFormat::Text => self.to_text(),
            OutputFormat::Csv => self.to_csv(),
            OutputFormat::Json => self.to_json().pretty(),
        }
    }
}

fn run_point(
    sc: &Scenario,
    cache: Option<&ResultCache>,
    op_cache: &OpPointCache,
) -> Result<CampaignEntry, CampaignError> {
    let key = cache_key(sc);
    let mut trace_fnv = None;
    if let Some(c) = cache {
        trace_fnv = trace_fingerprint(sc)?;
        coopckpt_obs::count(coopckpt_obs::Counter::ResultCacheLookups, 1);
        if let Some(hit) = c.load(&key, trace_fnv.as_deref()) {
            coopckpt_obs::count(coopckpt_obs::Counter::ResultCacheHits, 1);
            return Ok(CampaignEntry {
                name: sc.name.clone(),
                key,
                report: hit.report,
                text: hit.text,
                csv: hit.csv,
                from_cache: true,
            });
        }
        coopckpt_obs::count(coopckpt_obs::Counter::ResultCacheMisses, 1);
    }
    // Points arrive threads-normalized from [`Suite::expand`]; the
    // runner's parallelism lives in the ambient pool the calling worker
    // installed, so the scenario (and its report echo) never carries it.
    let report = run_scenario_with_cache(sc, op_cache)?;
    let entry = CampaignEntry {
        name: sc.name.clone(),
        key: key.clone(),
        report: report.to_json(),
        text: report.to_text(),
        csv: report.to_csv(),
        from_cache: false,
    };
    if let Some(c) = cache {
        c.store(&key, trace_fnv.as_deref(), &entry)?;
    }
    Ok(entry)
}

/// Runs a suite: [`Suite::expand`], then [`run_suite_with`] without a
/// progress callback.
pub fn run_suite(suite: &Suite, opts: &CampaignOptions) -> Result<Campaign, CampaignError> {
    run_suite_with(suite, opts, |_, _, _| {})
}

/// Executes every expanded point of `suite` on the shared worker loop
/// (`montecarlo::run_points`) and merges the results in expansion order.
///
/// `opts.threads` (0 = one per core) is the **total** simulation thread
/// count, honored end to end: workers claim points and steal each other's
/// seed-range sample chunks, so a one-point suite with 1000 samples
/// saturates all workers instead of pinning one. Each point's samples
/// reduce in seed order, so reports, the result cache, and the merged
/// output are bit-identical at any thread count.
///
/// `on_done(index, entry, wall_ms)` fires from worker threads as points
/// finish — completion order, for streaming progress — while the merged
/// [`Campaign`] stays in expansion order.
///
/// With telemetry enabled, each point runs under its own attribution
/// scope; the scope travels with the point's chunks, so samples executed
/// by stealing workers still bill to the right point. Records are
/// buffered and written sorted by point label after the pool joins, so
/// the journal — like the merged campaign — lists points in a
/// thread-count-independent order.
pub fn run_suite_with<F>(
    suite: &Suite,
    opts: &CampaignOptions,
    on_done: F,
) -> Result<Campaign, CampaignError>
where
    F: Fn(usize, &CampaignEntry, u64) + Sync,
{
    let points = suite.expand()?;
    let op_cache: &OpPointCache = match &opts.op_cache {
        Some(c) => c,
        None => OpPointCache::global(),
    };
    // (label, expansion index, record): sorted after the join so journal
    // order is completion-order-independent.
    let journal: Mutex<Vec<(String, usize, Json)>> = Mutex::new(Vec::new());
    let entries = run_points(points.len(), opts.threads, |i, worker| {
        let obs_scope = coopckpt_obs::enabled().then(coopckpt_obs::new_scope);
        let start = std::time::Instant::now();
        let entry = {
            let _guard = obs_scope.as_ref().map(coopckpt_obs::enter);
            run_point(&points[i], opts.cache.as_ref(), op_cache)?
        };
        let wall_ms = start.elapsed().as_millis() as u64;
        if let Some(scope) = &obs_scope {
            let record = crate::telemetry::journal_record(
                entry.label(),
                start.elapsed().as_secs_f64() * 1e3,
                points[i].samples,
                entry.from_cache,
                worker,
                &scope.snapshot(),
            );
            let line = (entry.label().to_string(), i, record);
            journal.lock().unwrap().push(line);
        }
        on_done(i, &entry, wall_ms);
        Ok::<_, CampaignError>(entry)
    })?;
    let mut records = journal.into_inner().unwrap();
    records.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
    for (_, _, record) in &records {
        coopckpt_obs::journal_line(&record.to_string());
    }
    Ok(Campaign {
        suite: suite.name.clone(),
        entries,
    })
}

// ----- campaign comparison -----------------------------------------------

/// The outcome of [`compare_campaigns`].
pub struct CompareOutcome {
    /// The diff report (a `diff` section listing every beyond-tolerance
    /// change, then a `summary` section).
    pub report: Report,
    /// Number of beyond-tolerance differences (0 = the campaigns agree).
    pub differences: usize,
}

/// The named per-point reports of a campaign document — or, for a plain
/// `run`/`sweep` report, the document itself as a one-point campaign.
fn result_list<'a>(doc: &'a Json, side: &str) -> Result<Vec<(String, &'a Json)>, CampaignError> {
    if let Some(results) = doc.get("results").and_then(Json::as_array) {
        return results
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let report = r.get("report").ok_or_else(|| {
                    CampaignError::invalid(format!("{side}.results[{i}]"), "missing 'report'")
                })?;
                let name = r
                    .get("name")
                    .or_else(|| r.get("key"))
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .unwrap_or_else(|| format!("#{i}"));
                Ok((name, report))
            })
            .collect();
    }
    if doc.get("sections").is_some() {
        let name = doc
            .get("scenario")
            .and_then(|s| s.get("name"))
            .and_then(Json::as_str)
            .unwrap_or("report")
            .to_string();
        return Ok(vec![(name, doc)]);
    }
    Err(CampaignError::invalid(
        side,
        "not a campaign or report document (expected 'results' or 'sections')",
    ))
}

/// One diff row: `[point, section, row, column, a, b, delta]`.
type DiffRow = [Cell; 7];

fn structural_diff(point: &str, section: &str, what: &str, a: Cell, b: Cell) -> DiffRow {
    [
        Cell::text(point),
        Cell::text(section),
        Cell::text("-"),
        Cell::text(what),
        a,
        b,
        Cell::text("-"),
    ]
}

fn compare_reports(
    point: &str,
    ra: &Json,
    rb: &Json,
    tolerance: f64,
    diffs: &mut Vec<DiffRow>,
    cells_compared: &mut usize,
) {
    let notes = |doc: &Json| -> Vec<String> {
        doc.get("notes")
            .and_then(Json::as_array)
            .map(|ns| {
                ns.iter()
                    .filter_map(Json::as_str)
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default()
    };
    if notes(ra) != notes(rb) {
        diffs.push(structural_diff(
            point,
            "-",
            "<notes>",
            Cell::text(notes(ra).join(" | ")),
            Cell::text(notes(rb).join(" | ")),
        ));
    }
    let empty: &[Json] = &[];
    let sections_a = ra.get("sections").and_then(Json::as_array).unwrap_or(empty);
    let sections_b = rb.get("sections").and_then(Json::as_array).unwrap_or(empty);
    let name_of = |s: &Json| -> String {
        s.get("name")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    // The telemetry section is diagnostic output, present only when the
    // run had `--telemetry`; it never participates in comparisons, so a
    // telemetry-on run stays zero-diff against a telemetry-off one.
    let skipped = |name: &str| name == crate::telemetry::TELEMETRY_SECTION;
    for sb in sections_b {
        let nb = name_of(sb);
        if skipped(&nb) {
            continue;
        }
        if !sections_a.iter().any(|sa| name_of(sa) == nb) {
            diffs.push(structural_diff(
                point,
                &nb,
                "<section>",
                Cell::text("missing"),
                Cell::text("present"),
            ));
        }
    }
    for sa in sections_a {
        let name = name_of(sa);
        if skipped(&name) {
            continue;
        }
        let Some(sb) = sections_b.iter().find(|s| name_of(s) == name) else {
            diffs.push(structural_diff(
                point,
                &name,
                "<section>",
                Cell::text("present"),
                Cell::text("missing"),
            ));
            continue;
        };
        compare_sections(point, &name, sa, sb, tolerance, diffs, cells_compared);
    }
}

fn compare_sections(
    point: &str,
    section: &str,
    sa: &Json,
    sb: &Json,
    tolerance: f64,
    diffs: &mut Vec<DiffRow>,
    cells_compared: &mut usize,
) {
    let strings = |s: &Json, key: &str| -> Vec<String> {
        s.get(key)
            .and_then(Json::as_array)
            .map(|cols| {
                cols.iter()
                    .filter_map(Json::as_str)
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default()
    };
    let cols_a = strings(sa, "columns");
    if cols_a != strings(sb, "columns") {
        diffs.push(structural_diff(
            point,
            section,
            "<columns>",
            Cell::text(cols_a.join(",")),
            Cell::text(strings(sb, "columns").join(",")),
        ));
        return;
    }
    let empty: &[Json] = &[];
    let rows_a = sa.get("rows").and_then(Json::as_array).unwrap_or(empty);
    let rows_b = sb.get("rows").and_then(Json::as_array).unwrap_or(empty);
    if rows_a.len() != rows_b.len() {
        diffs.push(structural_diff(
            point,
            section,
            "<rows>",
            Cell::int(rows_a.len() as i64),
            Cell::int(rows_b.len() as i64),
        ));
        return;
    }
    for (ri, (row_a, row_b)) in rows_a.iter().zip(rows_b).enumerate() {
        let cells_a = row_a.as_array().unwrap_or(empty);
        let cells_b = row_b.as_array().unwrap_or(empty);
        // Rows label themselves by their leading text cell (strategy or
        // metric name) when they have one.
        let row_label = cells_a
            .first()
            .and_then(Json::as_str)
            .map(str::to_string)
            .unwrap_or_else(|| format!("{ri}"));
        for (ci, (ca, cb)) in cells_a.iter().zip(cells_b).enumerate() {
            let column = cols_a
                .get(ci)
                .cloned()
                .unwrap_or_else(|| format!("col{ci}"));
            match (ca.as_f64(), cb.as_f64()) {
                (Some(va), Some(vb)) => {
                    *cells_compared += 1;
                    let delta = vb - va;
                    if delta.abs() > tolerance * va.abs().max(vb.abs()) {
                        diffs.push([
                            Cell::text(point),
                            Cell::text(section),
                            Cell::text(row_label.clone()),
                            Cell::text(column),
                            Cell::float(va, 6),
                            Cell::float(vb, 6),
                            Cell::float(delta, 6),
                        ]);
                    }
                }
                _ => {
                    if ca != cb {
                        diffs.push([
                            Cell::text(point),
                            Cell::text(section),
                            Cell::text(row_label.clone()),
                            Cell::text(column),
                            Cell::text(format!("{ca}")),
                            Cell::text(format!("{cb}")),
                            Cell::text("-"),
                        ]);
                    }
                }
            }
        }
    }
}

/// Diffs two campaign (or single-report) JSON documents.
///
/// Points are matched by name (falling back to cache key), sections by
/// name, rows by position. Numeric cells count as different when
/// `|b - a| > tolerance * max(|a|, |b|)` — a *relative* tolerance, so
/// `tolerance = 0` demands bit-equality and `0.05` allows 5 % drift.
/// Structural differences (missing points or sections, row-count or
/// column changes, note drift) always count. The returned report lists
/// every difference in a `diff` section plus a `summary`.
pub fn compare_campaigns(
    a: &Json,
    b: &Json,
    tolerance: f64,
    label_a: &str,
    label_b: &str,
) -> Result<CompareOutcome, CampaignError> {
    if !(tolerance.is_finite() && tolerance >= 0.0) {
        return Err(CampaignError::invalid(
            "tolerance",
            "must be a finite non-negative number",
        ));
    }
    let la = result_list(a, "a")?;
    let lb = result_list(b, "b")?;
    let mut report = Report::new("compare", None);
    report.note(format!("a: {label_a} ({} points)", la.len()));
    report.note(format!("b: {label_b} ({} points)", lb.len()));
    report.note(format!("relative tolerance: {tolerance}"));

    let mut diffs: Vec<DiffRow> = Vec::new();
    let mut cells_compared = 0usize;
    for (name, _) in &la {
        if !lb.iter().any(|(n, _)| n == name) {
            diffs.push(structural_diff(
                name,
                "-",
                "<point>",
                Cell::text("present"),
                Cell::text("missing"),
            ));
        }
    }
    for (name, _) in &lb {
        if !la.iter().any(|(n, _)| n == name) {
            diffs.push(structural_diff(
                name,
                "-",
                "<point>",
                Cell::text("missing"),
                Cell::text("present"),
            ));
        }
    }
    for (name, ra) in &la {
        if let Some((_, rb)) = lb.iter().find(|(n, _)| n == name) {
            compare_reports(name, ra, rb, tolerance, &mut diffs, &mut cells_compared);
        }
    }

    let differences = diffs.len();
    let diff = report.section(
        "diff",
        ["point", "section", "row", "column", "a", "b", "delta"],
    );
    for row in diffs {
        diff.row(row);
    }
    let summary = report.section("summary", ["metric", "value"]);
    summary.row([Cell::text("points_a"), Cell::int(la.len() as i64)]);
    summary.row([Cell::text("points_b"), Cell::int(lb.len() as i64)]);
    summary.row([
        Cell::text("cells_compared"),
        Cell::int(cells_compared as i64),
    ]);
    summary.row([Cell::text("differences"), Cell::int(differences as i64)]);
    Ok(CompareOutcome {
        report,
        differences,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::WorkloadSource;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("coopckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn entry(key: &str) -> CampaignEntry {
        CampaignEntry {
            name: Some("p".to_string()),
            key: key.to_string(),
            report: Json::obj([("sections", Json::Arr(Vec::new()))]),
            text: "t".to_string(),
            csv: "c".to_string(),
            from_cache: false,
        }
    }

    #[test]
    fn gc_evicts_salt_mismatched_entries_and_keeps_live_ones() {
        let dir = temp_dir("gc");
        let cache = ResultCache::new(&dir).unwrap();
        // A live entry, written the way the runner writes them.
        cache.store("aaaa", None, &entry("aaaa")).unwrap();
        // A stale entry from a previous salt, a corrupt one, a crashed
        // writer's temp file, and a foreign file.
        let stale = Json::obj([
            ("salt", Json::str("coopckpt-campaign-v0:0.0.1")),
            ("key", Json::str("bbbb")),
            ("report", Json::obj([("sections", Json::Arr(Vec::new()))])),
            ("text", Json::str("t")),
            ("csv", Json::str("c")),
        ]);
        std::fs::write(dir.join("bbbb.json"), stale.pretty()).unwrap();
        std::fs::write(dir.join("cccc.json"), "{ not json").unwrap();
        std::fs::write(dir.join("dddd.12345.tmp"), "half-written").unwrap();
        std::fs::write(dir.join("README.txt"), "not a cache entry").unwrap();

        let (kept, evicted) = cache.gc().unwrap();
        assert_eq!((kept, evicted), (1, 3));
        // The live entry still hits; the stale ones are gone; foreign
        // files are untouched.
        assert!(cache.load("aaaa", None).is_some());
        assert!(!dir.join("bbbb.json").exists());
        assert!(!dir.join("cccc.json").exists());
        assert!(!dir.join("dddd.12345.tmp").exists());
        assert!(dir.join("README.txt").exists());
        // A second pass finds nothing left to evict.
        assert_eq!(cache.gc().unwrap(), (1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn expand_sanitizes_slashes_in_axis_values() {
        let dir = temp_dir("expand");
        let trace = dir.join("tiny.csv");
        std::fs::write(
            &trace,
            "project,submit_time,nodes,walltime\nalpha,0,64,3600\nbeta,600,128,7200\n",
        )
        .unwrap();
        let doc = format!(
            r#"{{
                "name": "sanitize",
                "base": {{"span_days": 2, "samples": 1}},
                "grid": {{"workload": ["apex", "{}"]}}
            }}"#,
            trace.display()
        );
        let suite = Suite::parse(&doc).unwrap();
        let points = suite.expand().unwrap();
        assert_eq!(points.len(), 2);
        // The apex point keeps its plain label; the trace path's slashes
        // are flattened so they cannot masquerade as axis separators.
        assert_eq!(points[0].name.as_deref(), Some("sanitize/workload=apex"));
        let name = points[1].name.as_deref().unwrap();
        let value = name.strip_prefix("sanitize/workload=").unwrap();
        assert!(!value.contains('/'), "{name}");
        assert!(value.ends_with("tiny.csv"), "{name}");
        // And the point itself still carries the real (unsanitized) path.
        assert!(matches!(
            &points[1].workload,
            WorkloadSource::Trace(s) if s == trace.to_str().unwrap()
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
