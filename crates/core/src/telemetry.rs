//! Report/journal projections of [`coopckpt_obs`] telemetry.
//!
//! The `coopckpt-obs` registry is a numeric leaf — it knows counters,
//! histograms, and spans but not JSON or reports. This module renders a
//! scope [`Snapshot`] two ways:
//!
//! * [`append_section`] — a `telemetry` section appended to a [`Report`],
//!   so `--format text/csv/json` users read the same numbers.
//! * [`journal_record`] — the JSON-lines run-journal record, one per
//!   completed scenario or campaign point.
//!
//! Both are only invoked when telemetry is enabled; reports produced with
//! telemetry off contain neither (and are otherwise bit-identical —
//! asserted by `tests/telemetry_semantics.rs`).

use crate::json::Json;
use crate::report::{Cell, Report};
use coopckpt_obs::{Counter, Hist, Snapshot};

/// The name of the report section and of journal-skip logic in
/// `compare`: reports are diffed *excluding* sections with this name.
pub const TELEMETRY_SECTION: &str = "telemetry";

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Appends the `telemetry` section (metric/value rows) for `snap`,
/// typically the scope covering one scenario run.
pub fn append_section(report: &mut Report, snap: &Snapshot, wall_ms: f64) {
    let s = report.section(TELEMETRY_SECTION, ["metric", "value"]);
    s.row([Cell::text("wall_ms"), Cell::float(wall_ms, 1)]);
    for c in Counter::ALL {
        if c.is_phase_ns() {
            continue;
        }
        s.row([Cell::text(c.name()), Cell::int(snap.counter(c) as i64)]);
    }
    for (label, c) in [
        ("trace_gen_ms", Counter::TraceGenNs),
        ("replay_ms", Counter::ReplayNs),
        ("render_ms", Counter::RenderNs),
        ("sample_ms", Counter::SampleNs),
    ] {
        s.row([Cell::text(label), Cell::float(ms(snap.counter(c)), 2)]);
    }
    s.row([
        Cell::text("sample_count"),
        Cell::int(snap.samples.count as i64),
    ]);
    s.row([
        Cell::text("sample_p50_ms"),
        Cell::float(snap.samples.p50_ns / 1e6, 2),
    ]);
    s.row([
        Cell::text("sample_p95_ms"),
        Cell::float(snap.samples.p95_ns / 1e6, 2),
    ]);
    s.row([
        Cell::text("sample_max_ms"),
        Cell::float(ms(snap.samples.max_ns), 2),
    ]);
    for h in Hist::ALL {
        let hs = snap.hist(h);
        s.row([
            Cell::text(format!("{}_mean", h.name())),
            Cell::float(hs.mean(), 2),
        ]);
        s.row([
            Cell::text(format!("{}_max", h.name())),
            Cell::int(hs.max as i64),
        ]);
    }
}

/// Builds the run-journal record for one completed scenario or campaign
/// point: identity (`point`, `worker`), wall clock, sampling volume,
/// cache outcome, and the point's queue/cache/engine counters.
pub fn journal_record(
    point: &str,
    wall_ms: f64,
    samples: usize,
    cache_hit: bool,
    worker: usize,
    snap: &Snapshot,
) -> Json {
    let n = |v: u64| Json::Num(v as f64);
    Json::obj([
        ("point", Json::str(point)),
        ("wall_ms", Json::Num(wall_ms)),
        ("samples", Json::Num(samples as f64)),
        ("cache_hit", Json::Bool(cache_hit)),
        ("worker", Json::Num(worker as f64)),
        ("peak_live_jobs", n(snap.hist(Hist::PeakLiveJobs).max)),
        ("job_slots", n(snap.hist(Hist::JobSlots).max)),
        (
            "queue",
            Json::obj([
                ("inserts", n(snap.counter(Counter::QueueInserts))),
                ("cancels", n(snap.counter(Counter::QueueCancels))),
                ("pops", n(snap.counter(Counter::QueuePops))),
                ("resizes", n(snap.counter(Counter::QueueResizes))),
                (
                    "bucket_scans_mean",
                    Json::Num(snap.hist(Hist::QueueBucketScans).mean()),
                ),
                (
                    "entry_scans_mean",
                    Json::Num(snap.hist(Hist::QueueEntryScans).mean()),
                ),
                (
                    "bucket_occupancy_max",
                    n(snap.hist(Hist::QueueBucketOccupancy).max),
                ),
            ]),
        ),
        (
            "cache",
            Json::obj([
                ("op_lookups", n(snap.counter(Counter::OpCacheLookups))),
                ("op_hits", n(snap.counter(Counter::OpCacheHits))),
                ("op_misses", n(snap.counter(Counter::OpCacheMisses))),
                (
                    "result_lookups",
                    n(snap.counter(Counter::ResultCacheLookups)),
                ),
                ("result_hits", n(snap.counter(Counter::ResultCacheHits))),
                ("result_misses", n(snap.counter(Counter::ResultCacheMisses))),
            ]),
        ),
        (
            "engine",
            Json::obj([
                ("token_waits", n(snap.counter(Counter::TokenWaits))),
                ("tier_absorbs", n(snap.counter(Counter::TierAbsorbs))),
                ("tier_spills", n(snap.counter(Counter::TierSpills))),
                ("tier_drains", n(snap.counter(Counter::TierDrains))),
                (
                    "rng_substream_draws",
                    n(snap.counter(Counter::RngSubstreamDraws)),
                ),
            ]),
        ),
        (
            "phases_ms",
            Json::obj([
                (
                    "trace_gen",
                    Json::Num(ms(snap.counter(Counter::TraceGenNs))),
                ),
                ("replay", Json::Num(ms(snap.counter(Counter::ReplayNs)))),
                ("sample", Json::Num(ms(snap.counter(Counter::SampleNs)))),
            ]),
        ),
        (
            "sample_ms",
            Json::obj([
                ("count", n(snap.samples.count)),
                ("p50", Json::Num(snap.samples.p50_ns / 1e6)),
                ("p95", Json::Num(snap.samples.p95_ns / 1e6)),
                ("max", Json::Num(ms(snap.samples.max_ns))),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::OutputFormat;

    #[test]
    fn journal_record_round_trips_through_json() {
        let snap = coopckpt_obs::new_scope().snapshot();
        let rec = journal_record("grid/p1", 412.5, 100, false, 3, &snap);
        let text = rec.to_string();
        let parsed = Json::parse(&text).expect("journal line parses");
        assert_eq!(parsed.get("point").and_then(Json::as_str), Some("grid/p1"));
        assert_eq!(parsed.get("wall_ms").and_then(Json::as_f64), Some(412.5));
        assert_eq!(parsed.get("samples").and_then(Json::as_u64), Some(100));
        assert!(parsed.get("queue").and_then(|q| q.get("inserts")).is_some());
        assert!(parsed
            .get("cache")
            .and_then(|c| c.get("op_lookups"))
            .is_some());
    }

    #[test]
    fn section_renders_in_every_format() {
        let snap = coopckpt_obs::new_scope().snapshot();
        let mut report = Report::new("run", None);
        append_section(&mut report, &snap, 10.0);
        assert_eq!(report.sections.len(), 1);
        assert_eq!(report.sections[0].name, TELEMETRY_SECTION);
        for format in [OutputFormat::Text, OutputFormat::Csv, OutputFormat::Json] {
            let out = report.render(format);
            assert!(out.contains("queue_inserts"), "{format:?}: {out}");
        }
    }
}
