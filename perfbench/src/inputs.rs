//! Seeded input generation: the scenario, job-log and suite files each
//! workload hands the program. Same seed, same bytes; the program only
//! ever sees the written files.
//!
//! The generator is the benchmark's own (SplitMix64), so a change to the
//! simulator's RNGs or synthetic-trace grammar cannot silently change the
//! benchmark's inputs.

use std::io::Write;
use std::path::Path;

/// SplitMix64: a tiny, well-mixed, fully specified stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]` (safe under `ln`).
    pub fn open01(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// A simulator base seed: nonzero and far from `u64::MAX`, so
    /// `seed + samples` never wraps.
    pub fn base_seed(&mut self) -> u64 {
        1 + (self.next_u64() >> 24)
    }
}

/// The paper's unit of work: Cielo with the APEX Table-1 workload at
/// 40 GB/s, Least-Waste, flat PFS, no power model.
pub fn paper_point_scenario(seed: u64, span_days: f64, samples: usize, threads: usize) -> String {
    let base = Rng::new(seed).base_seed();
    format!(
        r#"{{
  "name": "paper-point",
  "platform": {{"preset": "cielo", "bandwidth_gbps": 40}},
  "workload": "apex",
  "strategy": "least-waste",
  "interference": "linear",
  "failures": "exponential",
  "tiers": 0,
  "span_days": {span_days},
  "samples": {samples},
  "seed": {base},
  "threads": {threads}
}}
"#
    )
}

/// Writes a CSV job log of `jobs` records shaped like the repository's
/// 100k-job stress trace: 16 projects, power-of-two node counts up to
/// 512, walltimes of 0.5 h plus an exponential tail (mean ≈ 1 h, capped
/// at 4 h), and Poisson arrivals every 30 s on average. Checkpoint sizes
/// are left to default (each job's memory footprint). Returns the last
/// submit time in seconds.
pub fn write_trace_csv(path: &Path, seed: u64, jobs: usize) -> std::io::Result<f64> {
    let mut rng = Rng::new(seed ^ 0x7472_6163_6500_0000);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "project,submit_time,nodes,walltime")?;
    let mut clock = 0.0f64;
    for _ in 0..jobs {
        clock += -30.0 * rng.open01().ln();
        let nodes = 1u64 << (rng.next_u64() % 10);
        let walltime = (1800.0 - 1800.0 * rng.open01().ln()).min(4.0 * 3600.0);
        let project = rng.next_u64() % 16;
        writeln!(out, "p{project},{clock:.3},{nodes},{walltime:.1}")?;
    }
    out.flush()?;
    Ok(clock)
}

/// The trace workload's scenario: the job log at `trace_path` on Cielo at
/// 40 GB/s under `ordered-nb-daly-usage`.
pub fn trace_scenario(
    seed: u64,
    trace_path: &str,
    span_days: f64,
    samples: usize,
    threads: usize,
) -> String {
    let base = Rng::new(seed).base_seed();
    format!(
        r#"{{
  "name": "trace-stream",
  "platform": {{"preset": "cielo", "bandwidth_gbps": 40}},
  "workload": {{"trace": "{trace_path}"}},
  "strategy": "ordered-nb-daly-usage",
  "interference": "linear",
  "failures": "exponential",
  "tiers": 0,
  "span_days": {span_days},
  "samples": {samples},
  "seed": {base},
  "threads": {threads}
}}
"#
    )
}

/// Shape of the campaign suite.
#[derive(Debug, Clone)]
pub struct SuiteShape {
    pub bandwidths: usize,
    pub mtbfs: usize,
    pub span_days: f64,
    pub samples: usize,
}

/// The campaign suite: the paper's seven strategies plus `tiered-daly`,
/// crossed with seeded bandwidth and MTBF values and `tiers` ∈ {0, 3},
/// with the Cielo power model on.
pub fn campaign_suite(seed: u64, strategies: &[String], shape: &SuiteShape) -> String {
    let mut rng = Rng::new(seed);
    // The simulator seed stays fixed: every grid point replays the same
    // job-list and failure draws (common random numbers), so with two
    // samples a seeded base would swing the whole campaign's job count
    // from seed to seed. The benchmark seed moves the operating points.
    let base = 1;
    // Each value is jittered ±10% around a fixed ladder, so seeds change
    // the operating points without changing the campaign's scale.
    let mut jitter = |x: f64, digits: f64| {
        let v = x * (0.9 + 0.2 * rng.open01());
        (v * digits).round() / digits
    };
    let bandwidths: Vec<String> = [40.0, 80.0, 160.0, 120.0]
        .iter()
        .take(shape.bandwidths)
        .map(|&b| format!("{}", jitter(b, 10.0)))
        .collect();
    let mtbfs: Vec<String> = [2.0, 5.0, 10.0, 25.0, 50.0]
        .iter()
        .take(shape.mtbfs)
        .map(|&m| format!("{}", jitter(m, 100.0)))
        .collect();
    let strategies: Vec<String> = strategies.iter().map(|s| format!("\"{s}\"")).collect();
    format!(
        r#"{{
  "name": "campaign-resume",
  "base": {{
    "platform": {{"preset": "cielo"}},
    "workload": "apex",
    "interference": "linear",
    "failures": "exponential",
    "power": "cielo",
    "span_days": {span},
    "samples": {samples},
    "seed": {base}
  }},
  "grid": {{
    "strategy": [{strategies}],
    "bandwidth_gbps": [{bandwidths}],
    "mtbf_years": [{mtbfs}],
    "tiers": [0, 3]
  }}
}}
"#,
        span = shape.span_days,
        samples = shape.samples,
        strategies = strategies.join(", "),
        bandwidths = bandwidths.join(", "),
        mtbfs = mtbfs.join(", "),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let shape = SuiteShape {
            bandwidths: 3,
            mtbfs: 4,
            span_days: 2.0,
            samples: 2,
        };
        let s = ["least-waste".to_string()];
        assert_eq!(campaign_suite(7, &s, &shape), campaign_suite(7, &s, &shape));
        assert_ne!(campaign_suite(7, &s, &shape), campaign_suite(8, &s, &shape));
        assert_eq!(
            paper_point_scenario(3, 60.0, 8, 2),
            paper_point_scenario(3, 60.0, 8, 2)
        );
    }

    #[test]
    fn base_seeds_leave_room_for_samples() {
        let mut rng = Rng::new(u64::MAX);
        for _ in 0..1000 {
            let s = rng.base_seed();
            assert!(s >= 1 && s.checked_add(1 << 20).is_some());
        }
    }
}
