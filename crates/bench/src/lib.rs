//! Shared scaffolding for the figure-reproduction binaries.
//!
//! Every binary honours three environment variables so the full suite can
//! be scaled from a quick smoke run to paper-scale statistics:
//!
//! | variable               | meaning                         | default |
//! |------------------------|---------------------------------|---------|
//! | `COOPCKPT_SAMPLES`     | Monte-Carlo instances per point | 100     |
//! | `COOPCKPT_SPAN_DAYS`   | simulated span per instance     | 60      |
//! | `COOPCKPT_THREADS`     | worker threads (0 = all cores)  | 0       |
//!
//! Results are printed as an aligned table and, when `--csv <path>` is
//! passed, also written as CSV for plotting.

use coopckpt::prelude::*;
use coopckpt_stats::Table;

/// Run-scale knobs read from the environment.
#[derive(Debug, Clone, Copy)]
pub struct BenchScale {
    /// Monte-Carlo instances per operating point.
    pub samples: usize,
    /// Simulated span per instance.
    pub span: Duration,
    /// Worker threads (0 = all cores).
    pub threads: usize,
}

impl BenchScale {
    /// Reads `COOPCKPT_SAMPLES` / `COOPCKPT_SPAN_DAYS` / `COOPCKPT_THREADS`.
    pub fn from_env() -> Self {
        BenchScale {
            samples: env_parse("COOPCKPT_SAMPLES", 100),
            span: Duration::from_days(env_parse("COOPCKPT_SPAN_DAYS", 60.0)),
            threads: env_parse("COOPCKPT_THREADS", 0),
        }
    }

    /// The Monte-Carlo configuration for this scale.
    pub fn mc(&self) -> MonteCarloConfig {
        MonteCarloConfig::new(self.samples).with_threads(self.threads)
    }

    /// Stamps the scale's span/samples/threads onto a scenario.
    pub fn apply(&self, mut scenario: Scenario) -> Scenario {
        scenario.span = self.span;
        scenario.samples = self.samples;
        scenario.threads = self.threads;
        scenario
    }
}

/// The ablations' shared operating point as a declarative [`Scenario`]:
/// the Cielo preset at the given bandwidth (scarce 40 GB/s in most
/// ablations), 2-year node MTBF, APEX workload, at this scale.
pub fn cielo_scenario(bandwidth_gbps: f64, scale: &BenchScale) -> Scenario {
    let sc = Scenario {
        platform: PlatformSpec::Preset {
            name: "cielo".to_string(),
            bandwidth: Some(Bandwidth::from_gbps(bandwidth_gbps)),
            node_mtbf: None,
        },
        ..Scenario::default()
    };
    scale.apply(sc)
}

fn env_parse<T: std::str::FromStr + Copy>(key: &str, default: T) -> T {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The rows of a sweep report's `sweep` section: `x, series, mean, d1,
/// q1, median, q3, d9, n`.
fn sweep_rows(report: &Report) -> &[Vec<Cell>] {
    let sweep = report.sections.iter().find(|s| s.name == "sweep");
    &sweep.expect("sweep reports carry a sweep section").rows
}

/// The mean of `series` at swept value `x` in a sweep report.
pub fn sweep_mean(report: &Report, series: &str, x: f64) -> f64 {
    sweep_rows(report)
        .iter()
        .find_map(|row| match (&row[0], &row[1], &row[2]) {
            (Cell::Float { value, .. }, Cell::Text(s), Cell::Float { value: mean, .. })
                if *value == x && s == series =>
            {
                Some(*mean)
            }
            _ => None,
        })
        .expect("sweep covers this point")
}

/// Renders a sweep report as the paper's figure data: one row per
/// `(x, series)` with candlestick columns.
pub fn sweep_table(x_label: &str, report: &Report) -> Table {
    let mut t = Table::new([
        x_label, "series", "mean", "d1", "q1", "median", "q3", "d9", "n",
    ]);
    for row in sweep_rows(report) {
        t.row(row.iter().enumerate().map(|(i, cell)| match (i, cell) {
            // The swept value at full precision (`40`, `2.5`).
            (0, Cell::Float { value, .. }) => format!("{value}"),
            (_, cell) => cell.display(),
        }));
    }
    t
}

/// Prints the table and honours an optional `--csv <path>` argument.
pub fn emit(table: &Table) {
    print!("{}", table.to_text());
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--csv" {
            if let Some(path) = args.next() {
                write_or_warn(&path, table.to_csv(), "CSV");
            }
        }
    }
}

/// Prints a [`Report`] as text and honours optional `--csv <path>` and
/// `--json <path>` arguments, so every ablation binary shares the CLI's
/// writers.
pub fn emit_report(report: &Report) {
    print!("{}", report.to_text());
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--csv" => {
                if let Some(path) = args.next() {
                    write_or_warn(&path, report.to_csv(), "CSV");
                }
            }
            "--json" => {
                if let Some(path) = args.next() {
                    write_or_warn(&path, report.to_json().pretty(), "JSON");
                }
            }
            _ => {}
        }
    }
}

fn write_or_warn(path: &str, content: String, what: &str) {
    if let Err(e) = std::fs::write(path, content) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        eprintln!("# {what} written to {path}");
    }
}

/// A one-line provenance header for every bench binary.
pub fn banner(what: &str, scale: &BenchScale) {
    println!(
        "# {what} — {} samples/point, {:.0}-day span, threads={}",
        scale.samples,
        scale.span.as_days(),
        if scale.threads == 0 {
            "all".to_string()
        } else {
            scale.threads.to_string()
        }
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mc_carries_scale() {
        let s = BenchScale {
            samples: 7,
            span: Duration::from_days(3.0),
            threads: 2,
        };
        let mc = s.mc();
        assert_eq!(mc.samples, 7);
        assert_eq!(mc.threads, 2);
    }

    #[test]
    fn cielo_scenario_carries_the_scale() {
        let s = BenchScale {
            samples: 9,
            span: Duration::from_days(2.0),
            threads: 3,
        };
        let sc = cielo_scenario(40.0, &s);
        assert_eq!(sc.samples, 9);
        assert_eq!(sc.threads, 3);
        assert_eq!(sc.span, Duration::from_days(2.0));
        let p = sc.resolve_platform().unwrap();
        assert_eq!(p.name, "Cielo");
        assert_eq!(p.pfs_bandwidth, Bandwidth::from_gbps(40.0));
    }

    #[test]
    fn sweep_table_layout() {
        use coopckpt::report::{candlestick_cells, CANDLESTICK_COLUMNS};
        let stats = Candlestick::from_samples(&[0.2, 0.3, 0.4]);
        let mut report = Report::new("sweep", None);
        let section = report.section(
            "sweep",
            ["bandwidth", "series"]
                .into_iter()
                .chain(CANDLESTICK_COLUMNS),
        );
        section.row(
            [Cell::float(2.5, 2), Cell::text("Least-Waste")]
                .into_iter()
                .chain(candlestick_cells(&stats)),
        );
        let t = sweep_table("bandwidth_gbps", &report);
        let text = t.to_text();
        assert!(text.contains("Least-Waste"));
        assert!(text.contains("bandwidth_gbps"));
        assert!(text.contains("\n2.5 "), "{text}");
        assert_eq!(t.len(), 1);
        assert_eq!(sweep_mean(&report, "Least-Waste", 2.5), stats.mean);
    }
}
