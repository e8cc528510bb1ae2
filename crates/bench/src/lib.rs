//! Shared scaffolding for the figure-reproduction binaries.
//!
//! The binaries honour these environment variables so the full suite can
//! be scaled from a quick smoke run to paper-scale statistics:
//!
//! | variable                | meaning                            | default |
//! |-------------------------|------------------------------------|---------|
//! | `COOPCKPT_SAMPLES`      | Monte-Carlo instances per point    | 100     |
//! | `COOPCKPT_SPAN_DAYS`    | simulated span per instance        | 60      |
//! | `COOPCKPT_THREADS`      | worker threads (0 = all cores)     | 0       |
//! | `COOPCKPT_BISECT_ITERS` | `fig3`'s bandwidth-bisection steps | 7       |
//!
//! A variable that is set must hold a usable value: a value that does not
//! parse, zero samples or bisection steps, or a span that is not a
//! positive finite number stops the binary with an error naming the
//! variable (exit 1). So does a scale the scenario reader rejects, such as
//! a span the workload generator cannot fill.
//!
//! Results are printed as an aligned table and, when `--csv <path>` is
//! passed, also written as CSV for plotting.

use coopckpt::prelude::*;
use coopckpt_stats::Table;
use std::fmt;
use std::str::FromStr;

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
    /// Reads `COOPCKPT_SAMPLES` / `COOPCKPT_SPAN_DAYS` / `COOPCKPT_THREADS`
    /// (see [`from_lookup`](Self::from_lookup)). On a value it cannot use
    /// it exits through [`or_exit`].
    pub fn from_env() -> Self {
        or_exit(Self::from_lookup(env_var))
    }

    /// Reads the scale through `lookup`, which gives a variable's value or
    /// `None` when it is unset. An unset variable takes its default; a set
    /// one must parse, samples must be positive, and the span must be a
    /// positive finite number of days.
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        Ok(BenchScale {
            samples: scale_var(
                &lookup,
                "COOPCKPT_SAMPLES",
                100,
                "a positive whole number",
                |&n| n > 0,
            )?,
            span: Duration::from_days(scale_var(
                &lookup,
                "COOPCKPT_SPAN_DAYS",
                60.0,
                "a positive, finite number of days",
                |d: &f64| d.is_finite() && *d > 0.0,
            )?),
            threads: scale_var(
                &lookup,
                "COOPCKPT_THREADS",
                0,
                "a whole number (0 = all cores)",
                |_| true,
            )?,
        })
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
    scale.apply(Scenario::default().with_bandwidth_gbps(bandwidth_gbps))
}

/// `fig3`'s bandwidth-bisection steps, `COOPCKPT_BISECT_ITERS` through
/// `lookup`: 7 when unset, else a positive whole number.
pub fn bisect_iters(lookup: impl Fn(&str) -> Option<String>) -> Result<u32, String> {
    scale_var(
        lookup,
        "COOPCKPT_BISECT_ITERS",
        7,
        "a positive whole number",
        |&n| n > 0,
    )
}

/// A process environment variable's value, `None` when unset.
pub fn env_var(var: &str) -> Option<String> {
    std::env::var_os(var).map(|v| v.to_string_lossy().into_owned())
}

/// `result`'s value; on an error, prints `error: <e>` and exits 1, as the
/// CLI does for a bad flag value.
pub fn or_exit<T, E: fmt::Display>(result: Result<T, E>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1)
    })
}

/// `var`'s value through `lookup`: `default` when unset, else the value
/// if it parses and passes `valid`. The error names the variable, its
/// value and what it must hold.
fn scale_var<T: FromStr>(
    lookup: impl Fn(&str) -> Option<String>,
    var: &str,
    default: T,
    expected: &str,
    valid: impl Fn(&T) -> bool,
) -> Result<T, String> {
    let Some(value) = lookup(var) else {
        return Ok(default);
    };
    match value.parse() {
        Ok(v) if valid(&v) => Ok(v),
        _ => Err(format!("bad {var} '{value}': expected {expected}")),
    }
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

    /// A lookup that sees only `vars`.
    fn lookup<'a>(vars: &'a [(&str, &str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |var| {
            vars.iter()
                .find(|(k, _)| *k == var)
                .map(|(_, v)| v.to_string())
        }
    }

    #[test]
    fn scale_takes_defaults_and_set_values() {
        let s = BenchScale::from_lookup(lookup(&[])).unwrap();
        assert_eq!(
            (s.samples, s.span, s.threads),
            (100, Duration::from_days(60.0), 0)
        );
        let set = [
            ("COOPCKPT_SAMPLES", "3"),
            ("COOPCKPT_SPAN_DAYS", "0.5"),
            ("COOPCKPT_THREADS", "2"),
        ];
        let s = BenchScale::from_lookup(lookup(&set)).unwrap();
        assert_eq!(
            (s.samples, s.span, s.threads),
            (3, Duration::from_days(0.5), 2)
        );
    }

    #[test]
    fn unusable_scale_values_are_errors_naming_the_variable() {
        for (var, value) in [
            ("COOPCKPT_SAMPLES", "abc"),
            ("COOPCKPT_SAMPLES", "1e3"),
            ("COOPCKPT_SAMPLES", "0"),
            ("COOPCKPT_SAMPLES", ""),
            ("COOPCKPT_SPAN_DAYS", "two"),
            ("COOPCKPT_SPAN_DAYS", "0"),
            ("COOPCKPT_SPAN_DAYS", "-1"),
            ("COOPCKPT_SPAN_DAYS", "inf"),
            ("COOPCKPT_SPAN_DAYS", "NaN"),
            ("COOPCKPT_THREADS", "all"),
            ("COOPCKPT_THREADS", "-1"),
        ] {
            let e = BenchScale::from_lookup(lookup(&[(var, value)])).unwrap_err();
            assert!(
                e.starts_with(&format!("bad {var} '{value}': expected ")),
                "{e}"
            );
        }
    }

    #[test]
    fn bisect_iters_default_to_seven_and_must_be_positive() {
        assert_eq!(bisect_iters(lookup(&[])), Ok(7));
        let set = [("COOPCKPT_BISECT_ITERS", "3")];
        assert_eq!(bisect_iters(lookup(&set)), Ok(3));
        for value in ["abc", "0", "-1", "2.5", ""] {
            let e = bisect_iters(lookup(&[("COOPCKPT_BISECT_ITERS", value)])).unwrap_err();
            assert_eq!(
                e,
                format!("bad COOPCKPT_BISECT_ITERS '{value}': expected a positive whole number")
            );
        }
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
