//! Exact statistics over raw samples, and the span recorder behind the
//! traced run's layer self-times.
//!
//! Every percentile here is an order statistic of the full sample set —
//! never a streaming estimate — so small sample counts read honestly.

use std::time::Instant;

/// Exact median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// A timing reported by the house rule: its median, plus the highest
/// percentile that still has at least ten samples beyond it, plus the
/// sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub n: usize,
    /// Exact median.
    pub median: f64,
    /// The tail value: the 11th-largest sample (ten samples lie above it).
    /// With fewer than 11 samples no order statistic qualifies and this is
    /// the maximum.
    pub tail: f64,
    /// The tail's nominal quantile, `1 − 10/n` (so 0.95 at n = 200), or 1
    /// when `tail` fell back to the maximum.
    pub tail_q: f64,
}

/// Summarizes raw samples (see [`Summary`]).
pub fn summarize(values: &[f64]) -> Summary {
    let s = sorted(values);
    let n = s.len();
    let (tail, tail_q) = if n >= 11 {
        (s[n - 11], 1.0 - 10.0 / n as f64)
    } else {
        (s[n - 1], 1.0)
    };
    Summary {
        n,
        median: median(&s),
        tail,
        tail_q,
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// `num / den`, or 0 when the base is empty (a ratio over nothing).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One recorded span: a named interval and the span it ran inside.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Records nested spans around calls into the program's layers. Spans
/// stay in memory; the traced run reads self-times when it ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Records an already-measured interval as a closed child span (for
    /// intervals timed inside a callback the tracer cannot wrap).
    #[cfg(test)]
    fn record(&mut self, name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns,
        });
    }

    /// Self time per span name, in seconds, in first-seen order: the
    /// layer profile.
    pub fn self_times(&self) -> Vec<(&'static str, f64)> {
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let t = self.self_ns(i) as f64 * 1e-9;
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, acc)) => *acc += t,
                None => out.push((s.name, t)),
            }
        }
        out
    }

    /// Self time of span `idx`: its duration minus what its children
    /// cover, in nanoseconds.
    fn self_ns(&self, idx: usize) -> u64 {
        let own = self.spans[idx].end_ns - self.spans[idx].start_ns;
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        own.saturating_sub(children)
    }

    /// The closure check of the first root span: the summed self-times of
    /// every span below it, over its wall time. 1 means the named layers
    /// account for the whole; the shortfall is unattributed glue. Returns
    /// `(closure, root wall seconds)`.
    pub fn closure(&self) -> (f64, f64) {
        let Some(root) = self.spans.iter().position(|s| s.parent.is_none()) else {
            return (0.0, 0.0);
        };
        let wall = self.spans[root].end_ns - self.spans[root].start_ns;
        let below: u64 = (0..self.spans.len())
            .filter(|&i| i != root && self.descends_from(i, root))
            .map(|i| self.self_ns(i))
            .sum();
        (ratio(below as f64, wall as f64), wall as f64 * 1e-9)
    }

    fn descends_from(&self, mut idx: usize, root: usize) -> bool {
        while let Some(p) = self.spans[idx].parent {
            if p == root {
                return true;
            }
            idx = p;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_exact_for_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_is_the_highest_order_statistic_with_ten_beyond() {
        // n = 200: the 11th-largest value is the 190th of 1..=200 and the
        // nominal quantile is exactly p95.
        let values: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let s = summarize(&values);
        assert_eq!(s.n, 200);
        assert_eq!(s.tail, 190.0);
        assert_eq!(s.tail_q, 0.95);
        assert_eq!(s.median, 100.5);
        let beyond = values.iter().filter(|&&v| v > s.tail).count();
        assert_eq!(beyond, 10);
        // n = 11: the minimum is the only value with ten above it.
        let s = summarize(&(0..11).map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.tail, s.median), (0.0, 5.0));
        // n = 5: nothing qualifies, so the maximum is reported with q = 1
        // (never a p95 that equals the p50).
        let s = summarize(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.tail, s.tail_q, s.median), (5.0, 1.0, 3.0));
    }

    #[test]
    fn closure_sums_self_times_below_the_root() {
        // root [0, 100]: a [0, 40], b [50, 100] holding c [60, 70].
        // Self times: a 40, b 40, c 10 — 90 of 100 ns attributed.
        let mut t = Tracer::default();
        t.record("root", None, 0, 100);
        t.record("a", Some(0), 0, 40);
        t.record("b", Some(0), 50, 100);
        t.record("c", Some(2), 60, 70);
        assert_eq!(t.self_ns(0), 10);
        assert_eq!(t.self_ns(2), 40);
        let (closure, wall) = t.closure();
        assert!((closure - 0.9).abs() < 1e-12, "{closure}");
        assert!((wall - 100e-9).abs() < 1e-18);
        let profile = t.self_times();
        let names: Vec<&str> = profile.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["root", "a", "b", "c"]);
        assert!((profile[3].1 - 10e-9).abs() < 1e-18);
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let mut t = Tracer::default();
        let v = t.span("root", |t| t.span("leaf", |_| 7));
        assert_eq!(v, 7);
        assert_eq!(t.spans[1].parent, Some(0));
        let (closure, _) = t.closure();
        assert!(closure > 0.0 && closure <= 1.0);
    }

    #[test]
    fn ratio_over_an_empty_base_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
