//! Collected metrics, failures, and the printed report.

use crate::serve::Tally;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Unit {
    S,
    Ms,
    Us,
    Ns,
    PerS,
    MiB,
    Log2,
    Ratio,
    Bytes,
    Count,
}

impl Unit {
    pub fn as_str(self) -> &'static str {
        match self {
            Unit::S => "s",
            Unit::Ms => "ms",
            Unit::Us => "us",
            Unit::Ns => "ns",
            Unit::PerS => "1/s",
            Unit::MiB => "MiB",
            Unit::Log2 => "log2",
            Unit::Ratio => "ratio",
            Unit::Bytes => "bytes",
            Unit::Count => "count",
        }
    }
}

/// Which direction is better for a metric.
pub fn better(name: &str) -> &'static str {
    match name {
        // The λ share shows the write path does real work.
        "sat_qps" | "personalizer.nondefault_lambda_frac" => "higher",
        _ => "lower",
    }
}

/// Metric names are `[A-Za-z0-9_.-]`, start with a letter or digit, and
/// are at most 64 long, so every consumer can use them as keys verbatim.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: Unit,
    pub samples: Option<usize>,
}

/// Everything one run measured and everything that went wrong.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: Unit, samples: Option<usize>) {
        assert!(valid_name(name), "metric name {name:?}");
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            samples,
        });
    }

    /// Records a percentile-derived metric; `None` (too few samples for
    /// the rank) fails the run instead of reporting a thin tail.
    pub fn require_metric(&mut self, name: &str, value: Option<f64>, unit: Unit, samples: usize) {
        match value {
            Some(v) => self.metric(name, v, unit, Some(samples)),
            None => self.fail(
                1,
                format!("{name}: {samples} samples are too few to report"),
            ),
        }
    }

    pub fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        self.attempted = self.attempted.max(self.failed);
        self.problems.push(why);
    }

    pub fn absorb_tally(&mut self, tally: Tally) {
        self.attempted += tally.attempted;
        self.failed += tally.failed;
        self.problems.extend(tally.problems);
    }

    /// The human-readable lines: every metric with unit, direction and
    /// sample count.
    pub fn lines(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let n = m.samples.map_or_else(String::new, |n| format!(", n={n}"));
                format!(
                    "metric {:<40} {:>16.6} {:<6} ({} is better{n})",
                    m.name,
                    m.value,
                    m.unit.as_str(),
                    better(&m.name)
                )
            })
            .collect();
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        lines.push(format!(
            "metric {:<40} {:>16.6} {:<6} (lower is better, {} of {} frames/operations)",
            "failed_frac", frac, "ratio", self.failed, self.attempted
        ));
        lines
    }

    /// The final JSON line, restricted to `names` (the metric set the
    /// run mode promises). A promised metric that was not measured makes
    /// the run incorrect.
    pub fn json(&self, names: &[&str]) -> String {
        let mut missing = Vec::new();
        let metrics: Vec<String> = names
            .iter()
            .filter_map(|&name| match self.metrics.iter().find(|m| m.name == name) {
                Some(m) if m.value.is_finite() => Some(format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name,
                    m.value,
                    m.unit.as_str()
                )),
                _ => {
                    missing.push(name);
                    None
                }
            })
            .collect();
        let correct = self.failed == 0 && self.problems.is_empty() && missing.is_empty();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_use_only_the_portable_alphabet() {
        for name in crate::END_TO_END.iter().chain(crate::PER_LAYER) {
            assert!(valid_name(name), "{name}");
        }
        assert!(!valid_name("p50 us"));
        assert!(!valid_name("latency/µs"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name(""));
    }

    #[test]
    fn a_missing_promised_metric_makes_the_run_incorrect() {
        let mut out = Outcome::default();
        out.metric("setup_s", 0.5, Unit::S, Some(3));
        out.attempted = 10;
        assert!(out.json(&["setup_s"]).starts_with("{\"correct\": true"));
        assert!(out
            .json(&["setup_s", "p50_us"])
            .starts_with("{\"correct\": false"));
    }

    #[test]
    fn too_few_samples_fail_the_run() {
        let mut out = Outcome::default();
        out.require_metric("p99_us", None, Unit::Us, 50);
        assert_eq!(out.failed, 1);
        assert!(out.json(&[]).starts_with("{\"correct\": false"));
    }
}
