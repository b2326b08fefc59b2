//! Sample summaries, the declared metrics and the result line.
//!
//! Every timing is reported with its sample count, and a percentile only
//! when at least [`MIN_BEYOND`] samples lie beyond it, so a tail figure is
//! never one or two outliers. The metric names and units come from
//! `BENCHMARK.json`, compiled in, so the result line cannot drift from the
//! file that declares it.

use std::fmt::Write as _;
use std::time::Duration;

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// A set of measurements in one unit.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    pub fn push_ms(&mut self, d: Duration) {
        self.push(d.as_secs_f64() * 1e3);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.sum() / self.values.len() as f64
        }
    }

    /// The median (lower middle value), or `None` without samples. For
    /// repeated whole measurements such as set-up rounds, which no tail
    /// figure rests on.
    pub fn median(&mut self) -> Option<f64> {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let n = self.values.len();
        (n > 0).then(|| self.values[(n - 1) / 2])
    }

    /// Nearest-rank `q`-quantile (`0 < q < 1`), or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it.
    pub fn percentile(&mut self, q: f64) -> Option<f64> {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        percentile_of_sorted(&self.values, q)
    }
}

fn percentile_of_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    // 1-based nearest rank; the samples above it are the ones "beyond".
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if rank > n || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric `BENCHMARK.json` declares in `section`
/// (`end_to_end` or `per_layer`), in file order.
pub fn declared(section: &str) -> Vec<(&'static str, &'static str)> {
    let key = format!("\"{section}\": [");
    let Some(start) = BENCHMARK_JSON.find(&key) else {
        return Vec::new();
    };
    let body = &BENCHMARK_JSON[start + key.len()..];
    let body = &body[..body.find(']').unwrap_or(body.len())];
    body.split('{')
        .skip(1)
        .filter_map(|entry| Some((field(entry, "name")?, field(entry, "unit")?)))
        .collect()
}

/// The string value of `"key": "..."` in one JSON object's text.
fn field<'a>(entry: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\": \"");
    let rest = &entry[entry.find(&tag)? + tag.len()..];
    Some(&rest[..rest.find('"')?])
}

/// `true` when `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: Option<usize>,
}

/// The metrics of one run, in the order they were recorded.
#[derive(Debug, Default)]
pub struct Metrics {
    metrics: Vec<Metric>,
}

impl Metrics {
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records a metric. Panics on an invalid or repeated name, or on a
    /// value JSON cannot carry: both are bugs in the benchmark itself.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} recorded twice"
        );
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Records the `q`-quantile of `samples`; an unsupported percentile is
    /// an error, since the run was too short for the figure it promises.
    pub fn set_percentile(
        &mut self,
        name: &str,
        samples: &mut Samples,
        q: f64,
        unit: &'static str,
    ) -> Result<(), String> {
        let n = samples.len();
        let value = samples.percentile(q).ok_or_else(|| {
            format!("{name}: {n} samples leave fewer than {MIN_BEYOND} beyond the {q} quantile")
        })?;
        self.set(name, value, unit, Some(n));
        Ok(())
    }

    /// Records `name` as another name for the recorded metric `of`, for
    /// the printed lines: a workload's own name for a gated figure, such as
    /// `queries_per_s` for `ops_per_s` on analytic.
    pub fn alias(&mut self, name: &str, of: &str) {
        let m = self
            .metrics
            .iter()
            .find(|m| m.name == of)
            .cloned()
            .unwrap_or_else(|| panic!("alias {name} of unrecorded metric {of}"));
        self.set(name, m.value, m.unit, m.samples);
    }

    /// Records every metric of `from` whose name starts with `prefix`.
    pub fn copy_prefixed(&mut self, from: &Metrics, prefix: &str) {
        for m in from.metrics.iter().filter(|m| m.name.starts_with(prefix)) {
            self.set(&m.name, m.value, m.unit, m.samples);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// One human-readable line per metric, with its unit and sample count.
    pub fn render_lines(&self, prefix: &str) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = write!(out, "{prefix}{:<40} {:>14.6} {}", m.name, m.value, m.unit);
            if let Some(n) = m.samples {
                let _ = write!(out, "  (n={n})");
            }
            out.push('\n');
        }
        out
    }

    /// The result line: one JSON object with the `(name, unit)` metrics of
    /// `declared`, each of which must have been recorded in that unit.
    pub fn result_json(
        &self,
        declared: &[(&str, &str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, unit)) in declared.iter().enumerate() {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if m.unit != *unit {
                return Err(format!(
                    "metric {name} was measured in {}, BENCHMARK.json declares {unit}",
                    m.unit
                ));
            }
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let mut s = Samples::new();
        for i in 1..=999 {
            s.push(i as f64);
        }
        // Rank 990 of 999 leaves only 9 samples above it.
        assert_eq!(s.percentile(0.99), None);
        s.push(1000.0);
        assert_eq!(s.percentile(0.99), Some(990.0));
        assert_eq!(s.percentile(0.5), Some(500.0));
        assert_eq!(s.percentile(0.9), Some(900.0));

        let mut small = Samples::new();
        for i in 0..19 {
            small.push(i as f64);
        }
        assert_eq!(small.percentile(0.5), None);
        small.push(19.0);
        assert_eq!(small.percentile(0.5), Some(9.0));
        assert_eq!(Samples::new().percentile(0.5), None);
        // The median of a few whole measurements needs no tail.
        assert_eq!(small.median(), Some(9.0));
        let mut five = Samples::new();
        for v in [5.0, 1.0, 4.0, 2.0, 3.0] {
            five.push(v);
        }
        assert_eq!(five.median(), Some(3.0));
        assert_eq!(Samples::new().median(), None);
    }

    #[test]
    fn unsupported_percentile_is_an_error_not_a_number() {
        let mut s = Samples::new();
        s.push(1.0);
        let mut m = Metrics::new();
        assert!(m.set_percentile("x_p99_ms", &mut s, 0.99, "ms").is_err());
        assert_eq!(m.get("x_p99_ms"), None);
    }

    #[test]
    fn metric_names_are_validated() {
        for good in ["setup_s", "serve.queue_wait_p99_ms", "a-b.c_1", "9lives"] {
            assert!(valid_metric_name(good), "{good}");
        }
        for bad in [
            "",
            ".hidden",
            "_x",
            "a b",
            "a/b",
            "p99%",
            "é",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn recording_an_invalid_name_panics() {
        Metrics::new().set("bad name", 1.0, "ms", None);
    }

    #[test]
    fn result_json_lists_the_requested_metrics_in_order() {
        let mut m = Metrics::new();
        m.set("b_ms", 0.25, "ms", Some(3));
        m.set("a_s", 2.0, "s", None);
        let line = m
            .result_json(&[("a_s", "s"), ("b_ms", "ms")], true, 3, 0)
            .unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a_s\": \
             {\"value\": 2.0, \"unit\": \"s\"}, \"b_ms\": {\"value\": 0.25, \"unit\": \"ms\"}}}"
        );
        assert!(m.result_json(&[("missing", "ms")], true, 1, 0).is_err());
        assert!(m.result_json(&[("b_ms", "s")], true, 1, 0).is_err());
    }

    #[test]
    fn benchmark_json_declares_valid_distinct_metrics() {
        let end_to_end = declared("end_to_end");
        let per_layer = declared("per_layer");
        assert!(end_to_end.iter().any(|&m| m == ("setup_s", "s")));
        assert!(!per_layer.is_empty());
        let mut names: Vec<&str> = end_to_end.iter().chain(&per_layer).map(|m| m.0).collect();
        assert!(names.iter().all(|n| valid_metric_name(n)), "{names:?}");
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a metric name is declared twice");
        // Every declared entry was parsed: one per `"name"` in those sections.
        let json = BENCHMARK_JSON;
        let sections = &json[json.find("\"end_to_end\"").unwrap()..];
        assert_eq!(sections.matches("{\"name\": ").count(), n);
        assert!(declared("no_such_section").is_empty());
    }
}
