//! Metrics, summary statistics and the output format.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// A named pass/fail invariant of the benchmark itself (traced stats
/// equal untraced stats, modeled numbers repeat, ...). Any failing
/// check makes the run's `correct` false.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Everything one workload run produces.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub workload: String,
    /// Run manifest: seed, configuration and host fingerprint.
    pub manifest: Vec<(String, String)>,
    /// Operations attempted and failed (wrong MEM set, broken count
    /// law, or a `RunError`).
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Human-readable lines (sample counts, reconciliation).
    pub notes: Vec<String>,
}

impl Report {
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name,
            ok,
            detail: detail.into(),
        });
    }

    /// No failed operation, every invariant holds, every value finite.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.checks.iter().all(|c| c.ok)
            && self
                .end_to_end
                .iter()
                .chain(&self.per_layer)
                .all(|m| m.value.is_finite())
    }

    /// Failed ÷ attempted operations.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed as f64 / self.attempted as f64
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }

    /// The human-readable block: manifest, every metric with its unit,
    /// checks and notes.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let manifest: Vec<String> = self
            .manifest
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        let _ = writeln!(
            out,
            "# {} manifest {{{}}}",
            self.workload,
            manifest.join(", ")
        );
        // error_rate is carried by the result line's attempted/failed
        // counts rather than as a metric, since it is 0 on correct code.
        let _ = writeln!(
            out,
            "# {} e2e error_rate = {} ratio ({} of {} operations failed)",
            self.workload,
            self.error_rate(),
            self.failed,
            self.attempted
        );
        for (kind, metrics) in [("e2e", &self.end_to_end), ("layer", &self.per_layer)] {
            for m in metrics.iter() {
                let _ = writeln!(
                    out,
                    "# {} {kind} {} = {} {}",
                    self.workload, m.name, m.value, m.unit
                );
            }
        }
        for c in &self.checks {
            let verdict = if c.ok { "ok" } else { "FAILED" };
            let _ = writeln!(
                out,
                "# {} check {} {verdict}: {}",
                self.workload, c.name, c.detail
            );
        }
        for note in &self.notes {
            let _ = writeln!(out, "# {} note {note}", self.workload);
        }
        out
    }
}

/// The one-line result object: `correct`, `attempted`, `failed` and the
/// chosen metrics by name.
pub fn render_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                json_str(&m.name),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Median of `values` (mean of the middle pair for even counts); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank `q`-quantile of `values` (`0 < q ≤ 1`); 0 for an empty
/// slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&hundred, 0.9), 90.0);
        assert_eq!(quantile(&[5.0], 0.9), 5.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let line = render_json(true, 3, 0, &[Metric::new("wall_s", 1.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
