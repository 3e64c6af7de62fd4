//! Statistics and the result line.

/// Linear-interpolated percentile (`q` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q / 100.0 * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// `VmHWM` (peak resident set) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// What a ratio is taken over, for the printed table.
    pub base: String,
}

impl Metric {
    /// A metric with no base to report.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric::based(name, value, unit, String::new())
    }

    /// A ratio or rate with its base.
    pub fn based(name: &'static str, value: f64, unit: &'static str, base: String) -> Metric {
        Metric {
            name,
            value,
            unit,
            base,
        }
    }
}

/// A JSON number; non-finite values become `null`, which the
/// correctness check also flags.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Print the metric table, then the one-line JSON result (last line of
/// stdout).
pub fn emit(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) {
    for m in metrics {
        if m.base.is_empty() {
            println!("  {:<36} {:>14.4} {}", m.name, m.value, m.unit);
        } else {
            println!(
                "  {:<36} {:>14.4} {:<10} (base: {})",
                m.name, m.value, m.unit, m.base
            );
        }
    }
    let correct = correct && metrics.iter().all(|m| m.value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
    }
}
