//! Sample statistics, the host fingerprint, and the JSON lines the
//! benchmark prints.

use std::fmt::Write as _;

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit, e.g. `ms`, `s`, `1/s`, `count/op`.
    pub unit: &'static str,
}

/// Builds a [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Percentile `p` (0–100) of `values`, linearly interpolated between
/// order statistics. 0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// `num / den`, or 0 when the denominator is 0 (a layer this workload
/// does not exercise).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Relative 2-norm distance `‖x − reference‖ / ‖reference‖`; infinite
/// when the lengths differ.
pub fn rel_err(x: &[f64], reference: &[f64]) -> f64 {
    if x.len() != reference.len() {
        return f64::INFINITY;
    }
    let diff: f64 = x
        .iter()
        .zip(reference)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt();
    diff / amc_linalg::vector::norm2(reference)
}

/// Relative residual `‖A·x − b‖ / ‖b‖`; infinite when `x` has the
/// wrong length.
pub fn rel_residual(a: &amc_linalg::Matrix, x: &[f64], b: &[f64]) -> f64 {
    a.matvec(x).map_or(f64::INFINITY, |ax| rel_err(&ax, b))
}

/// Writes `value` as a JSON number; a non-finite value (only possible
/// when a check failed) becomes `null`.
fn json_number(out: &mut String, value: f64) {
    if value.is_finite() {
        let _ = write!(out, "{value}");
    } else {
        out.push_str("null");
    }
}

/// Writes `text` as a JSON string.
fn json_string(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json_string(&mut out, m.name);
        out.push_str(": {\"value\": ");
        json_number(&mut out, m.value);
        out.push_str(", \"unit\": ");
        json_string(&mut out, m.unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}

/// The context line printed before the result: host fingerprint,
/// workload settings, sample counts and the failed-op ratio.
pub fn context_line(fields: &[(&str, String)], numbers: &[(&str, f64)]) -> String {
    let mut out = String::from("{\"context\": {");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !first {
            out.push_str(", ");
        }
        first = false;
    };
    for (key, value) in fields {
        sep(&mut out);
        json_string(&mut out, key);
        out.push_str(": ");
        json_string(&mut out, value);
    }
    for (key, value) in numbers {
        sep(&mut out);
        json_string(&mut out, key);
        out.push_str(": ");
        json_number(&mut out, *value);
    }
    out.push_str("}}");
    out
}

/// Host fingerprint: `nproc`, CPU model, `rustc -V` and source
/// revision. Each falls back to `"unknown"`.
pub fn host_fingerprint() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("nproc", nproc),
        ("cpu_model", cpu),
        ("rustc", rustc),
        ("git_rev", git_rev().unwrap_or_else(|| "unknown".into())),
    ]
}

/// The checked-out commit, read from `.git` in the working directory
/// (no `git` process; a source tree without `.git` has no revision).
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(3, 0, &[metric("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(result_line(1, 1, &[metric("x", f64::NAN, "ms")]).contains("null"));
    }
}
