//! Estimators and output helpers shared by every workload.

use std::fmt::Write as _;

/// Nearest-rank index for quantile `p` over `n` sorted samples — the
/// same rank rule the simulator's `Percentiles` uses.
fn rank(n: usize, p: f64) -> usize {
    (((n as f64) * p).ceil() as usize).clamp(1, n) - 1
}

/// Exact nearest-rank quantile of an ascending-sorted slice; 0 when empty.
pub fn quantile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), p)]
}

/// Median of float samples (mean of the two middle values for an even
/// count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// One named metric with its unit, in output order.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered metric list.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(
            self.0.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push(Metric { name, value, unit });
    }

    /// p50 and p99 of `sorted` under `<name>.p50` / `<name>.p99`, with
    /// every value divided by `scale` (1 for ns, 1000 for µs).
    pub fn put_p50_p99(&mut self, name: &str, sorted: &[u64], scale: f64, unit: &'static str) {
        self.put(
            format!("{name}.p50"),
            quantile(sorted, 0.50) as f64 / scale,
            unit,
        );
        self.put(
            format!("{name}.p99"),
            quantile(sorted, 0.99) as f64 / scale,
            unit,
        );
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Keeps only the `(name, unit)` metrics listed, in that order; panics
    /// on a metric the run did not produce or produced in another unit,
    /// so a workload cannot silently skip a metric the benchmark promises.
    pub fn select(self, names: &[(&str, &str)]) -> Metrics {
        let mut out = Metrics::default();
        for &(n, unit) in names {
            let m = self
                .0
                .iter()
                .find(|m| m.name == n)
                .unwrap_or_else(|| panic!("workload produced no metric {n}"));
            assert_eq!(m.unit, unit, "metric {n} in the wrong unit");
            out.put(n, m.value, m.unit);
        }
        out
    }
}

/// Renders `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_json(m: &Metrics) -> String {
    let mut s = String::from("{");
    for (i, metric) in m.0.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            metric.name,
            num(metric.value),
            metric.unit
        )
        .expect("writing to a String cannot fail");
    }
    s.push('}');
    s
}

/// A JSON number with all its digits (Rust's shortest round-trip form).
pub fn num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail")
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// 64-bit FNV-1a, used to digest simulator outputs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile(&v, 0.5), 500);
        assert_eq!(quantile(&v, 0.99), 990);
        assert_eq!(quantile(&v, 0.999), 999);
        assert_eq!(quantile(&v, 1.0), 1000);
        assert_eq!(quantile(&[], 0.5), 0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn numbers_render_as_json() {
        assert_eq!(num(3.0), "3.0");
        assert_eq!(num(0.125), "0.125");
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
    }
}
