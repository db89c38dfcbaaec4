//! Order statistics and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Median of `xs` (mean of the middle pair for an even count); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile `q` of an already sorted slice; 0 if empty.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Metric values by name, as one run measured them.
pub type Values = BTreeMap<String, f64>;

/// The last line of a run: the verdict, the attempt counts and the metrics
/// in catalogue order, each with its unit.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // JSON has no NaN or infinity; a metric that cannot be computed
        // reads 0 and the run is marked incorrect by the caller.
        let v = if value.is_finite() { *value } else { 0.0 };
        write!(
            out,
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&s, 0.5), 50);
        assert_eq!(quantile_sorted(&s, 0.99), 99);
        assert_eq!(quantile_sorted(&s, 1.0), 100);
        assert_eq!(quantile_sorted(&[], 0.5), 0);
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(
            true,
            10,
            0,
            &[
                ("wall_s".into(), 1.25, "s"),
                ("x".into(), f64::NAN, "count"),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \"x\": {\"value\": 0.0, \"unit\": \"count\"}}}"
        );
    }
}
