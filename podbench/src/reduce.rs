//! Reductions from raw samples and per-episode summaries to the
//! numbers the benchmark reports: medians of host-time samples,
//! pooled latency percentiles, ratios with their base, and the name
//! rules every emitted metric obeys.

use simkit::stats::Summary;

/// Median of `samples` (mean of the middle two for an even count).
/// `None` when there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// Linear-interpolated quantile `q` of `samples` (the "inclusive"
/// method: 0 is the minimum, 1 the maximum). `None` when empty.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// `num / base`, or `None` when the base is zero (the ratio is
/// undefined and the caller must report that, not a 0 or an infinity).
pub fn ratio(num: f64, base: f64) -> Option<f64> {
    (base != 0.0 && num.is_finite() && base.is_finite()).then(|| num / base)
}

/// Samples beyond quantile `q` among `count`: the tail a percentile
/// rests on. A percentile is reportable only with at least
/// [`MIN_TAIL`] samples beyond it.
pub fn tail_samples(count: u64, q: f64) -> u64 {
    ((1.0 - q) * count as f64).floor() as u64
}

/// Fewest samples a reported percentile may have beyond it.
pub const MIN_TAIL: u64 = 10;

/// The quantile points a [`Summary`] carries, as `(q, value)` pairs in
/// increasing order: the episode's empirical CDF at its knots.
fn knots(s: &Summary) -> [(f64, f64); 7] {
    [
        (0.0, s.min as f64),
        (0.10, s.p10 as f64),
        (0.50, s.p50 as f64),
        (0.90, s.p90 as f64),
        (0.99, s.p99 as f64),
        (0.999, s.p999 as f64),
        (1.0, s.max as f64),
    ]
}

/// One summary's CDF at `x`, linear between its knots.
fn cdf_at(s: &Summary, x: f64) -> f64 {
    let k = knots(s);
    if x < k[0].1 {
        return 0.0;
    }
    if x >= k[6].1 {
        return 1.0;
    }
    // Last knot at or below x; the CDF is flat across repeated values.
    let i = k
        .iter()
        .rposition(|&(_, v)| v <= x)
        .expect("x is at least the minimum");
    let (q0, v0) = k[i];
    let (q1, v1) = k[i + 1];
    if v1 <= v0 {
        q1
    } else {
        q0 + (q1 - q0) * (x - v0) / (v1 - v0)
    }
}

/// Quantile `q` of the union of several episodes' samples, from their
/// summaries alone: each episode's CDF is taken as linear between the
/// quantiles its summary reports, the CDFs are mixed by sample count,
/// and the mixture is inverted. The mixture is linear between
/// consecutive knots of all summaries, so the inversion is exact; with
/// a single summary the result equals the summary's own quantiles
/// (p50, p99, ...).
///
/// Returns `None` when the summaries hold no samples.
pub fn pooled_quantile(summaries: &[Summary], q: f64) -> Option<f64> {
    const EPS: f64 = 1e-12;
    let parts: Vec<&Summary> = summaries.iter().filter(|s| s.count > 0).collect();
    let total: u64 = parts.iter().map(|s| s.count).sum();
    if total == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mix = |x: f64| -> f64 {
        parts
            .iter()
            .map(|s| s.count as f64 * cdf_at(s, x))
            .sum::<f64>()
            / total as f64
    };
    let mut xs: Vec<f64> = parts
        .iter()
        .flat_map(|s| knots(s).map(|(_, v)| v))
        .collect();
    xs.sort_by(f64::total_cmp);
    xs.dedup();
    let j = xs.iter().position(|&x| mix(x) >= q - EPS)?;
    if j == 0 {
        return Some(xs[0]);
    }
    // Linear on (x0, x1); f1 is the left limit at x1 (a repeated knot
    // makes the CDF jump there).
    let (x0, x1) = (xs[j - 1], xs[j]);
    let f0 = mix(x0);
    let f1 = f0 + 2.0 * (mix(x0 + (x1 - x0) / 2.0) - f0);
    if q >= f1 - EPS {
        return Some(x1);
    }
    Some(x0 + (x1 - x0) * (q - f0) / (f1 - f0))
}

/// True when `name` is a legal metric or workload name: it starts with
/// a letter or digit, has at most 64 characters, and uses only
/// letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// True when `unit` is a legal unit: 1 to 16 characters of letters,
/// digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::stats::Histogram;

    fn summary_of(values: impl IntoIterator<Item = u64>) -> Summary {
        let mut h = Histogram::new();
        for v in values {
            h.record(v);
        }
        h.summary()
    }

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), Some(2.0));
        assert_eq!(quantile(&[1.0], 1.5), None);
    }

    #[test]
    fn ratio_handles_zero_base() {
        assert_eq!(ratio(5.0, 0.0), None);
        assert_eq!(ratio(0.0, 0.0), None);
        assert_eq!(ratio(6.0, 3.0), Some(2.0));
        assert_eq!(ratio(0.0, 3.0), Some(0.0));
        assert_eq!(ratio(f64::NAN, 3.0), None);
    }

    #[test]
    fn percentile_tail_rule() {
        // p99 of 1000 samples rests on 10 beyond it; of 999, on 9.
        assert_eq!(tail_samples(1000, 0.99), 10);
        assert!(tail_samples(999, 0.99) < MIN_TAIL);
        assert_eq!(tail_samples(20, 0.5), 10);
        assert_eq!(tail_samples(0, 0.5), 0);
    }

    #[test]
    fn pooled_quantile_is_exact_on_one_summary() {
        let s = summary_of((1..=2000).map(|i| i * 10));
        assert_eq!(pooled_quantile(&[s], 0.99), Some(s.p99 as f64));
        assert_eq!(pooled_quantile(&[s], 0.5), Some(s.p50 as f64));
        assert_eq!(pooled_quantile(&[s], 0.0), Some(s.min as f64));
    }

    #[test]
    fn pooled_quantile_mixes_by_count() {
        // Two identical episodes pool to the same quantiles.
        let s = summary_of((1..=1000).map(|i| i * 7));
        let two = pooled_quantile(&[s, s], 0.99).expect("samples");
        assert!((two - s.p99 as f64).abs() < 1e-6 * s.p99 as f64);
        // A large fast episode and a small slow one: the pooled median
        // sits in the fast episode's range.
        let fast = summary_of((1..=9000).map(|i| 1000 + i % 100));
        let slow = summary_of((1..=1000).map(|i| 50_000 + i));
        let med = pooled_quantile(&[fast, slow], 0.5).expect("samples");
        assert!((1000.0..1100.0).contains(&med), "{med}");
        let p95 = pooled_quantile(&[fast, slow], 0.95).expect("samples");
        assert!((50_000.0..=51_000.0).contains(&p95), "{p95}");
    }

    #[test]
    fn pooled_quantile_of_nothing_is_none() {
        assert_eq!(pooled_quantile(&[], 0.5), None);
        assert_eq!(pooled_quantile(&[Histogram::new().summary()], 0.5), None);
    }

    #[test]
    fn name_and_unit_rules() {
        assert!(valid_name("stage.chan_send.accel.p50_ns"));
        assert!(valid_name("pool-mix-observed"));
        assert!(!valid_name("_lead"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/inside"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("sim-ms/s"));
        assert!(valid_unit("%"));
        assert!(!valid_unit(""));
        assert!(!valid_unit("µs"));
    }
}
