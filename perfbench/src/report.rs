//! The harness's pure parts: percentiles with their sample-count rule,
//! the metric catalogue, name checks and the result line.

use serde_json::Value;

/// A percentile is reported only with at least this many samples above
/// it; otherwise the highest percentile that has them is reported.
pub const MIN_BEYOND: usize = 10;

/// A percentile taken from a sample, named by the percentile actually
/// used.
#[derive(Debug, Clone, PartialEq)]
pub struct Percentile {
    pub value: u64,
    /// The percentile used, in `[0, 1]`; lower than the one asked for
    /// when the sample could not support it.
    pub q: f64,
    /// `"p99"`, or the fallback's name such as `"p98.9"`.
    pub label: String,
    /// Samples the percentile was taken from.
    pub samples: usize,
}

/// The `q`-th percentile of `sorted` (nearest rank), or the highest
/// percentile with [`MIN_BEYOND`] samples above it when the sample is too
/// small for `q`. `None` when no percentile has that many samples above
/// it.
pub fn percentile(sorted: &[u64], q: f64) -> Option<Percentile> {
    let n = sorted.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let wanted = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    let highest = n - 1 - MIN_BEYOND;
    let (index, q_used) = if wanted <= highest {
        (wanted, q)
    } else {
        (highest, (highest + 1) as f64 / n as f64)
    };
    // Name a fallback by rounding down to a tenth, so the label never
    // claims a higher percentile than the one taken.
    let tenths = (q_used * 1000.0 + 1e-9).floor() / 10.0;
    Some(Percentile {
        value: sorted[index],
        q: q_used,
        label: format!("p{tenths}"),
        samples: n,
    })
}

/// The median of `values` (the mean of the middle two for an even
/// count); `0.0` for none.
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The mean of the middle half of `values` (a quarter trimmed from each
/// end); `0.0` for none. Unlike the median it does not jump between the
/// modes of a two-peaked sample.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    if middle.is_empty() {
        return 0.0;
    }
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// `num / den`, or `0.0` when the denominator is zero, so a ratio is
/// always a finite JSON number.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 || !num.is_finite() || !den.is_finite() {
        0.0
    } else {
        num / den
    }
}

/// `true` for a metric or workload name the result contract accepts:
/// `[A-Za-z0-9_.-]+`, starting with a letter or digit, at most 64 long.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// End-to-end metrics `(name, unit)`, measured untraced at the top rung.
pub const END_TO_END: &[(&str, &str)] = &[("modelled_cycles_per_job", "cycles"), ("setup_s", "s")];

/// Per-layer metrics `(name, unit)`, measured by the traced ladder run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("modmul.ns_per_job", "ns"),
    ("modmul.modelled_cycles_per_mul", "cycles"),
    ("dispatch.ns_per_job", "ns"),
    ("dispatch.added_ns_per_job", "ns"),
    ("dispatch.busy_speedup", "ratio"),
    ("dispatch.pool_hit_ratio", "ratio"),
    ("service.ns_per_job", "ns"),
    ("service.added_ns_per_job", "ns"),
    ("service.submit_ns_p50", "ns"),
    ("service.wait_ns_p99", "ns"),
    ("service.coalesce_mean", "jobs"),
    ("service.refill_cycles_per_job", "cycles"),
    ("cluster.ns_per_job", "ns"),
    ("cluster.added_ns_per_job", "ns"),
    ("cluster.affinity_hit_rate", "ratio"),
    ("cluster.spilled_frac", "ratio"),
    ("cluster.tile_imbalance", "ratio"),
    ("net.jobs_per_s", "1/s"),
    ("net.latency_p50_us", "us"),
    ("net.latency_p99_us", "us"),
    ("net.cpu_us_per_job", "us"),
    ("net.ns_per_job", "ns"),
    ("net.added_ns_per_job", "ns"),
    ("net.bytes_in_per_job", "B"),
    ("net.bytes_out_per_job", "B"),
    ("net.frames_in_per_job", "frames"),
    ("net.frames_out_per_job", "frames"),
    ("net.retry_after_per_job", "frames"),
    ("gen.late_p99_us", "us"),
    ("trace.overhead_frac", "ratio"),
    ("failed_frac", "ratio"),
];

/// The unit the catalogue gives `name`.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric as `{"value", "unit"}`.
///
/// # Panics
///
/// On a metric missing from the catalogue, which is a harness bug.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> Value {
    let metrics = metrics
        .iter()
        .map(|m| {
            let unit = unit_of(m.name).expect("every reported metric is catalogued");
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            (
                m.name.to_string(),
                Value::Object(vec![
                    ("value".to_string(), Value::Float(value)),
                    ("unit".to_string(), Value::String(unit.to_string())),
                ]),
            )
        })
        .collect();
    Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::Int(i128::from(attempted))),
        ("failed".to_string(), Value::Int(i128::from(failed))),
        ("metrics".to_string(), Value::Object(metrics)),
    ])
}
