//! Prometheus text-exposition rendering of the metrics registry.
//!
//! The registry's JSONL snapshot is the machine-readable artifact CI
//! validates; this module renders the *same* snapshot in the Prometheus
//! [text exposition format] so a scrape endpoint (or a file-based
//! textfile collector) can pick serving telemetry up without any new
//! dependency. `MGA_PROM_OUT=<path>` writes one snapshot at
//! [`crate::finish`]; a future serving cluster can call
//! [`render_prometheus`] per scrape.
//!
//! Mapping:
//!
//! * metric names are prefixed `mga_` and every non-`[a-zA-Z0-9_]`
//!   character becomes `_` (`serve.cache_hits` → `mga_serve_cache_hits`);
//! * counters/gauges render as their single sample;
//! * log₂ histograms ([`crate::hist`]) render as cumulative
//!   `_bucket{le="..."}` series plus `_sum`/`_count`, per the Prometheus
//!   histogram convention. Bucket `b ≥ 1` holds the integers
//!   `2^(b-1) ..= 2^b − 1`, so its `le` is `2^b − 1` and each finite
//!   series counts exactly the observations `≤ le`; an observation of
//!   exactly `2^b` sits one series higher. The zero bucket is `le="0"`.
//!   Series are emitted only up to the highest non-empty bucket (65
//!   mostly-empty series per histogram would bloat every scrape).
//!
//! [text exposition format]: https://prometheus.io/docs/instrumenting/exposition_formats/

use crate::hist::{bucket_hi, HistSnapshot, NUM_BUCKETS};
use crate::metrics::{snapshot, MetricValue};

/// Sanitize a registry metric name into a Prometheus metric name.
pub fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("mga_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        // Prometheus accepts +Inf/-Inf/NaN literals.
        if v.is_nan() {
            "NaN".to_string()
        } else if v > 0.0 {
            "+Inf".to_string()
        } else {
            "-Inf".to_string()
        }
    } else if v == v.trunc() && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn render_log_hist(out: &mut String, name: &str, s: &HistSnapshot) {
    out.push_str(&format!("# TYPE {name} histogram\n"));
    let top = (0..NUM_BUCKETS)
        .rev()
        .find(|&b| s.buckets[b] > 0)
        .unwrap_or(0);
    let mut cum = 0u64;
    for b in 0..=top {
        cum += s.buckets[b];
        out.push_str(&format!("{name}_bucket{{le=\"{}\"}} {cum}\n", bucket_hi(b)));
    }
    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", s.count));
    out.push_str(&format!("{name}_sum {}\n", s.sum));
    out.push_str(&format!("{name}_count {}\n", s.count));
}

/// Render every registered metric in Prometheus text exposition format,
/// sorted by name (inherited from [`snapshot`], so exports diff
/// cleanly).
pub fn render_prometheus() -> String {
    let mut out = String::new();
    for (name, v) in snapshot() {
        let pname = prom_name(name);
        match v {
            MetricValue::Counter(c) => {
                out.push_str(&format!("# TYPE {pname} counter\n{pname} {c}\n"));
            }
            MetricValue::Gauge(g) => {
                out.push_str(&format!("# TYPE {pname} gauge\n{pname} {}\n", fmt_f64(g)));
            }
            MetricValue::LogHist(s) => render_log_hist(&mut out, &pname, &s),
        }
    }
    out
}

/// Write a Prometheus snapshot to the file named by `MGA_PROM_OUT`
/// (empty or `0` disables). Called from [`crate::finish`].
pub fn write_prom_if_enabled() {
    if let Ok(path) = std::env::var("MGA_PROM_OUT") {
        let path = path.trim();
        if !path.is_empty() && path != "0" {
            match std::fs::write(path, render_prometheus()) {
                Ok(()) => crate::info!("prometheus snapshot written to {path}"),
                Err(e) => crate::error!("cannot write prometheus snapshot {path}: {e}"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::bucket_of;
    use crate::metrics;

    #[test]
    fn names_are_sanitized() {
        assert_eq!(prom_name("serve.cache_hits"), "mga_serve_cache_hits");
        assert_eq!(prom_name("serve.lat.e2e"), "mga_serve_lat_e2e");
        assert_eq!(prom_name("a-b/c"), "mga_a_b_c");
    }

    #[test]
    fn renders_all_metric_types_well_formed() {
        metrics::counter("test.prom.counter").add(7);
        metrics::gauge("test.prom.gauge").set(1.25);
        let lh = metrics::log_histogram("test.prom.loghist");
        lh.observe(900);
        lh.observe(3000);
        let text = render_prometheus();

        assert!(text.contains("# TYPE mga_test_prom_counter counter\nmga_test_prom_counter 7\n"));
        assert!(text.contains("# TYPE mga_test_prom_gauge gauge\nmga_test_prom_gauge 1.25\n"));
        // 900 ∈ 512..=1023 → le="1023"; 3000 ∈ 2048..=4095 → le="4095".
        assert!(text.contains("mga_test_prom_loghist_bucket{le=\"1023\"} 1"));
        assert!(text.contains("mga_test_prom_loghist_bucket{le=\"4095\"} 2"));
        assert!(text.contains("mga_test_prom_loghist_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("mga_test_prom_loghist_sum 3900"));

        // Structural well-formedness: every non-comment line is
        // `name[{labels}] value` with a parseable value, and bucket
        // series are cumulative per metric.
        let mut last: Option<(String, u64)> = None;
        for line in text.lines() {
            if line.starts_with('#') {
                assert!(line.starts_with("# TYPE "), "only TYPE comments: {line}");
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("name value");
            assert!(name.starts_with("mga_"), "prefixed: {line}");
            let v: f64 = value.parse().expect("numeric sample value");
            if let Some(base) = name.split('{').next() {
                if name.contains("_bucket{") {
                    let cum = v as u64;
                    if let Some((ref lbase, lcum)) = last {
                        if lbase == base {
                            assert!(cum >= lcum, "buckets must be cumulative: {line}");
                        }
                    }
                    last = Some((base.to_string(), cum));
                } else {
                    last = None;
                }
            }
        }
    }

    /// Each finite `le` series counts exactly the observations `≤ le`,
    /// powers of two included.
    #[test]
    fn le_series_count_the_observations_at_or_below_it() {
        let vals = [0u64, 1, 2, 3, 4, 5, 7, 8, 9, 1000, 1023, 1024, 1025];
        let h = metrics::log_histogram("test.prom.le_exact");
        for &v in &vals {
            h.observe(v);
        }
        let mut finite = 0;
        for line in render_prometheus().lines() {
            let Some(rest) = line.strip_prefix("mga_test_prom_le_exact_bucket{le=\"") else {
                continue;
            };
            let (le, cum) = rest.split_once("\"} ").expect("bucket sample");
            let cum: usize = cum.parse().expect("cumulative count");
            if le == "+Inf" {
                assert_eq!(cum, vals.len());
                continue;
            }
            let le: u64 = le.parse().expect("integer le");
            let want = vals.iter().filter(|&&v| v <= le).count();
            assert_eq!(
                cum, want,
                "le=\"{le}\" must count the {want} observations <= {le}"
            );
            finite += 1;
        }
        assert_eq!(
            finite,
            bucket_of(1025) + 1,
            "one series per bucket up to the top"
        );
    }

    /// The top bucket (observations ≥ 2^63) renders its bound as
    /// `u64::MAX` instead of overflowing a shift.
    #[test]
    fn top_bucket_le_is_u64_max() {
        metrics::log_histogram("test.prom.top").observe(u64::MAX);
        let text = render_prometheus();
        assert!(text.contains("mga_test_prom_top_bucket{le=\"18446744073709551615\"} 1\n"));
    }
}
