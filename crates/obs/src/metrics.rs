//! A process-wide metrics registry: counters, gauges, and log₂
//! histograms.
//!
//! Handles are `&'static` and interned by name on first use, so hot
//! paths resolve their metric once (or cache the handle) and then pay a
//! single relaxed atomic op per update. Collection is always on — an
//! increment is cheaper than checking whether anyone is listening.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::hist::LogHistogram;

/// Monotonic event counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins floating-point gauge (stored as f64 bits).
#[derive(Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    LogHist(&'static LogHistogram),
}

fn registry() -> &'static Mutex<BTreeMap<&'static str, Metric>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<&'static str, Metric>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Lock the registry, shrugging off poisoning: a panic elsewhere while
/// interning must not take process-wide telemetry down with it (the map
/// is only ever grown, so a poisoned lock still guards a valid map).
fn lock_registry() -> std::sync::MutexGuard<'static, BTreeMap<&'static str, Metric>> {
    registry().lock().unwrap_or_else(|e| e.into_inner())
}

/// Intern (or fetch) the counter named `name`.
pub fn counter(name: &'static str) -> &'static Counter {
    let mut reg = lock_registry();
    match reg
        .entry(name)
        .or_insert_with(|| Metric::Counter(Box::leak(Box::default())))
    {
        Metric::Counter(c) => c,
        _ => panic!("metric {name} already registered with a different type"),
    }
}

/// Intern (or fetch) the gauge named `name`.
pub fn gauge(name: &'static str) -> &'static Gauge {
    let mut reg = lock_registry();
    match reg
        .entry(name)
        .or_insert_with(|| Metric::Gauge(Box::leak(Box::default())))
    {
        Metric::Gauge(g) => g,
        _ => panic!("metric {name} already registered with a different type"),
    }
}

/// Intern (or fetch) the log₂-bucketed histogram named `name` (see
/// [`crate::hist`]): fixed power-of-two buckets over `u64` nanoseconds
/// or counts, lock-free observe.
pub fn log_histogram(name: &'static str) -> &'static LogHistogram {
    let mut reg = lock_registry();
    match reg
        .entry(name)
        .or_insert_with(|| Metric::LogHist(Box::leak(Box::new(LogHistogram::new()))))
    {
        Metric::LogHist(h) => h,
        _ => panic!("metric {name} already registered with a different type"),
    }
}

/// A point-in-time view of one metric. Snapshots are cold-path values
/// (export, tests), so the size spread between the scalar and histogram
/// variants is not worth boxing away.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum MetricValue {
    Counter(u64),
    Gauge(f64),
    /// Log₂-bucketed histogram of nanoseconds or counts; bucket `b ≥ 1`
    /// covers `[2^(b-1), 2^b)`, bucket 0 holds exact zeros.
    LogHist(crate::hist::HistSnapshot),
}

/// Snapshot every registered metric, **sorted by name** — the registry
/// is a `BTreeMap`, so snapshot order (and every serialization built on
/// it) is deterministic across runs and telemetry artifacts diff
/// cleanly. Pinned by `snapshot_and_jsonl_are_sorted_by_name`.
pub fn snapshot() -> Vec<(&'static str, MetricValue)> {
    let reg = lock_registry();
    reg.iter()
        .map(|(&name, m)| {
            let v = match m {
                Metric::Counter(c) => MetricValue::Counter(c.get()),
                Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                Metric::LogHist(h) => MetricValue::LogHist(h.snapshot()),
            };
            (name, v)
        })
        .collect()
}

/// Serialize the snapshot as JSONL — one `{"type": ..., "name": ...}`
/// object per line, parseable by [`crate::json::parse`].
pub fn to_jsonl() -> String {
    use crate::json::Json;
    let mut out = String::new();
    for (name, v) in snapshot() {
        let obj = match v {
            MetricValue::Counter(c) => Json::obj(vec![
                ("type", Json::str("counter")),
                ("name", Json::str(name)),
                ("value", Json::Num(c as f64)),
            ]),
            MetricValue::Gauge(g) => Json::obj(vec![
                ("type", Json::str("gauge")),
                ("name", Json::str(name)),
                ("value", Json::Num(g)),
            ]),
            MetricValue::LogHist(s) => Json::obj(vec![
                ("type", Json::str("log_histogram")),
                ("name", Json::str(name)),
                (
                    "buckets",
                    // Sparse [bucket_index, count] pairs: 65 mostly-empty
                    // buckets per histogram would dominate the snapshot.
                    Json::Arr(
                        s.buckets
                            .iter()
                            .enumerate()
                            .filter(|(_, &n)| n > 0)
                            .map(|(b, &n)| {
                                Json::Arr(vec![Json::Num(b as f64), Json::Num(n as f64)])
                            })
                            .collect(),
                    ),
                ),
                ("count", Json::Num(s.count as f64)),
                ("sum", Json::Num(s.sum as f64)),
                ("p50", Json::Num(s.percentile(50.0) as f64)),
                ("p99", Json::Num(s.percentile(99.0) as f64)),
            ]),
        };
        out.push_str(&obj.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_once() {
        let c = counter("test.counter");
        c.inc();
        c.add(4);
        assert_eq!(counter("test.counter").get(), 5, "same handle by name");
        let g = gauge("test.gauge");
        g.set(2.5);
        assert_eq!(gauge("test.gauge").get(), 2.5);
        let snap = snapshot();
        assert!(snap
            .iter()
            .any(|(n, v)| *n == "test.counter" && *v == MetricValue::Counter(5)));
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn name_collision_across_types_panics() {
        counter("test.collision");
        gauge("test.collision");
    }

    #[test]
    fn log_histograms_register_and_serialize() {
        let h = log_histogram("test.loghist");
        h.observe(100);
        h.observe(100_000);
        assert_eq!(log_histogram("test.loghist").count(), 2, "same handle");
        let snap = snapshot();
        let (_, v) = snap
            .iter()
            .find(|(n, _)| *n == "test.loghist")
            .expect("registered");
        let MetricValue::LogHist(s) = v else {
            panic!("wrong metric type");
        };
        assert_eq!(s.count, 2);
        assert_eq!(s.sum, 100_100);
        // The JSONL line round-trips through the strict parser.
        let line = to_jsonl()
            .lines()
            .find(|l| l.contains("test.loghist"))
            .expect("jsonl line")
            .to_string();
        let doc = crate::json::parse(&line).expect("valid JSON");
        assert_eq!(
            doc.get("type").and_then(|t| t.as_str()),
            Some("log_histogram")
        );
        assert_eq!(doc.get("count").and_then(|c| c.as_f64()), Some(2.0));
        assert_eq!(
            doc.get("buckets").and_then(|b| b.as_arr()).map(|a| a.len()),
            Some(2)
        );
    }

    #[test]
    fn snapshot_and_jsonl_are_sorted_by_name() {
        // Register deliberately out of lexicographic order.
        counter("test.order.zz").inc();
        counter("test.order.aa").inc();
        gauge("test.order.mm").set(1.0);
        let snap = snapshot();
        let names: Vec<&str> = snap.iter().map(|(n, _)| *n).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "snapshot must be sorted by metric name");
        // And the JSONL serialization preserves that order line for line.
        let jsonl_names: Vec<String> = to_jsonl()
            .lines()
            .map(|l| {
                crate::json::parse(l)
                    .expect("valid line")
                    .get("name")
                    .and_then(|n| n.as_str())
                    .expect("name field")
                    .to_string()
            })
            .collect();
        let mut jsorted = jsonl_names.clone();
        jsorted.sort();
        assert_eq!(jsonl_names, jsorted, "to_jsonl must be sorted by name");
    }

    #[test]
    fn jsonl_snapshot_parses_back() {
        counter("test.jsonl.counter").add(3);
        log_histogram("test.jsonl.hist").observe(3);
        for line in to_jsonl().lines() {
            let v = crate::json::parse(line).expect("valid JSON line");
            assert!(v.get("type").is_some());
            assert!(v.get("name").and_then(|n| n.as_str()).is_some());
        }
    }
}
