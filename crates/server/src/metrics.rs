//! Server observability: per-endpoint request counters and log-spaced
//! latency histograms (reusing [`nsigma_stats::histogram::Histogram`]), plus
//! rejection counters for backpressure and deadline misses. Everything is
//! lock-free on the counter path; only the histogram takes a short mutex.

use crate::json::{obj, Value};
use nsigma_stats::histogram::Histogram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Endpoints tracked individually, in display order.
pub const ENDPOINTS: [&str; 9] = [
    "register_design",
    "lint_design",
    "analyze_path",
    "worst_paths",
    "quantile",
    "yield_design",
    "eco_resize",
    "stats",
    "shutdown",
];

/// Latency histogram range: 1 µs to 1 000 s, log-spaced. The histogram
/// holds `log10(µs)` in `[0, 9)` with 100 bins per decade, so a percentile
/// read back at a bin center is within ~1.2 % of the recorded latency —
/// from a sub-millisecond query to a multi-minute yield run. Zero-µs
/// requests land in the underflow bucket, anything past 1 000 s in the
/// overflow bucket; both still count toward totals.
const LAT_HI_US: f64 = 1e9;
const LAT_DECADES: f64 = 9.0;
const LAT_BINS: usize = 900;

/// An empty latency histogram over `log10(µs)`.
fn latency_histogram() -> Histogram {
    Histogram::new(0.0, LAT_DECADES, LAT_BINS)
}

/// Records one latency into a [`latency_histogram`].
fn push_latency(h: &mut Histogram, micros: u64) {
    h.push((micros as f64).log10());
}

struct EndpointMetrics {
    ok: AtomicU64,
    errors: AtomicU64,
    total_us: AtomicU64,
    max_us: AtomicU64,
    latency: Mutex<Histogram>,
}

impl EndpointMetrics {
    fn new() -> Self {
        Self {
            ok: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            total_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
            latency: Mutex::new(latency_histogram()),
        }
    }
}

/// All server counters.
pub struct Metrics {
    endpoints: Vec<EndpointMetrics>,
    /// Requests refused because the wait queue was full, and connections
    /// refused past the connection cap.
    pub rejected_overload: AtomicU64,
    /// Requests refused because no slot freed within their deadline.
    pub rejected_deadline: AtomicU64,
    /// Lines that failed to parse as a request.
    pub bad_requests: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Fresh, zeroed counters.
    pub fn new() -> Self {
        Self {
            endpoints: (0..ENDPOINTS.len())
                .map(|_| EndpointMetrics::new())
                .collect(),
            rejected_overload: AtomicU64::new(0),
            rejected_deadline: AtomicU64::new(0),
            bad_requests: AtomicU64::new(0),
        }
    }

    fn slot(&self, endpoint: &str) -> Option<&EndpointMetrics> {
        ENDPOINTS
            .iter()
            .position(|e| *e == endpoint)
            .map(|i| &self.endpoints[i])
    }

    /// Records one served request.
    pub fn record(&self, endpoint: &str, ok: bool, micros: u64) {
        let Some(m) = self.slot(endpoint) else { return };
        if ok {
            m.ok.fetch_add(1, Ordering::Relaxed);
        } else {
            m.errors.fetch_add(1, Ordering::Relaxed);
        }
        m.total_us.fetch_add(micros, Ordering::Relaxed);
        m.max_us.fetch_max(micros, Ordering::Relaxed);
        push_latency(
            &mut m
                .latency
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
            micros,
        );
    }

    /// Total requests routed to endpoints (ok + error).
    pub fn total_requests(&self) -> u64 {
        self.endpoints
            .iter()
            .map(|m| m.ok.load(Ordering::Relaxed) + m.errors.load(Ordering::Relaxed))
            .sum()
    }

    /// The stats-endpoint JSON payload.
    pub fn snapshot(&self) -> Value {
        let mut per_endpoint = Vec::new();
        for (name, m) in ENDPOINTS.iter().zip(&self.endpoints) {
            let ok = m.ok.load(Ordering::Relaxed);
            let errors = m.errors.load(Ordering::Relaxed);
            if ok + errors == 0 {
                continue;
            }
            let hist = m
                .latency
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let total_us = m.total_us.load(Ordering::Relaxed);
            per_endpoint.push((
                name.to_string(),
                obj(vec![
                    ("requests", Value::Num((ok + errors) as f64)),
                    ("ok", Value::Num(ok as f64)),
                    ("errors", Value::Num(errors as f64)),
                    ("p50_us", Value::Num(histogram_percentile(&hist, 0.50))),
                    ("p99_us", Value::Num(histogram_percentile(&hist, 0.99))),
                    (
                        "mean_us",
                        Value::Num(total_us as f64 / (ok + errors) as f64),
                    ),
                    (
                        "max_us",
                        Value::Num(m.max_us.load(Ordering::Relaxed) as f64),
                    ),
                ]),
            ));
        }
        obj(vec![
            ("requests", Value::Num(self.total_requests() as f64)),
            (
                "rejected_overload",
                Value::Num(self.rejected_overload.load(Ordering::Relaxed) as f64),
            ),
            (
                "rejected_deadline",
                Value::Num(self.rejected_deadline.load(Ordering::Relaxed) as f64),
            ),
            (
                "bad_requests",
                Value::Num(self.bad_requests.load(Ordering::Relaxed) as f64),
            ),
            ("endpoints", Value::Obj(per_endpoint)),
        ])
    }
}

/// The `p`-quantile (µs) of a [`latency_histogram`], approximated at
/// bin-center resolution. Underflow (0 µs) counts as 0, overflow as the
/// range maximum of 1 000 s.
pub fn histogram_percentile(h: &Histogram, p: f64) -> f64 {
    let total = h.count();
    if total == 0 {
        return 0.0;
    }
    let target = (p.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
    let mut seen = h.underflow();
    if seen >= target {
        return 0.0;
    }
    let centers = h.centers();
    for (c, &n) in centers.iter().zip(h.bins()) {
        seen += n;
        if seen >= target {
            return 10f64.powf(*c);
        }
    }
    LAT_HI_US
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_snapshots() {
        let m = Metrics::new();
        m.record("worst_paths", true, 120);
        m.record("worst_paths", true, 400);
        m.record("worst_paths", false, 10);
        m.record("stats", true, 5);
        m.rejected_overload.fetch_add(2, Ordering::Relaxed);
        assert_eq!(m.total_requests(), 4);

        let snap = m.snapshot();
        assert_eq!(snap.get("requests").unwrap().as_u64(), Some(4));
        assert_eq!(snap.get("rejected_overload").unwrap().as_u64(), Some(2));
        let wp = snap.get("endpoints").unwrap().get("worst_paths").unwrap();
        assert_eq!(wp.get("ok").unwrap().as_u64(), Some(2));
        assert_eq!(wp.get("errors").unwrap().as_u64(), Some(1));
        assert!(wp.get("p50_us").unwrap().as_f64().unwrap() > 0.0);
        assert!(
            wp.get("p99_us").unwrap().as_f64().unwrap()
                >= wp.get("p50_us").unwrap().as_f64().unwrap()
        );
    }

    #[test]
    fn unknown_endpoint_is_ignored() {
        let m = Metrics::new();
        m.record("nope", true, 1);
        assert_eq!(m.total_requests(), 0);
    }

    #[test]
    fn percentiles_track_the_distribution() {
        let mut h = latency_histogram();
        for i in 0..1000 {
            push_latency(&mut h, i); // 0..1000 µs
        }
        let p50 = histogram_percentile(&h, 0.50);
        let p99 = histogram_percentile(&h, 0.99);
        assert!((p50 - 500.0).abs() < 60.0, "p50={p50}");
        assert!((p99 - 990.0).abs() < 60.0, "p99={p99}");
        // Overflow pushes the tail to the range max.
        push_latency(&mut h, 10_000_000_000);
        assert_eq!(histogram_percentile(&h, 1.0), LAT_HI_US);
    }

    #[test]
    fn multi_minute_latencies_read_back_within_a_few_percent() {
        let m = Metrics::new();
        let two_minutes_us = 120_000_000;
        m.record("yield_design", true, two_minutes_us);
        let snap = m.snapshot();
        let y = snap.get("endpoints").unwrap().get("yield_design").unwrap();
        for key in ["p50_us", "p99_us"] {
            let got = y.get(key).unwrap().as_f64().unwrap();
            let rel = (got - two_minutes_us as f64).abs() / two_minutes_us as f64;
            assert!(rel < 0.02, "{key} = {got} for a 120 s request");
        }
    }
}
