//! The process-global metrics registry and its Prometheus exposition.
//!
//! Handles ([`Counter`], [`Gauge`], [`LatencyHistogram`]) are `Arc`ed
//! atomics: fetch them once (at startup or through a `OnceLock`) and the
//! hot path touches nothing but a relaxed atomic — the registry mutex is
//! only taken at registration and render time, never per event.
//!
//! The latency histogram is log₂-bucketed: bucket `i` holds observations
//! `v` (in µs) with `2^(i-1) < v ≤ 2^i`, the last bucket is `+Inf`. It is
//! the concurrent sibling of [`popgame_util::histogram::IntHistogram`]
//! (same dense fixed-bin layout, atomics instead of `&mut`), and
//! [`LatencyHistogram::snapshot`] converts back to an `IntHistogram` so
//! the analysis helpers there (frequencies, TV distance, merge) apply.

use popgame_util::histogram::IntHistogram;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Number of latency buckets: finite upper edges `2^0 .. 2^26` µs
/// (1 µs … ~67 s), plus a final `+Inf` bucket.
pub const LATENCY_BUCKETS: usize = 28;

/// A monotonically increasing counter (relaxed atomic `u64`).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh unregistered counter (tests; production code should use
    /// [`Registry::counter`]).
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous value that can move both ways (relaxed atomic `i64`).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A fresh unregistered gauge.
    pub fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A concurrent log₂-bucketed latency histogram (values in µs).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    sum_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The per-bucket upper edge in µs, `f64::INFINITY` for the last bucket.
pub fn bucket_upper_edge_us(index: usize) -> f64 {
    if index + 1 >= LATENCY_BUCKETS {
        f64::INFINITY
    } else {
        (1u64 << index) as f64
    }
}

/// The bucket index holding an observation of `us` microseconds.
pub fn bucket_index(us: u64) -> usize {
    if us <= 1 {
        0
    } else {
        // ceil(log2(us)) = bit length of (us - 1).
        let idx = (64 - (us - 1).leading_zeros()) as usize;
        idx.min(LATENCY_BUCKETS - 1)
    }
}

impl LatencyHistogram {
    /// A fresh unregistered histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
        }
    }

    /// Records one observation of `us` microseconds.
    pub fn record_us(&self, us: u64) {
        self.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all observed values, in µs.
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// Per-bucket (non-cumulative) counts.
    pub fn bucket_counts(&self) -> [u64; LATENCY_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// A point-in-time copy as a dense [`IntHistogram`] (bin = bucket
    /// index), unlocking the analysis helpers in `popgame-util`.
    pub fn snapshot(&self) -> IntHistogram {
        let mut h = IntHistogram::new(LATENCY_BUCKETS);
        for (i, b) in self.buckets.iter().enumerate() {
            h.record_n(i, b.load(Ordering::Relaxed));
        }
        h
    }

    /// The upper edge (µs) of the bucket containing quantile `q` of the
    /// recorded observations — the same bucket-resolution answer a
    /// Prometheus `histogram_quantile` would give. Returns 0 when empty.
    pub fn quantile_upper_edge_us(&self, q: f64) -> f64 {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_edge_us(i);
            }
        }
        f64::INFINITY
    }
}

/// Times a scope and records the elapsed µs into a histogram on drop.
#[derive(Debug)]
pub struct ScopedTimer {
    histogram: Arc<LatencyHistogram>,
    start: Instant,
}

impl ScopedTimer {
    /// Starts timing now; records on drop.
    pub fn new(histogram: Arc<LatencyHistogram>) -> Self {
        ScopedTimer {
            histogram,
            start: Instant::now(),
        }
    }
}

impl Drop for ScopedTimer {
    fn drop(&mut self) {
        let us = u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.histogram.record_us(us);
    }
}

/// Increments a gauge on construction and decrements it on drop —
/// crash-safe in-flight tracking.
#[derive(Debug)]
pub struct GaugeGuard(Arc<Gauge>);

impl GaugeGuard {
    /// Increments `gauge` now; the matching decrement runs on drop.
    pub fn new(gauge: Arc<Gauge>) -> Self {
        gauge.add(1);
        GaugeGuard(gauge)
    }
}

impl Drop for GaugeGuard {
    fn drop(&mut self) {
        self.0.sub(1);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum Slot {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<LatencyHistogram>),
}

#[derive(Debug)]
struct Family {
    kind: Kind,
    help: &'static str,
    /// Series keyed by their rendered label set (`key="value",…`, sorted
    /// by label key; empty string for the unlabeled series).
    series: BTreeMap<String, Slot>,
}

/// The metric registry: named families of labeled series.
///
/// All methods take `&self`; the global instance from [`registry`] can be
/// used from any thread. Registration is idempotent — asking for an
/// existing `(name, labels)` pair returns the same underlying atomic.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn label_key(labels: &[(&str, &str)]) -> String {
    let mut sorted: Vec<_> = labels.to_vec();
    sorted.sort_by(|a, b| a.0.cmp(b.0));
    let mut out = String::new();
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
    }
    out
}

impl Registry {
    /// A fresh private registry (tests; production code uses [`registry`]).
    pub fn new() -> Self {
        Registry::default()
    }

    fn slot(
        &self,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
        kind: Kind,
        make: impl FnOnce() -> Slot,
    ) -> Slot {
        let mut families = self.families.lock().unwrap_or_else(PoisonError::into_inner);
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            kind,
            help,
            series: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric {name} registered as {} but requested as {}",
            family.kind.as_str(),
            kind.as_str()
        );
        family
            .series
            .entry(label_key(labels))
            .or_insert_with(make)
            .clone()
    }

    /// Gets or creates the counter `name{labels}`.
    pub fn counter(
        &self,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Counter> {
        match self.slot(name, help, labels, Kind::Counter, || {
            Slot::Counter(Arc::new(Counter::new()))
        }) {
            Slot::Counter(c) => c,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Gets or creates the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, help: &'static str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.slot(name, help, labels, Kind::Gauge, || {
            Slot::Gauge(Arc::new(Gauge::new()))
        }) {
            Slot::Gauge(g) => g,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Gets or creates the latency histogram `name{labels}`.
    pub fn histogram(
        &self,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<LatencyHistogram> {
        match self.slot(name, help, labels, Kind::Histogram, || {
            Slot::Histogram(Arc::new(LatencyHistogram::new()))
        }) {
            Slot::Histogram(h) => h,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Number of exposed series (histograms count one series per
    /// `_bucket` line plus `_sum` and `_count`).
    pub fn series_count(&self) -> usize {
        let families = self.families.lock().unwrap_or_else(PoisonError::into_inner);
        families
            .values()
            .map(|f| {
                let per = match f.kind {
                    Kind::Histogram => LATENCY_BUCKETS + 2,
                    _ => 1,
                };
                f.series.len() * per
            })
            .sum()
    }

    /// Renders the whole registry in Prometheus text-exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` per family, one
    /// `name{labels} value` line per series, histograms expanded to
    /// cumulative `_bucket{le=…}` lines plus `_sum` and `_count`.
    /// Families and series render in sorted order, so output layout is
    /// deterministic (values, of course, are live).
    pub fn render(&self) -> String {
        let families = self.families.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = String::new();
        for (name, family) in families.iter() {
            let _ = writeln!(out, "# HELP {name} {}", family.help);
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.as_str());
            for (labels, slot) in family.series.iter() {
                match slot {
                    Slot::Counter(c) => {
                        let _ = writeln!(out, "{name}{} {}", braced(labels), c.get());
                    }
                    Slot::Gauge(g) => {
                        let _ = writeln!(out, "{name}{} {}", braced(labels), g.get());
                    }
                    Slot::Histogram(h) => {
                        let counts = h.bucket_counts();
                        let mut cumulative = 0u64;
                        for (i, &c) in counts.iter().enumerate() {
                            cumulative += c;
                            let edge = bucket_upper_edge_us(i);
                            let le = if edge.is_infinite() {
                                "+Inf".to_string()
                            } else {
                                format!("{edge}")
                            };
                            let with_le = if labels.is_empty() {
                                format!("le=\"{le}\"")
                            } else {
                                format!("{labels},le=\"{le}\"")
                            };
                            let _ =
                                writeln!(out, "{name}_bucket{{{with_le}}} {cumulative}");
                        }
                        let _ = writeln!(out, "{name}_sum{} {}", braced(labels), h.sum_us());
                        let _ = writeln!(out, "{name}_count{} {cumulative}", braced(labels));
                    }
                }
            }
        }
        out
    }
}

fn braced(labels: &str) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    }
}

/// The process-global registry every instrumented crate reports into.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

/// One parsed exposition line: `name{labels} value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (histogram lines keep their `_bucket`/`_sum`/`_count`
    /// suffix).
    pub name: String,
    /// Label pairs in the order written.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl Sample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Parses Prometheus text-exposition format — the inverse of
/// [`Registry::render`], shared by the test suite and the load
/// generator's mid-run scrape. Comment (`#`) and blank lines are
/// skipped; every other line must parse or an error naming it is
/// returned.
///
/// # Errors
///
/// A human-readable message quoting the first malformed line.
pub fn parse_exposition(text: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        samples.push(parse_sample_line(line)?);
    }
    Ok(samples)
}

fn parse_sample_line(line: &str) -> Result<Sample, String> {
    let bad = |what: &str| format!("malformed exposition line ({what}): {line:?}");
    let (name_part, rest) = match line.find('{') {
        Some(open) => {
            let close = line.rfind('}').ok_or_else(|| bad("unclosed label set"))?;
            if close < open {
                return Err(bad("unclosed label set"));
            }
            (&line[..open], {
                let labels = &line[open + 1..close];
                let value = line[close + 1..].trim();
                (Some(labels), value)
            })
        }
        None => {
            let mut split = line.splitn(2, char::is_whitespace);
            let name = split.next().unwrap_or("");
            let value = split.next().unwrap_or("").trim();
            (name, (None, value))
        }
    };
    let (labels_part, value_part) = rest;
    if name_part.is_empty()
        || !name_part
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    {
        return Err(bad("invalid metric name"));
    }
    let labels = match labels_part {
        None => Vec::new(),
        Some(body) => parse_labels(body).map_err(|what| bad(&what))?,
    };
    let value = match value_part {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        v => v
            .parse::<f64>()
            .map_err(|_| bad("unparseable value"))?,
    };
    Ok(Sample {
        name: name_part.to_string(),
        labels,
        value,
    })
}

fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut chars = body.chars().peekable();
    loop {
        while matches!(chars.peek(), Some(' ') | Some(',')) {
            chars.next();
        }
        if chars.peek().is_none() {
            break;
        }
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        if key.is_empty() {
            return Err("empty label key".to_string());
        }
        if chars.next() != Some('"') {
            return Err("label value not quoted".to_string());
        }
        let mut value = String::new();
        let mut closed = false;
        while let Some(c) = chars.next() {
            match c {
                '"' => {
                    closed = true;
                    break;
                }
                '\\' => match chars.next() {
                    Some('n') => value.push('\n'),
                    Some(other) => value.push(other),
                    None => return Err("dangling escape".to_string()),
                },
                c => value.push(c),
            }
        }
        if !closed {
            return Err("unterminated label value".to_string());
        }
        labels.push((key, value));
    }
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), LATENCY_BUCKETS - 1);
    }

    #[test]
    fn counter_gauge_round_trip() {
        let r = Registry::new();
        let c = r.counter("c_total", "help", &[("k", "v")]);
        c.inc();
        c.add(2);
        assert_eq!(c.get(), 3);
        // Same (name, labels) returns the same underlying atomic.
        assert_eq!(r.counter("c_total", "help", &[("k", "v")]).get(), 3);
        let g = r.gauge("g", "help", &[]);
        g.set(5);
        g.sub(2);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn label_order_is_canonical() {
        let r = Registry::new();
        let a = r.counter("m_total", "h", &[("b", "2"), ("a", "1")]);
        let b = r.counter("m_total", "h", &[("a", "1"), ("b", "2")]);
        a.inc();
        assert_eq!(b.get(), 1);
    }

    #[test]
    fn render_and_parse_round_trip() {
        let r = Registry::new();
        r.counter("req_total", "Requests.", &[("endpoint", "simulate")])
            .add(7);
        r.gauge("depth", "Queue depth.", &[]).set(3);
        let h = r.histogram("lat_us", "Latency.", &[("endpoint", "solve")]);
        h.record_us(3);
        h.record_us(900);
        let text = r.render();
        let samples = parse_exposition(&text).expect("render output must parse");
        // Counter line survives with its label.
        let req = samples
            .iter()
            .find(|s| s.name == "req_total")
            .expect("counter rendered");
        assert_eq!(req.label("endpoint"), Some("simulate"));
        assert!((req.value - 7.0).abs() < 1e-12);
        // Histogram: cumulative buckets are monotone and end at count.
        let buckets: Vec<&Sample> =
            samples.iter().filter(|s| s.name == "lat_us_bucket").collect();
        assert_eq!(buckets.len(), LATENCY_BUCKETS);
        let mut prev = 0.0;
        for b in &buckets {
            assert!(b.value >= prev, "buckets must be cumulative");
            prev = b.value;
        }
        let count = samples
            .iter()
            .find(|s| s.name == "lat_us_count")
            .expect("count rendered");
        assert_eq!(count.value, prev);
        assert_eq!(count.value, 2.0);
    }

    #[test]
    fn quantile_upper_edge_tracks_buckets() {
        let h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record_us(3); // bucket le=4
        }
        h.record_us(5000); // bucket le=8192
        assert_eq!(h.quantile_upper_edge_us(0.5), 4.0);
        assert_eq!(h.quantile_upper_edge_us(0.99), 4.0);
        assert_eq!(h.quantile_upper_edge_us(1.0), 8192.0);
    }

    #[test]
    fn snapshot_matches_util_histogram() {
        let h = LatencyHistogram::new();
        h.record_us(1);
        h.record_us(1);
        h.record_us(100);
        let snap = h.snapshot();
        assert_eq!(snap.total(), 3);
        assert_eq!(snap.count(0), 2);
        assert_eq!(snap.count(bucket_index(100)), 1);
    }

    #[test]
    fn concurrent_recording_keeps_totals_consistent() {
        let h = Arc::new(LatencyHistogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record_us(t * 1000 + i % 977);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.total(), 40_000);
        let counts = h.bucket_counts();
        assert_eq!(counts.iter().sum::<u64>(), 40_000);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_exposition("name{unclosed value").is_err());
        assert!(parse_exposition("na me 1").is_err());
        assert!(parse_exposition("name abc").is_err());
        assert!(parse_exposition("name{k=unquoted} 1").is_err());
    }

    #[test]
    fn escaped_label_values_round_trip() {
        let r = Registry::new();
        r.counter("esc_total", "h", &[("path", "a\"b\\c\nd")]).inc();
        let samples = parse_exposition(&r.render()).unwrap();
        assert_eq!(samples[0].label("path"), Some("a\"b\\c\nd"));
    }
}
