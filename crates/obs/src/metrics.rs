//! A deterministic metrics registry: counters, gauges and log-bucketed
//! histograms flushed per-epoch into a long-format CSV.

/// A power-of-two-bucketed histogram for small nonnegative quantities
/// (hop counts, route lengths).
///
/// Value `0` lands in bucket 0; value `v > 0` lands in bucket
/// `1 + floor(log2 v)`, so bucket `i > 0` covers `[2^(i-1), 2^i - 1]` and
/// the upper bound of bucket `i` is `2^i - 1`. Log bucketing keeps the
/// flushed row count constant no matter how long routes get.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    total: u64,
    sum: u64,
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation of `value`.
    pub fn record(&mut self, value: u64) {
        let index = Self::bucket_index(value);
        if self.buckets.len() <= index {
            self.buckets.resize(index + 1, 0);
        }
        self.buckets[index] += 1;
        self.total += 1;
        self.sum += value;
    }

    /// The bucket `value` falls into.
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The inclusive upper bound of bucket `index`.
    pub fn bucket_bound(index: usize) -> u64 {
        if index == 0 {
            0
        } else if index >= 64 {
            u64::MAX
        } else {
            (1u64 << index) - 1
        }
    }

    /// Observation counts per bucket, lowest bucket first.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }
}

enum Metric {
    Counter(u64),
    Gauge(f64),
    Histogram(LogHistogram),
}

/// Named metrics flushed per-epoch into long-format CSV rows.
///
/// Metric names are registered up front; flush order follows registration
/// order, which is what makes the CSV byte-stable. Counter and gauge values
/// are **cumulative since run start** (not per-epoch deltas): the final
/// epoch's rows are the run totals, which is what the conservation tests
/// check against `TrafficStats`.
pub struct MetricsRegistry {
    names: Vec<&'static str>,
    metrics: Vec<Metric>,
    rows: Vec<String>,
}

/// CSV header for [`MetricsRegistry::to_csv`] output.
pub const METRICS_CSV_HEADER: &str = "grid,job,epoch,step,metric,value";

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self {
            names: Vec::new(),
            metrics: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Registers a counter, returning its handle.
    pub fn counter(&mut self, name: &'static str) -> usize {
        self.register(name, Metric::Counter(0))
    }

    /// Registers a gauge, returning its handle.
    pub fn gauge(&mut self, name: &'static str) -> usize {
        self.register(name, Metric::Gauge(0.0))
    }

    /// Registers a histogram, returning its handle.
    pub fn histogram(&mut self, name: &'static str) -> usize {
        self.register(name, Metric::Histogram(LogHistogram::new()))
    }

    fn register(&mut self, name: &'static str, metric: Metric) -> usize {
        assert!(
            !self.names.contains(&name),
            "metric `{name}` registered twice"
        );
        self.names.push(name);
        self.metrics.push(metric);
        self.metrics.len() - 1
    }

    /// Every registered metric as `(name, kind)` in registration (and
    /// flush) order, with kind `counter`, `gauge` or `histogram`.
    pub fn registered(&self) -> impl Iterator<Item = (&'static str, &'static str)> + '_ {
        self.names.iter().zip(&self.metrics).map(|(&name, metric)| {
            let kind = match metric {
                Metric::Counter(_) => "counter",
                Metric::Gauge(_) => "gauge",
                Metric::Histogram(_) => "histogram",
            };
            (name, kind)
        })
    }

    /// Sets a counter to its new cumulative value (monotonicity asserted).
    pub fn set_counter(&mut self, handle: usize, value: u64) {
        match &mut self.metrics[handle] {
            Metric::Counter(v) => {
                debug_assert!(
                    value >= *v,
                    "counter `{}` went backwards",
                    self.names[handle]
                );
                *v = value;
            }
            _ => panic!("handle {handle} is not a counter"),
        }
    }

    /// Adds to a counter.
    pub fn add_counter(&mut self, handle: usize, delta: u64) {
        match &mut self.metrics[handle] {
            Metric::Counter(v) => *v += delta,
            _ => panic!("handle {handle} is not a counter"),
        }
    }

    /// Current value of a counter.
    pub fn counter_value(&self, handle: usize) -> u64 {
        match &self.metrics[handle] {
            Metric::Counter(v) => *v,
            _ => panic!("handle {handle} is not a counter"),
        }
    }

    /// Sets a gauge.
    pub fn set_gauge(&mut self, handle: usize, value: f64) {
        match &mut self.metrics[handle] {
            Metric::Gauge(v) => *v = value,
            _ => panic!("handle {handle} is not a gauge"),
        }
    }

    /// Records an observation into a histogram.
    pub fn observe(&mut self, handle: usize, value: u64) {
        match &mut self.metrics[handle] {
            Metric::Histogram(h) => h.record(value),
            _ => panic!("handle {handle} is not a histogram"),
        }
    }

    /// Snapshots every metric into CSV rows for one epoch.
    ///
    /// Counters and gauges emit one row each; a histogram emits one row per
    /// occupied-prefix bucket (`name_le_B` with `B` the bucket's inclusive
    /// upper bound) plus `name_total` and `name_sum` rows.
    pub fn flush(&mut self, grid: u32, job: u32, epoch: u64, step: u64) {
        for index in 0..self.metrics.len() {
            let name = self.names[index];
            match &self.metrics[index] {
                Metric::Counter(v) => {
                    self.rows
                        .push(format!("{grid},{job},{epoch},{step},{name},{v}"));
                }
                Metric::Gauge(v) => {
                    self.rows
                        .push(format!("{grid},{job},{epoch},{step},{name},{v:.6}"));
                }
                Metric::Histogram(h) => {
                    for (bucket, count) in h.buckets().iter().enumerate() {
                        let bound = LogHistogram::bucket_bound(bucket);
                        self.rows.push(format!(
                            "{grid},{job},{epoch},{step},{name}_le_{bound},{count}"
                        ));
                    }
                    self.rows.push(format!(
                        "{grid},{job},{epoch},{step},{name}_total,{}",
                        h.total()
                    ));
                    self.rows.push(format!(
                        "{grid},{job},{epoch},{step},{name}_sum,{}",
                        h.sum()
                    ));
                }
            }
        }
    }

    /// All flushed rows so far, without the header.
    pub fn rows(&self) -> &[String] {
        &self.rows
    }

    /// Renders the flushed rows as a CSV document with header.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(METRICS_CSV_HEADER);
        out.push('\n');
        for row in &self.rows {
            out.push_str(row);
            out.push('\n');
        }
        out
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(LogHistogram::bucket_index(0), 0);
        assert_eq!(LogHistogram::bucket_index(1), 1);
        assert_eq!(LogHistogram::bucket_index(2), 2);
        assert_eq!(LogHistogram::bucket_index(3), 2);
        assert_eq!(LogHistogram::bucket_index(4), 3);
        assert_eq!(LogHistogram::bucket_index(7), 3);
        assert_eq!(LogHistogram::bucket_index(8), 4);
        assert_eq!(LogHistogram::bucket_bound(0), 0);
        assert_eq!(LogHistogram::bucket_bound(1), 1);
        assert_eq!(LogHistogram::bucket_bound(2), 3);
        assert_eq!(LogHistogram::bucket_bound(3), 7);
    }

    #[test]
    fn histogram_totals_conserve() {
        let mut h = LogHistogram::new();
        for v in [0u64, 1, 1, 3, 8] {
            h.record(v);
        }
        assert_eq!(h.total(), 5);
        assert_eq!(h.sum(), 13);
        assert_eq!(h.buckets().iter().sum::<u64>(), h.total());
    }

    #[test]
    fn flush_emits_rows_in_registration_order() {
        let mut reg = MetricsRegistry::new();
        let requests = reg.counter("requests");
        let live = reg.gauge("live");
        let hops = reg.histogram("route_hops");
        reg.add_counter(requests, 10);
        reg.set_gauge(live, 99.0);
        reg.observe(hops, 2);
        reg.flush(0, 1, 0, 5);
        let csv = reg.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], METRICS_CSV_HEADER);
        assert_eq!(lines[1], "0,1,0,5,requests,10");
        assert_eq!(lines[2], "0,1,0,5,live,99.000000");
        assert_eq!(lines[3], "0,1,0,5,route_hops_le_0,0");
        assert_eq!(lines[4], "0,1,0,5,route_hops_le_1,0");
        assert_eq!(lines[5], "0,1,0,5,route_hops_le_3,1");
        assert_eq!(lines[6], "0,1,0,5,route_hops_total,1");
        assert_eq!(lines[7], "0,1,0,5,route_hops_sum,2");
        assert_eq!(lines.len(), 8);
    }

    #[test]
    fn counters_are_cumulative() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("chunks");
        reg.set_counter(c, 5);
        reg.flush(0, 0, 0, 1);
        reg.set_counter(c, 12);
        reg.flush(0, 0, 1, 2);
        assert_eq!(reg.counter_value(c), 12);
        assert_eq!(reg.rows(), &["0,0,0,1,chunks,5", "0,0,1,2,chunks,12"]);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_names_rejected() {
        let mut reg = MetricsRegistry::new();
        reg.counter("x");
        reg.counter("x");
    }
}
