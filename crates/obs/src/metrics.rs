//! Deterministic metrics rows: counters, gauges and log-bucketed
//! histograms flushed per epoch into a long-format CSV.

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

/// CSV header of the metrics stream: one row per metric per flush.
pub const METRICS_CSV_HEADER: &str = "grid,job,epoch,step,metric,value";

/// The rows of one metrics flush, appended to a long-format CSV body
/// under [`METRICS_CSV_HEADER`].
///
/// The caller names each metric as it flushes it, so the order of the
/// calls is the row order; that is what makes the CSV byte-stable.
pub struct MetricsFlush<'a> {
    prefix: String,
    rows: &'a mut Vec<String>,
}

impl<'a> MetricsFlush<'a> {
    /// Starts the flush of `epoch`, taken at `step`, of cell `(grid, job)`.
    pub fn new(rows: &'a mut Vec<String>, grid: u32, job: u32, epoch: u64, step: u64) -> Self {
        Self {
            prefix: format!("{grid},{job},{epoch},{step},"),
            rows,
        }
    }

    fn row(&mut self, name: &str, value: impl std::fmt::Display) {
        self.rows.push(format!("{}{name},{value}", self.prefix));
    }

    /// A counter's row: its value as an integer.
    pub fn counter(&mut self, name: &str, value: u64) {
        self.row(name, value);
    }

    /// A gauge's row: its value to six decimals.
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.row(name, format_args!("{value:.6}"));
    }

    /// A histogram's rows: one per bucket up to the highest occupied one
    /// (`name_le_B` with `B` the bucket's inclusive upper bound), then
    /// `name_total` and `name_sum`.
    pub fn histogram(&mut self, name: &str, histogram: &LogHistogram) {
        for (bucket, count) in histogram.buckets().iter().enumerate() {
            let bound = LogHistogram::bucket_bound(bucket);
            self.row(&format!("{name}_le_{bound}"), count);
        }
        self.row(&format!("{name}_total"), histogram.total());
        self.row(&format!("{name}_sum"), histogram.sum());
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
        let mut hops = LogHistogram::new();
        hops.record(2);
        let mut rows = Vec::new();
        let mut flush = MetricsFlush::new(&mut rows, 0, 1, 0, 5);
        flush.counter("requests", 10);
        flush.gauge("live", 99.0);
        flush.histogram("route_hops", &hops);
        assert_eq!(
            rows,
            [
                "0,1,0,5,requests,10",
                "0,1,0,5,live,99.000000",
                "0,1,0,5,route_hops_le_0,0",
                "0,1,0,5,route_hops_le_1,0",
                "0,1,0,5,route_hops_le_3,1",
                "0,1,0,5,route_hops_total,1",
                "0,1,0,5,route_hops_sum,2",
            ]
        );
    }
}
