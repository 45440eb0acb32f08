//! Aggregate serving statistics, derived from the metrics registry.

use rc_obs::{HistogramSummary, MetricsSnapshot};

/// Aggregate server statistics: a typed view over the `serve_*` series
/// of a [`MetricsSnapshot`] (see [`ServeStats::from_snapshot`]). The
/// registry is the only store of these totals; per-epoch detail lives
/// in the flight recorder.
///
/// An epoch whose WAL append failed is counted in every total: the
/// registry books it, and its requests were answered `Rejected`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeStats {
    /// Epochs committed (`serve_epochs_total`).
    pub epochs: u64,
    /// Requests served (`serve_requests_total`).
    pub ops: u64,
    /// Update requests served (`serve_updates_total`).
    pub updates: u64,
    /// Query requests served (`serve_queries_total`).
    pub queries: u64,
    /// Total sub-batch flushes across all epochs (`serve_flushes_total`).
    pub flushes: u64,
    /// Mean epoch batch size (`ops / epochs`).
    pub mean_batch: f64,
    /// Largest epoch batch (`serve_epoch_batch_max`).
    pub max_batch: usize,
    /// End-to-end request latency, submit → response
    /// (`serve_request_latency_ns`).
    pub latency: HistogramSummary,
    /// Request traces captured by the deterministic 1-in-N sampler
    /// (`serve_traces_sampled_total`).
    pub traces_sampled: u64,
    /// Request traces captured because end-to-end latency exceeded the
    /// slow threshold, independent of sampling
    /// (`serve_traces_slow_total`).
    pub traces_slow: u64,
}

impl ServeStats {
    /// Read the serve series out of `snap`; a missing series reads as
    /// zero.
    pub fn from_snapshot(snap: &MetricsSnapshot) -> Self {
        let counter = |name| snap.counter(name).unwrap_or(0);
        let epochs = counter("serve_epochs_total");
        let ops = counter("serve_requests_total");
        ServeStats {
            epochs,
            ops,
            updates: counter("serve_updates_total"),
            queries: counter("serve_queries_total"),
            flushes: counter("serve_flushes_total"),
            mean_batch: if epochs == 0 {
                0.0
            } else {
                ops as f64 / epochs as f64
            },
            max_batch: snap.gauge("serve_epoch_batch_max").unwrap_or(0) as usize,
            latency: snap
                .histogram("serve_request_latency_ns")
                .unwrap_or_default(),
            traces_sampled: counter("serve_traces_sampled_total"),
            traces_slow: counter("serve_traces_slow_total"),
        }
    }
}
