//! Run outcome, summary statistics, and the one-line JSON result.

use std::time::Duration;

/// End-to-end metrics `(name, unit)`: every untraced run reports each.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("small_batch_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`: every traced run reports each, as 0
/// where the workload does not reach the layer.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("query.connected.ns_per_op", "ns"),
    ("query.representatives.ns_per_op", "ns"),
    ("query.path_sum.ns_per_op", "ns"),
    ("query.path_extrema.ns_per_op", "ns"),
    ("query.lca.ns_per_op", "ns"),
    ("query.subtree_sum.ns_per_op", "ns"),
    ("query.nearest_marked.ns_per_op", "ns"),
    ("query.k10.ns_per_op", "ns"),
    ("query.k100.ns_per_op", "ns"),
    ("query.k1000.ns_per_op", "ns"),
    ("query.k10000.ns_per_op", "ns"),
    ("query.k10.single_ns_per_op", "ns"),
    ("query.calls", "count"),
    ("build.ns_per_edge", "ns"),
    ("msf.k10.ns_per_edge", "ns"),
    ("msf.k10000.ns_per_edge", "ns"),
    ("msf.insert.ns_per_edge", "ns"),
    ("msf.cpt_share", "ratio"),
    ("msf.kruskal_share", "ratio"),
    ("msf.forest_update_share", "ratio"),
    ("msf.cpt_vertices_per_endpoint", "ratio"),
    ("msf.evicted_per_edge", "ratio"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("serve.submit_ns.p50", "ns"),
    ("serve.submit_ns.p99", "ns"),
    ("serve.latency.query_p50_ms", "ms"),
    ("serve.latency.update_p50_ms", "ms"),
    ("serve.warmup_p99_ms", "ms"),
    ("serve.epochs_per_s", "1/s"),
    ("serve.epoch_ops_mean", "count"),
    ("serve.phase.drain.busy_frac", "ratio"),
    ("serve.phase.admit.busy_frac", "ratio"),
    ("serve.phase.commit.busy_frac", "ratio"),
    ("serve.phase.wal.busy_frac", "ratio"),
    ("serve.phase.publish.busy_frac", "ratio"),
    ("serve.phase.handoff.busy_frac", "ratio"),
    ("serve.phase.backpressure.busy_frac", "ratio"),
    ("serve.phase.query.busy_frac", "ratio"),
    ("serve.phase.respond.busy_frac", "ratio"),
    ("serve.dispatch.batched_frac", "ratio"),
    ("serve.dispatch.independent_frac", "ratio"),
    ("serve.dispatch.sequential_frac", "ratio"),
    ("store.fsyncs_per_s", "1/s"),
    ("store.fsync_us.p50", "us"),
    ("store.fsync_us.p99", "us"),
    ("store.append_bytes_per_op", "B/op"),
    ("store.compactions", "count"),
    ("store.compaction_ms", "ms"),
    ("pool.speedup_vs_1t", "x"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.late_max_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
    ("failed_frac", "ratio"),
];

/// What one workload run hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    /// Operations whose answers were checked (queries, offered edges,
    /// requests).
    pub attempted: u64,
    /// Wrong answers, errors on valid updates, rejected or timed-out
    /// requests, and failed whole-state comparisons.
    pub failed: u64,
    /// `(name, value, unit)`, in output order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Registry metrics the run looked for and did not find.
    pub absent: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name.into(), value, unit));
    }

    /// Order the metrics as `table` lists them, adding 0 for those the
    /// run did not measure. Panics on a name `table` does not list.
    pub fn complete(&mut self, table: &[(&str, &'static str)]) {
        for (name, _, unit) in &self.metrics {
            assert!(
                table.iter().any(|(n, u)| n == name && u == unit),
                "metric {name} ({unit}) is not in the table"
            );
        }
        let measured = std::mem::take(&mut self.metrics);
        for &(name, unit) in table {
            let value = measured
                .iter()
                .find(|(n, _, _)| n == name)
                .map_or(0.0, |m| m.1);
            self.metrics.push((name.to_string(), value, unit));
        }
    }

    /// The one-line result object the benchmark prints last.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of `xs` (mean of the middle pair for even lengths); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `[0, 100]` of `xs`; 0 if empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// One timed call of a library tape.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    /// Block of the tape the call belongs to; every block holds the same
    /// mix of calls.
    pub block: usize,
    /// Operations in the call.
    pub k: usize,
    pub took: Duration,
}

/// Operations per second over `calls`.
pub fn rate(calls: &[Timed]) -> f64 {
    let ops: usize = calls.iter().map(|c| c.k).sum();
    let wall: Duration = calls.iter().map(|c| c.took).sum();
    ops as f64 / wall.as_secs_f64()
}

/// Median over the tape's blocks of `f` applied to each block's calls
/// (`calls` in block order). Blocks are alike, so the median shrugs off
/// a block that the machine disturbed.
pub fn block_median(calls: &[Timed], f: impl Fn(&[Timed]) -> f64) -> f64 {
    let per_block: Vec<f64> = calls.chunk_by(|a, b| a.block == b.block).map(f).collect();
    median(&per_block)
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Print a progress or summary line on stderr.
#[macro_export]
macro_rules! note {
    ($($arg:tt)*) => { eprintln!("[perfbench] {}", format_args!($($arg)*)) };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs listed in one section of `BENCHMARK.json`.
    fn listed(json: &str, section: &str) -> Vec<(String, String)> {
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..json[start..].find(']').map(|e| start + e).unwrap()];
        body.split("{\"name\": \"")
            .skip(1)
            .map(|entry| {
                let name = entry.split('"').next().unwrap().to_string();
                let unit = entry.split("\"unit\": \"").nth(1).unwrap();
                (name, unit.split('"').next().unwrap().to_string())
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&json, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&json, "per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn medians_percentiles_and_block_medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 99.0), 5.0);
        let call = |k, ms| Timed {
            block: 0,
            k,
            took: Duration::from_millis(ms),
        };
        let calls = [
            call(10, 1),
            Timed {
                block: 1,
                ..call(30, 1)
            },
            Timed {
                block: 2,
                ..call(20, 1)
            },
        ];
        assert_eq!(rate(&calls), 20_000.0);
        assert_eq!(block_median(&calls, rate), 20_000.0);
    }
}
