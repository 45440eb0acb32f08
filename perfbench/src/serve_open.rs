//! `serve_open`: the durable coalescing server under open-loop load.
//!
//! Setup starts `RcServe::start_durable` with `ServeConfig::default()`
//! and the default store settings in a fresh directory, bootstrapped with
//! the initial forest of a `RequestStream` (n = 100 000). The timed phase
//! replays the stream's `query_heavy` mix (Zipf 0.8) with Poisson
//! arrivals at 30 000 requests/s: one sender thread submits each request
//! at its due time, one collector thread waits on the handles in order.
//! Latency runs from a request's due time to the collector seeing its
//! response. Afterwards every update must have answered `Ok`, and the
//! forest returned by `shutdown()` must equal a link-cut tree replay of
//! the update tape in submission order.

use crate::report::{median, ms, peak_rss_mib, percentile, Outcome};
use crate::trace::{Span, Tracer, ROOT};
use crate::{note, Args};
use rc_core::{DynamicForest, ForestState};
use rc_gen::{
    apply_op, Arrival, ForestGenConfig, OpMix, OpResponse, RequestStream, RequestStreamConfig,
    StreamOp,
};
use rc_lct::LctForest;
use rc_serve::{
    Durability, MetricValue, MetricsSnapshot, RcServe, Request, Response, ServeConfig, ServeForest,
};
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

pub const N: usize = 100_000;
/// Offered load, requests per second.
pub const RATE: f64 = 30_000.0;
/// Leading share of the requests excluded from the latency metrics.
const WARMUP_FRAC: f64 = 0.2;
/// The measured requests are cut into this many consecutive windows;
/// latency percentiles are taken per window, and their median reported.
const WINDOWS: usize = 8;
const SETUPS: usize = 5;
/// Lone requests (each alone in its epoch) timed before the open loop.
const LONE: usize = 1_000;

/// The generated input: bootstrap forest, request tape and due times.
pub struct Tape {
    pub initial: ForestState,
    pub ops: Vec<StreamOp>,
    /// Due time of each request, ns after the start of the open loop.
    pub due_ns: Vec<u64>,
}

impl Tape {
    pub fn new(n: usize, seed: u64, seconds: f64) -> Self {
        let mut stream = RequestStream::new(RequestStreamConfig {
            forest: ForestGenConfig {
                n,
                seed,
                ..Default::default()
            },
            mix: OpMix::query_heavy(),
            zipf_exponent: 0.8,
            arrival: Arrival::Steady {
                mean_gap_ns: (1e9 / RATE) as u64,
            },
            ..Default::default()
        });
        let initial = ForestState::from_edges(n, &stream.initial_edges());
        let count = (RATE * seconds).ceil() as usize;
        let mut at = 0u64;
        let mut due_ns = Vec::with_capacity(count);
        let mut ops = Vec::with_capacity(count);
        for _ in 0..count {
            at += stream.next_delay_ns();
            due_ns.push(at);
            ops.push(stream.next_op());
        }
        Tape {
            initial,
            ops,
            due_ns,
        }
    }
}

/// Does the forest `got` equal a replay of every update of `ops`, in
/// order, over `initial`? Also false if the replay itself rejects an
/// update (the tape only holds valid ones).
pub fn replay_matches(initial: &ForestState, ops: &[StreamOp], got: &ServeForest) -> bool {
    let mut reference = LctForest::with_max_degree(initial.n, Some(3));
    if reference.import_state(initial).is_err() {
        return false;
    }
    for op in ops.iter().filter(|op| op.is_update()) {
        if apply_op(&mut reference, op) != OpResponse::Updated(Ok(())) {
            return false;
        }
    }
    DynamicForest::export_state(got) == reference.export_state()
}

/// One request of the open loop, times in ns after the loop's origin.
#[derive(Clone, Copy)]
struct Sample {
    due: u64,
    submit_start: u64,
    submit_end: u64,
    seen: u64,
    update: bool,
    ok: bool,
}

impl Sample {
    fn latency_ms(&self) -> f64 {
        self.seen.saturating_sub(self.due) as f64 / 1e6
    }
    fn late_ms(&self) -> f64 {
        self.submit_start.saturating_sub(self.due) as f64 / 1e6
    }
}

fn answered_ok(update: bool, r: &Response) -> bool {
    match r {
        Response::Rejected | Response::TimedOut => false,
        Response::Updated(res) => update && res.is_ok(),
        _ => !update,
    }
}

/// Submit every request at its due time from one sender thread; one
/// collector thread waits on the handles in submission order.
fn open_loop(server: &RcServe, tape: &Tape, origin: Instant) -> Vec<Sample> {
    let requests: Vec<Request> = tape.ops.iter().cloned().map(Request::from_stream).collect();
    let client = server.client();
    let at = |t: Instant| t.saturating_duration_since(origin).as_nanos() as u64;
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel();
        s.spawn(move || {
            for (i, request) in requests.into_iter().enumerate() {
                let due = origin + Duration::from_nanos(tape.due_ns[i]);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let update = request.is_update();
                let t0 = Instant::now();
                let handle = client.submit(request);
                let t1 = Instant::now();
                tx.send((i, update, handle, t0, t1))
                    .expect("collector alive");
            }
        });
        let collector = s.spawn(move || {
            let mut out = Vec::with_capacity(tape.ops.len());
            for (i, update, handle, t0, t1) in rx {
                let response = handle.wait();
                let seen = Instant::now();
                out.push(Sample {
                    due: tape.due_ns[i],
                    submit_start: at(t0),
                    submit_end: at(t1),
                    seen: at(seen),
                    update,
                    ok: answered_ok(update, &response),
                });
            }
            out
        });
        collector.join().expect("collector thread")
    })
}

/// A fresh store directory inside the working directory.
fn store_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(".perfbench").join(format!("serve-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Start a durable server over the bootstrap forest: the timed setup.
fn start(tape: &Tape, dir: &PathBuf) -> (RcServe, Duration) {
    let t0 = Instant::now();
    let (server, _) = RcServe::start_durable(
        ServeConfig::default(),
        Durability::new(dir, tape.initial.n),
        Some(&tape.initial),
    )
    .expect("durable server starts");
    (server, t0.elapsed())
}

/// Round-trip time of lone read requests on an idle server, each the
/// only request of its epoch.
fn lone_requests(server: &RcServe, tape: &Tape) -> (Vec<f64>, u64) {
    let client = server.client();
    let mut times = Vec::with_capacity(LONE);
    let mut failed = 0;
    for op in tape.ops.iter().filter(|op| !op.is_update()).take(LONE) {
        let t0 = Instant::now();
        let r = client.call(Request::from_stream(op.clone()));
        times.push(ms(t0.elapsed()));
        failed += u64::from(!answered_ok(false, &r));
    }
    (times, failed)
}

/// One open-loop pass on a fresh server: samples, registry snapshots
/// around the loop, the loop's wall time, and whether the final forest
/// matched the replay.
struct Pass {
    /// The instant sample times count from.
    origin: Instant,
    samples: Vec<Sample>,
    before: MetricsSnapshot,
    after: MetricsSnapshot,
    wall: Duration,
    state_ok: bool,
    peak_mib: f64,
}

impl Pass {
    fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64 + u64::from(!self.state_ok)
    }
    fn measured(&self) -> &[Sample] {
        &self.samples[(self.samples.len() as f64 * WARMUP_FRAC) as usize..]
    }
    /// Latency percentile `p` of each window of the measured requests.
    fn per_window(&self, p: f64) -> Vec<f64> {
        let measured = self.measured();
        measured
            .chunks(measured.len().div_ceil(WINDOWS).max(1))
            .map(|w| percentile(&w.iter().map(Sample::latency_ms).collect::<Vec<_>>(), p))
            .collect()
    }

    fn latency_ms(&self, p: f64) -> f64 {
        median(&self.per_window(p))
    }
}

fn run_pass(server: RcServe, tape: &Tape) -> Pass {
    let before = server.metrics();
    let origin = Instant::now() + Duration::from_millis(2);
    let samples = open_loop(&server, tape, origin);
    let last = samples.iter().map(|s| s.seen).max().unwrap_or(0);
    let wall = Duration::from_nanos(last.saturating_sub(tape.due_ns[0]).max(1));
    let peak_mib = peak_rss_mib();
    let after = server.metrics();
    let forest = server.shutdown();
    let state_ok = replay_matches(&tape.initial, &tape.ops, &forest);
    Pass {
        origin,
        samples,
        before,
        after,
        wall,
        state_ok,
        peak_mib,
    }
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let tape = Tape::new(N, args.seed, args.seconds);
    let updates = tape.ops.iter().filter(|op| op.is_update()).count();
    note!(
        "serve_open: n={N} requests={} updates={updates} rate={RATE}/s seed={}",
        tape.ops.len(),
        args.seed
    );

    let setup_span = tracer.open("setup", 0, ROOT);
    let mut setups = Vec::new();
    let mut server = None;
    for i in 0..SETUPS {
        if let Some((s, dir)) = server.take() {
            RcServe::shutdown(s);
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = store_dir(&i.to_string());
        let t0 = Instant::now();
        let (s, took) = start(&tape, &dir);
        tracer.record(
            "serve.start_durable",
            i as u64,
            setup_span,
            t0,
            Instant::now(),
            tape.initial.edges.len() as u64,
        );
        setups.push(took.as_secs_f64());
        server = Some((s, dir));
    }
    tracer.close(setup_span, 0);
    let (server, dir) = server.expect("started");

    let (lone, lone_failed) = lone_requests(&server, &tape);
    let pass = run_pass(server, &tape);
    let _ = std::fs::remove_dir_all(&dir);
    let late: Vec<f64> = pass.samples.iter().map(Sample::late_ms).collect();
    note!(
        "open loop: {} requests in {:.3} s, {} failed, final state {}; generator late p99 {:.3} ms, max {:.3} ms",
        pass.samples.len(),
        pass.wall.as_secs_f64(),
        pass.failed(),
        if pass.state_ok { "matches replay" } else { "DIFFERS from replay" },
        percentile(&late, 99.0),
        percentile(&late, 100.0)
    );
    note!(
        "per-window latency p50 (ms): {}",
        pass.per_window(50.0)
            .iter()
            .map(|x| format!("{x:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    out.attempted = (pass.samples.len() + lone.len()) as u64;
    out.failed = pass.failed() + lone_failed;

    if !tracer.enabled() {
        out.put("setup_s", median(&setups), "s");
        out.put(
            "ops_per_s",
            pass.samples.len() as f64 / pass.wall.as_secs_f64(),
            "1/s",
        );
        out.put("small_batch_p50_ms", median(&lone), "ms");
        out.put("peak_rss_mb", pass.peak_mib, "MiB");
        return out;
    }

    // The open-loop latencies follow the host's load too closely to bound
    // on a shared machine, so they are reported with the layers, from the
    // untraced pass.
    out.put("latency_p50_ms", pass.latency_ms(50.0), "ms");
    out.put("latency_p99_ms", pass.latency_ms(99.0), "ms");

    // Traced run: the same tape on a fresh server, spans recorded.
    let dir = store_dir("traced");
    let (server, _) = start(&tape, &dir);
    let traced = run_pass(server, &tape);
    let _ = std::fs::remove_dir_all(&dir);
    out.failed += traced.failed();
    record_spans(tracer, &traced);

    let submit: Vec<f64> = tracer
        .durations("serve.submit")
        .into_iter()
        .map(|ns| ns as f64)
        .collect();
    out.put("serve.submit_ns.p50", percentile(&submit, 50.0), "ns");
    out.put("serve.submit_ns.p99", percentile(&submit, 99.0), "ns");
    let measured = traced.measured();
    let latency_of = |update: bool| -> Vec<f64> {
        measured
            .iter()
            .filter(|s| s.update == update)
            .map(Sample::latency_ms)
            .collect()
    };
    out.put(
        "serve.latency.query_p50_ms",
        median(&latency_of(false)),
        "ms",
    );
    out.put(
        "serve.latency.update_p50_ms",
        median(&latency_of(true)),
        "ms",
    );
    let warm = &traced.samples[..traced.samples.len() - measured.len()];
    let warm_latency: Vec<f64> = warm.iter().map(Sample::latency_ms).collect();
    out.put("serve.warmup_p99_ms", percentile(&warm_latency, 99.0), "ms");
    let late: Vec<f64> = traced.samples.iter().map(Sample::late_ms).collect();
    out.put("loadgen.late_p99_ms", percentile(&late, 99.0), "ms");
    out.put("loadgen.late_max_ms", percentile(&late, 100.0), "ms");
    registry_metrics(&mut out, &traced);
    out.put(
        "bench.trace_overhead",
        traced.latency_ms(50.0) / pass.latency_ms(50.0) - 1.0,
        "ratio",
    );
    out.put(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    out
}

/// Spans for the traced pass: one per submit call and one per request
/// (due time to response seen), under one open-loop span.
fn record_spans(tracer: &mut Tracer, pass: &Pass) {
    let base = tracer.offset(pass.origin);
    let root = tracer.open("serve.open_loop", 0, ROOT);
    let mut spans = Vec::with_capacity(2 * pass.samples.len());
    for (i, s) in pass.samples.iter().enumerate() {
        let span = |name, start, end| Span {
            name,
            id: i as u64,
            parent: root,
            start_ns: base + start,
            end_ns: base + end,
            ops: 1,
        };
        spans.push(span("serve.submit", s.submit_start, s.submit_end));
        let name = if s.update {
            "serve.update"
        } else {
            "serve.query"
        };
        spans.push(span(name, s.due, s.seen));
    }
    tracer.extend(spans);
    tracer.close(root, pass.samples.len() as u64);
}

/// Registry counter or histogram `(count, sum)` accumulated during the
/// open loop; `None` when the name is not registered.
fn delta(pass: &Pass, name: &str) -> Option<(u64, u64)> {
    let read = |snap: &MetricsSnapshot| match snap.get(name)? {
        MetricValue::Counter(c) => Some((*c, 0)),
        MetricValue::Histogram(h) => Some((h.count, h.sum_ns)),
        MetricValue::Gauge(g) => Some((*g as u64, 0)),
    };
    let (c1, s1) = read(&pass.after)?;
    let (c0, s0) = read(&pass.before).unwrap_or((0, 0));
    Some((c1.saturating_sub(c0), s1.saturating_sub(s0)))
}

/// Serve, dispatch and store metrics, read by name from the registry
/// snapshots taken around the traced open loop. Names the registry does
/// not carry are listed as absent and reported as 0.
fn registry_metrics(out: &mut Outcome, pass: &Pass) {
    let wall = pass.wall.as_secs_f64();
    let get = |out: &mut Outcome, name: &str| -> (u64, u64) {
        delta(pass, name).unwrap_or_else(|| {
            out.absent.push(name.to_string());
            (0, 0)
        })
    };
    let (epochs, _) = get(out, "serve_epochs_total");
    let (requests, _) = get(out, "serve_requests_total");
    out.put("serve.epochs_per_s", epochs as f64 / wall, "1/s");
    out.put(
        "serve.epoch_ops_mean",
        requests as f64 / epochs.max(1) as f64,
        "count",
    );
    for (phase, metric) in [
        ("drain", "serve_phase_drain_ns"),
        ("admit", "serve_phase_admit_ns"),
        ("commit", "serve_phase_commit_ns"),
        ("wal", "serve_phase_wal_ns"),
        ("publish", "serve_phase_publish_ns"),
        ("handoff", "serve_handoff_ns"),
        ("backpressure", "serve_backpressure_ns"),
        ("query", "serve_phase_query_ns"),
        ("respond", "serve_phase_respond_ns"),
    ] {
        let (_, ns) = get(out, metric);
        out.put(
            format!("serve.phase.{phase}.busy_frac"),
            ns as f64 / 1e9 / wall,
            "ratio",
        );
    }

    // Dispatch decisions, summed over families, per engine.
    let dispatched = |engine: &str| -> Option<u64> {
        let label = format!("engine=\"{engine}\"");
        let names: Vec<&String> = pass
            .after
            .metrics
            .iter()
            .map(|(n, _)| n)
            .filter(|n| n.starts_with("serve_dispatch_total{") && n.contains(&label))
            .collect();
        (!names.is_empty()).then(|| {
            names
                .iter()
                .filter_map(|n| delta(pass, n))
                .map(|(c, _)| c)
                .sum()
        })
    };
    let engines = ["batched", "independent", "sequential"];
    let counts: Vec<Option<u64>> = engines.iter().map(|e| dispatched(e)).collect();
    let total: u64 = counts.iter().flatten().sum();
    for (engine, count) in engines.iter().zip(&counts) {
        if count.is_none() {
            out.absent
                .push(format!("serve_dispatch_total{{engine=\"{engine}\"}}"));
        }
        out.put(
            format!("serve.dispatch.{engine}_frac"),
            count.unwrap_or(0) as f64 / total.max(1) as f64,
            "ratio",
        );
    }

    let (updates, _) = get(out, "serve_updates_total");
    let (fsyncs, _) = get(out, "wal_fsyncs_total");
    out.put("store.fsyncs_per_s", fsyncs as f64 / wall, "1/s");
    let fsync = pass.after.histogram("wal_fsync_ns").unwrap_or_default();
    if pass.after.get("wal_fsync_ns").is_none() {
        out.absent.push("wal_fsync_ns".into());
    }
    out.put("store.fsync_us.p50", fsync.p50_ns as f64 / 1e3, "us");
    out.put("store.fsync_us.p99", fsync.p99_ns as f64 / 1e3, "us");
    let (bytes, _) = get(out, "store_append_bytes_total");
    out.put(
        "store.append_bytes_per_op",
        bytes as f64 / updates.max(1) as f64,
        "B/op",
    );
    let (compactions, _) = get(out, "store_compactions_total");
    out.put("store.compactions", compactions as f64, "count");
    let (_, compaction_ns) = get(out, "store_compaction_ns");
    out.put("store.compaction_ms", compaction_ns as f64 / 1e6, "ms");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_check_accepts_the_served_forest_and_rejects_a_corrupted_one() {
        let tape = Tape::new(2_000, 9, 0.05);
        let forest = tape
            .initial
            .build_std_forest(rc_core::BuildOptions::default())
            .unwrap();
        let server = RcServe::start(forest, ServeConfig::default());
        let client = server.client();
        let handles: Vec<_> = tape
            .ops
            .iter()
            .map(|op| {
                (
                    op.is_update(),
                    client.submit(Request::from_stream(op.clone())),
                )
            })
            .collect();
        for (update, h) in handles {
            assert!(answered_ok(update, &h.wait()));
        }
        let mut forest = server.shutdown();
        assert!(replay_matches(&tape.initial, &tape.ops, &forest));
        let (u, v, _) = tape.initial.edges[0];
        let _ = forest.batch_cut(&[(u, v)]);
        assert!(!replay_matches(&tape.initial, &tape.ops, &forest));
    }

    #[test]
    fn failed_or_refused_responses_count_as_failures() {
        assert!(!answered_ok(
            true,
            &Response::Updated(Err(rc_core::ForestError::SelfLoop { v: 1 }))
        ));
        assert!(!answered_ok(false, &Response::Rejected));
        assert!(!answered_ok(false, &Response::TimedOut));
        assert!(answered_ok(false, &Response::Bool(true)));
    }
}
