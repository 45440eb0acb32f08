//! Requests, responses and the oneshot response handle.

use crate::agg::PathSummary;
use rc_core::ForestError;
use rc_gen::StreamOp;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// One single-shot operation submitted to the coalescer.
///
/// Update requests answer [`Response::Updated`] with the same
/// [`ForestError`] contract as the underlying batch calls, evaluated
/// against the serialized in-epoch state in submission order (documented
/// check order for `Link`: range of `u`, range of `v`, self-loop,
/// duplicate edge, degree of `u`, degree of `v`, cycle). Query requests
/// answer the uniform `None` contract of `rc_core::queries`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Insert edge `{u, v}` with weight `w`.
    Link { u: u32, v: u32, w: u64 },
    /// Delete edge `{u, v}`.
    Cut { u: u32, v: u32 },
    /// Set the weight of existing edge `{u, v}`.
    UpdateEdgeWeight { u: u32, v: u32, w: u64 },
    /// Set the additive weight of vertex `v` (mark bit unchanged).
    UpdateVertexWeight { v: u32, w: u64 },
    /// Mark vertex `v` for nearest-marked queries (weight unchanged).
    Mark { v: u32 },
    /// Unmark vertex `v`.
    Unmark { v: u32 },
    /// Are `u` and `v` in the same tree?
    Connected { u: u32, v: u32 },
    /// Component representative of `v` (stable between structural epochs).
    Representative { v: u32 },
    /// Sum of edge weights on the `u..v` path.
    PathSum { u: u32, v: u32 },
    /// Sum of edge + vertex weights in the subtree at `v` away from
    /// neighbor `parent`.
    SubtreeSum { v: u32, parent: u32 },
    /// LCA of `u` and `v` with respect to root `r`.
    Lca { u: u32, v: u32, r: u32 },
    /// Lightest + heaviest edge on the `u..v` path.
    Bottleneck { u: u32, v: u32 },
    /// Nearest marked vertex to `v` as `(distance, vertex)`.
    NearestMarked { v: u32 },
    /// Compressed path tree over `terminals`.
    Cpt { terminals: Vec<u32> },
    /// Dump the server's telemetry — metrics snapshot + flight-recorder
    /// traces — through the normal request path. Answered at the drain
    /// boundary of the epoch that picks it up (so the dump is consistent
    /// with a committed prefix); answers [`Response::Telemetry`].
    /// [`answer_read_only`](crate::answer_read_only) answers it
    /// [`Response::Rejected`].
    DumpTelemetry,
}

impl Request {
    /// Is this a mutating request (update phase) vs a read (query phase)?
    pub fn is_update(&self) -> bool {
        matches!(
            self,
            Request::Link { .. }
                | Request::Cut { .. }
                | Request::UpdateEdgeWeight { .. }
                | Request::UpdateVertexWeight { .. }
                | Request::Mark { .. }
                | Request::Unmark { .. }
        )
    }

    /// Short static name of this request kind, used as the `kind` label
    /// on per-request traces ([`crate::RequestTrace`]).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Request::Link { .. } => "link",
            Request::Cut { .. } => "cut",
            Request::UpdateEdgeWeight { .. } => "update_edge_weight",
            Request::UpdateVertexWeight { .. } => "update_vertex_weight",
            Request::Mark { .. } => "mark",
            Request::Unmark { .. } => "unmark",
            Request::Connected { .. } => "connected",
            Request::Representative { .. } => "representative",
            Request::PathSum { .. } => "path_sum",
            Request::SubtreeSum { .. } => "subtree_sum",
            Request::Lca { .. } => "lca",
            Request::Bottleneck { .. } => "bottleneck",
            Request::NearestMarked { .. } => "nearest_marked",
            Request::Cpt { .. } => "cpt",
            Request::DumpTelemetry => "dump_telemetry",
        }
    }

    /// Translate a generated [`StreamOp`] (the `rc-gen` request stream)
    /// into a serve request.
    pub fn from_stream(op: StreamOp) -> Request {
        match op {
            StreamOp::Link { u, v, w } => Request::Link { u, v, w },
            StreamOp::Cut { u, v } => Request::Cut { u, v },
            StreamOp::UpdateEdgeWeight { u, v, w } => Request::UpdateEdgeWeight { u, v, w },
            StreamOp::UpdateVertexWeight { v, w } => Request::UpdateVertexWeight { v, w },
            StreamOp::Mark { v } => Request::Mark { v },
            StreamOp::Unmark { v } => Request::Unmark { v },
            StreamOp::Connected { u, v } => Request::Connected { u, v },
            StreamOp::Representative { v } => Request::Representative { v },
            StreamOp::PathSum { u, v } => Request::PathSum { u, v },
            StreamOp::SubtreeSum { v, parent } => Request::SubtreeSum { v, parent },
            StreamOp::Lca { u, v, r } => Request::Lca { u, v, r },
            StreamOp::Bottleneck { u, v } => Request::Bottleneck { u, v },
            StreamOp::NearestMarked { v } => Request::NearestMarked { v },
            StreamOp::Cpt { terminals } => Request::Cpt { terminals },
        }
    }
}

/// A compressed path tree, by value: original vertex ids plus edges
/// carrying the exact [`PathSummary`] of the contracted path.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct CptResult {
    /// Original vertex ids present in the compressed tree.
    pub vertices: Vec<u32>,
    /// Edges with the product path value of the original path.
    pub edges: Vec<(u32, u32, PathSummary)>,
}

/// The answer to one [`Request`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Outcome of an update request.
    Updated(Result<(), ForestError>),
    /// `Connected`.
    Bool(bool),
    /// `Representative` / `Lca` (`None`: out of range / disconnected).
    Vertex(Option<u32>),
    /// `PathSum` / `SubtreeSum` (`None` per the uniform contract).
    Sum(Option<u64>),
    /// `Bottleneck`: `None` when disconnected or out of range; the
    /// summary's `min`/`max` are `None` on the empty (self) path.
    Extrema(Option<PathSummary>),
    /// `NearestMarked`.
    Near(Option<(u64, u32)>),
    /// `Cpt`.
    Cpt(CptResult),
    /// `DumpTelemetry` (boxed: dumps are much larger than every other
    /// response).
    Telemetry(Box<crate::telemetry::TelemetryDump>),
    /// The server is shutting down; the request was not executed.
    Rejected,
    /// The client-side deadline (`ServeClient::with_deadline`) expired
    /// before the response arrived. The request itself may still commit
    /// server-side — the deadline bounds *waiting*, not execution.
    TimedOut,
}

/// Internal oneshot slot.
#[derive(Default)]
pub(crate) struct Slot {
    state: Mutex<Option<Response>>,
    cv: Condvar,
}

impl Slot {
    pub(crate) fn fill(&self, r: Response) {
        let mut g = self.state.lock().unwrap_or_else(|e| e.into_inner());
        debug_assert!(g.is_none(), "response slot filled twice");
        *g = Some(r);
        self.cv.notify_all();
    }
}

/// A future-style handle to one in-flight request (no async runtime:
/// std `Mutex` + `Condvar`). Obtained from `ServeClient::submit`.
pub struct ResponseHandle {
    pub(crate) slot: Arc<Slot>,
    /// Per-request deadline sealed at submit time (from
    /// `ServeClient::with_deadline`): [`ResponseHandle::wait`] resolves
    /// to [`Response::TimedOut`] once it expires.
    pub(crate) deadline: Option<Duration>,
}

impl ResponseHandle {
    /// Block until the response arrives — or, when the submitting client
    /// carried a deadline, until it expires, resolving to
    /// [`Response::TimedOut`] instead of blocking forever on a wedged
    /// or dead worker. The slot is left unfilled on timeout; a late
    /// server-side fill lands in the abandoned slot and is dropped with
    /// it.
    pub fn wait(self) -> Response {
        if let Some(deadline) = self.deadline {
            return match self.wait_timeout(deadline) {
                Some(r) => r,
                None => Response::TimedOut,
            };
        }
        let mut g = self.slot.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(r) = g.take() {
                return r;
            }
            g = self.slot.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Non-blocking poll; consumes the response when ready.
    pub fn try_take(&self) -> Option<Response> {
        self.slot
            .state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
    }

    /// Block up to `timeout`; `None` on timeout.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Response> {
        let deadline = std::time::Instant::now() + timeout;
        let mut g = self.slot.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(r) = g.take() {
                return Some(r);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            let (g2, _) = self
                .slot
                .cv
                .wait_timeout(g, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            g = g2;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oneshot_roundtrip() {
        let slot = Arc::new(Slot::default());
        let h = ResponseHandle {
            slot: slot.clone(),
            deadline: None,
        };
        assert!(h.try_take().is_none());
        assert_eq!(h.wait_timeout(Duration::from_millis(1)), None);
        let t = std::thread::spawn(move || slot.fill(Response::Bool(true)));
        assert_eq!(h.wait(), Response::Bool(true));
        t.join().unwrap();
    }

    #[test]
    fn deadline_wait_times_out_on_unfilled_slot() {
        let slot = Arc::new(Slot::default());
        let h = ResponseHandle {
            slot,
            deadline: Some(Duration::from_millis(5)),
        };
        assert_eq!(h.wait(), Response::TimedOut);
    }

    #[test]
    fn stream_translation_covers_all_ops() {
        let op = StreamOp::Lca { u: 1, v: 2, r: 3 };
        assert_eq!(Request::from_stream(op), Request::Lca { u: 1, v: 2, r: 3 });
        assert!(Request::from_stream(StreamOp::Link { u: 0, v: 1, w: 5 }).is_update());
        assert!(!Request::from_stream(StreamOp::Connected { u: 0, v: 1 }).is_update());
    }
}
