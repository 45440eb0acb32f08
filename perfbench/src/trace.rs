//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around each call it makes into a
//! layer of the program (a batch query, a forest build, an MSF insert, a
//! request submit), never from inside the program. Each span carries a
//! name, the id of the batch or request it belongs to, the index of its
//! parent span, start and end times relative to one process-wide origin,
//! and the number of operations it covered. Spans stay in memory and are
//! written out once, at the end of the run.

use std::io::Write;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub ops: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span log; disabled tracers record nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds of `t` since the tracer's origin.
    pub fn offset(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span; returns its index (or [`ROOT`] when off).
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: u32,
        start: Instant,
        end: Instant,
        ops: u64,
    ) -> u32 {
        if !self.on {
            return ROOT;
        }
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
            ops,
        });
        (self.spans.len() - 1) as u32
    }

    /// Open a span that is closed later with [`Tracer::close`] (for
    /// parents whose children are recorded first).
    pub fn open(&mut self, name: &'static str, id: u64, parent: u32) -> u32 {
        let now = Instant::now();
        self.record(name, id, parent, now, now, 0)
    }

    pub fn close(&mut self, idx: u32, ops: u64) {
        if let Some(s) = self.spans.get_mut(idx as usize) {
            s.end_ns = self.origin.elapsed().as_nanos() as u64;
            s.ops = ops;
        }
    }

    /// Append spans built outside [`Tracer::record`] (their parents
    /// must already be indices into this log).
    pub fn extend(&mut self, spans: Vec<Span>) {
        if self.on {
            self.spans.extend(spans);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Nanoseconds per operation over the spans `keep` selects (0 when
    /// they cover no operation).
    pub fn ns_per_op(&self, keep: impl Fn(&Span) -> bool) -> f64 {
        let (ns, ops) = self
            .spans
            .iter()
            .filter(|s| keep(s))
            .fold((0, 0), |(ns, ops), s| (ns + s.ns(), ops + s.ops));
        ns as f64 / ops.max(1) as f64
    }

    /// Durations of the spans called `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .collect()
    }

    /// Self time of every span: its duration minus the part of it that
    /// its children cover (children of one parent do not overlap here,
    /// except the concurrent serve spans, which are clamped).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child[s.parent as usize] += s.ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.ns().saturating_sub(c))
            .collect()
    }

    /// Write the log as tab-separated lines: index, parent, name, id,
    /// start, end, self time (ns) and ops. A header line comes first,
    /// `# key=value` lines with the run's environment before it.
    pub fn write_tsv(
        &self,
        path: &std::path::Path,
        env: &[(String, String)],
    ) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (k, v) in env {
            writeln!(out, "# {k}={v}")?;
        }
        writeln!(out, "idx\tparent\tname\tid\tstart_ns\tend_ns\tself_ns\tops")?;
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{self_ns}\t{}",
                s.name, s.id, s.start_ns, s.end_ns, s.ops
            )?;
        }
        out.flush()
    }
}
