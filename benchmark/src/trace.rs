//! The span recorder of the traced run.
//!
//! Spans are kept in memory and written as JSON lines when the round ends.
//! Every span is recorded around a real call made from this package — no
//! crate under test carries a span, counter or flag for it (in-program
//! tracing is a later change and must reuse these names).

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval. `parent == 0` marks a root; spans of one request
/// share `request`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub request: u32,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// An append-only span buffer with its own clock origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Microseconds since the tracer was created.
    pub fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Record a finished span; returns its id (ids start at 1).
    pub fn record(
        &mut self,
        parent: u32,
        request: u32,
        name: &'static str,
        start_us: f64,
        end_us: f64,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_us,
            end_us,
        });
        id
    }

    /// Time `f` as a span under `parent`; returns `f`'s result, the span id
    /// and the span's duration in microseconds.
    pub fn time<R>(
        &mut self,
        parent: u32,
        request: u32,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, u32, f64) {
        let start = self.now_us();
        let result = std::hint::black_box(f());
        let end = self.now_us();
        (
            result,
            self.record(parent, request, name, start, end),
            end - start,
        )
    }

    /// Open a span whose children are recorded before it ends; finish it
    /// with [`Tracer::close`].
    pub fn open(&mut self, parent: u32, request: u32, name: &'static str) -> u32 {
        let now = self.now_us();
        self.record(parent, request, name, now, now)
    }

    /// End the span `id` now.
    pub fn close(&mut self, id: u32) {
        let now = self.now_us();
        if let Some(span) = self.spans.get_mut(id as usize - 1) {
            span.end_us = now;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.id, s.parent, s.request, s.name, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the durations of its direct
/// children, floored at 0. Children are matched by `parent` id; a child
/// measured by calling a layer's public function directly right after the
/// call that contains it (the only way to see inside a crate that carries
/// no spans) is a child by id, not by timestamp containment.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::duration_us).collect();
    for span in spans {
        if span.parent != 0 {
            if let Some(parent) = own.get_mut(span.parent as usize - 1) {
                *parent -= span.duration_us();
            }
        }
    }
    own.iter_mut().for_each(|v| *v = v.max(0.0));
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut tracer = Tracer::with_capacity(8);
        let root = tracer.record(0, 1, "request", 0.0, 100.0);
        let wait = tracer.record(root, 1, "harness.wait_reply", 10.0, 90.0);
        tracer.record(root, 1, "harness.write", 0.0, 10.0);
        // A grandchild shortens its parent's self time, not the root's.
        tracer.record(wait, 1, "service.session.handle_line", 20.0, 70.0);
        // A child measured longer than its parent floors at zero.
        let tiny = tracer.record(0, 2, "request", 0.0, 5.0);
        tracer.record(tiny, 2, "core.solver.solve", 0.0, 8.0);
        let own = self_times_us(tracer.spans());
        assert_eq!(own, vec![10.0, 30.0, 10.0, 50.0, 0.0, 8.0]);
    }

    #[test]
    fn time_records_a_span_around_the_call() {
        let mut tracer = Tracer::with_capacity(1);
        let (value, id, micros) = tracer.time(0, 7, "probe", || 41 + 1);
        assert_eq!((value, id), (42, 1));
        let span = &tracer.spans()[0];
        assert_eq!((span.request, span.name), (7, "probe"));
        assert!(micros >= 0.0 && (span.duration_us() - micros).abs() < 1e-9);
    }
}
