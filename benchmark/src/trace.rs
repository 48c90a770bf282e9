//! Benchmark-side spans: recorded around the calls into each layer, kept in
//! a per-thread buffer allocated before the run, written out at exit.
//!
//! One op is one root span (`Span::Op`); the spans recorded while it ran are
//! its children and carry its id.  Children never nest, so a child's self
//! time is its duration and the op's self time is what no child covers.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::spec::SPANS;

/// Span names, as indices into [`SPANS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    Op = 0,
    Reserve,
    Call,
    Query,
    Release,
    ClusterOpen,
    RemoteCall,
    RemoteQuery,
    ClusterClose,
    Compute,
    Communicate,
}

#[derive(Debug, Clone, Copy)]
struct Span {
    kind: u8,
    op: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Spans kept per client thread of a traced trial: `bank_transfer` records
/// 245 k a second per client, 1.1 M in the 4.5 s traced window of a default
/// run.
const CAPACITY: usize = 3 << 19;
/// Spans per thread written to the Chrome trace (the summary uses all).
const WRITTEN_PER_THREAD: usize = 20_000;

/// One client thread's span buffer.  Untraced, it records nothing and every
/// method is a branch on a flag that stays false.
pub struct Tracer {
    epoch: Instant,
    traced: bool,
    active: bool,
    spans: Vec<Span>,
    op: u64,
    op_first_span: usize,
    op_start_ns: u64,
    dropped: u64,
}

impl Tracer {
    /// A tracer for one client thread; with `traced` false it has no buffer
    /// and can never be made active.
    pub fn new(epoch: Instant, traced: bool) -> Tracer {
        let filler = Span {
            kind: 0,
            op: 0,
            start_ns: 1,
            end_ns: 1,
        };
        // Written once so the pages are mapped before the measured window.
        let mut spans = vec![filler; if traced { CAPACITY } else { 0 }];
        spans.clear();
        Tracer {
            epoch,
            traced,
            active: false,
            spans,
            op: 0,
            op_first_span: 0,
            op_start_ns: 0,
            dropped: 0,
        }
    }

    /// Spans are kept only while active (the measured window).
    pub fn set_active(&mut self, active: bool) {
        self.active = active && self.traced;
    }

    /// When the current op began: the start of its first child span.
    #[inline]
    pub fn op_start(&self) -> u64 {
        if self.active {
            self.op_start_ns
        } else {
            0
        }
    }

    /// Records `kind` from `start` until now and returns now, so that the
    /// next span can start where this one ended without reading the clock
    /// again (a read costs 30 ns here, a `bank_transfer` op 5 µs).
    #[inline]
    pub fn span(&mut self, kind: SpanKind, start: u64) -> u64 {
        if !self.active {
            return 0;
        }
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.push(kind, start, end);
        end
    }

    /// Records a span of known length placed at `offset_ns` into the current
    /// op, for layers that report a duration instead of letting themselves be
    /// bracketed.
    pub fn span_within_op(&mut self, kind: SpanKind, offset_ns: u64, length_ns: u64) {
        if self.active {
            let start = self.op_start_ns + offset_ns;
            self.push(kind, start, start + length_ns);
        }
    }

    fn push(&mut self, kind: SpanKind, start_ns: u64, end_ns: u64) {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return;
        }
        self.spans.push(Span {
            kind: kind as u8,
            op: self.op,
            start_ns,
            end_ns,
        });
    }

    pub fn begin_op(&mut self) {
        if self.active {
            self.op += 1;
            self.op_first_span = self.spans.len();
            self.op_start_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Closes the current op with its root span, or forgets its children when
    /// the op does not count (it straddled the end of the window).
    pub fn end_op(&mut self, keep: bool) {
        if !self.active {
            return;
        }
        if keep {
            let end = self.epoch.elapsed().as_nanos() as u64;
            self.push(SpanKind::Op, self.op_start_ns, end);
        } else {
            self.spans.truncate(self.op_first_span);
        }
    }
}

/// Per span name: count and total microseconds; plus the residual.
pub struct Summary {
    pub count: [f64; SPANS.len()],
    pub total_us: [f64; SPANS.len()],
    pub dropped: u64,
}

impl Summary {
    pub fn of(tracers: &[Tracer]) -> Summary {
        let mut summary = Summary {
            count: [0.0; SPANS.len()],
            total_us: [0.0; SPANS.len()],
            dropped: 0,
        };
        for tracer in tracers {
            summary.dropped += tracer.dropped;
            for span in &tracer.spans {
                summary.count[span.kind as usize] += 1.0;
                summary.total_us[span.kind as usize] += (span.end_ns - span.start_ns) as f64 / 1e3;
            }
        }
        summary
    }

    /// Share of op time spent in span `kind`.
    pub fn share_of_op(&self, kind: usize) -> f64 {
        let op_us = self.total_us[SpanKind::Op as usize];
        if op_us > 0.0 {
            self.total_us[kind] / op_us
        } else {
            0.0
        }
    }

    /// Share of op time no child span covers: the op's own self time.
    pub fn residual_share(&self) -> f64 {
        let covered: f64 = (1..SPANS.len()).map(|k| self.share_of_op(k)).sum();
        1.0 - covered
    }
}

/// Writes the first spans of every thread as Chrome `trace_event` JSON
/// (complete events, `ts`/`dur` in microseconds, `tid` = client index).
pub fn write_chrome(path: &Path, tracers: &[Tracer]) -> std::io::Result<()> {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    let mut first = true;
    for (tid, tracer) in tracers.iter().enumerate() {
        for span in tracer.spans.iter().take(WRITTEN_PER_THREAD) {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let name = SPANS[span.kind as usize];
            let cat = name.split('.').next().unwrap_or(name);
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{}}}}}",
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                span.op,
            );
        }
    }
    out.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_and_residual_sum_to_the_op() {
        let mut tracer = Tracer::new(Instant::now(), true);
        tracer.set_active(true);
        tracer.begin_op();
        tracer.span_within_op(SpanKind::Reserve, 0, 2_000);
        tracer.span_within_op(SpanKind::Query, 2_000, 6_000);
        tracer.push(
            SpanKind::Op,
            tracer.op_start_ns,
            tracer.op_start_ns + 10_000,
        );
        // An op that does not count leaves nothing behind.
        tracer.begin_op();
        tracer.span_within_op(SpanKind::Call, 0, 1_000);
        tracer.end_op(false);

        let summary = Summary::of(&[tracer]);
        assert_eq!(summary.count[SpanKind::Op as usize], 1.0);
        assert_eq!(summary.count[SpanKind::Call as usize], 0.0);
        assert!((summary.share_of_op(SpanKind::Query as usize) - 0.6).abs() < 1e-9);
        assert!((summary.residual_share() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn an_untraced_tracer_records_nothing() {
        let mut tracer = Tracer::new(Instant::now(), false);
        tracer.set_active(true);
        tracer.begin_op();
        let start = tracer.op_start();
        let end = tracer.span(SpanKind::Query, start);
        tracer.end_op(true);
        assert_eq!((start, end), (0, 0));
        assert!(tracer.spans.is_empty());
    }
}
