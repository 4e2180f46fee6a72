//! Trace sinks: null (free), ring (post-mortem), JSONL (streaming).

use crate::event::SimEvent;
use std::io::{BufWriter, Write};

/// Buffer size for [`JsonlTracer`] output. Big enough that a traced
/// simulation pays one syscall per tens of thousands of events, not one
/// per event.
const JSONL_BUF_BYTES: usize = 64 * 1024;

/// A sink for [`SimEvent`]s.
///
/// Call sites must guard event construction with [`enabled`]:
///
/// ```
/// use twobit_obs::{NullTracer, SimEvent, Tracer, ActorId};
/// use twobit_types::BlockAddr;
/// let mut tracer = NullTracer;
/// if tracer.enabled() {
///     // Never reached for NullTracer: the String for `cmd` is not even
///     // allocated, which is what keeps the default path zero-cost.
///     tracer.record(SimEvent::new(0, ActorId::Network, BlockAddr::new(0), "x"));
/// }
/// ```
///
/// [`enabled`]: Tracer::enabled
///
/// The `Debug` supertrait lets simulators hold a `Box<dyn Tracer>` while
/// still deriving `Debug` themselves.
pub trait Tracer: std::fmt::Debug {
    /// Whether events should be constructed and recorded at all.
    fn enabled(&self) -> bool {
        true
    }

    /// Records one event.
    fn record(&mut self, ev: SimEvent);

    /// Flushes any buffered output (JSONL sink).
    fn flush(&mut self) {}
}

/// The zero-cost default: [`Tracer::enabled`] is `false`, so guarded call
/// sites skip event construction entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullTracer;

impl Tracer for NullTracer {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _ev: SimEvent) {}
}

/// A bounded ring buffer keeping the most recent events, for dumping when
/// an invariant violation or deadlock is detected: the interesting steps
/// are always the last few before the failure.
#[derive(Debug, Clone)]
pub struct RingTracer {
    buf: Vec<SimEvent>,
    cap: usize,
    next: usize,
    total: u64,
}

impl RingTracer {
    /// A ring holding at most `cap` events.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "ring tracer capacity must be positive");
        RingTracer {
            buf: Vec::with_capacity(cap),
            cap,
            next: 0,
            total: 0,
        }
    }

    /// Events currently retained, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<&SimEvent> {
        if self.buf.len() < self.cap {
            self.buf.iter().collect()
        } else {
            self.buf[self.next..]
                .iter()
                .chain(self.buf[..self.next].iter())
                .collect()
        }
    }

    /// Number of events currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Renders the retained events as a post-mortem dump, one line each.
    #[must_use]
    pub fn dump(&self) -> String {
        let mut out = String::new();
        let events = self.events();
        let dropped = self.total - events.len() as u64;
        if dropped > 0 {
            out.push_str(&format!("... {dropped} earlier events overwritten ...\n"));
        }
        for ev in events {
            out.push_str(&format!(
                "t={:<8} {:<5} {:<12} {}{}\n",
                ev.t,
                ev.actor.to_string(),
                ev.block.to_string(),
                ev.cmd,
                if ev.useless { "  (useless)" } else { "" }
            ));
        }
        out
    }
}

impl Tracer for RingTracer {
    fn record(&mut self, ev: SimEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.next] = ev;
        }
        self.next = (self.next + 1) % self.cap;
        self.total += 1;
    }
}

/// Streams events as JSON Lines to a writer.
///
/// Writes are buffered internally (and flushed on drop), so the per-event
/// cost is a memory copy — the syscall happens once per 64 KiB, not once
/// per event. Callers that need the bytes before drop use
/// [`Tracer::flush`] or [`JsonlTracer::into_inner`].
#[derive(Debug)]
pub struct JsonlTracer<W: Write + std::fmt::Debug> {
    /// `None` only transiently inside `into_inner`.
    w: Option<BufWriter<W>>,
}

impl<W: Write + std::fmt::Debug> JsonlTracer<W> {
    /// A tracer writing to `w`.
    pub fn new(w: W) -> Self {
        JsonlTracer {
            w: Some(BufWriter::with_capacity(JSONL_BUF_BYTES, w)),
        }
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(mut self) -> W {
        let mut buf = self.w.take().expect("writer present until consumed");
        let _ = buf.flush();
        buf.into_parts().0
    }
}

impl<W: Write + std::fmt::Debug> Tracer for JsonlTracer<W> {
    fn record(&mut self, ev: SimEvent) {
        // Trace I/O errors must not abort a simulation; a short trace is
        // better than a crashed run, so errors are swallowed here.
        let Some(w) = self.w.as_mut() else { return };
        let _ = writeln!(w, "{}", ev.to_jsonl());
    }

    fn flush(&mut self) {
        if let Some(w) = self.w.as_mut() {
            let _ = w.flush();
        }
    }
}

impl<W: Write + std::fmt::Debug> Drop for JsonlTracer<W> {
    fn drop(&mut self) {
        if let Some(w) = self.w.as_mut() {
            let _ = w.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ActorId;
    use twobit_types::BlockAddr;

    fn ev(t: u64) -> SimEvent {
        SimEvent::new(t, ActorId::Network, BlockAddr::new(t), format!("e{t}"))
    }

    #[test]
    fn null_tracer_is_disabled() {
        let t = NullTracer;
        assert!(!t.enabled());
    }

    #[test]
    fn ring_keeps_order_before_wrap() {
        let mut r = RingTracer::new(4);
        for t in 0..3 {
            r.record(ev(t));
        }
        let ts: Vec<u64> = r.events().iter().map(|e| e.t).collect();
        assert_eq!(ts, vec![0, 1, 2]);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn ring_wraparound_keeps_newest() {
        let mut r = RingTracer::new(4);
        for t in 0..10 {
            r.record(ev(t));
        }
        let ts: Vec<u64> = r.events().iter().map(|e| e.t).collect();
        assert_eq!(ts, vec![6, 7, 8, 9], "oldest-first, newest retained");
        assert_eq!(r.len(), 4);
        assert!(r.dump().contains("6 earlier events overwritten"));
    }

    #[test]
    fn ring_exact_capacity_boundary() {
        let mut r = RingTracer::new(3);
        for t in 0..3 {
            r.record(ev(t));
        }
        let ts: Vec<u64> = r.events().iter().map(|e| e.t).collect();
        assert_eq!(ts, vec![0, 1, 2]);
        r.record(ev(3));
        let ts: Vec<u64> = r.events().iter().map(|e| e.t).collect();
        assert_eq!(ts, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn ring_rejects_zero_capacity() {
        let _ = RingTracer::new(0);
    }

    /// A writer with externally observable bytes, for asserting when the
    /// buffered tracer actually reaches the sink.
    #[derive(Debug, Clone, Default)]
    struct SharedSink(std::rc::Rc<std::cell::RefCell<Vec<u8>>>);

    impl Write for SharedSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.borrow_mut().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_buffers_writes_until_flush() {
        let sink = SharedSink::default();
        let mut t = JsonlTracer::new(sink.clone());
        t.record(ev(1));
        assert!(
            sink.0.borrow().is_empty(),
            "one small event must sit in the buffer, not hit the sink"
        );
        t.flush();
        assert!(!sink.0.borrow().is_empty(), "flush drains the buffer");
    }

    #[test]
    fn jsonl_flushes_on_drop() {
        let sink = SharedSink::default();
        {
            let mut t = JsonlTracer::new(sink.clone());
            t.record(ev(7));
            assert!(sink.0.borrow().is_empty(), "still buffered");
        }
        let text = String::from_utf8(sink.0.borrow().clone()).unwrap();
        let parsed = SimEvent::from_jsonl(text.trim()).expect("valid line");
        assert_eq!(parsed, ev(7), "drop flushed the complete event");
    }

    #[test]
    fn jsonl_streams_and_roundtrips() {
        let mut t = JsonlTracer::new(Vec::new());
        for i in 0..5 {
            t.record(ev(i));
        }
        let bytes = t.into_inner();
        let text = String::from_utf8(bytes).unwrap();
        let parsed: Vec<SimEvent> = text
            .lines()
            .map(|l| SimEvent::from_jsonl(l).expect("valid line"))
            .collect();
        assert_eq!(parsed.len(), 5);
        for (i, p) in parsed.iter().enumerate() {
            assert_eq!(*p, ev(i as u64));
        }
    }
}
