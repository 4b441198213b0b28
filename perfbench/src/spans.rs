//! The benchmark's own spans around each call into the program.
//!
//! Spans are kept in memory and written out once, as Chrome trace-event
//! JSON (open in `chrome://tracing` or Perfetto), when the run ends. A
//! disabled tracer still times the call — end-to-end metrics need the
//! duration — but records nothing.

use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Identifier of a recorded span; children name their parent with it.
pub type SpanId = usize;

/// Root parent for spans that no other span caused.
pub const ROOT: SpanId = 0;

#[derive(Debug, Clone)]
struct Span {
    id: SpanId,
    parent: SpanId,
    name: String,
    lane: String,
    start: Duration,
    dur: Duration,
}

/// Span sink shared by every thread of one process.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span called `name` on `lane`; returns its result
    /// and duration. The span's own id is passed to `f` so nested calls
    /// can name it as their parent.
    pub fn span<T>(
        &self,
        name: &str,
        lane: &str,
        parent: SpanId,
        f: impl FnOnce(SpanId) -> T,
    ) -> (T, Duration) {
        let id = if self.enabled { self.reserve() } else { ROOT };
        let start = Instant::now();
        let out = f(id);
        let dur = start.elapsed();
        if self.enabled {
            self.record(id, parent, name, lane, start, dur);
        }
        (out, dur)
    }

    /// Record a span measured elsewhere (e.g. a request timed from when
    /// it was due rather than from when it was sent).
    pub fn record_at(&self, name: &str, lane: &str, parent: SpanId, start: Instant, dur: Duration) {
        if self.enabled {
            let id = self.reserve();
            self.record(id, parent, name, lane, start, dur);
        }
    }

    fn reserve(&self) -> SpanId {
        let mut spans = self.lock();
        // Ids are reserved by pushing a placeholder so that nested spans,
        // which finish first, still get distinct ids.
        let id = spans.len() + 1;
        spans.push(Span {
            id,
            parent: ROOT,
            name: String::new(),
            lane: String::new(),
            start: Duration::ZERO,
            dur: Duration::ZERO,
        });
        id
    }

    fn record(
        &self,
        id: SpanId,
        parent: SpanId,
        name: &str,
        lane: &str,
        start: Instant,
        dur: Duration,
    ) {
        let span = Span {
            id,
            parent,
            name: name.to_string(),
            lane: lane.to_string(),
            start: start.saturating_duration_since(self.origin),
            dur,
        };
        self.lock()[id - 1] = span;
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        // A span list stays valid whatever a panicking holder did.
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Chrome trace-event JSON of every recorded span; `pid` separates
    /// the processes of one run when their files are concatenated.
    pub fn to_chrome_json(&self, pid: u32) -> String {
        let spans = self.lock();
        let mut lanes: Vec<&str> = Vec::new();
        let mut events = Vec::with_capacity(spans.len());
        for s in spans.iter().filter(|s| !s.name.is_empty()) {
            let tid = match lanes.iter().position(|l| *l == s.lane) {
                Some(i) => i,
                None => {
                    lanes.push(&s.lane);
                    lanes.len() - 1
                }
            };
            events.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"dur\":{},\
                 \"args\":{{\"id\":{},\"parent\":{}}}}}",
                s.name,
                s.start.as_micros(),
                s.dur.as_micros(),
                s.id,
                s.parent
            ));
        }
        for (tid, lane) in lanes.iter().enumerate() {
            events.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"name\":\"{lane}\"}}}}"
            ));
        }
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_name_their_parent() {
        let t = Tracer::new(true);
        let ((), outer) = t.span("outer", "main", ROOT, |id| {
            let ((), _) = t.span("inner", "main", id, |_| ());
        });
        let json = t.to_chrome_json(1);
        assert!(json.contains("\"name\":\"inner\""));
        assert!(json.contains("\"args\":{\"id\":2,\"parent\":1}"));
        assert!(json.contains(&format!("\"dur\":{}", outer.as_micros())));
    }

    #[test]
    fn a_disabled_tracer_times_but_records_nothing() {
        let t = Tracer::new(false);
        let (v, _) = t.span("x", "main", ROOT, |_| 7);
        assert_eq!(v, 7);
        assert!(!t.to_chrome_json(1).contains("\"X\""));
    }
}
