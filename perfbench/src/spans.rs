//! The benchmark's own spans: one per call it makes into a layer, kept
//! in memory per thread and written out when the run ends.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique across every recorder of a run.
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// Layer call, e.g. `http.post_lines`.
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Recording thread (the load thread's index).
    pub thread: u32,
}

/// An open span; hand it back to [`Recorder::end`].
#[must_use]
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    /// This span's id, the parent of the spans it causes.
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// A per-thread span recorder. A disabled recorder reads no clock and
/// keeps nothing, so untraced runs pay one branch per call site.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    thread: u32,
    next: u64,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder for load thread `thread`; ids are unique per thread.
    pub fn new(enabled: bool, epoch: Instant, thread: u32) -> Recorder {
        Recorder {
            enabled,
            epoch,
            thread,
            next: 1,
            spans: Vec::new(),
        }
    }

    /// Opens span `name` under `parent` (0 = root).
    pub fn begin(&mut self, name: &'static str, parent: u64) -> Open {
        if !self.enabled {
            return Open {
                id: 0,
                parent,
                name,
                start_ns: 0,
            };
        }
        let id = (u64::from(self.thread) + 1) << 40 | self.next;
        self.next += 1;
        Open {
            id,
            parent,
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
        }
    }

    /// Closes `open`.
    pub fn end(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_ns: open.start_ns,
            end_ns: self.epoch.elapsed().as_nanos() as u64,
            thread: self.thread,
        });
    }

    /// Runs `f` inside span `name`.
    pub fn span<R>(&mut self, name: &'static str, parent: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, parent);
        let out = f();
        self.end(open);
        out
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name totals of a set of spans.
#[derive(Clone, Debug, Default)]
pub struct SpanSummary {
    /// Spans of this name.
    pub count: usize,
    /// Median duration, µs.
    pub p50_us: f64,
    /// Median self time (duration minus the time its children cover), µs.
    pub self_p50_us: f64,
}

/// Summarises spans by name; self time subtracts each span's children.
pub fn summarise(spans: &[Span]) -> BTreeMap<&'static str, SpanSummary> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let entry = by_name.entry(s.name).or_default();
        entry.0.push(dur as f64 / 1e3);
        entry.1.push(own as f64 / 1e3);
    }
    by_name
        .into_iter()
        .map(|(name, (dur, own))| {
            (
                name,
                SpanSummary {
                    count: dur.len(),
                    p50_us: crate::stats::median(&dur),
                    self_p50_us: crate::stats::median(&own),
                },
            )
        })
        .collect()
}

/// Chrome trace-event JSON of `spans` (complete events, µs), loadable in
/// `chrome://tracing` or Perfetto. Span and parent ids ride in `args`.
pub fn chrome_json(spans: &[Span]) -> String {
    let events: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                s.name,
                s.thread,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                s.parent
            )
        })
        .collect();
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}
