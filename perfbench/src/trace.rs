//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around each call it makes into a
//! crate's public API; the program itself is not instrumented. A span has a
//! name (`<crate>.<call>`), a start and end on one monotonic clock, the
//! span that encloses it on the same thread, and a group (the trial seed
//! or request id) shared by every span of one unit of work. When tracing
//! is off, [`Tracer::span`] only tests a flag and runs the closure.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (starts at 1).
    pub id: u64,
    /// Enclosing span on the same thread, 0 for a root span.
    pub parent: u64,
    /// `<crate>.<call>`.
    pub name: &'static str,
    /// Unit of work the span belongs to.
    pub group: u64,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ms.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

thread_local! {
    /// Open spans of this thread: (id, group).
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// The recorder. Shared by reference across worker threads.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder that records only when `on`, with room for `capacity`
    /// spans before its buffer grows (growing copies the buffer under the
    /// lock, which stalls every recording thread).
    pub fn new(on: bool, capacity: usize) -> Self {
        let spans = Mutex::new(Vec::with_capacity(if on { capacity } else { 0 }));
        Tracer { on, epoch: Instant::now(), next_id: AtomicU64::new(1), spans }
    }

    /// Run `f` inside a root span of unit `group`.
    pub fn root<T>(&self, name: &'static str, group: u64, f: impl FnOnce() -> T) -> T {
        self.record(name, Some(group), f)
    }

    /// Run `f` inside a span nested in this thread's open span (inheriting
    /// its group).
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.record(name, None, f)
    }

    fn record<T>(&self, name: &'static str, group: Option<u64>, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (parent, group) = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let (parent, inherited) = open.last().copied().unwrap_or((0, 0));
            let group = group.unwrap_or(inherited);
            open.push((id, group));
            (parent, group)
        });
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        OPEN.with(|open| open.borrow_mut().pop());
        let span = Span { id, parent, name, group, start_ns, end_ns };
        self.spans.lock().expect("span buffer poisoned by a panicking recorder").push(span);
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned by a panicking recorder").clone()
    }
}

/// Self time of each span, ns: its duration minus the time its child
/// spans cover. Children of one span run on the parent's thread, one after
/// another, so their durations add up to the part of the parent they
/// cover.
fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end_ns - s.start_ns;
            dur - child_ns.get(&s.id).copied().unwrap_or(0).min(dur)
        })
        .collect()
}

/// Share of the time of the spans named `root` that their child spans
/// cover.
pub fn coverage(spans: &[Span], root: &str) -> f64 {
    let (mut total, mut uncovered) = (0u64, 0u64);
    for (s, own) in spans.iter().zip(self_ns(spans)) {
        if s.name == root {
            total += s.end_ns - s.start_ns;
            uncovered += own;
        }
    }
    if total == 0 {
        0.0
    } else {
        1.0 - uncovered as f64 / total as f64
    }
}

/// Write the spans as JSON lines, one per span, with self time.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, own) in spans.iter().zip(self_ns(spans)) {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"group\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
            s.id, s.parent, s.name, s.group, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true, 8);
        t.root("trial", 7, || {
            t.span("a", || std::thread::sleep(std::time::Duration::from_millis(2)));
            t.span("b", || std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.group == 7));
        let trial = spans.iter().position(|s| s.name == "trial").expect("root span recorded");
        let own = self_ns(&spans)[trial];
        assert!(own < spans[trial].end_ns - spans[trial].start_ns);
        assert!(coverage(&spans, "trial") > 0.5);
    }

    #[test]
    fn off_records_nothing() {
        let t = Tracer::new(false, 0);
        assert_eq!(t.root("trial", 1, || 5), 5);
        assert!(t.spans().is_empty());
    }
}
