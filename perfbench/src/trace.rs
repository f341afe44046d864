//! The benchmark's own span recorder, used only by the traced run.
//!
//! Spans are recorded in the benchmark's code around each call it makes
//! into a layer's public API — nothing inside the program is
//! instrumented. Each span carries its parent and the request id it
//! belongs to; spans are kept in memory and written out once, at exit.
//! A span's self time is its duration minus the part of it that its
//! child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Open synchronous spans of this thread: `(span id, request id)`.
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

/// One finished span. `parent == 0` marks a root.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn ns_since_epoch(t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(epoch()).as_nanos()).unwrap_or(u64::MAX)
}

/// Starts or stops recording.
pub fn set_enabled(on: bool) {
    epoch();
    ON.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// An open synchronous span; records itself when dropped.
pub struct Guard {
    id: u64,
    parent: u64,
    req: u64,
    name: &'static str,
    start: Instant,
}

impl Drop for Guard {
    fn drop(&mut self) {
        STACK.with(|s| s.borrow_mut().pop());
        push(Span {
            id: self.id,
            parent: self.parent,
            req: self.req,
            name: self.name,
            start_ns: ns_since_epoch(self.start),
            end_ns: ns_since_epoch(Instant::now()),
        });
    }
}

/// Opens a span nested in this thread's innermost open span. `req == 0`
/// inherits the enclosing span's request id. `None` while disabled.
pub fn span(name: &'static str, req: u64) -> Option<Guard> {
    if !enabled() {
        return None;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, req) = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let (parent, outer_req) = s.last().copied().unwrap_or((0, 0));
        let req = if req == 0 { outer_req } else { req };
        s.push((id, req));
        (parent, req)
    });
    Some(Guard {
        id,
        parent,
        req,
        name,
        start: Instant::now(),
    })
}

/// Runs `f` inside a span named `name`.
pub fn scoped<T>(name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
    let _g = span(name, req);
    f()
}

/// Records an already-finished span with an explicit parent — for
/// asynchronous work such as a socket request, which starts and ends on
/// different loop iterations. Returns its id (0 while disabled).
pub fn record(name: &'static str, req: u64, parent: u64, start: Instant, end: Instant) -> u64 {
    if !enabled() {
        return 0;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    push(Span {
        id,
        parent,
        req,
        name,
        start_ns: ns_since_epoch(start),
        end_ns: ns_since_epoch(end),
    });
    id
}

fn push(span: Span) {
    SPANS.lock().expect("span store poisoned").push(span);
}

/// Per-name totals: span count, total and self time in ns.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Aggregates spans by name, with self time = duration minus the union of
/// the child intervals clipped to the span.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Agg> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children.get_mut(&s.id).map_or(0, |kids| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            covered
        });
        let a = out.entry(s.name).or_default();
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += dur - covered.min(dur);
    }
    out
}

/// Takes every recorded span out of the store.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span store poisoned"))
}

/// Writes the spans and their per-name aggregates as one JSON document.
pub fn write(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut s = String::from("{\"self_time\": {");
    for (i, (name, a)) in aggregate(spans).iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"count\": {}, \"total_us\": {:.3}, \"self_us\": {:.3}}}",
            a.count,
            a.total_ns as f64 / 1e3,
            a.self_ns as f64 / 1e3
        );
    }
    s.push_str("},\n\"spans\": [\n");
    for (i, sp) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { ",\n" };
        let _ = write!(
            s,
            "{sep}{{\"id\": {}, \"parent\": {}, \"req\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            sp.id, sp.parent, sp.req, sp.name, sp.start_ns, sp.end_ns
        );
    }
    s.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let sp = |id, parent, name, start_ns, end_ns| Span {
            id,
            parent,
            req: 1,
            name,
            start_ns,
            end_ns,
        };
        // Parent 0..100 with overlapping children 10..40 and 30..50 and
        // one child sticking out past the parent's end.
        let spans = vec![
            sp(1, 0, "req", 0, 100),
            sp(2, 1, "a", 10, 40),
            sp(3, 1, "a", 30, 50),
            sp(4, 1, "b", 90, 120),
        ];
        let agg = aggregate(&spans);
        assert_eq!(agg["req"].total_ns, 100);
        assert_eq!(agg["req"].self_ns, 100 - 40 - 10);
        assert_eq!(agg["a"].count, 2);
        assert_eq!(agg["a"].self_ns, 50);
    }
}
