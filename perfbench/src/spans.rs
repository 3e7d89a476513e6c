//! An in-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer: name, start, end, and the span that caused them. They stay in
//! memory until the run ends and are then written out as JSON lines. A
//! span's self time is its duration minus the part of that interval its
//! child spans cover.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use pud_observe::json::JsonObject;

/// One finished span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id (ids start at 1; 0 is "no parent").
    pub id: u64,
    /// Causing span, 0 for a root.
    pub parent: u64,
    /// Layer boundary name (`driver.table2`, `serve.request`, ...).
    pub name: String,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

/// Records spans when enabled; a disabled recorder records nothing.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reserves a span id, so children can name their parent before the
    /// parent ends. Returns 0 when disabled.
    pub fn id(&self) -> u64 {
        if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Records a finished span under a reserved `id`.
    pub fn record(&self, id: u64, parent: u64, name: &str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            name: name.to_string(),
            start_ns: ns(start),
            end_ns: ns(end),
        };
        self.spans.lock().expect("span list lock").push(span);
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives the
    /// span's id to pass to its children.
    pub fn scope<T>(&self, parent: u64, name: &str, f: impl FnOnce(u64) -> T) -> T {
        let id = self.id();
        let start = Instant::now();
        let out = f(id);
        self.record(id, parent, name, start, Instant::now());
        out
    }

    /// All spans recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("span list lock").clone();
        v.sort_by_key(|s| s.id);
        v
    }
}

/// Self time per span name: each span's duration minus the union of its
/// children's intervals (clipped to the span), summed over spans of that
/// name.
pub fn self_ns_by_name(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let mut iv: Vec<(u64, u64)> = children
            .get(&s.id)
            .map(|c| {
                c.iter()
                    .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                    .filter(|(a, b)| a < b)
                    .collect()
            })
            .unwrap_or_default();
        iv.sort_unstable();
        let mut covered = 0u64;
        let mut cur: Option<(u64, u64)> = None;
        for (a, b) in iv {
            match cur {
                Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    cur = Some((a, b));
                }
                None => cur = Some((a, b)),
            }
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        *out.entry(s.name.clone()).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(covered);
    }
    out
}

/// Renders spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(
            &JsonObject::new()
                .u64("id", s.id)
                .u64("parent", s.parent)
                .str("name", &s.name)
                .u64("start_ns", s.start_ns)
                .u64("end_ns", s.end_ns)
                .finish(),
        );
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, "root", 0, 100),
            // Overlapping children cover 10..40 and 50..60 → 40 ns.
            span(2, 1, "child", 10, 30),
            span(3, 1, "child", 20, 40),
            span(4, 1, "child", 50, 60),
            // A grandchild does not reduce the root's self time.
            span(5, 2, "leaf", 12, 14),
        ];
        let s = self_ns_by_name(&spans);
        assert_eq!(s["root"], 60);
        assert_eq!(s["child"], 20 + 20 + 10 - 2);
        assert_eq!(s["leaf"], 2);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::new(false);
        assert_eq!(r.scope(0, "x", |id| id), 0);
        assert!(r.spans().is_empty());
        let r = Recorder::new(true);
        let child = r.scope(0, "outer", |id| r.scope(id, "inner", |c| c));
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans.iter().find(|s| s.id == child).unwrap().parent, 1);
        assert!(to_jsonl(&spans).lines().count() == 2);
    }
}
