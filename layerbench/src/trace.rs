//! In-memory spans recorded from the benchmark's own code, around its
//! calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! thread it ran on. Spans stay in memory until the run ends; [`Tracer::write`]
//! then dumps them as JSON lines. A layer's self time is its span's
//! duration minus the durations of its direct children **on the same
//! thread**: children that ran on another thread (items of a parallel
//! fan-out) overlap their parent instead of nesting inside it, so they
//! count as that layer's busy time, not as part of the parent's.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Ids start at 1; `parent == 0` marks a root.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// The span recorder. `None`-able at every call site through
/// [`span`], so untraced code paths pay one branch and nothing else.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    tracer: Option<&'a Tracer>,
    id: u32,
    parent: u32,
    name: &'static str,
    start_ns: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    fn open(&self, name: &'static str, parent: u32) -> Guard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|open| open.borrow_mut().push(id));
        Guard {
            tracer: Some(self),
            id,
            parent,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// All spans recorded so far, in the order they closed.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Writes at most `limit` spans as JSON lines (with the id of the
    /// root span each belongs to, so the spans of one op share an
    /// identifier) and returns how many were written.
    pub fn write(&self, path: &std::path::Path, limit: usize) -> std::io::Result<usize> {
        let spans = self.spans();
        let roots = roots_of(&spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let written = spans.len().min(limit);
        for s in &spans[..written] {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, roots[&s.id], s.name, s.thread, s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        Ok(written)
    }
}

/// Opens a span under the innermost span open on this thread.
pub fn span<'a>(tracer: Option<&'a Tracer>, name: &'static str) -> Guard<'a> {
    match tracer {
        None => Guard::off(),
        Some(t) => {
            let parent = OPEN.with(|open| open.borrow().last().copied().unwrap_or(0));
            t.open(name, parent)
        }
    }
}

/// Opens a span whose cause is `parent`, which may be open on another
/// thread (the fan-out of a parallel map).
pub fn span_under<'a>(tracer: Option<&'a Tracer>, name: &'static str, parent: u32) -> Guard<'a> {
    match tracer {
        None => Guard::off(),
        Some(t) => t.open(name, parent),
    }
}

impl Guard<'_> {
    fn off() -> Self {
        Guard {
            tracer: None,
            id: 0,
            parent: 0,
            name: "",
            start_ns: 0,
        }
    }

    /// This span's id (0 when tracing is off).
    pub fn id(&self) -> u32 {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let Some(tracer) = self.tracer else { return };
        let end_ns = tracer.now_ns();
        OPEN.with(|open| {
            let popped = open.borrow_mut().pop();
            debug_assert_eq!(popped, Some(self.id), "spans close innermost first");
        });
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            thread: THREAD.with(|t| *t),
            start_ns: self.start_ns,
            end_ns,
        };
        if let Ok(mut spans) = tracer.spans.lock() {
            spans.push(span);
        }
    }
}

fn roots_of(spans: &[Span]) -> BTreeMap<u32, u32> {
    let parent: BTreeMap<u32, u32> = spans.iter().map(|s| (s.id, s.parent)).collect();
    spans
        .iter()
        .map(|s| {
            let mut root = s.id;
            while let Some(&p) = parent.get(&root) {
                if p == 0 {
                    break;
                }
                root = p;
            }
            (s.id, root)
        })
        .collect()
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Totals {
    /// Spans of this name.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of self times (duration minus same-thread children), ns.
    pub self_ns: u64,
}

/// Aggregates spans by name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let index: BTreeMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut covered: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = index.get(&s.parent) {
            if p.thread == s.thread {
                *covered.entry(p.id).or_default() += s.dur_ns();
            }
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s
            .dur_ns()
            .saturating_sub(covered.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Sum of the durations of the direct children of every span named
/// `root` that ran on the root's own thread: the part of the op time
/// that the layer spans account for.
pub fn attributed_ns(spans: &[Span], root: &str) -> u64 {
    let index: BTreeMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    spans
        .iter()
        .filter(|s| {
            index
                .get(&s.parent)
                .is_some_and(|p| p.name == root && p.thread == s.thread)
        })
        .map(Span::dur_ns)
        .sum()
}

/// The op time the layer spans predict, from their durations alone:
/// every span named in `serial` counts in full, and the spans named in
/// `parallel` count per fan-out (their nearest ancestor named `fanout`)
/// as the fan-out's lower bound on `cpus` CPUs: the larger of its
/// busiest thread's sum and its total over `cpus`. Whatever the spans do
/// not cover (spawning and joining the fan-out, folding its results,
/// uneven load) is left out, and shows as attribution error.
pub fn predicted_ns(
    spans: &[Span],
    fanout: &str,
    parallel: &[&str],
    serial: &[&str],
    cpus: usize,
) -> u64 {
    let index: BTreeMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut per_thread: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    let mut total = 0;
    for s in spans {
        if serial.contains(&s.name) {
            total += s.dur_ns();
        } else if parallel.contains(&s.name) {
            let mut up = index.get(&s.parent);
            while let Some(p) = up.filter(|p| p.name != fanout) {
                up = index.get(&p.parent);
            }
            let owner = up.map_or(0, |p| p.id);
            *per_thread.entry((owner, s.thread)).or_default() += s.dur_ns();
        }
    }
    let mut fanouts: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for ((owner, _), ns) in per_thread {
        let (longest, sum) = fanouts.entry(owner).or_default();
        *longest = (*longest).max(ns);
        *sum += ns;
    }
    let cpus = cpus.max(1) as u64;
    total
        + fanouts
            .values()
            .map(|&(longest, sum)| longest.max(sum.div_ceil(cpus)))
            .sum::<u64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ns: u64) {
        let t0 = Instant::now();
        while t0.elapsed().as_nanos() < u128::from(ns) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_subtracts_same_thread_children_only() {
        let tracer = Tracer::default();
        let t = Some(&tracer);
        {
            let root = span(t, "root");
            {
                let _child = span(t, "child");
                busy(200_000);
            }
            let root_id = root.id();
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _remote = span_under(t, "remote", root_id);
                    busy(200_000);
                });
            });
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        let by = totals(&spans);
        let root = by["root"];
        // The remote child overlapped the root on another thread, so
        // only the local child is subtracted.
        assert_eq!(root.self_ns, root.total_ns - by["child"].total_ns);
        assert_eq!(attributed_ns(&spans, "root"), by["child"].total_ns);
        let roots = roots_of(&spans);
        assert!(spans.iter().all(|s| roots[&s.id] == roots[&1]));
    }

    fn at(id: u32, parent: u32, name: &'static str, thread: u32, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            thread,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn prediction_bounds_each_fan_out_by_its_threads_and_cpus() {
        // One op: a fan-out whose leaves took 30 + 10 ns on thread 0 and
        // 25 ns on thread 1, then a serial step of 5 ns; 15 ns of the
        // op are covered by no leaf.
        let spans = [
            at(1, 0, "op", 0, 0, 100),
            at(2, 1, "fan", 0, 0, 80),
            at(3, 2, "item", 0, 0, 40),
            at(4, 3, "leaf", 0, 0, 30),
            at(5, 3, "leaf", 0, 30, 40),
            at(6, 2, "item", 1, 5, 30),
            at(7, 6, "leaf", 1, 5, 30),
            at(8, 1, "step", 0, 85, 90),
        ];
        let p = |cpus| predicted_ns(&spans, "fan", &["leaf"], &["step"], cpus);
        // Two CPUs: the busiest thread (40); one CPU: all leaves (65).
        assert_eq!(p(2), 40 + 5);
        assert_eq!(p(1), 65 + 5);
    }

    #[test]
    fn untraced_guards_record_nothing() {
        let g = span(None, "x");
        assert_eq!(g.id(), 0);
    }
}
