//! Per-request trace spans and the flight recorder.
//!
//! A [`Trace`] is a cheap `Arc` handle created at the request's entry tier
//! (front-end submit, server entry, or cluster edge) when the 1-in-N sampler
//! fires. It rides the request across threads — the evented front-end parks
//! and resumes sessions on different workers, and the cluster edge fans out
//! onto scoped shard threads — collecting [`SpanRecord`]s along the way.
//! Deep layers (coalescer, caches, model scans) never see the handle: they
//! run under a thread-local [`TraceScope`] and their [`StageTimer`](crate::StageTimer)
//! spans attach to whatever trace is current, so adding a stage never
//! changes a function signature.
//!
//! Completion pushes the finished [`TraceRecord`] into the
//! [`FlightRecorder`]: a bounded lock-sharded ring buffer of recent traces
//! plus an exact slowest-N exemplar set per stage, so "show me what a p99
//! request actually did" is one call after any load run.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::Stage;

/// One timed interval inside a request.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Stage name (one of [`Stage::name`]) or a custom label.
    pub name: &'static str,
    /// Offset from the trace's start, microseconds.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Index of the enclosing span (per-shard scatter children point at
    /// their `shard_rtt` span); `None` for request-level spans.
    pub parent: Option<u32>,
    /// Freeform annotation: `leader`/`follower wait_us=…`, `shard=2
    /// replica=0 hedge`, cache `hit`/`miss`, …
    pub tag: String,
}

struct Meta {
    tenant: String,
    kind: &'static str,
    tier: String,
}

/// Spans one trace keeps. A cross-shard run opens a `shard_rtt` and a
/// `replica_call` span per bound-join sub-query — thousands — and the
/// recorder holds thousands of traces; past the cap a span is counted
/// ([`TraceRecord::dropped_spans`]), not stored.
pub const MAX_SPANS: usize = 256;

struct TraceInner {
    id: u64,
    started: Instant,
    meta: Mutex<Meta>,
    spans: Mutex<Vec<SpanRecord>>,
    dropped_spans: AtomicU64,
}

/// Live handle to an in-flight sampled request. Clone freely; all clones
/// append into the same span list.
#[derive(Clone)]
pub struct Trace(Arc<TraceInner>);

impl Trace {
    pub(crate) fn new(id: u64, kind: &'static str, tenant: &str) -> Trace {
        Trace(Arc::new(TraceInner {
            id,
            started: Instant::now(),
            meta: Mutex::new(Meta {
                tenant: tenant.to_string(),
                kind,
                tier: String::new(),
            }),
            spans: Mutex::new(Vec::new()),
            dropped_spans: AtomicU64::new(0),
        }))
    }

    pub fn id(&self) -> u64 {
        self.0.id
    }

    /// The instant the trace began (spans are stored relative to it).
    pub fn started(&self) -> Instant {
        self.0.started
    }

    /// Record the execution tier the request ultimately ran at.
    pub fn set_tier(&self, tier: &str) {
        self.0.meta.lock().unwrap().tier = tier.to_string();
    }

    /// Append a completed span; returns its index (usable as a parent). Past
    /// [`MAX_SPANS`] the span is only counted and the index names no span
    /// (closing it is a no-op; its children are past the cap too).
    pub fn add_span(
        &self,
        name: &'static str,
        started_at: Instant,
        dur_us: u64,
        parent: Option<u32>,
        tag: String,
    ) -> u32 {
        let start_us = started_at
            .saturating_duration_since(self.0.started)
            .as_micros() as u64;
        let mut spans = self.0.spans.lock().unwrap();
        if spans.len() == MAX_SPANS {
            self.0.dropped_spans.fetch_add(1, Ordering::Relaxed);
            return u32::MAX;
        }
        spans.push(SpanRecord {
            name,
            start_us,
            dur_us,
            parent,
            tag,
        });
        (spans.len() - 1) as u32
    }

    /// Open a span whose duration is not known yet (a scatter parent that
    /// must exist before its children do); close it with [`close_span`].
    ///
    /// [`close_span`]: Trace::close_span
    pub fn open_span(
        &self,
        name: &'static str,
        parent: Option<u32>,
        tag: String,
    ) -> (u32, Instant) {
        let at = Instant::now();
        (self.add_span(name, at, 0, parent, tag), at)
    }

    /// Fill in the duration of a span opened with [`Trace::open_span`].
    pub fn close_span(&self, idx: u32, dur_us: u64) {
        if let Some(span) = self.0.spans.lock().unwrap().get_mut(idx as usize) {
            span.dur_us = dur_us;
        }
    }

    /// Seal the trace into an immutable record (total = start → now).
    pub(crate) fn finish(self) -> TraceRecord {
        let total_us = self.0.started.elapsed().as_micros() as u64;
        let meta = self.0.meta.lock().unwrap();
        let spans = std::mem::take(&mut *self.0.spans.lock().unwrap());
        TraceRecord {
            id: self.0.id,
            tenant: meta.tenant.clone(),
            kind: meta.kind,
            tier: meta.tier.clone(),
            total_us,
            spans,
            dropped_spans: self.0.dropped_spans.load(Ordering::Relaxed),
        }
    }
}

/// A completed, immutable request trace.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    pub id: u64,
    pub tenant: String,
    pub kind: &'static str,
    /// Execution tier, when the request reported one (empty otherwise).
    pub tier: String,
    /// End-to-end duration, microseconds.
    pub total_us: u64,
    /// The first [`MAX_SPANS`] spans the request opened.
    pub spans: Vec<SpanRecord>,
    /// Spans opened past the cap: counted, not kept.
    pub dropped_spans: u64,
}

impl TraceRecord {
    /// Longest span duration recorded for `stage` (0 when absent).
    pub fn stage_us(&self, stage: Stage) -> u64 {
        let name = stage.name();
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us)
            .max()
            .unwrap_or(0)
    }

    /// Render the trace as indented text, children under their parents.
    pub fn render(&self) -> String {
        let mut out = format!(
            "trace {} kind={} tenant={} tier={} total_us={}\n",
            self.id,
            self.kind,
            self.tenant,
            if self.tier.is_empty() {
                "-"
            } else {
                &self.tier
            },
            self.total_us
        );
        // Spans are appended in completion order; render roots in order and
        // each child directly under its parent.
        for (i, span) in self.spans.iter().enumerate() {
            if span.parent.is_some() {
                continue;
            }
            render_span(&mut out, span, 1);
            for child in self.spans.iter() {
                if child.parent == Some(i as u32) {
                    render_span(&mut out, child, 2);
                }
            }
        }
        if self.dropped_spans > 0 {
            out.push_str(&format!(
                "  (+{} spans past the cap of {MAX_SPANS})\n",
                self.dropped_spans
            ));
        }
        out
    }
}

fn render_span(out: &mut String, span: &SpanRecord, depth: usize) {
    out.push_str(&"  ".repeat(depth));
    out.push_str(&format!(
        "[{:>8} +{:>8}us] {}",
        span.start_us, span.dur_us, span.name
    ));
    if !span.tag.is_empty() {
        out.push(' ');
        out.push_str(&span.tag);
    }
    out.push('\n');
}

// --- thread-local request context ------------------------------------

#[derive(Clone)]
struct Ctx {
    trace: Trace,
    parent: Option<u32>,
}

thread_local! {
    static CURRENT: RefCell<Option<Ctx>> = const { RefCell::new(None) };
    static REQUEST_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// The trace of the request this thread is currently executing, if any.
pub fn current() -> Option<Trace> {
    CURRENT.with(|c| c.borrow().as_ref().map(|ctx| ctx.trace.clone()))
}

/// Current trace plus the span index new spans should parent under.
pub fn current_ctx() -> Option<(Trace, Option<u32>)> {
    CURRENT.with(|c| {
        c.borrow()
            .as_ref()
            .map(|ctx| (ctx.trace.clone(), ctx.parent))
    })
}

/// Installs a trace (or clears it, for `None`) as this thread's current
/// request context for the guard's lifetime; restores the previous context
/// on drop. Used where a request handle crosses a thread boundary: front-end
/// workers resuming a parked session, cluster scatter threads.
pub struct TraceScope {
    prev: Option<Ctx>,
}

impl TraceScope {
    pub fn enter(trace: Option<Trace>) -> TraceScope {
        let next = trace.map(|trace| Ctx {
            trace,
            parent: None,
        });
        TraceScope {
            prev: CURRENT.with(|c| c.replace(next)),
        }
    }

    /// Enter with spans parented under `parent` (a scatter shard span).
    pub fn enter_with_parent(trace: Trace, parent: u32) -> TraceScope {
        TraceScope {
            prev: CURRENT.with(|c| {
                c.replace(Some(Ctx {
                    trace,
                    parent: Some(parent),
                }))
            }),
        }
    }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        CURRENT.with(|c| c.replace(self.prev.take()));
    }
}

/// Marks this thread as inside a request whose end-to-end accounting is
/// owned by an outer tier, so inner tiers' request scopes stay inert
/// instead of double-counting `end_to_end` or opening nested root traces.
pub struct RequestMark(());

impl RequestMark {
    pub fn new() -> RequestMark {
        REQUEST_DEPTH.with(|d| d.set(d.get() + 1));
        RequestMark(())
    }
}

impl Default for RequestMark {
    fn default() -> Self {
        RequestMark::new()
    }
}

impl Drop for RequestMark {
    fn drop(&mut self) {
        REQUEST_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// Whether an outer tier already owns this thread's request accounting.
pub fn in_request() -> bool {
    REQUEST_DEPTH.with(|d| d.get()) > 0
}

// --- flight recorder ---------------------------------------------------

const RING_SHARDS: usize = 8;
const DEFAULT_RING_CAPACITY: usize = 2048;
const DEFAULT_KEEP_SLOWEST: usize = 8;

struct Ring {
    buf: std::collections::VecDeque<Arc<TraceRecord>>,
    capacity: usize,
}

/// Bounded, lock-sharded store of completed traces: a ring of the most
/// recent records plus an exact slowest-N exemplar set per stage (and one
/// for end-to-end totals).
pub struct FlightRecorder {
    rings: Vec<Mutex<Ring>>,
    /// `slowest[stage]` holds up to `keep` records, ascending by that
    /// stage's longest span; the last slot for totals.
    slowest: Vec<Mutex<Vec<Arc<TraceRecord>>>>,
    keep: usize,
    recorded: AtomicU64,
    evicted: AtomicU64,
}

impl FlightRecorder {
    pub fn new(ring_capacity: usize, keep_slowest: usize) -> FlightRecorder {
        let per_shard = ring_capacity.div_ceil(RING_SHARDS).max(1);
        FlightRecorder {
            rings: (0..RING_SHARDS)
                .map(|_| {
                    Mutex::new(Ring {
                        buf: std::collections::VecDeque::with_capacity(per_shard),
                        capacity: per_shard,
                    })
                })
                .collect(),
            slowest: (0..=Stage::COUNT).map(|_| Mutex::new(Vec::new())).collect(),
            keep: keep_slowest.max(1),
            recorded: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    pub fn push(&self, record: TraceRecord) {
        let record = Arc::new(record);
        self.recorded.fetch_add(1, Ordering::Relaxed);
        {
            let mut ring = self.rings[record.id as usize % RING_SHARDS].lock().unwrap();
            if ring.buf.len() == ring.capacity {
                ring.buf.pop_front();
                self.evicted.fetch_add(1, Ordering::Relaxed);
            }
            ring.buf.push_back(record.clone());
        }
        for stage in Stage::ALL {
            let us = record.stage_us(stage);
            if us > 0 {
                self.offer_slowest(stage as usize, us, &record);
            }
        }
        self.offer_slowest(Stage::COUNT, record.total_us, &record);
    }

    /// Insert into a slowest-N list iff it beats the current floor; the
    /// whole comparison runs under the list's mutex so the invariant — the
    /// list holds exactly the N largest keys ever offered — is exact even
    /// under concurrent pushes.
    fn offer_slowest(&self, slot: usize, key_us: u64, record: &Arc<TraceRecord>) {
        let stage = Stage::ALL.get(slot).copied();
        let key = |r: &Arc<TraceRecord>| match stage {
            Some(s) => r.stage_us(s),
            None => r.total_us,
        };
        let mut list = self.slowest[slot].lock().unwrap();
        if list.len() == self.keep && key(&list[0]) >= key_us {
            return;
        }
        let at = list.partition_point(|r| key(r) < key_us);
        list.insert(at, record.clone());
        if list.len() > self.keep {
            list.remove(0);
        }
    }

    /// Completed traces pushed since construction.
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Records evicted from the ring to make room (0 means every sampled
    /// trace is still retrievable).
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// The slowest-N exemplars for one stage, slowest last.
    pub fn slowest_for(&self, stage: Stage) -> Vec<Arc<TraceRecord>> {
        self.slowest[stage as usize].lock().unwrap().clone()
    }

    /// The N slowest requests end-to-end, slowest first.
    pub fn slowest(&self, n: usize) -> Vec<Arc<TraceRecord>> {
        let list = self.slowest[Stage::COUNT].lock().unwrap();
        list.iter().rev().take(n).cloned().collect()
    }

    /// Most recent records across all ring shards (order unspecified).
    pub fn recent(&self) -> Vec<Arc<TraceRecord>> {
        self.rings
            .iter()
            .flat_map(|r| r.lock().unwrap().buf.iter().cloned().collect::<Vec<_>>())
            .collect()
    }

    /// Human-readable dump of the N slowest traces.
    pub fn dump_slowest(&self, n: usize) -> String {
        let mut out = String::new();
        for record in self.slowest(n) {
            out.push_str(&record.render());
        }
        out
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(DEFAULT_RING_CAPACITY, DEFAULT_KEEP_SLOWEST)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, total_us: u64, stage: Stage, stage_us: u64) -> TraceRecord {
        TraceRecord {
            id,
            tenant: "t".to_string(),
            kind: "run",
            tier: String::new(),
            total_us,
            spans: vec![SpanRecord {
                name: stage.name(),
                start_us: 0,
                dur_us: stage_us,
                parent: None,
                tag: String::new(),
            }],
            dropped_spans: 0,
        }
    }

    #[test]
    fn ring_is_bounded_and_counts_evictions() {
        let rec = FlightRecorder::new(8, 4);
        for id in 0..100 {
            rec.push(record(id, id, Stage::QsmScan, id));
        }
        assert_eq!(rec.recorded(), 100);
        assert!(rec.recent().len() <= 8);
        assert_eq!(rec.evicted() + rec.recent().len() as u64, 100);
    }

    #[test]
    fn slowest_keeps_the_exact_top_n_per_stage() {
        let rec = FlightRecorder::new(1024, 3);
        for id in 0..50u64 {
            // Shuffle the offer order deterministically.
            let v = (id * 17) % 50;
            rec.push(record(id, v, Stage::QcmScan, v + 1));
        }
        let top: Vec<u64> = rec
            .slowest_for(Stage::QcmScan)
            .iter()
            .map(|r| r.stage_us(Stage::QcmScan))
            .collect();
        assert_eq!(top, vec![48, 49, 50]);
        let totals: Vec<u64> = rec.slowest(3).iter().map(|r| r.total_us).collect();
        assert_eq!(totals, vec![49, 48, 47]);
    }

    #[test]
    fn scopes_nest_and_restore() {
        assert!(current().is_none());
        let t = Trace::new(1, "run", "tenant");
        {
            let _outer = TraceScope::enter(Some(t.clone()));
            assert_eq!(current().unwrap().id(), 1);
            {
                let _inner = TraceScope::enter(None);
                assert!(current().is_none());
            }
            assert_eq!(current().unwrap().id(), 1);
            assert!(!in_request());
            let _mark = RequestMark::new();
            assert!(in_request());
        }
        assert!(current().is_none());
        assert!(!in_request());
    }

    #[test]
    fn render_indents_children_under_parents() {
        let t = Trace::new(7, "run", "alice");
        t.set_tier("full");
        let (shard, at) = t.open_span("shard_rtt", None, "shard=2".to_string());
        t.add_span("qsm_scan", at, 40, Some(shard), String::new());
        t.close_span(shard, 55);
        let rec = t.finish();
        let text = rec.render();
        assert!(text.contains("trace 7 kind=run tenant=alice tier=full"));
        let shard_line = text.lines().position(|l| l.contains("shard_rtt")).unwrap();
        let child_line = text.lines().position(|l| l.contains("qsm_scan")).unwrap();
        assert_eq!(child_line, shard_line + 1);
        assert!(text.lines().nth(child_line).unwrap().starts_with("    "));
    }

    #[test]
    fn spans_past_the_cap_are_counted_not_kept() {
        let t = Trace::new(9, "run", "alice");
        let at = Instant::now();
        let (root, _) = t.open_span("shard_rtt", None, String::new());
        for _ in 1..MAX_SPANS {
            t.add_span("replica_call", at, 1, Some(root), String::new());
        }
        // Past the cap: the index names no span, so closing it is a no-op.
        let (over, _) = t.open_span("shard_rtt", None, String::new());
        t.add_span("replica_call", at, 1, Some(over), String::new());
        t.close_span(over, 7);
        t.close_span(root, 5);
        let rec = t.finish();
        assert_eq!(rec.spans.len(), MAX_SPANS);
        assert_eq!(rec.dropped_spans, 2);
        assert_eq!(rec.spans[root as usize].dur_us, 5);
        assert!(rec.spans.iter().all(|s| s.dur_us != 7));
        let text = rec.render();
        assert_eq!(text.lines().count(), 1 + MAX_SPANS + 1);
        assert!(text.ends_with(&format!("(+2 spans past the cap of {MAX_SPANS})\n")));

        // Under the cap nothing is said about it.
        let t = Trace::new(10, "run", "alice");
        t.add_span("qsm_scan", at, 1, None, String::new());
        let rec = t.finish();
        assert_eq!(rec.dropped_spans, 0);
        assert!(!rec.render().contains("past the cap"));
    }
}
