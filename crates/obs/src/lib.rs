//! `sapphire-obs`: the observability substrate for every serving tier.
//!
//! Three pieces, all dependency-free and std-only:
//!
//! - **Stage histograms** ([`Histogram`], [`Stage`], [`StageTimer`]): a
//!   lock-free sharded log-bucketed latency histogram per named pipeline
//!   stage. Always on — recording is two relaxed atomics — so per-stage
//!   count/p50/p95/p99/max are available after any run. Instrumenting a
//!   stage is one RAII line: `let _t = obs.time(Stage::QsmScan);`.
//! - **Trace spans + flight recorder** ([`trace::Trace`],
//!   [`trace::FlightRecorder`]): 1-in-N sampled per-request traces (default
//!   off ⇒ near-zero cost) threaded from the entry tier through admission,
//!   coalescing, execution, and cluster scatter (per-shard child spans),
//!   landing in a bounded lock-sharded ring buffer that also keeps the
//!   slowest-N exemplars per stage.
//! - **MetricsHub** ([`MetricsHub`]): a neutral snapshot container every
//!   tier's metric struct converts into, read back typed or rendered as
//!   hand-rolled JSON.
//!
//! Instrumentation must never perturb what the system computes: nothing in
//! this crate feeds back into request execution, and the serving oracle
//! test pins that sampled and unsampled runs produce byte-identical
//! responses.

pub mod histogram;
pub mod hub;
pub mod trace;

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Instant;

pub use histogram::{Histogram, Snapshot};
pub use hub::{MetricsHub, Section, Value};
pub use trace::{FlightRecorder, RequestMark, SpanRecord, Trace, TraceRecord, TraceScope};

/// Every named stage of the serving pipeline, across all tiers.
///
/// The discriminants index histogram arrays; `ALL` and [`Stage::name`] are
/// the single source of truth for report sections and recorder slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Stage {
    /// Front-end tier: submit → a worker picks the request off its session
    /// queue.
    FrontendQueue = 0,
    /// Admission tier: gate entry → slot grant (0 for immediate grants).
    AdmissionWait,
    /// Single-flight tier: a follower blocking on its leader's scan.
    CoalesceWait,
    /// Response-cache probe (completion or run cache).
    CacheLookup,
    /// QCM model scan (suffix-tree completion sweep).
    QcmScan,
    /// QSM model scan (alternatives + relaxation + execution).
    QsmScan,
    /// The Steiner-tree relaxation inside a QSM scan.
    SteinerRelax,
    /// Cluster tier: one shard round trip within a scatter (per attempt,
    /// hedges and retries included).
    ShardRtt,
    /// Cluster tier: merging shard partials into the final top-k.
    EdgeMerge,
    /// Shared executor: a task sitting in a worker queue before it starts
    /// (scatter shard calls, hedges, residual-bin scan tasks).
    ExecQueue,
    /// Whole request, entry tier → reply.
    EndToEnd,
}

impl Stage {
    /// Number of stages (array sizes; recorder adds one slot for totals).
    pub const COUNT: usize = 11;

    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::FrontendQueue,
        Stage::AdmissionWait,
        Stage::CoalesceWait,
        Stage::CacheLookup,
        Stage::QcmScan,
        Stage::QsmScan,
        Stage::SteinerRelax,
        Stage::ShardRtt,
        Stage::EdgeMerge,
        Stage::ExecQueue,
        Stage::EndToEnd,
    ];

    /// Stable snake_case name used in reports, spans, and exposition.
    pub fn name(self) -> &'static str {
        match self {
            Stage::FrontendQueue => "frontend_queue",
            Stage::AdmissionWait => "admission_wait",
            Stage::CoalesceWait => "coalesce_wait",
            Stage::CacheLookup => "cache_lookup",
            Stage::QcmScan => "qcm_scan",
            Stage::QsmScan => "qsm_scan",
            Stage::SteinerRelax => "steiner_relax",
            Stage::ShardRtt => "shard_rtt",
            Stage::EdgeMerge => "edge_merge",
            Stage::ExecQueue => "exec_queue",
            Stage::EndToEnd => "end_to_end",
        }
    }
}

/// One tier's observability handle: per-stage histograms, the trace
/// sampler, and the flight recorder. Shared as `Arc<Obs>` by whichever
/// components should aggregate together (a server and its front-end; a
/// cluster edge and, in benches, its shards).
pub struct Obs {
    stages: [Histogram; Stage::COUNT],
    recorder: FlightRecorder,
    /// Trace one request in N; 0 disables tracing entirely (the default).
    sample_every: AtomicU32,
    sample_seq: AtomicU64,
    ids: AtomicU64,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new()
    }
}

impl Obs {
    /// Histograms on, tracing off.
    pub fn new() -> Obs {
        Obs {
            stages: std::array::from_fn(|_| Histogram::new()),
            recorder: FlightRecorder::default(),
            sample_every: AtomicU32::new(0),
            sample_seq: AtomicU64::new(0),
            ids: AtomicU64::new(1),
        }
    }

    /// Trace one request in `every` (1 = all, 0 = off). Takes effect for
    /// requests that *enter* after the store; in-flight traces complete.
    pub fn set_sampling(&self, every: u32) {
        self.sample_every.store(every, Ordering::Relaxed);
    }

    pub fn sampling(&self) -> u32 {
        self.sample_every.load(Ordering::Relaxed)
    }

    /// Record one latency observation for a stage, microseconds.
    #[inline]
    pub fn record(&self, stage: Stage, us: u64) {
        self.stages[stage as usize].record(us);
    }

    /// RAII stage timer: records into the stage histogram on drop, and —
    /// when this thread is executing a sampled request — appends a span to
    /// the current trace.
    #[inline]
    pub fn time(&self, stage: Stage) -> StageTimer<'_> {
        StageTimer {
            obs: self,
            stage,
            start: Instant::now(),
            tag: None,
        }
    }

    /// Start a sampled trace for a request entering at this tier, or `None`
    /// (the 1-in-N counter says skip, or tracing is off — one relaxed load).
    pub fn begin_trace(&self, kind: &'static str, tenant: &str) -> Option<Trace> {
        let every = self.sample_every.load(Ordering::Relaxed) as u64;
        if every == 0 {
            return None;
        }
        if !self
            .sample_seq
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(every)
        {
            return None;
        }
        Some(Trace::new(
            self.ids.fetch_add(1, Ordering::Relaxed),
            kind,
            tenant,
        ))
    }

    /// Seal a finished trace into the flight recorder.
    pub fn finish_trace(&self, trace: Trace) {
        self.recorder.push(trace.finish());
    }

    /// Request-entry guard for tiers that own a whole request on one call
    /// stack (the blocking server API, the cluster edge). Times
    /// [`Stage::EndToEnd`], begins a sampled trace, and installs it as the
    /// thread's current context; drop finishes both. Inert when an outer
    /// tier already owns the request (see [`trace::RequestMark`]), so
    /// nesting tiers never double-count.
    pub fn request_scope(&self, kind: &'static str, tenant: &str) -> RequestScope<'_> {
        if trace::in_request() {
            return RequestScope {
                obs: self,
                start: Instant::now(),
                active: None,
            };
        }
        let trace = self.begin_trace(kind, tenant);
        RequestScope {
            obs: self,
            start: Instant::now(),
            active: Some(ActiveRequest {
                _mark: RequestMark::new(),
                scope: TraceScope::enter(trace.clone()),
                trace,
            }),
        }
    }

    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    pub fn stage_snapshot(&self, stage: Stage) -> Snapshot {
        self.stages[stage as usize].snapshot()
    }

    /// All stages as [`MetricsHub`] sections (count/p50/p95/p99/max per
    /// stage), skipping stages with no observations.
    pub fn stage_sections(&self, hub: &mut MetricsHub) {
        for stage in Stage::ALL {
            let snap = self.stage_snapshot(stage);
            if snap.count() == 0 {
                continue;
            }
            hub.section(stage.name())
                .field("count", snap.count())
                .field("p50_us", snap.percentile(50.0))
                .field("p95_us", snap.percentile(95.0))
                .field("p99_us", snap.percentile(99.0))
                .field("max_us", snap.max);
        }
    }
}

struct ActiveRequest {
    _mark: RequestMark,
    scope: TraceScope,
    trace: Option<Trace>,
}

/// See [`Obs::request_scope`].
pub struct RequestScope<'a> {
    obs: &'a Obs,
    start: Instant,
    active: Option<ActiveRequest>,
}

impl RequestScope<'_> {
    /// The trace this scope opened, if the sampler fired.
    pub fn trace(&self) -> Option<&Trace> {
        self.active.as_ref().and_then(|a| a.trace.as_ref())
    }
}

impl Drop for RequestScope<'_> {
    fn drop(&mut self) {
        if let Some(active) = self.active.take() {
            self.obs
                .record(Stage::EndToEnd, self.start.elapsed().as_micros() as u64);
            // Restore the thread context *before* sealing, so the recorder
            // push never races a reader seeing a half-current trace.
            drop(active.scope);
            if let Some(trace) = active.trace {
                self.obs.finish_trace(trace);
            }
        }
    }
}

/// RAII stage timer from [`Obs::time`].
pub struct StageTimer<'a> {
    obs: &'a Obs,
    stage: Stage,
    start: Instant,
    tag: Option<std::borrow::Cow<'static, str>>,
}

impl StageTimer<'_> {
    /// Annotate the span this timer will emit (no effect on the histogram).
    /// Static tags cost nothing; the string materializes only if this
    /// thread is executing a sampled request.
    pub fn tag(&mut self, tag: impl Into<std::borrow::Cow<'static, str>>) {
        self.tag = Some(tag.into());
    }

    /// Elapsed so far, microseconds.
    pub fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }
}

impl Drop for StageTimer<'_> {
    fn drop(&mut self) {
        let dur_us = self.start.elapsed().as_micros() as u64;
        self.obs.record(self.stage, dur_us);
        if let Some((trace, parent)) = trace::current_ctx() {
            trace.add_span(
                self.stage.name(),
                self.start,
                dur_us,
                parent,
                self.tag.take().map(|t| t.into_owned()).unwrap_or_default(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_are_unique_and_match_all() {
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::COUNT);
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(*stage as usize, i);
        }
    }

    #[test]
    fn timers_feed_histograms_always_and_spans_only_when_sampled() {
        let obs = Obs::new();
        {
            let _t = obs.time(Stage::QcmScan);
        }
        assert_eq!(obs.stage_snapshot(Stage::QcmScan).count(), 1);
        assert_eq!(obs.recorder().recorded(), 0);

        obs.set_sampling(1);
        {
            let scope = obs.request_scope("complete", "alice");
            assert!(scope.trace().is_some());
            let _t = obs.time(Stage::QcmScan);
        }
        assert_eq!(obs.stage_snapshot(Stage::QcmScan).count(), 2);
        assert_eq!(obs.stage_snapshot(Stage::EndToEnd).count(), 1);
        assert_eq!(obs.recorder().recorded(), 1);
        let rec = &obs.recorder().slowest(1)[0];
        assert_eq!(rec.kind, "complete");
        assert_eq!(rec.tenant, "alice");
        assert!(rec.spans.iter().any(|s| s.name == "qcm_scan"));
    }

    #[test]
    fn nested_request_scopes_are_inert() {
        let obs = Obs::new();
        obs.set_sampling(1);
        {
            let _outer = obs.request_scope("run", "t");
            let inner = obs.request_scope("run", "t");
            assert!(inner.trace().is_none());
            drop(inner);
            // The inert inner scope recorded nothing.
            assert_eq!(obs.stage_snapshot(Stage::EndToEnd).count(), 0);
        }
        assert_eq!(obs.stage_snapshot(Stage::EndToEnd).count(), 1);
        assert_eq!(obs.recorder().recorded(), 1);
    }

    #[test]
    fn sampling_is_one_in_n() {
        let obs = Obs::new();
        obs.set_sampling(4);
        let mut sampled = 0;
        for _ in 0..16 {
            if let Some(t) = obs.begin_trace("run", "t") {
                obs.finish_trace(t);
                sampled += 1;
            }
        }
        assert_eq!(sampled, 4);
        assert_eq!(obs.recorder().recorded(), 4);
    }

    #[test]
    fn sampling_off_is_the_default_and_yields_no_traces() {
        let obs = Obs::new();
        assert_eq!(obs.sampling(), 0);
        assert!(obs.begin_trace("run", "t").is_none());
        let scope = obs.request_scope("run", "t");
        assert!(scope.trace().is_none());
        drop(scope);
        // End-to-end histograms still record; the recorder stays empty.
        assert_eq!(obs.stage_snapshot(Stage::EndToEnd).count(), 1);
        assert_eq!(obs.recorder().recorded(), 0);
        assert_eq!(obs.recorder().evicted(), 0);
    }

    #[test]
    fn stage_sections_hold_only_recorded_stages() {
        let obs = Obs::new();
        obs.record(Stage::AdmissionWait, 5);
        obs.record(Stage::AdmissionWait, 500);
        let mut hub = MetricsHub::new();
        obs.stage_sections(&mut hub);
        let json = hub.to_json();
        assert!(json.starts_with("{\"admission_wait\": {\"count\": 2, "));
        assert!(!json.contains("qsm_scan"));
        assert!(json.contains("\"max_us\": 500"));
    }
}
