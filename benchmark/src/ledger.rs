//! The per-layer ledger of a traced run: harness-side spans around every
//! call the harness makes into a layer, the program's own flight-recorder
//! traces read from outside, where a request's time went, and a replay of
//! pool requests straight into each layer's public functions.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sapphire_cluster::merge::{merge_completions, merge_solutions};
use sapphire_core::qcm::CompletionResult;
use sapphire_core::session::Session;
use sapphire_datagen::workload::Question;
use sapphire_obs::{Obs, Stage, TraceRecord};
use sapphire_rdf::{snapshot, Partitioner, TermId};
use sapphire_server::coalesce::Join;
use sapphire_server::response_cache::ShardedResponseCache;
use sapphire_server::{Coalescer, RunPayload, ServerError, ShardService};
use sapphire_sparql::{evaluate_select, parse_select, Query, QueryResult, SelectQuery, WorkBudget};
use sapphire_suffix::SuffixTree;
use sapphire_wire::codec::{decode_reply, decode_request, encode_reply, encode_request};
use sapphire_wire::{
    LoadHeader, WireClient, WireClientConfig, WireReply, WireRequest, WireServer, WireServerConfig,
};

use crate::drive::RequestSpan;
use crate::fixture::{SingleBox, SHARDS};
use crate::json::Json;
use crate::pool::Cycle;
use crate::stats::percentile_of;

// --------------------------------------------------------------- spans --

/// One harness-side span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
}

/// Harness-side spans, kept in memory until the run ends.
pub struct SpanLog {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn new(origin: Instant) -> SpanLog {
        SpanLog {
            origin,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn offset_us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Start a span now; returns its id (usable as a parent).
    pub fn open(&self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.offset_us(Instant::now());
        let mut spans = self.spans.lock().expect("span log");
        spans.push(Span {
            name,
            start_us: now,
            end_us: now,
            parent,
        });
        spans.len() - 1
    }

    /// End a span now.
    pub fn close(&self, id: usize) {
        let now = self.offset_us(Instant::now());
        self.spans.lock().expect("span log")[id].end_us = now;
    }

    /// Record back-to-back phases of known length, the first starting at
    /// `started` (bring-up code times its own steps).
    pub fn phases(&self, parent: usize, started: Instant, phases: &[(&'static str, f64)]) {
        let mut at = self.offset_us(started);
        let mut spans = self.spans.lock().expect("span log");
        for &(name, ms) in phases {
            spans.push(Span {
                name,
                start_us: at,
                end_us: at + ms * 1e3,
                parent: Some(parent),
            });
            at += ms * 1e3;
        }
    }

    /// Time one call into a layer as a child span of `parent`.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.open(name, Some(parent));
        let started = Instant::now();
        let out = f();
        let elapsed = started.elapsed();
        self.close(id);
        (out, elapsed)
    }
}

// --------------------------------------------------------- attribution --

/// Where the time of the traced requests went, from the program's own
/// spans. A layer's *covered* time is the union of its spans within each
/// request (parallel shard calls count once, as the caller waits once); its
/// *self* time is its spans' duration minus what their child spans cover.
#[derive(Debug, Default)]
pub struct Attribution {
    pub traces: usize,
    pub total_us: f64,
    covered_any_us: f64,
    covered_us: BTreeMap<&'static str, f64>,
    self_us: BTreeMap<&'static str, f64>,
}

/// Total length of the union of `intervals`, each clipped to `[lo, hi]`.
fn union_len(intervals: &mut Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.retain_mut(|iv| {
        iv.0 = iv.0.max(lo);
        iv.1 = iv.1.min(hi);
        iv.1 > iv.0
    });
    intervals.sort_unstable();
    let (mut total, mut end) = (0, lo);
    for &(a, b) in intervals.iter() {
        if b > end {
            total += b - a.max(end);
            end = b;
        }
    }
    total
}

pub fn attribute(records: &[Arc<TraceRecord>]) -> Attribution {
    let mut out = Attribution::default();
    for record in records {
        out.traces += 1;
        out.total_us += record.total_us as f64;
        let interval = |s: &sapphire_obs::SpanRecord| (s.start_us, s.start_us + s.dur_us);
        let mut all: Vec<(u64, u64)> = record.spans.iter().map(interval).collect();
        out.covered_any_us += union_len(&mut all, 0, record.total_us) as f64;
        let mut by_name: BTreeMap<&'static str, Vec<(u64, u64)>> = BTreeMap::new();
        for (i, span) in record.spans.iter().enumerate() {
            by_name.entry(span.name).or_default().push(interval(span));
            let mut children: Vec<(u64, u64)> = record
                .spans
                .iter()
                .filter(|c| c.parent == Some(i as u32))
                .map(interval)
                .collect();
            let (lo, hi) = interval(span);
            let own = span.dur_us - union_len(&mut children, lo, hi).min(span.dur_us);
            *out.self_us.entry(span.name).or_default() += own as f64;
        }
        for (name, mut intervals) in by_name {
            *out.covered_us.entry(name).or_default() +=
                union_len(&mut intervals, 0, record.total_us) as f64;
        }
    }
    out
}

impl Attribution {
    /// Share of request time no span of the program covers.
    pub fn unattributed_share(&self) -> f64 {
        if self.total_us == 0.0 {
            0.0
        } else {
            1.0 - self.covered_any_us / self.total_us
        }
    }

    /// Share of request time covered by spans of any of `names`. The names
    /// given together must nest or be disjoint (a stage and the stages
    /// inside it), which the serving stages are.
    pub fn share_of(&self, names: &[&str]) -> f64 {
        if self.total_us == 0.0 {
            return 0.0;
        }
        // Nested stages are inside their parent's cover; count the
        // outermost of each family once.
        names
            .iter()
            .filter(|n| !(**n == "steiner_relax" && names.contains(&"qsm_scan")))
            .map(|n| self.covered_us.get(n).copied().unwrap_or(0.0))
            .sum::<f64>()
            / self.total_us
    }

    pub fn to_json(&self) -> Json {
        let share = |us: f64| {
            Json::Num(if self.total_us == 0.0 {
                0.0
            } else {
                us / self.total_us
            })
        };
        Json::obj([
            ("traces", Json::num(self.traces as f64)),
            ("total_us", Json::Num(self.total_us)),
            ("unattributed_share", Json::Num(self.unattributed_share())),
            (
                "covered_share",
                Json::obj(self.covered_us.iter().map(|(n, us)| (*n, share(*us)))),
            ),
            (
                "self_share",
                Json::obj(self.self_us.iter().map(|(n, us)| (*n, share(*us)))),
            ),
        ])
    }
}

// --------------------------------------------------------------- trace --

/// The trace file: harness spans, the timed requests of the traced passes
/// as children of their pass, and the program's flight-recorder traces.
pub fn trace_document(
    workload: &str,
    seed: u64,
    spans: &SpanLog,
    request_spans: &[(u64, Vec<RequestSpan>)],
    records: &[Arc<TraceRecord>],
    attribution: &Attribution,
) -> Json {
    let harness = spans.spans.lock().expect("span log").clone();
    let mut rendered: Vec<Json> = harness
        .iter()
        .enumerate()
        .map(|(id, s)| {
            Json::obj([
                ("id", Json::num(id as f64)),
                ("name", Json::str(s.name)),
                ("start_us", Json::Num(s.start_us)),
                ("end_us", Json::Num(s.end_us)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::num(p as f64)),
                ),
            ])
        })
        .collect();
    let mut request_id = 0u64;
    for (pass, requests) in request_spans {
        let pass_start = harness[*pass as usize].start_us;
        for r in requests {
            request_id += 1;
            let start = pass_start + r.start_ns as f64 / 1e3;
            rendered.push(Json::obj([
                (
                    "name",
                    Json::str(if r.is_run {
                        "request.run"
                    } else {
                        "request.complete"
                    }),
                ),
                ("start_us", Json::Num(start)),
                ("end_us", Json::Num(start + r.dur_ns as f64 / 1e3)),
                ("parent", Json::num(*pass as f64)),
                ("request", Json::num(request_id as f64)),
                ("client", Json::num(r.client)),
            ]));
        }
    }
    let program: Vec<Json> = records
        .iter()
        .map(|t| {
            Json::obj([
                ("request", Json::num(t.id as f64)),
                ("kind", Json::str(t.kind)),
                ("tenant", Json::str(t.tenant.clone())),
                ("tier", Json::str(t.tier.clone())),
                ("total_us", Json::num(t.total_us as f64)),
                (
                    "spans",
                    Json::Arr(
                        t.spans
                            .iter()
                            .map(|s| {
                                Json::obj([
                                    ("name", Json::str(s.name)),
                                    ("start_us", Json::num(s.start_us as f64)),
                                    ("dur_us", Json::num(s.dur_us as f64)),
                                    ("parent", s.parent.map_or(Json::Null, Json::num)),
                                    ("tag", Json::str(s.tag.clone())),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::num(seed as f64)),
        ("harness_spans", Json::Arr(rendered)),
        ("program_traces", Json::Arr(program)),
        ("attribution", attribution.to_json()),
    ])
}

// -------------------------------------------------------------- replay --

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Nanoseconds per call of `f` over `n` back-to-back calls — for
/// operations too short to time one at a time.
fn per_call_ns(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let started = Instant::now();
    for i in 0..n {
        f(i);
    }
    ns(started.elapsed()) / n.max(1) as f64
}

/// A shard that answers every completion with the same canned list: what
/// is left of a round trip when the model costs nothing.
struct CannedShard(CompletionResult);

impl ShardService for CannedShard {
    fn shard_name(&self) -> String {
        "canned".to_string()
    }
    fn top_k(&self) -> usize {
        10
    }
    fn complete_top(&self, _: &str, _: &str, _: usize) -> Result<CompletionResult, ServerError> {
        Ok(self.0.clone())
    }
    fn run_select_tiered(
        &self,
        _: &str,
        _: &SelectQuery,
        _: usize,
        _: Option<Duration>,
    ) -> Result<Arc<RunPayload>, ServerError> {
        Err(ServerError::Backend(
            "canned shard serves completions only".into(),
        ))
    }
    fn execute_raw(&self, _: &str, _: &Query) -> Result<QueryResult, ServerError> {
        Err(ServerError::Backend(
            "canned shard serves completions only".into(),
        ))
    }
    fn admission_load(&self) -> (usize, usize) {
        (0, 0)
    }
    fn shed_pressure_tier(&self) -> usize {
        0
    }
}

/// Replay `cycles` straight into the layers' public functions, one thread,
/// and time each. Counts taken here repeat exactly from run to run.
pub fn direct(
    single: &SingleBox,
    scripts: &[Question],
    cycles: &[Cycle],
    spans: &SpanLog,
    parent: usize,
) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let pum = &single.pum;
    let graph = single.graph();
    let cache = pum.qcm().cache();
    let config = pum.config();
    let p50 = |v: &mut Vec<f64>| percentile_of(v, 50.0);

    // The sample: every keystroke prefix, every literal, every query.
    let mut prefixes: Vec<String> = cycles
        .iter()
        .flat_map(|c| c.rows.iter().flat_map(Cycle::keystrokes))
        .collect();
    prefixes.sort();
    prefixes.dedup();
    let literals: Vec<&str> = cycles
        .iter()
        .flat_map(|c| c.rows.iter())
        .filter(|r| !r.object.starts_with('?'))
        .map(|r| r.object.as_str())
        .collect();
    let queries: Vec<SelectQuery> = cycles
        .iter()
        .filter_map(|c| {
            Session::resume(pum, c.rows.clone(), c.modifiers.clone(), 0)
                .build_query()
                .ok()
        })
        .collect();

    out.push(("datagen.generate_ms", single.generate_ms));
    out.push(("core.init_ms", single.init_ms));
    out.push((
        "core.init_queries",
        pum.init_stats()
            .iter()
            .map(|(_, s)| s.total_queries())
            .sum::<u64>() as f64,
    ));

    // ---- rdf: range scans per bound shape, partition, snapshot ----
    {
        let stride = (graph.len() / 512).max(1);
        let mut probes = Vec::new();
        let mut i = 0usize;
        graph.for_each_matching(None, None, None, |t| {
            if i.is_multiple_of(stride) {
                probes.push(t);
            }
            i += 1;
            true
        });
        let mut predicates: Vec<TermId> = probes.iter().map(|t| t[1]).collect();
        predicates.sort();
        predicates.dedup();
        let (mut rows, mut scans) = (0u64, 0u64);
        let mut scan = |s, p, o| {
            let mut n = 0u64;
            graph.for_each_matching(s, p, o, |t| {
                std::hint::black_box(t);
                n += 1;
                true
            });
            rows += n;
            scans += 1;
        };
        let (_, by_s) = spans.time("rdf.scan_s", parent, || {
            probes.iter().for_each(|t| scan(Some(t[0]), None, None))
        });
        let (_, by_po) = spans.time("rdf.scan_po", parent, || {
            probes
                .iter()
                .for_each(|t| scan(None, Some(t[1]), Some(t[2])))
        });
        let (_, by_o) = spans.time("rdf.scan_o", parent, || {
            probes.iter().for_each(|t| scan(None, None, Some(t[2])))
        });
        let (_, by_p) = spans.time("rdf.scan_p", parent, || {
            predicates.iter().for_each(|&p| scan(None, Some(p), None))
        });
        let per = |d: Duration, n: usize| ns(d) / 1e3 / n.max(1) as f64;
        out.push(("rdf.scan_s_us", per(by_s, probes.len())));
        out.push(("rdf.scan_po_us", per(by_po, probes.len())));
        out.push(("rdf.scan_o_us", per(by_o, probes.len())));
        out.push(("rdf.scan_p_us", per(by_p, predicates.len())));
        out.push(("rdf.rows_per_scan", rows as f64 / scans.max(1) as f64));

        let (_, split) = spans.time("rdf.partition", parent, || {
            std::hint::black_box(Partitioner::new(SHARDS).split(graph));
        });
        out.push(("rdf.partition_ms", ns(split) / 1e6));
        let (bytes, encode) = spans.time("rdf.snapshot_encode", parent, || {
            snapshot::encode(graph).expect("generated graphs are sealed")
        });
        let (decoded, decode) =
            spans.time("rdf.snapshot_decode", parent, || snapshot::decode(&bytes));
        assert_eq!(
            decoded.map(|g| g.len()).ok(),
            Some(graph.len()),
            "snapshot round trip"
        );
        out.push(("rdf.snapshot_encode_ms", ns(encode) / 1e6));
        out.push(("rdf.snapshot_decode_ms", ns(decode) / 1e6));
        out.push(("rdf.snapshot_bytes", bytes.len() as f64));
    }

    // ---- suffix: build and substring lookup ----
    {
        let strings: Vec<String> = cache.tree.strings().to_vec();
        let (_, build) = spans.time("suffix.build", parent, || {
            std::hint::black_box(SuffixTree::build(strings.iter().cloned()));
        });
        out.push(("suffix.build_ms", ns(build) / 1e6));
        let span = spans.open("suffix.find_containing", Some(parent));
        let mut find: Vec<f64> = prefixes
            .iter()
            .map(|p| {
                let t = Instant::now();
                std::hint::black_box(cache.tree.find_containing(p, config.k));
                ns(t.elapsed())
            })
            .collect();
        spans.close(span);
        out.push(("suffix.find_p50_ns", p50(&mut find)));
    }

    // ---- text: Jaro-Winkler per pair, pool terms × cached literals ----
    {
        let cached: Vec<&str> = (0..cache.bins.len().min(2_048) as u32)
            .map(|i| cache.bins.literal(i))
            .chain(cache.significant.iter().take(512).map(|(s, _)| s.as_str()))
            .collect();
        let pairs = literals.len() * cached.len();
        let (_, took) = spans.time("text.jaro_winkler", parent, || {
            for a in &literals {
                for b in &cached {
                    std::hint::black_box(sapphire_text::jaro_winkler_ci(a, b));
                }
            }
        });
        out.push(("text.jaro_winkler_ns", ns(took) / pairs.max(1) as f64));
    }

    // ---- sparql: parse and evaluate ----
    {
        let (_, parse) = spans.time("sparql.parse", parent, || {
            for q in scripts {
                std::hint::black_box(parse_select(&q.gold_sparql).expect("gold SPARQL parses"));
            }
        });
        out.push((
            "sparql.parse_us",
            ns(parse) / 1e3 / scripts.len().max(1) as f64,
        ));
        let span = spans.open("sparql.evaluate", Some(parent));
        let mut work = 0u64;
        let mut eval: Vec<f64> = queries
            .iter()
            .map(|q| {
                let mut budget = WorkBudget::unlimited();
                let t = Instant::now();
                let _ = std::hint::black_box(evaluate_select(graph, q, &mut budget));
                work += budget.used();
                ns(t.elapsed()) / 1e3
            })
            .collect();
        spans.close(span);
        out.push(("sparql.eval_p50_us", p50(&mut eval)));
        out.push(("sparql.eval_p90_us", percentile_of(&mut eval, 90.0)));
        out.push((
            "sparql.work_units_per_query",
            work as f64 / queries.len().max(1) as f64,
        ));
    }

    // ---- core: cache lookups, QCM, QSM, relaxation ----
    {
        let span = spans.open("core.tree_lookup", Some(parent));
        let mut hits = 0usize;
        let mut tree: Vec<f64> = prefixes
            .iter()
            .map(|p| {
                let t = Instant::now();
                let found = cache.tree_lookup(p, config.k);
                let took = ns(t.elapsed());
                hits += usize::from(!found.is_empty());
                took
            })
            .collect();
        spans.close(span);
        out.push(("core.tree_lookup_p50_ns", p50(&mut tree)));
        out.push((
            "core.tree_hit_share",
            hits as f64 / prefixes.len().max(1) as f64,
        ));

        let span = spans.open("core.residual_lookup", Some(parent));
        let mut residual: Vec<f64> = prefixes
            .iter()
            .map(|p| {
                let t = Instant::now();
                std::hint::black_box(cache.residual_lookup(p, config.gamma, config.processes));
                ns(t.elapsed()) / 1e3
            })
            .collect();
        spans.close(span);
        out.push(("core.residual_lookup_p50_us", p50(&mut residual)));

        let span = spans.open("core.qcm_complete", Some(parent));
        let mut qcm: Vec<f64> = prefixes
            .iter()
            .map(|p| {
                let t = Instant::now();
                std::hint::black_box(pum.complete_top(p, config.k));
                ns(t.elapsed()) / 1e3
            })
            .collect();
        spans.close(span);
        out.push(("core.qcm_complete_p50_us", p50(&mut qcm)));
        out.push(("core.qcm_complete_p90_us", percentile_of(&mut qcm, 90.0)));

        // The sweep behind `literal_alternatives` (which memoizes it).
        let span = spans.open("core.similar_literals", Some(parent));
        let mut sweep: Vec<f64> = literals
            .iter()
            .map(|l| {
                let t = Instant::now();
                std::hint::black_box(cache.similar_literals(
                    l,
                    config.alpha,
                    config.beta,
                    config.theta,
                    config.processes,
                ));
                ns(t.elapsed()) / 1e3
            })
            .collect();
        spans.close(span);
        out.push(("core.literal_alternatives_p50_us", p50(&mut sweep)));

        // QSM on each query; the relaxation inside reports through the
        // server's stage histogram, read around the loop.
        let obs: &Obs = single.server.obs();
        let relax_before = obs.stage_snapshot(Stage::SteinerRelax);
        let cache_before = pum.relax_cache_stats();
        let span = spans.open("core.qsm_suggest", Some(parent));
        let mut qsm: Vec<f64> = queries
            .iter()
            .map(|q| {
                let t = Instant::now();
                std::hint::black_box(pum.qsm().suggest(q, pum.federation()));
                ns(t.elapsed()) / 1e3
            })
            .collect();
        spans.close(span);
        let relax = obs.stage_snapshot(Stage::SteinerRelax).diff(&relax_before);
        let cache_after = pum.relax_cache_stats();
        let charged = (cache_after.queries_executed + cache_after.queries_saved)
            - (cache_before.queries_executed + cache_before.queries_saved);
        out.push(("core.qsm_suggest_p50_us", p50(&mut qsm)));
        out.push(("core.qsm_suggest_p90_us", percentile_of(&mut qsm, 90.0)));
        out.push(("core.relax_p50_us", relax.percentile(50.0) as f64));
        out.push((
            "core.relax_mean_us",
            if relax.count() == 0 {
                0.0
            } else {
                relax.sum as f64 / relax.count() as f64
            },
        ));
        out.push((
            "core.relax_queries_per_run",
            charged as f64 / queries.len().max(1) as f64,
        ));

        // A whole Run (execute + suggest), for the endpoint's ledger.
        let mid = single.endpoint.stats();
        for q in &queries {
            std::hint::black_box(pum.run(q));
        }
        let end = single.endpoint.stats();
        let runs = queries.len().max(1) as f64;
        out.push((
            "endpoint.queries_per_run",
            (end.queries - mid.queries) as f64 / runs,
        ));
        out.push((
            "endpoint.work_units_per_run",
            (end.total_work - mid.total_work) as f64 / runs,
        ));
    }

    // ---- server: the serving tier's primitives, uncontended ----
    {
        let server = &single.server;
        out.push((
            "server.admission_grant_ns",
            per_call_ns(20_000, |_| drop(server.hold_slot().expect("free gate"))),
        ));
        let coalescer: Coalescer<u64, ServerError> = Coalescer::new(16, 1024);
        let keys: Vec<String> = (0..4_096).map(|i| format!("key-{i}")).collect();
        out.push((
            "server.coalesce_join_ns",
            per_call_ns(keys.len(), |i| match coalescer.join(&keys[i]) {
                Join::Leader(token) => token.complete(Ok(Arc::new(i as u64))),
                _ => unreachable!("no concurrent flights"),
            }),
        ));
        let response_cache: ShardedResponseCache<u64> = ShardedResponseCache::new(16, 4_096);
        out.push((
            "server.cache_insert_ns",
            per_call_ns(keys.len(), |i| {
                response_cache.insert(keys[i].clone(), i as u64);
            }),
        ));
        out.push((
            "server.cache_get_ns",
            per_call_ns(keys.len() * 4, |i| {
                std::hint::black_box(response_cache.get(&keys[i % keys.len()]));
            }),
        ));
        let row = &cycles[0].rows[0];
        let modifiers = &cycles[0].modifiers;
        out.push((
            "server.session_ops_ns",
            per_call_ns(4_096, |_| {
                let id = server.open_session("ledger").expect("registry has room");
                server.set_row(id, 0, row.clone()).expect("open session");
                server
                    .set_modifiers(id, modifiers.clone())
                    .expect("open session");
                server.close_session(id);
            }) / 4.0,
        ));
    }

    // ---- cluster merges and the wire codec, on real replies ----
    {
        let k = config.k;
        let completions: Vec<CompletionResult> = prefixes
            .iter()
            .map(|p| pum.complete_top(p, usize::MAX))
            .collect();
        out.push((
            "cluster.merge_completions_ns",
            per_call_ns(completions.len(), |i| {
                let all = &completions[i].suggestions;
                let (a, b) = all.split_at(all.len() / 2);
                std::hint::black_box(merge_completions(vec![a.to_vec(), b.to_vec()], k));
            }),
        ));
        let payloads: Vec<RunPayload> = queries
            .iter()
            .map(|q| {
                let outcome = pum.run(q);
                RunPayload {
                    answers: outcome.answers,
                    executed: outcome.executed,
                    suggestions: Arc::new(outcome.suggestions),
                }
            })
            .collect();
        out.push((
            "cluster.merge_solutions_us",
            per_call_ns(payloads.len(), |i| {
                let rows = &payloads[i].answers;
                let half = |range: std::ops::Range<usize>| sapphire_sparql::Solutions {
                    vars: rows.vars.clone(),
                    rows: rows.rows[range].to_vec(),
                };
                let mid = rows.rows.len() / 2;
                std::hint::black_box(merge_solutions(
                    &queries[i],
                    vec![half(0..mid), half(mid..rows.rows.len())],
                ));
            }) / 1e3,
        ));

        let requests: Vec<WireRequest> = prefixes
            .iter()
            .map(|p| WireRequest::Complete {
                tenant: "client-0".to_string(),
                term: p.clone(),
                fetch: usize::MAX,
            })
            .chain(queries.iter().map(|q| WireRequest::Run {
                tenant: "client-0".to_string(),
                query: q.clone(),
                tier: 0,
                budget: None,
            }))
            .collect();
        let replies: Vec<Result<WireReply, ServerError>> = completions
            .into_iter()
            .map(|c| Ok(WireReply::Completion(c)))
            .chain(payloads.into_iter().map(|p| Ok(WireReply::Run(p))))
            .collect();
        let mut encoded_requests = Vec::new();
        out.push((
            "wire.encode_request_ns",
            per_call_ns(requests.len(), |i| {
                encoded_requests.push(encode_request(&requests[i]))
            }),
        ));
        out.push((
            "wire.decode_request_ns",
            per_call_ns(encoded_requests.len(), |i| {
                std::hint::black_box(decode_request(&encoded_requests[i]).expect("own encoding"));
            }),
        ));
        let mut encoded_replies = Vec::new();
        out.push((
            "wire.encode_reply_ns",
            per_call_ns(replies.len(), |i| {
                encoded_replies.push(encode_reply(LoadHeader::default(), &replies[i]))
            }),
        ));
        out.push((
            "wire.decode_reply_us",
            per_call_ns(encoded_replies.len(), |i| {
                let _ =
                    std::hint::black_box(decode_reply(&encoded_replies[i]).expect("own encoding"));
            }) / 1e3,
        ));
        let bytes: usize = encoded_requests
            .iter()
            .chain(&encoded_replies)
            .map(Vec::len)
            .sum();
        out.push((
            "wire.bytes_per_req",
            bytes as f64 / requests.len().max(1) as f64,
        ));

        // Round trips with nothing behind them: framing, sockets, demux.
        // `echo`: one caller, one connection. `pipelined`: two callers
        // sharing two connections the way two clients of one edge router
        // share its connections to two shards — one caller stays on the
        // first connection, the other alternates between the two (a scatter
        // followed by a single-shard call). That is the case in which a
        // reply is written while the previous reply on the connection is
        // still unacknowledged and its reader has gone elsewhere.
        let canned = || Arc::new(CannedShard(pum.complete_top("a", k))) as Arc<dyn ShardService>;
        let host = || {
            WireServer::serve(canned(), "127.0.0.1:0", WireServerConfig::default())
                .map_err(|e| e.to_string())
                .and_then(|server| {
                    WireClient::connect(server.local_addr(), WireClientConfig::default())
                        .map(|client| (server, client))
                        .map_err(|e| e.to_string())
                })
        };
        match (host(), host()) {
            (Ok((server_a, client_a)), Ok((server_b, client_b))) => {
                let ping = WireRequest::Complete {
                    tenant: "ledger".to_string(),
                    term: "a".to_string(),
                    fetch: k,
                };
                let round_trip = |client: &WireClient| {
                    let t = Instant::now();
                    let reply = client.call(&ping);
                    assert!(reply.is_ok(), "echo round trip: {reply:?}");
                    ns(t.elapsed()) / 1e3
                };
                let span = spans.open("wire.echo", Some(parent));
                let mut rtt: Vec<f64> = (0..2_000).map(|_| round_trip(&client_a)).collect();
                spans.close(span);
                out.push(("wire.echo_rtt_p50_us", p50(&mut rtt)));

                let span = spans.open("wire.pipelined", Some(parent));
                let mut shared: Vec<f64> = std::thread::scope(|scope| {
                    let callers: Vec<_> = (0..2)
                        .map(|caller| {
                            let (a, b) = (&client_a, &client_b);
                            let round_trip = &round_trip;
                            scope.spawn(move || {
                                (0..500)
                                    .map(|i| {
                                        round_trip(if caller == 0 || i % 2 == 0 { a } else { b })
                                    })
                                    .collect::<Vec<f64>>()
                            })
                        })
                        .collect();
                    callers
                        .into_iter()
                        .flat_map(|c| c.join().expect("echo callers never panic"))
                        .collect()
                });
                spans.close(span);
                out.push((
                    "wire.pipelined_rtt_p90_us",
                    percentile_of(&mut shared, 90.0),
                ));
                drop((client_a, client_b));
                server_a.shutdown();
                server_b.shutdown();
            }
            (Err(e), _) | (_, Err(e)) => eprintln!("wire echo unavailable: {e}"),
        }
    }

    // ---- obs: the cost of one stage observation ----
    {
        let obs = Obs::new();
        out.push((
            "obs.record_ns",
            per_call_ns(1_000_000, |i| obs.record(Stage::QcmScan, (i & 1023) as u64)),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_counts_overlap_once_and_clips() {
        let mut v = vec![(0, 10), (5, 15), (20, 30), (40, 35)];
        assert_eq!(union_len(&mut v, 0, 100), 25);
        let mut v = vec![(0, 10), (5, 15)];
        assert_eq!(union_len(&mut v, 8, 12), 4);
        assert_eq!(union_len(&mut Vec::new(), 0, 10), 0);
    }
}
