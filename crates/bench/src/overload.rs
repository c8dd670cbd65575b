//! Open-loop overload harness: `serve_load --overload` and the CI
//! graceful-degradation smoke gate.
//!
//! The closed-loop harnesses ([`crate::serve`], [`crate::cluster`])
//! self-throttle: a simulated user never issues its next request until the
//! previous one returns, so the *offered* load silently adapts to capacity
//! and the system is never pushed past saturation — coordinated omission
//! by construction. This module drives the opposite posture. A
//! deterministic-seed Poisson process ([`poisson_schedule`]) fixes every
//! arrival instant up front at a configured offered rate; a launcher pool
//! fires each arrival at its scheduled time whether or not earlier
//! requests have completed; and the offered rate is swept across multiples
//! of the measured closed-loop capacity, past saturation. Latency is
//! measured from the *scheduled* arrival, not the launch, so a backed-up
//! launcher pool cannot hide queueing delay.
//!
//! Past saturation the contract is *graceful degradation*, and the report's
//! `overload` section (sweep totals) and `step<N>` sections measure exactly
//! that, per sweep step:
//!
//! * **goodput** — completed requests per second (degraded answers count:
//!   they are correct, just shallower);
//! * **typed rejections** — `Overloaded` / `QueueTimeout` per class;
//!   anything untyped is a failure the CI gate holds at zero;
//! * **degraded tiers** — merges served at QSM shed tier 1/2, from the
//!   router-requested degradation loop ([`DegradePolicy`] at the edge,
//!   [`qsm_shed_budget`](sapphire_server::ServerConfig::qsm_shed_budget)
//!   on the shards);
//! * **stage tails** — p99 `admission_wait`, `coalesce_wait`, and
//!   `end_to_end` over the step interval, from histogram snapshot
//!   differences ([`Snapshot::diff`]) across the edge and every shard
//!   replica;
//! * **tier hygiene** — after the sweep drains, a sample of the queries
//!   that were served degraded is re-issued at tier 0; a degraded answer
//!   then means a tier-keyed cache leaked across tiers
//!   (`tier_mix_violations`, gated at zero).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sapphire_cluster::{Cluster, ClusterConfig, ClusterRouter, DegradePolicy};
use sapphire_core::exec::Executor;
use sapphire_core::session::{Modifiers, TripleInput};
use sapphire_core::PredictiveUserModel;
use sapphire_datagen::generate;
use sapphire_datagen::workload::appendix_b;
use sapphire_endpoint::Backoff;
use sapphire_obs::{MetricsHub, Snapshot, Stage};
use sapphire_server::ServerConfig;
use sapphire_sparql::SelectQuery;
use sapphire_text::Lexicon;

use crate::cluster::{flatten, resolve};
use crate::serve::ClassStats;
use crate::{dataset_for, experiment_config};

/// Everything the open-loop harness can be asked to do.
#[derive(Debug, Clone)]
pub struct OverloadOptions {
    /// Dataset scale (`tiny`/`small`/`medium`).
    pub scale: String,
    /// Data shards.
    pub shards: usize,
    /// Replicas per shard.
    pub replicas: usize,
    /// Launcher threads firing scheduled arrivals. This bounds *concurrent*
    /// requests, not offered load — when every launcher is stuck waiting on
    /// a saturated shard, later arrivals launch late and the lateness is
    /// counted (`late_launches`), not hidden.
    pub launchers: usize,
    /// Offered load at each sweep step, as a multiple of the calibrated
    /// closed-loop capacity. Must be non-decreasing and should extend well
    /// past `1.0` — the whole point is to observe the past-saturation side
    /// of the curve.
    pub steps: Vec<f64>,
    /// Wall-clock length of each sweep step's arrival schedule.
    pub step: Duration,
    /// Closed-loop requests used to measure capacity before the sweep.
    pub calibration_requests: usize,
    /// Seed of the arrival process (each step derives its own stream).
    pub seed: u64,
    /// Edge deadline budget per request ([`DegradePolicy::deadline`]).
    pub deadline: Duration,
    /// Degraded-served queries re-issued at tier 0 after the sweep drains,
    /// to prove tier-keyed caches never leak across tiers.
    pub tier_mix_sample: usize,
}

impl Default for OverloadOptions {
    fn default() -> Self {
        OverloadOptions {
            scale: "tiny".to_string(),
            shards: 2,
            replicas: 2,
            launchers: 64,
            steps: vec![0.5, 1.0, 1.5, 2.5, 4.0],
            step: Duration::from_millis(2_000),
            calibration_requests: 256,
            seed: 42,
            deadline: Duration::from_millis(250),
            tier_mix_sample: 16,
        }
    }
}

impl OverloadOptions {
    /// The bounded configuration the CI smoke gate runs: a 2x2 cluster,
    /// short steps, a small calibration phase — seconds, not minutes.
    pub fn smoke() -> Self {
        OverloadOptions {
            launchers: 32,
            steps: vec![0.5, 1.0, 2.0, 3.0],
            step: Duration::from_millis(500),
            calibration_requests: 64,
            ..Self::default()
        }
    }
}

/// Deterministic xorshift64* stream for the arrival process. Not a crypto
/// PRNG and not `rand` — the schedule must be reproducible byte-for-byte
/// from the seed alone, on every platform, with no external dependency.
#[derive(Debug, Clone)]
pub struct ArrivalGen {
    state: u64,
}

impl ArrivalGen {
    /// A generator seeded from `seed` (`| 1` keeps the state nonzero —
    /// xorshift fixes at zero).
    pub fn new(seed: u64) -> Self {
        ArrivalGen { state: seed | 1 }
    }

    fn next_u64(&mut self) -> u64 {
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        self.state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform on `(0, 1]` — the open end at zero matters because the
    /// exponential transform takes `ln(u)`.
    fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / 9_007_199_254_740_992.0
    }

    /// The next exponential inter-arrival gap in nanoseconds at `rate_rps`.
    pub fn next_gap_ns(&mut self, rate_rps: f64) -> f64 {
        -self.next_unit().ln() / rate_rps * 1e9
    }
}

/// The full arrival schedule for one sweep step: nanosecond offsets from
/// the step start, strictly within `horizon`, Poisson at `rate_rps`.
///
/// Offsets accumulate in `f64` nanoseconds (53-bit mantissa — exact to the
/// nanosecond for any realistic step length), so the schedule has no
/// cumulative drift: the arrival *count* over the horizon concentrates at
/// `rate * horizon` even at millions of arrivals per second, instead of
/// drifting with per-gap rounding error.
pub fn poisson_schedule(seed: u64, rate_rps: f64, horizon: Duration) -> Vec<u64> {
    let mut gen = ArrivalGen::new(seed);
    let horizon_ns = horizon.as_nanos() as f64;
    let mut at = 0.0f64;
    let mut out = Vec::new();
    loop {
        at += gen.next_gap_ns(rate_rps);
        if at >= horizon_ns {
            return out;
        }
        out.push(at as u64);
    }
}

/// Builds a unique, *relaxable* query per arrival.
///
/// Uniqueness cannot come from modifiers: the scatter strips projection
/// and slice before the shard hop (`star_pattern_query`), so two arrivals
/// differing only in `LIMIT` would collapse onto one shard run-cache key
/// and measure the cache, not the serving path. Instead each arrival
/// mutates one *object literal* of an Appendix-B question (suffix `~N`) —
/// a distinct query that misses every cache, executes, and exercises the
/// QSM alternative/relaxation machinery the shed ladder actually degrades.
/// Only questions with at least two literal rows qualify (fewer and the
/// QSM has nothing to relax, so the tier is forced to 0 and degradation
/// would be invisible).
struct QueryFactory {
    models: Vec<Arc<PredictiveUserModel>>,
    bases: Vec<(Vec<TripleInput>, Modifiers)>,
    fallbacks: Vec<SelectQuery>,
}

impl QueryFactory {
    fn build(cluster: &Cluster) -> QueryFactory {
        let models: Vec<Arc<PredictiveUserModel>> = (0..cluster.shard_count())
            .map(|s| cluster.replicas(s)[0].model().clone())
            .collect();
        let mut bases = Vec::new();
        let mut fallbacks = Vec::new();
        for q in appendix_b() {
            let literal_rows = q
                .script
                .rows
                .iter()
                .filter(|r| !r.object.starts_with('?'))
                .count();
            if literal_rows < 2 {
                continue;
            }
            let modifiers = q.script.modifiers();
            if let Some(query) = resolve(&models, &q.script.rows, &modifiers) {
                bases.push((q.script.rows.clone(), modifiers));
                fallbacks.push(query);
            }
        }
        assert!(
            !bases.is_empty(),
            "the Appendix-B workload has relaxable (>= 2 literal rows) questions"
        );
        QueryFactory {
            models,
            bases,
            fallbacks,
        }
    }

    /// The query for arrival number `serial` (process-wide, so no two
    /// arrivals in any phase share a cache key).
    fn unique(&self, serial: usize) -> SelectQuery {
        let slot = serial % self.bases.len();
        let (rows, modifiers) = &self.bases[slot];
        let mut rows = rows.clone();
        if let Some(row) = rows.iter_mut().rev().find(|r| !r.object.starts_with('?')) {
            row.object = format!("{}~{serial}", row.object);
        }
        resolve(&self.models, &rows, modifiers).unwrap_or_else(|| self.fallbacks[slot].clone())
    }
}

/// One sweep step's measured outcome.
struct StepOutcome {
    offered_rps: f64,
    arrivals: usize,
    stats: ClassStats,
    wall: Duration,
    late_launches: u64,
    degraded: u64,
    degraded_by_tier: Vec<u64>,
    admission_p99_us: u64,
    coalesce_p99_us: u64,
    end_to_end_p99_us: u64,
}

/// A stage histogram summed across the edge and every shard replica — the
/// interval view (`Snapshot::diff` of two of these) localizes which tier a
/// step saturated.
fn cluster_stage_snapshot(router: &ClusterRouter, stage: Stage) -> Snapshot {
    let mut snap = router.obs().stage_snapshot(stage);
    for shard in router.cluster().shards() {
        for replica in shard {
            snap.merge(&replica.obs().stage_snapshot(stage));
        }
    }
    snap
}

/// Fire one step's schedule through the launcher pool and measure it. The
/// pool is a dedicated [`Executor`] sized to the launcher count and reused
/// across calibration and every sweep step — the pre-executor code spawned
/// `launchers` scoped threads per phase.
#[allow(clippy::too_many_arguments)]
fn run_step(
    exec: &Executor,
    router: &Arc<ClusterRouter>,
    factory: &QueryFactory,
    schedule: Vec<u64>,
    offered_rps: f64,
    serial_base: usize,
    launchers: usize,
    degraded_sample: &Mutex<Vec<usize>>,
    sample_cap: usize,
) -> StepOutcome {
    // Prebuild every arrival's query so model resolution never delays a
    // launch; the launcher loop only sleeps, fires, and records.
    let arrivals: Vec<SelectQuery> = (0..schedule.len())
        .map(|i| factory.unique(serial_base + i))
        .collect();
    let admission_before = cluster_stage_snapshot(router, Stage::AdmissionWait);
    let coalesce_before = cluster_stage_snapshot(router, Stage::CoalesceWait);
    let end_to_end_before = cluster_stage_snapshot(router, Stage::EndToEnd);
    let metrics_before = router.metrics();

    // The launchers' closure owns what they share (`run` holds it in one
    // `Arc`); each launcher counts its own late launches and degraded runs.
    let (next, started, launch_router) = (AtomicUsize::new(0), Instant::now(), Arc::clone(router));
    let arrival_count = schedule.len();
    let launcher_outs = exec.run(launchers, move |launcher| {
        let tenant = format!("open-{launcher}");
        let (mut stats, mut sampled, mut late, mut degraded) =
            (ClassStats::default(), Vec::new(), 0u64, 0u64);
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= arrivals.len() {
                return (stats, sampled, late, degraded);
            }
            let target = started + Duration::from_nanos(schedule[i]);
            let now = Instant::now();
            if now < target {
                std::thread::sleep(target - now);
            } else if now > target + Duration::from_millis(5) {
                late += 1;
            }
            let outcome = launch_router.run(&tenant, &arrivals[i]);
            if let Ok(run) = &outcome {
                if run.degraded {
                    degraded += 1;
                    if sampled.len() < 4 {
                        sampled.push(i);
                    }
                }
            }
            // Latency from the *scheduled* arrival: a late launch is
            // queueing delay the client would have seen, not noise.
            stats.record(target, &flatten(outcome.map(|_| ())));
        }
    });
    let (mut stats, mut late_launches, mut degraded) = (ClassStats::default(), 0, 0);
    for (s, sampled, late, degraded_runs) in launcher_outs {
        stats.merge(s);
        late_launches += late;
        degraded += degraded_runs;
        let mut sample = degraded_sample.lock().expect("sample lock");
        for i in sampled {
            if sample.len() >= sample_cap {
                break;
            }
            sample.push(serial_base + i);
        }
    }
    let wall = started.elapsed();

    let metrics_after = router.metrics();
    let degraded_by_tier: Vec<u64> = metrics_after
        .degraded_by_tier
        .iter()
        .zip(metrics_before.degraded_by_tier.iter())
        .map(|(now, then)| now.saturating_sub(*then))
        .collect();
    StepOutcome {
        offered_rps,
        arrivals: arrival_count,
        stats,
        wall,
        late_launches,
        degraded,
        degraded_by_tier,
        admission_p99_us: cluster_stage_snapshot(router, Stage::AdmissionWait)
            .diff(&admission_before)
            .percentile(99.0),
        coalesce_p99_us: cluster_stage_snapshot(router, Stage::CoalesceWait)
            .diff(&coalesce_before)
            .percentile(99.0),
        end_to_end_p99_us: cluster_stage_snapshot(router, Stage::EndToEnd)
            .diff(&end_to_end_before)
            .percentile(99.0),
    }
}

/// Run the calibration phase plus the offered-load sweep and return the
/// report (with the `overload` section the CI gate reads).
pub fn run(opts: &OverloadOptions) -> MetricsHub {
    assert!(
        opts.steps.windows(2).all(|w| w[0] <= w[1]),
        "the offered-load sweep must be non-decreasing"
    );
    let dataset = dataset_for(&opts.scale);
    eprintln!(
        "(generating dataset + initializing {} shard models x {} replicas…)",
        opts.shards, opts.replicas
    );
    let graph = generate(dataset);
    let triple_count = graph.len();
    // Small, hardware-independent admission gates: the sweep must be able
    // to reach saturation on any CI box, so capacity is bounded by
    // configuration, not cores. Shards opt into the local shed ladder —
    // the router-requested tier and the shard's own pressure tier compose.
    let server_config = ServerConfig {
        max_in_flight: 4,
        max_queue_depth: 16,
        queue_wait: Duration::from_millis(100),
        qsm_shed_budget: true,
        ..ServerConfig::default()
    };
    let cluster = Cluster::build(
        "overload-edge",
        &graph,
        opts.shards,
        opts.replicas,
        &Lexicon::dbpedia_default(),
        &experiment_config(),
        &server_config,
    )
    .expect("shard initialization");
    // The edge requests degradation itself (queue pressure + remaining
    // deadline) and propagates the budget; hedging is off and retry
    // minimal so each request's lifetime stays bounded under overload —
    // the launcher pool must keep draining.
    let router = Arc::new(ClusterRouter::new(
        cluster,
        ClusterConfig {
            hedge_after: None,
            backoff: Backoff {
                max_retries: 1,
                ..Backoff::default()
            },
            degrade: Some(DegradePolicy {
                deadline: opts.deadline,
            }),
            ..ClusterConfig::default()
        },
    ));
    let factory = QueryFactory::build(router.cluster());
    let mut serial = 0usize;
    // One launcher pool for the whole run — calibration and every sweep
    // step reuse it instead of spawning a fresh scoped pool per phase.
    let exec = Executor::new(opts.launchers);

    // --- Calibration: closed-loop capacity under the same unique-query
    // workload. Sets the sweep's rate scale; the sweep re-measures goodput.
    eprintln!(
        "(calibrating closed-loop capacity over {} requests…)",
        opts.calibration_requests
    );
    let calibration: Vec<SelectQuery> = (0..opts.calibration_requests)
        .map(|i| factory.unique(serial + i))
        .collect();
    serial += opts.calibration_requests;
    let next = AtomicUsize::new(0);
    let calibrated = Instant::now();
    let calibrating = Arc::clone(&router);
    let launchers = opts.launchers.min(opts.calibration_requests);
    let completed: u64 = exec
        .run(launchers, move |launcher| {
            let tenant = format!("calibrate-{launcher}");
            let mut done = 0u64;
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= calibration.len() {
                    return done;
                }
                if calibrating.run(&tenant, &calibration[i]).is_ok() {
                    done += 1;
                }
            }
        })
        .into_iter()
        .sum();
    let calibrated_rps = (completed as f64 / calibrated.elapsed().as_secs_f64().max(1e-9)).max(1.0);
    eprintln!("(calibrated capacity: {calibrated_rps:.1} rps)");

    // --- The sweep: one open-loop step per capacity multiple.
    let degraded_sample = Mutex::new(Vec::new());
    let mut outcomes: Vec<StepOutcome> = Vec::new();
    for (step_index, multiple) in opts.steps.iter().enumerate() {
        let offered = (calibrated_rps * multiple).max(1.0);
        let schedule = poisson_schedule(
            opts.seed.wrapping_add(step_index as u64),
            offered,
            opts.step,
        );
        eprintln!(
            "(step {step_index}: {:.2}x capacity = {offered:.1} rps offered, {} arrivals…)",
            multiple,
            schedule.len()
        );
        let outcome = run_step(
            &exec,
            &router,
            &factory,
            schedule,
            offered,
            serial,
            opts.launchers,
            &degraded_sample,
            opts.tier_mix_sample,
        );
        serial += outcome.arrivals;
        outcomes.push(outcome);
    }

    // --- Tier hygiene: the sweep has drained (every launcher joined), so a
    // tier-0 re-issue of a query that was served degraded must come back at
    // full fidelity — the degraded payload lives under a different cache
    // key at every layer, or this counts a violation.
    let sample = degraded_sample.into_inner().expect("sample lock");
    let mut tier_mix_violations = 0u64;
    for serial in &sample {
        let query = factory.unique(*serial);
        match router.run("tier-audit", &query) {
            Ok(run) => {
                if run.degraded || run.tier != 0 {
                    tier_mix_violations += 1;
                }
            }
            Err(_) => tier_mix_violations += 1,
        }
    }

    // --- The report.
    let goodputs: Vec<f64> = outcomes
        .iter()
        .map(|o| o.stats.latencies_us.len() as f64 / o.wall.as_secs_f64().max(1e-9))
        .collect();
    let peak_goodput = goodputs.iter().cloned().fold(0.0f64, f64::max);
    let past_saturation_goodput = goodputs.last().copied().unwrap_or(0.0);
    let goodput_floor_ratio = if peak_goodput > 0.0 {
        past_saturation_goodput / peak_goodput
    } else {
        0.0
    };
    let monotone_offered = outcomes
        .windows(2)
        .all(|w| w[0].offered_rps <= w[1].offered_rps);
    let untyped_failures: u64 = outcomes.iter().map(|o| o.stats.typed_counts().2).sum();
    let late_launches: u64 = outcomes.iter().map(|o| o.late_launches).sum();

    let mut hub = MetricsHub::new();
    hub.section("summary")
        .field("benchmark", "serve_overload")
        .field("calibrated_rps", calibrated_rps);
    hub.section("config")
        .field("scale", opts.scale.as_str())
        .field("shards", opts.shards)
        .field("replicas", opts.replicas)
        .field("launchers", opts.launchers)
        .field("seed", opts.seed)
        .field("step_ms", opts.step.as_millis() as u64)
        .field("deadline_ms", opts.deadline.as_millis() as u64)
        .field("calibration_requests", opts.calibration_requests)
        .field("triples", triple_count);
    hub.section("overload")
        .field("peak_goodput_rps", peak_goodput)
        .field("past_saturation_goodput_rps", past_saturation_goodput)
        .field("goodput_floor_ratio", goodput_floor_ratio)
        .field("untyped_failures", untyped_failures)
        .field("tier_mix_violations", tier_mix_violations)
        .field("tier_mix_sample", sample.len())
        .field("monotone_offered", u64::from(monotone_offered))
        .field("late_launches", late_launches)
        .field("steps", outcomes.len());
    for (index, (o, goodput)) in outcomes.iter().zip(&goodputs).enumerate() {
        let (overloaded, queue_timeout, invalid) = o.stats.typed_counts();
        let step = hub.section(&format!("step{index}"));
        step.field("offered_rps", o.offered_rps)
            .field("arrivals", o.arrivals)
            .field("completed", o.stats.latencies_us.len())
            .field("goodput_rps", *goodput)
            .field("wall_seconds", o.wall.as_secs_f64())
            .field("degraded", o.degraded);
        for (tier, runs) in o.degraded_by_tier.iter().enumerate().skip(1) {
            step.field(&format!("degraded_tier{tier}"), *runs);
        }
        step.field("rejected_overloaded", overloaded)
            .field("rejected_queue_timeout", queue_timeout)
            .field("untyped", invalid)
            .field("late_launches", o.late_launches)
            .field("admission_wait_p99_us", o.admission_p99_us)
            .field("coalesce_wait_p99_us", o.coalesce_p99_us)
            .field("end_to_end_p99_us", o.end_to_end_p99_us);
    }
    // Sweep-wide routing and degraded-merge counters (total and per tier),
    // and the edge router's cumulative stages: the router's own export.
    hub.merge(router.export_metrics());
    hub
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let a = poisson_schedule(7, 500.0, Duration::from_millis(200));
        let b = poisson_schedule(7, 500.0, Duration::from_millis(200));
        assert_eq!(a, b, "same seed, same schedule, byte for byte");
        assert!(!a.is_empty());
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "offsets are ordered");
        assert!(
            *a.last().unwrap() < 200_000_000,
            "every offset stays inside the horizon"
        );
    }

    #[test]
    fn schedules_diverge_across_seeds() {
        let a = poisson_schedule(1, 500.0, Duration::from_millis(200));
        let b = poisson_schedule(2, 500.0, Duration::from_millis(200));
        assert_ne!(a, b, "different seeds must give different arrival streams");
    }

    #[test]
    fn high_rate_schedule_has_no_cumulative_drift() {
        // A drifting accumulator would show up as a biased arrival count;
        // at 1M arrivals/s over one second the Poisson count concentrates
        // tightly (sigma = 1000), so +/- 1% is a > 10-sigma corridor that
        // only systematic drift can escape.
        let rate = 1_000_000.0;
        let schedule = poisson_schedule(42, rate, Duration::from_secs(1));
        let n = schedule.len() as f64;
        assert!(
            (n - rate).abs() < rate * 0.01,
            "expected ~{rate} arrivals, got {n}"
        );
        // And the schedule keeps nanosecond-exact ordering to the end.
        assert!(schedule.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn unit_samples_stay_in_the_open_interval() {
        let mut gen = ArrivalGen::new(0); // `| 1` rescues the all-zero seed
        for _ in 0..10_000 {
            let u = gen.next_unit();
            assert!(u > 0.0 && u <= 1.0, "u = {u}");
        }
    }
}
