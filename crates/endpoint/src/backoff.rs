//! Typed retry/backoff for overloaded services.
//!
//! [`EndpointError::Overloaded`] is back-pressure, not failure: the service
//! is telling the caller to come back later. [`Backoff`] is the policy —
//! bounded attempts, a jittered delay that grows exponentially in
//! expectation, the rejection's own
//! [retry-after hint](EndpointError::retry_after) as its floor — and
//! [`Backoff::run`] is the one loop that applies it. Its caller is the
//! cluster router's shard call, which every request to a shard goes through
//! (scatter, targeted, and each sub-query of a cross-shard bound join).
//!
//! **Jitter.** A bare exponential schedule is a synchronization machine:
//! every caller shed by the same overloaded replica computes the same
//! delays, so the whole cohort returns in lock-step and re-saturates the
//! gate together (coalesced followers that fall back to their own scatter
//! are exactly such a cohort). `Jitter` decorrelates them with the
//! AWS-style "decorrelated jitter" schedule — each wait is drawn uniformly
//! from `[base, 3 × previous]`, clamped to `[base, max_delay]` — using a
//! tiny deterministic SplitMix64 stream seeded per caller, so retry timing
//! is reproducible in tests without any `rand` dependency.

use std::time::Duration;

use crate::endpoint::EndpointError;

/// A deterministic per-caller jitter stream (SplitMix64).
///
/// Cheap to construct, `Copy`-free on purpose (each caller owns and
/// advances its own stream): two callers with different seeds produce
/// different retry schedules, which is the whole point.
#[derive(Debug, Clone)]
struct Jitter {
    state: u64,
    prev: Duration,
}

impl Jitter {
    /// A jitter stream for one caller. Distinct seeds give distinct
    /// schedules; the same seed replays the same schedule (deterministic
    /// tests).
    fn new(seed: u64) -> Self {
        Jitter {
            // Pre-mix so seeds 0,1,2,… start from well-spread states.
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
            prev: Duration::ZERO,
        }
    }

    /// Next uniform sample in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        // SplitMix64 step.
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl EndpointError {
    /// The error's retry-after hint: how long the *rejecting side* suggests
    /// waiting before a retry. `Some` only for back-pressure rejections.
    ///
    /// An overloaded service with more requests in flight suggests a longer
    /// wait (1ms per in-flight request, floored at 1ms, capped at 50ms) —
    /// a crude but monotone congestion signal. Everything else (`Timeout`,
    /// `Rejected`, parse/eval errors) is not retryable as-is: retrying the
    /// same query against the same limits fails the same way.
    pub fn retry_after(&self) -> Option<Duration> {
        match self {
            EndpointError::Overloaded { in_flight } => {
                Some(Duration::from_millis((*in_flight as u64).clamp(1, 50)))
            }
            // A transport failure carries no congestion signal: suggest the
            // minimum wait and let the caller's own backoff schedule grow it.
            // Retryable because the failure is about the *path*, not the
            // query — the next replica (or a reconnect) may answer.
            EndpointError::Unreachable { .. } => Some(Duration::from_millis(1)),
            _ => None,
        }
    }
}

/// A bounded, jittered backoff policy for typed overload rejections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// Retries after the initial attempt (`0` = try once, never retry).
    pub max_retries: u32,
    /// Shortest delay before a retry; the first is drawn from `[base, 3 ×
    /// base]`, each later one from `[base, 3 × the previous]`.
    pub base: Duration,
    /// Upper bound on any single delay.
    pub max_delay: Duration,
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff {
            max_retries: 3,
            base: Duration::from_millis(1),
            max_delay: Duration::from_millis(100),
        }
    }
}

impl Backoff {
    /// A policy that never retries (useful to disable retry in one place
    /// without restructuring the call site).
    pub fn none() -> Self {
        Backoff {
            max_retries: 0,
            ..Self::default()
        }
    }

    /// The decorrelated-jittered wait before the next retry, honoring the
    /// rejection's retry-after `hint` as a floor and
    /// [`max_delay`](Self::max_delay) as the cap.
    ///
    /// The schedule (per caller, via its own `Jitter` stream):
    /// `next = uniform(base, 3 × prev)` clamped to `[base, max_delay]`,
    /// with `prev` starting at `base`. Growth is exponential *in
    /// expectation* but no two callers walk the same sequence — a shed
    /// cohort spreads out instead of returning in lock-step.
    fn jittered_wait(&self, hint: Duration, jitter: &mut Jitter) -> Duration {
        let base = self.base.max(Duration::from_nanos(1));
        let prev = if jitter.prev.is_zero() {
            base
        } else {
            jitter.prev
        };
        let span = prev
            .saturating_mul(3)
            .min(self.max_delay)
            .saturating_sub(base);
        let drawn = base + span.mul_f64(jitter.next_f64());
        let wait = drawn.max(hint).min(self.max_delay);
        jitter.prev = wait.max(base);
        wait
    }

    /// The one retry loop: run `op` until it succeeds, fails with an error
    /// `retry_after` has no hint for, or has been retried
    /// [`max_retries`](Self::max_retries) times — sleeping a
    /// decorrelated-jittered wait (see the module docs) from the caller's
    /// own stream (`seed`) before each retry, so concurrent callers shed by
    /// the same replica do not come back in lock-step. The last
    /// error returns unchanged, so callers still see the typed rejection.
    ///
    /// `op` receives the 0-based attempt number, letting callers vary the
    /// target per attempt (the cluster router fails over to another
    /// replica). `retry_after` is asked once per failure, after it: the
    /// rejecting side's hint ([`EndpointError::retry_after`] for endpoint
    /// errors), or `None` to stop — the router also stops once its
    /// request's deadline budget is spent.
    pub fn run<T, E>(
        &self,
        seed: u64,
        mut op: impl FnMut(u32) -> Result<T, E>,
        retry_after: impl Fn(&E) -> Option<Duration>,
    ) -> Result<T, E> {
        let mut jitter = Jitter::new(seed);
        let mut attempt = 0;
        loop {
            let error = match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            match retry_after(&error) {
                Some(hint) if attempt < self.max_retries => {
                    std::thread::sleep(self.jittered_wait(hint, &mut jitter));
                    attempt += 1;
                }
                _ => return Err(error),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn overloaded(in_flight: usize) -> EndpointError {
        EndpointError::Overloaded { in_flight }
    }

    #[test]
    fn retry_after_hint_only_for_overload() {
        assert_eq!(
            overloaded(3).retry_after(),
            Some(Duration::from_millis(3)),
            "hint scales with in-flight count"
        );
        assert_eq!(
            overloaded(0).retry_after(),
            Some(Duration::from_millis(1)),
            "floored so a hint is never zero"
        );
        assert_eq!(
            overloaded(10_000).retry_after(),
            Some(Duration::from_millis(50)),
            "capped"
        );
        assert_eq!(EndpointError::Timeout { work_used: 9 }.retry_after(), None);
        assert_eq!(
            EndpointError::Rejected { estimated_cost: 9 }.retry_after(),
            None
        );
        assert_eq!(EndpointError::Parse("x".into()).retry_after(), None);
    }

    /// Regression (issue 4 satellite): retry waits must not be a pure
    /// function of the attempt number, or every caller shed together
    /// retries together. With jitter, two callers (distinct seeds) walk
    /// different schedules; the same seed replays the same schedule.
    #[test]
    fn jittered_waits_are_decorrelated_across_callers_and_deterministic() {
        let b = Backoff {
            max_retries: 8,
            base: Duration::from_millis(2),
            max_delay: Duration::from_millis(100),
        };
        let schedule = |seed: u64| -> Vec<Duration> {
            let mut j = Jitter::new(seed);
            (0..8)
                .map(|_| b.jittered_wait(Duration::from_millis(1), &mut j))
                .collect()
        };
        let a = schedule(1);
        let c = schedule(2);
        assert_eq!(a, schedule(1), "same seed, same schedule");
        assert_ne!(a, c, "different callers, different schedules");
        // Lock-step is the bug: pre-fix, every caller's wait for attempt i
        // was exactly `base * 2^i` — identical across callers.
        let fixed: Vec<Duration> = (0..8)
            .map(|i| (b.base * (1 << i)).min(b.max_delay))
            .collect();
        assert_ne!(a, fixed, "jitter diverges from the fixed schedule");
    }

    #[test]
    fn jittered_waits_stay_within_the_policy_bounds() {
        let b = Backoff {
            max_retries: 64,
            base: Duration::from_millis(2),
            max_delay: Duration::from_millis(20),
        };
        for seed in 0..32 {
            let mut j = Jitter::new(seed);
            for i in 0..64 {
                let w = b.jittered_wait(Duration::from_millis(1), &mut j);
                assert!(
                    w >= b.base && w <= b.max_delay,
                    "seed {seed} attempt {i}: {w:?} outside [{:?}, {:?}]",
                    b.base,
                    b.max_delay
                );
            }
        }
    }

    #[test]
    fn jittered_wait_honors_the_retry_after_hint_as_a_floor() {
        let b = Backoff {
            max_retries: 4,
            base: Duration::from_millis(1),
            max_delay: Duration::from_millis(100),
        };
        for seed in 0..16 {
            let mut j = Jitter::new(seed);
            let w = b.jittered_wait(overloaded(40).retry_after().unwrap(), &mut j);
            assert!(
                w >= Duration::from_millis(40),
                "hint floors the wait: {w:?}"
            );
            assert!(w <= b.max_delay);
        }
    }

    #[test]
    fn run_jittered_keeps_the_typed_retry_semantics() {
        let calls = AtomicU32::new(0);
        let b = Backoff {
            max_retries: 5,
            base: Duration::from_micros(10),
            max_delay: Duration::from_micros(50),
        };
        let result = b.run(
            7,
            |attempt| {
                calls.fetch_add(1, Ordering::Relaxed);
                if attempt < 2 {
                    Err(overloaded(1))
                } else {
                    Ok(attempt)
                }
            },
            EndpointError::retry_after,
        );
        assert_eq!(result, Ok(2));
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        // Non-retryable errors still short-circuit.
        let calls = AtomicU32::new(0);
        let result: Result<(), _> = b.run(
            7,
            |_| {
                calls.fetch_add(1, Ordering::Relaxed);
                Err(EndpointError::Timeout { work_used: 1 })
            },
            EndpointError::retry_after,
        );
        assert_eq!(result, Err(EndpointError::Timeout { work_used: 1 }));
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn run_retries_overload_until_success() {
        let calls = AtomicU32::new(0);
        let b = Backoff {
            max_retries: 5,
            base: Duration::from_micros(10),
            max_delay: Duration::from_micros(50),
        };
        let result = b.run(
            0,
            |attempt| {
                calls.fetch_add(1, Ordering::Relaxed);
                if attempt < 2 {
                    Err(overloaded(1))
                } else {
                    Ok(attempt)
                }
            },
            EndpointError::retry_after,
        );
        assert_eq!(result, Ok(2));
        assert_eq!(calls.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn run_gives_up_after_budget_with_the_typed_error() {
        let calls = AtomicU32::new(0);
        let b = Backoff {
            max_retries: 2,
            base: Duration::from_micros(10),
            max_delay: Duration::from_micros(50),
        };
        let result: Result<(), _> = b.run(
            0,
            |_| {
                calls.fetch_add(1, Ordering::Relaxed);
                Err(overloaded(4))
            },
            EndpointError::retry_after,
        );
        assert_eq!(result, Err(overloaded(4)), "last typed error surfaces");
        assert_eq!(calls.load(Ordering::Relaxed), 3, "1 attempt + 2 retries");
    }

    #[test]
    fn run_never_retries_non_retryable_errors() {
        let calls = AtomicU32::new(0);
        let result: Result<(), _> = Backoff::default().run(
            0,
            |_| {
                calls.fetch_add(1, Ordering::Relaxed);
                Err(EndpointError::Timeout { work_used: 1 })
            },
            EndpointError::retry_after,
        );
        assert_eq!(result, Err(EndpointError::Timeout { work_used: 1 }));
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn none_policy_tries_exactly_once() {
        let calls = AtomicU32::new(0);
        let result: Result<(), _> = Backoff::none().run(
            0,
            |_| {
                calls.fetch_add(1, Ordering::Relaxed);
                Err(overloaded(1))
            },
            EndpointError::retry_after,
        );
        assert!(result.is_err());
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn execute_parsed_retries_an_overloaded_service_endpoint() {
        use crate::endpoint::{Endpoint, EndpointLimits, LocalEndpoint};
        use crate::service::{QueryService, ServiceEndpoint, ServiceError};
        use sapphire_sparql::{parse_query, Query, QueryResult};
        use std::sync::Arc;

        // Sheds the first N requests, then answers — the shape a briefly
        // saturated admission gate presents.
        struct Shedding {
            inner: LocalEndpoint,
            remaining: AtomicU32,
        }
        impl QueryService for Shedding {
            fn service_name(&self) -> &str {
                "shedding"
            }
            fn execute_query(
                &self,
                _tenant: &str,
                query: &Query,
            ) -> Result<QueryResult, ServiceError> {
                if self
                    .remaining
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                    .is_ok()
                {
                    return Err(ServiceError::Overloaded {
                        in_flight: 2,
                        queue_depth: 0,
                    });
                }
                self.inner
                    .execute_parsed(query)
                    .map_err(ServiceError::Backend)
            }
        }

        let g = sapphire_rdf::turtle::parse("res:A a dbo:Thing .").unwrap();
        let service = Arc::new(Shedding {
            inner: LocalEndpoint::new("inner", g, EndpointLimits::warehouse()),
            remaining: AtomicU32::new(2),
        });
        let ep = ServiceEndpoint::new(service, "tenant");
        let q = parse_query("SELECT ?s WHERE { ?s a dbo:Thing }").unwrap();
        let policy = Backoff {
            max_retries: 3,
            base: Duration::from_micros(10),
            max_delay: Duration::from_micros(100),
        };
        let result = policy
            .run(0, |_| ep.execute_parsed(&q), EndpointError::retry_after)
            .unwrap();
        assert!(matches!(result, QueryResult::Solutions(s) if s.len() == 1));
    }
}
