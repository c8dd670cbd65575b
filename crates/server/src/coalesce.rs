//! Single-flight request coalescing.
//!
//! The response cache absorbs *repeats* of a request, but a **burst** of
//! identical not-yet-cached requests — many users typing the same prefix at
//! the same instant — still costs one full model scan per request, because
//! every one of them misses the cache before the first scan finishes. The
//! [`Coalescer`] closes that gap: the first miss for a key becomes the
//! *leader* and executes the scan; every concurrent duplicate becomes a
//! *follower* that blocks until the leader publishes its `Arc`'d result (or
//! its typed error — failure is propagated, never a hang).
//!
//! Three properties keep coalescing from becoming a new failure mode:
//!
//! * **Typed leader-failure propagation** — the leader completes its flight
//!   with a `Result`; an `Err` is cloned to every follower, so a failing
//!   backend fails the whole burst loudly instead of hanging it.
//! * **Per-key waiter cap** — a flight accepts at most
//!   `max_waiters_per_key` followers; once full, further duplicates *bypass*
//!   coalescing and run their own scan. A hot key can therefore never grow
//!   an unbounded queue of blocked requests behind one slow leader. A cap of
//!   `0` disables coalescing entirely (every duplicate bypasses). Every
//!   [`ReadThrough`] of the serving tiers uses one cap,
//!   [`MAX_WAITERS_PER_KEY`].
//! * **Abandoned-leader recovery** — if a leader unwinds without completing
//!   (a panic in the scan), its flight is marked abandoned and every
//!   follower retries from the top, one of them becoming the new leader.
//!   Followers can block only while some leader is actually running.
//!
//! The coalescer is keyed like the response cache, by
//! [`sapphire_core::RequestKey`] — the structural key of a normalized
//! completion, run or raw query — so the two layers agree exactly on which
//! requests are "identical".
//!
//! [`ReadThrough`] is how the serving tiers actually use the two layers: one
//! cache-lookup → join → re-check → work → insert → publish sequence shared
//! by every QCM, run, and raw surface of the server and the cluster edge.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use sapphire_core::cache::shard_index;
use sapphire_core::{CacheStats, RequestKey};
use sapphire_obs::{Obs, Stage};

use crate::response_cache::ShardedResponseCache;

/// One in-flight execution of a keyed request.
#[derive(Debug)]
struct Flight<V, E> {
    state: Mutex<FlightState<V, E>>,
    done: Condvar,
}

#[derive(Debug)]
enum FlightState<V, E> {
    /// The leader is executing; `waiters` followers are blocked on `done`.
    Running { waiters: usize },
    /// The leader finished; followers receive a clone of this outcome.
    Done(Result<Arc<V>, E>),
    /// The leader unwound without completing; followers must retry.
    Abandoned,
}

impl<V, E> Flight<V, E> {
    fn new() -> Self {
        Flight {
            state: Mutex::new(FlightState::Running { waiters: 0 }),
            done: Condvar::new(),
        }
    }
}

/// Cumulative [`Coalescer`] counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoalesceStats {
    /// Flights led (the caller was first in and executed the work).
    pub leaders: u64,
    /// Requests that received a concurrent leader's result (or error).
    pub followers: u64,
    /// Requests that found the flight's waiter cap full and ran their own
    /// work instead of blocking.
    pub bypasses: u64,
    /// Follower wake-ups caused by an abandoned leader; each retried and
    /// re-joined (or led) a fresh flight.
    pub abandoned_retries: u64,
}

/// What [`Coalescer::join`] decided about this request.
#[derive(Debug)]
pub enum Join<'a, V, E, K: Eq + Hash = String> {
    /// First in: the caller must execute the work and then
    /// [`complete`](LeaderToken::complete) the flight — on both success and
    /// failure — so followers are released.
    Leader(LeaderToken<'a, V, E, K>),
    /// A concurrent leader already executed the work; this is its outcome.
    Follower(Result<Arc<V>, E>),
    /// The flight's waiter cap is full; the caller should execute the work
    /// itself without coalescing.
    Bypass,
}

/// One shard of the in-flight map: key → its live flight.
type FlightShard<V, E, K> = Mutex<HashMap<K, Arc<Flight<V, E>>>>;

/// Single-flight deduplication of identical concurrent requests.
///
/// Sharded like the response cache so hot coalescing traffic never funnels
/// through one lock. `V` is the shared result payload, `E` the typed error a
/// leader propagates to its followers, `K` the request key (plain strings
/// unless a caller names a key type).
#[derive(Debug)]
pub struct Coalescer<V, E, K = String> {
    shards: Vec<FlightShard<V, E, K>>,
    max_waiters_per_key: usize,
    leaders: AtomicU64,
    followers: AtomicU64,
    bypasses: AtomicU64,
    abandoned_retries: AtomicU64,
}

impl<V, E, K: Eq + Hash> Coalescer<V, E, K> {
    /// A coalescer allowing at most `max_waiters_per_key` followers to block
    /// behind one leader (`0` disables coalescing: every duplicate bypasses).
    pub fn new(shards: usize, max_waiters_per_key: usize) -> Self {
        let shards = shards.clamp(1, 1024);
        Coalescer {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            max_waiters_per_key,
            leaders: AtomicU64::new(0),
            followers: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
            abandoned_retries: AtomicU64::new(0),
        }
    }

    fn shard<Q: Hash + ?Sized>(&self, key: &Q) -> &FlightShard<V, E, K> {
        &self.shards[shard_index(key, self.shards.len())]
    }

    /// Followers currently blocked on `key`'s flight (observability/tests).
    pub fn waiting<Q: Hash + Eq + ?Sized>(&self, key: &Q) -> usize
    where
        K: Borrow<Q>,
    {
        let map = self.shard(key).lock().unwrap();
        match map.get(key) {
            Some(flight) => match *flight.state.lock().unwrap() {
                FlightState::Running { waiters } => waiters,
                _ => 0,
            },
            None => 0,
        }
    }

    /// Keys with a live in-flight execution right now, across all shards —
    /// the coalescer's shard occupancy. Cheap (one uncontended lock per
    /// shard), so load probes and bench reports can poll it.
    pub fn occupancy(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// Cumulative counters.
    pub fn stats(&self) -> CoalesceStats {
        CoalesceStats {
            leaders: self.leaders.load(Ordering::Relaxed),
            followers: self.followers.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
            abandoned_retries: self.abandoned_retries.load(Ordering::Relaxed),
        }
    }
}

impl<V, E: Clone, K: Eq + Hash> Coalescer<V, E, K> {
    /// Join the flight for `key`: become its leader, block as a follower
    /// until the leader completes, or bypass if the waiter cap is full.
    ///
    /// Followers block with no timeout of their own — the leader is an
    /// already-admitted request doing bounded work, and an abandoned leader
    /// wakes every follower for a retry, so a follower can never outlive the
    /// work it waits for.
    pub fn join<Q>(&self, key: &Q) -> Join<'_, V, E, K>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
    {
        loop {
            let shard = self.shard(key);
            let flight = {
                let mut map = shard.lock().unwrap();
                match map.get(key) {
                    Some(flight) => flight.clone(),
                    None => {
                        let flight = Arc::new(Flight::new());
                        map.insert(key.to_owned(), flight.clone());
                        drop(map);
                        self.leaders.fetch_add(1, Ordering::Relaxed);
                        return Join::Leader(LeaderToken {
                            coalescer: self,
                            key: key.to_owned(),
                            flight,
                            completed: false,
                        });
                    }
                }
            };
            let mut state = flight.state.lock().unwrap();
            match &mut *state {
                FlightState::Running { waiters } if *waiters >= self.max_waiters_per_key => {
                    self.bypasses.fetch_add(1, Ordering::Relaxed);
                    return Join::Bypass;
                }
                FlightState::Running { waiters } => {
                    *waiters += 1;
                    loop {
                        state = flight.done.wait(state).unwrap();
                        match &*state {
                            FlightState::Running { .. } => continue,
                            FlightState::Done(outcome) => {
                                self.followers.fetch_add(1, Ordering::Relaxed);
                                return Join::Follower(outcome.clone());
                            }
                            FlightState::Abandoned => {
                                self.abandoned_retries.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                }
                // Publication removes the flight from the map *before*
                // flipping its state, so a flight found in the map is
                // normally Running; these arms only cover the window where a
                // just-published flight was cloned out of the map a moment
                // before its removal.
                FlightState::Done(outcome) => {
                    self.followers.fetch_add(1, Ordering::Relaxed);
                    return Join::Follower(outcome.clone());
                }
                FlightState::Abandoned => {}
            }
            // Abandoned (either arm): retry — the next iteration starts or
            // joins a fresh flight.
        }
    }
}

/// Proof of flight leadership for one key.
///
/// The holder must call [`complete`](Self::complete) with the work's
/// outcome. Dropping the token without completing (a panic unwinding through
/// the scan) marks the flight abandoned, which wakes every follower to retry
/// — leadership can never be silently lost with followers still blocked.
#[derive(Debug)]
pub struct LeaderToken<'a, V, E, K: Eq + Hash = String> {
    coalescer: &'a Coalescer<V, E, K>,
    key: K,
    flight: Arc<Flight<V, E>>,
    completed: bool,
}

impl<V, E, K: Eq + Hash> LeaderToken<'_, V, E, K> {
    /// Publish the leader's outcome: followers receive a clone of `outcome`,
    /// and later requests for the key start a fresh flight.
    pub fn complete(mut self, outcome: Result<Arc<V>, E>) {
        self.publish(FlightState::Done(outcome));
        self.completed = true;
    }

    fn publish(&self, terminal: FlightState<V, E>) {
        // Remove from the map first so a new request that misses the cache
        // after this flight starts its own — only then flip the state, so
        // anything that found the flight in the map observes a terminal
        // state at worst one step later.
        {
            let mut map = self.coalescer.shard(&self.key).lock().unwrap();
            if let Some(current) = map.get(&self.key) {
                if Arc::ptr_eq(current, &self.flight) {
                    map.remove(&self.key);
                }
            }
        }
        let mut state = self.flight.state.lock().unwrap();
        *state = terminal;
        drop(state);
        self.flight.done.notify_all();
    }
}

impl<V, E, K: Eq + Hash> Drop for LeaderToken<'_, V, E, K> {
    fn drop(&mut self) {
        if !self.completed {
            self.publish(FlightState::Abandoned);
        }
    }
}

/// How [`ReadThrough::serve`] produced its result. Every request lands in
/// exactly one variant, so a tier's metrics are one `match` on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// Response-cache hit: one counted `get`, the coalescer never touched.
    Hit,
    /// Joined as leader, but the flight that completed between this
    /// request's cache miss and its join had already filled the cache — no
    /// work ran. Morally a coalesced hit.
    LateHit,
    /// Led the flight and ran the work; followers share the outcome.
    Leader,
    /// Received a concurrent leader's outcome (its value *or* its error).
    Follower,
    /// Ran the work uncoalesced: the flight's waiter cap was full.
    Bypass,
}

impl Served {
    /// True if this request ran no work of its own.
    pub fn cached(self) -> bool {
        matches!(self, Served::Hit | Served::LateHit | Served::Follower)
    }
}

/// A read-through, single-flight front for one request surface: an optional
/// response cache and the [`Coalescer`] keyed like it.
///
/// [`serve`](Self::serve) is the only place that sequences the two, so the
/// subtle parts live once: the hit path is one counted `get` and nothing
/// else; a leader re-checks the cache with an uncounted `peek` so a second
/// scan of a key never runs behind a flight that just finished; the flight
/// is completed on the error path too, so followers never hang; and a
/// follower's block time is recorded into [`Stage::CoalesceWait`].
#[derive(Debug)]
pub struct ReadThrough<V, E> {
    surface: &'static str,
    cache: Option<ShardedResponseCache<V, RequestKey>>,
    flights: Coalescer<V, E, RequestKey>,
}

/// Followers one flight of a [`ReadThrough`] lets block behind its leader;
/// further duplicates bypass it and run their own work.
pub const MAX_WAITERS_PER_KEY: usize = 1024;

impl<V, E: Clone> ReadThrough<V, E> {
    /// `surface` labels this front's trace spans (`"completion"`,
    /// `"edge run"`, ...). Cache and coalescer are sharded alike;
    /// `cache_capacity_per_shard` is `None` for surfaces whose results must
    /// not be memoized (raw federated queries), which single-flight only.
    pub fn new(
        surface: &'static str,
        shards: usize,
        cache_capacity_per_shard: Option<usize>,
    ) -> Self {
        ReadThrough {
            surface,
            cache: cache_capacity_per_shard.map(|cap| ShardedResponseCache::new(shards, cap)),
            flights: Coalescer::new(shards, MAX_WAITERS_PER_KEY),
        }
    }

    /// The response cache's counters (all zero for an uncached surface).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.as_ref().map(|c| c.stats()).unwrap_or_default()
    }

    /// Keys with a live flight right now (see [`Coalescer::occupancy`]).
    pub fn occupancy(&self) -> usize {
        self.flights.occupancy()
    }

    /// Followers blocked on `key`'s flight (see [`Coalescer::waiting`]).
    #[cfg(test)]
    pub(crate) fn waiting(&self, key: &RequestKey) -> usize {
        self.flights.waiting(key)
    }

    /// Serve `key` from the cache, a concurrent identical request, or
    /// `work` — and say which.
    ///
    /// `work` runs at most once, told whether it runs as
    /// [`Served::Leader`] or [`Served::Bypass`]. Its value is cached unless
    /// `insert` vetoes it (the value is still returned, and still shared
    /// with followers — only the cache is skipped).
    pub fn serve(
        &self,
        obs: &Obs,
        key: RequestKey,
        work: impl FnOnce(Served) -> Result<V, E>,
        insert: impl FnOnce(&V) -> bool,
    ) -> (Served, Result<Arc<V>, E>) {
        match self.lookup(obs, &key) {
            Some(hit) => (Served::Hit, Ok(hit)),
            None => self.serve_miss(obs, key, work, insert),
        }
    }

    /// The first half of [`serve`](Self::serve): the one counted cache
    /// lookup. Never waits and runs no work, so a thread that may do neither
    /// can still answer a hit; `None` — always, on an uncached surface —
    /// obliges the caller to [`serve_miss`](Self::serve_miss) the same key.
    pub(crate) fn lookup(&self, obs: &Obs, key: &RequestKey) -> Option<Arc<V>> {
        let cache = self.cache.as_ref()?;
        let started = Instant::now();
        let hit = cache.get(key);
        let outcome = if hit.is_some() { "hit" } else { "miss" };
        record_span(obs, Stage::CacheLookup, started, |_| {
            format!("{} {outcome}", self.surface)
        });
        hit
    }

    /// The second half of [`serve`](Self::serve), for a request whose
    /// [`lookup`](Self::lookup) of `key` already logged its miss.
    pub(crate) fn serve_miss(
        &self,
        obs: &Obs,
        key: RequestKey,
        work: impl FnOnce(Served) -> Result<V, E>,
        insert: impl FnOnce(&V) -> bool,
    ) -> (Served, Result<Arc<V>, E>) {
        let run = |how: Served, key: RequestKey| {
            work(how).map(|value| match &self.cache {
                Some(cache) if insert(&value) => cache.insert(key, value),
                _ => Arc::new(value),
            })
        };
        let join_started = Instant::now();
        match self.flights.join(&key) {
            Join::Leader(token) => {
                // Uncounted: this request already logged its miss.
                if let Some(hit) = self.cache.as_ref().and_then(|c| c.peek(&key)) {
                    token.complete(Ok(hit.clone()));
                    return (Served::LateHit, Ok(hit));
                }
                let outcome = run(Served::Leader, key);
                token.complete(outcome.clone());
                (Served::Leader, outcome)
            }
            Join::Follower(outcome) => {
                record_span(obs, Stage::CoalesceWait, join_started, |us| {
                    format!("{} follower wait_us={us}", self.surface)
                });
                (Served::Follower, outcome)
            }
            Join::Bypass => (Served::Bypass, run(Served::Bypass, key)),
        }
    }
}

/// Record `started..now` into `stage`'s histogram and, on a sampled request,
/// as a span (the detail string materializes only then).
fn record_span(obs: &Obs, stage: Stage, started: Instant, detail: impl FnOnce(u64) -> String) {
    let us = started.elapsed().as_micros() as u64;
    obs.record(stage, us);
    if let Some((trace, parent)) = sapphire_obs::trace::current_ctx() {
        trace.add_span(stage.name(), started, us, parent, detail(us));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;
    use std::time::Duration;

    type TestCoalescer = Coalescer<u64, String>;

    /// A burst of identical requests executes the work exactly once: the
    /// leader blocks until every follower is registered, then publishes, and
    /// all of them receive the same `Arc`'d value.
    #[test]
    fn burst_executes_work_exactly_once() {
        const FOLLOWERS: usize = 6;
        let coalescer = Arc::new(TestCoalescer::new(4, 64));
        let work_runs = Arc::new(AtomicUsize::new(0));
        let (leader_go_tx, leader_go_rx) = mpsc::channel::<()>();

        let leader = {
            let coalescer = coalescer.clone();
            let work_runs = work_runs.clone();
            std::thread::spawn(move || {
                let Join::Leader(token) = coalescer.join("k") else {
                    panic!("first join must lead");
                };
                // Hold the "scan" open until the test has piled followers on.
                leader_go_rx.recv().unwrap();
                work_runs.fetch_add(1, Ordering::SeqCst);
                token.complete(Ok(Arc::new(42)));
                42u64
            })
        };
        // Wait for leadership, then pile on followers and wait until every
        // one of them is blocked on the flight.
        while coalescer.stats().leaders == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let followers: Vec<_> = (0..FOLLOWERS)
            .map(|_| {
                let coalescer = coalescer.clone();
                std::thread::spawn(move || match coalescer.join("k") {
                    Join::Follower(Ok(v)) => *v,
                    other => panic!("expected follower result, got {other:?}"),
                })
            })
            .collect();
        while coalescer.waiting("k") < FOLLOWERS {
            std::thread::sleep(Duration::from_millis(1));
        }
        leader_go_tx.send(()).unwrap();
        assert_eq!(leader.join().unwrap(), 42);
        for f in followers {
            assert_eq!(f.join().unwrap(), 42);
        }
        assert_eq!(work_runs.load(Ordering::SeqCst), 1, "exactly one scan");
        let stats = coalescer.stats();
        assert_eq!(stats.leaders, 1);
        assert_eq!(stats.followers, FOLLOWERS as u64);
        assert_eq!(stats.bypasses, 0);
    }

    /// A failing leader fails its followers with the same typed error — no
    /// follower ever hangs on a flight whose work already died.
    #[test]
    fn leader_failure_propagates_typed_to_followers() {
        let coalescer = Arc::new(TestCoalescer::new(1, 64));
        let Join::Leader(token) = coalescer.join("k") else {
            panic!("first join must lead");
        };
        let follower = {
            let coalescer = coalescer.clone();
            std::thread::spawn(move || match coalescer.join("k") {
                Join::Follower(outcome) => outcome,
                other => panic!("expected a follower, got {other:?}"),
            })
        };
        while coalescer.waiting("k") == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        token.complete(Err("backend exploded".to_string()));
        assert_eq!(
            follower.join().unwrap().unwrap_err(),
            "backend exploded",
            "the leader's typed error reaches the follower"
        );
    }

    /// The waiter cap bounds how many requests can block behind one leader;
    /// the overflow bypasses (runs its own work) instead of queueing.
    #[test]
    fn waiter_cap_overflows_to_bypass() {
        let coalescer = Arc::new(TestCoalescer::new(1, 1));
        let Join::Leader(token) = coalescer.join("k") else {
            panic!("first join must lead");
        };
        let follower = {
            let coalescer = coalescer.clone();
            std::thread::spawn(move || match coalescer.join("k") {
                Join::Follower(outcome) => outcome,
                other => panic!("expected a follower, got {other:?}"),
            })
        };
        while coalescer.waiting("k") < 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Cap reached: the next duplicate must not block.
        assert!(matches!(coalescer.join("k"), Join::Bypass));
        token.complete(Ok(Arc::new(7)));
        assert_eq!(*follower.join().unwrap().unwrap(), 7);
        assert_eq!(coalescer.stats().bypasses, 1);
    }

    /// A cap of zero disables coalescing: every duplicate runs its own work.
    #[test]
    fn zero_cap_disables_coalescing() {
        let coalescer = TestCoalescer::new(1, 0);
        let Join::Leader(token) = coalescer.join("k") else {
            panic!("first join must lead");
        };
        assert!(matches!(coalescer.join("k"), Join::Bypass));
        token.complete(Ok(Arc::new(1)));
    }

    /// An abandoned leader (panic in the scan) wakes its followers, and one
    /// of them re-leads the flight instead of hanging forever.
    #[test]
    fn abandoned_leader_hands_off_to_a_follower() {
        let coalescer = Arc::new(TestCoalescer::new(1, 64));
        let Join::Leader(token) = coalescer.join("k") else {
            panic!("first join must lead");
        };
        let follower = {
            let coalescer = coalescer.clone();
            std::thread::spawn(move || match coalescer.join("k") {
                // The retry makes the follower the new leader; it completes.
                Join::Leader(token) => {
                    token.complete(Ok(Arc::new(99)));
                    99u64
                }
                other => panic!("expected re-lead after abandonment, got {other:?}"),
            })
        };
        while coalescer.waiting("k") == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(token); // leader unwinds without completing
        assert_eq!(follower.join().unwrap(), 99);
        let stats = coalescer.stats();
        assert_eq!(stats.abandoned_retries, 1);
        assert_eq!(stats.leaders, 2, "original leader + re-leading follower");
    }

    /// After a completed flight, the key starts fresh — no state leaks from
    /// one burst to the next.
    #[test]
    fn completed_flights_reset_the_key() {
        let coalescer = TestCoalescer::new(1, 8);
        for round in 0..3u64 {
            let Join::Leader(token) = coalescer.join("k") else {
                panic!("round {round} must lead");
            };
            token.complete(Ok(Arc::new(round)));
        }
        assert_eq!(coalescer.stats().leaders, 3);
        assert_eq!(coalescer.waiting("k"), 0);
    }

    /// A key whose every value hashes alike: requests that collide in the
    /// hash and differ in equality.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Colliding(&'static str);

    impl Hash for Colliding {
        fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
            state.write_u64(7);
        }
    }

    /// Keys that collide in the hash but are not equal lead separate
    /// flights: one never follows, or is answered by, the other.
    #[test]
    fn colliding_keys_lead_separate_flights() {
        let coalescer: Coalescer<u64, String, Colliding> = Coalescer::new(4, 64);
        let Join::Leader(a) = coalescer.join(&Colliding("a")) else {
            panic!("a leads");
        };
        let Join::Leader(b) = coalescer.join(&Colliding("b")) else {
            panic!("b collides with a but is not a: it leads its own flight");
        };
        assert_eq!(coalescer.occupancy(), 2);
        a.complete(Ok(Arc::new(1)));
        assert_eq!(coalescer.occupancy(), 1, "completing a leaves b's flight");
        b.complete(Ok(Arc::new(2)));
        assert_eq!(coalescer.stats().leaders, 2);
    }

    // --- ReadThrough -------------------------------------------------------

    type Front = ReadThrough<u64, String>;
    type Out = (Served, Result<Arc<u64>, String>);

    /// The one key these tests serve.
    fn key() -> RequestKey {
        RequestKey::completion("k", 10)
    }

    fn no_work(_: Served) -> Result<u64, String> {
        panic!("this request must be served without running work")
    }

    /// Serve `"k"`, always caching.
    fn serve(front: &Front, obs: &Obs, work: impl FnOnce(Served) -> Result<u64, String>) -> Out {
        front.serve(obs, key(), work, |_| true)
    }

    /// A leader whose work blocks until one follower is parked behind it,
    /// then finishes with `leader_outcome`; the follower's own work would
    /// produce 99. Returns both requests' results.
    fn leader_then_follower(
        front: &Front,
        obs: &Obs,
        leader_outcome: Result<u64, String>,
    ) -> (Out, Out) {
        let (leading_tx, leading) = mpsc::channel();
        let (go, go_rx) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let leader = scope.spawn(move || {
                serve(front, obs, |how| {
                    assert_eq!(how, Served::Leader);
                    leading_tx.send(()).unwrap();
                    go_rx.recv().unwrap();
                    leader_outcome
                })
            });
            leading.recv().unwrap();
            let follower = scope.spawn(|| serve(front, obs, |_| Ok(99)));
            while front.flights.waiting(&key()) == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            go.send(()).unwrap();
            (leader.join().unwrap(), follower.join().unwrap())
        })
    }

    #[test]
    fn hit_is_one_counted_get_and_no_coalescer_touch() {
        let (front, obs) = (Front::new("test", 2, Some(8)), Obs::new());
        let (served, value) = serve(&front, &obs, |_| Ok(7));
        assert_eq!((served, *value.unwrap()), (Served::Leader, 7));
        let (served, value) = serve(&front, &obs, no_work);
        assert_eq!((served, *value.unwrap()), (Served::Hit, 7));
        let cache = front.cache_stats();
        assert_eq!((cache.hits, cache.misses), (1, 1));
        assert_eq!(front.flights.stats().leaders, 1, "the hit never joined");
        assert_eq!(obs.stage_snapshot(Stage::CacheLookup).count(), 2);
    }

    /// The window `serve` cannot otherwise be steered into: the cache was
    /// filled after this request's counted miss but before its join.
    #[test]
    fn late_hit_under_leadership_runs_no_work_and_releases_the_flight() {
        let (front, obs) = (Front::new("test", 2, Some(8)), Obs::new());
        front.cache.as_ref().unwrap().insert(key(), 7);
        let (served, value) = front.serve_miss(&obs, key(), no_work, |_| true);
        assert_eq!((served, *value.unwrap()), (Served::LateHit, 7));
        let cache = front.cache_stats();
        assert_eq!((cache.hits, cache.misses), (0, 0), "the re-check is a peek");
        assert_eq!(front.occupancy(), 0, "leadership was completed");
    }

    #[test]
    fn follower_shares_the_leaders_value_and_records_its_wait() {
        let (front, obs) = (Front::new("test", 2, Some(8)), Obs::new());
        let ((led, leader), (followed, follower)) = leader_then_follower(&front, &obs, Ok(7));
        assert_eq!((led, followed), (Served::Leader, Served::Follower));
        assert!(Arc::ptr_eq(&leader.unwrap(), &follower.unwrap()));
        assert_eq!(obs.stage_snapshot(Stage::CoalesceWait).count(), 1);
        assert_eq!(serve(&front, &obs, no_work).0, Served::Hit);
    }

    #[test]
    fn leader_error_releases_followers_and_the_key() {
        let (front, obs) = (Front::new("test", 2, Some(8)), Obs::new());
        let (leader, follower) = leader_then_follower(&front, &obs, Err("boom".to_string()));
        assert_eq!(leader, (Served::Leader, Err("boom".to_string())));
        assert_eq!(follower, (Served::Follower, Err("boom".to_string())));
        // Nothing was cached and the flight is gone: the next request leads.
        assert_eq!(front.occupancy(), 0);
        assert_eq!(serve(&front, &obs, |_| Ok(1)).0, Served::Leader);
    }

    #[test]
    fn full_waiter_cap_bypasses_and_still_fills_the_cache() {
        let front = Front {
            flights: Coalescer::new(2, 0),
            ..Front::new("test", 2, Some(8))
        };
        let obs = Obs::new();
        let (served, _) = serve(&front, &obs, |_| {
            // A duplicate arriving mid-flight: cap 0, so it cannot park.
            let (inner, value) = serve(&front, &obs, |how| Ok(how as u64));
            assert_eq!(
                (inner, *value.unwrap()),
                (Served::Bypass, Served::Bypass as u64)
            );
            Ok(6)
        });
        assert_eq!(served, Served::Leader);
        assert_eq!(serve(&front, &obs, no_work).0, Served::Hit);
    }

    #[test]
    fn vetoed_and_uncached_values_are_returned_but_never_cached() {
        let vetoing = Front::new("test", 2, Some(8));
        let uncached = Front::new("test", 2, None);
        let obs = Obs::new();
        for round in 0..2 {
            for front in [&vetoing, &uncached] {
                let out = front.serve(&obs, key(), |_| Ok(round), |_| false);
                assert_eq!(out, (Served::Leader, Ok(Arc::new(round))));
            }
        }
        assert_eq!(vetoing.cache.as_ref().unwrap().len(), 0);
        assert_eq!(uncached.cache_stats(), CacheStats::default());
        assert_eq!(
            obs.stage_snapshot(Stage::CacheLookup).count(),
            2,
            "vetoing's"
        );
    }
}
