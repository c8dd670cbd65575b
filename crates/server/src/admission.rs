//! Per-request admission control and per-tenant work budgets.
//!
//! The paper's endpoints protect themselves with per-query work budgets
//! ([`WorkBudget`](sapphire_sparql::WorkBudget)) and cost-estimate gates.
//! The serving tier lifts the same idea one level up: a bounded number of
//! requests run concurrently, a bounded number may wait, everything beyond
//! that is rejected with a typed error, and each tenant spends from a work
//! budget denominated in the same units the evaluator charges.
//!
//! There is one way to wait for a slot — a queued [`AdmissionTicket`] whose
//! grant *callback* fires when a releaser hands it the slot — and two ways
//! to use it:
//!
//! * **Evented** ([`AdmissionController::admit_evented`]) — nothing blocks:
//!   the caller keeps the ticket and supplies the callback. The evented
//!   front-end ([`crate::frontend`]) parks *sessions* in its reactor instead
//!   of parking worker threads here, which is what lets a fixed worker pool
//!   hold thousands of open sessions.
//! * **Parked** ([`AdmissionController::admit`]) — the classic
//!   thread-per-request shape, built on the evented one: the callback
//!   signals a private one-shot channel and the calling thread blocks on it
//!   until the grant or its deadline.
//!
//! Waiters are strictly ordered by arrival: a freed slot is handed to the
//! queue head however its owner waits, so evented waiters can never barge
//! past parked ones or vice versa.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use crate::error::ServerError;

/// Callback fired (at most once) when an evented ticket's grant arrives.
///
/// It runs on whichever thread released the slot, *after* the controller
/// lock has been dropped — so it may safely call back into the controller
/// (claim, cancel, even a fresh admit). It is a wake-up hint, not an
/// ownership transfer: the grant may still be lost to a concurrent
/// [`AdmissionTicket::cancel`], so receivers must settle the outcome through
/// [`AdmissionTicket::try_claim`].
pub type GrantCallback = Box<dyn FnOnce() + Send>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TicketState {
    /// Still queued; owns no slot.
    Waiting,
    /// A releaser handed this ticket its slot (the in-flight count was
    /// *not* decremented — the slot moved directly from releaser to ticket).
    Granted,
    /// The owner gave up before any grant; the ticket owns nothing.
    Cancelled,
    /// The grant was converted into an [`AdmissionPermit`].
    Claimed,
}

/// One queued request: its settlement state and its grant callback.
///
/// The releaser hands a freed execution slot to exactly the queue head and
/// fires only that ticket's callback, so a release never wakes the whole
/// queue (no thundering herd) and can never wake the wrong waiter (strict
/// FIFO).
struct Ticket {
    state: Mutex<TicketState>,
    /// Taken out exactly once, by the releaser that grants this ticket.
    on_grant: Mutex<Option<GrantCallback>>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("state", &*self.state.lock().unwrap())
            .finish()
    }
}

#[derive(Debug, Default)]
struct AdmissionState {
    in_flight: usize,
    /// Queued tickets in arrival order. Invariant: the queue is non-empty
    /// only while every execution slot is taken — a freed slot is handed to
    /// the head before the releaser's in-flight count ever drops, and a new
    /// arrival takes a free slot only when the queue is empty.
    queue: VecDeque<Arc<Ticket>>,
}

/// Bounded-concurrency gate with a bounded, deadline-limited, **fair FIFO**
/// wait queue.
///
/// Queued requests are admitted strictly in arrival order: each waiter
/// blocks on (or subscribes to) its own ticket, and a released slot is
/// handed directly to the queue head under the controller lock (counted in
/// [`handoffs`](Self::handoffs)). New arrivals never barge past the queue,
/// and a waiter that gives up at its deadline removes itself under the same
/// lock — so a grant can never be stranded on a dead waiter, and no baton
/// re-notification dance is needed.
///
/// The controller is used through an [`Arc`] (permits own a clone), so the
/// admitting methods take `self: &Arc<Self>`.
#[derive(Debug)]
pub struct AdmissionController {
    state: Mutex<AdmissionState>,
    max_in_flight: usize,
    max_queue_depth: usize,
    queue_wait: Duration,
    handoffs: AtomicU64,
}

/// Outcome of a non-blocking [`admit_evented`](AdmissionController::admit_evented).
#[derive(Debug)]
pub enum AsyncAdmission {
    /// A free slot was granted immediately; no queueing happened.
    Ready(AdmissionPermit),
    /// All slots taken: the request joined the FIFO queue. The grant
    /// callback fires when a releaser hands this ticket the slot; settle
    /// the outcome with [`AdmissionTicket::try_claim`] /
    /// [`AdmissionTicket::cancel`].
    Queued(AdmissionTicket),
}

impl AdmissionController {
    /// A gate admitting `max_in_flight` concurrent requests, queueing at most
    /// `max_queue_depth` more for up to `queue_wait` each.
    pub fn new(max_in_flight: usize, max_queue_depth: usize, queue_wait: Duration) -> Self {
        AdmissionController {
            state: Mutex::new(AdmissionState::default()),
            max_in_flight: max_in_flight.max(1),
            max_queue_depth,
            queue_wait,
            handoffs: AtomicU64::new(0),
        }
    }

    fn permit(self: &Arc<Self>) -> AdmissionPermit {
        AdmissionPermit {
            controller: Arc::clone(self),
        }
    }

    /// Take a free slot *now* or join the FIFO queue with a ticket expiring
    /// `queue_wait` from now. `on_grant` is only called — and so the
    /// callback is only built — when the request actually queues: an
    /// immediate grant allocates nothing.
    fn admit_or_enqueue(
        self: &Arc<Self>,
        queue_wait: Duration,
        on_grant: impl FnOnce() -> GrantCallback,
    ) -> Result<AsyncAdmission, ServerError> {
        let mut state = self.state.lock().unwrap();
        // A free slot goes to a new arrival only when nobody is queued
        // ahead of it; released slots are handed to the queue head, so
        // with waiters present every slot is accounted for and arrivals
        // always join the back.
        if state.queue.is_empty() && state.in_flight < self.max_in_flight {
            state.in_flight += 1;
            return Ok(AsyncAdmission::Ready(self.permit()));
        }
        if state.queue.len() >= self.max_queue_depth {
            return Err(ServerError::Overloaded {
                in_flight: state.in_flight,
                queue_depth: state.queue.len(),
            });
        }
        let enqueued = Instant::now();
        let ticket = Arc::new(Ticket {
            state: Mutex::new(TicketState::Waiting),
            on_grant: Mutex::new(Some(on_grant())),
        });
        state.queue.push_back(ticket.clone());
        Ok(AsyncAdmission::Queued(AdmissionTicket {
            ticket,
            controller: Arc::clone(self),
            enqueued,
            // `checked_add`, not `+`: a huge `queue_wait` ("wait as long as
            // it takes") must mean *no deadline*, never an Instant-overflow
            // panic.
            deadline: enqueued.checked_add(queue_wait),
        }))
    }

    /// Acquire an execution slot, blocking in the queue if allowed.
    ///
    /// Returns [`ServerError::Overloaded`] when the queue is full and
    /// [`ServerError::QueueTimeout`] when a queued request's deadline passes
    /// — both without running any query work.
    pub fn admit(self: &Arc<Self>) -> Result<AdmissionPermit, ServerError> {
        self.admit_within(self.queue_wait)
    }

    /// [`admit`](Self::admit) with a caller-supplied queue deadline instead
    /// of the configured `queue_wait`. This is the per-request deadline
    /// budget a cluster edge propagates per hop: a request with little
    /// deadline budget left gives up its queue slot sooner than the
    /// configured wait would, and a zero budget degenerates to "a free slot
    /// right now or a typed rejection". Callers should pass
    /// `min(remaining_budget, configured_wait)` — this method does not clamp.
    pub fn admit_within(
        self: &Arc<Self>,
        queue_wait: Duration,
    ) -> Result<AdmissionPermit, ServerError> {
        let mut granted = None;
        let queued = self.admit_or_enqueue(queue_wait, || {
            let (tx, rx) = mpsc::channel();
            granted = Some(rx);
            // The receiver may already be gone (deadline passed, ticket
            // settled through `cancel`); the grant is not lost with it.
            Box::new(move || {
                let _ = tx.send(());
            })
        })?;
        let ticket = match queued {
            AsyncAdmission::Ready(permit) => return Ok(permit),
            AsyncAdmission::Queued(ticket) => ticket,
        };
        let granted = granted.expect("a queued ticket built its callback");
        // The wake-up is only a hint: whichever way the wait ends, the
        // ticket settles the outcome below.
        match ticket.deadline {
            None => {
                let _ = granted.recv();
            }
            // `saturating_duration_since`, not `d - now`: the clock may
            // already be past the deadline (an expired or zero budget), and
            // a bare subtraction would panic exactly then.
            Some(d) => {
                let _ = granted.recv_timeout(d.saturating_duration_since(Instant::now()));
            }
        }
        ticket
            .try_claim()
            .or_else(|| ticket.cancel())
            .ok_or_else(|| ServerError::QueueTimeout {
                waited_ms: ticket.waited_ms(),
            })
    }

    /// Non-blocking admission: grant a free slot immediately, or join the
    /// FIFO queue and fire `on_grant` when a releaser hands the ticket its
    /// slot. The caller is **never parked** — the waiting itself moves into
    /// whatever structure the caller uses to hold ready work (the evented
    /// front-end's reactor queue).
    ///
    /// The queued ticket carries the same deadline a parked waiter would
    /// have (`now + queue_wait`); nothing here enforces it — an evented
    /// waiter has no thread to time out on — so the *owner* is responsible
    /// for calling [`AdmissionTicket::cancel`] once
    /// [`AdmissionTicket::expired`] turns true, and for answering the
    /// request with [`ServerError::QueueTimeout`].
    ///
    /// `on_grant` builds the callback and runs only if the request queues,
    /// so an immediate grant allocates nothing.
    pub fn admit_evented(
        self: &Arc<Self>,
        on_grant: impl FnOnce() -> GrantCallback,
    ) -> Result<AsyncAdmission, ServerError> {
        self.admit_or_enqueue(self.queue_wait, on_grant)
    }

    /// Current `(in_flight, queued)` snapshot.
    pub fn load(&self) -> (usize, usize) {
        let state = self.state.lock().unwrap();
        (state.in_flight, state.queue.len())
    }

    /// Slots handed directly from a finishing request to the queue head.
    pub fn handoffs(&self) -> u64 {
        self.handoffs.load(Ordering::Relaxed)
    }
}

/// A queued evented admission request: the FIFO queue position of one
/// not-yet-admitted request, owned by the caller instead of a parked thread.
///
/// Exactly one of three things ends its life:
///
/// * [`try_claim`](Self::try_claim) after the grant callback fired — the
///   normal path; yields the [`AdmissionPermit`].
/// * [`cancel`](Self::cancel) — deadline enforcement by the owner; removes
///   the ticket from the queue, or (if a grant raced the cancel) yields the
///   permit after all so the slot is never stranded.
/// * Drop — safety net; behaves like `cancel` and releases any raced grant.
pub struct AdmissionTicket {
    ticket: Arc<Ticket>,
    controller: Arc<AdmissionController>,
    enqueued: Instant,
    deadline: Option<Instant>,
}

impl std::fmt::Debug for AdmissionTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionTicket")
            .field("state", &*self.ticket.state.lock().unwrap())
            .field("deadline", &self.deadline)
            .finish()
    }
}

impl AdmissionTicket {
    /// The instant this ticket's queue wait becomes a timeout (`None` when
    /// the controller's `queue_wait` is effectively unbounded).
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// True once the queue-wait deadline has passed.
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Milliseconds spent queued so far.
    pub fn waited_ms(&self) -> u64 {
        self.enqueued.elapsed().as_millis() as u64
    }

    /// Convert a delivered grant into the permit. `None` while still
    /// waiting (or after a cancel settled the ticket).
    pub fn try_claim(&self) -> Option<AdmissionPermit> {
        let mut ts = self.ticket.state.lock().unwrap();
        if *ts == TicketState::Granted {
            *ts = TicketState::Claimed;
            Some(self.controller.permit())
        } else {
            None
        }
    }

    /// Abandon the wait. `None` means the ticket was removed cleanly (it
    /// owned no slot). `Some(permit)` means a grant raced the cancel: the
    /// caller now owns the slot and must either use it or drop the permit
    /// (handing the slot to the next waiter) — it is never stranded.
    pub fn cancel(&self) -> Option<AdmissionPermit> {
        let mut state = self.controller.state.lock().unwrap();
        {
            let mut ts = self.ticket.state.lock().unwrap();
            match *ts {
                TicketState::Waiting => *ts = TicketState::Cancelled,
                TicketState::Granted => {
                    *ts = TicketState::Claimed;
                    drop(ts);
                    drop(state);
                    return Some(self.controller.permit());
                }
                // Already claimed or cancelled: nothing to release.
                TicketState::Cancelled | TicketState::Claimed => return None,
            }
        }
        if let Some(pos) = state
            .queue
            .iter()
            .position(|t| Arc::ptr_eq(t, &self.ticket))
        {
            state.queue.remove(pos);
        }
        None
    }
}

impl Drop for AdmissionTicket {
    fn drop(&mut self) {
        // A ticket dropped while granted-but-unclaimed would strand its
        // slot forever; cancel releases it onward.
        drop(self.cancel());
    }
}

/// An admitted request's slot; releasing it hands the slot to the queue head
/// (in arrival order), or frees it if nobody is waiting. Owns an `Arc` of
/// its controller, so it can outlive the admitting call frame (the evented
/// front-end carries permits through its reactor).
#[derive(Debug)]
pub struct AdmissionPermit {
    controller: Arc<AdmissionController>,
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        let mut state = self.controller.state.lock().unwrap();
        if let Some(head) = state.queue.pop_front() {
            // Hand the slot straight to the oldest waiter: in-flight stays
            // unchanged (the slot changes owners, it never frees), and only
            // that waiter is notified. Waiters abandon the queue only under
            // the controller lock held here, so the head is live —
            // subscribed through its callback, or about to settle its state
            // under this same lock — and the grant cannot be stranded.
            *head.state.lock().unwrap() = TicketState::Granted;
            self.controller.handoffs.fetch_add(1, Ordering::Relaxed);
            // Fire outside the controller lock so the callback may
            // re-enter the controller (claim, cancel, even admit).
            let on_grant = head.on_grant.lock().unwrap().take();
            drop(state);
            if let Some(on_grant) = on_grant {
                on_grant();
            }
        } else {
            state.in_flight -= 1;
        }
    }
}

/// Per-tenant work accounting for one budget window.
///
/// Budgets use the evaluator's work units: a request is charged an estimate
/// derived from its shape before it runs (see
/// [`ServerConfig`](crate::ServerConfig)), and a tenant over budget receives
/// typed [`ServerError::QuotaExhausted`] rejections until
/// [`reset_window`](TenantBudgets::reset_window) is called.
///
/// Accounting is sharded by tenant hash so it never becomes a global
/// serialization point, and each shard is a *bounded* LRU
/// ([`sapphire_core::BoundedCache`]): only the most recently active tenants
/// are tracked, so the meter cannot grow without bound under tenant-name
/// churn. The bound cuts both ways: when a shard sees more distinct tenants
/// than its capacity within one window, even a *legitimate, active* tenant's
/// meter can be evicted and silently restart from zero, under-enforcing its
/// quota — it is not only adversarial name cycling that slips through.
/// Every evicted meter is therefore counted
/// ([`TenantBudgets::evicted_meters`], surfaced as
/// `ServerMetrics::tenant_meter_evictions`), so a deployment can see when
/// its tenant cardinality outgrows the meter and quota enforcement degrades.
#[derive(Debug)]
pub struct TenantBudgets {
    budget: Option<u64>,
    shards: Vec<Mutex<sapphire_core::BoundedCache<String, u64>>>,
    /// Meters evicted across all windows. Folded in at charge time, under
    /// the owning shard's lock, as the delta in that shard's eviction count
    /// around the insert — so the total is monotonic and exact, a metrics
    /// read is one atomic load instead of a 16-shard lock walk, and no
    /// read/reset interleaving can ever observe an eviction twice (the
    /// double-count hazard the old `past_evictions` + walk-mutex scheme
    /// existed to paper over).
    evictions: AtomicU64,
}

/// Shards of the tenant meter.
const TENANT_SHARDS: usize = 16;
/// Most-recently-active tenants tracked per shard.
const TRACKED_TENANTS_PER_SHARD: usize = 4096;

impl TenantBudgets {
    /// `None` disables quota enforcement (the warehouse posture).
    pub fn new(budget: Option<u64>) -> Self {
        TenantBudgets {
            budget,
            shards: (0..TENANT_SHARDS)
                .map(|_| Mutex::new(sapphire_core::BoundedCache::new(TRACKED_TENANTS_PER_SHARD)))
                .collect(),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, tenant: &str) -> &Mutex<sapphire_core::BoundedCache<String, u64>> {
        &self.shards[sapphire_core::cache::shard_index(tenant, self.shards.len())]
    }

    /// Charge `work` units to `tenant`, rejecting if it would exceed the
    /// window budget. Rejected requests are not charged; usage is metered
    /// even when no budget is enforced (observability without enforcement).
    pub fn charge(&self, tenant: &str, work: u64) -> Result<(), ServerError> {
        let mut meter = self.shard(tenant).lock().unwrap();
        let would_use = meter.get(tenant).copied().unwrap_or(0).saturating_add(work);
        if let Some(budget) = self.budget {
            if would_use > budget {
                return Err(ServerError::QuotaExhausted {
                    tenant: tenant.to_string(),
                    used: would_use,
                    budget,
                });
            }
        }
        let before = meter.stats().evictions;
        meter.insert(tenant.to_string(), would_use);
        let after = meter.stats().evictions;
        if after > before {
            // Still under the shard lock, so the delta is exactly the
            // evictions this insert caused — the global count stays an
            // every-eviction-once ledger.
            self.evictions.fetch_add(after - before, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Work charged to `tenant` so far in this window.
    pub fn used(&self, tenant: &str) -> u64 {
        self.shard(tenant)
            .lock()
            .unwrap()
            .get(tenant)
            .copied()
            .unwrap_or(0)
    }

    /// Meters evicted to keep the shards bounded, across all windows. Each
    /// eviction forgot some tenant's in-window usage — a nonzero value means
    /// quotas may have been under-enforced, and a growing one means tenant
    /// cardinality exceeds `TRACKED_TENANTS_PER_SHARD` per shard. Monotonic:
    /// successive reads never go backwards, concurrent resets included.
    pub fn evicted_meters(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Start a fresh accounting window for every tenant. Eviction counts
    /// survive: they were folded into the global ledger as they happened.
    pub fn reset_window(&self) {
        for shard in &self.shards {
            *shard.lock().unwrap() = sapphire_core::BoundedCache::new(TRACKED_TENANTS_PER_SHARD);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    fn gate(
        max_in_flight: usize,
        max_queue_depth: usize,
        queue_wait: Duration,
    ) -> Arc<AdmissionController> {
        Arc::new(AdmissionController::new(
            max_in_flight,
            max_queue_depth,
            queue_wait,
        ))
    }

    #[test]
    fn admits_up_to_limit_then_queues_then_rejects() {
        let gate = gate(1, 0, Duration::from_millis(10));
        let p1 = gate.admit().expect("first request admitted");
        let err = gate.admit().unwrap_err();
        assert!(matches!(
            err,
            ServerError::Overloaded {
                in_flight: 1,
                queue_depth: 0
            }
        ));
        drop(p1);
        let _p2 = gate.admit().expect("slot freed");
    }

    #[test]
    fn queued_request_times_out_typed() {
        let gate = gate(1, 4, Duration::from_millis(20));
        let _p = gate.admit().unwrap();
        let err = gate.admit().unwrap_err();
        assert!(
            matches!(err, ServerError::QueueTimeout { .. }),
            "got {err:?}"
        );
    }

    /// Regression (issue 4 satellite): a zero/expired queue deadline must
    /// produce a typed `QueueTimeout`, never a `Duration`-underflow panic —
    /// the wait loop's remaining-time subtraction saturates.
    #[test]
    fn zero_deadline_times_out_typed_without_panicking() {
        let gate = gate(1, 4, Duration::ZERO);
        let _p = gate.admit().unwrap();
        for _ in 0..100 {
            let err = gate.admit().unwrap_err();
            assert!(
                matches!(err, ServerError::QueueTimeout { waited_ms: 0..=50 }),
                "got {err:?}"
            );
        }
        assert_eq!(gate.load(), (1, 0), "expired waiters left the queue");
    }

    /// Regression (issue 4 satellite): an effectively unbounded `queue_wait`
    /// must mean "no deadline", not an `Instant + Duration` overflow panic
    /// on the admission path.
    #[test]
    fn huge_queue_wait_waits_instead_of_panicking() {
        let gate = gate(1, 4, Duration::MAX);
        let holder = gate.admit().unwrap();
        let waiter = {
            let gate = gate.clone();
            std::thread::spawn(move || gate.admit().expect("granted once the slot frees"))
        };
        while gate.load().1 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(holder);
        drop(waiter.join().unwrap());
        assert_eq!(gate.load(), (0, 0));
    }

    #[test]
    fn queued_request_proceeds_when_slot_frees() {
        let gate = gate(1, 4, Duration::from_secs(5));
        let served = Arc::new(AtomicUsize::new(0));
        let permit = gate.admit().unwrap();
        let mut handles = Vec::new();
        for _ in 0..3 {
            let gate = gate.clone();
            let served = served.clone();
            handles.push(std::thread::spawn(move || {
                let _p = gate.admit().expect("queued then admitted");
                served.fetch_add(1, Ordering::SeqCst);
            }));
        }
        // Give the threads time to enter the queue, then release the slot.
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(
            served.load(Ordering::SeqCst),
            0,
            "all three should be waiting"
        );
        drop(permit);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(served.load(Ordering::SeqCst), 3);
        assert_eq!(gate.load(), (0, 0));
    }

    #[test]
    fn new_arrivals_do_not_barge_past_queued_waiters() {
        let gate = gate(1, 4, Duration::from_secs(5));
        let order = Arc::new(Mutex::new(Vec::new()));
        let p1 = gate.admit().unwrap();
        let waiter = {
            let gate = gate.clone();
            let order = order.clone();
            std::thread::spawn(move || {
                let _p = gate.admit().expect("waiter admitted");
                order.lock().unwrap().push("waiter");
                // Hold the slot long enough that the main thread's admit()
                // call observably runs while the waiter owns it.
                std::thread::sleep(Duration::from_millis(50));
            })
        };
        while gate.load().1 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Free the slot with the waiter queued, then immediately contend for
        // it: the arrival must queue behind the waiter, never steal the slot.
        drop(p1);
        let _p2 = gate
            .admit()
            .expect("queued behind the waiter, then admitted");
        order.lock().unwrap().push("arrival");
        waiter.join().unwrap();
        assert_eq!(*order.lock().unwrap(), vec!["waiter", "arrival"]);
    }

    #[test]
    fn waiters_admitted_in_strict_arrival_order_under_sustained_load() {
        // One execution slot, a deep queue, and a stream of arrivals that
        // keeps joining while earlier waiters drain: every admission must
        // happen in exact arrival order — targeted head-of-queue handoff,
        // not condvar scramble.
        const WAITERS: usize = 12;
        let gate = gate(1, WAITERS, Duration::from_secs(10));
        let holder = gate.admit().unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for i in 0..WAITERS {
            let gate2 = gate.clone();
            let order2 = order.clone();
            handles.push(std::thread::spawn(move || {
                let permit = gate2.admit().expect("queued then admitted");
                order2.lock().unwrap().push(i);
                drop(permit);
            }));
            // Arrival order is only defined once the waiter is actually
            // queued; gate each spawn on the queue length so the intended
            // order is the real order.
            while gate.load().1 != i + 1 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        // Sustained drain: each admitted waiter releases immediately, so the
        // slot hops head-to-head through the whole queue in one burst.
        drop(holder);
        for h in handles {
            h.join().unwrap();
        }
        let order = order.lock().unwrap();
        assert_eq!(*order, (0..WAITERS).collect::<Vec<_>>());
        assert_eq!(gate.handoffs(), WAITERS as u64, "every admission a handoff");
        assert_eq!(gate.load(), (0, 0));
    }

    // --- Evented admission -------------------------------------------------

    #[test]
    fn evented_admission_grants_immediately_when_free() {
        let gate = gate(2, 4, Duration::from_secs(1));
        let fired = Arc::new(AtomicBool::new(false));
        let f = fired.clone();
        match gate.admit_evented(|| Box::new(move || f.store(true, Ordering::SeqCst))) {
            Ok(AsyncAdmission::Ready(permit)) => drop(permit),
            Ok(AsyncAdmission::Queued(_)) => panic!("free slot must grant immediately"),
            Err(e) => panic!("unexpected rejection: {e:?}"),
        }
        assert!(!fired.load(Ordering::SeqCst), "no callback on a free slot");
        assert_eq!(gate.load(), (0, 0));
    }

    #[test]
    fn evented_grant_callback_fires_and_claim_yields_the_permit() {
        let gate = gate(1, 4, Duration::from_secs(5));
        let holder = gate.admit().unwrap();
        let fired = Arc::new(AtomicBool::new(false));
        let f = fired.clone();
        let ticket = match gate
            .admit_evented(|| Box::new(move || f.store(true, Ordering::SeqCst)))
            .unwrap()
        {
            AsyncAdmission::Queued(t) => t,
            AsyncAdmission::Ready(_) => panic!("slot was held"),
        };
        assert!(ticket.try_claim().is_none(), "not granted yet");
        assert_eq!(gate.load(), (1, 1));
        drop(holder);
        assert!(fired.load(Ordering::SeqCst), "grant callback fired inline");
        let permit = ticket.try_claim().expect("grant claimable");
        assert_eq!(gate.load(), (1, 0), "slot moved, never freed");
        assert!(ticket.try_claim().is_none(), "claims are exactly-once");
        drop(permit);
        assert_eq!(gate.load(), (0, 0));
        assert_eq!(gate.handoffs(), 1);
    }

    #[test]
    fn evented_and_parked_waiters_share_one_fifo() {
        // Arrival order: parked waiter first, evented ticket second. The
        // first release must go to the parked thread, the second to the
        // ticket — strict FIFO regardless of waiter kind.
        let gate = gate(1, 4, Duration::from_secs(5));
        let holder = gate.admit().unwrap();
        let parked_admitted = Arc::new(AtomicBool::new(false));
        let parked = {
            let gate = gate.clone();
            let flag = parked_admitted.clone();
            std::thread::spawn(move || {
                let permit = gate.admit().expect("parked waiter admitted");
                flag.store(true, Ordering::SeqCst);
                // Hold briefly so the ticket's grant observably comes second.
                std::thread::sleep(Duration::from_millis(20));
                drop(permit);
            })
        };
        while gate.load().1 != 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let granted = Arc::new(AtomicBool::new(false));
        let g = granted.clone();
        let ticket = match gate
            .admit_evented(|| Box::new(move || g.store(true, Ordering::SeqCst)))
            .unwrap()
        {
            AsyncAdmission::Queued(t) => t,
            AsyncAdmission::Ready(_) => panic!("slot was held"),
        };
        drop(holder);
        parked.join().unwrap();
        assert!(parked_admitted.load(Ordering::SeqCst));
        assert!(granted.load(Ordering::SeqCst), "ticket granted second");
        drop(ticket.try_claim().expect("claimable after grant"));
        assert_eq!(gate.load(), (0, 0));
    }

    /// The grant callback is built once per request that queues — never for
    /// an immediate grant, never for a rejection.
    #[test]
    fn evented_callback_is_built_only_for_a_queued_ticket() {
        let gate = gate(1, 1, Duration::from_secs(1));
        let built = AtomicUsize::new(0);
        let ask = || {
            gate.admit_evented(|| {
                built.fetch_add(1, Ordering::SeqCst);
                Box::new(|| {})
            })
        };
        let holder = match ask().unwrap() {
            AsyncAdmission::Ready(permit) => permit,
            AsyncAdmission::Queued(_) => panic!("the gate was free"),
        };
        assert_eq!(
            built.load(Ordering::SeqCst),
            0,
            "a free gate builds nothing"
        );
        let queued = match ask().unwrap() {
            AsyncAdmission::Queued(ticket) => ticket,
            AsyncAdmission::Ready(_) => panic!("slot was held"),
        };
        assert_eq!(
            built.load(Ordering::SeqCst),
            1,
            "one ticket wait, one build"
        );
        assert!(matches!(ask(), Err(ServerError::Overloaded { .. })));
        assert_eq!(
            built.load(Ordering::SeqCst),
            1,
            "a rejection builds nothing"
        );
        drop(holder);
        drop(
            queued
                .try_claim()
                .expect("the freed slot went to the ticket"),
        );
        assert_eq!(gate.load(), (0, 0));
    }

    #[test]
    fn evented_queue_overflow_rejects_typed() {
        let gate = gate(1, 1, Duration::from_secs(1));
        let _holder = gate.admit().unwrap();
        let _queued = match gate.admit_evented(|| Box::new(|| {})).unwrap() {
            AsyncAdmission::Queued(t) => t,
            AsyncAdmission::Ready(_) => panic!("slot was held"),
        };
        let err = gate.admit_evented(|| Box::new(|| {})).unwrap_err();
        assert!(matches!(
            err,
            ServerError::Overloaded {
                in_flight: 1,
                queue_depth: 1
            }
        ));
    }

    #[test]
    fn cancelled_ticket_leaves_the_queue_and_never_blocks_a_grant() {
        let gate = gate(1, 4, Duration::from_secs(5));
        let holder = gate.admit().unwrap();
        let ticket = match gate.admit_evented(|| Box::new(|| {})).unwrap() {
            AsyncAdmission::Queued(t) => t,
            AsyncAdmission::Ready(_) => panic!("slot was held"),
        };
        assert_eq!(gate.load(), (1, 1));
        assert!(ticket.cancel().is_none(), "clean cancel owns no slot");
        assert_eq!(gate.load(), (1, 0));
        // The freed slot goes to nobody (queue empty) — plain release.
        drop(holder);
        assert_eq!(gate.load(), (0, 0));
        let _p = gate.admit().expect("gate healthy after cancel");
    }

    #[test]
    fn cancel_after_grant_returns_the_permit_instead_of_stranding_it() {
        let gate = gate(1, 4, Duration::from_secs(5));
        let holder = gate.admit().unwrap();
        let ticket = match gate.admit_evented(|| Box::new(|| {})).unwrap() {
            AsyncAdmission::Queued(t) => t,
            AsyncAdmission::Ready(_) => panic!("slot was held"),
        };
        drop(holder); // grants the ticket
        let permit = ticket
            .cancel()
            .expect("grant raced the cancel: the slot surfaces, never strands");
        assert_eq!(gate.load(), (1, 0));
        drop(permit);
        assert_eq!(gate.load(), (0, 0));
        assert!(ticket.cancel().is_none(), "second cancel is a no-op");
    }

    #[test]
    fn dropping_a_granted_ticket_releases_the_slot() {
        let gate = gate(1, 4, Duration::from_secs(5));
        let holder = gate.admit().unwrap();
        let ticket = match gate.admit_evented(|| Box::new(|| {})).unwrap() {
            AsyncAdmission::Queued(t) => t,
            AsyncAdmission::Ready(_) => panic!("slot was held"),
        };
        drop(holder); // grants the ticket
        drop(ticket); // never claimed — the Drop safety net must free it
        assert_eq!(gate.load(), (0, 0));
        let _p = gate.admit().expect("slot recovered");
    }

    #[test]
    fn evented_tickets_carry_the_queue_deadline() {
        let gate = gate(1, 4, Duration::from_millis(5));
        let _holder = gate.admit().unwrap();
        let ticket = match gate.admit_evented(|| Box::new(|| {})).unwrap() {
            AsyncAdmission::Queued(t) => t,
            AsyncAdmission::Ready(_) => panic!("slot was held"),
        };
        assert!(ticket.deadline().is_some());
        assert!(!ticket.expired() || ticket.waited_ms() >= 5);
        std::thread::sleep(Duration::from_millis(10));
        assert!(ticket.expired(), "deadline passed");
        assert!(ticket.cancel().is_none());
    }

    #[test]
    fn tenant_budget_rejects_after_exhaustion() {
        let budgets = TenantBudgets::new(Some(10));
        assert!(budgets.charge("alice", 6).is_ok());
        assert!(budgets.charge("alice", 4).is_ok());
        let err = budgets.charge("alice", 1).unwrap_err();
        assert!(matches!(
            err,
            ServerError::QuotaExhausted {
                used: 11,
                budget: 10,
                ..
            }
        ));
        assert_eq!(budgets.used("alice"), 10, "rejected request not charged");
        // Other tenants are unaffected; windows reset cleanly.
        assert!(budgets.charge("bob", 10).is_ok());
        budgets.reset_window();
        assert!(budgets.charge("alice", 10).is_ok());
    }

    #[test]
    fn tenant_meter_is_bounded_under_name_churn() {
        let budgets = TenantBudgets::new(None);
        for i in 0..200_000 {
            budgets.charge(&format!("drive-by-{i}"), 1).unwrap();
        }
        // Capacity is TENANT_SHARDS * TRACKED_TENANTS_PER_SHARD (65,536);
        // early drive-by tenants must have been evicted, recent ones kept.
        assert_eq!(budgets.used("drive-by-0"), 0, "idle tenants evicted");
        assert_eq!(budgets.used("drive-by-199999"), 1, "active tenants tracked");
        // Under-enforcement is observable: every forgotten meter is counted,
        // and the count survives window resets.
        let evicted = budgets.evicted_meters();
        assert!(evicted > 0, "evictions surface in the metric");
        budgets.reset_window();
        assert_eq!(budgets.evicted_meters(), evicted, "count is cumulative");
    }

    #[test]
    fn unlimited_budget_never_rejects() {
        let budgets = TenantBudgets::new(None);
        for _ in 0..1000 {
            budgets.charge("anyone", u64::MAX / 2).unwrap();
        }
    }

    #[test]
    fn eviction_count_is_monotonic_and_exact_under_concurrency() {
        // Regression for the old read-side scheme (past_evictions + a live
        // shard walk), where a metrics read racing reset_window could count
        // the same evictions twice. Readers and window resets now run
        // concurrently with eviction-heavy charges; every observed value
        // must be monotonic, and the final count must equal the exact number
        // of meters the shards actually dropped.
        const WRITERS: usize = 4;
        const CHARGES_PER_WRITER: usize = 60_000;
        let budgets = Arc::new(TenantBudgets::new(None));
        let stop = Arc::new(AtomicBool::new(false));

        let readers: Vec<_> = (0..2)
            .map(|_| {
                let budgets = budgets.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    let mut reads = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let now = budgets.evicted_meters();
                        assert!(
                            now >= last,
                            "eviction count went backwards: {last} -> {now}"
                        );
                        last = now;
                        reads += 1;
                    }
                    reads
                })
            })
            .collect();

        let hammer = |phase: &str| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let budgets = budgets.clone();
                    let phase = phase.to_string();
                    std::thread::spawn(move || {
                        // Distinct names per writer and phase: every charge
                        // inserts a fresh meter, overflowing the per-shard
                        // LRU capacity many times over.
                        for i in 0..CHARGES_PER_WRITER {
                            budgets.charge(&format!("{phase}-w{w}-{i}"), 1).unwrap();
                        }
                    })
                })
                .collect();
            for w in writers {
                w.join().unwrap();
            }
        };

        // Phase A, no resets: 240k fresh meters into 65,536 capacity must
        // evict, and concurrent reads stay monotonic while they do.
        hammer("a");
        let after_phase_a = budgets.evicted_meters();
        assert!(after_phase_a > 0, "churn forced evictions");

        // Phase B: same hammer, now racing window resets — the interleaving
        // the old read-side scheme double-counted under.
        let resetter = {
            let budgets = budgets.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    budgets.reset_window();
                    std::thread::sleep(Duration::from_micros(200));
                }
            })
        };
        hammer("b");
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0, "readers observed the live count");
        }
        resetter.join().unwrap();

        // Every charge inserted one fresh meter and none was reinserted, so
        // at most inserted - resident meters can ever have been evicted
        // (resets drop entries without counting them as evictions). The old
        // scheme could exceed this bound by counting an eviction twice.
        let resident: u64 = ["a", "b"]
            .iter()
            .flat_map(|phase| (0..WRITERS).map(move |w| (phase, w)))
            .map(|(phase, w)| {
                (0..CHARGES_PER_WRITER)
                    .filter(|i| budgets.used(&format!("{phase}-w{w}-{i}")) > 0)
                    .count() as u64
            })
            .sum();
        let final_count = budgets.evicted_meters();
        assert!(final_count >= after_phase_a, "ledger survives resets");
        assert!(
            final_count <= (2 * WRITERS * CHARGES_PER_WRITER) as u64 - resident,
            "counted more evictions ({final_count}) than meters that left the shards"
        );
        assert_eq!(
            budgets.evicted_meters(),
            final_count,
            "quiescent reads are stable"
        );
    }

    #[test]
    fn eviction_count_exact_single_threaded() {
        // Exactness without concurrency noise: fill one logical window past
        // total capacity and check the ledger equals inserted - resident.
        let budgets = TenantBudgets::new(None);
        const INSERTED: usize = 100_000;
        for i in 0..INSERTED {
            budgets.charge(&format!("t{i}"), 1).unwrap();
        }
        let resident = (0..INSERTED)
            .filter(|i| budgets.used(&format!("t{i}")) > 0)
            .count();
        assert_eq!(
            budgets.evicted_meters(),
            (INSERTED - resident) as u64,
            "every eviction counted exactly once"
        );
    }
}
