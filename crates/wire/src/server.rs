//! `WireServer`: hosts a [`ShardService`] behind a TCP listener.
//!
//! The threading model is deliberately boring — one accept thread, one
//! thread per connection, a hard cap on concurrent connections — because
//! the hard bounds the paper's serving story cares about (in-flight limit,
//! queue depth, queue deadline) already live in the [`SapphireServer`]'s
//! admission controller behind the service. The wire layer only has to
//! avoid *adding* an unbounded queue in front of it, which the connection
//! cap and the per-connection pipeline depth do.
//!
//! Connections are pipelined, which decouples reading from serving: the
//! connection thread stays in its frame loop, while each correlated
//! request runs as a task on the shared [`exec`] pool and writes its reply
//! — tagged with the request's correlation id, in whatever order it
//! finishes — under the connection's write lock. Backlog per connection is
//! bounded by a fixed pipeline depth: past the cap the
//! connection thread serves the oldest unstarted request inline, so a
//! saturated executor degrades to serial request/reply instead of queueing
//! without bound. If the executor has no idle worker the request also
//! runs inline — the connection thread is itself a worker of last resort,
//! so replies never depend on executor capacity.
//!
//! Shutdown comes in two flavors, both needed by the fault drills:
//!
//! * [`WireServer::shutdown`] — graceful drain: stop accepting, let every
//!   connection finish the request it is currently serving, then join all
//!   threads.
//! * [`WireServer::kill_connections`] — abrupt replica loss: every live
//!   socket is shot mid-stream (clients see resets/short reads, exactly
//!   what a crashed process produces), while the listener keeps running.
//!   Pair with `shutdown` to simulate a full crash where subsequent dials
//!   are refused.
//!
//! [`SapphireServer`]: sapphire_server::SapphireServer

use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use sapphire_core::exec;
use sapphire_server::ShardService;

use crate::codec::{decode_hello, decode_request, encode_hello_ok, encode_reply, LoadHeader};
use crate::frame::{self, kind, WireError, MAX_FRAME, WIRE_VERSION};

/// Tuning knobs for a [`WireServer`].
#[derive(Debug, Clone)]
pub struct WireServerConfig {
    /// How often an idle connection thread wakes to check for shutdown.
    pub idle_poll: Duration,
}

impl Default for WireServerConfig {
    fn default() -> Self {
        WireServerConfig {
            idle_poll: Duration::from_millis(50),
        }
    }
}

/// Counters a hosted replica accumulates (server side of the transport).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireServerStats {
    /// Connections accepted and handshaken.
    pub accepted: u64,
    /// Connections refused because the cap was reached.
    pub refused: u64,
    /// Requests served (ok or typed error).
    pub requests: u64,
    /// Connections dropped for protocol violations.
    pub corrupt_frames: u64,
}

struct Shared {
    service: Arc<dyn ShardService>,
    config: WireServerConfig,
    shutdown: AtomicBool,
    active: AtomicUsize,
    // try_clone handles of every live connection keyed by a per-connection
    // token, so kill_connections can shoot them mid-stream from outside
    // their threads. Workers remove their own entry on exit — a long-lived
    // replica under reconnect churn must not accumulate dead descriptors.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
    workers: Mutex<Vec<JoinHandle<()>>>,
    accepted: AtomicU64,
    refused: AtomicU64,
    requests: AtomicU64,
    corrupt: AtomicU64,
}

/// A [`ShardService`] hosted behind a TCP listener. See the module docs.
pub struct WireServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl WireServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and serve `service`
    /// until [`shutdown`](Self::shutdown).
    pub fn serve(
        service: Arc<dyn ShardService>,
        addr: &str,
        config: WireServerConfig,
    ) -> std::io::Result<WireServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            service,
            config,
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            workers: Mutex::new(Vec::new()),
            accepted: AtomicU64::new(0),
            refused: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
        });
        let accept = {
            let shared = shared.clone();
            std::thread::spawn(move || accept_loop(listener, shared))
        };
        Ok(WireServer {
            addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Server-side transport counters.
    pub fn stats(&self) -> WireServerStats {
        WireServerStats {
            accepted: self.shared.accepted.load(Ordering::Relaxed),
            refused: self.shared.refused.load(Ordering::Relaxed),
            requests: self.shared.requests.load(Ordering::Relaxed),
            corrupt_frames: self.shared.corrupt.load(Ordering::Relaxed),
        }
    }

    /// Shoot every live connection mid-stream (simulated crash); the
    /// listener keeps accepting. See the module docs.
    pub fn kill_connections(&self) {
        let conns = self.shared.conns.lock().unwrap();
        for c in conns.values() {
            let _ = c.shutdown(Shutdown::Both);
        }
    }

    /// Connections currently registered (their worker has not exited).
    /// Closed connections deregister themselves, so under reconnect churn
    /// this tracks live peers, not accept history.
    pub fn live_connections(&self) -> usize {
        self.shared.conns.lock().unwrap().len()
    }

    /// Graceful drain: stop accepting, finish in-flight requests, join all
    /// threads. After this returns, dials to the old address are refused.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop; it re-checks the flag per iteration.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let workers = std::mem::take(&mut *self.shared.workers.lock().unwrap());
        for h in workers {
            let _ = h.join();
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop();
        }
    }
}

/// Maximum concurrent connections; accepts beyond this are closed
/// immediately (the edge's reconnecting client treats that as "reset" and
/// its router retries elsewhere).
const MAX_CONNECTIONS: usize = 64;

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if shared.active.load(Ordering::SeqCst) >= MAX_CONNECTIONS {
            shared.refused.fetch_add(1, Ordering::Relaxed);
            drop(stream);
            continue;
        }
        // Replies are whole frames written in one call, so Nagle has
        // nothing to batch — it only holds a reply back while an earlier
        // one to a caller that has since gone quiet awaits the client's
        // delayed (~40 ms) ACK.
        stream.set_nodelay(true).ok();
        shared.active.fetch_add(1, Ordering::SeqCst);
        shared.accepted.fetch_add(1, Ordering::Relaxed);
        let token = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        if let Ok(handle) = stream.try_clone() {
            shared.conns.lock().unwrap().insert(token, handle);
        }
        let worker = {
            let shared = shared.clone();
            std::thread::spawn(move || {
                serve_connection(stream, &shared);
                // Deregister before the active count drops: once a slot
                // frees up, this connection's clone must already be gone.
                shared.conns.lock().unwrap().remove(&token);
                shared.active.fetch_sub(1, Ordering::SeqCst);
            })
        };
        let mut workers = shared.workers.lock().unwrap();
        workers.push(worker);
        // Reap finished workers so a long-running replica under client
        // reconnect churn does not accumulate join handles without bound.
        let mut live = Vec::with_capacity(workers.len());
        for h in workers.drain(..) {
            if h.is_finished() {
                let _ = h.join();
            } else {
                live.push(h);
            }
        }
        *workers = live;
    }
}

fn serve_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    if frame::set_deadline(&stream, Some(shared.config.idle_poll)).is_err() {
        return;
    }
    // The write half is shared with pipelined request tasks, which reply
    // out of order under this lock.
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    // Set when a pipelined task hits an unrecoverable error (corrupt
    // request, reply write failure) from outside this thread; the frame
    // loop checks it every poll tick and drops the connection.
    let failed = Arc::new(AtomicBool::new(false));
    // Pipelined requests admitted but not yet known-started, oldest first.
    let mut inflight: Vec<exec::TaskHandle> = Vec::new();
    // The idle_poll deadline doubles as the shutdown-check tick, so it can
    // fire mid-frame when a client's frame arrives in chunks spaced wider
    // than the poll interval (large payloads, congestion, injected
    // latency). The FrameReader keeps partial progress across those ticks;
    // a one-shot read would desync the stream and drop the client.
    let mut reader = frame::FrameReader::new();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) || failed.load(Ordering::SeqCst) {
            drain_inflight(&mut inflight);
            return;
        }
        let (kind, corr, payload) = match reader.read_frame_corr(&mut stream, MAX_FRAME) {
            Ok(f) => f,
            Err(WireError::Timeout) => {
                // Poll tick: the connection is idle on the read side, so
                // help the executor along — run the oldest unstarted
                // pipelined request inline and forget handles whose job
                // a worker has already claimed.
                if let Some(h) = inflight.first() {
                    h.run_now();
                }
                inflight.retain(|h| !h.started());
                continue; // progress kept
            }
            Err(WireError::Corrupt(_)) | Err(WireError::TooLarge { .. }) => {
                shared.corrupt.fetch_add(1, Ordering::Relaxed);
                drain_inflight(&mut inflight);
                return; // protocol violation: drop the connection
            }
            Err(_) => {
                drain_inflight(&mut inflight);
                return; // closed / reset / short read
            }
        };
        let outcome = match kind {
            kind::HELLO => handle_hello(&writer, shared, &payload),
            kind::REQUEST => {
                submit_request(&writer, shared, &failed, &mut inflight, corr, payload);
                Ok(())
            }
            _ => {
                shared.corrupt.fetch_add(1, Ordering::Relaxed);
                drain_inflight(&mut inflight);
                return;
            }
        };
        if outcome.is_err() {
            drain_inflight(&mut inflight);
            return;
        }
    }
}

/// Finish every admitted pipelined request this connection still owes a
/// reply for. Unclaimed jobs run inline here; claimed ones are already on
/// an executor worker and own everything they touch (`Arc`s of the shared
/// state and the write half), so they complete safely even after the
/// connection thread exits.
fn drain_inflight(inflight: &mut Vec<exec::TaskHandle>) {
    for h in inflight.drain(..) {
        h.run_now();
    }
}

/// Per-connection cap on pipelined requests admitted before their reply is
/// written. When a connection exceeds it, the connection thread executes
/// the oldest unstarted request inline instead of queueing more work onto
/// the executor.
const PIPELINE_DEPTH: usize = 32;

/// Run one pipelined request as an executor task (inline when the pool has
/// no idle worker), bounding this connection's unstarted backlog by
/// [`PIPELINE_DEPTH`].
fn submit_request(
    writer: &Arc<Mutex<TcpStream>>,
    shared: &Arc<Shared>,
    failed: &Arc<AtomicBool>,
    inflight: &mut Vec<exec::TaskHandle>,
    corr: u64,
    payload: Vec<u8>,
) {
    inflight.retain(|h| !h.started());
    while inflight.len() >= PIPELINE_DEPTH {
        // Over the depth cap: serve the oldest unstarted request on this
        // thread instead of queueing deeper.
        let h = inflight.remove(0);
        h.run_now();
        inflight.retain(|h| !h.started());
    }
    let job = {
        let writer = writer.clone();
        let shared = shared.clone();
        let failed = failed.clone();
        move || {
            if serve_one(&writer, &shared, corr, &payload).is_err() {
                failed.store(true, Ordering::SeqCst);
                // Wake the connection thread out of its poll wait so the
                // failure is noticed within one tick even on an idle link.
                let _ = writer.lock().unwrap().shutdown(Shutdown::Both);
            }
        }
    };
    match exec::global().try_spawn(job) {
        Ok(handle) => inflight.push(handle),
        // No idle worker: the connection thread is the worker of last
        // resort, same guarantee the depth cap relies on.
        Err(job) => job(),
    }
}

/// Decode one request, answer it with the hosted service's own
/// [`ShardService::call`], and write the reply, which echoes `corr`.
fn serve_one(
    writer: &Arc<Mutex<TcpStream>>,
    shared: &Shared,
    corr: u64,
    payload: &[u8],
) -> Result<(), WireError> {
    let req = match decode_request(payload) {
        Ok(r) => r,
        Err(_) => {
            shared.corrupt.fetch_add(1, Ordering::Relaxed);
            return Err(WireError::Corrupt("request".into()));
        }
    };
    let result = shared.service.call(&req);
    shared.requests.fetch_add(1, Ordering::Relaxed);
    let (in_flight, queued) = shared.service.admission_load();
    let load = LoadHeader {
        in_flight: in_flight.min(u32::MAX as usize) as u32,
        queued: queued.min(u32::MAX as usize) as u32,
        pressure: shared.service.shed_pressure_tier().min(u8::MAX as usize) as u8,
    };
    let reply = encode_reply(load, &result);
    let mut w = writer.lock().unwrap();
    frame::write_frame_corr(&mut *w, kind::REPLY, corr, &reply)
}

fn handle_hello(
    writer: &Arc<Mutex<TcpStream>>,
    shared: &Shared,
    payload: &[u8],
) -> Result<(), WireError> {
    // Undecodable, or below our floor: such a peer would misparse every
    // frame we send, so disconnecting (counted, no HELLO_OK) is the only
    // safe answer.
    if !decode_hello(payload).is_ok_and(|offered| offered >= WIRE_VERSION) {
        shared.corrupt.fetch_add(1, Ordering::Relaxed);
        return Err(WireError::Corrupt("hello".into()));
    }
    let hello_ok = encode_hello_ok(
        &shared.service.shard_name(),
        shared.service.top_k(),
        MAX_FRAME,
        WIRE_VERSION,
    );
    let mut w = writer.lock().unwrap();
    frame::write_frame(&mut *w, kind::HELLO_OK, &hello_ok)
}
