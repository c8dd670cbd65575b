//! `WireClient`: a shard replica behind a socket, presented to the cluster
//! router as just another [`ShardService`] whose
//! [`call`](ShardService::call) is one round trip — its typed methods are
//! that `call` plus the reply's kind check.
//!
//! Design rules, in order:
//!
//! 1. **The router owns failover.** The client never retries a request on
//!    another *replica* — it maps every transport failure onto the typed
//!    [`ServerError::Unreachable`] and lets the router's bounded retry /
//!    hedging machinery (built long before this crate existed) decide. The
//!    one exception is a *stale connection*: if the request write itself
//!    fails on a connection that predates the call, the far side most
//!    likely closed it while idle, so the client redials once and replays
//!    — the request provably never reached the replica. Once the write has
//!    succeeded the request may be executing, so any later failure (a
//!    read timeout on a slow replica especially) surfaces directly instead
//!    of silently doubling the replica's work and the caller's latency;
//!    the router's bounded retry decides what happens next.
//! 2. **Load probes never block.** [`ShardService::admission_load`] and
//!    [`ShardService::shed_pressure_tier`] are answered from the load
//!    header piggybacked on the last reply (see
//!    [`LoadHeader`](crate::codec::LoadHeader)), not a round trip.
//! 3. **Every failure is counted.** `connects` / `reconnects` /
//!    `io_errors` / `corrupt_frames` feed the cluster report's transport
//!    section, so a flaky link is visible even when retries hide it from
//!    latency numbers. A request that encodes past the frame cap the
//!    replica advertised is neither: it fails its own call as a
//!    non-retryable [`ServerError::Backend`] before a byte is written.
//!
//! [`ServerError::Unreachable`]: sapphire_server::ServerError::Unreachable
//! [`ServerError::Backend`]: sapphire_server::ServerError::Backend

use std::collections::{HashMap, HashSet};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

use sapphire_core::qcm::CompletionResult;
use sapphire_server::{RunPayload, ServerError, ShardService, TransportStats};
use sapphire_sparql::{Query, QueryResult, SelectQuery};

use crate::codec::{
    decode_hello_ok, decode_reply, encode_hello, encode_request, WireReply, WireRequest,
};
use crate::frame::{self, kind, WireError, MAX_FRAME, WIRE_VERSION};

/// Tuning knobs for a [`WireClient`].
#[derive(Debug, Clone)]
pub struct WireClientConfig {
    /// Deadline for one request/reply exchange (the read side).
    pub call_timeout: Duration,
}

impl Default for WireClientConfig {
    fn default() -> Self {
        WireClientConfig {
            call_timeout: Duration::from_secs(10),
        }
    }
}

/// Deadline for one TCP connect + handshake.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// How often the demux reader re-checks the failure flag while its socket
/// is idle. Failure paths also shoot the socket, so this is a backstop,
/// not the primary wake-up.
const READER_POLL: Duration = Duration::from_millis(100);

/// Cap on remembered timed-out correlation ids. Late replies to remembered
/// ids are dropped silently; once the set is full the link is considered
/// sick and the connection is failed rather than risking an unrecognized
/// id being misread as a protocol violation.
const TOMBSTONE_CAP: usize = 1024;

/// Cap on in-flight requests sharing the connection; callers past it wait
/// for a reply slot. This bounds the client's socket-level concurrency
/// against the replica.
const PIPELINE_DEPTH: usize = 128;

/// A reconnecting, pipelining client for one replica's [`WireServer`]
/// (see the module docs).
///
/// [`WireServer`]: crate::WireServer
pub struct WireClient {
    addr: SocketAddr,
    config: WireClientConfig,
    name: String,
    k: usize,
    /// The largest frame payload the replica accepts, as its last
    /// HELLO_OK advertised it. A request encoding past it fails its call
    /// unwritten: the replica would refuse the frame by dropping the
    /// connection every in-flight call shares.
    max_frame: AtomicU32,
    /// The live connection, shared by every in-flight call. Replaced
    /// wholesale on failure; in-flight callers keep their `Arc` to the
    /// dead one and surface its error.
    pipe: Mutex<Option<Arc<PipeConn>>>,
    /// Set on an IO failure, cleared by the next successful dial — that
    /// dial is a *re*connect.
    broken: AtomicBool,
    connects: AtomicU64,
    reconnects: AtomicU64,
    io_errors: AtomicU64,
    /// Shared with the demux reader thread, which counts protocol
    /// violations (orphan correlation ids, unexpected frame kinds) that no
    /// single caller can be blamed for.
    corrupt_frames: Arc<AtomicU64>,
    load_in_flight: AtomicUsize,
    load_queued: AtomicUsize,
    load_pressure: AtomicUsize,
}

impl WireClient {
    /// Dial `addr` and handshake, learning the replica's name and top-k.
    pub fn connect(addr: SocketAddr, config: WireClientConfig) -> Result<WireClient, WireError> {
        let mut client = WireClient {
            addr,
            config,
            name: String::new(),
            k: 0,
            max_frame: AtomicU32::new(MAX_FRAME),
            pipe: Mutex::new(None),
            broken: AtomicBool::new(false),
            connects: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
            corrupt_frames: Arc::new(AtomicU64::new(0)),
            load_in_flight: AtomicUsize::new(0),
            load_queued: AtomicUsize::new(0),
            load_pressure: AtomicUsize::new(0),
        };
        let (stream, name, k) = client.dial()?;
        client.name = name;
        client.k = k;
        // A spawn failure just drops the stream; the first call redials.
        if let Ok(p) = PipeConn::spawn(stream, &client.corrupt_frames) {
            *client.pipe.lock().unwrap() = Some(p);
        }
        Ok(client)
    }

    /// The replica address this client dials.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The protocol version every handshake of this client settled on.
    pub fn protocol_version(&self) -> u32 {
        WIRE_VERSION
    }

    /// TCP connect + HELLO/HELLO_OK handshake.
    fn dial(&self) -> Result<(TcpStream, String, usize), WireError> {
        let stream =
            TcpStream::connect_timeout(&self.addr, CONNECT_TIMEOUT).map_err(|e| {
                match e.kind() {
                    std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => {
                        WireError::Timeout
                    }
                    kind => WireError::Io(kind, e.to_string()),
                }
            })?;
        stream.set_nodelay(true).ok();
        frame::set_deadline(&stream, Some(CONNECT_TIMEOUT))?;
        let mut s = &stream;
        frame::write_frame(&mut s, kind::HELLO, &encode_hello(WIRE_VERSION))?;
        let (k, payload) = frame::read_frame(&mut s, MAX_FRAME)?;
        if k != kind::HELLO_OK {
            return Err(WireError::Corrupt(format!("expected HELLO_OK, got {k}")));
        }
        let (name, top_k, server_max, chosen) = decode_hello_ok(&payload)?;
        if chosen != WIRE_VERSION {
            return Err(WireError::Corrupt(format!("negotiated version {chosen}")));
        }
        self.max_frame.store(server_max, Ordering::Relaxed);
        self.connects.fetch_add(1, Ordering::Relaxed);
        if self.broken.swap(false, Ordering::Relaxed) {
            self.reconnects.fetch_add(1, Ordering::Relaxed);
        }
        Ok((stream, name, top_k))
    }

    /// The live connection, dialing a replacement if the current one is
    /// dead or absent. `fresh` = this call dialed it.
    fn get_pipe(&self) -> Result<(Arc<PipeConn>, bool), ServerError> {
        let mut guard = self.pipe.lock().unwrap();
        if let Some(p) = guard.as_ref() {
            if !p.failed.load(Ordering::SeqCst) {
                return Ok((p.clone(), false));
            }
        }
        // Dead or absent: replace it. The dial happens under the lock so
        // concurrent callers hitting the same dead connection produce one
        // reconnect, not a stampede.
        let (stream, _, _) = self.dial().map_err(|e| self.fail(e))?;
        if let Some(old) = guard.take() {
            // Its reader saw the failure (the socket is shot) and is
            // exiting; reclaim the thread.
            old.join_reader();
        }
        let p = PipeConn::spawn(stream, &self.corrupt_frames).map_err(|e| self.fail(e))?;
        *guard = Some(p.clone());
        Ok((p, true))
    }

    /// Decode a reply's load header + result and fold the header into the
    /// lock-free load probes.
    fn finish_reply(&self, reply: &[u8]) -> Result<WireReply, ServerError> {
        let (load, result) = match decode_reply(reply) {
            Ok(ok) => ok,
            Err(e) => {
                self.corrupt_frames.fetch_add(1, Ordering::Relaxed);
                return Err(e.to_server_error());
            }
        };
        self.load_in_flight
            .store(load.in_flight as usize, Ordering::Relaxed);
        self.load_queued
            .store(load.queued as usize, Ordering::Relaxed);
        self.load_pressure
            .store(load.pressure as usize, Ordering::Relaxed);
        result
    }

    fn fail(&self, e: WireError) -> ServerError {
        if e.is_transport() {
            self.io_errors.fetch_add(1, Ordering::Relaxed);
            self.broken.store(true, Ordering::Relaxed);
        } else {
            self.corrupt_frames.fetch_add(1, Ordering::Relaxed);
        }
        e.to_server_error()
    }
}

impl Drop for WireClient {
    fn drop(&mut self) {
        if let Some(p) = self.pipe.lock().unwrap().take() {
            // Shooting the socket wakes the demux reader out of its read;
            // join it so no thread outlives the client.
            p.fail();
            p.join_reader();
        }
    }
}

/// One pipelined connection: many in-flight requests share
/// one socket, each tagged with a correlation id; a demux reader thread
/// routes replies — in whatever order the replica finishes them — to the
/// callers parked on per-request channels.
struct PipeConn {
    writer: Mutex<TcpStream>,
    state: Mutex<PipeState>,
    /// Signalled when a reply (or failure) frees an in-flight slot.
    room: Condvar,
    next_corr: AtomicU64,
    failed: AtomicBool,
    reader: Mutex<Option<std::thread::JoinHandle<()>>>,
    corrupt: Arc<AtomicU64>,
}

struct PipeState {
    /// Reply routes for in-flight correlation ids.
    waiters: HashMap<u64, mpsc::Sender<Vec<u8>>>,
    /// Ids whose caller hit its deadline and left. A late reply to one is
    /// dropped silently; an id in neither map is a protocol violation.
    tombstones: HashSet<u64>,
}

impl PipeConn {
    fn spawn(stream: TcpStream, corrupt: &Arc<AtomicU64>) -> Result<Arc<PipeConn>, WireError> {
        frame::set_deadline(&stream, Some(READER_POLL))?;
        let writer = stream
            .try_clone()
            .map_err(|e| WireError::Io(e.kind(), e.to_string()))?;
        let conn = Arc::new(PipeConn {
            writer: Mutex::new(writer),
            state: Mutex::new(PipeState {
                waiters: HashMap::new(),
                tombstones: HashSet::new(),
            }),
            room: Condvar::new(),
            next_corr: AtomicU64::new(1),
            failed: AtomicBool::new(false),
            reader: Mutex::new(None),
            corrupt: corrupt.clone(),
        });
        let handle = {
            let conn = conn.clone();
            std::thread::Builder::new()
                .name("sapphire-wire-demux".into())
                .spawn(move || reader_loop(&conn, stream))
                .map_err(|e| WireError::Io(e.kind(), e.to_string()))?
        };
        *conn.reader.lock().unwrap() = Some(handle);
        Ok(conn)
    }

    /// One pipelined exchange. `wrote` is set once the request frame hit
    /// the socket — past that point the replica may be executing it, so
    /// the caller must not replay.
    fn call(
        &self,
        payload: &[u8],
        timeout: Duration,
        wrote: &mut bool,
    ) -> Result<Vec<u8>, WireError> {
        let corr = self.next_corr.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        {
            let mut st = self.state.lock().unwrap();
            while st.waiters.len() >= PIPELINE_DEPTH {
                if self.failed.load(Ordering::SeqCst) {
                    return Err(pipe_down());
                }
                st = self.room.wait(st).unwrap();
            }
            if self.failed.load(Ordering::SeqCst) {
                return Err(pipe_down());
            }
            st.waiters.insert(corr, tx);
        }
        {
            let mut w = self.writer.lock().unwrap();
            if let Err(e) = frame::write_frame_corr(&mut *w, kind::REQUEST, corr, payload) {
                drop(w);
                self.state.lock().unwrap().waiters.remove(&corr);
                // A failed write leaves the stream state unknown; the whole
                // connection is done.
                self.fail();
                return Err(e);
            }
        }
        *wrote = true;
        match rx.recv_timeout(timeout) {
            Ok(reply) => Ok(reply),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                let mut st = self.state.lock().unwrap();
                if st.waiters.remove(&corr).is_some() {
                    // Leave a tombstone so the late reply is recognized
                    // and dropped instead of read as an orphan.
                    st.tombstones.insert(corr);
                    let overflow = st.tombstones.len() > TOMBSTONE_CAP;
                    drop(st);
                    self.room.notify_one();
                    if overflow {
                        self.fail();
                    }
                }
                Err(WireError::Timeout)
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(pipe_down()),
        }
    }

    /// Tear the connection down: every parked caller's channel drops (they
    /// see a transport error), future callers get refused, and the shot
    /// socket wakes the demux reader so it exits.
    fn fail(&self) {
        self.failed.store(true, Ordering::SeqCst);
        let _ = self.writer.lock().unwrap().shutdown(Shutdown::Both);
        let mut st = self.state.lock().unwrap();
        st.waiters.clear();
        st.tombstones.clear();
        drop(st);
        self.room.notify_all();
    }

    fn join_reader(&self) {
        if let Some(h) = self.reader.lock().unwrap().take() {
            let _ = h.join();
        }
    }
}

fn pipe_down() -> WireError {
    WireError::Io(
        std::io::ErrorKind::BrokenPipe,
        "pipelined connection failed".into(),
    )
}

fn reader_loop(conn: &PipeConn, mut stream: TcpStream) {
    let mut reader = frame::FrameReader::new();
    loop {
        if conn.failed.load(Ordering::SeqCst) {
            return;
        }
        let (k, corr, payload) = match reader.read_frame_corr(&mut stream, MAX_FRAME) {
            Ok(f) => f,
            Err(WireError::Timeout) => continue, // idle poll tick
            Err(_) => {
                conn.fail();
                return;
            }
        };
        if k != kind::REPLY {
            conn.corrupt.fetch_add(1, Ordering::Relaxed);
            conn.fail();
            return;
        }
        let mut st = conn.state.lock().unwrap();
        if let Some(tx) = st.waiters.remove(&corr) {
            drop(st);
            // The caller may have just timed out and dropped its receiver;
            // that narrow race reads as a timeout there, drop here.
            let _ = tx.send(payload);
            conn.room.notify_one();
        } else if st.tombstones.remove(&corr) {
            // Late reply to a timed-out call: swallowed by design.
        } else {
            drop(st);
            // A correlation id this client never issued (or already
            // settled): the demux map is authoritative, so the stream can
            // no longer be trusted.
            conn.corrupt.fetch_add(1, Ordering::Relaxed);
            conn.fail();
            return;
        }
    }
}

impl ShardService for WireClient {
    fn shard_name(&self) -> String {
        self.name.clone()
    }

    fn top_k(&self) -> usize {
        self.k
    }

    fn complete_top(
        &self,
        tenant: &str,
        typed: &str,
        k: usize,
    ) -> Result<CompletionResult, ServerError> {
        self.call(&WireRequest::Complete {
            tenant: tenant.to_string(),
            term: typed.to_string(),
            fetch: k,
        })?
        .into_completion()
    }

    fn run_select_tiered(
        &self,
        tenant: &str,
        query: &SelectQuery,
        tier: usize,
        budget: Option<Duration>,
    ) -> Result<Arc<RunPayload>, ServerError> {
        self.call(&WireRequest::Run {
            tenant: tenant.to_string(),
            query: query.clone(),
            tier,
            budget,
        })?
        .into_run()
        .map(Arc::new)
    }

    fn execute_raw(&self, tenant: &str, query: &Query) -> Result<QueryResult, ServerError> {
        self.call(&WireRequest::Raw {
            tenant: tenant.to_string(),
            query: query.clone(),
        })?
        .into_raw()
    }

    /// One request over the shared connection, with the stale-connection
    /// redial described in the module docs, mapping transport failures onto
    /// typed errors.
    fn call(&self, req: &WireRequest) -> Result<WireReply, ServerError> {
        let payload = encode_request(req);
        let max = self.max_frame.load(Ordering::Relaxed);
        if payload.len() > max as usize {
            // Neither a link failure nor a corrupt frame: nothing is sent,
            // and no counter moves.
            let len = u32::try_from(payload.len()).unwrap_or(u32::MAX);
            return Err(WireError::TooLarge { len, max }.to_server_error());
        }
        let mut retried = false;
        loop {
            let (pipe, fresh) = self.get_pipe()?;
            let mut wrote = false;
            let reply = pipe.call(&payload, self.config.call_timeout, &mut wrote);
            match reply {
                Ok(bytes) => return self.finish_reply(&bytes),
                Err(e) if !e.is_transport() => {
                    self.corrupt_frames.fetch_add(1, Ordering::Relaxed);
                    return Err(e.to_server_error());
                }
                // Once the request write succeeded the replica may be
                // executing it; replaying here would double its work (and
                // stack a second call_timeout on top) exactly when it is
                // slow. Surface the typed failure and let the router's
                // bounded retry decide.
                Err(e) if fresh || wrote || retried => return Err(self.fail(e)),
                Err(_) => {
                    // The enqueue/write failed on a connection that predates
                    // this call: it died while idle (replica restarted,
                    // proxy killed it) and the request provably never
                    // reached the replica, so one redial is safe.
                    self.io_errors.fetch_add(1, Ordering::Relaxed);
                    self.broken.store(true, Ordering::Relaxed);
                    retried = true;
                }
            }
        }
    }

    fn admission_load(&self) -> (usize, usize) {
        (
            self.load_in_flight.load(Ordering::Relaxed),
            self.load_queued.load(Ordering::Relaxed),
        )
    }

    fn shed_pressure_tier(&self) -> usize {
        self.load_pressure.load(Ordering::Relaxed)
    }

    fn transport(&self) -> &'static str {
        "wire"
    }

    fn transport_stats(&self) -> TransportStats {
        TransportStats {
            connects: self.connects.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            io_errors: self.io_errors.load(Ordering::Relaxed),
            corrupt_frames: self.corrupt_frames.load(Ordering::Relaxed),
        }
    }
}
