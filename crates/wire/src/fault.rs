//! `FaultProxy`: a byte-level TCP proxy that injects the failures the
//! wire layer claims to survive.
//!
//! It sits between a [`WireClient`](crate::WireClient) and a
//! [`WireServer`](crate::WireServer) and forwards raw bytes, with two
//! injectable faults:
//!
//! * **one-way partition** — server→client bytes are read and discarded
//!   (the classic "requests arrive, replies vanish" half-open failure that
//!   turns into client read timeouts);
//! * **kill active** — every live connection pair is shot mid-stream.
//!
//! The proxy knows nothing about frames on purpose: faults land at
//! arbitrary byte boundaries, which is exactly how real networks corrupt
//! a length-prefixed stream (and what [`WireError::ShortRead`] /
//! [`WireError::Timeout`](crate::WireError::Timeout) must classify
//! correctly).
//!
//! [`WireError::ShortRead`]: crate::WireError::ShortRead

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// The switchboard of injectable faults, shared with every pump thread.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Discard server→client bytes (replies vanish).
    blackhole_down: AtomicBool,
}

impl FaultPlan {
    /// One-way partition toward the client: replies are swallowed.
    pub fn set_partition_to_client(&self, on: bool) {
        self.blackhole_down.store(on, Ordering::Relaxed);
    }
}

/// A fault-injecting TCP proxy in front of one upstream address.
pub struct FaultProxy {
    addr: SocketAddr,
    plan: Arc<FaultPlan>,
    shutdown: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    accept: Option<JoinHandle<()>>,
}

impl FaultProxy {
    /// Listen on an ephemeral loopback port, forwarding to `upstream`.
    pub fn start(upstream: SocketAddr) -> std::io::Result<FaultProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let plan = Arc::new(FaultPlan::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let plan = plan.clone();
            let shutdown = shutdown.clone();
            let conns = conns.clone();
            std::thread::spawn(move || {
                accept_loop(listener, upstream, plan, shutdown, conns);
            })
        };
        Ok(FaultProxy {
            addr,
            plan,
            shutdown,
            conns,
            accept: Some(accept),
        })
    }

    /// The address clients should dial instead of the upstream.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The fault switchboard.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Shoot every live connection pair mid-stream.
    pub fn kill_active(&self) {
        let conns = self.conns.lock().unwrap();
        for c in conns.iter() {
            let _ = c.shutdown(Shutdown::Both);
        }
    }

    /// Stop accepting, kill live connections, join the accept thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.kill_active();
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    upstream: SocketAddr,
    plan: Arc<FaultPlan>,
    shutdown: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
) {
    loop {
        let client = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let server = match TcpStream::connect_timeout(&upstream, Duration::from_secs(1)) {
            Ok(s) => s,
            Err(_) => {
                drop(client);
                continue;
            }
        };
        for s in [&client, &server] {
            if let Ok(h) = s.try_clone() {
                conns.lock().unwrap().push(h);
            }
        }
        // Two pump threads per pair, one per direction; only the reply
        // direction can be partitioned.
        spawn_pump(client.try_clone().ok(), server.try_clone().ok(), None);
        spawn_pump(Some(server), Some(client), Some(plan.clone()));
    }
}

/// Forward `from` to `to` until either side closes; with `plan`, its
/// partition switch discards what this pump reads.
fn spawn_pump(from: Option<TcpStream>, to: Option<TcpStream>, plan: Option<Arc<FaultPlan>>) {
    let (Some(mut from), Some(mut to)) = (from, to) else {
        return;
    };
    std::thread::spawn(move || {
        let mut buf = [0u8; 16 * 1024];
        loop {
            let n = match from.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => n,
            };
            if plan
                .as_ref()
                .is_some_and(|p| p.blackhole_down.load(Ordering::Relaxed))
            {
                continue; // read and discard: a half-open partition
            }
            if to.write_all(&buf[..n]).is_err() {
                break;
            }
        }
        // Propagate the close so the other end does not hang forever.
        let _ = to.shutdown(Shutdown::Both);
        let _ = from.shutdown(Shutdown::Both);
    });
}
