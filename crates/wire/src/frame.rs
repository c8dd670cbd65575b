//! Frame layer: the only thing that ever touches a socket.
//!
//! Every message is one frame:
//!
//! ```text
//! +-------+-------+--------------+-------------------+------------------+
//! | magic | kind  | len (u32 LE) | corr id (u64 LE)  | payload (len B)  |
//! | 0xC5  | 1 B   | 4 B          | 8 B               | codec-encoded    |
//! +-------+-------+--------------+-------------------+------------------+
//! ```
//!
//! The correlation id is what lets one connection carry many in-flight
//! requests (pipelining): the client stamps each REQUEST, the server echoes
//! the stamp on the matching REPLY, and replies may arrive in any order.
//! Handshake frames (HELLO/HELLO_OK) carry id 0.
//!
//! The magic byte catches desynchronized streams immediately (a reader that
//! lost frame alignment sees garbage where 0xC5 should be, not a plausible
//! length it would block on), and the length prefix is validated against a
//! hard cap *before* any allocation, so a corrupt or hostile length can
//! neither hang the reader nor balloon memory.

use std::io::{Read, Write};
use std::time::Duration;

/// First byte of every frame.
pub const MAGIC: u8 = 0xC5;

/// The protocol version this build speaks, carried in HELLO/HELLO_OK. There
/// is exactly one: a peer offering less is refused at the handshake. It
/// moves whenever a frame's payload layout does (4: a graph pattern carries
/// its optional `VALUES` block).
pub const WIRE_VERSION: u32 = 4;

/// Bytes before the payload: magic, kind, length, correlation id.
const HEADER_LEN: usize = 14;
/// The header prefix that is validated (magic, length cap) as soon as it
/// has arrived — before waiting on the rest of a possibly hostile stream.
const PREFIX_LEN: usize = 6;

/// Default upper bound on one frame's payload (64 MiB) — generous for a
/// shard reply full of prefetched suggestion answers, tiny next to what a
/// corrupt 4-byte length can claim.
pub const MAX_FRAME: u32 = 64 << 20;

/// Frame kinds.
pub mod kind {
    /// Client → server, first frame on a connection: `[version u32]`.
    pub const HELLO: u8 = 1;
    /// Server → client handshake ack:
    /// `[name][k u32][max_frame u32][version u32]`.
    pub const HELLO_OK: u8 = 2;
    /// Client → server: one encoded [`WireRequest`](crate::WireRequest).
    pub const REQUEST: u8 = 3;
    /// Server → client: load header + one encoded result.
    pub const REPLY: u8 = 4;
}

/// Every way the transport can fail, kept distinct so each maps onto the
/// right typed [`ServerError`](sapphire_server::ServerError) (see
/// [`WireError::to_server_error`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The OS-level IO failure (connect refused, reset, broken pipe, ...).
    Io(std::io::ErrorKind, String),
    /// The peer closed the connection mid-frame.
    ShortRead,
    /// A read or connect deadline expired.
    Timeout,
    /// The bytes violate the protocol (bad magic, bad tag, length overruns
    /// the payload, non-UTF-8 string, unknown enum discriminant).
    Corrupt(String),
    /// The announced payload length exceeds the frame cap.
    TooLarge {
        /// Announced payload length.
        len: u32,
        /// The configured cap.
        max: u32,
    },
    /// The peer closed the connection cleanly between frames.
    Closed,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(kind, m) => write!(f, "io error ({kind:?}): {m}"),
            WireError::ShortRead => write!(f, "connection closed mid-frame"),
            WireError::Timeout => write!(f, "deadline expired"),
            WireError::Corrupt(m) => write!(f, "corrupt frame: {m}"),
            WireError::TooLarge { len, max } => {
                write!(f, "frame too large ({len} bytes, cap {max})")
            }
            WireError::Closed => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for WireError {}

impl WireError {
    /// True for failures of the *link* (the request may never have reached
    /// the peer's data path): safe to fail over to a sibling replica.
    /// False for protocol violations, which retrying cannot fix.
    pub fn is_transport(&self) -> bool {
        !matches!(self, WireError::Corrupt(_) | WireError::TooLarge { .. })
    }

    /// The machine-stable reason string carried inside
    /// [`ServerError::Unreachable`](sapphire_server::ServerError::Unreachable).
    pub fn reason(&self) -> &'static str {
        match self {
            WireError::Io(std::io::ErrorKind::ConnectionRefused, _) => "connect",
            WireError::Io(std::io::ErrorKind::ConnectionReset, _)
            | WireError::Io(std::io::ErrorKind::ConnectionAborted, _)
            | WireError::Io(std::io::ErrorKind::BrokenPipe, _) => "reset",
            WireError::Io(_, _) => "reset",
            WireError::ShortRead => "short read",
            WireError::Timeout => "timeout",
            WireError::Closed => "closed",
            WireError::Corrupt(_) | WireError::TooLarge { .. } => "corrupt",
        }
    }

    /// Map onto the serving tier's typed error surface: transport failures
    /// become the retryable
    /// [`ServerError::Unreachable`](sapphire_server::ServerError::Unreachable)
    /// (the cluster router fails them over to a sibling replica); protocol
    /// violations become a non-retryable
    /// [`ServerError::Backend`](sapphire_server::ServerError::Backend).
    pub fn to_server_error(&self) -> sapphire_server::ServerError {
        if self.is_transport() {
            sapphire_server::ServerError::Unreachable {
                reason: self.reason().to_string(),
            }
        } else {
            sapphire_server::ServerError::Backend(self.to_string())
        }
    }
}

fn io_error(e: std::io::Error) -> WireError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => WireError::Timeout,
        kind => WireError::Io(kind, e.to_string()),
    }
}

/// Incremental frame reader whose partial progress survives read
/// deadlines.
///
/// [`read_frame`] forgets any bytes it already consumed when the socket's
/// read deadline fires mid-frame — fine for a handshake whose deadline
/// covers the whole exchange (the connection is discarded on timeout), fatal
/// for a peer using a short poll-style deadline to check a shutdown flag
/// between frames: a frame arriving in chunks spaced wider than the poll
/// interval would desync the stream, and the next read would parse payload
/// bytes as a header. This reader keeps the header/payload cursor across
/// calls, so after a [`WireError::Timeout`] the caller can simply call
/// again and resume exactly where the stream left off.
#[derive(Default)]
pub struct FrameReader {
    header: [u8; HEADER_LEN],
    header_have: usize,
    /// Allocated once the header prefix is complete and validated.
    payload: Option<Vec<u8>>,
    payload_have: usize,
}

impl FrameReader {
    /// A reader positioned at a frame boundary.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// True when part of the next frame has already been consumed (a
    /// deadline that fires now interrupted a frame mid-arrival, it did not
    /// find the connection idle).
    pub fn mid_frame(&self) -> bool {
        self.header_have > 0 || self.payload.is_some()
    }

    /// Fill `header[..upto]`, keeping progress across calls.
    fn fill_header(&mut self, r: &mut impl Read, upto: usize) -> Result<(), WireError> {
        while self.header_have < upto {
            match r.read(&mut self.header[self.header_have..upto]) {
                // EOF exactly on a frame boundary is a graceful close;
                // mid-header (or mid-payload) it is a short read.
                Ok(0) => {
                    return Err(if self.mid_frame() {
                        WireError::ShortRead
                    } else {
                        WireError::Closed
                    })
                }
                Ok(n) => self.header_have += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(io_error(e)),
            }
        }
        Ok(())
    }

    /// Read (or continue reading) one frame, validating magic and length
    /// cap before allocating. Returns `(kind, corr, payload)` and resets to
    /// the next frame boundary on success. On [`WireError::Timeout`] all
    /// partial progress is kept — call again to resume. Any other error is
    /// fatal for the connection (the stream position is unspecified).
    pub fn read_frame_corr(
        &mut self,
        r: &mut impl Read,
        max_frame: u32,
    ) -> Result<(u8, u64, Vec<u8>), WireError> {
        self.fill_header(r, PREFIX_LEN)?;
        if self.payload.is_none() {
            if self.header[0] != MAGIC {
                return Err(WireError::Corrupt(format!(
                    "bad magic 0x{:02X} (want 0x{MAGIC:02X})",
                    self.header[0]
                )));
            }
            let len = u32::from_le_bytes([
                self.header[2],
                self.header[3],
                self.header[4],
                self.header[5],
            ]);
            if len > max_frame {
                return Err(WireError::TooLarge {
                    len,
                    max: max_frame,
                });
            }
            self.payload = Some(vec![0u8; len as usize]);
            self.payload_have = 0;
        }
        self.fill_header(r, HEADER_LEN)?;
        let payload = self.payload.as_mut().expect("payload allocated above");
        while self.payload_have < payload.len() {
            match r.read(&mut payload[self.payload_have..]) {
                Ok(0) => return Err(WireError::ShortRead),
                Ok(n) => self.payload_have += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(io_error(e)),
            }
        }
        let kind = self.header[1];
        let corr = u64::from_le_bytes(
            self.header[PREFIX_LEN..]
                .try_into()
                .expect("slice is exactly 8 bytes"),
        );
        let payload = self.payload.take().expect("payload allocated above");
        self.header_have = 0;
        self.payload_have = 0;
        Ok((kind, corr, payload))
    }
}

/// Write one frame carrying a correlation id. The header and payload go
/// out in a single `write_all` so a concurrent reader never sees a torn
/// header — which is what lets many threads interleave whole frames on one
/// connection under a write lock.
pub fn write_frame_corr(
    w: &mut impl Write,
    kind: u8,
    corr: u64,
    payload: &[u8],
) -> Result<(), WireError> {
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.push(MAGIC);
    frame.push(kind);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&corr.to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame).map_err(io_error)?;
    w.flush().map_err(io_error)
}

/// Write one uncorrelated (handshake) frame: correlation id 0.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> Result<(), WireError> {
    write_frame_corr(w, kind, 0, payload)
}

/// Read one frame, validating magic and length cap before allocating.
/// Returns `(kind, payload)`. One-shot: a deadline that fires mid-frame
/// loses the bytes already consumed, so only use this where a timeout is
/// fatal for the connection (the handshake) — pollers must hold a
/// [`FrameReader`].
pub fn read_frame(r: &mut impl Read, max_frame: u32) -> Result<(u8, Vec<u8>), WireError> {
    FrameReader::new()
        .read_frame_corr(r, max_frame)
        .map(|(kind, _corr, payload)| (kind, payload))
}

/// A read deadline for the next frame(s) on a socket. `None` blocks forever.
pub fn set_deadline(stream: &std::net::TcpStream, d: Option<Duration>) -> Result<(), WireError> {
    stream.set_read_timeout(d).map_err(io_error)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, kind::REQUEST, b"hello").unwrap();
        let (k, p) = read_frame(&mut &buf[..], MAX_FRAME).unwrap();
        assert_eq!(k, kind::REQUEST);
        assert_eq!(p, b"hello");
    }

    #[test]
    fn round_trip_carries_the_correlation_id() {
        let mut buf = Vec::new();
        write_frame_corr(&mut buf, kind::REQUEST, 0xDEAD_BEEF_0042, b"pipelined").unwrap();
        let (k, corr, p) = FrameReader::new()
            .read_frame_corr(&mut &buf[..], MAX_FRAME)
            .unwrap();
        assert_eq!(k, kind::REQUEST);
        assert_eq!(corr, 0xDEAD_BEEF_0042);
        assert_eq!(p, b"pipelined");
    }

    #[test]
    fn bad_magic_is_corrupt() {
        let buf = [0xFFu8, 1, 0, 0, 0, 0];
        assert!(matches!(
            read_frame(&mut &buf[..], MAX_FRAME),
            Err(WireError::Corrupt(_))
        ));
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut buf = vec![MAGIC, kind::REPLY];
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut &buf[..], MAX_FRAME),
            Err(WireError::TooLarge { len: u32::MAX, .. })
        ));
    }

    #[test]
    fn truncated_payload_is_short_read_not_closed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, kind::REPLY, &[9; 100]).unwrap();
        buf.truncate(20);
        assert_eq!(
            read_frame(&mut &buf[..], MAX_FRAME),
            Err(WireError::ShortRead)
        );
    }

    #[test]
    fn eof_between_frames_is_a_clean_close() {
        assert_eq!(read_frame(&mut &[][..], MAX_FRAME), Err(WireError::Closed));
    }

    /// Yields `data` a few bytes at a time with a `WouldBlock` (= read
    /// deadline fired) between chunks — a frame arriving slower than a
    /// poll-style timeout.
    struct Trickle {
        data: Vec<u8>,
        pos: usize,
        chunk: usize,
        ready: bool,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if !self.ready {
                self.ready = true;
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            self.ready = false;
            let n = self.chunk.min(self.data.len() - self.pos).min(buf.len());
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn frame_reader_survives_timeouts_mid_frame() {
        let mut data = Vec::new();
        write_frame_corr(&mut data, kind::REQUEST, 1, &[7; 100]).unwrap();
        write_frame_corr(&mut data, kind::REQUEST, 2, b"second").unwrap();
        // 3-byte chunks split both the header and the payload across many
        // timeout ticks; every boundary must be survivable.
        let mut src = Trickle {
            data,
            pos: 0,
            chunk: 3,
            ready: false,
        };
        let mut reader = FrameReader::new();
        let mut frames = Vec::new();
        let mut timeouts = 0;
        while frames.len() < 2 {
            match reader.read_frame_corr(&mut src, MAX_FRAME) {
                Ok(f) => frames.push(f),
                Err(WireError::Timeout) => timeouts += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(frames[0], (kind::REQUEST, 1, vec![7; 100]));
        assert_eq!(frames[1], (kind::REQUEST, 2, b"second".to_vec()));
        assert!(timeouts > 10, "the trickle must actually have timed out");
    }

    #[test]
    fn frame_reader_reports_mid_frame_progress() {
        let mut data = Vec::new();
        write_frame(&mut data, kind::REPLY, &[1; 10]).unwrap();
        data.truncate(3); // half a header
        let mut reader = FrameReader::new();
        assert!(!reader.mid_frame());
        assert_eq!(
            reader.read_frame_corr(&mut &data[..], MAX_FRAME),
            Err(WireError::ShortRead)
        );
        assert!(reader.mid_frame());
    }
}
