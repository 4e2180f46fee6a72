//! Every node connection of the distributed driver, behind one owner.
//!
//! [`super::transport`] gives the fleet its framing: one JSON document
//! per `\n`-terminated line over a byte stream. What it cannot give the
//! driver is *concurrency*: a [`super::transport::Transport`] is one
//! request/response stream, so a driver built on it can only keep one
//! exchange in flight and its wall-clock is the sum of every round-trip
//! in the run. This module is the other half: a [`PollTransport`] owns
//! **all** node connections at once, so a single driver thread can start
//! many exchanges, let the nodes compute concurrently, and still
//! *consume* the replies in a deterministic order of its own choosing
//! (the property DESIGN.md §9 leans on).
//!
//! # Model
//!
//! * **Registration** hands a TCP connection to the transport and
//!   returns a [`Token`]. The stream is used directly, in blocking mode
//!   with a timeout.
//! * **Sending queues.** [`PollTransport::send`] appends a frame to its
//!   connection's output buffer and touches no stream.
//! * **Receiving hands over.** The caller names the connection whose
//!   reply it needs next; [`PollTransport::recv_deadline`] first writes
//!   out every connection's queue, one `write` each, and then waits *in
//!   the kernel* on that one connection, a blocking read. No readiness
//!   multiplexer is needed because the caller consumes replies in an
//!   order it already knows: replies of the connections it is not
//!   waiting on wait too, in their socket buffers, and cost nothing
//!   until asked for. A thread that waits this way gives its CPU to the
//!   node that must compute the reply instead of competing with it.
//!
//! So a same-instant batch of requests costs one write and one read per
//! node, however many frames it holds. Inbound bytes are split by the
//! one `FrameBuf` of [`super::transport`], per connection, so a frame
//! that arrives in pieces or behind another is neither lost nor
//! reordered.
//!
//! # Bounds
//!
//! No call waits without end on a connection: the call's deadline is
//! the stream's read *and* write timeout, so a peer that never answers —
//! or never reads — surfaces as the typed [`PollError::Timeout`]. No
//! system call waits longer than the deadline and none starts after it
//! has passed. A frame longer than
//! [`MAX_FRAME_BYTES`](super::transport::MAX_FRAME_BYTES) is
//! [`PollError::Frame`]. After any error a connection's framing cannot be
//! trusted (a reply may be half-read, a request half-written), so the
//! connection is closed and its token is dead.

use std::io::{self, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::transport::{push_frame, FrameBuf, FrameError};

/// Identifies one registered connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Token(usize);

/// What [`PollTransport::recv_deadline`] can fail with.
#[derive(Debug)]
pub enum PollError {
    /// The peer produced no frame — or accepted no more bytes — within
    /// the deadline.
    Timeout {
        /// How long the call waited before giving up.
        waited: Duration,
    },
    /// The underlying stream failed.
    Io(io::Error),
    /// The peer's bytes are not frames.
    Frame(FrameError),
    /// The token does not name a live registration.
    Unregistered,
}

impl std::fmt::Display for PollError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PollError::Timeout { waited } => {
                write!(f, "no progress within {} ms", waited.as_millis())
            }
            PollError::Io(e) => write!(f, "i/o error: {e}"),
            PollError::Frame(e) => write!(f, "bad frame: {e}"),
            PollError::Unregistered => f.write_str("connection is not registered"),
        }
    }
}

impl std::error::Error for PollError {}

impl From<io::Error> for PollError {
    fn from(e: io::Error) -> Self {
        PollError::Io(e)
    }
}

impl From<FrameError> for PollError {
    fn from(e: FrameError) -> Self {
        PollError::Frame(e)
    }
}

/// A blocking call that ran into the stream's timeout (`WouldBlock` on
/// Unix, `TimedOut` on Windows) is a [`PollError::Timeout`].
fn timed(e: io::Error, start: Instant) -> PollError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => PollError::Timeout {
            waited: start.elapsed(),
        },
        _ => PollError::Io(e),
    }
}

struct Conn {
    /// A blocking TCP stream, read and written directly.
    stream: TcpStream,
    /// The read and write timeout last set on `stream`, so the hot path
    /// — every call carrying the same deadline — sets none.
    armed: Option<Duration>,
    /// Inbound bytes and the cursor that splits them into frames.
    inbuf: FrameBuf,
    /// Frames queued since the last write.
    outbuf: Vec<u8>,
    /// Why a write to this connection failed while another was being
    /// waited on; reported when this one is next named.
    failed: Option<PollError>,
}

impl Conn {
    /// Makes `timeout` the stream's read and write timeout unless it is
    /// already.
    fn arm(&mut self, timeout: Duration) -> io::Result<()> {
        // `std` refuses a zero timeout: to the socket it would mean none.
        let timeout = Some(timeout.max(Duration::from_micros(1)));
        if self.armed != timeout {
            self.stream.set_read_timeout(timeout)?;
            self.stream.set_write_timeout(timeout)?;
            self.armed = timeout;
        }
        Ok(())
    }

    /// Writes out everything queued, as one buffer.
    fn write_out(&mut self, start: Instant, timeout: Duration) -> Result<(), PollError> {
        self.arm(timeout)?;
        (&self.stream)
            .write_all(&self.outbuf)
            .map_err(|e| timed(e, start))?;
        self.outbuf.clear();
        Ok(())
    }

    /// The next frame, waiting in the kernel for bytes until `timeout`
    /// has passed since `start`; `Ok(None)` at end-of-stream.
    fn await_frame(
        &mut self,
        start: Instant,
        timeout: Duration,
    ) -> Result<Option<String>, PollError> {
        loop {
            if let Some(frame) = self.inbuf.next_frame()? {
                return Ok(Some(frame));
            }
            if self.inbuf.is_closed() {
                return Ok(None);
            }
            let waited = start.elapsed();
            if waited >= timeout {
                return Err(PollError::Timeout { waited });
            }
            self.arm(timeout)?;
            match self.inbuf.fill(&self.stream) {
                Ok(()) => {}
                // A peer killed mid-exchange (crash injection) resets
                // rather than closes; treat it as EOF.
                Err(e) if e.kind() == io::ErrorKind::ConnectionReset => self.inbuf.close(),
                Err(e) => return Err(timed(e, start)),
            }
        }
    }
}

/// One driver thread's window onto every node connection at once.
///
/// See the module docs for the model. [`PollTransport::send`] never
/// blocks; [`PollTransport::recv_deadline`] and [`PollTransport::flush`]
/// bound their wait and fail with the typed [`PollError::Timeout`].
#[derive(Default)]
pub struct PollTransport {
    conns: Vec<Option<Conn>>,
}

impl PollTransport {
    /// An empty transport with no registrations.
    #[must_use]
    pub fn new() -> Self {
        PollTransport::default()
    }

    fn slot(&mut self, conn: Conn) -> Token {
        for (i, s) in self.conns.iter_mut().enumerate() {
            if s.is_none() {
                *s = Some(conn);
                return Token(i);
            }
        }
        self.conns.push(Some(conn));
        Token(self.conns.len() - 1)
    }

    /// The live connection `t` names. A connection whose write failed
    /// while another was waited on reports that now, and is closed.
    fn conn_mut(&mut self, t: Token) -> Result<&mut Conn, PollError> {
        let slot = self.conns.get_mut(t.0).ok_or(PollError::Unregistered)?;
        if let Some(e) = slot.as_mut().and_then(|c| c.failed.take()) {
            *slot = None;
            return Err(e);
        }
        slot.as_mut().ok_or(PollError::Unregistered)
    }

    /// Registers a TCP connection. It is read and written in blocking
    /// mode, under the deadline of the call that does so.
    ///
    /// # Errors
    ///
    /// Propagates `set_nonblocking`/`set_nodelay` failures.
    pub fn register_tcp(&mut self, stream: TcpStream) -> io::Result<Token> {
        stream.set_nonblocking(false)?;
        stream.set_nodelay(true)?;
        Ok(self.slot(Conn {
            stream,
            armed: None,
            inbuf: FrameBuf::default(),
            outbuf: Vec::new(),
            failed: None,
        }))
    }

    /// Drops a registration (e.g. after killing the peer), closing the
    /// connection. Buffered frames are discarded.
    pub fn deregister(&mut self, t: Token) {
        if let Some(slot) = self.conns.get_mut(t.0) {
            *slot = None;
        }
    }

    /// Queues one frame toward the peer. Nothing is written until the
    /// next [`PollTransport::recv_deadline`] or [`PollTransport::flush`].
    ///
    /// # Errors
    ///
    /// [`PollError::Unregistered`] for a dead token, or the error that
    /// killed the connection if it has not been reported yet. `msg` must
    /// not contain `\n` (asserted in debug builds, same contract as
    /// `Transport::send`).
    pub fn send(&mut self, t: Token, msg: &str) -> Result<(), PollError> {
        push_frame(&mut self.conn_mut(t)?.outbuf, msg);
        Ok(())
    }

    /// Writes out every connection's queue, one `write` per connection,
    /// each under `timeout`. [`PollTransport::recv_deadline`] does this
    /// itself; a caller needs it only after a send it will not wait on.
    ///
    /// A connection whose write fails (or times out: the peer stopped
    /// reading) reports that at the next call that names it.
    pub fn flush(&mut self, timeout: Duration) {
        let start = Instant::now();
        for conn in self.conns.iter_mut().flatten() {
            if conn.failed.is_none() && !conn.outbuf.is_empty() {
                conn.failed = conn.write_out(start, timeout).err();
            }
        }
    }

    /// Receives the next frame on `t`: writes out what is queued on
    /// **every** connection, then blocks on `t` alone (frames for other
    /// tokens wait in their own connections, not lost and not
    /// reordered). Returns `Ok(None)` at end-of-stream.
    ///
    /// # Errors
    ///
    /// [`PollError::Timeout`] if no frame (and no EOF) arrives within
    /// `timeout`, [`PollError::Frame`] for bytes that are not frames, I/O
    /// errors otherwise. After any of them the connection is closed and
    /// `t` is [`PollError::Unregistered`].
    pub fn recv_deadline(
        &mut self,
        t: Token,
        timeout: Duration,
    ) -> Result<Option<String>, PollError> {
        let start = Instant::now();
        self.flush(timeout);
        let outcome = self.conn_mut(t)?.await_frame(start, timeout);
        if outcome.is_err() {
            self.deregister(t);
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Shutdown, TcpListener};

    const LONG: Duration = Duration::from_secs(5);

    /// A registered loopback connection and the peer's end of it.
    fn pair(poll: &mut PollTransport) -> (Token, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        (poll.register_tcp(stream).unwrap(), peer)
    }

    #[test]
    fn frames_multiplex_across_connections() {
        let mut poll = PollTransport::new();
        let (a, mut in_a) = pair(&mut poll);
        let (b, mut in_b) = pair(&mut poll);

        // B's frames are sent first; a recv on A must leave them where
        // they are, not lose them, and per-connection order must hold.
        in_b.write_all(b"b1\nb2\n").unwrap();
        in_a.write_all(b"a1\n").unwrap();
        for (t, want) in [(a, "a1"), (b, "b1"), (b, "b2")] {
            let got = poll.recv_deadline(t, LONG).unwrap();
            assert_eq!(got.as_deref(), Some(want));
        }
    }

    #[test]
    fn split_frames_reassemble() {
        let mut poll = PollTransport::new();
        let (t, mut tx) = pair(&mut poll);
        let peer = std::thread::spawn(move || {
            tx.write_all(b"{\"half\":").unwrap();
            std::thread::sleep(Duration::from_millis(20));
            tx.write_all(b"1}\n{\"next\":2}\n").unwrap();
            tx
        });
        for want in ["{\"half\":1}", "{\"next\":2}"] {
            let got = poll.recv_deadline(t, LONG).unwrap();
            assert_eq!(got.as_deref(), Some(want));
        }
        peer.join().unwrap();
    }

    #[test]
    fn recv_deadline_times_out_with_typed_error() {
        let mut poll = PollTransport::new();
        let (t, _peer) = pair(&mut poll);
        let started = Instant::now();
        match poll.recv_deadline(t, Duration::from_millis(30)) {
            Err(PollError::Timeout { waited }) => {
                assert!(waited >= Duration::from_millis(30));
                assert!(started.elapsed() < LONG, "bounded wait");
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
        // A late reply would be taken for the next request's: the
        // connection is closed, not left a frame out of step.
        assert!(matches!(poll.send(t, "x"), Err(PollError::Unregistered)));
    }

    /// A write that fails while another connection is being waited on is
    /// that connection's error, reported when it is next named.
    #[test]
    fn a_failed_write_is_reported_by_its_own_connection() {
        let mut poll = PollTransport::new();
        let (good, mut tx) = pair(&mut poll);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        // The registered stream can no longer write: every write fails.
        stream
            .try_clone()
            .unwrap()
            .shutdown(Shutdown::Write)
            .unwrap();
        let bad = poll.register_tcp(stream).unwrap();
        poll.send(bad, "lost").unwrap();
        tx.write_all(b"fine\n").unwrap();
        let got = poll.recv_deadline(good, LONG).unwrap();
        assert_eq!(got.as_deref(), Some("fine"));
        match poll.recv_deadline(bad, LONG) {
            Err(PollError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::BrokenPipe),
            other => panic!("expected the broken pipe, got {other:?}"),
        }
        assert!(matches!(
            poll.recv_deadline(bad, LONG),
            Err(PollError::Unregistered)
        ));
    }

    #[test]
    fn peer_eof_yields_none_and_trailing_line_is_delivered() {
        let mut poll = PollTransport::new();
        let (t, mut tx) = pair(&mut poll);
        tx.write_all(b"last-without-newline").unwrap();
        drop(tx);
        assert_eq!(
            poll.recv_deadline(t, LONG).unwrap().as_deref(),
            Some("last-without-newline")
        );
        assert_eq!(poll.recv_deadline(t, LONG).unwrap(), None);
    }

    #[test]
    fn deregistered_token_is_a_typed_error() {
        let mut poll = PollTransport::new();
        let (t, _peer) = pair(&mut poll);
        poll.deregister(t);
        assert!(matches!(
            poll.recv_deadline(t, Duration::from_millis(10)),
            Err(PollError::Unregistered)
        ));
        assert!(matches!(poll.send(t, "x"), Err(PollError::Unregistered)));
    }

    #[test]
    fn tcp_exchanges_overlap_and_are_consumed_in_any_order() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Two echo peers that each wait for one inbound frame.
        let mut joins = Vec::new();
        for tag in ["one", "two"] {
            let join = std::thread::spawn(move || {
                use crate::transport::Transport;
                let mut t = crate::transport::tcp_connect(addr).unwrap();
                let got = t.recv().unwrap().unwrap();
                t.send(&format!("{tag}:{got}")).unwrap();
            });
            joins.push(join);
        }
        let mut poll = PollTransport::new();
        let (s1, _) = listener.accept().unwrap();
        let (s2, _) = listener.accept().unwrap();
        let t1 = poll.register_tcp(s1).unwrap();
        let t2 = poll.register_tcp(s2).unwrap();
        // Both exchanges in flight at once; consume in reverse order.
        poll.send(t1, "ping").unwrap();
        poll.send(t2, "ping").unwrap();
        let r2 = poll.recv_deadline(t2, LONG).unwrap().unwrap();
        let r1 = poll.recv_deadline(t1, LONG).unwrap().unwrap();
        // Peers are accepted in connect order but either may be s1.
        let mut got = [r1, r2];
        got.sort();
        assert_eq!(got, ["one:ping", "two:ping"]);
        for j in joins {
            j.join().unwrap();
        }
    }
}
