//! Every node connection of the distributed driver, behind one owner.
//!
//! [`super::transport`] gives the fleet its framing: one JSON document
//! per `\n`-terminated line over a byte stream. What it cannot give the
//! driver is *concurrency*: a [`super::transport::Transport`] is one
//! request/response pipe, so a driver built on it can only keep one
//! exchange in flight and its wall-clock is the sum of every round-trip
//! in the run. This module is the other half: a [`PollTransport`] owns
//! **all** node connections at once, so a single driver thread can start
//! many exchanges, let the nodes compute concurrently, and still
//! *consume* the replies in a deterministic order of its own choosing
//! (the property DESIGN.md §9 leans on).
//!
//! # Model
//!
//! * **Registration** hands a connection to the transport and returns a
//!   [`Token`]. A TCP stream is used directly, in blocking mode with a
//!   timeout; a pipe-like stream (a child's stdout, which `std` can
//!   neither time out nor poll without raw fd calls) is pumped by a
//!   small reader thread into a channel.
//! * **Sending queues.** [`PollTransport::send`] appends a frame to its
//!   connection's output buffer and touches no stream.
//! * **Receiving hands over.** The caller names the connection whose
//!   reply it needs next; [`PollTransport::recv_deadline`] first writes
//!   out every connection's queue, one `write` each, and then waits *in
//!   the kernel* on that one connection — a blocking read, or a channel
//!   receive for a pumped pipe. No readiness multiplexer is needed
//!   because the caller consumes replies in an order it already knows:
//!   replies of the connections it is not waiting on wait too, in their
//!   socket or channel buffers, and cost nothing until asked for. A
//!   thread that waits this way gives its CPU to the node that must
//!   compute the reply instead of competing with it.
//!
//! So a same-instant batch of requests costs one write and one read per
//! node, however many frames it holds. Inbound bytes are split by the
//! one `FrameBuf` of [`super::transport`], per connection, so a frame
//! that arrives in pieces or behind another is neither lost nor
//! reordered.
//!
//! # Bounds
//!
//! No call waits without end on a TCP connection: the call's deadline is
//! the stream's read *and* write timeout, so a peer that never answers —
//! or never reads — surfaces as the typed [`PollError::Timeout`]. No
//! system call waits longer than the deadline and none starts after it
//! has passed. A frame longer than
//! [`MAX_FRAME_BYTES`](super::transport::MAX_FRAME_BYTES) is
//! [`PollError::Frame`]. After any error a connection's framing cannot be
//! trusted (a reply may be half-read, a request half-written), so the
//! connection is closed and its token is dead. A pipe's *write* has no
//! timeout (`std` offers none); DESIGN.md §9.2 states why the frames the
//! driver writes cannot fill one.

use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
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

/// The two kinds of byte stream a connection can be.
enum Link {
    /// A blocking TCP stream, read and written directly. `armed` is the
    /// read and write timeout last set on it, so the hot path — every
    /// call carrying the same deadline — sets none.
    Tcp {
        stream: TcpStream,
        armed: Option<Duration>,
    },
    /// A child's stdout pumped into `rx` by a reader thread, and its
    /// stdin written directly (blocking).
    Pipe {
        rx: Receiver<io::Result<Vec<u8>>>,
        writer: Box<dyn Write + Send>,
    },
}

/// Makes `timeout` the stream's read and write timeout unless it is
/// already.
fn arm(stream: &TcpStream, armed: &mut Option<Duration>, timeout: Duration) -> io::Result<()> {
    // `std` refuses a zero timeout: to the socket it would mean none.
    let timeout = Some(timeout.max(Duration::from_micros(1)));
    if *armed != timeout {
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)?;
        *armed = timeout;
    }
    Ok(())
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
    link: Link,
    /// Inbound bytes and the cursor that splits them into frames.
    inbuf: FrameBuf,
    /// Frames queued since the last write.
    outbuf: Vec<u8>,
    /// Why a write to this connection failed while another was being
    /// waited on; reported when this one is next named.
    failed: Option<PollError>,
}

impl Conn {
    fn new(link: Link) -> Self {
        Conn {
            link,
            inbuf: FrameBuf::default(),
            outbuf: Vec::new(),
            failed: None,
        }
    }

    /// Writes out everything queued, as one buffer.
    fn write_out(&mut self, start: Instant, timeout: Duration) -> Result<(), PollError> {
        match &mut self.link {
            Link::Tcp { stream, armed } => {
                arm(stream, armed, timeout)?;
                (&*stream)
                    .write_all(&self.outbuf)
                    .map_err(|e| timed(e, start))?;
            }
            Link::Pipe { writer, .. } => {
                writer.write_all(&self.outbuf)?;
                writer.flush()?;
            }
        }
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
            match &mut self.link {
                Link::Tcp { stream, armed } => {
                    arm(stream, armed, timeout)?;
                    match self.inbuf.fill(&*stream) {
                        Ok(()) => {}
                        // A peer killed mid-exchange (crash injection)
                        // resets rather than closes; treat it as EOF.
                        Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {
                            self.inbuf.close();
                        }
                        Err(e) => return Err(timed(e, start)),
                    }
                }
                Link::Pipe { rx, .. } => match rx.recv_timeout(timeout - waited) {
                    Ok(chunk) => self.inbuf.push(&chunk?),
                    Err(RecvTimeoutError::Disconnected) => self.inbuf.close(),
                    Err(RecvTimeoutError::Timeout) => {
                        return Err(PollError::Timeout {
                            waited: start.elapsed(),
                        })
                    }
                },
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
        Ok(self.slot(Conn::new(Link::Tcp {
            stream,
            armed: None,
        })))
    }

    /// Registers a pipe-like connection: `reader` is handed to a pump
    /// thread (so a wait on it can time out), `writer` is written
    /// directly.
    pub fn register_pipe<R, W>(&mut self, reader: R, writer: W) -> Token
    where
        R: io::Read + Send + 'static,
        W: Write + Send + 'static,
    {
        let (tx, rx) = std::sync::mpsc::sync_channel(PUMP_CHUNKS);
        std::thread::spawn(move || pump(reader, &tx));
        self.slot(Conn::new(Link::Pipe {
            rx,
            writer: Box::new(writer),
        }))
    }

    /// Drops a registration (e.g. after killing the peer), closing the
    /// connection. Buffered frames are discarded; a pump thread, if any,
    /// exits on its next read returning EOF.
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

/// How many chunks a pump may hold ahead of the driver: with 8 KiB
/// chunks, what a socket's receive buffer would hold. Beyond that the
/// pump stops reading and the pipe's own back-pressure reaches the peer,
/// so a child that floods its stdout costs a bounded queue.
const PUMP_CHUNKS: usize = 16;

/// Body of a pipe pump thread: blocking reads forwarded as chunks until
/// EOF or error; dropping the sender signals EOF to the waiting side.
fn pump<R: io::Read>(mut reader: R, tx: &SyncSender<io::Result<Vec<u8>>>) {
    let mut chunk = [0u8; 8192];
    loop {
        match reader.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => {
                if tx.send(Ok(chunk[..n].to_vec())).is_err() {
                    return; // deregistered
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                let _ = tx.send(Err(e));
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;
    use std::sync::mpsc::Sender;
    use std::sync::{Arc, Mutex};

    /// An in-memory blocking reader fed by a channel (pipe stand-in).
    struct TestReader(Receiver<Vec<u8>>);
    impl Read for TestReader {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            match self.0.recv() {
                Ok(chunk) => {
                    let n = chunk.len().min(out.len());
                    out[..n].copy_from_slice(&chunk[..n]);
                    assert!(n == chunk.len(), "test chunks fit the buffer");
                    Ok(n)
                }
                Err(_) => Ok(0),
            }
        }
    }

    /// Records every `write` call it is given, whole.
    #[derive(Clone, Default)]
    struct TestWriter(Arc<Mutex<Vec<String>>>);
    impl TestWriter {
        fn writes(&self) -> Vec<String> {
            self.0.lock().unwrap().clone()
        }
    }
    impl Write for TestWriter {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            let text = String::from_utf8(bytes.to_vec()).unwrap();
            self.0.lock().unwrap().push(text);
            Ok(bytes.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    const LONG: Duration = Duration::from_secs(5);

    fn pipe(poll: &mut PollTransport) -> (Token, Sender<Vec<u8>>, TestWriter) {
        let (tx, rx) = std::sync::mpsc::channel();
        let out = TestWriter::default();
        (poll.register_pipe(TestReader(rx), out.clone()), tx, out)
    }

    #[test]
    fn frames_multiplex_across_pipe_connections() {
        let mut poll = PollTransport::new();
        let (a, in_a, _) = pipe(&mut poll);
        let (b, in_b, _) = pipe(&mut poll);

        // B's frames are sent first; a recv on A must leave them where
        // they are, not lose them, and per-connection order must hold.
        in_b.send(b"b1\nb2\n".to_vec()).unwrap();
        in_a.send(b"a1\n".to_vec()).unwrap();
        for (t, want) in [(a, "a1"), (b, "b1"), (b, "b2")] {
            let got = poll.recv_deadline(t, LONG).unwrap();
            assert_eq!(got.as_deref(), Some(want));
        }
    }

    #[test]
    fn split_frames_reassemble() {
        let mut poll = PollTransport::new();
        let (t, tx, _) = pipe(&mut poll);
        tx.send(b"{\"half\":".to_vec()).unwrap();
        tx.send(b"1}\n{\"next\":2}\n".to_vec()).unwrap();
        for want in ["{\"half\":1}", "{\"next\":2}"] {
            let got = poll.recv_deadline(t, LONG).unwrap();
            assert_eq!(got.as_deref(), Some(want));
        }
    }

    /// The tie on the driver's end, counted: `send` writes nothing, and
    /// the next `recv_deadline` — on whichever connection — writes every
    /// connection's queue as one buffer.
    #[test]
    fn queued_frames_leave_as_one_write_per_connection_at_the_next_recv() {
        let mut poll = PollTransport::new();
        let (a, in_a, out_a) = pipe(&mut poll);
        let (b, _in_b, out_b) = pipe(&mut poll);
        for frame in ["a1", "a2", "a3"] {
            poll.send(a, frame).unwrap();
        }
        for frame in ["b1", "b2"] {
            poll.send(b, frame).unwrap();
        }
        assert!(out_a.writes().is_empty() && out_b.writes().is_empty());

        in_a.send(b"reply\n".to_vec()).unwrap();
        let got = poll.recv_deadline(a, LONG).unwrap();
        assert_eq!(got.as_deref(), Some("reply"));
        assert_eq!(out_a.writes(), ["a1\na2\na3\n"]);
        assert_eq!(out_b.writes(), ["b1\nb2\n"]);

        // Nothing is queued now, so nothing more is written; and a
        // caller that will not wait has `flush`.
        in_a.send(b"again\n".to_vec()).unwrap();
        poll.recv_deadline(a, LONG).unwrap();
        poll.send(b, "b3").unwrap();
        poll.flush(LONG);
        assert_eq!(out_a.writes().len(), 1);
        assert_eq!(out_b.writes(), ["b1\nb2\n", "b3\n"]);
    }

    #[test]
    fn recv_deadline_times_out_with_typed_error() {
        let mut poll = PollTransport::new();
        let (t, _tx, _) = pipe(&mut poll);
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
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::ErrorKind::BrokenPipe.into())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut poll = PollTransport::new();
        let (good, tx, _) = pipe(&mut poll);
        let (_keep, rx) = std::sync::mpsc::channel();
        let bad = poll.register_pipe(TestReader(rx), Broken);
        poll.send(bad, "lost").unwrap();
        tx.send(b"fine\n".to_vec()).unwrap();
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
        let (t, tx, _) = pipe(&mut poll);
        tx.send(b"last-without-newline".to_vec()).unwrap();
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
        let (t, _tx, _) = pipe(&mut poll);
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
