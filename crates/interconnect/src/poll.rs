//! Multiplexed, poll-based message I/O for the distributed driver.
//!
//! [`super::transport`] gives the fleet its framing: one JSON document
//! per `\n`-terminated line over a byte stream. What it cannot give the
//! driver is *concurrency*: a [`super::transport::Transport`] is a
//! blocking request/response pipe, so a driver built on it can only keep
//! one exchange in flight and its wall-clock is the sum of every
//! round-trip in the run. This module is the other half: a
//! [`PollTransport`] owns **all** node connections at once, so a single
//! driver thread can start many exchanges, let the replies arrive in
//! whatever order the OS produces them, and still *consume* them in a
//! deterministic order of its own choosing (the property DESIGN.md §9
//! leans on).
//!
//! # Model
//!
//! * **Registration** hands a connection to the transport and returns a
//!   [`Token`]. TCP streams are switched to non-blocking mode and polled
//!   directly; pipe-like streams (a child's stdout, which `std` cannot
//!   make non-blocking without raw fd calls) are pumped by a small
//!   reader thread into a channel the poll loop drains without blocking.
//!   Either way the *driver* thread never blocks on a single peer.
//! * **Readiness polling** ([`PollTransport::poll_once`]) makes one
//!   non-blocking pass over every connection: drain available bytes,
//!   split complete frames into per-connection buffers, flush any
//!   back-pressured writes.
//! * **Per-connection frame buffers** decouple arrival order from
//!   consumption order: a frame that arrives for connection B while the
//!   driver waits on connection A is buffered, not lost and not
//!   reordered. [`PollTransport::recv_deadline`] serves from the buffer
//!   first and only then polls.
//!
//! Reads that would block are simply retried on the next poll; a peer
//! that never answers surfaces as the typed [`PollError::Timeout`]
//! rather than a hung driver.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::time::{Duration, Instant};

/// Identifies one registered connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Token(usize);

/// What [`PollTransport::recv_deadline`] can fail with.
#[derive(Debug)]
pub enum PollError {
    /// The peer produced no frame within the deadline.
    Timeout {
        /// How long the call waited before giving up.
        waited: Duration,
    },
    /// The underlying stream failed.
    Io(io::Error),
    /// The token does not name a live registration.
    Unregistered,
}

impl std::fmt::Display for PollError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PollError::Timeout { waited } => {
                write!(f, "no frame within {} ms", waited.as_millis())
            }
            PollError::Io(e) => write!(f, "i/o error: {e}"),
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

/// Where a connection's inbound bytes come from.
enum Feed {
    /// A non-blocking TCP stream read directly by the poll loop.
    Tcp(TcpStream),
    /// A blocking byte stream pumped by a dedicated reader thread; the
    /// poll loop drains the channel, never the stream.
    Pumped(Receiver<io::Result<Vec<u8>>>),
}

/// Where a connection's outbound bytes go.
enum Sink {
    /// Non-blocking; short writes park the remainder in `outbuf`.
    Tcp(TcpStream),
    /// Blocking writer (child stdin). Frames are small and the peer is
    /// a reader-first node loop, so blocking writes cannot deadlock.
    Pipe(Box<dyn Write + Send>),
}

struct Conn {
    feed: Feed,
    sink: Sink,
    /// Raw inbound bytes not yet split at a `\n`.
    inbuf: Vec<u8>,
    /// Complete frames awaiting consumption.
    frames: VecDeque<String>,
    /// Outbound bytes a non-blocking sink has not accepted yet.
    outbuf: Vec<u8>,
    eof: bool,
}

impl Conn {
    /// Splits every complete frame out of `inbuf`.
    fn harvest(&mut self) -> io::Result<()> {
        while let Some(pos) = self.inbuf.iter().position(|&b| b == b'\n') {
            let rest = self.inbuf.split_off(pos + 1);
            let mut line = std::mem::replace(&mut self.inbuf, rest);
            line.pop(); // the '\n'
            let frame = String::from_utf8(line)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))?;
            self.frames.push_back(frame);
        }
        if self.eof && !self.inbuf.is_empty() {
            // A trailing unterminated line at EOF is delivered as a
            // final frame, matching `LineTransport::recv`.
            let line = std::mem::take(&mut self.inbuf);
            let frame = String::from_utf8(line)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))?;
            self.frames.push_back(frame);
        }
        Ok(())
    }

    /// One non-blocking intake pass. Returns whether new bytes arrived.
    fn intake(&mut self) -> io::Result<bool> {
        if self.eof {
            return Ok(false);
        }
        let mut progressed = false;
        match &mut self.feed {
            Feed::Tcp(stream) => {
                let mut chunk = [0u8; 8192];
                loop {
                    match stream.read(&mut chunk) {
                        Ok(0) => {
                            self.eof = true;
                            break;
                        }
                        Ok(n) => {
                            self.inbuf.extend_from_slice(&chunk[..n]);
                            progressed = true;
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        // A peer killed mid-exchange (crash injection)
                        // resets rather than closes; treat it as EOF.
                        Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {
                            self.eof = true;
                            break;
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
            Feed::Pumped(rx) => loop {
                match rx.try_recv() {
                    Ok(Ok(chunk)) => {
                        self.inbuf.extend_from_slice(&chunk);
                        progressed = true;
                    }
                    Ok(Err(e)) => return Err(e),
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        self.eof = true;
                        break;
                    }
                }
            },
        }
        if progressed || self.eof {
            self.harvest()?;
        }
        Ok(progressed)
    }

    /// Pushes buffered outbound bytes toward the sink.
    fn flush_pending(&mut self) -> io::Result<()> {
        match &mut self.sink {
            Sink::Pipe(w) => {
                if !self.outbuf.is_empty() {
                    w.write_all(&self.outbuf)?;
                    self.outbuf.clear();
                }
                w.flush()
            }
            Sink::Tcp(stream) => {
                while !self.outbuf.is_empty() {
                    match stream.write(&self.outbuf) {
                        Ok(0) => {
                            return Err(io::Error::new(
                                io::ErrorKind::WriteZero,
                                "peer stopped accepting bytes",
                            ))
                        }
                        Ok(n) => {
                            self.outbuf.drain(..n);
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(e),
                    }
                }
                Ok(())
            }
        }
    }
}

/// One driver thread's window onto every node connection at once.
///
/// See the module docs for the model. All methods are non-blocking
/// except [`PollTransport::recv_deadline`], which bounds its wait and
/// fails with the typed [`PollError::Timeout`].
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

    fn conn_mut(&mut self, t: Token) -> Result<&mut Conn, PollError> {
        self.conns
            .get_mut(t.0)
            .and_then(Option::as_mut)
            .ok_or(PollError::Unregistered)
    }

    /// Registers a TCP connection, switching it to non-blocking mode.
    ///
    /// # Errors
    ///
    /// Propagates `set_nonblocking`/`try_clone` failures.
    pub fn register_tcp(&mut self, stream: TcpStream) -> io::Result<Token> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        let write_half = stream.try_clone()?;
        Ok(self.slot(Conn {
            feed: Feed::Tcp(stream),
            sink: Sink::Tcp(write_half),
            inbuf: Vec::new(),
            frames: VecDeque::new(),
            outbuf: Vec::new(),
            eof: false,
        }))
    }

    /// Registers a pipe-like connection: `reader` is handed to a pump
    /// thread (blocking reads never touch the poll loop), `writer` is
    /// written directly.
    pub fn register_pipe<R, W>(&mut self, reader: R, writer: W) -> Token
    where
        R: Read + Send + 'static,
        W: Write + Send + 'static,
    {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || pump(reader, &tx));
        self.slot(Conn {
            feed: Feed::Pumped(rx),
            sink: Sink::Pipe(Box::new(writer)),
            inbuf: Vec::new(),
            frames: VecDeque::new(),
            outbuf: Vec::new(),
            eof: false,
        })
    }

    /// Drops a registration (e.g. after killing the peer). Buffered
    /// frames are discarded; a pump thread, if any, exits on its next
    /// read returning EOF.
    pub fn deregister(&mut self, t: Token) {
        if let Some(slot) = self.conns.get_mut(t.0) {
            *slot = None;
        }
    }

    /// Queues one frame toward the peer and pushes it as far as the
    /// sink accepts without blocking.
    ///
    /// # Errors
    ///
    /// [`PollError::Unregistered`] for a dead token, otherwise the
    /// sink's I/O error. `msg` must not contain `\n` (asserted in debug
    /// builds, same contract as `LineTransport::send`).
    pub fn send(&mut self, t: Token, msg: &str) -> Result<(), PollError> {
        debug_assert!(
            !msg.contains('\n'),
            "a frame must be a single line; escape newlines in the payload"
        );
        let conn = self.conn_mut(t)?;
        conn.outbuf.extend_from_slice(msg.as_bytes());
        conn.outbuf.push(b'\n');
        conn.flush_pending().map_err(PollError::Io)
    }

    /// One readiness pass over every connection: drain available input,
    /// split frames, flush back-pressured output. Returns `true` if any
    /// connection produced new bytes.
    ///
    /// # Errors
    ///
    /// The first connection-level I/O error encountered.
    pub fn poll_once(&mut self) -> io::Result<bool> {
        let mut progressed = false;
        for conn in self.conns.iter_mut().flatten() {
            progressed |= conn.intake()?;
            if !conn.outbuf.is_empty() {
                conn.flush_pending()?;
            }
        }
        Ok(progressed)
    }

    /// Whether a frame is already buffered for `t`.
    #[must_use]
    pub fn has_frame(&self, t: Token) -> bool {
        self.conns
            .get(t.0)
            .and_then(Option::as_ref)
            .is_some_and(|c| !c.frames.is_empty())
    }

    /// Pops a buffered frame for `t` without polling.
    pub fn try_recv(&mut self, t: Token) -> Option<String> {
        self.conns
            .get_mut(t.0)
            .and_then(Option::as_mut)
            .and_then(|c| c.frames.pop_front())
    }

    /// Receives the next frame on `t`, polling **all** connections while
    /// it waits (frames for other tokens are buffered, not dropped).
    /// Returns `Ok(None)` at end-of-stream.
    ///
    /// # Errors
    ///
    /// [`PollError::Timeout`] if no frame (and no EOF) arrives within
    /// `timeout`; I/O errors otherwise.
    pub fn recv_deadline(
        &mut self,
        t: Token,
        timeout: Duration,
    ) -> Result<Option<String>, PollError> {
        let start = Instant::now();
        let mut idle_passes: u32 = 0;
        loop {
            if let Some(frame) = self.conn_mut(t)?.frames.pop_front() {
                return Ok(Some(frame));
            }
            if self.conn_mut(t)?.eof {
                return Ok(None);
            }
            if self.poll_once()? {
                idle_passes = 0;
                continue;
            }
            if start.elapsed() >= timeout {
                return Err(PollError::Timeout {
                    waited: start.elapsed(),
                });
            }
            // Spin briefly (replies usually land within microseconds),
            // then back off so an idle wait does not burn a core.
            idle_passes = idle_passes.saturating_add(1);
            if idle_passes > 64 {
                std::thread::sleep(Duration::from_micros(if idle_passes > 512 {
                    500
                } else {
                    50
                }));
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// Body of a pipe pump thread: blocking reads forwarded as chunks until
/// EOF or error; dropping the sender signals EOF to the poll loop.
fn pump<R: Read>(mut reader: R, tx: &Sender<io::Result<Vec<u8>>>) {
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
    use std::net::TcpListener;

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

    struct TestWriter(Sender<Vec<u8>>);
    impl Write for TestWriter {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.0
                .send(bytes.to_vec())
                .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer dropped"))?;
            Ok(bytes.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn frames_multiplex_across_pipe_connections() {
        let mut poll = PollTransport::new();
        let (in_a, rx_a) = std::sync::mpsc::channel();
        let (in_b, rx_b) = std::sync::mpsc::channel();
        let (out_a, _keep_a) = std::sync::mpsc::channel();
        let (out_b, _keep_b) = std::sync::mpsc::channel();
        let a = poll.register_pipe(TestReader(rx_a), TestWriter(out_a));
        let b = poll.register_pipe(TestReader(rx_b), TestWriter(out_b));

        // B's frames are sent first; a recv on A must buffer whatever of
        // B it meets, not lose it, and per-connection order must hold.
        // Nothing orders B's pump thread against A's, so B's chunk may
        // still be in flight when A's frame returns: wait for it.
        in_b.send(b"b1\nb2\n".to_vec()).unwrap();
        in_a.send(b"a1\n".to_vec()).unwrap();
        let got = poll
            .recv_deadline(a, Duration::from_secs(5))
            .unwrap()
            .unwrap();
        assert_eq!(got, "a1");
        let got = poll
            .recv_deadline(b, Duration::from_secs(5))
            .unwrap()
            .unwrap();
        assert_eq!(got, "b1");
        assert_eq!(poll.try_recv(b).as_deref(), Some("b2"));
        assert_eq!(poll.try_recv(b), None);
    }

    #[test]
    fn split_frames_reassemble() {
        let mut poll = PollTransport::new();
        let (tx, rx) = std::sync::mpsc::channel();
        let (out, _keep) = std::sync::mpsc::channel();
        let t = poll.register_pipe(TestReader(rx), TestWriter(out));
        tx.send(b"{\"half\":".to_vec()).unwrap();
        tx.send(b"1}\n{\"next\":2}\n".to_vec()).unwrap();
        assert_eq!(
            poll.recv_deadline(t, Duration::from_secs(5))
                .unwrap()
                .as_deref(),
            Some("{\"half\":1}")
        );
        assert_eq!(poll.try_recv(t).as_deref(), Some("{\"next\":2}"));
    }

    #[test]
    fn recv_deadline_times_out_with_typed_error() {
        let mut poll = PollTransport::new();
        let (_tx, rx) = std::sync::mpsc::channel::<Vec<u8>>();
        let (out, _keep) = std::sync::mpsc::channel();
        let t = poll.register_pipe(TestReader(rx), TestWriter(out));
        let started = Instant::now();
        match poll.recv_deadline(t, Duration::from_millis(30)) {
            Err(PollError::Timeout { waited }) => {
                assert!(waited >= Duration::from_millis(30));
                assert!(started.elapsed() < Duration::from_secs(5), "bounded wait");
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    #[test]
    fn peer_eof_yields_none_and_trailing_line_is_delivered() {
        let mut poll = PollTransport::new();
        let (tx, rx) = std::sync::mpsc::channel();
        let (out, _keep) = std::sync::mpsc::channel();
        let t = poll.register_pipe(TestReader(rx), TestWriter(out));
        tx.send(b"last-without-newline".to_vec()).unwrap();
        drop(tx);
        assert_eq!(
            poll.recv_deadline(t, Duration::from_secs(5))
                .unwrap()
                .as_deref(),
            Some("last-without-newline")
        );
        assert_eq!(poll.recv_deadline(t, Duration::from_secs(5)).unwrap(), None);
    }

    #[test]
    fn deregistered_token_is_a_typed_error() {
        let mut poll = PollTransport::new();
        let (_tx, rx) = std::sync::mpsc::channel::<Vec<u8>>();
        let (out, _keep) = std::sync::mpsc::channel();
        let t = poll.register_pipe(TestReader(rx), TestWriter(out));
        poll.deregister(t);
        assert!(matches!(
            poll.recv_deadline(t, Duration::from_millis(10)),
            Err(PollError::Unregistered)
        ));
        assert!(matches!(poll.send(t, "x"), Err(PollError::Unregistered)));
    }

    #[test]
    fn tcp_connections_poll_without_blocking_each_other() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Two echo peers that each wait for one inbound frame.
        let mut joins = Vec::new();
        for tag in ["one", "two"] {
            let join = std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                let mut t = crate::transport::LineTransport::new(
                    std::io::BufReader::new(stream.try_clone().unwrap()),
                    stream,
                );
                use crate::transport::Transport;
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
        let r2 = poll
            .recv_deadline(t2, Duration::from_secs(5))
            .unwrap()
            .unwrap();
        let r1 = poll
            .recv_deadline(t1, Duration::from_secs(5))
            .unwrap()
            .unwrap();
        // Peers are accepted in connect order but either may be s1.
        let mut got = [r1, r2];
        got.sort();
        let tails: Vec<&str> = got.iter().map(|s| s.as_str()).collect();
        assert_eq!(tails, ["one:ping", "two:ping"]);
        for j in joins {
            j.join().unwrap();
        }
    }
}
