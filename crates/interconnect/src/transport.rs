//! Line-delimited message transport for the distributed runner.
//!
//! The `twobit-dist` node fleet exchanges JSON documents over byte
//! streams — a child process's stdin/stdout pipes, or a TCP connection.
//! This module is the *framing* layer those documents ride on; it knows
//! nothing about their content.
//!
//! # Framing
//!
//! One message per line: a message is a UTF-8 string containing no `\n`,
//! terminated on the wire by a single `\n`. The compact JSON writer in
//! [`twobit_obs::json`] escapes control characters inside strings
//! (`\n` → `\\n`), so any document it renders is a valid frame by
//! construction. An empty line is a valid (empty) message; end-of-stream
//! is distinguished from it by [`Transport::recv`] returning `None`. A
//! trailing unterminated line at EOF is delivered as a final message (the
//! payload layer decides whether a truncated document is an error).
//!
//! Inbound bytes are split in one place, the `FrameBuf` both this
//! module's [`LineTransport`] and the driver's
//! [`crate::poll::PollTransport`] read through. It refuses a frame longer
//! than [`MAX_FRAME_BYTES`], so a peer that never sends `\n` costs a
//! bounded buffer and then a typed [`FrameError`], not memory without end.
//!
//! # When bytes leave
//!
//! *A sender queues, and everything queued leaves in one `write` before
//! the sender blocks in a read.* [`Transport::queue`] appends a frame to
//! the transport's output buffer; [`Transport::recv`] writes that buffer
//! out before any read of the underlying stream, so a serve loop that
//! answers a batch of requests it read in one chunk answers it in one
//! write, and no caller can forget the flush that would otherwise
//! deadlock it against a peer waiting for the replies.
//! [`Transport::send`] is queue-then-flush: a frame is one buffer and one
//! write, either fully handed to the stream or not at all, which is what
//! lets the driver treat a crashed node's last partial line as simply
//! unsent.
//!
//! # Why not length-prefixed binary?
//!
//! The fleet's messages are small (a coherence command plus an envelope),
//! rates are test-scale, and every byte on the wire being readable with
//! `cat` makes fault-injection runs debuggable from the merged trace
//! alone. The same trade the tracing layer made (`JsonlTracer`).

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// The longest frame a link accepts, terminator excluded.
///
/// Sized from the largest frame the fleet can legitimately produce: the
/// `checkpoint_ok` reply of a cache node whose tag store is at
/// `twobit_dist::node::MAX_CACHE_LINES`, every line valid, measures
/// 4.7 MB (`a_full_cache_checkpoint_fits_one_frame` in `twobit-dist`
/// measures it again), and the same document comes back inside
/// `restore`. Seven times that leaves room for the one part of a
/// checkpoint that grows with the run (a module's memory image, bounded
/// by the distinct blocks written) and stays far above the 2 MB of `[`
/// that `node_hostile_input.rs` sends and must see answered, not refused.
pub const MAX_FRAME_BYTES: usize = 32 << 20;

/// Why a link refused the bytes it was given.
///
/// Either way the stream's framing is lost: the connection it came from
/// is to be closed, not read further.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// More than `limit` bytes arrived with no `\n` among them.
    TooLong {
        /// The bound that was exceeded ([`MAX_FRAME_BYTES`]).
        limit: usize,
    },
    /// A frame's bytes are not UTF-8.
    NotUtf8,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooLong { limit } => {
                write!(f, "frame is longer than {limit} bytes")
            }
            FrameError::NotUtf8 => f.write_str("frame is not UTF-8"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<FrameError> for io::Error {
    fn from(e: FrameError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// The one place inbound bytes are split at `\n`.
///
/// Bytes go in at the back ([`FrameBuf::fill`], [`FrameBuf::push`]),
/// frames come out at the front ([`FrameBuf::next_frame`]). Two cursors
/// make that linear however the bytes were chunked: `start` is where the
/// next frame begins, so taking a frame copies that frame and nothing
/// behind it, and `scanned` is how far the search for `\n` has looked,
/// so a frame that arrives in many reads is searched once.
#[derive(Debug, Default)]
pub(crate) struct FrameBuf {
    buf: Vec<u8>,
    start: usize,
    scanned: usize,
    eof: bool,
}

impl FrameBuf {
    /// Appends bytes that arrived from the peer.
    pub(crate) fn push(&mut self, bytes: &[u8]) {
        // Reclaim the consumed prefix once it is the larger part: what
        // moves is less than what was consumed, so it stays linear.
        if self.start > self.buf.len() / 2 {
            self.buf.drain(..self.start);
            self.scanned -= self.start;
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Marks end-of-stream: a trailing unterminated line becomes the
    /// last frame.
    pub(crate) fn close(&mut self) {
        self.eof = true;
    }

    /// Whether the stream has ended (frames may still be buffered).
    pub(crate) fn is_closed(&self) -> bool {
        self.eof
    }

    /// One read of `reader` into the buffer; zero bytes is end-of-stream.
    /// `Interrupted` is retried, every other error is the caller's.
    pub(crate) fn fill(&mut self, mut reader: impl Read) -> io::Result<()> {
        let mut chunk = [0u8; 8192];
        let n = loop {
            match reader.read(&mut chunk) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                other => break other?,
            }
        };
        if n == 0 {
            self.close();
        } else {
            self.push(&chunk[..n]);
        }
        Ok(())
    }

    /// Takes the next complete frame, if the bytes so far hold one.
    /// `Ok(None)` means more input is needed — or, once
    /// [`FrameBuf::is_closed`], that the stream is finished.
    ///
    /// Fails with [`FrameError::TooLong`] once more than
    /// [`MAX_FRAME_BYTES`] stand before the next terminator and with
    /// [`FrameError::NotUtf8`] for a frame that is not text.
    pub(crate) fn next_frame(&mut self) -> Result<Option<String>, FrameError> {
        let newline = self.buf[self.scanned..].iter().position(|&b| b == b'\n');
        let end = newline.map_or(self.buf.len(), |at| self.scanned + at);
        self.scanned = end;
        if end - self.start > MAX_FRAME_BYTES {
            return Err(FrameError::TooLong {
                limit: MAX_FRAME_BYTES,
            });
        }
        if newline.is_none() && (!self.eof || end == self.start) {
            return Ok(None);
        }
        let frame = std::str::from_utf8(&self.buf[self.start..end])
            .map_err(|_| FrameError::NotUtf8)?
            .to_owned();
        // Past the terminator, or at the end for an unterminated tail.
        self.start = (end + 1).min(self.buf.len());
        self.scanned = self.start;
        Ok(Some(frame))
    }
}

/// A bidirectional, ordered, reliable message stream.
///
/// Implementations carry whole messages (frames); ordering and
/// reliability come from the underlying byte stream (pipe or TCP).
/// Loss, delay, and reordering are *simulated* above this layer by the
/// driver's fault plan — never by the transport.
pub trait Transport: Send {
    /// Queues one message. It leaves with everything else queued, in one
    /// write, at the next [`Transport::send`] or before the next
    /// [`Transport::recv`] blocks — whichever comes first — or at once
    /// if the queue has outgrown [`MAX_FRAME_BYTES`], so that a peer
    /// which asks for much and reads nothing is met with back-pressure,
    /// not with memory.
    ///
    /// # Errors
    ///
    /// As [`Transport::send`], when the queue is written out.
    fn queue(&mut self, msg: &str) -> io::Result<()>;

    /// Sends one message — and anything queued before it — to the peer
    /// now.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error (e.g. a broken pipe when the
    /// peer died). `msg` must not contain `\n`; in debug builds this is
    /// asserted.
    fn send(&mut self, msg: &str) -> io::Result<()>;

    /// Receives the next message, blocking until one arrives; whatever
    /// is queued is written out before it blocks.
    ///
    /// Returns `None` at end-of-stream (peer closed the connection).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error, or [`io::ErrorKind::InvalidData`]
    /// wrapping a [`FrameError`] if the peer sent a frame that is not
    /// UTF-8 or is longer than [`MAX_FRAME_BYTES`]; the stream's framing
    /// is lost then, and the caller should drop the transport.
    fn recv(&mut self) -> io::Result<Option<String>>;
}

/// [`Transport`] over any reader / writer pair.
///
/// It buffers both directions itself — input, because only the owner of
/// the buffer knows whether the next frame is already there or the next
/// read can block; output, so that everything queued is one write — so
/// `reader` and `writer` should be the raw streams. The concrete fleet
/// instantiations are [`stdio`] (a node's own stdin and stdout) and
/// [`tcp_connect`]/[`tcp_accept`] (a cloned TCP stream for each
/// direction), but tests can pair any in-memory streams.
#[derive(Debug)]
pub struct LineTransport<R, W> {
    reader: R,
    writer: W,
    inbuf: FrameBuf,
    outbuf: Vec<u8>,
}

impl<R: Read, W: Write> LineTransport<R, W> {
    /// Wraps a reader and a writer.
    pub fn new(reader: R, writer: W) -> Self {
        LineTransport {
            reader,
            writer,
            inbuf: FrameBuf::default(),
            outbuf: Vec::new(),
        }
    }

    /// Writes out everything queued, as one buffer.
    fn flush(&mut self) -> io::Result<()> {
        if self.outbuf.is_empty() {
            return Ok(());
        }
        self.writer.write_all(&self.outbuf)?;
        self.outbuf.clear();
        self.writer.flush()
    }
}

/// Appends `msg` and its terminator to an output buffer: the one place a
/// frame is laid out for the wire.
pub(crate) fn push_frame(outbuf: &mut Vec<u8>, msg: &str) {
    debug_assert!(
        !msg.contains('\n'),
        "a frame must be a single line; escape newlines in the payload"
    );
    outbuf.extend_from_slice(msg.as_bytes());
    outbuf.push(b'\n');
}

impl<R, W> Transport for LineTransport<R, W>
where
    R: Read + Send,
    W: Write + Send,
{
    fn queue(&mut self, msg: &str) -> io::Result<()> {
        push_frame(&mut self.outbuf, msg);
        if self.outbuf.len() > MAX_FRAME_BYTES {
            self.flush()?;
        }
        Ok(())
    }

    fn send(&mut self, msg: &str) -> io::Result<()> {
        push_frame(&mut self.outbuf, msg);
        self.flush()
    }

    fn recv(&mut self) -> io::Result<Option<String>> {
        loop {
            if let Some(frame) = self.inbuf.next_frame()? {
                return Ok(Some(frame));
            }
            // The next read may block, and the peer may be waiting for
            // what is still queued here.
            self.flush()?;
            if self.inbuf.is_closed() {
                return Ok(None);
            }
            self.inbuf.fill(&mut self.reader)?;
        }
    }
}

/// The transport a node binary uses toward the driver that spawned it:
/// messages in on stdin, messages out on stdout. Anything the node wants
/// a human to see goes to stderr, which the driver leaves alone.
#[must_use]
pub fn stdio() -> LineTransport<io::Stdin, io::Stdout> {
    LineTransport::new(io::stdin(), io::stdout())
}

/// Connects to a listening peer (the TCP flavor of the fleet).
///
/// `TCP_NODELAY` is set: what leaves is a whole batch of replies in one
/// write, and the driver's request/response discipline would otherwise
/// stall on Nagle delays.
///
/// # Errors
///
/// Propagates connection errors.
pub fn tcp_connect(addr: impl ToSocketAddrs) -> io::Result<LineTransport<TcpStream, TcpStream>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let reader = stream.try_clone()?;
    Ok(LineTransport::new(reader, stream))
}

/// Why an accept with a deadline did not produce a connection.
///
/// The driver spawns a node and then waits for it to dial back; a node
/// that crashes before connecting must surface as this typed error, not
/// as a driver hung in `accept(2)` forever.
#[derive(Debug)]
pub enum AcceptError {
    /// No peer connected within the deadline.
    Timeout {
        /// How long the call waited before giving up.
        waited: Duration,
    },
    /// The listener itself failed.
    Io(io::Error),
}

impl std::fmt::Display for AcceptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AcceptError::Timeout { waited } => {
                write!(f, "no inbound connection within {} ms", waited.as_millis())
            }
            AcceptError::Io(e) => write!(f, "accept failed: {e}"),
        }
    }
}

impl std::error::Error for AcceptError {}

impl From<io::Error> for AcceptError {
    fn from(e: io::Error) -> Self {
        AcceptError::Io(e)
    }
}

/// Accepts one inbound connection on `listener`, waiting at most
/// `timeout`. The raw-stream flavor of [`tcp_accept`], for callers (the
/// multiplexed driver) that hand the stream to a
/// [`crate::poll::PollTransport`] instead of framing it here.
///
/// The listener is temporarily switched to non-blocking mode and
/// restored before returning; the accepted stream is explicitly set
/// blocking (non-blocking inheritance across `accept` is
/// platform-dependent).
///
/// # Errors
///
/// [`AcceptError::Timeout`] if no peer connects in time, otherwise the
/// listener's I/O error.
pub fn tcp_accept_stream(
    listener: &TcpListener,
    timeout: Duration,
) -> Result<TcpStream, AcceptError> {
    listener.set_nonblocking(true)?;
    let start = Instant::now();
    let outcome = loop {
        match listener.accept() {
            Ok((stream, _peer)) => break Ok(stream),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if start.elapsed() >= timeout {
                    break Err(AcceptError::Timeout {
                        waited: start.elapsed(),
                    });
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => break Err(AcceptError::Io(e)),
        }
    };
    // Restore the listener for any later (possibly blocking) caller.
    listener.set_nonblocking(false)?;
    let stream = outcome?;
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Accepts one inbound connection on `listener`, waiting at most
/// `timeout`.
///
/// # Errors
///
/// [`AcceptError::Timeout`] if no peer connects within the deadline —
/// a node that died before dialing back must not hang the driver —
/// otherwise the underlying accept/clone error.
pub fn tcp_accept(
    listener: &TcpListener,
    timeout: Duration,
) -> Result<LineTransport<TcpStream, TcpStream>, AcceptError> {
    let stream = tcp_accept_stream(listener, timeout)?;
    let reader = stream.try_clone().map_err(AcceptError::Io)?;
    Ok(LineTransport::new(reader, stream))
}

/// An in-memory transport half for tests: what one side writes, the
/// other reads. Build a pair with [`loopback`].
pub type MemTransport = LineTransport<ChanReader, ChanWriter>;

/// Reader half of an in-memory byte channel (see [`loopback`]).
#[derive(Debug)]
pub struct ChanReader {
    rx: std::sync::mpsc::Receiver<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
}

/// Writer half of an in-memory byte channel (see [`loopback`]).
#[derive(Debug)]
pub struct ChanWriter {
    tx: std::sync::mpsc::Sender<Vec<u8>>,
}

impl Read for ChanReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if self.pos >= self.buf.len() {
            match self.rx.recv() {
                Ok(chunk) => {
                    self.buf = chunk;
                    self.pos = 0;
                }
                Err(_) => return Ok(0), // all writers dropped: EOF
            }
        }
        let n = out.len().min(self.buf.len() - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

impl Write for ChanWriter {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.tx
            .send(bytes.to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer dropped"))?;
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A connected pair of in-memory transports: frames sent on one side
/// arrive at the other, in order, with pipe-like EOF when a side drops.
#[must_use]
pub fn loopback() -> (MemTransport, MemTransport) {
    let (tx_ab, rx_ab) = std::sync::mpsc::channel();
    let (tx_ba, rx_ba) = std::sync::mpsc::channel();
    let a = LineTransport::new(
        ChanReader {
            rx: rx_ba,
            buf: Vec::new(),
            pos: 0,
        },
        ChanWriter { tx: tx_ab },
    );
    let b = LineTransport::new(
        ChanReader {
            rx: rx_ab,
            buf: Vec::new(),
            pos: 0,
        },
        ChanWriter { tx: tx_ba },
    );
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn loopback_roundtrips_frames_in_order() {
        let (mut a, mut b) = loopback();
        a.send("{\"x\":1}").unwrap();
        a.send("").unwrap();
        a.send("second").unwrap();
        assert_eq!(b.recv().unwrap().as_deref(), Some("{\"x\":1}"));
        assert_eq!(b.recv().unwrap().as_deref(), Some(""));
        assert_eq!(b.recv().unwrap().as_deref(), Some("second"));
        b.send("reply").unwrap();
        assert_eq!(a.recv().unwrap().as_deref(), Some("reply"));
    }

    /// `send` is queue-then-flush, so `a.send(); b.recv()` needs no flush
    /// call; and `recv` writes out what was only queued before it blocks,
    /// so `a.queue(); a.recv()` cannot deadlock against a peer that
    /// answers what it is asked.
    #[test]
    fn send_then_recv_needs_no_flush_and_recv_flushes_the_queue() {
        let (mut a, mut b) = loopback();
        a.queue("asked-1").unwrap();
        a.send("asked-2").unwrap();
        assert_eq!(b.recv().unwrap().as_deref(), Some("asked-1"));
        assert_eq!(b.recv().unwrap().as_deref(), Some("asked-2"));

        a.queue("ping").unwrap();
        b.send("pong").unwrap();
        assert_eq!(a.recv().unwrap().as_deref(), Some("pong"));
        assert_eq!(b.recv().unwrap().as_deref(), Some("ping"));
    }

    /// A shared record of the calls made on a transport's two streams.
    type Calls = std::sync::Arc<std::sync::Mutex<Vec<String>>>;

    /// Reads the chunks it was given, one per call, then end-of-stream.
    struct Chunks(std::vec::IntoIter<Vec<u8>>, Calls);
    impl Read for Chunks {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            self.1.lock().unwrap().push("read".into());
            let chunk = self.0.next().unwrap_or_default();
            out[..chunk.len()].copy_from_slice(&chunk);
            Ok(chunk.len())
        }
    }

    struct Recorder(Calls);
    impl Write for Recorder {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            let text = std::str::from_utf8(bytes).unwrap();
            self.0.lock().unwrap().push(format!("write {text:?}"));
            Ok(bytes.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// The tie on the node's end, counted: three requests that arrive in
    /// one read are answered in one write, and that write comes before
    /// the read that would block (here: the one that finds end-of-stream).
    #[test]
    fn a_batch_read_in_one_chunk_is_answered_in_one_write_before_the_next_read() {
        let calls = Calls::default();
        let chunks = vec![b"a\nb\nc\n".to_vec()];
        let mut t = LineTransport::new(
            Chunks(chunks.into_iter(), calls.clone()),
            Recorder(calls.clone()),
        );
        // The shape of `dist_node`'s serve loop.
        while let Some(request) = t.recv().unwrap() {
            t.queue(&format!("re:{request}")).unwrap();
        }
        assert_eq!(
            *calls.lock().unwrap(),
            ["read", "write \"re:a\\nre:b\\nre:c\\n\"", "read"]
        );
    }

    /// A reply to the unterminated line that ends a stream is still
    /// written: `recv` flushes before it reports end-of-stream too.
    #[test]
    fn the_reply_to_a_trailing_line_is_flushed_at_eof() {
        let calls = Calls::default();
        let chunks = vec![b"first\nlast".to_vec()];
        let mut t = LineTransport::new(
            Chunks(chunks.into_iter(), calls.clone()),
            Recorder(calls.clone()),
        );
        while let Some(request) = t.recv().unwrap() {
            t.queue(&format!("re:{request}")).unwrap();
        }
        assert_eq!(
            *calls.lock().unwrap(),
            [
                "read",
                "write \"re:first\\n\"",
                "read",
                "write \"re:last\\n\""
            ]
        );
    }

    /// A peer that asks for much and reads nothing: the queue is written
    /// out (and so meets the stream's back-pressure) once it has outgrown
    /// a frame, instead of growing until the input runs dry.
    #[test]
    fn an_overgrown_queue_is_written_out_early() {
        let calls = Calls::default();
        let mut t = LineTransport::new(io::empty(), Recorder(calls.clone()));
        let reply = "r".repeat(MAX_FRAME_BYTES / 4);
        for _ in 0..4 {
            t.queue(&reply).unwrap();
        }
        assert_eq!(calls.lock().unwrap().len(), 1);
    }

    #[test]
    fn frames_are_split_once_however_the_bytes_arrive() {
        let mut buf = FrameBuf::default();
        buf.push(b"one\ntw");
        assert_eq!(buf.next_frame().unwrap().as_deref(), Some("one"));
        assert_eq!(buf.next_frame().unwrap(), None);
        // The consumed prefix is reclaimed, so a stream whose reads
        // always end inside a frame does not grow the buffer.
        for _ in 0..1000 {
            buf.push(b"o\ntw");
            assert_eq!(buf.next_frame().unwrap().as_deref(), Some("two"));
            assert_eq!(buf.next_frame().unwrap(), None);
        }
        assert!(buf.buf.len() < 16, "{} bytes kept", buf.buf.len());
        buf.push(b"o\n\n\xff\n");
        assert_eq!(buf.next_frame().unwrap().as_deref(), Some("two"));
        assert_eq!(buf.next_frame().unwrap().as_deref(), Some(""));
        assert_eq!(buf.next_frame(), Err(FrameError::NotUtf8));
    }

    #[test]
    fn dropping_the_peer_yields_eof() {
        let (a, mut b) = loopback();
        drop(a);
        assert_eq!(b.recv().unwrap(), None);
    }

    #[test]
    fn tcp_pair_roundtrips() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let join = std::thread::spawn(move || {
            let mut server = tcp_accept(&listener, std::time::Duration::from_secs(10)).unwrap();
            let got = server.recv().unwrap().unwrap();
            server.send(&format!("echo:{got}")).unwrap();
        });
        let mut client = tcp_connect(addr).unwrap();
        client.send("hello").unwrap();
        assert_eq!(client.recv().unwrap().as_deref(), Some("echo:hello"));
        join.join().unwrap();
    }

    #[test]
    fn tcp_accept_times_out_when_no_peer_connects() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let started = std::time::Instant::now();
        match tcp_accept(&listener, std::time::Duration::from_millis(50)) {
            Err(AcceptError::Timeout { waited }) => {
                assert!(waited >= std::time::Duration::from_millis(50));
                assert!(
                    started.elapsed() < std::time::Duration::from_secs(5),
                    "the wait must be bounded by the deadline, not unbounded"
                );
            }
            Ok(_) => panic!("no peer exists, accept cannot succeed"),
            Err(other) => panic!("expected Timeout, got {other}"),
        }
        // The listener is restored to blocking mode and still usable.
        let addr = listener.local_addr().unwrap();
        let join = std::thread::spawn(move || {
            let mut client = tcp_connect(addr).unwrap();
            client.send("late").unwrap();
        });
        let mut server = tcp_accept(&listener, std::time::Duration::from_secs(10)).unwrap();
        assert_eq!(server.recv().unwrap().as_deref(), Some("late"));
        join.join().unwrap();
    }

    #[test]
    fn json_documents_are_single_frames() {
        use twobit_obs::json::{obj, Json};
        let doc = obj([("text", Json::Str("line1\nline2\t\"q\"".into()))]);
        let rendered = doc.to_json();
        assert!(!rendered.contains('\n'), "compact JSON must be one line");
        let (mut a, mut b) = loopback();
        a.send(&rendered).unwrap();
        let back = twobit_obs::json::parse(&b.recv().unwrap().unwrap()).unwrap();
        assert_eq!(back, doc);
    }
}
