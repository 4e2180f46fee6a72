//! Frame-reassembly edge cases for the two users of the one frame
//! splitter, `PollTransport` and `LineTransport` — the boundaries the
//! in-module unit tests do not reach: a partial frame cut off by TCP
//! EOF, partial frames interleaved across two connections, a single
//! frame wider than one 8 KiB read, any chunking of any bytes, a frame
//! with no end, and a TCP peer that stopped reading.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use twobit_interconnect::poll::{PollError, PollTransport, Token};
use twobit_interconnect::transport::{FrameError, LineTransport, Transport, MAX_FRAME_BYTES};

const DEADLINE: Duration = Duration::from_secs(10);

/// A registered loopback connection and the peer's end of it.
fn pair(poll: &mut PollTransport) -> (Token, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (stream, _) = listener.accept().unwrap();
    (poll.register_tcp(stream).unwrap(), peer)
}

/// A peer that dies mid-frame over TCP: one complete frame, then a
/// partial line cut off by the write-side shutdown. The complete frame
/// arrives intact, the unterminated tail is delivered as a final frame
/// (matching `LineTransport::recv`), and the stream then reports EOF.
#[test]
fn tcp_partial_frame_at_eof_is_delivered_before_eof() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"complete\npartial-tail").unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        // Hold the read half open so the driver sees EOF, not a reset.
        let mut sink = Vec::new();
        let _ = stream.read_to_end(&mut sink);
    });

    let mut poll = PollTransport::new();
    let (stream, _) = listener.accept().unwrap();
    let t = poll.register_tcp(stream).unwrap();
    assert_eq!(
        poll.recv_deadline(t, DEADLINE).unwrap().as_deref(),
        Some("complete")
    );
    assert_eq!(
        poll.recv_deadline(t, DEADLINE).unwrap().as_deref(),
        Some("partial-tail")
    );
    assert_eq!(poll.recv_deadline(t, DEADLINE).unwrap(), None);
    poll.deregister(t);
    peer.join().unwrap();
}

/// Two connections each trickling a frame in fragments, arrivals
/// interleaved. Per-connection input buffers must keep the fragments
/// apart: each frame reassembles from its own connection's bytes only,
/// and a fragment for B arriving mid-wait on A is neither lost nor
/// spliced into A's frame.
#[test]
fn interleaved_partial_frames_stay_per_connection() {
    let mut poll = PollTransport::new();
    let (a, mut in_a) = pair(&mut poll);
    let (b, mut in_b) = pair(&mut poll);

    // A and B alternate fragments; neither frame is complete until the
    // fourth write, and B's completes first.
    in_a.write_all(b"alpha-").unwrap();
    in_b.write_all(b"beta-").unwrap();
    in_b.write_all(b"two\nb-next-").unwrap();
    in_a.write_all(b"one\n").unwrap();

    assert_eq!(
        poll.recv_deadline(a, DEADLINE).unwrap().as_deref(),
        Some("alpha-one")
    );
    // B's completed frame waited in B's connection meanwhile.
    assert_eq!(
        poll.recv_deadline(b, DEADLINE).unwrap().as_deref(),
        Some("beta-two")
    );
    // B's trailing fragment is still pending, not a frame: it comes
    // back as the head of the frame the next write completes.
    in_b.write_all(b"frame\n").unwrap();
    assert_eq!(
        poll.recv_deadline(b, DEADLINE).unwrap().as_deref(),
        Some("b-next-frame")
    );
}

/// One frame far wider than the transport's 8 KiB read, sent over TCP so
/// the transport must stitch it together across many blocking reads. A
/// small frame behind it proves the split leaves no residue.
#[test]
fn tcp_frame_larger_than_one_read_buffer_reassembles() {
    let payload = "0123456789abcdef".repeat(6 * 1024); // 96 KiB, ≥ 12 reads
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let sent = payload.clone();
    let peer = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(sent.as_bytes()).unwrap();
        stream.write_all(b"\nsmall\n").unwrap();
        let mut sink = Vec::new();
        let _ = stream.read_to_end(&mut sink);
    });

    let mut poll = PollTransport::new();
    let (stream, _) = listener.accept().unwrap();
    let t = poll.register_tcp(stream).unwrap();
    let big = poll.recv_deadline(t, DEADLINE).unwrap().unwrap();
    assert_eq!(big.len(), payload.len());
    assert_eq!(big, payload);
    assert_eq!(
        poll.recv_deadline(t, DEADLINE).unwrap().as_deref(),
        Some("small")
    );
    poll.deregister(t);
    peer.join().unwrap();
}

/// The frames of `bytes`, worked out without a cursor: the pieces
/// between `\n`s, an unterminated tail included, up to and including the
/// first that is not UTF-8 (`None`), which is where a link stops.
fn frames_of(bytes: &[u8]) -> Vec<Option<String>> {
    let mut pieces: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
    if pieces.last().is_some_and(|tail| tail.is_empty()) {
        pieces.pop(); // the bytes ended on a terminator (or are empty)
    }
    let mut frames = Vec::new();
    for piece in pieces {
        frames.push(String::from_utf8(piece.to_vec()).ok());
        if frames.last() == Some(&None) {
            break;
        }
    }
    frames
}

/// `bytes` cut at `cuts` (cycled).
fn chunked(bytes: &[u8], cuts: &[usize]) -> VecDeque<Vec<u8>> {
    let mut chunks = VecDeque::new();
    let mut rest = bytes;
    for &cut in cuts.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (chunk, tail) = rest.split_at(cut.min(rest.len()));
        chunks.push_back(chunk.to_vec());
        rest = tail;
    }
    chunks
}

/// A reader that yields its chunks, one per read, then EOF.
struct Chunks(VecDeque<Vec<u8>>);

impl Read for Chunks {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let chunk = self.0.pop_front().unwrap_or_default();
        out[..chunk.len()].copy_from_slice(&chunk);
        Ok(chunk.len())
    }
}

/// Everything a receive loop yields until end-of-stream or an error
/// (`None`, last).
fn drain<E>(mut recv: impl FnMut() -> Result<Option<String>, E>) -> Vec<Option<String>> {
    let mut frames = Vec::new();
    loop {
        match recv() {
            Ok(Some(frame)) => frames.push(Some(frame)),
            Ok(None) => return frames,
            Err(_) => {
                frames.push(None);
                return frames;
            }
        }
    }
}

proptest! {
    /// Any chunking of any byte string yields the frames of the whole
    /// string, through both users of the splitter: a trailing
    /// unterminated line is delivered at EOF, bytes that are not UTF-8
    /// are an error at their frame and never a panic.
    #[test]
    fn any_chunking_yields_the_frames_of_the_whole_string(
        bytes in prop::collection::vec(
            prop_oneof![Just(b'\n'), Just(b'x'), Just(0xc3u8), Just(0xa9u8), any::<u8>()],
            0..200,
        ),
        cuts in prop::collection::vec(1usize..40, 1..8),
    ) {
        let expected = frames_of(&bytes);

        let mut line = LineTransport::new(Chunks(chunked(&bytes, &cuts)), io::sink());
        prop_assert_eq!(&drain(|| line.recv()), &expected);

        // Over a socket pair: the bytes, fewer than a socket buffer
        // holds, are written chunk by chunk and then the peer's end.
        let mut poll = PollTransport::new();
        let (t, mut peer) = pair(&mut poll);
        for chunk in chunked(&bytes, &cuts) {
            peer.write_all(&chunk).unwrap();
        }
        peer.shutdown(Shutdown::Write).unwrap();
        prop_assert_eq!(&drain(|| poll.recv_deadline(t, DEADLINE)), &expected);
    }
}

/// A peer that never sends `\n`: both users refuse the frame once it is
/// longer than the stated bound, with the typed error, and the
/// connection is closed — not an input buffer that grows for ever.
#[test]
fn a_frame_with_no_end_is_refused_at_the_bound() {
    let mut line = LineTransport::new(io::repeat(b'['), io::sink());
    let refused = line.recv().unwrap_err();
    assert_eq!(refused.kind(), io::ErrorKind::InvalidData);
    let typed = refused
        .get_ref()
        .and_then(|e| e.downcast_ref::<FrameError>());
    let too_long = FrameError::TooLong {
        limit: MAX_FRAME_BYTES,
    };
    assert_eq!(typed, Some(&too_long));

    let mut poll = PollTransport::new();
    let (t, mut peer) = pair(&mut poll);
    // Writes `[` until the closed connection refuses more.
    let flood = std::thread::spawn(move || io::copy(&mut io::repeat(b'['), &mut peer));
    match poll.recv_deadline(t, DEADLINE) {
        Err(PollError::Frame(e)) => assert_eq!(e, too_long),
        other => panic!("expected the frame to be refused, got {other:?}"),
    }
    assert!(matches!(poll.send(t, "x"), Err(PollError::Unregistered)));
    assert!(flood.join().unwrap().is_err());
}

/// A TCP peer that accepts and never reads, and a frame larger than the
/// socket buffers between the two: the write cannot complete, and inside
/// the deadline that is the typed timeout and a dead token, not a driver
/// hung in `write(2)`.
#[test]
fn a_write_to_a_peer_that_stopped_reading_times_out() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (release, held) = std::sync::mpsc::channel::<()>();
    let peer = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let _ = held.recv(); // keep the connection open, read nothing
        drop(stream);
    });

    let mut poll = PollTransport::new();
    let t = poll
        .register_tcp(TcpStream::connect(addr).unwrap())
        .unwrap();
    poll.send(t, &"w".repeat(16 << 20)).unwrap();
    let started = Instant::now();
    match poll.recv_deadline(t, Duration::from_millis(200)) {
        Err(PollError::Timeout { waited }) => {
            assert!(waited >= Duration::from_millis(200), "{waited:?}");
            assert!(started.elapsed() < DEADLINE, "bounded wait");
        }
        other => panic!("expected Timeout, got {other:?}"),
    }
    assert!(matches!(poll.send(t, "x"), Err(PollError::Unregistered)));
    assert!(matches!(
        poll.recv_deadline(t, DEADLINE),
        Err(PollError::Unregistered)
    ));
    release.send(()).unwrap();
    peer.join().unwrap();
}
