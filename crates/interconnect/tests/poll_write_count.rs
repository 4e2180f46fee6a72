//! The tie on the driver's end, counted: `PollTransport::send` writes
//! nothing, and the next `recv_deadline` — on whichever connection —
//! writes every connection's queue as one `send(2)`.
//!
//! `std` writes a `TcpStream` with `send(2)`, which Linux's per-thread
//! `syscw` in `/proc/thread-self/io` does not count. So this binary
//! defines `send` itself: the linker binds `std`'s calls to it, and it
//! counts them per thread (tests running beside it do not count) before
//! passing them on as the equivalent `sendto(2)`.

#![cfg(target_os = "linux")]

use std::cell::Cell;
use std::ffi::c_void;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use twobit_interconnect::poll::{PollTransport, Token};

thread_local! {
    static SENDS: Cell<u64> = const { Cell::new(0) };
}

extern "C" {
    fn sendto(
        fd: i32,
        buf: *const c_void,
        len: usize,
        flags: i32,
        addr: *const c_void,
        addr_len: u32,
    ) -> isize;
}

/// `send(2)`, counted on the calling thread.
///
/// # Safety
///
/// As `send(2)`: `buf` must point at `len` readable bytes.
#[no_mangle]
pub unsafe extern "C" fn send(fd: i32, buf: *const c_void, len: usize, flags: i32) -> isize {
    SENDS.with(|n| n.set(n.get() + 1));
    // SAFETY: `send(fd, buf, len, flags)` is `sendto` with no address.
    unsafe { sendto(fd, buf, len, flags, std::ptr::null(), 0) }
}

fn sends_so_far() -> u64 {
    SENDS.with(Cell::get)
}

const LONG: Duration = Duration::from_secs(5);

/// A registered loopback connection and the peer's end of it.
fn pair(poll: &mut PollTransport) -> (Token, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (stream, _) = listener.accept().unwrap();
    (poll.register_tcp(stream).unwrap(), peer)
}

/// The next `want` bytes the peer was sent.
fn received(peer: &mut TcpStream, want: usize) -> String {
    let mut got = vec![0; want];
    peer.read_exact(&mut got).unwrap();
    String::from_utf8(got).unwrap()
}

#[test]
fn queued_frames_leave_as_one_write_per_connection_at_the_next_recv() {
    let mut poll = PollTransport::new();
    let (a, mut in_a) = pair(&mut poll);
    let (b, mut in_b) = pair(&mut poll);
    in_a.write_all(b"reply\nagain\n").unwrap();

    let before = sends_so_far();
    for frame in ["a1", "a2", "a3"] {
        poll.send(a, frame).unwrap();
    }
    for frame in ["b1", "b2"] {
        poll.send(b, frame).unwrap();
    }
    assert_eq!(sends_so_far(), before, "send only queues");
    let got = poll.recv_deadline(a, LONG).unwrap();
    assert_eq!(got.as_deref(), Some("reply"));
    assert_eq!(sends_so_far(), before + 2, "one write per connection");
    assert_eq!(received(&mut in_a, 9), "a1\na2\na3\n");
    assert_eq!(received(&mut in_b, 6), "b1\nb2\n");

    // Nothing is queued now, so nothing more is written; and a caller
    // that will not wait has `flush`.
    let before = sends_so_far();
    let got = poll.recv_deadline(a, LONG).unwrap();
    assert_eq!(got.as_deref(), Some("again"));
    assert_eq!(sends_so_far(), before);
    poll.send(b, "b3").unwrap();
    poll.flush(LONG);
    assert_eq!(sends_so_far(), before + 1);
    assert_eq!(received(&mut in_b, 3), "b3\n");
}
