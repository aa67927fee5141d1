//! An in-memory bidirectional byte stream — the loopback transport.
//!
//! [`duplex`] returns two connected [`DuplexStream`]s; bytes written to one
//! end are read from the other, exactly like a socketpair. The loopback
//! evaluation backend runs client and server over this transport *through
//! the real codec*, so the byte-identity CI exercises every serialization
//! boundary of the remote path without touching the network stack.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::sync::{Arc, Condvar, Mutex};

/// One direction of the pipe: a buffer plus its open/closed state.
struct Pipe {
    state: Mutex<PipeState>,
    readable: Condvar,
}

struct PipeState {
    buf: VecDeque<u8>,
    /// Set when the writing end is gone: readers drain the buffer, then
    /// see EOF.
    closed: bool,
}

impl Pipe {
    fn new() -> Arc<Pipe> {
        Arc::new(Pipe {
            state: Mutex::new(PipeState {
                buf: VecDeque::new(),
                closed: false,
            }),
            readable: Condvar::new(),
        })
    }

    fn write(&self, bytes: &[u8]) -> std::io::Result<usize> {
        let mut st = self.state.lock().expect("duplex pipe poisoned");
        if st.closed {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "peer closed the loopback stream",
            ));
        }
        st.buf.extend(bytes);
        drop(st);
        self.readable.notify_all();
        Ok(bytes.len())
    }

    fn read(&self, out: &mut [u8]) -> std::io::Result<usize> {
        let mut st = self.state.lock().expect("duplex pipe poisoned");
        loop {
            if !st.buf.is_empty() {
                let n = out.len().min(st.buf.len());
                for slot in out.iter_mut().take(n) {
                    *slot = st.buf.pop_front().expect("non-empty buffer");
                }
                return Ok(n);
            }
            if st.closed {
                return Ok(0); // EOF
            }
            st = self.readable.wait(st).expect("duplex pipe poisoned");
        }
    }

    fn close(&self) {
        let mut st = self.state.lock().expect("duplex pipe poisoned");
        st.closed = true;
        drop(st);
        self.readable.notify_all();
    }
}

/// One end of an in-memory bidirectional stream. Dropping it closes the
/// end; the peer then drains buffered bytes and sees EOF.
pub struct DuplexStream {
    rx: Arc<Pipe>,
    tx: Arc<Pipe>,
}

impl Drop for DuplexStream {
    fn drop(&mut self) {
        self.tx.close();
    }
}

impl Read for DuplexStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        self.rx.read(buf)
    }
}

impl Write for DuplexStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.tx.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A connected pair of in-memory streams: what one writes, the other reads.
pub fn duplex() -> (DuplexStream, DuplexStream) {
    let a_to_b = Pipe::new();
    let b_to_a = Pipe::new();
    let a = DuplexStream {
        rx: Arc::clone(&b_to_a),
        tx: Arc::clone(&a_to_b),
    };
    let b = DuplexStream {
        rx: a_to_b,
        tx: b_to_a,
    };
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_cross_both_directions() {
        let (mut a, mut b) = duplex();
        a.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        b.write_all(b"pong!").unwrap();
        let mut buf = [0u8; 5];
        a.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong!");
    }

    #[test]
    fn drop_gives_eof_after_drain() {
        let (mut a, mut b) = duplex();
        a.write_all(b"tail").unwrap();
        drop(a);
        let mut out = Vec::new();
        b.read_to_end(&mut out).unwrap();
        assert_eq!(out, b"tail");
    }

    #[test]
    fn blocked_reader_wakes_on_write() {
        let (mut a, mut b) = duplex();
        let t = std::thread::spawn(move || {
            let mut buf = [0u8; 3];
            b.read_exact(&mut buf).unwrap();
            buf
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        a.write_all(b"abc").unwrap();
        assert_eq!(&t.join().unwrap(), b"abc");
    }
}
