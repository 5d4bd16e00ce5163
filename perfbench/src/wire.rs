//! The client side of the wire: its own few-line codec (4-byte big-endian
//! length + payload), so a change to the server's framing code cannot
//! speed up or slow down the client that measures it.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Appends one binary request frame.
pub fn frame(text: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&(text.len() as u32).to_be_bytes());
    out.extend_from_slice(text.as_bytes());
}

/// One client connection with a reply reassembly buffer.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
            start: 0,
        })
    }

    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Next complete reply already buffered, if any.
    pub fn decoded(&mut self) -> Option<String> {
        let pending = &self.buf[self.start..];
        if pending.len() < 4 {
            return None;
        }
        let len = u32::from_be_bytes([pending[0], pending[1], pending[2], pending[3]]) as usize;
        if pending.len() < 4 + len {
            return None;
        }
        let text = String::from_utf8_lossy(&pending[4..4 + len]).into_owned();
        self.start += 4 + len;
        Some(text)
    }

    /// One blocking socket read into the buffer.
    pub fn fill(&mut self) -> io::Result<()> {
        if self.start > 0 && self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > (1 << 20) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        let mut chunk = [0u8; 1 << 16];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    /// Blocks for the next reply.
    pub fn recv(&mut self) -> io::Result<String> {
        loop {
            if let Some(r) = self.decoded() {
                return Ok(r);
            }
            self.fill()?;
        }
    }

    /// Sends one statement and waits for its reply.
    pub fn call(&mut self, text: &str) -> io::Result<String> {
        let mut out = Vec::with_capacity(text.len() + 4);
        frame(text, &mut out);
        self.send(&out)?;
        self.recv()
    }

    /// Waits until the socket is readable or `deadline` passes; `true`
    /// when readable. Uses `ppoll`, whose timeout has nanosecond
    /// resolution, so an open-loop sender wakes on time for its next send.
    pub fn wait_readable(&self, deadline: Instant) -> bool {
        let timeout = deadline.saturating_duration_since(Instant::now());
        poll_readable(&self.stream, timeout)
    }
}

#[cfg(target_os = "linux")]
fn poll_readable(stream: &TcpStream, timeout: Duration) -> bool {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    }
    const POLLIN: i16 = 1;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, properly laid-out `struct pollfd` and
    // `struct timespec` values for the duration of the call, `nfds` is 1 to
    // match the single descriptor, and a null sigmask leaves the signal
    // mask unchanged.
    let n = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    n > 0
}
