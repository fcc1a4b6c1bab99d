//! The fleet's socket layer: nonblocking length-prefixed frame I/O.
//!
//! This is the **designated transport module** of the fleet data path —
//! the only fleet file allowed to touch sockets (lint rule NW-S007
//! enforces this). The connection state machine follows the serve
//! `conn.rs` idioms: a nonblocking stream drained into a growable input
//! buffer, an outbox with a partial-write offset (`sent`) compacted once
//! the consumed prefix grows large, and `WouldBlock`/`Interrupted`
//! handled as "no progress" rather than errors. Framing is binary
//! (length-prefixed, see [`crate::frame`]) instead of serve's
//! newline-JSON, so the machinery is reimplemented here rather than
//! imported — `nestwx-serve` depends on this crate, not the reverse.
//!
//! Waiting blocks in the kernel (`FrameConn::wait_readable`): a waiter
//! first pumps without blocking, and only when that made no progress does
//! it switch the socket to blocking for one read bounded by
//! `set_read_timeout` — so a frame, an EOF or an error wakes it at once,
//! and the deadline bounds it otherwise. Writes never block: large
//! `Feedback` and `Boundary` frames cross in opposite directions, and two
//! peers each blocked writing to the other would deadlock. A waiter whose
//! outbox still holds bytes therefore blocks only for a short slice and
//! pumps again. All deadline checks go through the `nestwx_obs::clock`
//! shim.

use crate::error::TransportError;
use crate::frame::{decode_frame, encode_frame, Tag, DEFAULT_MAX_FRAME_BYTES};
use nestwx_obs::clock;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Compact the outbox once this many sent bytes accumulate at its front.
const COMPACT_THRESHOLD: usize = 64 * 1024;

/// Longest kernel wait while queued output is still unsent: reads are the
/// only readiness std can block on, so a writer re-pumps this often.
const WRITE_SLICE: Duration = Duration::from_micros(100);

/// First and largest pause between nonblocking accepts; the pause doubles
/// from one to the other while no worker is connecting.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_micros(20);
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(2);

/// One nonblocking framed connection with transfer counters.
#[derive(Debug)]
pub struct FrameConn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    consumed: usize,
    outbuf: Vec<u8>,
    sent: usize,
    eof: bool,
    /// Peer address, for error messages.
    pub peer: String,
    /// Wire bytes received.
    pub bytes_in: u64,
    /// Wire bytes sent.
    pub bytes_out: u64,
    /// Frames decoded.
    pub frames_in: u64,
    /// Frames queued.
    pub frames_out: u64,
}

impl FrameConn {
    /// Wraps a connected stream: switches it to nonblocking and disables
    /// Nagle (halo frames are latency-critical and already batched).
    pub(crate) fn new(stream: TcpStream) -> Result<FrameConn, TransportError> {
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "<unknown>".to_string());
        stream
            .set_nonblocking(true)
            .map_err(|e| TransportError::Closed(format!("set_nonblocking: {e}")))?;
        let _ = stream.set_nodelay(true);
        Ok(FrameConn {
            stream,
            inbuf: Vec::new(),
            consumed: 0,
            outbuf: Vec::new(),
            sent: 0,
            eof: false,
            peer,
            bytes_in: 0,
            bytes_out: 0,
            frames_in: 0,
            frames_out: 0,
        })
    }

    /// Queues one frame for sending (no I/O; call `FrameConn::flush`).
    pub fn queue(&mut self, tag: Tag, payload: &[u8]) {
        encode_frame(tag, payload, &mut self.outbuf);
        self.frames_out += 1;
    }

    /// Writes as much queued output as the socket accepts right now.
    /// Returns `true` once the outbox is fully flushed.
    pub(crate) fn flush(&mut self) -> Result<bool, TransportError> {
        while self.sent < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.sent..]) {
                Ok(0) => {
                    return Err(TransportError::Closed(format!(
                        "{}: write returned 0",
                        self.peer
                    )))
                }
                Ok(n) => {
                    self.sent += n;
                    self.bytes_out += n as u64;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(TransportError::Closed(format!("{}: write: {e}", self.peer))),
            }
        }
        if self.sent == self.outbuf.len() {
            self.outbuf.clear();
            self.sent = 0;
        } else if self.sent >= COMPACT_THRESHOLD {
            self.outbuf.drain(..self.sent);
            self.sent = 0;
        }
        Ok(self.sent == self.outbuf.len() || self.outbuf.is_empty())
    }

    /// Whether the peer has closed its sending side. Frames already
    /// buffered stay decodable; only *waiting* on an EOF'd connection with
    /// nothing decodable left is an error.
    pub(crate) fn is_eof(&self) -> bool {
        self.eof
    }

    /// Whether queued output is still waiting to be written.
    pub(crate) fn has_pending_output(&self) -> bool {
        self.sent < self.outbuf.len()
    }

    /// Reads every currently-available byte into the input buffer.
    /// Returns `true` when new bytes arrived. EOF is recorded, not raised:
    /// a peer may legitimately close right after its final frame, and that
    /// frame must still decode.
    pub(crate) fn fill(&mut self) -> Result<bool, TransportError> {
        if self.eof {
            return Ok(false);
        }
        let mut progressed = false;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => {
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    self.bytes_in += n as u64;
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(TransportError::Closed(format!("{}: read: {e}", self.peer))),
            }
        }
        Ok(progressed)
    }

    /// Decodes the next buffered frame, if a complete one is available.
    pub(crate) fn next_frame(&mut self) -> Result<Option<(Tag, Vec<u8>)>, TransportError> {
        match decode_frame(&self.inbuf[self.consumed..], DEFAULT_MAX_FRAME_BYTES) {
            Ok(None) => {
                // Compact the consumed prefix while idle so a long run's
                // buffer doesn't grow monotonically.
                if self.consumed >= COMPACT_THRESHOLD {
                    self.inbuf.drain(..self.consumed);
                    self.consumed = 0;
                }
                Ok(None)
            }
            Ok(Some((tag, payload, used))) => {
                let owned = payload.to_vec();
                self.consumed += used;
                self.frames_in += 1;
                Ok(Some((tag, owned)))
            }
            Err(e) => Err(TransportError::Protocol(format!("{}: {e}", self.peer))),
        }
    }

    /// One nonblocking duty cycle: flush pending output, read pending
    /// input. Returns `true` when either direction progressed.
    pub(crate) fn pump(&mut self) -> Result<bool, TransportError> {
        let had_out = !self.outbuf.is_empty();
        self.flush()?;
        let wrote = had_out && self.outbuf.is_empty();
        let read = self.fill()?;
        Ok(wrote || read)
    }

    /// Blocks in the kernel until this connection has input, the peer
    /// closes or errors, or the wait should resume: at `deadline` when
    /// `outbox_idle` (nothing the caller owns is waiting to be written),
    /// after a short slice otherwise. Whatever one read returns is
    /// buffered; the caller pumps and decodes as usual.
    pub(crate) fn wait_readable(
        &mut self,
        deadline: Instant,
        outbox_idle: bool,
    ) -> Result<(), TransportError> {
        let until = if outbox_idle {
            deadline
        } else {
            deadline.min(clock::deadline_after(WRITE_SLICE))
        };
        // Zero remaining means expired, and a zero read timeout is an
        // error in std: the wait is simply over.
        let timeout = clock::remaining(until);
        if timeout.is_zero() {
            return Ok(());
        }
        if self.eof {
            // A closed read side returns at once and cannot be blocked on;
            // only a flush still waits here, for the slice.
            std::thread::sleep(timeout.min(WRITE_SLICE));
            return Ok(());
        }
        let mut chunk = [0u8; 16 * 1024];
        let got = self
            .set_blocking(Some(timeout))
            .map(|()| self.stream.read(&mut chunk));
        self.set_blocking(None)?;
        match got? {
            Ok(0) => self.eof = true,
            Ok(n) => {
                self.inbuf.extend_from_slice(&chunk[..n]);
                self.bytes_in += n as u64;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(TransportError::Closed(format!("{}: read: {e}", self.peer))),
        }
        Ok(())
    }

    /// Switches the stream to blocking reads bounded by `timeout`, or back
    /// to nonblocking with `None`.
    fn set_blocking(&mut self, timeout: Option<Duration>) -> Result<(), TransportError> {
        let set = match timeout {
            Some(t) => self
                .stream
                .set_read_timeout(Some(t))
                .and_then(|()| self.stream.set_nonblocking(false)),
            None => self.stream.set_nonblocking(true),
        };
        set.map_err(|e| TransportError::Closed(format!("{}: set_nonblocking: {e}", self.peer)))
    }

    /// Pumps until a complete frame arrives or `deadline` passes, blocking
    /// in the kernel whenever a pump made no progress.
    pub fn wait_frame(&mut self, deadline: Instant) -> Result<(Tag, Vec<u8>), TransportError> {
        loop {
            if let Some(frame) = self.next_frame()? {
                return Ok(frame);
            }
            let progressed = self.pump()?;
            if let Some(frame) = self.next_frame()? {
                return Ok(frame);
            }
            if self.eof {
                return Err(TransportError::Closed(format!(
                    "{}: peer disconnected",
                    self.peer
                )));
            }
            if clock::expired(deadline) {
                return Err(TransportError::Timeout(format!(
                    "{}: no frame before deadline",
                    self.peer
                )));
            }
            if !progressed {
                let idle = !self.has_pending_output();
                self.wait_readable(deadline, idle)?;
            }
        }
    }

    /// Pumps until the outbox is empty or `deadline` passes — used to push
    /// out `Done`/`Abort` before closing. Input that arrives meanwhile is
    /// buffered, not lost.
    pub fn flush_fully(&mut self, deadline: Instant) -> Result<(), TransportError> {
        loop {
            if self.flush()? {
                return Ok(());
            }
            if clock::expired(deadline) {
                return Err(TransportError::Timeout(format!(
                    "{}: outbox not drained before deadline",
                    self.peer
                )));
            }
            self.wait_readable(deadline, false)?;
        }
    }
}

/// Binds the coordinator's listener (nonblocking, for deadline-bounded
/// accepts) and returns it with the bound address.
pub fn bind_listener(addr: &str) -> Result<(TcpListener, String), TransportError> {
    let listener =
        TcpListener::bind(addr).map_err(|e| TransportError::Closed(format!("bind {addr}: {e}")))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| TransportError::Closed(format!("listener nonblocking: {e}")))?;
    let local = listener
        .local_addr()
        .map_err(|e| TransportError::Closed(format!("local_addr: {e}")))?;
    Ok((listener, local.to_string()))
}

/// Accepts up to `n` connections before `deadline`.
pub fn accept_n(
    listener: &TcpListener,
    n: usize,
    deadline: Instant,
) -> Result<Vec<FrameConn>, TransportError> {
    let mut conns = Vec::with_capacity(n);
    let mut backoff = ACCEPT_BACKOFF_MIN;
    while conns.len() < n {
        match listener.accept() {
            Ok((stream, _)) => {
                conns.push(FrameConn::new(stream)?);
                backoff = ACCEPT_BACKOFF_MIN;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if clock::expired(deadline) {
                    return Err(TransportError::Timeout(format!(
                        "only {}/{n} workers connected before deadline",
                        conns.len()
                    )));
                }
                std::thread::sleep(backoff.min(clock::remaining(deadline)));
                backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(TransportError::Closed(format!("accept: {e}"))),
        }
    }
    Ok(conns)
}

/// Connects a worker to the coordinator, retrying until `deadline` (the
/// coordinator may still be binding when a spawned worker starts).
pub fn connect(addr: &str, deadline: Instant) -> Result<FrameConn, TransportError> {
    let sockaddr = addr
        .to_socket_addrs()
        .map_err(|e| TransportError::Closed(format!("resolve {addr}: {e}")))?
        .next()
        .ok_or_else(|| TransportError::Closed(format!("resolve {addr}: no address")))?;
    loop {
        match TcpStream::connect_timeout(&sockaddr, Duration::from_millis(250)) {
            Ok(stream) => return FrameConn::new(stream),
            Err(e) => {
                if clock::expired(deadline) {
                    return Err(TransportError::Timeout(format!("connect {addr}: {e}")));
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A connected loopback pair: (connecting side, accepted side).
    fn pair() -> (FrameConn, FrameConn) {
        let (listener, addr) = bind_listener("127.0.0.1:0").expect("bind");
        let near = connect(&addr, clock::deadline_after(Duration::from_secs(5))).expect("connect");
        let mut far =
            accept_n(&listener, 1, clock::deadline_after(Duration::from_secs(5))).expect("accept");
        (near, far.remove(0))
    }

    #[test]
    fn large_frames_crossing_both_ways_do_not_deadlock() {
        // Each frame is far larger than what loopback socket buffers take
        // in while nobody reads (yet under the 16 MiB cap), so neither
        // side's flush completes until the other reads: blocking writes
        // on both ends would wedge here.
        let big = |seed: u8| -> Vec<u8> { (0..12 << 20).map(|i| (i as u8) ^ seed).collect() };
        let (a, b) = pair();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        for (mut conn, mine, theirs) in [(a, big(1), big(2)), (b, big(2), big(1))] {
            let done_tx = done_tx.clone();
            std::thread::spawn(move || {
                conn.queue(Tag::Feedback, &mine);
                let deadline = clock::deadline_after(Duration::from_secs(20));
                let got = conn.wait_frame(deadline).map(|(tag, payload)| {
                    (tag, payload == theirs, conn.flush_fully(deadline).is_ok())
                });
                let _ = done_tx.send(got);
            });
        }
        for _ in 0..2 {
            let got = done_rx
                .recv_timeout(Duration::from_secs(30))
                .expect("both sides finish: no write deadlock");
            assert_eq!(got.expect("frame arrives"), (Tag::Feedback, true, true));
        }
    }

    #[test]
    fn silent_peer_times_out_at_the_deadline() {
        let (mut near, _far) = pair();
        let wait = Duration::from_millis(200);
        let start = clock::now();
        let err = near
            .wait_frame(clock::deadline_after(wait))
            .expect_err("nothing was sent");
        let took = clock::since(start);
        assert!(matches!(err, TransportError::Timeout(_)), "{err}");
        assert!(took >= wait, "gave up early, after {took:?}");
        assert!(
            took <= wait + Duration::from_millis(100),
            "overslept the deadline: {took:?}"
        );
    }

    #[test]
    fn final_frame_before_close_still_decodes() {
        let (mut near, mut far) = pair();
        far.queue(Tag::Done, b"last words");
        far.flush_fully(clock::deadline_after(Duration::from_secs(5)))
            .expect("flush");
        drop(far);
        let deadline = clock::deadline_after(Duration::from_secs(5));
        let (tag, payload) = near.wait_frame(deadline).expect("final frame");
        assert_eq!((tag, payload.as_slice()), (Tag::Done, &b"last words"[..]));
        let start = clock::now();
        let err = near.wait_frame(deadline).expect_err("peer is gone");
        assert!(matches!(err, TransportError::Closed(_)), "{err}");
        assert!(
            clock::since(start) < Duration::from_secs(1),
            "EOF must wake the wait, not the deadline"
        );
    }
}
