//! Per-connection state for the nonblocking event loop.
//!
//! A `Conn` owns one registered stream plus everything needed to speak
//! the pipelined line protocol over it without ever blocking:
//!
//! - an **input buffer** (`protocol::LineBuf`, shared with
//!   [`crate::protocol::LineReader`]) that splits complete request lines
//!   out of whatever bytes the socket had ready (a hostile line never
//!   buffers past the cap);
//! - a **slot queue** preserving response order under pipelining: each
//!   request reserves a slot, answered either immediately
//!   ([`Slot::Done`]) or later by a worker completion filling its
//!   sequence number ([`Slot::Waiting`]) — responses leave strictly in
//!   request order regardless of completion order;
//! - an **outbox** with a partial-write offset, flushed only as far as
//!   the socket will take without blocking, capped so a slow consumer is
//!   disconnected instead of ballooning server memory;
//! - **idle and lifetime deadlines** (plain `Instant` comparisons against
//!   the pass timestamp the event loop already holds).
//!
//! The type is generic over the stream so the whole state machine is unit
//! tested against in-memory scripted streams; the event loop instantiates
//! it with `TcpStream`.

use crate::flight::RequestSpan;
use crate::protocol::{Line, LineBuf};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

/// Cap on buffered finished-but-unwritten flight spans per connection; a
/// connection that never drains its output cannot grow the span queue
/// without bound (the oldest span is handed back for immediate recording
/// with `written: false`).
const MAX_PENDING_SPANS: usize = 8 * 1024;

/// Outbox bytes beyond which a non-draining peer is declared dead. Large
/// enough for thousands of queued responses, small enough that one stuck
/// client cannot hold megabytes per connection indefinitely.
pub(crate) const MAX_OUTBOX_BYTES: usize = 4 * 1024 * 1024;

/// One entry in a connection's in-order response queue.
pub enum Slot {
    /// Response ready to serialize (no trailing newline).
    Done(String),
    /// Awaiting a worker completion carrying this sequence number.
    Waiting(u64),
}

/// Why a connection should be dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Gone {
    /// Peer closed and nothing remains to deliver.
    Finished,
    /// I/O error (reset, broken pipe) — undeliverable responses are
    /// counted by the caller, not retried.
    Dead,
    /// Outbox exceeded [`MAX_OUTBOX_BYTES`] without draining.
    SlowConsumer,
}

/// Per-connection state. See the module docs for the moving parts.
pub(crate) struct Conn<S> {
    /// The registered nonblocking stream.
    pub stream: S,
    /// Connection number within the owning reader (completion routing key).
    pub id: u64,
    lines: LineBuf,
    outbox: Vec<u8>,
    sent: usize,
    slots: VecDeque<Slot>,
    next_seq: u64,
    /// Responses filled but not yet moved to the outbox + outbox residue.
    read_closed: bool,
    dead: bool,
    /// Absolute idle deadline (refreshed on any read/write progress).
    pub(crate) idle_deadline: Option<Instant>,
    /// Absolute connection-lifetime deadline (fixed at accept).
    pub(crate) life_deadline: Option<Instant>,
    idle_cap: Option<Duration>,
    /// Finished flight spans waiting for their write-complete edge (the
    /// next moment the outbox fully drains). Empty when recording is off.
    pending_spans: VecDeque<RequestSpan>,
}

impl<S: Read + Write> Conn<S> {
    /// Wraps an accepted stream. `now` is the accept timestamp; `idle` and
    /// `lifetime` of zero mean uncapped.
    pub(crate) fn new(
        stream: S,
        id: u64,
        max_line: usize,
        now: Instant,
        idle: Duration,
        lifetime: Duration,
    ) -> Conn<S> {
        let idle_cap = (idle > Duration::ZERO).then_some(idle);
        Conn {
            stream,
            id,
            lines: LineBuf::new(max_line),
            outbox: Vec::new(),
            sent: 0,
            slots: VecDeque::new(),
            next_seq: 0,
            read_closed: false,
            dead: false,
            idle_deadline: idle_cap.map(|d| now + d),
            life_deadline: (lifetime > Duration::ZERO).then_some(now + lifetime),
            idle_cap,
            pending_spans: VecDeque::new(),
        }
    }

    /// Queues a finished span until this connection's output next drains
    /// (its write-complete edge). Returns the evicted oldest span if the
    /// bounded queue was full — the caller records it immediately,
    /// unwritten.
    pub(crate) fn push_span(&mut self, span: RequestSpan) -> Option<RequestSpan> {
        let evicted = if self.pending_spans.len() >= MAX_PENDING_SPANS {
            self.pending_spans.pop_front()
        } else {
            None
        };
        self.pending_spans.push_back(span);
        evicted
    }

    /// Whether any spans await their write-complete edge.
    pub(crate) fn has_pending_spans(&self) -> bool {
        !self.pending_spans.is_empty()
    }

    /// Takes every span awaiting write-complete (oldest first).
    pub(crate) fn take_pending_spans(
        &mut self,
    ) -> std::collections::vec_deque::Drain<'_, RequestSpan> {
        self.pending_spans.drain(..)
    }

    /// Pulls whatever the socket has ready into the input buffer without
    /// blocking. Returns `true` when any bytes (or EOF) arrived.
    pub(crate) fn fill(&mut self, now: Instant) -> bool {
        let mut progressed = false;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.read_closed = true;
                    progressed = true;
                    break;
                }
                Ok(n) => {
                    self.lines.push(&chunk[..n]);
                    progressed = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if progressed {
            self.touch(now);
        }
        progressed
    }

    /// Pops the next complete request line out of the input buffer, or
    /// `None` when more bytes are needed. Oversized lines surface exactly
    /// once with the discarded byte count, then resync at the next newline.
    pub(crate) fn next_line(&mut self) -> Option<Line> {
        self.lines.take_line(self.read_closed)
    }

    /// Reserves the next in-order response slot for a queued job and
    /// returns its sequence number.
    pub(crate) fn reserve_slot(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.slots.push_back(Slot::Waiting(seq));
        seq
    }

    /// Queues an immediately-available response in request order.
    pub(crate) fn push_done(&mut self, line: String) {
        self.next_seq += 1;
        self.slots.push_back(Slot::Done(line));
    }

    /// Fills the waiting slot with sequence number `seq`. Returns `false`
    /// when no such slot exists (already filled, or never reserved).
    pub(crate) fn fill_slot(&mut self, seq: u64, line: String) -> bool {
        for slot in self.slots.iter_mut() {
            if matches!(slot, Slot::Waiting(s) if *s == seq) {
                *slot = Slot::Done(line);
                return true;
            }
        }
        false
    }

    /// True when nothing is queued or buffered for the peer.
    pub(crate) fn output_drained(&self) -> bool {
        self.slots.is_empty() && self.sent == self.outbox.len()
    }

    /// Moves leading `Done` slots into the outbox and writes as much as
    /// the socket accepts without blocking. Returns the number of
    /// responses that left the slot queue this call.
    pub(crate) fn flush(&mut self, now: Instant) -> usize {
        let mut released = 0;
        while let Some(Slot::Done(_)) = self.slots.front() {
            let Some(Slot::Done(line)) = self.slots.pop_front() else {
                break;
            };
            self.outbox.extend_from_slice(line.as_bytes());
            self.outbox.push(b'\n');
            released += 1;
        }
        if self.sent < self.outbox.len() && !self.dead {
            let mut progressed = false;
            loop {
                match self.stream.write(&self.outbox[self.sent..]) {
                    Ok(0) => {
                        self.dead = true;
                        break;
                    }
                    Ok(n) => {
                        self.sent += n;
                        progressed = true;
                        if self.sent == self.outbox.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.dead = true;
                        break;
                    }
                }
            }
            if progressed {
                self.touch(now);
            }
        }
        if self.sent == self.outbox.len() {
            self.outbox.clear();
            self.sent = 0;
        } else if self.sent > 64 * 1024 {
            self.outbox.drain(..self.sent);
            self.sent = 0;
        }
        released
    }

    /// Checks whether the connection should be dropped, after a flush.
    pub(crate) fn gone(&self, now: Instant) -> Option<Gone> {
        if self.dead {
            return Some(Gone::Dead);
        }
        if self.outbox.len() - self.sent > MAX_OUTBOX_BYTES {
            return Some(Gone::SlowConsumer);
        }
        if self.read_closed && self.output_drained() && self.lines.is_empty() {
            return Some(Gone::Finished);
        }
        // Idle/lifetime caps never cut off a connection with answers still
        // owed or queued — sweeps only reap quiescent connections.
        if self.output_drained() {
            if let Some(d) = self.life_deadline {
                if now >= d {
                    return Some(Gone::Finished);
                }
            }
            if let Some(d) = self.idle_deadline {
                if now >= d {
                    return Some(Gone::Finished);
                }
            }
        }
        None
    }

    fn touch(&mut self, now: Instant) {
        if let Some(cap) = self.idle_cap {
            self.idle_deadline = Some(now + cap);
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    /// Scripted stream: reads hand out queued chunks then WouldBlock (or
    /// EOF), writes accept up to `write_budget` bytes per call.
    struct Script {
        reads: VecDeque<Vec<u8>>,
        eof: bool,
        written: Vec<u8>,
        write_budget: usize,
    }

    impl Script {
        fn new() -> Script {
            Script {
                reads: VecDeque::new(),
                eof: false,
                written: Vec::new(),
                write_budget: usize::MAX,
            }
        }
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.reads.pop_front() {
                Some(chunk) => {
                    let n = chunk.len().min(buf.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        self.reads.push_front(chunk[n..].to_vec());
                    }
                    Ok(n)
                }
                None if self.eof => Ok(0),
                None => Err(io::ErrorKind::WouldBlock.into()),
            }
        }
    }

    impl Write for Script {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.write_budget == 0 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.write_budget);
            self.write_budget -= n;
            self.written.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn conn(s: Script) -> Conn<Script> {
        Conn::new(s, 0, 64, Instant::now(), Duration::ZERO, Duration::ZERO)
    }

    #[test]
    fn splits_lines_across_partial_reads() {
        let mut s = Script::new();
        s.reads.push_back(b"hel".to_vec());
        s.reads.push_back(b"lo\nwor".to_vec());
        let mut c = conn(s);
        let now = Instant::now();
        c.fill(now);
        assert_eq!(c.next_line(), Some(Line::Data("hello".into())));
        assert_eq!(c.next_line(), None, "second line incomplete");
        c.stream.reads.push_back(b"ld\n".to_vec());
        c.fill(now);
        assert_eq!(c.next_line(), Some(Line::Data("world".into())));
        assert_eq!(c.next_line(), None);
    }

    #[test]
    fn oversized_line_reported_once_then_resyncs() {
        let mut s = Script::new();
        let mut big = vec![b'x'; 200];
        big.push(b'\n');
        big.extend_from_slice(b"ok\n");
        s.reads.push_back(big);
        let mut c = conn(s);
        c.fill(Instant::now());
        assert!(matches!(c.next_line(), Some(Line::Oversized { .. })));
        assert_eq!(c.next_line(), Some(Line::Data("ok".into())));
        assert_eq!(c.next_line(), None);
    }

    #[test]
    fn unterminated_final_line_accepted_at_eof() {
        let mut s = Script::new();
        s.reads.push_back(b"tail".to_vec());
        s.eof = true;
        let mut c = conn(s);
        c.fill(Instant::now());
        assert!(c.read_closed);
        assert_eq!(c.next_line(), Some(Line::Data("tail".into())));
        assert_eq!(c.next_line(), None);
    }

    #[test]
    fn pipelined_responses_leave_in_request_order() {
        let mut c = conn(Script::new());
        let now = Instant::now();
        let s0 = c.reserve_slot();
        c.push_done("r1".into());
        let s2 = c.reserve_slot();
        // Out-of-order completions: seq 2 first, then seq 0.
        assert!(c.fill_slot(s2, "r2".into()));
        assert_eq!(c.flush(now), 0, "head still waiting — nothing leaves");
        assert!(c.fill_slot(s0, "r0".into()));
        assert_eq!(c.flush(now), 3);
        assert_eq!(c.stream.written, b"r0\nr1\nr2\n");
        assert!(c.output_drained());
        assert!(!c.fill_slot(s0, "again".into()), "slot already gone");
    }

    #[test]
    fn partial_writes_resume_where_they_stopped() {
        let mut s = Script::new();
        s.write_budget = 4;
        let mut c = conn(s);
        let now = Instant::now();
        c.push_done("abcdefgh".into());
        c.flush(now);
        assert_eq!(c.stream.written, b"abcd");
        assert!(!c.output_drained());
        c.stream.write_budget = usize::MAX;
        c.flush(now);
        assert_eq!(c.stream.written, b"abcdefgh\n");
        assert!(c.output_drained());
    }

    #[test]
    fn lifecycle_finished_dead_and_slow_consumer() {
        // Finished: EOF with everything delivered.
        let mut s = Script::new();
        s.eof = true;
        let mut c = conn(s);
        let now = Instant::now();
        c.fill(now);
        assert_eq!(c.gone(now), Some(Gone::Finished));
        // Not finished while a response is still owed.
        let mut s = Script::new();
        s.eof = true;
        let mut c = conn(s);
        c.fill(now);
        let seq = c.reserve_slot();
        assert_eq!(c.gone(now), None);
        c.fill_slot(seq, "r".into());
        c.flush(now);
        assert_eq!(c.gone(now), Some(Gone::Finished));
        // Slow consumer: outbox past the cap with writes blocked.
        let mut s = Script::new();
        s.write_budget = 0;
        let mut c = conn(s);
        c.push_done("x".repeat(MAX_OUTBOX_BYTES + 2));
        c.flush(now);
        assert_eq!(c.gone(now), Some(Gone::SlowConsumer));
    }

    #[test]
    fn idle_and_lifetime_deadlines_reap_quiescent_conns_only() {
        let t0 = Instant::now();
        let mut c = Conn::new(
            Script::new(),
            0,
            64,
            t0,
            Duration::from_millis(10),
            Duration::from_millis(50),
        );
        assert_eq!(c.gone(t0), None);
        let idle = t0 + Duration::from_millis(11);
        assert_eq!(c.gone(idle), Some(Gone::Finished), "idle cap hit");
        // Activity refreshes the idle deadline.
        c.stream.reads.push_back(b"ping\n".to_vec());
        c.fill(idle);
        assert_eq!(c.gone(idle), None);
        // A waiting slot shields the connection from both caps.
        let late = t0 + Duration::from_millis(60);
        let seq = c.reserve_slot();
        assert_eq!(c.gone(late), None, "answer still owed");
        c.fill_slot(seq, "r".into());
        c.flush(late);
        assert_eq!(c.gone(late), Some(Gone::Finished), "lifetime cap hit");
    }
}
