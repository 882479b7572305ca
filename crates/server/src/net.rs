//! TCP front end: newline-delimited JSON over a socket.
//!
//! # Thread model
//!
//! Each connection runs exactly two threads. The *reader* parses request
//! lines and hands them to the shared [`Server`]; the *writer* sends
//! everything queued on the connection's outbound queue. Subscriptions
//! add no thread: a wire subscriber is a sink the session's shard pushes
//! rendered `update` lines into directly, without ever blocking. (Only a
//! `trace` subscription keeps a forwarder thread.) The writer takes every
//! ready line at each wakeup and sends them with one `write_all`.
//!
//! # Pipelining and ordering
//!
//! Clients may pipeline: send many requests without waiting for replies.
//! For every request line the reader reserves the line's reply slot on
//! the outbound queue *before* the request reaches a shard, and the
//! writer only ever sends the filled prefix of the queue. So:
//!
//! * replies come back in request order, even across shards;
//! * a request's reply always precedes every update it caused (an
//!   `event`'s ack precedes the `changed` update it produced, a `close`
//!   reply precedes the final `closed` update).
//!
//! `event` and `batch` requests travel to their shard together with
//! their reserved slot (a [`ReplySlot`]), and the reader goes straight on
//! to the next line: it never waits on their answers. The shard renders
//! the ack and fills the slot itself, and wakes the writer once its
//! burst of commands is handled (see `Wakes`); updates it pushes while
//! pumping wake the writer at once. The outbound queue's capacity bounds
//! how many slots can be waiting. An `unknown session` answer is left in
//! the slot as a marker the writer resolves into a `moved` redirect, so
//! no shard thread ever consults the cluster layer. A slot dropped
//! unanswered (its shard died) fills itself with `shard is down`, and at
//! end of input the writer stops only once every reserved slot is
//! filled and sent.
//!
//! Every other verb runs to completion on the reader. Commands from the
//! reader reach a shard in the order it posted them, so events to one
//! session are applied in request order and a `query` reflects every
//! event sent before it on the same connection.
//!
//! # Overload hardening
//!
//! * Request lines are length-capped ([`NetConfig::max_line_bytes`],
//!   1 MiB by default). An oversized or non-UTF-8 line is discarded up
//!   to its terminating newline and answered with a typed
//!   `protocol_error`; the connection itself survives.
//! * The outbound queue is bounded ([`NetConfig::outbound_queue`]).
//!   Replies wait for room up to the write deadline; shard pushes never
//!   wait. If pushed updates hold the queue over capacity for longer than
//!   the deadline, the client is a slow consumer: its backlog is dropped,
//!   it gets a final `{"update":"closed","reason":"slow_consumer"}`
//!   best-effort notice, and it is disconnected — without stalling the
//!   shard or any other connection.
//!
//! Try it with `nc` (see the README quick-start):
//!
//! ```text
//! $ echo '{"cmd":"open","program":"counter"}' | nc localhost 7878
//! {"ok":true,"session":0,"program":"counter","inputs":["Mouse.clicks"],"initial":{"Int":0}}
//! ```

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use crate::protocol::{self, BatchOutcome, EnqueueOutcome, Request, Update};
use crate::registry::ProgramSpec;
use crate::server::{Server, SHARD_DOWN};
use crate::session::{SessionId, TracePop, UpdateSink};
use crate::shard::{Answer, Command};

/// Read buffer per connection: room for a few hundred pipelined event
/// lines per `read` call.
const READ_BUFFER: usize = 64 * 1024;

/// Write buffer the writer keeps between wakeups; a larger one (after a
/// big reply) is given back.
const WRITE_BUFFER: usize = 64 * 1024;

/// Tuning knobs for the TCP front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Longest accepted request line in bytes (excluding the newline).
    /// Longer lines are discarded and answered with `protocol_error`.
    pub max_line_bytes: usize,
    /// Outbound queue capacity in lines. A reply waits up to
    /// `write_deadline` for room; pushed updates never wait, but holding
    /// the queue over capacity for longer than `write_deadline` marks the
    /// client a slow consumer.
    pub outbound_queue: usize,
    /// How long a reply may wait on a full outbound queue, how long
    /// pushed updates may hold it over capacity, and how long a blocked
    /// socket write may take, before the connection is cut.
    pub write_deadline: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_line_bytes: 1024 * 1024,
            outbound_queue: 1024,
            write_deadline: Duration::from_secs(2),
        }
    }
}

/// Monotonic counters for the whole TCP front end (all connections).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetCounters {
    /// Request frames rejected for oversize or invalid UTF-8.
    pub frames_rejected: u64,
    /// Connections cut because they stopped draining their queue.
    pub slow_disconnects: u64,
}

static FRAMES_REJECTED: AtomicU64 = AtomicU64::new(0);
static SLOW_DISCONNECTS: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the front-end counters, for `/metrics`.
pub fn counters() -> NetCounters {
    NetCounters {
        frames_rejected: FRAMES_REJECTED.load(Ordering::Relaxed),
        slow_disconnects: SLOW_DISCONNECTS.load(Ordering::Relaxed),
    }
}

/// Accepts connections forever, one handler thread per client.
pub fn serve(server: Arc<Server>, listener: TcpListener) {
    serve_with(server, listener, NetConfig::default());
}

/// [`serve`] with explicit front-end tuning.
pub fn serve_with(server: Arc<Server>, listener: TcpListener, config: NetConfig) {
    for stream in listener.incoming() {
        match stream {
            Ok(stream) => {
                let server = Arc::clone(&server);
                thread::Builder::new()
                    .name("elm-conn-rd".to_string())
                    .spawn(move || handle_client_with(server, stream, config))
                    .expect("spawning a connection reader thread");
            }
            Err(_) => break,
        }
    }
}

// ---------------------------------------------------------------------------
// Outbound queue with reserved reply slots
// ---------------------------------------------------------------------------

/// Why [`OutboundQueue::reserve`] gave no slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Refused {
    /// Still at capacity at the deadline: the client is not draining its
    /// socket.
    TimedOut,
    /// The connection is closing.
    Closed,
}

/// One entry of the outbound queue.
enum Slot {
    /// Reserved for a reply still being answered; the writer never
    /// passes it.
    Reserved,
    /// A rendered line.
    Line(String),
    /// A shard answered `unknown session`. The writer renders it as a
    /// `moved` redirect when the cluster knows where the session lives,
    /// else as the plain error, so the shard never takes a cluster lock.
    Unknown {
        /// The session the request named.
        session: SessionId,
        /// The shard's error text.
        error: String,
    },
}

struct OutboundState {
    /// Entries in send order.
    slots: VecDeque<Slot>,
    /// Ticket of `slots[0]`; tickets number every slot ever queued.
    head: u64,
    /// No further lines are accepted; the writer sends what is filled
    /// (usually nothing, or one final notice) and shuts the socket down.
    closed: bool,
    /// Since when pushed updates have held the queue over capacity while
    /// a filled line waited for the client, and the session whose push
    /// first did.
    over: Option<(Instant, SessionId)>,
    /// A shard filled the front slot without waking the writer (see
    /// [`Wakes`]); the next update push, or the end of the shard's
    /// command burst, wakes it.
    owed: bool,
}

/// The line queue between a connection's producers (its reader, and the
/// shards pushing its subscriptions' updates) and its writer thread.
struct OutboundQueue {
    inner: Mutex<OutboundState>,
    /// Signalled when the writer takes lines (the reader waits here for
    /// room).
    space: Condvar,
    /// Signalled when the front slot fills or the queue closes (the
    /// writer waits here).
    ready: Condvar,
    cap: usize,
    deadline: Duration,
}

impl OutboundQueue {
    fn new(config: NetConfig) -> Arc<Self> {
        Arc::new(OutboundQueue {
            inner: Mutex::new(OutboundState {
                slots: VecDeque::new(),
                head: 0,
                closed: false,
                over: None,
                owed: false,
            }),
            space: Condvar::new(),
            ready: Condvar::new(),
            cap: config.outbound_queue.max(1),
            deadline: config.write_deadline,
        })
    }

    fn lock(&self) -> MutexGuard<'_, OutboundState> {
        self.inner
            .lock()
            .expect("no producer panics while holding the outbound queue")
    }

    /// Reserves the next slot for a reply and returns its ticket. At
    /// capacity it waits for room. While a filled line heads the queue
    /// the client is the one not reading, and that wait is bounded by
    /// the write deadline; a reserved front slot, or one whose writer is
    /// still owed its wake, is the server's own wait and does not count.
    fn reserve(&self) -> Result<u64, Refused> {
        let mut st = self.lock();
        let mut deadline = None;
        loop {
            if st.closed {
                return Err(Refused::Closed);
            }
            if st.slots.len() < self.cap {
                st.slots.push_back(Slot::Reserved);
                return Ok(st.head + st.slots.len() as u64 - 1);
            }
            if st.owed || matches!(st.slots.front(), Some(Slot::Reserved)) {
                deadline = None;
                st = self
                    .space
                    .wait(st)
                    .expect("no producer panics while holding the outbound queue");
                continue;
            }
            let now = Instant::now();
            let deadline = *deadline.get_or_insert(now + self.deadline);
            if now >= deadline {
                return Err(Refused::TimedOut);
            }
            st = self
                .space
                .wait_timeout(st, deadline - now)
                .expect("no producer panics while holding the outbound queue")
                .0;
        }
    }

    /// Fills a reserved slot, waking the writer when it is the front
    /// one. A no-op once a cut dropped the slot.
    fn fill(&self, ticket: u64, filled: Slot) {
        self.place(ticket, filled, true);
    }

    /// Fills a reserved slot without waking the writer. Returns whether
    /// it is the front slot, so the writer is owed a wake.
    fn fill_quietly(&self, ticket: u64, filled: Slot) -> bool {
        self.place(ticket, filled, false)
    }

    fn place(&self, ticket: u64, filled: Slot, wake: bool) -> bool {
        let mut st = self.lock();
        let Some(i) = ticket.checked_sub(st.head) else {
            return false;
        };
        let Some(slot) = st.slots.get_mut(i as usize) else {
            return false;
        };
        *slot = filled;
        if i != 0 {
            return false;
        }
        if wake {
            self.ready.notify_one();
        } else {
            st.owed = true;
        }
        true
    }

    /// Wakes the writer if a quiet fill still owes it a wake.
    fn pay_owed_wake(&self) {
        let mut st = self.lock();
        if st.owed {
            st.owed = false;
            self.ready.notify_one();
        }
    }

    /// Queues a pushed update line without ever blocking: the caller is a
    /// shard thread. Returns `false` once the connection is closing, and
    /// when this push cuts the connection because updates have held the
    /// queue over capacity, with the client not reading, for longer than
    /// the write deadline.
    fn push_update(&self, session: SessionId, line: String) -> bool {
        let mut st = self.lock();
        if st.closed {
            return false;
        }
        st.slots.push_back(Slot::Line(line));
        if st.slots.len() == 1 || st.owed {
            st.owed = false;
            self.ready.notify_one();
        }
        // Only a filled line at the front means the client is the one
        // not keeping up; a reserved front slot is the server's own wait.
        if st.slots.len() <= self.cap || matches!(st.slots.front(), Some(Slot::Reserved)) {
            st.over = None;
            return true;
        }
        let now = Instant::now();
        match st.over {
            None => st.over = Some((now, session)),
            Some((since, first)) if now.duration_since(since) >= self.deadline => {
                SLOW_DISCONNECTS.fetch_add(1, Ordering::Relaxed);
                self.abandon(&mut st, Some(slow_notice(first)));
                return false;
            }
            Some(_) => {}
        }
        true
    }

    /// Waits for filled entries at the front and moves all of them into
    /// `ready`. Returns `false` once the queue is closed and every slot
    /// reserved before the close has been filled and taken.
    fn take_ready(&self, ready: &mut Vec<Slot>) -> bool {
        let mut st = self.lock();
        loop {
            let filled = st
                .slots
                .iter()
                .take_while(|s| !matches!(s, Slot::Reserved))
                .count();
            if filled > 0 {
                ready.extend(st.slots.drain(..filled));
                st.head += filled as u64;
                st.owed = false;
                if st.slots.len() <= self.cap {
                    st.over = None;
                }
                self.space.notify_all();
                return true;
            }
            if st.closed && st.slots.is_empty() {
                return false;
            }
            st = self
                .ready
                .wait(st)
                .expect("no producer panics while holding the outbound queue");
        }
    }

    /// Normal shutdown: accept nothing more; the writer sends every slot
    /// already reserved once it is filled.
    fn close(&self) {
        let mut st = self.lock();
        st.closed = true;
        self.ready.notify_all();
        self.space.notify_all();
    }

    /// Slow-consumer cut: counted, the backlog dropped, and `notice`
    /// queued as the last line.
    fn cut_slow(&self, notice: String) {
        let mut st = self.lock();
        if !st.closed {
            SLOW_DISCONNECTS.fetch_add(1, Ordering::Relaxed);
            self.abandon(&mut st, Some(notice));
        }
    }

    /// The writer could not send (the socket write timed out or failed):
    /// close, counting a slow consumer when pushed updates were holding
    /// the queue over capacity.
    fn write_failed(&self) {
        let mut st = self.lock();
        if !st.closed && st.over.is_some() {
            SLOW_DISCONNECTS.fetch_add(1, Ordering::Relaxed);
        }
        self.abandon(&mut st, None);
    }

    /// Closes the queue, dropping every line the client will never read
    /// (pending tickets fall behind `head`, so their fills are no-ops),
    /// with `notice` as the one line left to send.
    fn abandon(&self, st: &mut OutboundState, notice: Option<String>) {
        st.head += st.slots.len() as u64;
        st.slots.clear();
        st.slots.extend(notice.map(Slot::Line));
        st.closed = true;
        self.ready.notify_all();
        self.space.notify_all();
    }

    fn is_closed(&self) -> bool {
        self.lock().closed
    }
}

fn slow_notice(session: SessionId) -> String {
    protocol::update_line(&Update::Closed {
        session,
        reason: "slow_consumer".to_string(),
    })
}

/// A wire subscription: the session's shard renders each update and
/// queues it on the connection itself.
struct WireSink(Arc<OutboundQueue>);

impl UpdateSink for WireSink {
    fn push(&self, update: &Update) -> bool {
        let (Update::Changed { session, .. }
        | Update::Closed { session, .. }
        | Update::Moved { session, .. }) = update;
        self.0.push_update(*session, protocol::update_line(update))
    }
}

/// A shard's answer as the reply line a wire client gets.
pub(crate) trait WireReply {
    /// The reply line for a successful answer.
    fn reply_line(&self) -> String;
}

impl WireReply for EnqueueOutcome {
    fn reply_line(&self) -> String {
        match *self {
            EnqueueOutcome::Shed { retry_after_ms } => protocol::overloaded_line(retry_after_ms),
            outcome => protocol::event_line(outcome),
        }
    }
}

impl WireReply for BatchOutcome {
    fn reply_line(&self) -> String {
        // Admission is all-or-nothing per batch: a shed batch had nothing
        // enqueued, so the whole reply is the typed overload signal with
        // its retry hint.
        if self.shed > 0 {
            protocol::overloaded_line(self.retry_after_ms)
        } else {
            protocol::batch_line(self)
        }
    }
}

/// A reply slot the reader reserved for an `event` or `batch`, handed to
/// the session's shard inside [`Answer::Slot`]: the shard renders its
/// answer and fills the slot. Dropped unanswered (the shard died with the
/// request still queued), it fills the slot with `shard is down`, so the
/// writer never waits on it forever.
pub struct ReplySlot {
    out: Option<Arc<OutboundQueue>>,
    ticket: u64,
    session: SessionId,
}

impl ReplySlot {
    /// Fills the slot with the rendered answer, leaving the writer's wake
    /// to `wakes`. An `unknown session` error stays a marker the writer
    /// resolves.
    pub(crate) fn answer<T: WireReply>(mut self, res: Result<T, String>, wakes: &mut Wakes) {
        let filled = match res {
            Ok(outcome) => Slot::Line(outcome.reply_line()),
            Err(error) if error.starts_with("unknown session") => Slot::Unknown {
                session: self.session,
                error,
            },
            Err(error) => Slot::Line(protocol::err_line(&error)),
        };
        if let Some(out) = self.out.take() {
            if out.fill_quietly(self.ticket, filled) {
                wakes.add(out);
            }
        }
    }
}

/// Writers a shard owes a wake: their front reply slot was filled during
/// the shard's current command burst. The shard wakes each once when the
/// burst's commands are handled, before it pumps, rather than once per
/// ack: on a busy host every wake can cost the shard a preemption. An
/// update pushed meanwhile (a `query` pumps inside the burst) pays the
/// wake at once, so updates keep streaming through every pump. Dropped,
/// it wakes what it holds.
#[derive(Default)]
pub(crate) struct Wakes(Vec<Arc<OutboundQueue>>);

impl Wakes {
    fn add(&mut self, out: Arc<OutboundQueue>) {
        if !self.0.iter().any(|o| Arc::ptr_eq(o, &out)) {
            self.0.push(out);
        }
    }

    /// Wakes every writer still owed a wake.
    pub(crate) fn wake_all(&mut self) {
        for out in self.0.drain(..) {
            out.pay_owed_wake();
        }
    }
}

impl Drop for Wakes {
    fn drop(&mut self) {
        self.wake_all();
    }
}

impl Drop for ReplySlot {
    fn drop(&mut self) {
        if let Some(out) = self.out.take() {
            out.fill(self.ticket, Slot::Line(protocol::err_line(SHARD_DOWN)));
        }
    }
}

// ---------------------------------------------------------------------------
// Capped frame reader
// ---------------------------------------------------------------------------

enum Frame {
    /// A complete line within the cap (newline stripped).
    Line(String),
    /// The line was discarded; `0` is a typed error detail.
    Rejected(String),
    /// Clean end of stream.
    Eof,
}

/// Reads one newline-terminated frame without ever buffering more than
/// `max` payload bytes: once a line exceeds the cap, the remainder is
/// consumed and thrown away up to the newline, so a 100 MiB line costs
/// streaming reads but no proportional memory.
fn read_frame(reader: &mut BufReader<TcpStream>, max: usize) -> io::Result<Frame> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let (newline_at, chunk_len, overflow) = {
            let chunk = reader.fill_buf()?;
            if chunk.is_empty() {
                // EOF. A partial unterminated line is treated as final.
                if buf.is_empty() {
                    return Ok(Frame::Eof);
                }
                break;
            }
            match chunk.iter().position(|&b| b == b'\n') {
                Some(pos) => (Some(pos), chunk.len(), buf.len() + pos > max),
                None => (None, chunk.len(), buf.len() + chunk.len() > max),
            }
        };
        match (newline_at, overflow) {
            (Some(pos), false) => {
                let chunk = reader.fill_buf()?;
                buf.extend_from_slice(&chunk[..pos]);
                reader.consume(pos + 1);
                break;
            }
            (Some(pos), true) => {
                let dropped = buf.len() + pos;
                reader.consume(pos + 1);
                return Ok(Frame::Rejected(format!(
                    "line of {dropped} bytes exceeds the {max} byte limit"
                )));
            }
            (None, false) => {
                let chunk = reader.fill_buf()?;
                buf.extend_from_slice(chunk);
                reader.consume(chunk_len);
            }
            (None, true) => {
                // Discard mode: swallow the rest of this line without
                // accumulating it, then reject.
                let mut dropped = buf.len() + chunk_len;
                buf.clear();
                reader.consume(chunk_len);
                loop {
                    let (pos, len) = {
                        let chunk = reader.fill_buf()?;
                        if chunk.is_empty() {
                            // EOF inside an oversized line.
                            return Ok(Frame::Eof);
                        }
                        (chunk.iter().position(|&b| b == b'\n'), chunk.len())
                    };
                    match pos {
                        Some(p) => {
                            dropped += p;
                            reader.consume(p + 1);
                            return Ok(Frame::Rejected(format!(
                                "line of {dropped} bytes exceeds the {max} byte limit"
                            )));
                        }
                        None => {
                            dropped += len;
                            reader.consume(len);
                        }
                    }
                }
            }
        }
    }
    match String::from_utf8(buf) {
        Ok(s) => Ok(Frame::Line(s)),
        Err(_) => Ok(Frame::Rejected("request line is not valid UTF-8".into())),
    }
}

// ---------------------------------------------------------------------------
// Connection handler
// ---------------------------------------------------------------------------

/// Runs one client connection to completion (EOF or socket error) with
/// default tuning.
pub fn handle_client(server: Arc<Server>, stream: TcpStream) {
    handle_client_with(server, stream, NetConfig::default());
}

/// [`handle_client`] with explicit front-end tuning.
pub fn handle_client_with(server: Arc<Server>, stream: TcpStream, config: NetConfig) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    // Request/reply ping-pong must not pay Nagle latency.
    let _ = stream.set_nodelay(true);
    // A blocked socket write is bounded by the same deadline as queue
    // waits, so a stuffed kernel buffer cannot wedge the writer thread.
    let _ = stream.set_write_timeout(Some(config.write_deadline.max(Duration::from_millis(1))));
    let out = OutboundQueue::new(config);

    let writer_out = Arc::clone(&out);
    let writer_server = Arc::clone(&server);
    let mut write_half = stream;
    let write_loop = move || {
        let mut ready = Vec::new();
        let mut buf = Vec::with_capacity(WRITE_BUFFER);
        while writer_out.take_ready(&mut ready) {
            for slot in ready.drain(..) {
                let line = match slot {
                    Slot::Line(line) => line,
                    Slot::Unknown { session, error } => {
                        err_or_moved(&writer_server, session, error)
                    }
                    Slot::Reserved => unreachable!("take_ready stops at a reserved slot"),
                };
                buf.extend_from_slice(line.as_bytes());
                buf.push(b'\n');
            }
            if write_half.write_all(&buf).is_err() {
                writer_out.write_failed();
                break;
            }
            buf.clear();
            buf.shrink_to(WRITE_BUFFER);
        }
        // Unblocks a reader parked in fill_buf and tells the peer the
        // stream is over even if it never reads another byte.
        let _ = write_half.shutdown(Shutdown::Both);
    };
    let writer = thread::Builder::new()
        .name("elm-conn-wr".to_string())
        .spawn(write_loop)
        .expect("spawning a connection writer thread");

    let mut conn = Conn {
        server,
        out: Arc::clone(&out),
    };
    let mut reader = BufReader::with_capacity(READ_BUFFER, read_half);
    while let Ok(frame) = read_frame(&mut reader, config.max_line_bytes) {
        let more = match frame {
            Frame::Eof => false,
            Frame::Rejected(detail) => {
                FRAMES_REJECTED.fetch_add(1, Ordering::Relaxed);
                conn.reply(protocol::protocol_error_line(&detail))
            }
            Frame::Line(line) => {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                // HTTP-ish escape hatch: a Prometheus scraper (or curl)
                // speaking plain HTTP gets one response and a closed
                // connection.
                if let Some(rest) = line.strip_prefix("GET ") {
                    conn.reply(http_response(&conn.server, rest));
                    false
                } else {
                    conn.serve(line)
                }
            }
        };
        if !more {
            break;
        }
    }
    out.close();
    let _ = writer.join();
}

/// The reader side of one connection.
struct Conn {
    server: Arc<Server>,
    out: Arc<OutboundQueue>,
}

impl Conn {
    /// Reserves the next reply slot, waiting up to the write deadline for
    /// room. `None` ends the connection.
    fn reserve(&mut self) -> Option<u64> {
        match self.out.reserve() {
            Ok(ticket) => Some(ticket),
            Err(Refused::TimedOut) => {
                // The client keeps sending requests but never reads the
                // replies: same pathology as a slow subscriber.
                self.out.cut_slow(protocol::err_line("slow_consumer"));
                None
            }
            Err(Refused::Closed) => None,
        }
    }

    /// Reserves the next reply slot as a [`ReplySlot`] for `session`'s
    /// shard to fill.
    fn reply_slot(&mut self, session: SessionId) -> Option<ReplySlot> {
        let ticket = self.reserve()?;
        Some(ReplySlot {
            out: Some(Arc::clone(&self.out)),
            ticket,
            session,
        })
    }

    /// Queues a reply that needs no shard. Returns `false` once the
    /// connection should end.
    fn reply(&mut self, line: String) -> bool {
        let Some(ticket) = self.reserve() else {
            return false;
        };
        self.out.fill(ticket, Slot::Line(line));
        true
    }

    /// Serves one request line. Returns `false` once the connection
    /// should end.
    fn serve(&mut self, line: &str) -> bool {
        let request = match Request::parse(line) {
            Ok(r) => r,
            Err(e) => return self.reply(protocol::err_line(&e)),
        };
        match request {
            Request::Event {
                session,
                input,
                value,
                trace,
            } => {
                let Some(slot) = self.reply_slot(session) else {
                    return false;
                };
                self.server.post(
                    session,
                    Command::Event {
                        session,
                        input,
                        value: value.to_value(),
                        trace,
                        answer: Answer::Slot(slot),
                    },
                );
            }
            Request::Batch { session, events } => {
                let Some(slot) = self.reply_slot(session) else {
                    return false;
                };
                let events = events.into_iter().map(|(i, v)| (i, v.to_value())).collect();
                self.server.post(
                    session,
                    Command::Batch {
                        session,
                        events,
                        answer: Answer::Slot(slot),
                    },
                );
            }
            // Streamed cluster verbs are silent even outside cluster mode:
            // they are fire-and-forget, so a reply would desynchronize the
            // sender's framing. They get no slot.
            Request::JournalAppend {
                from,
                session,
                entry,
                epoch,
            } => {
                if let Some(cluster) = self.server.cluster() {
                    cluster.handle_journal_append(from, session, entry, epoch);
                }
            }
            Request::SnapshotShip {
                from,
                session,
                meta,
                snapshot,
                through,
                dropped,
                trace,
                epoch,
            } => {
                if let Some(cluster) = self.server.cluster() {
                    cluster.handle_snapshot_ship(
                        from, session, meta, snapshot, through, dropped, trace, epoch,
                    );
                }
            }
            Request::Heartbeat { from } => {
                if let Some(cluster) = self.server.cluster() {
                    cluster.handle_heartbeat(from);
                }
            }
            request => {
                let Some(ticket) = self.reserve() else {
                    return false;
                };
                let reply = dispatch(&self.server, request, &self.out);
                self.out.fill(ticket, Slot::Line(reply));
            }
        }
        true
    }
}

/// Builds a minimal HTTP/1.0 response for `GET <path> ...` request lines.
/// Only `/metrics` (this peer) and `/metrics?federate=1` (the whole
/// cluster, `peer`-labelled) exist. The writer thread appends one `\n` to
/// every outbound line, so the advertised `Content-Length` counts it.
fn http_response(server: &Arc<Server>, request_rest: &str) -> String {
    let path = request_rest.split_whitespace().next().unwrap_or("");
    let (status, content_type, body) = if path == "/metrics" {
        (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            server.metrics_text(),
        )
    } else if path == "/metrics?federate=1" {
        (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            server.federated_metrics_text(),
        )
    } else {
        (
            "404 Not Found",
            "text/plain; charset=utf-8",
            format!("no such path {path}\n"),
        )
    };
    format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len() + 1,
    )
}

/// Runs one request that is neither pipelined nor silent, to completion.
fn dispatch(server: &Arc<Server>, request: Request, out: &Arc<OutboundQueue>) -> String {
    match request {
        Request::Open {
            program,
            source,
            queue,
            policy,
            observe,
            session,
        } => {
            let spec = match (&program, &source) {
                (Some(p), None) => ProgramSpec::Builtin(p),
                (None, Some(s)) => ProgramSpec::Source(s),
                _ => {
                    return protocol::err_line(
                        "open needs exactly one of \"program\" or \"source\"",
                    )
                }
            };
            let opened = match session {
                // Cluster-keyed open: placement chose the id.
                Some(key) => server.open_with_key(key, spec, queue, policy, observe),
                None => server.open(spec, queue, policy, observe),
            };
            match opened {
                Ok(info) => protocol::opened_line(&info),
                Err(e) => protocol::err_line(&e),
            }
        }
        Request::Query { session } => match server.query(session) {
            Ok(info) => protocol::query_line(&info),
            Err(e) => err_or_moved(server, session, e),
        },
        // The shard pushes this session's updates straight onto the
        // connection's queue, behind this request's reserved reply slot,
        // until the session closes (a `closed` or `moved` update is the
        // stream's final message) or the connection goes away.
        Request::Subscribe { session } => {
            match server.subscribe_sink(session, Box::new(WireSink(Arc::clone(out)))) {
                Ok(()) => protocol::subscribed_line(session),
                Err(e) => err_or_moved(server, session, e),
            }
        }
        Request::Stats { session } => match session {
            Some(id) => match server.session_stats(id) {
                Ok(stats) => protocol::session_stats_line(&stats),
                Err(e) => protocol::err_line(&e),
            },
            None => {
                let (global, sessions) = server.stats();
                protocol::stats_line(&global, &sessions)
            }
        },
        Request::Metrics { cluster } => {
            if cluster {
                protocol::metrics_line(&server.federated_metrics_text())
            } else {
                protocol::metrics_line(&server.metrics_text())
            }
        }
        Request::Blackbox => {
            let bb = crate::blackbox::blackbox();
            protocol::blackbox_line(&crate::blackbox::Blackbox::render_ndjson(&bb.snapshot()))
        }
        Request::Trace { session } => match server.trace_subscribe(session) {
            Ok(mailbox) => {
                // Forward rendered trace lines until the session closes
                // the mailbox or the client goes away. Waits are bounded
                // so a dead connection is noticed within a second.
                let out = Arc::clone(out);
                thread::spawn(move || loop {
                    match mailbox.recv_timeout(Duration::from_secs(1)) {
                        TracePop::Line(line) => {
                            if !out.push_update(session, line) {
                                mailbox.close();
                                break;
                            }
                        }
                        TracePop::Empty => {
                            // Keepalive probe; also notices a closed
                            // connection so the mailbox gets released.
                            if out.is_closed() {
                                mailbox.close();
                                break;
                            }
                        }
                        TracePop::Closed => break,
                    }
                });
                protocol::trace_subscribed_line(session)
            }
            Err(e) => protocol::err_line(&e),
        },
        Request::Describe { session } => match server.describe(session) {
            Ok(info) => protocol::describe_line(&info),
            Err(e) => err_or_moved(server, session, e),
        },
        Request::Close { session } => match server.close(session) {
            Ok(()) => protocol::closed_line(session),
            Err(e) => err_or_moved(server, session, e),
        },
        // --- cluster peer verbs -------------------------------------
        Request::Hello { from, addr } => match server.cluster() {
            Some(cluster) => cluster.handle_hello(from, &addr),
            None => protocol::err_line("not in cluster mode"),
        },
        Request::Place { key } => match server.cluster() {
            Some(cluster) => cluster.handle_place(key),
            None => protocol::err_line("not in cluster mode"),
        },
        Request::Takeover {
            from,
            addr,
            sessions,
            traces,
            epochs,
        } => match server.cluster() {
            Some(cluster) => cluster.handle_takeover(from, &addr, &sessions, &traces, &epochs),
            None => protocol::err_line("not in cluster mode"),
        },
        Request::Event { .. }
        | Request::Batch { .. }
        | Request::JournalAppend { .. }
        | Request::SnapshotShip { .. }
        | Request::Heartbeat { .. } => unreachable!("served by Conn::serve"),
    }
}

/// An `unknown session` error becomes a typed `moved` redirect when the
/// cluster knows (or can compute) where the session lives now.
fn err_or_moved(server: &Arc<Server>, session: u64, e: String) -> String {
    if e.starts_with("unknown session") {
        if let Some((peer, trace, epoch)) = server.cluster().and_then(|c| c.redirect_for(session)) {
            return protocol::moved_line(session, &peer, trace, epoch);
        }
    }
    protocol::err_line(&e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, ServerConfig};
    use std::io::Read;

    fn start(config: NetConfig) -> (Arc<Server>, std::net::SocketAddr) {
        let server = Arc::new(Server::start(ServerConfig {
            shards: 1,
            ..ServerConfig::default()
        }));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let srv = Arc::clone(&server);
        thread::spawn(move || serve_with(srv, listener, config));
        (server, addr)
    }

    fn read_line(reader: &mut BufReader<TcpStream>) -> String {
        let mut line = String::new();
        loop {
            line.clear();
            reader.read_line(&mut line).unwrap();
            if line.trim().is_empty() && !line.is_empty() {
                continue; // trace keepalive blank line
            }
            return line.trim().to_string();
        }
    }

    #[test]
    fn a_reply_slot_dropped_unanswered_fills_with_shard_is_down() {
        let out = OutboundQueue::new(NetConfig::default());
        let slot = |out: &Arc<OutboundQueue>| ReplySlot {
            out: Some(Arc::clone(out)),
            ticket: out.reserve().unwrap(),
            session: 7,
        };
        // A shard that is already gone: the command, and the slot inside
        // its answer sink, is dropped on the failed send.
        let (tx, rx) = crossbeam::channel::unbounded();
        drop(rx);
        let dead = tx.send(Command::Event {
            session: 7,
            input: "Mouse.clicks".to_string(),
            value: elm_runtime::Value::Unit,
            trace: 0,
            answer: Answer::Slot(slot(&out)),
        });
        assert!(dead.is_err());
        drop(dead);
        // A slot answered normally behind it, and one a dying shard
        // drops after the connection's input ended.
        let mut wakes = Wakes::default();
        slot(&out).answer(Ok(EnqueueOutcome::Accepted), &mut wakes);
        wakes.wake_all();
        let last = slot(&out);
        out.close();
        drop(last);

        // The writer gets all three in order, then stops instead of
        // waiting on a slot nobody will fill.
        let (done_tx, done_rx) = crossbeam::channel::bounded(1);
        let writer_out = Arc::clone(&out);
        thread::spawn(move || {
            let mut ready = Vec::new();
            let mut lines = Vec::new();
            while writer_out.take_ready(&mut ready) {
                lines.extend(ready.drain(..).map(|slot| match slot {
                    Slot::Line(line) => line,
                    _ => panic!("expected rendered lines"),
                }));
            }
            let _ = done_tx.send(lines);
        });
        let lines = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the writer wedged on an unfilled slot");
        let down = protocol::err_line(SHARD_DOWN);
        assert_eq!(
            lines,
            vec![
                down.clone(),
                protocol::event_line(EnqueueOutcome::Accepted),
                down
            ]
        );
    }

    #[test]
    fn a_quiet_ack_goes_out_with_the_next_update_or_at_the_end_of_the_burst() {
        // A writer thread reporting how many lines it has taken.
        let out = OutboundQueue::new(NetConfig::default());
        let (tx, rx) = crossbeam::channel::unbounded();
        let writer_out = Arc::clone(&out);
        thread::spawn(move || {
            let mut ready = Vec::new();
            while writer_out.take_ready(&mut ready) {
                for _ in ready.drain(..) {
                    let _ = tx.send(());
                }
            }
        });
        let quiet_ack = |wakes: &mut Wakes| {
            let slot = ReplySlot {
                out: Some(Arc::clone(&out)),
                ticket: out.reserve().unwrap(),
                session: 1,
            };
            slot.answer(Ok(EnqueueOutcome::Accepted), wakes);
        };
        let expect_lines = |n: usize| {
            for _ in 0..n {
                rx.recv_timeout(Duration::from_secs(10))
                    .expect("the writer was never woken");
            }
        };
        // Let the writer park, so only a wake can move the lines.
        let park = || thread::sleep(Duration::from_millis(50));

        // An ack filled inside a command burst goes out with the next
        // update pushed, before the burst ends...
        let mut wakes = Wakes::default();
        park();
        quiet_ack(&mut wakes);
        assert!(out.push_update(1, "update".to_string()));
        expect_lines(2);
        wakes.wake_all();

        // ...or, with no update, when the burst ends.
        park();
        quiet_ack(&mut wakes);
        wakes.wake_all();
        expect_lines(1);
        out.close();
    }

    #[test]
    fn a_stalled_shard_is_not_mistaken_for_a_slow_consumer() {
        // Every command burst stalls the shard far past the write
        // deadline, so the reader finds the queue full of slots the shard
        // has not answered yet. That wait is the server's own: the client
        // is reading, and must get every reply rather than a cut.
        let mut session = crate::session::SessionConfig::default();
        session.faults.stall = 1.0;
        session.faults.stall_ms = 60;
        let server = Arc::new(Server::start(ServerConfig {
            shards: 1,
            session,
            ..ServerConfig::default()
        }));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let config = NetConfig {
            outbound_queue: 4,
            write_deadline: Duration::from_millis(20),
            ..NetConfig::default()
        };
        let srv = Arc::clone(&server);
        thread::spawn(move || serve_with(srv, listener, config));
        let sid = server
            .open(ProgramSpec::Builtin("counter"), None, None, false)
            .unwrap()
            .session;

        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let event = format!(
            "{{\"cmd\":\"event\",\"session\":{sid},\"input\":\"Mouse.clicks\",\"value\":\"Unit\"}}\n"
        );
        writer.write_all(event.repeat(12).as_bytes()).unwrap();
        for i in 0..12 {
            let reply = read_line(&mut reader);
            assert!(reply.contains("\"accepted\""), "reply {i}: {reply}");
        }
    }

    #[test]
    fn oversized_line_is_rejected_but_the_connection_survives() {
        let before = counters().frames_rejected;
        let (_server, addr) = start(NetConfig {
            max_line_bytes: 64 * 1024,
            ..NetConfig::default()
        });
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);

        // A 100 MiB line, streamed in 1 MiB chunks so the test itself
        // stays cheap; the server must discard it without buffering.
        let chunk = vec![b'a'; 1024 * 1024];
        for _ in 0..100 {
            writer.write_all(&chunk).unwrap();
        }
        writer.write_all(b"\n").unwrap();
        let reply = read_line(&mut reader);
        assert!(
            reply.contains("\"error\":\"protocol_error\""),
            "expected typed protocol_error, got: {reply}"
        );
        assert!(reply.contains("exceeds the 65536 byte limit"), "{reply}");

        // The same connection still serves requests afterwards.
        writer
            .write_all(b"{\"cmd\":\"open\",\"program\":\"counter\"}\n")
            .unwrap();
        let reply = read_line(&mut reader);
        assert!(reply.contains("\"ok\":true"), "{reply}");
        assert!(counters().frames_rejected > before);
    }

    #[test]
    fn describe_round_trips_source_and_fingerprint() {
        let (server, addr) = start(NetConfig::default());
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);

        // Ad-hoc source: describe must echo it back verbatim.
        let src = "main = foldp (\\\\e n -> n + 1) 0 Mouse.clicks";
        writer
            .write_all(format!("{{\"cmd\":\"open\",\"source\":\"{src}\"}}\n").as_bytes())
            .unwrap();
        let opened = read_line(&mut reader);
        assert!(opened.contains("\"ok\":true"), "{opened}");
        let parsed: serde_json::Value = serde_json::from_str(&opened).unwrap();
        let sid = match parsed.get("session") {
            Some(serde_json::Value::I64(n)) => *n as u64,
            other => panic!("bad session field: {other:?}"),
        };

        writer
            .write_all(format!("{{\"cmd\":\"describe\",\"session\":{sid}}}\n").as_bytes())
            .unwrap();
        let described = read_line(&mut reader);
        assert!(described.contains("\"ok\":true"), "{described}");
        let parsed: serde_json::Value = serde_json::from_str(&described).unwrap();
        assert_eq!(
            parsed.get("source").and_then(serde_json::Value::as_str),
            Some("main = foldp (\\e n -> n + 1) 0 Mouse.clicks")
        );
        assert_eq!(
            parsed.get("program").and_then(serde_json::Value::as_str),
            Some("<source>")
        );
        let fingerprint = parsed.get("fingerprint").cloned();
        assert!(
            matches!(
                fingerprint,
                Some(serde_json::Value::I64(_) | serde_json::Value::U64(_))
            ),
            "{described}"
        );
        // The in-process API agrees with the wire reply.
        let info = server.describe(sid).unwrap();
        assert_eq!(info.inputs, vec!["Mouse.clicks".to_string()]);

        // A native-graph builtin has no source, served as null.
        let native = server
            .open(ProgramSpec::Builtin("crashy"), None, None, false)
            .unwrap();
        let desc = server.describe(native.session).unwrap();
        assert_eq!(desc.source, None);
        writer
            .write_all(
                format!("{{\"cmd\":\"describe\",\"session\":{}}}\n", native.session).as_bytes(),
            )
            .unwrap();
        let described = read_line(&mut reader);
        assert!(described.contains("\"source\":null"), "{described}");

        // Unknown sessions get a plain error.
        writer
            .write_all(b"{\"cmd\":\"describe\",\"session\":999}\n")
            .unwrap();
        assert!(read_line(&mut reader).contains("\"ok\":false"));
    }

    #[test]
    fn invalid_utf8_line_is_rejected_with_a_typed_error() {
        let (_server, addr) = start(NetConfig::default());
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writer.write_all(b"\xff\xfe{\"cmd\":\"stats\"}\n").unwrap();
        let reply = read_line(&mut reader);
        assert!(
            reply.contains("\"error\":\"protocol_error\"") && reply.contains("UTF-8"),
            "{reply}"
        );
        writer.write_all(b"{\"cmd\":\"stats\"}\n").unwrap();
        let reply = read_line(&mut reader);
        assert!(reply.contains("\"ok\":true"), "{reply}");
    }

    #[test]
    fn slow_subscriber_is_cut_without_stalling_its_peers() {
        let before = counters().slow_disconnects;
        let (server, addr) = start(NetConfig {
            outbound_queue: 8,
            write_deadline: Duration::from_millis(100),
            ..NetConfig::default()
        });

        // Open a session whose output echoes big strings so each push
        // is fat enough to fill kernel socket buffers quickly.
        let info = server
            .open(ProgramSpec::Builtin("latest-word"), None, None, false)
            .unwrap();
        let sid = info.session;

        // The slow client subscribes and then never reads again.
        let slow = TcpStream::connect(addr).unwrap();
        let mut slow_writer = slow.try_clone().unwrap();
        let mut slow_reader = BufReader::new(slow);
        slow_writer
            .write_all(format!("{{\"cmd\":\"subscribe\",\"session\":{sid}}}\n").as_bytes())
            .unwrap();
        assert!(read_line(&mut slow_reader).contains("\"ok\":true"));

        // The healthy client subscribes too and keeps draining.
        let healthy = TcpStream::connect(addr).unwrap();
        let mut healthy_writer = healthy.try_clone().unwrap();
        let mut healthy_reader = BufReader::new(healthy);
        healthy_writer
            .write_all(format!("{{\"cmd\":\"subscribe\",\"session\":{sid}}}\n").as_bytes())
            .unwrap();
        assert!(read_line(&mut healthy_reader).contains("\"ok\":true"));

        let healthy_updates = Arc::new(AtomicU64::new(0));
        let drained = Arc::clone(&healthy_updates);
        thread::spawn(move || {
            let mut line = String::new();
            loop {
                line.clear();
                match healthy_reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {
                        if line.contains("\"update\":\"changed\"") {
                            drained.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
        });

        // Pump fat updates until the slow connection is cut.
        let word = "w".repeat(64 * 1024);
        let start_time = Instant::now();
        while counters().slow_disconnects == before {
            assert!(
                start_time.elapsed() < Duration::from_secs(30),
                "slow subscriber was never disconnected"
            );
            let _ = server.event(
                sid,
                "Words.input",
                elm_runtime::PlainValue::Str(word.clone()),
            );
            let _ = server.query(sid);
        }

        // The slow socket is actually torn down: reads drain whatever
        // was in flight and then hit EOF (or a reset).
        let mut sink = [0u8; 64 * 1024];
        let inner = slow_reader.get_mut();
        inner
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        loop {
            match inner.read(&mut sink) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) => {
                    assert!(
                        matches!(
                            e.kind(),
                            io::ErrorKind::ConnectionReset | io::ErrorKind::BrokenPipe
                        ),
                        "unexpected read error on cut socket: {e:?}"
                    );
                    break;
                }
            }
        }

        // Peers kept receiving throughout.
        let seen = healthy_updates.load(Ordering::Relaxed);
        let _ = server.event(
            sid,
            "Words.input",
            elm_runtime::PlainValue::Str("tail".to_string()),
        );
        let _ = server.query(sid);
        let start_time = Instant::now();
        while healthy_updates.load(Ordering::Relaxed) <= seen {
            assert!(
                start_time.elapsed() < Duration::from_secs(10),
                "healthy subscriber stalled after the slow one was cut"
            );
            thread::sleep(Duration::from_millis(10));
        }
        assert!(counters().slow_disconnects > before);
        // The cut is visible to operators in the server's own scrape.
        let disconnects: f64 = server
            .metrics_text()
            .lines()
            .filter_map(|l| l.strip_prefix("elm_subscriber_disconnects_total"))
            .filter_map(|rest| rest.rsplit_once(' '))
            .filter_map(|(_, v)| v.parse::<f64>().ok())
            .sum();
        assert!(
            disconnects >= 1.0,
            "scrape reports no subscriber disconnects"
        );
    }
}
