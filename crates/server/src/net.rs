//! TCP front end: newline-delimited JSON over a socket.
//!
//! # Thread model
//!
//! No thread belongs to a connection. The *acceptor* (the thread that
//! calls [`serve`]) gives each accepted connection a home shard,
//! round-robin, and hands it over. From then on the home shard's loop
//! (see [`crate::shard`]) polls the socket, reads and parses the request
//! lines, applies each request for one of its own sessions itself, and
//! writes the replies. An unkeyed `open` takes the next free session id
//! congruent to the home shard, so the sessions a client opens live on
//! the thread that serves it: each of their requests is read, applied
//! and answered there, with one `read` and one `write`. A request for
//! another shard's session (a keyed open placed elsewhere, or a session
//! another connection opened) travels to that shard with its reserved
//! reply slot, and that shard answers it. Subscriptions add no thread: a
//! wire subscriber is a sink the session's shard writes rendered
//! `update` lines through. The server's thread count is thus its shards,
//! the acceptor and, in cluster mode, one link per peer and the monitor,
//! however many clients connect. Only a `trace` subscription keeps a
//! forwarder thread, and a request that may take long gets a short-lived
//! one (below).
//!
//! Every other verb (server-wide `stats`, `metrics`, HTTP `GET`,
//! `blackbox`, `trace` and the cluster verbs `hello`, `place` and
//! `takeover`) may wait on every shard, so the acceptor runs it; the home
//! shard reads nothing more from that connection until it is answered.
//! Two requests would stall the acceptor itself, so it runs each on a
//! short-lived thread: a federated scrape (`metrics` with
//! `"scope":"cluster"`, `GET /metrics?federate=1`) waits on every peer,
//! which may be scraping this one at the same time, and an `open` of a
//! client's source compiles it, which no shard does either. The streamed
//! peer verbs (`journal-append`, `snapshot-ship`, `heartbeat`) run on the
//! home shard and take the cluster's ownership lock briefly: no code
//! holds that lock while it waits on a shard, so this cannot deadlock.
//!
//! # Pipelining and ordering
//!
//! Clients may pipeline: send many requests without waiting for replies.
//! For every request line the home shard reserves the line's reply slot
//! on the connection's outbound queue *before* the request is applied
//! anywhere, and only the filled prefix of the queue is ever written.
//! So:
//!
//! * replies come back in request order, even across shards;
//! * a request's reply always precedes every update it caused (an
//!   `event`'s ack precedes the `changed` update it produced, a `close`
//!   reply precedes the final `closed` update).
//!
//! Requests from one connection for one session all take the same path
//! (applied inline, or posted to the same shard in order), so events to a
//! session are applied in request order and a `query` reflects every
//! event sent before it on the same connection.
//!
//! # Writes
//!
//! The outbound queue owns the nonblocking socket, and whoever fills its
//! front slot writes, under the queue's lock. A shard writes the replies
//! it filled during a burst once, when the burst is handled (see
//! [`Flushes`]); an `event` or `batch` ack whose events are queued waits
//! for the pump that applies them and leaves with the first update that
//! pump writes to the connection. Update pushes are written at once. A
//! write the socket refuses (`EAGAIN`) parks the unsent lines, and the
//! home shard polls the socket for `POLLOUT` until they are written. A
//! slot whose answerer died fills itself with `shard is down`, and at end
//! of input the connection closes only once every reserved slot is filled
//! and sent.
//!
//! # Overload hardening
//!
//! * Request lines are length-capped ([`NetConfig::max_line_bytes`],
//!   1 MiB by default). An oversized or non-UTF-8 line is discarded up
//!   to its terminating newline and answered with a typed
//!   `protocol_error`; the connection itself survives.
//! * The outbound queue is bounded ([`NetConfig::outbound_queue`]). At
//!   capacity the home shard stops reading the connection, so TCP holds
//!   the client back; shard pushes never wait. A client whose socket
//!   refuses bytes for longer than the write deadline, or whose pushed
//!   updates hold the queue over capacity that long, is a slow consumer:
//!   its backlog is dropped, it gets a best-effort final notice
//!   (`{"update":"closed","reason":"slow_consumer"}`, or a
//!   `slow_consumer` error when its requests were waiting), and it is
//!   disconnected — without stalling the shard or any other connection.
//!   The home shard's loop timer enforces the deadline.
//!
//! Try it with `nc` (see the README quick-start):
//!
//! ```text
//! $ echo '{"cmd":"open","program":"counter"}' | nc localhost 7878
//! {"ok":true,"session":0,"program":"counter","inputs":["Mouse.clicks"],"initial":{"Int":0}}
//! ```

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::ops::Range;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Sender};

use crate::protocol::{self, Request, Update};
use crate::registry::ProgramSpec;
use crate::server::{Server, SHARD_DOWN};
use crate::session::{SessionId, TracePop, UpdateSink};
use crate::shard::{Command, Shard, MAX_BURST};
use crate::sys::{self, Doorbell, PollFd, POLLIN, POLLOUT};

/// Read buffer per connection: room for a few hundred pipelined event
/// lines per `read` call. It grows only to hold one longer line.
const READ_BUFFER: usize = 64 * 1024;

/// Write buffer a connection keeps between writes; a larger one (after a
/// big reply) is given back.
const WRITE_BUFFER: usize = 64 * 1024;

/// How long the acceptor pauses when the process is out of file
/// descriptors before it accepts again.
const FD_BACKOFF: Duration = Duration::from_millis(50);

/// Tuning knobs for the TCP front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Longest accepted request line in bytes (excluding the newline).
    /// Longer lines are discarded and answered with `protocol_error`.
    pub max_line_bytes: usize,
    /// Outbound queue capacity in lines. At capacity the connection's
    /// requests are not read; pushed updates never wait, but holding the
    /// queue over capacity for longer than `write_deadline` marks the
    /// client a slow consumer.
    pub outbound_queue: usize,
    /// How long the socket may refuse bytes, and how long pushed updates
    /// may hold the queue over capacity, before the connection is cut.
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

// ---------------------------------------------------------------------------
// The acceptor
// ---------------------------------------------------------------------------

/// Accepts connections, handing each to a home shard, and runs the
/// requests that wait on every shard or on a peer. Returns only once the
/// listener itself fails.
pub fn serve(server: Arc<Server>, listener: TcpListener) {
    serve_with(server, listener, NetConfig::default());
}

/// [`serve`] with explicit front-end tuning.
pub fn serve_with(server: Arc<Server>, listener: TcpListener, config: NetConfig) {
    if let Err(e) = listener.set_nonblocking(true) {
        eprintln!("elm-server: cannot serve the listener: {e}");
        return;
    }
    let (tx, jobs) = channel::unbounded();
    let acceptor = Arc::new(Acceptor {
        jobs: tx,
        bell: Doorbell::new(),
    });
    let mut next_home = 0;
    loop {
        acceptor.bell.park();
        let mut fds = [
            PollFd::new(listener.as_raw_fd(), POLLIN),
            PollFd::new(acceptor.bell.fd(), POLLIN),
        ];
        let wait = if jobs.is_empty() {
            Duration::MAX
        } else {
            Duration::ZERO
        };
        let _ = sys::wait(&mut fds, wait);
        acceptor.bell.unpark(fds[1].revents != 0);
        for (job, slot) in jobs.try_iter() {
            if job.slow() {
                let server = Arc::clone(&server);
                thread::spawn(move || run_job(&server, job, slot));
            } else {
                run_job(&server, job, slot);
            }
        }
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    connect(&server, stream, next_home, config, &acceptor);
                    next_home = (next_home + 1) % server.shard_count();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => match accept_error(&e) {
                    AcceptError::Retry => {}
                    AcceptError::Backoff => {
                        thread::sleep(FD_BACKOFF);
                        break;
                    }
                    AcceptError::Stop => {
                        eprintln!("elm-server: the listener failed: {e}");
                        return;
                    }
                },
            }
        }
    }
}

/// What the acceptor does after `accept` fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AcceptError {
    /// One pending connection failed (it reset before `accept`), or the
    /// call was interrupted: accept the next.
    Retry,
    /// The process or the system is out of file descriptors or socket
    /// memory for now: pause briefly, then accept again.
    Backoff,
    /// The listener itself is unusable: stop serving.
    Stop,
}

/// Classifies a failed `accept` by its (Linux) error number.
fn accept_error(e: &io::Error) -> AcceptError {
    match e.raw_os_error() {
        // ENOMEM, ENFILE, EMFILE, ENOBUFS
        Some(12 | 23 | 24 | 105) => AcceptError::Backoff,
        // EBADF, EFAULT, EINVAL (not listening), ENOTSOCK, EOPNOTSUPP
        Some(9 | 14 | 22 | 88 | 95) => AcceptError::Stop,
        // ECONNABORTED, EINTR, EPROTO, EPERM, and the pending
        // connection's network errors, which Linux passes on
        _ => AcceptError::Retry,
    }
}

/// Sets an accepted socket up and hands it to its home shard.
fn connect(
    server: &Arc<Server>,
    stream: TcpStream,
    home: usize,
    config: NetConfig,
    acceptor: &Arc<Acceptor>,
) {
    // Request/reply ping-pong must not pay Nagle latency.
    let _ = stream.set_nodelay(true);
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let conn = Connection {
        out: Arc::new(OutboundQueue::new(stream, server, home, config)),
        acceptor: Arc::clone(acceptor),
        buf: vec![0; READ_BUFFER],
        start: 0,
        end: 0,
        scanned: 0,
        dropped: None,
        max_line: config.max_line_bytes,
        eof: false,
        awaiting: None,
        stalled: false,
    };
    server.send_to_shard(home, Command::Connect(Box::new(conn)));
}

/// A request the acceptor runs for a connection's home shard. An `open`
/// of a client's source names the id it takes as its key.
enum Job {
    Request(Request),
    /// A plain-HTTP `GET` line, after the `GET `.
    Http(String),
}

impl Job {
    /// Whether the job may take long: it compiles a client's source, or
    /// it is a federated scrape, which waits on every peer.
    fn slow(&self) -> bool {
        match self {
            Job::Request(request) => matches!(
                request,
                Request::Open { .. } | Request::Metrics { cluster: true }
            ),
            Job::Http(rest) => rest.split_whitespace().next() == Some("/metrics?federate=1"),
        }
    }
}

/// The acceptor's queue of [`Job`]s.
struct Acceptor {
    jobs: Sender<(Job, ReplySlot)>,
    bell: Doorbell,
}

impl Acceptor {
    /// Queues a job and wakes the acceptor. Once the acceptor has stopped,
    /// the job is dropped, and its slot answers `shard is down`.
    fn submit(&self, job: Job, slot: ReplySlot) {
        if self.jobs.send((job, slot)).is_ok() {
            self.bell.ring();
        }
    }
}

/// Runs one acceptor job to completion and fills its reply slot.
fn run_job(server: &Arc<Server>, job: Job, slot: ReplySlot) {
    let request = match job {
        Job::Http(rest) => return slot.fill(http_response(server, &rest)),
        Job::Request(request) => request,
    };
    let line = match request {
        Request::Stats { .. } => {
            let (global, sessions) = server.stats();
            protocol::stats_line(&global, &sessions)
        }
        Request::Metrics { cluster: true } => {
            protocol::metrics_line(&server.federated_metrics_text())
        }
        Request::Metrics { cluster: false } => protocol::metrics_line(&server.metrics_text()),
        Request::Open {
            session: Some(id),
            source: Some(source),
            queue,
            policy,
            observe,
            ..
        } => server
            .open_with_key(id, ProgramSpec::Source(&source), queue, policy, observe)
            .map_or_else(
                |e| protocol::err_line(&e),
                |info| protocol::opened_line(&info),
            ),
        Request::Blackbox => {
            let bb = crate::blackbox::blackbox();
            protocol::blackbox_line(&crate::blackbox::Blackbox::render_ndjson(&bb.snapshot()))
        }
        Request::Trace { session } => match server.trace_subscribe(session) {
            Ok(mailbox) => {
                // Forward rendered trace lines until the session closes
                // the mailbox or the client goes away. Waits are bounded
                // so a dead connection is noticed within a second.
                let out = Arc::clone(slot.queue());
                thread::spawn(move || loop {
                    match mailbox.recv_timeout(Duration::from_secs(1)) {
                        TracePop::Line(line) => {
                            if !out.push_update(session, line) {
                                mailbox.close();
                                break;
                            }
                        }
                        // Keepalive probe; also notices a closed
                        // connection so the mailbox gets released.
                        TracePop::Empty => {
                            if out.lock().closed {
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
        // `hello`, `place`, `takeover`: the takeover's close of a moved
        // session waits on its shard.
        request => server
            .cluster()
            .and_then(|c| c.handle_request(request))
            .unwrap_or_else(|| protocol::err_line("not in cluster mode")),
    };
    slot.fill(line);
}

/// Builds a minimal HTTP/1.0 response for `GET <path> ...` request lines.
/// Only `/metrics` (this peer) and `/metrics?federate=1` (the whole
/// cluster, `peer`-labelled) exist. Every outbound line is sent with one
/// `\n` appended, so the advertised `Content-Length` counts it.
fn http_response(server: &Arc<Server>, request_rest: &str) -> String {
    let path = request_rest.split_whitespace().next().unwrap_or("");
    let prometheus = "text/plain; version=0.0.4; charset=utf-8";
    let (status, content_type, body) = match path {
        "/metrics" => ("200 OK", prometheus, server.metrics_text()),
        "/metrics?federate=1" => ("200 OK", prometheus, server.federated_metrics_text()),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            format!("no such path {path}\n"),
        ),
    };
    format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len() + 1,
    )
}

// ---------------------------------------------------------------------------
// Outbound queue with reserved reply slots
// ---------------------------------------------------------------------------

#[derive(Default)]
struct OutboundState {
    /// Entries in send order. `None` is a slot reserved for a reply still
    /// being answered, which no write passes.
    slots: VecDeque<Option<String>>,
    /// Ticket of `slots[0]`; tickets number every slot ever queued.
    head: u64,
    /// Rendered bytes the socket has not taken yet. While any wait, the
    /// filled lines behind them stay in `slots`.
    unsent: Vec<u8>,
    /// Since when the socket has refused bytes without taking any.
    blocked_since: Option<Instant>,
    /// No further lines are accepted; the queue sends what is reserved
    /// once it is filled (usually nothing, or one final notice) and shuts
    /// the socket down.
    closed: bool,
    /// The nonblocking socket, until it is shut down. It is closed then,
    /// though subscriptions may keep the queue for as long as their
    /// sessions live.
    stream: Option<TcpStream>,
    /// Since when pushed updates have held the queue over capacity while
    /// a filled line waited for the client, and the session whose push
    /// first did.
    over: Option<(Instant, SessionId)>,
    /// The home shard is parked until another thread changes this queue.
    home_waits: bool,
}

impl OutboundState {
    /// Whether the slot with `ticket` is filled (or already sent).
    fn filled(&self, ticket: u64) -> bool {
        ticket
            .checked_sub(self.head)
            .and_then(|i| self.slots.get(i as usize))
            .is_none_or(Option::is_some)
    }
}

/// The line queue between a connection's producers (its home shard, the
/// shards answering its requests and pushing its subscriptions' updates,
/// the acceptor) and its socket, which it owns.
pub(crate) struct OutboundQueue {
    inner: Mutex<OutboundState>,
    /// The home shard's doorbell.
    home: Arc<Doorbell>,
    server: Arc<Server>,
    cap: usize,
    deadline: Duration,
}

impl OutboundQueue {
    fn new(stream: TcpStream, server: &Arc<Server>, home: usize, config: NetConfig) -> Self {
        OutboundQueue {
            inner: Mutex::new(OutboundState {
                stream: Some(stream),
                ..OutboundState::default()
            }),
            home: Arc::clone(server.shard_bell(home)),
            server: Arc::clone(server),
            cap: config.outbound_queue.max(1),
            deadline: config.write_deadline,
        }
    }

    fn lock(&self) -> MutexGuard<'_, OutboundState> {
        self.inner
            .lock()
            .expect("no producer panics while holding the outbound queue")
    }

    /// Rings the home shard if it is parked waiting on this queue.
    fn poke(&self, st: &mut OutboundState) {
        if st.home_waits {
            st.home_waits = false;
            self.home.ring();
        }
    }

    /// Reserves the next slot for a reply and returns its ticket; `None`
    /// once the connection is closing. Never waits: the home shard stops
    /// reading before the queue is full.
    fn reserve(&self) -> Option<u64> {
        let mut st = self.lock();
        if st.closed {
            return None;
        }
        st.slots.push_back(None);
        Some(st.head + st.slots.len() as u64 - 1)
    }

    /// Fills a reserved slot without writing. Returns whether it is the
    /// front slot, so a write is owed. A no-op once a cut dropped the
    /// slot.
    fn place(&self, ticket: u64, line: String) -> bool {
        let mut st = self.lock();
        let Some(i) = ticket.checked_sub(st.head) else {
            return false;
        };
        let Some(slot) = st.slots.get_mut(i as usize) else {
            return false;
        };
        *slot = Some(line);
        self.poke(&mut st);
        i == 0
    }

    /// Fills a reserved slot and writes at once.
    fn fill(&self, ticket: u64, line: String) {
        if self.place(ticket, line) {
            self.write();
        }
    }

    /// Writes the filled prefix.
    fn write(&self) {
        let mut st = self.lock();
        self.send_ready(&mut st);
    }

    /// Moves the filled prefix into the socket until none is left or the
    /// socket refuses bytes. Shuts the socket down once a closed queue
    /// has sent everything.
    fn send_ready(&self, st: &mut OutboundState) {
        if st.stream.is_none() {
            return;
        }
        loop {
            if st.unsent.is_empty() {
                let filled = st.slots.iter().take_while(|s| s.is_some()).count();
                if filled == 0 {
                    break;
                }
                for line in st.slots.drain(..filled).flatten() {
                    st.unsent.extend_from_slice(line.as_bytes());
                    st.unsent.push(b'\n');
                }
                st.head += filled as u64;
                if st.slots.len() <= self.cap {
                    st.over = None;
                }
                self.poke(st);
            }
            let Some(stream) = &st.stream else { return };
            match (&*stream).write(&st.unsent) {
                Ok(n) if n > 0 => {
                    st.unsent.drain(..n);
                    st.blocked_since = None;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if st.blocked_since.is_none() {
                        st.blocked_since = Some(Instant::now());
                        // The home shard polls for POLLOUT from now on.
                        self.home.ring();
                    }
                    return;
                }
                _ => {
                    // The client is gone (or the write failed): close,
                    // counting a slow consumer when pushed updates were
                    // holding the queue over capacity.
                    if st.over.is_some() {
                        SLOW_DISCONNECTS.fetch_add(1, Ordering::Relaxed);
                    }
                    self.abandon(st, None);
                    return;
                }
            }
        }
        st.unsent.shrink_to(WRITE_BUFFER);
        if st.closed && st.slots.is_empty() {
            self.finish(st);
        }
    }

    /// Queues a pushed update line and writes it without ever blocking:
    /// the caller is a shard thread. Returns `false` once the connection
    /// is closing. Notes when updates start to hold the queue over
    /// capacity, for the loop timer's deadline check.
    fn push_update(&self, session: SessionId, line: String) -> bool {
        let mut st = self.lock();
        if st.closed {
            return false;
        }
        st.slots.push_back(Some(line));
        self.send_ready(&mut st);
        // Only a filled line at the front means the client is the one
        // not keeping up; a reserved front slot is the server's own wait.
        if st.slots.len() <= self.cap || matches!(st.slots.front(), Some(None)) {
            st.over = None;
        } else if st.over.is_none() {
            st.over = Some((Instant::now(), session));
        }
        !st.closed
    }

    /// Normal shutdown: accept nothing more; every slot already reserved
    /// is sent once it is filled, then the socket is shut down.
    fn close(&self) {
        let mut st = self.lock();
        st.closed = true;
        self.send_ready(&mut st);
    }

    /// The loop timer's write-deadline check. A client whose socket has
    /// refused bytes, or whose pushed updates have held the queue over
    /// capacity, for the whole deadline is a slow consumer. It is cut with
    /// the subscriber's `slow_consumer` notice when pushed updates hold
    /// the queue over capacity, with a `slow_consumer` error when its own
    /// requests wait for room (both counted), else silently. Returns
    /// whether the socket is shut down.
    fn check_deadline(&self, now: Instant) -> bool {
        let mut st = self.lock();
        let late =
            |since: Option<Instant>| since.is_some_and(|t| now.duration_since(t) >= self.deadline);
        if st.stream.is_some() && (late(st.blocked_since) || late(st.over.map(|(t, _)| t))) {
            let notice = match st.over {
                Some((_, session)) => Some(slow_notice(session)),
                None => (st.slots.len() >= self.cap).then(|| protocol::err_line("slow_consumer")),
            };
            if notice.is_some() {
                SLOW_DISCONNECTS.fetch_add(1, Ordering::Relaxed);
            }
            self.abandon(&mut st, notice);
        }
        st.stream.is_none()
    }

    /// Closes the queue, dropping every line the client will never read
    /// (pending tickets fall behind `head`, so their fills are no-ops),
    /// makes one attempt to send `notice`, and shuts the socket down.
    fn abandon(&self, st: &mut OutboundState, notice: Option<String>) {
        st.head += st.slots.len() as u64;
        st.slots.clear();
        st.closed = true;
        if let (Some(notice), Some(stream)) = (notice, &st.stream) {
            st.unsent.extend_from_slice(notice.as_bytes());
            st.unsent.push(b'\n');
            let _ = (&*stream).write(&st.unsent);
        }
        self.finish(st);
    }

    fn finish(&self, st: &mut OutboundState) {
        if let Some(stream) = st.stream.take() {
            // Tells the peer the stream is over even if it never reads
            // another byte, and wakes a poll on the socket; the drop
            // closes it.
            let _ = stream.shutdown(Shutdown::Both);
        }
        st.closed = true;
        st.unsent = Vec::new();
        self.poke(st);
    }
}

fn slow_notice(session: SessionId) -> String {
    protocol::update_line(&Update::Closed {
        session,
        reason: "slow_consumer".to_string(),
    })
}

/// A wire subscription: the session's shard renders each update and
/// writes it through the connection's queue itself.
struct WireSink(Arc<OutboundQueue>);

impl UpdateSink for WireSink {
    fn push(&self, update: &Update) -> bool {
        let (Update::Changed { session, .. }
        | Update::Closed { session, .. }
        | Update::Moved { session, .. }) = update;
        self.0.push_update(*session, protocol::update_line(update))
    }
}

/// A reply slot reserved for one request, handed to whoever answers it:
/// that thread renders its answer and fills the slot. Dropped unanswered
/// (its shard died with the request still queued), it fills the slot
/// with `shard is down`, so the connection never waits on it forever.
pub struct ReplySlot {
    out: Option<Arc<OutboundQueue>>,
    ticket: u64,
    session: SessionId,
}

impl ReplySlot {
    /// Reserves the next slot on `out` for a request about `session`;
    /// `None` once the connection is closing.
    fn reserve(out: &Arc<OutboundQueue>, session: SessionId) -> Option<ReplySlot> {
        Some(ReplySlot {
            ticket: out.reserve()?,
            out: Some(Arc::clone(out)),
            session,
        })
    }

    fn queue(&self) -> &Arc<OutboundQueue> {
        self.out
            .as_ref()
            .expect("an unanswered slot keeps its queue")
    }

    /// The server the slot's connection talks to.
    pub(crate) fn server(&self) -> &Server {
        &self.queue().server
    }

    /// A subscription sink that writes through the slot's connection.
    pub(crate) fn sink(&self) -> Box<dyn UpdateSink> {
        Box::new(WireSink(Arc::clone(self.queue())))
    }

    /// Fills the slot with a reply line, or with the error line, leaving
    /// the write to `flushes` at `when`. An `unknown session` error
    /// becomes a `moved` redirect when the cluster knows where the
    /// session lives.
    pub(crate) fn answer(
        mut self,
        res: Result<String, String>,
        flushes: &mut Flushes,
        when: Flush,
    ) {
        let Some(out) = self.out.take() else {
            return;
        };
        let line = res.unwrap_or_else(|e| err_or_moved(&out.server, self.session, e));
        if out.place(self.ticket, line) {
            flushes.add(out, when);
        }
    }

    /// Fills the slot with `line` and writes at once.
    fn fill(mut self, line: String) {
        if let Some(out) = self.out.take() {
            out.fill(self.ticket, line);
        }
    }
}

impl Drop for ReplySlot {
    fn drop(&mut self) {
        if let Some(out) = self.out.take() {
            out.fill(self.ticket, protocol::err_line(SHARD_DOWN));
        }
    }
}

/// When a shard writes a reply slot it filled during a burst.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Flush {
    /// Once the burst is handled, before the pump.
    Burst,
    /// With the first update the pump writes to the connection, else
    /// after the pump: the request queued events for that pump.
    Pump,
}

/// Connections a shard owes a write: their front reply slot was filled
/// during the shard's current burst. The shard writes each once per loop
/// turn rather than once per reply: most when the burst is handled,
/// before it pumps; a connection whose only owed replies are acks of
/// events the pump is about to apply, after the pump, so an ack and the
/// update it caused usually leave in one write. An update pushed
/// meanwhile writes the filled prefix with it, so updates keep streaming
/// through every pump.
#[derive(Default)]
pub(crate) struct Flushes {
    burst: Vec<Arc<OutboundQueue>>,
    pump: Vec<Arc<OutboundQueue>>,
}

impl Flushes {
    fn add(&mut self, out: Arc<OutboundQueue>, when: Flush) {
        let list = match when {
            Flush::Burst => &mut self.burst,
            Flush::Pump => &mut self.pump,
        };
        if !list.iter().any(|o| Arc::ptr_eq(o, &out)) {
            list.push(out);
        }
    }

    /// Writes the connections owed a write when the burst is handled.
    pub(crate) fn flush_burst(&mut self) {
        for out in self.burst.drain(..) {
            out.write();
        }
    }

    /// Writes every connection still owed a write.
    pub(crate) fn flush_all(&mut self) {
        self.flush_burst();
        for out in self.pump.drain(..) {
            out.write();
        }
    }
}

/// An `unknown session` error becomes a typed `moved` redirect when the
/// cluster knows (or can compute) where the session lives now.
fn err_or_moved(server: &Server, session: SessionId, e: String) -> String {
    if e.starts_with("unknown session") {
        if let Some((peer, trace, epoch)) = server.cluster().and_then(|c| c.redirect_for(session)) {
            return protocol::moved_line(session, &peer, trace, epoch);
        }
    }
    protocol::err_line(&e)
}

// ---------------------------------------------------------------------------
// The home shard's side of a connection
// ---------------------------------------------------------------------------

/// One request frame, cut from the read buffer.
enum Frame {
    /// A complete line within the cap (newline stripped), as a range of
    /// the read buffer.
    Line(Range<usize>),
    /// The line was discarded; `0` is a typed error detail.
    Rejected(String),
    /// Clean end of stream.
    Eof,
}

/// A client connection, owned by its home shard's loop: the read side
/// lives here, the write side in its [`OutboundQueue`].
pub struct Connection {
    out: Arc<OutboundQueue>,
    acceptor: Arc<Acceptor>,
    /// Received bytes; `start..end` is not consumed yet.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// How far past `start` holds no newline.
    scanned: usize,
    /// Bytes of an oversized line discarded so far.
    dropped: Option<usize>,
    max_line: usize,
    /// No more input will be read (end of stream, a read error, or a
    /// plain-HTTP request).
    eof: bool,
    /// The slot of a request handed to the acceptor; no further request
    /// is read until it is filled.
    awaiting: Option<u64>,
    /// The last [`Connection::serve`] stopped with whole lines still
    /// buffered.
    stalled: bool,
}

impl Connection {
    /// What to poll this connection's socket for, and whether it has
    /// buffered requests it can serve right away (so the loop must not
    /// wait). Also tells the queue when the loop will wait for another
    /// thread to change it (room, the awaited reply, the last slot before
    /// closing).
    pub(crate) fn interest(&mut self) -> (Option<PollFd>, bool) {
        let mut st = self.out.lock();
        let Some(fd) = st.stream.as_ref().map(AsRawFd::as_raw_fd) else {
            return (None, true);
        };
        let awaiting = self.awaiting.is_some_and(|t| !st.filled(t));
        let room = st.slots.len() < self.out.cap;
        let serving = !awaiting && room;
        let mut events = 0;
        // Whole lines still buffered are served before more is read, so
        // the buffer never grows past one line.
        if serving && !self.eof && !self.stalled {
            events |= POLLIN;
        }
        if !st.unsent.is_empty() {
            events |= POLLOUT;
        }
        st.home_waits = !room || awaiting || st.closed;
        let poll = (events != 0).then(|| PollFd::new(fd, events));
        (poll, serving && self.stalled)
    }

    /// Handles readiness: writes parked lines, reads once.
    pub(crate) fn on_ready(&mut self, revents: i16) {
        if revents & POLLOUT != 0 {
            self.out.write();
        }
        if revents & !POLLOUT != 0 && !self.stalled && !self.eof {
            self.read_input();
        }
    }

    fn read_input(&mut self) {
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
            if self.buf.len() > READ_BUFFER {
                self.buf = vec![0; READ_BUFFER];
            }
        } else if self.end == self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, self.end - self.start);
            if self.end == self.buf.len() {
                // One line longer than the buffer: grow to hold it (a
                // line past the cap is discarded, which empties it).
                self.buf.resize(self.buf.len() * 2, 0);
            }
        }
        let read = match &self.out.lock().stream {
            Some(stream) => (&*stream).read(&mut self.buf[self.end..]),
            // Cut from another thread: nothing more comes in.
            None => Ok(0),
        };
        match read {
            Ok(0) => self.eof = true,
            Ok(n) => self.end += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) => {}
            Err(_) => self.eof = true,
        }
    }

    /// Cuts the next frame from the read buffer, never holding more than
    /// the cap of one line: once a line exceeds it, the rest is thrown
    /// away up to the newline, so a 100 MiB line costs reads but no
    /// proportional memory. `None` until more input arrives.
    fn next_frame(&mut self) -> Option<Frame> {
        let max = self.max_line;
        let data = &self.buf[self.start..self.end];
        let newline = data[self.scanned..].iter().position(|&b| b == b'\n');
        let too_long = |n: usize| format!("line of {n} bytes exceeds the {max} byte limit");
        match newline.map(|p| p + self.scanned) {
            Some(p) => {
                let line = self.start..self.start + p;
                (self.start, self.scanned) = (self.start + p + 1, 0);
                Some(match self.dropped.take() {
                    Some(dropped) => Frame::Rejected(too_long(dropped + p)),
                    None if p > max => Frame::Rejected(too_long(p)),
                    None => Frame::Line(line),
                })
            }
            None if self.dropped.is_some() || data.len() > max => {
                // Discard mode: swallow the line without keeping it.
                *self.dropped.get_or_insert(0) += data.len();
                (self.start, self.scanned) = (self.end, 0);
                // End of stream inside an oversized line gets no reply.
                self.eof.then_some(Frame::Eof)
            }
            None if self.eof => {
                // End of stream: a partial unterminated line is final.
                let line = self.start..self.end;
                (self.start, self.scanned) = (self.end, 0);
                Some(if line.is_empty() {
                    Frame::Eof
                } else {
                    Frame::Line(line)
                })
            }
            None => {
                self.scanned = data.len();
                None
            }
        }
    }

    /// Serves up to [`MAX_BURST`] buffered requests on the home shard.
    /// Returns whether it handled any.
    pub(crate) fn serve(&mut self, shard: &mut Shard) -> bool {
        if let Some(ticket) = self.awaiting {
            if !self.out.lock().filled(ticket) {
                return false;
            }
            self.awaiting = None;
        }
        let mut worked = false;
        self.stalled = true;
        for _ in 0..MAX_BURST {
            let (closed, full) = {
                let st = self.out.lock();
                (st.closed, st.slots.len() >= self.out.cap)
            };
            if closed {
                // Input ended, or the connection was cut: nothing more
                // is served.
                self.stalled = false;
                return worked;
            }
            if full {
                return worked;
            }
            let Some(frame) = self.next_frame() else {
                self.stalled = false;
                return worked;
            };
            worked = true;
            let range = match frame {
                Frame::Eof => {
                    self.eof = true;
                    self.out.close();
                    continue;
                }
                Frame::Rejected(detail) => {
                    self.reject(&detail, shard);
                    continue;
                }
                Frame::Line(range) => range,
            };
            let Ok(line) = std::str::from_utf8(&self.buf[range]) else {
                self.reject("request line is not valid UTF-8", shard);
                continue;
            };
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            // HTTP-ish escape hatch: a Prometheus scraper (or curl)
            // speaking plain HTTP gets one response and a closed
            // connection.
            if let Some(rest) = line.strip_prefix("GET ") {
                self.hand_off(Job::Http(rest.to_string()));
                self.eof = true;
                self.out.close();
                continue;
            }
            self.awaiting = self.serve_line(line, shard);
            if self.awaiting.is_some() {
                return worked;
            }
        }
        worked
    }

    /// Hands a job to the acceptor and returns its reply slot's ticket.
    fn hand_off(&self, job: Job) -> Option<u64> {
        let slot = ReplySlot::reserve(&self.out, 0)?;
        let ticket = slot.ticket;
        self.acceptor.submit(job, slot);
        Some(ticket)
    }

    /// Counts a rejected frame and answers it with a `protocol_error`.
    fn reject(&self, detail: &str, shard: &mut Shard) {
        FRAMES_REJECTED.fetch_add(1, Ordering::Relaxed);
        self.reply(protocol::protocol_error_line(detail), shard);
    }

    /// Queues a reply that needs no shard, written once the burst is
    /// handled.
    fn reply(&self, line: String, shard: &mut Shard) {
        if let Some(slot) = ReplySlot::reserve(&self.out, 0) {
            slot.answer(Ok(line), &mut shard.flushes, Flush::Burst);
        }
    }

    /// Serves one request line on the connection's home shard. Returns
    /// the ticket of a request handed to the acceptor, which the
    /// connection waits for before it reads on.
    fn serve_line(&self, line: &str, shard: &mut Shard) -> Option<u64> {
        let mut request = match Request::parse(line) {
            Ok(r) => r,
            Err(e) => {
                self.reply(protocol::err_line(&e), shard);
                return None;
            }
        };
        let server = &*self.out.server;
        let session = match &request {
            Request::Event { session, .. }
            | Request::Batch { session, .. }
            | Request::Query { session }
            | Request::Subscribe { session }
            | Request::Describe { session }
            | Request::Close { session }
            | Request::Stats {
                session: Some(session),
            } => *session,
            // A keyed open keeps its key: cluster placement chose it. Any
            // other takes the next free id on this shard, the
            // connection's home, so the session lives where it is served.
            Request::Open {
                session: Some(key), ..
            } => server.reserve_key(*key),
            Request::Open { session: None, .. } => server.next_session_id_on(shard.index()),
            // Streamed cluster verbs are silent even outside cluster mode:
            // they are fire-and-forget, so a reply would desynchronize the
            // sender's framing. They get no slot.
            Request::JournalAppend { .. }
            | Request::SnapshotShip { .. }
            | Request::Heartbeat { .. } => {
                server.cluster().and_then(|c| c.handle_request(request));
                return None;
            }
            // Everything else may wait on every shard or on a peer.
            _ => return self.hand_off(Job::Request(request)),
        };
        if let Request::Open {
            session: key,
            program: None,
            source: Some(_),
            ..
        } = &mut request
        {
            *key = Some(session);
            return self.hand_off(Job::Request(request));
        }
        let slot = ReplySlot::reserve(&self.out, session)?;
        if server.shard_of(session) == shard.index() {
            shard.serve_wire(session, request, slot);
        } else {
            let cmd = Command::Wire {
                session,
                request,
                slot,
            };
            server.post(session, cmd);
        }
        None
    }

    /// Whether the loop keeps this connection: `false` once its socket is
    /// shut down. Enforces the write deadline first.
    pub(crate) fn keep(&mut self, now: Instant) -> bool {
        !self.out.check_deadline(now)
    }

    /// Closes the connection where it stands (its shard is stopping).
    pub(crate) fn shut_down(&self) {
        let mut st = self.out.lock();
        self.out.abandon(&mut st, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::EnqueueOutcome;
    use crate::registry::ProgramSpec;
    use crate::server::{Server, ServerConfig};
    use std::io::{BufRead, BufReader};

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

    /// An outbound queue over one end of a loopback socket, and the other
    /// end, as a client reads it.
    fn queue_over_socket(config: NetConfig) -> (Arc<OutboundQueue>, BufReader<TcpStream>) {
        let server = Arc::new(Server::start(ServerConfig {
            shards: 1,
            ..ServerConfig::default()
        }));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let out = Arc::new(OutboundQueue::new(stream, &server, 0, config));
        (out, BufReader::new(client))
    }

    #[test]
    fn accept_errors_are_classified_by_what_they_say_about_the_listener() {
        let kind = |errno| accept_error(&io::Error::from_raw_os_error(errno));
        // ECONNABORTED (a client reset before accept), EINTR, EPROTO,
        // EPERM: only that one connection, or that one call, failed.
        for errno in [103, 4, 71, 1] {
            assert_eq!(kind(errno), AcceptError::Retry, "errno {errno}");
        }
        // EMFILE, ENFILE, ENOBUFS, ENOMEM: out of fds or socket memory
        // for now.
        for errno in [24, 23, 105, 12] {
            assert_eq!(kind(errno), AcceptError::Backoff, "errno {errno}");
        }
        // EBADF, EINVAL, ENOTSOCK: the listener itself is unusable.
        for errno in [9, 22, 88] {
            assert_eq!(kind(errno), AcceptError::Stop, "errno {errno}");
        }
    }

    #[test]
    fn a_reply_slot_dropped_unanswered_fills_with_shard_is_down() {
        let (out, mut client) = queue_over_socket(NetConfig::default());
        // A shard that is already gone: the command, and the slot inside
        // it, is dropped on the failed send.
        let (tx, rx) = crossbeam::channel::unbounded();
        drop(rx);
        let dead = tx.send(Command::Wire {
            session: 7,
            request: Request::Query { session: 7 },
            slot: ReplySlot::reserve(&out, 7).unwrap(),
        });
        assert!(dead.is_err());
        drop(dead);
        // A slot answered normally behind it, and one a dying shard
        // drops after the connection's input ended.
        let mut flushes = Flushes::default();
        let accepted = protocol::event_line(EnqueueOutcome::Accepted);
        let answered = ReplySlot::reserve(&out, 7).unwrap();
        answered.answer(Ok(accepted.clone()), &mut flushes, Flush::Burst);
        flushes.flush_all();
        let last = ReplySlot::reserve(&out, 7).unwrap();
        out.close();
        drop(last);

        // The client gets all three in order, then the end of the stream
        // instead of a wait on a slot nobody will fill.
        let down = protocol::err_line(SHARD_DOWN);
        let lines: Vec<String> = client.by_ref().lines().map(Result::unwrap).collect();
        assert_eq!(lines, vec![down.clone(), accepted, down]);
    }

    #[test]
    fn an_ack_waiting_for_the_pump_leaves_with_the_next_update_or_after_the_pump() {
        let (out, mut client) = queue_over_socket(NetConfig::default());
        let accepted = protocol::event_line(EnqueueOutcome::Accepted);
        let mut flushes = Flushes::default();
        let ack = |flushes: &mut Flushes| {
            let slot = ReplySlot::reserve(&out, 1).unwrap();
            slot.answer(Ok(accepted.clone()), flushes, Flush::Pump);
        };
        let unsent = |client: &mut BufReader<TcpStream>| {
            client.get_ref().set_nonblocking(true).unwrap();
            let quiet = client
                .fill_buf()
                .is_err_and(|e| e.kind() == io::ErrorKind::WouldBlock);
            client.get_ref().set_nonblocking(false).unwrap();
            quiet
        };
        let read_line = |client: &mut BufReader<TcpStream>| {
            let mut line = String::new();
            client.read_line(&mut line).unwrap();
            line.trim().to_string()
        };

        // An ack filled during a burst is not written when the burst is
        // handled...
        ack(&mut flushes);
        flushes.flush_burst();
        assert!(unsent(&mut client), "the ack left before the pump");
        // ...but with the first update the pump pushes...
        assert!(out.push_update(1, "update".to_string()));
        assert_eq!(read_line(&mut client), accepted);
        assert_eq!(read_line(&mut client), "update");
        flushes.flush_all();

        // ...or, when the pump pushes none, after it.
        ack(&mut flushes);
        assert!(unsent(&mut client));
        flushes.flush_all();
        assert_eq!(read_line(&mut client), accepted);
    }

    /// Held by the tests that cut a slow consumer, since one of them
    /// waits for the process-wide count of such cuts to move.
    static SLOW_CUTS: Mutex<()> = Mutex::new(());

    #[test]
    fn a_subscriber_cut_by_the_loop_timer_gets_the_slow_consumer_notice() {
        let _one_at_a_time = SLOW_CUTS.lock().unwrap_or_else(|e| e.into_inner());
        let (out, mut client) = queue_over_socket(NetConfig {
            outbound_queue: 4,
            ..NetConfig::default()
        });
        // Updates pile up behind a socket the client does not drain,
        // until they hold the queue over capacity; then the pushes stop.
        let fat = "u".repeat(64 * 1024);
        while out.lock().over.is_none() {
            assert!(out.push_update(3, fat.clone()));
        }
        // The client drains what the socket took. Nothing here polls the
        // socket, so only the loop timer's check can cut the connection.
        let mut sink = vec![0; 1 << 20];
        client.get_ref().set_nonblocking(true).unwrap();
        for _ in 0..3 {
            while client.get_mut().read(&mut sink).is_ok_and(|n| n > 0) {}
            thread::sleep(Duration::from_millis(20));
        }
        client.get_ref().set_nonblocking(false).unwrap();
        assert!(!out.check_deadline(Instant::now()));
        assert!(out.check_deadline(Instant::now() + Duration::from_secs(2)));

        // What remains is the tail of a line the socket took in part,
        // then the subscriber's notice, not an error line.
        let mut rest = Vec::new();
        client.read_to_end(&mut rest).unwrap();
        let rest = String::from_utf8(rest).unwrap();
        assert_eq!(rest.lines().last(), Some(slow_notice(3).as_str()));
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
        let _one_at_a_time = SLOW_CUTS.lock().unwrap_or_else(|e| e.into_inner());
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
