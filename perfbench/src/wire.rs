//! The wire run: start the real `elm-server` process(es), drive them over
//! TCP from two threads with one connection each, then check every output
//! against the replay oracle.
//!
//! Each connection is one [`Lane`]: it owns a share of the sessions and
//! runs, in lock step with the other lane, an open-loop phase (frames sent
//! on a frozen schedule, latency timed from each frame's due time) and a
//! closed-loop phase (a fixed window of events whose update has not yet
//! arrived, for capacity).

use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use elm_runtime::PlainValue;
use elm_server::protocol::{self, BatchOutcome, EnqueueOutcome};
use elm_server::{place, Registry};
use rand::rngs::StdRng;
use rand::Rng;
use serde_json::Value as Json;

use crate::oracle::{self, Received};
use crate::stats::{median, ms, percentile, Metrics};
use crate::workload::{self, EventGen, Kind, Program, Spec};

/// Connections, and driving threads, per run.
const LANES: usize = 2;
/// How long a phase may take to drain after its last send.
const DRAIN: Duration = Duration::from_secs(5);
/// Deadline for one set-up, including the server's start.
const SETUP_TIMEOUT: Duration = Duration::from_secs(30);
/// Closed-loop pause while at least half the window is outstanding.
const COALESCE: Duration = Duration::from_micros(200);
/// The generator's lateness bound: a run whose p99 send lateness (median
/// over rounds, as every reported figure is) exceeds it is marked
/// invalid, because its latencies include the generator's own stalls.
pub const LATE_BOUND_MS: f64 = 1.0;
/// Kernel clock ticks per second for `/proc/<pid>/stat` CPU times.
const CLK_TCK: f64 = 100.0;
/// Client spans written per traced run (all frames still feed the net.*
/// metrics).
const SPAN_CAP: usize = 60_000;

/// The server's reply to a frame of `n` events that were all accepted.
fn accepted_reply(n: usize) -> String {
    if n == 1 {
        protocol::event_line(EnqueueOutcome::Accepted)
    } else {
        protocol::batch_line(&BatchOutcome {
            accepted: n as u64,
            ..BatchOutcome::default()
        })
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Setup,
    Open,
    Closed,
}

// ---------------------------------------------------------------------------
// Server processes
// ---------------------------------------------------------------------------

/// The running server process(es). Dropping kills and reaps them.
struct Servers {
    children: Vec<Child>,
    addrs: Vec<String>,
}

fn free_port() -> io::Result<u16> {
    Ok(TcpListener::bind("127.0.0.1:0")?.local_addr()?.port())
}

/// The command-line flags of peer `peer`.
fn server_flags(spec: &Spec, addrs: &[String], peer: usize) -> Vec<String> {
    let mut flags = vec!["--shards".to_string(), spec.shards.to_string()];
    if spec.peers > 1 {
        // A takeover deadline far beyond any run: a takeover fails the run.
        flags.extend([
            "--peer-id".to_string(),
            peer.to_string(),
            "--peers".to_string(),
            addrs.join(","),
            "--takeover-ms".to_string(),
            "600000".to_string(),
        ]);
    } else {
        flags.extend(["--addr".to_string(), addrs[0].clone()]);
    }
    flags
}

impl Servers {
    fn spawn(bin: &Path, spec: &Spec, dir: &Path) -> io::Result<Servers> {
        let addrs = (0..spec.peers)
            .map(|_| free_port().map(|p| format!("127.0.0.1:{p}")))
            .collect::<io::Result<Vec<_>>>()?;
        let mut servers = Servers {
            children: Vec::new(),
            addrs,
        };
        for peer in 0..spec.peers {
            let log = File::create(dir.join(format!("server{peer}.log")))?;
            // The server runs at a lower priority than the generator, so
            // the generator's sends stay on schedule on a small host
            // instead of queueing behind the server it is measuring.
            let child = Command::new("nice")
                .args(["-n", "10"])
                .arg(bin)
                .args(server_flags(spec, &servers.addrs, peer))
                .current_dir(dir)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(log)
                .spawn()?;
            servers.children.push(child);
        }
        Ok(servers)
    }

    fn pids(&self) -> Vec<u32> {
        self.children.iter().map(Child::id).collect()
    }

    fn stop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
        self.children.clear();
    }
}

impl Drop for Servers {
    fn drop(&mut self) {
        self.stop();
    }
}

/// User plus system CPU ticks of `pids`, from `/proc/<pid>/stat`.
fn cpu_ticks(pids: &[u32]) -> u64 {
    pids.iter()
        .map(|pid| {
            let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
            // Fields after the parenthesised command name start at field 3;
            // utime and stime are fields 14 and 15.
            let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
            let f: Vec<&str> = rest.split_whitespace().collect();
            let field = |i: usize| f.get(i).and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
            field(11) + field(12)
        })
        .sum()
}

/// Peak resident set (`VmHWM`) of `pids`, summed, in KiB.
fn peak_rss_kib(pids: &[u32]) -> u64 {
    pids.iter()
        .map(|pid| {
            std::fs::read_to_string(format!("/proc/{pid}/status"))
                .unwrap_or_default()
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
                .unwrap_or(0)
        })
        .sum()
}

// ---------------------------------------------------------------------------
// One connection
// ---------------------------------------------------------------------------

struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// Bytes written plus bytes read.
    bytes: u64,
}

impl Conn {
    fn connect(addr: &str, deadline: Instant) -> io::Result<Conn> {
        loop {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    return Ok(Conn {
                        stream,
                        rbuf: Vec::new(),
                        wbuf: Vec::new(),
                        bytes: 0,
                    });
                }
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_micros(500)),
            }
        }
    }

    fn queue(&mut self, line: &str) {
        self.wbuf.extend_from_slice(line.as_bytes());
        self.wbuf.push(b'\n');
    }

    fn flush(&mut self) -> io::Result<()> {
        if !self.wbuf.is_empty() {
            self.stream.write_all(&self.wbuf)?;
            self.bytes += self.wbuf.len() as u64;
            self.wbuf.clear();
        }
        Ok(())
    }

    /// Waits up to `wait` for input and appends every complete line to
    /// `lines`; returns when the bytes arrived.
    fn poll(&mut self, wait: Duration, lines: &mut Vec<String>) -> io::Result<Instant> {
        if crate::sys::wait_readable(&self.stream, wait)? {
            let mut chunk = [0u8; 1 << 16];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server hung up",
                    ))
                }
                Ok(n) => {
                    self.bytes += n as u64;
                    self.rbuf.extend_from_slice(&chunk[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let at = Instant::now();
        let mut start = 0;
        while let Some(pos) = self.rbuf[start..].iter().position(|&b| b == b'\n') {
            lines.push(String::from_utf8_lossy(&self.rbuf[start..start + pos]).into_owned());
            start += pos + 1;
        }
        self.rbuf.drain(..start);
        Ok(at)
    }
}

// ---------------------------------------------------------------------------
// Sessions, frames and pending replies
// ---------------------------------------------------------------------------

/// One session driven by a lane: a live session or one churn cycle.
struct Slot {
    /// Run-wide slot index (seeds the event stream and trace ids).
    slot: usize,
    program: Program,
    /// Cluster placement key, when the session id is pinned.
    key: Option<u64>,
    id: u64,
    gen: Option<EventGen>,
    events: Vec<(String, PlainValue)>,
    /// Lane frame index of each event.
    event_frame: Vec<u32>,
    updates: Vec<Received>,
    final_value: Option<String>,
    last_seq: Option<u64>,
    /// Churn cycles only: the phase the cycle started in, and whether its
    /// close reply and final `closed` update arrived.
    cycle: Option<Phase>,
    close_replied: bool,
    close_pushed: bool,
}

impl Slot {
    fn new(slot: usize, program: Program, key: Option<u64>, cycle: Option<Phase>) -> Slot {
        Slot {
            slot,
            program,
            key,
            id: 0,
            gen: None,
            events: Vec::new(),
            event_frame: Vec::new(),
            updates: Vec::new(),
            final_value: None,
            last_seq: None,
            cycle,
            close_replied: false,
            close_pushed: false,
        }
    }
}

/// One request carrying events: an `event` line or a `batch` frame.
struct Frame {
    slot: usize,
    first: usize,
    n: usize,
    phase: Phase,
    due: Instant,
    sent: Instant,
    flushed: Instant,
    acked: Option<Instant>,
}

/// A reply the lane is waiting for; replies arrive in request order.
enum Pend {
    Opened {
        slot: usize,
        sent: Instant,
        phase: Phase,
    },
    Subscribed,
    Ack(usize),
    Query(usize),
    Close(usize),
    Stats,
    Metrics,
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn parse_json(line: &str) -> Result<Json, String> {
    let json: Json = serde_json::from_str(line).map_err(|e| format!("bad reply {line}: {e}"))?;
    if json.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("error reply {line}"));
    }
    Ok(json)
}

fn json_u64(json: &Json, key: &str) -> Option<u64> {
    match json.get(key)? {
        Json::I64(n) => u64::try_from(*n).ok(),
        Json::U64(n) => Some(*n),
        _ => None,
    }
}

/// A value from a Prometheus exposition (sum over every label set).
fn scrape(text: &str, family: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| l.starts_with(family) && l[family.len()..].starts_with([' ', '{']))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

// ---------------------------------------------------------------------------
// Lanes
// ---------------------------------------------------------------------------

/// One connection's share of the workload, driven from one thread.
struct Lane {
    index: usize,
    seed: u64,
    spec: Spec,
    conn: Conn,
    slots: Vec<Slot>,
    live: Vec<usize>,
    by_id: HashMap<u64, usize>,
    frames: Vec<Frame>,
    unflushed: usize,
    pending: VecDeque<Pend>,
    /// The reply every frame must get: all of its events accepted.
    ack: String,
    rng: StdRng,
    /// Events sent to live sessions, and their updates received.
    sent_events: u64,
    got_updates: u64,
    cycles_started: usize,
    cycles_open: usize,
    /// `(when sent, milliseconds)` per churn open in the open-loop phase.
    open_latency_ms: Vec<(Instant, f64)>,
    /// Open-loop phase start.
    open_start: Option<Instant>,
    late_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Closed-loop phase start, and every completion in it: an update
    /// (one event) or a finished churn cycle (its batch).
    closed_start: Option<Instant>,
    completions: Vec<(Instant, u64)>,
    stats_line: Option<String>,
    metrics_text: Option<String>,
    /// Periodic replication-lag scrapes (traced replicated runs only).
    scrape_lag: bool,
    lag_max: f64,
    dead: bool,
}

impl Lane {
    fn new(index: usize, seed: u64, spec: Spec, conn: Conn) -> Lane {
        Lane {
            index,
            seed,
            spec,
            conn,
            slots: Vec::new(),
            live: Vec::new(),
            by_id: HashMap::new(),
            frames: Vec::new(),
            unflushed: 0,
            pending: VecDeque::new(),
            ack: accepted_reply(spec.frame),
            rng: workload::lane_rng(seed, index),
            sent_events: 0,
            got_updates: 0,
            cycles_started: 0,
            cycles_open: 0,
            open_latency_ms: Vec::new(),
            open_start: None,
            late_ms: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            closed_start: None,
            completions: Vec::new(),
            stats_line: None,
            metrics_text: None,
            scrape_lag: false,
            lag_max: 0.0,
            dead: false,
        }
    }

    fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        if self.errors.len() < 8 {
            self.errors.push(format!("lane {}: {why}", self.index));
        }
    }

    /// Runs one step, turning an I/O error into a failure so the other
    /// lane never waits on a barrier this one will not reach.
    fn guard(&mut self, step: impl FnOnce(&mut Lane) -> io::Result<()>) {
        if self.dead {
            return;
        }
        if let Err(e) = step(self) {
            self.fail(1, format!("connection failed: {e}"));
            self.dead = true;
        }
    }

    fn request(&mut self, line: &str, pend: Pend) {
        self.conn.queue(line);
        self.pending.push_back(pend);
        self.attempted += 1;
    }

    fn flush(&mut self) -> io::Result<()> {
        self.conn.flush()?;
        let now = Instant::now();
        for f in &mut self.frames[self.unflushed..] {
            f.flushed = now;
        }
        self.unflushed = self.frames.len();
        Ok(())
    }

    fn poll(&mut self, wait: Duration) -> io::Result<()> {
        let mut lines = Vec::new();
        let at = self.conn.poll(wait, &mut lines)?;
        for line in lines {
            self.handle(&line, at);
        }
        Ok(())
    }

    /// Waits until every pending reply arrived.
    fn settle(&mut self, timeout: Duration) -> io::Result<()> {
        let deadline = Instant::now() + timeout;
        self.flush()?;
        while !self.pending.is_empty() {
            // Replies may have queued follow-up requests.
            self.flush()?;
            if Instant::now() >= deadline {
                let n = self.pending.len() as u64;
                self.fail(n, format!("{n} replies never arrived"));
                self.pending.clear();
                break;
            }
            self.poll(Duration::from_millis(5))?;
        }
        Ok(())
    }

    fn idle(&self) -> bool {
        self.pending.is_empty() && self.sent_events == self.got_updates && self.cycles_open == 0
    }

    fn open(&mut self, slot: usize, phase: Phase) {
        let s = &self.slots[slot];
        let line = workload::open_line(&s.program, s.key);
        self.request(
            &line,
            Pend::Opened {
                slot,
                sent: Instant::now(),
                phase,
            },
        );
    }

    /// Opens and subscribes this lane's live sessions.
    fn open_live(&mut self) -> io::Result<()> {
        for i in 0..self.live.len() {
            self.open(self.live[i], Phase::Setup);
        }
        self.settle(SETUP_TIMEOUT)
    }

    fn send_frame(&mut self, slot: usize, phase: Phase, due: Instant) {
        let n = self.spec.frame;
        let index = self.frames.len();
        let s = &mut self.slots[slot];
        let gen = s.gen.as_mut().expect("frames go only to opened sessions");
        let first = s.events.len();
        for _ in 0..n {
            s.events.push(gen.next_event());
            s.event_frame.push(index as u32);
        }
        let line =
            workload::frame_line(s.id, &s.events[first..], workload::trace_id(s.slot, first));
        if s.cycle.is_none() {
            self.sent_events += n as u64;
        }
        self.conn.queue(&line);
        self.pending.push_back(Pend::Ack(index));
        self.attempted += n as u64;
        let now = Instant::now();
        if phase == Phase::Open {
            self.late_ms.push(ms(now.saturating_duration_since(due)));
        }
        self.frames.push(Frame {
            slot,
            first,
            n,
            phase,
            due,
            sent: now,
            flushed: now,
            acked: None,
        });
    }

    /// Starts one unit of traffic due at `due`: a frame to a random live
    /// session, or (churn) a new cycle.
    fn start_unit(&mut self, phase: Phase, due: Instant) {
        if self.spec.kind == Kind::SessionChurn {
            let cycle = self.index + LANES * self.cycles_started;
            self.cycles_started += 1;
            self.cycles_open += 1;
            let slot = self.slots.len();
            self.slots.push(Slot::new(
                workload::cycle_slot(&self.spec, cycle),
                workload::cycle_program(self.seed, cycle),
                None,
                Some(phase),
            ));
            if phase == Phase::Open {
                self.late_ms
                    .push(ms(Instant::now().saturating_duration_since(due)));
            }
            self.open(slot, phase);
        } else {
            let pick = self.rng.gen_range(0..self.live.len());
            self.send_frame(self.live[pick], phase, due);
        }
    }

    fn in_flight(&self) -> usize {
        if self.spec.kind == Kind::SessionChurn {
            self.cycles_open
        } else {
            (self.sent_events - self.got_updates) as usize
        }
    }

    fn unit(&self) -> usize {
        if self.spec.kind == Kind::SessionChurn {
            1
        } else {
            self.spec.frame
        }
    }

    fn maybe_scrape_lag(&mut self, next: &mut Instant, now: Instant) {
        if self.scrape_lag && now >= *next {
            self.request(r#"{"cmd":"metrics"}"#, Pend::Metrics);
            *next = now + Duration::from_millis(250);
        }
    }

    fn open_phase(&mut self, length: Duration, rate: f64) -> io::Result<()> {
        let start = Instant::now();
        self.open_start = Some(start);
        let end = start + length;
        let every = Duration::from_secs_f64(self.unit() as f64 / rate);
        // The lanes' schedules interleave, so the server sees one evenly
        // spaced stream rather than a frame from every lane at once.
        let first = start + every * self.index as u32 / LANES as u32;
        let mut j = 0u32;
        let mut next_scrape = start;
        loop {
            let now = Instant::now();
            while first + every * j <= now && first + every * j < end {
                self.start_unit(Phase::Open, first + every * j);
                j += 1;
            }
            self.maybe_scrape_lag(&mut next_scrape, now);
            self.flush()?;
            if now >= end {
                if self.idle() {
                    break;
                }
                if now >= end + DRAIN {
                    self.fail(1, "open-loop phase did not drain".to_string());
                    break;
                }
            }
            let wait = if now < end {
                (first + every * j).saturating_duration_since(now)
            } else {
                Duration::from_millis(2)
            };
            self.poll(wait.clamp(Duration::from_micros(20), Duration::from_millis(2)))?;
        }
        Ok(())
    }

    fn closed_phase(&mut self, length: Duration) -> io::Result<()> {
        let start = Instant::now();
        self.closed_start = Some(start);
        let end = start + length;
        let mut next_scrape = start;
        loop {
            let now = Instant::now();
            if now < end {
                while self.in_flight() + self.unit() <= self.spec.window {
                    self.start_unit(Phase::Closed, now);
                }
            }
            self.maybe_scrape_lag(&mut next_scrape, now);
            self.flush()?;
            if now >= end {
                if self.idle() {
                    break;
                }
                if now >= end + DRAIN {
                    self.fail(1, "closed-loop phase did not drain".to_string());
                    break;
                }
            }
            self.poll(Duration::from_millis(2))?;
            if self.in_flight() * 2 > self.spec.window {
                // Half the window is still queued at the server: let
                // replies accumulate rather than waking per line, which
                // would take CPU from the server being measured.
                std::thread::sleep(COALESCE);
            }
        }
        Ok(())
    }

    /// Queries every live session's final value, then scrapes `stats`
    /// (and, in cluster mode, `metrics`) from this lane's server.
    fn finish(&mut self, stats: bool) -> io::Result<()> {
        for i in 0..self.live.len() {
            let s = &self.slots[self.live[i]];
            let line = format!("{{\"cmd\":\"query\",\"session\":{}}}", s.id);
            self.request(&line, Pend::Query(self.live[i]));
        }
        if stats {
            self.request(r#"{"cmd":"stats"}"#, Pend::Stats);
        }
        self.settle(Duration::from_secs(10))?;
        if self.spec.peers > 1 {
            // Replication is asynchronous behind the apply; give the
            // router a moment to ship what the queries just confirmed.
            let applied: u64 = self
                .live
                .iter()
                .filter_map(|&s| self.slots[s].last_seq)
                .sum();
            for _ in 0..50 {
                self.request(r#"{"cmd":"metrics"}"#, Pend::Metrics);
                self.settle(Duration::from_secs(10))?;
                let shipped = self
                    .metrics_text
                    .as_deref()
                    .map_or(0.0, |t| scrape(t, "elm_cluster_journal_replicated_total"));
                if shipped as u64 == applied {
                    break;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        }
        Ok(())
    }

    fn cycle_done(&mut self, slot: usize, at: Instant) {
        let s = &self.slots[slot];
        if s.cycle.is_some() && s.close_replied && s.close_pushed {
            self.cycles_open -= 1;
            if s.cycle == Some(Phase::Closed) {
                self.completions.push((at, s.events.len() as u64));
            }
        }
    }

    fn handle(&mut self, line: &str, at: Instant) {
        if line.starts_with(r#"{"update""#) {
            self.on_update(line, at);
            return;
        }
        let Some(pend) = self.pending.pop_front() else {
            self.fail(1, format!("unsolicited reply {line}"));
            return;
        };
        match pend {
            Pend::Ack(f) => {
                let n = self.frames[f].n;
                self.frames[f].acked = Some(at);
                if line != self.ack {
                    self.fail(n as u64, format!("event reply {line}"));
                }
            }
            Pend::Opened { slot, sent, phase } => match parse_json(line) {
                Ok(json) => {
                    if phase == Phase::Open {
                        self.open_latency_ms.push((sent, ms(at - sent)));
                    }
                    let inputs: Vec<String> = json
                        .get("inputs")
                        .and_then(Json::as_seq)
                        .map(|v| {
                            v.iter()
                                .filter_map(|i| i.as_str().map(str::to_string))
                                .collect()
                        })
                        .unwrap_or_default();
                    let id = json_u64(&json, "session").unwrap_or(u64::MAX);
                    let s = &mut self.slots[slot];
                    s.id = id;
                    s.gen = Some(EventGen::new(self.seed, s.slot, &inputs));
                    self.by_id.insert(id, slot);
                    let line = format!("{{\"cmd\":\"subscribe\",\"session\":{id}}}");
                    self.request(&line, Pend::Subscribed);
                    if let Some(cycle_phase) = self.slots[slot].cycle {
                        // The batch is sendable the moment the session
                        // exists: its events are due now.
                        self.send_frame(slot, cycle_phase, at);
                        let query = format!("{{\"cmd\":\"query\",\"session\":{id}}}");
                        self.request(&query, Pend::Query(slot));
                        let close = format!("{{\"cmd\":\"close\",\"session\":{id}}}");
                        self.request(&close, Pend::Close(slot));
                    }
                }
                Err(e) => {
                    self.fail(1, e);
                    if self.slots[slot].cycle.is_some() {
                        self.slots[slot].close_replied = true;
                        self.slots[slot].close_pushed = true;
                        self.cycle_done(slot, at);
                    }
                }
            },
            Pend::Subscribed => {
                if let Err(e) = parse_json(line) {
                    self.fail(1, e);
                }
            }
            Pend::Query(slot) => match parse_json(line) {
                Ok(json) => {
                    let s = &mut self.slots[slot];
                    s.final_value = json
                        .get("value")
                        .map(|v| serde_json::to_string(v).expect("parsed JSON re-serializes"));
                    s.last_seq = json_u64(&json, "last_seq");
                }
                Err(e) => self.fail(1, e),
            },
            Pend::Close(slot) => {
                if let Err(e) = parse_json(line) {
                    self.fail(1, e);
                }
                self.slots[slot].close_replied = true;
                self.cycle_done(slot, at);
            }
            Pend::Stats => self.stats_line = Some(line.to_string()),
            Pend::Metrics => match parse_json(line) {
                Ok(json) => {
                    let text = json.get("metrics").and_then(Json::as_str).unwrap_or("");
                    self.lag_max = self
                        .lag_max
                        .max(scrape(text, "elm_cluster_replication_lag_entries"));
                    self.metrics_text = Some(text.to_string());
                }
                Err(e) => self.fail(1, e),
            },
        }
    }

    fn on_update(&mut self, line: &str, at: Instant) {
        let slot = field_u64(line, r#""session":"#).and_then(|id| self.by_id.get(&id).copied());
        let Some(slot) = slot else {
            self.fail(1, format!("update for an unknown session: {line}"));
            return;
        };
        if line.starts_with(r#"{"update":"changed""#) {
            let value = line
                .find(r#""value":"#)
                .map(|i| line[i + 8..line.len() - 1].to_string())
                .unwrap_or_default();
            let seq = field_u64(line, r#""seq":"#).unwrap_or(0);
            let s = &mut self.slots[slot];
            s.updates.push(Received { seq, value, at });
            if s.cycle.is_none() {
                self.got_updates += 1;
                if self.closed_start.is_some() {
                    self.completions.push((at, 1));
                }
            }
        } else if self.slots[slot].cycle.is_some() && line.contains(r#""reason":"closed""#) {
            self.slots[slot].close_pushed = true;
            self.cycle_done(slot, at);
        } else {
            self.fail(1, format!("session ended early: {line}"));
        }
    }
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// Spawns the server(s), connects both lanes, opens and subscribes every
/// live session. Returns the time from spawn to the last subscription.
fn setup(
    spec: &Spec,
    seed: u64,
    bin: &Path,
    dir: &Path,
    programs: &[Program],
) -> Result<(Servers, Vec<Lane>, f64), String> {
    let t0 = Instant::now();
    let servers =
        Servers::spawn(bin, spec, dir).map_err(|e| format!("cannot start server: {e}"))?;
    let deadline = t0 + SETUP_TIMEOUT;
    let mut lanes = Vec::with_capacity(LANES);
    for index in 0..LANES {
        let addr = &servers.addrs[index % spec.peers];
        let conn =
            Conn::connect(addr, deadline).map_err(|e| format!("cannot reach {addr}: {e}"))?;
        lanes.push(Lane::new(index, seed, *spec, conn));
    }
    for (slot, program) in programs.iter().enumerate() {
        // Cluster sessions live at their placement primary, one lane per
        // peer; otherwise the lanes split the sessions in halves.
        let (lane, key) = if spec.peers > 1 {
            (place(slot as u64, spec.peers).0, Some(slot as u64))
        } else {
            (slot * LANES / programs.len(), None)
        };
        let l = &mut lanes[lane];
        l.live.push(l.slots.len());
        l.slots.push(Slot::new(slot, program.clone(), key, None));
    }
    // One lane after the other: the server then numbers the sessions in
    // slot order, so their shards (`id % shards`) repeat from run to run.
    for lane in &mut lanes {
        lane.guard(Lane::open_live);
    }
    let secs = t0.elapsed().as_secs_f64();
    if let Some(e) = lanes.iter().flat_map(|l| &l.errors).next() {
        return Err(format!("set-up failed: {e}"));
    }
    Ok((servers, lanes, secs))
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

/// Everything a wire run measured.
pub struct WireRun {
    /// End-to-end metrics, by `BENCHMARK.json` name.
    pub end_to_end: Metrics,
    /// Per-layer metrics the wire run itself observes.
    pub layers: Metrics,
    /// Client operations attempted and failed (oracle mismatches count
    /// every event of the session).
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Sample counts and validity, for the provenance record.
    pub notes: Vec<(String, String)>,
    /// Whether the run met the generator's lateness bound.
    pub valid: bool,
    pub flags: Vec<String>,
}

/// Runs `spec` for `seconds`: [`ROUNDS`] rounds, each on fresh server
/// processes with half its time open-loop and half closed-loop. Every
/// metric is the median over rounds, so one process's thread placement
/// or memory layout does not set the run's figure. `setup_s` is the median
/// over the rounds' set-ups and [`EXTRA_SETUPS`] more.
pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    bin: &Path,
    dir: &Path,
    trace: bool,
) -> Result<WireRun, String> {
    let half = Duration::from_secs_f64(seconds / (2.0 * ROUNDS as f64));
    let mut setup_s = Vec::with_capacity(ROUNDS + EXTRA_SETUPS);
    let mut rounds = Vec::with_capacity(ROUNDS);
    for r in 0..ROUNDS {
        // Round 0 uses the run's own seed: the traced replay matches it.
        let round_seed = if r == 0 {
            seed
        } else {
            workload::mix(seed, 5, r as u64)
        };
        let (round, secs) = round(spec, round_seed, half, bin, dir, trace, trace && r == 0)?;
        setup_s.push(secs);
        rounds.push(round);
    }
    for k in 0..EXTRA_SETUPS {
        let extra_seed = workload::mix(seed, 6, k as u64);
        let programs = workload::live_programs(spec, extra_seed);
        let (_servers, _lanes, secs) = setup(spec, extra_seed, bin, dir, &programs)?;
        setup_s.push(secs);
    }
    let mut end_to_end = crate::stats::median_of(rounds.iter().map(|r| &r.end_to_end));
    let layers = crate::stats::median_of(rounds.iter().map(|r| &r.layers));
    // Judged on the median over rounds, as every reported figure is.
    let valid = layers.get("gen.late_ms_p99").unwrap_or(f64::INFINITY) <= LATE_BOUND_MS;
    end_to_end.push("setup_s", median(&mut setup_s.clone()), "s");
    let mut notes = vec![("setup_samples_s".to_string(), format!("{setup_s:?}"))];
    for (r, round) in rounds.iter().enumerate() {
        notes.push((format!("round{r}.end_to_end"), round.end_to_end.to_json()));
        notes.extend(
            round
                .notes
                .iter()
                .map(|(k, v)| (format!("round{r}.{k}"), v.clone())),
        );
    }
    Ok(WireRun {
        end_to_end,
        layers,
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
        errors: rounds
            .iter()
            .flat_map(|r| r.errors.iter().cloned())
            .collect(),
        notes,
        valid,
        flags: rounds.first().map(|r| r.flags.clone()).unwrap_or_default(),
    })
}

/// One round: set up, drive both phases for `half` each, check and
/// measure. Returns the round and its set-up time.
#[allow(clippy::too_many_arguments)]
fn round(
    spec: &Spec,
    seed: u64,
    half: Duration,
    bin: &Path,
    dir: &Path,
    trace: bool,
    spans: bool,
) -> Result<(WireRun, f64), String> {
    let (servers, mut lanes, setup_secs) =
        setup(spec, seed, bin, dir, &workload::live_programs(spec, seed))?;
    let flags = server_flags(spec, &servers.addrs, 0);
    let pids = servers.pids();
    let total_live = spec.live as f64;
    for lane in &mut lanes {
        lane.scrape_lag = trace && spec.peers > 1;
    }

    let barrier = Barrier::new(LANES);
    // Lane 0 also reads the server's CPU time around the open-loop phase.
    let drive = |lane: &mut Lane| -> u64 {
        let share = if spec.kind == Kind::SessionChurn {
            1.0 / LANES as f64
        } else {
            lane.live.len() as f64 / total_live
        };
        let stats = spec.peers > 1 || lane.index == 0;
        let reads_cpu = lane.index == 0;
        let ticks = || if reads_cpu { cpu_ticks(&pids) } else { 0 };
        barrier.wait();
        let before = ticks();
        lane.guard(|l| l.open_phase(half, spec.open_rate * share));
        barrier.wait();
        let open_ticks = ticks() - before;
        lane.guard(|l| l.closed_phase(half));
        barrier.wait();
        lane.guard(|l| l.finish(stats));
        open_ticks
    };
    let (first, rest) = lanes.split_at_mut(1);
    let open_ticks = std::thread::scope(|s| {
        let other = s.spawn(|| drive(&mut rest[0]));
        let open_ticks = drive(&mut first[0]);
        other.join().expect("lane thread panicked");
        open_ticks
    });
    let rss_kib = peak_rss_kib(&pids);
    drop(servers);

    let slice = half / SLICES as u32;
    let cpu_s = open_ticks as f64 / CLK_TCK;
    let round = check_and_measure(spec, seed, lanes, slice, cpu_s, rss_kib, dir, spans, flags)?;
    Ok((round, setup_secs))
}

#[allow(clippy::too_many_arguments)]
fn check_and_measure(
    spec: &Spec,
    seed: u64,
    lanes: Vec<Lane>,
    slice: Duration,
    cpu_s: f64,
    rss_kib: u64,
    dir: &Path,
    trace: bool,
    flags: Vec<String>,
) -> Result<WireRun, String> {
    let mut attempted = 0;
    let mut failed = 0;
    let mut errors = Vec::new();
    // Latency samples per open-loop time slice (by due or send time).
    let open_start = lanes
        .iter()
        .filter_map(|l| l.open_start)
        .min()
        .unwrap_or_else(Instant::now);
    let slice_of = |t: Instant| {
        let i = t.saturating_duration_since(open_start).as_secs_f64() / slice.as_secs_f64();
        (i as usize).min(SLICES - 1)
    };
    let mut update_ms = vec![Vec::new(); SLICES];
    let mut open_ms = vec![Vec::new(); SLICES];
    let mut late_ms = Vec::new();
    let mut ack_rtt_us = Vec::new();
    let mut ack_to_update_us = Vec::new();
    let mut open_events = 0u64;
    let mut closed_events = 0u64;
    let mut closed_start: Option<Instant> = None;
    let mut completions = Vec::new();
    let mut bytes = 0u64;
    let mut lag_max: f64 = 0.0;
    let mut replicated = 0.0;
    let mut applied = 0u64;

    // Replay every session on two threads, one per lane.
    let verdicts: Vec<Vec<Result<Vec<usize>, String>>> = std::thread::scope(|s| {
        let handles: Vec<_> = lanes
            .iter()
            .map(|lane| {
                s.spawn(move || {
                    let registry = Registry::standard();
                    lane.slots
                        .iter()
                        .map(|slot| {
                            let expected = oracle::replay(&registry, &slot.program, &slot.events)?;
                            oracle::check(&expected, &slot.updates, slot.final_value.as_deref())?;
                            if slot.last_seq != Some(slot.events.len() as u64) {
                                return Err(format!(
                                    "applied {:?} of {} events sent",
                                    slot.last_seq,
                                    slot.events.len()
                                ));
                            }
                            Ok(expected.updates.iter().map(|(e, _)| *e).collect())
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });

    let mut spans = trace.then(Vec::new);
    for (lane, verdict) in lanes.iter().zip(verdicts) {
        attempted += lane.attempted;
        failed += lane.failed;
        errors.extend(lane.errors.iter().cloned());
        for &(sent, latency) in &lane.open_latency_ms {
            open_ms[slice_of(sent)].push(latency);
        }
        late_ms.extend_from_slice(&lane.late_ms);
        bytes += lane.conn.bytes;
        lag_max = lag_max.max(lane.lag_max);
        closed_start = match (closed_start, lane.closed_start) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        completions.extend_from_slice(&lane.completions);
        for f in &lane.frames {
            match f.phase {
                Phase::Open => open_events += f.n as u64,
                Phase::Closed => closed_events += f.n as u64,
                Phase::Setup => {}
            }
        }
        for (slot, result) in lane.slots.iter().zip(verdict) {
            applied += slot.last_seq.unwrap_or(0);
            let causes = match result {
                Ok(causes) => causes,
                Err(e) => {
                    failed += slot.events.len().max(1) as u64;
                    if errors.len() < 16 {
                        errors.push(format!("session slot {}: {e}", slot.slot));
                    }
                    continue;
                }
            };
            for (update, &event) in slot.updates.iter().zip(&causes) {
                let frame = &lane.frames[slot.event_frame[event] as usize];
                if frame.phase != Phase::Open {
                    continue;
                }
                update_ms[slice_of(frame.due)]
                    .push(ms(update.at.saturating_duration_since(frame.due)));
                if let Some(acked) = frame.acked {
                    ack_to_update_us.push(ms(update.at.saturating_duration_since(acked)) * 1e3);
                }
            }
        }
        for f in &lane.frames {
            if let (Phase::Open, Some(acked)) = (f.phase, f.acked) {
                ack_rtt_us.push(ms(acked.saturating_duration_since(f.flushed)) * 1e3);
            }
        }
        if let Some(spans) = spans.as_mut() {
            client_spans(lane, spans);
        }
        if let Some(text) = &lane.metrics_text {
            replicated += scrape(text, "elm_cluster_journal_replicated_total");
            for (family, what) in [
                ("elm_cluster_takeovers_total", "takeovers"),
                ("elm_cluster_replication_gaps_total", "replication gaps"),
            ] {
                let n = scrape(text, family);
                if n != 0.0 {
                    failed += 1;
                    errors.push(format!("lane {}: {n} {what}", lane.index));
                }
            }
        }
        if let Some(line) = &lane.stats_line {
            if let Err(e) = check_stats(line) {
                failed += 1;
                errors.push(format!("lane {}: {e}", lane.index));
            }
        }
    }
    if spec.peers > 1 && replicated as u64 != applied {
        failed += 1;
        errors.push(format!(
            "{replicated} journal entries replicated for {applied} applied events"
        ));
    }
    if let Some(spans) = spans {
        write_spans(
            &dir.join(format!("spans-{}-{seed}-client.ndjson", spec.name)),
            &spans,
        )
        .map_err(|e| format!("cannot write spans: {e}"))?;
    }

    let update_samples: usize = update_ms.iter().map(Vec::len).sum();
    let open_samples: usize = open_ms.iter().map(Vec::len).sum();
    let late_p99 = percentile(&mut late_ms, 0.99);
    let valid = late_p99 <= LATE_BOUND_MS;

    let mut e2e = Metrics::new();
    e2e.push(
        "applied_events_per_s",
        slice_rate(closed_start, &mut completions),
        "events/s",
    );
    e2e.push("update_latency_p50_ms", sliced(&mut update_ms, 0.50), "ms");
    e2e.push(
        "cpu_us_per_event",
        cpu_s * 1e6 / open_events.max(1) as f64,
        "us",
    );
    e2e.push("peak_rss_mb", rss_kib as f64 / 1024.0, "MiB");

    let mut layers = Metrics::new();
    // Tails and session opens are measured on every run but vary too much
    // with host scheduling to hold a regression bound on a small shared
    // host, so they are reported with the traced run's per-layer figures.
    layers.push(
        "net.update_latency_p99_ms",
        sliced(&mut update_ms, 0.99),
        "ms",
    );
    // Opens are too sparse for per-slice tails: whole-phase percentiles.
    let mut open_all: Vec<f64> = open_ms.concat();
    layers.push(
        "net.open_latency_p50_ms",
        percentile(&mut open_all, 0.50),
        "ms",
    );
    layers.push(
        "net.open_latency_p99_ms",
        percentile(&mut open_all, 0.99),
        "ms",
    );
    layers.push(
        "protocol.bytes_per_event",
        bytes as f64 / (open_events + closed_events).max(1) as f64,
        "bytes",
    );
    layers.push(
        "net.ack_rtt_us_p50",
        percentile(&mut ack_rtt_us, 0.50),
        "us",
    );
    layers.push(
        "net.ack_rtt_us_p99",
        percentile(&mut ack_rtt_us, 0.99),
        "us",
    );
    layers.push(
        "net.ack_to_update_us_p50",
        percentile(&mut ack_to_update_us, 0.50),
        "us",
    );
    layers.push(
        "cluster.replicated_per_applied",
        if spec.peers > 1 {
            replicated / applied.max(1) as f64
        } else {
            0.0
        },
        "ratio",
    );
    layers.push("cluster.lag_entries_max", lag_max, "count");
    layers.push("gen.late_ms_p99", late_p99, "ms");
    layers.push(
        "gen.offered_events",
        (open_events + closed_events) as f64,
        "count",
    );

    let notes = vec![
        (
            "update_latency_samples".to_string(),
            update_samples.to_string(),
        ),
        ("open_latency_samples".to_string(), open_samples.to_string()),
        ("slice_s".to_string(), slice.as_secs_f64().to_string()),
        ("open_loop_events".to_string(), open_events.to_string()),
        ("closed_loop_events".to_string(), closed_events.to_string()),
        (
            "closed_loop_mean_events_per_s".to_string(),
            mean_rate(closed_start, &completions).to_string(),
        ),
        ("server_cpu_s_open_loop".to_string(), cpu_s.to_string()),
        (
            "generator_cpu_s_total".to_string(),
            (cpu_ticks(&[std::process::id()]) as f64 / CLK_TCK).to_string(),
        ),
        ("valid".to_string(), valid.to_string()),
    ];
    Ok(WireRun {
        end_to_end: e2e,
        layers,
        attempted,
        failed,
        errors,
        notes,
        valid,
        flags,
    })
}

/// Each phase is cut into this many equal time slices. Rates and latency
/// percentiles are taken per slice and reported as the median over
/// slices, so a stall or burst moves single slices only.
const SLICES: usize = 10;
/// Rounds per run (see [`run`]).
const ROUNDS: usize = 5;
/// Set-ups per run beyond the rounds' own, timed and torn down at once:
/// a set-up takes tens of milliseconds, so a median over more of them
/// costs little and steadies `setup_s`.
const EXTRA_SETUPS: usize = 10;

/// The median over slices of each non-empty slice's `q` percentile.
fn sliced(slices: &mut [Vec<f64>], q: f64) -> f64 {
    let mut per: Vec<f64> = slices
        .iter_mut()
        .filter(|s| !s.is_empty())
        .map(|s| percentile(s, q))
        .collect();
    median(&mut per)
}

/// Median over equal time slices of the completion rate (events per
/// second) from `start` to the last completion. Short stalls and bursts
/// move single slices, not the median.
fn slice_rate(start: Option<Instant>, completions: &mut [(Instant, u64)]) -> f64 {
    let Some(start) = start else { return 0.0 };
    completions.sort_unstable();
    let Some(&(last, _)) = completions.last() else {
        return 0.0;
    };
    let span = last.duration_since(start).as_secs_f64().max(1e-9);
    let mut per_slice = [0u64; SLICES];
    for (at, n) in completions.iter() {
        let i = (at.duration_since(start).as_secs_f64() / span * SLICES as f64) as usize;
        per_slice[i.min(SLICES - 1)] += n;
    }
    let mut rates: Vec<f64> = per_slice
        .iter()
        .map(|&n| n as f64 * SLICES as f64 / span)
        .collect();
    median(&mut rates)
}

/// Completed events over the whole closed-loop phase per second.
fn mean_rate(start: Option<Instant>, completions: &[(Instant, u64)]) -> f64 {
    let (Some(start), Some(last)) = (start, completions.iter().map(|c| c.0).max()) else {
        return 0.0;
    };
    let events: u64 = completions.iter().map(|c| c.1).sum();
    events as f64 / last.duration_since(start).as_secs_f64().max(1e-9)
}

/// Checks a `stats` scrape: nothing ignored, dropped or coalesced, and
/// every live session applied exactly what it enqueued.
fn check_stats(line: &str) -> Result<(), String> {
    let json = parse_json(line)?;
    let ingress = json
        .get("global")
        .and_then(|g| g.get("ingress"))
        .ok_or("stats without global.ingress")?;
    for field in ["ignored", "dropped", "coalesced"] {
        let n = json_u64(ingress, field).unwrap_or(u64::MAX);
        if n != 0 {
            return Err(format!("stats report {n} {field} events"));
        }
    }
    for s in json.get("sessions").and_then(Json::as_seq).unwrap_or(&[]) {
        let enqueued = s.get("ingress").and_then(|i| json_u64(i, "enqueued"));
        let applied = s
            .get("recovery")
            .and_then(|r| json_u64(r, "journal_appends"));
        if enqueued != applied {
            return Err(format!(
                "session {:?} enqueued {enqueued:?} but applied {applied:?}",
                json_u64(s, "session")
            ));
        }
    }
    Ok(())
}

/// One span as written out: `name` covers `[start, end]` for the event or
/// frame identified by `trace`; `parent` is the id of the causing span.
pub struct Span {
    pub trace: u64,
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Client-side spans on the socket: `net.send` (queue to flush), `net.ack`
/// (flush to reply) and `net.update` (reply to the update it caused).
fn client_spans(lane: &Lane, spans: &mut Vec<Span>) {
    let Some(origin) = lane.frames.first().map(|f| f.sent) else {
        return;
    };
    let ns = |t: Instant| t.saturating_duration_since(origin).as_nanos() as u64;
    let mut per_frame: HashMap<usize, Vec<Instant>> = HashMap::new();
    for slot in &lane.slots {
        for u in &slot.updates {
            // Updates are matched to frames by seq order; for live sessions
            // one update per event is what the oracle just verified.
            if let Some(&f) = slot.event_frame.get((u.seq as usize).saturating_sub(1)) {
                per_frame.entry(f as usize).or_default().push(u.at);
            }
        }
    }
    for (i, f) in lane.frames.iter().enumerate() {
        if spans.len() + 3 > SPAN_CAP {
            break;
        }
        let trace = workload::trace_id(lane.slots[f.slot].slot, f.first);
        let id = (trace << 2) | 1;
        spans.push(Span {
            trace,
            id,
            parent: None,
            name: "net.send",
            start_ns: ns(f.sent),
            end_ns: ns(f.flushed),
        });
        let Some(acked) = f.acked else { continue };
        spans.push(Span {
            trace,
            id: id + 1,
            parent: Some(id),
            name: "net.ack",
            start_ns: ns(f.flushed),
            end_ns: ns(acked),
        });
        if let Some(last) = per_frame.get(&i).and_then(|v| v.iter().max()) {
            spans.push(Span {
                trace,
                id: id + 2,
                parent: Some(id + 1),
                name: "net.update",
                start_ns: ns(acked),
                end_ns: ns(*last),
            });
        }
    }
}

/// Writes spans as NDJSON.
pub fn write_spans(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut out = BufWriter::new(File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"trace\":{},\"span\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.trace, s.id, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
