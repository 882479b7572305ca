//! Load generator: the end-to-end correctness harness of the signal
//! server. Every mode drives real sessions, judges each one's served
//! output against its synchronous replay ([`replay`]) — the paper's
//! guarantee, with `async` the only sanctioned reordering — and exits
//! nonzero on any failed check. Throughput is measured by `perfbench/`,
//! not here. In-process isolation, span-tree reconstruction and
//! crash recovery under seeded chaos are pinned by the `elm-server`
//! integration tests (`multi_session.rs`, `trace_reconstruction.rs`,
//! `recovery.rs`) rather than by a mode of this binary.
//!
//! ```text
//! loadgen (--overload | --fleet | --cluster | --partition) [--sessions M]
//!         [--events N] [--shards N] [--seed S] [--out FILE] [--no-fencing]
//!         [--fleet-programs N] [--snapshot-interval N]
//! ```
//!
//! There are four modes; `--events` is per session.
//!
//! `--overload` over-drives an in-process server with admission control
//! through retrying TCP clients, next to fueled hostile builtins
//! (`runaway`, `membomb`) and a control-plane probe. The verdict in
//! `BENCH_overload.json` fails unless every control probe is answered,
//! `admitted + shed == offered` in the scrape, no retrying client gives
//! up, every hostile event traps with its session surviving, and the
//! admitted traffic equals a budget-governed replay.
//!
//! `--fleet` hosts a *scenario fleet*: hundreds of distinct seeded FElm
//! programs synthesized by `elm-synth`, opened as ad-hoc sources across
//! the shards under a merged chaos + overload-flood fault plan and a
//! per-event fuel budget. Every program is judged against its
//! machine-checkable temporal property, a budget-governed synchronous
//! replay (scheduler equivalence), a `describe` wire round-trip, and
//! clean subscription-closure semantics; a deliberately mutated oracle
//! must be caught and shrunk to a minimal repro. Any failed check makes
//! the verdict in `BENCH_fleet.json` FAILED and the exit code nonzero.
//!
//! `--cluster` is the kill-chaos harness for cluster mode: it spawns a
//! 3-process `elm-server` peer group, opens keyed sessions at their
//! rendezvous-placement primaries, and kills the busiest peer mid-stream
//! at a `FaultPlan`-scheduled point. Drivers ride the failover through
//! the retrying [`ClusterClient`] (`moved` redirects, `last_seq` resume)
//! and the run fails unless every killed session resumes on a surviving
//! peer with its final output byte-identical to an uninterrupted
//! governed replay, every takeover is counted in the survivors'
//! `elm_cluster_*` metric families, and replication recorded no gaps.
//! Replication lag, takeover latency, and per-peer session counts land
//! in `BENCH_cluster.json`. `--fleet --cluster` composes the two: the
//! cluster hosts distinct synthesized FElm programs instead of the
//! dashboard builtin, under the same kill.
//!
//! `--partition` is the split-brain chaos harness: instead of killing a
//! peer it schedules a deterministic network partition (via the
//! children's `--partition-window` netfault proxy) that isolates the
//! busiest primary from both other peers long enough to trigger a
//! quorum-side takeover, then heals. While the partition holds, the
//! isolated zombie keeps serving its clients at the old epoch and the
//! adopters serve the same sessions at the new one; concurrent probes
//! from both sides record who answers. The verdict fails unless at most
//! one peer serves each session *per epoch*, every stale-epoch append
//! the zombie flushes at heal is rejected and counted
//! (`elm_cluster_fenced_total`), the zombie demotes to redirect-only,
//! replication records no gaps, and every session's final value is
//! byte-identical to an uninterrupted governed replay. `--no-fencing`
//! disables the epoch fences in the children — run it to watch the
//! verdict catch the divergence that fencing prevents (the run exits
//! nonzero by design).
//!
//! Every mode is one `run_*` function over the same plain pieces:
//! [`replay`] is the one synchronous oracle, [`PeerGroup`] owns the
//! `elm-server` children of the peer-group modes (and kills them on every
//! exit path), [`open_keyed`] and [`drive_session`] open and drive keyed
//! sessions with exactly-once resume, and [`finish`] writes the report
//! and turns the failure list into the exit code that `main` applies
//! once.

use std::collections::{BTreeMap, BTreeSet};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{exit, Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use elm_environment::{FaultPlan, Simulator};
use elm_runtime::{EventLimits, PlainValue, SignalGraph, Trace, TraceEvent};
use elm_server::{
    place, AdmissionConfig, Client, ClusterClient, ProgramSpec, Registry, RestartPolicy, Server,
    ServerConfig, SessionConfig, Update,
};
use elm_signals::{Engine, Program};
use elm_synth::{GenConfig, Generator, Scenario};
use serde_json::Value as Json;

const BATCH: usize = 64;

/// Size of the `--cluster` / `--partition` peer group.
const PEERS: usize = 3;

/// The per-event budget the `--fleet` and `--overload` sessions run
/// under, paired with no wall-clock deadline: deadline traps would not
/// replay deterministically, fuel/alloc/depth traps do.
const GOVERNED: EventLimits = EventLimits {
    fuel: 200_000,
    max_alloc_cells: 500_000,
    max_depth: 10_000,
};

struct Args {
    sessions: usize,
    events: usize,
    shards: usize,
    seed: u64,
    /// Report path; each mode has its own default name.
    out: Option<String>,
    overload: bool,
    fleet: bool,
    cluster: bool,
    partition: bool,
    no_fencing: bool,
    fleet_programs: usize,
    snapshot_interval: u64,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            sessions: 64,
            events: 10_000,
            shards: ServerConfig::default().shards,
            seed: 42,
            out: None,
            overload: false,
            fleet: false,
            cluster: false,
            partition: false,
            no_fencing: false,
            fleet_programs: 224,
            snapshot_interval: 256,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen (--overload | --fleet | --cluster | --partition) [--sessions M] \
         [--events N] [--shards N] [--seed S] [--out FILE] [--no-fencing] \
         [--fleet-programs N] [--snapshot-interval N]"
    );
    exit(2)
}

fn parse_args() -> Args {
    let mut a = Args::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--sessions" => a.sessions = value().parse().unwrap_or_else(|_| usage()),
            "--events" => a.events = value().parse().unwrap_or_else(|_| usage()),
            "--shards" => a.shards = value().parse().unwrap_or_else(|_| usage()),
            "--seed" => a.seed = value().parse().unwrap_or_else(|_| usage()),
            "--out" => a.out = Some(value()),
            "--overload" => a.overload = true,
            "--fleet" => a.fleet = true,
            "--cluster" => a.cluster = true,
            "--partition" => a.partition = true,
            "--no-fencing" => a.no_fencing = true,
            "--fleet-programs" => a.fleet_programs = value().parse().unwrap_or_else(|_| usage()),
            "--snapshot-interval" => {
                a.snapshot_interval = value().parse().unwrap_or_else(|_| usage())
            }
            _ => usage(),
        }
    }
    a
}

/// Numeric accessor over the vendored JSON value (small integers parse
/// back as `I64`).
fn jnum(v: &Json) -> Option<u64> {
    match v {
        Json::U64(n) => Some(*n),
        Json::I64(n) if *n >= 0 => Some(*n as u64),
        _ => None,
    }
}

/// The synchronous replay oracle every verdict compares against. Feeds
/// `events` through a fresh single-session synchronous runtime, skipping
/// inputs the program does not declare (exactly the events the server
/// admits), and drains after *each* event — the server's own schedule
/// (`Session::pump`), so `async` follow-ups land where they land live.
/// `limits` installs the fuel/alloc/depth governor the live sessions ran
/// with, deliberately without a wall-clock deadline: fuel traps replay
/// deterministically, so the oracle traps (and rolls back) exactly the
/// events the live session trapped.
fn replay(graph: &SignalGraph, events: &[TraceEvent], limits: Option<EventLimits>) -> PlainValue {
    let mut running = Program::from_dynamic_graph(graph.clone()).start(Engine::Synchronous);
    running.set_governor(limits, None);
    for e in events
        .iter()
        .filter(|e| graph.input_named(&e.input).is_some())
    {
        running
            .send_named(&e.input, e.value.to_value())
            .expect("replay event");
        running.drain_raw().expect("replay drain");
    }
    PlainValue::from_value(running.current()).expect("replay value is plain")
}

/// A JSON object from `(key, value)` fields, in order.
fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    Json::Map(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Writes a benchmark artifact; a failed write is recorded as a check
/// failure (a bench run whose evidence is missing must not report OK).
fn write_artifact(path: &str, contents: String, failures: &mut Vec<String>) {
    match std::fs::write(path, contents) {
        Ok(()) => eprintln!("loadgen: wrote {path}"),
        Err(e) => failures.push(format!("cannot write artifact {path}: {e}")),
    }
}

/// Ends a run: reports every failure, prints and stamps the verdict into
/// `report`, and writes it to `--out` (or to `default_out` when no
/// `--out` was given). Returns the process exit code — nonzero on any
/// failure, including a report that could not be written.
fn finish(
    args: &Args,
    mode: &str,
    failures: &[String],
    mut report: Vec<(&str, Json)>,
    default_out: &str,
) -> i32 {
    let tag = mode.to_uppercase();
    for f in failures {
        eprintln!("loadgen: {tag} FAILURE: {f}");
    }
    let verdict = if failures.is_empty() { "OK" } else { "FAILED" };
    println!("{mode} verdict = {verdict}");
    report.push(("verdict", Json::Str(verdict.to_string())));
    let pretty = serde_json::to_string_pretty(&obj(report)).expect("report serialize");
    let out = args.out.as_deref().unwrap_or(default_out);
    match std::fs::write(out, pretty + "\n") {
        Ok(()) => {
            eprintln!("loadgen: wrote {out}");
            i32::from(!failures.is_empty())
        }
        Err(e) => {
            eprintln!("loadgen: {tag} FAILURE: cannot write {out}: {e}");
            1
        }
    }
}

/// Sums every sample of one exactly-named Prometheus family (bare or
/// labelled) in exposition text.
fn scraped_family_sum(metrics_text: &str, family: &str) -> u64 {
    metrics_text
        .lines()
        .filter(|l| !l.starts_with('#') && l.starts_with(family))
        .filter(|l| matches!(l.as_bytes().get(family.len()), Some(b'{') | Some(b' ')))
        .filter_map(|l| l.rsplit_once(' '))
        .filter_map(|(_, v)| v.parse::<f64>().ok())
        .sum::<f64>() as u64
}

/// Duplicates events in bursts according to the plan's flood stream —
/// the overload traffic shape. The laced trace is what both the server
/// and the oracle replay see, so isolation checks stay exact.
fn lace_with_floods(trace: &Trace, plan: &FaultPlan, id: u64) -> Trace {
    use rand::Rng;
    if plan.flood <= 0.0 || plan.flood_len == 0 {
        return trace.clone();
    }
    let mut rng = plan.rng(elm_environment::fault::STREAM_FLOOD, id);
    let mut out = Trace::new();
    for e in &trace.events {
        out.events.push(e.clone());
        if rng.gen_bool(plan.flood) {
            for _ in 0..plan.flood_len {
                out.events.push(e.clone());
            }
        }
    }
    out
}

/// `count` scenarios with pairwise distinct sources, drawn from
/// consecutive seeds starting at `seed` (consecutive seeds occasionally
/// collide on tiny shapes).
fn distinct_scenarios(
    generator: &Generator,
    seed: u64,
    count: usize,
    events: usize,
) -> Vec<Scenario> {
    let mut seen = BTreeSet::new();
    (seed..)
        .map(|s| generator.scenario(s, events))
        .filter(|s| seen.insert(s.source.clone()))
        .take(count)
        .collect()
}

/// Polls until `session`'s ingress queue is empty.
fn wait_drained(server: &Server, session: u64) -> Result<(), String> {
    loop {
        match server.query(session) {
            Ok(q) if q.queue_len == 0 => return Ok(()),
            Ok(_) => thread::sleep(Duration::from_millis(1)),
            Err(e) => return Err(format!("session {session}: drain query failed: {e}")),
        }
    }
}

/// Batches `trace` into an in-process session and waits for it to drain.
fn feed_and_drain(server: &Server, session: u64, trace: &Trace) -> Result<(), String> {
    let events: Vec<(String, PlainValue)> = trace
        .events
        .iter()
        .map(|e| (e.input.clone(), e.value.clone()))
        .collect();
    for chunk in events.chunks(BATCH) {
        server
            .batch(session, chunk)
            .map_err(|e| format!("session {session}: batch failed: {e}"))?;
    }
    wait_drained(server, session)
}

/// A real `elm-server` peer group for the `--cluster` / `--partition`
/// harnesses: reserved loopback ports and one child process per peer,
/// all killed when the group drops — on every exit path, so an early
/// error never orphans children that hold their ports.
struct PeerGroup {
    addrs: Vec<String>,
    socks: Vec<SocketAddr>,
    children: Vec<Option<Child>>,
    /// When the children were spawned: the clock their fault windows
    /// run on.
    spawned: Instant,
}

impl PeerGroup {
    /// Spawns [`PEERS`] `elm-server` children from this executable's
    /// directory with the common cluster flags plus `extra`, and waits
    /// until each accepts connections.
    fn spawn(snapshot_interval: u64, extra: &[String]) -> Result<PeerGroup, String> {
        let bin = std::env::current_exe()
            .map_err(|e| format!("cannot locate own executable: {e}"))?
            .with_file_name("elm-server");
        if !bin.exists() {
            return Err(format!(
                "elm-server binary not found at {} (build the workspace first)",
                bin.display()
            ));
        }
        let addrs: Vec<String> = (0..PEERS)
            .map(|_| {
                let l = TcpListener::bind("127.0.0.1:0").expect("reserve a port");
                l.local_addr().expect("reserved addr").to_string()
            })
            .collect();
        let peer_list = addrs.join(",");
        let mut group = PeerGroup {
            socks: addrs
                .iter()
                .map(|a| a.parse().expect("addr parses"))
                .collect(),
            addrs,
            children: Vec::with_capacity(PEERS),
            spawned: Instant::now(),
        };
        for id in 0..PEERS {
            let child = Command::new(&bin)
                .args(["--peer-id", &id.to_string(), "--peers", &peer_list])
                .args(["--heartbeat-ms", "50", "--takeover-ms", "500"])
                .args(["--snapshot-interval", &snapshot_interval.to_string()])
                .args(extra)
                .stdout(Stdio::null())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| format!("cannot spawn peer {id}: {e}"))?;
            group.children.push(Some(child));
        }
        let deadline = Instant::now() + Duration::from_secs(15);
        for (i, addr) in group.socks.iter().enumerate() {
            while let Err(e) = TcpStream::connect(addr) {
                if Instant::now() > deadline {
                    return Err(format!("peer {i} never came up on {addr}: {e}"));
                }
                thread::sleep(Duration::from_millis(25));
            }
        }
        Ok(group)
    }

    /// Connection order for a session placed on `primary`: the primary
    /// first, the rest in index order as fallbacks.
    fn route(&self, primary: usize) -> Vec<SocketAddr> {
        let mut peers = vec![self.socks[primary]];
        peers.extend((0..PEERS).filter(|&p| p != primary).map(|p| self.socks[p]));
        peers
    }

    /// One plain client per peer in `which`; an unreachable peer is a
    /// failure.
    fn clients(
        &self,
        which: impl Iterator<Item = usize>,
        seed: u64,
        failures: &mut Vec<String>,
    ) -> Vec<(usize, Client)> {
        which
            .filter_map(|p| match Client::connect(self.socks[p], seed ^ p as u64) {
                Ok(c) => Some((p, c)),
                Err(e) => {
                    failures.push(format!("peer {p} unreachable: {e}"));
                    None
                }
            })
            .collect()
    }
}

impl Drop for PeerGroup {
    fn drop(&mut self) {
        for mut child in self.children.iter_mut().filter_map(Option::take) {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One keyed session of a peer-group run.
struct Keyed {
    /// Ad-hoc program source; `None` hosts the `dashboard` builtin.
    source: Option<String>,
    /// The trace pre-filtered to declared inputs, so event index `i`
    /// carries sequence number `i + 1`.
    events: Vec<TraceEvent>,
    /// The governed synchronous replay's final value.
    want: PlainValue,
}

/// The sessions of a peer-group run: `dashboard` over simulator traces,
/// or with `synthesized` distinct benign `elm-synth` programs (a hostile
/// fuel bomb's wall-clock traps would not replay deterministically
/// across a failover). The oracle runs under the budgets the children
/// apply (`SessionConfig::default()`): deterministic fuel/alloc/depth, no
/// wall-clock deadline.
fn keyed_sessions(
    seed: u64,
    sessions: usize,
    events: usize,
    synthesized: bool,
) -> Result<Vec<Keyed>, String> {
    let registry = Registry::standard();
    let keyed = |source: Option<String>, trace: &Trace| -> Result<Keyed, String> {
        let spec = match &source {
            Some(src) => ProgramSpec::Source(src),
            None => ProgramSpec::Builtin("dashboard"),
        };
        let (_, graph) = registry
            .resolve(spec)
            .map_err(|e| format!("program rejected: {e}\n{}", source.as_deref().unwrap_or("")))?;
        let events: Vec<TraceEvent> = trace
            .events
            .iter()
            .filter(|e| graph.input_named(&e.input).is_some())
            .cloned()
            .collect();
        let want = replay(&graph, &events, Some(EventLimits::default()));
        Ok(Keyed {
            source,
            events,
            want,
        })
    };
    if !synthesized {
        return Simulator::fan_out(seed, sessions, events)
            .iter()
            .map(|t| keyed(None, t))
            .collect();
    }
    let generator = Generator::new(GenConfig {
        hostile: 0.0,
        ..GenConfig::default()
    });
    distinct_scenarios(&generator, seed, sessions, events)
        .into_iter()
        .map(|s| keyed(Some(s.source), &s.trace))
        .collect()
}

/// Rendezvous placement of sessions `0..sessions` over the group, plus
/// the busiest primary (the run's victim) and its session count.
fn placement(sessions: usize) -> (Vec<usize>, usize, usize) {
    let placement: Vec<usize> = (0..sessions as u64).map(|k| place(k, PEERS).0).collect();
    let mut counts = [0usize; PEERS];
    for &p in &placement {
        counts[p] += 1;
    }
    let victim = (0..PEERS).max_by_key(|&p| counts[p]).expect("peers");
    (placement, victim, counts[victim])
}

/// Opens every session, keyed by its index, at its placement primary.
fn open_keyed(
    group: &PeerGroup,
    placement: &[usize],
    keyed: &[Keyed],
    seed: u64,
) -> Result<(), String> {
    let mut openers = Vec::with_capacity(PEERS);
    for (p, sock) in group.socks.iter().enumerate() {
        let c = Client::connect(*sock, seed ^ p as u64)
            .map_err(|e| format!("cannot connect to peer {p}: {e}"))?;
        openers.push(c);
    }
    for (k, s) in keyed.iter().enumerate() {
        let (field, program) = match &s.source {
            Some(src) => ("source", src.as_str()),
            None => ("program", "dashboard"),
        };
        let line = serde_json::to_string(&obj([
            ("cmd", Json::Str("open".to_string())),
            ("session", Json::U64(k as u64)),
            (field, Json::Str(program.to_string())),
        ]))
        .expect("open line renders");
        let reply = openers[placement[k]]
            .request(&line)
            .map_err(|e| format!("open of session {k} failed: {e}"))?;
        if !matches!(reply.get("ok"), Some(Json::Bool(true)))
            || reply.get("session").and_then(jnum) != Some(k as u64)
        {
            return Err(format!("keyed open of session {k} refused: {reply:?}"));
        }
    }
    Ok(())
}

/// What one session driver saw while riding a failover.
struct SessionOut {
    value: PlainValue,
    last_seq: u64,
    moves: u64,
    reconnects: u64,
    resyncs: u64,
    stale_epochs: u64,
}

/// Drives one keyed session's `events` through a [`ClusterClient`] over
/// `peers` with exactly-once resume. Every event goes out through
/// `request_exact`; any error — an ambiguous transport failure in a kill
/// window, or a typed `epoch_advanced` handoff from a demoted zombie —
/// resynchronizes from the owner's applied `last_seq` and resends from
/// there. Each accepted event bumps `progress`, then waits `pace`. The
/// same rule holds at the end of the stream: a final drained `query`
/// behind the trace at a higher epoch than the driver last witnessed is
/// an adopter that never received the dead primary's acked, unreplicated
/// tail, and the driver resends from its `last_seq`. A shortfall at an
/// unchanged epoch is a lost event and stays one.
fn drive_session(
    sid: u64,
    events: &[TraceEvent],
    peers: Vec<SocketAddr>,
    seed: u64,
    pace: Duration,
    progress: &AtomicU64,
) -> Result<SessionOut, String> {
    let mut client = ClusterClient::new(peers, seed);
    let query_line = format!("{{\"cmd\":\"query\",\"session\":{sid}}}");
    // Queries are idempotent; poll until the ingress queue is drained and
    // the reply carries the applied high-water mark.
    let drained = |client: &mut ClusterClient| -> Result<(u64, Json), String> {
        loop {
            let r = client
                .request_routed(&query_line, Duration::from_secs(30))
                .map_err(|e| format!("session {sid}: query: {e}"))?;
            if !matches!(r.get("ok"), Some(Json::Bool(true))) {
                return Err(format!("session {sid}: query refused: {r:?}"));
            }
            if r.get("queue_len").and_then(jnum) == Some(0) {
                let last = r.get("last_seq").and_then(jnum);
                let last = last.ok_or_else(|| format!("session {sid}: reply lacks last_seq"))?;
                return Ok((last, r));
            }
            thread::sleep(Duration::from_millis(5));
        }
    };
    // Witness the owner's epoch up front: a demotion's higher-epoch
    // redirect is only detectable against it.
    drained(&mut client)?;
    let mut resyncs = 0u64;
    let mut i = 0usize;
    let (last_seq, r) = loop {
        while i < events.len() {
            let e = &events[i];
            // The trace id encodes (session, event index) recoverably: a
            // resend after a resync reuses the SAME id, so the event keeps one
            // identity across the failover.
            let trace_id = ((sid + 1) << 20) | (i as u64 + 1);
            let line = serde_json::to_string(&obj([
                ("cmd", Json::Str("event".to_string())),
                ("session", Json::U64(sid)),
                ("input", Json::Str(e.input.clone())),
                (
                    "value",
                    serde_json::to_value(&e.value).expect("plain value serializes"),
                ),
                ("trace", Json::U64(trace_id)),
            ]))
            .expect("event line renders");
            match client.request_exact(&line, Duration::from_secs(20)) {
                Ok(reply) if matches!(reply.get("ok"), Some(Json::Bool(true))) => {
                    i += 1;
                    progress.fetch_add(1, Ordering::Relaxed);
                    if !pace.is_zero() {
                        thread::sleep(pace);
                    }
                }
                Ok(reply) => return Err(format!("session {sid}: event {i} refused: {reply:?}")),
                Err(_) => {
                    // Either the in-flight event may or may not have landed,
                    // or ownership moved under the stream and the adopter's
                    // history is shorter than what the old owner was fed.
                    // Resume exactly once from the owner's high-water mark; a
                    // zombie-applied suffix replays into the surviving
                    // lineage.
                    i = drained(&mut client)?.0 as usize;
                    resyncs += 1;
                }
            }
        }
        let witnessed = client.witnessed_epoch(sid);
        let (last_seq, r) = drained(&mut client)?;
        let epoch = r.get("epoch").and_then(jnum).unwrap_or(0);
        if (last_seq as usize) < events.len() && epoch > witnessed {
            i = last_seq as usize;
            resyncs += 1;
            continue;
        }
        break (last_seq, r);
    };
    let value = r
        .get("value")
        .cloned()
        .ok_or_else(|| format!("session {sid}: reply lacks value"))?;
    let value = serde_json::from_value::<PlainValue>(value)
        .map_err(|e| format!("session {sid}: unparseable final value: {e}"))?;
    Ok(SessionOut {
        value,
        last_seq,
        moves: client.moves(),
        reconnects: client.reconnects(),
        resyncs,
        stale_epochs: client.stale_epochs(),
    })
}

/// Runs one [`drive_session`] thread per keyed session; a driver that
/// errs or panics leaves `None` and a failure.
fn drive_all(
    group: &PeerGroup,
    placement: &[usize],
    keyed: &[Keyed],
    seed: u64,
    pace: Duration,
    progress: &AtomicU64,
    failures: &mut Vec<String>,
) -> Vec<Option<SessionOut>> {
    thread::scope(|s| {
        let drivers: Vec<_> = keyed
            .iter()
            .enumerate()
            .map(|(k, session)| {
                let peers = group.route(placement[k]);
                let seed = seed ^ (k as u64).wrapping_mul(0x9e37_79b9);
                s.spawn(move || {
                    drive_session(k as u64, &session.events, peers, seed, pace, progress)
                })
            })
            .collect();
        drivers
            .into_iter()
            .enumerate()
            .map(|(k, d)| match d.join() {
                Ok(Ok(o)) => Some(o),
                Ok(Err(e)) => {
                    failures.push(e);
                    None
                }
                Err(_) => {
                    failures.push(format!("session {k}: driver panicked"));
                    None
                }
            })
            .collect()
    })
}

/// Every driven session applied its whole trace, and its final value is
/// byte-identical to the governed replay. `lost` names what happened to
/// the victim's sessions in the failure text.
fn check_finals(
    keyed: &[Keyed],
    outs: &[Option<SessionOut>],
    placement: &[usize],
    victim: usize,
    lost: &str,
    failures: &mut Vec<String>,
) {
    let render = |v: &PlainValue| {
        serde_json::to_string(&serde_json::to_value(v).expect("plain value")).expect("renders")
    };
    for (k, (s, o)) in keyed.iter().zip(outs).enumerate() {
        let Some(o) = o else { continue };
        if o.last_seq != s.events.len() as u64 {
            failures.push(format!(
                "session {k}: applied {} of {} events",
                o.last_seq,
                s.events.len()
            ));
        }
        let (live, want) = (render(&o.value), render(&s.want));
        if live != want {
            let tag = if placement[k] == victim {
                format!(" ({lost})")
            } else {
                String::new()
            };
            failures.push(format!(
                "session {k}{tag}: final output diverged from the governed replay: \
                 live {live} != replay {want}"
            ));
        }
    }
}

/// Fetches one text verb from every client; a failed fetch is a failure.
fn fetch_texts(
    clients: &mut [(usize, Client)],
    verb: fn(&mut Client) -> std::io::Result<String>,
    what: &str,
    failures: &mut Vec<String>,
) -> Vec<(usize, String)> {
    clients
        .iter_mut()
        .filter_map(|(p, c)| match verb(c) {
            Ok(text) => Some((*p, text)),
            Err(e) => {
                failures.push(format!("{what} fetch on peer {p}: {e}"));
                None
            }
        })
        .collect()
}

/// The families the cluster verdict sums over the per-peer scrapes and
/// compares, exactly, with the federated scrape.
const FEDERATED_SUMS: [&str; 5] = [
    "elm_events_total",
    "elm_journal_appends_total",
    "elm_snapshots_total",
    "elm_cluster_takeovers_total",
    "elm_cluster_journal_replicated_total",
];

/// Every client's `metrics` once the [`FEDERATED_SUMS`] stop moving. A
/// shard counts replication lines as replicated only when it queues them
/// on a link, up to one group-commit tick after the pump that staged
/// them, so the drivers' last pumps still move these families for a few
/// milliseconds after every driver has quiesced. Scrapes repeat until two
/// of them, 50 ms apart, agree (for at most 5 s; the verdict then judges
/// the last one).
fn settled_metrics(
    clients: &mut [(usize, Client)],
    failures: &mut Vec<String>,
) -> Vec<(usize, String)> {
    let sums = |texts: &[(usize, String)]| -> Vec<u64> {
        FEDERATED_SUMS
            .iter()
            .map(|name| texts.iter().map(|(_, t)| scraped_family_sum(t, name)).sum())
            .collect()
    };
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut texts = fetch_texts(clients, Client::metrics_text, "metrics", failures);
    loop {
        thread::sleep(Duration::from_millis(50));
        let mut errors = Vec::new();
        let next = fetch_texts(clients, Client::metrics_text, "metrics", &mut errors);
        let settled = errors.is_empty() && sums(&next) == sums(&texts);
        if settled || !errors.is_empty() || Instant::now() >= deadline {
            failures.extend(errors);
            return next;
        }
        texts = next;
    }
}

/// The cluster-federated scrape through the first client: it must carry
/// every `needles` sample prefix, and lands in `path`. Empty when no
/// scrape came back.
fn federated_scrape(
    clients: &mut [(usize, Client)],
    needles: &[&str],
    path: &str,
    failures: &mut Vec<String>,
) -> String {
    let text = match clients.first_mut().map(|(_, c)| c.metrics_text_cluster()) {
        Some(Ok(text)) => text,
        Some(Err(e)) => {
            failures.push(format!("federated metrics scrape: {e}"));
            return String::new();
        }
        None => {
            failures.push("no peer available for the federated scrape".to_string());
            return String::new();
        }
    };
    for needle in needles.iter().filter(|n| !text.contains(*n)) {
        failures.push(format!("federated scrape lacks {needle}...}} samples"));
    }
    write_artifact(path, text.clone(), failures);
    text
}

/// Asks every client about session `k`: returns the peers serving it and
/// the `(peer, target)` of each typed `moved` redirect. Anything else is
/// a failure.
fn who_serves(
    clients: &mut [(usize, Client)],
    k: usize,
    failures: &mut Vec<String>,
) -> (Vec<usize>, Vec<(usize, String)>) {
    let (mut served, mut moved) = (Vec::new(), Vec::new());
    for (p, c) in clients.iter_mut() {
        match c.query(k as u64) {
            Ok(reply) if matches!(reply.get("ok"), Some(Json::Bool(true))) => served.push(*p),
            Ok(reply) if reply.get("error").and_then(Json::as_str) == Some("moved") => {
                let to = reply.get("peer").and_then(Json::as_str).unwrap_or("");
                moved.push((*p, to.to_string()));
            }
            Ok(reply) => failures.push(format!(
                "session {k}: peer {p} gave neither value nor redirect: {reply:?}"
            )),
            Err(e) => failures.push(format!("session {k}: query on peer {p}: {e}")),
        }
    }
    (served, moved)
}

/// On any verdict failure, preserves every fetched flight recorder for
/// the post-mortem.
fn preserve_blackboxes(mode: &str, texts: &[(usize, String)], failures: &[String]) {
    if failures.is_empty() {
        return;
    }
    for (p, text) in texts {
        let path = format!("BLACKBOX_{mode}_failure_peer{p}.ndjson");
        if std::fs::write(&path, text).is_ok() {
            eprintln!("loadgen: preserved flight recorder in {path}");
        }
    }
}

/// The `--fleet` harness: a scenario fleet of distinct synthesized FElm
/// programs hosted concurrently under a merged chaos + flood fault plan.
///
/// Per scenario it checks: the temporal property from `elm-synth`'s
/// oracle on a budget-governed synchronous replay, the live session's
/// final value against that replay (scheduler equivalence), a `describe`
/// round-trip (source + graph fingerprint + declared inputs), and that
/// the subscription stream ends with exactly one `Closed` and nothing
/// after it. Fleet-wide it requires chaos recoveries to have fired and
/// all succeeded, flood lacing to have been active, and — as a mutation
/// test of the oracle itself — a planted `CountUp -> +2` miscompilation
/// to be caught and shrunk to a minimal program + trace repro.
fn run_fleet(args: &Args) -> Result<i32, String> {
    use elm_synth::{
        check_property, run_local, shrink, FleetMetrics, ProgramIr, Property, HOSTILE_TRIGGER,
    };

    let programs = args.fleet_programs.max(1);
    let events = args.events.min(200);
    let plan = FaultPlan::chaos(args.seed).merge(&FaultPlan::flood(args.seed));
    let limits = GOVERNED;
    eprintln!(
        "loadgen: FLEET {} distinct synthesized programs x {} events each, chaos+flood, seed {}",
        programs, events, args.seed
    );

    let generator = Generator::new(GenConfig {
        hostile: 0.12,
        counter_shape: 0.25,
        ..GenConfig::default()
    });
    let scenarios = distinct_scenarios(&generator, args.seed, programs, events);
    let laced: Vec<Trace> = scenarios
        .iter()
        .enumerate()
        .map(|(i, s)| lace_with_floods(&s.trace, &plan, i as u64))
        .collect();
    let base_events: u64 = scenarios.iter().map(|s| s.trace.events.len() as u64).sum();
    let driven_events: u64 = laced.iter().map(|t| t.events.len() as u64).sum();
    let hostile_programs = scenarios.iter().filter(|s| s.ir.is_hostile()).count();
    let hostile_triggers: u64 = scenarios
        .iter()
        .enumerate()
        .filter(|(_, s)| s.ir.is_hostile())
        .map(|(i, _)| {
            laced[i]
                .events
                .iter()
                .filter(|e| e.value == PlainValue::Int(HOSTILE_TRIGGER))
                .count() as u64
        })
        .sum();

    let metrics = FleetMetrics::new();
    let mut failures: Vec<String> = Vec::new();
    if driven_events <= base_events {
        failures.push("flood lacing never fired (overload inactive)".to_string());
    }

    let server = Server::start(ServerConfig {
        shards: args.shards,
        session: SessionConfig {
            snapshot_interval: args.snapshot_interval.max(1),
            journal_segment: args.snapshot_interval.max(1) as usize,
            restart: RestartPolicy {
                max_restarts: 100_000,
                ..RestartPolicy::default()
            },
            faults: plan,
            limits: Some(limits),
            // Wall-clock deadlines would trap nondeterministically and
            // break the replay oracle; fuel/alloc/depth budgets alone.
            event_timeout: None,
            ..SessionConfig::default()
        },
        idle_timeout: None,
        admission: AdmissionConfig::default(),
    });

    let mut session_ids = Vec::with_capacity(programs);
    let mut subs = Vec::with_capacity(programs);
    for (i, s) in scenarios.iter().enumerate() {
        metrics.host(&s.shape);
        let info = server
            .open(ProgramSpec::Source(&s.source), None, None, false)
            .map_err(|e| {
                format!(
                    "open failed for scenario {i} (seed {}): {e}\n{}",
                    s.seed, s.source
                )
            })?;
        let rx = server
            .subscribe(info.session)
            .map_err(|e| format!("subscribe failed for session {}: {e}", info.session))?;
        session_ids.push(info.session);
        subs.push(rx);
    }

    // Concurrent ingest across a bounded worker pool: each worker claims
    // the next un-driven scenario, batches its laced trace in, and waits
    // for the session's queue to drain.
    let started = Instant::now();
    let next = AtomicUsize::new(0);
    thread::scope(|scope| {
        let workers: Vec<_> = (0..programs.min(32))
            .map(|_| {
                scope.spawn(|| {
                    let mut errs = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&session) = session_ids.get(i) else {
                            break errs;
                        };
                        if let Err(e) = feed_and_drain(&server, session, &laced[i]) {
                            errs.push(e);
                        }
                    }
                })
            })
            .collect();
        for w in workers {
            failures.extend(w.join().expect("fleet driver thread"));
        }
    });
    let elapsed = started.elapsed();

    // Pass 1 — judge every live session: governed replay oracle, property
    // check, describe round-trip, and per-shape latency.
    #[derive(Default)]
    struct ShapeAgg {
        programs: u64,
        driven_events: u64,
        output_changes: u64,
        traps: u64,
        latency_p99_max_us: u64,
        latency_samples: u64,
    }
    // A property check, counted in the fleet metrics; `Some(why)` on a
    // violation. The liveness rider for counting shapes: the output
    // stream must track the applied count within the failover deadline.
    let judge = |property: Property, outputs: &[i64], final_value: i64, trace: &Trace| {
        let verdict = check_property(property, outputs, final_value, trace);
        match verdict {
            Ok(()) => metrics.checks_passed.inc(),
            Err(_) => metrics.checks_failed.inc(),
        }
        verdict.err()
    };
    const LIVENESS: Property = Property::BoundedResponse { deadline_events: 8 };
    let mut shapes: BTreeMap<String, ShapeAgg> = BTreeMap::new();
    let mut finals: Vec<Option<i64>> = vec![None; programs];
    for (i, s) in scenarios.iter().enumerate() {
        let session = session_ids[i];
        let trace = &laced[i];
        // The budget-governed synchronous replay is both the
        // scheduler-equivalence oracle and the stream the temporal
        // property is judged on.
        let local = match run_local(&s.source, trace, limits) {
            Ok(r) => r,
            Err(e) => {
                failures.push(format!(
                    "scenario {i} (seed {}): governed replay failed: {e}",
                    s.seed
                ));
                continue;
            }
        };
        metrics.traps.add(local.traps.len() as u64);
        finals[i] = Some(local.final_value);

        match server.query(session) {
            Ok(q) => {
                if q.value != PlainValue::Int(local.final_value) {
                    metrics.divergences.inc();
                    failures.push(format!(
                        "scenario {i} (seed {}, shape {}): served {:?} diverged from \
                         governed synchronous replay Int({})",
                        s.seed, s.shape, q.value, local.final_value
                    ));
                }
            }
            Err(e) => failures.push(format!("scenario {i}: final query failed: {e}")),
        }

        if let Some(why) = judge(s.property, &local.outputs, local.final_value, trace) {
            // A real violation: shrink it so the verdict carries a
            // minimal repro, not a 200-event haystack.
            let fails = |ir: &ProgramIr, t: &Trace| {
                run_local(&ir.render(), t, limits)
                    .map(|r| check_property(ir.property(), &r.outputs, r.final_value, t).is_err())
                    .unwrap_or(false)
            };
            let small = shrink(&s.ir, trace, fails, 2_000);
            metrics.shrink_attempts.add(small.attempts);
            failures.push(format!(
                "scenario {i} (seed {}, shape {}, property {}): VIOLATED: {why}; \
                     shrunk to {} node(s) / {} event(s):\n{}",
                s.seed,
                s.shape,
                s.property.name(),
                small.ir.nodes.len(),
                small.trace.events.len(),
                small.ir.render()
            ));
        }

        // Liveness on the governed replay's own stream is trivially true,
        // so it guards the checker itself against regressions; the
        // observed-stream check in pass 2 is the one that bites.
        if matches!(s.property, Property::ExactCount) {
            if let Some(why) = judge(LIVENESS, &local.outputs, local.final_value, trace) {
                failures.push(format!(
                    "scenario {i} (seed {}): bounded_response on replay stream: {why}",
                    s.seed
                ));
            }
        }

        match server.describe(session) {
            Ok(info) => {
                if info.source.as_deref() != Some(s.source.as_str()) {
                    failures.push(format!(
                        "scenario {i}: describe returned a different source"
                    ));
                }
                match server
                    .registry()
                    .resolve_with_source(ProgramSpec::Source(&s.source))
                {
                    Ok((_, graph, _)) => {
                        if info.fingerprint != graph.fingerprint() {
                            failures.push(format!(
                                "scenario {i}: describe fingerprint {} != recompiled {}",
                                info.fingerprint,
                                graph.fingerprint()
                            ));
                        }
                    }
                    Err(e) => failures.push(format!("scenario {i}: re-resolve failed: {e}")),
                }
                let mut want: Vec<String> = s.ir.inputs().iter().map(|n| n.to_string()).collect();
                let mut got = info.inputs.clone();
                want.sort();
                got.sort();
                if got != want {
                    failures.push(format!(
                        "scenario {i}: describe inputs {got:?} != declared {want:?}"
                    ));
                }
            }
            Err(e) => failures.push(format!("scenario {i}: describe failed: {e}")),
        }

        let agg = shapes.entry(s.shape.clone()).or_default();
        agg.programs += 1;
        agg.driven_events += trace.events.len() as u64;
        agg.traps += local.traps.len() as u64;
        match server.session_stats(session) {
            Ok(st) => {
                agg.latency_p99_max_us = agg.latency_p99_max_us.max(st.latency.p99_us);
                agg.latency_samples += st.latency.count;
            }
            Err(e) => failures.push(format!("scenario {i}: session stats failed: {e}")),
        }
    }

    // Fleet-wide recovery / fault-coverage verdicts, taken while every
    // session is still live (closing drops their recovery counters).
    let (global, _) = server.stats();
    if global.recovery_failed > 0 {
        failures.push(format!(
            "{} session(s) failed recovery under the merged fault plan",
            global.recovery_failed
        ));
    }
    if global.recovery.restarts == 0 {
        failures.push("chaos crashes never forced a recovery".to_string());
    }
    if hostile_programs == 0 {
        failures.push("fleet hosted no hostile fuel profiles".to_string());
    }
    // A hostile fold behind a value-transforming lift never sees the raw
    // trigger, so per-program trap parity is not a theorem; but across
    // enough hostile programs *some* fold sits on a pass-through subtree.
    if hostile_programs >= 16 && hostile_triggers > 0 && metrics.traps.get() == 0 {
        failures.push(format!(
            "{hostile_triggers} hostile trigger events produced zero governor traps"
        ));
    }

    // Pass 2 — close every session and check closure semantics on its
    // subscription stream: all Changed updates precede exactly one
    // Closed, the close reason is clean, and the last observed value
    // agrees with the replay oracle.
    for (i, s) in scenarios.iter().enumerate() {
        let session = session_ids[i];
        if let Err(e) = server.close(session) {
            failures.push(format!("scenario {i}: close failed: {e}"));
        }
        let mut changes = 0u64;
        let mut observed: Vec<i64> = Vec::new();
        let mut last_change: Option<PlainValue> = None;
        let mut closed: Option<String> = None;
        loop {
            match subs[i].recv_timeout(Duration::from_secs(30)) {
                Ok(Update::Changed { value, .. }) => {
                    if closed.is_some() {
                        failures.push(format!("scenario {i}: output after Closed"));
                    }
                    changes += 1;
                    if let PlainValue::Int(v) = value {
                        observed.push(v);
                    }
                    last_change = Some(value);
                }
                Ok(Update::Closed { reason, .. }) => {
                    if closed.is_some() {
                        failures.push(format!("scenario {i}: duplicate Closed"));
                    }
                    closed = Some(reason);
                }
                Ok(Update::Moved { peer, .. }) => {
                    // A single-process fleet has no peers; a redirect
                    // here means the cluster layer misfired.
                    failures.push(format!("scenario {i}: unexpected moved redirect to {peer}"));
                    closed = Some("moved".to_string());
                }
                Err(_) => break,
            }
        }
        match closed.as_deref() {
            None => failures.push(format!("scenario {i}: subscription never saw Closed")),
            Some("recovery_failed") => {
                failures.push(format!("scenario {i}: closed by failed recovery"))
            }
            Some(_) => {}
        }
        if let (Some(final_value), Some(last)) = (finals[i], last_change) {
            if last != PlainValue::Int(final_value) {
                failures.push(format!(
                    "scenario {i}: last streamed value {last:?} != replay final Int({final_value})"
                ));
            }
        }
        // Satellite liveness oracle: the *observed* subscriber stream of
        // a counting shape must track the applied count within the
        // bounded-response deadline — the stream may coalesce but must
        // not silently fall ever further behind.
        if let (Property::ExactCount, Some(final_value)) = (s.property, finals[i]) {
            if let Some(why) = judge(LIVENESS, &observed, final_value, &laced[i]) {
                failures.push(format!(
                    "scenario {i} (seed {}): bounded_response on observed stream: {why}",
                    s.seed
                ));
            }
        }
        if let Some(agg) = shapes.get_mut(&s.shape) {
            agg.output_changes += changes;
        }
    }

    // Mutation-tested oracle: miscompile a counter (`CountUp` -> `+2`),
    // require the property checker to catch it, and shrink the failing
    // pair to the canonical minimal repro.
    let mutation_generator = Generator::new(GenConfig {
        counter_shape: 1.0,
        ..GenConfig::default()
    });
    let planted = mutation_generator.scenario(args.seed ^ 0x6d75_7461, 48);
    let mut mutation = obj([("caught", Json::Bool(false))]);
    let mutated = planted
        .ir
        .render_mutated()
        .expect("counter shape always has a CountUp fold");
    match run_local(&mutated, &planted.trace, limits) {
        Ok(run) => {
            if check_property(
                planted.property,
                &run.outputs,
                run.final_value,
                &planted.trace,
            )
            .is_ok()
            {
                failures.push("planted oracle mutation was NOT caught".to_string());
            } else {
                let fails = |ir: &ProgramIr, t: &Trace| {
                    ir.render_mutated()
                        .and_then(|src| run_local(&src, t, limits).ok())
                        .map(|r| {
                            check_property(Property::ExactCount, &r.outputs, r.final_value, t)
                                .is_err()
                        })
                        .unwrap_or(false)
                };
                let small = shrink(&planted.ir, &planted.trace, fails, 4_000);
                metrics.shrink_attempts.add(small.attempts);
                let repro = small.ir.render_mutated().unwrap_or_default();
                println!(
                    "mutation oracle: planted CountUp->+2 violation caught; shrunk to \
                     {} node(s) / {} event(s) in {} attempt(s):",
                    small.ir.nodes.len(),
                    small.trace.events.len(),
                    small.attempts
                );
                for line in repro.lines() {
                    println!("    {line}");
                }
                if small.ir.nodes.len() != 2 || small.trace.events.len() != 1 {
                    failures.push(format!(
                        "mutation repro not minimal: {} node(s) / {} event(s)",
                        small.ir.nodes.len(),
                        small.trace.events.len()
                    ));
                }
                mutation = obj([
                    ("caught", Json::Bool(true)),
                    ("repro_nodes", Json::U64(small.ir.nodes.len() as u64)),
                    ("repro_events", Json::U64(small.trace.events.len() as u64)),
                    ("shrink_attempts", Json::U64(small.attempts)),
                    ("repro_source", Json::Str(repro)),
                ]);
            }
        }
        Err(e) => failures.push(format!("mutated counter failed to run: {e}")),
    }

    // The fleet families render through the shared metrics registry and
    // append onto the server's own Prometheus scrape.
    let scrape = server.metrics_text() + &metrics.render();
    for family in [
        "elm_fleet_programs_hosted_total",
        "elm_fleet_property_checks_total",
        "elm_fleet_shrink_attempts_total",
        "elm_fleet_scheduler_divergences_total",
        "elm_fleet_governor_traps_total",
    ] {
        if !scrape.contains(family) {
            failures.push(format!("scrape is missing the {family} family"));
        }
    }
    if scraped_family_sum(&scrape, "elm_fleet_programs_hosted_total") != programs as u64 {
        failures.push("scraped hosted-programs total disagrees with the fleet size".to_string());
    }
    write_artifact("BENCH_fleet_metrics.prom", scrape, &mut failures);

    println!(
        "fleet: {} programs ({} shapes, {} hostile) x {} base events ({} after flood lacing), \
         {:.2}s, {:.0} events/sec",
        programs,
        shapes.len(),
        hostile_programs,
        base_events,
        driven_events,
        elapsed.as_secs_f64(),
        driven_events as f64 / elapsed.as_secs_f64()
    );
    println!(
        "fleet checks: {} passed, {} failed, {} divergences, {} traps, {} restarts, \
         {} recovery failures",
        metrics.checks_passed.get(),
        metrics.checks_failed.get(),
        metrics.divergences.get(),
        metrics.traps.get(),
        global.recovery.restarts,
        global.recovery_failed
    );

    let shapes_json = obj(shapes.iter().map(|(shape, a)| {
        (
            shape.as_str(),
            obj([
                ("programs", Json::U64(a.programs)),
                ("driven_events", Json::U64(a.driven_events)),
                (
                    "events_per_sec",
                    Json::F64(a.driven_events as f64 / elapsed.as_secs_f64()),
                ),
                ("output_changes", Json::U64(a.output_changes)),
                ("traps", Json::U64(a.traps)),
                ("latency_p99_max_us", Json::U64(a.latency_p99_max_us)),
                ("latency_samples", Json::U64(a.latency_samples)),
            ]),
        )
    }));
    let report = vec![
        ("benchmark", Json::Str("server-fleet".to_string())),
        ("programs", Json::U64(programs as u64)),
        ("events_per_program", Json::U64(events as u64)),
        ("base_events", Json::U64(base_events)),
        ("driven_events", Json::U64(driven_events)),
        ("seed", Json::U64(args.seed)),
        ("shards", Json::U64(args.shards as u64)),
        ("elapsed_s", Json::F64(elapsed.as_secs_f64())),
        (
            "events_per_sec",
            Json::F64(driven_events as f64 / elapsed.as_secs_f64()),
        ),
        ("hostile_programs", Json::U64(hostile_programs as u64)),
        ("hostile_triggers", Json::U64(hostile_triggers)),
        ("checks_passed", Json::U64(metrics.checks_passed.get())),
        ("checks_failed", Json::U64(metrics.checks_failed.get())),
        ("divergences", Json::U64(metrics.divergences.get())),
        ("traps", Json::U64(metrics.traps.get())),
        ("restarts", Json::U64(global.recovery.restarts)),
        ("recovery_failed", Json::U64(global.recovery_failed)),
        ("mutation", mutation),
        ("shapes", shapes_json),
        (
            "failures",
            Json::Seq(failures.iter().map(|f| Json::Str(f.clone())).collect()),
        ),
    ];
    Ok(finish(args, "fleet", &failures, report, "BENCH_fleet.json"))
}

/// The `--overload` harness: a deliberately over-driven server with
/// admission control, fueled sessions, hostile builtin programs, and a
/// control-plane liveness probe — all checked against deterministic
/// oracles and the scraped metrics.
fn run_overload(args: &Args) -> Result<i32, String> {
    use elm_environment::fault::STREAM_RUNAWAY;
    use elm_runtime::TrapKind;
    use elm_server::client::RetryStats;
    use elm_server::net::{serve_with, NetConfig};
    use rand::Rng;

    let sessions = args.sessions.clamp(1, 6);
    let events = args.events.min(1_200);
    let governed_events = 300usize;
    let plan = FaultPlan::flood(args.seed);
    eprintln!(
        "loadgen: OVERLOAD {} counter sessions x {} laced events + runaway/membomb x {}, seed {}",
        sessions, events, governed_events, args.seed
    );

    let server = Arc::new(Server::start(ServerConfig {
        shards: 2,
        session: SessionConfig {
            limits: Some(GOVERNED),
            // Wall-clock deadlines would trap nondeterministically and
            // break the replay oracles; the overload run relies on the
            // deterministic fuel/alloc/depth budget alone.
            event_timeout: None,
            ..SessionConfig::default()
        },
        idle_timeout: None,
        admission: AdmissionConfig {
            enabled: true,
            session_events_per_sec: 4_000.0,
            session_burst: 128.0,
            session_cells_per_sec: 40_000_000.0,
            session_cells_burst: 4_000_000.0,
            ..AdmissionConfig::default()
        },
    }));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    {
        let server = Arc::clone(&server);
        thread::spawn(move || serve_with(server, listener, NetConfig::default()));
    }

    let mut failures: Vec<String> = Vec::new();

    // --- data-plane flood through retrying TCP clients ---
    let traces: Vec<Trace> = Simulator::fan_out(args.seed, sessions, events)
        .iter()
        .enumerate()
        .map(|(i, t)| lace_with_floods(t, &plan, i as u64))
        .collect();
    let open = |program: &str| {
        let info = server.open(ProgramSpec::Builtin(program), None, None, false);
        info.unwrap_or_else(|e| panic!("open {program}: {e}"))
            .session
    };
    let counter_ids: Vec<u64> = (0..sessions).map(|_| open("counter")).collect();
    let (runaway_sid, membomb_sid) = (open("runaway"), open("membomb"));

    // Control-plane probe: while the flood runs, stats/query/metrics on
    // a dedicated connection must be answered 100% of the time.
    let stop_probe = Arc::new(AtomicBool::new(false));
    let probe_attempted = Arc::new(AtomicU64::new(0));
    let probe_answered = Arc::new(AtomicU64::new(0));
    let prober = {
        let stop = Arc::clone(&stop_probe);
        let attempted = Arc::clone(&probe_attempted);
        let answered = Arc::clone(&probe_answered);
        let probe_session = counter_ids[0];
        let mut client = Client::connect(addr, args.seed ^ 0xdead).expect("probe connect");
        thread::spawn(move || {
            let verbs = [
                "{\"cmd\":\"stats\"}".to_string(),
                format!("{{\"cmd\":\"query\",\"session\":{probe_session}}}"),
                format!("{{\"cmd\":\"stats\",\"session\":{probe_session}}}"),
            ];
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                attempted.fetch_add(1, Ordering::Relaxed);
                match client.request(&verbs[i % verbs.len()]) {
                    Ok(reply) if matches!(reply.get("ok"), Some(Json::Bool(true))) => {
                        answered.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {}
                }
                i += 1;
                thread::sleep(Duration::from_millis(2));
            }
        })
    };

    // Every driver sends its session's events through a retrying client:
    // the laced counter traces, and for the hostile sessions seeded
    // triggers that flip them into the runaway / allocator-bomb branch
    // (benign events just count).
    let mut streams = Vec::new();
    for (i, (&sid, trace)) in counter_ids.iter().zip(&traces).enumerate() {
        let events = trace.events.iter().map(|e| {
            let value = serde_json::to_value(&e.value).expect("value serializes");
            (
                e.input.clone(),
                serde_json::to_string(&value).expect("value renders"),
            )
        });
        streams.push((sid, args.seed + 1 + i as u64, events.collect::<Vec<_>>()));
    }
    let mut hostile: Vec<(u64, u64)> = Vec::new();
    for (j, sid) in [runaway_sid, membomb_sid].into_iter().enumerate() {
        let mut rng = plan.rng(STREAM_RUNAWAY, j as u64);
        let hot: Vec<bool> = (0..governed_events)
            .map(|_| rng.gen_bool(plan.runaway.max(0.05)))
            .collect();
        let triggers = hot.iter().filter(|&&h| h).count() as u64;
        hostile.push((triggers, governed_events as u64 - triggers));
        let events = hot.iter().map(|&h| {
            let value = if h { "{\"Int\":1}" } else { "{\"Int\":0}" };
            ("Keyboard.lastPressed".to_string(), value.to_string())
        });
        streams.push((sid, args.seed + 1000 + j as u64, events.collect::<Vec<_>>()));
    }
    let started = Instant::now();
    let drivers: Vec<_> = streams
        .into_iter()
        .map(|(sid, seed, events)| {
            thread::spawn(move || -> Result<RetryStats, String> {
                let mut client =
                    Client::connect(addr, seed).map_err(|e| format!("connect: {e}"))?;
                for (input, value) in &events {
                    let reply = client
                        .event(sid, input, value)
                        .map_err(|e| format!("event: {e}"))?;
                    if reply.get("error").is_some() {
                        return Err(format!("event gave up after retries: {reply:?}"));
                    }
                }
                Ok(client.stats())
            })
        })
        .collect();
    let mut retry = RetryStats::default();
    for d in drivers {
        match d.join().expect("driver thread") {
            Ok(s) => {
                retry.requests += s.requests;
                retry.sheds += s.sheds;
                retry.retries += s.retries;
                retry.gave_up += s.gave_up;
            }
            Err(e) => failures.push(format!("driver: {e}")),
        }
    }
    // Drain every queue before judging.
    for &sid in counter_ids.iter().chain(&[runaway_sid, membomb_sid]) {
        wait_drained(&server, sid).expect("drain");
    }
    let elapsed = started.elapsed();
    stop_probe.store(true, Ordering::Relaxed);
    prober.join().expect("prober thread");

    // --- verdict 1: the server stayed live for the control plane ---
    let attempted = probe_attempted.load(Ordering::Relaxed);
    let answered = probe_answered.load(Ordering::Relaxed);
    println!("control-plane probes: {answered}/{attempted} answered during the flood");
    if attempted == 0 || answered != attempted {
        failures.push(format!(
            "control plane dropped probes: {answered}/{attempted} answered"
        ));
    }

    // --- verdict 2: admitted traffic was applied exactly (isolation) ---
    let (_, counter) = server
        .registry()
        .resolve(ProgramSpec::Builtin("counter"))
        .expect("counter builtin");
    let mut mismatches = 0usize;
    for (i, &sid) in counter_ids.iter().enumerate() {
        let served = server.query(sid).expect("final query").value;
        let replayed = replay(&counter, &traces[i].events, Some(GOVERNED));
        if served != replayed {
            mismatches += 1;
            eprintln!(
                "loadgen: OVERLOAD ISOLATION MISMATCH session {sid}: {served:?} != {replayed:?}"
            );
        }
    }
    if mismatches > 0 {
        failures.push(format!(
            "{mismatches} session(s) diverged from governed replay"
        ));
    }
    if retry.gave_up > 0 {
        failures.push(format!(
            "{} request(s) exhausted their retry budget",
            retry.gave_up
        ));
    }
    if retry.sheds == 0 {
        failures.push("the flood never tripped admission control (no sheds seen)".to_string());
    }
    println!(
        "retrying clients: {} requests, {} sheds ridden out, {} retries, {} gave up, {:.2}s",
        retry.requests,
        retry.sheds,
        retry.retries,
        retry.gave_up,
        elapsed.as_secs_f64()
    );

    // --- verdict 3: every hostile event trapped; the sessions live on ---
    for (label, sid, (triggers, benign), kind) in [
        ("runaway", runaway_sid, hostile[0], TrapKind::OutOfFuel),
        ("membomb", membomb_sid, hostile[1], TrapKind::OutOfMemory),
    ] {
        let stats = server.session_stats(sid).expect("hostile session stats");
        let value = server.query(sid).expect("hostile session query").value;
        println!(
            "{label}: {triggers} triggers -> {} traps ({} {}), {benign} benign -> value {value:?}",
            stats.traps.total(),
            stats.traps.count(kind),
            kind.label(),
        );
        if stats.traps.total() != triggers {
            failures.push(format!(
                "{label}: {triggers} hostile events but {} traps recorded",
                stats.traps.total()
            ));
        }
        if triggers > 0 && stats.traps.count(kind) == 0 {
            failures.push(format!("{label}: no {} trap recorded", kind.label()));
        }
        if value != PlainValue::Int(benign as i64) {
            failures.push(format!(
                "{label}: session did not survive cleanly: value {value:?} != Int({benign})"
            ));
        }
    }

    // --- verdict 4: the scraped metrics balance and agree ---
    let metrics_text = server.metrics_text();
    let offered = scraped_family_sum(&metrics_text, "elm_admission_offered_total");
    let admitted = scraped_family_sum(&metrics_text, "elm_admitted_total");
    let shed = scraped_family_sum(&metrics_text, "elm_shed_total");
    println!("scraped admission ledger: offered={offered} admitted={admitted} shed={shed}");
    if admitted + shed != offered {
        failures.push(format!(
            "admission ledger does not balance: {admitted} admitted + {shed} shed != {offered} offered"
        ));
    }
    if shed == 0 {
        failures.push("metrics report zero sheds despite the flood".to_string());
    }
    let scraped_traps = scraped_family_sum(&metrics_text, "elm_traps_total");
    let (global, _) = server.stats();
    if scraped_traps != global.traps.total() {
        failures.push(format!(
            "metrics report {scraped_traps} traps but sessions counted {}",
            global.traps.total()
        ));
    }

    let report = vec![
        ("benchmark", Json::Str("server-overload".to_string())),
        ("sessions", Json::U64(sessions as u64)),
        ("events_per_session", Json::U64(events as u64)),
        ("seed", Json::U64(args.seed)),
        ("elapsed_s", Json::F64(elapsed.as_secs_f64())),
        ("requests", Json::U64(retry.requests)),
        ("sheds", Json::U64(retry.sheds)),
        ("retries", Json::U64(retry.retries)),
        ("gave_up", Json::U64(retry.gave_up)),
        ("offered", Json::U64(offered)),
        ("admitted", Json::U64(admitted)),
        ("shed", Json::U64(shed)),
        ("traps_total", Json::U64(global.traps.total())),
        ("control_probes_attempted", Json::U64(attempted)),
        ("control_probes_answered", Json::U64(answered)),
        ("isolation_mismatches", Json::U64(mismatches as u64)),
    ];
    Ok(finish(
        args,
        "overload",
        &failures,
        report,
        "BENCH_overload.json",
    ))
}

/// The `--cluster` kill-chaos harness: spawns a 3-process `elm-server`
/// peer group, opens keyed sessions at their rendezvous-placement
/// primaries, kills the busiest peer at a `FaultPlan`-scheduled point
/// mid-stream, and rides the failover through the retrying
/// [`ClusterClient`]. The verdict fails unless every killed session
/// resumes on a surviving peer with outputs byte-identical to an
/// uninterrupted governed replay, the survivors' `elm_cluster_*` metric
/// families account for every takeover, and replication recorded no
/// gaps. With `--fleet` the sessions host distinct synthesized FElm
/// programs instead of the dashboard builtin.
fn run_cluster(args: &Args) -> Result<i32, String> {
    use elm_runtime::{assemble_cluster, ClusterPhase, ClusterSpan};
    use rand::Rng;

    let sessions = args.sessions.clamp(PEERS, 64);
    let events = args.events.clamp(50, 2_000);
    let mut failures: Vec<String> = Vec::new();
    eprintln!(
        "loadgen: CLUSTER {PEERS} peers, {sessions} sessions x {events} events, {} programs, seed {}",
        if args.fleet { "synthesized" } else { "dashboard" },
        args.seed
    );
    let keyed = keyed_sessions(args.seed, sessions, events, args.fleet)?;

    // --- placement, victim, and the scheduled kill point ---
    let (placement, victim, victim_sessions) = placement(sessions);
    let plan = FaultPlan {
        seed: args.seed,
        ..FaultPlan::disabled()
    };
    let mut krng = plan.rng(elm_environment::fault::STREAM_KILL, victim as u64);
    let kill_frac: f64 = krng.gen_range(0.30..0.60);
    let total_events: u64 = keyed.iter().map(|s| s.events.len() as u64).sum();
    let kill_after = ((total_events as f64) * kill_frac) as u64;
    eprintln!(
        "loadgen: CLUSTER victim is peer {victim} ({victim_sessions} sessions), kill after {kill_after}/{total_events} events"
    );

    let mut group = PeerGroup::spawn(args.snapshot_interval.clamp(1, 32), &[])?;
    open_keyed(&group, &placement, &keyed, args.seed)?;

    // --- the killer: SIGKILL the victim once the fleet-wide event count
    // crosses the scheduled point ---
    let progress = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let mut victim_child = group.children[victim].take().expect("victim was spawned");
    let killer = {
        let progress = Arc::clone(&progress);
        thread::spawn(move || {
            while progress.load(Ordering::Relaxed) < kill_after {
                thread::sleep(Duration::from_millis(2));
            }
            let _ = victim_child.kill();
            let _ = victim_child.wait();
            eprintln!(
                "loadgen: CLUSTER killed peer {victim} after {} events",
                progress.load(Ordering::Relaxed)
            );
            started.elapsed()
        })
    };
    let outs = drive_all(
        &group,
        &placement,
        &keyed,
        args.seed,
        Duration::ZERO,
        &progress,
        &mut failures,
    );
    let elapsed = started.elapsed();
    // Release the killer if the run died before the scheduled point.
    progress.store(u64::MAX, Ordering::Relaxed);
    let kill_elapsed = killer.join().ok();
    if kill_elapsed.is_none() {
        failures.push("the scheduled kill never fired".to_string());
    }

    // --- verdict 1: every session resumed with byte-identical output ---
    check_finals(&keyed, &outs, &placement, victim, "killed", &mut failures);

    // --- verdict 2: killed sessions live on exactly one survivor; the
    // other answers with a typed moved redirect at the adopter ---
    let survivors = (0..PEERS).filter(|&p| p != victim);
    let mut clients = group.clients(survivors, args.seed ^ 0xdead, &mut failures);
    let mut adopted_on = [0u64; PEERS];
    for k in (0..sessions).filter(|&k| placement[k] == victim) {
        let (served, moved) = who_serves(&mut clients, k, &mut failures);
        let Some(&host) = served.last() else {
            failures.push(format!("killed session {k}: no surviving peer hosts it"));
            continue;
        };
        adopted_on[host] += 1;
        match moved.last() {
            Some((_, to)) if *to != group.addrs[host] => failures.push(format!(
                "killed session {k}: redirect points at {to} but the session lives on {}",
                group.addrs[host]
            )),
            Some(_) => {}
            None => failures.push(format!(
                "killed session {k}: no survivor issued a moved redirect"
            )),
        }
    }

    // --- verdict 3: the survivors' metric families account for the
    // takeover, and replication stayed gap-free ---
    let peer_texts = settled_metrics(&mut clients, &mut failures);
    let family = |name: &str| -> u64 {
        peer_texts
            .iter()
            .map(|(_, t)| scraped_family_sum(t, name))
            .sum()
    };
    let takeovers_sum = family("elm_cluster_takeovers_total");
    let gaps_sum = family("elm_cluster_replication_gaps_total");
    let snaps_sum = family("elm_cluster_snapshots_shipped_total");
    let journal_sum = family("elm_cluster_journal_replicated_total");
    let lag_sum = family("elm_cluster_replication_lag_entries");
    let takeover_ms_max = peer_texts
        .iter()
        .map(|(_, t)| scraped_family_sum(t, "elm_cluster_takeover_last_ms"))
        .max()
        .unwrap_or(0);
    let sessions_primary: Vec<(usize, u64)> = peer_texts
        .iter()
        .map(|(p, t)| (*p, scraped_family_sum(t, "elm_cluster_sessions_primary")))
        .collect();
    for (p, text) in &peer_texts {
        let needle = format!("elm_cluster_peer_up{{peer=\"{victim}\"}}");
        let up = text
            .lines()
            .find(|l| l.starts_with(&needle))
            .and_then(|l| l.rsplit_once(' '))
            .and_then(|(_, v)| v.parse::<f64>().ok());
        if up != Some(0.0) {
            failures.push(format!(
                "survivor {p} still reports peer_up{{peer=\"{victim}\"}} = {up:?}"
            ));
        }
    }
    if takeovers_sum != victim_sessions as u64 {
        failures.push(format!(
            "{victim_sessions} sessions died with peer {victim} but survivors count {takeovers_sum} takeovers"
        ));
    }
    let hosted: u64 = sessions_primary.iter().map(|&(_, n)| n).sum();
    if hosted != sessions as u64 {
        failures.push(format!(
            "survivors host {hosted} sessions, expected all {sessions}"
        ));
    }
    if gaps_sum != 0 {
        failures.push(format!("replication recorded {gaps_sum} gap(s)"));
    }
    if snaps_sum == 0 {
        failures.push("no snapshots were ever shipped (replay suffix unbounded)".to_string());
    }
    if journal_sum == 0 {
        failures.push("no journal entries were ever replicated".to_string());
    }
    let total = |f: fn(&SessionOut) -> u64| -> u64 { outs.iter().flatten().map(f).sum() };
    let (moves_total, reconnects_total) = (total(|o| o.moves), total(|o| o.reconnects));
    let resyncs_total = total(|o| o.resyncs);
    if resyncs_total == 0 {
        failures.push("no driver ever resynchronized; the kill was not mid-stream".to_string());
    }

    // --- verdict 4: the federated scrape agrees with the per-peer
    // scrapes, carries peer labels, and exposes the SLO families ---
    let federated_text = federated_scrape(
        &mut clients,
        &[
            "elm_cluster_takeovers_total{peer=\"",
            "elm_slo_burn_rate{peer=\"",
            "elm_ingest_latency_hist_seconds_bucket{peer=\"",
            "elm_blackbox_records_total{peer=\"",
        ],
        "BENCH_cluster_federated.prom",
        &mut failures,
    );
    if !federated_text.is_empty() {
        // Every driver has quiesced, the per-peer scrapes saw these
        // families settle, and the scrapes themselves move none of them,
        // so the federated value must equal the sum of the per-peer
        // scrapes exactly.
        for name in FEDERATED_SUMS {
            let (fed, per_peer) = (scraped_family_sum(&federated_text, name), family(name));
            if fed != per_peer {
                failures.push(format!(
                    "federated {name} = {fed} but the per-peer scrapes sum to {per_peer}"
                ));
            }
        }
        let dead = format!("elm_cluster_federation_peer_up{{peer=\"{victim}\"}} 0");
        if !federated_text.contains(&dead) {
            failures.push(format!(
                "federated scrape does not report the killed peer down ({dead})"
            ));
        }
    }

    // --- verdict 5: the survivors' flight recorders assemble into span
    // trees that cross the killed peer into its adopter, and the
    // takeover's trace matches the last entry the victim replicated ---
    let blackbox_texts = fetch_texts(
        &mut clients,
        Client::blackbox_text,
        "blackbox",
        &mut failures,
    );
    let mut all_spans: Vec<ClusterSpan> = Vec::new();
    for (_, text) in &blackbox_texts {
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let Ok(r) = serde_json::from_str::<Json>(line) else {
                continue;
            };
            let phase = match r.get("kind").and_then(Json::as_str) {
                Some("applied") => ClusterPhase::Ingest,
                Some("replicated") => ClusterPhase::Replicate,
                Some("takeover") => ClusterPhase::Takeover,
                Some("resume") => ClusterPhase::Resume,
                _ => continue,
            };
            let num = |k: &str| r.get(k).and_then(jnum).unwrap_or(0);
            let from = match r.get("from") {
                Some(Json::I64(n)) => *n,
                Some(Json::U64(n)) => *n as i64,
                _ => -1,
            };
            all_spans.push(ClusterSpan {
                trace: num("trace"),
                session: num("session"),
                seq: num("seq"),
                phase,
                peer: num("peer") as u32,
                from_peer: from,
                start_us: num("us"),
                end_us: num("us"),
            });
        }
    }
    let trees = assemble_cluster(&all_spans);
    let cross_peer_trees = trees
        .iter()
        .filter(|t| {
            t.spans.iter().any(|s| {
                matches!(s.phase, ClusterPhase::Replicate | ClusterPhase::Takeover)
                    && s.from_peer == victim as i64
            }) && t
                .spans
                .iter()
                .any(|s| matches!(s.phase, ClusterPhase::Takeover | ClusterPhase::Resume))
        })
        .count() as u64;
    if cross_peer_trees == 0 {
        failures.push(format!(
            "no assembled span tree crosses killed peer {victim} into its adopter \
             ({} trees from {} flight-recorder spans)",
            trees.len(),
            all_spans.len()
        ));
    }
    let mut span_tree_check = true;
    for t in &trees {
        for s in t.spans.iter().filter(|s| {
            matches!(s.phase, ClusterPhase::Takeover)
                && s.from_peer == victim as i64
                && s.trace != 0
        }) {
            // The takeover rode the victim's last replicated trace, so it
            // must match the highest-seq entry the victim shipped for
            // this session — the journal's takeover order.
            let last_replicated = all_spans
                .iter()
                .filter(|r| {
                    matches!(r.phase, ClusterPhase::Replicate)
                        && r.session == s.session
                        && r.from_peer == victim as i64
                })
                .max_by_key(|r| r.seq);
            if let Some(b) = last_replicated {
                if b.trace != s.trace {
                    span_tree_check = false;
                    failures.push(format!(
                        "session {}: takeover trace {:#x} != last replicated trace {:#x} (seq {})",
                        s.session, s.trace, b.trace, b.seq
                    ));
                }
            }
        }
    }

    // --- verdict 6: the adopter dumped the victim's flight-recorder
    // view, and the dump names the victim's last traces ---
    for p in (0..PEERS).filter(|&p| adopted_on[p] > 0) {
        let path = format!("BLACKBOX_peer{p}_adopts_peer{victim}.ndjson");
        match std::fs::read_to_string(&path) {
            Ok(dump) if dump.trim().is_empty() => {
                failures.push(format!("adopter dump {path} is empty"));
            }
            Ok(dump) => {
                let has_traced_victim_record = dump.lines().any(|l| {
                    serde_json::from_str::<Json>(l).is_ok_and(|r| {
                        r.get("trace").and_then(jnum).unwrap_or(0) != 0
                            && r.get("session")
                                .and_then(jnum)
                                .is_some_and(|k| placement.get(k as usize) == Some(&victim))
                    })
                });
                if !has_traced_victim_record {
                    failures.push(format!(
                        "adopter dump {path} holds no traced record of a victim session"
                    ));
                }
            }
            Err(e) => failures.push(format!("adopter dump {path} unreadable: {e}")),
        }
    }
    preserve_blackboxes("cluster", &blackbox_texts, &failures);
    drop(group);

    let throughput = total_events as f64 / elapsed.as_secs_f64();
    println!(
        "cluster: {total_events} events across {sessions} sessions in {:.2}s ({throughput:.0} ev/s), \
         {takeovers_sum} takeovers (last {takeover_ms_max} ms), {resyncs_total} resyncs, \
         {moves_total} moved redirects, replication lag {lag_sum}, \
         {cross_peer_trees}/{} span trees cross the kill",
        elapsed.as_secs_f64(),
        trees.len()
    );
    let benchmark = if args.fleet {
        "server-cluster-fleet"
    } else {
        "server-cluster"
    };
    let report = vec![
        ("benchmark", Json::Str(benchmark.to_string())),
        ("peers", Json::U64(PEERS as u64)),
        ("sessions", Json::U64(sessions as u64)),
        ("events_per_session", Json::U64(events as u64)),
        ("driven_events", Json::U64(total_events)),
        ("seed", Json::U64(args.seed)),
        ("victim", Json::U64(victim as u64)),
        ("victim_sessions", Json::U64(victim_sessions as u64)),
        ("kill_after_events", Json::U64(kill_after)),
        (
            "kill_elapsed_s",
            Json::F64(kill_elapsed.map_or(-1.0, |d| d.as_secs_f64())),
        ),
        ("elapsed_s", Json::F64(elapsed.as_secs_f64())),
        ("events_per_sec", Json::F64(throughput)),
        ("takeovers_total", Json::U64(takeovers_sum)),
        ("takeover_last_ms", Json::U64(takeover_ms_max)),
        ("replication_lag_entries", Json::U64(lag_sum)),
        ("journal_replicated_total", Json::U64(journal_sum)),
        ("snapshots_shipped_total", Json::U64(snaps_sum)),
        ("replication_gaps_total", Json::U64(gaps_sum)),
        ("moves_total", Json::U64(moves_total)),
        ("reconnects_total", Json::U64(reconnects_total)),
        ("resyncs_total", Json::U64(resyncs_total)),
        ("span_trees_total", Json::U64(trees.len() as u64)),
        ("cross_peer_trees", Json::U64(cross_peer_trees)),
        ("span_tree_check", Json::Bool(span_tree_check)),
        (
            "federated_scrape_bytes",
            Json::U64(federated_text.len() as u64),
        ),
        (
            "sessions_per_survivor",
            Json::Seq(
                sessions_primary
                    .iter()
                    .map(|&(p, n)| {
                        obj([
                            ("peer", Json::U64(p as u64)),
                            ("sessions", Json::U64(n)),
                            ("adopted", Json::U64(adopted_on[p])),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    Ok(finish(
        args,
        "cluster",
        &failures,
        report,
        "BENCH_cluster.json",
    ))
}

/// The split-brain chaos harness: a 3-peer group, a scheduled network
/// partition isolating the busiest primary long enough for the majority
/// side to take its sessions over at a higher epoch, then a heal that
/// flushes the zombie's stale backlog into the fences. See the module
/// docs for the verdict list.
fn run_partition(args: &Args) -> Result<i32, String> {
    /// When the partition opens, relative to child-process start. Setup
    /// (spawn + readiness + keyed opens) must finish inside this window.
    const PART_START_MS: u64 = 3_000;
    /// How long the cut lasts — several takeover windows (500 ms), so the
    /// majority side adopts and the zombie keeps serving stale clients
    /// for an observable stretch before the heal.
    const PART_DUR_MS: u64 = 2_500;
    /// Target wall-clock length of each driver's event stream: events are
    /// paced so the stream straddles the whole partition *and* the heal.
    const DRIVE_MS: u64 = 8_000;

    let sessions = args.sessions.clamp(PEERS, 64);
    let events = args.events.clamp(50, 300);
    let mut failures: Vec<String> = Vec::new();
    let keyed = keyed_sessions(args.seed, sessions, events, false)?;
    // Pace the drivers off the *filtered* trace length so every stream
    // straddles the whole partition window and the heal.
    let longest = keyed
        .iter()
        .map(|s| s.events.len())
        .max()
        .unwrap_or(1)
        .max(1);
    let pace_ms = (DRIVE_MS / longest as u64).max(1);
    eprintln!(
        "loadgen: PARTITION {PEERS} peers, {sessions} sessions x {events} events \
         ({longest} admitted, paced {pace_ms} ms), window {PART_START_MS}+{PART_DUR_MS} ms, \
         fencing {}, seed {}",
        if args.no_fencing { "OFF" } else { "on" },
        args.seed
    );

    // --- placement and the victim: the busiest primary gets isolated
    // from *both* other peers ---
    let (placement, victim, victim_sessions) = placement(sessions);
    let others: Vec<usize> = (0..PEERS).filter(|&p| p != victim).collect();
    eprintln!(
        "loadgen: PARTITION victim is peer {victim} ({victim_sessions} sessions), isolated from peers {others:?}"
    );

    // --- spawn the peer group with the partition scheduled on every
    // victim link; the same seed drives every child's netfault proxy ---
    let mut extra = vec!["--net-seed".to_string(), args.seed.to_string()];
    for &o in &others {
        extra.push("--partition-window".into());
        extra.push(format!("{victim}:{o}:{PART_START_MS}:{PART_DUR_MS}"));
    }
    if args.no_fencing {
        extra.push("--no-fencing".into());
    }
    let group = PeerGroup::spawn(args.snapshot_interval.clamp(1, 32), &extra)?;
    open_keyed(&group, &placement, &keyed, args.seed)?;
    let setup_ms = group.spawned.elapsed().as_millis() as u64;
    if setup_ms >= PART_START_MS {
        failures.push(format!(
            "setup took {setup_ms} ms — the partition window opened before the drivers started"
        ));
    }

    // --- split-brain probes: one prober per peer asks *that* peer about
    // every session for the whole run, recording (session, epoch) → the
    // set of peers that answered with a value. Two peers serving the
    // same session at the same epoch is the forked-history violation. ---
    type ProbeMap = BTreeMap<(u64, u64), BTreeSet<usize>>;
    let probe_stop = Arc::new(AtomicBool::new(false));
    let probe_map: Arc<Mutex<ProbeMap>> = Arc::new(Mutex::new(BTreeMap::new()));
    let probe_samples = Arc::new(AtomicU64::new(0));
    let mut probers = Vec::with_capacity(PEERS);
    for (p, &addr) in group.socks.iter().enumerate() {
        let stop = Arc::clone(&probe_stop);
        let map = Arc::clone(&probe_map);
        let samples = Arc::clone(&probe_samples);
        let seed = args.seed ^ 0x7072_6f62 ^ p as u64;
        probers.push(thread::spawn(move || {
            let mut client: Option<Client> = None;
            while !stop.load(Ordering::Relaxed) {
                let Some(c) = client.as_mut() else {
                    client = Client::connect(addr, seed).ok();
                    if client.is_none() {
                        thread::sleep(Duration::from_millis(25));
                    }
                    continue;
                };
                for sid in 0..sessions as u64 {
                    let Ok(reply) = c.query(sid) else {
                        client = None;
                        break;
                    };
                    // moved / unknown replies are the redirect-only
                    // answer — exactly what a non-owner should say.
                    if !matches!(reply.get("ok"), Some(Json::Bool(true))) {
                        continue;
                    }
                    if let Some(epoch) = reply.get("epoch").and_then(jnum) {
                        let mut map = map.lock().expect("probe map");
                        map.entry((sid, epoch)).or_default().insert(p);
                        samples.fetch_add(1, Ordering::Relaxed);
                    }
                }
                thread::sleep(Duration::from_millis(20));
            }
        }));
    }

    // --- drivers: one per session, paced so the stream straddles the
    // partition and the heal, riding the demotion through the
    // epoch-aware client ---
    let driven = AtomicU64::new(0);
    let started = Instant::now();
    let outs = drive_all(
        &group,
        &placement,
        &keyed,
        args.seed,
        Duration::from_millis(pace_ms),
        &driven,
        &mut failures,
    );
    let elapsed = started.elapsed();
    // Judge only the healed steady state: wait out the window plus slack
    // for the queued takeover broadcast and stale backlog to flush, and
    // let the probes observe it.
    let heal_at = Duration::from_millis(PART_START_MS + PART_DUR_MS + 1_500);
    thread::sleep(heal_at.saturating_sub(group.spawned.elapsed()));
    probe_stop.store(true, Ordering::Relaxed);
    for p in probers {
        let _ = p.join();
    }

    // --- verdict 1: byte-identical finals against the governed oracle ---
    check_finals(&keyed, &outs, &placement, victim, "isolated", &mut failures);

    // --- verdict 2: the probes saw no forked history — at most one peer
    // served each (session, epoch) — and the dual-epoch window itself
    // was observable (zombie at the old epoch, adopter at the new) ---
    let probe_samples = probe_samples.load(Ordering::Relaxed);
    let probe_map = probe_map.lock().expect("probe map").clone();
    if probe_samples == 0 {
        failures.push("the split-brain probes never completed a sample".to_string());
    }
    let mut split_brain = 0u64;
    for ((sid, epoch), servers) in &probe_map {
        if servers.len() > 1 {
            split_brain += 1;
            failures.push(format!(
                "SPLIT BRAIN: session {sid} served at epoch {epoch} by peers {servers:?}"
            ));
        }
    }
    let mut epochs_per_session: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    for (sid, epoch) in probe_map.keys() {
        epochs_per_session.entry(*sid).or_default().insert(*epoch);
    }
    let dual_epoch_sessions = epochs_per_session
        .values()
        .filter(|es| es.len() > 1)
        .count() as u64;
    if dual_epoch_sessions == 0 {
        failures.push(
            "no session was ever observed served at two distinct epochs — the partition \
             never produced the zombie/adopter overlap this harness exists to test"
                .to_string(),
        );
    }

    // --- verdict 3: fences did their job (nonzero fenced rejections, no
    // replication gaps), the takeover fired on the majority side only,
    // and the epoch/heartbeat families are in the scrapes ---
    let mut clients = group.clients(0..PEERS, args.seed ^ 0xfe9c, &mut failures);
    let peer_texts = fetch_texts(&mut clients, Client::metrics_text, "metrics", &mut failures);
    let fenced_per_peer: Vec<(usize, u64)> = peer_texts
        .iter()
        .map(|(p, t)| (*p, scraped_family_sum(t, "elm_cluster_fenced_total")))
        .collect();
    let fenced_sum: u64 = fenced_per_peer.iter().map(|&(_, n)| n).sum();
    let family = |name: &str| -> u64 {
        peer_texts
            .iter()
            .map(|(_, t)| scraped_family_sum(t, name))
            .sum()
    };
    let gaps_sum = family("elm_cluster_replication_gaps_total");
    let takeovers_sum = family("elm_cluster_takeovers_total");
    let mut epoch_gauge_max: BTreeMap<u64, u64> = BTreeMap::new();
    for (p, text) in &peer_texts {
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let Some((sid, val)) = line
                .strip_prefix("elm_cluster_epoch{session=\"")
                .and_then(|rest| rest.split_once("\"}"))
            else {
                continue;
            };
            if let (Ok(sid), Ok(v)) = (sid.parse::<u64>(), val.trim().parse::<f64>()) {
                let e = epoch_gauge_max.entry(sid).or_insert(0);
                *e = (*e).max(v as u64);
            }
        }
        if !text.contains("elm_cluster_heartbeat_age_ms{peer=\"") {
            failures.push(format!(
                "peer {p} scrape lacks elm_cluster_heartbeat_age_ms"
            ));
        }
    }
    if args.no_fencing {
        if fenced_sum != 0 {
            failures.push(format!(
                "fencing is off but {fenced_sum} rejections were counted"
            ));
        }
    } else if fenced_sum == 0 {
        failures.push(
            "the zombie's stale backlog was never fenced (elm_cluster_fenced_total = 0)"
                .to_string(),
        );
    }
    if gaps_sum != 0 {
        failures.push(format!("replication recorded {gaps_sum} gap(s)"));
    }
    if takeovers_sum != victim_sessions as u64 {
        failures.push(format!(
            "{victim_sessions} sessions were isolated with peer {victim} but the group counts \
             {takeovers_sum} takeovers (minority-side adoptions would double this)"
        ));
    }
    let isolated = || (0..sessions).filter(|&k| placement[k] == victim);
    if !args.no_fencing {
        for k in isolated() {
            if epoch_gauge_max.get(&(k as u64)).copied().unwrap_or(0) < 2 {
                failures.push(format!(
                    "isolated session {k} never shows epoch >= 2 in any elm_cluster_epoch gauge"
                ));
            }
        }
    }

    // --- verdict 4: the healed zombie is redirect-only — exactly one
    // peer serves each isolated session, and the victim answers with a
    // typed moved redirect at the adopter ---
    for k in isolated() {
        let (served, moved) = who_serves(&mut clients, k, &mut failures);
        if served.len() != 1 {
            failures.push(format!(
                "isolated session {k}: served by peers {served:?} after the heal, expected \
                 exactly one"
            ));
        } else if served == [victim] {
            failures.push(format!(
                "isolated session {k}: still served by the demoted zombie after the heal"
            ));
        }
        if !args.no_fencing && !moved.iter().any(|(p, _)| *p == victim) {
            failures.push(format!(
                "isolated session {k}: the healed zombie did not answer redirect-only"
            ));
        }
    }

    // --- verdict 5: the flight recorders hold the fencing story — a
    // `fenced` rejection on the majority side and a `demote` on the
    // zombie — and the federated scrape carries the new families ---
    let blackbox_texts = fetch_texts(
        &mut clients,
        Client::blackbox_text,
        "blackbox",
        &mut failures,
    );
    let mut saw_fenced = false;
    let mut saw_demote = false;
    for (p, text) in &blackbox_texts {
        for line in text.lines() {
            let Ok(r) = serde_json::from_str::<Json>(line) else {
                continue;
            };
            match r.get("kind").and_then(Json::as_str) {
                Some("fenced") => saw_fenced = true,
                Some("demote") if *p == victim => saw_demote = true,
                _ => {}
            }
        }
    }
    if !args.no_fencing {
        if !saw_fenced {
            failures.push("no peer's flight recorder holds a `fenced` record".to_string());
        }
        if !saw_demote {
            failures.push("the zombie's flight recorder holds no `demote` record".to_string());
        }
    }
    federated_scrape(
        &mut clients,
        &[
            "elm_cluster_fenced_total{peer=\"",
            "elm_cluster_heartbeat_age_ms{peer=\"",
        ],
        "BENCH_partition_federated.prom",
        &mut failures,
    );
    preserve_blackboxes("partition", &blackbox_texts, &failures);
    drop(group);

    let total = |f: fn(&SessionOut) -> u64| -> u64 { outs.iter().flatten().map(f).sum() };
    let (moves_total, reconnects_total) = (total(|o| o.moves), total(|o| o.reconnects));
    let (resyncs_total, stale_total) = (total(|o| o.resyncs), total(|o| o.stale_epochs));
    let driven_total = driven.load(Ordering::Relaxed);
    println!(
        "partition: {driven_total} events across {sessions} sessions in {:.2}s, \
         {takeovers_sum} takeovers, {fenced_sum} fenced rejections, {split_brain} split-brain \
         probe hits over {probe_samples} samples ({dual_epoch_sessions} dual-epoch sessions), \
         {resyncs_total} resyncs, {moves_total} moved redirects, {stale_total} stale-epoch reads",
        elapsed.as_secs_f64()
    );
    let report = vec![
        ("benchmark", Json::Str("server-partition".to_string())),
        ("peers", Json::U64(PEERS as u64)),
        ("sessions", Json::U64(sessions as u64)),
        ("events_per_session", Json::U64(events as u64)),
        ("seed", Json::U64(args.seed)),
        ("fencing", Json::Bool(!args.no_fencing)),
        ("victim", Json::U64(victim as u64)),
        ("victim_sessions", Json::U64(victim_sessions as u64)),
        ("partition_start_ms", Json::U64(PART_START_MS)),
        ("partition_dur_ms", Json::U64(PART_DUR_MS)),
        ("setup_ms", Json::U64(setup_ms)),
        ("elapsed_s", Json::F64(elapsed.as_secs_f64())),
        ("driven_events", Json::U64(driven_total)),
        ("takeovers_total", Json::U64(takeovers_sum)),
        ("fenced_total", Json::U64(fenced_sum)),
        (
            "fenced_per_peer",
            Json::Seq(
                fenced_per_peer
                    .iter()
                    .map(|&(p, n)| obj([("peer", Json::U64(p as u64)), ("fenced", Json::U64(n))]))
                    .collect(),
            ),
        ),
        ("replication_gaps_total", Json::U64(gaps_sum)),
        ("probe_samples", Json::U64(probe_samples)),
        ("split_brain_hits", Json::U64(split_brain)),
        ("dual_epoch_sessions", Json::U64(dual_epoch_sessions)),
        ("moves_total", Json::U64(moves_total)),
        ("reconnects_total", Json::U64(reconnects_total)),
        ("resyncs_total", Json::U64(resyncs_total)),
        ("stale_epoch_reads", Json::U64(stale_total)),
    ];
    Ok(finish(
        args,
        "partition",
        &failures,
        report,
        "BENCH_partition.json",
    ))
}

fn main() {
    let args = parse_args();
    let outcome = if args.partition {
        run_partition(&args)
    } else if args.cluster {
        run_cluster(&args)
    } else if args.fleet {
        run_fleet(&args)
    } else if args.overload {
        run_overload(&args)
    } else {
        usage()
    };
    // The one exit: every harness has returned, so its peer group and
    // other owned resources are already torn down.
    exit(outcome.unwrap_or_else(|e| {
        eprintln!("loadgen: setup failed: {e}");
        1
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use elm_synth::run_local;

    #[test]
    fn replay_follows_the_servers_per_event_schedule_on_async_programs() {
        let generator = Generator::new(GenConfig {
            async_density: 0.5,
            hostile: 0.0,
            ..GenConfig::default()
        });
        let registry = Registry::standard();
        let mut checked = 0;
        for seed in 0..200 {
            let s = generator.scenario(seed, 64);
            if !s.shape.contains("async") {
                continue;
            }
            let (_, graph) = registry.resolve(ProgramSpec::Source(&s.source)).unwrap();
            let local = run_local(&s.source, &s.trace, EventLimits::default()).unwrap();
            let replayed = replay(&graph, &s.trace.events, Some(EventLimits::default()));
            assert_eq!(
                replayed,
                PlainValue::Int(local.final_value),
                "seed {seed}:\n{}",
                s.source
            );
            checked += 1;
            if checked == 8 {
                return;
            }
        }
        panic!("only {checked} async-bearing scenarios in 200 seeds");
    }
}
