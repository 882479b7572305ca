//! The traced replay: the run's seeded inputs fed, in pipeline order,
//! through each layer's public functions in process, with one span per
//! call whose parent is the event's (or frame's) root span.
//!
//! Per session the pipeline is: decode the request line, hand it to an
//! in-process `Server`, enqueue and pump it on a directly held `Session`,
//! append it to a journal, record it on the flight recorder, propagate it
//! on a synchronous `Running`, encode the updates, and replicate it into
//! a `Cluster` acting as the replica. Every 256 events per session (the
//! server's snapshot interval) the runtime is snapshotted, shipped,
//! truncated behind, and restored from the previous snapshot plus the
//! suffix. The three runtimes must agree after every frame.
//!
//! Spans stay in memory and are written when the replay ends; allocation
//! counts come from the counting global allocator on this thread.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use elm_runtime::{
    EventJournal, EventLimits, JournalEntry, PlainValue, RuntimeSnapshot, SignalGraph, Value,
};
use elm_server::protocol::{
    self, event_line, journal_append_request, snapshot_ship_request, update_line,
};
use elm_server::{
    blackbox, BackpressurePolicy, Cluster, ClusterConfig, EnqueueOutcome, ProgramSpec, Registry,
    Server, ServerConfig, Session, SessionConfig, SessionMeta, Update,
};
use elm_signals::{Engine, Program as Signals, Running};
use felm::env::InputEnv;
use felm::pipeline::compile_source;

use crate::alloc;
use crate::stats::{median, Metrics};
use crate::wire::{write_spans, Span};
use crate::workload::{self, EventGen, Kind, Program, Spec};

/// Events replayed (non-churn workloads).
const REPLAY_EVENTS: usize = 4096;
/// Cycles replayed for `session-churn`.
const CHURN_CYCLES: usize = 64;
/// Events between snapshots, as the server's default.
const SNAPSHOT_INTERVAL: usize = 256;
/// Restores timed per replay (each replays up to one interval).
const RESTORES: usize = 32;
/// The ownership epoch every replayed write carries.
const EPOCH: u64 = 1;
/// The replica cluster's peer list: the primary it "hears" from (never
/// contacted: the replay calls the handlers directly) and itself.
const PEERS: [&str; 2] = ["127.0.0.1:9", "127.0.0.1:10"];

#[derive(Clone, Copy)]
struct Root {
    id: u64,
    trace: u64,
    start: Instant,
}

/// Spans and per-call samples.
struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    next_id: u64,
    /// Per name: microseconds per unit, one entry per call.
    us: BTreeMap<&'static str, Vec<f64>>,
    /// Per name: (allocations, units).
    allocs: BTreeMap<&'static str, (u64, u64)>,
    /// Plain per-call counts (bytes, computations, ...).
    counts: BTreeMap<&'static str, Vec<f64>>,
    /// Self time per name, in nanoseconds.
    self_ns: BTreeMap<&'static str, u64>,
    children_ns: u64,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            next_id: 1,
            us: BTreeMap::new(),
            allocs: BTreeMap::new(),
            counts: BTreeMap::new(),
            self_ns: BTreeMap::new(),
            children_ns: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn root(&mut self, trace: u64) -> Root {
        self.children_ns = 0;
        let id = self.next_id;
        self.next_id += 1;
        Root {
            id,
            trace,
            start: Instant::now(),
        }
    }

    fn close(&mut self, root: Root) {
        let end = Instant::now();
        let total = end.duration_since(root.start).as_nanos() as u64;
        *self.self_ns.entry("replay.root").or_default() += total.saturating_sub(self.children_ns);
        self.spans.push(Span {
            trace: root.trace,
            id: root.id,
            parent: None,
            name: "replay.root",
            start_ns: self.ns(root.start),
            end_ns: self.ns(end),
        });
    }

    /// Times `f` as one call of `name` covering `units` events.
    fn time<R>(
        &mut self,
        root: &Root,
        name: &'static str,
        units: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        let allocs = alloc::count();
        let start = Instant::now();
        let out = black_box(f());
        let end = Instant::now();
        let allocs = alloc::count() - allocs;
        let ns = end.duration_since(start).as_nanos() as u64;
        let units = units.max(1);
        self.children_ns += ns;
        *self.self_ns.entry(name).or_default() += ns;
        self.us
            .entry(name)
            .or_default()
            .push(ns as f64 / 1e3 / units as f64);
        let a = self.allocs.entry(name).or_default();
        a.0 += allocs;
        a.1 += units as u64;
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            trace: root.trace,
            id,
            parent: Some(root.id),
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        out
    }

    fn count(&mut self, name: &'static str, value: f64) {
        self.counts.entry(name).or_default().push(value);
    }

    fn median_us(&self, name: &str) -> f64 {
        median(&mut self.us.get(name).cloned().unwrap_or_default())
    }

    fn mean_count(&self, name: &str) -> f64 {
        let v = self.counts.get(name).map(Vec::as_slice).unwrap_or(&[]);
        v.iter().sum::<f64>() / v.len().max(1) as f64
    }

    fn allocs_per_unit(&self, names: &[&str]) -> f64 {
        let (a, u) = names
            .iter()
            .filter_map(|n| self.allocs.get(n))
            .fold((0, 0), |(a, u), (x, y)| (a + x, u + y));
        a as f64 / u.max(1) as f64
    }
}

/// The layers under test, shared by every session.
struct Stack {
    registry: Registry,
    env: InputEnv,
    server: Server,
    cluster: Arc<Cluster>,
}

/// One session, hosted once per layer.
struct Hosted {
    slot: usize,
    id: u64,
    graph: SignalGraph,
    meta: SessionMeta,
    session: Session,
    running: Running<Value>,
    journal: EventJournal,
    gen: EventGen,
    sent: usize,
    seq: u64,
    out_seq: u64,
    base: Option<RuntimeSnapshot>,
    suffix: Vec<(String, PlainValue)>,
}

fn spec_of(program: &Program) -> ProgramSpec<'_> {
    match program {
        Program::Builtin(name) => ProgramSpec::Builtin(name),
        Program::Source(src) => ProgramSpec::Source(src),
    }
}

fn host(
    rec: &mut Recorder,
    stack: &Stack,
    seed: u64,
    slot: usize,
    program: &Program,
) -> Result<Hosted, String> {
    let root = rec.root((slot as u64 + 1) << 32);
    let spec = spec_of(program);
    let (name, graph, source) = rec.time(&root, "registry.resolve", 1, || {
        stack.registry.resolve_with_source(spec)
    })?;
    let src = source
        .clone()
        .ok_or("every benchmark program has FElm source")?;
    rec.time(&root, "felm.compile", 1, || {
        compile_source(&src, &stack.env)
    })
    .map_err(|e| e.to_string())?;
    let session = rec.time(&root, "session.new", 1, || {
        Session::new(
            slot as u64,
            name.clone(),
            graph.clone(),
            SessionConfig::default(),
        )
    });
    let opened = rec.time(&root, "server.open", 1, || {
        stack.server.open(spec, None, None, false)
    })?;
    let mut running = Signals::from_dynamic_graph(graph.clone()).start(Engine::Synchronous);
    running.set_governor(Some(EventLimits::default()), None);
    let meta = SessionMeta {
        program: name,
        source,
        queue: SessionConfig::default().queue_capacity,
        policy: BackpressurePolicy::Block,
    };
    // The replica learns the session's metadata first, as at a real open.
    stack
        .cluster
        .handle_snapshot_ship(0, slot as u64, meta.clone(), None, 0, false, 0, EPOCH);
    rec.close(root);
    Ok(Hosted {
        slot,
        id: opened.session,
        graph,
        meta,
        session,
        running,
        journal: EventJournal::new(SessionConfig::default().journal_segment),
        gen: EventGen::new(seed, slot, &opened.inputs),
        sent: 0,
        seq: 0,
        out_seq: 0,
        base: None,
        suffix: Vec::new(),
    })
}

/// Feeds one frame of `n` events through every layer.
fn frame(
    rec: &mut Recorder,
    stack: &Stack,
    h: &mut Hosted,
    n: usize,
    via_batch: bool,
    restores: &mut usize,
) -> Result<(), String> {
    let first = h.sent;
    h.sent += n;
    let events: Vec<(String, PlainValue)> = (0..n).map(|_| h.gen.next_event()).collect();
    let root = rec.root(workload::trace_id(h.slot, first));
    let line = workload::frame_line(h.id, &events, root.trace);
    rec.time(&root, "protocol.decode", n, || {
        protocol::Request::parse(&line)
    })?;

    // The in-process server takes alternate frames as one `batch` and as
    // single `event`s, so both ingress paths are timed on every workload.
    if via_batch {
        let out = rec.time(&root, "server.batch", n, || {
            stack.server.batch(h.id, &events)
        })?;
        if out.accepted != n as u64 {
            return Err(format!("server batch accepted {} of {n}", out.accepted));
        }
    } else {
        for (i, (input, value)) in events.iter().enumerate() {
            let trace = workload::trace_id(h.slot, first + i);
            let out = rec.time(&root, "server.event", 1, || {
                stack.server.event_traced(h.id, input, value.clone(), trace)
            })?;
            if out != EnqueueOutcome::Accepted {
                return Err(format!("server event outcome {out:?}"));
            }
        }
    }

    for (i, (input, value)) in events.iter().enumerate() {
        let trace = workload::trace_id(h.slot, first + i);
        let value = value.to_value();
        let session = &mut h.session;
        let out = rec.time(&root, "session.enqueue", 1, move || {
            session.enqueue_traced(input, value, trace)
        });
        if out != EnqueueOutcome::Accepted {
            return Err(format!("session enqueue outcome {out:?}"));
        }
    }
    let session = &mut h.session;
    rec.time(&root, "session.pump", n, move || session.pump());

    for (i, (input, value)) in events.iter().enumerate() {
        let trace = workload::trace_id(h.slot, first + i);
        h.seq += 1;
        let entry = JournalEntry {
            seq: h.seq,
            input: input.clone(),
            value: value.clone(),
            trace,
        };
        let owned = entry.clone();
        let journal = &mut h.journal;
        rec.time(&root, "journal.append", 1, move || {
            journal.append_owned(EPOCH, owned)
        })
        .map_err(|e| format!("journal append: {e:?}"))?;
        let (sid, seq) = (h.slot as u64, h.seq);
        rec.time(&root, "blackbox.record", 1, || {
            blackbox().record("applied", sid, seq, trace, -1, input)
        });

        let before = h.running.stats();
        let running = &mut h.running;
        let engine_value = value.to_value();
        let outs = rec
            .time(&root, "sync.propagate", 1, move || {
                running
                    .send_named(input, engine_value)
                    .and_then(|()| running.drain_raw())
            })
            .map_err(|e| e.to_string())?;
        let after = h.running.stats();
        rec.count(
            "sync.computations",
            (after.computations - before.computations) as f64,
        );
        rec.count(
            "sync.memo_skips",
            (after.memo_skips - before.memo_skips) as f64,
        );

        for ev in &outs {
            let Some(v) = ev.value() else { continue };
            h.out_seq += 1;
            let update = Update::Changed {
                session: h.id,
                seq: h.out_seq,
                value: PlainValue::from_value(v).ok_or("output has no plain form")?,
            };
            rec.time(&root, "protocol.encode", 1, || {
                (update_line(&update), event_line(EnqueueOutcome::Accepted))
            });
        }

        rec.time(&root, "cluster.append_encode", 1, || {
            journal_append_request(0, sid, &entry, EPOCH)
        });
        let cluster = &stack.cluster;
        rec.time(&root, "cluster.replica_append", 1, move || {
            cluster.handle_journal_append(0, sid, entry, EPOCH)
        });
        h.suffix.push((input.clone(), value.clone()));
    }

    let answer = rec.time(&root, "server.query", 1, || stack.server.query(h.id))?;
    let want = PlainValue::from_value(h.running.current()).ok_or("output has no plain form")?;
    if answer.value != want || h.session.query().value != want {
        return Err(format!(
            "layers disagree on slot {}: server {:?}, session {:?}, runtime {want:?}",
            h.slot,
            answer.value,
            h.session.query().value
        ));
    }
    rec.close(root);
    if h.suffix.len() >= SNAPSHOT_INTERVAL {
        snapshot(rec, stack, h, restores)?;
    }
    Ok(())
}

/// Snapshots, ships, truncates behind, and (while the restore budget
/// lasts) restores the previous snapshot plus the suffix, which must land
/// on the same output.
fn snapshot(
    rec: &mut Recorder,
    stack: &Stack,
    h: &mut Hosted,
    restores: &mut usize,
) -> Result<(), String> {
    let root = rec.root(workload::trace_id(h.slot, h.sent.saturating_sub(1)));
    let running = &h.running;
    let snap = rec
        .time(&root, "sync.snapshot", 1, || running.snapshot())
        .ok_or("the synchronous engine always snapshots")?;
    let wire = snap.to_wire();
    let bytes = wire
        .as_ref()
        .map_or(0, |w| serde_json::to_string(w).map_or(0, |s| s.len()));
    rec.count("sync.snapshot_bytes", bytes as f64);
    let (sid, through, trace) = (h.slot as u64, h.seq, root.trace);
    let meta = h.meta.clone();
    let cluster = &stack.cluster;
    rec.time(&root, "cluster.snapshot_ship", 1, move || {
        let line = snapshot_ship_request(0, sid, &meta, wire.as_ref(), through, trace, EPOCH);
        cluster.handle_snapshot_ship(
            0,
            sid,
            meta,
            wire.map(Box::new),
            through,
            false,
            trace,
            EPOCH,
        );
        line
    });
    let journal = &mut h.journal;
    rec.time(&root, "journal.truncate", 1, move || {
        journal.truncate_through(through)
    });
    if *restores > 0 {
        *restores -= 1;
        let (graph, base, suffix) = (&h.graph, &h.base, &h.suffix);
        let restored = rec.time(&root, "sync.restore", 1, || -> Result<Value, String> {
            let mut fresh = Signals::from_dynamic_graph(graph.clone()).start(Engine::Synchronous);
            fresh.set_governor(Some(EventLimits::default()), None);
            if let Some(base) = base {
                fresh.restore(base).map_err(|e| e.to_string())?;
            }
            for (input, value) in suffix {
                fresh
                    .send_named(input, value.to_value())
                    .and_then(|()| fresh.drain_raw())
                    .map_err(|e| e.to_string())?;
            }
            Ok(fresh.current().clone())
        })?;
        if &restored != h.running.current() {
            return Err(format!("restore diverged on slot {}", h.slot));
        }
    }
    h.base = Some(snap);
    h.suffix.clear();
    rec.close(root);
    Ok(())
}

fn close(rec: &mut Recorder, stack: &Stack, h: Hosted) -> Result<(), String> {
    let root = rec.root((h.slot as u64 + 1) << 32);
    rec.time(&root, "server.close", 1, || stack.server.close(h.id))?;
    rec.close(root);
    h.session.stop();
    h.running.stop();
    Ok(())
}

/// Replays `spec`'s seeded inputs through every layer and returns the
/// per-layer metrics. Writes the spans and a self-time summary to `dir`.
pub fn run(spec: &Spec, seed: u64, dir: &Path) -> Result<Metrics, String> {
    let server_config = ServerConfig {
        shards: 1,
        ..ServerConfig::default()
    };
    let replica_host = Arc::new(Server::start(server_config));
    let mut cluster_config = ClusterConfig::new(1, PEERS.iter().map(|p| p.to_string()).collect());
    // The replay drives the replica handlers directly: no heartbeats, and
    // no takeover of the silent primary.
    cluster_config.heartbeat = Duration::from_secs(3600);
    cluster_config.takeover = Duration::from_secs(3600);
    let stack = Stack {
        registry: Registry::standard(),
        env: InputEnv::standard(),
        server: Server::start(server_config),
        cluster: Cluster::start(replica_host, cluster_config),
    };
    let mut rec = Recorder::new();
    let mut restores = RESTORES;
    let mut hosted = Vec::new();
    for (slot, program) in workload::live_programs(spec, seed).iter().enumerate() {
        hosted.push(host(&mut rec, &stack, seed, slot, program)?);
    }

    if spec.kind == Kind::SessionChurn {
        for cycle in 0..CHURN_CYCLES {
            let slot = workload::cycle_slot(spec, cycle);
            let mut h = host(
                &mut rec,
                &stack,
                seed,
                slot,
                &workload::cycle_program(seed, cycle),
            )?;
            frame(
                &mut rec,
                &stack,
                &mut h,
                spec.frame,
                cycle.is_multiple_of(2),
                &mut restores,
            )?;
            snapshot(&mut rec, &stack, &mut h, &mut restores)?;
            close(&mut rec, &stack, h)?;
        }
    } else {
        let mut frames = 0usize;
        while frames * spec.frame < REPLAY_EVENTS {
            for h in &mut hosted {
                frame(
                    &mut rec,
                    &stack,
                    h,
                    spec.frame,
                    frames.is_multiple_of(2),
                    &mut restores,
                )?;
                frames += 1;
            }
        }
    }
    for mut h in hosted {
        if !h.suffix.is_empty() {
            snapshot(&mut rec, &stack, &mut h, &mut restores)?;
        }
        close(&mut rec, &stack, h)?;
    }
    stack.cluster.stop();

    write_spans(
        &dir.join(format!("spans-{}-{seed}-replay.ndjson", spec.name)),
        &rec.spans,
    )
    .map_err(|e| format!("cannot write spans: {e}"))?;
    let self_time: Vec<String> = rec
        .self_ns
        .iter()
        .map(|(name, ns)| format!("\"{name}\":{}", *ns as f64 / 1e3))
        .collect();
    std::fs::write(
        dir.join(format!("selftime-{}-{seed}.json", spec.name)),
        format!("{{\"self_us\":{{{}}}}}\n", self_time.join(",")),
    )
    .map_err(|e| format!("cannot write self times: {e}"))?;

    let mut m = Metrics::new();
    for (metric, span, unit) in [
        ("protocol.decode_us", "protocol.decode", "us"),
        ("protocol.encode_us", "protocol.encode", "us"),
        ("server.event_us", "server.event", "us"),
        ("server.batch_us_per_event", "server.batch", "us"),
        ("server.query_us", "server.query", "us"),
        ("session.enqueue_us", "session.enqueue", "us"),
        ("session.pump_us_per_event", "session.pump", "us"),
        ("journal.append_us", "journal.append", "us"),
        ("journal.truncate_us", "journal.truncate", "us"),
        ("blackbox.record_us", "blackbox.record", "us"),
        ("sync.propagate_us", "sync.propagate", "us"),
        ("sync.snapshot_us", "sync.snapshot", "us"),
        ("session.new_us", "session.new", "us"),
        ("server.close_us", "server.close", "us"),
        ("cluster.append_encode_us", "cluster.append_encode", "us"),
        ("cluster.replica_append_us", "cluster.replica_append", "us"),
        ("cluster.snapshot_ship_us", "cluster.snapshot_ship", "us"),
    ] {
        m.push(metric, rec.median_us(span), unit);
    }
    for (metric, span) in [
        ("sync.restore_ms", "sync.restore"),
        ("felm.compile_ms", "felm.compile"),
        ("registry.resolve_ms", "registry.resolve"),
        ("server.open_ms", "server.open"),
    ] {
        m.push(metric, rec.median_us(span) / 1e3, "ms");
    }
    m.push(
        "session.allocs_per_event",
        rec.allocs_per_unit(&["session.enqueue", "session.pump"]),
        "count",
    );
    m.push(
        "journal.allocs_per_append",
        rec.allocs_per_unit(&["journal.append"]),
        "count",
    );
    m.push(
        "blackbox.allocs_per_record",
        rec.allocs_per_unit(&["blackbox.record"]),
        "count",
    );
    m.push(
        "sync.allocs_per_event",
        rec.allocs_per_unit(&["sync.propagate"]),
        "count",
    );
    m.push(
        "sync.computations_per_event",
        rec.mean_count("sync.computations"),
        "count",
    );
    m.push(
        "sync.memo_skips_per_event",
        rec.mean_count("sync.memo_skips"),
        "count",
    );
    m.push(
        "sync.snapshot_bytes",
        rec.mean_count("sync.snapshot_bytes"),
        "bytes",
    );
    Ok(m)
}
