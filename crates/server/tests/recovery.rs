//! Tentpole integration: crash recovery observed through the public
//! `Server` API. A session whose runtime dies keeps its id, its
//! subscribers, and its queryability; outputs under injected crashes
//! match an uninterrupted synchronous replay; and only restart-budget
//! exhaustion ends a session, with the `recovery_failed` close reason.
//! A seeded 64-session chaos run holds every recovery verdict at once.

use std::thread;
use std::time::Duration;

use elm_environment::{FaultPlan, Simulator};
use elm_runtime::{PlainValue, RuntimeSnapshot, Value, WireSnapshot};
use elm_server::{
    BackpressurePolicy, ProgramSpec, RestartPolicy, Server, ServerConfig, SessionConfig, Update,
};
use elm_signals::{Engine, Program, Running};

#[test]
fn crashy_session_recovers_in_place_with_subscribers_intact() {
    let server = Server::start(ServerConfig {
        shards: 1,
        session: SessionConfig::default(),
        idle_timeout: None,
        admission: Default::default(),
    });
    let s = server
        .open(ProgramSpec::Builtin("crashy"), None, None, false)
        .unwrap()
        .session;
    let rx = server.subscribe(s).unwrap();

    server.event(s, "Mouse.x", PlainValue::Int(5)).unwrap();
    server.event(s, "Mouse.x", PlainValue::Int(-1)).unwrap(); // panic + restart
    server.event(s, "Mouse.x", PlainValue::Int(7)).unwrap();

    // Same session id answers queries after the crash, and the poisoned
    // node stays NoChange (paper §3.3.2) across the restart: the -1 and
    // the post-recovery 7 both leave the output at 10.
    let q = server.query(s).unwrap();
    assert!(q.poisoned);
    assert_eq!(q.value, PlainValue::Int(10));

    let stats = server.session_stats(s).unwrap();
    assert_eq!(stats.recovery.restarts, 1);
    assert!(stats.recovery.replayed_events <= stats.recovery.snapshot_count.max(1) * 256);
    assert!(!stats.poisoned || stats.recovery.restarts > 0);

    // The pre-crash update reached the subscriber exactly once, and the
    // channel is still connected — closing the session proves it with a
    // final `closed` message.
    server.close(s).unwrap();
    let updates: Vec<Update> = rx.iter().collect();
    let changes: Vec<&Update> = updates
        .iter()
        .filter(|u| matches!(u, Update::Changed { .. }))
        .collect();
    assert_eq!(changes.len(), 1, "{updates:?}");
    match changes[0] {
        Update::Changed { seq, value, .. } => {
            assert_eq!(*seq, 1);
            assert_eq!(value, &PlainValue::Int(10));
        }
        _ => unreachable!(),
    }
    match updates.last() {
        Some(Update::Closed { reason, .. }) => assert_eq!(reason, "closed"),
        other => panic!("stream must end with closed, got {other:?}"),
    }
    server.shutdown();
}

/// The programs recovered under injected crashes, each with the inputs it
/// reads: the native `chaos` graph, then FElm programs whose state is a
/// bounded list, a string, a pair, a record, a data type, and (the last)
/// a function, which has no wire form.
const RECOVERED: [(ProgramSpec<'static>, &[&str]); 7] = [
    (ProgramSpec::Builtin("chaos"), &["Mouse.clicks", "Mouse.x"]),
    (
        ProgramSpec::Source("main = foldp (\\x l -> if length l > 4 then [x] else x :: l) [] Mouse.x"),
        &["Mouse.x"],
    ),
    (
        ProgramSpec::Source("main = foldp (\\w s -> s ++ w) \"\" Words.input"),
        &["Words.input"],
    ),
    (
        ProgramSpec::Source("main = foldp (\\p a -> (fst a + fst p, snd p)) (0, 0) Mouse.position"),
        &["Mouse.position"],
    ),
    (
        ProgramSpec::Source(
            "main = foldp (\\x r -> {last = x, sum = r.sum + x}) {last = 0, sum = 0} Mouse.x",
        ),
        &["Mouse.x"],
    ),
    (
        ProgramSpec::Source(
            "data Acc = Even Int | Odd Int\n\
             main = foldp (\\x a -> case a of | Even n -> Odd (n + x) | Odd n -> Even (n - 2 * x)) (Even 0) Mouse.x",
        ),
        &["Mouse.x"],
    ),
    (
        ProgramSpec::Source(
            "main = lift2 (\\f x -> f x) (lift (\\a -> \\b -> a + b) Mouse.x) Mouse.y",
        ),
        &["Mouse.x", "Mouse.y"],
    ),
];

/// Event `n` on `input`, of the input's type.
fn event(input: &str, n: i64) -> (String, PlainValue) {
    let value = match input {
        "Mouse.clicks" => PlainValue::Unit,
        "Mouse.position" => {
            PlainValue::Pair(Box::new(PlainValue::Int(n)), Box::new(PlainValue::Int(-n)))
        }
        "Words.input" => PlainValue::Str(format!("w{n},")),
        _ => PlainValue::Int(n),
    };
    (input.to_string(), value)
}

#[test]
fn injected_crashes_match_uninterrupted_synchronous_replay() {
    // Feed each program a deterministic trace while the fault plan
    // crashes the runtime roughly every fifty events, then demand the
    // final output equal a crash-free single-session replay.
    let faults = FaultPlan {
        seed: 0xC0FFEE,
        crash: 0.02,
        ..FaultPlan::disabled()
    };
    let server = Server::start(ServerConfig {
        shards: 1,
        session: SessionConfig {
            queue_capacity: 64,
            policy: BackpressurePolicy::Block,
            snapshot_interval: 16,
            journal_segment: 16,
            restart: RestartPolicy {
                max_restarts: 10_000,
                ..RestartPolicy::default()
            },
            faults,
            // Trace under fire: recovery must re-attach the tracer and
            // keep outputs byte-identical to the crash-free replay.
            observe: true,
            ..SessionConfig::default()
        },
        idle_timeout: None,
        admission: Default::default(),
    });
    for (i, (spec, inputs)) in RECOVERED.into_iter().enumerate() {
        let s = server.open(spec, None, None, false).unwrap().session;

        let events: Vec<(String, PlainValue)> = (1..=400)
            .flat_map(|n| inputs.iter().map(move |input| event(input, n)))
            .collect();
        for chunk in events.chunks(32) {
            server.batch(s, chunk).unwrap();
        }
        while server.query(s).unwrap().queue_len > 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }

        let stats = server.session_stats(s).unwrap();
        assert!(
            stats.recovery.restarts > 0,
            "{spec:?}: faults must actually fire"
        );
        assert!(
            stats.recovery.max_replay <= 16,
            "{spec:?}: snapshots bound replay, saw {}",
            stats.recovery.max_replay
        );

        // Uninterrupted oracle, snapshotted half way.
        let (_, graph) = server.registry().resolve(spec).unwrap();
        let start = || Program::from_dynamic_graph(graph.clone()).start(Engine::Synchronous);
        let feed = |run: &mut Running<Value>, events: &[(String, PlainValue)]| {
            for (input, value) in events {
                run.send_named(input, value.to_value()).unwrap();
            }
            run.drain_raw().unwrap();
        };
        let (prefix, suffix) = events.split_at(events.len() / 2);
        let mut oracle = start();
        feed(&mut oracle, prefix);
        let half = oracle.snapshot().expect("a synchronous runtime snapshots");
        feed(&mut oracle, suffix);
        let expected = PlainValue::from_value(oracle.current()).unwrap();

        assert_eq!(server.query(s).unwrap().value, expected, "{spec:?}");

        // A replica restores the shipped snapshot from its JSON wire form
        // and replays the suffix. A function has no wire form: a session
        // holding one falls back to its journal.
        let wire = half.to_wire();
        if i == RECOVERED.len() - 1 {
            assert!(wire.is_none(), "{spec:?}: a closure has no wire form");
            continue;
        }
        let json = serde_json::to_string(&wire.expect("data has a wire form")).unwrap();
        let wire: WireSnapshot = serde_json::from_str(&json).unwrap();
        let mut resumed = start();
        resumed.restore(&RuntimeSnapshot::from_wire(&wire)).unwrap();
        feed(&mut resumed, suffix);
        assert_eq!(
            PlainValue::from_value(resumed.current()),
            Some(expected),
            "{spec:?}"
        );
    }
    server.shutdown();
}

#[test]
fn budget_exhaustion_closes_with_recovery_failed() {
    let server = Server::start(ServerConfig {
        shards: 1,
        session: SessionConfig {
            restart: RestartPolicy {
                max_restarts: 0,
                ..RestartPolicy::default()
            },
            ..SessionConfig::default()
        },
        idle_timeout: None,
        admission: Default::default(),
    });
    let s = server
        .open(ProgramSpec::Builtin("crashy"), None, None, false)
        .unwrap()
        .session;
    let rx = server.subscribe(s).unwrap();

    server.event(s, "Mouse.x", PlainValue::Int(-1)).unwrap();

    // The eviction sweep removes the session; its stream must end with
    // the recovery_failed reason.
    match rx.iter().last() {
        Some(Update::Closed { reason, session }) => {
            assert_eq!(reason, "recovery_failed");
            assert_eq!(session, s);
        }
        other => panic!("expected terminal closed update, got {other:?}"),
    }
    assert!(server.query(s).is_err(), "session is gone");

    let (global, _) = server.stats();
    assert_eq!(global.recovery_failed, 1);
    server.shutdown();
}

/// Sums every sample of one exactly-named Prometheus family.
fn scraped_family_sum(text: &str, family: &str) -> u64 {
    text.lines()
        .filter(|l| !l.starts_with('#') && l.starts_with(family))
        .filter(|l| matches!(l.as_bytes().get(family.len()), Some(b'{') | Some(b' ')))
        .filter_map(|l| l.rsplit_once(' '))
        .filter_map(|(_, v)| v.parse::<f64>().ok())
        .sum::<f64>() as u64
}

#[test]
fn seeded_chaos_across_64_sessions_recovers_every_session_exactly() {
    // The full chaos mix (node-panic poison pills, runtime crashes,
    // journal append failures, shard stalls, queue bursts) over 64
    // observed `chaos` sessions of 2000 simulator events each, seed 7.
    const SESSIONS: usize = 64;
    const EVENTS: usize = 2000;
    const SNAPSHOT_INTERVAL: u64 = 256;
    let faults = FaultPlan::chaos(7);
    let traces = Simulator::fan_out_with_faults(7, SESSIONS, EVENTS, &faults);
    let server = Server::start(ServerConfig {
        session: SessionConfig {
            snapshot_interval: SNAPSHOT_INTERVAL,
            journal_segment: SNAPSHOT_INTERVAL as usize,
            // Fault volume alone must never exhaust the budget: a failed
            // recovery is the defect this test looks for.
            restart: RestartPolicy {
                max_restarts: 100_000,
                ..RestartPolicy::default()
            },
            faults,
            observe: true,
            ..SessionConfig::default()
        },
        ..ServerConfig::default()
    });
    let ids: Vec<u64> = (0..SESSIONS)
        .map(|_| {
            let info = server.open(ProgramSpec::Builtin("chaos"), None, None, true);
            info.unwrap().session
        })
        .collect();

    // One driver per session: 64-event batches, then wait for the drain.
    thread::scope(|s| {
        for (&sid, trace) in ids.iter().zip(&traces) {
            let server = &server;
            s.spawn(move || {
                let events: Vec<(String, PlainValue)> = trace
                    .events
                    .iter()
                    .map(|e| (e.input.clone(), e.value.clone()))
                    .collect();
                for chunk in events.chunks(64) {
                    server.batch(sid, chunk).unwrap();
                }
                while server.query(sid).unwrap().queue_len > 0 {
                    thread::sleep(Duration::from_millis(1));
                }
            });
        }
    });

    let (global, per_session) = server.stats();
    assert_eq!(global.recovery_failed, 0, "a session exhausted its budget");
    assert!(
        global.recovery.max_replay <= SNAPSHOT_INTERVAL,
        "a recovery replayed {} events, above the snapshot interval",
        global.recovery.max_replay
    );
    let panicked = per_session
        .iter()
        .filter(|s| s.runtime.node_panics > 0)
        .count();
    assert!(
        panicked * 4 >= SESSIONS,
        "only {panicked}/{SESSIONS} sessions saw a node panic"
    );

    // Every final equals an uninterrupted synchronous replay of the same
    // laced trace, so recovery lost and duplicated nothing.
    let (_, graph) = server
        .registry()
        .resolve(ProgramSpec::Builtin("chaos"))
        .unwrap();
    for (&sid, trace) in ids.iter().zip(&traces) {
        let mut oracle = Program::from_dynamic_graph(graph.clone()).start(Engine::Synchronous);
        for e in trace
            .events
            .iter()
            .filter(|e| graph.input_named(&e.input).is_some())
        {
            oracle.send_named(&e.input, e.value.to_value()).unwrap();
            oracle.drain_raw().unwrap();
        }
        let expected = PlainValue::from_value(oracle.current()).unwrap();
        assert_eq!(server.query(sid).unwrap().value, expected, "session {sid}");
    }

    // The scrape tells the supervisor's story and carries the core
    // families of an observed run.
    let text = server.metrics_text();
    assert_eq!(
        scraped_family_sum(&text, "elm_restarts_total"),
        global.recovery.restarts,
        "scraped restarts disagree with the supervisor"
    );
    for family in [
        "elm_events_total{",
        "elm_node_compute_seconds_bucket{",
        "elm_restarts_total{",
    ] {
        assert!(
            text.lines().any(|l| l.starts_with(family)),
            "scrape lacks {family}...}} samples"
        );
    }
    server.shutdown();
}
