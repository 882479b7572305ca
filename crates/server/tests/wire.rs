//! End-to-end wire test: a real TCP client speaking the newline-delimited
//! JSON protocol against `net::serve`.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use elm_server::{net, RestartPolicy, Server, ServerConfig, SessionConfig};
use serde_json::Value as Json;

fn start_with(config: ServerConfig) -> std::net::SocketAddr {
    let server = Arc::new(Server::start(config));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    thread::spawn(move || net::serve(server, listener));
    addr
}

fn start_server() -> std::net::SocketAddr {
    start_with(ServerConfig {
        shards: 2,
        ..ServerConfig::default()
    })
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client { stream, reader }
    }

    fn send(&mut self, line: &str) {
        self.stream.write_all(line.as_bytes()).unwrap();
        self.stream.write_all(b"\n").unwrap();
    }

    fn recv(&mut self) -> Json {
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        serde_json::from_str(line.trim()).unwrap()
    }

    fn round_trip(&mut self, line: &str) -> Json {
        self.send(line);
        self.recv()
    }
}

fn field<'a>(v: &'a Json, key: &str) -> &'a Json {
    v.get(key).unwrap_or_else(|| panic!("missing {key}: {v:?}"))
}

fn as_u64(v: &Json) -> u64 {
    match v {
        Json::U64(n) => *n,
        Json::I64(n) => *n as u64,
        other => panic!("not an integer: {other:?}"),
    }
}

fn assert_ok(v: &Json) {
    assert_eq!(field(v, "ok"), &Json::Bool(true), "{v:?}");
}

#[test]
fn full_session_lifecycle_over_tcp() {
    let addr = start_server();
    let mut c = Client::connect(addr);

    let opened = c.round_trip(r#"{"cmd":"open","program":"counter"}"#);
    assert_ok(&opened);
    let session = as_u64(field(&opened, "session"));
    assert_eq!(field(field(&opened, "initial"), "Int"), &Json::I64(0));

    for _ in 0..3 {
        let r = c.round_trip(&format!(
            r#"{{"cmd":"event","session":{session},"input":"Mouse.clicks","value":"Unit"}}"#
        ));
        assert_ok(&r);
        assert_eq!(field(&r, "outcome"), &Json::Str("accepted".into()));
    }

    let q = c.round_trip(&format!(r#"{{"cmd":"query","session":{session}}}"#));
    assert_ok(&q);
    assert_eq!(field(field(&q, "value"), "Int"), &Json::I64(3));
    assert_eq!(as_u64(field(&q, "queue_len")), 0);

    let closed = c.round_trip(&format!(r#"{{"cmd":"close","session":{session}}}"#));
    assert_ok(&closed);
    assert_eq!(as_u64(field(&closed, "closed")), session);

    let gone = c.round_trip(&format!(r#"{{"cmd":"query","session":{session}}}"#));
    assert_eq!(field(&gone, "ok"), &Json::Bool(false));
}

#[test]
fn subscribe_streams_updates_to_the_wire() {
    let addr = start_server();
    let mut c = Client::connect(addr);

    let opened = c.round_trip(r#"{"cmd":"open","program":"counter"}"#);
    assert_ok(&opened);
    let session = as_u64(field(&opened, "session"));

    let sub = c.round_trip(&format!(r#"{{"cmd":"subscribe","session":{session}}}"#));
    assert_ok(&sub);

    c.send(&format!(
        r#"{{"cmd":"event","session":{session},"input":"Mouse.clicks","value":"Unit"}}"#
    ));
    c.send(&format!(r#"{{"cmd":"query","session":{session}}}"#));

    // Replies and pushed updates interleave on the same socket; collect
    // until we have seen the update, the event reply, and the query reply.
    let mut update = None;
    let mut replies = 0;
    while update.is_none() || replies < 2 {
        let msg = c.recv();
        if msg.get("update").is_some() {
            update = Some(msg);
        } else {
            assert_ok(&msg);
            replies += 1;
        }
    }
    let update = update.unwrap();
    assert_eq!(field(&update, "update"), &Json::Str("changed".into()));
    assert_eq!(as_u64(field(&update, "seq")), 1);
    assert_eq!(field(field(&update, "value"), "Int"), &Json::I64(1));
}

#[test]
fn closed_update_with_reason_is_the_final_stream_message() {
    // A zero-restart budget turns the first crash into a recovery failure,
    // so the subscriber must see a final `closed` update carrying the
    // `recovery_failed` reason.
    let addr = start_with(ServerConfig {
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
    let mut c = Client::connect(addr);

    let opened = c.round_trip(r#"{"cmd":"open","program":"crashy"}"#);
    assert_ok(&opened);
    let session = as_u64(field(&opened, "session"));
    assert_ok(&c.round_trip(&format!(r#"{{"cmd":"subscribe","session":{session}}}"#)));

    c.send(&format!(
        r#"{{"cmd":"event","session":{session},"input":"Mouse.x","value":{{"Int":-1}}}}"#
    ));

    // Collect pushed updates until the stream's terminal `closed` line.
    let closed = loop {
        let msg = c.recv();
        if msg.get("update") == Some(&Json::Str("closed".into())) {
            break msg;
        }
    };
    assert_eq!(as_u64(field(&closed, "session")), session);
    assert_eq!(
        field(&closed, "reason"),
        &Json::Str("recovery_failed".into())
    );

    // The session itself is gone.
    let gone = c.round_trip(&format!(r#"{{"cmd":"query","session":{session}}}"#));
    assert_eq!(field(&gone, "ok"), &Json::Bool(false));
}

#[test]
fn ad_hoc_source_and_stats_over_tcp() {
    let addr = start_server();
    let mut c = Client::connect(addr);

    let src = "main = foldp (\\\\x acc -> acc + x) 0 Mouse.x";
    let opened = c.round_trip(&format!(r#"{{"cmd":"open","source":"{src}"}}"#));
    assert_ok(&opened);
    let session = as_u64(field(&opened, "session"));

    for n in [3, 4, 5] {
        let r = c.round_trip(&format!(
            r#"{{"cmd":"event","session":{session},"input":"Mouse.x","value":{{"Int":{n}}}}}"#
        ));
        assert_ok(&r);
    }
    let q = c.round_trip(&format!(r#"{{"cmd":"query","session":{session}}}"#));
    assert_eq!(field(field(&q, "value"), "Int"), &Json::I64(12));

    let stats = c.round_trip(r#"{"cmd":"stats"}"#);
    assert_ok(&stats);
    let global = field(&stats, "global");
    assert_eq!(as_u64(field(global, "sessions_live")), 1);
    assert_eq!(as_u64(field(global, "opened")), 1);

    let bad = c.round_trip(r#"{"cmd":"open"}"#);
    assert_eq!(field(&bad, "ok"), &Json::Bool(false));

    let garbage = c.round_trip("this is not json");
    assert_eq!(field(&garbage, "ok"), &Json::Bool(false));
}

#[test]
fn pipelined_replies_keep_request_order_and_precede_their_updates() {
    let addr = start_server();
    let mut c = Client::connect(addr);

    // Two sessions on different shards (ids are placed `id % shards`).
    // An unkeyed open lands on the connection's home shard, so the second
    // session is keyed onto the other one.
    let a = as_u64(field(
        &c.round_trip(r#"{"cmd":"open","program":"counter"}"#),
        "session",
    ));
    let b = as_u64(field(
        &c.round_trip(&format!(
            r#"{{"cmd":"open","program":"counter","session":{}}}"#,
            a + 1
        )),
        "session",
    ));
    assert_ne!(a % 2, b % 2, "sessions {a} and {b} share a shard");
    for s in [a, b] {
        assert_ok(&c.round_trip(&format!(r#"{{"cmd":"subscribe","session":{s}}}"#)));
    }

    // ~200 interleaved request lines in one write, with a malformed line,
    // an event for an unknown session and a query among them.
    enum Want {
        Ack(u64),
        Malformed,
        Unknown,
        Query(i64),
    }
    let mut wants = Vec::new();
    let mut text = String::new();
    let mut sent_to_a = 0i64;
    for i in 0..200 {
        let line = match i {
            50 => {
                wants.push(Want::Malformed);
                r#"{"cmd":"event","session":"#.to_string()
            }
            100 => {
                wants.push(Want::Unknown);
                r#"{"cmd":"event","session":999,"input":"Mouse.clicks","value":"Unit"}"#.to_string()
            }
            150 => {
                wants.push(Want::Query(sent_to_a));
                format!(r#"{{"cmd":"query","session":{a}}}"#)
            }
            _ => {
                let s = if i % 3 == 0 { b } else { a };
                if s == a {
                    sent_to_a += 1;
                }
                wants.push(Want::Ack(s));
                format!(r#"{{"cmd":"event","session":{s},"input":"Mouse.clicks","value":"Unit"}}"#)
            }
        };
        text.push_str(&line);
        text.push('\n');
    }
    c.stream.write_all(text.as_bytes()).unwrap();

    // Per session: acks seen so far, and the last update seq seen.
    let mut acked = std::collections::HashMap::from([(a, 0u64), (b, 0u64)]);
    let mut last_update = std::collections::HashMap::from([(a, 0u64), (b, 0u64)]);
    let mut next = 0;
    while next < wants.len() || last_update[&a] < sent_to_a as u64 {
        let msg = c.recv();
        if msg.get("update").is_some() {
            assert_eq!(
                field(&msg, "update"),
                &Json::Str("changed".into()),
                "{msg:?}"
            );
            let s = as_u64(field(&msg, "session"));
            let seq = as_u64(field(&msg, "seq"));
            assert_eq!(seq, last_update[&s] + 1, "updates out of order: {msg:?}");
            // The k-th event to a counter session causes its k-th update,
            // and that event's ack must already be on the wire.
            assert!(
                seq <= acked[&s],
                "update {seq} of session {s} before its ack"
            );
            last_update.insert(s, seq);
            continue;
        }
        let want = wants
            .get(next)
            .unwrap_or_else(|| panic!("unexpected reply {msg:?}"));
        match want {
            Want::Ack(s) => {
                assert_ok(&msg);
                assert_eq!(field(&msg, "outcome"), &Json::Str("accepted".into()));
                *acked.get_mut(s).unwrap() += 1;
            }
            Want::Malformed => assert_eq!(field(&msg, "ok"), &Json::Bool(false), "{msg:?}"),
            Want::Unknown => {
                assert_eq!(field(&msg, "ok"), &Json::Bool(false), "{msg:?}");
                let error = field(&msg, "error").as_str().unwrap_or_default();
                assert!(error.contains("unknown session"), "{msg:?}");
            }
            Want::Query(n) => {
                assert_ok(&msg);
                assert_eq!(
                    field(field(&msg, "value"), "Int"),
                    &Json::I64(*n),
                    "{msg:?}"
                );
            }
        }
        next += 1;
    }
    assert_eq!(acked[&a], sent_to_a as u64);
    assert_eq!(last_update[&a], sent_to_a as u64);
    let sent_to_b = 197 - sent_to_a as u64;
    assert_eq!(acked[&b], sent_to_b);
    while last_update[&b] < sent_to_b {
        let msg = c.recv();
        let s = as_u64(field(&msg, "session"));
        assert_eq!(s, b, "{msg:?}");
        let seq = as_u64(field(&msg, "seq"));
        assert_eq!(seq, last_update[&b] + 1);
        last_update.insert(b, seq);
    }
}

#[test]
fn half_closed_pipeline_gets_every_reply_in_order_before_eof() {
    let addr = start_server();
    let mut c = Client::connect(addr);
    let s = as_u64(field(
        &c.round_trip(r#"{"cmd":"open","program":"counter"}"#),
        "session",
    ));

    // N events and one batch in one write, then end of input: the server
    // must still answer every request it read before it closes.
    const N: usize = 300;
    let mut text = String::new();
    for _ in 0..N {
        text.push_str(&format!(
            r#"{{"cmd":"event","session":{s},"input":"Mouse.clicks","value":"Unit"}}"#
        ));
        text.push('\n');
    }
    text.push_str(&format!(
        r#"{{"cmd":"batch","session":{s},"events":[{{"input":"Mouse.clicks","value":"Unit"}},{{"input":"Mouse.clicks","value":"Unit"}}]}}"#
    ));
    text.push('\n');
    c.stream.write_all(text.as_bytes()).unwrap();
    c.stream.shutdown(std::net::Shutdown::Write).unwrap();

    for i in 0..N {
        let reply = c.recv();
        assert_ok(&reply);
        assert_eq!(
            field(&reply, "outcome"),
            &Json::Str("accepted".into()),
            "reply {i}: {reply:?}"
        );
    }
    let batch = c.recv();
    assert_ok(&batch);
    assert_eq!(as_u64(field(field(&batch, "outcome"), "accepted")), 2);
    let mut rest = String::new();
    assert_eq!(c.reader.read_line(&mut rest).unwrap(), 0, "{rest}");
}

/// Reads one line, failing the test if none arrives within the client's
/// read timeout (a shard that waited on a shard would hang here).
fn recv_line(c: &mut Client) -> String {
    let mut line = String::new();
    let n = c
        .reader
        .read_line(&mut line)
        .expect("a line before the read timeout");
    assert!(n > 0, "connection closed early");
    line.trim().to_string()
}

#[test]
fn every_verb_pipelined_on_one_shard_gets_its_reply() {
    // One shard: every session, the connection's home and every reply
    // slot share one thread, so any verb that made the shard wait on a
    // shard (itself) would stall the connection instead of answering.
    let addr = start_with(ServerConfig {
        shards: 1,
        ..ServerConfig::default()
    });
    let mut c = Client::connect(addr);
    let event = r#"{"cmd":"event","session":0,"input":"Mouse.clicks","value":"Unit"}"#;
    let requests = [
        r#"{"cmd":"open","program":"counter","observe":true}"#.to_string(),
        r#"{"cmd":"open","source":"main = foldp (\\x acc -> acc + x) 0 Mouse.x"}"#.to_string(),
        event.to_string(),
        r#"{"cmd":"batch","session":0,"events":[{"input":"Mouse.clicks","value":"Unit"}]}"#
            .to_string(),
        r#"{"cmd":"query","session":0}"#.to_string(),
        r#"{"cmd":"subscribe","session":0}"#.to_string(),
        r#"{"cmd":"describe","session":1}"#.to_string(),
        r#"{"cmd":"stats","session":0}"#.to_string(),
        r#"{"cmd":"stats"}"#.to_string(),
        r#"{"cmd":"metrics"}"#.to_string(),
        r#"{"cmd":"blackbox"}"#.to_string(),
        r#"{"cmd":"trace","session":0}"#.to_string(),
        event.to_string(),
        r#"{"cmd":"close","session":1}"#.to_string(),
    ];
    let text: String = requests.iter().map(|l| format!("{l}\n")).collect();
    c.stream.write_all(text.as_bytes()).unwrap();

    let mut replies = Vec::new();
    let mut updates = 0;
    while replies.len() < requests.len() || updates < 1 {
        let line = recv_line(&mut c);
        if line.starts_with(r#"{"update""#) {
            updates += 1;
        } else if !line.starts_with(r#"{"trace""#) {
            replies.push(line);
        }
    }
    for (request, reply) in requests.iter().zip(&replies) {
        let json: Json = serde_json::from_str(reply).unwrap();
        assert_ok(&json);
        assert!(!reply.contains("shard is down"), "{request} -> {reply}");
    }
    assert_eq!(
        as_u64(field(
            &serde_json::from_str(&replies[0]).unwrap(),
            "session"
        )),
        0
    );
    assert_eq!(
        as_u64(field(
            &serde_json::from_str(&replies[1]).unwrap(),
            "session"
        )),
        1
    );
    let query: Json = serde_json::from_str(&replies[4]).unwrap();
    assert_eq!(field(field(&query, "value"), "Int"), &Json::I64(2));
    let stats: Json = serde_json::from_str(&replies[8]).unwrap();
    assert_eq!(as_u64(field(field(&stats, "global"), "sessions_live")), 2);

    // A plain-HTTP scrape on a second connection is answered and closed.
    let mut scrape = TcpStream::connect(addr).unwrap();
    scrape
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    scrape.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut response = String::new();
    std::io::Read::read_to_string(&mut scrape, &mut response).unwrap();
    assert!(response.starts_with("HTTP/1.0 200 OK"), "{response}");
    assert!(response.contains("elm_sessions_opened_total"), "{response}");
}
