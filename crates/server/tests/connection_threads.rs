//! Subscriptions spawn no threads: a wire subscriber is a sink its
//! session's shard writes through, and a connection is served by its
//! home shard's poll loop. Kept in its own test binary so no other test's
//! threads come and go while the process thread count is read.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use elm_server::{net, Server, ServerConfig};

fn process_threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

/// Sends `lines` in one write and reads one reply per line.
fn round_trips(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    lines: &[String],
) -> Vec<String> {
    let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
    stream.write_all(text.as_bytes()).unwrap();
    (0..lines.len())
        .map(|_| {
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            reply
        })
        .collect()
}

#[test]
fn subscribing_many_sessions_on_one_connection_spawns_no_thread() {
    let server = Arc::new(Server::start(ServerConfig {
        shards: 1,
        ..ServerConfig::default()
    }));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    thread::spawn(move || net::serve(server, listener));

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    let opens = vec![r#"{"cmd":"open","program":"counter"}"#.to_string(); 256];
    let sessions: Vec<u64> = round_trips(&mut stream, &mut reader, &opens)
        .iter()
        .map(|reply| {
            let json: serde_json::Value = serde_json::from_str(reply.trim()).unwrap();
            match json.get("session") {
                Some(serde_json::Value::I64(n)) => *n as u64,
                Some(serde_json::Value::U64(n)) => *n,
                other => panic!("bad open reply {reply}: {other:?}"),
            }
        })
        .collect();

    let before = process_threads();
    let subscribes: Vec<String> = sessions
        .iter()
        .map(|s| format!(r#"{{"cmd":"subscribe","session":{s}}}"#))
        .collect();
    for reply in round_trips(&mut stream, &mut reader, &subscribes) {
        assert!(reply.contains(r#""ok":true"#), "{reply}");
    }
    assert_eq!(process_threads(), before, "subscriptions spawned threads");

    // The subscriptions are live: every session streams its update, and
    // each update follows its event's ack.
    let events: Vec<String> = sessions
        .iter()
        .map(|s| {
            format!(r#"{{"cmd":"event","session":{s},"input":"Mouse.clicks","value":"Unit"}}"#)
        })
        .collect();
    stream
        .write_all(
            events
                .iter()
                .map(|l| format!("{l}\n"))
                .collect::<String>()
                .as_bytes(),
        )
        .unwrap();
    let (mut acks, mut updates) = (0, 0);
    while acks < sessions.len() || updates < sessions.len() {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        if line.starts_with(r#"{"update":"changed""#) {
            updates += 1;
            assert!(updates <= acks, "update before its ack: {line}");
        } else {
            assert!(line.contains(r#""outcome":"accepted""#), "{line}");
            acks += 1;
        }
    }
    assert_eq!(process_threads(), before);
}
