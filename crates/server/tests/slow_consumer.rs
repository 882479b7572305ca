//! A subscriber whose connection stops reading never stalls its shard:
//! shards push updates onto the connection without blocking, and the
//! stalled connection is cut as a slow consumer within its deadline. Kept
//! in its own test binary because the slow-disconnect counter is
//! process-wide.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use elm_runtime::PlainValue;
use elm_server::net::{self, NetConfig};
use elm_server::{ProgramSpec, Server, ServerConfig};

fn start(config: NetConfig) -> (Arc<Server>, std::net::SocketAddr) {
    let server = Arc::new(Server::start(ServerConfig {
        shards: 1,
        ..ServerConfig::default()
    }));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let srv = Arc::clone(&server);
    thread::spawn(move || net::serve_with(srv, listener, config));
    (server, addr)
}

fn read_line(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    line.trim().to_string()
}

#[test]
fn a_stalled_subscriber_never_stalls_its_shard() {
    let before = net::counters().slow_disconnects;
    let deadline = Duration::from_millis(500);
    let (server, addr) = start(NetConfig {
        outbound_queue: 8,
        write_deadline: deadline,
        ..NetConfig::default()
    });
    // Both sessions live on the one shard.
    let fat = server
        .open(ProgramSpec::Builtin("latest-word"), None, None, false)
        .unwrap()
        .session;
    let lean = server
        .open(ProgramSpec::Builtin("counter"), None, None, false)
        .unwrap()
        .session;

    // The slow client subscribes to the fat session, then never reads.
    let slow = TcpStream::connect(addr).unwrap();
    let mut slow_writer = slow.try_clone().unwrap();
    let mut slow_reader = BufReader::new(slow);
    slow_writer
        .write_all(format!("{{\"cmd\":\"subscribe\",\"session\":{fat}}}\n").as_bytes())
        .unwrap();
    assert!(read_line(&mut slow_reader).contains("\"ok\":true"));

    let healthy = TcpStream::connect(addr).unwrap();
    let mut healthy_writer = healthy.try_clone().unwrap();
    let mut healthy_reader = BufReader::new(healthy);
    let event = format!(
        "{{\"cmd\":\"event\",\"session\":{lean},\"input\":\"Mouse.clicks\",\"value\":\"Unit\"}}\n"
    );

    // Fat updates stuff the slow socket; the shard keeps serving the
    // lean session over the healthy connection until the slow
    // subscriber is cut and its sink dropped.
    let word = "w".repeat(64 * 1024);
    let start_time = Instant::now();
    let mut slowest = Duration::ZERO;
    let mut clicks = 0;
    while server.session_stats(fat).unwrap().ingress.subscribers > 0 {
        assert!(
            start_time.elapsed() < Duration::from_secs(10),
            "slow subscriber was never cut"
        );
        server
            .event(fat, "Words.input", PlainValue::Str(word.clone()))
            .unwrap();
        let asked = Instant::now();
        healthy_writer.write_all(event.as_bytes()).unwrap();
        assert!(read_line(&mut healthy_reader).contains("\"accepted\""));
        slowest = slowest.max(asked.elapsed());
        clicks += 1;
    }
    assert!(
        slowest < deadline,
        "a round trip on the shard took {slowest:?} while a subscriber stalled"
    );
    assert_eq!(net::counters().slow_disconnects, before + 1);
    assert_eq!(server.query(lean).unwrap().value, PlainValue::Int(clicks));

    // The slow socket is torn down: reads drain what was in flight
    // and then hit EOF (or a reset).
    let inner = slow_reader.get_mut();
    inner
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut sink = [0u8; 64 * 1024];
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
}

/// A running `elm-server` process, killed when dropped.
struct ServerProcess(std::process::Child);

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The `update` or reply line's integer `field`.
fn int_field(line: &str, field: &str) -> u64 {
    let json: serde_json::Value = serde_json::from_str(line).unwrap();
    match json.get(field) {
        Some(serde_json::Value::I64(n)) => *n as u64,
        Some(serde_json::Value::U64(n)) => *n,
        other => panic!("no integer {field} in {line}: {other:?}"),
    }
}

#[test]
fn a_client_that_never_reads_is_cut_while_its_home_shard_serves_another() {
    // A separate one-shard server process with the default front-end
    // tuning, so this cut does not move the slow-disconnect counter the
    // test above reads, and both clients share the one shard as home.
    let deadline = NetConfig::default().write_deadline;
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_elm-server"))
        .args(["--addr", "127.0.0.1:0", "--shards", "1"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let stdout = child.stdout.take().unwrap();
    let _server = ServerProcess(child);
    // Held open to the end: the server prints more after its banner.
    let mut stdout = BufReader::new(stdout);
    let mut banner = String::new();
    stdout.read_line(&mut banner).unwrap();
    let addr = banner
        .strip_prefix("elm-server listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in {banner:?}"))
        .to_string();

    let healthy = TcpStream::connect(&addr).unwrap();
    healthy
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut healthy_writer = healthy.try_clone().unwrap();
    let mut healthy_reader = BufReader::new(healthy);
    let mut round_trip = |line: String| {
        healthy_writer
            .write_all(format!("{line}\n").as_bytes())
            .unwrap();
        read_line(&mut healthy_reader)
    };
    let fat = int_field(
        &round_trip(r#"{"cmd":"open","program":"latest-word"}"#.to_string()),
        "session",
    );
    let lean = int_field(
        &round_trip(r#"{"cmd":"open","program":"counter"}"#.to_string()),
        "session",
    );
    let word = "w".repeat(4096);
    let set_word = format!(
        r#"{{"cmd":"event","session":{fat},"input":"Words.input","value":{{"Str":"{word}"}}}}"#
    );
    assert!(round_trip(set_word).contains("\"accepted\""));
    let subscribed = round_trip(format!(r#"{{"cmd":"subscribe","session":{lean}}}"#));
    assert!(subscribed.contains("\"ok\":true"), "{subscribed}");

    // The slow client pipelines queries of the fat session and never
    // reads: its socket stops taking replies, its outbound queue fills,
    // its home shard stops reading it, and its writes block until the
    // server cuts it.
    let started = Instant::now();
    let mut slow = TcpStream::connect(&addr).unwrap();
    let (cut_tx, cut_rx) = std::sync::mpsc::channel();
    let query = format!("{{\"cmd\":\"query\",\"session\":{fat}}}\n").repeat(64);
    thread::spawn(move || {
        while slow.write_all(query.as_bytes()).is_ok() {}
        let _ = cut_tx.send(started.elapsed());
    });

    // Meanwhile the healthy client on the same shard gets every reply
    // and every update, each round trip well inside the deadline.
    let event = format!(
        "{{\"cmd\":\"event\",\"session\":{lean},\"input\":\"Mouse.clicks\",\"value\":\"Unit\"}}\n"
    );
    let mut clicks = 0;
    let cut_after = loop {
        if let Ok(cut_after) = cut_rx.try_recv() {
            break cut_after;
        }
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "the client that never reads was never cut"
        );
        let asked = Instant::now();
        healthy_writer.write_all(event.as_bytes()).unwrap();
        assert!(read_line(&mut healthy_reader).contains("\"accepted\""));
        clicks += 1;
        let update = read_line(&mut healthy_reader);
        assert_eq!(int_field(&update, "seq"), clicks, "{update}");
        assert!(
            asked.elapsed() < deadline / 2,
            "a round trip took {:?} beside the client that never reads",
            asked.elapsed()
        );
        thread::sleep(Duration::from_millis(5));
    };
    // Cut within the deadline of its socket filling, plus slack for a
    // loaded host; counted once in the server's own scrape.
    assert!(cut_after < deadline * 3, "cut only after {cut_after:?}");
    healthy_writer
        .write_all(b"{\"cmd\":\"metrics\"}\n")
        .unwrap();
    let metrics: serde_json::Value = serde_json::from_str(&read_line(&mut healthy_reader)).unwrap();
    let text = metrics.get("metrics").and_then(|m| m.as_str()).unwrap();
    let disconnects: f64 = text
        .lines()
        .filter_map(|l| l.strip_prefix("elm_subscriber_disconnects_total"))
        .filter_map(|rest| rest.rsplit_once(' '))
        .filter_map(|(_, v)| v.parse::<f64>().ok())
        .sum();
    assert_eq!(disconnects, 1.0, "{text}");
    healthy_writer
        .write_all(format!("{{\"cmd\":\"query\",\"session\":{lean}}}\n").as_bytes())
        .unwrap();
    let value = read_line(&mut healthy_reader);
    assert!(value.contains(&format!("{{\"Int\":{clicks}}}")), "{value}");
}
