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
