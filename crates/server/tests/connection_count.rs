//! What a connection costs the server stays with the connection. The
//! thread count does not depend on how many clients are connected (each
//! connection lives in its home shard's poll loop, not in threads of its
//! own), and a client's socket is closed when it disconnects, even while
//! a session it subscribed to lives on. Kept in its own test binary, and
//! its tests run one at a time, so no other test's threads or file
//! descriptors come and go while the process-wide counts are read.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use elm_server::{net, ProgramSpec, Server, ServerConfig};

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn serving() -> (Arc<Server>, std::net::SocketAddr) {
    let server = Arc::new(Server::start(ServerConfig {
        shards: 2,
        ..ServerConfig::default()
    }));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let srv = Arc::clone(&server);
    thread::spawn(move || net::serve(srv, listener));
    (server, addr)
}

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

fn process_threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

/// A connected client that has opened a session and sent it one event.
fn client_with_an_event(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut reply = String::new();
    stream
        .write_all(b"{\"cmd\":\"open\",\"program\":\"counter\"}\n")
        .unwrap();
    reader.read_line(&mut reply).unwrap();
    let json: serde_json::Value = serde_json::from_str(reply.trim()).unwrap();
    let session = match json.get("session") {
        Some(serde_json::Value::I64(n)) => *n as u64,
        Some(serde_json::Value::U64(n)) => *n,
        other => panic!("bad open reply {reply}: {other:?}"),
    };
    stream
        .write_all(
            format!(
                "{{\"cmd\":\"event\",\"session\":{session},\"input\":\"Mouse.clicks\",\"value\":\"Unit\"}}\n"
            )
            .as_bytes(),
        )
        .unwrap();
    reply.clear();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.contains("\"accepted\""), "{reply}");
    (stream, reader)
}

#[test]
fn thread_count_does_not_depend_on_connections() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (_server, addr) = serving();
    let mut clients = vec![client_with_an_event(addr)];
    let with_one = process_threads();
    clients.extend((1..32).map(|_| client_with_an_event(addr)));
    assert_eq!(clients.len(), 32);
    assert_eq!(process_threads(), with_one, "connections spawned threads");
}

#[test]
fn a_subscriber_that_disconnects_gives_its_socket_back() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (server, addr) = serving();
    let session = server
        .open(ProgramSpec::Builtin("counter"), None, None, false)
        .unwrap()
        .session;
    // One client stays connected throughout, so whatever the front end
    // opens for itself is open before the baseline is read.
    let _kept = client_with_an_event(addr);
    let baseline = open_fds();

    for _ in 0..8 {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(format!("{{\"cmd\":\"subscribe\",\"session\":{session}}}\n").as_bytes())
            .unwrap();
        let mut reply = String::new();
        BufReader::new(&stream).read_line(&mut reply).unwrap();
        assert!(reply.contains("\"ok\":true"), "{reply}");
    }

    // The session stays open and quiet, so no update can find the
    // subscribers' sockets gone: only their disconnects close them.
    let deadline = Instant::now() + Duration::from_secs(5);
    while open_fds() != baseline {
        assert!(
            Instant::now() < deadline,
            "{} descriptors open, {baseline} before the subscribers came",
            open_fds()
        );
        thread::sleep(Duration::from_millis(10));
    }
    assert!(server.query(session).is_ok(), "the session stays open");
}
