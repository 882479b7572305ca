//! A client's FElm source that nests too deep is refused with an error
//! reply, not a crash: the compiler's nesting bound stops every recursive
//! stage before it can overflow the compiling thread's stack, which used
//! to abort the whole server.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use elm_server::{net, NetConfig, Server, ServerConfig};
use serde_json::Value as Json;

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client { stream, reader }
    }

    /// Opens `source` (felm text, lines joined by `\n`) and returns the
    /// reply.
    fn open_source(&mut self, source: &str) -> Json {
        let escaped = source.replace('\\', "\\\\").replace('\n', "\\n");
        let line = format!("{{\"cmd\":\"open\",\"source\":\"{escaped}\"}}\n");
        self.stream.write_all(line.as_bytes()).unwrap();
        let mut reply = String::new();
        self.reader.read_line(&mut reply).unwrap();
        serde_json::from_str(reply.trim()).unwrap()
    }
}

fn ok(reply: &Json) -> bool {
    reply.get("ok") == Some(&Json::Bool(true))
}

fn definitions(n: usize) -> String {
    let mut src: String = (0..n)
        .map(|i| format!("f{i} = lift (\\x -> x + {i}) Mouse.x\n"))
        .collect();
    src.push_str("main = f0");
    src
}

fn nested_parens(n: usize) -> String {
    format!(
        "main = lift (\\x -> {}x{}) Mouse.x",
        "(".repeat(n),
        ")".repeat(n)
    )
}

#[test]
fn sources_nested_too_deep_are_refused_and_the_connection_goes_on() {
    let server = Arc::new(Server::start(ServerConfig {
        shards: 2,
        ..ServerConfig::default()
    }));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    thread::spawn(move || net::serve(server, listener));
    let mut c = Client::connect(addr);

    // About the deepest programs that compiled before the bound; they
    // still do.
    for source in [nested_parens(550), definitions(800)] {
        let reply = c.open_source(&source);
        assert!(ok(&reply), "{reply:?}");
    }

    // Each of these overflowed the compiler's stack before the bound. The
    // last is a line of parentheses just under the wire's line cap.
    let cap = NetConfig::default().max_line_bytes;
    let filler = cap - "{\"cmd\":\"open\",\"source\":\"main = \"}\n".len();
    for source in [
        nested_parens(1000),
        definitions(1000),
        format!("main = {}", "(".repeat(filler)),
    ] {
        let reply = c.open_source(&source);
        assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "{reply:?}");
        let error = reply.get("error").and_then(Json::as_str).unwrap_or("");
        assert!(error.contains("nests deeper than"), "{reply:?}");
    }

    // The same connection, and the server, serve on.
    let reply = c.open_source("main = foldp (\\c n -> n + 1) 0 Mouse.clicks");
    assert!(ok(&reply), "{reply:?}");
    c.stream
        .write_all(b"{\"cmd\":\"open\",\"program\":\"counter\"}\n")
        .unwrap();
    let mut line = String::new();
    c.reader.read_line(&mut line).unwrap();
    let reply: Json = serde_json::from_str(line.trim()).unwrap();
    assert!(ok(&reply), "{reply:?}");
}
