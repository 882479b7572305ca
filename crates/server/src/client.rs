//! Minimal blocking NDJSON client with overload-aware retry.
//!
//! Speaks the same wire protocol as [`crate::net`]: one JSON request per
//! line, one JSON reply per line. The retry layer understands the typed
//! `{"ok":false,"error":"overloaded","retry_after_ms":N}` shed reply and
//! backs off with jittered exponential delays, honouring the server's
//! `retry_after_ms` hint as a floor — the cooperating half of the
//! admission-control contract.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value as Json;

/// Numeric accessor over the vendored JSON value.
fn as_u64(v: &Json) -> Option<u64> {
    match v {
        Json::U64(n) => Some(*n),
        Json::I64(n) if *n >= 0 => Some(*n as u64),
        _ => None,
    }
}

/// Retry/backoff tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// First retry delay, before the server hint and jitter.
    pub base_ms: u64,
    /// Ceiling on any single delay.
    pub max_ms: u64,
    /// How many retries before giving up and returning the shed reply.
    pub max_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_ms: 5,
            max_ms: 2_000,
            max_retries: 64,
        }
    }
}

/// What the retry layer has seen so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Requests handed to [`Client::request_with_retry`].
    pub requests: u64,
    /// `overloaded` replies received (one per shed attempt).
    pub sheds: u64,
    /// Attempts replayed after backoff.
    pub retries: u64,
    /// Requests that exhausted `max_retries` still shed.
    pub gave_up: u64,
}

/// One connection to the server's TCP front end.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    rng: StdRng,
    policy: RetryPolicy,
    stats: RetryStats,
}

/// Next backoff delay: exponential in the attempt number, floored by the
/// server's `retry_after_ms` hint, capped at `policy.max_ms`, and
/// jittered to the upper half of the window so synchronized clients
/// de-correlate.
fn backoff_ms(policy: RetryPolicy, attempt: u32, hint_ms: u64, rng: &mut StdRng) -> u64 {
    let exp = policy
        .base_ms
        .saturating_mul(1u64 << attempt.min(20))
        .min(policy.max_ms);
    let target = exp.max(hint_ms).min(policy.max_ms.max(hint_ms));
    if target <= 1 {
        return target;
    }
    rng.gen_range(target / 2 + 1..=target)
}

impl Client {
    /// Connects with the default policy, seeding jitter from `seed` so
    /// load-generation runs stay reproducible.
    ///
    /// # Errors
    ///
    /// Propagates the underlying socket error.
    pub fn connect(addr: SocketAddr, seed: u64) -> io::Result<Client> {
        Client::connect_with(addr, seed, RetryPolicy::default())
    }

    /// [`Client::connect`] with explicit retry tuning.
    ///
    /// # Errors
    ///
    /// Propagates the underlying socket error.
    pub fn connect_with(addr: SocketAddr, seed: u64, policy: RetryPolicy) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            reader,
            writer,
            rng: StdRng::seed_from_u64(seed),
            policy,
            stats: RetryStats::default(),
        })
    }

    /// Retry counters so far.
    pub fn stats(&self) -> RetryStats {
        self.stats
    }

    /// Sends one request line and returns the next reply object,
    /// skipping blank keepalives and subscription pushes.
    ///
    /// # Errors
    ///
    /// Fails on socket errors, EOF, or an unparseable reply line.
    pub fn request(&mut self, line: &str) -> io::Result<Json> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        loop {
            let mut reply = String::new();
            if self.reader.read_line(&mut reply)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            let reply = reply.trim();
            if reply.is_empty() {
                continue; // trace keepalive
            }
            let json: Json = serde_json::from_str(reply).map_err(|e| {
                io::Error::new(io::ErrorKind::InvalidData, format!("bad reply: {e}"))
            })?;
            if json.get("update").is_some() {
                continue; // interleaved subscription push
            }
            return Ok(json);
        }
    }

    /// [`Client::request`], but when the server sheds the request with
    /// `overloaded` it sleeps (jittered exponential backoff, floored at
    /// the server's `retry_after_ms` hint) and resends, up to
    /// `max_retries` times. The final shed reply is returned verbatim if
    /// the budget runs out, so callers can still see the refusal.
    ///
    /// # Errors
    ///
    /// Fails on socket errors, EOF, or an unparseable reply line.
    pub fn request_with_retry(&mut self, line: &str) -> io::Result<Json> {
        self.stats.requests += 1;
        let mut attempt = 0u32;
        loop {
            let reply = self.request(line)?;
            let overloaded = reply.get("error").and_then(Json::as_str) == Some("overloaded");
            if !overloaded {
                return Ok(reply);
            }
            self.stats.sheds += 1;
            if attempt >= self.policy.max_retries {
                self.stats.gave_up += 1;
                return Ok(reply);
            }
            let hint = reply.get("retry_after_ms").and_then(as_u64).unwrap_or(0);
            let delay = backoff_ms(self.policy, attempt, hint, &mut self.rng);
            thread::sleep(Duration::from_millis(delay));
            attempt += 1;
            self.stats.retries += 1;
        }
    }

    /// Opens a builtin program; returns the new session id.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or an error reply.
    pub fn open_builtin(&mut self, program: &str) -> io::Result<u64> {
        let reply = self.request(&format!("{{\"cmd\":\"open\",\"program\":\"{program}\"}}"))?;
        expect_ok(&reply)?;
        reply
            .get("session")
            .and_then(as_u64)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "open reply lacks session"))
    }

    /// Sends one event (with retry); `value` must already be the JSON
    /// encoding of a plain value, e.g. `{"Int":3}`.
    ///
    /// # Errors
    ///
    /// Fails on transport errors.
    pub fn event(&mut self, session: u64, input: &str, value: &str) -> io::Result<Json> {
        self.request_with_retry(&format!(
            "{{\"cmd\":\"event\",\"session\":{session},\"input\":\"{input}\",\"value\":{value}}}"
        ))
    }

    /// Queries the session's current output value.
    ///
    /// # Errors
    ///
    /// Fails on transport errors.
    pub fn query(&mut self, session: u64) -> io::Result<Json> {
        self.request(&format!("{{\"cmd\":\"query\",\"session\":{session}}}"))
    }

    /// Fetches the Prometheus exposition text via the `metrics` verb.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a malformed reply.
    pub fn metrics_text(&mut self) -> io::Result<String> {
        self.text_verb("{\"cmd\":\"metrics\"}", "metrics")
    }

    /// Fetches the cluster-federated exposition: the receiving peer fans
    /// out to the whole group and merges the scrapes with `peer` labels.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a malformed reply.
    pub fn metrics_text_cluster(&mut self) -> io::Result<String> {
        self.text_verb("{\"cmd\":\"metrics\",\"scope\":\"cluster\"}", "metrics")
    }

    /// Fetches the server's flight-recorder contents as NDJSON via the
    /// `blackbox` verb.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a malformed reply.
    pub fn blackbox_text(&mut self) -> io::Result<String> {
        self.text_verb("{\"cmd\":\"blackbox\"}", "blackbox")
    }

    /// Sends a verb whose reply carries one text payload in `field`.
    fn text_verb(&mut self, line: &str, field: &str) -> io::Result<String> {
        let reply = self.request(line)?;
        reply
            .get(field)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{field} reply lacks text"),
                )
            })
    }

    /// Closes a session.
    ///
    /// # Errors
    ///
    /// Fails on transport errors.
    pub fn close(&mut self, session: u64) -> io::Result<Json> {
        self.request(&format!("{{\"cmd\":\"close\",\"session\":{session}}}"))
    }
}

/// How many consecutive `moved` redirects a single request may follow
/// before the client declares a routing loop. During a partition two
/// peers can each believe the other owns a session; an uncapped client
/// would bounce between them forever.
const MAX_REDIRECT_HOPS: usize = 8;

/// A cluster-aware client: connects to any peer of the group, follows
/// typed `{"error":"moved","peer":...}` redirects to a session's new
/// home, and rides out a failover window by rotating peers with
/// jittered backoff until the takeover lands (or the deadline passes).
///
/// The client is also epoch-aware: every successful reply that carries a
/// `session`/`epoch` pair records the highest ownership epoch witnessed
/// for that session, and a later reply at a *lower* epoch — a zombie
/// primary still serving pre-takeover state — is refused and retried on
/// another peer instead of being returned to the caller.
pub struct ClusterClient {
    peers: Vec<SocketAddr>,
    current: usize,
    client: Option<Client>,
    rng: StdRng,
    policy: RetryPolicy,
    seed: u64,
    moves: u64,
    reconnects: u64,
    epochs: std::collections::HashMap<u64, u64>,
    stale_epochs: u64,
}

impl ClusterClient {
    /// Builds a client over the peer group; nothing connects until the
    /// first request.
    pub fn new(peers: Vec<SocketAddr>, seed: u64) -> ClusterClient {
        assert!(!peers.is_empty(), "a cluster has at least one peer");
        ClusterClient {
            peers,
            current: 0,
            client: None,
            rng: StdRng::seed_from_u64(seed ^ 0x636c_7573),
            policy: RetryPolicy::default(),
            seed,
            moves: 0,
            reconnects: 0,
            epochs: std::collections::HashMap::new(),
            stale_epochs: 0,
        }
    }

    /// `moved` redirects followed so far.
    pub fn moves(&self) -> u64 {
        self.moves
    }

    /// Replies refused because they reported a session epoch below the
    /// highest this client has witnessed (zombie-primary reads).
    pub fn stale_epochs(&self) -> u64 {
        self.stale_epochs
    }

    /// Reconnects performed so far (peer rotation + redirect targets).
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// The peer the client currently talks to.
    pub fn current_peer(&self) -> SocketAddr {
        self.peers[self.current]
    }

    /// Points the client at `peer` (following a redirect), registering
    /// the address if placement never listed it.
    fn point_at(&mut self, peer: SocketAddr) {
        match self.peers.iter().position(|p| *p == peer) {
            Some(i) => self.current = i,
            None => {
                self.peers.push(peer);
                self.current = self.peers.len() - 1;
            }
        }
        self.client = None;
    }

    fn rotate(&mut self) {
        self.current = (self.current + 1) % self.peers.len();
        self.client = None;
    }

    /// Compares a successful reply's `session`/`epoch` pair against the
    /// highest epoch witnessed so far. Returns a description when the
    /// reply is stale (served below a known-higher epoch); otherwise
    /// records the epoch as the new high-water mark and returns `None`.
    /// Replies without both fields (or with the pre-epoch value 0) pass
    /// through untouched.
    fn observe_epoch(&mut self, reply: &Json) -> Option<String> {
        let session = reply.get("session").and_then(as_u64)?;
        let epoch = reply.get("epoch").and_then(as_u64)?;
        if epoch == 0 {
            return None;
        }
        let known = self.epochs.entry(session).or_insert(0);
        if epoch < *known {
            return Some(format!(
                "session {session} served at stale epoch {epoch} < {known}"
            ));
        }
        *known = epoch;
        None
    }

    /// Records the owner epoch carried on a `moved` redirect and reports
    /// whether the redirect reveals an ownership *handoff*: an epoch
    /// above the one this client last witnessed for the session. A plain
    /// wrong-peer bounce (same epoch, or no epoch witnessed yet) returns
    /// `None`.
    fn moved_epoch_advanced(&mut self, reply: &Json) -> Option<(u64, u64)> {
        let session = reply.get("session").and_then(as_u64)?;
        let epoch = reply.get("epoch").and_then(as_u64)?;
        if epoch == 0 {
            return None;
        }
        let known = self.epochs.entry(session).or_insert(0);
        let witnessed = *known;
        *known = witnessed.max(epoch);
        (witnessed > 0 && epoch > witnessed).then_some((witnessed, epoch))
    }

    fn try_once(&mut self, line: &str) -> io::Result<Json> {
        if self.client.is_none() {
            let addr = self.peers[self.current];
            self.client = Some(Client::connect_with(
                addr,
                self.seed ^ self.reconnects,
                self.policy,
            )?);
            self.reconnects += 1;
        }
        let res = self
            .client
            .as_mut()
            .expect("connected above")
            .request_with_retry(line);
        if res.is_err() {
            self.client = None;
        }
        res
    }

    /// Sends one request, following `moved` redirects and riding out a
    /// failover window: a dead peer rotates to the next one, an
    /// `unknown session` reply polls again (the takeover may still be
    /// replaying), both with jittered backoff, until `deadline` expires.
    ///
    /// # Errors
    ///
    /// Fails when no peer serves the request within the deadline, or
    /// with a typed `route_loop` error when [`MAX_REDIRECT_HOPS`]
    /// consecutive `moved` redirects never reach an owner.
    pub fn request_routed(&mut self, line: &str, deadline: Duration) -> io::Result<Json> {
        self.route(line, deadline, false)
    }

    /// [`ClusterClient::request_routed`] for non-idempotent verbs like
    /// `event`: a transport error after the request was written leaves
    /// it ambiguous whether the server applied it, so instead of blindly
    /// resending, the client rotates to the next peer and surfaces the
    /// error. Unambiguous refusals — `moved` redirects, `unknown
    /// session` polls, and connect failures, where the request was
    /// definitely *not* applied — are still retried internally until
    /// `deadline`. Callers riding a failover resynchronize after an
    /// error via an idempotent `query` of the session's `last_seq`
    /// high-water mark and resume sending from there.
    ///
    /// # Errors
    ///
    /// Fails on the first ambiguous transport error, when no peer
    /// serves the request within the deadline, with a typed
    /// `epoch_advanced` error when a redirect reveals an ownership
    /// handoff, or with a typed `route_loop` error when
    /// [`MAX_REDIRECT_HOPS`] consecutive `moved` redirects never reach
    /// an owner.
    pub fn request_exact(&mut self, line: &str, deadline: Duration) -> io::Result<Json> {
        self.route(line, deadline, true)
    }

    /// The routing loop behind both request flavours; `exact` marks a
    /// non-idempotent request that must never be resent blindly.
    fn route(&mut self, line: &str, deadline: Duration, exact: bool) -> io::Result<Json> {
        let until = std::time::Instant::now() + deadline;
        let mut attempt = 0u32;
        let mut hops = 0usize;
        let mut last: Option<String> = None;
        loop {
            let fresh = self.client.is_none();
            let before = self.reconnects;
            match self.try_once(line) {
                Ok(reply) => {
                    let err = reply.get("error").and_then(Json::as_str);
                    if err == Some("moved") {
                        self.moves += 1;
                        hops += 1;
                        if hops >= MAX_REDIRECT_HOPS {
                            return Err(io::Error::other(format!(
                                "route_loop: {hops} consecutive moved redirects \
                                 never reached an owner: {line}"
                            )));
                        }
                        let handoff = self.moved_epoch_advanced(&reply);
                        // Follow the redirect either way, so an exact
                        // caller's resync query lands at the new owner.
                        match reply
                            .get("peer")
                            .and_then(Json::as_str)
                            .and_then(|p| p.parse::<SocketAddr>().ok())
                        {
                            Some(peer) => self.point_at(peer),
                            None => self.rotate(),
                        }
                        if let (true, Some((witnessed, epoch))) = (exact, handoff) {
                            // Ownership moved *under* this request stream
                            // (a demoted zombie redirected us to a
                            // higher-epoch adopter). The new owner's
                            // high-water mark may be behind what this
                            // client already sent, so transparently
                            // resending a non-idempotent request would
                            // apply it out of order. Surface a typed
                            // error; the caller resynchronizes from the
                            // owner's `last_seq` and resumes from there.
                            // Idempotent requests just follow along.
                            return Err(io::Error::other(format!(
                                "epoch_advanced: ownership moved from epoch \
                                 {witnessed} to {epoch}; resynchronize \
                                 before resending: {line}"
                            )));
                        }
                    } else {
                        let refused = if err.is_some_and(|e| e.starts_with("unknown session")) {
                            // Failover in flight: the new primary has not
                            // finished (or begun) the takeover replay yet.
                            format!("{reply:?}")
                        } else if let Some(stale) = self.observe_epoch(&reply) {
                            // A zombie primary answered from pre-takeover
                            // state; rotate toward the real owner.
                            self.stale_epochs += 1;
                            stale
                        } else {
                            return Ok(reply);
                        };
                        hops = 0;
                        last = Some(refused);
                        self.rotate();
                    }
                }
                Err(e) => {
                    // A failed *connect* (no bytes sent) is always safe
                    // to retry; past that point an exact request is
                    // ambiguous.
                    let connect_failed = fresh && self.reconnects == before;
                    self.rotate();
                    if exact && !connect_failed {
                        return Err(e);
                    }
                    hops = 0;
                    last = Some(e.to_string());
                }
            }
            if std::time::Instant::now() >= until {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "no peer served the request within the deadline \
                         (last: {}): {line}",
                        last.unwrap_or_else(|| "no attempt completed".to_string())
                    ),
                ));
            }
            let delay = backoff_ms(self.policy, attempt.min(6), 0, &mut self.rng);
            thread::sleep(Duration::from_millis(delay));
            attempt += 1;
        }
    }
}

/// Turns an `{"ok":false,...}` reply into an `io::Error`.
///
/// # Errors
///
/// Fails when the reply is not `ok`.
pub fn expect_ok(reply: &Json) -> io::Result<()> {
    if matches!(reply.get("ok"), Some(Json::Bool(true))) {
        Ok(())
    } else {
        Err(io::Error::other(format!("server refused: {reply:?}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionConfig;
    use crate::net::{serve_with, NetConfig};
    use crate::server::{Server, ServerConfig};
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn backoff_grows_honours_hint_and_stays_capped() {
        let policy = RetryPolicy {
            base_ms: 4,
            max_ms: 100,
            max_retries: 8,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let d0 = backoff_ms(policy, 0, 0, &mut rng);
        assert!((3..=4).contains(&d0), "{d0}");
        // The server hint floors the delay.
        let hinted = backoff_ms(policy, 0, 40, &mut rng);
        assert!(hinted > 20 && hinted <= 40, "{hinted}");
        // Large attempts saturate at the cap, never overflow.
        let late = backoff_ms(policy, 31, 0, &mut rng);
        assert!(late > 50 && late <= 100, "{late}");
    }

    #[test]
    fn retrying_client_rides_out_admission_sheds() {
        let server = Arc::new(Server::start(ServerConfig {
            shards: 1,
            admission: AdmissionConfig {
                enabled: true,
                session_events_per_sec: 50.0,
                session_burst: 2.0,
                ..AdmissionConfig::default()
            },
            ..ServerConfig::default()
        }));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        thread::spawn(move || serve_with(server, listener, NetConfig::default()));

        let mut client = Client::connect(addr, 7).unwrap();
        let sid = client.open_builtin("counter").unwrap();
        // Far more than the burst allows at once: only retries get these
        // through.
        for _ in 0..16 {
            let reply = client.event(sid, "Mouse.clicks", "\"Unit\"").unwrap();
            expect_ok(&reply).unwrap();
        }
        let stats = client.stats();
        assert_eq!(stats.requests, 16);
        assert!(stats.sheds > 0, "quota never triggered: {stats:?}");
        assert_eq!(stats.gave_up, 0, "{stats:?}");
        client.close(sid).unwrap();
    }

    #[test]
    fn cluster_client_follows_moved_redirects() {
        // The real home of the session.
        let server = Arc::new(Server::start(ServerConfig {
            shards: 1,
            ..ServerConfig::default()
        }));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let home = listener.local_addr().unwrap();
        let srv = Arc::clone(&server);
        thread::spawn(move || serve_with(srv, listener, NetConfig::default()));
        let sid = server
            .open(
                crate::registry::ProgramSpec::Builtin("counter"),
                None,
                None,
                false,
            )
            .unwrap()
            .session;

        // A fake stale peer that answers every line with a typed redirect.
        let stale_addr = spawn_static_peer(format!(
            "{{\"ok\":false,\"error\":\"moved\",\"session\":0,\"peer\":\"{home}\"}}\n"
        ));

        // The client starts on the stale peer and must end up at home.
        let mut client = ClusterClient::new(vec![stale_addr, home], 11);
        let reply = client
            .request_routed(
                &format!("{{\"cmd\":\"query\",\"session\":{sid}}}"),
                Duration::from_secs(10),
            )
            .unwrap();
        expect_ok(&reply).unwrap();
        assert!(client.moves() >= 1, "redirect was never followed");
        assert_eq!(client.current_peer(), home);
    }

    /// Serves `listener` as a fake peer that answers every request line
    /// with the static `reply` — or, when `reply` is empty, hangs up right
    /// after reading a line. Returns a count of the lines it has read.
    fn serve_static(listener: TcpListener, reply: String) -> Arc<AtomicUsize> {
        let lines = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&lines);
        thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { break };
                let (reply, seen) = (reply.clone(), Arc::clone(&seen));
                thread::spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut writer = stream;
                    let mut line = String::new();
                    while let Ok(n) = reader.read_line(&mut line) {
                        seen.fetch_add(usize::from(n > 0), Ordering::SeqCst);
                        if n == 0 || reply.is_empty() || writer.write_all(reply.as_bytes()).is_err()
                        {
                            break;
                        }
                        line.clear();
                    }
                });
            }
        });
        lines
    }

    fn spawn_static_peer(reply: String) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        serve_static(listener, reply);
        addr
    }

    #[test]
    fn mutually_redirecting_peers_trip_the_route_loop_cap() {
        // Two fake peers that each insist the *other* owns the session —
        // the split-brain routing state a partitioned cluster can reach.
        // Bind both listeners first so each knows the other's address.
        let la = TcpListener::bind("127.0.0.1:0").unwrap();
        let lb = TcpListener::bind("127.0.0.1:0").unwrap();
        let (aa, ab) = (la.local_addr().unwrap(), lb.local_addr().unwrap());
        for (listener, peer) in [(la, ab), (lb, aa)] {
            serve_static(
                listener,
                format!("{{\"ok\":false,\"error\":\"moved\",\"session\":1,\"peer\":\"{peer}\"}}\n"),
            );
        }

        for exact in [false, true] {
            let mut client = ClusterClient::new(vec![aa, ab], 13);
            let line = "{\"cmd\":\"query\",\"session\":1}";
            let deadline = Duration::from_secs(30);
            let err = if exact {
                client.request_exact(line, deadline)
            } else {
                client.request_routed(line, deadline)
            }
            .expect_err("an endless redirect chain must fail, not hang");
            assert!(
                err.to_string().contains("route_loop"),
                "expected a typed route_loop error (exact={exact}), got: {err}"
            );
            assert_eq!(client.moves(), MAX_REDIRECT_HOPS as u64);
        }
    }

    #[test]
    fn exact_requests_surface_an_epoch_advancing_redirect() {
        let event =
            "{\"cmd\":\"event\",\"session\":5,\"input\":\"Mouse.clicks\",\"value\":\"Unit\"}";
        let owner = spawn_static_peer("{\"ok\":true,\"session\":5,\"epoch\":1}\n".to_string());
        let adopter = spawn_static_peer("{\"ok\":true,\"session\":5,\"epoch\":2}\n".to_string());
        // A demoted zombie that redirects at the epoch-2 adopter.
        let zombie = spawn_static_peer(format!(
            "{{\"ok\":false,\"error\":\"moved\",\"session\":5,\"epoch\":2,\"peer\":\"{adopter}\"}}\n"
        ));

        let mut client = ClusterClient::new(vec![owner, zombie], 19);
        client
            .request_exact(event, Duration::from_secs(10))
            .unwrap();
        client.point_at(zombie);
        let err = client
            .request_exact(event, Duration::from_secs(10))
            .expect_err("a handoff under an exact request must not be resent");
        assert!(err.to_string().contains("epoch_advanced"), "{err}");
        // The redirect was still followed, so the resync lands at the
        // new owner directly.
        assert_eq!(client.current_peer(), adopter);

        // An idempotent request in the same spot just follows along.
        let mut client = ClusterClient::new(vec![owner, zombie], 19);
        client
            .request_routed(event, Duration::from_secs(10))
            .unwrap();
        client.point_at(zombie);
        let reply = client
            .request_routed(event, Duration::from_secs(10))
            .unwrap();
        assert_eq!(reply.get("epoch").and_then(as_u64), Some(2));
    }

    #[test]
    fn exact_requests_never_resend_after_an_ambiguous_transport_error() {
        // A peer that reads the request and hangs up without replying:
        // whether it applied the event is unknowable.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let lines = serve_static(listener, String::new());
        let line =
            "{\"cmd\":\"event\",\"session\":5,\"input\":\"Mouse.clicks\",\"value\":\"Unit\"}";

        let mut client = ClusterClient::new(vec![addr], 23);
        let err = client
            .request_exact(line, Duration::from_secs(10))
            .expect_err("the hang-up must surface");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        assert_eq!(lines.load(Ordering::SeqCst), 1, "the request was resent");

        // The idempotent flavour resends until its deadline instead.
        let mut client = ClusterClient::new(vec![addr], 23);
        let err = client
            .request_routed(line, Duration::from_millis(200))
            .expect_err("no reply ever comes");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
        assert!(lines.load(Ordering::SeqCst) > 2);
    }

    #[test]
    fn exact_requests_retry_a_refused_connect_on_the_next_peer() {
        // Reserve a port and release it: connecting there is refused, so
        // the request provably never left the client.
        let dead = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let live = spawn_static_peer("{\"ok\":true,\"session\":5,\"epoch\":1}\n".to_string());

        let mut client = ClusterClient::new(vec![dead, live], 29);
        let reply = client
            .request_exact(
                "{\"cmd\":\"event\",\"session\":5,\"input\":\"Mouse.clicks\",\"value\":\"Unit\"}",
                Duration::from_secs(10),
            )
            .unwrap();
        expect_ok(&reply).unwrap();
        assert_eq!(client.current_peer(), live);
        assert_eq!(client.reconnects(), 1);
    }

    #[test]
    fn replies_below_a_witnessed_epoch_are_refused_as_stale() {
        // A fresh owner serving epoch 2 and a zombie stuck at epoch 1.
        let fresh = spawn_static_peer(
            "{\"ok\":true,\"session\":9,\"value\":{\"Int\":4},\"last_seq\":4,\"epoch\":2}\n"
                .to_string(),
        );
        let zombie = spawn_static_peer(
            "{\"ok\":true,\"session\":9,\"value\":{\"Int\":1},\"last_seq\":1,\"epoch\":1}\n"
                .to_string(),
        );

        let mut client = ClusterClient::new(vec![fresh, zombie], 17);
        // First request lands on the fresh owner and records epoch 2.
        let reply = client
            .request_routed("{\"cmd\":\"query\",\"session\":9}", Duration::from_secs(10))
            .unwrap();
        assert_eq!(reply.get("epoch").and_then(as_u64), Some(2));

        // Force the next attempt onto the zombie: its epoch-1 reply must
        // be refused and retried, never surfaced, so the request still
        // resolves at epoch 2 once rotation comes back around.
        client.point_at(zombie);
        let reply = client
            .request_routed("{\"cmd\":\"query\",\"session\":9}", Duration::from_secs(10))
            .unwrap();
        assert_eq!(reply.get("epoch").and_then(as_u64), Some(2));
        assert!(
            client.stale_epochs() >= 1,
            "the zombie's epoch-1 reply was never flagged"
        );
    }
}
