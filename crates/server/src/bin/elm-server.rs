//! The `elm-server` daemon: hosts FRP sessions over TCP.
//!
//! ```text
//! elm-server [--addr 127.0.0.1:7878] [--shards N] [--queue N]
//!            [--policy block|drop-oldest|coalesce] [--idle-ms N]
//!            [--peer-id I --peers HOST:PORT,HOST:PORT,...]
//!            [--heartbeat-ms N] [--takeover-ms N] [--snapshot-interval N]
//!            [--net-seed S] [--partition-window A:B:START_MS:DUR_MS]...
//!            [--no-fencing]
//! ```
//!
//! Cluster mode: pass `--peer-id` and `--peers` to join an N-process
//! peer group. `--peers` lists every member's address (including this
//! process's own, at position `--peer-id`); the process binds that
//! address, replicates each hosted session's journal to its rendezvous
//! replica, and takes over a dead peer's sessions after `--takeover-ms`
//! without a heartbeat.
//!
//! Chaos plumbing (cluster mode only): `--net-seed` turns on the
//! deterministic network-fault proxy on the peer wire with light random
//! delay/drop/duplicate/reorder; `--partition-window A:B:START_MS:DUR_MS`
//! (repeatable) schedules a full bidirectional cut between peers `A` and
//! `B` relative to process start; `--no-fencing` disables epoch fencing
//! (for demonstrating why it exists — never in production).

use std::net::TcpListener;
use std::process::exit;
use std::sync::Arc;
use std::time::Duration;

use elm_environment::fault::FaultPlan;
use elm_server::{
    net, BackpressurePolicy, Cluster, ClusterConfig, NetFault, NetFaultConfig, PartitionWindow,
    Server, ServerConfig,
};

fn usage() -> ! {
    eprintln!(
        "usage: elm-server [--addr HOST:PORT] [--shards N] [--queue N] \
         [--policy block|drop-oldest|coalesce] [--idle-ms N] \
         [--peer-id I --peers HOST:PORT,...] [--heartbeat-ms N] \
         [--takeover-ms N] [--snapshot-interval N] [--net-seed S] \
         [--partition-window A:B:START_MS:DUR_MS]... [--no-fencing]"
    );
    exit(2)
}

fn main() {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut config = ServerConfig::default();
    let mut peer_id: Option<usize> = None;
    let mut peers: Vec<String> = Vec::new();
    let mut heartbeat_ms: u64 = 100;
    let mut takeover_ms: u64 = 1000;
    let mut net_seed: Option<u64> = None;
    let mut windows: Vec<PartitionWindow> = Vec::new();
    let mut fencing = true;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addr" => addr = value(),
            "--shards" => config.shards = value().parse().unwrap_or_else(|_| usage()),
            "--queue" => {
                config.session.queue_capacity = value().parse().unwrap_or_else(|_| usage())
            }
            "--policy" => {
                config.session.policy =
                    BackpressurePolicy::parse(&value()).unwrap_or_else(|| usage())
            }
            "--idle-ms" => {
                config.idle_timeout = Some(Duration::from_millis(
                    value().parse().unwrap_or_else(|_| usage()),
                ))
            }
            "--peer-id" => peer_id = Some(value().parse().unwrap_or_else(|_| usage())),
            "--peers" => {
                peers = value()
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect()
            }
            "--heartbeat-ms" => heartbeat_ms = value().parse().unwrap_or_else(|_| usage()),
            "--takeover-ms" => takeover_ms = value().parse().unwrap_or_else(|_| usage()),
            "--snapshot-interval" => {
                config.session.snapshot_interval = value().parse().unwrap_or_else(|_| usage())
            }
            "--net-seed" => net_seed = Some(value().parse().unwrap_or_else(|_| usage())),
            "--partition-window" => {
                windows.push(PartitionWindow::parse(&value()).unwrap_or_else(|e| {
                    eprintln!("elm-server: bad --partition-window: {e}");
                    exit(2);
                }))
            }
            "--no-fencing" => fencing = false,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }

    if let Some(id) = peer_id {
        // Cluster mode binds the peer's own published address.
        if id >= peers.len() {
            eprintln!(
                "elm-server: --peer-id {id} is out of range for {} peer(s)",
                peers.len()
            );
            exit(2);
        }
        addr = peers[id].clone();
    }

    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("elm-server: cannot bind {addr}: {e}");
            exit(1);
        }
    };
    // The flight recorder outlives whatever kills the process: dump it on
    // panic (SIGKILL needs no hook — the adopting peer dumps instead).
    {
        let peer = peer_id;
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let name = match peer {
                Some(id) => format!("BLACKBOX_panic_peer{id}.ndjson"),
                None => "BLACKBOX_panic.ndjson".to_string(),
            };
            elm_server::blackbox().dump_to(std::path::Path::new(&name));
            eprintln!("elm-server: panic — flight recorder dumped to {name}");
            default_hook(info);
        }));
    }

    // With port 0 the system picks one: report the address actually bound.
    let addr = listener.local_addr().map_or(addr, |a| a.to_string());
    let server = Arc::new(Server::start(config));
    let _cluster = peer_id.map(|id| {
        elm_server::blackbox().set_peer(id);
        let mut cc = ClusterConfig::new(id, peers.clone());
        cc.heartbeat = Duration::from_millis(heartbeat_ms.max(1));
        cc.takeover = Duration::from_millis(takeover_ms.max(1));
        cc.fencing = fencing;
        if !fencing {
            eprintln!("elm-server: WARNING epoch fencing disabled (--no-fencing)");
        }
        if net_seed.is_some() || !windows.is_empty() {
            // Random faults only when a seed was given; scheduled
            // partition windows work either way.
            let fault_config = match net_seed {
                Some(_) => NetFaultConfig::light(),
                None => NetFaultConfig::disabled(),
            };
            let plan = FaultPlan {
                seed: net_seed.unwrap_or(0),
                ..FaultPlan::disabled()
            };
            cc.netfault = Some(Arc::new(NetFault::new(
                plan,
                peers.len(),
                fault_config,
                windows.clone(),
            )));
            println!(
                "elm-server peer {id}: netfault active (seed {}, {} partition window(s))",
                net_seed.unwrap_or(0),
                windows.len()
            );
        }
        let cluster = Cluster::start(Arc::clone(&server), cc);
        println!(
            "elm-server peer {id}/{} in cluster mode (heartbeat {heartbeat_ms}ms, \
             takeover {takeover_ms}ms)",
            peers.len()
        );
        cluster
    });
    println!(
        "elm-server listening on {addr} ({} shards, queue {}, policy {})",
        config.shards,
        config.session.queue_capacity,
        config.session.policy.label()
    );
    println!("builtin programs: {}", server.registry().names().join(", "));
    net::serve(server, listener);
}
