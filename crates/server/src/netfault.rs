//! Deterministic in-process network-fault proxy for the peer wire.
//!
//! Cluster failover has to survive more than clean process deaths: real
//! networks delay, drop, duplicate, and reorder traffic, and sometimes
//! partition a peer from the rest of the group entirely. [`NetFault`]
//! interposes on every outbound replication link ([`crate::cluster`]'s
//! `run_outbound`) and injects exactly those faults — driven by the same
//! seeded [`FaultPlan`] as every other fault class, so a failover race is
//! reproducible by seed.
//!
//! Two kinds of interference compose:
//!
//! * **Scheduled partitions**: [`PartitionWindow`]s name a peer pair and
//!   a `[start, start+duration)` interval relative to process start.
//!   While a window covers a link, nothing is written on it in either
//!   direction — the line is *retained* and retried, preserving the
//!   link's FIFO order, exactly like replication to a dead peer. At heal
//!   the queued backlog flushes in order, which is what exercises the
//!   epoch fences: a zombie primary's buffered appends arrive at the new
//!   owner carrying a stale epoch.
//! * **Random per-line faults**: seeded per-link delay, drop, duplicate,
//!   and reorder. Faults are scoped by verb so they perturb *timing*
//!   without forging a violation the chaos verdict would then blame on
//!   the server: only heartbeats may be dropped or held back for
//!   reordering (they are idempotent liveness signals with no retransmit),
//!   only appends and heartbeats are duplicated (the replica store
//!   ignores duplicate seqs), and `takeover`/`hello` control verbs are
//!   subject to delay only.
//!
//! The proxy is in-process and below the TCP connect path, so it only
//! shapes the *peer* wire; client connections (the data plane, the
//! split-brain probes) are never touched — which is the point: during a
//! partition both sides stay reachable by clients, and the verdict can
//! observe who still answers.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use elm_environment::fault::{FaultPlan, STREAM_NET};
use rand::rngs::StdRng;
use rand::Rng;

/// One scheduled full bidirectional partition between two peers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartitionWindow {
    /// One side of the cut (peer index).
    pub a: usize,
    /// The other side (peer index).
    pub b: usize,
    /// When the cut starts, relative to [`NetFault`] creation.
    pub start: Duration,
    /// How long the cut lasts.
    pub duration: Duration,
}

impl PartitionWindow {
    /// Parses the CLI form `A:B:START_MS:DURATION_MS`.
    ///
    /// # Errors
    ///
    /// Fails with a description when the string is not four `:`-separated
    /// non-negative integers.
    pub fn parse(s: &str) -> Result<PartitionWindow, String> {
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() != 4 {
            return Err(format!(
                "partition window '{s}' is not A:B:START_MS:DURATION_MS"
            ));
        }
        let num = |i: usize| -> Result<u64, String> {
            parts[i]
                .parse::<u64>()
                .map_err(|_| format!("partition window '{s}': '{}' is not a number", parts[i]))
        };
        Ok(PartitionWindow {
            a: num(0)? as usize,
            b: num(1)? as usize,
            start: Duration::from_millis(num(2)?),
            duration: Duration::from_millis(num(3)?),
        })
    }

    /// True while `elapsed` falls inside this window and the window cuts
    /// the (unordered) pair `{x, y}`.
    fn cuts(&self, x: usize, y: usize, elapsed: Duration) -> bool {
        let pair = (self.a == x && self.b == y) || (self.a == y && self.b == x);
        pair && elapsed >= self.start && elapsed < self.start + self.duration
    }
}

/// Per-class fault probabilities for the random (non-partition) faults.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetFaultConfig {
    /// Per-line probability of an injected delivery delay.
    pub delay: f64,
    /// How long a delayed line waits before the write, in milliseconds.
    pub delay_ms: u64,
    /// Per-heartbeat probability of dropping the line outright.
    pub drop_heartbeat: f64,
    /// Per-line probability of writing an append or heartbeat twice.
    pub duplicate: f64,
    /// Per-heartbeat probability of holding the line back so the next
    /// line on the link overtakes it (a one-slot reorder).
    pub reorder: f64,
}

impl NetFaultConfig {
    /// No random faults: only scheduled [`PartitionWindow`]s apply.
    pub fn disabled() -> NetFaultConfig {
        NetFaultConfig {
            delay: 0.0,
            delay_ms: 0,
            drop_heartbeat: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
        }
    }

    /// The light background mix `loadgen --partition` runs under: enough
    /// delay/drop/duplicate/reorder to shake out ordering assumptions
    /// without swamping the run.
    pub fn light() -> NetFaultConfig {
        NetFaultConfig {
            delay: 0.02,
            delay_ms: 2,
            drop_heartbeat: 0.02,
            duplicate: 0.02,
            reorder: 0.01,
        }
    }
}

/// What [`NetFault::process`] decided for one outbound line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// Sleep this long before writing (injected latency).
    pub delay: Duration,
    /// The lines to actually write, in order. Empty = dropped; two
    /// entries = duplicated; a previously held-back heartbeat may be
    /// appended after the current line (the reorder).
    pub lines: Vec<String>,
}

#[derive(Debug)]
struct LinkState {
    rng: StdRng,
    /// A heartbeat held back for reordering; released after the next line.
    held: Option<String>,
}

/// The wire verb of one rendered line: the parsed `"cmd"` field, `None`
/// for anything unparseable. Fault scoping keys off the protocol itself
/// rather than a raw substring probe, so a change to the serializer's
/// field rendering cannot silently reclassify lines and drop or reorder
/// a non-idempotent verb.
fn verb_of(line: &str) -> Option<String> {
    serde_json::from_str::<serde_json::Value>(line)
        .ok()?
        .get("cmd")?
        .as_str()
        .map(str::to_string)
}

/// The seeded network-fault proxy (see module docs). One instance is
/// shared by every outbound link of a process; per-link RNG streams are
/// derived as `FaultPlan::rng(STREAM_NET, from * peers + to)`, so each
/// directed link draws an independent but reproducible schedule.
#[derive(Debug)]
pub struct NetFault {
    plan: FaultPlan,
    peers: usize,
    config: NetFaultConfig,
    windows: Vec<PartitionWindow>,
    started: Instant,
    links: Mutex<HashMap<(usize, usize), LinkState>>,
}

impl NetFault {
    /// A proxy over `peers` peers with the given random-fault mix and
    /// partition schedule. The partition clock starts now.
    pub fn new(
        plan: FaultPlan,
        peers: usize,
        config: NetFaultConfig,
        windows: Vec<PartitionWindow>,
    ) -> NetFault {
        NetFault {
            plan,
            peers: peers.max(1),
            config,
            windows,
            started: Instant::now(),
            links: Mutex::new(HashMap::new()),
        }
    }

    /// True while a scheduled window cuts the `from ↔ to` pair. The
    /// caller must *retain* the line and retry (FIFO preserved), never
    /// drop it — a partition delays traffic, it does not lose it.
    pub fn partitioned(&self, from: usize, to: usize) -> bool {
        let elapsed = self.started.elapsed();
        self.windows.iter().any(|w| w.cuts(from, to, elapsed))
    }

    /// Applies the random fault mix to one outbound line on the
    /// `from → to` link and returns what to actually write.
    pub fn process(&self, from: usize, to: usize, line: &str) -> Delivery {
        let mut links = self.links.lock().expect("netfault lock");
        let st = links.entry((from, to)).or_insert_with(|| LinkState {
            rng: self.plan.rng(STREAM_NET, (from * self.peers + to) as u64),
            held: None,
        });
        let verb = verb_of(line);
        let verb = verb.as_deref();
        let heartbeat = verb == Some("heartbeat");
        let append = verb == Some("journal-append");
        let mut delay = Duration::ZERO;
        if self.config.delay > 0.0 && st.rng.gen_bool(self.config.delay) {
            delay = Duration::from_millis(self.config.delay_ms);
        }
        // Reorder: hold this heartbeat back; it is released after the
        // next line on the link, which thereby overtakes it.
        if heartbeat
            && st.held.is_none()
            && self.config.reorder > 0.0
            && st.rng.gen_bool(self.config.reorder)
        {
            st.held = Some(line.to_string());
            return Delivery {
                delay,
                lines: Vec::new(),
            };
        }
        let mut lines = Vec::new();
        let dropped = heartbeat
            && self.config.drop_heartbeat > 0.0
            && st.rng.gen_bool(self.config.drop_heartbeat);
        if !dropped {
            lines.push(line.to_string());
            if (heartbeat || append)
                && self.config.duplicate > 0.0
                && st.rng.gen_bool(self.config.duplicate)
            {
                lines.push(line.to_string());
            }
        }
        if let Some(held) = st.held.take() {
            lines.push(held);
        }
        Delivery { delay, lines }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hb() -> String {
        "{\"cmd\":\"heartbeat\",\"from\":0}".to_string()
    }

    fn append(seq: u64) -> String {
        format!("{{\"cmd\":\"journal-append\",\"from\":0,\"session\":1,\"seq\":{seq},\"input\":\"Mouse.clicks\",\"value\":\"Unit\",\"epoch\":1}}")
    }

    #[test]
    fn partition_windows_cut_both_directions_and_heal() {
        let nf = NetFault::new(
            FaultPlan::disabled(),
            3,
            NetFaultConfig::disabled(),
            vec![PartitionWindow {
                a: 0,
                b: 1,
                start: Duration::ZERO,
                duration: Duration::from_secs(3600),
            }],
        );
        assert!(nf.partitioned(0, 1));
        assert!(nf.partitioned(1, 0));
        assert!(!nf.partitioned(0, 2));
        assert!(!nf.partitioned(2, 1));
        // A window in the far future is not yet cutting.
        let later = NetFault::new(
            FaultPlan::disabled(),
            3,
            NetFaultConfig::disabled(),
            vec![PartitionWindow {
                a: 0,
                b: 1,
                start: Duration::from_secs(3600),
                duration: Duration::from_secs(1),
            }],
        );
        assert!(!later.partitioned(0, 1));
    }

    #[test]
    fn window_parse_round_trips_and_rejects_garbage() {
        assert_eq!(
            PartitionWindow::parse("0:2:1500:800").unwrap(),
            PartitionWindow {
                a: 0,
                b: 2,
                start: Duration::from_millis(1500),
                duration: Duration::from_millis(800),
            }
        );
        assert!(PartitionWindow::parse("0:2:1500").is_err());
        assert!(PartitionWindow::parse("0:2:abc:800").is_err());
    }

    #[test]
    fn fault_schedule_is_deterministic_per_seed_and_link() {
        let mix = NetFaultConfig {
            delay: 0.2,
            delay_ms: 1,
            drop_heartbeat: 0.3,
            duplicate: 0.3,
            reorder: 0.2,
        };
        let run = |seed: u64, from: usize, to: usize| -> Vec<Delivery> {
            let plan = FaultPlan {
                seed,
                ..FaultPlan::disabled()
            };
            let nf = NetFault::new(plan, 3, mix, Vec::new());
            (0..64)
                .map(|i| {
                    if i % 3 == 0 {
                        nf.process(from, to, &hb())
                    } else {
                        nf.process(from, to, &append(i))
                    }
                })
                .collect()
        };
        assert_eq!(run(42, 0, 1), run(42, 0, 1));
        assert_ne!(run(42, 0, 1), run(43, 0, 1));
        assert_ne!(run(42, 0, 1), run(42, 0, 2));
    }

    #[test]
    fn faults_are_scoped_by_verb() {
        let mix = NetFaultConfig {
            delay: 0.0,
            delay_ms: 0,
            drop_heartbeat: 1.0,
            duplicate: 1.0,
            reorder: 0.0,
        };
        let nf = NetFault::new(FaultPlan::disabled(), 2, mix, Vec::new());
        // Heartbeats: dropped (drop wins before duplicate applies).
        assert!(nf.process(0, 1, &hb()).lines.is_empty());
        // Appends: never dropped, but duplicated; the replica store
        // ignores the duplicate seq.
        let d = nf.process(0, 1, &append(7));
        assert_eq!(d.lines.len(), 2);
        assert_eq!(d.lines[0], d.lines[1]);
        // Control verbs pass through untouched.
        let takeover = "{\"cmd\":\"takeover\",\"from\":0,\"addr\":\"x\",\"sessions\":[1]}";
        assert_eq!(
            nf.process(0, 1, takeover),
            Delivery {
                delay: Duration::ZERO,
                lines: vec![takeover.to_string()],
            }
        );
    }

    #[test]
    fn reorder_holds_a_heartbeat_until_the_next_line_overtakes_it() {
        let mix = NetFaultConfig {
            delay: 0.0,
            delay_ms: 0,
            drop_heartbeat: 0.0,
            duplicate: 0.0,
            reorder: 1.0,
        };
        let nf = NetFault::new(FaultPlan::disabled(), 2, mix, Vec::new());
        // The heartbeat is held...
        assert!(nf.process(0, 1, &hb()).lines.is_empty());
        // ...and released after the next append, which overtakes it.
        let d = nf.process(0, 1, &append(1));
        assert_eq!(d.lines.len(), 2);
        assert!(d.lines[0].contains("journal-append"));
        assert!(d.lines[1].contains("heartbeat"));
    }
}
