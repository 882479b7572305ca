//! The ownership core on explicit clocks: every test here is one thread
//! stepping an [`Ownership`] through chosen instants, with no sleeps.
//! They read the wall clock once, for an origin, and so live apart from
//! `ownership.rs`, which CI keeps free of clock reads.

use super::*;
use crate::protocol::BackpressurePolicy;
use elm_runtime::PlainValue;

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

fn meta() -> SessionMeta {
    SessionMeta {
        program: "counter".to_string(),
        source: None,
        queue: 64,
        policy: BackpressurePolicy::Block,
    }
}

fn entry(seq: u64) -> JournalEntry {
    JournalEntry {
        seq,
        input: "Mouse.clicks".to_string(),
        value: PlainValue::Unit,
        trace: 0,
    }
}

/// Peer 0 of an `n`-peer group with the given takeover deadline, every
/// peer heard at `t0`.
fn core(n: usize, takeover: Duration, t0: Instant) -> Ownership {
    let peers = (0..n).map(|p| format!("127.0.0.1:{}", 7100 + p)).collect();
    let mut config = ClusterConfig::new(0, peers);
    config.takeover = takeover;
    Ownership::new(&config, t0)
}

/// The sessions `effects` adopt, in order.
fn adopted(effects: &[Effect]) -> Vec<u64> {
    let adopt = |e: &Effect| match e {
        Effect::Adopt(_, session, _, _) => Some(*session),
        _ => None,
    };
    effects.iter().filter_map(adopt).collect()
}

fn logs(effects: &[Effect]) -> usize {
    effects
        .iter()
        .filter(|e| matches!(e, Effect::Log(_)))
        .count()
}

/// Replicates session 7 from peer `from` at `at`, as its primary would.
fn replicate_session_7_from(own: &mut Ownership, from: usize, at: Instant) {
    let shipped = own.snapshot_ship(from, 7, meta(), None, 0, false, 0, 1, at);
    assert!(shipped.is_none());
    let appended = own.journal_append(from, 7, entry(1), 1, at);
    assert!(matches!(
        appended,
        Some(Effect::Record("replicated", 7, 1, ..))
    ));
}

fn replicate_session_7(own: &mut Ownership, at: Instant) {
    replicate_session_7_from(own, 1, at);
}

#[test]
fn quorum_counts_a_peer_only_while_its_heartbeats_are_recent() {
    let takeover = ms(1000);
    let t0 = Instant::now();
    let now = t0 + ms(1200); // peer 1 has been silent past the deadline

    // Peer 2 was last heard 0.6 × takeover ago: not recent, so this peer
    // alone is not a majority of three, and the takeover is refused.
    let mut own = core(3, takeover, t0);
    replicate_session_7(&mut own, t0);
    own.heard(2, now - ms(600));
    let effects = own.tick(now);
    assert_eq!(adopted(&effects), Vec::<u64>::new());
    assert_eq!(logs(&effects), 1);
    assert!(own.replicas.sessions.contains_key(&7));
    assert!(own.fences.is_empty());

    // Heard 0.4 × takeover ago, peer 2 counts: the takeover adopts, after
    // broadcasting it, at the next epoch.
    let mut own = core(3, takeover, t0);
    replicate_session_7(&mut own, t0);
    own.heard(2, now - ms(400));
    let effects = own.tick(now);
    assert_eq!(adopted(&effects), vec![7]);
    assert!(matches!(effects[0], Effect::Broadcast(ref line) if line.contains("takeover")));
    assert!(matches!(effects.last(), Some(Effect::Dump(1, s)) if s == &[7]));
    assert_eq!(own.fences[&7], 2);
    assert!(own.replicas.sessions.is_empty());

    // `elm_cluster_peer_up` is the same recency, read at scrape time.
    assert_eq!(own.scrape(now).up, [true, false, true]);
}

#[test]
fn a_majority_adopts_only_what_it_hosts_and_a_lone_peer_refuses() {
    let takeover = ms(1000);
    let t0 = Instant::now();
    let mut own = core(3, takeover, t0);
    replicate_session_7_from(&mut own, 2, t0);

    // Peer 1 falls silent while peer 2 heartbeats: a majority, held since
    // t0, so the takeover goes ahead. Peer 1 hosted nothing here, so it
    // adopts, broadcasts and logs nothing.
    let now = t0 + ms(1200);
    own.heard(2, now - ms(100));
    let effects = own.declare_dead(1, now);
    assert!(effects.is_empty(), "{effects:?}");
    assert!(own.replicas.sessions.contains_key(&7));

    // Then peer 2 falls silent too: this peer alone is 1 of 3, a minority.
    // The takeover of session 7 is refused, and its replica state is kept
    // intact for the majority's takeover or the heal.
    let now = t0 + ms(2400);
    let effects = own.declare_dead(2, now);
    assert_eq!(adopted(&effects), Vec::<u64>::new());
    assert_eq!(logs(&effects), 1);
    assert_eq!(own.replicas.sessions[&7].entries.len(), 1);
    assert!(own.fences.is_empty());
    assert_eq!(own.scrape(now).up, [true, false, false]);
}

/// Peer 0 of three (takeover 300 ms, ticks every 20 ms) backing up
/// session 7 for peer 1, after 600 ms in which nobody was heard: both
/// takeovers were refused, each logged once.
fn isolated_for_600_ms(t0: Instant) -> Ownership {
    let mut own = core(3, ms(300), t0);
    replicate_session_7(&mut own, t0);
    let mut effects = Vec::new();
    for t in (20..600).step_by(20) {
        effects.extend(own.tick(t0 + ms(t)));
    }
    assert_eq!(adopted(&effects), Vec::<u64>::new());
    assert_eq!(
        logs(&effects),
        2,
        "one refusal per silent peer: {effects:?}"
    );
    own
}

#[test]
fn a_refused_takeover_is_retried_once_a_majority_is_back() {
    let t0 = Instant::now();
    let mut own = isolated_for_600_ms(t0);
    // Peer 2 is back and heartbeats; peer 1 stays silent. Once the
    // majority has held for a full takeover deadline, session 7 is
    // adopted, once, and no refusal is logged again.
    let mut adoptions = Vec::new();
    for t in (600..3600).step_by(20) {
        own.heard(2, t0 + ms(t));
        let effects = own.tick(t0 + ms(t));
        assert_eq!(logs(&effects), 0, "at {t} ms: {effects:?}");
        adoptions.extend(adopted(&effects).into_iter().map(|s| (t, s)));
    }
    assert_eq!(adoptions, vec![(900, 7)]);
    assert!(own.replicas.sessions.is_empty());
}

#[test]
fn at_a_heal_a_peer_one_heartbeat_behind_is_not_adopted() {
    let t0 = Instant::now();
    let mut own = isolated_for_600_ms(t0);
    // The partition heals: peer 2 is heard at 600 ms, peer 1 one
    // heartbeat later, and both keep heartbeating. Peer 1 was silent past
    // the deadline when the majority came back, but it is alive.
    let mut effects = Vec::new();
    for t in (600..3600).step_by(20) {
        own.heard(2, t0 + ms(t));
        if t > 600 {
            own.heard(1, t0 + ms(t));
        }
        effects.extend(own.tick(t0 + ms(t)));
    }
    assert_eq!(adopted(&effects), Vec::<u64>::new());
    assert!(own.replicas.sessions.contains_key(&7));
    assert!(own.fences.is_empty());
}

#[test]
fn a_stale_takeover_broadcast_changes_nothing() {
    let t0 = Instant::now();
    let mut own = core(3, ms(1000), t0);
    // Peer 1 adopts session 5 at epoch 3 and starts replicating it here.
    let effects = own.takeover(1, "127.0.0.1:31", &[5], &[7], &[3], t0);
    let [Effect::Record("takeover", 5, ..), Effect::CloseMoved(5, addr, 7, 3)] = &effects[..]
    else {
        panic!("expected a takeover record, then a close: {effects:?}");
    };
    assert_eq!(addr, "127.0.0.1:31");
    assert!(own
        .snapshot_ship(1, 5, meta(), None, 0, false, 0, 3, t0)
        .is_none());
    // The previous takeover's broadcast (epoch 2, another adopter)
    // arrives late on another link: it must not repoint the route, lower
    // the fence, drop the replica state or close anything.
    let effects = own.takeover(2, "127.0.0.1:32", &[5], &[8], &[2], t0);
    assert!(matches!(
        &effects[..],
        [Effect::Record("takeover-stale", 5, ..)]
    ));
    assert_eq!(
        own.redirect_for(5),
        Some(("127.0.0.1:31".to_string(), 7, 3))
    );
    assert_eq!(own.fences[&5], 3);
    assert!(own.replicas.sessions.contains_key(&5));
    // A newer broadcast still applies.
    let effects = own.takeover(2, "127.0.0.1:32", &[5], &[9], &[4], t0);
    assert!(matches!(
        effects.last(),
        Some(Effect::CloseMoved(5, _, 9, 4))
    ));
    assert_eq!(
        own.redirect_for(5),
        Some(("127.0.0.1:32".to_string(), 9, 4))
    );
    assert!(own.replicas.sessions.is_empty());
}

#[test]
fn stale_epoch_writes_are_fenced_not_counted_as_gaps() {
    let t0 = Instant::now();
    let mut own = core(2, ms(1000), t0);
    replicate_session_7(&mut own, t0);
    // A witnessed takeover fences session 7 at epoch 2. The old owner's
    // backlog is rejected, counted and recorded; none of it is a gap.
    own.takeover(1, "127.0.0.1:9", &[7], &[0], &[2], t0);
    for effects in [
        own.journal_append(1, 7, entry(2), 1, t0),
        own.snapshot_ship(1, 7, meta(), None, 2, false, 0, 1, t0),
        own.snapshot_ship(1, 7, meta(), None, 0, true, 0, 1, t0),
    ] {
        assert!(
            matches!(effects, Some(Effect::Fenced(7, ..))),
            "{effects:?}"
        );
    }
    assert_eq!(own.replicas.gaps, 0);
    // At the fence the new owner's stream re-establishes the replica, and
    // epoch 0, the legacy unfenced stamp, always passes.
    assert!(own
        .snapshot_ship(1, 7, meta(), None, 0, false, 0, 2, t0)
        .is_none());
    let appended = own.journal_append(1, 7, entry(1), 2, t0);
    assert!(matches!(appended, Some(Effect::Record("replicated", ..))));
    assert!(matches!(
        own.journal_append(1, 7, entry(2), 0, t0),
        Some(Effect::Record("replicated", ..))
    ));
    assert_eq!(own.replicas.sessions[&7].entries.len(), 2);

    // Without fencing, the same stale append tears the stream: a gap.
    let mut config = ClusterConfig::new(0, vec!["127.0.0.1:1".to_string(); 2]);
    config.fencing = false;
    let mut own = Ownership::new(&config, t0);
    replicate_session_7(&mut own, t0);
    own.takeover(1, "127.0.0.1:9", &[7], &[0], &[2], t0);
    assert!(own.journal_append(1, 7, entry(2), 1, t0).is_none());
    assert_eq!(own.replicas.gaps, 1);
}
