//! Deterministic fault injection for chaos testing.
//!
//! A [`FaultPlan`] is a seeded set of failure probabilities threaded
//! through the simulator (poison-pill events, queue-full bursts) and the
//! server (injected session crashes, shard-worker stalls, journal append
//! failures). Every consumer derives its own RNG stream with
//! [`FaultPlan::rng`], keyed by a stream constant and its own id, so the
//! whole fault schedule is a pure function of the plan's seed and the
//! traffic — reruns with the same seed inject the same faults at the
//! same event positions.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// RNG stream selector: faults injected into generated workloads
/// (poison pills, bursts).
pub const STREAM_WORKLOAD: u64 = 1;
/// RNG stream selector: injected session crashes.
pub const STREAM_CRASH: u64 = 2;
/// RNG stream selector: journal append failures.
pub const STREAM_JOURNAL: u64 = 3;
/// RNG stream selector: shard-worker stalls.
pub const STREAM_STALL: u64 = 4;
/// RNG stream selector: injected runaway/allocator-bomb programs.
pub const STREAM_RUNAWAY: u64 = 5;
/// RNG stream selector: event-flood bursts (overload traffic).
pub const STREAM_FLOOD: u64 = 6;
/// RNG stream selector: whole-process kills (cluster chaos). The `id`
/// is the victim peer's index; the draw schedules *when* in the run the
/// kill lands.
pub const STREAM_KILL: u64 = 7;
/// RNG stream selector: peer-wire network faults (delay, drop,
/// duplicate, reorder, partition scheduling). The `id` is the directed
/// link's identity (`from * peers + to`), so each link draws an
/// independent — but seed-reproducible — fault schedule.
pub const STREAM_NET: u64 = 8;

/// Seeded probabilities for every injectable fault class.
///
/// All-zero probabilities (see [`FaultPlan::disabled`]) make every
/// consumer a no-op, so the plan can be threaded through configs
/// unconditionally.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Master seed; all fault RNG streams derive from it.
    pub seed: u64,
    /// Per-workload-step probability of emitting a poison-pill event that
    /// makes a susceptible node panic (a negative `Mouse.x`).
    pub node_panic: f64,
    /// Per-applied-event probability that the session's runtime crashes
    /// (loses all in-memory state) right after applying the event.
    pub crash: f64,
    /// Per-command-burst probability that a shard worker stalls.
    pub stall: f64,
    /// How long a stalled shard worker sleeps, in milliseconds.
    pub stall_ms: u64,
    /// Per-workload-step probability of a same-signal event burst sized
    /// to overflow small ingress queues.
    pub queue_full_burst: f64,
    /// Events per injected burst.
    pub burst_len: usize,
    /// Per-append probability that a journal append fails.
    pub journal_fail: f64,
    /// Per-workload-step probability of an event flood: a burst of
    /// `flood_len` back-to-back events simulating an overloading client.
    pub flood: f64,
    /// Events per injected flood.
    pub flood_len: usize,
    /// Per-event probability that a workload step triggers a runaway
    /// (fuel-exhausting) or allocator-bomb code path in the target
    /// program.
    pub runaway: f64,
}

impl FaultPlan {
    /// No faults; every consumer behaves exactly as without a plan.
    pub fn disabled() -> FaultPlan {
        FaultPlan {
            seed: 0,
            node_panic: 0.0,
            crash: 0.0,
            stall: 0.0,
            stall_ms: 0,
            queue_full_burst: 0.0,
            burst_len: 0,
            journal_fail: 0.0,
            flood: 0.0,
            flood_len: 0,
            runaway: 0.0,
        }
    }

    /// The default chaos mix (the server's seeded chaos recovery test and
    /// `loadgen --fleet` run it): frequent node panics, occasional
    /// crashes, stalls, bursts, and journal failures.
    pub fn chaos(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            node_panic: 0.005,
            crash: 0.0005,
            stall: 0.01,
            stall_ms: 2,
            queue_full_burst: 0.002,
            burst_len: 48,
            journal_fail: 0.001,
            flood: 0.0,
            flood_len: 0,
            runaway: 0.0,
        }
    }

    /// The overload mix used by `loadgen --overload`: sustained event
    /// floods plus runaway/allocator-bomb triggers, and none of the
    /// crash-recovery chaos (overload runs measure governance, not
    /// recovery).
    pub fn flood(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            flood: 0.05,
            flood_len: 96,
            runaway: 0.02,
            ..FaultPlan::disabled()
        }
    }

    /// True if any fault class has a nonzero probability.
    pub fn is_active(&self) -> bool {
        self.node_panic > 0.0
            || self.crash > 0.0
            || self.stall > 0.0
            || self.queue_full_burst > 0.0
            || self.journal_fail > 0.0
            || self.flood > 0.0
            || self.runaway > 0.0
    }

    /// Composes two plans: probabilities, burst sizes, and stall lengths
    /// combine element-wise by maximum, and the seed is taken from `self`
    /// (`other.seed` only breaks the tie when `self` has no active fault
    /// class — so merging a live chaos plan with a flood preset keeps the
    /// chaos schedule reproducible). Merging is what lets `loadgen` apply
    /// chaos *and* flood streams in one run without hand-assembling a
    /// combined plan.
    pub fn merge(&self, other: &FaultPlan) -> FaultPlan {
        FaultPlan {
            seed: if self.is_active() || other.seed == 0 {
                self.seed
            } else {
                other.seed
            },
            node_panic: self.node_panic.max(other.node_panic),
            crash: self.crash.max(other.crash),
            stall: self.stall.max(other.stall),
            stall_ms: self.stall_ms.max(other.stall_ms),
            queue_full_burst: self.queue_full_burst.max(other.queue_full_burst),
            burst_len: self.burst_len.max(other.burst_len),
            journal_fail: self.journal_fail.max(other.journal_fail),
            flood: self.flood.max(other.flood),
            flood_len: self.flood_len.max(other.flood_len),
            runaway: self.runaway.max(other.runaway),
        }
    }

    /// A deterministic RNG for one consumer: `stream` is one of the
    /// `STREAM_*` constants, `id` the consumer's own identity (session
    /// id, shard index, workload seed). Distinct `(seed, stream, id)`
    /// triples give independent streams.
    pub fn rng(&self, stream: u64, id: u64) -> StdRng {
        // splitmix64-style finalizer over the combined key, so adjacent
        // ids do not produce correlated streams.
        let mut z = self
            .seed
            .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(stream.wrapping_add(1)))
            .wrapping_add(0xbf58_476d_1ce4_e5b9u64.wrapping_mul(id.wrapping_add(1)));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        StdRng::seed_from_u64(z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn disabled_plan_is_inactive() {
        assert!(!FaultPlan::disabled().is_active());
        assert!(FaultPlan::chaos(7).is_active());
    }

    #[test]
    fn rng_streams_are_deterministic_and_independent() {
        let plan = FaultPlan::chaos(42);
        let draw = |stream, id| -> Vec<u64> {
            let mut rng = plan.rng(stream, id);
            (0..8).map(|_| rng.gen::<u64>()).collect()
        };
        assert_eq!(draw(STREAM_CRASH, 3), draw(STREAM_CRASH, 3));
        assert_ne!(draw(STREAM_CRASH, 3), draw(STREAM_CRASH, 4));
        assert_ne!(draw(STREAM_CRASH, 3), draw(STREAM_JOURNAL, 3));
        // Different master seeds shift every stream.
        let other = FaultPlan::chaos(43);
        let mut rng = other.rng(STREAM_CRASH, 3);
        let alt: Vec<u64> = (0..8).map(|_| rng.gen::<u64>()).collect();
        assert_ne!(draw(STREAM_CRASH, 3), alt);
    }

    #[test]
    fn merge_composes_elementwise_and_keeps_the_live_seed() {
        let chaos = FaultPlan::chaos(42);
        let flood = FaultPlan::flood(99);
        let merged = chaos.merge(&flood);

        // Element-wise max: every chaos class survives, flood classes join.
        assert_eq!(merged.node_panic, chaos.node_panic);
        assert_eq!(merged.flood, flood.flood);
        assert_eq!(merged.flood_len, flood.flood_len);
        assert_eq!(merged.runaway, flood.runaway);
        assert!(merged.is_active());

        // Seed determinism pins to the left (active) plan: the merged
        // plan's crash stream is bit-identical to the chaos plan's.
        assert_eq!(merged.seed, 42);
        let draw = |plan: &FaultPlan| -> Vec<u64> {
            let mut rng = plan.rng(STREAM_CRASH, 3);
            (0..8).map(|_| rng.gen::<u64>()).collect()
        };
        assert_eq!(draw(&merged), draw(&chaos));
        // And the flood stream is deterministic across identical merges.
        let again = chaos.merge(&flood);
        let mut a = merged.rng(STREAM_FLOOD, 1);
        let mut b = again.rng(STREAM_FLOOD, 1);
        let fa: Vec<u64> = (0..8).map(|_| a.gen::<u64>()).collect();
        let fb: Vec<u64> = (0..8).map(|_| b.gen::<u64>()).collect();
        assert_eq!(fa, fb);

        // Merging onto an inactive plan adopts the active seed.
        assert_eq!(FaultPlan::disabled().merge(&flood).seed, 99);
    }
}
