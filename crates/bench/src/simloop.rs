//! The simulator-loop benchmark workload: raw scheduler throughput.
//!
//! A deliberately protocol-light workload — stride-walk message chains plus
//! periodic timers — so that the measured cost is dominated by the
//! scheduling core (event queue, timer table, command buffer) rather than by
//! protocol logic; the forwarding target comes from a per-node stride
//! instead of an RNG draw for the same reason (the network still samples a
//! random latency per hop, which is what spreads events across the
//! calendar). Used by the `simloop` Criterion bench and by `bench-json`
//! (which records the flat core's events/s in both dispatch modes and the
//! shard-count sweep).

use heap_simnet::prelude::*;
use rand::Rng;
use std::time::Instant;

/// Number of message chains seeded per receiver. Sized so the near-horizon
/// pending set resembles a congested dissemination run (a node with a
/// backlogged upload queue keeps dozens of departures in flight): ~6 k
/// pending events at 100 nodes, ~320 k at 5000.
pub const CHAINS_PER_NODE: usize = 64;

/// Standing far-horizon timers per node, re-armed with 8–24 s delays. A
/// paper-scale gossip run keeps a large population of far-out timer events
/// pending (retransmission and failure-detection timers — a sizeable share
/// of the ~19 k pending events measured at 271 nodes), and they are
/// precisely the events a calendar queue parks in its overflow heap while a
/// binary heap carries them in every sift. The long periods keep the
/// population standing for the whole run at a negligible event-count share,
/// like the constantly re-created short timers of the real protocol.
pub const FAR_TIMERS_PER_NODE: usize = 64;

/// How often each standing far timer re-arms before expiring for good —
/// enough to keep the population standing through the message phase without
/// leaving a long timer-only tail after the chains drain.
const FAR_TIMER_REARMS: u32 = 2;

/// A stride-walk flood: node 0 seeds [`CHAINS_PER_NODE`] chains per peer;
/// every delivery forwards the message to the node's next stride target
/// until the TTL expires. Each node also re-arms a periodic timer so the
/// event mix contains both `Deliver` and `Timer` events.
pub struct Flood {
    n: u32,
    ttl: u32,
    timer_rounds: u32,
    /// Message chains node 0 seeds per receiver (the per-node in-flight
    /// load; [`CHAINS_PER_NODE`] for the throughput benches, far lighter for
    /// the scale campaign so a 10⁶-node run stays within minutes).
    chains: u32,
    /// Standing far timers each node arms at start.
    far_timers: u32,
    /// Remaining re-arms shared by this node's standing far timers.
    far_budget: u32,
    /// Next forwarding target and the per-node stride that advances it, so
    /// chains keep mixing across the node population without an RNG draw.
    target: u32,
    stride: u32,
}

/// The flood message: a TTL counter on a 64-byte wire footprint.
#[derive(Clone, Debug)]
pub struct FloodMsg(u32);

impl WireSize for FloodMsg {
    fn wire_size(&self) -> usize {
        64
    }
}

impl Flood {
    /// The next forwarding target: one stride step around the node ring.
    #[inline]
    fn next_target(&mut self) -> NodeId {
        let t = self.target;
        self.target += self.stride;
        if self.target >= self.n {
            self.target -= self.n;
        }
        NodeId::new(t)
    }

    /// A deterministic 8–24 s standing-timer delay. Advances the node's
    /// stride walk so consecutive calls (the 64 timers armed at start, and
    /// every re-arm) draw different delays and the standing population
    /// spreads over the whole 8–24 s band instead of firing in lockstep.
    #[inline]
    fn far_delay(&mut self) -> SimDuration {
        let step = self.next_target().as_u32();
        let jitter_ms = (u64::from(step) * 37) % 16_000;
        SimDuration::from_millis(8_000 + jitter_ms)
    }
}

impl Protocol for Flood {
    type Message = FloodMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, FloodMsg>) {
        if ctx.node_id().index() == 0 {
            for _ in 0..self.chains {
                for i in 1..self.n {
                    ctx.send(NodeId::new(i), FloodMsg(self.ttl));
                }
            }
        }
        let phase = SimDuration::from_micros(ctx.rng().gen_range(0..200_000u64));
        ctx.set_timer(phase, 0);
        for _ in 0..self.far_timers {
            let delay = self.far_delay();
            ctx.set_timer(delay, 1);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, FloodMsg>, _from: NodeId, msg: FloodMsg) {
        if msg.0 > 0 {
            let target = self.next_target();
            ctx.send(target, FloodMsg(msg.0 - 1));
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, FloodMsg>, _timer: TimerId, tag: u64) {
        if tag == 1 {
            // A standing far timer fired: re-arm it (like a retransmission
            // round) until the node's budget runs out.
            if self.far_budget > 0 {
                self.far_budget -= 1;
                let delay = self.far_delay();
                ctx.set_timer(delay, 1);
            }
        } else if self.timer_rounds > 0 {
            self.timer_rounds -= 1;
            let target = self.next_target();
            ctx.send(target, FloodMsg(1));
            ctx.set_timer(SimDuration::from_millis(200), 0);
        }
    }
}

/// The TTL that makes an `n`-node run process roughly `target_events`
/// events. The floor keeps the virtual run long enough that chain events
/// dominate the (n-proportional) standing-timer events at every size — a
/// large `n` therefore processes more events than `target_events` rather
/// than degenerating into a timer-only workload.
pub fn ttl_for(n: usize, target_events: u64) -> u32 {
    let chains = (CHAINS_PER_NODE * (n - 1)) as u64;
    (target_events / chains.max(1)).clamp(40, 100_000) as u32
}

/// The benchmark's canonical latency model: uniform 2–264 ms — a
/// power-of-two span (2^18 µs ≈ 262 ms) keeps the per-hop draw
/// division-free, while the spread itself is PlanetLab-like (RTTs plus
/// queueing, covering hundreds of calendar buckets).
fn bench_latency() -> LatencyModel {
    LatencyModel::uniform(
        SimDuration::from_micros(2_000),
        SimDuration::from_micros(2_000 + ((1 << 18) - 1)),
    )
}

/// One [`Flood`] protocol instance per node — the single workload definition
/// shared by every builder, so the dispatch modes and the sharded sweep can
/// never drift apart.
fn make_flood(n: usize, ttl: u32) -> impl FnMut(NodeId) -> Flood {
    move |id| Flood {
        n: n as u32,
        ttl,
        timer_rounds: 50,
        chains: CHAINS_PER_NODE as u32,
        far_timers: FAR_TIMERS_PER_NODE as u32,
        far_budget: FAR_TIMERS_PER_NODE as u32 * FAR_TIMER_REARMS,
        target: id.as_u32(),
        stride: ((2 * id.as_u32() + 3) % n as u32).max(1),
    }
}

/// Builds the benchmark simulator on the canonical uniform 2–264 ms
/// latency model (see `bench_latency`) with lossless links (loss would
/// truncate the chains and decouple the event count from the TTL), on the
/// default flat core with batched dispatch.
pub fn build_sim(n: usize, seed: u64, ttl: u32) -> Simulator<Flood> {
    SimulatorBuilder::new(n, seed)
        .latency(bench_latency())
        .loss(LossModel::none())
        .build(make_flood(n, ttl))
}

/// [`build_sim`] with the PR 8 batched bucket-drain dispatch switched off:
/// the single-pop measurement baseline for the batch-vs-single comparison in
/// `bench-json` and the CI fingerprint smoke.
pub fn build_sim_single_pop(n: usize, seed: u64, ttl: u32) -> Simulator<Flood> {
    SimulatorBuilder::new(n, seed)
        .latency(bench_latency())
        .loss(LossModel::none())
        .single_pop_dispatch()
        .build(make_flood(n, ttl))
}

/// Runs one measurement: builds the simulator (untimed), drains it to
/// completion (timed) and returns `(events processed, seconds)`.
pub fn measure(n: usize, seed: u64, target_events: u64) -> (u64, f64) {
    let ttl = ttl_for(n, target_events);
    let mut sim = build_sim(n, seed, ttl);
    let start = Instant::now();
    let processed = sim.run_to_completion().expect("contract holds");
    (processed, start.elapsed().as_secs_f64())
}

/// [`measure`] on the flat core with batched dispatch disabled.
pub fn measure_single_pop(n: usize, seed: u64, target_events: u64) -> (u64, f64) {
    let ttl = ttl_for(n, target_events);
    let mut sim = build_sim_single_pop(n, seed, ttl);
    let start = Instant::now();
    let processed = sim.run_to_completion().expect("contract holds");
    (processed, start.elapsed().as_secs_f64())
}

/// Drains `sim` and condenses every observable the differential tests pin —
/// processed-event count, the full [`NetStats`](heap_simnet::NetStats)
/// rendering and the final clock — into `(processed, fingerprint)`. The CI
/// smoke compares this across dispatch modes so a batch-path divergence
/// fails the bench run itself, not just the unit suites.
pub fn fingerprint(sim: &mut Simulator<Flood>) -> (u64, u64) {
    use std::hash::{Hash, Hasher};
    let processed = sim.run_to_completion().expect("contract holds");
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    format!("{:?}", sim.stats()).hash(&mut hasher);
    sim.now().as_micros().hash(&mut hasher);
    (processed, hasher.finish())
}

/// [`build_sim`]'s sharded counterpart: the same workload on the PR 5
/// sharded core with `shards` contiguous partitions. Bit-identical to the
/// flat core (the differential tests assert it; `bench-json` re-checks the
/// event counts per run).
pub fn build_sim_sharded(n: usize, seed: u64, ttl: u32, shards: usize) -> Simulator<Flood> {
    SimulatorBuilder::new(n, seed)
        .latency(bench_latency())
        .loss(LossModel::none())
        .sharded(shards)
        .shard_policy(ShardPolicy::Contiguous)
        .build(make_flood(n, ttl))
}

/// One sharded measurement: `(events processed, seconds)` for `shards`
/// shards, stepped sequentially (`threaded == false`, the cache-locality
/// mode) or one shard per core on scoped threads.
pub fn measure_sharded(
    n: usize,
    seed: u64,
    target_events: u64,
    shards: usize,
    threaded: bool,
) -> (u64, f64) {
    let ttl = ttl_for(n, target_events);
    let mut sim = build_sim_sharded(n, seed, ttl, shards);
    let start = Instant::now();
    let processed = if threaded {
        sim.run_to_completion_threaded().expect("contract holds")
    } else {
        sim.run_to_completion().expect("contract holds")
    };
    (processed, start.elapsed().as_secs_f64())
}

// --- Scale campaign -------------------------------------------------------
//
// The throughput benches above keep ~128 standing events per node so the
// queue works hard; at 10⁶ nodes that shape would process billions of
// events. The scale campaign asks a different question — how do events/s
// and bytes/node hold up as n grows by three orders of magnitude? — so it
// runs the same Flood protocol with a far lighter per-node load and a fixed
// TTL (total events scale linearly with n; the per-size numbers compare
// event *rates*, not identical streams).

/// Message chains seeded per receiver in a scale-campaign run.
pub const SCALE_CHAINS_PER_NODE: usize = 4;

/// Standing far timers per node in a scale-campaign run.
pub const SCALE_FAR_TIMERS_PER_NODE: usize = 4;

/// Periodic timer rounds per node in a scale-campaign run.
pub const SCALE_TIMER_ROUNDS: u32 = 2;

/// Chain TTL of a scale-campaign run: with [`SCALE_CHAINS_PER_NODE`] this
/// yields ~35 events per node, so 10⁶ nodes process ~3.5·10⁷ events.
pub const SCALE_TTL: u32 = 6;

/// One scale-campaign measurement.
pub struct ScaleMeasurement {
    /// Events processed.
    pub events: u64,
    /// Wall-clock seconds of the run (building the simulator is untimed).
    pub seconds: f64,
    /// The simulator's capacity-based footprint, sampled right after
    /// construction — when the seeded chains put the standing event
    /// population at its densest (see `Simulator::memory_footprint`).
    pub footprint: heap_simnet::MemoryFootprint,
}

/// Builds the light scale-campaign simulator (flat core).
pub fn build_sim_scale(n: usize, seed: u64) -> Simulator<Flood> {
    SimulatorBuilder::new(n, seed)
        .latency(bench_latency())
        .loss(LossModel::none())
        .build(move |id| Flood {
            n: n as u32,
            ttl: SCALE_TTL,
            timer_rounds: SCALE_TIMER_ROUNDS,
            chains: SCALE_CHAINS_PER_NODE as u32,
            far_timers: SCALE_FAR_TIMERS_PER_NODE as u32,
            far_budget: SCALE_FAR_TIMERS_PER_NODE as u32 * FAR_TIMER_REARMS,
            target: id.as_u32(),
            stride: ((2 * id.as_u32() + 3) % n as u32).max(1),
        })
}

/// Runs one scale-campaign measurement at `n` nodes: builds the light
/// Flood workload (untimed), samples the capacity-based memory footprint,
/// then drains the run (timed).
pub fn measure_scale(n: usize, seed: u64) -> ScaleMeasurement {
    let mut sim = build_sim_scale(n, seed);
    let footprint = sim.memory_footprint();
    let start = Instant::now();
    let events = sim.run_to_completion().expect("contract holds");
    ScaleMeasurement {
        events,
        seconds: start.elapsed().as_secs_f64(),
        footprint,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_workload_processes_the_identical_event_stream() {
        let (flat_events, _) = measure(60, 5, 50_000);
        assert!(flat_events > 40_000);
        for shards in [1usize, 2, 4] {
            let (seq_events, _) = measure_sharded(60, 5, 50_000, shards, false);
            assert_eq!(flat_events, seq_events, "{shards}-shard sequential");
            let (thr_events, _) = measure_sharded(60, 5, 50_000, shards, true);
            assert_eq!(flat_events, thr_events, "{shards}-shard threaded");
        }
    }

    #[test]
    fn dispatch_modes_share_one_fingerprint() {
        let ttl = ttl_for(60, 50_000);
        let batched = fingerprint(&mut build_sim(60, 5, ttl));
        let single = fingerprint(&mut build_sim_single_pop(60, 5, ttl));
        assert_eq!(batched, single);
    }

    #[test]
    fn scale_measurement_reports_events_and_footprint() {
        let m = measure_scale(200, 7);
        // ~35 events per node under the light load.
        assert!(m.events > 20 * 200, "only {} events", m.events);
        assert_eq!(m.footprint.n_nodes(), 200);
        assert!(m.footprint.bytes_per_node() > 0.0);
        // The scale shape must stay light: well under the ~128 standing
        // events per node of the throughput benches.
        let per_node = m.events / 200;
        assert!(per_node < 100, "{per_node} events/node is not light");
    }

    #[test]
    fn ttl_scales_inversely_with_nodes_down_to_the_floor() {
        assert!(ttl_for(100, 1_000_000) > ttl_for(1000, 1_000_000));
        // The floor keeps chains dominant over the n-proportional timers.
        assert_eq!(ttl_for(100, 0), 40);
        assert_eq!(ttl_for(5000, 2_000_000), 40);
    }
}
