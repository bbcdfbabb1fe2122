//! HEAP's capability-aggregation protocol (Algorithm 2, lines 11–16).
//!
//! Every node periodically gossips the freshest capability samples it knows
//! (its own plus what it heard from others). Merging the received samples
//! gives every node a continuously refreshed estimate of the *average* upload
//! capability of the system, which is the denominator of HEAP's fanout rule
//! `f_p = f · b_p / b̄`.
//!
//! # Cost per operation
//!
//! With `n` known samples (≈ the system size once aggregation has run a
//! while) and `k` samples in a received message:
//!
//! * [`estimated_average`](CapabilityAggregator::estimated_average) is O(1):
//!   the aggregator keeps a running sum of the known capabilities, updated on
//!   every insert, replacement and [`forget`](CapabilityAggregator::forget);
//! * [`merge`](CapabilityAggregator::merge) is O(k): one point lookup per
//!   received sample;
//! * [`freshest_samples`](CapabilityAggregator::freshest_samples) is O(n):
//!   a linear-time selection of the `m` freshest samples asked for, on a
//!   transient key buffer, then a sort of those `m` only.
//!
//! The samples are packed in a `Vec` whose order follows the history of
//! inserts and removals, found through a node-to-slot map with an
//! integer-key hasher. Neither order can reach a result: the sum is
//! order-free (wrapping `u64` addition), and the selection orders by the
//! total key `(timestamp descending, node ascending)`, which is unique per
//! sample because a node holds one sample per peer.

use crate::inthash::IntMap;
use heap_simnet::bandwidth::Bandwidth;
use heap_simnet::node::NodeId;
use heap_simnet::time::SimTime;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::hash_map::Entry;

/// One capability sample: a node, its advertised upload capability, and when
/// the sample was taken at its origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CapabilitySample {
    /// The node the sample describes.
    pub node: NodeId,
    /// The advertised upload capability.
    pub capability: Bandwidth,
    /// When the sample was produced by `node` itself.
    pub timestamp: SimTime,
}

/// Per-node state of the aggregation protocol.
///
/// # Examples
///
/// ```
/// use heap_gossip::aggregation::CapabilityAggregator;
/// use heap_simnet::bandwidth::Bandwidth;
/// use heap_simnet::node::NodeId;
/// use heap_simnet::time::SimTime;
///
/// let mut agg = CapabilityAggregator::new(NodeId::new(1), Bandwidth::from_kbps(512));
/// // Before hearing from anyone the estimate is the node's own capability.
/// assert_eq!(agg.estimated_average(), Bandwidth::from_kbps(512));
/// assert!((agg.relative_capability() - 1.0).abs() < 1e-9);
///
/// // Learn that another node has 3 Mbps.
/// let samples = agg.freshest_samples(10, SimTime::ZERO);
/// let mut other = CapabilityAggregator::new(NodeId::new(2), Bandwidth::from_mbps(3));
/// other.merge(&samples);
/// assert_eq!(other.estimated_average().as_kbps(), (3000.0 + 512.0) / 2.0);
/// assert!(other.relative_capability() > 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct CapabilityAggregator {
    own: NodeId,
    own_capability: Bandwidth,
    /// Freshest known sample per node, densely packed so the per-round
    /// selection scans contiguous memory. Our own sample sits at slot 0 (it
    /// is never removed, so `swap_remove` never moves it) and its capability
    /// is always `own_capability`.
    samples: Vec<CapabilitySample>,
    /// The slot in `samples` of each known node.
    slots: IntMap<NodeId, u32>,
    /// Wrapping sum of the capabilities in `samples`, in bps.
    capability_sum: u64,
}

/// Slot of the owner's sample in `CapabilityAggregator::samples`.
const OWN_SLOT: usize = 0;

impl CapabilityAggregator {
    /// Creates the aggregation state of `own` with its advertised capability.
    pub fn new(own: NodeId, own_capability: Bandwidth) -> Self {
        let mut slots = IntMap::default();
        slots.insert(own, OWN_SLOT as u32);
        CapabilityAggregator {
            own,
            own_capability,
            samples: vec![CapabilitySample {
                node: own,
                capability: own_capability,
                timestamp: SimTime::ZERO,
            }],
            slots,
            capability_sum: own_capability.as_bps(),
        }
    }

    /// The node owning this aggregator.
    pub fn owner(&self) -> NodeId {
        self.own
    }

    /// The node's own advertised capability.
    pub fn own_capability(&self) -> Bandwidth {
        self.own_capability
    }

    /// Updates the node's own capability (e.g. when the user changes the
    /// budget given to the application, or a bandwidth probe refines it).
    pub fn set_own_capability(&mut self, capability: Bandwidth, now: SimTime) {
        self.own_capability = capability;
        let own = &mut self.samples[OWN_SLOT];
        self.capability_sum = self
            .capability_sum
            .wrapping_sub(own.capability.as_bps())
            .wrapping_add(capability.as_bps());
        own.capability = capability;
        own.timestamp = now;
    }

    /// Number of distinct nodes we hold a sample for (including ourselves).
    pub fn known_nodes(&self) -> usize {
        self.samples.len()
    }

    /// Merges samples received in an [Aggregation] message, keeping the
    /// freshest sample per node. Returns the number of samples that changed
    /// our state.
    ///
    /// [Aggregation]: crate::message::GossipMessage::Aggregation
    pub fn merge(&mut self, received: &[CapabilitySample]) -> usize {
        let mut updated = 0;
        for sample in received {
            // Never let someone else overwrite our own advertised capability.
            if sample.node == self.own {
                continue;
            }
            let replaced = match self.slots.entry(sample.node) {
                Entry::Occupied(slot) => {
                    let existing = &mut self.samples[*slot.get() as usize];
                    if sample.timestamp <= existing.timestamp {
                        continue;
                    }
                    std::mem::replace(existing, *sample).capability.as_bps()
                }
                Entry::Vacant(slot) => {
                    slot.insert(self.samples.len() as u32);
                    self.samples.push(*sample);
                    0
                }
            };
            self.capability_sum = self
                .capability_sum
                .wrapping_sub(replaced)
                .wrapping_add(sample.capability.as_bps());
            updated += 1;
        }
        updated
    }

    /// Drops the sample of a node known to have failed so the average is not
    /// skewed by departed peers.
    pub fn forget(&mut self, node: NodeId) {
        if node == self.own {
            return;
        }
        let Some(slot) = self.slots.remove(&node) else {
            return;
        };
        let gone = self.samples.swap_remove(slot as usize);
        self.capability_sum = self.capability_sum.wrapping_sub(gone.capability.as_bps());
        if let Some(moved) = self.samples.get(slot as usize) {
            self.slots.insert(moved.node, slot);
        }
    }

    /// Returns the `n` freshest samples (refreshing our own to `now` first),
    /// the payload of an outgoing [Aggregation] message: timestamp
    /// descending, ties broken by node ascending.
    ///
    /// [Aggregation]: crate::message::GossipMessage::Aggregation
    pub fn freshest_samples(&mut self, n: usize, now: SimTime) -> Vec<CapabilitySample> {
        self.samples[OWN_SLOT].timestamp = now;
        if n == 0 {
            return Vec::new();
        }
        let mut keys: Vec<(Reverse<SimTime>, NodeId, u32)> = self
            .samples
            .iter()
            .zip(0..)
            .map(|(s, slot)| (Reverse(s.timestamp), s.node, slot))
            .collect();
        if n < keys.len() {
            keys.select_nth_unstable(n - 1);
            keys.truncate(n);
        }
        keys.sort_unstable();
        keys.iter()
            .map(|&(_, _, slot)| self.samples[slot as usize])
            .collect()
    }

    /// The current estimate of the system-wide average upload capability
    /// (mean of all known samples; at least our own).
    pub fn estimated_average(&self) -> Bandwidth {
        Bandwidth::from_bps(self.capability_sum / self.samples.len() as u64)
    }

    /// `b_p / b̄`: the node's capability relative to the estimated average —
    /// the multiplier HEAP applies to the reference fanout.
    pub fn relative_capability(&self) -> f64 {
        let avg = self.estimated_average();
        if avg.as_bps() == 0 {
            1.0
        } else {
            self.own_capability.ratio(avg)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(node: u32, kbps: u64, secs: u64) -> CapabilitySample {
        CapabilitySample {
            node: NodeId::new(node),
            capability: Bandwidth::from_kbps(kbps),
            timestamp: SimTime::from_secs(secs),
        }
    }

    #[test]
    fn initial_estimate_is_own_capability() {
        let agg = CapabilityAggregator::new(NodeId::new(0), Bandwidth::from_kbps(768));
        assert_eq!(agg.estimated_average(), Bandwidth::from_kbps(768));
        assert_eq!(agg.known_nodes(), 1);
        assert_eq!(agg.owner(), NodeId::new(0));
        assert_eq!(agg.own_capability(), Bandwidth::from_kbps(768));
        assert!((agg.relative_capability() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn merge_keeps_freshest_sample_per_node() {
        let mut agg = CapabilityAggregator::new(NodeId::new(0), Bandwidth::from_kbps(512));
        assert_eq!(agg.merge(&[sample(1, 1000, 5)]), 1);
        // A staler sample for the same node is ignored.
        assert_eq!(agg.merge(&[sample(1, 2000, 3)]), 0);
        // A fresher one replaces it.
        assert_eq!(agg.merge(&[sample(1, 3000, 8)]), 1);
        let avg = agg.estimated_average();
        assert_eq!(avg, Bandwidth::from_kbps((512 + 3000) / 2));
    }

    #[test]
    fn merge_never_overwrites_own_sample() {
        let mut agg = CapabilityAggregator::new(NodeId::new(0), Bandwidth::from_kbps(512));
        assert_eq!(agg.merge(&[sample(0, 99_999, 100)]), 0);
        assert_eq!(agg.estimated_average(), Bandwidth::from_kbps(512));
    }

    #[test]
    fn freshest_samples_sorted_and_truncated() {
        let mut agg = CapabilityAggregator::new(NodeId::new(0), Bandwidth::from_kbps(512));
        for i in 1..20 {
            agg.merge(&[sample(i, 700, i as u64)]);
        }
        let freshest = agg.freshest_samples(10, SimTime::from_secs(100));
        assert_eq!(freshest.len(), 10);
        // Our own refreshed sample is the freshest of all.
        assert_eq!(freshest[0].node, NodeId::new(0));
        assert_eq!(freshest[0].timestamp, SimTime::from_secs(100));
        // The rest are in decreasing timestamp order.
        assert!(freshest
            .windows(2)
            .all(|w| w[0].timestamp >= w[1].timestamp));
    }

    #[test]
    fn forget_removes_dead_nodes_but_not_self() {
        let mut agg = CapabilityAggregator::new(NodeId::new(0), Bandwidth::from_kbps(512));
        agg.merge(&[sample(1, 3000, 1)]);
        assert_eq!(agg.known_nodes(), 2);
        agg.forget(NodeId::new(1));
        assert_eq!(agg.known_nodes(), 1);
        agg.forget(NodeId::new(0));
        assert_eq!(agg.known_nodes(), 1, "own sample is never forgotten");
    }

    #[test]
    fn set_own_capability_updates_estimate() {
        let mut agg = CapabilityAggregator::new(NodeId::new(0), Bandwidth::from_kbps(512));
        agg.set_own_capability(Bandwidth::from_mbps(2), SimTime::from_secs(4));
        assert_eq!(agg.own_capability(), Bandwidth::from_mbps(2));
        assert_eq!(agg.estimated_average(), Bandwidth::from_mbps(2));
        let freshest = agg.freshest_samples(5, SimTime::from_secs(5));
        assert_eq!(freshest[0].capability, Bandwidth::from_mbps(2));
    }

    #[test]
    fn relative_capability_converges_to_true_ratio() {
        // A rich node in a poor system: 3 Mbps among many 512 kbps nodes.
        let mut agg = CapabilityAggregator::new(NodeId::new(0), Bandwidth::from_mbps(3));
        for i in 1..=9 {
            agg.merge(&[sample(i, 512, 1)]);
        }
        // True average = (3000 + 9*512)/10 = 760.8 kbps; ratio ≈ 3.94.
        let ratio = agg.relative_capability();
        assert!((ratio - 3000.0 / 760.8).abs() < 0.01, "ratio {ratio}");
    }

    /// The collect–sort–truncate selection and full-scan average the
    /// incremental aggregator replaced, kept as the oracle it must match.
    struct Reference {
        own: NodeId,
        own_capability: Bandwidth,
        samples: std::collections::HashMap<NodeId, CapabilitySample>,
    }

    impl Reference {
        fn new(own: NodeId, own_capability: Bandwidth) -> Self {
            let mut reference = Reference {
                own,
                own_capability,
                samples: std::collections::HashMap::new(),
            };
            reference.set_own_capability(own_capability, SimTime::ZERO);
            reference
        }

        fn set_own_capability(&mut self, capability: Bandwidth, now: SimTime) {
            self.own_capability = capability;
            let own = CapabilitySample {
                node: self.own,
                capability,
                timestamp: now,
            };
            self.samples.insert(self.own, own);
        }

        fn merge(&mut self, received: &[CapabilitySample]) -> usize {
            let mut updated = 0;
            for sample in received {
                if sample.node == self.own {
                    continue;
                }
                let fresher = match self.samples.get(&sample.node) {
                    Some(existing) => sample.timestamp > existing.timestamp,
                    None => true,
                };
                if fresher {
                    self.samples.insert(sample.node, *sample);
                    updated += 1;
                }
            }
            updated
        }

        fn forget(&mut self, node: NodeId) {
            if node != self.own {
                self.samples.remove(&node);
            }
        }

        fn freshest_samples(&mut self, n: usize, now: SimTime) -> Vec<CapabilitySample> {
            let capability = self.own_capability;
            self.set_own_capability(capability, now);
            let mut all: Vec<CapabilitySample> = self.samples.values().copied().collect();
            all.sort_by(|a, b| b.timestamp.cmp(&a.timestamp).then(a.node.cmp(&b.node)));
            all.truncate(n);
            all
        }

        fn estimated_average(&self) -> Bandwidth {
            let sum: u64 = self.samples.values().map(|s| s.capability.as_bps()).sum();
            Bandwidth::from_bps(sum / self.samples.len() as u64)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(200))]

        /// Random sequences of every mutating operation keep the incremental
        /// aggregator equal to the reference at every step. Timestamps come
        /// from a small range so ties are common, node ids include the owner
        /// (3) and nodes never heard of, and `n` runs past `known_nodes()`.
        #[test]
        fn incremental_aggregator_matches_reference(
            ops in proptest::collection::vec(
                (
                    0u8..4,
                    proptest::collection::vec((0u32..24, 0u64..12, 1u64..4_000), 0..12),
                    (0u32..24, 0u64..12, 0usize..30),
                ),
                1..80,
            ),
        ) {
            let own = NodeId::new(3);
            let mut agg = CapabilityAggregator::new(own, Bandwidth::from_kbps(700));
            let mut reference = Reference::new(own, Bandwidth::from_kbps(700));
            for (kind, batch, (node, secs, n)) in ops {
                let now = SimTime::from_secs(secs);
                match kind {
                    0 => {
                        let batch: Vec<CapabilitySample> = batch
                            .iter()
                            .map(|&(node, secs, kbps)| sample(node, kbps, secs))
                            .collect();
                        proptest::prop_assert_eq!(agg.merge(&batch), reference.merge(&batch));
                    }
                    1 => {
                        agg.forget(NodeId::new(node));
                        reference.forget(NodeId::new(node));
                    }
                    2 => {
                        let capability = Bandwidth::from_kbps(100 + 37 * node as u64);
                        agg.set_own_capability(capability, now);
                        reference.set_own_capability(capability, now);
                    }
                    _ => {
                        proptest::prop_assert_eq!(
                            agg.freshest_samples(n, now),
                            reference.freshest_samples(n, now)
                        );
                    }
                }
                proptest::prop_assert_eq!(agg.estimated_average(), reference.estimated_average());
                proptest::prop_assert_eq!(agg.known_nodes(), reference.samples.len());
            }
        }
    }

    #[test]
    fn gossip_exchange_converges_all_nodes_to_global_average() {
        // Simulate a few rounds of all-to-all sample exchange and verify every
        // node's estimate converges to the true average.
        let caps = [512u64, 512, 768, 768, 768, 2000, 2000, 3000];
        let true_avg: u64 = caps.iter().sum::<u64>() / caps.len() as u64;
        let mut aggs: Vec<CapabilityAggregator> = caps
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                CapabilityAggregator::new(NodeId::new(i as u32), Bandwidth::from_kbps(c))
            })
            .collect();
        for round in 0..10 {
            let now = SimTime::from_secs(round + 1);
            // Ring exchange: i sends to (i+1) % n.
            let outgoing: Vec<Vec<CapabilitySample>> = aggs
                .iter_mut()
                .map(|a| a.freshest_samples(10, now))
                .collect();
            let n = aggs.len();
            for (i, samples) in outgoing.into_iter().enumerate() {
                aggs[(i + 1) % n].merge(&samples);
            }
        }
        for agg in &aggs {
            let est = agg.estimated_average().as_kbps();
            assert!(
                (est - true_avg as f64).abs() / (true_avg as f64) < 0.25,
                "estimate {est} too far from {true_avg}"
            );
        }
    }
}
