//! Retransmission bookkeeping (Algorithm 2, "Retransmission" block).
//!
//! The protocols run over an unreliable, UDP-like transport, so a [Request]
//! or its [Serve] answer may be lost. After requesting packets from a
//! proposer, a node arms a retransmission timer; if some of the requested
//! packets are still missing when it fires, the request is re-issued (up to a
//! configurable number of times).
//!
//! [Request]: crate::message::GossipMessage::Request
//! [Serve]: crate::message::GossipMessage::Serve

use crate::inthash::IntMap;
use heap_simnet::node::NodeId;
use heap_streaming::packet::PacketId;

/// A pending request whose answer has not been fully received yet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingRequest {
    /// The peer the packets were requested from.
    pub proposer: NodeId,
    /// The packet ids that were requested.
    pub ids: Vec<PacketId>,
    /// How many more times the request may be re-issued.
    pub retries_left: u32,
}

/// Tracks outstanding requests keyed by the timer tag armed for them.
///
/// # Examples
///
/// ```
/// use heap_gossip::retransmit::RetransmitTracker;
/// use heap_simnet::node::NodeId;
/// use heap_streaming::PacketId;
///
/// let mut tracker = RetransmitTracker::new();
/// let tag = tracker.register(NodeId::new(3), vec![PacketId::new(0)], 2);
/// let pending = tracker.take(tag).unwrap();
/// assert_eq!(pending.proposer, NodeId::new(3));
/// assert_eq!(pending.retries_left, 2);
/// assert!(tracker.take(tag).is_none(), "taking twice yields nothing");
/// ```
#[derive(Debug, Clone, Default)]
pub struct RetransmitTracker {
    pending: IntMap<u64, PendingRequest>,
    next_tag: u64,
}

/// Timer tags below this value are reserved for the node's periodic timers;
/// retransmission tags start here.
pub const RETRANSMIT_TAG_BASE: u64 = 1_000;

impl RetransmitTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        RetransmitTracker {
            pending: IntMap::default(),
            next_tag: RETRANSMIT_TAG_BASE,
        }
    }

    /// Registers a pending request and returns the timer tag to arm for it.
    pub fn register(&mut self, proposer: NodeId, ids: Vec<PacketId>, retries: u32) -> u64 {
        let tag = self.next_tag;
        self.next_tag += 1;
        self.pending.insert(
            tag,
            PendingRequest {
                proposer,
                ids,
                retries_left: retries,
            },
        );
        tag
    }

    /// Removes and returns the pending request associated with `tag`, if any.
    /// Called when the retransmission timer fires (or, as an optimisation,
    /// when the request has been fully answered).
    pub fn take(&mut self, tag: u64) -> Option<PendingRequest> {
        self.pending.remove(&tag)
    }

    /// Returns `true` if `tag` identifies a retransmission timer (as opposed
    /// to one of the node's periodic timers).
    pub fn is_retransmit_tag(tag: u64) -> bool {
        tag >= RETRANSMIT_TAG_BASE
    }

    /// Number of requests currently awaiting their answer.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// Drops every pending request aimed at `proposer` (used when the peer is
    /// detected as failed: re-requesting from it is pointless).
    pub fn forget_proposer(&mut self, proposer: NodeId) -> usize {
        let before = self.pending.len();
        self.pending.retain(|_, p| p.proposer != proposer);
        before - self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u64]) -> Vec<PacketId> {
        v.iter().map(|&i| PacketId::new(i)).collect()
    }

    #[test]
    fn register_take_roundtrip() {
        let mut t = RetransmitTracker::new();
        let tag1 = t.register(NodeId::new(1), ids(&[1, 2]), 3);
        let tag2 = t.register(NodeId::new(2), ids(&[3]), 1);
        assert_ne!(tag1, tag2);
        assert!(RetransmitTracker::is_retransmit_tag(tag1));
        assert!(!RetransmitTracker::is_retransmit_tag(5));
        assert_eq!(t.outstanding(), 2);

        let p1 = t.take(tag1).unwrap();
        assert_eq!(p1.proposer, NodeId::new(1));
        assert_eq!(p1.ids, ids(&[1, 2]));
        assert_eq!(p1.retries_left, 3);
        assert_eq!(t.outstanding(), 1);
        assert!(t.take(tag1).is_none());
        assert!(t.take(999_999).is_none());
    }

    #[test]
    fn forget_proposer_drops_its_requests() {
        let mut t = RetransmitTracker::new();
        t.register(NodeId::new(1), ids(&[1]), 1);
        t.register(NodeId::new(1), ids(&[2]), 1);
        let keep = t.register(NodeId::new(2), ids(&[3]), 1);
        assert_eq!(t.forget_proposer(NodeId::new(1)), 2);
        assert_eq!(t.outstanding(), 1);
        assert!(t.take(keep).is_some());
    }

    #[test]
    fn default_is_empty() {
        let t = RetransmitTracker::default();
        assert_eq!(t.outstanding(), 0);
    }

    #[test]
    fn tags_are_unique_across_many_registrations() {
        let mut t = RetransmitTracker::new();
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000u64 {
            let tag = t.register(NodeId::new((i % 7) as u32), ids(&[i]), 1);
            assert!(seen.insert(tag));
        }
        assert_eq!(t.outstanding(), 1000);
    }
}
