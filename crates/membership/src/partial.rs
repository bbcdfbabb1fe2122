//! Cyclon-style partial membership view.
//!
//! The paper's experiments run with full membership knowledge, but gossip
//! protocols are routinely deployed on top of a *peer-sampling service* that
//! maintains only a small partial view per node. This module provides a
//! simplified Cyclon-like shuffle so the ablation benches can check that
//! HEAP's fanout adaptation does not depend on full membership.

use heap_simnet::node::NodeId;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One entry of a partial view: a peer descriptor with an age counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ViewEntry {
    /// The peer this entry describes.
    pub peer: NodeId,
    /// Number of shuffle rounds since the entry was created at its origin.
    pub age: u32,
}

/// A bounded partial view refreshed by Cyclon-style shuffles.
///
/// # Examples
///
/// ```
/// use heap_membership::partial::PartialView;
/// use heap_simnet::node::NodeId;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
/// let mut view = PartialView::new(NodeId::new(0), 8);
/// view.seed(&[NodeId::new(1), NodeId::new(2), NodeId::new(3)]);
/// assert_eq!(view.peers().count(), 3);
/// let exchange = view.start_shuffle(4, &mut rng);
/// assert!(!exchange.is_empty());
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PartialView {
    owner: NodeId,
    capacity: usize,
    entries: Vec<ViewEntry>,
}

impl PartialView {
    /// Creates an empty partial view of at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(owner: NodeId, capacity: usize) -> Self {
        assert!(capacity > 0, "partial view capacity must be positive");
        PartialView {
            owner,
            capacity,
            entries: Vec::with_capacity(capacity),
        }
    }

    /// The owning node.
    pub fn owner(&self) -> NodeId {
        self.owner
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bootstraps the view with initial peers (ignoring self and duplicates,
    /// truncating at capacity).
    pub fn seed(&mut self, peers: &[NodeId]) {
        for &p in peers {
            if p != self.owner && !self.contains(p) && self.entries.len() < self.capacity {
                self.entries.push(ViewEntry { peer: p, age: 0 });
            }
        }
    }

    /// Whether the view currently contains `peer`.
    pub fn contains(&self, peer: NodeId) -> bool {
        self.entries.iter().any(|e| e.peer == peer)
    }

    /// The peers currently in the view, in entry order.
    pub fn peers(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.entries.iter().map(|e| e.peer)
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the view holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Removes `peer` from the view (e.g. after detecting its failure).
    pub fn remove(&mut self, peer: NodeId) {
        self.entries.retain(|e| e.peer != peer);
    }

    /// Picks the shuffle partner: the oldest entry, as Cyclon does, which
    /// evicts stale (possibly dead) descriptors fastest. Returns `None` if
    /// the view is empty.
    pub fn oldest_peer(&self) -> Option<NodeId> {
        self.entries.iter().max_by_key(|e| e.age).map(|e| e.peer)
    }

    /// Starts a shuffle: ages all entries and returns up to `exchange_size`
    /// entries (always including a descriptor of the owner with age 0) to be
    /// sent to the shuffle partner.
    pub fn start_shuffle<R: Rng + ?Sized>(
        &mut self,
        exchange_size: usize,
        rng: &mut R,
    ) -> Vec<ViewEntry> {
        for e in &mut self.entries {
            e.age += 1;
        }
        let mut sample: Vec<ViewEntry> = self.entries.clone();
        sample.shuffle(rng);
        sample.truncate(exchange_size.saturating_sub(1));
        sample.push(ViewEntry {
            peer: self.owner,
            age: 0,
        });
        sample
    }

    /// Samples up to `count` entries uniformly at random *without* ageing the
    /// view or advertising the owner: the reply side of a Cyclon shuffle
    /// (only the initiator ages its entries and injects a fresh descriptor
    /// of itself).
    pub fn sample_entries<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> Vec<ViewEntry> {
        let mut sample: Vec<ViewEntry> = self.entries.clone();
        sample.shuffle(rng);
        sample.truncate(count);
        sample
    }

    /// Merges entries received from a shuffle partner, preferring fresh
    /// entries and evicting the oldest ones when over capacity.
    pub fn merge(&mut self, received: &[ViewEntry]) {
        for &entry in received {
            if entry.peer == self.owner {
                continue;
            }
            match self.entries.iter_mut().find(|e| e.peer == entry.peer) {
                Some(existing) => {
                    // Keep the fresher descriptor.
                    if entry.age < existing.age {
                        existing.age = entry.age;
                    }
                }
                None => self.entries.push(entry),
            }
        }
        if self.entries.len() > self.capacity {
            // Evict oldest entries first.
            self.entries.sort_by_key(|e| e.age);
            self.entries.truncate(self.capacity);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(5)
    }

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().map(|&i| NodeId::new(i)).collect()
    }

    #[test]
    fn seed_respects_capacity_self_and_duplicates() {
        let mut view = PartialView::new(NodeId::new(0), 3);
        view.seed(&ids(&[0, 1, 1, 2, 3, 4]));
        assert_eq!(view.len(), 3);
        assert!(!view.contains(NodeId::new(0)));
        assert!(view.contains(NodeId::new(1)));
        assert!(!view.is_empty());
        assert_eq!(view.capacity(), 3);
        assert_eq!(view.owner(), NodeId::new(0));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = PartialView::new(NodeId::new(0), 0);
    }

    #[test]
    fn shuffle_includes_owner_and_ages_entries() {
        let mut view = PartialView::new(NodeId::new(7), 8);
        view.seed(&ids(&[1, 2, 3]));
        let exchange = view.start_shuffle(3, &mut rng());
        assert!(exchange
            .iter()
            .any(|e| e.peer == NodeId::new(7) && e.age == 0));
        assert!(exchange.len() <= 3);
        // All retained entries aged by one.
        assert!(view.entries.iter().all(|e| e.age == 1));
        assert_eq!(view.oldest_peer().map(|p| p.index() < 4), Some(true));
    }

    #[test]
    fn merge_prefers_fresh_and_bounds_capacity() {
        let mut view = PartialView::new(NodeId::new(0), 3);
        view.seed(&ids(&[1, 2, 3]));
        for e in &mut view.entries {
            e.age = 10;
        }
        view.merge(&[
            ViewEntry {
                peer: NodeId::new(2),
                age: 1,
            },
            ViewEntry {
                peer: NodeId::new(4),
                age: 0,
            },
            ViewEntry {
                peer: NodeId::new(0),
                age: 0,
            }, // self, ignored
        ]);
        assert_eq!(view.len(), 3);
        // The fresher descriptor for peer 2 wins.
        assert_eq!(
            view.entries
                .iter()
                .find(|e| e.peer == NodeId::new(2))
                .unwrap()
                .age,
            1
        );
        // Peer 4 (age 0) must have been kept over one of the stale ones.
        assert!(view.contains(NodeId::new(4)));
        assert!(!view.contains(NodeId::new(0)));
    }

    #[test]
    fn sample_entries_neither_ages_nor_includes_owner() {
        let mut view = PartialView::new(NodeId::new(0), 8);
        view.seed(&ids(&[1, 2, 3, 4, 5]));
        let sample = view.sample_entries(3, &mut rng());
        assert_eq!(sample.len(), 3);
        assert!(sample.iter().all(|e| e.peer != NodeId::new(0)));
        // Sampling is read-only: no entry aged.
        assert!(view.entries.iter().all(|e| e.age == 0));
        // Requesting more than available returns everything.
        assert_eq!(view.sample_entries(99, &mut rng()).len(), 5);
    }

    #[test]
    fn remove_evicts_peer() {
        let mut view = PartialView::new(NodeId::new(0), 4);
        view.seed(&ids(&[1, 2]));
        view.remove(NodeId::new(1));
        assert!(!view.contains(NodeId::new(1)));
        assert_eq!(view.len(), 1);
    }

    #[test]
    fn repeated_shuffles_keep_views_connected() {
        // Simulate a small gossip of shuffles among 10 nodes and check that
        // views keep a healthy size (no collapse to empty).
        let n = 10u32;
        let mut rngs: Vec<SmallRng> = (0..n).map(|i| SmallRng::seed_from_u64(i as u64)).collect();
        let mut views: Vec<PartialView> = (0..n)
            .map(|i| {
                let mut v = PartialView::new(NodeId::new(i), 4);
                let seeds: Vec<NodeId> = (1..=4).map(|d| NodeId::new((i + d) % n)).collect();
                v.seed(&seeds);
                v
            })
            .collect();
        for round in 0..50 {
            for i in 0..n as usize {
                let partner = match views[i].oldest_peer() {
                    Some(p) => p,
                    None => continue,
                };
                let sent = {
                    let rng = &mut rngs[i];
                    views[i].start_shuffle(3, rng)
                };
                let reply = {
                    let rng = &mut rngs[partner.index()];
                    views[partner.index()].start_shuffle(3, rng)
                };
                views[partner.index()].merge(&sent);
                views[i].merge(&reply);
            }
            for v in &views {
                assert!(!v.is_empty(), "view collapsed at round {round}");
            }
        }
    }
}
