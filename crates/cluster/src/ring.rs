//! Consistent hashing of sweep points onto workers.
//!
//! Each worker owns a set of virtual nodes on a 64-bit hash ring: the
//! FNV-1a digests of `"{addr}#{replica}"` for a fixed replica count. A
//! point's canonical store key hashes to a position, and the point
//! belongs to the first *alive* worker clockwise from there. Two
//! properties matter for the cluster:
//!
//! - **Stability**: assignment depends only on the worker address list
//!   and the key, not on registration order or timing, so re-running a
//!   sweep against the same cluster shards it identically.
//! - **Bounded failover movement**: when a worker dies, only the points
//!   it owned move (to the next alive worker clockwise); every other
//!   assignment is unchanged. Virtual nodes spread the dead worker's
//!   share across the survivors instead of dumping it on one neighbour.

use pipe_experiments::fnv1a64;

/// Virtual nodes per worker. Enough to keep shares within a few percent
/// of uniform for small clusters while the ring stays tiny.
pub const DEFAULT_REPLICAS: usize = 64;

/// Finalizing mixer (splitmix64) applied to virtual-node positions.
/// FNV-1a alone clusters badly on short inputs that differ only in
/// trailing digits (`addr#0` … `addr#63`), which skews ring shares; the
/// mixer's avalanche spreads them uniformly.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A consistent-hash ring over worker indices.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(position, worker index)`, sorted by position.
    points: Vec<(u64, usize)>,
    workers: usize,
}

impl HashRing {
    /// Builds the ring for `addrs` with [`DEFAULT_REPLICAS`] virtual
    /// nodes per worker.
    pub fn new(addrs: &[String]) -> HashRing {
        HashRing::with_replicas(addrs, DEFAULT_REPLICAS)
    }

    /// Builds the ring with an explicit virtual-node count (≥ 1).
    pub fn with_replicas(addrs: &[String], replicas: usize) -> HashRing {
        let replicas = replicas.max(1);
        let mut points = Vec::with_capacity(addrs.len() * replicas);
        for (index, addr) in addrs.iter().enumerate() {
            for replica in 0..replicas {
                points.push((
                    mix64(fnv1a64(format!("{addr}#{replica}").as_bytes())),
                    index,
                ));
            }
        }
        points.sort_unstable();
        HashRing {
            points,
            workers: addrs.len(),
        }
    }

    /// Number of workers the ring was built over.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The worker owning `key_hash`: the first virtual node clockwise
    /// whose worker satisfies `eligible`. Returns `None` when the ring
    /// is empty or no worker is eligible.
    pub fn assign(&self, key_hash: u64, eligible: impl Fn(usize) -> bool) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let start = self.points.partition_point(|&(pos, _)| pos < key_hash);
        // Walk clockwise (wrapping) until an eligible worker appears.
        // Consecutive virtual nodes of ineligible workers are skipped;
        // a full lap means nobody is eligible.
        self.points
            .iter()
            .cycle()
            .skip(start)
            .take(self.points.len())
            .map(|&(_, worker)| worker)
            .find(|&worker| eligible(worker))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn addrs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 9000 + i)).collect()
    }

    #[test]
    fn assignment_is_deterministic_and_total() {
        let ring = HashRing::new(&addrs(4));
        for i in 0..1000u64 {
            let hash = fnv1a64(format!("key-{i}").as_bytes());
            let a = ring.assign(hash, |_| true).unwrap();
            let b = ring.assign(hash, |_| true).unwrap();
            assert_eq!(a, b);
            assert!(a < 4);
        }
    }

    #[test]
    fn shares_are_roughly_uniform() {
        let ring = HashRing::new(&addrs(4));
        let mut counts: HashMap<usize, usize> = HashMap::new();
        for i in 0..4000u64 {
            let worker = ring
                .assign(fnv1a64(format!("key-{i}").as_bytes()), |_| true)
                .unwrap();
            *counts.entry(worker).or_default() += 1;
        }
        for worker in 0..4 {
            let share = counts[&worker];
            // Perfectly uniform would be 1000 each; virtual nodes keep
            // the spread well inside 2:1.
            assert!((500..2000).contains(&share), "worker {worker}: {share}");
        }
    }

    #[test]
    fn dead_worker_moves_only_its_own_points() {
        let ring = HashRing::new(&addrs(4));
        let dead = 2usize;
        for i in 0..1000u64 {
            let hash = fnv1a64(format!("key-{i}").as_bytes());
            let before = ring.assign(hash, |_| true).unwrap();
            let after = ring.assign(hash, |w| w != dead).unwrap();
            if before != dead {
                assert_eq!(before, after, "surviving assignments must not move");
            } else {
                assert_ne!(after, dead);
            }
        }
    }

    #[test]
    fn empty_and_fully_dead_rings_assign_none() {
        let ring = HashRing::new(&[]);
        assert_eq!(ring.assign(42, |_| true), None);
        let ring = HashRing::new(&addrs(3));
        assert_eq!(ring.assign(42, |_| false), None);
    }

    #[test]
    fn assignment_ignores_worker_order() {
        // The same addresses in a different order shard identically
        // (worker indices differ, but the owning *address* is the same).
        let fwd = addrs(4);
        let mut rev = fwd.clone();
        rev.reverse();
        let ring_fwd = HashRing::new(&fwd);
        let ring_rev = HashRing::new(&rev);
        for i in 0..500u64 {
            let hash = fnv1a64(format!("key-{i}").as_bytes());
            let a = &fwd[ring_fwd.assign(hash, |_| true).unwrap()];
            let b = &rev[ring_rev.assign(hash, |_| true).unwrap()];
            assert_eq!(a, b);
        }
    }
}
