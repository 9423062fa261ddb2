//! Sharded (multi-tenant) workloads: merges confined to contiguous node
//! shards, interleaved round-robin across shards.
//!
//! This is the workload shape of the Section 1.2 motivation at serving
//! scale: many independent tenants grow their own clusters concurrently,
//! and nothing ever merges across tenants. Because each shard's nodes
//! start contiguous in the identity arrangement and every merge update
//! only mutates positions inside its own span, all activity of a shard
//! stays inside the shard's position range forever — so reveals of
//! *different* shards have disjoint spans by construction, and each
//! merge update moves blocks over a short, tenant-local gap.

use mla_graph::{Instance, RevealEvent, Topology};
use mla_permutation::Node;
use rand::Rng;

use crate::random::{random_clique_instance, random_line_instance, MergeShape};

/// The shard sizes [`sharded_instance`] uses for `n` nodes over `shards`
/// shards: as equal as possible, the first `n % shards` shards one node
/// larger, contiguous ranges covering `0..n` in order: shard `i` owns
/// the `i`-th range.
///
/// # Examples
///
/// ```
/// use mla_adversary::shard_sizes;
/// assert_eq!(shard_sizes(30, 4), vec![8, 8, 7, 7]);
/// ```
///
/// # Panics
///
/// Panics if `shards` is not in `1..=n`.
#[must_use]
pub fn shard_sizes(n: usize, shards: usize) -> Vec<usize> {
    assert!(
        (1..=n.max(1)).contains(&shards),
        "shard count {shards} must be in 1..={n}"
    );
    (0..shards)
        .map(|s| n / shards + usize::from(s < n % shards))
        .collect()
}

/// Generates a sharded workload: `shards` independent sub-workloads over
/// contiguous node ranges (sizes as equal as possible), each a complete
/// random merge sequence of the given [`MergeShape`], interleaved
/// round-robin. The final graph has exactly `shards` components — one
/// clique or line per shard; shards never federate.
///
/// Reveals of different shards touch disjoint node ranges, so an online
/// algorithm starting from the identity arrangement serves them in
/// disjoint position spans.
///
/// # Examples
///
/// ```
/// use mla_adversary::{sharded_instance, MergeShape};
/// use mla_graph::Topology;
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let mut rng = SmallRng::seed_from_u64(7);
/// let instance = sharded_instance(Topology::Cliques, 64, 8, MergeShape::Uniform, &mut rng);
/// assert_eq!(instance.n(), 64);
/// assert_eq!(instance.len(), 64 - 8); // n - shards merges in total
/// assert_eq!(instance.final_components().len(), 8);
/// ```
///
/// # Panics
///
/// Panics if `n == 0`, `shards == 0`, or `shards > n`.
#[must_use]
pub fn sharded_instance<R: Rng + ?Sized>(
    topology: Topology,
    n: usize,
    shards: usize,
    shape: MergeShape,
    rng: &mut R,
) -> Instance {
    assert!(n > 0, "instance needs at least one node");
    assert!(
        (1..=n).contains(&shards),
        "shard count {shards} must be in 1..={n}"
    );
    let mut event_queues: Vec<std::vec::IntoIter<RevealEvent>> = Vec::with_capacity(shards);
    let mut offset = 0usize;
    for size in shard_sizes(n, shards) {
        let local = match topology {
            Topology::Cliques => random_clique_instance(size, shape, rng),
            Topology::Lines => random_line_instance(size, shape, rng),
        };
        let shifted: Vec<RevealEvent> = local
            .events()
            .iter()
            .map(|e| {
                RevealEvent::new(
                    Node::new(e.a().index() + offset),
                    Node::new(e.b().index() + offset),
                )
            })
            .collect();
        event_queues.push(shifted.into_iter());
        offset += size;
    }
    debug_assert_eq!(offset, n, "shard sizes partition the node universe");
    // Round-robin interleave; shards with fewer merges simply drop out.
    let mut events = Vec::with_capacity(n - shards);
    let mut live = true;
    while live {
        live = false;
        for queue in &mut event_queues {
            if let Some(event) = queue.next() {
                events.push(event);
                live = true;
            }
        }
    }
    Instance::new(topology, n, events).expect("sharded events are valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn shards_never_federate() {
        let mut rng = SmallRng::seed_from_u64(3);
        let instance = sharded_instance(Topology::Cliques, 30, 4, MergeShape::Uniform, &mut rng);
        // Shard ranges: 8 + 8 + 7 + 7.
        let bounds = [0usize, 8, 16, 23, 30];
        for event in instance.events() {
            let shard_of = |v: usize| bounds.iter().filter(|&&b| b <= v).count();
            assert_eq!(shard_of(event.a().index()), shard_of(event.b().index()));
        }
        let components = instance.final_components();
        assert_eq!(components.len(), 4);
        let mut sizes: Vec<usize> = components.iter().map(Vec::len).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![7, 7, 8, 8]);
    }

    #[test]
    fn lines_topology_and_seed_determinism() {
        let make = || {
            sharded_instance(
                Topology::Lines,
                25,
                5,
                MergeShape::Balanced,
                &mut SmallRng::seed_from_u64(9),
            )
        };
        let a = make();
        assert_eq!(a.len(), 20);
        assert_eq!(a.final_components().len(), 5);
        assert_eq!(a.events(), make().events());
    }

    #[test]
    fn single_shard_is_a_plain_workload() {
        let mut rng = SmallRng::seed_from_u64(1);
        let instance = sharded_instance(Topology::Cliques, 12, 1, MergeShape::Uniform, &mut rng);
        assert_eq!(instance.final_components().len(), 1);
        assert_eq!(instance.len(), 11);
    }

    #[test]
    fn all_singleton_shards_produce_no_events() {
        let mut rng = SmallRng::seed_from_u64(1);
        let instance = sharded_instance(Topology::Lines, 6, 6, MergeShape::Uniform, &mut rng);
        assert!(instance.is_empty());
        assert_eq!(instance.final_components().len(), 6);
    }

    #[test]
    #[should_panic(expected = "shard count")]
    fn rejects_more_shards_than_nodes() {
        let mut rng = SmallRng::seed_from_u64(1);
        let _ = sharded_instance(Topology::Cliques, 3, 4, MergeShape::Uniform, &mut rng);
    }
}
