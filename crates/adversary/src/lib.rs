//! # `mla-adversary`
//!
//! Request generators for the online learning MinLA workspace: the paper's
//! two lower-bound constructions plus random and application-inspired
//! workloads.
//!
//! * [`Adversary`] — the generator interface (oblivious or adaptive);
//! * [`BinaryTreeAdversary`] — Theorem 15: the `Ω(log n)` randomized lower
//!   bound distribution (balanced, level-by-level reveals of a random
//!   permutation path);
//! * [`DetLineAdversary`] — Theorem 16: the adaptive middle-node
//!   construction forcing closest-to-`π0` deterministic algorithms to pay
//!   `Ω(n²)` while `Opt = O(n)`;
//! * [`random_clique_instance`] / [`random_line_instance`] — random
//!   workloads in four [`MergeShape`]s;
//! * [`sharded_instance`] — multi-tenant workloads: merges confined to
//!   contiguous node shards, round-robin interleaved;
//! * [`StreamingWorkload`] — the same workloads as a lazy
//!   [`RevealSource`](mla_graph::RevealSource): one merge generated per
//!   pull, no event vector materialized (the `n = 10⁷+` path), with
//!   [`SourceAdversary`] bridging any source into the engine's
//!   [`Adversary`] interface;
//! * [`datacenter_instance`] — the Section 1.2 motivation: tenant clusters
//!   arriving, growing and federating;
//! * [`FamilyWorkload`] — oracle-aligned topology families (interval /
//!   series-parallel / tree merge-sequence), all RNG routed through
//!   `SeedSequence` label paths, feeding the certified-ratio harness.
//!
//! # Examples
//!
//! ```
//! use mla_adversary::{random_clique_instance, MergeShape};
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//!
//! let mut rng = SmallRng::seed_from_u64(1);
//! let instance = random_clique_instance(32, MergeShape::Balanced, &mut rng);
//! assert_eq!(instance.len(), 31); // full merge: n - 1 reveals
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod binary_tree;
mod datacenter;
mod det_line;
mod families;
mod random;
mod sharded;
mod streaming;
mod traits;

pub use binary_tree::BinaryTreeAdversary;
pub use datacenter::{datacenter_instance, DatacenterConfig};
pub use det_line::DetLineAdversary;
pub use families::{FamilyWorkload, TopologyFamily, FAMILY_MAX_COMPONENT};
pub use random::{random_clique_instance, random_line_instance, MergeShape};
pub use sharded::{shard_sizes, sharded_instance};
pub use streaming::StreamingWorkload;
pub use traits::{Adversary, Oblivious, SourceAdversary};
