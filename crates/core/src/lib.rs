//! # `mla-core`
//!
//! The paper's primary contribution: online algorithms for the learning
//! Minimum Linear Arrangement problem on collections of cliques and lines
//! (*Learning Minimum Linear Arrangement of Cliques and Lines*, ICDCS
//! 2024).
//!
//! | Algorithm | Paper | Guarantee |
//! |-----------|-------|-----------|
//! | [`RandCliques`] | Section 3, Figure 1 | `4 ln n`-competitive (Theorem 2) |
//! | [`RandLines`] | Section 4, Figure 2 | `8 ln n`-competitive (Theorem 8) |
//! | [`DetClosest`] | Section 2 | `(2n−2)`-competitive (Theorem 1), tight (Theorem 16) |
//! | [`OptReplay`] | Observation 7 | replays an offline trajectory |
//!
//! Ablation baselines are provided through [`MovePolicy`] and
//! [`RearrangePolicy`]: a fair coin instead of the size-biased /
//! cost-biased coins, and the deterministic smaller-moves / cheapest-move
//! rules from the self-adjusting networks literature.
//!
//! All algorithms implement [`OnlineMinla`]: the simulation engine applies
//! each reveal to the graph state and passes the pre-merge component
//! snapshots to the algorithm, which updates its arrangement and returns
//! the exact cost in adjacent transpositions.
//!
//! [`RandCliques`] additionally implements [`BatchServe`] — the decide /
//! plan / apply decomposition of its `serve` (module [`batch`]), whose
//! steps can be called one at a time with the same result.
//!
//! Every algorithm is generic over the
//! [`Arrangement`](mla_permutation::Arrangement) backend: the dense
//! [`Permutation`](mla_permutation::Permutation) (the default type
//! parameter — `O(n)` block splices) or the
//! [`SegmentArrangement`](mla_permutation::SegmentArrangement)
//! (`O(log n)` splices, the large-`n` workhorse). Both backends produce
//! bit-identical permutations and costs — see the equivalence tests.
//!
//! # Examples
//!
//! ```
//! use mla_core::{OnlineMinla, RandCliques};
//! use mla_graph::{GraphState, RevealEvent, Topology};
//! use mla_permutation::{Node, Permutation};
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//!
//! let mut graph = GraphState::new(Topology::Cliques, 8);
//! let mut alg = RandCliques::new(Permutation::identity(8), SmallRng::seed_from_u64(42));
//! let mut total = 0;
//! for (a, b) in [(0, 4), (1, 5), (4, 5)] {
//!     let event = RevealEvent::new(Node::new(a), Node::new(b));
//!     let info = graph.apply(event).unwrap();
//!     total += alg.serve(event, &info, &graph).total();
//!     assert!(graph.is_minla(alg.arrangement()));
//! }
//! assert!(total > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
mod det;
pub mod mechanics;
mod opt_replay;
mod policies;
mod rand_cliques;
mod rand_lines;
mod report;
mod snapshot;
mod traits;

pub use batch::{BatchServe, MergeDecision, MergeLayout, MergePlan};
pub use det::DetClosest;
pub use opt_replay::OptReplay;
pub use policies::{MovePolicy, RearrangePolicy};
pub use rand_cliques::RandCliques;
pub use rand_lines::RandLines;
pub use report::UpdateReport;
pub use snapshot::PolicyState;
pub use traits::OnlineMinla;
