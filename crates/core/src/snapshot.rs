//! Policy-state snapshots for the checkpoint/restore stack.
//!
//! The arrangement an algorithm works on is serialized separately (the
//! session layer owns the backend and its codec); what remains is the
//! *policy* state — whatever an algorithm mutates across `serve` calls
//! beyond the arrangement itself. For the randomized policies that is
//! exactly the RNG stream position; for `Det` it is the `π0` anchor and
//! the exactness flag; for the replayer it is the target and the
//! jumped-yet bit.
//!
//! The contract mirrors the rest of the checkpoint stack: restoring the
//! policy state and replaying the remaining reveals must be
//! bit-identical to never having stopped.

use mla_permutation::codec::{ByteReader, CodecError};

/// Snapshot/restore of an online algorithm's mutable policy state.
///
/// Implementations encode every field whose value can influence a future
/// [`serve`](crate::OnlineMinla::serve) call, *except* the arrangement
/// (owned by the session codec) and construction-time configuration
/// (owned by the session spec, which reconstructs the algorithm before
/// calling [`PolicyState::restore_state`]).
pub trait PolicyState {
    /// Appends the policy state to `out`.
    fn encode_state_into(&self, out: &mut Vec<u8>);

    /// Overwrites the policy state from bytes written by
    /// [`PolicyState::encode_state_into`].
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncated or inconsistent input; on error the
    /// algorithm must not be used further (it may be half-restored).
    fn restore_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), CodecError>;
}

/// Encodes a xoshiro256++ state as four little-endian `u64` lanes.
pub(crate) fn put_rng_state(out: &mut Vec<u8>, state: [u64; 4]) {
    for lane in state {
        mla_permutation::codec::put_u64(out, lane);
    }
}

/// Reads four little-endian `u64` lanes written by [`put_rng_state`].
pub(crate) fn read_rng_state(r: &mut ByteReader<'_>) -> Result<[u64; 4], CodecError> {
    Ok([r.u64()?, r.u64()?, r.u64()?, r.u64()?])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DetClosest, OnlineMinla, OptReplay, RandCliques, RandLines};
    use mla_graph::{GraphState, RevealEvent, Topology};
    use mla_offline::LopConfig;
    use mla_permutation::{Node, Permutation};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn ev(a: usize, b: usize) -> RevealEvent {
        RevealEvent::new(Node::new(a), Node::new(b))
    }

    #[test]
    fn rng_policies_resume_their_streams() {
        let n = 16;
        let mut graph = GraphState::new(Topology::Cliques, n);
        let mut alg = RandCliques::new(Permutation::identity(n), SmallRng::seed_from_u64(9));
        for (a, b) in [(0, 1), (2, 3), (1, 2)] {
            let info = graph.apply(ev(a, b)).unwrap();
            alg.serve(ev(a, b), &info, &graph);
        }
        // Snapshot, then fork: a restored twin must replay the remainder
        // identically to the original.
        let mut state = Vec::new();
        alg.encode_state_into(&mut state);
        let mut twin = RandCliques::new(
            alg.arrangement().clone(),
            SmallRng::seed_from_u64(0xDEAD_BEEF),
        );
        twin.restore_state(&mut ByteReader::new(&state)).unwrap();
        let mut graph_twin = graph.clone();
        for (a, b) in [(4, 5), (0, 4), (6, 7), (5, 6)] {
            let info = graph.apply(ev(a, b)).unwrap();
            let report = alg.serve(ev(a, b), &info, &graph);
            let info_twin = graph_twin.apply(ev(a, b)).unwrap();
            let report_twin = twin.serve(ev(a, b), &info_twin, &graph_twin);
            assert_eq!(report, report_twin);
        }
        assert_eq!(
            alg.arrangement().to_index_vec(),
            twin.arrangement().to_index_vec()
        );
    }

    #[test]
    fn rand_lines_state_is_the_rng_alone() {
        let alg = RandLines::new(Permutation::identity(4), SmallRng::seed_from_u64(3));
        let mut state = Vec::new();
        alg.encode_state_into(&mut state);
        assert_eq!(state.len(), 32, "four u64 lanes");
    }

    #[test]
    fn det_snapshot_carries_the_anchor() {
        let pi0 = Permutation::from_indices(&[2, 0, 1, 3]).unwrap();
        let mut graph = GraphState::new(Topology::Cliques, 4);
        let mut alg = DetClosest::new(pi0.clone(), LopConfig::default());
        let info = graph.apply(ev(0, 3)).unwrap();
        alg.serve(ev(0, 3), &info, &graph);
        let mut state = Vec::new();
        alg.encode_state_into(&mut state);
        // Rebuild anchored at the *current* permutation — restore must
        // bring back the original anchor.
        let mut twin = DetClosest::with_backend(alg.arrangement().clone(), LopConfig::default());
        assert_ne!(twin.initial(), &pi0);
        twin.restore_state(&mut ByteReader::new(&state)).unwrap();
        assert_eq!(twin.initial(), &pi0);
        assert!(twin.is_exact());
    }

    #[test]
    fn opt_replay_snapshot_carries_target_and_jump_bit() {
        let target = Permutation::from_indices(&[1, 0, 3, 2]).unwrap();
        let mut graph = GraphState::new(Topology::Cliques, 4);
        let mut alg = OptReplay::new(Permutation::identity(4), target.clone());
        let info = graph.apply(ev(0, 1)).unwrap();
        assert!(alg.serve(ev(0, 1), &info, &graph).total() > 0);
        let mut state = Vec::new();
        alg.encode_state_into(&mut state);
        let mut twin = OptReplay::new(alg.arrangement().clone(), Permutation::identity(4));
        twin.restore_state(&mut ByteReader::new(&state)).unwrap();
        assert_eq!(twin.target(), &target);
        // Already jumped: the next serve must be free.
        let info = graph.apply(ev(2, 3)).unwrap();
        assert_eq!(twin.serve(ev(2, 3), &info, &graph).total(), 0);
    }
}
