//! Union–find (disjoint set union) with component member listing.
//!
//! The online MinLA algorithms need, at every merge, the full node lists of
//! the two merging components. Membership is stored as one **circular
//! linked list per component** threaded through a single `n`-sized array
//! (`next[v]` = the next member of `v`'s component): a union splices two
//! cycles with one pointer swap, and listing a component walks its cycle
//! in `O(size)`. Compared to per-root `Vec<Node>` member lists this needs
//! exactly two `u32` words per node and **zero per-component heap
//! allocations** — at `n = 10⁷` that is ~80 MB of flat arrays instead of
//! hundreds of MB of singleton vectors, which is what keeps the streaming
//! large-`n` runs inside their memory budget.

use mla_permutation::Node;

/// Disjoint-set union over the dense node universe `0..n`, with
/// linked-list component membership.
///
/// # Examples
///
/// ```
/// use mla_graph::UnionFind;
/// use mla_permutation::Node;
///
/// let mut dsu = UnionFind::new(4);
/// assert_eq!(dsu.component_count(), 4);
/// dsu.union(Node::new(0), Node::new(2));
/// assert!(dsu.same_set(Node::new(0), Node::new(2)));
/// assert_eq!(dsu.size_of(Node::new(2)), 2);
/// ```
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    /// Circular member list: `next[v]` is the next member of `v`'s
    /// component (a singleton points at itself).
    next: Vec<u32>,
    /// Component size, maintained only at roots.
    size: Vec<u32>,
    components: usize,
}

impl UnionFind {
    /// Creates `n` singleton components.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds `u32::MAX` (node ids are `u32`).
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(
            n <= u32::MAX as usize,
            "union-find universe {n} exceeds u32 node ids"
        );
        UnionFind {
            parent: (0..n as u32).collect(),
            next: (0..n as u32).collect(),
            size: vec![1; n],
            components: n,
        }
    }

    /// Number of nodes in the universe.
    #[must_use]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` for an empty universe.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of components.
    #[must_use]
    pub fn component_count(&self) -> usize {
        self.components
    }

    /// Representative of the component containing `v` (with path halving).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn find(&mut self, v: Node) -> Node {
        let mut i = v.index();
        while self.parent[i] as usize != i {
            let grandparent = self.parent[self.parent[i] as usize];
            self.parent[i] = grandparent;
            i = grandparent as usize;
        }
        Node::new(i)
    }

    /// Non-mutating find (no path compression); used by read-only queries.
    #[must_use]
    pub fn find_immutable(&self, v: Node) -> Node {
        let mut i = v.index();
        while self.parent[i] as usize != i {
            i = self.parent[i] as usize;
        }
        Node::new(i)
    }

    /// Returns `true` if `a` and `b` are in the same component.
    #[must_use]
    pub fn same_set(&self, a: Node, b: Node) -> bool {
        self.find_immutable(a) == self.find_immutable(b)
    }

    /// Size of the component containing `v`.
    #[must_use]
    pub fn size_of(&self, v: Node) -> usize {
        self.size[self.find_immutable(v).index()] as usize
    }

    /// Iterates the members of the component containing `v` (arbitrary
    /// order), without allocating.
    pub fn members_iter(&self, v: Node) -> impl Iterator<Item = Node> + '_ {
        let start = v.index() as u32;
        let mut current = Some(start);
        std::iter::from_fn(move || {
            let here = current?;
            let next = self.next[here as usize];
            current = (next != start).then_some(next);
            Some(Node::new(here as usize))
        })
    }

    /// The member list of the component containing `v` (arbitrary order).
    #[must_use]
    pub fn members_of(&self, v: Node) -> Vec<Node> {
        let mut members = Vec::with_capacity(self.size_of(v));
        members.extend(self.members_iter(v));
        members
    }

    /// Merges the components of `a` and `b`, small into large. Returns the
    /// new root, or `None` if they were already in the same component.
    pub fn union(&mut self, a: Node, b: Node) -> Option<Node> {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return None;
        }
        let (big, small) = if self.size[ra.index()] >= self.size[rb.index()] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        // Splice the two circular member lists: one pointer swap.
        self.next.swap(big.index(), small.index());
        self.size[big.index()] += self.size[small.index()];
        self.parent[small.index()] = big.raw();
        self.components -= 1;
        Some(big)
    }

    /// All current components as node lists (arbitrary order within and
    /// across components).
    #[must_use]
    pub fn components(&self) -> Vec<Vec<Node>> {
        self.roots()
            .into_iter()
            .map(|root| self.members_of(root))
            .collect()
    }

    /// All current component representatives.
    #[must_use]
    pub fn roots(&self) -> Vec<Node> {
        (0..self.len())
            .filter(|&i| self.parent[i] as usize == i)
            .map(Node::new)
            .collect()
    }

    /// The size of `v`'s component if `v` is its root, else `None`.
    pub(crate) fn root_size(&self, v: Node) -> Option<usize> {
        (self.parent[v.index()] as usize == v.index()).then(|| self.size[v.index()] as usize)
    }

    /// Returns `true` iff every component is exactly one block of the
    /// partition `block_of` describes (see
    /// [`GraphState::components_are_blocks`](crate::GraphState::components_are_blocks)):
    /// each node shares its parent's block, so by induction its root's,
    /// and each root's block is as long as its component. One flat pass
    /// over the parent array, with no `find`.
    pub(crate) fn sets_are_blocks(&self, block_of: &impl Fn(Node) -> (u32, usize, usize)) -> bool {
        self.parent.iter().enumerate().all(|(v, &parent)| {
            let (block, len, _) = block_of(Node::new(v));
            match self.root_size(Node::new(v)) {
                Some(size) => len == size,
                None => block == block_of(Node::from(parent)).0,
            }
        })
    }

    /// Serializes the structure **exactly** — parent forest (including
    /// any path-halving compression already applied), circular member
    /// lists and per-root sizes — for the checkpoint stack.
    ///
    /// Exactness matters for the determinism contract: member-walk order
    /// feeds the eager component snapshots the algorithms rearrange from,
    /// so a restore must reproduce the arrays bit-for-bit rather than any
    /// equivalent partition.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        mla_permutation::codec::put_len(out, self.len());
        for &p in &self.parent {
            mla_permutation::codec::put_u32(out, p);
        }
        for &nx in &self.next {
            mla_permutation::codec::put_u32(out, nx);
        }
        for &s in &self.size {
            mla_permutation::codec::put_u32(out, s);
        }
    }

    /// Decodes a structure written by [`UnionFind::encode_into`],
    /// re-validating the invariants a well-formed instance upholds:
    /// in-range parent pointers, an acyclic parent forest, `next` a
    /// permutation whose cycles are exactly the components, and root
    /// sizes that sum to `n`.
    ///
    /// # Errors
    ///
    /// [`CodecError`](mla_permutation::codec::CodecError) on truncated input or any inconsistency.
    pub fn decode_from(
        r: &mut mla_permutation::codec::ByteReader<'_>,
    ) -> Result<Self, mla_permutation::codec::CodecError> {
        use mla_permutation::codec::CodecError;
        // Three 4-byte entries per node: bounding the count by the input
        // left makes a short body fail before the allocations.
        let n = r.count(
            (u32::MAX as usize).min(r.remaining() / 12),
            "union-find node",
        )?;
        let mut parent = Vec::with_capacity(n);
        let mut next = Vec::with_capacity(n);
        let mut size = Vec::with_capacity(n);
        for _ in 0..n {
            let p = r.u32()?;
            if p as usize >= n {
                return Err(CodecError::invalid(format!(
                    "union-find parent {p} out of range for n = {n}"
                )));
            }
            parent.push(p);
        }
        for _ in 0..n {
            let nx = r.u32()?;
            if nx as usize >= n {
                return Err(CodecError::invalid(format!(
                    "union-find next pointer {nx} out of range for n = {n}"
                )));
            }
            next.push(nx);
        }
        for _ in 0..n {
            size.push(r.u32()?);
        }
        // Resolve every node's root, rejecting parent cycles: walking n
        // steps without reaching a self-parent means a cycle.
        let mut root_of = vec![u32::MAX; n];
        for (start, root_slot) in root_of.iter_mut().enumerate() {
            let mut i = start;
            let mut steps = 0usize;
            while parent[i] as usize != i {
                i = parent[i] as usize;
                steps += 1;
                if steps > n {
                    return Err(CodecError::invalid(format!(
                        "union-find parent chain from {start} is cyclic"
                    )));
                }
            }
            // mla-lint: allow(cast-hygiene): node ids are bounded by the n <= u32::MAX guard above
            *root_slot = i as u32;
        }
        let components = (0..n).filter(|&i| parent[i] as usize == i).count();
        // The member cycles must agree with the parent forest: every
        // node's cycle stays within its component and covers exactly
        // size[root] members.
        let mut seen = vec![false; n];
        let mut covered = 0usize;
        for start in 0..n {
            if seen[start] {
                continue;
            }
            let root = root_of[start] as usize;
            let mut cycle_len = 0usize;
            let mut i = start;
            loop {
                if seen[i] {
                    return Err(CodecError::invalid(format!(
                        "union-find member list of {start} re-enters node {i}"
                    )));
                }
                if root_of[i] as usize != root {
                    return Err(CodecError::invalid(format!(
                        "union-find member list of root {root} strays into node {i}"
                    )));
                }
                seen[i] = true;
                cycle_len += 1;
                i = next[i] as usize;
                if i == start {
                    break;
                }
            }
            if cycle_len != size[root] as usize {
                return Err(CodecError::invalid(format!(
                    "union-find root {root} has size {} but {cycle_len} members",
                    size[root]
                )));
            }
            covered += cycle_len;
        }
        if covered != n {
            return Err(CodecError::invalid(
                "union-find member cycles do not cover the universe",
            ));
        }
        Ok(UnionFind {
            parent,
            next,
            size,
            components,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons() {
        let dsu = UnionFind::new(3);
        assert_eq!(dsu.component_count(), 3);
        assert_eq!(dsu.size_of(Node::new(1)), 1);
        assert!(!dsu.same_set(Node::new(0), Node::new(1)));
        assert_eq!(dsu.components().len(), 3);
        assert_eq!(dsu.members_of(Node::new(2)), vec![Node::new(2)]);
    }

    #[test]
    fn union_merges_members() {
        let mut dsu = UnionFind::new(5);
        assert!(dsu.union(Node::new(0), Node::new(1)).is_some());
        assert!(dsu.union(Node::new(2), Node::new(3)).is_some());
        assert!(dsu.union(Node::new(0), Node::new(3)).is_some());
        assert_eq!(dsu.component_count(), 2);
        assert_eq!(dsu.size_of(Node::new(1)), 4);
        let mut members: Vec<usize> = dsu
            .members_of(Node::new(2))
            .iter()
            .map(|v| v.index())
            .collect();
        members.sort_unstable();
        assert_eq!(members, vec![0, 1, 2, 3]);
    }

    #[test]
    fn members_listed_from_any_member() {
        // The cycle walk must yield the same set whatever member starts it.
        let mut dsu = UnionFind::new(6);
        dsu.union(Node::new(0), Node::new(4));
        dsu.union(Node::new(4), Node::new(2));
        for start in [0usize, 2, 4] {
            let mut members: Vec<usize> = dsu
                .members_of(Node::new(start))
                .iter()
                .map(|v| v.index())
                .collect();
            members.sort_unstable();
            assert_eq!(members, vec![0, 2, 4], "start {start}");
        }
    }

    #[test]
    fn union_same_component_is_none() {
        let mut dsu = UnionFind::new(3);
        dsu.union(Node::new(0), Node::new(1));
        assert_eq!(dsu.union(Node::new(1), Node::new(0)), None);
        assert_eq!(dsu.component_count(), 2);
    }

    #[test]
    fn small_into_large_keeps_root_of_larger() {
        let mut dsu = UnionFind::new(6);
        dsu.union(Node::new(0), Node::new(1));
        dsu.union(Node::new(0), Node::new(2));
        // {0,1,2} vs {3}: the root of the triple must survive.
        let big_root = dsu.find(Node::new(0));
        let new_root = dsu.union(Node::new(3), Node::new(0)).unwrap();
        assert_eq!(new_root, big_root);
    }

    #[test]
    fn full_merge_chain() {
        let n = 64;
        let mut dsu = UnionFind::new(n);
        for i in 1..n {
            assert!(dsu.union(Node::new(0), Node::new(i)).is_some());
        }
        assert_eq!(dsu.component_count(), 1);
        assert_eq!(dsu.size_of(Node::new(n - 1)), n);
        assert_eq!(dsu.roots().len(), 1);
        assert_eq!(dsu.members_of(Node::new(17)).len(), n);
    }

    #[test]
    fn find_agrees_with_immutable() {
        let mut dsu = UnionFind::new(10);
        for i in 0..9 {
            dsu.union(Node::new(i), Node::new(i + 1));
        }
        for i in 0..10 {
            assert_eq!(dsu.find(Node::new(i)), dsu.find_immutable(Node::new(i)));
        }
    }

    #[test]
    fn codec_roundtrip_is_exact() {
        let mut dsu = UnionFind::new(12);
        dsu.union(Node::new(0), Node::new(5));
        dsu.union(Node::new(5), Node::new(7));
        dsu.union(Node::new(2), Node::new(3));
        dsu.union(Node::new(3), Node::new(0));
        // Trigger some path halving so compressed state is exercised.
        let _ = dsu.find(Node::new(7));
        let mut bytes = Vec::new();
        dsu.encode_into(&mut bytes);
        let mut r = mla_permutation::codec::ByteReader::new(&bytes);
        let back = UnionFind::decode_from(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.parent, dsu.parent);
        assert_eq!(back.next, dsu.next);
        assert_eq!(back.size, dsu.size);
        assert_eq!(back.component_count(), dsu.component_count());
        // Member walk order — the determinism-sensitive part — matches.
        assert_eq!(back.members_of(Node::new(7)), dsu.members_of(Node::new(7)));
    }

    #[test]
    fn codec_rejects_corrupt_structures() {
        use mla_permutation::codec::{put_len, put_u32, ByteReader, CodecError};
        let mut dsu = UnionFind::new(6);
        dsu.union(Node::new(0), Node::new(1));
        let mut bytes = Vec::new();
        dsu.encode_into(&mut bytes);
        // Any truncation errors out.
        for cut in 0..bytes.len() {
            assert!(UnionFind::decode_from(&mut ByteReader::new(&bytes[..cut])).is_err());
        }
        // A parent cycle (0 -> 1 -> 0) is structural corruption.
        let mut cyc = Vec::new();
        put_len(&mut cyc, 2);
        for v in [1u32, 0] {
            put_u32(&mut cyc, v);
        }
        for v in [0u32, 1] {
            put_u32(&mut cyc, v);
        }
        for _ in 0..2 {
            put_u32(&mut cyc, 1);
        }
        assert!(matches!(
            UnionFind::decode_from(&mut ByteReader::new(&cyc)),
            Err(CodecError::Invalid { .. })
        ));
        // A member list that strays across components is rejected.
        let mut stray = Vec::new();
        put_len(&mut stray, 2);
        for v in [0u32, 1] {
            put_u32(&mut stray, v);
        }
        for v in [1u32, 0] {
            put_u32(&mut stray, v);
        }
        for _ in 0..2 {
            put_u32(&mut stray, 1);
        }
        assert!(matches!(
            UnionFind::decode_from(&mut ByteReader::new(&stray)),
            Err(CodecError::Invalid { .. })
        ));
    }

    #[test]
    fn membership_partitions_the_universe() {
        // Pseudo-random unions: the components must always partition 0..n.
        let n = 40;
        let mut dsu = UnionFind::new(n);
        let mut state = 0xABCDu64;
        for _ in 0..30 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = (state >> 33) as usize % n;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let b = (state >> 33) as usize % n;
            dsu.union(Node::new(a), Node::new(b));
            let mut all: Vec<usize> = dsu
                .components()
                .iter()
                .flatten()
                .map(|v| v.index())
                .collect();
            all.sort_unstable();
            assert_eq!(all, (0..n).collect::<Vec<_>>());
            let total: usize = dsu.components().iter().map(Vec::len).sum();
            assert_eq!(total, n);
        }
    }
}
