//! The merge tree (a.k.a. dendrogram) of a request sequence.
//!
//! Leaves are the `n` graph nodes; each reveal adds one internal node whose
//! two children are the merging components. The tree drives the
//! hierarchy-consistent offline upper bound for cliques (`mla-offline`) and
//! the Theorem 15 lower-bound analysis.

use mla_permutation::Node;

use crate::instance::Instance;
use crate::union_find::UnionFind;

/// Identifier of a merge-tree vertex: `0..n` are leaves (graph nodes),
/// `n..n+k` are internal vertices in reveal order.
pub type TreeId = usize;

/// The merge tree of an [`Instance`].
///
/// # Examples
///
/// ```
/// use mla_graph::{Instance, MergeTree, RevealEvent, Topology};
/// use mla_permutation::Node;
///
/// let instance = Instance::new(
///     Topology::Cliques,
///     3,
///     vec![
///         RevealEvent::new(Node::new(0), Node::new(1)),
///         RevealEvent::new(Node::new(2), Node::new(0)),
///     ],
/// )
/// .unwrap();
/// let tree = instance.merge_tree();
/// assert_eq!(tree.roots(), vec![4]); // one final component
/// assert_eq!(tree.size_of(4), 3);
/// assert_eq!(tree.children(3), Some((0, 1)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeTree {
    n: usize,
    /// `children[id - n]` for internal vertices: (x-side, z-side).
    children: Vec<(TreeId, TreeId)>,
    parent: Vec<Option<TreeId>>,
    sizes: Vec<u32>,
}

impl MergeTree {
    /// Builds the merge tree by replaying the instance.
    #[must_use]
    pub fn from_instance(instance: &Instance) -> Self {
        let n = instance.n();
        let k = instance.len();
        let mut dsu = UnionFind::new(n);
        // Current tree id of each DSU root.
        let mut tree_id_of_root: Vec<TreeId> = (0..n).collect();
        let mut children = Vec::with_capacity(k);
        let mut parent: Vec<Option<TreeId>> = vec![None; n + k];
        let mut sizes: Vec<u32> = vec![1; n + k];

        for (i, event) in instance.events().iter().enumerate() {
            let internal: TreeId = n + i;
            let root_a = dsu.find(event.a());
            let root_b = dsu.find(event.b());
            let left = tree_id_of_root[root_a.index()];
            let right = tree_id_of_root[root_b.index()];
            children.push((left, right));
            parent[left] = Some(internal);
            parent[right] = Some(internal);
            sizes[internal] = sizes[left] + sizes[right];
            let new_root = dsu
                .union(event.a(), event.b())
                // mla-lint: allow(panic-safety): the instance was validated: every reveal merges two distinct components
                .expect("validated instance merges distinct components");
            tree_id_of_root[new_root.index()] = internal;
        }

        MergeTree {
            n,
            children,
            parent,
            sizes,
        }
    }

    /// Number of internal vertices (reveals).
    #[must_use]
    pub fn internal_count(&self) -> usize {
        self.children.len()
    }

    /// Returns `true` if `id` is a leaf.
    #[must_use]
    pub fn is_leaf(&self, id: TreeId) -> bool {
        id < self.n
    }

    /// The graph node of a leaf.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a leaf.
    #[must_use]
    pub fn leaf_node(&self, id: TreeId) -> Node {
        assert!(self.is_leaf(id), "tree vertex {id} is not a leaf");
        Node::new(id)
    }

    /// Children of an internal vertex (x-side, z-side); `None` for leaves.
    #[must_use]
    pub fn children(&self, id: TreeId) -> Option<(TreeId, TreeId)> {
        if id < self.n {
            None
        } else {
            self.children.get(id - self.n).copied()
        }
    }

    /// Parent of a vertex, if any.
    #[must_use]
    pub fn parent(&self, id: TreeId) -> Option<TreeId> {
        self.parent[id]
    }

    /// Number of leaves under `id`.
    #[must_use]
    pub fn size_of(&self, id: TreeId) -> usize {
        self.sizes[id] as usize
    }

    /// All parentless vertices: the final components of the instance.
    #[must_use]
    pub fn roots(&self) -> Vec<TreeId> {
        (0..self.n + self.children.len())
            .filter(|&id| self.parent[id].is_none())
            .collect()
    }

    /// The graph nodes under `id`, by iterative traversal (left-to-right:
    /// x-side leaves first).
    #[must_use]
    pub fn leaves_under(&self, id: TreeId) -> Vec<Node> {
        let mut leaves = Vec::with_capacity(self.size_of(id));
        let mut stack = vec![id];
        while let Some(v) = stack.pop() {
            match self.children(v) {
                None => leaves.push(Node::new(v)),
                Some((l, r)) => {
                    // Push right first so the left subtree is visited first.
                    stack.push(r);
                    stack.push(l);
                }
            }
        }
        leaves
    }

    /// Depth of vertex `id` (distance to its root).
    #[must_use]
    pub fn depth_of(&self, id: TreeId) -> usize {
        let mut depth = 0;
        let mut v = id;
        while let Some(p) = self.parent[v] {
            depth += 1;
            v = p;
        }
        depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{RevealEvent, Topology};

    fn ev(a: usize, b: usize) -> RevealEvent {
        RevealEvent::new(Node::new(a), Node::new(b))
    }

    fn balanced_instance() -> Instance {
        // ((0,1),(2,3)) and a lone node 4.
        Instance::new(Topology::Cliques, 5, vec![ev(0, 1), ev(2, 3), ev(0, 2)]).unwrap()
    }

    #[test]
    fn structure_of_balanced_tree() {
        let tree = balanced_instance().merge_tree();
        assert_eq!(tree.internal_count(), 3);
        assert_eq!(tree.children(5), Some((0, 1)));
        assert_eq!(tree.children(6), Some((2, 3)));
        assert_eq!(tree.children(7), Some((5, 6)));
        assert_eq!(tree.size_of(7), 4);
        let mut roots = tree.roots();
        roots.sort_unstable();
        assert_eq!(roots, vec![4, 7]);
    }

    #[test]
    fn leaves_under_traversal_order() {
        let tree = balanced_instance().merge_tree();
        assert_eq!(
            tree.leaves_under(7),
            vec![Node::new(0), Node::new(1), Node::new(2), Node::new(3)]
        );
        assert_eq!(tree.leaves_under(2), vec![Node::new(2)]);
    }

    #[test]
    fn parents_and_depths() {
        let tree = balanced_instance().merge_tree();
        assert_eq!(tree.parent(0), Some(5));
        assert_eq!(tree.parent(5), Some(7));
        assert_eq!(tree.parent(7), None);
        assert_eq!(tree.depth_of(0), 2);
        assert_eq!(tree.depth_of(7), 0);
        assert_eq!(tree.depth_of(4), 0);
    }

    #[test]
    fn leaf_helpers() {
        let tree = balanced_instance().merge_tree();
        assert!(tree.is_leaf(3));
        assert!(!tree.is_leaf(6));
        assert_eq!(tree.leaf_node(3), Node::new(3));
    }

    #[test]
    #[should_panic(expected = "is not a leaf")]
    fn leaf_node_panics_on_internal() {
        let tree = balanced_instance().merge_tree();
        let _ = tree.leaf_node(6);
    }

    #[test]
    fn chain_tree_shape() {
        // Sequential merges produce a caterpillar.
        let instance =
            Instance::new(Topology::Lines, 4, vec![ev(0, 1), ev(1, 2), ev(2, 3)]).unwrap();
        let tree = instance.merge_tree();
        assert_eq!(tree.children(4), Some((0, 1)));
        assert_eq!(tree.children(5), Some((4, 2)));
        assert_eq!(tree.children(6), Some((5, 3)));
        assert_eq!(tree.roots(), vec![6]);
        assert_eq!(tree.depth_of(0), 3);
    }
}
