//! Inversion counting primitives.
//!
//! An *inversion* of a sequence `s` is a pair of indices `i < j` with
//! `s[i] > s[j]`. Kendall's tau distance between two permutations equals the
//! inversion count of one permutation expressed in the coordinates of the
//! other, so fast inversion counting is the workhorse of every cost
//! computation in this workspace.
//!
//! Two counters are provided:
//!
//! * [`count_inversions`] — offline merge-sort counter, `O(n log n)`;
//! * [`FenwickTree`] — a binary indexed tree for incremental counting, used
//!   when building block weight matrices in `mla-offline`.

/// Counts inversions of `seq` in `O(n log n)` by merge sort.
///
/// The input is copied; the original slice is left untouched. Values may
/// repeat; equal values do **not** count as inversions (the count is the
/// number of strictly decreasing pairs), matching Kendall's tau for
/// permutations where all values are distinct.
///
/// # Examples
///
/// ```
/// use mla_permutation::count_inversions;
///
/// assert_eq!(count_inversions(&[0, 1, 2, 3]), 0);
/// assert_eq!(count_inversions(&[3, 2, 1, 0]), 6);
/// assert_eq!(count_inversions(&[2, 0, 1]), 2);
/// ```
#[must_use]
pub fn count_inversions(seq: &[u32]) -> u64 {
    let mut work = seq.to_vec();
    let mut buffer = vec![0u32; seq.len()];
    merge_count(&mut work, &mut buffer)
}

/// Counts inversions of a `usize` sequence; convenience wrapper around
/// [`count_inversions`].
///
/// # Panics
///
/// Panics if any value exceeds `u32::MAX`.
#[must_use]
pub fn count_inversions_usize(seq: &[usize]) -> u64 {
    let as_u32: Vec<u32> = seq
        .iter()
        // mla-lint: allow(panic-safety): documented panic: the u32 input contract of the inversion counter
        .map(|&v| u32::try_from(v).expect("sequence value exceeds u32::MAX"))
        .collect();
    count_inversions(&as_u32)
}

/// Reference quadratic inversion counter, used to cross-check the merge-sort
/// counter in tests and small-instance code paths.
#[must_use]
pub fn count_inversions_naive(seq: &[u32]) -> u64 {
    let mut count = 0u64;
    for i in 0..seq.len() {
        for j in (i + 1)..seq.len() {
            if seq[i] > seq[j] {
                count += 1;
            }
        }
    }
    count
}

fn merge_count(data: &mut [u32], buffer: &mut [u32]) -> u64 {
    let n = data.len();
    if n <= 1 {
        return 0;
    }
    // Insertion sort for tiny runs: faster and avoids deep recursion.
    if n <= 16 {
        let mut inversions = 0u64;
        for i in 1..n {
            let value = data[i];
            let mut j = i;
            while j > 0 && data[j - 1] > value {
                data[j] = data[j - 1];
                j -= 1;
            }
            inversions += (i - j) as u64;
            data[j] = value;
        }
        return inversions;
    }
    let mid = n / 2;
    let mut inversions = {
        let (left, right) = data.split_at_mut(mid);
        merge_count(left, &mut buffer[..mid]) + merge_count(right, &mut buffer[mid..])
    };
    // Chunk-level dispositions first: a presorted pair of halves needs no
    // merge at all, and a fully crossed pair is one multiplication plus an
    // in-place rotation. Both are common on the near-sorted sequences the
    // cost computations produce.
    if data[mid - 1] <= data[mid] {
        return inversions;
    }
    if data[n - 1] < data[0] {
        inversions += (mid as u64) * ((n - mid) as u64);
        data.rotate_left(mid);
        return inversions;
    }
    // Merge while counting cross inversions. The select is written so the
    // compiler can lower it to conditional moves instead of a hard-to-
    // predict branch: on random data this branch is a coin flip.
    let (mut i, mut j, mut k) = (0usize, mid, 0usize);
    while i < mid && j < n {
        let take_left = data[i] <= data[j];
        buffer[k] = if take_left { data[i] } else { data[j] };
        inversions += if take_left { 0 } else { (mid - i) as u64 };
        i += usize::from(take_left);
        j += usize::from(!take_left);
        k += 1;
    }
    buffer[k..k + (mid - i)].copy_from_slice(&data[i..mid]);
    let k = k + (mid - i);
    buffer[k..k + (n - j)].copy_from_slice(&data[j..n]);
    data.copy_from_slice(&buffer[..n]);
    inversions
}

/// A Fenwick (binary indexed) tree over `0..n` supporting point updates and
/// prefix-sum queries in `O(log n)`.
///
/// Used for incremental inversion counting: scanning a sequence left to
/// right, the number of previously seen values strictly greater than the
/// current one is `seen_so_far - prefix_sum(value)`.
///
/// # Examples
///
/// ```
/// use mla_permutation::FenwickTree;
///
/// let mut tree = FenwickTree::new(4);
/// tree.add(2, 1);
/// tree.add(0, 1);
/// assert_eq!(tree.prefix_sum(0), 1); // values <= 0
/// assert_eq!(tree.prefix_sum(2), 2); // values <= 2
/// assert_eq!(tree.total(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FenwickTree {
    tree: Vec<u64>,
}

impl FenwickTree {
    /// Creates a tree over the value universe `0..n`, all counts zero.
    #[must_use]
    pub fn new(n: usize) -> Self {
        FenwickTree {
            tree: vec![0; n + 1],
        }
    }

    /// Number of distinct values the tree indexes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tree.len() - 1
    }

    /// Returns `true` if the tree indexes an empty universe.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Adds `delta` to the count of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `value >= self.len()`.
    pub fn add(&mut self, value: usize, delta: u64) {
        assert!(value < self.len(), "fenwick value {value} out of range");
        let mut i = value + 1;
        // `get_mut` folds the loop condition and the bounds check into one
        // test, keeping the hot loop free of a panic branch.
        while let Some(slot) = self.tree.get_mut(i) {
            *slot += delta;
            i += i & i.wrapping_neg();
        }
    }

    /// Returns the sum of counts of all values `<= value`.
    ///
    /// Querying beyond the universe is allowed and clamps to the total.
    #[must_use]
    pub fn prefix_sum(&self, value: usize) -> u64 {
        let mut i = (value + 1).min(self.tree.len() - 1);
        let mut sum = 0;
        // `i` strictly decreases and started in bounds, so the `get`
        // always hits; writing it this way keeps the panic machinery out
        // of the loop body.
        while i > 0 {
            sum += self.tree.get(i).copied().unwrap_or(0);
            i &= i - 1;
        }
        sum
    }

    /// Returns the total count stored in the tree.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.prefix_sum(self.tree.len().saturating_sub(1))
    }
}

/// Counts pairs `(i, j)` with `i < j` and `a[i] > b[j]` where `a` and `b` are
/// two sorted ascending slices — the number of *cross inversions* contributed
/// when a block with values `a` is placed to the left of a block with values
/// `b`.
///
/// Both slices must be sorted ascending; this is debug-asserted.
///
/// # Examples
///
/// ```
/// use mla_permutation::cross_inversions_sorted;
///
/// // a = [5, 7] left of b = [1, 6]: pairs (5,1), (7,1), (7,6) invert.
/// assert_eq!(cross_inversions_sorted(&[5, 7], &[1, 6]), 3);
/// ```
#[must_use]
pub fn cross_inversions_sorted(a: &[u32], b: &[u32]) -> u64 {
    debug_assert!(a.windows(2).all(|w| w[0] <= w[1]), "a must be sorted");
    debug_assert!(b.windows(2).all(|w| w[0] <= w[1]), "b must be sorted");
    // For each element of b, count elements of a strictly greater.
    let mut count = 0u64;
    let mut i = 0usize; // pointer into a: first element > b[j]
    for &bj in b {
        while i < a.len() && a[i] <= bj {
            i += 1;
        }
        count += (a.len() - i) as u64;
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_singleton() {
        assert_eq!(count_inversions(&[]), 0);
        assert_eq!(count_inversions(&[7]), 0);
    }

    #[test]
    fn sorted_has_zero() {
        let seq: Vec<u32> = (0..100).collect();
        assert_eq!(count_inversions(&seq), 0);
    }

    #[test]
    fn reversed_has_maximum() {
        let seq: Vec<u32> = (0..100).rev().collect();
        assert_eq!(count_inversions(&seq), 100 * 99 / 2);
    }

    #[test]
    fn duplicates_do_not_count() {
        assert_eq!(count_inversions(&[1, 1, 1]), 0);
        assert_eq!(count_inversions(&[2, 1, 1]), 2);
        assert_eq!(count_inversions(&[1, 2, 1]), 1);
    }

    #[test]
    fn matches_naive_on_fixed_cases() {
        let cases: Vec<Vec<u32>> = vec![
            vec![2, 0, 1],
            vec![5, 4, 4, 3, 9, 0],
            vec![0, 2, 1, 4, 3, 6, 5],
            (0..50).map(|i| (i * 7919) % 50).collect(),
        ];
        for seq in cases {
            assert_eq!(
                count_inversions(&seq),
                count_inversions_naive(&seq),
                "mismatch on {seq:?}"
            );
        }
    }

    #[test]
    fn usize_wrapper_agrees() {
        let seq = [3usize, 1, 2, 0];
        let as_u32 = [3u32, 1, 2, 0];
        assert_eq!(count_inversions_usize(&seq), count_inversions(&as_u32));
    }

    #[test]
    fn fenwick_incremental_inversions() {
        // Count inversions of a sequence by scanning with a Fenwick tree and
        // compare against the merge-sort counter.
        let seq: Vec<u32> = vec![4, 1, 3, 0, 2, 5, 9, 7, 8, 6];
        let mut tree = FenwickTree::new(10);
        let mut inversions = 0u64;
        for (seen, &v) in seq.iter().enumerate() {
            inversions += seen as u64 - tree.prefix_sum(v as usize);
            tree.add(v as usize, 1);
        }
        assert_eq!(inversions, count_inversions(&seq));
        assert_eq!(tree.total(), seq.len() as u64);
    }

    #[test]
    fn fenwick_empty() {
        let tree = FenwickTree::new(0);
        assert!(tree.is_empty());
        assert_eq!(tree.total(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fenwick_add_out_of_range() {
        let mut tree = FenwickTree::new(3);
        tree.add(3, 1);
    }

    #[test]
    fn cross_inversions_basic() {
        assert_eq!(cross_inversions_sorted(&[], &[1, 2]), 0);
        assert_eq!(cross_inversions_sorted(&[1, 2], &[]), 0);
        assert_eq!(cross_inversions_sorted(&[0, 1], &[2, 3]), 0);
        assert_eq!(cross_inversions_sorted(&[2, 3], &[0, 1]), 4);
        assert_eq!(cross_inversions_sorted(&[1, 3], &[2, 4]), 1);
    }

    #[test]
    fn cross_inversions_matches_naive() {
        let a = [1u32, 4, 6, 9];
        let b = [0u32, 3, 5, 7, 8];
        let mut naive = 0u64;
        for &x in &a {
            for &y in &b {
                if x > y {
                    naive += 1;
                }
            }
        }
        assert_eq!(cross_inversions_sorted(&a, &b), naive);
    }
}
