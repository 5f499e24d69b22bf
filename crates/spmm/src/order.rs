//! A checked ordering of an index range — what a matrix is packed under.

/// An ordering of `0..len`: every index exactly once.
///
/// [`PackedMatrix::pack_ordered`](crate::PackedMatrix::pack_ordered)
/// takes one for the rows (which rows share a thread block) and one for
/// the columns (which columns share a stage); [`Csr::permute`](crate::Csr::permute)
/// renumbers a matrix by the same pair. The check happens once, here, so
/// neither can be handed a list with a duplicate or a gap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Order {
    /// `indices[k]` = the index at position `k`.
    indices: Vec<u32>,
    /// `rank[i]` = the position of index `i` (the inverse of `indices`).
    rank: Vec<u32>,
}

impl Order {
    /// The order that lists `indices[0]` first, `indices[1]` second, ….
    ///
    /// # Panics
    /// Panics, naming the offending position and index, unless `indices`
    /// is a permutation of `0..indices.len()`: an index past the end is
    /// out of range, an index seen twice is a duplicate, and a list with
    /// neither leaves no gap. (Whether the length is the matrix's is
    /// checked where the order meets a matrix.)
    pub fn new(indices: Vec<u32>) -> Self {
        let len = indices.len();
        const UNSEEN: u32 = u32::MAX;
        assert!(len < UNSEEN as usize, "order of {len} overflows u32");
        let mut rank = vec![UNSEEN; len];
        for (k, &i) in indices.iter().enumerate() {
            assert!(
                (i as usize) < len,
                "order position {k} holds index {i}, out of range 0..{len}"
            );
            assert!(
                rank[i as usize] == UNSEEN,
                "order position {k} repeats index {i}, first listed at position {}",
                rank[i as usize]
            );
            rank[i as usize] = k as u32;
        }
        Order { indices, rank }
    }

    /// `0, 1, …, len − 1`: the order a matrix already has.
    pub fn identity(len: usize) -> Self {
        assert!(u32::try_from(len).is_ok(), "order of {len} overflows u32");
        let indices: Vec<u32> = (0..len as u32).collect();
        Order {
            rank: indices.clone(),
            indices,
        }
    }

    /// Indices ordered.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the order is over the empty range.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The indices, first to last.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The position of every index: `rank()[indices()[k]] == k`.
    pub fn rank(&self) -> &[u32] {
        &self.rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_inverts_indices() {
        let order = Order::new(vec![2, 0, 3, 1]);
        assert_eq!(order.indices(), &[2, 0, 3, 1]);
        assert_eq!(order.rank(), &[1, 3, 0, 2]);
        assert_eq!(order.len(), 4);
        let id = Order::identity(3);
        assert_eq!(id.indices(), &[0, 1, 2]);
        assert_eq!(id.rank(), &[0, 1, 2]);
        assert_eq!(id, Order::new(vec![0, 1, 2]));
        assert!(Order::identity(0).is_empty());
    }

    /// Every way a list can fail to be a permutation is rejected with a
    /// message that names the offending index.
    #[test]
    fn non_permutations_are_rejected_naming_the_index() {
        let rejected = |indices: Vec<u32>| -> String {
            let err = std::panic::catch_unwind(|| Order::new(indices))
                .expect_err("a non-permutation must be rejected");
            err.downcast_ref::<String>().cloned().unwrap_or_default()
        };
        let duplicate = rejected(vec![0, 2, 2, 1]);
        assert!(
            duplicate.contains("position 2 repeats index 2") && duplicate.contains("position 1"),
            "{duplicate}"
        );
        let out_of_range = rejected(vec![0, 1, 4, 2]);
        assert!(
            out_of_range.contains("position 2 holds index 4, out of range 0..4"),
            "{out_of_range}"
        );
        // A gap is one of the two: with `len` entries, skipping an index
        // means repeating another or leaving the range.
        let gap = rejected(vec![0, 1, 3]);
        assert!(gap.contains("index 3, out of range 0..3"), "{gap}");
    }
}
