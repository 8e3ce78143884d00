//! Count pairs: the Gibbs sampler's count matrices with their marginals.
//!
//! The sampler's state is a handful of flat count arrays, each a
//! row-major matrix plus its row/column marginal: the word-topic pair
//! (`n_zw`: `Z × W`, `n_z`: `Z`), the community-topic pair (`n_cz`:
//! `C × Z`, `n_c`: `C`) and the user-community pair (`n_uc`: `U × C`,
//! `n_u`: `U`). Every replica owns its pairs outright: the serial sweep
//! mutates the canonical state directly, and each sharded worker
//! (`parallel.rs`) mutates its own replica while logging the same
//! increments into a `CountDelta` that the barrier folds into the
//! canonical state. Nothing is shared between threads mid-sweep, so
//! every read is exact and the draws are reproducible.

/// One count pair — a row-major matrix plus its marginal — as two plain
/// vectors. `CpdState` stores three: word-topic (`n_zw`/`n_z`),
/// community-topic (`n_cz`/`n_c`) and user-community (`n_uc`/`n_u`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PairCounts {
    /// Row-major matrix tallies.
    pub main: Vec<u32>,
    /// Marginal totals.
    pub marginal: Vec<u32>,
}

impl PairCounts {
    /// Zeroed pair of `main_len` matrix slots and `marginal_len`
    /// marginal slots.
    pub fn zeroed(main_len: usize, marginal_len: usize) -> Self {
        Self {
            main: vec![0; main_len],
            marginal: vec![0; marginal_len],
        }
    }

    /// Matrix tally at flat index `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        self.main[i]
    }

    /// Marginal tally at index `i`.
    #[inline]
    pub fn marginal(&self, i: usize) -> u32 {
        self.marginal[i]
    }

    /// Visit the nonzero entries of the contiguous slot range
    /// `start..start + len` — one row of a row-major matrix — as
    /// `(offset_within_row, count)` pairs, in ascending offset order.
    ///
    /// This is the sparse-candidate primitive of the skew-aware
    /// sampler: community/user count rows are mostly zero on skewed
    /// corpora, so candidate weights are built as a constant prior-only
    /// baseline plus corrections at exactly these offsets.
    #[inline]
    pub fn for_each_nonzero_in_row(&self, start: usize, len: usize, mut f: impl FnMut(usize, u32)) {
        for (k, &n) in self.main[start..start + len].iter().enumerate() {
            if n != 0 {
                f(k, n);
            }
        }
    }

    /// Apply a signed increment to matrix slot `i`.
    #[inline]
    pub fn add(&mut self, i: usize, v: i32) {
        add_signed(&mut self.main[i], v);
    }

    /// Apply a signed increment to marginal slot `i`.
    #[inline]
    pub fn add_marginal(&mut self, i: usize, v: i32) {
        add_signed(&mut self.marginal[i], v);
    }

    /// Zero both vectors.
    pub fn reset(&mut self) {
        self.main.fill(0);
        self.marginal.fill(0);
    }

    /// Bytes resident for this pair's tallies.
    pub fn mem_bytes(&self) -> usize {
        (self.main.len() + self.marginal.len()) * std::mem::size_of::<u32>()
    }
}

/// `*slot += v` for a count that must never go negative.
#[inline]
pub(crate) fn add_signed(slot: &mut u32, v: i32) {
    debug_assert!(*slot as i64 + v as i64 >= 0, "count would go negative");
    *slot = slot.wrapping_add_signed(v);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_plane_adds_and_snapshots() {
        let mut p = PairCounts::zeroed(4, 2);
        p.add(1, 3);
        p.add(1, -1);
        p.add_marginal(0, 2);
        assert_eq!(p.get(1), 2);
        assert_eq!(p.marginal(0), 2);
        assert_eq!(p.main, vec![0, 2, 0, 0]);
        p.reset();
        assert_eq!(p, PairCounts::zeroed(4, 2));
    }

    #[test]
    fn mem_bytes_reports_both_backends() {
        // Both backing vectors count: 100 matrix slots plus 10 marginals.
        let p = PairCounts::zeroed(100, 10);
        assert_eq!(p.mem_bytes(), 110 * 4);
        assert_eq!(PairCounts::zeroed(100, 0).mem_bytes(), 100 * 4);
        assert_eq!(PairCounts::zeroed(0, 10).mem_bytes(), 10 * 4);
        assert_eq!(PairCounts::default().mem_bytes(), 0);
    }

    #[test]
    fn sparse_row_iteration_matches_dense_scan() {
        // A skewed plane: 4 rows of 6 slots, most entries zero.
        let mut p = PairCounts::zeroed(24, 4);
        for (i, v) in [(1usize, 3i32), (5, 1), (7, 9), (12, 2), (17, 4), (23, 1)] {
            p.add(i, v);
        }
        for row in 0..4 {
            let start = row * 6;
            let mut sparse: Vec<(usize, u32)> = Vec::new();
            p.for_each_nonzero_in_row(start, 6, |k, n| sparse.push((k, n)));
            let full: Vec<(usize, u32)> = (0..6)
                .map(|k| (k, p.get(start + k)))
                .filter(|&(_, n)| n != 0)
                .collect();
            assert_eq!(sparse, full, "row {row}");
        }
    }

    #[test]
    fn sparse_row_iteration_handles_empty_and_full_rows() {
        let mut p = PairCounts::zeroed(6, 2);
        let mut seen = 0;
        p.for_each_nonzero_in_row(0, 3, |_, _| seen += 1);
        assert_eq!(seen, 0, "all-zero row must not invoke the callback");
        for i in 3..6 {
            p.add(i, i as i32 + 1);
        }
        let mut full = Vec::new();
        p.for_each_nonzero_in_row(3, 3, |k, n| full.push((k, n)));
        assert_eq!(full, vec![(0, 4), (1, 5), (2, 6)]);
    }
}
