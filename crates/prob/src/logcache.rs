//! Memoised `ln(n + offset)` tables over small integer counts.
//!
//! The collapsed-Gibbs candidate weights are sums of logarithms of
//! *counts plus a fixed hyperparameter offset* — `ln(n_cz + α)`,
//! `ln(n_uc + ρ)`, `ln(n_zw + β)`, `ln(n_z + Wβ + j)`. The counts are
//! small non-negative integers, so the transcendental calls that
//! dominate the sampler inner loop can be precomputed once per fit
//! into flat tables indexed by the count.
//!
//! Bit-exactness contract: every table entry is computed by the *same
//! floating-point expression* the caller would otherwise evaluate
//! inline (`(n as f64 + offset).ln()`, and for the shifted variant
//! `((n as f64 + offset) + j as f64).ln()`), and lookups above the
//! table bound fall back to exactly that expression. A cached lookup is
//! therefore bitwise identical to the direct computation for every
//! count, which is what keeps the cached sampler draw-for-draw
//! identical to the direct dense math (`cpd-core`'s `gibbs` module
//! keeps that math as a test-only reference sweep).

/// Flat `ln(n + offset)` table for one fixed offset, with a direct-`ln`
/// fallback above the bound.
#[derive(Debug, Clone)]
pub struct LogCountCache {
    offset: f64,
    table: Vec<f64>,
}

impl LogCountCache {
    /// Precompute `ln(n + offset)` for `n in 0..bound`. `offset` must be
    /// positive so every entry is finite.
    pub fn new(offset: f64, bound: usize) -> Self {
        assert!(
            offset > 0.0 && offset.is_finite(),
            "LogCountCache offset must be positive and finite, got {offset}"
        );
        let table = (0..bound).map(|n| (n as f64 + offset).ln()).collect();
        Self { offset, table }
    }

    /// `ln(n + offset)`, from the table when `n` is in bounds.
    #[inline]
    pub fn at(&self, n: u32) -> f64 {
        match self.table.get(n as usize) {
            Some(&v) => v,
            None => (n as f64 + self.offset).ln(),
        }
    }

    /// The offset baked into the table.
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// Number of memoised counts (lookups at `n >= bound` fall back).
    pub fn bound(&self) -> usize {
        self.table.len()
    }
}

/// Two-dimensional `ln((n + offset) + j)` table: a [`LogCountCache`] per
/// small integer shift `j`, stored row-major by shift.
///
/// This exists for the per-document denominator `ln(n_z + Wβ + j)`,
/// whose original evaluation order is `(marginal + W·β) + j`. Indexing a
/// one-dimensional table by the combined integer `n + j` would compute
/// `((n + j) as f64 + offset).ln()` instead, which can differ in the
/// last ulp from `((n as f64 + offset) + j as f64).ln()` — so the shift
/// gets its own axis and the summation order is preserved exactly.
#[derive(Debug, Clone)]
pub struct LogShiftCache {
    offset: f64,
    bound: usize,
    shifts: usize,
    table: Vec<f64>,
}

impl LogShiftCache {
    /// Precompute `((n + offset) + j).ln()` for `n in 0..bound`,
    /// `j in 0..shifts`.
    pub fn new(offset: f64, bound: usize, shifts: usize) -> Self {
        assert!(
            offset > 0.0 && offset.is_finite(),
            "LogShiftCache offset must be positive and finite, got {offset}"
        );
        let mut table = Vec::with_capacity(bound * shifts);
        for j in 0..shifts {
            for n in 0..bound {
                table.push(((n as f64 + offset) + j as f64).ln());
            }
        }
        Self {
            offset,
            bound,
            shifts,
            table,
        }
    }

    /// `ln((n + offset) + j)`, from the table when both axes are in
    /// bounds.
    #[inline]
    pub fn at(&self, n: u32, j: usize) -> f64 {
        if (n as usize) < self.bound && j < self.shifts {
            self.table[j * self.bound + n as usize]
        } else {
            ((n as f64 + self.offset) + j as f64).ln()
        }
    }

    /// The offset baked into the table.
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// Memoised count bound per shift.
    pub fn bound(&self) -> usize {
        self.bound
    }

    /// Number of memoised shifts.
    pub fn shifts(&self) -> usize {
        self.shifts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cache_hits_are_bitwise_equal_to_direct_ln() {
        let cache = LogCountCache::new(0.1, 100);
        for n in 0u32..200 {
            let direct = (n as f64 + 0.1).ln();
            assert_eq!(cache.at(n).to_bits(), direct.to_bits(), "n={n}");
        }
    }

    #[test]
    fn shift_cache_matches_original_evaluation_order() {
        let offset = 60_000.0 * 0.1;
        let cache = LogShiftCache::new(offset, 64, 8);
        for n in 0u32..128 {
            for j in 0..16 {
                let direct = ((n as f64 + offset) + j as f64).ln();
                assert_eq!(cache.at(n, j).to_bits(), direct.to_bits(), "n={n} j={j}");
            }
        }
    }

    #[test]
    fn zero_bound_cache_always_falls_back() {
        let cache = LogCountCache::new(2.5, 0);
        assert_eq!(cache.at(3).to_bits(), (3.0f64 + 2.5).ln().to_bits());
        let shifted = LogShiftCache::new(2.5, 0, 0);
        assert_eq!(
            shifted.at(3, 2).to_bits(),
            ((3.0f64 + 2.5) + 2.0).ln().to_bits()
        );
    }

    proptest! {
        // The full count range *including the fallback boundary*: counts
        // are drawn far past the bound.
        #[test]
        fn cache_agrees_with_ln_across_fallback_boundary(
            oi in 0usize..5,
            bound in 0usize..300,
            n in 0u32..1_000,
        ) {
            // Offsets across the magnitudes the model uses (β=0.1 up to
            // W·β in the thousands).
            let offset = [0.05f64, 0.1, 2.0, 12.5, 6_000.0][oi];
            let cache = LogCountCache::new(offset, bound);
            let direct = (n as f64 + offset).ln();
            prop_assert_eq!(cache.at(n).to_bits(), direct.to_bits());
        }

        #[test]
        fn shift_cache_agrees_with_ln_across_both_boundaries(
            oi in 0usize..3,
            bound in 0usize..128,
            shifts in 0usize..12,
            n in 0u32..400,
            j in 0usize..24,
        ) {
            let offset = [0.1f64, 120.0, 6_000.0][oi];
            let cache = LogShiftCache::new(offset, bound, shifts);
            let direct = ((n as f64 + offset) + j as f64).ln();
            prop_assert_eq!(cache.at(n, j).to_bits(), direct.to_bits());
        }
    }
}
