//! Normalized mutual information between two hard labelings.
//!
//! The paper's datasets have no ground truth; our synthetic generators
//! do, so NMI is an *additional* recovery check: it scores fitted
//! communities against the planted ones (`cpd-datagen`'s `GroundTruth`).

/// NMI of labelings `a` and `b` (equal length). Returns 0 when either
/// labeling is constant; 1 for identical partitions (up to relabeling).
pub fn nmi(a: &[usize], b: &[usize]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    if n == 0 {
        return 0.0;
    }
    let ka = a.iter().max().map_or(0, |&m| m + 1);
    let kb = b.iter().max().map_or(0, |&m| m + 1);
    let mut joint = vec![0usize; ka * kb];
    let mut ca = vec![0usize; ka];
    let mut cb = vec![0usize; kb];
    for i in 0..n {
        joint[a[i] * kb + b[i]] += 1;
        ca[a[i]] += 1;
        cb[b[i]] += 1;
    }
    let nf = n as f64;
    let mut mi = 0.0f64;
    for i in 0..ka {
        for j in 0..kb {
            let nij = joint[i * kb + j];
            if nij == 0 {
                continue;
            }
            let pij = nij as f64 / nf;
            mi += pij * (pij / (ca[i] as f64 / nf * cb[j] as f64 / nf)).ln();
        }
    }
    let ha: f64 = entropy(&ca, nf);
    let hb: f64 = entropy(&cb, nf);
    if ha <= 0.0 || hb <= 0.0 {
        return 0.0;
    }
    (mi / (ha * hb).sqrt()).clamp(0.0, 1.0)
}

fn entropy(counts: &[usize], n: f64) -> f64 {
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.ln()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_partitions_score_one() {
        let a = [0, 0, 1, 1, 2, 2];
        assert!((nmi(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn relabeled_partitions_score_one() {
        let a = [0, 0, 1, 1, 2, 2];
        let b = [2, 2, 0, 0, 1, 1];
        assert!((nmi(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_labeling_scores_zero() {
        let a = [0, 0, 0, 0];
        let b = [0, 1, 0, 1];
        assert_eq!(nmi(&a, &b), 0.0);
    }

    #[test]
    fn independent_partitions_score_low() {
        // A perfectly crossed design: knowing a says nothing about b.
        let a = [0, 0, 1, 1];
        let b = [0, 1, 0, 1];
        assert!(nmi(&a, &b) < 1e-12);
    }

    #[test]
    fn partial_agreement_is_between() {
        let a = [0, 0, 0, 1, 1, 1];
        let b = [0, 0, 1, 1, 1, 1];
        let v = nmi(&a, &b);
        assert!(v > 0.2 && v < 1.0, "{v}");
    }
}
