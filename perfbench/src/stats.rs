//! Order statistics and per-phase request accounting.

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// How each request of one phase ended, counted from the client-side
/// responses (so the counts add up to the phase's `error_rate`).
#[derive(Debug, Clone, Default)]
pub struct Phase {
    pub name: String,
    pub attempted: u64,
    pub succeeded: u64,
    /// Answered `QueryResponse::Overloaded` (after the client's retries).
    pub overloaded: u64,
    /// Answered `QueryResponse::Error`.
    pub error: u64,
    /// The client call itself failed (transport, timeout, protocol).
    pub client_error: u64,
}

impl Phase {
    pub fn new(name: impl Into<String>) -> Self {
        Phase {
            name: name.into(),
            ..Phase::default()
        }
    }

    pub fn failed(&self) -> u64 {
        self.overloaded + self.error + self.client_error
    }

    pub fn add(&mut self, other: &Phase) {
        self.attempted += other.attempted;
        self.succeeded += other.succeeded;
        self.overloaded += other.overloaded;
        self.error += other.error;
        self.client_error += other.client_error;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
