//! Helpers shared by the server integration suites.

/// The first sample of the metric family `name` in a Prometheus text
/// scrape. The name matches exactly — it must be followed by a space or
/// a label set — so `cpd_serve_shed_total` never reads a longer family
/// that merely starts with it.
pub fn scrape_value(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find(|l| {
            l.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with([' ', '{']))
        })
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
}
