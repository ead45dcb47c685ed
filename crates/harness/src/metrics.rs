//! The paper's metrics.
//!
//! The central one is the **experimental aggregation benefit** (§4.1),
//! adapted from Kaspar's aggregation benefit: instead of comparing the
//! multipath goodput with the sum of link capacities, it is compared with
//! the goodputs *actually achieved by the single-path protocol* on each
//! path:
//!
//! ```text
//!            ⎧ (G_m − G_s^max) / (Σ G_s^i − G_s^max)   if G_m ≥ G_s^max
//! EBen(C) =  ⎨
//!            ⎩ (G_m − G_s^max) / G_s^max               otherwise
//! ```
//!
//! * `0`  → multipath matches single-path on the best path;
//! * `1`  → multipath aggregates the full sum of single-path goodputs;
//! * `−1` → the multipath protocol failed to transfer data;
//! * `>1` is possible when multipath beats the sum (it is experimental).

/// Computes the experimental aggregation benefit.
///
/// `multipath_goodput` is `G_m`; `single_goodputs` holds `G_s^i` for each
/// of the `n` paths. All goodputs in the same unit (e.g. bytes/sec).
pub fn aggregation_benefit(multipath_goodput: f64, single_goodputs: &[f64]) -> f64 {
    assert!(!single_goodputs.is_empty());
    let g_max = single_goodputs.iter().fold(0.0f64, |a, &b| a.max(b));
    let g_sum: f64 = single_goodputs.iter().sum();
    if g_max <= 0.0 {
        // No single-path baseline managed to move data; define the
        // benefit by the multipath side alone.
        return if multipath_goodput > 0.0 { 1.0 } else { -1.0 };
    }
    if multipath_goodput >= g_max {
        let denom = g_sum - g_max;
        if denom <= 0.0 {
            // Degenerate: one path has all the capacity; matching the
            // best path is the ceiling.
            0.0
        } else {
            (multipath_goodput - g_max) / denom
        }
    } else {
        (multipath_goodput - g_max) / g_max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_when_matching_best_path() {
        assert_eq!(aggregation_benefit(10.0, &[10.0, 5.0]), 0.0);
    }

    #[test]
    fn one_when_fully_aggregating() {
        assert_eq!(aggregation_benefit(15.0, &[10.0, 5.0]), 1.0);
    }

    #[test]
    fn negative_when_below_best_path() {
        assert_eq!(aggregation_benefit(5.0, &[10.0, 5.0]), -0.5);
    }

    #[test]
    fn minus_one_on_failure() {
        assert_eq!(aggregation_benefit(0.0, &[10.0, 5.0]), -1.0);
    }

    #[test]
    fn can_exceed_one() {
        assert_eq!(aggregation_benefit(20.0, &[10.0, 5.0]), 2.0);
    }

    #[test]
    fn degenerate_single_capacity() {
        // All capacity on one path: matching it scores 0.
        assert_eq!(aggregation_benefit(10.0, &[10.0, 0.0]), 0.0);
        assert_eq!(aggregation_benefit(12.0, &[10.0, 0.0]), 0.0);
    }

    #[test]
    fn failed_baselines() {
        assert_eq!(aggregation_benefit(5.0, &[0.0, 0.0]), 1.0);
        assert_eq!(aggregation_benefit(0.0, &[0.0, 0.0]), -1.0);
    }
}
