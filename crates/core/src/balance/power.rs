//! Node power, expected SD counts and load imbalance (eqs. 8–10).

/// Per-node load metrics for one balancing iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadMetrics {
    /// SD̄(N_i): current SD counts.
    pub counts: Vec<usize>,
    /// Busy(N_i): the measured busy times the power estimate came from
    /// (whatever unit the caller uses; cost-aware planning needs seconds
    /// so relief is commensurable with [`CommCost`] transfer estimates).
    ///
    /// [`CommCost`]: nlheat_netmodel::CommCost
    pub busy: Vec<f64>,
    /// Power(N_i) = SD̄(N_i)/Busy(N_i) (eq. 8).
    pub power: Vec<f64>,
    /// E(N_i) = total·Power_i/ΣPower, rounded to integers that sum to the
    /// total (largest-remainder method) (eq. 10).
    pub expected: Vec<i64>,
    /// LoadImbalance(N_i) = E(N_i) − SD̄(N_i) (eq. 9). Positive: the node
    /// is under-loaded relative to its power and should gain SDs.
    pub imbalance: Vec<i64>,
}

impl LoadMetrics {
    /// Busy time one SD contributes on `node` over the measured window —
    /// the *busy-time relief* of migrating one SD away, in the unit of
    /// `busy`. Zero for a node with no SDs (there is nothing to relieve).
    pub fn relief_per_sd(&self, node: usize) -> f64 {
        if self.counts[node] == 0 {
            0.0
        } else {
            self.busy[node] / self.counts[node] as f64
        }
    }
}

/// Compute eqs. 8–10 from SD counts and busy times.
///
/// Robustness beyond the paper's pseudocode (documented deviations):
/// * a node with zero busy time (it did nothing measurable) or zero SDs has
///   no measurable power; it is assigned the mean power of the measurable
///   nodes so it receives its fair share instead of a division by zero;
/// * expected counts are rounded by largest remainder so
///   `Σ expected = Σ counts` and `Σ imbalance = 0` exactly.
pub fn compute_metrics(counts: &[usize], busy: &[f64]) -> LoadMetrics {
    assert_eq!(counts.len(), busy.len());
    let n = counts.len();
    assert!(n > 0);
    let total: usize = counts.iter().sum();

    let mut power = vec![0.0f64; n];
    let mut measured = Vec::new();
    for i in 0..n {
        if counts[i] > 0 && busy[i] > 0.0 {
            power[i] = counts[i] as f64 / busy[i];
            measured.push(power[i]);
        }
    }
    let fallback = if measured.is_empty() {
        1.0
    } else {
        measured.iter().sum::<f64>() / measured.len() as f64
    };
    for p in power.iter_mut() {
        if *p <= 0.0 {
            *p = fallback;
        }
    }

    let sum_power: f64 = power.iter().sum();
    let shares: Vec<f64> = power.iter().map(|p| total as f64 * p / sum_power).collect();
    let expected = largest_remainder_round(&shares, total as i64);
    let imbalance: Vec<i64> = expected
        .iter()
        .zip(counts)
        .map(|(&e, &c)| e - c as i64)
        .collect();
    debug_assert_eq!(imbalance.iter().sum::<i64>(), 0);
    LoadMetrics {
        counts: counts.to_vec(),
        busy: busy.to_vec(),
        power,
        expected,
        imbalance,
    }
}

/// Round non-negative real shares to integers summing to `total` —
/// shared with the hierarchical planner's per-scope group shares.
pub(crate) fn largest_remainder_round(shares: &[f64], total: i64) -> Vec<i64> {
    let mut floors: Vec<i64> = shares.iter().map(|&s| s.floor() as i64).collect();
    let assigned: i64 = floors.iter().sum();
    let mut leftovers: Vec<(usize, f64)> = shares
        .iter()
        .enumerate()
        .map(|(i, &s)| (i, s - s.floor()))
        .collect();
    // biggest fractional parts first; ties by lower index for determinism
    leftovers.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    let mut remaining = total - assigned;
    let mut idx = 0;
    while remaining > 0 {
        floors[leftovers[idx % leftovers.len()].0] += 1;
        remaining -= 1;
        idx += 1;
    }
    floors
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_busy_equal_split() {
        let m = compute_metrics(&[10, 10, 10, 10], &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(m.expected, vec![10, 10, 10, 10]);
        assert_eq!(m.imbalance, vec![0; 4]);
    }

    #[test]
    fn power_reflects_busy_time() {
        // Node 1 needed twice the time for the same SDs -> half the power.
        let m = compute_metrics(&[10, 10], &[1.0, 2.0]);
        assert!((m.power[0] / m.power[1] - 2.0).abs() < 1e-12);
        // Faster node expects 2/3 of 20 ≈ 13, slower 7.
        assert_eq!(m.expected.iter().sum::<i64>(), 20);
        assert!(m.expected[0] > m.expected[1]);
        assert_eq!(m.imbalance.iter().sum::<i64>(), 0);
    }

    #[test]
    fn symmetric_nodes_imbalanced_counts() {
        // Fig. 14 setup: symmetric nodes, wildly uneven counts. Busy time
        // is proportional to count, so power is equal and the expectation
        // is an even split.
        let counts = [22usize, 1, 1, 1];
        let busy: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
        let m = compute_metrics(&counts, &busy);
        let exp_sorted = {
            let mut e = m.expected.clone();
            e.sort_unstable();
            e
        };
        assert_eq!(exp_sorted, vec![6, 6, 6, 7]);
        assert_eq!(m.imbalance[0], m.expected[0] - 22);
    }

    #[test]
    fn zero_busy_node_gets_mean_power() {
        let m = compute_metrics(&[5, 5, 0], &[1.0, 1.0, 0.0]);
        assert!((m.power[2] - 5.0).abs() < 1e-12, "mean of the two measured");
        assert_eq!(m.expected.iter().sum::<i64>(), 10);
        assert!(m.expected[2] > 0, "idle node must be assigned work");
    }

    #[test]
    fn all_zero_busy_degrades_to_even_split() {
        let m = compute_metrics(&[8, 0, 0, 0], &[0.0; 4]);
        assert_eq!(m.expected, vec![2, 2, 2, 2]);
    }

    #[test]
    fn largest_remainder_sums_exactly() {
        let out = largest_remainder_round(&[1.5, 1.5, 1.0], 4);
        assert_eq!(out.iter().sum::<i64>(), 4);
        assert_eq!(out, vec![2, 1, 1], "first tie wins the single extra");
        let out5 = largest_remainder_round(&[1.5, 1.5, 2.0], 5);
        assert_eq!(
            out5,
            vec![2, 1, 2],
            "largest fraction (tie: lowest id) promoted"
        );
        assert_eq!(out5.iter().sum::<i64>(), 5, "sums to requested total");
    }

    #[test]
    fn relief_is_busy_per_sd() {
        let m = compute_metrics(&[10, 4, 0], &[5.0, 1.0, 0.0]);
        assert!((m.relief_per_sd(0) - 0.5).abs() < 1e-12);
        assert!((m.relief_per_sd(1) - 0.25).abs() < 1e-12);
        assert_eq!(m.relief_per_sd(2), 0.0, "empty node relieves nothing");
        assert_eq!(m.busy, vec![5.0, 1.0, 0.0], "metrics record the input");
    }

    #[test]
    fn imbalance_always_sums_to_zero() {
        for (counts, busy) in [
            (vec![3usize, 9, 1], vec![0.5, 3.0, 0.2]),
            (vec![100, 1, 1, 1, 1], vec![10.0, 0.1, 0.2, 0.15, 0.1]),
            (vec![7, 7], vec![1.0, 1.0]),
        ] {
            let m = compute_metrics(&counts, &busy);
            assert_eq!(m.imbalance.iter().sum::<i64>(), 0, "{counts:?}");
        }
    }
}
