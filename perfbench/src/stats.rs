//! The benchmark's arithmetic: quantiles, recall, the attribution of a
//! traced wall time to layers, and metric-name checks.

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a non-empty list (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Share of `truth` found in `served`: recall@|truth|.
pub fn recall<T: PartialEq>(served: &[T], truth: &[T]) -> f64 {
    if truth.is_empty() {
        return 1.0;
    }
    let hits = truth.iter().filter(|t| served.contains(t)).count();
    hits as f64 / truth.len() as f64
}

/// Wall time of a traced region and the time of the layer calls timed
/// inside it. The calls are disjoint and sequential, so their sum never
/// exceeds the wall time; the rest is `unattributed`.
#[derive(Clone, Debug, Default)]
pub struct Attribution {
    pub wall_ns: u64,
    pub parts: Vec<(&'static str, u64)>,
}

impl Attribution {
    pub fn add(&mut self, layer: &'static str, ns: u64) {
        match self.parts.iter_mut().find(|(name, _)| *name == layer) {
            Some((_, total)) => *total += ns,
            None => self.parts.push((layer, ns)),
        }
    }

    /// Total time charged to `layer` (0 if it never ran).
    pub fn part_ns(&self, layer: &str) -> u64 {
        self.parts
            .iter()
            .find(|(name, _)| *name == layer)
            .map_or(0, |&(_, ns)| ns)
    }

    pub fn attributed_ns(&self) -> u64 {
        self.parts.iter().map(|(_, ns)| ns).sum()
    }

    /// Percent of the wall time no timed layer call covers. Negative only
    /// if the parts overlap, which would be a bug in the trace.
    pub fn unattributed_pct(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        (self.wall_ns as f64 - self.attributed_ns() as f64) * 100.0 / self.wall_ns as f64
    }

    /// Each layer's share of the wall time, in percent.
    pub fn shares_pct(&self) -> Vec<(&'static str, f64)> {
        let wall = self.wall_ns.max(1) as f64;
        self.parts
            .iter()
            .map(|&(name, ns)| (name, ns as f64 * 100.0 / wall))
            .collect()
    }
}

/// How much longer the traced run took than the untraced one, in percent.
pub fn overhead_pct(traced_ns: u64, untraced_ns: u64) -> f64 {
    if untraced_ns == 0 {
        return 0.0;
    }
    (traced_ns as f64 / untraced_ns as f64 - 1.0) * 100.0
}

/// Whether `name` is a valid metric or workload name: 1 to 64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or a digit.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok_char)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

/// Whether `unit` is a valid unit: 1 to 16 characters from
/// `[A-Za-z0-9_/%.-]`.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.9), 90);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&v, 0.0), 1);
        assert_eq!(quantile(&[7], 0.9), 7);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn recall_at_10() {
        let truth: Vec<u32> = (1..=10).collect();
        assert_eq!(recall(&truth, &truth), 1.0);
        let mut served = truth.clone();
        served[9] = 99;
        served[0] = 98;
        assert!((recall(&served, &truth) - 0.8).abs() < 1e-12);
        let reordered: Vec<u32> = truth.iter().rev().copied().collect();
        assert_eq!(recall(&reordered, &truth), 1.0, "order does not matter");
        assert_eq!(recall(&[11u32, 12], &truth), 0.0);
        assert_eq!(recall::<u32>(&[], &[]), 1.0);
    }

    #[test]
    fn unattributed_is_the_uncovered_share() {
        let mut a = Attribution {
            wall_ns: 1_000,
            ..Default::default()
        };
        a.add("model", 600);
        a.add("tensor", 250);
        a.add("model", 50);
        assert_eq!(a.attributed_ns(), 900);
        assert_eq!(a.part_ns("model"), 650);
        assert_eq!(a.part_ns("absent"), 0);
        assert!((a.unattributed_pct() - 10.0).abs() < 1e-12);
        assert_eq!(a.shares_pct(), vec![("model", 65.0), ("tensor", 25.0)]);
        let empty = Attribution::default();
        assert_eq!(empty.unattributed_pct(), 0.0);
        let overlapping = Attribution {
            wall_ns: 100,
            parts: vec![("x", 150)],
        };
        assert!(overlapping.unattributed_pct() < 0.0);
    }

    #[test]
    fn overhead_is_relative_to_untraced() {
        assert!((overhead_pct(1_050, 1_000) - 5.0).abs() < 1e-9);
        assert!((overhead_pct(950, 1_000) + 5.0).abs() < 1e-9);
        assert_eq!(overhead_pct(10, 0), 0.0);
    }

    #[test]
    fn name_and_unit_rules() {
        for ok in ["setup_s", "data.open_ms", "serve-zipf", "9lives", "a"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".hidden",
            "-x",
            "has space",
            "µs",
            "a/b",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "MB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "µs", "per second", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
