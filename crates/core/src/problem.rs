//! Problem definitions and shared parameter structs.
//!
//! * **Problem 1 (kl-stable clusters).** Given the cluster graph `G`, find
//!   the `k` paths of length exactly `l` with the highest aggregate weight.
//! * **Problem 2 (normalized stable clusters).** Find the `k` paths of length
//!   at least `l_min` with the highest weight normalized by length
//!   (*stability*).

/// Which stable-cluster problem to solve — the algorithm-independent half of
/// a solver request (the algorithm half is
/// [`AlgorithmKind`](crate::solver::AlgorithmKind)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StableClusterSpec {
    /// Problem 1 with full paths (`l = m − 1`).
    FullPaths,
    /// Problem 1 with a fixed path length.
    ExactLength(u32),
    /// Problem 2 (normalized) with a minimum length.
    Normalized {
        /// Minimum path length `l_min`.
        l_min: u32,
    },
}

impl StableClusterSpec {
    /// Parse the short textual form used by the service protocol and CLI
    /// surfaces: `full`, `exact:<l>` or `normalized:<l_min>` (mirroring
    /// `AlgorithmKind::parse` and `StorageSpec::parse`).
    pub fn parse(s: &str) -> Option<StableClusterSpec> {
        if s == "full" {
            return Some(StableClusterSpec::FullPaths);
        }
        if let Some(l) = s.strip_prefix("exact:") {
            return l.parse().ok().map(StableClusterSpec::ExactLength);
        }
        if let Some(l_min) = s.strip_prefix("normalized:") {
            return l_min
                .parse()
                .ok()
                .map(|l_min| StableClusterSpec::Normalized { l_min });
        }
        None
    }
}

impl std::fmt::Display for StableClusterSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StableClusterSpec::FullPaths => f.write_str("full"),
            StableClusterSpec::ExactLength(l) => write!(f, "exact:{l}"),
            StableClusterSpec::Normalized { l_min } => write!(f, "normalized:{l_min}"),
        }
    }
}

/// Parameters of Problem 1 (kl-stable clusters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KlStableParams {
    /// Number of result paths `k`.
    pub k: usize,
    /// Required path length `l` (temporal span).
    pub l: u32,
}

impl KlStableParams {
    /// Construct parameters.
    pub fn new(k: usize, l: u32) -> Self {
        KlStableParams { k, l }
    }

    /// The full-path variant for a graph of `m` intervals: `l = m − 1`.
    pub fn full_paths(k: usize, num_intervals: usize) -> Self {
        KlStableParams {
            k,
            l: num_intervals.saturating_sub(1) as u32,
        }
    }
}

/// "The suffix must fit" (Section 4.3): the shortest subpath ending `depth`
/// intervals in that can still grow to length `l` when the last interval
/// lies `last` intervals in — an edge spans at least one interval.
pub(crate) fn shortest_feasible(l: u32, depth: u32, last: u32) -> u32 {
    l.saturating_sub(last.saturating_sub(depth))
}

/// "What can this subpath still gain" (Sections 4.3 and 4.4): can a subpath
/// of weight `weight` whose remaining edges weigh at most `completion` still
/// grow into a length-`l` path that a top-k heap with admission threshold
/// `min_k` would take? The caller says how it can end. BFS and the TA
/// adaptation pass the best suffix that exists (the `lookahead` module's
/// completion table, which BFS reads per length and the TA adaptation as its
/// `startwts`, the prefix before an edge read off `endwts` the same way); DFS
/// alone passes the remaining length `(l − held) as f64`, edge weights lying
/// in `(0, 1]` (`ClusterGraphBuilder::build`, `ClusterGraph::append`) — the
/// `CanPrune` bound of the paper's DFS. `min_k` may be any weight the final
/// k-th answer is known to reach, as some solver sums it.
///
/// Over the reals a path that reaches `min_k` passes with no slack: its
/// prefix weighs `weight`, its suffix at most `completion`. The three are
/// floating-point sums of at most `l` weights of at most 1 each, added in
/// different orders — the sweep sums a path left to right, a completion table
/// its suffix right to left (TA joins up to three such pieces around an edge,
/// still one addition per edge), and a `min_k` read off such a table is the
/// right-to-left sum of another path. A sum of `n ≤ l` such terms is off its
/// real value by at most `(n − 1) u · l` (`u = ε/2` per rounded addition), so
/// the prefix and the suffix together, the whole path as the sweep weighs it,
/// and each of the two ways `min_k`'s path may have been summed are off by
/// under `l² u` apiece: `4 l² u = 2 l² ε` between the two sides of the
/// comparison. The two additions below round down by at most `2 l u = l ε`
/// more. That is under `2 l² ε + l ε`; the slack is `4 l² ε`
/// ([`summation_slack`]), so a path that reaches as summed is never cut,
/// whoever supplied the bound.
pub(crate) fn can_still_reach(l: u32, weight: f64, completion: f64, min_k: f64) -> bool {
    weight + (completion + summation_slack(l)) >= min_k
}

/// `4 l² ε`: how far apart two ways of summing and comparing the weights of
/// length-`l` paths may come out, with room to spare (derived at
/// [`can_still_reach`]).
pub(crate) fn summation_slack(l: u32) -> f64 {
    4.0 * f64::from(l) * f64::from(l) * f64::EPSILON
}

/// Parameters of Problem 2 (normalized stable clusters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NormalizedParams {
    /// Number of result paths `k`.
    pub k: usize,
    /// Minimum path length `l_min`.
    pub l_min: u32,
}

impl NormalizedParams {
    /// Construct parameters.
    pub fn new(k: usize, l_min: u32) -> Self {
        NormalizedParams { k, l_min }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_paths_uses_m_minus_one() {
        assert_eq!(KlStableParams::full_paths(5, 7), KlStableParams::new(5, 6));
        assert_eq!(KlStableParams::full_paths(3, 1), KlStableParams::new(3, 0));
        assert_eq!(KlStableParams::full_paths(3, 0), KlStableParams::new(3, 0));
    }

    #[test]
    fn spec_parse_round_trips_display() {
        for spec in [
            StableClusterSpec::FullPaths,
            StableClusterSpec::ExactLength(3),
            StableClusterSpec::Normalized { l_min: 2 },
        ] {
            assert_eq!(StableClusterSpec::parse(&spec.to_string()), Some(spec));
        }
        assert_eq!(StableClusterSpec::parse("exact:"), None);
        assert_eq!(StableClusterSpec::parse("exact:-1"), None);
        assert_eq!(StableClusterSpec::parse("shortest"), None);
    }

    #[test]
    fn constructors() {
        let p = KlStableParams::new(5, 3);
        assert_eq!(p.k, 5);
        assert_eq!(p.l, 3);
        let q = NormalizedParams::new(2, 4);
        assert_eq!(q.k, 2);
        assert_eq!(q.l_min, 4);
    }
}
