//! Tuning parameters of the GP algorithm, with the paper's defaults.

use serde::{Deserialize, Serialize};

/// Which matching heuristics the coarsening phase may use (§IV-A lists
/// three; all are tried per level and the best contraction is kept).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MatchingKind {
    /// Random maximal matching.
    Random,
    /// Heavy-edge matching (descending edge-weight scan).
    HeavyEdge,
    /// K-means matching (weight-clustered pairing).
    KMeans,
    /// Heavy-edge matching in the METIS node-scan style (random node
    /// order, each node grabs its heaviest free neighbour). Not one of
    /// the paper's three; entered into the tournament only when listed
    /// in [`GpParams::matchings`].
    HeavyEdgeNodeScan,
}

impl MatchingKind {
    /// All three heuristics, the paper's configuration.
    pub const ALL: [MatchingKind; 3] = [
        MatchingKind::Random,
        MatchingKind::HeavyEdge,
        MatchingKind::KMeans,
    ];
}

impl std::fmt::Display for MatchingKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatchingKind::Random => write!(f, "random"),
            MatchingKind::HeavyEdge => write!(f, "heavy-edge"),
            MatchingKind::KMeans => write!(f, "k-means"),
            MatchingKind::HeavyEdgeNodeScan => write!(f, "hem-node-scan"),
        }
    }
}

/// Parameters of [`gp_partition`](crate::gp_partition).
///
/// Defaults follow the paper: coarsen to 100 nodes, 10 initial-
/// partitioning restarts, all three matching heuristics, and a bounded
/// number of constraint-repair cycles before reporting infeasibility.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GpParams {
    /// Coarsening stops at this many nodes ("default is 100", §IV).
    pub coarsen_to: usize,
    /// Random restarts of the greedy initial partitioning ("10 is
    /// default", §IV-B).
    pub initial_restarts: usize,
    /// Matching heuristics tried at every coarsening level.
    pub matchings: Vec<MatchingKind>,
    /// Maximum cyclic un-coarsen/re-coarsen V-cycles before the
    /// partitioner reports that the constraints look unsatisfiable
    /// ("a predetermined number of iterations", §IV-C).
    pub max_cycles: usize,
    /// Intermediate re-clusterings explored per cycle, compared with the
    /// goodness function ("we generate different intermediate
    /// clusterings, that are compared a posteriori", §IV).
    pub intermediate_attempts: usize,
    /// Constrained-refinement sweeps per hierarchy level.
    pub refine_passes: usize,
    /// Root seed for every stochastic component.
    pub seed: u64,
    /// Run the initial-partitioning restarts on rayon (the answer is the
    /// same either way: the best restart is picked by a total order),
    /// and let levels of at least
    /// [`parallel_refine_min_nodes`](GpParams::parallel_refine_min_nodes)
    /// nodes refine with the parallel sweep. The per-level matching
    /// tournament does not read this flag: it always runs its entrants
    /// on rayon, and CI's `thread-matrix` job checks that its answer
    /// does not depend on the thread count.
    pub parallel: bool,
    /// Hierarchy levels with at least this many nodes refine with the
    /// parallel frozen-evaluation sweep
    /// ([`constrained_refine_parallel_csr`](crate::refine::constrained_refine_parallel_csr))
    /// instead of the serial engine — deterministic at any thread count
    /// and sharing the serial engine's fixed points, but free to take a
    /// different (equally valid) move sequence, so the default keeps
    /// every level below a million-node scale on the serial path and
    /// historical outputs bit-identical. Only effective when
    /// [`parallel`](GpParams::parallel) is set; `usize::MAX` disables.
    #[serde(default = "default_parallel_refine_min_nodes")]
    pub parallel_refine_min_nodes: usize,
}

fn default_parallel_refine_min_nodes() -> usize {
    200_000
}

impl Default for GpParams {
    fn default() -> Self {
        GpParams {
            coarsen_to: 100,
            initial_restarts: 10,
            matchings: MatchingKind::ALL.to_vec(),
            max_cycles: 10,
            intermediate_attempts: 3,
            refine_passes: 8,
            seed: 0xCA77A,
            parallel: true,
            parallel_refine_min_nodes: default_parallel_refine_min_nodes(),
        }
    }
}

impl GpParams {
    /// Same parameters, different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Restrict the matching heuristics (ablation studies).
    pub fn with_matchings(mut self, matchings: Vec<MatchingKind>) -> Self {
        assert!(!matchings.is_empty(), "at least one matching required");
        self.matchings = matchings;
        self
    }

    /// The matchings the coarsening tournament runs: the configured
    /// list.
    pub fn effective_matchings(&self) -> Vec<MatchingKind> {
        self.matchings.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let p = GpParams::default();
        assert_eq!(p.coarsen_to, 100);
        assert_eq!(p.initial_restarts, 10);
        assert_eq!(p.matchings.len(), 3);
        assert!(p.max_cycles >= 1);
    }

    #[test]
    fn builders_compose() {
        let p = GpParams::default()
            .with_seed(7)
            .with_matchings(vec![MatchingKind::HeavyEdge]);
        assert_eq!(p.seed, 7);
        assert_eq!(p.matchings, vec![MatchingKind::HeavyEdge]);
    }

    #[test]
    #[should_panic]
    fn empty_matchings_rejected() {
        let _ = GpParams::default().with_matchings(vec![]);
    }

    #[test]
    fn matching_kind_display() {
        assert_eq!(MatchingKind::Random.to_string(), "random");
        assert_eq!(MatchingKind::HeavyEdge.to_string(), "heavy-edge");
        assert_eq!(MatchingKind::KMeans.to_string(), "k-means");
        assert_eq!(MatchingKind::HeavyEdgeNodeScan.to_string(), "hem-node-scan");
    }

    #[test]
    fn parallel_refine_threshold_defaults_when_absent() {
        // a params blob serialized before the field existed still parses
        // and lands on the documented default; the removed
        // `node_scan_hem` flag it carries is ignored
        let old = r#"{"coarsen_to":100,"initial_restarts":10,"matchings":["Random"],
                      "max_cycles":10,"intermediate_attempts":3,"refine_passes":8,
                      "seed":1,"parallel":true,"node_scan_hem":false}"#;
        let p: GpParams = serde_json::from_str(old).unwrap();
        assert_eq!(p.parallel_refine_min_nodes, 200_000);
        assert_eq!(
            p.parallel_refine_min_nodes,
            GpParams::default().parallel_refine_min_nodes
        );
    }

    #[test]
    fn the_tournament_runs_the_configured_matchings() {
        assert_eq!(
            GpParams::default().effective_matchings(),
            MatchingKind::ALL.to_vec()
        );
        let four = vec![
            MatchingKind::Random,
            MatchingKind::HeavyEdge,
            MatchingKind::KMeans,
            MatchingKind::HeavyEdgeNodeScan,
        ];
        let p = GpParams::default().with_matchings(four.clone());
        assert_eq!(p.effective_matchings(), four);
    }
}
