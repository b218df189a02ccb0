//! Partition assignments, quality metrics and the public entry point.

use soctam_exec::Pool;

use crate::{bisect, Hypergraph, HypergraphError};

/// Configuration for [`Hypergraph::partition`].
///
/// # Example
///
/// ```
/// use soctam_hypergraph::PartitionConfig;
///
/// let config = PartitionConfig::new(4).with_imbalance(0.05).with_seed(99);
/// assert_eq!(config.parts, 4);
/// ```
#[derive(Clone, Debug, PartialEq)]
#[allow(clippy::derive_partial_eq_without_eq)]
pub struct PartitionConfig {
    /// Number of parts `k`.
    pub parts: u32,
    /// Allowed relative imbalance `ε`: every part's weight may reach
    /// `(1 + ε) · total / k` (plus one maximal vertex, since vertex weights
    /// are indivisible).
    pub imbalance: f64,
    /// RNG seed for matching order and initial partitions.
    pub seed: u64,
    /// Random initial partitions tried on the coarsest level.
    pub initial_tries: u32,
    /// Maximum FM passes per level.
    pub max_fm_passes: u32,
}

impl PartitionConfig {
    /// Creates a configuration with hMetis-like defaults
    /// (ε = 0.10, 8 initial tries, 8 FM passes).
    pub fn new(parts: u32) -> Self {
        PartitionConfig {
            parts,
            imbalance: 0.10,
            seed: 0,
            initial_tries: 8,
            max_fm_passes: 8,
        }
    }

    /// Sets the imbalance tolerance.
    pub fn with_imbalance(mut self, imbalance: f64) -> Self {
        self.imbalance = imbalance;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A k-way partition of a hypergraph's vertices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    parts: u32,
    assignment: Vec<u32>,
}

impl Partition {
    /// Creates a partition from an explicit assignment.
    ///
    /// # Errors
    ///
    /// [`HypergraphError::ZeroParts`] when `parts == 0`; every assignment
    /// entry must be `< parts` or [`HypergraphError::PinOutOfRange`] is
    /// returned (reusing the pin error to avoid a new variant).
    pub fn from_assignment(parts: u32, assignment: Vec<u32>) -> Result<Self, HypergraphError> {
        if parts == 0 {
            return Err(HypergraphError::ZeroParts);
        }
        if let Some(&bad) = assignment.iter().find(|&&p| p >= parts) {
            return Err(HypergraphError::PinOutOfRange {
                vertex: bad,
                vertices: parts as usize,
            });
        }
        Ok(Partition { parts, assignment })
    }

    /// Number of parts `k`.
    pub fn parts(&self) -> u32 {
        self.parts
    }

    /// The part of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn part(&self, v: u32) -> u32 {
        self.assignment[v as usize]
    }

    /// The full assignment vector.
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// The vertices of part `p`.
    pub fn members(&self, p: u32) -> Vec<u32> {
        self.assignment
            .iter()
            .enumerate()
            .filter_map(|(v, &q)| (q == p).then_some(v as u32))
            .collect()
    }

    /// Total vertex weight per part.
    pub fn part_weights(&self, hg: &Hypergraph) -> Vec<u64> {
        let mut weights = vec![0u64; self.parts as usize];
        for (v, &p) in self.assignment.iter().enumerate() {
            weights[p as usize] += hg.vertex_weight(v as u32);
        }
        weights
    }

    /// `true` for hyperedges whose pins span more than one part.
    pub fn is_cut(&self, hg: &Hypergraph, edge: u32) -> bool {
        let pins = hg.pins(edge);
        match pins.split_first() {
            None => false,
            Some((&first, rest)) => {
                let p = self.assignment[first as usize];
                rest.iter().any(|&v| self.assignment[v as usize] != p)
            }
        }
    }

    /// Total weight of cut hyperedges — the objective the partitioner
    /// minimizes.
    pub fn cut_weight(&self, hg: &Hypergraph) -> u64 {
        (0..hg.num_edges() as u32)
            .filter(|&e| self.is_cut(hg, e))
            .map(|e| hg.edge_weight(e))
            .sum()
    }
}

impl Hypergraph {
    /// Partitions the hypergraph into `config.parts` parts, minimizing the
    /// weighted cut under the balance constraint.
    ///
    /// # Errors
    ///
    /// * [`HypergraphError::ZeroParts`] when `config.parts == 0`;
    /// * [`HypergraphError::PartsExceedVertices`] when more parts than
    ///   vertices are requested;
    /// * [`HypergraphError::InvalidImbalance`] for a negative or non-finite
    ///   tolerance.
    ///
    /// # Example
    ///
    /// ```
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// use soctam_hypergraph::{HypergraphBuilder, PartitionConfig};
    ///
    /// let mut b = HypergraphBuilder::new();
    /// for _ in 0..4 {
    ///     b.add_vertex(1);
    /// }
    /// b.add_edge(1, &[0, 1])?;
    /// b.add_edge(1, &[2, 3])?;
    /// let hg = b.build();
    /// let p = hg.partition(&PartitionConfig::new(2))?;
    /// assert_eq!(p.cut_weight(&hg), 0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn partition(&self, config: &PartitionConfig) -> Result<Partition, HypergraphError> {
        self.partition_with(config, &Pool::serial())
    }

    /// [`Hypergraph::partition`] with each bisection's initial tries
    /// refined on `pool`. The tries are drawn in order before any is
    /// refined, and the first strict minimum in try order wins, so the
    /// partition is the same for every pool size.
    ///
    /// # Errors
    ///
    /// Same contract as [`Hypergraph::partition`].
    pub fn partition_with(
        &self,
        config: &PartitionConfig,
        pool: &Pool,
    ) -> Result<Partition, HypergraphError> {
        if config.parts == 0 {
            return Err(HypergraphError::ZeroParts);
        }
        if config.parts as usize > self.num_vertices() {
            return Err(HypergraphError::PartsExceedVertices {
                parts: config.parts,
                vertices: self.num_vertices(),
            });
        }
        if !config.imbalance.is_finite() || config.imbalance < 0.0 {
            return Err(HypergraphError::InvalidImbalance {
                imbalance: config.imbalance,
            });
        }
        let assignment = bisect::recursive_kway(self, config, pool);
        Partition::from_assignment(config.parts, assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HypergraphBuilder;

    fn two_cluster_graph() -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        for _ in 0..6 {
            b.add_vertex(1);
        }
        b.add_edge(10, &[0, 1, 2]).expect("valid");
        b.add_edge(10, &[3, 4, 5]).expect("valid");
        b.add_edge(1, &[2, 3]).expect("valid");
        b.build()
    }

    #[test]
    fn cut_weight_counts_spanning_edges() {
        let hg = two_cluster_graph();
        let p = Partition::from_assignment(2, vec![0, 0, 0, 1, 1, 1]).expect("valid");
        assert_eq!(p.cut_weight(&hg), 1);
        let q = Partition::from_assignment(2, vec![0, 1, 0, 1, 0, 1]).expect("valid");
        assert_eq!(q.cut_weight(&hg), 21);
    }

    #[test]
    fn part_weights_sum_to_total() {
        let hg = two_cluster_graph();
        let p = Partition::from_assignment(3, vec![0, 0, 1, 1, 2, 2]).expect("valid");
        let weights = p.part_weights(&hg);
        assert_eq!(weights.iter().sum::<u64>(), hg.total_vertex_weight());
    }

    #[test]
    fn members_lists_each_part() {
        let p = Partition::from_assignment(2, vec![0, 1, 0]).expect("valid");
        assert_eq!(p.members(0), vec![0, 2]);
        assert_eq!(p.members(1), vec![1]);
    }

    #[test]
    fn invalid_assignment_rejected() {
        assert!(Partition::from_assignment(2, vec![0, 2]).is_err());
        assert!(Partition::from_assignment(0, vec![]).is_err());
    }

    #[test]
    fn config_validation() {
        let hg = two_cluster_graph();
        assert!(hg.partition(&PartitionConfig::new(0)).is_err());
        assert!(hg.partition(&PartitionConfig::new(7)).is_err());
        assert!(hg
            .partition(&PartitionConfig::new(2).with_imbalance(-0.1))
            .is_err());
    }
}
