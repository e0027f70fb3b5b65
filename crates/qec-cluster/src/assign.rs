//! Cluster assignment: the output of a clustering run.
//!
//! Maps each input item (a query result) to a cluster index, and exposes the
//! per-cluster member lists the expansion pipeline consumes. The paper lets
//! the user choose the granularity `k` as an *upper bound* — empty clusters
//! are dropped, so `num_clusters() ≤ k`.

/// Result of clustering `n` items into at most `k` clusters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterAssignment {
    /// `membership[i]` = cluster index of item `i` (dense, 0-based).
    membership: Vec<u32>,
    /// Cluster → member item indices (ascending).
    clusters: Vec<Vec<u32>>,
}

impl ClusterAssignment {
    /// Builds from a raw membership vector, compacting away empty clusters
    /// and renumbering densely in order of first appearance.
    pub fn from_membership(raw: &[u32]) -> Self {
        let mut remap: Vec<Option<u32>> = Vec::new();
        let mut membership = Vec::with_capacity(raw.len());
        let mut clusters: Vec<Vec<u32>> = Vec::new();
        for (item, &c) in raw.iter().enumerate() {
            let ci = c as usize;
            if ci >= remap.len() {
                remap.resize(ci + 1, None);
            }
            let dense = *remap[ci].get_or_insert_with(|| {
                clusters.push(Vec::new());
                (clusters.len() - 1) as u32
            });
            membership.push(dense);
            clusters[dense as usize].push(item as u32);
        }
        Self {
            membership,
            clusters,
        }
    }

    /// Number of items clustered.
    pub fn num_items(&self) -> usize {
        self.membership.len()
    }

    /// Number of non-empty clusters.
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// The cluster index of item `i`.
    pub fn cluster_of(&self, item: usize) -> u32 {
        self.membership[item]
    }

    /// Member item indices of cluster `c` (ascending).
    pub fn members(&self, c: usize) -> &[u32] {
        &self.clusters[c]
    }

    /// Iterates over clusters as member-index slices.
    pub fn iter_clusters(&self) -> impl Iterator<Item = &[u32]> {
        self.clusters.iter().map(|v| v.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compacts_empty_clusters() {
        // Raw labels 0,5,5,9 → dense 0,1,1,2.
        let a = ClusterAssignment::from_membership(&[0, 5, 5, 9]);
        assert_eq!(a.num_clusters(), 3);
        assert_eq!(a.cluster_of(0), 0);
        assert_eq!(a.cluster_of(1), 1);
        assert_eq!(a.cluster_of(2), 1);
        assert_eq!(a.cluster_of(3), 2);
    }

    #[test]
    fn members_partition_items() {
        let a = ClusterAssignment::from_membership(&[1, 0, 1, 0, 2]);
        let mut all: Vec<u32> = a.iter_clusters().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
        assert_eq!(a.num_items(), 5);
    }

    #[test]
    fn members_are_ascending() {
        let a = ClusterAssignment::from_membership(&[0, 1, 0, 1, 0]);
        for c in a.iter_clusters() {
            assert!(c.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn empty_input() {
        let a = ClusterAssignment::from_membership(&[]);
        assert_eq!(a.num_items(), 0);
        assert_eq!(a.num_clusters(), 0);
    }

    #[test]
    fn singleton_cluster_per_item() {
        let a = ClusterAssignment::from_membership(&[3, 1, 4]);
        assert_eq!(a.num_clusters(), 3);
        // Dense renumbering in order of first appearance: 3→0, 1→1, 4→2.
        assert_eq!(a.cluster_of(0), 0);
        assert_eq!(a.cluster_of(1), 1);
        assert_eq!(a.cluster_of(2), 2);
    }
}
