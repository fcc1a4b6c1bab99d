//! Strategy knobs of the planner.

use serde::{Deserialize, Serialize};

/// Whether sibling nests execute sequentially (WRF default) or concurrently
/// on disjoint processor partitions (the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Strategy {
    /// Default: each nest on all processors, one after another.
    Sequential,
    /// Divide-and-conquer: each nest on its own partition, simultaneously.
    Concurrent,
}

/// How processors are divided among siblings (only used by
/// [`Strategy::Concurrent`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AllocPolicy {
    /// Equal split regardless of nest size (§3.2's strawman).
    Equal,
    /// Consecutive strips proportional to nest point counts (§4.6's naïve
    /// baseline).
    NaiveProportional,
    /// Huffman tree + balanced split-tree over predicted execution times
    /// (Algorithm 1).
    HuffmanSplitTree,
}

/// Which 2-D → 3-D process mapping to use (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MappingKind {
    /// Sequential XYZT order (Fig. 5b) — topology-oblivious.
    Oblivious,
    /// Blue Gene's TXYZ mapfile order.
    Txyz,
    /// Each partition on a contiguous torus region (Fig. 6a).
    Partition,
    /// Folded partitions optimising parent edges too (Fig. 6b).
    MultiLevel,
}

impl MappingKind {
    /// All mapping kinds, in the order the paper's tables list them.
    pub const ALL: [MappingKind; 4] = [
        MappingKind::Oblivious,
        MappingKind::Txyz,
        MappingKind::Partition,
        MappingKind::MultiLevel,
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_every_kind() {
        assert_eq!(MappingKind::ALL.len(), 4);
    }
}
