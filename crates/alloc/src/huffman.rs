//! Huffman tree over execution-time ratios.
//!
//! Algorithm 1, line 1: "Construct a Huffman tree over the nested domains
//! with execution time ratios as weights". The Huffman construction merges
//! the two lightest subtrees first, so every internal node ends up with
//! left and right subtrees that are "fairly well-balanced in terms of the
//! sum of the execution time ratios" — which is exactly what makes the
//! subsequent split-tree produce square-like rectangles.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Node payload: a leaf (one nested domain) or an internal merge.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NodeKind {
    /// Leaf holding the index of a nested domain.
    Leaf {
        /// Index of the domain in the input weight list.
        domain: usize,
    },
    /// Internal node with arena indices of its children.
    Internal {
        /// Left child (the lighter of the two merged subtrees).
        left: usize,
        /// Right child.
        right: usize,
    },
}

/// One arena node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// Sum of leaf weights below (the `W` of Algorithm 1, line 12).
    pub weight: f64,
    /// Leaf or internal.
    pub kind: NodeKind,
}

/// An arena-allocated Huffman tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HuffmanTree {
    nodes: Vec<Node>,
    root: usize,
}

#[derive(PartialEq)]
struct HeapItem {
    weight: f64,
    seq: usize, // FIFO tie-break for determinism
    node: usize,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap: reverse weight; ties broken by insertion order.
        other
            .weight
            .partial_cmp(&self.weight)
            .unwrap_or(Ordering::Equal)
            .then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl HuffmanTree {
    /// Builds the tree. Weights must be positive; a single weight yields a
    /// one-leaf tree.
    ///
    /// Panics on empty or non-positive input.
    pub fn build(weights: &[f64]) -> HuffmanTree {
        assert!(!weights.is_empty(), "Huffman tree over zero domains");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w > 0.0),
            "Huffman weights must be positive and finite"
        );
        let mut nodes: Vec<Node> = weights
            .iter()
            .enumerate()
            .map(|(i, &w)| Node {
                weight: w,
                kind: NodeKind::Leaf { domain: i },
            })
            .collect();
        let mut heap: BinaryHeap<HeapItem> = (0..nodes.len())
            .map(|i| HeapItem {
                weight: nodes[i].weight,
                seq: i,
                node: i,
            })
            .collect();
        let mut seq = nodes.len();
        while heap.len() > 1 {
            let a = heap.pop().unwrap();
            let b = heap.pop().unwrap();
            let merged = Node {
                weight: a.weight + b.weight,
                kind: NodeKind::Internal {
                    left: a.node,
                    right: b.node,
                },
            };
            nodes.push(merged);
            heap.push(HeapItem {
                weight: merged.weight,
                seq,
                node: nodes.len() - 1,
            });
            seq += 1;
        }
        let root = heap.pop().unwrap().node;
        HuffmanTree { nodes, root }
    }

    /// Arena index of the root.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Node by arena index.
    pub fn node(&self, idx: usize) -> &Node {
        &self.nodes[idx]
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Leaf { .. }))
            .count()
    }

    /// Internal-node arena indices in breadth-first order from the root —
    /// the traversal order of Algorithm 1, line 2.
    pub fn internal_bfs(&self) -> Vec<usize> {
        let mut out = Vec::new();
        let mut queue = std::collections::VecDeque::from([self.root]);
        while let Some(idx) = queue.pop_front() {
            if let NodeKind::Internal { left, right } = self.nodes[idx].kind {
                out.push(idx);
                queue.push_back(left);
                queue.push_back(right);
            }
        }
        out
    }

    /// Depth of each leaf domain (code length), indexed by domain id.
    pub fn depths(&self) -> Vec<u32> {
        let mut out = vec![0u32; self.num_leaves()];
        let mut stack = vec![(self.root, 0u32)];
        while let Some((idx, d)) = stack.pop() {
            match self.nodes[idx].kind {
                NodeKind::Leaf { domain } => out[domain] = d,
                NodeKind::Internal { left, right } => {
                    stack.push((left, d + 1));
                    stack.push((right, d + 1));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Weighted external path length `Σ wᵢ · depthᵢ` — minimal over all
    /// binary trees for Huffman construction.
    fn weighted_path_length(t: &HuffmanTree, weights: &[f64]) -> f64 {
        t.depths()
            .iter()
            .zip(weights)
            .map(|(&d, &w)| d as f64 * w)
            .sum()
    }

    #[test]
    fn single_leaf() {
        let t = HuffmanTree::build(&[1.0]);
        assert_eq!(t.num_leaves(), 1);
        assert!(t.internal_bfs().is_empty());
        assert_eq!(t.depths(), vec![0]);
    }

    #[test]
    fn classic_example() {
        // Weights 1,1,2,4: optimal code lengths 3,3,2,1.
        let t = HuffmanTree::build(&[1.0, 1.0, 2.0, 4.0]);
        assert_eq!(t.depths(), vec![3, 3, 2, 1]);
        assert_eq!(
            weighted_path_length(&t, &[1.0, 1.0, 2.0, 4.0]),
            3.0 + 3.0 + 4.0 + 4.0
        );
    }

    #[test]
    fn equal_weights_balanced() {
        // 4 equal weights: perfectly balanced tree, all depths 2.
        let t = HuffmanTree::build(&[1.0; 4]);
        assert_eq!(t.depths(), vec![2, 2, 2, 2]);
    }

    #[test]
    fn root_weight_is_total() {
        let w = [0.15, 0.3, 0.35, 0.2];
        let t = HuffmanTree::build(&w);
        assert!((t.node(t.root()).weight - 1.0).abs() < 1e-12);
    }

    #[test]
    fn children_fairly_balanced() {
        // The property Algorithm 1 relies on: at the root, left/right
        // subtree weights of Fig. 3(b)'s ratios are close.
        let w = [0.15, 0.3, 0.35, 0.2];
        let t = HuffmanTree::build(&w);
        if let NodeKind::Internal { left, right } = t.node(t.root()).kind {
            let (wl, wr) = (t.node(left).weight, t.node(right).weight);
            assert!(
                (wl - wr).abs() <= 0.5,
                "root split {wl} vs {wr} too lopsided"
            );
        } else {
            panic!("root must be internal");
        }
    }

    #[test]
    fn bfs_visits_all_internal_nodes() {
        let t = HuffmanTree::build(&[0.1, 0.2, 0.3, 0.4]);
        // k leaves → k-1 internal nodes.
        assert_eq!(t.internal_bfs().len(), 3);
        // BFS starts at the root.
        assert_eq!(t.internal_bfs()[0], t.root());
    }

    #[test]
    fn deterministic_on_ties() {
        let a = HuffmanTree::build(&[1.0, 1.0, 1.0, 1.0, 1.0]);
        let b = HuffmanTree::build(&[1.0, 1.0, 1.0, 1.0, 1.0]);
        assert_eq!(a, b);
    }

    #[test]
    fn optimality_vs_exhaustive_small() {
        // For 4 weights, the Huffman WPL must not exceed any full binary
        // tree's WPL; enumerate all leaf permutations of the two shapes of
        // 4-leaf binary trees.
        let w = [0.1, 0.25, 0.3, 0.35];
        let t = HuffmanTree::build(&w);
        let wpl = weighted_path_length(&t, &w);
        let mut best = f64::INFINITY;
        let idx = [0usize, 1, 2, 3];
        let mut perms = Vec::new();
        permute(&idx, &mut vec![], &mut perms);
        for p in perms {
            // Shape A: balanced — all depths 2.
            let a: f64 = p.iter().map(|&i| 2.0 * w[i]).sum();
            // Shape B: caterpillar — depths 1,2,3,3.
            let b = w[p[0]] + 2.0 * w[p[1]] + 3.0 * w[p[2]] + 3.0 * w[p[3]];
            best = best.min(a).min(b);
        }
        assert!(
            wpl <= best + 1e-12,
            "Huffman WPL {wpl} worse than exhaustive {best}"
        );
    }

    fn permute(rest: &[usize], acc: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if rest.is_empty() {
            out.push(acc.clone());
            return;
        }
        for (i, &x) in rest.iter().enumerate() {
            let mut r = rest.to_vec();
            r.remove(i);
            acc.push(x);
            permute(&r, acc, out);
            acc.pop();
        }
    }

    #[test]
    #[should_panic]
    fn rejects_empty() {
        HuffmanTree::build(&[]);
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive() {
        HuffmanTree::build(&[1.0, 0.0]);
    }
}
