//! A small CART-style classification tree.
//!
//! Backs the PQR baseline from the paper's related work (§III): "The
//! PQR approach uses machine learning to predict ranges of query
//! execution time, but it does not estimate any other performance
//! metrics." PQR trains a tree of classifiers over plan features whose
//! leaves are runtime buckets; a plain Gini-split CART over the same
//! features captures its essential behaviour as a comparison point.

use qpp_linalg::{vector, Matrix};
use serde::{Deserialize, Serialize};

/// Maximum tree depth.
const MAX_DEPTH: usize = 8;

/// Minimum samples required to split a node.
const MIN_SAMPLES_SPLIT: usize = 8;

#[derive(Debug, Clone, Serialize, Deserialize)]
enum Node {
    Leaf {
        class: usize,
    },
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A fitted classification tree over dense feature rows.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecisionTree {
    root: Node,
    classes: usize,
}

impl DecisionTree {
    /// Fits a tree on `x` (one row per sample) and integer labels `y`.
    ///
    /// Panics when inputs are empty or misaligned.
    pub fn fit(x: &Matrix, y: &[usize]) -> DecisionTree {
        assert_eq!(x.rows(), y.len(), "feature/label length mismatch");
        assert!(!y.is_empty(), "empty training set");
        let classes = y.iter().copied().max().unwrap_or(0) + 1;
        let indices: Vec<usize> = (0..y.len()).collect();
        let root = build(x, y, &indices, classes, 0);
        DecisionTree { root, classes }
    }

    /// Number of distinct classes seen at fit time.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Predicts the class of one feature row.
    pub fn predict(&self, row: &[f64]) -> usize {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { class } => return *class,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if row[*feature] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }

    /// Tree depth (longest root-to-leaf path).
    pub fn depth(&self) -> usize {
        fn d(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + d(left).max(d(right)),
            }
        }
        d(&self.root)
    }
}

fn majority(y: &[usize], indices: &[usize], classes: usize) -> usize {
    let mut counts = vec![0usize; classes];
    for &i in indices {
        counts[y[i]] += 1;
    }
    counts
        .iter()
        .enumerate()
        .max_by_key(|(_, c)| **c)
        .map(|(k, _)| k)
        .unwrap_or(0)
}

fn gini(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - vector::sum_iter(counts.iter().map(|&c| {
        let p = c as f64 / t;
        p * p
    }))
}

fn build(x: &Matrix, y: &[usize], indices: &[usize], classes: usize, depth: usize) -> Node {
    let leaf = Node::Leaf {
        class: majority(y, indices, classes),
    };
    if depth >= MAX_DEPTH || indices.len() < MIN_SAMPLES_SPLIT {
        return leaf;
    }
    // Pure node?
    let first = y[indices[0]];
    if indices.iter().all(|&i| y[i] == first) {
        return Node::Leaf { class: first };
    }

    // Best Gini split over all features; candidate thresholds are the
    // midpoints of sorted unique values (subsampled for wide nodes).
    // Ties on score are broken toward the more balanced split, so a
    // gainless XOR-style first cut still divides the data usefully.
    let mut best: Option<(usize, f64, f64, f64)> = None; // (feature, threshold, score, balance)
    let parent_counts = {
        let mut c = vec![0usize; classes];
        for &i in indices {
            c[y[i]] += 1;
        }
        c
    };
    let parent_gini = gini(&parent_counts, indices.len());
    for f in 0..x.cols() {
        let mut values: Vec<f64> = indices.iter().map(|&i| x[(i, f)]).collect();
        values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        values.dedup();
        if values.len() < 2 {
            continue;
        }
        // Consider every candidate threshold on small nodes; subsample
        // only when the value set is wide (the subsampling must not be
        // allowed to skip a large between-cluster gap on small data).
        let step = if values.len() <= 64 {
            1
        } else {
            values.len() / 64
        };
        for w in values.windows(2).step_by(step) {
            let threshold = 0.5 * (w[0] + w[1]);
            let mut lc = vec![0usize; classes];
            let mut rc = vec![0usize; classes];
            let mut ln = 0usize;
            for &i in indices {
                if x[(i, f)] <= threshold {
                    lc[y[i]] += 1;
                    ln += 1;
                } else {
                    rc[y[i]] += 1;
                }
            }
            let rn = indices.len() - ln;
            if ln == 0 || rn == 0 {
                continue;
            }
            let score =
                (ln as f64 * gini(&lc, ln) + rn as f64 * gini(&rc, rn)) / indices.len() as f64;
            let balance = (ln.min(rn)) as f64 / indices.len() as f64;
            let better = match best {
                None => true,
                Some((_, _, s, bal)) => {
                    score < s - 1e-12 || ((score - s).abs() <= 1e-12 && balance > bal)
                }
            };
            if better {
                best = Some((f, threshold, score, balance));
            }
        }
    }
    let Some((feature, threshold, score, _)) = best else {
        return leaf;
    };
    // Weighted child Gini never exceeds the parent's, so zero-gain ties
    // are allowed: XOR-like concepts need a gainless first split before
    // the second level separates the classes. Recursion stays bounded
    // by MAX_DEPTH and the non-empty partition invariant.
    if score > parent_gini + 1e-12 {
        return leaf;
    }
    let (li, ri): (Vec<usize>, Vec<usize>) =
        indices.iter().partition(|&&i| x[(i, feature)] <= threshold);
    Node::Split {
        feature,
        threshold,
        left: Box::new(build(x, y, &li, classes, depth + 1)),
        right: Box::new(build(x, y, &ri, classes, depth + 1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nested_and() -> (Matrix, Vec<usize>) {
        // Two features; class = (a > 0.5) AND (b > 0.5): needs depth 2
        // and is greedily learnable (the first split yields a pure
        // child), unlike exact XOR which defeats greedy Gini splitting.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            let a = if i % 2 == 0 { 0.2 } else { 0.8 } + (i as f64) * 1e-3;
            let b = if (i / 2) % 2 == 0 { 0.2 } else { 0.8 } + (i as f64) * 1e-3;
            rows.push(vec![a, b]);
            labels.push(usize::from(a > 0.5 && b > 0.5));
        }
        (Matrix::from_rows(&rows).unwrap(), labels)
    }

    #[test]
    fn learns_nested_concept_with_depth_two() {
        let (x, y) = nested_and();
        let tree = DecisionTree::fit(&x, &y);
        let mut correct = 0;
        for (i, &label) in y.iter().enumerate() {
            if tree.predict(x.row(i)) == label {
                correct += 1;
            }
        }
        assert_eq!(correct, x.rows(), "tree should fit the AND concept exactly");
        assert!(tree.depth() >= 2);
    }

    #[test]
    fn pure_labels_make_a_leaf() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let tree = DecisionTree::fit(&x, &[1, 1, 1]);
        assert_eq!(tree.depth(), 0);
        assert_eq!(tree.predict(&[99.0]), 1);
    }

    #[test]
    fn respects_max_depth() {
        // Alternating labels on a line: the best split always peels off
        // one end row, so an uncapped tree would be about 60 levels deep.
        let x = Matrix::from_fn(64, 1, |i, _| i as f64);
        let y: Vec<usize> = (0..64).map(|i| i % 2).collect();
        let tree = DecisionTree::fit(&x, &y);
        assert_eq!(tree.depth(), MAX_DEPTH);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_misaligned_inputs() {
        let x = Matrix::from_rows(&[vec![1.0]]).unwrap();
        DecisionTree::fit(&x, &[0, 1]);
    }
}
