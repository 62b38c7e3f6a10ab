//! Train/validation/test splits.
//!
//! The paper's protocol: 80/10/10 random splits for labelled nodes and
//! graphs; for link prediction, 10% of edges held out for validation and
//! 10% for test, each paired with an equal number of sampled non-edges,
//! with the training graph containing only the remaining 80% of edges.
//!
//! Negative sampling guarantee: [`sample_non_edges`] always returns
//! exactly the requested number of pairs. Its rejection-sampling fast
//! path is bounded, and when it stalls (dense graphs, where distinct
//! non-edges are rare in the u,v grid) it falls back to enumerating the
//! remaining non-edges and drawing without replacement. A graph with too
//! few distinct non-edges for the request is a typed
//! [`MgError::TooDense`] instead of a silently unbalanced negative set —
//! an unbalanced `val_neg`/`val_pos` class mix would bias every AUC
//! computed on it.
//!
//! Error policy: these are user-facing entry points (any dataset the
//! caller supplies can be too small or too dense), so they return
//! `Result<_, MgError>` rather than panicking.

use mg_graph::Topology;
use mg_tensor::MgError;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Index split for node or graph classification.
#[derive(Clone, Debug)]
pub struct Split {
    pub train: Vec<usize>,
    pub val: Vec<usize>,
    pub test: Vec<usize>,
}

impl Split {
    /// Random 80/10/10 split of `0..n`.
    ///
    /// Fails with [`MgError::InvalidInput`] when `n < 10` (each part
    /// must be non-empty).
    pub fn random_80_10_10(n: usize, seed: u64) -> Result<Split, MgError> {
        if n < 10 {
            return Err(MgError::InvalidInput {
                detail: format!("split needs at least 10 items, got {n}"),
            });
        }
        let mut idx: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            idx.swap(i, j);
        }
        let n_val = n / 10;
        let n_test = n / 10;
        let n_train = n - n_val - n_test;
        Ok(Split {
            train: idx[..n_train].to_vec(),
            val: idx[n_train..n_train + n_val].to_vec(),
            test: idx[n_train + n_val..].to_vec(),
        })
    }

    /// Sanity: the three parts partition `0..n`.
    pub fn is_partition_of(&self, n: usize) -> bool {
        let mut seen = vec![false; n];
        for &i in self.train.iter().chain(&self.val).chain(&self.test) {
            if i >= n || seen[i] {
                return false;
            }
            seen[i] = true;
        }
        seen.iter().all(|&s| s)
    }
}

/// Link-prediction split: message-passing graph plus positive/negative
/// evaluation pairs.
#[derive(Clone, Debug)]
pub struct LinkSplit {
    /// Graph containing only training edges (input to the encoder).
    pub train_graph: Topology,
    /// Training positive edges (also used for the reconstruction loss).
    pub train_pos: Vec<(usize, usize)>,
    /// Training negatives (resampled per call if desired).
    pub train_neg: Vec<(usize, usize)>,
    pub val_pos: Vec<(usize, usize)>,
    pub val_neg: Vec<(usize, usize)>,
    pub test_pos: Vec<(usize, usize)>,
    pub test_neg: Vec<(usize, usize)>,
}

impl LinkSplit {
    /// Build an 80/10/10 edge split with equal-size sampled non-edges.
    ///
    /// Fails with [`MgError::InvalidInput`] on graphs with fewer than 10
    /// edges and with [`MgError::TooDense`] when the graph has too few
    /// distinct non-edges for class-balanced negative sets.
    pub fn new(g: &Topology, seed: u64) -> Result<LinkSplit, MgError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges: Vec<(u32, u32)> = g.edges().collect();
        if edges.len() < 10 {
            return Err(MgError::InvalidInput {
                detail: format!("link split needs at least 10 edges, got {}", edges.len()),
            });
        }
        for i in (1..edges.len()).rev() {
            let j = rng.random_range(0..=i);
            edges.swap(i, j);
        }
        let m = edges.len();
        let n_val = m / 10;
        let n_test = m / 10;
        let n_train = m - n_val - n_test;
        let train_e = &edges[..n_train];
        let val_e = &edges[n_train..n_train + n_val];
        let test_e = &edges[n_train + n_val..];
        let train_graph = Topology::from_edges(g.n(), train_e);
        let as_pairs =
            |es: &[(u32, u32)]| es.iter().map(|&(u, v)| (u as usize, v as usize)).collect();
        let train_pos: Vec<(usize, usize)> = as_pairs(train_e);
        let val_pos: Vec<(usize, usize)> = as_pairs(val_e);
        let test_pos: Vec<(usize, usize)> = as_pairs(test_e);
        let train_neg = sample_non_edges(g, train_pos.len(), &mut rng)?;
        let val_neg = sample_non_edges(g, val_pos.len(), &mut rng)?;
        let test_neg = sample_non_edges(g, test_pos.len(), &mut rng)?;
        Ok(LinkSplit {
            train_graph,
            train_pos,
            train_neg,
            val_pos,
            val_neg,
            test_pos,
            test_neg,
        })
    }
}

/// Uniformly sample `count` node pairs that are non-edges of `g` (and not
/// self-pairs). Pairs may repeat across calls but not within one call.
///
/// The fast path is rejection sampling with a bounded number of draws.
/// On dense graphs — where the rejection loop can exhaust its guard
/// before finding `count` *distinct* non-edges — it falls back to
/// enumerating the remaining non-edges and drawing the shortfall without
/// replacement, so the returned vector always has exactly `count` pairs.
/// Callers can therefore rely on evaluation sets being class-balanced.
///
/// # Errors
/// [`MgError::TooDense`] when the graph has fewer than `count` distinct
/// non-edges: no sampler can produce a balanced negative set there, and
/// silently returning fewer pairs would skew every metric computed on
/// them (ROC-AUC on a shortfallen negative set reads several points
/// high).
pub fn sample_non_edges(
    g: &Topology,
    count: usize,
    rng: &mut StdRng,
) -> Result<Vec<(usize, usize)>, MgError> {
    let n = g.n();
    let mut out = Vec::with_capacity(count);
    let mut seen = std::collections::HashSet::new();
    let mut guard = 0usize;
    while out.len() < count && guard < 1000 * count.max(1) {
        guard += 1;
        let u = rng.random_range(0..n);
        let v = rng.random_range(0..n);
        if u == v || g.has_edge(u, v) {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if seen.insert(key) {
            out.push(key);
        }
    }
    if out.len() < count {
        // Rejection stalled: the distinct non-edges not yet drawn are a
        // vanishing fraction of the u,v grid. Enumerate them (O(n^2),
        // acceptable exactly because the graph is near-complete) and
        // finish with an exact without-replacement draw.
        let mut remaining: Vec<(usize, usize)> = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if !g.has_edge(u, v) && !seen.contains(&(u, v)) {
                    remaining.push((u, v));
                }
            }
        }
        let need = count - out.len();
        if remaining.len() < need {
            return Err(MgError::TooDense {
                requested: count,
                available: out.len() + remaining.len(),
                nodes: n,
                edges: g.num_edges(),
            });
        }
        // partial Fisher-Yates: the first `need` slots become a uniform
        // without-replacement sample of `remaining`
        for k in 0..need {
            let j = rng.random_range(k..remaining.len());
            remaining.swap(k, j);
            out.push(remaining[k]);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_is_partition() {
        let s = Split::random_80_10_10(103, 5).unwrap();
        assert!(s.is_partition_of(103));
        assert_eq!(s.val.len(), 10);
        assert_eq!(s.test.len(), 10);
        assert_eq!(s.train.len(), 83);
    }

    #[test]
    fn split_is_deterministic() {
        let a = Split::random_80_10_10(50, 9).unwrap();
        let b = Split::random_80_10_10(50, 9).unwrap();
        assert_eq!(a.train, b.train);
        assert_eq!(a.test, b.test);
    }

    fn ring(n: usize) -> Topology {
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        Topology::from_edges(n, &edges)
    }

    #[test]
    fn link_split_partitions_edges() {
        let g = ring(40);
        let ls = LinkSplit::new(&g, 11).unwrap();
        let total = ls.train_pos.len() + ls.val_pos.len() + ls.test_pos.len();
        assert_eq!(total, g.num_edges());
        assert_eq!(ls.train_graph.num_edges(), ls.train_pos.len());
        assert_eq!(ls.val_pos.len(), ls.val_neg.len());
        assert_eq!(ls.test_pos.len(), ls.test_neg.len());
    }

    #[test]
    fn link_split_negatives_are_non_edges() {
        let g = ring(40);
        let ls = LinkSplit::new(&g, 11).unwrap();
        for &(u, v) in ls.val_neg.iter().chain(&ls.test_neg).chain(&ls.train_neg) {
            assert!(!g.has_edge(u, v), "({u},{v}) is an edge");
            assert_ne!(u, v);
        }
    }

    #[test]
    fn held_out_edges_absent_from_train_graph() {
        let g = ring(40);
        let ls = LinkSplit::new(&g, 11).unwrap();
        for &(u, v) in ls.val_pos.iter().chain(&ls.test_pos) {
            assert!(!ls.train_graph.has_edge(u, v));
        }
    }

    #[test]
    fn non_edge_sampler_respects_count() {
        let g = ring(30);
        let mut rng = StdRng::seed_from_u64(0);
        let neg = sample_non_edges(&g, 25, &mut rng).unwrap();
        assert_eq!(neg.len(), 25);
        let set: std::collections::HashSet<_> = neg.iter().collect();
        assert_eq!(set.len(), 25, "no duplicates within a call");
    }

    /// Complete graph on `n` nodes minus the listed (undirected) pairs —
    /// the missing pairs are exactly the distinct non-edges.
    fn complete_minus(n: u32, missing: &[(u32, u32)]) -> Topology {
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if !missing.contains(&(u, v)) {
                    edges.push((u, v));
                }
            }
        }
        Topology::from_edges(n as usize, &edges)
    }

    /// Regression: on a near-complete graph the rejection loop exhausts
    /// its guard (each specific non-edge has probability 2/n^2 per draw,
    /// and all 20 must be hit), and the pre-fix sampler silently
    /// returned fewer than `count` pairs. The enumeration fallback must
    /// deliver the full set.
    #[test]
    fn fallback_fills_count_when_rejection_stalls() {
        let missing: Vec<(u32, u32)> = (1..=20).map(|v| (0u32, v)).collect();
        let g = complete_minus(200, &missing);
        let mut rng = StdRng::seed_from_u64(3);
        let neg = sample_non_edges(&g, 20, &mut rng).unwrap();
        assert_eq!(neg.len(), 20, "sampler must return every requested pair");
        let set: std::collections::HashSet<_> = neg.iter().copied().collect();
        assert_eq!(set.len(), 20, "no duplicates");
        for &(u, v) in &neg {
            assert!(!g.has_edge(u, v), "({u},{v}) is an edge");
            assert!(u < v);
        }
    }

    /// The density contract is now a typed error, not a panic: a
    /// complete graph has zero non-edges, so any positive request must
    /// come back as `TooDense` carrying the facts of the refusal.
    #[test]
    fn sampler_errors_when_graph_has_too_few_non_edges() {
        let g = complete_minus(10, &[]);
        let mut rng = StdRng::seed_from_u64(0);
        match sample_non_edges(&g, 5, &mut rng) {
            Err(MgError::TooDense {
                requested,
                available,
                nodes,
                ..
            }) => {
                assert_eq!(requested, 5);
                assert_eq!(available, 0);
                assert_eq!(nodes, 10);
            }
            other => panic!("expected TooDense, got {other:?}"),
        }
    }

    /// A dense graph (two 10-cliques: 90 of 190 possible edges) still
    /// has enough non-edges for every split part — train needs 72 of the
    /// 100 distinct non-edges; the sampler must keep every evaluation
    /// set class-balanced.
    #[test]
    fn link_split_balanced_on_dense_graph() {
        let mut edges = Vec::new();
        for u in 0..20u32 {
            for v in (u + 1)..20 {
                if u % 2 == v % 2 {
                    edges.push((u, v));
                }
            }
        }
        let g = Topology::from_edges(20, &edges);
        let ls = LinkSplit::new(&g, 7).unwrap();
        assert_eq!(ls.val_neg.len(), ls.val_pos.len());
        assert_eq!(ls.test_neg.len(), ls.test_pos.len());
        assert_eq!(ls.train_neg.len(), ls.train_pos.len());
    }

    #[test]
    fn link_split_errors_on_near_complete_graph() {
        // K20 has zero non-edges: balanced negatives are impossible and
        // the split must refuse instead of shipping a skewed class mix.
        let g = complete_minus(20, &[]);
        assert!(matches!(
            LinkSplit::new(&g, 7),
            Err(MgError::TooDense { .. })
        ));
    }

    #[test]
    fn split_and_link_split_reject_tiny_inputs() {
        assert!(matches!(
            Split::random_80_10_10(9, 0),
            Err(MgError::InvalidInput { .. })
        ));
        let g = ring(5);
        assert!(matches!(
            LinkSplit::new(&g, 0),
            Err(MgError::InvalidInput { .. })
        ));
    }
}
