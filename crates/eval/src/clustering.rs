//! Node clustering — the third node-level task the paper's introduction
//! motivates. Embeddings are trained unsupervised (reconstruction +
//! AdamGNN's KL self-optimisation), clustered with k-means, and scored by
//! normalised mutual information against the ground-truth classes.

use mg_data::sample_non_edges;
use mg_graph::Topology;
use mg_tensor::{Matrix, MgError};
use rand::rngs::StdRng;
use rand::RngExt;

/// Lloyd's k-means with k-means++-style farthest-first seeding; returns
/// the cluster id per row.
pub fn kmeans(data: &Matrix, k: usize, iters: usize, rng: &mut StdRng) -> Vec<usize> {
    let n = data.rows();
    let d = data.cols();
    assert!(k >= 1 && k <= n, "kmeans: bad k");
    // farthest-first seeding
    let mut centers: Vec<Vec<f64>> = Vec::with_capacity(k);
    centers.push(data.row(rng.random_range(0..n)).to_vec());
    while centers.len() < k {
        let (mut best, mut best_d) = (0usize, -1.0f64);
        for i in 0..n {
            let dist = centers
                .iter()
                .map(|c| sq_dist(data.row(i), c))
                .fold(f64::INFINITY, f64::min);
            if dist > best_d {
                best_d = dist;
                best = i;
            }
        }
        centers.push(data.row(best).to_vec());
    }
    let mut assign = vec![0usize; n];
    for _ in 0..iters {
        let mut changed = false;
        for (i, a) in assign.iter_mut().enumerate() {
            let (mut best, mut best_d) = (0usize, f64::INFINITY);
            for (c, center) in centers.iter().enumerate() {
                let dist = sq_dist(data.row(i), center);
                if dist < best_d {
                    best_d = dist;
                    best = c;
                }
            }
            if *a != best {
                *a = best;
                changed = true;
            }
        }
        // recompute centres
        let mut sums = vec![vec![0.0f64; d]; k];
        let mut counts = vec![0usize; k];
        for i in 0..n {
            counts[assign[i]] += 1;
            for (s, &x) in sums[assign[i]].iter_mut().zip(data.row(i)) {
                *s += x;
            }
        }
        for c in 0..k {
            if counts[c] > 0 {
                for s in &mut sums[c] {
                    *s /= counts[c] as f64;
                }
                centers[c] = sums[c].clone();
            }
        }
        if !changed {
            break;
        }
    }
    assign
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum()
}

/// Normalised mutual information between two labelings, in `[0, 1]`.
pub fn nmi(a: &[usize], b: &[usize]) -> f64 {
    assert_eq!(a.len(), b.len(), "nmi: length mismatch");
    let n = a.len() as f64;
    let ka = a.iter().max().map_or(0, |m| m + 1);
    let kb = b.iter().max().map_or(0, |m| m + 1);
    let mut joint = vec![vec![0.0f64; kb]; ka];
    let mut pa = vec![0.0f64; ka];
    let mut pb = vec![0.0f64; kb];
    for (&x, &y) in a.iter().zip(b) {
        joint[x][y] += 1.0;
        pa[x] += 1.0;
        pb[y] += 1.0;
    }
    let mut mi = 0.0;
    for x in 0..ka {
        for y in 0..kb {
            if joint[x][y] > 0.0 {
                mi += (joint[x][y] / n) * ((joint[x][y] * n) / (pa[x] * pb[y])).ln();
            }
        }
    }
    let h = |p: &[f64]| -> f64 {
        p.iter()
            .filter(|&&x| x > 0.0)
            .map(|&x| -(x / n) * (x / n).ln())
            .sum()
    };
    let (ha, hb) = (h(&pa), h(&pb));
    if ha == 0.0 || hb == 0.0 {
        return if ha == hb { 1.0 } else { 0.0 };
    }
    (mi / (ha * hb).sqrt()).clamp(0.0, 1.0)
}

/// A class-balanced batch of node pairs and their BCE labels.
pub type PairBatch = (Vec<(usize, usize)>, Vec<f64>);

/// Positives plus an equal number of freshly sampled non-edge negatives
/// with their BCE labels — the supervision of one unsupervised epoch.
/// Always class-balanced (`pairs.len() == 2 * pos.len()`), or
/// [`MgError::TooDense`] on graphs with too few non-edges.
pub fn bce_pair_batch(
    g: &Topology,
    pos: &[(usize, usize)],
    rng: &mut StdRng,
) -> Result<PairBatch, MgError> {
    let neg = sample_non_edges(g, pos.len(), rng)?;
    let mut pairs = pos.to_vec();
    pairs.extend_from_slice(&neg);
    let mut labels = vec![1.0; pos.len()];
    labels.extend(std::iter::repeat_n(0.0, neg.len()));
    Ok((pairs, labels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeModelKind, TrainConfig};
    use mg_data::{make_node_dataset, NodeDatasetKind, NodeGenConfig};
    use rand::SeedableRng;

    #[test]
    fn kmeans_separates_obvious_clusters() {
        let mut data = Matrix::zeros(20, 2);
        for i in 0..10 {
            data[(i, 0)] = 10.0 + (i as f64) * 0.01;
        }
        for i in 10..20 {
            data[(i, 1)] = 10.0 + (i as f64) * 0.01;
        }
        let mut rng = StdRng::seed_from_u64(0);
        let assign = kmeans(&data, 2, 20, &mut rng);
        // all of the first ten share a cluster, all of the second ten the other
        assert!(assign[..10].iter().all(|&c| c == assign[0]));
        assert!(assign[10..].iter().all(|&c| c == assign[10]));
        assert_ne!(assign[0], assign[10]);
    }

    #[test]
    fn nmi_bounds() {
        let a = vec![0, 0, 1, 1, 2, 2];
        assert!((nmi(&a, &a) - 1.0).abs() < 1e-12, "identical labelings");
        let b = vec![2, 2, 0, 0, 1, 1];
        assert!(
            (nmi(&a, &b) - 1.0).abs() < 1e-12,
            "permuted labels are equivalent"
        );
        let c = vec![0, 1, 0, 1, 0, 1];
        assert!(nmi(&a, &c) < 0.5, "orthogonal labelings score low");
    }

    /// Regression for the silent-shortfall class-imbalance bug: on a
    /// dense graph the old inline rejection loop ran out of guard and
    /// pushed fewer negatives than positives, so the BCE saw a skewed
    /// label mix. The shared sampler must always deliver a balanced
    /// batch.
    #[test]
    fn bce_batch_is_balanced_on_dense_graph() {
        // near-complete graph: 200 nodes, all pairs except (0, 1..=30)
        let mut edges = Vec::new();
        for u in 0..200u32 {
            for v in (u + 1)..200 {
                if !(u == 0 && (1..=30).contains(&v)) {
                    edges.push((u, v));
                }
            }
        }
        let g = Topology::from_edges(200, &edges);
        let pos: Vec<(usize, usize)> = (2..32).map(|v| (1usize, v as usize)).collect();
        let mut rng = StdRng::seed_from_u64(5);
        let (pairs, labels) = bce_pair_batch(&g, &pos, &mut rng).unwrap();
        assert_eq!(pairs.len(), 2 * pos.len());
        assert_eq!(labels.len(), 2 * pos.len());
        assert_eq!(labels.iter().filter(|&&l| l == 1.0).count(), pos.len());
        assert_eq!(labels.iter().filter(|&&l| l == 0.0).count(), pos.len());
        for (&(u, v), &l) in pairs.iter().zip(&labels).skip(pos.len()) {
            assert_eq!(l, 0.0);
            assert!(!g.has_edge(u, v), "negative ({u},{v}) is an edge");
        }
    }

    #[test]
    fn clustering_on_community_graph_beats_random() {
        let ds = make_node_dataset(
            NodeDatasetKind::Emails,
            &NodeGenConfig {
                scale: 0.15,
                max_feat_dim: 32,
                seed: 4,
            },
        );
        let cfg = TrainConfig {
            epochs: 30,
            patience: 30,
            hidden: 24,
            levels: 2,
            ..Default::default()
        };
        let out = crate::session::TrainSession::new(
            crate::session::SessionKind::NodeClustering(NodeModelKind::Gcn),
            &cfg,
        )
        .run(&ds)
        .unwrap();
        assert!(out.test_metric > 0.1, "NMI = {}", out.test_metric);
        assert_eq!(out.val_metric, None, "clustering has no validation");
        assert_eq!(out.trace.len(), cfg.epochs);
        assert!(
            out.trace.records.iter().all(|r| r.val.is_nan()),
            "clustering trace rows carry NaN val"
        );
    }
}
