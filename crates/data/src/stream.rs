//! Streaming planted-partition generation for million-node graphs, plus
//! the [`NodeFeatureSource`] abstraction that lets training gather
//! features and labels per sampled node without ever materializing a
//! dense `n × d` matrix.
//!
//! The mid-size generators ([`crate::make_node_dataset`]) collect every
//! undirected edge into a `Vec<(u32, u32)>`, then hand it to
//! `Topology::from_edges`, which sorts and deduplicates it and then
//! materializes a second, *symmetric* vector of length 2m before
//! building the CSR — 8 bytes per raw edge plus 16 per unique edge of
//! transient overhead on top of the final structure. At 10⁶ nodes that
//! transient dominates. The streaming builder instead replays one
//! deterministic edge stream twice: pass 1 counts degrees and
//! prefix-sums them into `indptr`; pass 2 writes each endpoint directly
//! into its row's slot of the index array. Per-row sort + in-place dedup
//! compaction then establishes the CSR invariants, and the CSR moves
//! into the [`Topology`] as its only edge storage, without any
//! edge-tuple vector existing at any point.

use crate::node::NodeDataset;
use mg_graph::Topology;
use mg_tensor::{Csr, MgError};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Per-node feature/label access for training loops that gather rows on
/// demand (sampled minibatches) instead of slicing a dense matrix.
pub trait NodeFeatureSource {
    /// Number of nodes.
    fn n(&self) -> usize;
    /// Feature dimensionality.
    fn feat_dim(&self) -> usize;
    /// Number of classes.
    fn num_classes(&self) -> usize;
    /// Label of node `i`.
    fn label(&self, i: usize) -> usize;
    /// Write node `i`'s feature row into `out` (length [`feat_dim`]).
    ///
    /// [`feat_dim`]: NodeFeatureSource::feat_dim
    fn fill_features(&self, i: usize, out: &mut [f64]);
    /// The graph topology.
    fn graph(&self) -> &Topology;
}

impl NodeFeatureSource for NodeDataset {
    fn n(&self) -> usize {
        NodeDataset::n(self)
    }
    fn feat_dim(&self) -> usize {
        NodeDataset::feat_dim(self)
    }
    fn num_classes(&self) -> usize {
        self.num_classes
    }
    fn label(&self, i: usize) -> usize {
        self.labels[i]
    }
    fn fill_features(&self, i: usize, out: &mut [f64]) {
        out.fill(0.0);
        for (c, v) in self.features.row(i) {
            out[c] = v;
        }
    }
    fn graph(&self) -> &Topology {
        &self.graph
    }
}

/// Configuration of the streaming planted-partition generator.
#[derive(Clone, Copy, Debug)]
pub struct BigGraphConfig {
    /// Node count (10⁶⁺ is the design point).
    pub n: usize,
    /// Class count; labels are contiguous blocks so `label(i)` is O(1)
    /// arithmetic with no per-node array.
    pub classes: usize,
    /// Target mean degree (realized degree is slightly lower after
    /// self-loop rejection and duplicate merging).
    pub avg_degree: usize,
    /// Feature dimensionality (rows are synthesized on demand).
    pub feat_dim: usize,
    pub seed: u64,
    /// Hard cap on the builder's peak transient allocation, bytes. The
    /// build fails before an allocation that would take its accounting
    /// past this.
    pub byte_budget: usize,
}

impl Default for BigGraphConfig {
    fn default() -> Self {
        BigGraphConfig {
            n: 1_000_000,
            classes: 10,
            avg_degree: 8,
            feat_dim: 32,
            seed: 42,
            byte_budget: 64 << 20,
        }
    }
}

/// A streamed planted-partition graph: CSR topology plus O(1)-per-node
/// label arithmetic and on-demand feature synthesis.
pub struct BigGraph {
    topo: Topology,
    classes: usize,
    feat_dim: usize,
    seed: u64,
    /// Peak transient bytes the builder accounted for (degree counts,
    /// indptr, cursors, index array).
    pub peak_bytes: usize,
}

/// Fraction of edges drawn inside the endpoint's own class block — the
/// homophily signal the sampled trainer must be able to pick up.
const INTRA_CLASS: f64 = 0.7;

/// Replay the deterministic edge stream, invoking `emit(u, v)` for every
/// kept draw (`u != v`). Both generator passes call this with the same
/// seed, so they observe byte-identical streams.
fn for_each_edge(cfg: &BigGraphConfig, mut emit: impl FnMut(u32, u32)) {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x9e3779b97f4a7c15);
    let n = cfg.n as u32;
    let m = cfg.n * cfg.avg_degree / 2;
    for _ in 0..m {
        let u = rng.random_range(0..n);
        let v = if rng.random::<f64>() < INTRA_CLASS {
            // uniform inside u's class block
            let c = block_label(u as usize, cfg.n, cfg.classes);
            let lo = (c * cfg.n / cfg.classes) as u32;
            let hi = ((c + 1) * cfg.n / cfg.classes) as u32;
            rng.random_range(lo..hi)
        } else {
            rng.random_range(0..n)
        };
        if u != v {
            emit(u, v);
        }
    }
}

/// Contiguous-block label: node `i` belongs to class `i·classes/n`.
#[inline]
fn block_label(i: usize, n: usize, classes: usize) -> usize {
    (i * classes / n).min(classes - 1)
}

impl BigGraph {
    /// [`BigGraph::try_generate`], panicking on its error.
    ///
    /// # Panics
    /// Panics if the builder's transient allocations would exceed
    /// `cfg.byte_budget`, or on a config with no classes or fewer nodes
    /// than classes.
    pub fn generate(cfg: &BigGraphConfig) -> BigGraph {
        Self::try_generate(cfg).unwrap_or_else(|e| panic!("BigGraph::generate: {e}"))
    }

    /// Generate the graph under the configured byte budget.
    ///
    /// Fails with [`MgError::InvalidInput`], before allocating, when the
    /// builder's transient allocations would exceed `cfg.byte_budget`,
    /// and on a config with no classes or fewer nodes than classes.
    pub fn try_generate(cfg: &BigGraphConfig) -> Result<BigGraph, MgError> {
        if cfg.classes == 0 || cfg.n < cfg.classes {
            return Err(MgError::InvalidInput {
                detail: format!(
                    "BigGraph needs 1 <= classes <= n, got {} classes over {} nodes",
                    cfg.classes, cfg.n
                ),
            });
        }
        let n = cfg.n;
        let mut peak = 0usize;
        let mut live = 0usize;
        let charge = |live: &mut usize, peak: &mut usize, bytes: usize, budget: usize| {
            *live += bytes;
            *peak = (*peak).max(*live);
            if *peak > budget {
                return Err(MgError::InvalidInput {
                    detail: format!(
                        "streaming CSR build exceeds byte budget: {} > {budget}",
                        *peak
                    ),
                });
            }
            Ok(())
        };

        // pass 1: degree counts → indptr prefix sums
        charge(&mut live, &mut peak, 4 * n, cfg.byte_budget)?;
        let mut deg = vec![0u32; n];
        for_each_edge(cfg, |u, v| {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        });
        charge(&mut live, &mut peak, 8 * (n + 1), cfg.byte_budget)?;
        let mut indptr: Vec<usize> = Vec::with_capacity(n + 1);
        indptr.push(0);
        let mut acc = 0usize;
        for &d in &deg {
            acc += d as usize;
            indptr.push(acc);
        }
        drop(deg);
        live -= 4 * n;

        // pass 2: direct index-array fill via per-row write cursors
        charge(&mut live, &mut peak, 4 * acc, cfg.byte_budget)?;
        let mut indices = vec![0u32; acc];
        charge(&mut live, &mut peak, 8 * n, cfg.byte_budget)?;
        let mut cursor: Vec<usize> = indptr[..n].to_vec();
        for_each_edge(cfg, |u, v| {
            indices[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            indices[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        });
        drop(cursor);
        live -= 8 * n;

        // establish CSR invariants: per-row sort, in-place dedup
        // compaction, indptr fixup (write pointer never passes the read
        // pointer, so no second array is needed)
        let mut w = 0usize;
        let mut row_start = indptr[0];
        for r in 0..n {
            let (rs, re) = (row_start, indptr[r + 1]);
            row_start = re;
            indices[rs..re].sort_unstable();
            let mut prev = u32::MAX;
            for k in rs..re {
                let x = indices[k];
                if x != prev {
                    indices[w] = x;
                    w += 1;
                    prev = x;
                }
            }
            indptr[r + 1] = w;
        }
        indices.truncate(w);
        // the CSR becomes the topology without a further allocation
        let adj = Csr::from_parts(n, n, indptr, indices);
        let topo = Topology::from_symmetric_csr(adj);
        let _ = live;
        Ok(BigGraph {
            topo,
            classes: cfg.classes,
            feat_dim: cfg.feat_dim,
            seed: cfg.seed,
            peak_bytes: peak,
        })
    }
}

/// SplitMix64 finalizer — decorrelates (node, slot) pairs for feature
/// synthesis.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

impl NodeFeatureSource for BigGraph {
    fn n(&self) -> usize {
        self.topo.n()
    }
    fn feat_dim(&self) -> usize {
        self.feat_dim
    }
    fn num_classes(&self) -> usize {
        self.classes
    }
    fn label(&self, i: usize) -> usize {
        block_label(i, self.topo.n(), self.classes)
    }
    /// Bag-of-words-like row synthesized on demand: four active slots in
    /// the node's own class block plus two uniform noise slots, chosen by
    /// a seeded hash of the node id — the same class-block correlation
    /// the mid-size [`crate::make_node_dataset`] features carry.
    fn fill_features(&self, i: usize, out: &mut [f64]) {
        let d = self.feat_dim;
        debug_assert_eq!(out.len(), d);
        out.fill(0.0);
        let c = self.label(i);
        let block = (d / self.classes).max(1);
        let lo = (c * block).min(d - 1);
        let span = block.min(d - lo);
        let h = mix((i as u64) ^ self.seed.rotate_left(17));
        for t in 0..4u64 {
            let slot = lo + (mix(h ^ t) as usize) % span;
            out[slot] = 1.0;
        }
        for t in 4..6u64 {
            out[(mix(h ^ t) as usize) % d] = 1.0;
        }
    }
    fn graph(&self) -> &Topology {
        &self.topo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> BigGraphConfig {
        BigGraphConfig {
            n: 2000,
            classes: 4,
            avg_degree: 8,
            feat_dim: 16,
            seed: 7,
            byte_budget: 4 << 20,
        }
    }

    /// Reference: same edge stream through the quadratic-transient path.
    fn reference_topology(cfg: &BigGraphConfig) -> Topology {
        let mut edges = Vec::new();
        for_each_edge(cfg, |u, v| edges.push((u, v)));
        Topology::from_edges(cfg.n, &edges)
    }

    #[test]
    fn streaming_build_matches_from_edges_exactly() {
        let cfg = small_cfg();
        let got = BigGraph::generate(&cfg);
        let want = reference_topology(&cfg);
        assert_eq!(got.topo.n(), want.n());
        assert!(got.topo.edges().eq(want.edges()));
        for i in (0..cfg.n).step_by(97) {
            assert_eq!(
                got.topo.neighbors(i).collect::<Vec<_>>(),
                want.neighbors(i).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = BigGraph::generate(&small_cfg());
        let b = BigGraph::generate(&small_cfg());
        assert!(a.topo.edges().eq(b.topo.edges()));
        let mut ra = vec![0.0; a.feat_dim()];
        let mut rb = vec![0.0; b.feat_dim()];
        for i in [0, 17, 1999] {
            a.fill_features(i, &mut ra);
            b.fill_features(i, &mut rb);
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn labels_are_contiguous_balanced_blocks() {
        let g = BigGraph::generate(&small_cfg());
        let mut counts = vec![0usize; g.num_classes()];
        let mut prev = 0;
        for i in 0..g.n() {
            let l = g.label(i);
            assert!(l >= prev, "labels must be non-decreasing");
            prev = l;
            counts[l] += 1;
        }
        for &c in &counts {
            assert_eq!(c, 2000 / 4);
        }
    }

    #[test]
    fn homophily_is_planted() {
        let g = BigGraph::generate(&small_cfg());
        let intra = g
            .topo
            .edges()
            .filter(|&(u, v)| g.label(u as usize) == g.label(v as usize))
            .count();
        let frac = intra as f64 / g.topo.num_edges() as f64;
        // 0.7 intra draws + 1/classes of the uniform remainder, minus
        // merge noise
        assert!(frac > 0.6, "intra fraction = {frac}");
    }

    #[test]
    fn features_concentrate_in_own_class_block() {
        let g = BigGraph::generate(&small_cfg());
        let mut row = vec![0.0; g.feat_dim()];
        let block = g.feat_dim() / g.num_classes();
        let mut own = 0usize;
        let mut total = 0usize;
        for i in (0..g.n()).step_by(13) {
            g.fill_features(i, &mut row);
            let c = g.label(i);
            for (j, &x) in row.iter().enumerate() {
                if x > 0.0 {
                    total += 1;
                    if j >= c * block && j < (c + 1) * block {
                        own += 1;
                    }
                }
            }
        }
        assert!(own as f64 / total as f64 > 0.6);
    }

    #[test]
    #[should_panic(expected = "exceeds byte budget")]
    fn byte_budget_is_enforced() {
        let cfg = BigGraphConfig {
            byte_budget: 1024,
            ..small_cfg()
        };
        let _ = BigGraph::generate(&cfg);
    }

    /// Endpoints the edge stream writes before dedup.
    fn raw_endpoints(cfg: &BigGraphConfig) -> usize {
        let mut raw = 0usize;
        for_each_edge(cfg, |_, _| raw += 2);
        raw
    }

    /// The peak is pass 2's live set: indptr, the index array over every
    /// raw endpoint (before dedup) and the write cursors.
    fn exact_ledger(cfg: &BigGraphConfig) -> usize {
        8 * (cfg.n + 1) + 4 * raw_endpoints(cfg) + 8 * cfg.n
    }

    #[test]
    fn peak_accounting_reflects_index_array() {
        let cfg = small_cfg();
        let g = BigGraph::generate(&cfg);
        assert!(
            raw_endpoints(&cfg) > g.topo.adj().nnz(),
            "the stream has duplicates"
        );
        assert_eq!(g.peak_bytes, exact_ledger(&cfg));
        assert!(g.peak_bytes <= cfg.byte_budget);
    }

    /// A budget one byte under the exact ledger is a typed error, and the
    /// exact ledger itself builds; so do bad class counts.
    #[test]
    fn budget_overrun_is_a_typed_error() {
        let ledger = exact_ledger(&small_cfg());
        let tight = |byte_budget| BigGraphConfig {
            byte_budget,
            ..small_cfg()
        };
        match BigGraph::try_generate(&tight(ledger - 1)) {
            Err(MgError::InvalidInput { detail }) => {
                assert!(detail.contains("exceeds byte budget"), "{detail}")
            }
            Err(e) => panic!("wrong error: {e:?}"),
            Ok(_) => panic!("a budget under the ledger must fail"),
        }
        let g = BigGraph::try_generate(&tight(ledger)).expect("the exact ledger fits");
        assert_eq!(g.peak_bytes, ledger);
        for (n, classes) in [(2000, 0), (3, 4)] {
            let cfg = BigGraphConfig {
                n,
                classes,
                ..small_cfg()
            };
            assert!(matches!(
                BigGraph::try_generate(&cfg),
                Err(MgError::InvalidInput { .. })
            ));
        }
    }
}
