//! GraphSAGE-style neighbor-sampled ego-subgraphs for minibatch training.
//!
//! Each training step draws a batch of seed nodes, expands a bounded
//! fanout neighborhood around them (one fanout per hop, matching the
//! model's λ-hop receptive field), and materializes the *induced*
//! subgraph over every sampled node as a local [`Topology`] plus a
//! local↔global id remap. AdamGNN's pooling is local (λ-hop egos,
//! local-maximum fitness — paper Eq. 2), so running the full
//! fitness→pooling→flyback stack on the sampled subgraph and scattering
//! gradients to the global parameters is faithful to the full-batch
//! objective restricted to the batch.
//!
//! All randomness is drawn from the caller's `StdRng`, so a checkpointed
//! RNG stream replays the exact sample sequence on resume.

use mg_graph::Topology;
use rand::rngs::StdRng;
use rand::RngExt;
use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// One sampled minibatch subgraph.
#[derive(Clone, Debug)]
pub struct SampledSubgraph {
    /// Induced topology over the sampled nodes, in local ids.
    pub topo: Topology,
    /// Local → global node id (`nodes[local] == global`).
    pub nodes: Vec<usize>,
    /// Number of leading entries of `nodes` that are seeds: locals
    /// `0..num_seeds` are the deduplicated seed nodes in first-seen
    /// order; loss is computed on these rows only.
    pub num_seeds: usize,
    /// How many nodes had their neighbor list truncated by a fanout cap
    /// during expansion (0 means the batch saw exact neighborhoods).
    pub truncated: usize,
}

impl SampledSubgraph {
    /// Local ids of the seed rows (`0..num_seeds`).
    pub fn seed_locals(&self) -> std::ops::Range<usize> {
        0..self.num_seeds
    }
}

/// Multiplicative hasher for `u32` node ids (the Fx scheme: rotate, xor,
/// multiply by an odd constant). Node ids come from the graph, not from
/// an adversary, so SipHash's flooding resistance buys nothing here.
#[derive(Clone, Copy, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(x)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Global → local id map of the nodes sampled so far.
type LocalMap = HashMap<u32, u32, BuildHasherDefault<IdHasher>>;

/// Give global node `v` the next local id unless it is already sampled.
#[inline]
fn admit(local_of: &mut LocalMap, nodes: &mut Vec<usize>, v: usize) {
    if let Entry::Vacant(slot) = local_of.entry(v as u32) {
        slot.insert(nodes.len() as u32);
        nodes.push(v);
    }
}

/// Reusable neighbor sampler holding the per-step scratch: a global →
/// local id map whose keys are exactly the sampled nodes, and an index
/// buffer for partial Fisher–Yates fanout selection. Both are cleared,
/// capacity kept, on every [`NeighborSampler::sample`], so the sampler's
/// memory follows the largest sample drawn, not the graph's node count.
pub struct NeighborSampler {
    local_of: LocalMap,
    idx: Vec<u32>,
}

impl NeighborSampler {
    /// A sampler. `_n`, the node count of the graph to be sampled, sizes
    /// nothing: one sampler serves graphs of any size.
    pub fn new(_n: usize) -> NeighborSampler {
        NeighborSampler {
            local_of: LocalMap::default(),
            idx: Vec::new(),
        }
    }

    /// Sample one ego-subgraph: mark the (deduplicated) `seeds`, then for
    /// each hop `h` expand every frontier node's neighbor list, keeping
    /// at most `fanouts[h]` uniformly-chosen neighbors (all of them when
    /// degree ≤ fanout). The induced topology contains **every** edge of
    /// the full graph whose endpoints were both sampled — including edges
    /// the expansion itself did not traverse — so the subgraph is exactly
    /// `topo.induced_subgraph(&nodes)` under the remap.
    pub fn sample(
        &mut self,
        topo: &Topology,
        seeds: &[usize],
        fanouts: &[usize],
        rng: &mut StdRng,
    ) -> SampledSubgraph {
        let n = topo.n();
        self.local_of.clear();
        let mut nodes: Vec<usize> = Vec::with_capacity(seeds.len() * 4);
        for &s in seeds {
            assert!(s < n, "seed {s} out of range");
            admit(&mut self.local_of, &mut nodes, s);
        }
        let num_seeds = nodes.len();
        let mut truncated = 0usize;
        let mut frontier = 0..nodes.len();
        for &fanout in fanouts {
            if frontier.is_empty() {
                break;
            }
            for u_ix in frontier.clone() {
                let u = nodes[u_ix];
                let row = topo.adj().row_indices(u);
                if row.len() <= fanout {
                    for &v in row {
                        admit(&mut self.local_of, &mut nodes, v as usize);
                    }
                } else {
                    truncated += 1;
                    // partial Fisher–Yates over the neighbor positions:
                    // the first `fanout` slots end up a uniform sample
                    self.idx.clear();
                    self.idx.extend(0..row.len() as u32);
                    for k in 0..fanout {
                        let j = rng.random_range(k..row.len());
                        self.idx.swap(k, j);
                    }
                    for k in 0..fanout {
                        let v = row[self.idx[k] as usize] as usize;
                        admit(&mut self.local_of, &mut nodes, v);
                    }
                }
            }
            frontier = frontier.end..nodes.len();
        }
        // induced edges: scan each sampled node's full neighbor list and
        // keep edges whose far endpoint is also sampled — O(Σ deg) over
        // sampled nodes, independent of the full graph's edge count
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for (lu, &gu) in nodes.iter().enumerate() {
            for gv in topo.adj().row_indices(gu) {
                if let Some(&lv) = self.local_of.get(gv) {
                    if lu < lv as usize {
                        edges.push((lu as u32, lv));
                    }
                }
            }
        }
        SampledSubgraph {
            topo: Topology::from_edges(nodes.len(), &edges),
            nodes,
            num_seeds,
            truncated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn grid(w: usize, h: usize) -> Topology {
        let mut edges = Vec::new();
        let at = |x: usize, y: usize| (y * w + x) as u32;
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    edges.push((at(x, y), at(x + 1, y)));
                }
                if y + 1 < h {
                    edges.push((at(x, y), at(x, y + 1)));
                }
            }
        }
        Topology::from_edges(w * h, &edges)
    }

    #[test]
    fn seeds_dedup_and_lead_the_remap() {
        let g = grid(4, 4);
        let mut sampler = NeighborSampler::new(g.n());
        let mut rng = StdRng::seed_from_u64(1);
        let sub = sampler.sample(&g, &[5, 10, 5, 10], &[100, 100], &mut rng);
        assert_eq!(sub.num_seeds, 2);
        assert_eq!(&sub.nodes[..2], &[5, 10]);
        assert_eq!(sub.seed_locals(), 0..2);
    }

    #[test]
    fn unbounded_fanout_matches_khop() {
        let g = grid(5, 5);
        let mut sampler = NeighborSampler::new(g.n());
        let mut rng = StdRng::seed_from_u64(2);
        let sub = sampler.sample(&g, &[12], &[100, 100], &mut rng);
        assert_eq!(sub.truncated, 0);
        let mut got = sub.nodes.clone();
        got.sort_unstable();
        assert_eq!(got, g.khop(12, 2));
        // induced edges match the reference induced subgraph
        let mut sorted = sub.nodes.clone();
        sorted.sort_unstable();
        let (reference, _) = g.induced_subgraph(&sorted);
        assert_eq!(sub.topo.num_edges(), reference.num_edges());
    }

    #[test]
    fn fanout_caps_expansion_and_counts_truncations() {
        // star: center 0 with 20 leaves
        let edges: Vec<(u32, u32)> = (1..=20).map(|v| (0, v)).collect();
        let g = Topology::from_edges(21, &edges);
        let mut sampler = NeighborSampler::new(g.n());
        let mut rng = StdRng::seed_from_u64(3);
        let sub = sampler.sample(&g, &[0], &[4], &mut rng);
        assert_eq!(sub.nodes.len(), 5); // center + 4 sampled leaves
        assert_eq!(sub.truncated, 1);
        assert_eq!(sub.topo.num_edges(), 4);
    }

    #[test]
    fn sampling_is_deterministic_in_rng_state() {
        let g = grid(6, 6);
        let mut s1 = NeighborSampler::new(g.n());
        let mut s2 = NeighborSampler::new(g.n());
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        for step in 0..5 {
            let a = s1.sample(&g, &[step, step + 7], &[3, 2], &mut r1);
            let b = s2.sample(&g, &[step, step + 7], &[3, 2], &mut r2);
            assert_eq!(a.nodes, b.nodes);
            assert!(a.topo.edges().eq(b.topo.edges()));
            assert_eq!(a.truncated, b.truncated);
        }
    }

    #[test]
    fn a_sampler_reused_across_graphs_matches_fresh_samplers() {
        let (small, large) = (grid(3, 3), grid(9, 7));
        let mut reused = NeighborSampler::new(small.n());
        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(5);
        for (g, seeds) in [
            (&small, vec![4, 0]),
            (&large, vec![40, 2, 62, 40]),
            (&small, vec![8]),
        ] {
            let a = reused.sample(g, &seeds, &[3, 2], &mut r1);
            let b = NeighborSampler::new(g.n()).sample(g, &seeds, &[3, 2], &mut r2);
            assert_eq!(a.nodes, b.nodes);
            assert_eq!(a.num_seeds, b.num_seeds);
            assert_eq!(a.truncated, b.truncated);
            assert!(a.topo.edges().eq(b.topo.edges()));
        }
    }

    #[test]
    fn scratch_reuse_does_not_leak_between_steps() {
        let g = grid(4, 4);
        let mut sampler = NeighborSampler::new(g.n());
        let mut rng = StdRng::seed_from_u64(4);
        let first = sampler.sample(&g, &[0], &[2, 2], &mut rng);
        let second = sampler.sample(&g, &[15], &[2, 2], &mut rng);
        // fresh sample must not contain marks or locals from the first
        assert!(second.nodes.iter().all(|&gl| {
            let mut fresh = NeighborSampler::new(g.n());
            let mut r = StdRng::seed_from_u64(99);
            // membership sanity: every node is within 2 hops of seed 15
            fresh
                .sample(&g, &[15], &[100, 100], &mut r)
                .nodes
                .contains(&gl)
        }));
        assert_eq!(first.nodes[0], 0);
        assert_eq!(second.nodes[0], 15);
    }
}
