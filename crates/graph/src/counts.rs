//! The subgraph counts matched by the moment-based estimator.
//!
//! Gleich & Owen's estimator (and therefore the paper's private estimator) matches four observed
//! statistics of the graph against their expectations under the stochastic Kronecker model
//! (Section 3.4):
//!
//! * `E` — the number of edges,
//! * `H` — the number of *hairpins* (2-stars / wedges): unordered pairs of distinct edges
//!   sharing an endpoint, `Σ_i C(d_i, 2)`,
//! * `T` — the number of *tripins* (3-stars): `Σ_i C(d_i, 3)`,
//! * `Δ` — the number of triangles.
//!
//! `E`, `H` and `T` are functions of the degree sequence, which is why the paper can derive
//! their private approximations from a private degree sequence (Fact 4.6). The triangle count is
//! not, which is why it gets the smooth-sensitivity treatment; the per-pair common-neighbour
//! counts exposed here are exactly what that computation needs.
//!
//! That release needs both `LS_Δ = max_{ij} a_ij` and `Δ`, and both fall out of the same
//! common-neighbour counters, so [`triangle_wedge_stats`] computes them in **one** wedge pass.
//! The kernel itself is uncached; [`Graph::wedge_stats`] memoises its result on the immutable
//! graph, so repeated releases on one stored graph pay for the pass only once.

use crate::graph::Graph;
use kronpriv_json::impl_json_struct;
use kronpriv_par::{Executor, Work};

/// Edges per work chunk for the edge-partitioned kernels. Fixed (never derived from the thread
/// count) so chunk boundaries — and therefore results — are identical for any [`Executor`];
/// sized so one chunk (~a thousand sorted-list intersections) amortizes a pool handoff.
const EDGE_CHUNK: usize = 1024;

/// Cost hint for the edge-partitioned triangle kernels: one sorted-neighbour intersection per
/// edge, a short data-dependent scan.
const EDGE_WORK: Work = Work::MODERATE;

/// Left endpoints (`i` below) per work chunk for the node-partitioned wedge kernel. Fixed —
/// never derived from the thread count — so the `max`-merge is over the same chunk set for any
/// [`Executor`]; sized so one chunk carries enough wedge work to amortize a pool handoff.
const NODE_CHUNK: usize = 256;

/// Cost hint for one left endpoint of the wedge kernel: a two-hop scan, roughly the squared
/// average degree in neighbour-list steps. A pure function of the graph shape, as the
/// executor's sequential cutoff requires.
fn wedge_work(g: &Graph) -> Work {
    let n = g.node_count().max(1) as u64;
    let avg_degree = (2 * g.edge_count() as u64).div_ceil(n);
    Work::per_item_ns(2 * avg_degree * avg_degree)
}

/// The four observed statistics `(E, H, T, Δ)` used for moment matching.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchingStatistics {
    /// Number of undirected edges.
    pub edges: f64,
    /// Number of hairpins (wedges / 2-stars).
    pub hairpins: f64,
    /// Number of tripins (3-stars).
    pub tripins: f64,
    /// Number of triangles.
    pub triangles: f64,
}

impl_json_struct!(MatchingStatistics { edges, hairpins, tripins, triangles });

impl MatchingStatistics {
    /// Computes all four statistics of `g` exactly.
    pub fn of_graph(g: &Graph) -> Self {
        let degrees = g.degrees();
        MatchingStatistics {
            edges: g.edge_count() as f64,
            hairpins: hairpin_count(&degrees),
            tripins: tripin_count(&degrees),
            triangles: triangle_count(g) as f64,
        }
    }

    /// Derives the three degree-based statistics `(E, H, T)` from a (possibly noisy, possibly
    /// non-integral) degree sequence, exactly as the paper does from the private degree sequence:
    /// `E = ½ Σ d_i`, `H = ½ Σ d_i (d_i − 1)`, `T = ⅙ Σ d_i (d_i − 1)(d_i − 2)`.
    ///
    /// The triangle count cannot be derived from degrees; the caller must supply it (here it is
    /// set to `triangles`).
    pub fn from_degree_sequence(degrees: &[f64], triangles: f64) -> Self {
        let edges = 0.5 * degrees.iter().sum::<f64>();
        let hairpins = 0.5 * degrees.iter().map(|d| d * (d - 1.0)).sum::<f64>();
        let tripins = degrees.iter().map(|d| d * (d - 1.0) * (d - 2.0)).sum::<f64>() / 6.0;
        MatchingStatistics { edges, hairpins, tripins, triangles }
    }

    /// Returns the statistics as an `[E, H, Δ, T]` array (the order used by the fitting code).
    pub fn as_array(&self) -> [f64; 4] {
        [self.edges, self.hairpins, self.triangles, self.tripins]
    }
}

/// Number of hairpins (wedges) from a degree sequence: `Σ C(d_i, 2)`.
///
/// Each term is accumulated in `f64` from the start: the integer product `d·(d−1)` overflows
/// `usize` for hub degrees ≳ 2³² on 64-bit targets and already at `d ≈ 65'000` on 32-bit ones,
/// whereas `f64` represents the binomials of any realistic degree to full relative precision.
pub fn hairpin_count(degrees: &[usize]) -> f64 {
    degrees
        .iter()
        .map(|&d| {
            let d = d as f64;
            d * (d - 1.0) / 2.0
        })
        .sum()
}

/// Number of tripins (3-stars) from a degree sequence: `Σ C(d_i, 3)`.
///
/// Accumulated in `f64` like [`hairpin_count`]: the integer product `d·(d−1)·(d−2)` overflows
/// `usize` for hub degrees ≳ 2.6 million (and on 32-bit targets at `d ≈ 1'626`). Degrees 0–2
/// contribute exactly 0.0 because one factor is exactly zero.
pub fn tripin_count(degrees: &[usize]) -> f64 {
    degrees
        .iter()
        .map(|&d| {
            let d = d as f64;
            d * (d - 1.0) * (d - 2.0) / 6.0
        })
        .sum()
}

/// Exact number of triangles in `g`.
///
/// Uses the standard "forward" algorithm: for every edge `{u, v}` with `u < v`, count common
/// neighbours `w > v` by merging the two full sorted neighbour lists. Runtime is
/// `O(Σ_e (d_u + d_v)) = O(Σ_v d_v²)`, comfortably fast for the graphs the paper evaluates.
// lint:source(sensitive)
pub fn triangle_count(g: &Graph) -> u64 {
    triangle_count_par(g, &Executor::sequential())
}

/// [`triangle_count`] on `exec`'s compute threads, edge-partitioned: each fixed chunk of
/// the canonical edge list sums its common-neighbour counts independently and the partial sums
/// are combined in chunk order, so the result equals the sequential count for any thread count.
// lint:source(sensitive)
pub fn triangle_count_par(g: &Graph, exec: &Executor) -> u64 {
    let edges = g.edges();
    exec.map_reduce(
        edges.len(),
        EDGE_CHUNK,
        EDGE_WORK,
        |range| {
            edges[range].iter().map(|&(u, v)| count_common_neighbors_above(g, u, v, v)).sum::<u64>()
        },
        |acc: u64, partial| acc + partial,
        0,
    )
}

/// What one wedge pass over the graph yields: the inputs of the triangle release.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WedgeStats {
    /// The local sensitivity `LS_Δ(G) = max_{ij} a_ij`: the largest number of common
    /// neighbours over all node pairs.
    pub local_sensitivity: usize,
    /// The exact triangle count `Δ` — sensitive: it only ever leaves the workspace through the
    /// noisy release.
    pub triangles: u64,
}

/// The local sensitivity **and** the exact triangle count of `g` in one wedge pass on `exec`'s
/// compute threads: `O(Σ_v d_v²)` time, `threads × O(n)` memory. Always runs the pass; see
/// [`Graph::wedge_stats`] for the memoised read.
///
/// Node-partitioned: each participant owns one `O(n)` counter/touched-list scratch pair and,
/// for every left endpoint `i` in its chunks, accumulates `a_ij` for all `j > i` by walking the
/// two-hop neighbourhood of `i` (`i — v — j` wedges). The counters then give both statistics
/// before they are reset: `LS_Δ` is the max over the touched counters, and summing the counters
/// of `i`'s own neighbours `j > i` adds `a_ij` once per edge — every triangle is seen from each
/// of its three edges, so `Δ` is a third of the total. Both merges are exact integer `max`/sum,
/// so the result is identical for any thread count.
// lint:source(sensitive)
pub fn triangle_wedge_stats(g: &Graph, exec: &Executor) -> WedgeStats {
    let n = g.node_count();
    let (local_sensitivity, wedge_closures, _, _) = exec.fold_reduce(
        n,
        NODE_CHUNK,
        wedge_work(g),
        // (running max, closed-wedge sum, counters indexed by j, touched-j list for the reset).
        || (0usize, 0u64, vec![0u32; n], Vec::<u32>::new()),
        |(best, closures, counts, touched), left_endpoints| {
            for i in left_endpoints {
                let i = i as u32;
                for &v in g.neighbors(i) {
                    let two_hop = g.neighbors(v);
                    // Neighbour lists are sorted: skip straight to the j > i suffix so each
                    // unordered pair {i, j} is counted from its smaller endpoint only.
                    let start = two_hop.partition_point(|&j| j <= i);
                    for &j in &two_hop[start..] {
                        if counts[j as usize] == 0 {
                            touched.push(j);
                        }
                        counts[j as usize] += 1;
                    }
                }
                let own = g.neighbors(i);
                let above = own.partition_point(|&j| j <= i);
                for &j in &own[above..] {
                    *closures += u64::from(counts[j as usize]);
                }
                for &j in touched.iter() {
                    *best = (*best).max(counts[j as usize] as usize);
                    counts[j as usize] = 0;
                }
                touched.clear();
            }
        },
        |a, b| (a.0.max(b.0), a.1 + b.1, a.2, a.3),
    );
    WedgeStats { local_sensitivity, triangles: wedge_closures / 3 }
}

/// Number of triangles incident to each node.
pub fn per_node_triangles(g: &Graph) -> Vec<u64> {
    per_node_triangles_par(g, &Executor::sequential())
}

/// [`per_node_triangles`] on `exec`'s compute threads. Edge-partitioned with one `O(n)`
/// counter array per participant; the per-participant arrays are merged element-wise, which is
/// exact (integer sums), so the result is identical for any thread count.
pub fn per_node_triangles_par(g: &Graph, exec: &Executor) -> Vec<u64> {
    let edges = g.edges();
    let n = g.node_count();
    exec.fold_reduce(
        edges.len(),
        EDGE_CHUNK,
        EDGE_WORK,
        || vec![0u64; n],
        |counts, range| {
            for &(u, v) in &edges[range] {
                let (mut i, mut j) = (0usize, 0usize);
                let (nu, nv) = (g.neighbors(u), g.neighbors(v));
                while i < nu.len() && j < nv.len() {
                    match nu[i].cmp(&nv[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            let w = nu[i];
                            if w > v {
                                counts[u as usize] += 1;
                                counts[v as usize] += 1;
                                counts[w as usize] += 1;
                            }
                            i += 1;
                            j += 1;
                        }
                    }
                }
            }
        },
        |mut a, b| {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
            a
        },
    )
}

/// Number of common neighbours of `u` and `v` (the quantity `a_{ij}` in the smooth-sensitivity
/// analysis of the triangle count: adding or removing the edge `{u, v}` changes `Δ` by exactly
/// this amount).
pub fn common_neighbor_count(g: &Graph, u: u32, v: u32) -> usize {
    intersect_sorted(g.neighbors(u), g.neighbors(v))
}

/// Number of nodes adjacent to exactly one of `u`, `v`, excluding `u` and `v` themselves (the
/// quantity `b_{ij}` in the smooth-sensitivity analysis).
pub fn exclusive_neighbor_count(g: &Graph, u: u32, v: u32) -> usize {
    let nu = g.neighbors(u);
    let nv = g.neighbors(v);
    let common = intersect_sorted(nu, nv);
    let mut only = nu.len() + nv.len() - 2 * common;
    // Do not count u or v themselves: if {u,v} is an edge, v appears in N(u) and u in N(v) and
    // both belong to the symmetric difference.
    if nu.contains(&v) {
        only -= 1;
    }
    if nv.contains(&u) {
        only -= 1;
    }
    only
}

/// The largest common-neighbour count over all (ordered once) node pairs. This is the local
/// sensitivity of the triangle count (Definition 4.3 instantiated for `Δ`).
pub fn max_common_neighbors(g: &Graph) -> usize {
    let n = g.node_count() as u32;
    let mut best = 0usize;
    for u in 0..n {
        for v in (u + 1)..n {
            best = best.max(common_neighbor_count(g, u, v));
        }
    }
    best
}

fn intersect_sorted(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut count) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

fn count_common_neighbors_above(g: &Graph, u: u32, v: u32, floor: u32) -> u64 {
    let nu = g.neighbors(u);
    let nv = g.neighbors(v);
    let (mut i, mut j, mut count) = (0usize, 0usize, 0u64);
    while i < nu.len() && j < nv.len() {
        match nu[i].cmp(&nv[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                if nu[i] > floor {
                    count += 1;
                }
                i += 1;
                j += 1;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::rand_edges;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn complete_graph(n: usize) -> Graph {
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                edges.push((u, v));
            }
        }
        Graph::from_edges(n, edges)
    }

    fn star_graph(leaves: usize) -> Graph {
        Graph::from_edges(leaves + 1, (1..=leaves as u32).map(|v| (0, v)))
    }

    #[test]
    fn triangle_count_of_complete_graphs() {
        // K_n has C(n,3) triangles.
        assert_eq!(triangle_count(&complete_graph(3)), 1);
        assert_eq!(triangle_count(&complete_graph(4)), 4);
        assert_eq!(triangle_count(&complete_graph(5)), 10);
        assert_eq!(triangle_count(&complete_graph(6)), 20);
    }

    #[test]
    fn triangle_count_of_triangle_free_graphs() {
        assert_eq!(triangle_count(&star_graph(10)), 0);
        let path = Graph::from_edges(5, (0..4u32).map(|i| (i, i + 1)));
        assert_eq!(triangle_count(&path), 0);
    }

    #[test]
    fn hairpin_count_of_star_is_choose_two() {
        // Star with c leaves: hub degree c, so C(c,2) wedges.
        let g = star_graph(6);
        let stats = MatchingStatistics::of_graph(&g);
        assert_eq!(stats.hairpins, 15.0);
        assert_eq!(stats.tripins, 20.0);
        assert_eq!(stats.edges, 6.0);
        assert_eq!(stats.triangles, 0.0);
    }

    #[test]
    fn statistics_of_complete_graph_match_binomials() {
        let n = 7usize;
        let g = complete_graph(n);
        let stats = MatchingStatistics::of_graph(&g);
        let c2 = (n * (n - 1) / 2) as f64;
        assert_eq!(stats.edges, c2);
        // Each node has degree n-1: H = n * C(n-1, 2), T = n * C(n-1, 3).
        assert_eq!(stats.hairpins, (n * (n - 1) * (n - 2) / 2) as f64);
        assert_eq!(stats.tripins, (n * (n - 1) * (n - 2) * (n - 3) / 6) as f64);
        assert_eq!(stats.triangles, (n * (n - 1) * (n - 2) / 6) as f64);
    }

    #[test]
    fn from_degree_sequence_matches_of_graph_for_degree_statistics() {
        let g = complete_graph(6);
        let degrees: Vec<f64> = g.degrees().iter().map(|&d| d as f64).collect();
        let exact = MatchingStatistics::of_graph(&g);
        let derived = MatchingStatistics::from_degree_sequence(&degrees, exact.triangles);
        assert!((derived.edges - exact.edges).abs() < 1e-9);
        assert!((derived.hairpins - exact.hairpins).abs() < 1e-9);
        assert!((derived.tripins - exact.tripins).abs() < 1e-9);
    }

    #[test]
    fn per_node_triangles_sum_to_three_times_total() {
        let g = complete_graph(5);
        let per_node = per_node_triangles(&g);
        let total: u64 = per_node.iter().sum();
        assert_eq!(total, 3 * triangle_count(&g));
        // In K_5 every node participates in C(4,2) = 6 triangles.
        assert!(per_node.iter().all(|&c| c == 6));
    }

    #[test]
    fn common_neighbors_of_triangle_edge() {
        let g = Graph::from_edges(4, vec![(0, 1), (1, 2), (2, 0), (2, 3)]);
        assert_eq!(common_neighbor_count(&g, 0, 1), 1);
        assert_eq!(common_neighbor_count(&g, 0, 3), 1);
        assert_eq!(common_neighbor_count(&g, 1, 3), 1);
        assert_eq!(common_neighbor_count(&g, 0, 2), 1);
    }

    #[test]
    fn exclusive_neighbors_exclude_the_pair_itself() {
        // Path 0-1-2: N(0)={1}, N(2)={1}: common=1, exclusive=0.
        let g = Graph::from_edges(3, vec![(0, 1), (1, 2)]);
        assert_eq!(exclusive_neighbor_count(&g, 0, 2), 0);
        // Pair (0,1): N(0)={1}, N(1)={0,2}. Excluding u,v themselves leaves just node 2.
        assert_eq!(exclusive_neighbor_count(&g, 0, 1), 1);
    }

    #[test]
    fn max_common_neighbors_of_complete_graph() {
        // Any pair in K_n has n-2 common neighbours.
        assert_eq!(max_common_neighbors(&complete_graph(6)), 4);
        assert_eq!(max_common_neighbors(&star_graph(5)), 1);
    }

    #[test]
    fn empty_graph_has_zero_counts() {
        let g = Graph::empty(4);
        let stats = MatchingStatistics::of_graph(&g);
        assert_eq!(stats.as_array(), [0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn adding_an_edge_increases_triangles_by_common_neighbors() {
        // This is the identity the local sensitivity argument relies on.
        let g = complete_graph(5).with_edge_removed(0, 1);
        let common = common_neighbor_count(&g, 0, 1);
        let before = triangle_count(&g);
        let after = triangle_count(&g.with_edge_added(0, 1));
        assert_eq!(after - before, common as u64);
    }

    #[test]
    fn hairpin_and_tripin_counts_survive_hub_degrees_past_the_usize_product_range() {
        // d·(d−1)·(d−2) overflows u64 (and wraps/panics in usize) for d ≳ 2.6M; the f64
        // accumulation must instead return the exact binomial. 3·10⁶ is a plausible hub degree
        // for the "millions of users" graphs the roadmap targets.
        let d = 3_000_000usize;
        let df = d as f64;
        assert_eq!(hairpin_count(&[d]), df * (df - 1.0) / 2.0);
        assert_eq!(tripin_count(&[d]), df * (df - 1.0) * (df - 2.0) / 6.0);
        assert!(tripin_count(&[d]) > 4.4e18, "must exceed u64::MAX/4 territory");
        // Small degrees keep their exact closed forms (and degrees 0–2 contribute nothing).
        assert_eq!(hairpin_count(&[0, 1, 2, 3]), 1.0 + 3.0);
        assert_eq!(tripin_count(&[0, 1, 2, 3, 4]), 1.0 + 4.0);
    }

    #[test]
    fn parallel_triangle_kernels_match_sequential_for_any_thread_count() {
        let mut rng = StdRng::seed_from_u64(0xC0_7004);
        for _ in 0..8 {
            let edges = rand_edges(&mut rng, 60, 600);
            let g = Graph::from_edges(60, edges);
            let count = triangle_count(&g);
            let per_node = per_node_triangles(&g);
            for threads in [1usize, 2, 8] {
                let exec = Executor::new(threads);
                assert_eq!(triangle_count_par(&g, &exec), count, "threads {threads}");
                assert_eq!(per_node_triangles_par(&g, &exec), per_node, "threads {threads}");
            }
        }
    }

    // Former proptest properties, now deterministic seeded loops.
    #[test]
    fn handshake_and_wedge_identities() {
        let mut rng = StdRng::seed_from_u64(0xC0_7001);
        for _ in 0..128 {
            let edges = rand_edges(&mut rng, 25, 150);
            let g = Graph::from_edges(25, edges);
            let stats = MatchingStatistics::of_graph(&g);
            let degrees = g.degrees();
            let degree_sum: usize = degrees.iter().sum();
            assert_eq!(degree_sum as f64, 2.0 * stats.edges);
            // Triangles can never exceed wedges / 3 is not an identity, but Δ ≤ H/3 *is*
            // (every triangle contains exactly 3 wedges).
            assert!(3.0 * stats.triangles <= stats.hairpins + 1e-9);
        }
    }

    #[test]
    fn edge_removal_changes_triangles_by_common_neighbors() {
        let mut rng = StdRng::seed_from_u64(0xC0_7002);
        for _ in 0..128 {
            let mut edges = rand_edges(&mut rng, 12, 60);
            if edges.is_empty() {
                edges.push((rng.gen_range(0..12), rng.gen_range(0..12)));
            }
            let g = Graph::from_edges(12, edges);
            if let Some(&(u, v)) = g.edges().first() {
                let expected_drop = common_neighbor_count(&g, u, v) as i64;
                let before = triangle_count(&g) as i64;
                let after = triangle_count(&g.with_edge_removed(u, v)) as i64;
                assert_eq!(before - after, expected_drop);
            }
        }
    }

    #[test]
    fn per_node_triangle_sum_is_three_times_count() {
        let mut rng = StdRng::seed_from_u64(0xC0_7003);
        for _ in 0..128 {
            let edges = rand_edges(&mut rng, 15, 80);
            let g = Graph::from_edges(15, edges);
            let total: u64 = per_node_triangles(&g).iter().sum();
            assert_eq!(total, 3 * triangle_count(&g));
        }
    }
}
