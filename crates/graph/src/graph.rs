//! The simple undirected graph type and its builder.
//!
//! Section 3.2 of the paper defines how a (possibly directed, possibly loopy) realization of a
//! stochastic Kronecker matrix is turned into the undirected simple graph that is actually
//! modelled: self-loops are dropped and the adjacency is symmetrised. [`GraphBuilder`] performs
//! exactly those cleaning steps for arbitrary edge input, so every graph in the workspace is a
//! simple undirected graph by construction.

use crate::counts::{triangle_wedge_stats, WedgeStats};
use kronpriv_par::Executor;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::OnceLock;

/// An immutable simple undirected graph.
///
/// Nodes are `0..node_count()`. Neighbour lists are sorted, contain no duplicates and no
/// self-loops. Each undirected edge `{u, v}` is stored once in [`Graph::edges`] (with `u < v`)
/// and appears in both adjacency lists.
///
/// Equality and `Debug` cover the structure only, never the [`Graph::wedge_stats`] memo: two
/// graphs with the same edges are equal whether or not either has been released, and the exact
/// triangle count in the memo is never printed.
#[derive(Clone)]
pub struct Graph {
    /// CSR offsets into `adjacency`, length `node_count() + 1`.
    offsets: Vec<usize>,
    /// Concatenated sorted neighbour lists.
    adjacency: Vec<u32>,
    /// Canonical edge list with `u < v`.
    edges: Vec<(u32, u32)>,
    /// The first [`Graph::wedge_stats`] result. Every edit builds a new `Graph`, so the memo
    /// can never describe other edges than these.
    wedge_stats: OnceLock<WedgeStats>,
}

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.offsets == other.offsets
            && self.adjacency == other.adjacency
            && self.edges == other.edges
    }
}

impl Eq for Graph {}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("offsets", &self.offsets)
            .field("adjacency", &self.adjacency)
            .field("edges", &self.edges)
            .finish_non_exhaustive()
    }
}

impl Graph {
    /// Creates an empty graph with `n` isolated nodes.
    pub fn empty(n: usize) -> Self {
        GraphBuilder::new(n).build()
    }

    /// Builds a graph directly from an iterator of undirected edges. Self-loops and duplicates
    /// are discarded; node count is `n`.
    ///
    /// # Panics
    /// Panics if any endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (u32, u32)>) -> Self {
        let mut builder = GraphBuilder::new(n);
        for (u, v) in edges {
            builder.add_edge(u, v);
        }
        builder.build()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The canonical edge list (each edge once, endpoints ordered `u < v`).
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Sorted neighbour list of `u`.
    ///
    /// # Panics
    /// Panics if `u` is out of range.
    pub fn neighbors(&self, u: u32) -> &[u32] {
        let u = u as usize;
        &self.adjacency[self.offsets[u]..self.offsets[u + 1]]
    }

    /// Degree of node `u`.
    pub fn degree(&self, u: u32) -> usize {
        self.neighbors(u).len()
    }

    /// Degree of every node, indexed by node id.
    pub fn degrees(&self) -> Vec<usize> {
        (0..self.node_count() as u32).map(|u| self.degree(u)).collect()
    }

    /// Whether the undirected edge `{u, v}` is present.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        if u as usize >= self.node_count() || v as usize >= self.node_count() {
            return false;
        }
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Maximum degree (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.node_count() as u32).map(|u| self.degree(u)).max().unwrap_or(0)
    }

    /// Average degree `2E / N` (0.0 for a graph with no nodes).
    pub fn average_degree(&self) -> f64 {
        if self.node_count() == 0 {
            0.0
        } else {
            2.0 * self.edge_count() as f64 / self.node_count() as f64
        }
    }

    /// The local sensitivity and exact triangle count of this graph ([`triangle_wedge_stats`]),
    /// computed on `exec` by the first call and read from a memo by every later one. The memo
    /// holds only these two noise-free integers, so a release that adds fresh noise to them is
    /// byte-identical whether the memo was cold or warm.
    // lint:source(sensitive)
    pub fn wedge_stats(&self, exec: &Executor) -> WedgeStats {
        *self.wedge_stats.get_or_init(|| triangle_wedge_stats(self, exec))
    }

    /// Iterates over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = u32> {
        0..self.node_count() as u32
    }

    /// Returns the subgraph induced on `nodes` (relabelled `0..nodes.len()` in the given order),
    /// together with the mapping from new ids to old ids.
    pub fn induced_subgraph(&self, nodes: &[u32]) -> (Graph, Vec<u32>) {
        let mut new_id = vec![u32::MAX; self.node_count()];
        for (new, &old) in nodes.iter().enumerate() {
            new_id[old as usize] = new as u32;
        }
        let mut builder = GraphBuilder::new(nodes.len());
        for &(u, v) in &self.edges {
            let (nu, nv) = (new_id[u as usize], new_id[v as usize]);
            if nu != u32::MAX && nv != u32::MAX {
                builder.add_edge(nu, nv);
            }
        }
        (builder.build(), nodes.to_vec())
    }

    /// Returns a copy of the graph with the undirected edge `{u, v}` added (no-op if present or
    /// if `u == v`). Used by sensitivity analyses that explore edge-neighbouring graphs
    /// (Definition 4.1).
    pub fn with_edge_added(&self, u: u32, v: u32) -> Graph {
        let mut edges = self.edges.clone();
        edges.push((u.min(v), u.max(v)));
        Graph::from_edges(self.node_count(), edges)
    }

    /// Returns a copy of the graph with the undirected edge `{u, v}` removed (no-op if absent).
    pub fn with_edge_removed(&self, u: u32, v: u32) -> Graph {
        let key = (u.min(v), u.max(v));
        let edges: Vec<(u32, u32)> = self.edges.iter().copied().filter(|&e| e != key).collect();
        Graph::from_edges(self.node_count(), edges)
    }
}

/// Accumulates edges and produces a cleaned [`Graph`].
///
/// Cleaning mirrors Section 3.2 of the paper: direction is ignored, self-loops are dropped, and
/// parallel edges collapse to one.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: BTreeSet<(u32, u32)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` nodes.
    pub fn new(n: usize) -> Self {
        GraphBuilder { n, edges: BTreeSet::new() }
    }

    /// Adds the undirected edge `{u, v}`. Self-loops are silently ignored. Returns `true` iff
    /// the edge was new (not a self-loop and not already present), so samplers that count
    /// distinct edges can use the builder as their only store instead of keeping a parallel
    /// dedup set.
    ///
    /// # Panics
    /// Panics if an endpoint is `>= n`.
    pub fn add_edge(&mut self, u: u32, v: u32) -> bool {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u},{v}) out of bounds for {} nodes",
            self.n
        );
        if u == v {
            return false;
        }
        self.edges.insert((u.min(v), u.max(v)))
    }

    /// Number of distinct undirected edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Finalises the builder into an immutable [`Graph`].
    pub fn build(self) -> Graph {
        let edges: Vec<(u32, u32)> = self.edges.into_iter().collect();
        let mut degree = vec![0usize; self.n];
        for &(u, v) in &edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = vec![0usize; self.n + 1];
        for i in 0..self.n {
            offsets[i + 1] = offsets[i] + degree[i];
        }
        let mut adjacency = vec![0u32; offsets[self.n]];
        let mut cursor = offsets.clone();
        for &(u, v) in &edges {
            adjacency[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            adjacency[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        for i in 0..self.n {
            adjacency[offsets[i]..offsets[i + 1]].sort_unstable();
        }
        Graph { offsets, adjacency, edges, wedge_stats: OnceLock::new() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counts::{max_common_neighbors, triangle_count};
    use crate::test_support::rand_edges;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn triangle_plus_tail() -> Graph {
        // 0-1, 1-2, 2-0 triangle with a tail 2-3.
        Graph::from_edges(4, vec![(0, 1), (1, 2), (2, 0), (2, 3)])
    }

    #[test]
    fn empty_graph_has_no_edges() {
        let g = Graph::empty(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert!(g.neighbors(3).is_empty());
    }

    #[test]
    fn node_and_edge_counts() {
        let g = triangle_plus_tail();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn neighbors_are_sorted_and_symmetric() {
        let g = triangle_plus_tail();
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.neighbors(3), &[2]);
        for &(u, v) in g.edges() {
            assert!(g.has_edge(u, v));
            assert!(g.has_edge(v, u));
        }
    }

    #[test]
    fn self_loops_are_dropped() {
        let g = Graph::from_edges(3, vec![(0, 0), (1, 1), (0, 1)]);
        assert_eq!(g.edge_count(), 1);
        assert!(!g.has_edge(0, 0));
    }

    #[test]
    fn duplicate_and_reversed_edges_collapse() {
        let g = Graph::from_edges(3, vec![(0, 1), (1, 0), (0, 1), (2, 1), (1, 2)]);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn degrees_match_adjacency() {
        let g = triangle_plus_tail();
        assert_eq!(g.degrees(), vec![2, 2, 3, 1]);
        assert_eq!(g.max_degree(), 3);
        assert!((g.average_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn has_edge_is_false_for_out_of_range_nodes() {
        let g = triangle_plus_tail();
        assert!(!g.has_edge(0, 17));
        assert!(!g.has_edge(17, 0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn builder_rejects_out_of_range_edge() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2);
    }

    #[test]
    fn add_edge_reports_whether_the_edge_was_new() {
        let mut b = GraphBuilder::new(3);
        assert!(b.add_edge(0, 1), "first insertion is new");
        assert!(!b.add_edge(1, 0), "reversed duplicate is not");
        assert!(!b.add_edge(0, 1), "exact duplicate is not");
        assert!(!b.add_edge(2, 2), "self-loop is dropped");
        assert!(b.add_edge(1, 2));
        assert_eq!(b.edge_count(), 2);
    }

    #[test]
    fn edges_are_canonical_and_unique() {
        let g = triangle_plus_tail();
        for &(u, v) in g.edges() {
            assert!(u < v);
        }
        let set: BTreeSet<_> = g.edges().iter().collect();
        assert_eq!(set.len(), g.edge_count());
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = triangle_plus_tail();
        let (sub, map) = g.induced_subgraph(&[0, 1, 2]);
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.edge_count(), 3);
        assert_eq!(map, vec![0, 1, 2]);
        let (sub2, _) = g.induced_subgraph(&[2, 3]);
        assert_eq!(sub2.edge_count(), 1);
    }

    #[test]
    fn with_edge_added_and_removed_are_inverse_operations() {
        let g = triangle_plus_tail();
        let g2 = g.with_edge_added(0, 3);
        assert_eq!(g2.edge_count(), g.edge_count() + 1);
        assert!(g2.has_edge(0, 3));
        let g3 = g2.with_edge_removed(3, 0);
        assert_eq!(g3, g);
    }

    #[test]
    fn with_edge_added_is_noop_for_existing_edge_or_loop() {
        let g = triangle_plus_tail();
        assert_eq!(g.with_edge_added(0, 1), g);
        assert_eq!(g.with_edge_added(2, 2), g);
    }

    #[test]
    fn sum_of_degrees_is_twice_edges() {
        let g = triangle_plus_tail();
        let sum: usize = g.degrees().iter().sum();
        assert_eq!(sum, 2 * g.edge_count());
    }

    // Former proptest properties, now deterministic seeded loops.
    #[test]
    fn builder_always_produces_simple_symmetric_graph() {
        let mut rng = StdRng::seed_from_u64(0x62_7001);
        for _ in 0..128 {
            let edges = rand_edges(&mut rng, 30, 200);
            let g = Graph::from_edges(30, edges);
            // No self loops, all neighbour lists sorted and duplicate-free, symmetry holds.
            for u in g.nodes() {
                let nbrs = g.neighbors(u);
                assert!(nbrs.windows(2).all(|w| w[0] < w[1]));
                assert!(!nbrs.contains(&u));
                for &v in nbrs {
                    assert!(g.neighbors(v).contains(&u));
                }
            }
            let degree_sum: usize = g.degrees().iter().sum();
            assert_eq!(degree_sum, 2 * g.edge_count());
        }
    }

    #[test]
    fn edge_addition_increases_count_by_at_most_one() {
        let mut rng = StdRng::seed_from_u64(0x62_7002);
        for _ in 0..128 {
            let edges = rand_edges(&mut rng, 15, 60);
            let extra = (rng.gen_range(0..15u32), rng.gen_range(0..15u32));
            let g = Graph::from_edges(15, edges);
            let g2 = g.with_edge_added(extra.0, extra.1);
            assert!(g2.edge_count() >= g.edge_count());
            assert!(g2.edge_count() <= g.edge_count() + 1);
        }
    }

    #[test]
    fn memoised_graph_equals_a_fresh_copy_and_clones_keep_the_stats() {
        let g = triangle_plus_tail();
        let stats = g.wedge_stats(&Executor::new(2));
        assert_eq!(stats, WedgeStats { local_sensitivity: 1, triangles: 1 });
        let fresh = triangle_plus_tail();
        assert!(fresh.wedge_stats.get().is_none());
        assert_eq!(g, fresh, "the memo is not part of equality");
        let clone = g.clone();
        assert_eq!(clone.wedge_stats.get(), Some(&stats), "a clone carries the memo");
        assert_eq!(clone.wedge_stats(&Executor::sequential()), stats);
    }

    #[test]
    fn edited_graphs_start_cold_and_count_their_own_edges() {
        let check = |edited: &Graph| {
            assert!(edited.wedge_stats.get().is_none(), "an edit must not inherit the memo");
            let stats = edited.wedge_stats(&Executor::sequential());
            assert_eq!(stats.triangles, triangle_count(edited));
            assert_eq!(stats.local_sensitivity, max_common_neighbors(edited));
            stats
        };
        // Closing 0–3 adds the triangle {0, 2, 3}; opening 0–1 breaks {0, 1, 2}.
        let g = triangle_plus_tail();
        g.wedge_stats(&Executor::sequential());
        assert_eq!(check(&g.with_edge_added(0, 3)).triangles, 2);
        assert_eq!(check(&g.with_edge_removed(0, 1)).triangles, 0);

        let mut rng = StdRng::seed_from_u64(0x62_7003);
        for _ in 0..32 {
            let g = Graph::from_edges(15, rand_edges(&mut rng, 15, 80));
            g.wedge_stats(&Executor::new(2));
            let (u, v) = (rng.gen_range(0..15u32), rng.gen_range(0..15u32));
            check(&g.with_edge_added(u, v));
            check(&g.with_edge_removed(u, v));
            if let Some(&(u, v)) = g.edges().first() {
                check(&g.with_edge_removed(u, v));
            }
        }
    }

    #[test]
    fn debug_output_never_shows_the_memo() {
        let g = Graph::from_edges(5, (0..5u32).flat_map(|u| (u + 1..5).map(move |v| (u, v))));
        assert_eq!(g.wedge_stats(&Executor::sequential()).triangles, 10);
        let printed = format!("{g:?}");
        assert!(!printed.contains("wedge_stats") && !printed.contains("triangles"), "{printed}");
        assert_eq!(printed, format!("{:?}", g.with_edge_added(0, 1)), "warm and cold print alike");
    }
}
