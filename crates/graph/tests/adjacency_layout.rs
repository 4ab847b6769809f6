//! The graph stores every neighbour index once. `neighbors(u)` is the index
//! column of `u`'s three-column row, the same memory `scan_block(u)` hands
//! the greedy walk, and `heap_bytes()` counts 12 B per directed edge: 8 B of
//! `f32` coordinates and one 4 B index.

use geogossip_geometry::point::NodeId;
use geogossip_geometry::sampling::sample_unit_square;
use geogossip_geometry::{connectivity_radius, Topology};
use geogossip_graph::GeometricGraph;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Both builds on both topologies, at the connectivity radius.
fn graphs() -> Vec<(String, GeometricGraph)> {
    let n = 600;
    let radius = connectivity_radius(n, 1.5);
    let mut out = Vec::new();
    for topology in [Topology::UnitSquare, Topology::Torus] {
        let pts = sample_unit_square(n, &mut ChaCha8Rng::seed_from_u64(31));
        out.push((
            format!("{topology:?} build"),
            GeometricGraph::build_with_topology(pts.clone(), radius, topology),
        ));
        out.push((
            format!("{topology:?} reference build"),
            GeometricGraph::build_reference(pts, radius, topology),
        ));
    }
    out
}

#[test]
fn neighbors_are_the_scan_rows_index_column() {
    for (label, g) in graphs() {
        let mut rows = 0;
        for u in (0..g.len()).map(NodeId) {
            let nbrs = g.neighbors(u);
            if nbrs.is_empty() {
                continue;
            }
            rows += 1;
            let (xs, ys, idx) = g.scan_block(u);
            assert_eq!(nbrs.as_ptr(), idx.as_ptr(), "{label}: row {u:?} is a copy");
            assert_eq!(nbrs.len(), idx.len(), "{label}: row {u:?}");
            assert_eq!(xs.len(), nbrs.len(), "{label}: row {u:?}");
            assert_eq!(ys.len(), nbrs.len(), "{label}: row {u:?}");
            let csr = g.adjacency().neighbors(u.index());
            assert_eq!(
                csr.as_ptr(),
                idx.as_ptr(),
                "{label}: CSR row {u:?} is a copy"
            );
            assert_eq!(csr.len(), idx.len(), "{label}: CSR row {u:?}");
        }
        assert!(rows > 0, "{label}: no non-empty row was checked");
    }
}

#[test]
fn heap_bytes_count_twelve_bytes_per_directed_edge() {
    for (label, g) in graphs() {
        let n = g.len();
        let m = g.adjacency().entry_count();
        let cells = g.grid().cell_count();
        assert!(m > 0, "{label}: no edges");
        assert_eq!(
            g.heap_bytes(),
            16 * n + 12 * m + 4 * (n + 1) + 4 * (cells + 1 + n),
            "{label}: n = {n}, m = {m}, cells = {cells}"
        );
    }
}
