//! Hierarchical red/green adaptive refinement and coarsening.
//!
//! The scheme follows Biswas & Strawn's edge-based adaptation, specialised
//! to triangles: marked triangles mark their edges; a closure pass promotes
//! any triangle with two or more marked edges to fully-marked; triangles
//! with all three edges marked split 1:4 ("red"), triangles with exactly one
//! marked edge split 1:2 ("green"), so the result has no hanging nodes.
//! Coarsening reverses a whole sibling group when every child is marked and
//! no *other* active triangle still uses the parent's edge midpoints —
//! which keeps the mesh conforming in both directions.
//!
//! Triangles are never deleted: refinement deactivates the parent and
//! records its children, so the hierarchy supports cheap coarsening and
//! parent lookups (as the paper's remeshing code did).

use crate::geom::{self, Point2};
use crate::hash::{FxMap, FxSet};

/// Sentinel for "no parent".
const NONE: u32 = u32::MAX;

/// Canonical (undirected) edge key.
#[inline]
fn edge_key(a: u32, b: u32) -> (u32, u32) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Statistics returned by [`AdaptiveMesh::refine`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefineReport {
    /// Triangles split 1:4.
    pub reds: usize,
    /// Triangles split 1:2.
    pub greens: usize,
    /// New triangles created.
    pub new_tris: usize,
    /// New vertices created.
    pub new_verts: usize,
}

/// A hierarchical adaptive triangular mesh.
#[derive(Debug, Clone)]
pub struct AdaptiveMesh {
    /// Vertex coordinates (vertices are never removed).
    pub verts: Vec<Point2>,
    tris: Vec<[u32; 3]>,
    alive: Vec<bool>,
    parent: Vec<u32>,
    children: Vec<Vec<u32>>,
    level: Vec<u8>,
    /// Midpoint vertex registered per split edge.
    midpoints: FxMap<(u32, u32), u32>,
    base_area: f64,
}

impl AdaptiveMesh {
    /// A structured triangulation of the `width × height` rectangle with
    /// `nx × ny` cells (two triangles each).
    ///
    /// # Panics
    /// Panics if `nx` or `ny` is zero.
    pub fn structured(nx: usize, ny: usize, width: f64, height: f64) -> Self {
        assert!(nx > 0 && ny > 0, "mesh needs at least one cell");
        let mut verts = Vec::with_capacity((nx + 1) * (ny + 1));
        for j in 0..=ny {
            for i in 0..=nx {
                verts.push(Point2::new(
                    width * i as f64 / nx as f64,
                    height * j as f64 / ny as f64,
                ));
            }
        }
        let vid = |i: usize, j: usize| (j * (nx + 1) + i) as u32;
        let mut tris = Vec::with_capacity(2 * nx * ny);
        for j in 0..ny {
            for i in 0..nx {
                let (v00, v10) = (vid(i, j), vid(i + 1, j));
                let (v01, v11) = (vid(i, j + 1), vid(i + 1, j + 1));
                tris.push([v00, v10, v11]);
                tris.push([v00, v11, v01]);
            }
        }
        let n = tris.len();
        let mut mesh = AdaptiveMesh {
            verts,
            tris,
            alive: vec![true; n],
            parent: vec![NONE; n],
            children: vec![Vec::new(); n],
            level: vec![0; n],
            midpoints: FxMap::default(),
            base_area: width * height,
        };
        mesh.base_area = mesh.total_area();
        mesh
    }

    /// Total triangles ever created (including deactivated ancestors).
    pub fn num_tris_total(&self) -> usize {
        self.tris.len()
    }

    /// Number of active (leaf) triangles.
    pub fn num_active(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Indices of the active triangles, ascending.
    pub fn active_tris(&self) -> Vec<u32> {
        (0..self.tris.len() as u32)
            .filter(|&t| self.alive[t as usize])
            .collect()
    }

    /// Whether triangle `t` is active.
    pub fn is_active(&self, t: u32) -> bool {
        self.alive[t as usize]
    }

    /// Vertex indices of triangle `t`.
    pub fn tri(&self, t: u32) -> [u32; 3] {
        self.tris[t as usize]
    }

    /// Corner coordinates of triangle `t`.
    pub fn tri_points(&self, t: u32) -> [Point2; 3] {
        let [a, b, c] = self.tris[t as usize];
        [
            self.verts[a as usize],
            self.verts[b as usize],
            self.verts[c as usize],
        ]
    }

    /// Centroid of triangle `t`.
    pub fn centroid_of(&self, t: u32) -> Point2 {
        let [a, b, c] = self.tri_points(t);
        geom::centroid(&a, &b, &c)
    }

    /// Area of triangle `t`.
    pub fn area_of(&self, t: u32) -> f64 {
        let [a, b, c] = self.tri_points(t);
        geom::area(&a, &b, &c)
    }

    /// Refinement level of triangle `t` (0 for the base mesh).
    pub fn level_of(&self, t: u32) -> u8 {
        self.level[t as usize]
    }

    /// Parent of triangle `t`, if any.
    pub fn parent_of(&self, t: u32) -> Option<u32> {
        let p = self.parent[t as usize];
        (p != NONE).then_some(p)
    }

    /// Sum of active triangle areas.
    pub fn total_area(&self) -> f64 {
        self.active_tris().iter().map(|&t| self.area_of(t)).sum()
    }

    /// Area of the base mesh (conserved by adaptation).
    pub fn base_area(&self) -> f64 {
        self.base_area
    }

    /// Refine the given active triangles (plus whatever the conformity
    /// closure pulls in). Marked triangles split 1:4; closure neighbours
    /// with one marked edge split 1:2.
    pub fn refine(&mut self, marked: &[u32]) -> RefineReport {
        let mut marked_edges: FxSet<(u32, u32)> = FxSet::default();
        for &t in marked {
            if self.alive[t as usize] {
                let [a, b, c] = self.tris[t as usize];
                marked_edges.insert(edge_key(a, b));
                marked_edges.insert(edge_key(b, c));
                marked_edges.insert(edge_key(a, c));
            }
        }
        self.apply_marked_edges(marked_edges)
    }

    /// Core of refinement: close the marked-edge set (>=2 marked edges on a
    /// triangle promotes to all three), then split every affected active
    /// triangle red (3 marked) or green (1 marked).
    fn apply_marked_edges(&mut self, mut marked_edges: FxSet<(u32, u32)>) -> RefineReport {
        if marked_edges.is_empty() {
            return RefineReport::default();
        }
        let active: Vec<u32> = self.active_tris();

        loop {
            let mut changed = false;
            for &t in &active {
                let [a, b, c] = self.tris[t as usize];
                let e = [edge_key(a, b), edge_key(b, c), edge_key(a, c)];
                let n = e.iter().filter(|k| marked_edges.contains(*k)).count();
                if n == 2 {
                    for k in e {
                        changed |= marked_edges.insert(k);
                    }
                }
            }
            if !changed {
                break;
            }
        }

        let verts_before = self.verts.len();
        let mut report = RefineReport::default();
        for &t in &active {
            let [a, b, c] = self.tris[t as usize];
            let e = [edge_key(a, b), edge_key(b, c), edge_key(a, c)];
            let m = e.map(|k| marked_edges.contains(&k));
            match m.iter().filter(|&&x| x).count() {
                0 => {}
                3 => {
                    let mab = self.midpoint(a, b);
                    let mbc = self.midpoint(b, c);
                    let mac = self.midpoint(a, c);
                    self.split(
                        t,
                        &[[a, mab, mac], [mab, b, mbc], [mac, mbc, c], [mab, mbc, mac]],
                    );
                    report.reds += 1;
                    report.new_tris += 4;
                }
                1 => {
                    // Exactly one marked edge: bisect toward the opposite
                    // vertex, preserving orientation.
                    let (p, q, r) = if m[0] {
                        (a, b, c)
                    } else if m[1] {
                        (b, c, a)
                    } else {
                        (c, a, b)
                    };
                    let mid = self.midpoint(p, q);
                    self.split(t, &[[p, mid, r], [mid, q, r]]);
                    report.greens += 1;
                    report.new_tris += 2;
                }
                _ => unreachable!("closure guarantees 0, 1 or 3 marked edges"),
            }
        }
        report.new_verts = self.verts.len() - verts_before;
        report
    }

    /// Coarsen sibling groups whose children are all active and all marked.
    ///
    /// Coarsening at the boundary of the marked region can expose hanging
    /// nodes, so after reactivating parents a conformity-restoration pass
    /// re-splits (green, reusing the existing midpoints) any active edge
    /// whose midpoint is still in use -- the standard red/green treatment.
    /// Groups that would be fully re-split anyway (two or more parent-edge
    /// midpoints pinned by triangles outside the marked set) are skipped,
    /// iterating to a fixpoint since skipping one group can pin others.
    /// Returns the number of groups coarsened.
    pub fn coarsen(&mut self, marked: &[u32]) -> usize {
        let mut is_marked = vec![false; self.tris.len()];
        for &t in marked {
            is_marked[t as usize] = self.alive[t as usize];
        }

        // Candidate parents: every child alive and marked.
        let mut groups: Vec<u32> = marked.iter().filter_map(|&t| self.parent_of(t)).collect();
        groups.sort_unstable();
        groups.dedup();
        groups.retain(|&p| {
            let kids = &self.children[p as usize];
            !kids.is_empty()
                && kids
                    .iter()
                    .all(|&k| self.alive[k as usize] && is_marked[k as usize])
        });
        if groups.is_empty() {
            return 0;
        }
        let mut in_set = vec![false; self.tris.len()];
        for &p in &groups {
            in_set[p as usize] = true;
        }

        // Fixpoint: drop groups with >= 2 parent-edge midpoints pinned by
        // outside triangles (coarsening them would be immediately undone by
        // a red re-split; <= 1 pin costs only a green patch).
        let active = self.active_tris();
        loop {
            // A vertex is pinned when an active triangle outside every
            // surviving group uses it.
            let mut pinned = vec![false; self.verts.len()];
            for &t in &active {
                let tp = self.parent[t as usize];
                if tp == NONE || !in_set[tp as usize] {
                    for v in self.tris[t as usize] {
                        pinned[v as usize] = true;
                    }
                }
            }
            let before = groups.len();
            groups.retain(|&p| {
                let [a, b, c] = self.tris[p as usize];
                let pins = [edge_key(a, b), edge_key(b, c), edge_key(a, c)]
                    .iter()
                    .filter_map(|k| self.midpoints.get(k))
                    .filter(|&&m| pinned[m as usize])
                    .count();
                in_set[p as usize] = pins < 2;
                pins < 2
            });
            if groups.len() == before {
                break;
            }
        }

        for &p in &groups {
            for k in std::mem::take(&mut self.children[p as usize]) {
                self.alive[k as usize] = false;
            }
            self.alive[p as usize] = true;
        }

        self.restore_conformity();
        groups.len()
    }

    /// Green-patch any active edge whose registered midpoint is used by an
    /// active triangle, iterating because patches can expose finer hangs.
    fn restore_conformity(&mut self) {
        loop {
            let active = self.active_tris();
            let mut used = vec![false; self.verts.len()];
            for &t in &active {
                for v in self.tris[t as usize] {
                    used[v as usize] = true;
                }
            }
            let mut hanging: FxSet<(u32, u32)> = FxSet::default();
            for &t in &active {
                let [a, b, c] = self.tris[t as usize];
                for k in [edge_key(a, b), edge_key(b, c), edge_key(a, c)] {
                    if let Some(&m) = self.midpoints.get(&k) {
                        if used[m as usize] {
                            hanging.insert(k);
                        }
                    }
                }
            }
            if hanging.is_empty() {
                return;
            }
            self.apply_marked_edges(hanging);
        }
    }

    fn midpoint(&mut self, a: u32, b: u32) -> u32 {
        let key = edge_key(a, b);
        if let Some(&m) = self.midpoints.get(&key) {
            return m;
        }
        let m = self.verts.len() as u32;
        let p = self.verts[a as usize].midpoint(&self.verts[b as usize]);
        self.verts.push(p);
        self.midpoints.insert(key, m);
        m
    }

    fn split(&mut self, t: u32, children: &[[u32; 3]]) {
        self.alive[t as usize] = false;
        let lvl = self.level[t as usize] + 1;
        let mut ids = Vec::with_capacity(children.len());
        for &c in children {
            let id = self.tris.len() as u32;
            self.tris.push(c);
            self.alive.push(true);
            self.parent.push(t);
            self.children.push(Vec::new());
            self.level.push(lvl);
            ids.push(id);
        }
        self.children[t as usize] = ids;
    }

    /// Check structural invariants; returns a description of the first
    /// violation found.
    ///
    /// * every active triangle has three distinct vertices and positive
    ///   (CCW) area;
    /// * every undirected edge borders at most two active triangles;
    /// * no hanging nodes: no active triangle has an edge whose registered
    ///   midpoint is used by another active triangle;
    /// * total active area equals the base-mesh area.
    pub fn validate(&self) -> Result<(), String> {
        let active = self.active_tris();
        let mut edge_count: FxMap<(u32, u32), u32> = FxMap::default();
        let mut used_verts: FxSet<u32> = FxSet::default();
        for &t in &active {
            let [a, b, c] = self.tris[t as usize];
            if a == b || b == c || a == c {
                return Err(format!("triangle {t} has repeated vertices"));
            }
            let [pa, pb, pc] = self.tri_points(t);
            if geom::signed_area2(&pa, &pb, &pc) <= 0.0 {
                return Err(format!("triangle {t} is degenerate or CW"));
            }
            for k in [edge_key(a, b), edge_key(b, c), edge_key(a, c)] {
                *edge_count.entry(k).or_insert(0) += 1;
            }
            used_verts.extend([a, b, c]);
        }
        for (k, n) in &edge_count {
            if *n > 2 {
                return Err(format!("edge {k:?} borders {n} active triangles"));
            }
        }
        // Hanging nodes: an active edge whose midpoint vertex is in use.
        for (k, &m) in &self.midpoints {
            if edge_count.contains_key(k) && used_verts.contains(&m) {
                // The midpoint may legitimately be in use if the coarse edge
                // is NOT active... but we just checked it is.
                return Err(format!("hanging node {m} on active edge {k:?}"));
            }
        }
        let area = self.total_area();
        if (area - self.base_area).abs() > 1e-9 * self.base_area.max(1.0) {
            return Err(format!(
                "area not conserved: {area} vs base {}",
                self.base_area
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn mesh4() -> AdaptiveMesh {
        AdaptiveMesh::structured(4, 4, 1.0, 1.0)
    }

    #[test]
    fn structured_mesh_shape() {
        let m = mesh4();
        assert_eq!(m.verts.len(), 25);
        assert_eq!(m.num_active(), 32);
        m.validate().expect("fresh mesh valid");
        assert!((m.total_area() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn red_refine_one_triangle() {
        let mut m = mesh4();
        let before = m.num_active();
        let rep = m.refine(&[0]);
        assert_eq!(rep.reds, 1);
        // Neighbours sharing a marked edge become greens.
        assert!(rep.greens >= 1);
        assert!(m.num_active() > before);
        assert!(!m.is_active(0));
        m.validate().expect("refined mesh valid");
    }

    #[test]
    fn refine_all_quadruples_active_count() {
        let mut m = mesh4();
        let all = m.active_tris();
        let rep = m.refine(&all);
        assert_eq!(rep.reds, 32);
        assert_eq!(rep.greens, 0);
        assert_eq!(m.num_active(), 128);
        m.validate().expect("uniform refinement valid");
    }

    #[test]
    fn children_track_parent_and_level() {
        let mut m = mesh4();
        m.refine(&[3]);
        let kids: Vec<u32> = m
            .active_tris()
            .into_iter()
            .filter(|&t| m.parent_of(t) == Some(3))
            .collect();
        assert_eq!(kids.len(), 4);
        for k in kids {
            assert_eq!(m.level_of(k), 1);
        }
    }

    #[test]
    fn shared_edge_midpoint_reused() {
        let mut m = mesh4();
        // Triangles 0 and 1 share the diagonal; refining both must create
        // one midpoint for the shared edge, not two.
        let verts_before = m.verts.len();
        let rep = m.refine(&[0, 1]);
        assert_eq!(rep.reds, 2);
        // 0 and 1 share one edge: midpoints = 3 + 3 - 1 shared = 5 at most,
        // plus greens create no vertices.
        assert!(m.verts.len() - verts_before <= 5 + rep.greens);
        m.validate().expect("valid");
    }

    #[test]
    fn coarsen_undoes_uniform_refine() {
        let mut m = mesh4();
        let all = m.active_tris();
        m.refine(&all);
        assert_eq!(m.num_active(), 128);
        let refined = m.active_tris();
        let groups = m.coarsen(&refined);
        assert_eq!(groups, 32);
        assert_eq!(m.num_active(), 32);
        m.validate().expect("coarsened mesh valid");
    }

    #[test]
    fn coarsen_blocked_by_neighbour_usage() {
        let mut m = mesh4();
        m.refine(&[0]); // red 0 + greens around it
                        // Try to coarsen only triangle 0's children: greens outside the
                        // group still use the midpoints of 0's edges → must be blocked.
        let kids: Vec<u32> = m
            .active_tris()
            .into_iter()
            .filter(|&t| m.parent_of(t) == Some(0))
            .collect();
        assert_eq!(m.coarsen(&kids), 0);
        m.validate().expect("still valid");
    }

    #[test]
    fn coarsen_whole_refined_neighbourhood_succeeds() {
        let mut m = mesh4();
        m.refine(&[0]);
        let marked = m.active_tris();
        let groups = m.coarsen(&marked);
        assert!(groups >= 2, "red group and green groups all coarsen");
        assert_eq!(m.num_active(), 32);
        m.validate().expect("back to base mesh");
    }

    #[test]
    fn repeated_refinement_stays_valid() {
        let mut m = AdaptiveMesh::structured(3, 3, 1.0, 1.0);
        for step in 0..4 {
            // Refine a moving band of triangles.
            let marked: Vec<u32> = m
                .active_tris()
                .into_iter()
                .filter(|&t| {
                    let c = m.centroid_of(t);
                    (c.x - 0.25 * step as f64).abs() < 0.15
                })
                .collect();
            m.refine(&marked);
            m.validate().unwrap_or_else(|e| panic!("step {step}: {e}"));
        }
        assert!(m.num_active() > 18);
    }

    #[test]
    fn refine_then_partial_coarsen_conserves_area() {
        let mut m = mesh4();
        let all = m.active_tris();
        m.refine(&all);
        let half: Vec<u32> = m
            .active_tris()
            .into_iter()
            .filter(|&t| m.centroid_of(t).x < 0.5)
            .collect();
        m.coarsen(&half);
        m.validate().expect("mixed mesh valid");
        assert!((m.total_area() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn refine_inactive_triangle_is_noop() {
        let mut m = mesh4();
        m.refine(&[0]);
        let active_now = m.num_active();
        let rep = m.refine(&[0]); // 0 is no longer active
        assert_eq!(rep, RefineReport::default());
        assert_eq!(m.num_active(), active_now);
    }

    #[test]
    fn empty_refine_is_noop() {
        let mut m = mesh4();
        assert_eq!(m.refine(&[]), RefineReport::default());
        assert_eq!(m.num_active(), 32);
    }

    #[test]
    fn euler_characteristic_of_disk() {
        let mut m = mesh4();
        m.refine(&[0, 5, 9]);
        let active = m.active_tris();
        let mut edges: HashSet<(u32, u32)> = HashSet::new();
        let mut verts: HashSet<u32> = HashSet::new();
        for &t in &active {
            let [a, b, c] = m.tri(t);
            edges.insert(edge_key(a, b));
            edges.insert(edge_key(b, c));
            edges.insert(edge_key(a, c));
            verts.extend([a, b, c]);
        }
        // V - E + F = 1 for a triangulated disk (outer face excluded).
        let euler = verts.len() as i64 - edges.len() as i64 + active.len() as i64;
        assert_eq!(euler, 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Any sequence of refinements on arbitrary triangle subsets keeps
        /// the mesh valid and conserves area.
        #[test]
        fn refinement_preserves_invariants(
            seed_marks in proptest::collection::vec(0usize..1000, 1..20),
            steps in 1usize..4,
        ) {
            let mut m = AdaptiveMesh::structured(4, 3, 2.0, 1.0);
            for s in 0..steps {
                let active = m.active_tris();
                let marked: Vec<u32> = seed_marks
                    .iter()
                    .map(|&x| active[(x + s * 7) % active.len()])
                    .collect();
                m.refine(&marked);
                prop_assert!(m.validate().is_ok(), "{:?}", m.validate());
            }
        }

        /// Coarsening arbitrary subsets never breaks validity.
        #[test]
        fn coarsening_preserves_invariants(
            marks in proptest::collection::vec(0usize..4096, 1..64),
        ) {
            let mut m = AdaptiveMesh::structured(4, 4, 1.0, 1.0);
            let all = m.active_tris();
            m.refine(&all);
            let active = m.active_tris();
            let marked: Vec<u32> = marks.iter().map(|&x| active[x % active.len()]).collect();
            m.coarsen(&marked);
            prop_assert!(m.validate().is_ok(), "{:?}", m.validate());
        }

        /// refine → coarsen-everything returns to the base count.
        #[test]
        fn full_coarsen_inverts_full_refine(nx in 1usize..6, ny in 1usize..6) {
            let mut m = AdaptiveMesh::structured(nx, ny, 1.0, 1.0);
            let base = m.num_active();
            let all = m.active_tris();
            m.refine(&all);
            let refined = m.active_tris();
            m.coarsen(&refined);
            prop_assert_eq!(m.num_active(), base);
            prop_assert!(m.validate().is_ok());
        }
    }
}

impl AdaptiveMesh {
    /// A structured triangulation of an annulus: `nr` radial rings by
    /// `ntheta` angular cells between radii `r_inner` and `r_outer`,
    /// centred at the origin. The natural domain for circular-shock
    /// workloads ([`crate::indicator::Shock::Circular`]).
    ///
    /// # Panics
    /// Panics if `nr` or `ntheta` is zero, `ntheta < 3`, or the radii are
    /// not `0 < r_inner < r_outer`.
    pub fn annulus(nr: usize, ntheta: usize, r_inner: f64, r_outer: f64) -> Self {
        assert!(
            nr > 0 && ntheta >= 3,
            "annulus needs rings and >= 3 sectors"
        );
        assert!(
            r_inner > 0.0 && r_inner < r_outer,
            "annulus radii must satisfy 0 < inner < outer"
        );
        let mut verts = Vec::with_capacity((nr + 1) * ntheta);
        for j in 0..=nr {
            let r = r_inner + (r_outer - r_inner) * j as f64 / nr as f64;
            for i in 0..ntheta {
                let a = std::f64::consts::TAU * i as f64 / ntheta as f64;
                verts.push(Point2::new(r * a.cos(), r * a.sin()));
            }
        }
        let vid = |i: usize, j: usize| (j * ntheta + (i % ntheta)) as u32;
        let mut tris = Vec::with_capacity(2 * nr * ntheta);
        for j in 0..nr {
            for i in 0..ntheta {
                let (v00, v10) = (vid(i, j), vid(i + 1, j));
                let (v01, v11) = (vid(i, j + 1), vid(i + 1, j + 1));
                // CCW orientation: tangential then radial-outward turns
                // clockwise, so wind the quads the other way.
                tris.push([v00, v11, v10]);
                tris.push([v00, v01, v11]);
            }
        }
        let n = tris.len();
        let mut mesh = AdaptiveMesh {
            verts,
            tris,
            alive: vec![true; n],
            parent: vec![NONE; n],
            children: vec![Vec::new(); n],
            level: vec![0; n],
            midpoints: FxMap::default(),
            base_area: 0.0,
        };
        mesh.base_area = mesh.total_area();
        mesh
    }
}

#[cfg(test)]
mod annulus_tests {
    use super::*;
    use crate::indicator::{adapt_step, Shock};

    #[test]
    fn annulus_shape_and_validity() {
        let m = AdaptiveMesh::annulus(3, 12, 0.5, 1.0);
        assert_eq!(m.verts.len(), 4 * 12);
        assert_eq!(m.num_active(), 2 * 3 * 12);
        m.validate().expect("annulus valid");
        // Area approximates π(R² − r²) from below (polygonal).
        let exact = std::f64::consts::PI * (1.0 - 0.25);
        let area = m.total_area();
        assert!(area < exact && area > 0.9 * exact, "area {area} vs {exact}");
    }

    #[test]
    fn annulus_is_not_a_disk_topologically() {
        // V − E + F = 0 for an annulus (one hole), not 1.
        let m = AdaptiveMesh::annulus(2, 8, 0.3, 1.0);
        let mut edges = std::collections::HashSet::new();
        let mut verts = std::collections::HashSet::new();
        for t in m.active_tris() {
            let [a, b, c] = m.tri(t);
            for (x, y) in [(a, b), (b, c), (a, c)] {
                edges.insert(if x < y { (x, y) } else { (y, x) });
            }
            verts.extend([a, b, c]);
        }
        let euler = verts.len() as i64 - edges.len() as i64 + m.num_active() as i64;
        assert_eq!(euler, 0);
    }

    #[test]
    fn circular_shock_sweeps_the_annulus() {
        let mut m = AdaptiveMesh::annulus(4, 24, 0.4, 1.2);
        let base = m.num_active();
        let shock = Shock::Circular {
            cx: 0.0,
            cy: 0.0,
            r0: 0.4,
            speed: 0.2,
        };
        for step in 0..4 {
            adapt_step(&mut m, &shock, step as f64, 0.06, 0.2, 2);
            m.validate().expect("valid during radial sweep");
        }
        assert!(m.num_active() > base, "front refinement happened");
    }

    #[test]
    #[should_panic(expected = "radii")]
    fn bad_radii_panic() {
        AdaptiveMesh::annulus(2, 8, 1.0, 0.5);
    }
}
