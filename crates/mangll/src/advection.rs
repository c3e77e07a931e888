//! Nodal DG advection on a (forest-of-octree) mesh — the paper's
//! Section VII / Fig. 12 experiment class.
//!
//! Strong-form collocation DG for `∂u/∂t + a·∇u = 0` on box-shaped
//! elements (exact for Cartesian forests; the cubed-sphere demo treats
//! each element as the box spanned by its mapped corners — a documented
//! geometric approximation):
//!
//! * volume terms from the tensor-product derivative kernel;
//! * upwind numerical flux on faces, with nonconforming (2:1) and
//!   cross-tree faces handled by *evaluating the neighbor's polynomial at
//!   this element's face nodes*: every face node is mapped to the
//!   neighbor's reference coordinates (through the inter-tree transform
//!   where needed), which subsumes same-size, coarser, and finer
//!   neighbors in one rule;
//! * a five-stage fourth-order low-storage Runge–Kutta integrator
//!   (Carpenter–Kennedy), as in the paper;
//! * parallel ghost-element data exchange per RK stage.

use forest::{Forest, ForestLeaf, GhostLayer, GhostWorkspace, LeafOrigin};
use octree::{Octant, ROOT_LEN};
use scomm::Exchange;

use crate::kernels::ElementDerivative;

/// Exchange stream id for the DG ghost-element data (streams 1–2 are
/// claimed by the Stokes velocity/pressure ghost layers).
const DG_STREAM: u64 = 9;

/// Carpenter–Kennedy LSRK45 coefficients.
const RK_A: [f64; 5] = [
    0.0,
    -567301805773.0 / 1357537059087.0,
    -2404267990393.0 / 2016746695238.0,
    -3550918686646.0 / 2091501179385.0,
    -1275806237668.0 / 842570457699.0,
];
const RK_B: [f64; 5] = [
    1432997174477.0 / 9575080441755.0,
    5161836677717.0 / 13612068292357.0,
    1720146321549.0 / 2090206949498.0,
    3134564353537.0 / 4481467310338.0,
    2277821191437.0 / 14882151754819.0,
];

/// DG discretization parameters.
pub struct DgParams {
    /// Polynomial order `p ≥ 1`.
    pub order: usize,
    /// CFL number for the explicit step.
    pub cfl: f64,
    /// State injected at inflow domain boundaries.
    pub inflow_value: f64,
}

impl Default for DgParams {
    fn default() -> Self {
        DgParams {
            order: 2,
            cfl: 0.3,
            inflow_value: 0.0,
        }
    }
}

/// Precomputed exterior-trace source for one face node of a local
/// element: where the neighbor polynomial lives and at which reference
/// point to evaluate it. Built once per forest snapshot from the
/// face-entity iterator; consumed every RK stage.
#[derive(Debug, Clone, Copy)]
enum MortarSrc {
    /// Domain boundary: upwind against the configured inflow value.
    Boundary,
    /// Trace of local element `elem` at reference point `xi`.
    Local { elem: u32, xi: [f64; 3] },
    /// Trace of ghost directory entry `g` at reference point `xi`.
    Ghost { g: u32, xi: [f64; 3] },
}

/// Largest supported 1-D node count (`order + 1`): the Lagrange weights
/// of one trace evaluation live in stack arrays of this size.
const MAX_NODES_1D: usize = 16;

/// Grow-only scratch of [`DgAdvection::step`]: RK residual, stage
/// right-hand side and one element's reference gradient. Warm steps
/// allocate nothing.
#[derive(Default)]
struct StepScratch {
    res: Vec<f64>,
    k: Vec<f64>,
    grad: Vec<f64>,
}

/// A nodal DG advection solver bound to a forest snapshot.
pub struct DgAdvection<'f, 'c> {
    pub forest: &'f Forest<'c>,
    pub params: DgParams,
    ed: ElementDerivative,
    /// Per local element: physical box (center, half-extents).
    centers: Vec<[f64; 3]>,
    half: Vec<[f64; 3]>,
    /// Nodal velocity per element (`3·n³` per element: ax ay az per node).
    velocity: Vec<f64>,
    /// Nodal solution (`n³` per element).
    pub u: Vec<f64>,
    /// Ghost directory: face/edge/corner ghosts from the recursive
    /// constructor, sorted by leaf. Edge/corner entries matter: the
    /// exterior-trace probe of a face node on an element edge lands in
    /// an edge- or corner-adjacent cell.
    ghosts: GhostLayer,
    ghost_data: Vec<f64>,
    /// Outgoing exchange pattern: per rank, local element indices (in
    /// the receiver's request order, which is Morton order).
    send_elems: Vec<Vec<usize>>,
    /// Ghost directory indices grouped by source rank, in directory
    /// order — the receive-side scatter map.
    by_src: Vec<Vec<usize>>,
    /// Mortar table: entry `(e·6 + face)·n² + b·n + a` sources the
    /// exterior trace of that face node of element `e`.
    mortar: Vec<MortarSrc>,
    /// Elements with no ghost-sourced face node: their face terms can
    /// run while the ghost exchange is in flight.
    interior_elems: Vec<u32>,
    /// Elements with at least one ghost-sourced face node.
    surface_elems: Vec<u32>,
    /// Split-phase exchange state and wire buffers.
    ex: Exchange,
    send_flat: Vec<f64>,
    send_counts: Vec<usize>,
    recv_flat: Vec<f64>,
    recv_counts: Vec<usize>,
    /// Expected receive counts (dofs per source rank), fixed per snapshot.
    expect_counts: Vec<usize>,
    scratch: StepScratch,
}

impl<'f, 'c> DgAdvection<'f, 'c> {
    /// Set up storage, geometry, and the ghost pattern; initialize `u`
    /// from `init` and the advection velocity from `vel` (both sampled at
    /// the physical node positions).
    pub fn new(
        forest: &'f Forest<'c>,
        params: DgParams,
        init: impl Fn([f64; 3]) -> f64,
        vel: impl Fn([f64; 3]) -> [f64; 3],
    ) -> Self {
        let ed = ElementDerivative::new(params.order);
        assert!(
            ed.lgl.n() <= MAX_NODES_1D,
            "order {} needs more than {MAX_NODES_1D} nodes per direction",
            params.order
        );
        let n3 = ed.n3();
        let nelem = forest.local.len();
        let conn = forest.connectivity().clone();

        let mut centers = Vec::with_capacity(nelem);
        let mut half = Vec::with_capacity(nelem);
        for l in &forest.local {
            // Physical box from the mapped element corners.
            let a = l.oct.anchor_unit();
            let s = l.oct.len_unit();
            let p0 = conn.map_point(l.tree, a);
            let p1 = conn.map_point(l.tree, [a[0] + s, a[1] + s, a[2] + s]);
            centers.push([
                0.5 * (p0[0] + p1[0]),
                0.5 * (p0[1] + p1[1]),
                0.5 * (p0[2] + p1[2]),
            ]);
            // Signed half-extents: a cap of the cubed sphere may reverse
            // orientation along an axis (physical coordinate decreasing
            // with the reference coordinate); the sign carries through the
            // chain rule and the face normals. Bricks are always positive.
            let signed = |d: f64| {
                if d.abs() < 1e-300 {
                    1e-300
                } else {
                    0.5 * d
                }
            };
            half.push([
                signed(p1[0] - p0[0]),
                signed(p1[1] - p0[1]),
                signed(p1[2] - p0[2]),
            ]);
        }

        let mut solver = DgAdvection {
            forest,
            params,
            ed,
            centers,
            half,
            velocity: vec![0.0; 3 * n3 * nelem],
            u: vec![0.0; n3 * nelem],
            ghosts: GhostLayer::default(),
            ghost_data: Vec::new(),
            send_elems: Vec::new(),
            by_src: Vec::new(),
            mortar: Vec::new(),
            interior_elems: Vec::new(),
            surface_elems: Vec::new(),
            ex: Exchange::new(DG_STREAM),
            send_flat: Vec::new(),
            send_counts: Vec::new(),
            recv_flat: Vec::new(),
            recv_counts: Vec::new(),
            expect_counts: Vec::new(),
            scratch: StepScratch::default(),
        };
        // Sample fields at physical node positions.
        for e in 0..nelem {
            for (node, p) in solver.node_positions(e).into_iter().enumerate() {
                solver.u[e * n3 + node] = init(p);
                let a = vel(p);
                for d in 0..3 {
                    solver.velocity[(e * n3 + node) * 3 + d] = a[d];
                }
            }
        }
        solver.build_ghost_pattern();
        solver.build_mortar_tables();
        solver
    }

    /// Physical positions of the `n³` LGL nodes of element `e`.
    pub fn node_positions(&self, e: usize) -> Vec<[f64; 3]> {
        let n = self.ed.lgl.n();
        let c = self.centers[e];
        let h = self.half[e];
        let mut out = Vec::with_capacity(n * n * n);
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    out.push([
                        c[0] + h[0] * self.ed.lgl.nodes[i],
                        c[1] + h[1] * self.ed.lgl.nodes[j],
                        c[2] + h[2] * self.ed.lgl.nodes[k],
                    ]);
                }
            }
        }
        out
    }

    /// Ghost directory and exchange pattern from the recursive ghost
    /// constructor: the layer names exactly the remote leaves this rank
    /// can see (face, edge, and corner adjacency); an announce round
    /// tells each owner which of its elements we need.
    fn build_ghost_pattern(&mut self) {
        let f = self.forest;
        let p = f.comm().size();
        let mut ws = GhostWorkspace::new();
        f.ghost_layer_into(&mut ws);
        self.ghosts = ws.take_layer();

        // Request each ghost from its owner (requests are in directory
        // = Morton order, so the data exchange needs no permutation).
        let mut requests: Vec<Vec<ForestLeaf>> = vec![Vec::new(); p];
        let mut by_src: Vec<Vec<usize>> = vec![Vec::new(); p];
        for (gi, e) in self.ghosts.entries.iter().enumerate() {
            requests[e.owner as usize].push(e.leaf);
            by_src[e.owner as usize].push(gi);
        }
        let wanted = f.comm().alltoallv(&requests);
        let mut send: Vec<Vec<usize>> = vec![Vec::new(); p];
        for (r, leaves) in wanted.iter().enumerate() {
            for l in leaves {
                let i = f
                    .find_containing(l)
                    .expect("requested ghost leaf not owned locally");
                debug_assert_eq!(f.local[i], *l, "ghost request must match a leaf exactly");
                send[r].push(i);
            }
        }
        let n3 = self.ed.n3();
        self.expect_counts = by_src.iter().map(|g| g.len() * n3).collect();
        self.by_src = by_src;
        self.send_elems = send;
        self.ghost_data = vec![0.0; n3 * self.ghosts.len()];
    }

    /// Pack the current solution of every requested element, per
    /// destination rank, into the flat send buffer.
    fn pack_ghost_sends(&mut self) {
        let n3 = self.ed.n3();
        self.send_counts.clear();
        self.send_flat.clear();
        for idxs in &self.send_elems {
            self.send_counts.push(idxs.len() * n3);
        }
        for idxs in &self.send_elems {
            for &i in idxs {
                self.send_flat
                    .extend_from_slice(&self.u[i * n3..(i + 1) * n3]);
            }
        }
    }

    /// Scatter a received flat buffer (source-rank order) into the ghost
    /// data store via the directory map.
    fn scatter_ghost_recv(&mut self) {
        let n3 = self.ed.n3();
        let mut off = 0usize;
        for list in &self.by_src {
            for &gi in list {
                self.ghost_data[gi * n3..(gi + 1) * n3]
                    .copy_from_slice(&self.recv_flat[off..off + n3]);
                off += n3;
            }
        }
    }

    /// Post the nonblocking ghost refresh (split-phase start).
    fn exchange_ghosts_start(&mut self) {
        self.pack_ghost_sends();
        self.forest.comm().exchange_start(
            &self.send_flat,
            &self.send_counts,
            &self.expect_counts,
            &mut self.ex,
        );
    }

    /// Complete the ghost refresh posted by [`Self::exchange_ghosts_start`].
    fn exchange_ghosts_end(&mut self) {
        let comm = self.forest.comm();
        let mut recv_flat = std::mem::take(&mut self.recv_flat);
        let mut recv_counts = std::mem::take(&mut self.recv_counts);
        comm.exchange_end(&mut self.ex, &mut recv_flat, &mut recv_counts);
        self.recv_flat = recv_flat;
        self.recv_counts = recv_counts;
        self.scatter_ghost_recv();
    }

    /// Locate the leaf containing a probe region: local (`Ok(idx)`) or
    /// ghost (`Err(ghost_idx)`). `None` if absent (domain boundary).
    fn find_leaf(&self, target: &ForestLeaf) -> Option<Result<usize, usize>> {
        if let Some(i) = self.forest.find_containing(target) {
            return Some(Ok(i));
        }
        let entries = &self.ghosts.entries;
        let idx = entries.partition_point(|g| g.leaf <= *target);
        if idx > 0 {
            let cand = idx - 1;
            let g = &entries[cand].leaf;
            if g.tree == target.tree && g.oct.contains(&target.oct) {
                return Some(Err(cand));
            }
        }
        None
    }

    /// Evaluate the polynomial of a (local or ghost) element at reference
    /// point `xi ∈ [−1,1]³` by tensor Lagrange interpolation.
    fn eval_at(&self, source: Result<usize, usize>, xi: [f64; 3]) -> f64 {
        let n = self.ed.lgl.n();
        let n3 = self.ed.n3();
        let data = match source {
            Ok(e) => &self.u[e * n3..(e + 1) * n3],
            Err(g) => &self.ghost_data[g * n3..(g + 1) * n3],
        };
        let mut lx = [0.0; MAX_NODES_1D];
        let mut ly = [0.0; MAX_NODES_1D];
        let mut lz = [0.0; MAX_NODES_1D];
        for j in 0..n {
            lx[j] = lagrange_1d(&self.ed.lgl.nodes, j, xi[0]);
            ly[j] = lagrange_1d(&self.ed.lgl.nodes, j, xi[1]);
            lz[j] = lagrange_1d(&self.ed.lgl.nodes, j, xi[2]);
        }
        let mut acc = 0.0;
        for k in 0..n {
            for j in 0..n {
                let lyz = ly[j] * lz[k];
                for i in 0..n {
                    acc += data[i + n * (j + n * k)] * lx[i] * lyz;
                }
            }
        }
        acc
    }

    /// Resolve the exterior-trace source for one of our face nodes: maps
    /// the node's tree coordinates through the face (and inter-tree
    /// transform where needed) and locates the containing local or ghost
    /// leaf plus the reference point inside it. Returns `None` at the
    /// domain boundary. This is the probe the precomputed mortar
    /// table must reproduce entry for entry.
    fn locate_neighbor(
        &self,
        e: usize,
        face: usize,
        node_ref: [f64; 3], // our reference coords of the face node
    ) -> Option<(Result<usize, usize>, [f64; 3])> {
        let leaf = self.forest.local[e];
        let o = &leaf.oct;
        let len = o.len() as f64;
        // Doubled tree coordinates of the node.
        let mut p2 = [
            2.0 * o.x() as f64 + len * (node_ref[0] + 1.0),
            2.0 * o.y() as f64 + len * (node_ref[1] + 1.0),
            2.0 * o.z() as f64 + len * (node_ref[2] + 1.0),
        ];
        // Nudge across the face.
        let axis = face / 2;
        let eps = 1e-6 * len;
        p2[axis] += if face % 2 == 1 { eps } else { -eps };
        let lim = 2.0 * ROOT_LEN as f64;
        let mut tree = leaf.tree;
        if p2[axis] < 0.0 || p2[axis] >= lim {
            // Crossing a tree face (or the domain boundary).
            let t = self
                .forest
                .connectivity()
                .neighbor_across(tree, face as u8)?;
            p2 = t.apply_point(p2);
            tree = t.tree;
        }
        // Locate the containing leaf via a MAX_LEVEL probe.
        let clampi = |v: f64| -> u32 { (v / 2.0).floor().clamp(0.0, (ROOT_LEN - 1) as f64) as u32 };
        let probe = ForestLeaf {
            tree,
            oct: Octant::new(
                clampi(p2[0]),
                clampi(p2[1]),
                clampi(p2[2]),
                octree::MAX_LEVEL,
            ),
        };
        let found = self.find_leaf(&probe)?;
        // Reference coords within the found leaf.
        let no = match found {
            Ok(i) => self.forest.local[i].oct,
            Err(g) => self.ghosts.entries[g].leaf.oct,
        };
        let nlen = no.len() as f64;
        let xi = [
            ((p2[0] - 2.0 * no.x() as f64) / nlen - 1.0).clamp(-1.0, 1.0),
            ((p2[1] - 2.0 * no.y() as f64) / nlen - 1.0).clamp(-1.0, 1.0),
            ((p2[2] - 2.0 * no.z() as f64) / nlen - 1.0).clamp(-1.0, 1.0),
        ];
        Some((found, xi))
    }

    /// Neighbor trace at one of our face nodes through the probe that
    /// built the mortar table (`None` at the domain boundary).
    #[cfg(test)]
    fn neighbor_value(&self, e: usize, face: usize, node_ref: [f64; 3]) -> Option<f64> {
        let (src, xi) = self.locate_neighbor(e, face, node_ref)?;
        Some(self.eval_at(src, xi))
    }

    /// Flat mortar-table index of face node `(a, b)` of `(e, face)`.
    #[inline]
    fn mortar_idx(&self, e: usize, face: usize, a_i: usize, b: usize) -> usize {
        let n = self.ed.lgl.n();
        (e * 6 + face) * n * n + b * n + a_i
    }

    /// Exterior trace of face node `(a, b)` of `(e, face)` through the
    /// precomputed mortar table (`None` at the domain boundary).
    #[cfg(test)]
    fn mortar_value(&self, e: usize, face: usize, a_i: usize, b: usize) -> Option<f64> {
        match self.mortar[self.mortar_idx(e, face, a_i, b)] {
            MortarSrc::Boundary => None,
            MortarSrc::Local { elem, xi } => Some(self.eval_at(Ok(elem as usize), xi)),
            MortarSrc::Ghost { g, xi } => Some(self.eval_at(Err(g as usize), xi)),
        }
    }

    /// Refresh the ghost element data from the current solution: one
    /// split-phase round, completed before returning.
    pub fn refresh_ghosts(&mut self) {
        self.exchange_ghosts_start();
        self.exchange_ghosts_end();
    }

    /// Build the mortar face tables by walking every face entity of the
    /// local + ghost view once (the forest `iterate` API): each visit
    /// names the elements on both sides — conforming, 2:1 hanging with
    /// its four fine children, or domain boundary — and every face node
    /// of a locally owned side gets its trace source resolved and
    /// stored. The coverage bitmap proves the iterator reached every
    /// local element face exactly once.
    fn build_mortar_tables(&mut self) {
        let n = self.ed.lgl.n();
        let n2 = n * n;
        let nelem = self.forest.local.len();
        let mut mortar = vec![MortarSrc::Boundary; nelem * 6 * n2];
        let mut covered = vec![false; nelem * 6];

        {
            let mortar = &mut mortar;
            let covered = &mut covered;
            self.forest
                .iterate_faces(&self.ghosts, &mut |v: &forest::FaceVisit<'_>| {
                    for side in std::iter::once(&v.big).chain(v.fine.iter()) {
                        let LeafOrigin::Local(e) = side.origin else {
                            continue;
                        };
                        let (e, face) = (e as usize, side.face as usize);
                        assert!(
                            !covered[e * 6 + face],
                            "face ({e}, {face}) visited twice by iterate_faces"
                        );
                        covered[e * 6 + face] = true;
                        let axis = face / 2;
                        let (t1, t2) = match axis {
                            0 => (1, 2),
                            1 => (0, 2),
                            _ => (0, 1),
                        };
                        let end_idx = if face % 2 == 1 { n - 1 } else { 0 };
                        for b in 0..n {
                            for a_i in 0..n {
                                let mut idx3 = [0usize; 3];
                                idx3[axis] = end_idx;
                                idx3[t1] = a_i;
                                idx3[t2] = b;
                                let node_ref = [
                                    self.ed.lgl.nodes[idx3[0]],
                                    self.ed.lgl.nodes[idx3[1]],
                                    self.ed.lgl.nodes[idx3[2]],
                                ];
                                let src = match self.locate_neighbor(e, face, node_ref) {
                                    None => MortarSrc::Boundary,
                                    Some((Ok(i), xi)) => MortarSrc::Local { elem: i as u32, xi },
                                    Some((Err(g), xi)) => MortarSrc::Ghost { g: g as u32, xi },
                                };
                                // A boundary visit must resolve to boundary
                                // sources and vice versa.
                                debug_assert_eq!(
                                    matches!(src, MortarSrc::Boundary),
                                    v.fine.is_empty(),
                                    "iterate/probe disagree on face ({e}, {face})"
                                );
                                mortar[(e * 6 + face) * n2 + b * n + a_i] = src;
                            }
                        }
                    }
                });
        }
        assert!(
            covered.iter().all(|&c| c),
            "iterate_faces missed a local element face"
        );

        // Interior/surface split for the split-phase overlap: an element
        // whose traces are all local (or boundary) never reads ghost
        // data, so its face terms can run while the exchange is posted.
        self.interior_elems.clear();
        self.surface_elems.clear();
        for e in 0..nelem {
            let has_ghost = mortar[e * 6 * n2..(e + 1) * 6 * n2]
                .iter()
                .any(|s| matches!(s, MortarSrc::Ghost { .. }));
            if has_ghost {
                self.surface_elems.push(e as u32);
            } else {
                self.interior_elems.push(e as u32);
            }
        }
        self.mortar = mortar;
    }

    /// Volume terms of the DG right-hand side `−a·∇u` for every local
    /// element, written into `rhs`; `grad` is scratch for one element's
    /// reference gradient (`3·n³`). Ghost-independent.
    fn rhs_volume(&self, grad: &mut [f64], rhs: &mut [f64]) {
        let n3 = self.ed.n3();
        let nelem = self.forest.local.len();
        // Reference gradient then chain rule per node.
        for e in 0..nelem {
            self.ed
                .apply_tensor_batch(&self.u[e * n3..(e + 1) * n3], grad, 1);
            let h = self.half[e];
            for node in 0..n3 {
                let a = &self.velocity[(e * n3 + node) * 3..(e * n3 + node) * 3 + 3];
                rhs[e * n3 + node] = -(a[0] * grad[node] / h[0]
                    + a[1] * grad[n3 + node] / h[1]
                    + a[2] * grad[2 * n3 + node] / h[2]);
            }
        }
    }

    /// Upwind face lifting for the given element subset, accumulated
    /// into `rhs` through the precomputed mortar tables. Elements with
    /// ghost-sourced traces require ghosts to be current; the interior
    /// subset never reads ghost data and may run during the exchange.
    fn rhs_faces(&self, elems: &[u32], rhs: &mut [f64]) {
        let n = self.ed.lgl.n();
        let n3 = self.ed.n3();
        let w_end = self.ed.lgl.weights[0]; // = weights[p]
        for &e in elems {
            let e = e as usize;
            let h = self.half[e];
            for face in 0..6 {
                let axis = face / 2;
                let sign = if face % 2 == 1 { 1.0 } else { -1.0 };
                // Iterate the face nodes.
                let (t1, t2) = match axis {
                    0 => (1, 2),
                    1 => (0, 2),
                    _ => (0, 1),
                };
                let end_idx = if face % 2 == 1 { n - 1 } else { 0 };
                for b in 0..n {
                    for a_i in 0..n {
                        let mut idx3 = [0usize; 3];
                        idx3[axis] = end_idx;
                        idx3[t1] = a_i;
                        idx3[t2] = b;
                        let node = idx3[0] + n * (idx3[1] + n * idx3[2]);
                        let vel = &self.velocity[(e * n3 + node) * 3..(e * n3 + node) * 3 + 3];
                        // Physical outward normal = reference normal times
                        // the orientation sign of this axis.
                        let an = vel[axis] * sign * h[axis].signum(); // a·n
                        let u_in = self.u[e * n3 + node];
                        let u_out = match self.mortar[self.mortar_idx(e, face, a_i, b)] {
                            MortarSrc::Local { elem, xi } => self.eval_at(Ok(elem as usize), xi),
                            MortarSrc::Ghost { g, xi } => self.eval_at(Err(g as usize), xi),
                            MortarSrc::Boundary => {
                                // Domain boundary: outflow keeps the
                                // interior state; inflow injects the
                                // configured far-field value.
                                if an >= 0.0 {
                                    u_in
                                } else {
                                    self.params.inflow_value
                                }
                            }
                        };
                        let u_star = if an >= 0.0 { u_in } else { u_out };
                        // Lift: (sJ / (w_end · J)) with box metrics
                        // sJ/J = 1/|h_axis| (reference face/volume weights
                        // already encoded in w_end).
                        let lift = 1.0 / (w_end * h[axis].abs());
                        rhs[e * n3 + node] -= lift * an * (u_star - u_in);
                    }
                }
            }
        }
    }

    /// Globally CFL-limited step size. Collective.
    pub fn stable_dt(&self) -> f64 {
        let n3 = self.ed.n3();
        let p = self.params.order as f64;
        let mut local = f64::INFINITY;
        for e in 0..self.forest.local.len() {
            let h = self.half[e];
            for node in 0..n3 {
                let a = &self.velocity[(e * n3 + node) * 3..(e * n3 + node) * 3 + 3];
                for d in 0..3 {
                    if a[d].abs() > 1e-14 {
                        local = local.min(2.0 * h[d].abs() / (a[d].abs() * (p * p + 1.0)));
                    }
                }
            }
        }
        let g = self.forest.comm().allreduce_min(&[local])[0];
        self.params.cfl * g
    }

    /// Advance one LSRK45 step (5 ghost exchanges). The ghost exchange
    /// of each stage is posted split-phase and the volume plus interior
    /// face terms execute while it is in flight (interior elements read
    /// no ghost data by construction).
    pub fn step(&mut self, dt: f64) {
        let ndof = self.u.len();
        let mut s = std::mem::take(&mut self.scratch);
        s.res.clear();
        s.res.resize(ndof, 0.0);
        // `rhs_volume` overwrites every entry of `k` and `grad`.
        s.k.resize(ndof, 0.0);
        s.grad.resize(3 * self.ed.n3(), 0.0);
        let StepScratch { res, k, grad } = &mut s;
        let interior = std::mem::take(&mut self.interior_elems);
        let surface = std::mem::take(&mut self.surface_elems);
        for stage in 0..5 {
            self.exchange_ghosts_start();
            self.rhs_volume(grad, k);
            self.rhs_faces(&interior, k);
            self.exchange_ghosts_end();
            self.rhs_faces(&surface, k);
            for i in 0..ndof {
                res[i] = RK_A[stage] * res[i] + dt * k[i];
                self.u[i] += RK_B[stage] * res[i];
            }
        }
        self.interior_elems = interior;
        self.surface_elems = surface;
        self.scratch = s;
    }

    /// Global ∫u dΩ by LGL quadrature (conservation diagnostic).
    pub fn total_mass(&self) -> f64 {
        let n = self.ed.lgl.n();
        let n3 = self.ed.n3();
        let w = &self.ed.lgl.weights;
        let mut local = 0.0;
        for e in 0..self.forest.local.len() {
            let h = self.half[e];
            let jac = (h[0] * h[1] * h[2]).abs();
            for kk in 0..n {
                for jj in 0..n {
                    for ii in 0..n {
                        local +=
                            jac * w[ii] * w[jj] * w[kk] * self.u[e * n3 + ii + n * (jj + n * kk)];
                    }
                }
            }
        }
        self.forest.comm().allreduce_sum(&[local])[0]
    }

    /// Global max-norm error against a reference function.
    pub fn max_error(&self, exact: impl Fn([f64; 3]) -> f64) -> f64 {
        let n3 = self.ed.n3();
        let mut local = 0.0f64;
        for e in 0..self.forest.local.len() {
            for (node, p) in self.node_positions(e).into_iter().enumerate() {
                local = local.max((self.u[e * n3 + node] - exact(p)).abs());
            }
        }
        self.forest.comm().allreduce_max(&[local])[0]
    }
}

impl<'f, 'c> DgAdvection<'f, 'c> {
    /// Transfer the solution onto a *refined* forest (each new element
    /// equal to or contained in an old local element, before
    /// repartitioning): nodal values are the old polynomial evaluated at
    /// the new node positions — exact, since children carry the same
    /// polynomial. Coarsening transfer (an L² projection) is not yet
    /// provided; coarsen between runs by re-initializing instead.
    /// Returns a new solver bound to `new_forest` with the velocity
    /// field re-sampled from `vel`.
    pub fn resample_onto<'g>(
        &self,
        new_forest: &'g Forest<'c>,
        vel: impl Fn([f64; 3]) -> [f64; 3],
    ) -> DgAdvection<'g, 'c> {
        let params = DgParams {
            order: self.params.order,
            cfl: self.params.cfl,
            inflow_value: self.params.inflow_value,
        };
        let mut new = DgAdvection::new(new_forest, params, |_| 0.0, vel);
        let n3 = self.ed.n3();
        for (e, leaf) in new_forest.local.iter().enumerate() {
            // Find the old local element covering this new element.
            let old_e = self.forest.find_containing(leaf).unwrap_or_else(|| {
                panic!(
                    "new element {leaf:?} not covered by the old local forest — \
                         resample before repartitioning"
                )
            });
            let old_leaf = &self.forest.local[old_e];
            // New node positions in the old element's reference coords.
            let nl = self.ed.lgl.n();
            let olen = old_leaf.oct.len() as f64;
            for k in 0..nl {
                for j in 0..nl {
                    for i in 0..nl {
                        let node = i + nl * (j + nl * k);
                        // Tree coordinates of the new node (doubled).
                        let len = leaf.oct.len() as f64;
                        let p2 = [
                            2.0 * leaf.oct.x() as f64 + len * (self.ed.lgl.nodes[i] + 1.0),
                            2.0 * leaf.oct.y() as f64 + len * (self.ed.lgl.nodes[j] + 1.0),
                            2.0 * leaf.oct.z() as f64 + len * (self.ed.lgl.nodes[k] + 1.0),
                        ];
                        let xi = [
                            ((p2[0] - 2.0 * old_leaf.oct.x() as f64) / olen - 1.0).clamp(-1.0, 1.0),
                            ((p2[1] - 2.0 * old_leaf.oct.y() as f64) / olen - 1.0).clamp(-1.0, 1.0),
                            ((p2[2] - 2.0 * old_leaf.oct.z() as f64) / olen - 1.0).clamp(-1.0, 1.0),
                        ];
                        new.u[e * n3 + node] = self.eval_at(Ok(old_e), xi);
                    }
                }
            }
        }
        new
    }
}

fn lagrange_1d(nodes: &[f64], j: usize, x: f64) -> f64 {
    let mut v = 1.0;
    for (k, &xk) in nodes.iter().enumerate() {
        if k != j {
            v *= (x - xk) / (nodes[j] - xk);
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use forest::Connectivity;
    use scomm::spmd;
    use std::sync::Arc;

    /// Exact preservation of a constant state (free-stream).
    #[test]
    fn freestream_preserved() {
        let conn = Arc::new(Connectivity::brick(2, 2, 1));
        spmd::run(2, |c| {
            let f = Forest::new_uniform(c, conn.clone(), 1);
            let mut dg = DgAdvection::new(
                &f,
                DgParams {
                    order: 3,
                    cfl: 0.3,
                    inflow_value: 1.0,
                },
                |_| 1.0,
                |_| [0.7, -0.4, 0.2],
            );
            // With a free-stream-consistent inflow value, the constant
            // state is an exact steady solution: volume terms vanish
            // (D·1 = 0), interior and inter-tree fluxes see u⁻ = u⁺, and
            // boundary fluxes inject the same constant.
            let dt = dg.stable_dt();
            for _ in 0..5 {
                dg.step(dt);
            }
            for (i, &v) in dg.u.iter().enumerate() {
                assert!((v - 1.0).abs() < 1e-11, "node {i}: {v}");
            }
        });
    }

    /// High-order convergence for smooth advection on a periodic-free
    /// short horizon (front stays away from boundaries).
    #[test]
    fn convergence_with_order() {
        let errs: Vec<f64> = [1usize, 3]
            .iter()
            .map(|&p| {
                let conn = Arc::new(Connectivity::brick(1, 1, 1));
                let out = spmd::run(1, move |c| {
                    let mut f = Forest::new_uniform(c, conn.clone(), 2);
                    let _ = f.refine(|_| false);
                    let width = 0.005;
                    let init = move |q: [f64; 3]| {
                        let r2 = (q[0] - 0.3).powi(2) + (q[1] - 0.5).powi(2) + (q[2] - 0.5).powi(2);
                        (-r2 / width).exp()
                    };
                    let mut dg = DgAdvection::new(
                        &f,
                        DgParams {
                            order: p,
                            cfl: 0.2,
                            ..Default::default()
                        },
                        init,
                        |_| [1.0, 0.0, 0.0],
                    );
                    let t_final = 0.25;
                    let dt0 = dg.stable_dt();
                    let nsteps = (t_final / dt0).ceil() as usize;
                    let dt = t_final / nsteps as f64;
                    for _ in 0..nsteps {
                        dg.step(dt);
                    }
                    dg.max_error(move |q| {
                        let r2 =
                            (q[0] - 0.55).powi(2) + (q[1] - 0.5).powi(2) + (q[2] - 0.5).powi(2);
                        (-r2 / width).exp()
                    })
                });
                out[0]
            })
            .collect();
        assert!(
            errs[1] < 0.5 * errs[0],
            "higher order must be markedly more accurate: {errs:?}"
        );
    }

    /// Nonconforming (2:1) interfaces transport smoothly: refine half the
    /// domain and advect a front across the interface.
    #[test]
    fn nonconforming_interface_transport() {
        let conn = Arc::new(Connectivity::brick(1, 1, 1));
        spmd::run(2, |c| {
            let mut f = Forest::new_uniform(c, conn.clone(), 2);
            f.refine(|l| l.oct.center_unit()[0] > 0.5);
            f.balance(octree::balance::BalanceKind::Full);
            f.partition();
            let width = 0.02;
            let init = move |q: [f64; 3]| {
                let r2 = (q[0] - 0.35).powi(2) + (q[1] - 0.5).powi(2) + (q[2] - 0.5).powi(2);
                (-r2 / width).exp()
            };
            let mut dg = DgAdvection::new(
                &f,
                DgParams {
                    order: 3,
                    cfl: 0.2,
                    ..Default::default()
                },
                init,
                |_| [1.0, 0.0, 0.0],
            );
            let m0 = dg.total_mass();
            let t_final = 0.3;
            let dt0 = dg.stable_dt();
            let nsteps = (t_final / dt0).ceil() as usize;
            let dt = t_final / nsteps as f64;
            for _ in 0..nsteps {
                dg.step(dt);
            }
            // Front crossed into the refined half; mass approximately
            // conserved (interpolation mortar: small defect tolerated).
            let err = dg.max_error(move |q| {
                let r2 = (q[0] - 0.65).powi(2) + (q[1] - 0.5).powi(2) + (q[2] - 0.5).powi(2);
                (-r2 / width).exp()
            });
            assert!(err < 0.12, "interface transport error {err}");
            let m1 = dg.total_mass();
            assert!(
                (m1 - m0).abs() / m0.abs().max(1e-30) < 0.05,
                "mass drift {m0} → {m1}"
            );
        });
    }

    /// Adaptive DG: refine mid-run under the front and keep advecting —
    /// the Fig. 12 usage pattern (adapt every k steps).
    #[test]
    fn adaptive_resampling_mid_run() {
        let conn = Arc::new(Connectivity::brick(1, 1, 1));
        spmd::run(1, |c| {
            let f0 = Forest::new_uniform(c, conn.clone(), 2);
            let width = 0.02;
            let init = move |q: [f64; 3]| {
                let r2 = (q[0] - 0.35).powi(2) + (q[1] - 0.5).powi(2) + (q[2] - 0.5).powi(2);
                (-r2 / width).exp()
            };
            let vel = |_: [f64; 3]| [1.0f64, 0.0, 0.0];
            let mut dg = DgAdvection::new(
                &f0,
                DgParams {
                    order: 3,
                    cfl: 0.2,
                    ..Default::default()
                },
                init,
                vel,
            );
            // Advance a bit on the coarse mesh.
            let dt = dg.stable_dt();
            for _ in 0..5 {
                dg.step(dt);
            }
            let mass_before = dg.total_mass();
            // Refine the downstream half and transfer the field.
            let mut f1 = Forest::new_uniform(c, conn.clone(), 2);
            f1.refine(|l| l.oct.center_unit()[0] > 0.45);
            f1.balance(octree::balance::BalanceKind::Full);
            let mut dg2 = dg.resample_onto(&f1, vel);
            let mass_after = dg2.total_mass();
            assert!(
                (mass_after - mass_before).abs() / mass_before.abs() < 1e-9,
                "polynomial re-evaluation under refinement is exact: {mass_before} vs {mass_after}"
            );
            // Keep advecting on the refined mesh.
            let dt2 = dg2.stable_dt();
            let nsteps = (0.2 / dt2).ceil() as usize;
            let t_total = 5.0 * dt + nsteps as f64 * (0.2 / nsteps as f64);
            for _ in 0..nsteps {
                dg2.step(0.2 / nsteps as f64);
            }
            let err = dg2.max_error(move |q| {
                let r2 =
                    (q[0] - 0.35 - t_total).powi(2) + (q[1] - 0.5).powi(2) + (q[2] - 0.5).powi(2);
                (-r2 / width).exp()
            });
            assert!(err < 0.15, "adaptive transport error {err}");
        });
    }

    /// Cross-tree faces on a brick: the same front passes through the
    /// shared face of two trees.
    #[test]
    fn cross_tree_transport() {
        let conn = Arc::new(Connectivity::brick(2, 1, 1));
        spmd::run(1, |c| {
            let f = Forest::new_uniform(c, conn.clone(), 2);
            let width = 0.01;
            let init = move |q: [f64; 3]| {
                let r2 = (q[0] - 0.7).powi(2) + (q[1] - 0.5).powi(2) + (q[2] - 0.5).powi(2);
                (-r2 / width).exp()
            };
            let mut dg = DgAdvection::new(
                &f,
                DgParams {
                    order: 3,
                    cfl: 0.2,
                    ..Default::default()
                },
                init,
                |_| [1.0, 0.0, 0.0],
            );
            let t_final = 0.6; // crosses x = 1 (tree 0 → tree 1)
            let dt0 = dg.stable_dt();
            let nsteps = (t_final / dt0).ceil() as usize;
            let dt = t_final / nsteps as f64;
            for _ in 0..nsteps {
                dg.step(dt);
            }
            let err = dg.max_error(move |q| {
                let r2 = (q[0] - 1.3).powi(2) + (q[1] - 0.5).powi(2) + (q[2] - 0.5).powi(2);
                (-r2 / width).exp()
            });
            assert!(err < 0.2, "cross-tree transport error {err}");
        });
    }

    /// Advection on the cubed sphere: a cap-shaped front is carried by
    /// solid-body rotation without blowing up, and returns toward its
    /// start (qualitative — faceted-geometry approximation documented).
    #[test]
    fn cubed_sphere_rotation_is_stable() {
        let conn = Arc::new(Connectivity::cubed_sphere(0.6, 1.0));
        spmd::run(2, |c| {
            let f = Forest::new_uniform(c, conn.clone(), 1);
            let init = |q: [f64; 3]| {
                // Bump centered at (+x axis, mid shell).
                let r = (q[0] * q[0] + q[1] * q[1] + q[2] * q[2]).sqrt();
                let d2 = (q[0] / r - 1.0).powi(2) + (q[1] / r).powi(2) + (q[2] / r).powi(2);
                (-d2 / 0.05).exp()
            };
            let omega = 1.0;
            let mut dg = DgAdvection::new(
                &f,
                DgParams {
                    order: 2,
                    cfl: 0.2,
                    ..Default::default()
                },
                init,
                move |q| {
                    // Solid-body rotation about z.
                    [-omega * q[1], omega * q[0], 0.0]
                },
            );
            let m0 = dg.total_mass();
            let dt = dg.stable_dt();
            for _ in 0..30 {
                dg.step(dt);
            }
            let mx = dg.u.iter().cloned().fold(0.0f64, f64::max);
            let gmx = c.allreduce_max(&[mx])[0];
            assert!(gmx.is_finite() && gmx < 1.5, "solution bounded: {gmx}");
            assert!(gmx > 0.2, "front survives: {gmx}");
            let m1 = dg.total_mass();
            assert!(
                (m1 - m0).abs() / m0.abs().max(1e-30) < 0.2,
                "mass drift {m0} → {m1}"
            );
        });
    }

    /// A deterministic adapted, 2:1-nonconforming, multi-tree forest:
    /// refine the downstream half of a 2×1×1 brick and balance.
    fn adapted_brick<'c>(c: &'c scomm::Comm, conn: Arc<Connectivity>) -> Forest<'c> {
        let mut f = Forest::new_uniform(c, conn, 1);
        f.refine(|l| l.tree == 1 || l.oct.center_unit()[0] > 0.5);
        f.refine(|l| l.tree == 1 && l.oct.center_unit()[1] > 0.5);
        f.balance(octree::balance::BalanceKind::Full);
        f.partition();
        f
    }

    fn front_init(q: [f64; 3]) -> f64 {
        let r2 = (q[0] - 0.8).powi(2) + (q[1] - 0.5).powi(2) + (q[2] - 0.5).powi(2);
        (-r2 / 0.02).exp()
    }

    /// The precomputed mortar table must reproduce the per-node probe
    /// oracle bitwise on a distributed adaptive nonconforming forest —
    /// every face node of every local element, across ranks.
    #[test]
    fn mortar_table_matches_probe_oracle() {
        let conn = Arc::new(Connectivity::brick(2, 1, 1));
        for p in [1usize, 4] {
            let conn = conn.clone();
            spmd::run(p, move |c| {
                let f = adapted_brick(c, conn.clone());
                let mut dg = DgAdvection::new(
                    &f,
                    DgParams {
                        order: 3,
                        ..Default::default()
                    },
                    front_init,
                    |_| [1.0, 0.2, -0.1],
                );
                dg.refresh_ghosts();
                let n = dg.params.order + 1;
                for e in 0..f.local.len() {
                    for face in 0..6 {
                        let axis = face / 2;
                        let (t1, t2) = match axis {
                            0 => (1, 2),
                            1 => (0, 2),
                            _ => (0, 1),
                        };
                        let end_idx = if face % 2 == 1 { n - 1 } else { 0 };
                        for b in 0..n {
                            for a_i in 0..n {
                                let mut idx3 = [0usize; 3];
                                idx3[axis] = end_idx;
                                idx3[t1] = a_i;
                                idx3[t2] = b;
                                let node_ref = [
                                    dg.ed.lgl.nodes[idx3[0]],
                                    dg.ed.lgl.nodes[idx3[1]],
                                    dg.ed.lgl.nodes[idx3[2]],
                                ];
                                let oracle = dg.neighbor_value(e, face, node_ref);
                                let table = dg.mortar_value(e, face, a_i, b);
                                assert_eq!(
                                    oracle.map(f64::to_bits),
                                    table.map(f64::to_bits),
                                    "trace mismatch at elem {e} face {face} node ({a_i},{b})"
                                );
                            }
                        }
                    }
                }
            });
        }
    }

    /// Distributed DG on the adaptive nonconforming forest: the
    /// per-element solution at P ∈ {2, 4, 8} is bitwise identical to the
    /// serial run (same elements, same arithmetic — only the ghost
    /// provenance differs), and mass stays conserved up to the mortar
    /// interpolation defect.
    #[test]
    fn distributed_adaptive_matches_serial_bitwise() {
        let conn = Arc::new(Connectivity::brick(2, 1, 1));
        let dt = 1e-3;
        let run = |p: usize| -> Vec<(ForestLeaf, Vec<u64>)> {
            let conn = conn.clone();
            let per_rank = spmd::run(p, move |c| {
                let f = adapted_brick(c, conn.clone());
                let mut dg = DgAdvection::new(
                    &f,
                    DgParams {
                        order: 2,
                        ..Default::default()
                    },
                    front_init,
                    |_| [1.0, 0.0, 0.0],
                );
                let m0 = dg.total_mass();
                for _ in 0..3 {
                    dg.step(dt);
                }
                let m1 = dg.total_mass();
                assert!(
                    (m1 - m0).abs() / m0.abs().max(1e-30) < 0.05,
                    "mass drift {m0} → {m1} at P={}",
                    c.size()
                );
                let n3 = dg.u.len() / f.local.len().max(1);
                f.local
                    .iter()
                    .enumerate()
                    .map(|(e, &l)| {
                        (
                            l,
                            dg.u[e * n3..(e + 1) * n3]
                                .iter()
                                .map(|v| v.to_bits())
                                .collect::<Vec<u64>>(),
                        )
                    })
                    .collect::<Vec<_>>()
            });
            let mut all: Vec<(ForestLeaf, Vec<u64>)> = per_rank.into_iter().flatten().collect();
            all.sort_by_key(|a| a.0);
            all
        };
        let serial = run(1);
        for p in [2usize, 4, 8] {
            let dist = run(p);
            assert_eq!(
                serial.len(),
                dist.len(),
                "P={p} produced a different element set"
            );
            for (s, d) in serial.iter().zip(&dist) {
                assert_eq!(s.0, d.0, "leaf mismatch at P={p}");
                assert_eq!(
                    s.1, d.1,
                    "solution differs from serial at P={p}, leaf {:?}",
                    s.0
                );
            }
        }
    }
}
