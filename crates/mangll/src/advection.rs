//! Nodal DG advection on a (forest-of-octree) mesh — the paper's
//! Section VII / Fig. 12 experiment class.
//!
//! Strong-form collocation DG for `∂u/∂t + a·∇u = 0` on box-shaped
//! elements (exact for Cartesian forests; the cubed-sphere demo treats
//! each element as the box spanned by its mapped corners — a documented
//! geometric approximation):
//!
//! * per RK stage one pass over the local elements, monomorphised on the
//!   order: volume terms from the tensor-product derivative kernel and
//!   the faces' upwind lift into one stack block per element;
//! * upwind numerical flux on faces, each face entity of the forest
//!   integrated on its mortar: a conforming face (inside a tree or across
//!   trees) on the shared `n²` LGL nodes, permuted by the inter-tree
//!   orientation; a 2:1 hanging face on its four fine faces, the coarse
//!   trace interpolated down by the tensor half-interval operators and
//!   the coarse side's flux brought back by their L² adjoints — which
//!   conserves mass exactly wherever the two sides agree on the geometry
//!   (every Cartesian forest);
//! * a five-stage fourth-order low-storage Runge–Kutta integrator
//!   (Carpenter–Kennedy), as in the paper;
//! * parallel exchange of ghost face traces per RK stage.

use forest::{transverse_axes, FaceSide, FaceVisit, Forest, GhostKind, GhostWorkspace, LeafOrigin};
use scomm::{Halo, HaloBuffers};

use crate::kernels::{apply_face, grad, with_nodes, ElementDerivative, FaceTables};

/// Exchange stream id for the DG ghost traces (the CG operators post on
/// stream 0).
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
#[derive(Debug, Clone, Copy)]
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

/// Where the `n²` face trace of a neighbour lives: local element `id`,
/// read from `u` through its face `face`, or slot `id` of the ghost
/// trace buffer.
#[derive(Debug, Clone, Copy)]
struct Trace {
    ghost: bool,
    id: u32,
    face: u8,
}

/// What lies across one face of a local element, from the forest's face
/// entities. `orient` is the forest's orientation code seen from our
/// side ([`FaceTables::perm`] lays the neighbour's trace over ours).
#[derive(Debug, Clone, Copy)]
enum FaceLink {
    /// Domain boundary: upwind against the configured inflow value.
    Boundary,
    /// One neighbour of our size: its face nodes are ours.
    Same { nbr: Trace, orient: u8 },
    /// One neighbour twice our size; we cover quarter `quarter` of its
    /// face (bit `c`: the high half along our `c`-th transverse axis).
    Coarser { nbr: Trace, orient: u8, quarter: u8 },
    /// Four neighbours half our size, one per quarter of our face in
    /// z-order of our transverse axes; their `a·n` on the four mortars
    /// starts at `mortar_an[an]`.
    Finer {
        nbrs: [Trace; 4],
        orient: u8,
        an: u32,
    },
}

impl FaceLink {
    fn traces(&self) -> &[Trace] {
        match self {
            FaceLink::Boundary => &[],
            FaceLink::Same { nbr, .. } | FaceLink::Coarser { nbr, .. } => std::slice::from_ref(nbr),
            FaceLink::Finer { nbrs, .. } => nbrs,
        }
    }

    fn traces_mut(&mut self) -> &mut [Trace] {
        match self {
            FaceLink::Boundary => &mut [],
            FaceLink::Same { nbr, .. } | FaceLink::Coarser { nbr, .. } => std::slice::from_mut(nbr),
            FaceLink::Finer { nbrs, .. } => nbrs,
        }
    }
}

/// Upwind flux correction `a·n (u* − u⁻)` at one mortar node.
#[inline]
fn upwind(an: f64, u_in: f64, u_out: f64) -> f64 {
    let u_star = if an >= 0.0 { u_in } else { u_out };
    an * (u_star - u_in)
}

/// Physical positions of the `n³` LGL nodes of the box `(c, h)`.
fn box_nodes(nodes: &[f64], c: [f64; 3], h: [f64; 3]) -> impl Iterator<Item = [f64; 3]> + '_ {
    nodes.iter().flat_map(move |&z| {
        nodes.iter().flat_map(move |&y| {
            nodes
                .iter()
                .map(move |&x| [c[0] + h[0] * x, c[1] + h[1] * y, c[2] + h[2] * z])
        })
    })
}

/// A nodal DG advection solver bound to a forest snapshot.
pub struct DgAdvection<'f, 'c> {
    pub forest: &'f Forest<'c>,
    pub params: DgParams,
    ed: ElementDerivative,
    ft: FaceTables,
    /// Per local element: physical box (center, half-extents).
    centers: Vec<[f64; 3]>,
    half: Vec<[f64; 3]>,
    /// Nodal velocity per element (`3·n³` per element: ax ay az per node).
    velocity: Vec<f64>,
    /// Nodal solution (`n³` per element).
    pub u: Vec<f64>,
    /// `a·n` with the outward normal at every face node: entry
    /// `(e·6 + face)·n² + k`. Time-independent.
    an: Vec<f64>,
    /// Entry `e·6 + face`: what is across that face.
    links: Vec<FaceLink>,
    /// Entry `e·6 + face`: bit `m` set where mortar `m` of that face
    /// takes inflow (some `a·n < 0`); a face without inflow has no flux.
    inflow: Vec<u8>,
    /// The fine sides' `−a·n` on the mortars of every coarse hanging
    /// face, in the coarse face's layout (`4n²` per face): both sides of
    /// a mortar then take the same flux.
    mortar_an: Vec<f64>,
    /// The face traces each rank reads, `n²` values per row: send rows
    /// `e·6 + face` in destination-rank order, each rank's share in
    /// Morton order of (leaf, face) — the order in which the receiver
    /// numbered its slots from its own view of the faces.
    halo: Halo,
    /// Its exchange buffers. The ghost traces, `n²` per slot, are what
    /// the last round received: by source rank, then Morton order of
    /// (leaf, face).
    traces: HaloBuffers<f64>,
    /// The RK residual, grow-only: warm steps allocate nothing.
    res: Vec<f64>,
}

impl<'f, 'c> DgAdvection<'f, 'c> {
    /// Set up storage, geometry, and the face links; initialize `u`
    /// from `init` and the advection velocity from `vel` (both sampled at
    /// the physical node positions).
    pub fn new(
        forest: &'f Forest<'c>,
        params: DgParams,
        init: impl Fn([f64; 3]) -> f64,
        vel: impl Fn([f64; 3]) -> [f64; 3],
    ) -> Self {
        let ed = ElementDerivative::new(params.order);
        let n3 = ed.n3();
        let nelem = forest.local.len();
        let conn = forest.connectivity();

        let mut centers = Vec::with_capacity(nelem);
        let mut half = Vec::with_capacity(nelem);
        let mut u = Vec::with_capacity(n3 * nelem);
        let mut velocity = Vec::with_capacity(3 * n3 * nelem);
        for l in &forest.local {
            // Physical box from the mapped element corners.
            let a = l.oct.anchor_unit();
            let s = l.oct.len_unit();
            let p0 = conn.map_point(l.tree, a);
            let p1 = conn.map_point(l.tree, [a[0] + s, a[1] + s, a[2] + s]);
            let c = [
                0.5 * (p0[0] + p1[0]),
                0.5 * (p0[1] + p1[1]),
                0.5 * (p0[2] + p1[2]),
            ];
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
            let h = [
                signed(p1[0] - p0[0]),
                signed(p1[1] - p0[1]),
                signed(p1[2] - p0[2]),
            ];
            // Sample fields at physical node positions.
            for p in box_nodes(&ed.lgl.nodes, c, h) {
                u.push(init(p));
                velocity.extend_from_slice(&vel(p));
            }
            centers.push(c);
            half.push(h);
        }

        let mut solver = DgAdvection {
            forest,
            params,
            ft: FaceTables::new(ed.lgl.n()),
            ed,
            centers,
            half,
            velocity,
            u,
            an: Vec::new(),
            links: Vec::new(),
            inflow: Vec::new(),
            mortar_an: Vec::new(),
            halo: Halo::default(),
            traces: HaloBuffers::with_stream(DG_STREAM),
            res: Vec::new(),
        };
        solver.build_face_links();
        solver
    }

    /// Physical positions of the `n³` LGL nodes of element `e`.
    pub fn node_positions(&self, e: usize) -> impl Iterator<Item = [f64; 3]> + '_ {
        box_nodes(&self.ed.lgl.nodes, self.centers[e], self.half[e])
    }

    /// Walk every face entity of the local + ghost view once (the forest
    /// `iterate_faces` API) and record, per local (element, face), what
    /// is on the other side. The same walk yields the exchange pattern
    /// with no announce round: a local face whose entity has a ghost on
    /// the other side is sent to that ghost's owner, and the owner, from
    /// its own walk, expects exactly that trace; both sort by (leaf,
    /// face). One exchange then ships `a·n` for the hanging faces whose
    /// fine side is remote.
    fn build_face_links(&mut self) {
        let f = self.forest;
        let (n, n3) = (self.ed.lgl.n(), self.ed.n3());
        let n2 = n * n;
        let nelem = f.local.len();

        self.an = Vec::with_capacity(nelem * 6 * n2);
        for e in 0..nelem {
            let h = self.half[e];
            for face in 0..6 {
                let axis = face / 2;
                // Physical outward normal = reference normal times the
                // orientation sign of this axis.
                let normal = if face % 2 == 1 { 1.0 } else { -1.0 } * h[axis].signum();
                let vel = &self.velocity[e * n3 * 3..(e + 1) * n3 * 3];
                (self.an).extend(
                    (self.ft.nodes(face).iter()).map(|&i| vel[i as usize * 3 + axis] * normal),
                );
            }
        }

        let mut ws = GhostWorkspace::new();
        let ghosts = f.ghost_layer_into(&mut ws);
        let mut links = vec![FaceLink::Boundary; nelem * 6];
        let mut linked = 0usize;
        // (owner, ghost, its face) we read; (owner, element, face) they read.
        let mut need: Vec<(u32, u32, u8)> = Vec::new();
        let mut send: Vec<(u32, u32, u8)> = Vec::new();
        let trace = |s: &FaceSide| {
            let (ghost, id) = match s.origin {
                LeafOrigin::Local(id) => (false, id),
                LeafOrigin::Ghost(id) => (true, id),
            };
            let face = s.face;
            Trace { ghost, id, face }
        };
        f.iterate_faces(ghosts, &mut |v: &FaceVisit<'_>| {
            let mut link = |s: &FaceSide, l: FaceLink| {
                let LeafOrigin::Local(e) = s.origin else {
                    return;
                };
                links[e as usize * 6 + s.face as usize] = l;
                linked += 1;
                for t in l.traces().iter().filter(|t| t.ghost) {
                    let g = &ghosts.entries[t.id as usize];
                    debug_assert_eq!(g.kind, GhostKind::Face, "a face neighbour is a face ghost");
                    need.push((g.owner, t.id, t.face));
                    send.push((g.owner, e, s.face));
                }
            };
            let (big, nbr) = (&v.big, trace(&v.big));
            for s in v.fine {
                let orient = s.orient;
                if v.hanging {
                    let c = s.leaf.oct.child_id();
                    let [t1, t2] = transverse_axes(s.face);
                    let quarter = ((c >> t1) & 1) | (((c >> t2) & 1) << 1);
                    link(
                        s,
                        FaceLink::Coarser {
                            nbr,
                            orient,
                            quarter,
                        },
                    );
                } else {
                    link(s, FaceLink::Same { nbr, orient });
                }
            }
            let orient = big.orient;
            match v.fine {
                [] => link(big, FaceLink::Boundary),
                [s] => link(
                    big,
                    FaceLink::Same {
                        nbr: trace(s),
                        orient,
                    },
                ),
                fine => {
                    // `fine` is in z-order of the fine side's transverse
                    // axes; ours swap and flip into those by `orient`.
                    let nbrs = std::array::from_fn(|m| {
                        let o = orient as usize;
                        let bit = |c: usize| ((m >> (c ^ (o & 1))) ^ (o >> (1 + c))) & 1;
                        trace(&fine[bit(0) | bit(1) << 1])
                    });
                    link(
                        big,
                        FaceLink::Finer {
                            nbrs,
                            orient,
                            an: 0,
                        },
                    );
                }
            }
        });
        assert_eq!(
            linked,
            nelem * 6,
            "iterate_faces must reach every local element face exactly once"
        );

        // Slots in (owner, leaf, face) order — ghost indices ascend with
        // the leaves — which is the order the traces arrive in.
        need.sort_unstable();
        need.dedup();
        send.sort_unstable();
        send.dedup();
        let p = f.comm().size();
        let per_rank = |list: &[(u32, u32, u8)]| -> Vec<usize> {
            let mut counts = vec![0usize; p];
            for &(r, ..) in list {
                counts[r as usize] += 1;
            }
            counts
        };
        let rows = send.iter().map(|&(_, e, face)| e * 6 + face as u32);
        self.halo = Halo {
            send: rows.collect(),
            send_counts: per_rank(&send),
            recv_counts: per_rank(&need),
        };
        for l in &mut links {
            for t in l.traces_mut().iter_mut().filter(|t| t.ghost) {
                let key = (ghosts.entries[t.id as usize].owner, t.id, t.face);
                t.id = need.binary_search(&key).expect("ghost trace was requested") as u32;
            }
        }
        // The fine sides' a·n on the mortars, through the same pattern.
        (self.traces).fill_begin(f.comm(), &[&self.halo], &[&self.an], n2);
        self.traces.complete(f.comm());
        for l in &mut links {
            if let FaceLink::Finer { nbrs, orient, an } = l {
                *an = self.mortar_an.len() as u32;
                for t in nbrs.iter() {
                    let theirs = if t.ghost {
                        &self.traces.received()[t.id as usize * n2..][..n2]
                    } else {
                        &self.an[(t.id as usize * 6 + t.face as usize) * n2..][..n2]
                    };
                    (self.mortar_an)
                        .extend(self.ft.perm(*orient).iter().map(|&k| -theirs[k as usize]));
                }
            }
        }
        let inflow = |an: &[f64]| !an.iter().all(|&a| a >= 0.0);
        self.inflow = (links.iter().enumerate())
            .map(|(i, l)| match *l {
                FaceLink::Finer { an, .. } => (0..4)
                    .map(|m| u8::from(inflow(&self.mortar_an[an as usize + m * n2..][..n2])) << m)
                    .sum(),
                _ => u8::from(inflow(&self.an[i * n2..][..n2])),
            })
            .collect();
        self.links = links;
    }

    /// Refresh the ghost traces from the current solution: post the
    /// current trace of every requested face, per destination rank, as
    /// one split-phase round, and complete it before returning.
    pub fn refresh_ghosts(&mut self) {
        let (n2, n3) = (self.ed.lgl.n().pow(2), self.ed.n3());
        let (u, ft, comm) = (&self.u, &self.ft, self.forest.comm());
        self.traces
            .fill_begin_with(comm, &[&self.halo], n2, |_, row, send| {
                let ue = &u[row / 6 * n3..][..n3];
                send.extend(ft.nodes(row % 6).iter().map(|&i| ue[i as usize]));
            });
        self.traces.complete(comm);
    }

    /// Where the trace of `t` laid over a face of ours by `orient` is
    /// read: node `k` of it is `values[at[k]]` for `(values, at)`.
    fn source(&self, t: Trace, orient: u8) -> (&[f64], &[u32]) {
        let (n2, n3) = (self.ed.lgl.n().pow(2), self.ed.n3());
        if t.ghost {
            (
                &self.traces.received()[t.id as usize * n2..][..n2],
                self.ft.perm(orient),
            )
        } else {
            let at = self.ft.across(t.face as usize, orient);
            (&self.u[t.id as usize * n3..][..n3], at)
        }
    }

    /// The `n²` trace of `t` laid over a face of ours by `orient`.
    fn load_trace(&self, t: Trace, orient: u8, out: &mut [f64]) {
        let (theirs, at) = self.source(t, orient);
        for (o, &k) in out.iter_mut().zip(at) {
            *o = theirs[k as usize];
        }
    }

    /// The two states on mortar `m` of face `face` of element `e`, at
    /// the mortar's `n²` nodes in our face layout: `own` from this
    /// element, `ext` from across. A face is its own single mortar —
    /// the neighbour's nodes coincide with ours, or (neighbour coarser)
    /// its trace is interpolated onto our quarter — except a face with
    /// four finer neighbours, whose mortars are their faces: there `own`
    /// is interpolated down. `work` is `2n²` scratch. Ghost traces must
    /// be current.
    fn mortar_states(
        &self,
        e: usize,
        face: usize,
        m: usize,
        own: &mut [f64],
        ext: &mut [f64],
        work: &mut [f64],
    ) {
        let (n, n3) = (self.ed.lgl.n(), self.ed.n3());
        let lgl = &self.ed.lgl;
        let (full, tmp) = work.split_at_mut(n * n);
        let ue = &self.u[e * n3..(e + 1) * n3];
        for (o, &i) in own.iter_mut().zip(self.ft.nodes(face)) {
            *o = ue[i as usize];
        }
        match self.links[e * 6 + face] {
            // Outflow nodes keep the interior state (the upwind rule).
            FaceLink::Boundary => ext.fill(self.params.inflow_value),
            FaceLink::Same { nbr, orient } => self.load_trace(nbr, orient, ext),
            FaceLink::Coarser {
                nbr,
                orient,
                quarter: q,
            } => {
                self.load_trace(nbr, orient, full);
                apply_face(
                    lgl.interp(q & 1 != 0),
                    lgl.interp(q & 2 != 0),
                    n,
                    full,
                    tmp,
                    ext,
                );
            }
            FaceLink::Finer { nbrs, orient, .. } => {
                full.copy_from_slice(own);
                apply_face(
                    lgl.interp(m & 1 != 0),
                    lgl.interp(m & 2 != 0),
                    n,
                    full,
                    tmp,
                    own,
                );
                self.load_trace(nbrs[m], orient, ext);
            }
        }
    }

    /// The upwind flux correction on a boundary or hanging face of
    /// element `e`, in our face layout, into `flux`: on its one mortar,
    /// except on the coarse side of a hanging face on each of the four
    /// mortars whose bit is set in `inflow`, with the fine side's `a·n`,
    /// projected back and summed. `work` is `4n²` scratch. Ghost traces
    /// must be current.
    fn mortar_flux(&self, e: usize, face: usize, inflow: u8, flux: &mut [f64], work: &mut [f64]) {
        let n2 = flux.len();
        let lgl = &self.ed.lgl;
        let (own, work) = work.split_at_mut(n2);
        let (ext, work) = work.split_at_mut(n2);
        let FaceLink::Finer { an, .. } = self.links[e * 6 + face] else {
            let an = &self.an[(e * 6 + face) * n2..][..n2];
            self.mortar_states(e, face, 0, own, ext, work);
            for (f, ((&a, &o), &x)) in flux.iter_mut().zip(an.iter().zip(&*own).zip(&*ext)) {
                *f = upwind(a, o, x);
            }
            return;
        };
        flux.fill(0.0);
        for m in (0..4).filter(|m| inflow >> m & 1 == 1) {
            let an = &self.mortar_an[an as usize + m * n2..][..n2];
            self.mortar_states(e, face, m, own, ext, work);
            // `own` becomes the mortar's flux correction.
            for ((o, &x), &a) in own.iter_mut().zip(&*ext).zip(an) {
                *o = upwind(a, *o, x);
            }
            let (tmp, back) = work.split_at_mut(n2);
            let half = |lo| lgl.project(m & lo != 0);
            apply_face(half(1), half(2), lgl.n(), own, tmp, back);
            for (f, &b) in flux.iter_mut().zip(&*back) {
                *f += b;
            }
        }
    }

    /// Refresh the ghost traces, then fold every local node's right-hand
    /// side `k` into `out` by `fold(&mut out[i], k)`.
    fn rhs_into(&mut self, out: &mut [f64], fold: impl Fn(&mut f64, f64)) {
        self.refresh_ghosts();
        with_nodes!(self.ed.lgl.n(), N => self.rhs_pass::<N>(out, fold));
    }

    /// [`Self::rhs_into`]'s one pass over the local elements, for `N`
    /// nodes per direction. Per element, on the stack: the volume term
    /// `−a·∇u` (reference gradient, then the chain rule with the box
    /// metrics), then the upwind lift of each face that takes inflow,
    /// then the fold. A conforming face gathers the state across through
    /// one index table; boundary and hanging faces go through their
    /// mortars ([`Self::mortar_flux`]).
    fn rhs_pass<const N: usize>(&self, out: &mut [f64], fold: impl Fn(&mut f64, f64)) {
        let (n2, n3) = (N * N, N * N * N);
        let d = self.ed.diff::<N>();
        let w_end = self.ed.lgl.weights[0]; // = weights[p]
        let (mut g, mut blk) = ([[[[0.0; N]; N]; N]; 3], [[[0.0; N]; N]; N]);
        let mut work = [[[0.0; N]; N]; 5];
        let g = g.as_flattened_mut().as_flattened_mut().as_flattened_mut();
        let blk = blk.as_flattened_mut().as_flattened_mut();
        let (flux, work) = work.as_flattened_mut().as_flattened_mut().split_at_mut(n2);
        for (e, oe) in out.chunks_exact_mut(n3).enumerate() {
            let ue = &self.u[e * n3..][..n3];
            grad(&d, ue, g);
            let (gx, gyz) = g.split_at(n3);
            let (gy, gz) = gyz.split_at(n3);
            let h = self.half[e];
            let vel = self.velocity[e * 3 * n3..][..3 * n3].as_chunks::<3>().0;
            for (b, (a, ((&x, &y), &z))) in blk
                .iter_mut()
                .zip(vel.iter().zip(gx.iter().zip(gy).zip(gz)))
            {
                *b = -(a[0] * x / h[0] + a[1] * y / h[1] + a[2] * z / h[2]);
            }
            for face in 0..6 {
                let i = e * 6 + face;
                let inflow = self.inflow[i];
                if inflow == 0 {
                    continue; // outflow everywhere: u* = u⁻, no flux
                }
                let nodes = &self.ft.nodes(face)[..n2];
                match self.links[i] {
                    FaceLink::Same { nbr, orient } => {
                        let (theirs, at) = self.source(nbr, orient);
                        let an = &self.an[i * n2..][..n2];
                        let states = (nodes.iter().zip(at))
                            .map(|(&k, &j)| (ue[k as usize], theirs[j as usize]));
                        for ((f, &a), (o, x)) in flux.iter_mut().zip(an).zip(states) {
                            *f = upwind(a, o, x);
                        }
                    }
                    _ => self.mortar_flux(e, face, inflow, flux, work),
                }
                // Lift: (sJ / (w_end · J)) with box metrics
                // sJ/J = 1/|h_axis| (reference face/volume weights
                // already encoded in w_end).
                let lift = 1.0 / (w_end * h[face / 2].abs());
                for (&k, &fl) in nodes.iter().zip(&*flux) {
                    blk[k as usize] -= lift * fl;
                }
            }
            for (o, &k) in oe.iter_mut().zip(&*blk) {
                fold(o, k);
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

    /// Advance one LSRK45 step (5 ghost exchanges). Per stage, one
    /// element pass folds the right-hand side into the residual; `u` is
    /// updated in a second, streaming pass, since the face terms read
    /// neighbours' `u`.
    pub fn step(&mut self, dt: f64) {
        let mut res = std::mem::take(&mut self.res);
        res.clear();
        res.resize(self.u.len(), 0.0);
        for (a, b) in RK_A.into_iter().zip(RK_B) {
            self.rhs_into(&mut res, |r, k| *r = a * *r + dt * k);
            for (u, &r) in self.u.iter_mut().zip(&res) {
                *u += b * r;
            }
        }
        self.res = res;
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
            for (node, p) in self.node_positions(e).enumerate() {
                local = local.max((self.u[e * n3 + node] - exact(p)).abs());
            }
        }
        self.forest.comm().allreduce_max(&[local])[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forest::{Connectivity, ForestLeaf};
    use scomm::rng::mix;
    use scomm::spmd;
    use std::sync::Arc;

    /// One right-hand-side evaluation (ghost refresh included).
    fn rhs_of(dg: &mut DgAdvection) -> Vec<f64> {
        let mut k = vec![f64::NAN; dg.u.len()];
        dg.rhs_into(&mut k, |k, r| *k = r);
        k
    }

    // The oracle `rhs_into` must match bitwise: the right-hand side as
    // whole-array volume and face passes at a runtime order, with the
    // tensor kernel's scalar reference and a scan of `a·n` per face in
    // place of the inflow flags.

    /// Volume terms of the DG right-hand side `−a·∇u` for every local
    /// element, written into `rhs`; `grad` is scratch for one element's
    /// reference gradient (`3·n³`). Ghost-independent.
    fn rhs_volume(dg: &DgAdvection, grad: &mut [f64], rhs: &mut [f64]) {
        let n3 = dg.ed.n3();
        let nelem = dg.forest.local.len();
        // Reference gradient then chain rule per node.
        for e in 0..nelem {
            dg.ed
                .apply_tensor_batch_reference(&dg.u[e * n3..(e + 1) * n3], grad, 1);
            let h = dg.half[e];
            for node in 0..n3 {
                let a = &dg.velocity[(e * n3 + node) * 3..(e * n3 + node) * 3 + 3];
                rhs[e * n3 + node] = -(a[0] * grad[node] / h[0]
                    + a[1] * grad[n3 + node] / h[1]
                    + a[2] * grad[2 * n3 + node] / h[2]);
            }
        }
    }

    /// Upwind face lifting for every local element, accumulated into
    /// `rhs` face by face from the traces on both sides. On the coarse
    /// side of a hanging face the flux is taken on each of the four
    /// mortars with the fine side's `a·n` and projected back. `work` is
    /// `5n²` scratch. Ghost traces must be current.
    fn rhs_faces(dg: &DgAdvection, work: &mut [f64], rhs: &mut [f64]) {
        let (n, n3) = (dg.ed.lgl.n(), dg.ed.n3());
        let n2 = n * n;
        let lgl = &dg.ed.lgl;
        let w_end = lgl.weights[0]; // = weights[p]
        let (own, work) = work.split_at_mut(n2);
        let (ext, work) = work.split_at_mut(n2);
        let (flux, work) = work.split_at_mut(n2);
        for e in 0..dg.forest.local.len() {
            let h = dg.half[e];
            for face in 0..6 {
                if let FaceLink::Finer { an, .. } = dg.links[e * 6 + face] {
                    flux.fill(0.0);
                    for m in 0..4 {
                        let an = &dg.mortar_an[an as usize + m * n2..][..n2];
                        if an.iter().all(|&a| a >= 0.0) {
                            continue;
                        }
                        dg.mortar_states(e, face, m, own, ext, work);
                        // `own` becomes the mortar's flux correction.
                        for k in 0..n2 {
                            own[k] = upwind(an[k], own[k], ext[k]);
                        }
                        let (tmp, back) = work.split_at_mut(n2);
                        apply_face(
                            lgl.project(m & 1 != 0),
                            lgl.project(m & 2 != 0),
                            n,
                            own,
                            tmp,
                            back,
                        );
                        for (f, &b) in flux.iter_mut().zip(back.iter()) {
                            *f += b;
                        }
                    }
                } else {
                    let an = &dg.an[(e * 6 + face) * n2..][..n2];
                    if an.iter().all(|&a| a >= 0.0) {
                        continue; // outflow everywhere: u* = u⁻, no flux
                    }
                    dg.mortar_states(e, face, 0, own, ext, work);
                    for k in 0..n2 {
                        flux[k] = upwind(an[k], own[k], ext[k]);
                    }
                }
                // Lift: (sJ / (w_end · J)) with box metrics
                // sJ/J = 1/|h_axis| (reference face/volume weights
                // already encoded in w_end).
                let lift = 1.0 / (w_end * h[face / 2].abs());
                let re = &mut rhs[e * n3..(e + 1) * n3];
                for (&i, &fl) in dg.ft.nodes(face).iter().zip(flux.iter()) {
                    re[i as usize] -= lift * fl;
                }
            }
        }
    }

    /// The oracle's right-hand side (ghost refresh included).
    fn rhs_oracle(dg: &mut DgAdvection) -> Vec<f64> {
        dg.refresh_ghosts();
        let (n2, n3) = (dg.ed.lgl.n().pow(2), dg.ed.n3());
        let mut k = vec![0.0; dg.u.len()];
        rhs_volume(dg, &mut vec![0.0; 3 * n3], &mut k);
        rhs_faces(dg, &mut vec![0.0; 5 * n2], &mut k);
        k
    }

    /// Quadrature weight (Jacobian included) of every local node.
    fn node_weights(dg: &DgAdvection) -> Vec<f64> {
        let w = &dg.ed.lgl.weights;
        let mut out = Vec::with_capacity(dg.u.len());
        for h in &dg.half {
            let jac = (h[0] * h[1] * h[2]).abs();
            for &wk in w {
                for &wj in w {
                    out.extend(w.iter().map(|&wi| jac * wi * wj * wk));
                }
            }
        }
        out
    }

    /// `∫ a·n |u| dS` over the outflow part of the domain boundary.
    fn outflow(dg: &DgAdvection) -> f64 {
        let (n, n3) = (dg.ed.lgl.n(), dg.ed.n3());
        let w = &dg.ed.lgl.weights;
        let mut local = 0.0;
        for (i, _) in (dg.links.iter().enumerate()).filter(|(_, l)| matches!(l, FaceLink::Boundary))
        {
            let (e, face) = (i / 6, i % 6);
            let [t1, t2] = transverse_axes(face as u8);
            let area = (dg.half[e][t1] * dg.half[e][t2]).abs();
            for (k, &node) in dg.ft.nodes(face).iter().enumerate() {
                let an = dg.an[i * n * n + k].max(0.0);
                local += area * w[k % n] * w[k / n] * an * dg.u[e * n3 + node as usize].abs();
            }
        }
        dg.forest.comm().allreduce_sum(&[local])[0]
    }

    /// The states on both sides of every mortar of every local face that
    /// has a neighbour: `(element, face, link, own, ext)`.
    fn for_each_mortar(
        dg: &mut DgAdvection,
        mut visit: impl FnMut(usize, usize, FaceLink, &[f64], &[f64]),
    ) {
        dg.refresh_ghosts();
        let n2 = dg.ed.lgl.n().pow(2);
        let (mut own, mut ext, mut work) = (vec![0.0; n2], vec![0.0; n2], vec![0.0; 2 * n2]);
        for (i, &link) in dg.links.iter().enumerate() {
            let mortars = match link {
                FaceLink::Boundary => 0,
                FaceLink::Finer { .. } => 4,
                _ => 1,
            };
            for m in 0..mortars {
                dg.mortar_states(i / 6, i % 6, m, &mut own, &mut ext, &mut work);
                visit(i / 6, i % 6, link, &own, &ext);
            }
        }
    }

    /// A value in `[−1, 1)` that depends on the leaf and the node only,
    /// not on which rank holds them.
    fn noise(leaf: &ForestLeaf, node: usize) -> f64 {
        let z = mix(((leaf.tree as u64) << 58) ^ leaf.oct.raw() ^ ((node as u64) << 32));
        (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

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
            // With a ∥ x the lateral walls carry no flux and the inflow
            // wall injects 0, so mass leaves through x = 1 only, where
            // the tail of the front is small but not zero: the drift is
            // bounded by that outflow (an RK step is a convex combination
            // of its stage fluxes; twice the larger end value covers them).
            let mut escaped = 0.0;
            let mut flux = outflow(&dg);
            for _ in 0..nsteps {
                dg.step(dt);
                let next = outflow(&dg);
                escaped += 2.0 * dt * flux.max(next);
                flux = next;
            }
            let err = dg.max_error(move |q| {
                let r2 = (q[0] - 0.65).powi(2) + (q[1] - 0.5).powi(2) + (q[2] - 0.5).powi(2);
                (-r2 / width).exp()
            });
            assert!(err < 0.12, "interface transport error {err}");
            let m1 = dg.total_mass();
            assert!(
                (m1 - m0).abs() <= escaped + 1e-12 * m0.abs(),
                "mass drift {m0} → {m1} exceeds the outflow {escaped}"
            );
            assert!(
                escaped < 5e-3 * m0.abs(),
                "the front stays inside: {escaped}"
            );
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

    /// Distributed DG on the adaptive nonconforming forest: the
    /// per-element solution at P ∈ {2, 4, 8} is bitwise identical to the
    /// serial run (same elements, same arithmetic — only the ghost
    /// provenance differs), and mass is conserved: a ∥ x closes the
    /// lateral walls, the inflow wall injects 0, and the front sits 1.2
    /// from the outflow wall (e⁻⁷² there).
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
                    (m1 - m0).abs() <= 1e-12 * m0.abs(),
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

    /// A 2×2×2 brick of level-3 trees, refined to level 4 around the
    /// vertex all eight trees share — lopsidedly, so that 2:1 faces lie
    /// inside trees and on tree faces in all three directions, with
    /// both sides of each far from the domain boundary.
    fn cornered_brick<'c>(c: &'c scomm::Comm) -> Forest<'c> {
        let conn = Arc::new(Connectivity::brick(2, 2, 2));
        let mut f = Forest::new_uniform(c, conn.clone(), 3);
        f.refine(|l| {
            let q = conn.octant_center(l.tree, &l.oct);
            let near = |r: f64| q.iter().all(|x| (x - 1.0).abs() < r);
            near(0.125) || (near(0.25) && l.tree % 3 == 0)
        });
        f.balance(octree::balance::BalanceKind::Full);
        f.partition();
        f
    }

    /// Mass is conserved to rounding across conforming, hanging and
    /// inter-tree faces. One right-hand-side evaluation of random data
    /// that vanishes in every element on the domain boundary sums to
    /// zero under the quadrature weights, for a velocity along no axis
    /// and for its reverse (each 2:1 face then carries flux both from
    /// coarse to fine and from fine to coarse). And one whole step
    /// conserves the mass of data placed upstream: five stages carry it
    /// at most five elements downstream, short of the outflow walls,
    /// which the test checks, and inflow walls inject 0.
    #[test]
    fn mass_is_conserved_exactly_on_a_brick() {
        for p in [1usize, 2, 4] {
            spmd::run(p, |c| {
                let f = cornered_brick(c);
                let on_wall = |l: &ForestLeaf, lo: bool| -> bool {
                    let q = f.connectivity().octant_center(l.tree, &l.oct);
                    let r = 0.5 * l.oct.len_unit();
                    (q.iter()).any(|&x| if lo { x - r < 1e-9 } else { x + r > 2.0 - 1e-9 })
                };
                for a in [[1.0, 0.3, -0.2], [-1.0, -0.3, 0.2]] {
                    let params = DgParams {
                        order: 2,
                        ..Default::default()
                    };
                    let mut dg = DgAdvection::new(&f, params, |_| 0.0, move |_| a);
                    let n3 = dg.ed.n3();
                    for (e, l) in f.local.iter().enumerate() {
                        if !on_wall(l, true) && !on_wall(l, false) {
                            for node in 0..n3 {
                                dg.u[e * n3 + node] = noise(l, node);
                            }
                        }
                    }
                    let k = rhs_of(&mut dg);
                    let w = node_weights(&dg);
                    let sum: f64 = k.iter().zip(&w).map(|(k, w)| k * w).sum();
                    let abs: f64 = k.iter().zip(&w).map(|(k, w)| (k * w).abs()).sum();
                    let g = c.allreduce_sum(&[sum, abs]);
                    assert!(g[1] > 1.0, "the data moves: {}", g[1]);
                    assert!(
                        g[0].abs() <= 1e-12 * g[1],
                        "P={p} a={a:?}: Σ w·rhs = {} of {}",
                        g[0],
                        g[1]
                    );
                }

                // Through `step`: everything flows toward +x, +y, +z.
                let params = DgParams {
                    order: 2,
                    ..Default::default()
                };
                let mut dg = DgAdvection::new(&f, params, |_| 0.0, |_| [1.0, 0.3, 0.2]);
                let n3 = dg.ed.n3();
                for (e, l) in f.local.iter().enumerate() {
                    let q = f.connectivity().octant_center(l.tree, &l.oct);
                    if q.iter().all(|&x| x < 1.25) {
                        for node in 0..n3 {
                            dg.u[e * n3 + node] = 1.0 + noise(l, node);
                        }
                    }
                }
                let m0 = dg.total_mass();
                dg.step(dg.stable_dt());
                let m1 = dg.total_mass();
                for (e, l) in f.local.iter().enumerate() {
                    let reached = dg.u[e * n3..(e + 1) * n3].iter().any(|&v| v != 0.0);
                    assert!(
                        !(reached && on_wall(l, false)),
                        "data reached an outflow wall at {l:?}"
                    );
                }
                assert!(
                    m0 > 1.0 && (m1 - m0).abs() <= 1e-12 * m0,
                    "P={p}: mass {m0} → {m1}"
                );
            });
        }
    }

    /// Free stream on a nonconforming multi-tree forest: the rows of the
    /// mortar interpolations sum to one and the projection of a constant
    /// is that constant, so a constant state stays put across hanging and
    /// inter-tree faces too.
    #[test]
    fn freestream_preserved_across_hanging_faces() {
        let conn = Arc::new(Connectivity::brick(2, 1, 1));
        for p in [1usize, 2, 4] {
            spmd::run(p, |c| {
                let f = adapted_brick(c, conn.clone());
                let params = DgParams {
                    order: 3,
                    cfl: 0.3,
                    inflow_value: 1.0,
                };
                let mut dg = DgAdvection::new(&f, params, |_| 1.0, |_| [0.7, -0.4, 0.2]);
                let dt = dg.stable_dt();
                for _ in 0..5 {
                    dg.step(dt);
                }
                for (i, &v) in dg.u.iter().enumerate() {
                    assert!((v - 1.0).abs() < 1e-11, "P={p} node {i}: {v}");
                }
            });
        }
    }

    /// The fused const-order pass against the oracle, bitwise, at every
    /// order the DG runs tests at: a refined cubed sphere (sign-reversed
    /// boxes, hanging faces from both sides, inter-tree seams, ghosts at
    /// P = 2), random data and a rotation that makes every face kind take
    /// inflow somewhere and not elsewhere.
    #[test]
    fn fused_rhs_matches_the_runtime_order_oracle_bitwise() {
        let conn = Arc::new(Connectivity::cubed_sphere(0.55, 1.0));
        for p in [1usize, 2] {
            for order in 1..=4 {
                let conn = conn.clone();
                spmd::run(p, move |c| {
                    let mut f = Forest::new_uniform(c, conn.clone(), 1);
                    f.refine(|l| (l.tree as u64 + l.oct.key()).is_multiple_of(3));
                    f.balance(octree::balance::BalanceKind::Full);
                    f.partition();
                    let params = DgParams {
                        order,
                        inflow_value: 0.25,
                        ..Default::default()
                    };
                    let rotate = |q: [f64; 3]| [0.3 * q[2] - q[1], q[0] - 0.2 * q[2], 0.2 * q[1]];
                    let mut dg = DgAdvection::new(&f, params, |_| 0.0, rotate);
                    let n3 = dg.ed.n3();
                    for (e, l) in f.local.iter().enumerate() {
                        for node in 0..n3 {
                            dg.u[e * n3 + node] = noise(l, node);
                        }
                    }
                    let (fused, oracle) = (rhs_of(&mut dg), rhs_oracle(&mut dg));
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&fused), bits(&oracle), "P={p} order {order}");
                    let mut seen = [0u64; 4];
                    for (l, &inflow) in dg.links.iter().zip(&dg.inflow) {
                        seen[match l {
                            FaceLink::Boundary => 0,
                            FaceLink::Same { .. } => 1,
                            _ => 2,
                        }] += u64::from(inflow != 0);
                        seen[3] += l.traces().iter().filter(|t| t.ghost).count() as u64;
                    }
                    let seen = c.allreduce_sum(&seen);
                    assert!(seen[..3].iter().all(|&s| s > 0), "P={p}: {seen:?}");
                    assert_eq!(seen[3] > 0, p > 1, "P={p}: ghost traces {seen:?}");
                });
            }
        }
    }

    /// The continuity oracle: nodal data sampled from one global
    /// polynomial of degree ≤ p per variable has no jump across any face
    /// — conforming, hanging seen from either side, or across the tree
    /// face — so the face term vanishes and the right-hand side is the
    /// volume term. Independent of how the links were built: a wrong
    /// neighbour, face, quarter or operator shows as an O(1) jump.
    #[test]
    fn exterior_trace_matches_interior_for_continuous_data() {
        let conn = Arc::new(Connectivity::brick(2, 1, 1));
        for p in [1usize, 2, 4] {
            spmd::run(p, |c| {
                let f = adapted_brick(c, conn.clone());
                let order = 3;
                let poly = |q: [f64; 3]| {
                    (1.0 + 0.3 * q[0] - 0.2 * q[0].powi(3))
                        * (1.0 - 0.5 * q[1] + 0.4 * q[1].powi(3))
                        * (0.7 + q[2] - 0.6 * q[2].powi(2))
                };
                let params = DgParams {
                    order,
                    ..Default::default()
                };
                let mut dg = DgAdvection::new(&f, params, poly, |_| [1.0, 0.2, -0.1]);
                let umax = dg.u.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                let (mut hanging, mut across) = (0usize, 0usize);
                for_each_mortar(&mut dg, |e, face, link, own, ext| {
                    hanging += usize::from(!matches!(link, FaceLink::Same { .. }));
                    let nbr = link.traces()[0];
                    across +=
                        usize::from(!nbr.ghost && f.local[nbr.id as usize].tree != f.local[e].tree);
                    for (a, b) in own.iter().zip(ext) {
                        assert!(
                            (a - b).abs() <= 1e-13 * umax,
                            "P={p} elem {e} face {face} {link:?}: {a} vs {b}"
                        );
                    }
                });
                let seen = c.allreduce_sum(&[hanging as u64, across as u64]);
                assert!(
                    seen[0] > 0 && seen[1] > 0,
                    "hanging and inter-tree faces exercised: {seen:?}"
                );

                let k = rhs_of(&mut dg);
                let mut vol = vec![0.0; dg.u.len()];
                rhs_volume(&dg, &mut vec![0.0; 3 * dg.ed.n3()], &mut vol);
                let kmax = vol.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                assert!(kmax > 0.1);
                // (Elements on the domain boundary also feel the inflow.)
                let n3 = dg.ed.n3();
                let mut inner = 0u64;
                for e in 0..f.local.len() {
                    if (dg.links[e * 6..(e + 1) * 6].iter())
                        .any(|l| matches!(l, FaceLink::Boundary))
                    {
                        continue;
                    }
                    inner += 1;
                    for (a, b) in k[e * n3..(e + 1) * n3].iter().zip(&vol[e * n3..]) {
                        assert!(
                            (a - b).abs() <= 1e-12 * kmax,
                            "P={p}: rhs {a} vs volume term {b}"
                        );
                    }
                }
                assert!(c.allreduce_sum(&[inner])[0] > 0);
            });
        }
    }

    /// Two unit cubes glued at `x = 1`, the second described in a frame
    /// whose axis `i` runs along physical axis `axis[i]`, backwards where
    /// `neg[i]`: every way a tree face can meet another.
    fn twisted_pair(axis: [usize; 3], neg: [bool; 3]) -> Connectivity {
        let lattice = |q: [usize; 3]| (q[0] + 3 * (q[1] + 2 * q[2])) as u32;
        let vertices = (0..12).map(|v| [(v % 3) as f64, (v / 3 % 2) as f64, (v / 6) as f64]);
        let bits = |c: usize| [c & 1, (c >> 1) & 1, (c >> 2) & 1];
        let straight = std::array::from_fn(|c| lattice(bits(c)));
        let twisted = std::array::from_fn(|c| {
            let mut q = [1, 0, 0];
            for (i, r) in bits(c).into_iter().enumerate() {
                q[axis[i]] += if neg[i] { 1 - r } else { r };
            }
            lattice(q)
        });
        Connectivity::new(
            vertices.collect(),
            vec![straight, twisted],
            forest::TreeGeometry::Trilinear,
        )
    }

    /// Sample `g` at the true mapped position of every node.
    fn sample_mapped(dg: &mut DgAdvection, g: impl Fn([f64; 3]) -> f64) {
        let conn = dg.forest.connectivity();
        let x = &dg.ed.lgl.nodes;
        let mut at = 0;
        for l in &dg.forest.local {
            let (a, s) = (l.oct.anchor_unit(), 0.5 * l.oct.len_unit());
            for z in x {
                for y in x {
                    for x in x {
                        let uvw = [
                            a[0] + s * (x + 1.0),
                            a[1] + s * (y + 1.0),
                            a[2] + s * (z + 1.0),
                        ];
                        dg.u[at] = g(conn.map_point(l.tree, uvw));
                        at += 1;
                    }
                }
            }
        }
    }

    /// All 48 orientations of a tree face: a global polynomial of the
    /// mapped position is continuous across the seam whichever way the
    /// second tree is turned or mirrored, conforming and hanging from
    /// both sides. (The built-in connectivities never turn a face: all
    /// 96 seams of the cubed sphere have orientation 0.)
    #[test]
    fn traces_meet_under_every_orientation() {
        let poly = |q: [f64; 3]| {
            (1.0 + 0.3 * q[0] - 0.2 * q[0].powi(3))
                * (1.0 - 0.5 * q[1] + 0.4 * q[1].powi(3))
                * (0.7 + q[2] - 0.6 * q[2].powi(2))
        };
        let mut codes = std::collections::BTreeSet::new();
        for twist in 0..48usize {
            let axis = [
                [0, 1, 2],
                [0, 2, 1],
                [1, 0, 2],
                [1, 2, 0],
                [2, 0, 1],
                [2, 1, 0],
            ][twist / 8];
            let neg = [twist & 1 != 0, twist & 2 != 0, twist & 4 != 0];
            let conn = Arc::new(twisted_pair(axis, neg));
            assert!(conn.validate());
            let seam = conn.neighbor_across(0, 1).expect("glued at x = 1");
            codes.insert(seam.orientation(1));
            for p in [1usize, 2] {
                let conn = conn.clone();
                spmd::run(p, move |c| {
                    let mut f = Forest::new_uniform(c, conn.clone(), 1);
                    f.refine(|l| {
                        matches!((l.tree, l.oct.child_id()), (0, 1 | 3) | (1, 0 | 3 | 5 | 6))
                    });
                    f.partition();
                    let params = DgParams {
                        order: 3,
                        ..Default::default()
                    };
                    let mut dg = DgAdvection::new(&f, params, |_| 0.0, |_| [1.0, 0.0, 0.0]);
                    sample_mapped(&mut dg, poly);
                    let mut kinds = [0u64; 3];
                    for_each_mortar(&mut dg, |e, face, link, own, ext| {
                        let nbr = link.traces()[0];
                        if nbr.ghost || f.local[nbr.id as usize].tree != f.local[e].tree {
                            kinds[match link {
                                FaceLink::Same { .. } => 0,
                                FaceLink::Coarser { .. } => 1,
                                _ => 2,
                            }] += 1;
                        }
                        for (a, b) in own.iter().zip(ext) {
                            assert!(
                                (a - b).abs() <= 1e-13 * 20.0,
                                "twist {twist} P={p} elem {e} face {face} {link:?}: {a} vs {b}"
                            );
                        }
                    });
                    let kinds = c.allreduce_sum(&kinds);
                    assert!(
                        kinds.iter().all(|&k| k > 0),
                        "twist {twist}: seam faces of every kind: {kinds:?}"
                    );
                });
            }
        }
        assert_eq!(codes.len(), 8, "all eight orientation codes occur");
    }

    /// Orientation across the shell's inter-tree faces. Nodal data is a
    /// smooth function of the *true* mapped node position, which both
    /// sides of an inter-tree face compute from their own tree's
    /// reference coordinates and agree on exactly — unlike the element
    /// boxes. On the uniform shell every face is conforming and the two
    /// traces must coincide node for node; on a refined shell the
    /// interpolated traces agree to the interpolation error of the
    /// curved map, far below the mismatch of a wrong permutation or a
    /// swapped child.
    #[test]
    fn cubed_sphere_traces_meet_across_tree_faces() {
        let conn = Arc::new(Connectivity::cubed_sphere(0.55, 1.0));
        let smooth = |q: [f64; 3]| q[0] + 2.0 * q[1] - 1.5 * q[2] + q[0] * q[1] - 0.5 * q[1] * q[2];
        for p in [1usize, 2, 4] {
            for refined in [false, true] {
                let conn = conn.clone();
                spmd::run(p, move |c| {
                    let mut f = Forest::new_uniform(c, conn.clone(), 1);
                    if refined {
                        f.refine(|l| (l.tree as u64 + l.oct.key()).is_multiple_of(3));
                        f.balance(octree::balance::BalanceKind::Full);
                        f.partition();
                    }
                    let params = DgParams {
                        order: 4,
                        ..Default::default()
                    };
                    let mut dg = DgAdvection::new(&f, params, |_| 0.0, |_| [1.0, 0.0, 0.0]);
                    sample_mapped(&mut dg, smooth);
                    let mut seams = std::collections::BTreeSet::new();
                    let mut worst = [0.0f64; 2];
                    for_each_mortar(&mut dg, |e, face, link, own, ext| {
                        let d = forest::DIRS[face];
                        let there = f
                            .neighbor(&f.local[e], d.0, d.1, d.2)
                            .expect("not a boundary");
                        if there.tree != f.local[e].tree {
                            seams.insert((f.local[e].tree, face));
                        }
                        let hanging = usize::from(!matches!(link, FaceLink::Same { .. }));
                        for (a, b) in own.iter().zip(ext) {
                            worst[hanging] = worst[hanging].max((a - b).abs());
                        }
                    });
                    let worst = c.allreduce_max(&worst);
                    // The function varies by more than 1 over a face.
                    assert!(
                        worst[0] <= 1e-12,
                        "P={p}: conforming traces differ by {}",
                        worst[0]
                    );
                    assert!(
                        worst[1] <= 1e-2,
                        "P={p}: mortar traces differ by {}",
                        worst[1]
                    );
                    assert_eq!(worst[1] > 0.0, refined);
                    let all: Vec<u64> =
                        (seams.iter().map(|&(t, face)| t as u64 * 6 + face as u64)).collect();
                    let mut all = c.allgatherv(&all);
                    all.sort_unstable();
                    all.dedup();
                    assert_eq!(
                        all.len(),
                        24 * 4,
                        "every lateral face of all 24 trees is a seam"
                    );
                });
            }
        }
    }
}
