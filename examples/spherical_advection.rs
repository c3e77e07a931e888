//! High-order DG advection on the cubed sphere — the paper's Fig. 12
//! demonstration: a front carried around a spherical shell decomposed
//! into 24 adaptive octrees (6 caps × 4 trees), exercising the
//! forest-of-octrees connectivity and inter-tree face transforms.
//!
//! Run with: `cargo run --release --example spherical_advection`

use forest::{Connectivity, Forest};
use mangll::advection::{DgAdvection, DgParams};
use scomm::spmd;
use std::sync::Arc;

fn main() {
    const RANKS: usize = 4;
    const STEPS: usize = 40;
    let order = 2;
    println!("MANGLL: DG(p={order}) advection on the cubed sphere ({RANKS} ranks)\n");
    let conn = Arc::new(Connectivity::cubed_sphere(0.55, 1.0));
    println!(
        "connectivity: {} trees, {} vertices (6 caps × 4 trees, the paper's split)",
        conn.num_trees(),
        conn.vertices.len()
    );

    let out = spmd::run(RANKS, move |comm| {
        let forest = Forest::new_uniform(comm, conn.clone(), 1);
        let init = |q: [f64; 3]| {
            let r = (q[0] * q[0] + q[1] * q[1] + q[2] * q[2]).sqrt();
            let d2 = (q[0] / r - 1.0).powi(2) + (q[1] / r).powi(2) + (q[2] / r).powi(2);
            (-d2 / 0.05).exp()
        };
        // Solid-body rotation about the z axis.
        let mut dg = DgAdvection::new(
            &forest,
            DgParams {
                order,
                cfl: 0.25,
                ..Default::default()
            },
            init,
            |q| [-q[1], q[0], 0.0],
        );
        let m0 = dg.total_mass();
        let dt = dg.stable_dt();
        let mut snapshots = Vec::new();
        for s in 0..STEPS {
            dg.step(dt);
            if s % 10 == 9 {
                // Front azimuth as the solution-weighted circular mean
                // over all nodes — tracks sub-element motion smoothly,
                // unlike an argmax (which is quantized to node spacing).
                let n3 = dg.u.len() / forest.local.len();
                let (mut sx, mut sy, mut umax) = (0.0f64, 0.0f64, 0.0f64);
                for e in 0..forest.local.len() {
                    for (node, p) in dg.node_positions(e).enumerate() {
                        let u = dg.u[e * n3 + node].max(0.0);
                        let az = p[1].atan2(p[0]);
                        sx += u * az.cos();
                        sy += u * az.sin();
                        umax = umax.max(u);
                    }
                }
                let sums = comm.allreduce_sum(&[sx, sy]);
                let gmax = comm.allreduce_max(&[umax])[0];
                let angle = sums[1].atan2(sums[0]);
                snapshots.push((s + 1, (s + 1) as f64 * dt, angle, gmax));
            }
        }
        let m1 = dg.total_mass();
        (snapshots, m0, m1, forest.global_count())
    });

    let (snapshots, m0, m1, nelem) = &out[0];
    println!("forest: {nelem} elements across 24 trees\n");
    println!(
        "{:>6} {:>10} {:>16} {:>12}",
        "step", "t", "front azimuth", "front max"
    );
    for (s, t, angle, peak) in snapshots {
        println!(
            "{:>6} {:>10.3} {:>13.3} rad {:>12.3}  (expected ≈ {:.3})",
            s, t, angle, peak, t
        );
    }
    println!(
        "\nmass drift over the run: {:.2}% (the box geometry's: the two sides of a\n\
         shell face disagree on its area; the mortars conserve exactly on bricks)",
        100.0 * (m1 - m0).abs() / m0.abs()
    );
    println!(
        "note: at this deliberately coarse resolution (level-1 forest, box-shaped\n\
         elements approximating the shell) the radial faces carry spurious\n\
         boundary flux, which damps the front and biases the azimuth diagnostic;\n\
         both artifacts shrink with refinement. The structural result — the front\n\
         crossing the inter-tree faces of all six caps without instability — is\n\
         the paper's Fig. 12 behaviour."
    );
}
