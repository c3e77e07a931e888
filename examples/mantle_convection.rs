//! Mantle convection with plastic yielding — a reduced-resolution version
//! of the paper's Section VI simulation: the 8×4×1 regional domain,
//! three-layer temperature-dependent viscosity with yielding, dynamic AMR
//! tracking plumes and yielding zones.
//!
//! Run with: `cargo run --release --example mantle_convection`

use rhea::adapt::AdaptParams;
use rhea::convection::{ConvectionParams, ConvectionSim};
use rhea::rheology::YieldingLaw;
use rhea::transport::TransportParams;
use scomm::spmd;
use stokes::StokesOptions;

fn main() {
    const RANKS: usize = 2;
    const STEPS: usize = 8;
    println!("RHEA: regional mantle convection with yielding ({RANKS} ranks, {STEPS} steps)\n");
    println!("domain 8×4×1 (≈23,200 × 11,600 × 2,900 km), free-slip walls,");
    println!("T=1 at the CMB, T=0 at the surface, Ra = 10^6\n");

    let rows = spmd::run(RANKS, |comm| {
        let params = ConvectionParams {
            rayleigh: 1e6,
            domain: [8.0, 4.0, 1.0],
            adapt_every: 2,
            adapt: AdaptParams {
                target_elements: 3000,
                max_level: 5,
                min_level: 1,
                ..Default::default()
            },
            transport: TransportParams {
                kappa: 1.0,
                source: 0.0,
                cfl: 0.4,
            },
            stokes: StokesOptions {
                tol: 1e-5,
                max_iter: 300,
                ..Default::default()
            },
            picard_steps: 2,
        };
        let mut sim = ConvectionSim::new(comm, 2, params);
        let law = YieldingLaw {
            yield_stress: 1.0,
            exponent: 6.9,
        };
        let mut rows = Vec::new();
        for _ in 0..STEPS {
            let rep = sim.step(&law);
            let eta_min = sim.viscosity.iter().cloned().fold(f64::INFINITY, f64::min);
            let eta_max = sim.viscosity.iter().cloned().fold(0.0f64, f64::max);
            let gmin = comm.allreduce_min(&[eta_min])[0];
            let gmax = comm.allreduce_max(&[eta_max])[0];
            rows.push((rep, gmin, gmax));
        }
        // The paper's AMR phases are the `amr`-category spans other than
        // the `AMR` umbrella that wraps one whole adaptation; the solver
        // phases are the `solve` category, where `AMGSolve` (the
        // V-cycles) nests inside `MINRES`.
        let summary = sim.rec.summary();
        let amr = summary.cat_incl_seconds("amr") - summary.incl_seconds("AMR");
        let solve = summary.cat_incl_seconds("solve") - summary.incl_seconds("AMGSolve");
        let amr_pct = 100.0 * amr / (amr + solve);
        (rows, amr_pct)
    });

    let (steps, amr_pct) = &rows[0];
    println!(
        "{:>4} {:>10} {:>8} {:>9} {:>10} {:>12} {:>14}",
        "step", "elements", "MINRES", "dt", "v_rms", "η range", "adapted?"
    );
    for (rep, gmin, gmax) in steps {
        println!(
            "{:>4} {:>10} {:>8} {:>9.2e} {:>10.2e} {:>6.0e}–{:<6.0e} {:>8}",
            rep.step,
            rep.n_elements,
            rep.minres_iterations,
            rep.dt,
            rep.v_rms,
            gmin,
            gmax,
            if rep.adapt.is_some() { "yes" } else { "" },
        );
    }
    println!("\nAMR overhead: {amr_pct:.2}% of total runtime (paper: < 1% for the full code)");
    println!("viscosity spans the yielding lithosphere / aesthenosphere / lower mantle");
    println!("structure of the paper's Section VI law.");
}
