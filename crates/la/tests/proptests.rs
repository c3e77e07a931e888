//! Property tests for the linear algebra kernels: each runs `CASES`
//! seeded cases, and every assertion names the case seed, which replays
//! it.

use la::krylov::euclidean_dot;
use la::{cg, minres, Amg, AmgOptions, Cholesky, Csr};
use scomm::rng::{mix, SplitMix64};

/// Cases per property.
const CASES: u64 = 24;

/// The seeds of the cases of the property numbered `prop` in this file;
/// `SplitMix64::new(seed)` replays one case alone.
fn seeds(prop: u64) -> impl Iterator<Item = u64> {
    (0..CASES).map(move |case| mix(prop << 32 | case))
}

/// A random SPD matrix of order in `[2, max_n)`, built as `AᵀA + n·I`
/// from a random sparse square seed (the diagonal shift guarantees
/// positive definiteness).
fn arb_spd(rng: &mut SplitMix64, max_n: usize) -> Csr {
    let n = 2 + rng.below(max_n as u64 - 2) as usize;
    let mut trips = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if (i + j) % 3 == 0 || i == j {
                trips.push((i, j, rng.below(1000) as f64 / 500.0 - 1.0));
            }
        }
    }
    let a = Csr::from_triplets(n, n, &trips);
    // AᵀA, each entry stored when some product term lands on it and
    // summed over the rows of A in order.
    let mut ata: Vec<Option<f64>> = vec![None; n * n];
    for k in 0..n {
        for i in a.row_ptr[k]..a.row_ptr[k + 1] {
            for j in a.row_ptr[k]..a.row_ptr[k + 1] {
                let cell = &mut ata[a.col_idx[i] * n + a.col_idx[j]];
                *cell = Some(cell.unwrap_or(0.0) + a.values[i] * a.values[j]);
            }
        }
    }
    // Shift the diagonal.
    let mut t2: Vec<(usize, usize, f64)> = Vec::new();
    for r in 0..n {
        for c in 0..n {
            if let Some(v) = ata[r * n + c] {
                t2.push((r, c, v));
            }
        }
        t2.push((r, r, n as f64));
    }
    Csr::from_triplets(n, n, &t2)
}

#[test]
fn cg_solves_random_spd() {
    for seed in seeds(3) {
        let mut rng = SplitMix64::new(seed);
        let a = arb_spd(&mut rng, 14);
        let n = a.nrows;
        let b: Vec<f64> = (0..n)
            .map(|_| rng.below(1000) as f64 / 500.0 - 1.0)
            .collect();
        let mut x = vec![0.0; n];
        let info = cg(&a, None::<&Csr>, &b, &mut x, 1e-10, 10_000, euclidean_dot);
        assert!(info.converged, "{info:?}, seed {seed:#x}");
        let mut r = vec![0.0; n];
        a.matvec(&x, &mut r);
        for i in 0..n {
            assert!((r[i] - b[i]).abs() < 1e-6, "row {i}, seed {seed:#x}");
        }
    }
}

#[test]
fn minres_matches_cg_on_spd() {
    for seed in seeds(4) {
        let a = arb_spd(&mut SplitMix64::new(seed), 10);
        let n = a.nrows;
        let b = vec![1.0; n];
        let mut x1 = vec![0.0; n];
        let mut x2 = vec![0.0; n];
        cg(&a, None::<&Csr>, &b, &mut x1, 1e-12, 10_000, euclidean_dot);
        minres(
            &a,
            None::<&Csr>,
            &b,
            &mut x2,
            1e-12,
            10_000,
            euclidean_dot,
            |_, _| {},
        );
        for i in 0..n {
            assert!(
                (x1[i] - x2[i]).abs() < 1e-6,
                "entry {i}: {} vs {}, seed {seed:#x}",
                x1[i],
                x2[i]
            );
        }
    }
}

#[test]
fn cholesky_matches_csr_solve() {
    for seed in seeds(5) {
        let a = arb_spd(&mut SplitMix64::new(seed), 10);
        let n = a.nrows;
        // Densify.
        let mut dense = vec![0.0; n * n];
        for r in 0..n {
            for k in a.row_ptr[r]..a.row_ptr[r + 1] {
                dense[r * n + a.col_idx[k]] = a.values[k];
            }
        }
        let ch = Cholesky::factor(&dense, n).expect("SPD by construction");
        let b = vec![1.0; n];
        let mut x_ch = b.clone();
        ch.solve(&mut x_ch);
        let mut x_cg = vec![0.0; n];
        cg(
            &a,
            None::<&Csr>,
            &b,
            &mut x_cg,
            1e-13,
            10_000,
            euclidean_dot,
        );
        for i in 0..n {
            assert!(
                (x_ch[i] - x_cg[i]).abs() < 1e-6,
                "entry {i}, seed {seed:#x}"
            );
        }
    }
}

#[test]
fn amg_vcycle_is_spd_operator() {
    for seed in seeds(6) {
        let a = arb_spd(&mut SplitMix64::new(seed), 30);
        let n = a.nrows;
        let amg = Amg::new(a, AmgOptions { max_coarse: 8 });
        let u: Vec<f64> = (0..n)
            .map(|i| ((i * 7919) % 100) as f64 / 50.0 - 1.0)
            .collect();
        let v: Vec<f64> = (0..n)
            .map(|i| ((i * 104729) % 97) as f64 / 48.0 - 1.0)
            .collect();
        let mut bu = vec![0.0; n];
        let mut bv = vec![0.0; n];
        amg.vcycle(&u, &mut bu);
        amg.vcycle(&v, &mut bv);
        let lhs = euclidean_dot(&bu, &v);
        let rhs = euclidean_dot(&u, &bv);
        assert!(
            (lhs - rhs).abs() <= 1e-8 * lhs.abs().max(rhs.abs()).max(1e-10),
            "not symmetric: {lhs} vs {rhs}, seed {seed:#x}"
        );
        // Positivity on the test vector.
        let quad = euclidean_dot(&u, &bu);
        assert!(quad >= -1e-10, "not positive: {quad}, seed {seed:#x}");
    }
}
