//! Property-based tests for the linear algebra kernels.

use la::krylov::euclidean_dot;
use la::{cg, minres, Amg, AmgOptions, Cholesky, Csr};
use proptest::prelude::*;

/// Strategy: a random SPD matrix built as `AᵀA + n·I` from a random
/// sparse square seed (diagonal shift guarantees positive definiteness).
fn arb_spd(max_n: usize) -> impl Strategy<Value = Csr> {
    (2..max_n, any::<u64>()).prop_map(|(n, seed)| {
        let mut state = seed | 1;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 500.0 - 1.0
        };
        let mut trips = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if (i + j) % 3 == 0 || i == j {
                    trips.push((i, j, rnd()));
                }
            }
        }
        let a = Csr::from_triplets(n, n, &trips);
        let at = a.transpose();
        let mut ata = at.matmul(&a);
        // Shift the diagonal.
        let mut t2: Vec<(usize, usize, f64)> = Vec::new();
        for r in 0..n {
            for k in ata.row_ptr[r]..ata.row_ptr[r + 1] {
                t2.push((r, ata.col_idx[k], ata.values[k]));
            }
            t2.push((r, r, n as f64));
        }
        ata = Csr::from_triplets(n, n, &t2);
        ata
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn transpose_is_involution(a in arb_spd(12)) {
        let att = a.transpose().transpose();
        prop_assert!(att.diff_norm(&a) < 1e-12);
    }

    #[test]
    fn matmul_transposes_contravariantly(a in arb_spd(8), b in arb_spd(8)) {
        if a.ncols == b.nrows {
            let ab_t = a.matmul(&b).transpose();
            let bt_at = b.transpose().matmul(&a.transpose());
            prop_assert!(ab_t.diff_norm(&bt_at) < 1e-9);
        }
    }

    #[test]
    fn cg_solves_random_spd(a in arb_spd(14), seed in any::<u64>()) {
        let n = a.nrows;
        let b: Vec<f64> = (0..n)
            .map(|i| ((seed.wrapping_add(i as u64 * 977) % 1000) as f64) / 500.0 - 1.0)
            .collect();
        let mut x = vec![0.0; n];
        let info = cg(&a, None::<&Csr>, &b, &mut x, 1e-10, 10_000, euclidean_dot);
        prop_assert!(info.converged, "{info:?}");
        let mut r = vec![0.0; n];
        a.matvec(&x, &mut r);
        for i in 0..n {
            prop_assert!((r[i] - b[i]).abs() < 1e-6, "row {i}");
        }
    }

    #[test]
    fn minres_matches_cg_on_spd(a in arb_spd(10)) {
        let n = a.nrows;
        let b = vec![1.0; n];
        let mut x1 = vec![0.0; n];
        let mut x2 = vec![0.0; n];
        cg(&a, None::<&Csr>, &b, &mut x1, 1e-12, 10_000, euclidean_dot);
        minres(&a, None::<&Csr>, &b, &mut x2, 1e-12, 10_000, euclidean_dot, |_, _| {});
        for i in 0..n {
            prop_assert!((x1[i] - x2[i]).abs() < 1e-6, "entry {i}: {} vs {}", x1[i], x2[i]);
        }
    }

    #[test]
    fn cholesky_matches_csr_solve(a in arb_spd(10)) {
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
        cg(&a, None::<&Csr>, &b, &mut x_cg, 1e-13, 10_000, euclidean_dot);
        for i in 0..n {
            prop_assert!((x_ch[i] - x_cg[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn amg_vcycle_is_spd_operator(a in arb_spd(30)) {
        let n = a.nrows;
        let amg = Amg::new(a, AmgOptions { max_coarse: 8, ..Default::default() });
        let u: Vec<f64> = (0..n).map(|i| ((i * 7919) % 100) as f64 / 50.0 - 1.0).collect();
        let v: Vec<f64> = (0..n).map(|i| ((i * 104729) % 97) as f64 / 48.0 - 1.0).collect();
        let mut bu = vec![0.0; n];
        let mut bv = vec![0.0; n];
        amg.vcycle(&u, &mut bu);
        amg.vcycle(&v, &mut bv);
        let lhs = euclidean_dot(&bu, &v);
        let rhs = euclidean_dot(&u, &bv);
        prop_assert!((lhs - rhs).abs() <= 1e-8 * lhs.abs().max(rhs.abs()).max(1e-10),
            "not symmetric: {lhs} vs {rhs}");
        // Positivity on the test vector.
        let quad = euclidean_dot(&u, &bu);
        prop_assert!(quad >= -1e-10, "not positive: {quad}");
    }
}
