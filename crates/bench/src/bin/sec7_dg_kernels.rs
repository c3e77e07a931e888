//! Section VII — matrix-based vs tensor-product DG derivative kernels.
//!
//! Paper (Ranger, GotoBLAS): the matrix kernel costs 6(p+1)⁶ flops vs
//! 6(p+1)⁴ for the tensor kernel; the crossover where the tensor kernel
//! wins falls between p = 2 and p = 4; at p = 6 the matrix version does
//! 20× more flops yet runs only 2× slower (≈9.3 Tflop/s tensor vs
//! 100 Tflop/s matrix sustained on 32K cores).
//!
//! Here: both kernels run on real data on this host; flops are counted
//! analytically with the paper's formulas; rates, the runtime ratio, and
//! the measured crossover order are printed. The dense kernel is a
//! cache-blocked Rust matmul (DESIGN.md substitution #5), so the exact
//! crossover may shift from the paper's GotoBLAS point, but the
//! flops-vs-cache tradeoff it demonstrates is architecture-independent.

use mangll::kernels::{
    matrix_derivative_flops, tensor_derivative_flops, ElementDerivative, MatrixDerivative,
    MAX_ORDER,
};
use rhea_bench::{banner, Table};

/// Flops per timed batch of either kernel: the dense kernel at p = 8 then
/// runs 42 elements a batch, and the whole sweep takes seconds.
const BATCH_FLOPS: u64 = 1 << 27;

fn time_kernel(f: impl Fn()) -> f64 {
    // Warmup + best-of-3 timing.
    f();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = std::time::Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    banner(
        "Section VII",
        "Element derivative kernels: matrix-based (6(p+1)^6) vs tensor-product (6(p+1)^4)",
    );
    let mut table = Table::new(&[
        "p",
        "matrix flops/elem",
        "tensor flops/elem",
        "flop ratio",
        "matrix s/elem",
        "tensor s/elem",
        "time ratio (mat/ten)",
        "matrix GF/s",
        "tensor GF/s",
    ]);
    let mut crossover: Option<usize> = None;
    let mut prev_faster_matrix = false;
    for p in 1..=MAX_ORDER {
        let ed = ElementDerivative::new(p);
        let dense = MatrixDerivative::new(&ed);
        let n3 = ed.n3();
        // Input of up to ~8 MB, to exercise the cache hierarchy; each
        // kernel's batch is as many of its elements as BATCH_FLOPS buys.
        let nelem = (1_000_000 / n3).clamp(8, 4096);
        let u: Vec<f64> = (0..n3 * nelem)
            .map(|i| ((i * 2654435761 + 7) % 1000) as f64 / 999.0)
            .collect();
        let out = std::cell::RefCell::new(vec![0.0; 3 * n3 * nelem]);
        let fm = matrix_derivative_flops(p);
        let ft = tensor_derivative_flops(p);
        let batch = |flops: u64| (BATCH_FLOPS / flops).clamp(8, nelem as u64) as usize;
        let (bm, bt) = (batch(fm), batch(ft));
        let t_mat = time_kernel(|| {
            dense.apply_batch(&u[..n3 * bm], &mut out.borrow_mut()[..3 * n3 * bm], bm);
        }) / bm as f64;
        let t_ten = time_kernel(|| {
            ed.apply_tensor_batch(&u, &mut out.borrow_mut(), bt);
        }) / bt as f64;
        let faster_matrix = t_mat < t_ten;
        if prev_faster_matrix && !faster_matrix && crossover.is_none() {
            crossover = Some(p);
        }
        prev_faster_matrix = faster_matrix;
        table.row(&[
            p.to_string(),
            fm.to_string(),
            ft.to_string(),
            format!("{}", fm / ft),
            format!("{:.2e}", t_mat),
            format!("{:.2e}", t_ten),
            format!("{:.2}", t_mat / t_ten),
            format!("{:.2}", fm as f64 / t_mat / 1e9),
            format!("{:.2}", ft as f64 / t_ten / 1e9),
        ]);
    }
    table.print();
    println!();
    match crossover {
        Some(p) => println!("measured crossover: tensor kernel wins from p = {p} on this host"),
        None => println!(
            "measured crossover: tensor kernel {} at every order on this host",
            if prev_faster_matrix {
                "never wins"
            } else {
                "wins"
            }
        ),
    }
    println!(
        "paper anchors: crossover between p = 2 and p = 4 on Ranger/GotoBLAS;\n\
         flop ratio (p+1)² — e.g. 49× at p = 6 — with the matrix kernel's higher\n\
         GF/s rate partially compensating (paper: 2× slower at 20× the flops)."
    );
}
