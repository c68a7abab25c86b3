//! Node-level kernel benches: every dispatchable SpMV kernel (scalar CSR,
//! unrolled CSR, SELL-C-σ) on both application matrices and a power-law stress matrix, the split
//! (local + non-local) kernel against the unsplit one (Eq. 2 measured on
//! real hardware), and the send-buffer gather.

use spmv_bench::microbench::{Bench, Unit};
use spmv_bench::{hmep, samg, Scale};
use spmv_core::plan::build_plans_serial;
use spmv_core::{prepare_kernel, KernelKind, RowPartition, SplitMatrix};
use spmv_matrix::{synthetic, vecops, CsrMatrix};

fn matrices() -> Vec<(&'static str, CsrMatrix)> {
    vec![
        ("hmep", hmep(Scale::Test)),
        ("samg", samg(Scale::Test)),
        ("powerlaw", synthetic::power_law_rows(20_000, 15.0, 1.1, 7)),
    ]
}

/// The dispatcher menu plus an extra SELL shape worth comparing.
fn kernel_kinds() -> Vec<KernelKind> {
    let mut kinds = KernelKind::candidates();
    kinds.push(KernelKind::Sell { c: 8, sigma: 64 });
    kinds
}

fn bench_kernel_kinds(b: &Bench) {
    for (name, m) in matrices() {
        let x = vecops::random_vec(m.ncols(), 3);
        let mut y = vec![0.0; m.nrows()];
        let flops = 2.0 * m.nnz() as f64;
        for kind in kernel_kinds() {
            let k = prepare_kernel(kind, &m);
            b.run(
                &format!("spmv_{name}"),
                &kind.label(),
                Some((flops, Unit::Flops)),
                || {
                    k.spmv_rows(
                        &m,
                        0..m.nrows(),
                        std::hint::black_box(&x),
                        std::hint::black_box(&mut y),
                        false,
                    );
                },
            );
        }
    }
}

fn bench_split_vs_full(b: &Bench) {
    // one rank's share of a 4-rank HMeP partition: the kernel the modes run
    let m = hmep(Scale::Test);
    let p = RowPartition::by_nnz(&m, 4);
    let plans = build_plans_serial(&m, &p);
    let plan = &plans[1];
    let block = m.row_block(p.range(1));
    let split = SplitMatrix::build(&block, plan);
    let x = vecops::random_vec(m.ncols(), 5);
    let mut x_ext: Vec<f64> = x[p.range(1)].to_vec();
    x_ext.extend(plan.halo_globals().iter().map(|&g| x[g as usize]));
    let n = block.nrows();
    let mut y = vec![0.0; n];

    let flops = 2.0 * block.nnz() as f64;
    let (full, local, nonlocal) = (split.full.view(), split.local.view(), split.nonlocal.view());
    b.run(
        "split_vs_full",
        "full_unsplit",
        Some((flops, Unit::Flops)),
        || {
            let x_ext = std::hint::black_box(&x_ext);
            full.spmv_rows(0..n, x_ext, std::hint::black_box(&mut y), false);
        },
    );
    b.run(
        "split_vs_full",
        "split_local_plus_nonlocal",
        Some((flops, Unit::Flops)),
        || {
            let x_ext = std::hint::black_box(&x_ext);
            local.spmv_rows(0..n, &x_ext[..plan.local_len], &mut y, false);
            nonlocal.spmv_rows(0..n, x_ext, std::hint::black_box(&mut y), true);
        },
    );
}

fn bench_gather(b: &Bench) {
    let m = hmep(Scale::Test);
    let p = RowPartition::by_nnz(&m, 4);
    let plans = build_plans_serial(&m, &p);
    let plan = &plans[1];
    let x_local = vecops::random_vec(plan.local_len, 7);
    let indices: Vec<u32> = plan
        .send
        .iter()
        .flat_map(|n| n.indices.iter().copied())
        .collect();
    let mut buf = vec![0.0f64; indices.len()];

    b.run(
        "gather",
        "send_buffer_gather",
        Some((24.0 * indices.len() as f64, Unit::Bytes)),
        || {
            for (dst, &src) in buf.iter_mut().zip(&indices) {
                *dst = x_local[src as usize];
            }
            std::hint::black_box(&buf);
        },
    );
}

fn main() {
    let b = Bench::new();
    bench_kernel_kinds(&b);
    bench_split_vs_full(&b);
    bench_gather(&b);
}
