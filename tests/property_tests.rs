//! Randomized invariant tests on the core substrate: CRS round trips,
//! partitioning, communication plans, distributed-vs-serial SpMV, the
//! kernel against the serial loop, SELL-C-σ round trips, and reorderings —
//! over randomized matrices and configurations.
//!
//! Formerly proptest-based; now a seeded in-repo fuzz loop (`Rng64`) so the
//! workspace builds fully offline. Every case derives from a fixed seed, so
//! failures reproduce exactly.

use hybrid_spmv::prelude::*;
use spmv_core::kernels::{prepare_kernel, KernelKind};
use spmv_core::plan::build_plans_serial;
use spmv_matrix::rng::Rng64;
use spmv_matrix::{CooMatrix, SellMatrix};

const CASES: u64 = 48;

/// Random sparse square matrix with a full diagonal (no empty rows),
/// 2 ≤ n < `max_n`, up to ~6 extra entries per row.
fn sparse_matrix(rng: &mut Rng64, max_n: usize) -> CsrMatrix {
    let n = rng.gen_range(2, max_n);
    let extra = rng.gen_range(1, (6 * n).max(2));
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 1.0);
    }
    for _ in 0..extra {
        let v = (rng.gen_index(200) as f64 - 100.0) / 10.0;
        coo.push(rng.gen_index(n), rng.gen_index(n), v);
    }
    coo.to_csr().expect("valid by construction")
}

/// Random sparse matrix that may contain empty rows (and, rarely, is all
/// empty) — the shapes the padded formats must survive.
fn ragged_matrix(rng: &mut Rng64, max_n: usize) -> CsrMatrix {
    let n = rng.gen_range(1, max_n);
    let mut b = spmv_matrix::CsrBuilder::new(n, 4 * n);
    for _ in 0..n {
        let len = rng.gen_index(8); // 0 => empty row
        let mut cols: Vec<u32> = Vec::new();
        while cols.len() < len.min(n) {
            let c = rng.gen_index(n) as u32;
            if !cols.contains(&c) {
                cols.push(c);
            }
        }
        for &c in &cols {
            b.push(c as usize, rng.gen_f64() * 4.0 - 2.0);
        }
        b.finish_row();
    }
    b.build()
}

#[test]
fn coo_to_csr_preserves_entry_sums() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0x1000 + case);
        let m = sparse_matrix(&mut rng, 60);
        let coo = CooMatrix::from_csr(&m);
        let m2 = coo.to_csr().unwrap();
        assert_eq!(m, m2, "case {case}");
    }
}

#[test]
fn transpose_is_involutive() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0x2000 + case);
        let m = sparse_matrix(&mut rng, 60);
        assert_eq!(m.transpose().transpose(), m, "case {case}");
    }
}

#[test]
fn spmv_is_linear() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0x3000 + case);
        let m = sparse_matrix(&mut rng, 40);
        let a = rng.gen_range_f64(-5.0, 5.0);
        let b = rng.gen_range_f64(-5.0, 5.0);
        let n = m.nrows();
        let x1 = vecops::random_vec(n, 1);
        let x2 = vecops::random_vec(n, 2);
        let combo: Vec<f64> = x1.iter().zip(&x2).map(|(u, v)| a * u + b * v).collect();
        let mut y1 = vec![0.0; n];
        let mut y2 = vec![0.0; n];
        let mut yc = vec![0.0; n];
        m.spmv(&x1, &mut y1);
        m.spmv(&x2, &mut y2);
        m.spmv(&combo, &mut yc);
        for i in 0..n {
            assert!(
                (yc[i] - (a * y1[i] + b * y2[i])).abs() < 1e-9,
                "case {case} row {i}"
            );
        }
    }
}

#[test]
fn partition_tiles_rows() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0x4000 + case);
        let m = sparse_matrix(&mut rng, 80);
        let parts = rng.gen_range(1, 9);
        let p = RowPartition::by_nnz(&m, parts);
        assert_eq!(p.parts(), parts);
        assert_eq!(p.nrows(), m.nrows());
        let mut covered = 0usize;
        for k in 0..parts {
            let r = p.range(k);
            assert_eq!(r.start, covered, "case {case}");
            covered = r.end;
            for i in r {
                assert_eq!(p.owner_of(i), k, "case {case}");
            }
        }
        assert_eq!(covered, m.nrows(), "case {case}");
    }
}

#[test]
fn plans_cover_remote_columns_exactly() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0x5000 + case);
        let m = sparse_matrix(&mut rng, 60);
        let parts = rng.gen_range(1, 7);
        let p = RowPartition::by_nnz(&m, parts);
        let plans = build_plans_serial(&m, &p);
        // every remote reference appears exactly once in the halo, and
        // send/recv relations transpose
        let mut total_sent = 0usize;
        let mut total_recv = 0usize;
        for plan in &plans {
            total_sent += plan.send_len();
            total_recv += plan.halo_len();
            let range = p.range(plan.rank);
            for n in &plan.recv {
                for &g in &n.indices {
                    assert!(!range.contains(&(g as usize)), "case {case}");
                    assert_eq!(p.owner_of(g as usize), n.peer, "case {case}");
                }
            }
        }
        assert_eq!(total_sent, total_recv, "case {case}");
    }
}

#[test]
fn distributed_spmv_matches_serial() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0x6000 + case);
        let m = sparse_matrix(&mut rng, 50);
        let ranks = rng.gen_range(1, 6);
        let mode = KernelMode::ALL[rng.gen_index(3)];
        let threads = rng.gen_range(1, 4);
        let cfg = if mode.needs_comm_thread() {
            EngineConfig::task_mode(threads)
        } else {
            EngineConfig::hybrid(threads)
        };
        let x = vecops::random_vec(m.nrows(), 77);
        let mut y_ref = vec![0.0; m.nrows()];
        m.spmv(&x, &mut y_ref);
        let y = distributed_spmv(&m, &x, ranks, cfg, mode);
        assert!(
            vecops::rel_error(&y, &y_ref) < 1e-9,
            "case {case} {mode} x{ranks}"
        );
    }
}

/// The engine's kernel must match the serial reference on random
/// matrices — with empty rows, single-row matrices, and sub-range
/// invocations all exercised.
#[test]
fn kernel_kinds_match_scalar_on_random_matrices() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0x7000 + case);
        // alternate generators: diagonal-full, ragged (empty rows), 1-row
        let m = match case % 3 {
            0 => sparse_matrix(&mut rng, 50),
            1 => ragged_matrix(&mut rng, 50),
            _ => ragged_matrix(&mut rng, 2), // single-row shapes
        };
        let n = m.nrows();
        let x = vecops::random_vec(m.ncols(), 1000 + case);
        let mut y_ref = vec![0.0; n];
        m.spmv(&x, &mut y_ref);
        let k = prepare_kernel(KernelKind::CsrScalar, &m);
        let mut y = vec![f64::NAN; n];
        // split the row space at a random point to test sub-ranges
        let mid = rng.gen_index(n + 1);
        k.spmv_rows(&m, 0..mid, &x, &mut y, false);
        k.spmv_rows(&m, mid..n, &x, &mut y, false);
        assert!(vecops::rel_error(&y, &y_ref) < 1e-12, "case {case} n {n}");
    }
}

/// SELL-C-σ round trip: CSR → SELL → CSR is the identity, and the row
/// permutation composes with its inverse to the identity through `perm.rs`.
#[test]
fn sell_roundtrip_and_permutation() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0x8000 + case);
        let m = ragged_matrix(&mut rng, 60);
        let c = 1 + rng.gen_index(16);
        let sigma = 1 + rng.gen_index(2 * m.nrows());
        let s = SellMatrix::from_csr(&m, c, sigma);
        assert_eq!(s.to_csr(), m, "case {case} C={c} sigma={sigma}");
        let p = s.permutation();
        assert!(p.then(&p.inverse()).is_identity(), "case {case}");
        assert!(s.padding_factor() >= 1.0, "case {case}");
        let v = vecops::random_vec(m.nrows(), case + 5);
        assert_eq!(
            p.inverse().permute_vec(&p.permute_vec(&v)),
            v,
            "case {case}"
        );
    }
}

#[test]
fn rcm_preserves_matrix_invariants() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0x9000 + case);
        let m = sparse_matrix(&mut rng, 50);
        // symmetrize so RCM's premise holds
        let t = m.transpose();
        let mut coo = CooMatrix::new(m.nrows(), m.ncols());
        for (i, j, v) in m.triplets() {
            coo.push(i, j, v / 2.0);
        }
        for (i, j, v) in t.triplets() {
            coo.push(i, j, v / 2.0);
        }
        let sym = coo.to_csr().unwrap();
        let (rm, perm) = spmv_matrix::rcm::rcm_reorder(&sym);
        assert_eq!(rm.nnz(), sym.nnz(), "case {case}");
        assert!(
            (rm.frobenius_norm() - sym.frobenius_norm()).abs() < 1e-9,
            "case {case}"
        );
        // permutation is a bijection; applying its inverse restores the matrix
        let inv = perm.inverse();
        let back = rm.permute_symmetric(&inv).unwrap();
        assert_eq!(back, sym, "case {case}");
    }
}

#[test]
fn balanced_chunks_cover_and_balance() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0xA000 + case);
        let len = rng.gen_range(1, 200);
        let weights: Vec<usize> = (0..len).map(|_| rng.gen_index(50)).collect();
        let parts = rng.gen_range(1, 9);
        let mut prefix = vec![0usize];
        for w in &weights {
            prefix.push(prefix.last().unwrap() + w);
        }
        let chunks = spmv_smp::workshare::balanced_chunks(&prefix, parts);
        assert_eq!(chunks.len(), parts, "case {case}");
        assert_eq!(chunks[0].start, 0, "case {case}");
        assert_eq!(chunks.last().unwrap().end, weights.len(), "case {case}");
        for w in chunks.windows(2) {
            assert_eq!(w[0].end, w[1].start, "case {case}");
        }
    }
}

#[test]
fn saturation_curves_are_monotone() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0xB000 + case);
        let b1 = rng.gen_range_f64(1.0, 20.0);
        let factor = rng.gen_range_f64(1.05, 3.5);
        let n = rng.gen_range(2, 16);
        let bn = (b1 * factor).min(b1 * n as f64 * 0.98);
        if bn <= b1 {
            continue;
        }
        let c = spmv_machine::SaturationCurve::from_endpoints(b1, bn, n);
        let mut prev = 0.0;
        for k in 1..=2 * n {
            let b = c.bandwidth(k);
            assert!(b > prev, "case {case} k {k}");
            prev = b;
        }
    }
}

#[test]
fn sturm_counts_monotone_in_x() {
    for case in 0..CASES {
        let mut rng = Rng64::new(0xC000 + case);
        let n = rng.gen_range(2, 12);
        let alpha: Vec<f64> = (0..n).map(|_| rng.gen_range_f64(-5.0, 5.0)).collect();
        let beta: Vec<f64> = (0..n - 1)
            .map(|i| ((i * 7 + 3) % 5) as f64 / 2.0 - 1.0)
            .collect();
        let mut prev = 0usize;
        for k in -20..=20 {
            let x = k as f64 / 2.0;
            let c = spmv_solvers::tridiag::sturm_count(&alpha, &beta, x);
            assert!(c >= prev, "case {case}: count dropped at x = {x}");
            assert!(c <= n, "case {case}");
            prev = c;
        }
        assert_eq!(prev, n, "case {case}: all eigenvalues below +10");
    }
}
