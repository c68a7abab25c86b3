//! Bench backing the paper's format claim (§1.2): CRS "is broadly
//! recognized as the most efficient format for general sparse matrices on
//! cache-based microprocessors". Measures CRS against ELLPACK-R and
//! SELL-C-σ at several chunk/sorting shapes on both application matrices
//! plus a power-law matrix where row-length variance makes the padding
//! trade-off visible.
//!
//! ELLPACK-R is SELL-C-σ with one chunk of all rows and no sorting
//! (`C = nrows`, `σ = 1`): every row padded to the longest, stored
//! slot-major, each row's sum stopping at its true length.

use spmv_bench::microbench::{Bench, Unit};
use spmv_bench::{hmep, samg, Scale};
use spmv_matrix::{synthetic, vecops, CsrMatrix, SellMatrix};

fn bench_formats(b: &Bench, name: &str, m: &CsrMatrix, ellpack: bool) {
    let x = vecops::random_vec(m.ncols(), 3);
    let mut y = vec![0.0; m.nrows()];
    let flops = 2.0 * m.nnz() as f64;
    let group = format!("format_{name}");

    b.run(&group, "crs", Some((flops, Unit::Flops)), || {
        m.spmv(std::hint::black_box(&x), std::hint::black_box(&mut y));
    });
    let ell_summary = if ellpack {
        let ell = SellMatrix::from_csr(m, m.nrows(), 1);
        b.run(&group, "ellpack", Some((flops, Unit::Flops)), || {
            ell.spmv(std::hint::black_box(&x), std::hint::black_box(&mut y));
        });
        format!(
            "ELL width {} (avg row {:.1}), ELL fill {:.0}%, ELL storage {:.2}x CRS",
            ell.stored_entries() / m.nrows(),
            m.avg_nnz_per_row(),
            ell.fill_efficiency() * 100.0,
            ell.storage_bytes() as f64 / m.storage_bytes() as f64,
        )
    } else {
        let alpha = (m.max_nnz_per_row() * m.nrows()) as f64 / m.nnz() as f64;
        format!(
            "ELL not built: width {} (avg row {:.1}), padding factor {alpha:.0}",
            m.max_nnz_per_row(),
            m.avg_nnz_per_row(),
        )
    };
    for (c, sigma) in [(4usize, 1usize), (32, 256), (32, m.nrows())] {
        let sell = SellMatrix::from_csr(m, c, sigma);
        b.run(
            &group,
            &format!("sell-{c}-{sigma}"),
            Some((flops, Unit::Flops)),
            || {
                sell.spmv(std::hint::black_box(&x), std::hint::black_box(&mut y));
            },
        );
    }

    let sell = SellMatrix::from_csr(m, 32, 256);
    println!(
        "{name}: {ell_summary}; SELL-32-256 padding factor {:.3}, fill {:.0}%",
        sell.padding_factor(),
        sell.fill_efficiency() * 100.0
    );
}

fn main() {
    let b = Bench::new();
    // ELLPACK only on the application matrices: the power-law matrix has
    // one 20,000-entry row, so ELLPACK pads every row to width 20,000
    // (fill 0%, 1,384x the CRS storage, ~4.8 GB) and one SpMV takes ~14 s.
    for (name, m, ellpack) in [
        ("hmep", hmep(Scale::Test), true),
        ("samg", samg(Scale::Test), true),
        (
            "powerlaw",
            synthetic::power_law_rows(20_000, 15.0, 1.1, 7),
            false,
        ),
    ] {
        bench_formats(&b, name, &m, ellpack);
    }
}
