//! Benches of the *functional* distributed engine: real threads, real
//! message passing, all three kernel modes. (Wall-clock on the host — the
//! paper-figure timing comes from the simulator; this bench verifies the
//! engine itself has sane overheads and lets one compare modes on the
//! machine at hand.)

use spmv_bench::microbench::{Bench, Unit};
use spmv_bench::{hmep, Scale};
use spmv_core::engine::EngineConfig;
use spmv_core::runner::run_spmd;
use spmv_core::{KernelMode, RowPartition};
use spmv_matrix::vecops;

fn bench_modes(b: &Bench) {
    let m = hmep(Scale::Test);
    let x = vecops::random_vec(m.nrows(), 2);
    let ranks = 4;

    // 10 SpMVs per engine launch: this is a job-level benchmark with setup
    let flops = 10.0 * 2.0 * m.nnz() as f64;
    for mode in KernelMode::ALL {
        let cfg = if mode.needs_comm_thread() {
            EngineConfig::task_mode(2)
        } else {
            EngineConfig::hybrid(2)
        };
        b.run(
            "distributed_spmv_modes",
            mode.label(),
            Some((flops, Unit::Flops)),
            || {
                let out = run_spmd(&m, ranks, cfg, |eng| {
                    let lo = eng.row_start();
                    let n = eng.local_len();
                    eng.x_local_mut().copy_from_slice(&x[lo..lo + n]);
                    for _ in 0..10 {
                        eng.spmv_checked(mode).expect("fault-free world");
                    }
                    eng.y_local()[0]
                });
                std::hint::black_box(out);
            },
        );
    }
}

fn bench_plan_construction(b: &Bench) {
    let m = hmep(Scale::Test);
    for ranks in [2usize, 8] {
        b.run("plan_construction", &ranks.to_string(), None, || {
            let p = RowPartition::by_nnz(&m, ranks);
            std::hint::black_box(spmv_core::plan::build_plans_serial(&m, &p));
        });
    }
}

fn main() {
    let b = Bench::quick();
    bench_modes(&b);
    bench_plan_construction(&b);
}
