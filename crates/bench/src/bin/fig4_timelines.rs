//! Fig. 4 regenerator: timeline views of the three kernel variants — not
//! schematics, but actual simulated timelines of rank 0 on a two-node
//! Westmere configuration, drawn from the simulator's trace.
//!
//! `cargo run --release -p spmv-bench --bin fig4_timelines [--scale ...]`

use spmv_bench::{header, hmep, Scale};
use spmv_core::{workload, KernelMode, RowPartition};
use spmv_machine::{plan_layout, presets, CommThreadPlacement, HybridLayout};
use spmv_obs::{text_timeline, Phase};
use spmv_sim::{simulate_spmv, SimConfig};

fn main() {
    let scale = Scale::from_args();
    header(&format!(
        "Fig. 4 — kernel timelines (HMeP, scale: {})",
        scale.label()
    ));

    let m = hmep(scale);
    let nodes = 2;
    let cluster = presets::westmere_cluster(nodes);
    let width = 100;

    for mode in KernelMode::ALL {
        let comm = if mode.needs_comm_thread() {
            CommThreadPlacement::SmtSibling
        } else {
            CommThreadPlacement::None
        };
        let layout = plan_layout(&cluster.node, nodes, HybridLayout::ProcessPerLd, comm).unwrap();
        let partition = RowPartition::by_nnz(&m, layout.num_ranks());
        let workloads = workload::analyze(&m, &partition);
        let cfg = SimConfig::new(mode).with_kappa(2.5);
        let r = simulate_spmv(&cluster, &layout, &workloads, &cfg);
        let trace = &r.trace;

        println!(
            "\n--- {} ({:.1} GFlop/s, {:.1} µs makespan) ---",
            mode,
            r.gflops,
            r.time_s * 1e6
        );
        print!("{}", text_timeline(trace, 0, width));
        println!(
            "rank 0 time in waitall: {:.1} µs, in compute: {:.1} µs",
            trace.time_in(0, Phase::Waitall) * 1e6,
            trace.time_where(0, Phase::is_compute) * 1e6
        );
    }

    println!(
        "\nCompare with the paper's Fig. 4: (a) communication fully exposed before\n\
         the single SpMV sweep; (b) the same exposure — the local SpMV does NOT\n\
         shorten the waitall, because standard MPI only progresses inside calls;\n\
         (c) the comm lane's waitall runs concurrently with the compute lane's\n\
         local SpMV — explicit overlap."
    );
}
