//! Machine presets calibrated against the paper's measurements.
//!
//! Every constant is annotated with its source: either a number the paper
//! reports directly, a number derived from the paper's figures via the
//! code-balance model, or a public specification of the named hardware.

use crate::network::{FatTreeParams, NetworkModel, Placement, TorusParams};
use crate::saturation::SaturationCurve;
use crate::topology::{ClusterSpec, IntranodeComm, LdSpec, NodeTopology, SocketSpec};

/// Intel Nehalem EP (Xeon X5550) locality domain = one socket:
/// 4 cores, SMT-2, 8 MiB shared L3, three DDR3-1333 channels.
///
/// Calibration (paper §1.3.2 and §2):
/// * peak bandwidth 32 GB/s ("allowing for a peak bandwidth of 32 GB/s");
/// * STREAM triad 21.2 GB/s per socket;
/// * SpMV draws 18.1 GB/s at 4 cores; 1-core SpMV is 0.91 GFlop/s, which at
///   `B_CRS(κ=2.5) = 8.05 bytes/flop` means 7.3 GB/s;
/// * single-core STREAM ≈ 11 GB/s (typical for Nehalem; saturation at 2–3
///   cores, as in Fig. 3a);
/// * 2.66 GHz × 4 DP flops/cycle (SSE2 add+mul) = 10.6 GFlop/s per core.
fn nehalem_ld() -> LdSpec {
    LdSpec {
        cores: 4,
        smt: 2,
        stream_bw: SaturationCurve::from_endpoints(11.0, 21.2, 4),
        spmv_bw: SaturationCurve::from_endpoints(7.3, 18.1, 4),
        peak_bw_gbs: 32.0,
        core_gflops: 10.6,
        l3_mib: 8.0,
        l2_kib: 256.0,
        l1_kib: 32.0,
    }
}

/// Dual-socket Nehalem EP node (Fig. 3a's test system).
pub fn nehalem_ep_node() -> NodeTopology {
    NodeTopology {
        name: "dual Nehalem EP (Xeon X5550, 2×4 cores, 2 LDs)".into(),
        sockets: (0..2)
            .map(|_| SocketSpec {
                name: "Xeon X5550".into(),
                lds: vec![nehalem_ld()],
            })
            .collect(),
    }
}

/// Intel Westmere EP (Xeon X5650) locality domain = one socket: 6 cores,
/// SMT-2, 12 MiB shared L3 (2 MiB per core, same as Nehalem — paper
/// §1.3.2), three DDR3-1333 channels.
///
/// Calibration: same memory subsystem as Nehalem (32 nm "tick" of the same
/// microarchitecture), so the same per-core bandwidths; the extra two cores
/// push the saturated SpMV bandwidth slightly higher (18.8 GB/s at 6
/// cores, ≈89 % of STREAM — paper: ">85 % of the STREAM bandwidth").
fn westmere_ld() -> LdSpec {
    LdSpec {
        cores: 6,
        smt: 2,
        stream_bw: SaturationCurve::from_endpoints(11.0, 21.4, 6),
        spmv_bw: SaturationCurve::from_endpoints(7.3, 18.8, 6),
        peak_bw_gbs: 32.0,
        core_gflops: 10.6,
        l3_mib: 12.0,
        l2_kib: 256.0,
        l1_kib: 32.0,
    }
}

/// Dual-socket Westmere EP node: 12 cores, 2 LDs (Fig. 2a).
pub fn westmere_ep_node() -> NodeTopology {
    NodeTopology {
        name: "dual Westmere EP (Xeon X5650, 2×6 cores, 2 LDs)".into(),
        sockets: (0..2)
            .map(|_| SocketSpec {
                name: "Xeon X5650".into(),
                lds: vec![westmere_ld()],
            })
            .collect(),
    }
}

/// AMD Magny Cours (Opteron 6172) locality domain = one 6-core die with its
/// own L3 and two DDR3-1333 channels (Fig. 2b). A 12-core package holds two
/// such dies; a dual-socket node has four LDs.
///
/// Calibration: two channels DDR3-1333 = 21.3 GB/s peak per LD (8 channels
/// per node — "a theoretical main memory bandwidth advantage of 8/6 over a
/// Westmere node", §1.3.2); STREAM ≈ 12.8 GB/s per LD; SpMV ≈ 11.3 GB/s
/// saturated, so the node-level SpMV bandwidth advantage over Westmere is
/// ≈ 4·11.3 / (2·18.8) = 1.20 — the paper's "about 25 % higher". 2.1 GHz ×
/// 4 DP flops/cycle = 8.4 GFlop/s per core.
fn magny_cours_ld() -> LdSpec {
    LdSpec {
        cores: 6,
        smt: 1,
        stream_bw: SaturationCurve::from_endpoints(7.5, 12.8, 6),
        spmv_bw: SaturationCurve::from_endpoints(5.2, 11.3, 6),
        peak_bw_gbs: 21.3,
        core_gflops: 8.4,
        l3_mib: 6.0,
        l2_kib: 512.0,
        l1_kib: 64.0,
    }
}

/// Dual-socket Magny Cours node: 24 cores, 4 LDs (Fig. 2b).
pub fn magny_cours_node() -> NodeTopology {
    NodeTopology {
        name: "dual Magny Cours (Opteron 6172, 2×12 cores, 4 LDs)".into(),
        sockets: (0..2)
            .map(|_| SocketSpec {
                name: "Opteron 6172".into(),
                lds: vec![magny_cours_ld(), magny_cours_ld()],
            })
            .collect(),
    }
}

/// Shared-memory message passing inside a node: double-copy through a
/// shared buffer. Latency ~0.5 µs; the aggregate node capacity is memory-
/// bound (each payload byte is read and written twice), roughly a quarter
/// of the node's STREAM bandwidth — ≈12 GB/s of payload on the modeled
/// dual-socket nodes. Still a real cost: "the overhead of intranode
/// message passing cannot be neglected" (§4).
fn intranode_default() -> IntranodeComm {
    IntranodeComm {
        latency_us: 0.5,
        bandwidth_gbs: 12.0,
    }
}

/// The Westmere QDR-InfiniBand cluster of the paper: "standard dual-socket
/// nodes ... connected via fully nonblocking QDR InfiniBand networks".
/// QDR IB: 4 GB/s signaling, ≈3.2 GB/s effective payload per direction,
/// ≈1.3 µs MPI latency.
pub fn westmere_cluster(num_nodes: usize) -> ClusterSpec {
    ClusterSpec {
        name: format!("Westmere QDR-IB cluster ({num_nodes} nodes)"),
        node: westmere_ep_node(),
        num_nodes,
        network: NetworkModel::FatTree(FatTreeParams {
            latency_us: 1.3,
            injection_gbs: 3.2,
        }),
        intranode: intranode_default(),
    }
}

/// The Cray XE6: Magny Cours nodes on the Gemini interconnect, which the
/// paper describes as a 2-D torus whose internode bandwidth is "beyond the
/// capability of QDR InfiniBand". Gemini: ≈6 GB/s injection, ≈4.7 GB/s per
/// link and direction, ≈1.5 µs latency.
///
/// The paper "observed a strong influence of job topology and machine load
/// on the communication performance over the 2D torus network" (§4): the
/// XE6 was a shared production machine (CSCS), so a job's nodes are
/// *scattered* over a 24×24-node machine torus and its links carry other
/// jobs' traffic (`background_load`).
pub fn cray_xe6_cluster(num_nodes: usize, background_load: f64) -> ClusterSpec {
    ClusterSpec {
        name: format!("Cray XE6 Gemini torus ({num_nodes} nodes, shared machine)"),
        node: magny_cours_node(),
        num_nodes,
        network: NetworkModel::Torus2D(TorusParams {
            latency_us: 1.5,
            injection_gbs: 6.0,
            link_gbs: 4.7,
            dims: (24, 24),
            background_load,
            placement: Placement::Scattered { seed: 0x5CC5 },
        }),
        intranode: intranode_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nehalem_matches_paper_bandwidths() {
        let ld = nehalem_ld();
        assert!((ld.stream_saturated_gbs() - 21.2).abs() < 1e-9);
        assert!((ld.spmv_saturated_gbs() - 18.1).abs() < 1e-9);
        // paper: spMVM reaches more than 85 % of STREAM
        assert!(ld.spmv_saturated_gbs() / ld.stream_saturated_gbs() > 0.85);
    }

    #[test]
    fn nehalem_single_core_performance() {
        // 7.3 GB/s / 8.05 bytes/flop = 0.91 GFlop/s (paper Fig. 3a)
        let ld = nehalem_ld();
        let balance = 6.0 + 12.0 / 15.0 + 2.5 / 2.0;
        let gflops = ld.spmv_bw.bandwidth(1) / balance;
        assert!((gflops - 0.91).abs() < 0.01, "got {gflops}");
    }

    #[test]
    fn spmv_saturates_at_about_four_threads() {
        // Paper §5: "sparse MVM saturates the memory bus of a NUMA locality
        // domain already at about four threads".
        for ld in [westmere_ld(), magny_cours_ld()] {
            let sat = ld.spmv_bw.saturation_point(ld.cores, 0.9);
            assert!((3..=5).contains(&sat), "saturation at {sat} threads");
        }
    }

    #[test]
    fn losing_one_core_to_comm_is_cheap() {
        // Task mode donates one core per LD: bandwidth (≈ performance) loss
        // must be small (paper: "without adversely affecting node-level
        // performance").
        let ld = westmere_ld();
        let loss = 1.0 - ld.spmv_bw.bandwidth(ld.cores - 1) / ld.spmv_bw.bandwidth(ld.cores);
        assert!(loss < 0.08, "loss {loss:.3} too large");
    }

    #[test]
    fn magny_cours_vs_westmere_ratios() {
        // peak-bandwidth ratio 8/6 per node (8 vs 6 DDR3 channels)
        let w: f64 = westmere_ep_node().lds().iter().map(|l| l.peak_bw_gbs).sum();
        let m: f64 = magny_cours_node().lds().iter().map(|l| l.peak_bw_gbs).sum();
        assert!((m / w - 8.0 / 6.0).abs() < 0.01, "peak ratio {}", m / w);
    }

    #[test]
    fn gemini_outbandwidths_ib() {
        // paper: Gemini internode bandwidth "beyond the capability of QDR IB"
        let ib = westmere_cluster(2).network.injection_bps();
        let gem = cray_xe6_cluster(2, 0.0).network.injection_bps();
        assert!(gem > ib);
    }

    #[test]
    fn xe6_is_a_shared_scattered_torus() {
        let c = cray_xe6_cluster(32, 0.2);
        match c.network {
            NetworkModel::Torus2D(p) => {
                assert_eq!(p.dims, (24, 24));
                assert!(matches!(p.placement, Placement::Scattered { .. }));
                assert_eq!(p.background_load, 0.2);
            }
            _ => panic!("XE6 must be a torus"),
        }
    }
}
