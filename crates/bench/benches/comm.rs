//! Benches of the message-passing substrate: ping-pong latency and
//! bandwidth over message sizes, allreduce, and the all-to-all plan
//! exchange primitive.

use spmv_bench::microbench::{Bench, Unit};
use spmv_comm::collectives::ReduceOp;
use spmv_comm::CommWorld;

/// Ping-pong runs on a world without faults or watchdog.
const HEALTHY: &str = "fault-free world: ping-pong messages cannot fail";

/// Two ranks bouncing one message back and forth `iters` times.
fn ping_pong(bytes: usize, iters: usize) {
    let comms = CommWorld::create(2);
    let mut it = comms.into_iter();
    let (c0, c1) = (it.next().unwrap(), it.next().unwrap());
    let elems = bytes / 8;
    let h = std::thread::spawn(move || {
        let mut buf = vec![0.0f64; elems];
        for _ in 0..iters {
            c1.recv(0, 1, &mut buf).expect(HEALTHY);
            c1.send(0, 2, &buf).expect(HEALTHY);
        }
    });
    let data = vec![1.0f64; elems];
    let mut back = vec![0.0f64; elems];
    for _ in 0..iters {
        c0.send(1, 1, &data).expect(HEALTHY);
        c0.recv(1, 2, &mut back).expect(HEALTHY);
    }
    h.join().unwrap();
}

fn bench_ping_pong(b: &Bench) {
    for bytes in [64usize, 4096, 65536, 1 << 20] {
        b.run(
            "pingpong",
            &bytes.to_string(),
            Some((2.0 * bytes as f64, Unit::Bytes)),
            || {
                ping_pong(bytes, 4);
            },
        );
    }
}

fn bench_allreduce(b: &Bench) {
    for ranks in [2usize, 4, 8] {
        b.run("allreduce", &ranks.to_string(), None, || {
            let comms = CommWorld::create(ranks);
            let handles: Vec<_> = comms
                .into_iter()
                .map(|c| {
                    std::thread::spawn(move || {
                        let mut s = 0.0;
                        for i in 0..16 {
                            s += c.allreduce_scalar(i as f64, ReduceOp::Sum);
                        }
                        s
                    })
                })
                .collect();
            for h in handles {
                std::hint::black_box(h.join().unwrap());
            }
        });
    }
}

fn bench_alltoallv(b: &Bench) {
    for ranks in [4usize, 8] {
        b.run("alltoallv", &ranks.to_string(), None, || {
            let comms = CommWorld::create(ranks);
            let handles: Vec<_> = comms
                .into_iter()
                .map(|c| {
                    std::thread::spawn(move || {
                        let outgoing: Vec<Vec<u32>> =
                            (0..c.size()).map(|d| vec![d as u32; 128]).collect();
                        let incoming = c.alltoallv(&outgoing);
                        std::hint::black_box(incoming.len())
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
    }
}

fn main() {
    // thread-spawn-heavy benches: keep samples short
    let b = Bench::quick();
    bench_ping_pong(&b);
    bench_allreduce(&b);
    bench_alltoallv(&b);
}
