//! Persistent thread teams — the OpenMP "parallel region" model.
//!
//! A [`ThreadTeam`] owns `size` worker threads that live for the lifetime of
//! the team. [`ThreadTeam::run`] executes a closure on every worker (the
//! parallel region) and returns when all of them have finished. Closures may
//! borrow from the caller's stack: the call blocks until every worker is
//! done, so the borrow cannot outlive the data (the same soundness argument
//! as `std::thread::scope`, enforced here with an explicit completion
//! count).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::sync::{Condvar, Mutex};

/// Reusable sense-reversing spin barrier for exactly `size` participants.
///
/// Unlike `std::sync::Barrier` this spins (with `yield_now` back-off), which
/// is the right trade-off for tightly synchronized compute phases, and it
/// can be reused any number of times.
pub struct SpinBarrier {
    size: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    /// A barrier for `size` participants (`size >= 1`).
    pub fn new(size: usize) -> Self {
        assert!(size >= 1);
        Self {
            size,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    /// Blocks until all `size` participants have called `wait`.
    pub fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        let arrived = self.count.fetch_add(1, Ordering::AcqRel) + 1;
        if arrived == self.size {
            self.count.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                spins += 1;
                if spins < 64 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Number of participants.
    pub fn size(&self) -> usize {
        self.size
    }
}

/// Per-thread context handed to a parallel region.
pub struct TeamCtx<'a> {
    /// This thread's id, `0..size`.
    pub tid: usize,
    /// Team size.
    pub size: usize,
    barrier: &'a SpinBarrier,
}

impl TeamCtx<'_> {
    /// Team-wide barrier (all `size` threads must call it).
    pub fn barrier(&self) {
        self.barrier.wait();
    }
}

/// Type-erased pointer to the parallel-region closure.
#[derive(Clone, Copy)]
struct RegionPtr(*const (dyn Fn(TeamCtx<'_>) + Sync));
// SAFETY: the pointee is kept alive by [`ThreadTeam::run`], which does not
// return before every worker has finished executing through this pointer,
// and the closure itself is `Sync` so shared calls are sound.
unsafe impl Send for RegionPtr {}

enum Command {
    Run(RegionPtr),
    Exit,
}

struct Shared {
    barrier: SpinBarrier,
    done_lock: Mutex<usize>,
    done_cv: Condvar,
    panicked: AtomicBool,
}

/// A persistent team of worker threads.
///
/// ```
/// use spmv_smp::ThreadTeam;
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let team = ThreadTeam::new(4);
/// let sum = AtomicUsize::new(0);
/// // an OpenMP-style parallel region with a barrier
/// team.run(|ctx| {
///     sum.fetch_add(ctx.tid + 1, Ordering::SeqCst);
///     ctx.barrier();
///     assert_eq!(sum.load(Ordering::SeqCst), 1 + 2 + 3 + 4);
/// });
/// // or the parallel-for convenience
/// let hits = AtomicUsize::new(0);
/// team.parallel_for(100, |_i| { hits.fetch_add(1, Ordering::SeqCst); });
/// assert_eq!(hits.load(Ordering::SeqCst), 100);
/// ```
pub struct ThreadTeam {
    size: usize,
    senders: Vec<Sender<Command>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl ThreadTeam {
    /// Spawns a team of `size >= 1` workers.
    pub fn new(size: usize) -> Self {
        assert!(size >= 1, "a team needs at least one thread");
        let shared = Arc::new(Shared {
            barrier: SpinBarrier::new(size),
            done_lock: Mutex::new(0),
            done_cv: Condvar::new(),
            panicked: AtomicBool::new(false),
        });
        let mut senders = Vec::with_capacity(size);
        let mut handles = Vec::with_capacity(size);
        for tid in 0..size {
            let (tx, rx): (Sender<Command>, Receiver<Command>) = std::sync::mpsc::channel();
            senders.push(tx);
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("team-worker-{tid}"))
                .spawn(move || worker_loop(tid, size, rx, shared))
                .expect("failed to spawn team worker");
            handles.push(handle);
        }
        Self {
            size,
            senders,
            handles,
            shared,
        }
    }

    /// Team size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Executes `region` on all workers, blocking until every worker has
    /// returned. The closure receives a [`TeamCtx`] with its thread id.
    ///
    /// # Panics
    /// Propagates (as a panic) if any worker panicked inside the region.
    pub fn run<F>(&self, region: F)
    where
        F: Fn(TeamCtx<'_>) + Sync,
    {
        let wide: &(dyn Fn(TeamCtx<'_>) + Sync) = &region;
        // SAFETY: erasing the closure's lifetime is sound because this
        // function does not return until all workers signalled completion,
        // so `region` outlives every use of the pointer.
        let ptr = RegionPtr(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(TeamCtx<'_>) + Sync),
                *const (dyn Fn(TeamCtx<'_>) + Sync),
            >(wide as *const _)
        });
        {
            let mut done = self.shared.done_lock.lock().unwrap();
            *done = 0;
        }
        for tx in &self.senders {
            tx.send(Command::Run(ptr)).expect("worker thread died");
        }
        let mut done = self.shared.done_lock.lock().unwrap();
        while *done < self.size {
            done = self.shared.done_cv.wait(done).unwrap();
        }
        drop(done);
        if self.shared.panicked.swap(false, Ordering::SeqCst) {
            panic!("a team worker panicked inside a parallel region");
        }
    }
}

impl ThreadTeam {
    /// OpenMP-`parallel for` convenience: executes `f(i)` for every `i` in
    /// `0..n` with a static contiguous schedule across the team.
    ///
    /// `f` must tolerate concurrent invocation for distinct indices.
    pub fn parallel_for<F>(&self, n: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        self.run(|ctx| {
            for i in crate::workshare::static_chunk(n, ctx.size, ctx.tid) {
                f(i);
            }
        });
    }

    /// Weighted `parallel for`: iterations are split so each thread gets a
    /// contiguous range of approximately equal total *weight*, given the
    /// non-decreasing prefix-sum array `prefix` (`prefix.len() = n + 1`) —
    /// e.g. a CSR `row_ptr` for per-row work proportional to nonzeros.
    /// The closure receives each thread's whole range at once.
    pub fn parallel_for_weighted<F>(&self, prefix: &[usize], f: F)
    where
        F: Fn(std::ops::Range<usize>) + Sync,
    {
        let chunks = crate::workshare::balanced_chunks(prefix, self.size());
        self.run(|ctx| {
            f(chunks[ctx.tid].clone());
        });
    }
}

impl Drop for ThreadTeam {
    fn drop(&mut self) {
        for tx in &self.senders {
            // Workers may already be gone if a panic tore things down.
            let _ = tx.send(Command::Exit);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(tid: usize, size: usize, rx: Receiver<Command>, shared: Arc<Shared>) {
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Command::Exit => break,
            Command::Run(ptr) => {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let ctx = TeamCtx {
                        tid,
                        size,
                        barrier: &shared.barrier,
                    };
                    // SAFETY: see `ThreadTeam::run`.
                    unsafe { (*ptr.0)(ctx) }
                }));
                if result.is_err() {
                    shared.panicked.store(true, Ordering::SeqCst);
                }
                let mut done = shared.done_lock.lock().unwrap();
                *done += 1;
                if *done == size {
                    shared.done_cv.notify_all();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn all_threads_execute_region() {
        let team = ThreadTeam::new(4);
        let hits = AtomicUsize::new(0);
        team.run(|_ctx| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn tids_are_unique_and_dense() {
        let team = ThreadTeam::new(8);
        let mask = AtomicU64::new(0);
        team.run(|ctx| {
            assert_eq!(ctx.size, 8);
            mask.fetch_or(1 << ctx.tid, Ordering::SeqCst);
        });
        assert_eq!(mask.load(Ordering::SeqCst), 0xFF);
    }

    #[test]
    fn regions_can_borrow_stack_data() {
        let team = ThreadTeam::new(4);
        let input = vec![1.0f64; 1000];
        let mut output = vec![0.0f64; 1000];
        let out_ptr = SendPtr(output.as_mut_ptr());
        team.run(|ctx| {
            let chunk = crate::workshare::static_chunk(input.len(), ctx.size, ctx.tid);
            for i in chunk {
                // SAFETY: chunks are disjoint.
                unsafe { *out_ptr.at(i) = input[i] * 2.0 };
            }
        });
        assert!(output.iter().all(|&v| v == 2.0));
    }

    struct SendPtr(*mut f64);
    // SAFETY: test-local pointer into a vector that outlives the region;
    // threads write disjoint chunks.
    unsafe impl Send for SendPtr {}
    // SAFETY: as for `Send`.
    unsafe impl Sync for SendPtr {}
    impl SendPtr {
        /// # Safety
        /// Caller must guarantee disjoint element access across threads.
        unsafe fn at(&self, i: usize) -> *mut f64 {
            self.0.add(i)
        }
    }

    #[test]
    fn team_is_reusable_many_times() {
        let team = ThreadTeam::new(3);
        let counter = AtomicUsize::new(0);
        for _ in 0..100 {
            team.run(|_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(counter.load(Ordering::SeqCst), 300);
    }

    #[test]
    fn barrier_synchronizes_phases() {
        let team = ThreadTeam::new(4);
        let phase1 = AtomicUsize::new(0);
        let ok = AtomicBool::new(true);
        team.run(|ctx| {
            phase1.fetch_add(1, Ordering::SeqCst);
            ctx.barrier();
            // After the barrier, every thread must see all 4 increments.
            if phase1.load(Ordering::SeqCst) != 4 {
                ok.store(false, Ordering::SeqCst);
            }
        });
        assert!(ok.load(Ordering::SeqCst));
    }

    #[test]
    fn barrier_is_reusable_within_region() {
        let team = ThreadTeam::new(4);
        let stage = AtomicUsize::new(0);
        let ok = AtomicBool::new(true);
        team.run(|ctx| {
            for round in 1..=5 {
                if ctx.tid == 0 {
                    stage.store(round, Ordering::SeqCst);
                }
                ctx.barrier();
                if stage.load(Ordering::SeqCst) != round {
                    ok.store(false, Ordering::SeqCst);
                }
                ctx.barrier();
            }
        });
        assert!(ok.load(Ordering::SeqCst));
    }

    #[test]
    fn single_thread_team_works() {
        let team = ThreadTeam::new(1);
        let hits = AtomicUsize::new(0);
        team.run(|ctx| {
            assert_eq!(ctx.tid, 0);
            ctx.barrier(); // must not deadlock with size 1
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn worker_panic_propagates_and_team_survives() {
        let team = ThreadTeam::new(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            team.run(|ctx| {
                if ctx.tid == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(r.is_err(), "panic must propagate to the caller");
        // the team remains usable
        let hits = AtomicUsize::new(0);
        team.run(|_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_size_team_rejected() {
        let _ = ThreadTeam::new(0);
    }

    #[test]
    fn standalone_spin_barrier() {
        let b = Arc::new(SpinBarrier::new(3));
        let counter = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let b = Arc::clone(&b);
            let c = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    c.fetch_add(1, Ordering::SeqCst);
                    b.wait();
                    // between barriers the count is always a multiple of 3
                    assert_eq!(c.load(Ordering::SeqCst) % 3, 0);
                    b.wait();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 150);
    }

    #[test]
    fn parallel_for_visits_every_index_once() {
        let team = ThreadTeam::new(4);
        let counts: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        team.parallel_for(100, |i| {
            counts[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn parallel_for_empty_range() {
        let team = ThreadTeam::new(3);
        let hits = AtomicUsize::new(0);
        team.parallel_for(0, |_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn parallel_for_weighted_covers_rows_by_weight() {
        let team = ThreadTeam::new(3);
        // 9 rows: one heavy (90) then light (1 each)
        let prefix = [0usize, 90, 91, 92, 93, 94, 95, 96, 97, 98];
        let covered: Vec<AtomicUsize> = (0..9).map(|_| AtomicUsize::new(0)).collect();
        let widths = Mutex::new(Vec::new());
        team.parallel_for_weighted(&prefix, |range| {
            widths.lock().unwrap().push(range.len());
            for i in range {
                covered[i].fetch_add(1, Ordering::SeqCst);
            }
        });
        assert!(covered.iter().all(|c| c.load(Ordering::SeqCst) == 1));
        let w = widths.lock().unwrap();
        assert_eq!(w.iter().sum::<usize>(), 9);
        // the heavy row must sit alone (or nearly) in its chunk
        assert!(
            w.iter().any(|&l| l <= 2),
            "heavy-row chunk should be small: {w:?}"
        );
    }
}
