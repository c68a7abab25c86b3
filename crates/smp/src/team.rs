//! Persistent thread teams — the OpenMP "parallel region" model.
//!
//! [`ThreadTeam::run`] executes a closure on every thread of the team — the
//! calling thread as thread 0, `size - 1` persistent workers as `1..size` —
//! like an OpenMP `parallel` region whose master is the thread that reached
//! it. The closure may borrow from the caller's stack: `run` returns only
//! after every worker has left it (the argument of `std::thread::scope`).
//!
//! A region starts with a bump of a generation word that idle workers
//! watch: they spin for [`SPIN_WINDOW`] after their last region, then park
//! until woken. It ends when every worker has counted itself out. A thread
//! that panics poisons the team's [`SpinBarrier`], so the others leave the
//! region at their next barrier instead of waiting there forever.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long an idle worker spins for the next region before it parks.
pub const SPIN_WINDOW: Duration = Duration::from_micros(50);

/// One step of a spin-wait: a CPU spin hint for the first 64 rounds, then
/// `yield_now` so an oversubscribed host still runs the thread awaited.
fn backoff(spins: &mut u32) {
    if *spins < 64 {
        *spins += 1;
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

/// Reusable spin barrier for exactly `size` participants. Each arrival
/// counts itself in; the last one resets the count and bumps a generation
/// word, which the others spin on (spinning, then yielding). A participant
/// that will never arrive poisons it ([`SpinBarrier::poison`]), and the
/// others panic instead of waiting.
pub struct SpinBarrier {
    size: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
}

impl SpinBarrier {
    /// A barrier for `size` participants (`size >= 1`).
    pub fn new(size: usize) -> Self {
        assert!(size >= 1);
        Self {
            size,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Blocks until all `size` participants have called `wait`.
    ///
    /// # Panics
    /// If the barrier is poisoned, on arrival or while waiting.
    pub fn wait(&self) {
        const POISONED: &str = "barrier poisoned: a participant panicked";
        assert!(!self.is_poisoned(), "{POISONED}");
        let gen = self.generation.load(Ordering::Acquire);
        let arrived = self.count.fetch_add(1, Ordering::AcqRel) + 1;
        if arrived == self.size {
            self.count.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
        } else {
            let mut spins = 0;
            while self.generation.load(Ordering::Acquire) == gen {
                assert!(!self.is_poisoned(), "{POISONED}");
                backoff(&mut spins);
            }
        }
    }

    /// Poisons the barrier: every participant waiting at it, or arriving
    /// later, panics instead of waiting.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Relaxed);
    }

    /// Whether the barrier is poisoned.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Relaxed)
    }

    /// Clears the poison and the arrivals; only while nobody waits.
    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.poisoned.store(false, Ordering::Relaxed);
    }

    /// Number of participants.
    pub fn size(&self) -> usize {
        self.size
    }
}

/// Per-thread context handed to a parallel region.
pub struct TeamCtx<'a> {
    /// This thread's id, `0..size`; 0 is the thread that called `run`.
    pub tid: usize,
    /// Team size.
    pub size: usize,
    barrier: &'a SpinBarrier,
}

impl TeamCtx<'_> {
    /// Team-wide barrier: every thread of the team must call it, the same
    /// number of times per region.
    ///
    /// # Panics
    /// If another thread of the team panicked in this region: it poisoned
    /// the barrier, so this thread leaves the region instead of waiting for
    /// it, and [`ThreadTeam::run`] reports the panic.
    pub fn barrier(&self) {
        self.barrier.wait();
    }
}

/// A parallel-region closure.
type Region<'a> = dyn Fn(TeamCtx<'_>) + Sync + 'a;

/// State the caller shares with its workers.
struct Shared {
    barrier: SpinBarrier,
    /// Bumped by the caller to start a region (or to stop the workers).
    generation: AtomicUsize,
    /// The current region, a `&Region` on the caller's stack; null: stop.
    job: AtomicPtr<()>,
    /// Workers not yet out of the current region's closure.
    running: AtomicUsize,
    /// Whether a worker panicked in the current region.
    panicked: AtomicBool,
}

impl Shared {
    /// Thread `tid`'s context.
    fn ctx(&self, tid: usize) -> TeamCtx<'_> {
        TeamCtx {
            tid,
            size: self.barrier.size(),
            barrier: &self.barrier,
        }
    }

    /// Waits for the generation to move past `seen` and returns it:
    /// spinning for [`SPIN_WINDOW`], then parked until unparked.
    fn next_generation(&self, seen: usize) -> usize {
        let (start, mut spins) = (Instant::now(), 0);
        loop {
            let gen = self.generation.load(Ordering::Acquire);
            if gen != seen {
                return gen;
            }
            if start.elapsed() < SPIN_WINDOW {
                backoff(&mut spins);
            } else {
                // a wakeup between the load and here leaves the park
                // token set, so this returns at once
                std::thread::park();
            }
        }
    }
}

/// A persistent team: the calling thread plus `size - 1` workers.
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
/// ```
pub struct ThreadTeam {
    workers: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
    /// Set while a region runs: `run` is neither reentrant nor concurrent.
    busy: AtomicBool,
}

impl ThreadTeam {
    /// A team of `size >= 1` threads: spawns `size - 1` workers.
    pub fn new(size: usize) -> Self {
        assert!(size >= 1, "a team needs at least one thread");
        let shared = Arc::new(Shared {
            barrier: SpinBarrier::new(size),
            generation: AtomicUsize::new(0),
            job: AtomicPtr::new(ptr::null_mut()),
            running: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
        });
        let workers = (1..size)
            .map(|tid| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("team-worker-{tid}"))
                    .spawn(move || worker_loop(tid, &shared))
                    .expect("failed to spawn team worker")
            })
            .collect();
        Self {
            workers,
            shared,
            busy: AtomicBool::new(false),
        }
    }

    /// Team size.
    pub fn size(&self) -> usize {
        self.shared.barrier.size()
    }

    /// Executes `region` on every thread of the team — this one as thread
    /// 0 — and returns when all of them have left it. A team of one calls
    /// `region` directly.
    ///
    /// # Panics
    /// If any thread panicked inside the region, once every thread has
    /// left it: with the caller's own payload, else with a generic message.
    /// Also if called from inside a region of the same team.
    pub fn run<F>(&self, region: F)
    where
        F: Fn(TeamCtx<'_>) + Sync,
    {
        let s = &*self.shared;
        if self.workers.is_empty() {
            return region(s.ctx(0));
        }
        assert!(
            !self.busy.swap(true, Ordering::Acquire),
            "a team runs one region at a time"
        );
        let region: &Region<'_> = &region;
        // `running` and `job` reach the workers through the Release bump of
        // `generation`, which they load with Acquire
        s.running.store(self.workers.len(), Ordering::Relaxed);
        s.job
            .store(ptr::from_ref(&region).cast_mut().cast(), Ordering::Relaxed);
        s.generation.fetch_add(1, Ordering::Release);
        for w in &self.workers {
            w.thread().unpark();
        }
        let mine = catch_unwind(AssertUnwindSafe(|| region(s.ctx(0))));
        if mine.is_err() {
            s.barrier.poison();
        }
        // the region ends when every worker has left `region`, which must
        // outlive their use of it
        let mut spins = 0;
        while s.running.load(Ordering::Acquire) != 0 {
            backoff(&mut spins);
        }
        // ordered after every worker's store by `running` (Release/Acquire)
        let theirs = s.panicked.swap(false, Ordering::Relaxed);
        if mine.is_err() || theirs {
            // no thread is left in the region to wait at the barrier
            s.barrier.reset();
        }
        self.busy.store(false, Ordering::Release);
        if let Err(payload) = mine {
            resume_unwind(payload);
        }
        assert!(!theirs, "a team worker panicked inside a parallel region");
    }
}

impl Drop for ThreadTeam {
    fn drop(&mut self) {
        self.shared.job.store(ptr::null_mut(), Ordering::Relaxed);
        self.shared.generation.fetch_add(1, Ordering::Release);
        for w in self.workers.drain(..) {
            w.thread().unpark();
            let _ = w.join();
        }
    }
}

/// A worker's life: wait for a region, run it as thread `tid`, count
/// itself out (poisoning the barrier if it panicked); stop on a null job.
fn worker_loop(tid: usize, s: &Shared) {
    let mut seen = 0;
    loop {
        seen = s.next_generation(seen);
        let job: *const &Region<'_> = s.job.load(Ordering::Relaxed).cast();
        if job.is_null() {
            return;
        }
        // SAFETY: `run` published `job` before this generation and does
        // not return before `running` drops to zero below, so the closure
        // it points to is alive; the closure is `Sync`, so shared calls
        // are sound.
        let res = catch_unwind(AssertUnwindSafe(|| unsafe { (*job)(s.ctx(tid)) }));
        if res.is_err() {
            s.panicked.store(true, Ordering::Relaxed);
            s.barrier.poison();
        }
        s.running.fetch_sub(1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex;

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
    fn panic_before_a_barrier_ends_the_region() {
        // thread 1 panics before the two barriers the others wait at; run
        // on a helper thread so that a hang fails the test after a timeout
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let team = ThreadTeam::new(3);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                team.run(|ctx| {
                    if ctx.tid == 1 {
                        panic!("boom");
                    }
                    ctx.barrier();
                    ctx.barrier();
                });
            }));
            // the team stays usable, barriers included
            let hits = AtomicUsize::new(0);
            team.run(|ctx| {
                ctx.barrier();
                hits.fetch_add(1, Ordering::SeqCst);
                ctx.barrier();
            });
            let _ = tx.send((r.is_err(), hits.into_inner()));
        });
        let (panicked, hits) = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the region hung after a worker panic");
        assert!(panicked, "the panic must reach the caller");
        assert_eq!(hits, 3);
    }

    #[test]
    fn poisoned_spin_barrier_releases_waiters() {
        let b = Arc::new(SpinBarrier::new(2));
        let waiter = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || b.wait())
        };
        std::thread::sleep(Duration::from_millis(10));
        b.poison();
        assert!(waiter.join().is_err(), "a poisoned wait panics");
        assert!(b.is_poisoned());
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
    fn caller_is_thread_zero() {
        let team = ThreadTeam::new(3);
        let me = std::thread::current().id();
        let ids = Mutex::new(Vec::new());
        team.run(|ctx| {
            ids.lock()
                .unwrap()
                .push((ctx.tid, std::thread::current().id()));
        });
        let ids = ids.into_inner().unwrap();
        assert_eq!(ids.len(), 3);
        for (tid, id) in ids {
            assert_eq!(tid == 0, id == me, "thread {tid}");
        }
    }

    #[test]
    fn caller_panic_propagates_after_workers_finish() {
        let team = ThreadTeam::new(3);
        let finished = AtomicUsize::new(0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            team.run(|ctx| {
                if ctx.tid == 0 {
                    panic!("caller boom");
                }
                std::thread::sleep(Duration::from_millis(20));
                finished.fetch_add(1, Ordering::SeqCst);
            });
        }));
        let payload = r.expect_err("panic must propagate to the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"caller boom"));
        assert_eq!(finished.load(Ordering::SeqCst), 2, "workers left first");
        let hits = AtomicUsize::new(0);
        team.run(|_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn parked_workers_wake_and_drop_returns() {
        let team = ThreadTeam::new(3);
        let hits = AtomicUsize::new(0);
        for _ in 0..3 {
            std::thread::sleep(SPIN_WINDOW * 20);
            team.run(|_| {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(hits.load(Ordering::SeqCst), 9);
        std::thread::sleep(SPIN_WINDOW * 20);
        drop(team);
    }

    #[test]
    #[should_panic(expected = "one region at a time")]
    fn nested_region_is_rejected() {
        let team = ThreadTeam::new(2);
        team.run(|ctx| {
            if ctx.tid == 0 {
                team.run(|_| {});
            }
        });
    }
}
