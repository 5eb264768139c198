//! A persistent worker pool for the sharded fleet drain.
//!
//! Spawning a fresh worker per shard *per epoch* would pay the
//! spawn/join cost on every short epoch (measured: more peak memory
//! and lower throughput than this pool on the repo benchmark's
//! `fleet-open` workload). This pool keeps the fleet driver's
//! (`fleet/shard.rs`) workers alive across epochs (and across whole
//! drives), parked on a hand-rolled `Mutex`/`Condvar` rendezvous
//! barrier: the driver
//! publishes one job per worker, the workers run them and report
//! completion, and the driver blocks until the whole generation has
//! finished before touching anything the jobs borrowed.
//!
//! # Safety model
//!
//! Scoped threads make the borrow checker prove that workers die
//! before their borrows do. A persistent pool cannot — its threads
//! outlive every epoch — so the proof moves into one dynamic
//! invariant, stated on [`WorkerPool::submit`] and discharged by the
//! caller (the fleet driver's epoch loop in `fleet/shard.rs`) with a
//! wait-on-drop guard: **no borrow handed to a job is touched or
//! expired until [`WorkerPool::wait_all`] returns for that
//! generation**, including when the driver thread unwinds from a
//! panic in shard 0, which it runs itself. Jobs are lifetime-erased
//! behind that invariant; nothing else in the pool is `unsafe`.
//!
//! A job that panics is caught on the worker (the worker survives for
//! the next generation), the payload is stashed, and the driver
//! re-raises it via [`WorkerPool::take_panic`] after the barrier — so
//! a panicking shard can never deadlock the rendezvous or strand a
//! borrow.
//!
//! # Verification
//!
//! The barrier protocol (park, publish, wake, report, rendezvous,
//! panic ferry, wait-on-drop guard, shutdown) is modeled in
//! `mbus-analysis`'s `barrier` module and exhaustively explored over
//! every interleaving at ≤3 workers × ≤3 epochs on each `cargo test`
//! run; the `unsafe` sites here are additionally policed by the
//! workspace lint (`cargo run -p mbus-analysis --bin lint`) and
//! exercised under Miri in CI. See ARCHITECTURE.md § "Analysis &
//! safety" for the state diagram and the model-to-code mapping.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A lifetime-erased unit of work. The erasure is sound only under the
/// [`WorkerPool::submit`] contract.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The state behind the pool's mutex: one job slot per worker plus the
/// generation's progress counters.
#[derive(Default)]
struct PoolState {
    /// One slot per worker; worker `i` only ever takes slot `i`, so a
    /// generation with fewer jobs than workers leaves the extras
    /// parked.
    jobs: Vec<Option<Job>>,
    /// Jobs published in the current generation.
    submitted: usize,
    /// Jobs finished in the current generation.
    completed: usize,
    /// First panic payload captured from a job. Defensive backstop:
    /// the shard jobs catch their own panics and route them through
    /// the epoch inbox, so this only trips if a job's own unwinding
    /// machinery panics.
    panic: Option<Box<dyn Any + Send>>,
    /// Set once, by `Drop`: workers exit instead of parking.
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Signaled when job slots fill or shutdown begins.
    work: Condvar,
    /// Signaled as each job completes.
    done: Condvar,
}

/// Long-lived worker threads behind a generation barrier. Created
/// empty with its driver; the first multi-shard epoch spawns the
/// workers, which every epoch after reuses (a one-shard driver submits
/// zero-job generations and never spawns one). Dropped (with a clean
/// join) when the owning fleet driver goes away.
pub(crate) struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Creates an empty pool; workers are spawned on demand by
    /// [`WorkerPool::ensure`].
    pub(crate) fn new() -> Self {
        WorkerPool {
            shared: Arc::new(Shared {
                state: Mutex::new(PoolState::default()),
                work: Condvar::new(),
                done: Condvar::new(),
            }),
            handles: Vec::new(),
        }
    }

    /// The number of live worker threads.
    #[cfg(test)]
    pub(crate) fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Grows the pool to at least `workers` threads (never shrinks —
    /// idle workers park on the condvar and cost nothing between
    /// epochs).
    pub(crate) fn ensure(&mut self, workers: usize) {
        {
            let mut state = self.shared.state.lock().expect("pool lock");
            if state.jobs.len() < workers {
                state.jobs.resize_with(workers, || None);
            }
        }
        while self.handles.len() < workers {
            let index = self.handles.len();
            let shared = Arc::clone(&self.shared);
            self.handles.push(
                std::thread::Builder::new()
                    .name(format!("mbus-shard-{index}"))
                    .spawn(move || worker_loop(&shared, index))
                    .expect("spawn shard worker"),
            );
        }
    }

    /// Publishes one generation of jobs — job `i` runs on worker `i` —
    /// and returns immediately; the caller overlaps its own shard work
    /// with the pool's, then rendezvouses via [`WorkerPool::wait_all`].
    ///
    /// # Safety
    ///
    /// The jobs may borrow data of any lifetime `'scope`. The caller
    /// must guarantee that every such borrow stays valid and untouched
    /// until [`WorkerPool::wait_all`] has returned for this generation
    /// — including on the unwind path (hold a wait-on-drop guard).
    /// The previous generation must be complete (`wait_all` returned).
    pub(crate) unsafe fn submit<'scope>(
        &mut self,
        jobs: Vec<Box<dyn FnOnce() + Send + 'scope>>,
    ) -> usize {
        let count = jobs.len();
        self.ensure(count);
        let mut state = self.shared.state.lock().expect("pool lock");
        assert_eq!(
            state.completed, state.submitted,
            "submit while a generation is still in flight"
        );
        state.submitted = count;
        state.completed = 0;
        for (i, job) in jobs.into_iter().enumerate() {
            // SAFETY: the transmute erases only the lifetime; the
            // caller's contract keeps every borrow alive until the job
            // has provably finished (wait_all).
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(job) };
            state.jobs[i] = Some(job);
        }
        drop(state);
        self.shared.work.notify_all();
        count
    }

    /// Blocks until every job of the current generation has completed.
    /// Does *not* propagate job panics (so it is safe to call from a
    /// drop guard during unwinding) — check [`WorkerPool::take_panic`]
    /// afterwards.
    pub(crate) fn wait_all(&self) {
        let mut state = self.shared.state.lock().expect("pool lock");
        while state.completed < state.submitted {
            state = self.shared.done.wait(state).expect("pool lock");
        }
    }

    /// Takes the first panic payload captured from a job of any
    /// completed generation, if one exists.
    pub(crate) fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        self.shared.state.lock().expect("pool lock").panic.take()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool lock");
            state.shutdown = true;
        }
        self.shared.work.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

/// One worker: park until slot `index` fills (or shutdown), run the
/// job with panics contained, report completion, repeat.
fn worker_loop(shared: &Shared, index: usize) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("pool lock");
            loop {
                if state.shutdown {
                    return;
                }
                if let Some(job) = state.jobs.get_mut(index).and_then(Option::take) {
                    break job;
                }
                state = shared.work.wait(state).expect("pool lock");
            }
        };
        let result = panic::catch_unwind(AssertUnwindSafe(job));
        let mut state = shared.state.lock().expect("pool lock");
        if let Err(payload) = result {
            if state.panic.is_none() {
                state.panic = Some(payload);
            }
        }
        state.completed += 1;
        drop(state);
        shared.done.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_generations_against_borrowed_state() {
        let mut pool = WorkerPool::new();
        let counter = AtomicUsize::new(0);
        for generation in 1..=3usize {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
                .map(|_| {
                    let counter = &counter;
                    Box::new(move || {
                        counter.fetch_add(generation, Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            // SAFETY: `counter` outlives the wait_all below and is not
            // read until it returns.
            unsafe { pool.submit(jobs) };
            pool.wait_all();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 4 * (1 + 2 + 3));
        assert_eq!(pool.workers(), 4);
        assert!(pool.take_panic().is_none());
    }

    #[test]
    fn pool_grows_but_never_shrinks() {
        let mut pool = WorkerPool::new();
        pool.ensure(2);
        assert_eq!(pool.workers(), 2);
        pool.ensure(1);
        assert_eq!(pool.workers(), 2);
        pool.ensure(5);
        assert_eq!(pool.workers(), 5);
        // A smaller generation leaves the extra workers parked.
        let ran = AtomicUsize::new(0);
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..2)
            .map(|_| {
                let ran = &ran;
                Box::new(move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        // SAFETY: `ran` outlives the wait_all below and is not read
        // until it returns.
        unsafe { pool.submit(jobs) };
        pool.wait_all();
        assert_eq!(ran.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn job_panics_are_contained_and_reported() {
        let mut pool = WorkerPool::new();
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> =
            vec![Box::new(|| panic!("shard exploded")), Box::new(|| {})];
        // SAFETY: the jobs borrow nothing; wait_all follows directly.
        unsafe { pool.submit(jobs) };
        pool.wait_all();
        let payload = pool.take_panic().expect("panic captured");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("shard exploded")
        );
        // The worker survived; the next generation still runs.
        let ok = AtomicUsize::new(0);
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = vec![Box::new(|| {
            ok.fetch_add(1, Ordering::Relaxed);
        })];
        // SAFETY: `ok` outlives the wait_all below and is not read
        // until it returns.
        unsafe { pool.submit(jobs) };
        pool.wait_all();
        assert_eq!(ok.load(Ordering::Relaxed), 1);
        assert!(pool.take_panic().is_none());
    }
}
