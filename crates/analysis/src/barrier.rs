//! An exhaustive schedule explorer for the worker-pool generation
//! barrier — a loom-style model checker, hand-rolled because the
//! workspace takes no dependencies.
//!
//! `mbus-core`'s `fleet/pool.rs` parks long-lived workers on a
//! hand-written `Mutex`/`Condvar` rendezvous: the driver publishes one
//! job per worker (a *generation*), wakes the pool, overlaps its own
//! shard, and blocks in `wait_all` until every job has reported
//! completion — at which point, and only at which point, the borrows
//! the jobs were handed may be touched again (that is the `submit`
//! safety contract, discharged by a wait-on-drop guard). The protocol
//! is small but every line of it is load-bearing: a lost wakeup parks
//! a worker forever, a mis-ordered counter update lets the driver's
//! barrier open early while a job still holds a borrow, and the panic
//! path must ferry a payload out without stranding the rendezvous.
//!
//! This module re-states that protocol as a pure transition system and
//! **enumerates every interleaving** of it by bounded DFS:
//!
//! * each thread is a program counter (the internal `DriverPc` /
//!   `WorkerPc` enums) whose steps mirror `pool.rs` line for line —
//!   park, publish (generation bump), wake, take, run, report,
//!   `wait_all`, panic ferry, wait-on-drop guard, shutdown, join;
//! * mutex critical sections are modeled as atomic steps (sound and
//!   complete here because every access to the shared pool state
//!   happens under the lock, and `Condvar::wait` releases the lock
//!   atomically with parking — exactly the property the real protocol
//!   relies on); condvar notifies are their own steps, so the
//!   notify-before-park races are fully explored;
//! * the model has **no spurious wakeups** — deliberately: spurious
//!   wakeups only re-run a predicate loop, while their absence is the
//!   adversarial case for *lost* wakeups (a wakeup that never comes is
//!   never papered over by a spurious one, so it must surface as a
//!   deadlock here).
//!
//! Checked on every explored schedule:
//!
//! * **no deadlock** — some thread can always step until all exit;
//! * **no lost wakeup** — subsumed by the deadlock check (see above);
//! * **no generation skew** — when `wait_all` returns, every job of
//!   that generation ran *exactly once*, no slot is stale, and
//!   `completed == submitted` (the borrow-liveness property: the
//!   driver can only reach a borrow after its generation is fully
//!   retired);
//! * **panic ferry** — a worker whose job panics still reports, the
//!   barrier still opens, the payload is observable via `take_panic`
//!   after the barrier, and the worker survives into the next
//!   generation.
//!
//! [`BarrierModel::lost_wakeup_bug`] deliberately downgrades the
//! post-publish `notify_all` to a `notify_one`; the explorer finds the
//! resulting stranded-worker deadlock in a few hundred states — the
//! self-test that the checker can actually see the bugs it claims to
//! rule out.
//!
//! The mapping back to `pool.rs` is one-to-one (see the table in
//! ARCHITECTURE.md § "Analysis & safety"); `tests/barrier_model.rs`
//! runs the exhaustive sweep at 3 workers × 3 epochs, the panic
//! branch, the short-generation branch, and the driver-unwind branch.

use std::collections::HashSet;

/// Hard bounds of the fixed-size state encoding.
pub const MAX_WORKERS: usize = 3;
pub const MAX_EPOCHS: usize = 3;

/// Configuration of one exploration.
#[derive(Clone, Copy, Debug)]
pub struct BarrierModel {
    /// Worker threads in the pool (1..=3).
    pub workers: usize,
    /// Generations the driver submits (1..=3).
    pub epochs: usize,
    /// Jobs published per generation; `None` means one per worker.
    /// Fewer jobs than workers leaves the extras parked — the pool's
    /// grows-but-never-shrinks shape.
    pub jobs: Option<usize>,
    /// Make the job of `(epoch, worker)` panic: the worker catches it,
    /// stashes the payload under the lock, and still reports — the
    /// driver must observe it via `take_panic` after that barrier.
    pub panic_at: Option<(usize, usize)>,
    /// After publishing this epoch's jobs, the driver unwinds: it runs
    /// only the wait-on-drop guard (`wait_all`), then pool shutdown.
    /// Models a panic in shard 0, which the fleet driver's epoch loop
    /// runs on the driver thread, mid-epoch.
    pub driver_unwinds_at: Option<usize>,
    /// Inject the classic bug: the post-publish wakeup uses
    /// `notify_one` instead of `notify_all`. The explorer must report
    /// a deadlock (stranded worker) — this is the checker's self-test.
    pub lost_wakeup_bug: bool,
}

impl BarrierModel {
    /// The faithful model of `pool.rs` at `workers` × `epochs`.
    pub fn pool(workers: usize, epochs: usize) -> Self {
        BarrierModel {
            workers,
            epochs,
            jobs: None,
            panic_at: None,
            driver_unwinds_at: None,
            lost_wakeup_bug: false,
        }
    }

    fn jobs_in(&self, _epoch: usize) -> usize {
        self.jobs.unwrap_or(self.workers).min(self.workers)
    }
}

/// What the explorer proved, on success.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Exploration {
    /// Distinct states visited.
    pub states: u64,
    /// Transitions executed (edges, including into already-visited
    /// states).
    pub transitions: u64,
    /// Longest schedule prefix explored.
    pub deepest: usize,
}

/// Why an exploration failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ViolationKind {
    /// Unfinished threads exist but none can step — includes every
    /// lost-wakeup scenario.
    Deadlock,
    /// `submit` ran while the previous generation was still in flight
    /// (`completed != submitted`) — the real code's assert.
    SubmitOverlap,
    /// `submit` found a job slot still occupied.
    StaleJobSlot,
    /// `wait_all` returned while some job of the generation had not
    /// run exactly once (or counters disagreed) — the barrier opened
    /// with a borrow still live.
    GenerationSkew,
    /// A job panicked but the payload was not observable at
    /// `take_panic` after the barrier.
    PanicLost,
}

/// A failed exploration: what went wrong and the exact schedule
/// (one label per step) that reaches it.
#[derive(Clone, Debug)]
pub struct Violation {
    pub kind: ViolationKind,
    pub trace: Vec<String>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{:?} via schedule:", self.kind)?;
        for (i, step) in self.trace.iter().enumerate() {
            writeln!(f, "  {i:3}. {step}")?;
        }
        Ok(())
    }
}

/// Driver program counter. Each variant is one atomic step; the
/// `pool.rs` line it mirrors is noted.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum DriverPc {
    /// `submit(jobs)`: assert generation retired, bump the generation
    /// (`submitted = n; completed = 0`), fill the slots. Critical
    /// section of `WorkerPool::submit`.
    Submit(u8),
    /// `self.shared.work.notify_all()` after the submit unlock.
    NotifyWork(u8),
    /// `wait_all`'s predicate check under the lock: park on `done` if
    /// `completed < submitted`, else the barrier opens.
    WaitAll(u8),
    /// Parked in `done.wait(state)`.
    ParkedDone(u8),
    /// The barrier has opened: generation-integrity assertions run
    /// here (this is the moment borrows become touchable again).
    Barrier(u8),
    /// `take_panic()` after the barrier.
    TakePanic(u8),
    /// Pool drop, part 1: set `shutdown` under the lock.
    Shutdown,
    /// Pool drop, part 2: `work.notify_all()`.
    NotifyShutdown,
    /// Pool drop, part 3: join every worker (runnable only when all
    /// workers have exited).
    Join,
    Done,
}

/// Worker program counter (`worker_loop`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum WorkerPc {
    /// Holds/acquires the lock and runs the inner loop once: exit on
    /// shutdown, take the slot if filled, else park on `work`. First
    /// entry and every post-wakeup recheck are the same state —
    /// exactly like the real inner `loop`.
    Check,
    /// Parked in `work.wait(state)`.
    Parked,
    /// Running the taken job (of the tagged epoch) outside the lock.
    Run(u8),
    /// `catch_unwind` returned: under the lock, stash a panic payload
    /// if the job panicked, then `completed += 1`.
    Report(u8),
    /// `done.notify_all()` after the report unlock.
    NotifyDone,
    /// Returned from `worker_loop` (saw `shutdown`).
    Exit,
}

/// The `Mutex<PoolState>` contents plus verification bookkeeping.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct State {
    /// `PoolState::jobs`: the epoch tag each slot holds.
    slots: [Option<u8>; MAX_WORKERS],
    submitted: u8,
    completed: u8,
    /// `PoolState::panic`: which worker's payload is stashed.
    panic: Option<u8>,
    shutdown: bool,
    driver: DriverPc,
    workers: [WorkerPc; MAX_WORKERS],
    /// Times job `(epoch, worker)` has run (capped at 2 — anything
    /// past 1 is already a violation).
    runs: [[u8; MAX_WORKERS]; MAX_EPOCHS],
    /// The driver observed the expected panic payload.
    panic_taken: bool,
}

impl State {
    fn init() -> State {
        State {
            slots: [None; MAX_WORKERS],
            submitted: 0,
            completed: 0,
            panic: None,
            shutdown: false,
            driver: DriverPc::Submit(0),
            workers: [WorkerPc::Check; MAX_WORKERS],
            runs: [[0; MAX_WORKERS]; MAX_EPOCHS],
            panic_taken: false,
        }
    }

    fn all_done(&self, model: &BarrierModel) -> bool {
        self.driver == DriverPc::Done
            && self.workers[..model.workers]
                .iter()
                .all(|&w| w == WorkerPc::Exit)
    }
}

fn violation(kind: ViolationKind) -> Violation {
    Violation {
        kind,
        trace: Vec::new(),
    }
}

/// After this epoch's barrier (and panic collection), where does the
/// driver go?
fn advance(model: &BarrierModel, e: u8) -> DriverPc {
    if model.driver_unwinds_at == Some(e as usize) {
        // The wait-on-drop guard has returned; the unwinding driver
        // drops the pool next.
        DriverPc::Shutdown
    } else if (e as usize + 1) < model.epochs {
        DriverPc::Submit(e + 1)
    } else {
        DriverPc::Shutdown
    }
}

/// Enumerates every step enabled in `s`. An empty result with
/// unfinished threads is a deadlock (checked by the caller).
fn successors(model: &BarrierModel, s: &State) -> Result<Vec<(String, State)>, Violation> {
    let mut out: Vec<(String, State)> = Vec::new();
    let w = model.workers;

    // ---- Driver steps -------------------------------------------------
    match s.driver {
        DriverPc::Submit(e) => {
            if s.completed != s.submitted {
                return Err(violation(ViolationKind::SubmitOverlap));
            }
            let n = model.jobs_in(e as usize);
            let mut next = s.clone();
            for slot in &mut next.slots[..n] {
                if slot.is_some() {
                    return Err(violation(ViolationKind::StaleJobSlot));
                }
                *slot = Some(e);
            }
            next.submitted = n as u8;
            next.completed = 0;
            next.driver = DriverPc::NotifyWork(e);
            out.push((format!("driver: publish generation {e} ({n} jobs)"), next));
        }
        DriverPc::NotifyWork(e) => {
            if model.lost_wakeup_bug {
                // notify_one: nondeterministically wake exactly one
                // parked worker (or no-op when none is parked).
                let parked: Vec<usize> = (0..w)
                    .filter(|&i| s.workers[i] == WorkerPc::Parked)
                    .collect();
                if parked.is_empty() {
                    let mut next = s.clone();
                    next.driver = DriverPc::WaitAll(e);
                    out.push((
                        format!("driver: notify_one(work) wakes nobody [gen {e}]"),
                        next,
                    ));
                } else {
                    for i in parked {
                        let mut next = s.clone();
                        next.workers[i] = WorkerPc::Check;
                        next.driver = DriverPc::WaitAll(e);
                        out.push((
                            format!("driver: notify_one(work) wakes worker {i} [gen {e}]"),
                            next,
                        ));
                    }
                }
            } else {
                let mut next = s.clone();
                for pc in &mut next.workers[..w] {
                    if *pc == WorkerPc::Parked {
                        *pc = WorkerPc::Check;
                    }
                }
                next.driver = DriverPc::WaitAll(e);
                out.push((format!("driver: notify_all(work) [gen {e}]"), next));
            }
        }
        DriverPc::WaitAll(e) => {
            let mut next = s.clone();
            if s.completed < s.submitted {
                next.driver = DriverPc::ParkedDone(e);
                out.push((
                    format!(
                        "driver: wait_all sees {}/{} done, parks on `done` [gen {e}]",
                        s.completed, s.submitted
                    ),
                    next,
                ));
            } else {
                next.driver = DriverPc::Barrier(e);
                out.push((format!("driver: wait_all returns [gen {e}]"), next));
            }
        }
        DriverPc::ParkedDone(_) => {} // woken only by a worker's notify
        DriverPc::Barrier(e) => {
            // The barrier is open: the submit contract says borrows are
            // touchable again, so the whole generation must be retired.
            let n = model.jobs_in(e as usize);
            if s.completed != s.submitted || s.completed as usize != n {
                return Err(violation(ViolationKind::GenerationSkew));
            }
            if s.runs[e as usize][..n].iter().any(|&r| r != 1) {
                return Err(violation(ViolationKind::GenerationSkew));
            }
            // Earlier generations must not have been re-run by a stale
            // wakeup.
            for past in 0..e as usize {
                let pn = model.jobs_in(past);
                if s.runs[past][..pn].iter().any(|&r| r != 1) {
                    return Err(violation(ViolationKind::GenerationSkew));
                }
            }
            let mut next = s.clone();
            let expects_panic = model.panic_at.map(|(pe, _)| pe) == Some(e as usize)
                && model.driver_unwinds_at != Some(e as usize);
            next.driver = if expects_panic {
                DriverPc::TakePanic(e)
            } else {
                advance(model, e)
            };
            out.push((
                format!("driver: barrier {e} opens (borrows live again)"),
                next,
            ));
        }
        DriverPc::TakePanic(e) => {
            let mut next = s.clone();
            if next.panic.take().is_none() {
                return Err(violation(ViolationKind::PanicLost));
            }
            next.panic_taken = true;
            next.driver = advance(model, e);
            out.push((
                format!("driver: take_panic ferries the payload [gen {e}]"),
                next,
            ));
        }
        DriverPc::Shutdown => {
            let mut next = s.clone();
            next.shutdown = true;
            next.driver = DriverPc::NotifyShutdown;
            out.push(("driver: drop sets shutdown".to_string(), next));
        }
        DriverPc::NotifyShutdown => {
            let mut next = s.clone();
            for pc in &mut next.workers[..w] {
                if *pc == WorkerPc::Parked {
                    *pc = WorkerPc::Check;
                }
            }
            next.driver = DriverPc::Join;
            out.push(("driver: drop notify_all(work)".to_string(), next));
        }
        DriverPc::Join => {
            if s.workers[..w].iter().all(|&pc| pc == WorkerPc::Exit) {
                let mut next = s.clone();
                next.driver = DriverPc::Done;
                out.push(("driver: joins all workers".to_string(), next));
            }
        }
        DriverPc::Done => {}
    }

    // ---- Worker steps -------------------------------------------------
    for i in 0..w {
        match s.workers[i] {
            WorkerPc::Check => {
                let mut next = s.clone();
                if s.shutdown {
                    next.workers[i] = WorkerPc::Exit;
                    out.push((format!("worker {i}: sees shutdown, exits"), next));
                } else if let Some(e) = s.slots[i] {
                    next.slots[i] = None;
                    next.workers[i] = WorkerPc::Run(e);
                    out.push((format!("worker {i}: takes job of generation {e}"), next));
                } else {
                    next.workers[i] = WorkerPc::Parked;
                    out.push((format!("worker {i}: no job, parks on `work`"), next));
                }
            }
            WorkerPc::Parked => {} // woken only by a notify step
            WorkerPc::Run(e) => {
                let mut next = s.clone();
                let r = &mut next.runs[e as usize][i];
                *r = (*r + 1).min(2);
                next.workers[i] = WorkerPc::Report(e);
                let panics = model.panic_at == Some((e as usize, i));
                out.push((
                    format!(
                        "worker {i}: runs job [gen {e}]{}",
                        if panics {
                            " — job panics, caught"
                        } else {
                            ""
                        }
                    ),
                    next,
                ));
            }
            WorkerPc::Report(e) => {
                let mut next = s.clone();
                if model.panic_at == Some((e as usize, i)) && next.panic.is_none() {
                    next.panic = Some(i as u8);
                }
                next.completed += 1;
                next.workers[i] = WorkerPc::NotifyDone;
                out.push((format!("worker {i}: reports completion [gen {e}]"), next));
            }
            WorkerPc::NotifyDone => {
                let mut next = s.clone();
                if let DriverPc::ParkedDone(e) = next.driver {
                    next.driver = DriverPc::WaitAll(e);
                }
                next.workers[i] = WorkerPc::Check;
                out.push((format!("worker {i}: notify_all(done), loops"), next));
            }
            WorkerPc::Exit => {}
        }
    }

    Ok(out)
}

impl BarrierModel {
    /// Exhaustively explores every schedule of the modeled protocol.
    /// Returns the exploration statistics, or the first violation
    /// found together with the exact schedule that triggers it.
    pub fn explore(&self) -> Result<Exploration, Violation> {
        assert!(
            (1..=MAX_WORKERS).contains(&self.workers),
            "workers must be 1..={MAX_WORKERS}"
        );
        assert!(
            (1..=MAX_EPOCHS).contains(&self.epochs),
            "epochs must be 1..={MAX_EPOCHS}"
        );
        if let Some((e, i)) = self.panic_at {
            assert!(
                e < self.epochs && i < self.jobs_in(e),
                "panic_at out of range"
            );
        }
        let mut visited: HashSet<State> = HashSet::new();
        let mut stats = Exploration::default();
        let init = State::init();
        visited.insert(init.clone());
        stats.states = 1;

        // Iterative DFS: with visited-set pruning a path can be as
        // long as the state count, so recursion would risk the stack.
        // `path` mirrors the frame stack (one label per non-root
        // frame) and IS the counterexample schedule on failure.
        struct Frame {
            steps: Vec<(String, State)>,
            next: usize,
        }
        let mut path: Vec<String> = Vec::new();
        let fail = |kind: ViolationKind, path: &[String]| Violation {
            kind,
            trace: path.to_vec(),
        };
        let enter = |state: &State,
                     stats: &mut Exploration,
                     path: &[String]|
         -> Result<Option<Frame>, Violation> {
            stats.deepest = stats.deepest.max(path.len());
            let steps = successors(self, state).map_err(|v| fail(v.kind, path))?;
            if steps.is_empty() {
                if !state.all_done(self) {
                    return Err(fail(ViolationKind::Deadlock, path));
                }
                self.final_checks(state).map_err(|v| fail(v.kind, path))?;
                return Ok(None); // a complete, clean schedule
            }
            Ok(Some(Frame { steps, next: 0 }))
        };

        let mut frames: Vec<Frame> = Vec::new();
        if let Some(f) = enter(&init, &mut stats, &path)? {
            frames.push(f);
        }
        while let Some(frame) = frames.last_mut() {
            if frame.next >= frame.steps.len() {
                frames.pop();
                path.pop(); // no-op on the root frame (path is empty)
                continue;
            }
            let (label, next_state) = frame.steps[frame.next].clone();
            frame.next += 1;
            stats.transitions += 1;
            if !visited.insert(next_state.clone()) {
                continue;
            }
            stats.states += 1;
            path.push(label);
            match enter(&next_state, &mut stats, &path)? {
                Some(f) => frames.push(f),
                None => {
                    path.pop();
                }
            }
        }
        Ok(stats)
    }

    /// Whole-run postconditions once every thread has exited.
    fn final_checks(&self, s: &State) -> Result<(), Violation> {
        // Every submitted generation fully retired, exactly once each.
        let last = if let Some(u) = self.driver_unwinds_at {
            u + 1
        } else {
            self.epochs
        };
        for e in 0..last.min(self.epochs) {
            let n = self.jobs_in(e);
            if s.runs[e][..n].iter().any(|&r| r != 1) {
                return Err(violation(ViolationKind::GenerationSkew));
            }
        }
        // The panic payload was ferried to the driver (unless the
        // driver unwound, in which case it legitimately stays stashed
        // for the next drive).
        if self.panic_at.is_some() && self.driver_unwinds_at.is_none() && !s.panic_taken {
            return Err(violation(ViolationKind::PanicLost));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smallest_pool_passes() {
        let stats = BarrierModel::pool(1, 1).explore().expect("1x1 clean");
        assert!(stats.states > 10);
    }

    #[test]
    fn lost_wakeup_bug_is_caught() {
        let mut model = BarrierModel::pool(2, 1);
        model.lost_wakeup_bug = true;
        let v = model.explore().expect_err("notify_one must deadlock");
        assert_eq!(v.kind, ViolationKind::Deadlock);
        assert!(!v.trace.is_empty(), "violation carries its schedule");
        let rendered = v.to_string();
        assert!(rendered.contains("notify_one"), "{rendered}");
    }

    #[test]
    fn one_worker_pool_survives_notify_one() {
        // With a single worker notify_one == notify_all; the bug knob
        // must NOT produce a false alarm.
        let mut model = BarrierModel::pool(1, 2);
        model.lost_wakeup_bug = true;
        model
            .explore()
            .expect("single waiter needs only one wakeup");
    }

    #[test]
    fn short_generation_leaves_extras_parked() {
        let mut model = BarrierModel::pool(3, 2);
        model.jobs = Some(2);
        model.explore().expect("extras park, shutdown still drains");
    }
}
