//! Exhaustive schedule exploration of the `WorkerPool` generation
//! barrier, run as a normal `cargo test`.
//!
//! The model (see `mbus_analysis::barrier`) mirrors the protocol in
//! `crates/core/src/fleet/pool.rs`: job-slot publication, the
//! `submitted`/`completed` counters, the `work`/`done` condvar pair
//! with no spurious-wakeup crutch, panic catch-and-ferry, and the
//! wait-on-drop epoch guard. Every test here visits **every**
//! reachable interleaving of its configuration, so a pass is a proof
//! over the model, not a sampled smoke test.

use mbus_analysis::barrier::{BarrierModel, ViolationKind, MAX_EPOCHS, MAX_WORKERS};

/// The headline proof: all worker × epoch sizes up to the bound, no
/// deadlock, no lost wakeup, no generation skew, every job runs
/// exactly once.
#[test]
fn pool_barrier_exhaustive_up_to_3x3() {
    let mut grand_total = 0u64;
    for workers in 1..=MAX_WORKERS {
        for epochs in 1..=MAX_EPOCHS {
            let model = BarrierModel::pool(workers, epochs);
            let proof = model.explore().unwrap_or_else(|v| {
                panic!("{workers}w x {epochs}e violated the barrier protocol:\n{v}")
            });
            assert!(proof.states > 0 && proof.transitions >= proof.states - 1);
            grand_total += proof.states;
        }
        // More workers must widen the interleaving space.
        assert!(
            BarrierModel::pool(workers, MAX_EPOCHS)
                .explore()
                .unwrap()
                .states
                >= BarrierModel::pool(workers, 1).explore().unwrap().states
        );
    }
    assert!(
        grand_total > 1_000,
        "suspiciously small space: {grand_total}"
    );
}

/// A worker panicking mid-epoch must not wedge the barrier: the pool
/// catches the payload, the generation still completes, and the driver
/// observes the panic after `wait_all`. Checked at every (epoch,
/// worker) coordinate of the largest configuration.
#[test]
fn worker_panic_mid_epoch_is_ferried_not_lost() {
    for epoch in 0..MAX_EPOCHS {
        for worker in 0..MAX_WORKERS {
            let mut model = BarrierModel::pool(MAX_WORKERS, MAX_EPOCHS);
            model.panic_at = Some((epoch, worker));
            model.explore().unwrap_or_else(|v| {
                panic!("panic at epoch {epoch} worker {worker} broke the barrier:\n{v}")
            });
        }
    }
}

/// The driver unwinding mid-epoch (a panic in shard 0, which the fleet
/// driver's epoch loop runs on the driver thread) exercises the
/// wait-on-drop guard: the guard must still drain the in-flight
/// generation before the pool shuts down, on every schedule.
#[test]
fn driver_unwind_mid_epoch_drains_via_guard() {
    for epoch in 0..MAX_EPOCHS {
        for workers in 1..=MAX_WORKERS {
            let mut model = BarrierModel::pool(workers, MAX_EPOCHS);
            model.driver_unwinds_at = Some(epoch);
            model.explore().unwrap_or_else(|v| {
                panic!("driver unwind at epoch {epoch}, {workers}w: guard failed:\n{v}")
            });
        }
    }
}

/// Driver unwind and worker panic in the same epoch: the double-fault
/// path. The guard drains, the payload is simply dropped with the
/// pool — but nothing deadlocks.
#[test]
fn driver_unwind_with_simultaneous_worker_panic() {
    let mut model = BarrierModel::pool(2, 2);
    model.driver_unwinds_at = Some(1);
    model.panic_at = Some((1, 0));
    model
        .explore()
        .unwrap_or_else(|v| panic!("double fault wedged the pool:\n{v}"));
}

/// Short generations (fewer jobs than workers) leave the extra workers
/// parked across the barrier — the pool's grows-but-never-shrinks
/// shape. No skew, no stranded worker.
#[test]
fn short_generations_leave_extras_parked() {
    for jobs in 1..MAX_WORKERS {
        let mut model = BarrierModel::pool(MAX_WORKERS, MAX_EPOCHS);
        model.jobs = Some(jobs);
        model.explore().unwrap_or_else(|v| {
            panic!("{jobs} job(s) over {MAX_WORKERS} workers broke the barrier:\n{v}")
        });
    }
}

/// The checker's self-test: seed the classic lost-wakeup bug
/// (`notify_one` after publishing to several parked workers) and
/// demand the explorer convicts it with a concrete schedule.
#[test]
fn explorer_convicts_injected_lost_wakeup() {
    let mut model = BarrierModel::pool(3, 1);
    model.lost_wakeup_bug = true;
    let v = model.explore().expect_err("injected bug must be found");
    assert_eq!(v.kind, ViolationKind::Deadlock);
    assert!(
        v.trace.iter().any(|step| step.contains("notify_one")),
        "counterexample should show the narrow wakeup:\n{}",
        v.trace.join("\n")
    );
    // With one worker parked at a time, notify_one is actually enough:
    // the bug only bites with real fan-out.
    let mut narrow = BarrierModel::pool(1, MAX_EPOCHS);
    narrow.lost_wakeup_bug = true;
    narrow
        .explore()
        .expect("single-worker pool tolerates notify_one");
}
