//! The fleet driver: the one epoch barrier behind every
//! [`FleetSchedule`], with cluster groups on a persistent worker pool
//! rebalanced by measured load.
//!
//! Every schedule is a shard count plus a per-shard kernel:
//! [`FleetSchedule::Batched`] is one shard draining each cluster to
//! quiescence in turn, [`FleetSchedule::Interleaved`] is one shard
//! round-robining one transaction per cluster per round, and
//! [`FleetSchedule::Sharded`] is `n` round-robin shards. A
//! [`FleetDriver`] partitions a fleet's clusters into **shards**,
//! load-balanced by measured per-cluster work, and, each epoch, runs
//! shard 0 on the driver thread and every other shard on a long-lived
//! `WorkerPool` (`fleet/pool.rs`) worker — so one shard starts no
//! thread. When every shard's clusters are quiescent, the shards hand
//! back **per-shard outboxes** (classified gateway envelopes plus
//! local-traffic stashes and drop counters) and the barrier exchanges
//! them: forwarded legs are queued onto their destination buses in
//! **global source-cluster order**. This barrier is the only code that
//! routes envelopes.
//!
//! # Equivalence argument
//!
//! Every shard count and shard assignment yields the same fleet-wide
//! record stream as one round-robin shard, and every schedule yields
//! the same per-cluster streams:
//!
//! * **Per-cluster streams.** Clusters share no state except through
//!   barrier routing, and both kernels drain each cluster with
//!   `run_transaction` until it reports no work (the batched
//!   [`BusEngine::run_until_quiescent_with`] is bit-identical to
//!   single-stepping, `tests/analytic_batching.rs`). So each cluster
//!   performs the same autonomous drain from the same epoch-start
//!   state — whichever kernel runs it and whichever shard it sits on.
//! * **Record order.** In round-robin, a cluster's `j`-th transaction
//!   of an epoch always runs in round `j`, *independent of every other
//!   cluster* (a cluster stays in the rotation exactly until its own
//!   work runs out). One round-robin shard therefore emits an epoch's
//!   records sorted by `(round, cluster index)` — and merging all
//!   shards' `(round, cluster, record)` emissions by that same key
//!   reproduces the order exactly, whatever the shard assignment. The
//!   cluster-major kernel tags every record round 0, so the stable
//!   merge keeps its cluster-major order.
//! * **Gateway counters.** Shards classify their own clusters'
//!   envelopes against the shared read-only [`GatewayRoutes`] table
//!   into per-shard counters; every counter is a sum, so the
//!   barrier-time merge is order-independent, per-cluster drop
//!   attribution included.
//! * **Routing order.** Forwarded legs are tagged with their source
//!   cluster and stably sorted by it at the barrier, so they are
//!   queued by (source cluster, receive position) even when a
//!   rebalance has made shards non-contiguous. Queueing never executes
//!   bus work (engines only run inside epochs), so barrier-internal
//!   interleaving of `take_rx` and `queue` calls is immaterial.
//! * **Rebalancing is deterministic.** Every epoch repartitions on
//!   the schedulers' per-cluster transaction counters, which are
//!   themselves a pure function of the (deterministic) record stream;
//!   the greedy bin-packing breaks every tie by index. The assignment
//!   therefore replays identically run-to-run, and by the points above
//!   the *output* never depends on it anyway.
//!
//! `tests/interleaved_fleet.rs` and `tests/sharded_fleet.rs` pin all of
//! this over hundreds of seeds, every
//! [`EngineKind`](crate::engine::EngineKind) and shard counts 1/2/4/7.
//!
//! # Threading model
//!
//! Engines are single-threaded objects (the wire engine's internals
//! are `Rc`-based by design); the parallelism contract is *exclusive
//! engine ownership per worker, per epoch*. Each worker receives the
//! epoch's `(cluster, &mut engine)` entries for its shard and the
//! barrier rendezvous returns exclusive access to the driver thread —
//! engines migrate between threads but are never shared, which is what
//! the `Send` wrapper below asserts. The driver runs shard 0 itself
//! (the pool holds `workers - 1` threads), and a wait-on-drop guard
//! keeps the engine borrows alive across driver unwinds until every
//! worker has finished its generation — discharging the
//! `WorkerPool::submit` safety contract.
//!
//! [`FleetSchedule`]: super::FleetSchedule
//! [`FleetSchedule::Batched`]: super::FleetSchedule::Batched
//! [`FleetSchedule::Interleaved`]: super::FleetSchedule::Interleaved
//! [`FleetSchedule::Sharded`]: super::FleetSchedule::Sharded

use std::any::Any;
use std::cmp::Reverse;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Instant;

use super::pool::WorkerPool;
use super::{
    Fleet, FleetFairness, FleetRecord, GatewayCounters, GatewayRoutes, GatewayVerdict, GATEWAY_NODE,
};
use crate::engine::{BusEngine, EngineRecord, ReceivedMessage};
use crate::message::Message;

/// One cluster's exclusive engine access for an epoch:
/// `(fleet-global cluster index, engine)`.
type Entry<'a> = (usize, &'a mut Box<dyn BusEngine>);

/// Exclusive access to one shard's engines, in ascending cluster
/// order, for the duration of one epoch, movable onto a worker thread.
struct ShardEngines<'a>(Vec<Entry<'a>>);

// SEND-AUDIT: this file pairs an `impl Send` with engines whose
// internals are `Rc`-based; the audit that no `Rc`/`RefCell` is ever
// reachable from two threads is the SAFETY argument below.
//
// SAFETY: `dyn BusEngine` carries no `Send` bound only because the
// wire engine's internal object graph uses `Rc<RefCell<…>>`. Every
// such `Rc` is created inside the engine and reachable only through
// it: the `BusEngine` surface returns owned plain data (records,
// messages, stats, specs), never an alias into the graph, and the
// fleet layer builds its engines internally and touches them through
// that surface alone. Each boxed engine is therefore an isolated
// single-owner object graph, and moving the exclusive `&mut` entries
// to exactly one worker moves access to each graph wholesale — no
// reference count or `RefCell` borrow can be reached from two threads.
// The epoch rendezvous (the pool barrier) hands exclusive
// access back to the driver thread before anything else touches the
// engines.
unsafe impl Send for ShardEngines<'_> {}

/// How a shard runs its clusters within one epoch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) enum Kernel {
    /// One transaction per still-active cluster per round (the
    /// interleaved and sharded schedules).
    RoundRobin,
    /// Each cluster to quiescence in turn through the engine's batched
    /// kernel (the batched schedule).
    ClusterMajor,
}

/// One shard's kernel state and fairness counters, kept across epochs
/// and drives.
#[derive(Debug, Default)]
struct ShardScheduler {
    /// Positions into the epoch's entries still active this epoch
    /// (scratch, reused across epochs and drives).
    active: Vec<usize>,
    /// Transactions this shard ran per cluster across all drives,
    /// indexed by the cluster's fleet-global index.
    cluster_transactions: Vec<u64>,
    /// Starvation gauge: the most transactions this shard ran between
    /// two consecutive turns of any single cluster.
    max_turn_gap: u64,
    /// Hog gauge: the most transactions any single cluster ran within
    /// one epoch.
    max_cluster_epoch_transactions: u64,
    /// Wall-clock nanoseconds spent in this shard's epoch bodies
    /// (barrier time excluded) — the per-shard load gauge surfaced
    /// through [`FleetFairness::shard_wall_nanos`].
    wall_nanos: u64,
    /// Epoch-local scratch (per-cluster turn bookkeeping), reused.
    epoch_counts: Vec<u64>,
    last_turn: Vec<u64>,
}

impl ShardScheduler {
    /// The [`Kernel::RoundRobin`] epoch over `entries` — *any* subset
    /// of the fleet's clusters, in ascending cluster order — with *no*
    /// gateway routing, handing each completed transaction to `emit` as
    /// `(round, global cluster index, record)`. One round polls every
    /// still-active cluster once in entry order; a cluster that reports
    /// no work leaves the rotation for the rest of the epoch. Returns
    /// whether any transaction ran.
    fn run_round_robin(
        &mut self,
        entries: &mut [Entry<'_>],
        emit: &mut dyn FnMut(u64, usize, EngineRecord),
    ) -> bool {
        let end = entries.iter().map(|&(c, _)| c + 1).max().unwrap_or(0);
        if self.cluster_transactions.len() < end {
            self.cluster_transactions.resize(end, 0);
            self.epoch_counts.resize(end, 0);
            self.last_turn.resize(end, 0);
        }
        for &(cluster, _) in entries.iter() {
            self.epoch_counts[cluster] = 0;
            self.last_turn[cluster] = 0;
        }
        // `active` holds positions into `entries` (not cluster
        // indices), so sparse shard assignments cost nothing extra.
        self.active.clear();
        self.active.extend(0..entries.len());
        let mut epoch_txns = 0u64;
        let mut round = 0u64;
        let mut ran = false;
        while !self.active.is_empty() {
            // One round: one transaction per still-active cluster, in
            // entry order; quiescent clusters leave the epoch. The
            // survivors are compacted in place (order preserved), so a
            // round costs O(active) even when thousands of clusters
            // quiesce at once.
            let mut kept = 0;
            for i in 0..self.active.len() {
                let pos = self.active[i];
                let (cluster, engine) = &mut entries[pos];
                let cluster = *cluster;
                if let Some(record) = engine.run_transaction() {
                    epoch_txns += 1;
                    self.cluster_transactions[cluster] += 1;
                    self.epoch_counts[cluster] += 1;
                    if self.epoch_counts[cluster] > 1 {
                        let gap = epoch_txns - self.last_turn[cluster] - 1;
                        self.max_turn_gap = self.max_turn_gap.max(gap);
                    }
                    self.last_turn[cluster] = epoch_txns;
                    self.max_cluster_epoch_transactions = self
                        .max_cluster_epoch_transactions
                        .max(self.epoch_counts[cluster]);
                    ran = true;
                    emit(round, cluster, record);
                    self.active[kept] = pos;
                    kept += 1;
                }
            }
            self.active.truncate(kept);
            round += 1;
        }
        ran
    }
}

/// The [`Kernel::ClusterMajor`] epoch: drains each entry's cluster to
/// quiescence in entry order through the engine's batched
/// [`BusEngine::run_until_quiescent_with`], tagging every record
/// round 0 so the barrier's stable merge keeps the cluster-major
/// order. Keeps no fairness counters (batched drains report none).
fn run_cluster_major(
    entries: &mut [Entry<'_>],
    emit: &mut dyn FnMut(u64, usize, EngineRecord),
) -> bool {
    let mut ran = false;
    for (cluster, engine) in entries.iter_mut() {
        let cluster = *cluster;
        engine.run_until_quiescent_with(&mut |record| {
            ran = true;
            emit(0, cluster, record.clone());
        });
    }
    ran
}

/// What one shard hands back at an epoch barrier.
#[derive(Default)]
struct ShardEpoch {
    /// Whether any transaction ran on this shard this epoch.
    ran: bool,
    /// `(round, global cluster, record)` emissions, already sorted by
    /// `(round, cluster)` — the merge key that reproduces the
    /// single-shard order.
    records: Vec<(u64, usize, EngineRecord)>,
    /// Non-envelope gateway traffic, per global cluster, for the
    /// fleet's `take_rx` stash.
    stash: Vec<(usize, ReceivedMessage)>,
    /// Forwarded legs as `(source cluster, destination cluster,
    /// message)`, in (source cluster, receive position) order within
    /// the shard; the barrier's stable source sort restores the global
    /// routing order across (possibly non-contiguous) shards.
    forwards: Vec<(usize, usize, Message)>,
    /// This shard's forwarding/drop accounting for the epoch, merged
    /// into the fleet's [`GatewayNode`](super::GatewayNode) at the
    /// barrier.
    counters: GatewayCounters,
}

/// One shard's epoch: run the shard's clusters to quiescence under
/// `kernel`, then classify their gateway presences' receive logs
/// against the shared routing table into the shard's outbox.
fn run_shard_epoch(
    mut engines: ShardEngines<'_>,
    scheduler: &mut ShardScheduler,
    kernel: Kernel,
    routes: &GatewayRoutes,
) -> ShardEpoch {
    // WALL-CLOCK: per-shard load gauge for the fairness report only;
    // `wall_nanos` never reaches a signature-bearing stream (signatures
    // are pure functions of seeds — see the determinism contract in the
    // module docs).
    let start = Instant::now();
    let entries = &mut engines.0;
    let mut records = Vec::new();
    let mut emit =
        |round: u64, cluster: usize, record: EngineRecord| records.push((round, cluster, record));
    let ran = match kernel {
        Kernel::RoundRobin => scheduler.run_round_robin(entries, &mut emit),
        Kernel::ClusterMajor => run_cluster_major(entries, &mut emit),
    };
    let mut out = ShardEpoch {
        ran,
        records,
        ..ShardEpoch::default()
    };
    for (cluster, engine) in entries.iter_mut() {
        let cluster = *cluster;
        for m in engine.take_rx(GATEWAY_NODE) {
            // All counting (forwards, mesh hops, per-hop drops)
            // happens inside `classify`, against this shard's epoch
            // counters — merged at the barrier, so the totals do not
            // depend on the shard assignment. `Fleet::queue` rejects
            // non-envelopes on the forwarding port, but traffic that
            // arrives by a path it never saw is still counted dropped
            // against this cluster rather than vanishing.
            match routes.classify(cluster, m, &mut out.counters) {
                GatewayVerdict::Local(m) => out.stash.push((cluster, m)),
                GatewayVerdict::Forward { dest_cluster, msg } => {
                    out.forwards.push((cluster, dest_cluster, msg));
                }
                GatewayVerdict::Drop => {}
            }
        }
    }
    scheduler.wall_nanos += start.elapsed().as_nanos() as u64;
    out
}

/// What a worker reports for one shard: the epoch results, or the
/// panic payload its job caught.
type ShardOutcome = Result<ShardEpoch, Box<dyn Any + Send>>;

/// Keeps the engine borrows handed to the pool alive until the whole
/// generation has finished, even if the driver thread unwinds (e.g.
/// shard 0, which the driver runs itself, panics mid-epoch) — the
/// other half of the `WorkerPool::submit` safety contract.
struct EpochGuard<'a> {
    pool: &'a WorkerPool,
}

impl Drop for EpochGuard<'_> {
    fn drop(&mut self) {
        self.pool.wait_all();
    }
}

/// The drive loop behind every [`FleetSchedule`](super::FleetSchedule):
/// cluster shards, shard 0 on the driver thread and the rest on a
/// persistent worker pool, gateway envelopes exchanged at epoch
/// barriers, shards rebalanced by measured per-cluster load. Reusable
/// across drives; its counters accumulate.
#[derive(Debug)]
pub(super) struct FleetDriver {
    shards: usize,
    kernel: Kernel,
    /// The long-lived workers, spawned by the first multi-shard epoch
    /// and reused for every epoch after (none for one shard).
    pool: WorkerPool,
    /// One persistent scheduler per shard, so fairness counters
    /// accumulate across epochs and drives.
    schedulers: Vec<ShardScheduler>,
    /// Progress epochs (barriers that ran a transaction or routed an
    /// envelope) across all drives; the empty terminating epoch every
    /// drive ends with is not counted.
    epochs: u64,
    /// Current cluster-to-shard assignment: `assignment[s]` lists
    /// shard `s`'s clusters in ascending order; together the lists
    /// partition `0..assigned_clusters`.
    assignment: Vec<Vec<usize>>,
    assigned_clusters: usize,
    /// The epoch count the assignment was last computed at; a new
    /// progress epoch makes it due again.
    rebalanced_at: Option<u64>,
}

impl FleetDriver {
    /// A driver that spreads each epoch across up to `shards` shards
    /// (0 is treated as 1; the effective count is further clamped to
    /// the driven fleet's cluster count), each running `kernel`.
    pub(super) fn new(shards: usize, kernel: Kernel) -> Self {
        FleetDriver {
            shards: shards.max(1),
            kernel,
            pool: WorkerPool::new(),
            schedulers: Vec::new(),
            epochs: 0,
            assignment: Vec::new(),
            assigned_clusters: 0,
            rebalanced_at: None,
        }
    }

    /// The [`FleetReport::fairness`](super::FleetReport::fairness)
    /// view, normalized to `clusters` entries: `None` for the
    /// cluster-major kernel, which keeps no round-robin counters.
    /// Per-cluster totals are summed over shards, the starvation and
    /// hog gauges are maxima over shards, and the per-shard
    /// transaction/wall-time gauges expose the load balance.
    pub(super) fn fairness(&self, clusters: usize) -> Option<FleetFairness> {
        if self.kernel == Kernel::ClusterMajor {
            return None;
        }
        let shards = &self.schedulers;
        Some(FleetFairness {
            cluster_transactions: self.cluster_transactions(clusters),
            max_turn_gap: shards.iter().map(|s| s.max_turn_gap).max().unwrap_or(0),
            max_cluster_epoch_transactions: shards
                .iter()
                .map(|s| s.max_cluster_epoch_transactions)
                .max()
                .unwrap_or(0),
            epochs: self.epochs,
            shard_transactions: shards
                .iter()
                .map(|s| s.cluster_transactions.iter().sum())
                .collect(),
            shard_wall_nanos: shards.iter().map(|s| s.wall_nanos).collect(),
        })
    }

    /// Transactions per cluster across all drives, summed over the
    /// shards that ran them, for the first `clusters` clusters.
    fn cluster_transactions(&self, clusters: usize) -> Vec<u64> {
        let mut totals = vec![0; clusters];
        for s in &self.schedulers {
            for (total, &n) in totals.iter_mut().zip(&s.cluster_transactions) {
                *total += n;
            }
        }
        totals
    }

    /// The current cluster-to-shard assignment.
    #[cfg(test)]
    fn shard_assignment(&self) -> &[Vec<usize>] {
        &self.assignment
    }

    /// Recomputes the cluster-to-shard assignment when the fleet or
    /// shard count changed, or — with more than one shard — when a
    /// progress epoch has passed since the last one: index-tie-broken
    /// greedy bin-packing on the accumulated per-cluster transaction
    /// counters. One shard owns `0..clusters`, no sort needed.
    fn refresh_assignment(&mut self, clusters: usize, workers: usize) {
        let stale = self.assignment.len() != workers || self.assigned_clusters != clusters;
        if !stale && (workers == 1 || self.rebalanced_at == Some(self.epochs)) {
            return;
        }
        self.assignment = if workers == 1 {
            vec![(0..clusters).collect()]
        } else {
            balance_by_weight(&self.cluster_transactions(clusters), workers)
        };
        self.assigned_clusters = clusters;
        self.rebalanced_at = Some(self.epochs);
    }

    /// Runs `fleet` until no bus has pending work and no envelope is
    /// in flight, handing each completed transaction to `sink` in the
    /// schedule's order (the barrier merges the shards' emissions by
    /// `(round, cluster)`; records therefore reach `sink` in
    /// epoch-sized batches).
    pub(super) fn drive(&mut self, fleet: &mut Fleet, sink: &mut dyn FnMut(FleetRecord)) {
        let n = fleet.clusters.len();
        if n == 0 {
            return;
        }
        let workers = self.shards.min(n);
        if self.schedulers.len() < workers {
            self.schedulers
                .resize_with(workers, ShardScheduler::default);
        }
        // The epoch inbox: pool jobs send their shard's results (or
        // caught panics) back in completion order.
        let (done, inbox) = mpsc::channel::<(usize, ShardOutcome)>();
        loop {
            self.refresh_assignment(n, workers);

            // Epoch: every shard runs its clusters to quiescence and
            // classifies its gateway traffic, in parallel against the
            // shared read-only routing table.
            let (results, first_panic) = {
                let FleetDriver {
                    kernel,
                    pool,
                    schedulers,
                    assignment,
                    ..
                } = &mut *self;
                let kernel = *kernel;
                let routes = &fleet.gateway.routes;
                let mut results: Vec<Option<ShardEpoch>> = (0..workers).map(|_| None).collect();
                let mut first_panic: Option<Box<dyn Any + Send>> = None;

                // Hand each shard exclusive &mut access to exactly its
                // clusters' engines.
                let mut slots: Vec<Option<&mut Box<dyn BusEngine>>> =
                    fleet.clusters.iter_mut().map(Some).collect();
                let shard_engines: Vec<ShardEngines<'_>> = assignment
                    .iter()
                    .map(|members| {
                        ShardEngines(
                            members
                                .iter()
                                .map(|&c| {
                                    (c, slots[c].take().expect("cluster assigned to one shard"))
                                })
                                .collect(),
                        )
                    })
                    .collect();

                // Shards 1.. go to the pool's long-lived workers (none
                // for one shard: a zero-job generation spawns no
                // thread), the driver runs shard 0 itself, and results
                // stream back through the inbox.
                let mut engines_iter = shard_engines.into_iter();
                let shard0 = engines_iter.next().expect("at least one shard");
                let mut scheds = schedulers.iter_mut();
                let sched0 = scheds.next().expect("a scheduler per shard");
                let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = engines_iter
                    .zip(scheds)
                    .enumerate()
                    .map(|(i, (engines, scheduler))| {
                        let shard = i + 1;
                        let done = done.clone();
                        Box::new(move || {
                            // Contain shard panics here so the
                            // rendezvous always completes; the driver
                            // re-raises after the barrier.
                            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                                run_shard_epoch(engines, scheduler, kernel, routes)
                            }));
                            // The driver holds the inbox until every
                            // job has reported, so the send cannot fail.
                            let _ = done.send((shard, result));
                        }) as Box<dyn FnOnce() + Send + '_>
                    })
                    .collect();
                // SAFETY: every borrow inside `jobs` (engines,
                // schedulers, routes) outlives the generation —
                // `guard` waits for the pool on every exit path,
                // including unwinds, before those borrows can be
                // touched or expire; the previous generation finished
                // before this loop iteration re-entered.
                let submitted = unsafe { pool.submit(jobs) };
                let guard = EpochGuard { pool };
                results[0] = Some(run_shard_epoch(shard0, sched0, kernel, routes));
                for _ in 0..submitted {
                    let (shard, result) = inbox.recv().expect("the driver holds a sender");
                    match result {
                        Ok(ep) => results[shard] = Some(ep),
                        Err(payload) => {
                            first_panic = first_panic.take().or(Some(payload));
                        }
                    }
                }
                drop(guard);
                first_panic = first_panic.take().or_else(|| pool.take_panic());
                (results, first_panic)
            };
            if let Some(payload) = first_panic {
                panic::resume_unwind(payload);
            }

            // Barrier, part 1: gather the outboxes — counters merged,
            // local traffic stashed (each cluster's stash comes from
            // exactly one shard, so per-cluster order is preserved),
            // records and forwards collected for the ordered passes.
            let mut ran = false;
            let mut merged: Vec<(u64, usize, EngineRecord)> = Vec::new();
            let mut forwards: Vec<(usize, usize, Message)> = Vec::new();
            for ep in results {
                let mut ep = ep.expect("every shard reported an epoch");
                ran |= ep.ran;
                merged.append(&mut ep.records);
                fleet.gateway.counters.merge(&ep.counters);
                for (cluster, m) in ep.stash.drain(..) {
                    fleet.gateway_rx[cluster].push(m);
                }
                forwards.append(&mut ep.forwards);
            }

            // Barrier, part 2: emit the epoch's records in the
            // single-shard order — merge by (round, cluster); see the
            // module docs for why this is exact.
            merged.sort_by_key(|&(round, cluster, _)| (round, cluster));
            for (_, cluster, record) in merged {
                sink(FleetRecord { cluster, record });
            }

            // Barrier, part 3: queue forwarded legs on their
            // destination buses in (source cluster, receive position)
            // order — the stable sort restores it across non-contiguous
            // shards.
            forwards.sort_by_key(|&(src, _, _)| src);
            let mut routed = false;
            for (_, dest_cluster, msg) in forwards {
                routed = true;
                fleet.clusters[dest_cluster]
                    .queue(GATEWAY_NODE, msg)
                    .expect("forwarded leg is shorter than its envelope");
            }
            if !ran && !routed {
                return;
            }
            self.epochs += 1;
        }
    }
}

/// Deterministic greedy bin-packing: clusters in descending weight
/// (index-ascending within a weight) each go to the currently
/// lightest shard (lowest index on ties); each shard's list is then
/// sorted ascending. Zero weights are floored to 1 so an unmeasured
/// fleet deals out evenly instead of piling onto shard 0.
fn balance_by_weight(weights: &[u64], shards: usize) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&c| (Reverse(weights[c].max(1)), c));
    let mut loads = vec![0u64; shards];
    let mut assignment = vec![Vec::new(); shards];
    for c in order {
        let shard = (0..shards)
            .min_by_key(|&s| loads[s])
            .expect("at least one shard");
        loads[shard] += weights[c].max(1);
        assignment[shard].push(c);
    }
    for members in &mut assignment {
        members.sort_unstable();
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Address, FuId, ShortPrefix};
    use crate::config::BusConfig;
    use crate::engine::EngineKind;
    use crate::fleet::{FleetNodeId, FleetSchedule, FleetWorkload};

    fn eight_cluster_fleet(kind: EngineKind) -> Fleet {
        let mut fleet = Fleet::new(kind, BusConfig::default());
        for _ in 0..8 {
            let c = fleet.add_cluster();
            fleet.add_sensor(c, false);
            fleet.add_sensor(c, false);
        }
        fleet
    }

    /// Shard counts the conformance sweep covers; reduced under Miri
    /// (1 = no pool thread, 2 = smallest real rendezvous).
    fn test_shard_counts() -> &'static [usize] {
        if cfg!(miri) {
            &[1, 2]
        } else {
            &[1, 2, 3, 5, 8, 13]
        }
    }

    /// Sums a driver's per-cluster transaction counters.
    fn transactions(driver: &FleetDriver) -> u64 {
        driver
            .schedulers
            .iter()
            .flat_map(|s| &s.cluster_transactions)
            .sum()
    }

    #[test]
    fn sharded_matches_interleaved_stream_exactly() {
        for kind in EngineKind::ALL {
            for &shards in test_shard_counts() {
                let mut reference = eight_cluster_fleet(kind);
                let mut sharded = eight_cluster_fleet(kind);
                for f in [&mut reference, &mut sharded] {
                    for c in 0..8 {
                        f.queue_remote(
                            FleetNodeId::new(c, 1),
                            FleetNodeId::new((c + 3) % 8, 2),
                            FuId::ZERO,
                            vec![c as u8, 0xAA],
                        )
                        .unwrap();
                    }
                }
                let (mut want, mut got) = (Vec::new(), Vec::new());
                reference.drain(FleetSchedule::Interleaved, &mut |r| want.push(r));
                sharded.drain(FleetSchedule::Sharded { shards }, &mut |r| got.push(r));
                assert_eq!(want, got, "{kind} shards={shards}");
                assert_eq!(
                    reference.gateway().forwarded(),
                    sharded.gateway().forwarded(),
                    "{kind} shards={shards}"
                );
            }
        }
    }

    #[test]
    fn sharded_counters_accumulate_across_drives() {
        let mut fleet = eight_cluster_fleet(EngineKind::Analytic);
        let mut sharded = FleetSchedule::Sharded { shards: 4 }.driver();
        for round in 0..2 {
            fleet
                .queue_remote(
                    FleetNodeId::new(0, 1),
                    FleetNodeId::new(5, 1),
                    FuId::ZERO,
                    vec![round],
                )
                .unwrap();
            let mut n = 0;
            sharded.drive(&mut fleet, &mut |_| n += 1);
            assert_eq!(n, 2, "envelope + forwarded leg");
        }
        assert_eq!(transactions(&sharded), 4);
        // Each drive: envelope epoch + forwarded epoch; the empty
        // terminating epoch is not counted.
        assert_eq!(sharded.epochs, 4);
        sharded.drive(&mut fleet, &mut |_| {});
        assert_eq!(sharded.epochs, 4, "quiescent drive adds no epoch");
        let fairness = sharded.fairness(8).expect("round-robin drains report");
        assert_eq!(fairness.cluster_transactions[0], 2);
        assert_eq!(fairness.cluster_transactions[5], 2);
        assert_eq!(fairness.epochs, 4);
        assert_eq!(fairness.shard_transactions.iter().sum::<u64>(), 4);
        assert_eq!(fairness.shard_wall_nanos.len(), 4);
    }

    #[test]
    fn schedule_enum_drives_sharded() {
        let w = FleetWorkload::cross_storm(5, 2, 2);
        let interleaved = w.run_scheduled_on(EngineKind::Analytic, FleetSchedule::Interleaved);
        let sharded =
            w.run_scheduled_on(EngineKind::Analytic, FleetSchedule::Sharded { shards: 3 });
        assert_eq!(interleaved.signature(), sharded.signature());
        assert_eq!(interleaved.records, sharded.records, "order matches too");
        let fairness = sharded.fairness.as_ref().expect("sharded drains report");
        assert_eq!(
            fairness.cluster_transactions,
            interleaved
                .fairness
                .as_ref()
                .expect("interleaved drains report")
                .cluster_transactions,
            "per-cluster totals are schedule-independent"
        );
        assert!(fairness.max_turn_gap <= 5, "round-robin bounds the gap");
        assert_eq!(fairness.shard_transactions.len(), 3, "per-shard gauges");
    }

    #[test]
    fn more_shards_than_clusters_is_fine() {
        let mut fleet = Fleet::new(EngineKind::Analytic, BusConfig::default());
        let c = fleet.add_cluster();
        let src = fleet.add_sensor(c, false);
        fleet.add_sensor(c, false);
        let to_peer = Address::short(ShortPrefix::new(0x3).unwrap(), FuId::ZERO);
        fleet.queue(src, Message::new(to_peer, vec![1])).unwrap();
        let mut records = 0;
        fleet.drain(FleetSchedule::Sharded { shards: 64 }, &mut |_| records += 1);
        assert_eq!(records, 1);

        // Degenerate inputs: zero shards clamp to one, empty fleets
        // terminate immediately.
        let mut empty = Fleet::new(EngineKind::Analytic, BusConfig::default());
        empty.drain(FleetSchedule::Sharded { shards: 0 }, &mut |_| {
            panic!("no records")
        });
    }

    #[test]
    fn single_shard_schedules_start_no_thread() {
        // Batched and Interleaved are the one-shard case: shard 0 runs
        // on the driver thread and the pool stays empty. Two shards is
        // the control — it must spawn exactly one worker.
        for (schedule, threads) in [
            (FleetSchedule::Batched, 0),
            (FleetSchedule::Interleaved, 0),
            (FleetSchedule::Sharded { shards: 1 }, 0),
            (FleetSchedule::Sharded { shards: 2 }, 1),
        ] {
            let mut fleet = eight_cluster_fleet(EngineKind::Analytic);
            fleet
                .queue_remote(
                    FleetNodeId::new(0, 1),
                    FleetNodeId::new(7, 2),
                    FuId::ZERO,
                    vec![1],
                )
                .unwrap();
            let mut driver = schedule.driver();
            let mut n = 0;
            driver.drive(&mut fleet, &mut |_| n += 1);
            assert_eq!(n, 2, "{schedule}");
            assert_eq!(driver.pool.workers(), threads, "{schedule}");
        }
    }

    #[test]
    fn greedy_balance_is_deterministic_and_even() {
        // Unmeasured weights deal out strided; a dominant cluster gets
        // a shard to itself.
        assert_eq!(
            balance_by_weight(&[0, 0, 0, 0, 0, 0], 3),
            vec![vec![0, 3], vec![1, 4], vec![2, 5]]
        );
        assert_eq!(
            balance_by_weight(&[100, 1, 1, 1], 2),
            vec![vec![0], vec![1, 2, 3]],
            "hot cluster isolated"
        );
        // Ties break by index, shards sorted ascending.
        assert_eq!(balance_by_weight(&[5, 5, 5], 2), vec![vec![0, 2], vec![1]]);
    }

    #[test]
    fn hot_cluster_earns_a_dedicated_shard() {
        // Every sensor outside cluster 0 reports to cluster 0, so
        // cluster 0 runs one forwarded leg per envelope the others
        // send. Once those legs are measured, the greedy packer places
        // the hot cluster first and never tops up its shard while two
        // or more other shards stay lighter. Sized down under Miri.
        let (clusters, sensors, rounds) = if cfg!(miri) { (4, 1, 1) } else { (9, 3, 3) };
        let shard_counts: &[usize] = if cfg!(miri) { &[3] } else { &[3, 4] };
        for &shards in shard_counts {
            let mut fleet = Fleet::new(EngineKind::Analytic, BusConfig::default());
            for _ in 0..clusters {
                let c = fleet.add_cluster();
                for _ in 0..sensors {
                    fleet.add_sensor(c, false);
                }
            }
            for round in 0..rounds {
                for c in 1..clusters {
                    for j in 1..=sensors {
                        fleet
                            .queue_remote(
                                FleetNodeId::new(c, j),
                                FleetNodeId::new(0, 1),
                                FuId::ZERO,
                                vec![round, c as u8, j as u8],
                            )
                            .unwrap();
                    }
                }
            }
            let mut driver = FleetSchedule::Sharded { shards }.driver();
            driver.drive(&mut fleet, &mut |_| {});
            let home = driver
                .shard_assignment()
                .iter()
                .find(|members| members.contains(&0))
                .expect("cluster 0 is assigned");
            assert_eq!(home, &vec![0], "shards={shards}: hot cluster isolated");
        }
    }

    #[test]
    fn wire_engines_migrate_across_pool_threads() {
        // The Send-audit's regression test, sized to run un-reduced
        // under Miri: two Rc-based wire engines on a two-shard
        // pool, so every epoch moves each engine's whole
        // object graph onto a worker thread and the rendezvous hands
        // it back — three drives deep, with cross-cluster traffic so
        // the barrier exchanges state between the shards too.
        let mut fleet = Fleet::new(EngineKind::Wire, BusConfig::default());
        for _ in 0..2 {
            let c = fleet.add_cluster();
            fleet.add_sensor(c, false);
            fleet.add_sensor(c, false);
        }
        let mut sharded = FleetSchedule::Sharded { shards: 2 }.driver();
        for round in 0..3u8 {
            for (src, dst) in [(0usize, 1usize), (1, 0)] {
                fleet
                    .queue_remote(
                        FleetNodeId::new(src, 1),
                        FleetNodeId::new(dst, 2),
                        FuId::ZERO,
                        vec![round, src as u8],
                    )
                    .unwrap();
            }
            let mut n = 0;
            sharded.drive(&mut fleet, &mut |_| n += 1);
            assert_eq!(n, 4, "round {round}: two envelopes + two forwarded legs");
        }
        assert_eq!(transactions(&sharded), 12);
    }

    #[test]
    fn assignment_refreshes_on_rebalance_and_resize() {
        let mut sharded = FleetSchedule::Sharded { shards: 2 }.driver();
        let mut fleet = eight_cluster_fleet(EngineKind::Analytic);
        fleet
            .queue_remote(
                FleetNodeId::new(0, 1),
                FleetNodeId::new(4, 1),
                FuId::ZERO,
                vec![1],
            )
            .unwrap();
        sharded.drive(&mut fleet, &mut |_| {});
        let assignment = sharded.shard_assignment().to_vec();
        assert_eq!(assignment.len(), 2);
        let mut all: Vec<usize> = assignment.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..8).collect::<Vec<_>>(), "partition of the fleet");
    }
}
