//! Sharded fleet demo: groups of interleaved buses on worker threads,
//! synchronized at gateway barriers.
//!
//! Four parts:
//!
//! 1. Build a 12-cluster analytic fleet with a cross-cluster ring
//!    of traffic and drain it under [`FleetSchedule::Sharded`] across
//!    4 workers, printing the per-shard transaction split and the
//!    fairness gauges that [`Fleet::drain`] returns.
//! 2. Show the equivalence contract live: the sharded record stream is
//!    bit-identical to the single-threaded interleaved drain — not
//!    just per cluster, the whole fleet-wide order.
//! 3. Run a workload through every [`FleetSchedule`] (batched,
//!    interleaved, sharded at several widths) and verify one shared
//!    [`FleetSignature`](mbus_core::FleetSignature).
//! 4. Watch measured load balancing spread a hot-spot fleet's work
//!    across shards while the stream stays bit-identical.
//!
//! Run with: `cargo run --release --example sharded_fleet`

use mbus_core::fleet::{Fleet, FleetNodeId};
use mbus_core::{BusConfig, EngineKind, FleetSchedule, FleetWorkload, FuId};

fn ring_fleet(clusters: usize) -> Result<(Fleet, Vec<FleetNodeId>), Box<dyn std::error::Error>> {
    let mut fleet = Fleet::new(EngineKind::Analytic, BusConfig::default());
    let mut sensors = Vec::new();
    for _ in 0..clusters {
        let c = fleet.add_cluster();
        sensors.push(fleet.add_sensor(c, false));
    }
    // Every cluster's sensor reports to the next cluster around the
    // ring, so every bus transmits an envelope and receives a
    // forwarded leg.
    for (c, &src) in sensors.iter().enumerate() {
        let dest = sensors[(c + 1) % clusters];
        fleet.queue_remote(src, dest, FuId::ZERO, vec![0xD0 | c as u8])?;
    }
    Ok((fleet, sensors))
}

/// Nine clusters of three sensors, every sensor outside cluster 0
/// reporting to cluster 0: cluster 0 runs one forwarded leg for every
/// envelope the other eight send.
fn hot_fleet() -> Result<Fleet, Box<dyn std::error::Error>> {
    let mut fleet = Fleet::new(EngineKind::Analytic, BusConfig::default());
    for _ in 0..9 {
        let c = fleet.add_cluster();
        for _ in 0..3 {
            fleet.add_sensor(c, false);
        }
    }
    let sink = FleetNodeId::new(0, 1);
    for c in 1..9 {
        for j in 1..=3 {
            fleet.queue_remote(
                FleetNodeId::new(c, j),
                sink,
                FuId::ZERO,
                vec![c as u8, j as u8],
            )?;
        }
    }
    Ok(fleet)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Shard a fleet across worker threads. --------------------
    let clusters = 12;
    let workers = 4;
    let (mut fleet, sensors) = ring_fleet(clusters)?;
    let mut order = Vec::new();
    let fairness = fleet
        .drain(FleetSchedule::Sharded { shards: workers }, &mut |record| {
            order.push(record.cluster)
        })
        .expect("sharded drains report fairness");
    println!(
        "{clusters} buses drained across {workers} workers: {} transactions in {} epochs",
        order.len(),
        fairness.epochs,
    );
    for (s, txns) in fairness.shard_transactions.iter().enumerate() {
        println!("  shard {s}: {txns} transactions");
    }
    println!(
        "  merged fairness: per-cluster txns {:?}, starvation gauge {}, hog {}",
        fairness.cluster_transactions,
        fairness.max_turn_gap,
        fairness.max_cluster_epoch_transactions,
    );
    for &s in &sensors {
        assert_eq!(fleet.take_rx(s).len(), 1, "every ring hop delivered");
    }

    // --- 2. Bit-identical to the single-threaded interleave. --------
    let (mut reference, _) = ring_fleet(clusters)?;
    let mut want = Vec::new();
    reference.drain(FleetSchedule::Interleaved, &mut |r| want.push(r.cluster));
    println!("\nfleet-wide emission order (first 12): {:?}", &order[..12]);
    assert_eq!(want, order, "sharded order == single-threaded round-robin");
    println!("sharded stream identical to the single-threaded interleave: true");

    // --- 3. One signature across every schedule. --------------------
    let w = FleetWorkload::cross_storm(6, 3, 2);
    let reference = w.run_scheduled_on(EngineKind::Analytic, FleetSchedule::Batched);
    for schedule in [
        FleetSchedule::Interleaved,
        FleetSchedule::Sharded { shards: 2 },
        FleetSchedule::Sharded { shards: 5 },
    ] {
        let report = w.run_scheduled_on(EngineKind::Analytic, schedule);
        assert_eq!(reference.signature(), report.signature(), "{schedule}");
        println!("schedule {schedule}: signature identical to batched");
    }

    // --- 4. Measured rebalancing. -----------------------------------
    // Each epoch repartitions the shards on the per-cluster transaction
    // counters so far, so once the forwarded legs land the greedy
    // packer gives the hot cluster a shard of its own.
    let mut want = Vec::new();
    hot_fleet()?.drain(FleetSchedule::Interleaved, &mut |r| want.push(r));
    let mut got = Vec::new();
    let balanced = hot_fleet()?
        .drain(FleetSchedule::Sharded { shards: 3 }, &mut |r| got.push(r))
        .expect("sharded drains report fairness");
    assert_eq!(want, got, "rebalancing never moves a bit");
    println!(
        "\nper-shard transactions after a hot aggregation drive: {:?}",
        balanced.shard_transactions,
    );
    Ok(())
}
