//! Sharded-fleet conformance: the multi-threaded sharded drain
//! ([`FleetSchedule::Sharded`]) must be **bit-identical** to the
//! single-threaded interleaved drain — full fleet-wide record stream,
//! per-cluster [`FleetSignature`] content (records, deliveries, wake
//! accounting), and merged gateway counters (forwarded, dropped,
//! per-cluster drop attribution) — for every engine kind and every
//! shard count.
//!
//! The equivalence argument lives in the fleet driver's module docs
//! (`crates/core/src/fleet/shard.rs`): shards issue each cluster the
//! same autonomous-drain call sequence a single round-robin shard
//! would, a cluster's `j`-th transaction of an epoch always lands in
//! round `j`, so the barrier's `(round, cluster)` merge reproduces the
//! round-robin order, and the per-shard gateway counters are sums that
//! merge order-independently. This suite pins all of it over hundreds
//! of seeded fleets (which include unroutable envelopes and mid-epoch
//! partial drains) at shard counts {1, 2, 4, 7} — spanning one-worker
//! degeneration, even splits, ragged splits, and more workers than
//! clusters.
//!
//! [`FleetSchedule::Sharded`]: mbus_core::FleetSchedule::Sharded
//! [`FleetSignature`]: mbus_core::FleetSignature

mod common;

use mbus_core::fleet::{Fleet, FleetNodeId, FleetStep, GatewayNode, GATEWAY_NODE, MAX_CLUSTERS};
use mbus_core::{
    Address, BusConfig, EngineKind, FleetFairness, FleetSchedule, FleetWorkload, FuId, FullPrefix,
    Message, ReceivedMessage, ShortPrefix,
};

/// The acceptance-bar shard counts: degenerate, even, ragged, and
/// larger than most seeded fleets' cluster counts.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

#[test]
fn seeded_fleets_shard_equivalently_over_200_seeds() {
    // The analytic kernel over the full seed battery: for each seed,
    // the single-threaded interleaved drain is the reference and every
    // shard count must reproduce it bit for bit.
    for seed in 0..common::scaled_seeds(200) {
        let w = FleetWorkload::seeded(seed);
        let reference = w.run_scheduled_on(EngineKind::Analytic, FleetSchedule::Interleaved);
        for shards in SHARD_COUNTS {
            common::sharded_crosscheck(&w, EngineKind::Analytic, &reference, shards);
        }
    }
}

#[test]
fn seeded_fleets_shard_equivalently_on_the_wire_engine() {
    // The edge-accurate engine over the same 200-seed battery.
    // Sharded-vs-interleaved is a *same-kind* comparison, so even
    // seeds with partial drains (not wire-comparable across kinds)
    // must agree here: every schedule issues the identical per-cluster
    // call sequence.
    for seed in 0..common::scaled_seeds(200) {
        let w = FleetWorkload::seeded(seed);
        let reference = w.run_scheduled_on(EngineKind::Wire, FleetSchedule::Interleaved);
        for shards in SHARD_COUNTS {
            common::sharded_crosscheck(&w, EngineKind::Wire, &reference, shards);
        }
    }
}

#[test]
fn partial_drains_preserve_schedule_independence() {
    // The satellite pin: batched ≡ interleaved ≡ sharded still holds
    // when the workload stops mid-epoch and queues into part-drained
    // buses (FleetStep::RunRounds) — each cluster runs exactly
    // min(rounds, pending) transactions under every schedule.
    let mut w = FleetWorkload::new("partial/handmade", BusConfig::default())
        .cluster(vec![false, false])
        .cluster(vec![false, false])
        .cluster(vec![false]);
    let dst = FleetNodeId::new(2, 1);
    for c in 0..2 {
        for j in 1..=2 {
            w = w.send_remote(
                FleetNodeId::new(c, j),
                dst,
                FuId::ZERO,
                vec![c as u8, j as u8],
            );
        }
    }
    // Stop after one round, then pile more traffic onto half-drained
    // buses before the full drain.
    w = w.drain_rounds(1);
    for c in 0..2 {
        w = w.send_remote(FleetNodeId::new(c, 1), dst, FuId::ZERO, vec![0xEE, c as u8]);
    }
    assert!(!w.wire_comparable(), "partial drains gate wire cross-kind");

    for kind in EngineKind::ALL {
        let batched = w.run_scheduled_on(kind, FleetSchedule::Batched);
        let interleaved = w.run_scheduled_on(kind, FleetSchedule::Interleaved);
        assert_eq!(batched.signature(), interleaved.signature(), "{kind}");
        for shards in SHARD_COUNTS {
            common::sharded_crosscheck(&w, kind, &interleaved, shards);
        }
    }
}

#[test]
fn sharded_gateway_drops_attribute_to_the_receiving_cluster() {
    // Unroutable envelopes queued on different clusters: the merged
    // per-cluster drop counters must attribute each drop to the bus
    // whose gateway presence received it, identically at every shard
    // count.
    for kind in EngineKind::ALL {
        let mut reports = Vec::new();
        for &shards in &[0usize, 2, 7] {
            let mut fleet = Fleet::new(kind, BusConfig::default());
            for _ in 0..4 {
                let c = fleet.add_cluster();
                fleet.add_sensor(c, false);
            }
            let port = Address::short(ShortPrefix::new(0x1).unwrap(), FuId::ZERO);
            for c in [0usize, 2, 2] {
                let envelope = GatewayNode::encapsulate(
                    FullPrefix::new(0x8BAD0 + c as u32).unwrap(),
                    FuId::ZERO,
                    &[c as u8],
                );
                fleet
                    .queue(FleetNodeId::new(c, 1), Message::new(port, envelope))
                    .unwrap();
            }
            let schedule = if shards == 0 {
                FleetSchedule::Interleaved
            } else {
                FleetSchedule::Sharded { shards }
            };
            fleet.drain(schedule, &mut |_| {});
            reports.push((
                fleet.gateway().forwarded(),
                fleet.gateway().dropped(),
                (0..4)
                    .map(|c| fleet.gateway().dropped_on(c))
                    .collect::<Vec<_>>(),
            ));
        }
        for r in &reports[1..] {
            assert_eq!(&reports[0], r, "{kind}");
        }
        assert_eq!(reports[0].1, 3, "{kind}: all three envelopes dropped");
        assert_eq!(
            reports[0].2,
            vec![1, 0, 2, 0],
            "{kind}: attributed per cluster"
        );
    }
}

#[test]
fn wide_fleet_shards_with_ragged_and_oversized_counts() {
    // 32 clusters / 96 nodes: even splits, ragged splits (5 workers x
    // 7-cluster chunks), and more workers than clusters all reproduce
    // the single-threaded stream.
    let w = FleetWorkload::sense_and_aggregate(32, 2, 2);
    let reference = w.run_scheduled_on(EngineKind::Analytic, FleetSchedule::Interleaved);
    assert!(reference.total_nodes() > 90);
    for shards in [2usize, 5, 8, 32, 64] {
        common::sharded_crosscheck(&w, EngineKind::Analytic, &reference, shards);
    }
}

#[test]
fn sharded_fairness_counters_are_consistent() {
    // The fairness report: per-cluster transaction totals must equal
    // the record stream's per-cluster counts (schedule-independent),
    // and the round-robin starvation gauge is bounded by the widest
    // shard's simultaneously active cluster count.
    let w = FleetWorkload::cross_storm(6, 2, 3);
    for shards in [1usize, 3] {
        let report = w.run_scheduled_on(EngineKind::Analytic, FleetSchedule::Sharded { shards });
        let fairness = report.fairness.as_ref().expect("sharded drains report");
        for c in 0..6 {
            let counted = report.records.iter().filter(|r| r.cluster == c).count() as u64;
            assert_eq!(
                fairness.cluster_transactions[c], counted,
                "shards={shards} cluster {c}"
            );
        }
        let widest_shard = 6usize.div_ceil(shards) as u64;
        assert!(
            fairness.max_turn_gap < widest_shard,
            "shards={shards}: gap {} vs shard width {widest_shard}",
            fairness.max_turn_gap
        );
        assert!(fairness.epochs > 0, "shards={shards}");
        assert!(
            fairness.max_cluster_epoch_transactions >= 1,
            "shards={shards}"
        );
    }
}

#[test]
fn rebalance_schedules_produce_identical_merged_streams() {
    // The rebalancing axis: shards are repartitioned by measured load
    // every epoch, and the merged stream and signature stay identical
    // on every engine kind and shard count, including more shards than
    // clusters.
    let w = FleetWorkload::cross_storm(7, 2, 2);
    for kind in EngineKind::ALL {
        let reference = w.run_scheduled_on(kind, FleetSchedule::Interleaved);
        for shards in [2usize, 4, 7, 13] {
            let report = w.run_scheduled_on(kind, FleetSchedule::Sharded { shards });
            assert_eq!(reference.records, report.records, "{kind} shards={shards}");
            assert_eq!(
                reference.signature(),
                report.signature(),
                "{kind} shards={shards}"
            );
        }
    }
}

/// Nine clusters of three sensors; every sensor outside cluster 0
/// sends three readings to cluster 0, so cluster 0 runs one forwarded
/// leg for every envelope the other eight send.
fn hot_spot_fleet() -> Fleet {
    let mut fleet = Fleet::new(EngineKind::Analytic, BusConfig::default());
    for _ in 0..9 {
        let c = fleet.add_cluster();
        for _ in 0..3 {
            fleet.add_sensor(c, false);
        }
    }
    for round in 0..3u8 {
        for c in 1..9 {
            for j in 1..=3 {
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
    fleet
}

#[test]
fn hot_cluster_earns_a_dedicated_shard() {
    // Measured balancing must keep the stream bit-identical while it
    // moves the hot cluster around (its isolation at >= 3 shards is
    // pinned by the driver's unit tests), and the per-shard gauges
    // must cover every transaction.
    let mut want = Vec::new();
    let reference = hot_spot_fleet()
        .drain(FleetSchedule::Interleaved, &mut |r| want.push(r))
        .expect("interleaved drains report");
    let weights = &reference.cluster_transactions;
    assert!(
        weights[1..].iter().all(|&w| weights[0] > 3 * w),
        "cluster 0 is the clear hot spot: {weights:?}"
    );
    for shards in [2usize, 3, 4] {
        let mut got = Vec::new();
        let fairness = hot_spot_fleet()
            .drain(FleetSchedule::Sharded { shards }, &mut |r| got.push(r))
            .expect("sharded drains report");
        assert_eq!(want, got, "shards={shards}");
        assert_eq!(fairness.shard_transactions.len(), shards);
        assert_eq!(
            fairness.shard_transactions.iter().sum::<u64>(),
            got.len() as u64,
            "per-shard gauges cover every transaction"
        );
    }
}

#[test]
fn sharded_scheduler_reuse_reports_per_shard() {
    // One driver across two drain steps: totals accumulate, and the
    // per-shard counters expose each shard's slice of the work.
    let mut w = FleetWorkload::new("reuse", BusConfig::default());
    for _ in 0..6 {
        w = w.cluster(vec![false]);
    }
    for round in 0..2u8 {
        for c in 0..6 {
            w = w.send_remote(
                FleetNodeId::new(c, 1),
                FleetNodeId::new((c + 1) % 6, 1),
                FuId::ZERO,
                vec![round, c as u8],
            );
        }
        w = w.drain();
    }
    let report = w.run_scheduled_on(EngineKind::Analytic, FleetSchedule::Sharded { shards: 3 });
    // 6 envelope legs + 6 forwarded legs per drive.
    assert_eq!(report.transactions(), 24);
    let fairness = report.fairness.as_ref().expect("sharded drains report");
    assert_eq!(
        fairness.shard_transactions,
        vec![8, 8, 8],
        "two clusters per shard"
    );
    // Every sensor got its neighbor's messages; the gateway rx logs
    // stayed clean.
    for c in 0..6 {
        assert_eq!(report.rx[c][1].len(), 2);
        assert!(report.rx[c][GATEWAY_NODE].is_empty());
    }
}

/// A fairness report with the non-deterministic wall-time gauge
/// reduced to its length.
fn deterministic(mut fairness: FleetFairness) -> (FleetFairness, usize) {
    let shards = fairness.shard_wall_nanos.len();
    fairness.shard_wall_nanos.clear();
    (fairness, shards)
}

#[test]
fn drain_returns_the_report_fairness() {
    // `Fleet::drain` hands back the same fairness `FleetReport`
    // carries for the same traffic: `None` batched, one shard
    // interleaved, `n` shards sharded.
    let mut w = FleetWorkload::new("fairness", BusConfig::default());
    for _ in 0..5 {
        w = w.cluster(vec![false, false]);
    }
    for c in 0..5 {
        for j in 1..=2 {
            w = w.send_remote(
                FleetNodeId::new(c, j),
                FleetNodeId::new((c + j) % 5, 1),
                FuId::ZERO,
                vec![c as u8, j as u8],
            );
        }
    }
    for (schedule, shards) in [
        (FleetSchedule::Batched, None),
        (FleetSchedule::Interleaved, Some(1)),
        (FleetSchedule::Sharded { shards: 3 }, Some(3)),
    ] {
        let report = w.run_scheduled_on(EngineKind::Analytic, schedule);
        let mut fleet = w.instantiate(EngineKind::Analytic);
        for step in w.steps() {
            if let FleetStep::Remote {
                src,
                dest,
                fu,
                payload,
                ..
            } = step
            {
                fleet
                    .queue_remote(*src, *dest, *fu, payload.clone())
                    .unwrap();
            }
        }
        let mut records = Vec::new();
        let drained = fleet.drain(schedule, &mut |r| records.push(r));
        assert_eq!(records, report.records, "{schedule}");
        let drained = drained.map(deterministic);
        assert_eq!(drained, report.fairness.map(deterministic), "{schedule}");
        assert_eq!(drained.map(|(_, n)| n), shards, "{schedule}");
    }
}

#[test]
fn last_cluster_prefix_block_routes_both_ways() {
    // A fleet of exactly MAX_CLUSTERS buses puts its last cluster on
    // prefix block 0xFFFF. One sensor on the first and one on the last
    // cluster message each other across the whole prefix space, and
    // the sharded drain must match the interleaved one.
    let build = || {
        let mut fleet = Fleet::new(EngineKind::Analytic, BusConfig::default());
        for _ in 0..MAX_CLUSTERS {
            fleet.add_cluster();
        }
        let first = fleet.add_sensor(0, false);
        let last = fleet.add_sensor(MAX_CLUSTERS - 1, false);
        fleet
            .queue_remote(first, last, FuId::ZERO, vec![0x01])
            .unwrap();
        fleet
            .queue_remote(last, first, FuId::ZERO, vec![0xFF])
            .unwrap();
        (fleet, first, last)
    };
    let mut streams = Vec::new();
    for schedule in [
        FleetSchedule::Interleaved,
        FleetSchedule::Sharded { shards: 2 },
    ] {
        let (mut fleet, first, last) = build();
        let mut records = Vec::new();
        fleet.drain(schedule, &mut |r| records.push(r));
        assert_eq!(fleet.gateway().forwarded(), 2, "{schedule}");
        let payloads = |rx: Vec<ReceivedMessage>| -> Vec<Vec<u8>> {
            rx.into_iter().map(|m| m.payload).collect()
        };
        assert_eq!(payloads(fleet.take_rx(first)), [[0xFF]], "{schedule}");
        assert_eq!(payloads(fleet.take_rx(last)), [[0x01]], "{schedule}");
        streams.push(records);
    }
    assert_eq!(streams[0], streams[1]);
}
