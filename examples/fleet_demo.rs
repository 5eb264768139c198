//! A gateway-bridged fleet in miniature: three sensor clusters, each
//! its own 4-node MBus, exchanging readings through the store-and-
//! forward gateway — population structured the way the ROADMAP's
//! "simulated fleets" direction needs, past what one 14-prefix bus
//! could hold if scaled up.
//!
//! Run with: `cargo run --example fleet_demo`

use mbus_core::fleet::{Fleet, FleetNodeId, FleetSchedule};
use mbus_core::{BusConfig, EngineKind, FuId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut fleet = Fleet::new(EngineKind::Analytic, BusConfig::default());

    // Three clusters; each gets a gateway presence at ring position 0
    // plus three sensors, the last two power-gated.
    let mut sensors: Vec<Vec<FleetNodeId>> = Vec::new();
    for _ in 0..3 {
        let c = fleet.add_cluster();
        sensors.push(vec![
            fleet.add_sensor(c, false), // always-on cluster head
            fleet.add_sensor(c, true),
            fleet.add_sensor(c, true),
        ]);
    }
    println!(
        "fleet: {} clusters, {} nodes, {} routed prefixes",
        fleet.cluster_count(),
        fleet.total_nodes(),
        fleet.gateway().route_count()
    );

    // Every cluster head reports a reading to cluster 0's head — the
    // fleet collector — through the gateway. Cluster 1 also wakes a
    // gated peer locally via its interrupt port.
    let collector = sensors[0][0];
    for (c, cluster_sensors) in sensors.iter().enumerate() {
        let reading = [c as u8, 0x20 + c as u8];
        fleet.queue_remote(cluster_sensors[0], collector, FuId::ZERO, reading.to_vec())?;
    }
    fleet.request_wakeup(sensors[1][2])?;

    let mut records = Vec::new();
    fleet.drain(FleetSchedule::Batched, &mut |r| records.push(r));
    println!(
        "ran {} transactions, gateway forwarded {} envelopes",
        records.len(),
        fleet.gateway().forwarded()
    );
    for r in &records {
        println!(
            "  cluster {} txn {}: {} cycles, winner {:?}",
            r.cluster, r.record.seq, r.record.cycles, r.record.winner
        );
    }

    let inbox = fleet.take_rx(collector);
    println!("collector received {} cross-cluster readings:", inbox.len());
    for m in &inbox {
        println!(
            "  from ring node {} at {}: {:02x?}",
            m.from, m.at, m.payload
        );
    }
    assert_eq!(inbox.len(), 3, "one reading per cluster");
    assert_eq!(fleet.wake_events(sensors[1][2]), 1, "interrupt wake landed");
    Ok(())
}
