//! Self-test for the delta-debugging trace shrinker: inject a known
//! "divergence" (a marker byte a predicate hunts for), bury it in a
//! noisy workload, and check the shrinker (a) converges to the minimal
//! trace that still trips the predicate, (b) is deterministic across
//! reruns, and (c) produces a `.mbt` file that re-replays the failure
//! from disk alone — the full fuzz-failure workflow without needing a
//! real engine divergence.

mod common;

use mbus_core::fleet::FleetStep;
use mbus_core::scenario::Step;
use mbus_core::trace::{Trace, TraceFile};
use mbus_core::{
    shrink_fleet, shrink_workload, Address, BusConfig, EngineKind, FleetNodeId, FleetReport,
    FleetWorkload, FuId, FullPrefix, Message, NodeSpec, ShortPrefix, TxOutcome, Workload,
};

/// The injected-divergence marker the predicates hunt for.
const MARKER: u8 = 0x5A;

/// "Diverges" iff the analytic run delivers a payload containing the
/// marker byte — a stand-in for a real cross-engine digest mismatch
/// that lets the suite control exactly which steps are load-bearing.
fn workload_diverges(w: &Workload) -> bool {
    w.run_on(EngineKind::Analytic)
        .rx
        .iter()
        .flatten()
        .any(|rx| rx.payload.contains(&MARKER))
}

fn fleet_diverges(w: &FleetWorkload) -> bool {
    w.run_on(EngineKind::Analytic)
        .rx
        .iter()
        .flatten()
        .flatten()
        .any(|rx| rx.payload.contains(&MARKER))
}

fn short(n: u8) -> Address {
    Address::short(ShortPrefix::new(n).expect("prefix"), FuId::ZERO)
}

/// A noisy six-node workload: wakeups, partial drains, and decoy
/// traffic around one marker send whose payload is mostly padding the
/// payload pass can chew off.
fn noisy_workload() -> Workload {
    let mut w = Workload::new("shrinker/noisy", BusConfig::default());
    for i in 0..6u32 {
        w = w.node(
            NodeSpec::new(
                format!("n{i}"),
                FullPrefix::new(0x0400 + i).expect("prefix"),
            )
            .with_short_prefix(ShortPrefix::new((i + 1) as u8).expect("prefix")),
        );
    }
    w.send(1, Message::new(short(2), vec![0x10, 0x11]))
        .wakeup(3)
        .send(2, Message::new(short(3), vec![0x20]).with_priority())
        .drain_partial(1)
        .send(4, Message::new(short(5), vec![0x30, 0x31]))
        // The injected divergence, padded so the payload pass has work.
        .send(5, Message::new(short(1), vec![MARKER, 0x00, 0x00, 0x00]))
        .send(3, Message::new(short(4), vec![0x40]))
        .drain()
        .send(1, Message::new(short(6), vec![0x50]))
        .drain()
}

/// A three-cluster fleet with the marker on one remote leg plus decoy
/// locals, remotes, and wakeups on every cluster.
fn noisy_fleet() -> FleetWorkload {
    FleetWorkload::new("shrinker/noisy_fleet", BusConfig::default())
        .cluster(vec![false, false])
        .cluster(vec![false, true, false])
        .cluster(vec![false])
        .send_local(FleetNodeId::new(0, 1), Message::new(short(2), vec![0x10]))
        .send_remote(
            FleetNodeId::new(2, 1),
            FleetNodeId::new(0, 2),
            FuId::new(1).expect("fu"),
            vec![0x20, 0x21],
        )
        .wakeup(FleetNodeId::new(1, 2))
        // The injected divergence.
        .send_remote(
            FleetNodeId::new(0, 1),
            FleetNodeId::new(1, 1),
            FuId::new(2).expect("fu"),
            vec![MARKER, 0x00],
        )
        .send_local(
            FleetNodeId::new(1, 3),
            Message::new(short(2), vec![0x30]).with_priority(),
        )
        .drain()
}

#[test]
fn shrinker_converges_to_the_minimal_workload() {
    let noisy = noisy_workload();
    assert!(
        workload_diverges(&noisy),
        "marker must trip before shrinking"
    );
    let min = shrink_workload(&noisy, &mut workload_diverges);
    assert!(workload_diverges(&min), "shrinker lost the failure");

    // 1-minimal step list: the marker send alone — even the drain goes,
    // because `Workload::apply` quiesces implicitly at end-of-trace.
    assert_eq!(
        min.steps().len(),
        1,
        "not minimal: {}",
        TraceFile::workload(min.clone()).to_mbt()
    );
    let Step::Queue { msg, .. } = &min.steps()[0] else {
        panic!("surviving step should be the marker send");
    };
    // The payload pass halved the padding away down to the bare marker.
    assert_eq!(msg.payload(), [MARKER]);
    // Unreferenced decoy nodes dropped; only sender + destination left.
    assert_eq!(min.node_specs().len(), 2, "decoy nodes survived");
}

#[test]
fn shrinker_is_stable_across_reruns() {
    let noisy = noisy_workload();
    let first = TraceFile::workload(shrink_workload(&noisy, &mut workload_diverges)).to_mbt();
    let second = TraceFile::workload(shrink_workload(&noisy, &mut workload_diverges)).to_mbt();
    assert_eq!(first, second, "shrinking is not deterministic");

    let fleet = noisy_fleet();
    let first = TraceFile::fleet(shrink_fleet(&fleet, &mut fleet_diverges)).to_mbt();
    let second = TraceFile::fleet(shrink_fleet(&fleet, &mut fleet_diverges)).to_mbt();
    assert_eq!(first, second, "fleet shrinking is not deterministic");
}

#[test]
fn shrinker_converges_to_the_minimal_fleet() {
    let noisy = noisy_fleet();
    assert!(fleet_diverges(&noisy), "marker must trip before shrinking");
    let min = shrink_fleet(&noisy, &mut fleet_diverges);
    assert!(fleet_diverges(&min), "shrinker lost the failure");

    // The marker remote alone (the fleet runner also drains
    // implicitly at end-of-trace, flushing both forwarding legs).
    assert_eq!(
        min.steps().len(),
        1,
        "not minimal: {}",
        TraceFile::fleet(min.clone()).to_mbt()
    );
    let FleetStep::Remote {
        payload, src, dest, ..
    } = &min.steps()[0]
    else {
        panic!("surviving step should be the marker remote");
    };
    assert_eq!(payload, &[MARKER]);
    // Cluster 2 (the decoy sender) is unreferenced and dropped, and
    // the surviving clusters keep only the sensors the remote needs.
    assert_eq!(min.cluster_specs().len(), 2, "decoy cluster survived");
    assert_eq!((src.cluster, dest.cluster), (0, 1));
    // The minimized fleet still honors every engine/schedule contract.
    common::fleet_crosscheck_all_engines(&min);
    for kind in common::fleet_comparable_kinds(&min) {
        let (_, interleaved) = common::schedule_crosscheck(&min, kind);
        common::sharded_crosscheck(&min, kind, &interleaved, 2);
    }
}

/// The acceptance-criterion workflow end to end: a failure is
/// exportable, shrinkable, and re-replayable *from the `.mbt` file
/// alone* — parse the exported minimized trace back from disk and the
/// predicate still trips on what was read.
#[test]
fn minimized_trace_reproduces_from_disk_alone() {
    let min = shrink_workload(&noisy_workload(), &mut workload_diverges);
    let path = std::env::temp_dir().join("mbus_shrinker_selftest.min.mbt");
    std::fs::write(&path, TraceFile::workload(min).with_seed(0).to_mbt()).expect("write repro");

    let reread = TraceFile::parse_file(&path).unwrap_or_else(|e| panic!("{e}"));
    std::fs::remove_file(&path).ok();
    assert_eq!(reread.meta.seed, Some(0));
    let mbus_core::trace::Trace::Workload(w) = &reread.trace else {
        panic!("repro should be a single-bus trace");
    };
    assert!(
        workload_diverges(w),
        "re-parsed minimized trace no longer reproduces the failure"
    );
}

/// A legal fleet the cluster-drop pass once broke: cluster 2 sends
/// non-envelope traffic to cluster 1's gateway presence
/// (`full:0x0001f.0`), which no node on cluster 2 owns. Dropping
/// cluster 0 would renumber the sender to cluster 1 and turn the send
/// into traffic to its *own* forwarding port, which `Fleet::queue`
/// rejects — the shrinker must skip that candidate, not panic on it.
#[test]
fn cluster_drop_never_aims_a_local_send_at_its_own_forwarding_port() {
    let w = FleetWorkload::new("shrinker/port_remap", BusConfig::default())
        .cluster(vec![false])
        .cluster(vec![false])
        .cluster(vec![false])
        .send_local(
            FleetNodeId::new(2, 1),
            Message::new(
                Address::full(FullPrefix::new(0x0001f).expect("prefix"), FuId::ZERO),
                vec![0xAA],
            ),
        );
    let mut no_destination = |w: &FleetWorkload| {
        w.run_on(EngineKind::Analytic)
            .records
            .iter()
            .any(|r| r.record.outcome == TxOutcome::NoDestination)
    };
    assert!(no_destination(&w), "the input must trip the predicate");
    let text = TraceFile::fleet(w.clone()).to_mbt();
    TraceFile::parse_str("input", &text).unwrap_or_else(|e| panic!("{e}\n{text}"));

    let min = shrink_fleet(&w, &mut no_destination);
    assert!(no_destination(&min), "shrinker lost the failure");
    let text = TraceFile::fleet(min).to_mbt();
    let reread = TraceFile::parse_str("min", &text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    let Trace::Fleet(reread) = &reread.trace else {
        panic!("repro should be a fleet trace");
    };
    assert!(no_destination(reread), "re-parsed trace lost the failure");
}

/// 64-bit FNV-1a, for pinning shrinker output as one number.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `shrink_workload` or `shrink_fleet`.
type Shrinker<W> = fn(&W, &mut dyn FnMut(&W) -> bool) -> W;

/// Shrinks one input under `pred` and checks the contract every
/// minimized repro must meet: the predicate still holds, the `.mbt`
/// parses, and the re-parsed trace still trips the predicate. Returns
/// the minimized `.mbt` text.
fn shrink_and_check<W: Clone>(
    input: &W,
    pred: &dyn Fn(&W) -> bool,
    shrink: Shrinker<W>,
    to_file: fn(W) -> TraceFile,
    from_trace: fn(&Trace) -> Option<&W>,
) -> String {
    let min = shrink(input, &mut |w| pred(w));
    assert!(pred(&min), "shrinker lost the failure");
    let text = to_file(min).to_mbt();
    let reread = TraceFile::parse_str("min", &text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    let reread = from_trace(&reread.trace).expect("trace kind survives the round trip");
    assert!(pred(reread), "re-parsed trace lost the failure:\n{text}");
    text
}

fn as_workload(trace: &Trace) -> Option<&Workload> {
    match trace {
        Trace::Workload(w) => Some(w),
        Trace::Fleet(_) => None,
    }
}

fn as_fleet(trace: &Trace) -> Option<&FleetWorkload> {
    match trace {
        Trace::Fleet(w) => Some(w),
        Trace::Workload(_) => None,
    }
}

/// The shrinker over the seeded generators, with predicates that reach
/// every pass: deliveries on a single bus; injected replies (behavior
/// dropping), mesh hops (route dropping) and gateway drops (cluster
/// remap) on fleets. The minimized traces of seeds `0..64` are pinned
/// as one digest, so a refactor of the passes must reproduce them
/// byte for byte.
#[test]
fn seeded_shrinks_hold_their_predicates_and_pin_their_output() {
    let delivered = |w: &Workload| {
        w.run_on(EngineKind::Analytic)
            .records
            .iter()
            .any(|r| !r.delivered_to.is_empty())
    };
    let fleet_preds: [fn(&FleetReport) -> bool; 3] = [
        |r| r.injected_replies > 0,
        |r| r.hop_forwards > 0,
        |r| r.dropped > 0,
    ];
    let mut pinned = String::new();
    let mut fleet_shrinks = 0;
    for seed in 0..common::scaled_seeds(200) {
        let w = Workload::seeded(seed);
        let mut texts = Vec::new();
        if delivered(&w) {
            texts.push(shrink_and_check(
                &w,
                &delivered,
                shrink_workload,
                TraceFile::workload,
                as_workload,
            ));
        }
        let fleet = FleetWorkload::seeded(seed);
        let report = fleet.run_on(EngineKind::Analytic);
        for holds in fleet_preds {
            if holds(&report) {
                let pred = |w: &FleetWorkload| holds(&w.run_on(EngineKind::Analytic));
                texts.push(shrink_and_check(
                    &fleet,
                    &pred,
                    shrink_fleet,
                    TraceFile::fleet,
                    as_fleet,
                ));
                fleet_shrinks += 1;
            }
        }
        if seed < 64 {
            texts.iter().for_each(|t| pinned.push_str(t));
        }
    }
    assert!(fleet_shrinks > 0, "no fleet seed tripped a predicate");
    assert_eq!(
        fnv1a(pinned.as_bytes()),
        0x4662_ea01_9a1f_748d,
        "minimized traces changed:\n{pinned}"
    );
}
