//! The three benchmark workloads and one replay of each: set-up (parse
//! where the input is `.mbt` text, then instantiate), drain (the
//! `apply_*` call only), and verify (signature, digest, and comparison
//! against the pin or the other engine).
//!
//! Teardown (dropping fleets, engines and reports) happens after the
//! verify span closes and is not timed.

use std::borrow::Cow;

use mbus_core::engine::BusEngine;
use mbus_core::fleet::FleetStep;
use mbus_core::trace::{fleet_digest, scenario_digest, Trace, TraceFile};
use mbus_core::{
    EngineKind, Fleet, FleetReport, FleetSchedule, FleetWorkload, ScenarioReport, Workload,
};

use crate::spans::Tracer;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["fleet-open", "fleet-reply-mesh", "seeded-battery"];

/// `fleet-open`: `sense_and_aggregate(clusters, sensors, rounds)`.
pub const OPEN_SHAPE: (usize, usize, usize) = (8192, 3, 1);
/// `fleet-reply-mesh`: `duty_cycle_day(clusters, rounds)`.
pub const MESH_SHAPE: (usize, usize) = (8192, 4);
/// `seeded-battery`: single-bus and fleet seeds per replay. Replay `i`
/// of a run takes seeds `seed + i·BATTERY_SEEDS ..`, so a run covers
/// thousands of seeds and its medians do not hang on which hundred
/// `--seed` happens to pick (per-seed costs are heavy-tailed).
pub const BATTERY_SEEDS: u64 = 100;
/// Clusters of the down-scaled same-shape fleet the wire-engine probe
/// drains for the fleet workloads (wire runs ≈100× slower than
/// analytic, too slow for the full 8192-bus fleets).
pub const WIRE_TWIN_CLUSTERS: usize = 64;

/// The schedules the traced run drains every probed fleet under, with
/// their metric suffixes.
pub const SCHEDULES: [(&str, FleetSchedule); 4] = [
    ("batched", FleetSchedule::Batched),
    ("interleaved", FleetSchedule::Interleaved),
    ("sharded1", FleetSchedule::Sharded { shards: 1 }),
    ("sharded2", FleetSchedule::Sharded { shards: 2 }),
];

/// Pinned digests and seeds, from `pins.txt`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pins {
    /// `fleet_digest` of the `fleet-open` replay.
    pub fleet_open: u64,
    /// `fleet_digest` of the `fleet-reply-mesh` replay.
    pub fleet_reply_mesh: u64,
    /// Seed used when `--seed` is absent.
    pub default_seed: u64,
    /// Seed kept out of tuning, for confirming a claim.
    pub held_out_seed: u64,
}

impl Pins {
    /// Parses `key value` lines; `#` starts a comment. Digests are hex
    /// with a `0x` prefix, seeds decimal.
    pub fn parse(text: &str) -> Result<Pins, String> {
        let (mut open, mut mesh, mut seed, mut held) = (None, None, None, None);
        for (no, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let bad = || format!("pins.txt:{}: cannot read `{line}`", no + 1);
            let (key, value) = line.split_once(char::is_whitespace).ok_or_else(bad)?;
            let value = value.trim();
            let hex = || {
                value
                    .strip_prefix("0x")
                    .and_then(|h| u64::from_str_radix(h, 16).ok())
                    .ok_or_else(bad)
            };
            match key {
                "fleet-open" => open = Some(hex()?),
                "fleet-reply-mesh" => mesh = Some(hex()?),
                "default-seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "held-out-seed" => held = Some(value.parse().map_err(|_| bad())?),
                _ => return Err(bad()),
            }
        }
        let need = |v: Option<u64>, key: &str| v.ok_or(format!("pins.txt: missing `{key}`"));
        Ok(Pins {
            fleet_open: need(open, "fleet-open")?,
            fleet_reply_mesh: need(mesh, "fleet-reply-mesh")?,
            default_seed: need(seed, "default-seed")?,
            held_out_seed: need(held, "held-out-seed")?,
        })
    }
}

/// The pins this benchmark was built with.
pub fn pins() -> Pins {
    Pins::parse(include_str!("../pins.txt")).expect("pins.txt is well-formed")
}

/// What a replay starts from.
#[derive(Debug)]
pub enum Source {
    /// A fleet built in memory (no parse).
    Fleet(FleetWorkload),
    /// One `.mbt` fleet trace.
    Mbt(String),
    /// `count` seeded single-bus and fleet workloads per replay, from a
    /// window of the seed stream starting at `seed` that moves on with
    /// every replay. Each is serialized to `.mbt` before the replay
    /// starts, then replayed on analytic and, where wire-comparable,
    /// on wire, with the digests compared across engines.
    Battery {
        /// First seed of the stream.
        seed: u64,
        /// Seeds per replay.
        count: u64,
    },
}

/// One workload's generated inputs.
#[derive(Debug)]
pub struct Input {
    /// The workload name.
    pub name: &'static str,
    /// The replay input.
    pub source: Source,
    /// The digest every replay must reproduce (`None`: the battery,
    /// checked engine against engine).
    pub pin: Option<u64>,
    /// The schedule replays drain under.
    pub schedule: FleetSchedule,
    /// The fleets the traced run's layer probes drain: the workload's
    /// own fleet, or the battery's fleet members.
    pub fleets: Vec<FleetWorkload>,
    /// A matched-population open-loop `cross_storm` twin per fleet.
    pub twins: Vec<FleetWorkload>,
    /// A down-scaled fleet of the same shape for the wire-engine probe
    /// (`None` for the battery, whose replays run wire themselves).
    pub wire_twin: Option<FleetWorkload>,
}

/// The battery's `.mbt` inputs for `count` seeds from `first`:
/// `Workload::seeded` then `FleetWorkload::seeded`, per seed.
pub fn battery_texts(first: u64, count: u64, t: &mut Tracer) -> Vec<String> {
    let mut texts = Vec::new();
    for s in (0..count).map(|i| first.wrapping_add(i)) {
        for tf in [
            TraceFile::workload(Workload::seeded(s)),
            TraceFile::fleet(FleetWorkload::seeded(s)),
        ] {
            texts.push(t.time("trace.to_mbt", |_| tf.to_mbt()).0);
        }
    }
    texts
}

/// The open-loop twin of a fleet: a `cross_storm` with the same
/// cluster count (at least 2), its largest cluster's sensor count, and
/// `rounds` rounds.
fn twin(w: &FleetWorkload, rounds: usize) -> FleetWorkload {
    let sensors = w.cluster_specs().iter().map(Vec::len).max().unwrap_or(1);
    FleetWorkload::cross_storm(w.cluster_specs().len().max(2), sensors.max(1), rounds)
}

/// Parses a fleet trace; a single-bus trace here is a bug in the
/// benchmark's own input generation.
fn parse_fleet(text: &str) -> FleetWorkload {
    match TraceFile::parse_str("input.mbt", text).map(|tf| tf.trace) {
        Ok(Trace::Fleet(w)) => w,
        other => panic!("generated fleet trace did not parse as a fleet: {other:?}"),
    }
}

/// Generates `name`'s inputs from `seed`; `None` for an unknown name.
/// The two fleet workloads are fixed shapes (their digests are pinned);
/// the seed drives the battery.
pub fn build(name: &str, seed: u64, pins: &Pins, t: &mut Tracer) -> Option<Input> {
    let input = match name {
        "fleet-open" => {
            let (c, s, r) = OPEN_SHAPE;
            let w = FleetWorkload::sense_and_aggregate(c, s, r);
            Input {
                name: "fleet-open",
                pin: Some(pins.fleet_open),
                schedule: FleetSchedule::Sharded { shards: 2 },
                twins: vec![twin(&w, r)],
                wire_twin: Some(FleetWorkload::sense_and_aggregate(WIRE_TWIN_CLUSTERS, s, r)),
                fleets: vec![w.clone()],
                source: Source::Fleet(w),
            }
        }
        "fleet-reply-mesh" => {
            let (c, r) = MESH_SHAPE;
            let tf = TraceFile::fleet(FleetWorkload::duty_cycle_day(c, r));
            let text = t.time("trace.to_mbt", |_| tf.to_mbt()).0;
            let w = parse_fleet(&text);
            Input {
                name: "fleet-reply-mesh",
                pin: Some(pins.fleet_reply_mesh),
                schedule: FleetSchedule::Interleaved,
                twins: vec![twin(&w, r)],
                wire_twin: Some(FleetWorkload::duty_cycle_day(WIRE_TWIN_CLUSTERS, r)),
                fleets: vec![w],
                source: Source::Mbt(text),
            }
        }
        "seeded-battery" => {
            // The probes drain the fleets of seed window 0; replays
            // start at window 1 (see `replay`).
            let texts = battery_texts(seed, BATTERY_SEEDS, t);
            let fleets: Vec<FleetWorkload> = texts
                .iter()
                .skip(1)
                .step_by(2)
                .map(|s| parse_fleet(s))
                .collect();
            Input {
                name: "seeded-battery",
                pin: None,
                schedule: FleetSchedule::Batched,
                twins: fleets.iter().map(|w| twin(w, 1)).collect(),
                wire_twin: None,
                fleets,
                source: Source::Battery {
                    seed,
                    count: BATTERY_SEEDS,
                },
            }
        }
        _ => return None,
    };
    Some(input)
}

/// Fleet-layer counters summed over the analytic fleet reports of a
/// replay or probe (fairness fields only from scheduled drains).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FleetCounts {
    /// Clusters instantiated.
    pub clusters: u64,
    /// Ring positions, gateway presences included.
    pub nodes: u64,
    /// Fleet transactions.
    pub transactions: u64,
    /// Simulated bus cycles.
    pub sim_cycles: u64,
    /// Envelopes forwarded.
    pub forwarded: u64,
    /// Inter-gateway mesh hops.
    pub hop_forwards: u64,
    /// Envelopes dropped.
    pub dropped: u64,
    /// TTL-exhaustion drops.
    pub ttl_drops: u64,
    /// Reply messages behaviors injected.
    pub injected_replies: u64,
    /// Reply-injection rounds.
    pub reply_rounds: u64,
    /// Messages the workload steps queue (replies excluded).
    pub sent: u64,
    /// Scheduler epochs.
    pub epochs: u64,
    /// Largest turn gap.
    pub max_turn_gap: u64,
    /// Transactions per shard.
    pub shard_txn: Vec<u64>,
    /// Wall nanoseconds per shard.
    pub shard_wall_nanos: Vec<u64>,
}

fn add_per_shard(into: &mut Vec<u64>, from: &[u64]) {
    if into.len() < from.len() {
        into.resize(from.len(), 0);
    }
    for (a, b) in into.iter_mut().zip(from) {
        *a += b;
    }
}

impl FleetCounts {
    /// Adds one fleet report of workload `w`.
    pub fn add(&mut self, w: &FleetWorkload, report: &FleetReport) {
        self.clusters += report.rx.len() as u64;
        self.nodes += report.total_nodes() as u64;
        self.transactions += report.transactions() as u64;
        self.sim_cycles += report.total_cycles();
        self.forwarded += report.forwarded;
        self.hop_forwards += report.hop_forwards;
        self.dropped += report.dropped;
        self.ttl_drops += report.ttl_drops.iter().sum::<u64>();
        self.injected_replies += report.injected_replies;
        self.reply_rounds += report.reply_rounds;
        self.sent += w
            .steps()
            .iter()
            .filter(|s| matches!(s, FleetStep::Local { .. } | FleetStep::Remote { .. }))
            .count() as u64;
        if let Some(f) = &report.fairness {
            self.epochs += f.epochs;
            self.max_turn_gap = self.max_turn_gap.max(f.max_turn_gap);
            add_per_shard(&mut self.shard_txn, &f.shard_transactions);
            add_per_shard(&mut self.shard_wall_nanos, &f.shard_wall_nanos);
        }
    }
}

/// Phase timings and counts from one replay (summed over a battery's
/// cases). Per-call timings come from the tracer's spans instead.
#[derive(Clone, Debug, Default)]
pub struct Replay {
    /// Every digest matched its pin or the other engine.
    pub ok: bool,
    /// Parse plus instantiate.
    pub setup_s: f64,
    /// The `apply*` calls.
    pub drain_s: f64,
    /// Signatures, digests and comparisons.
    pub verify_s: f64,
    /// Bytes of `.mbt` text parsed.
    pub parse_bytes: u64,
    /// Transactions the analytic engine ran.
    pub analytic_txn: u64,
    /// Transactions the wire engine ran.
    pub wire_txn: u64,
    /// Simulated bus cycles over all drains.
    pub sim_cycles: u64,
}

impl Replay {
    /// Set-up plus drain plus verify.
    pub fn replay_s(&self) -> f64 {
        self.setup_s + self.drain_s + self.verify_s
    }

    /// Transactions over all drains (also the records the signatures
    /// scan).
    pub fn transactions(&self) -> u64 {
        self.analytic_txn + self.wire_txn
    }

    fn count_drain(&mut self, kind: EngineKind, txn: u64, cycles: u64) {
        if kind == EngineKind::Wire {
            self.wire_txn += txn;
        } else {
            self.analytic_txn += txn;
        }
        self.sim_cycles += cycles;
    }
}

/// The single-bus and fleet sides of one replay, behind one interface.
trait Replayable {
    type Engine;
    type Report;
    const INSTANTIATE: &'static str;
    const DIGEST: &'static str;
    fn wire_comparable(&self) -> bool;
    fn instantiate(&self, kind: EngineKind) -> Self::Engine;
    fn apply_span(kind: EngineKind) -> &'static str;
    fn apply(&self, engine: &mut Self::Engine, schedule: FleetSchedule) -> Self::Report;
    /// `(transactions, simulated cycles)` of a report.
    fn totals(report: &Self::Report) -> (u64, u64);
    /// `signature()` then its digest, each timed as a span.
    fn digest(report: &Self::Report, t: &mut Tracer) -> u64;
}

impl Replayable for Workload {
    type Engine = Box<dyn BusEngine>;
    type Report = ScenarioReport;
    const INSTANTIATE: &'static str = "scenario.instantiate";
    const DIGEST: &'static str = "trace.scenario_digest";

    fn wire_comparable(&self) -> bool {
        Workload::wire_comparable(self)
    }
    fn instantiate(&self, kind: EngineKind) -> Self::Engine {
        Workload::instantiate(self, kind)
    }
    fn apply_span(kind: EngineKind) -> &'static str {
        match kind {
            EngineKind::Wire => "scenario.apply.wire",
            _ => "scenario.apply.analytic",
        }
    }
    fn apply(&self, engine: &mut Self::Engine, _: FleetSchedule) -> ScenarioReport {
        Workload::apply(self, engine.as_mut())
    }
    fn totals(report: &ScenarioReport) -> (u64, u64) {
        (report.records.len() as u64, report.total_cycles())
    }
    fn digest(report: &ScenarioReport, t: &mut Tracer) -> u64 {
        let sig = t.time("report.signature", |_| report.signature()).0;
        t.time(Self::DIGEST, |_| scenario_digest(&sig)).0
    }
}

impl Replayable for FleetWorkload {
    type Engine = Fleet;
    type Report = FleetReport;
    const INSTANTIATE: &'static str = "fleet.instantiate";
    const DIGEST: &'static str = "trace.fleet_digest";

    fn wire_comparable(&self) -> bool {
        FleetWorkload::wire_comparable(self)
    }
    fn instantiate(&self, kind: EngineKind) -> Fleet {
        FleetWorkload::instantiate(self, kind)
    }
    fn apply_span(kind: EngineKind) -> &'static str {
        match kind {
            EngineKind::Wire => "fleet.apply.wire",
            _ => "fleet.apply.analytic",
        }
    }
    fn apply(&self, fleet: &mut Fleet, schedule: FleetSchedule) -> FleetReport {
        self.apply_scheduled(fleet, schedule)
    }
    fn totals(report: &FleetReport) -> (u64, u64) {
        (report.transactions() as u64, report.total_cycles())
    }
    fn digest(report: &FleetReport, t: &mut Tracer) -> u64 {
        let sig = t.time("report.signature", |_| report.signature()).0;
        t.time(Self::DIGEST, |_| fleet_digest(&sig)).0
    }
}

/// A replay's workload and engines, ready to drain.
enum Ready<'a> {
    Bus(Workload, Vec<(EngineKind, Box<dyn BusEngine>)>),
    Fleet(Cow<'a, FleetWorkload>, Vec<(EngineKind, Fleet)>),
}

fn instantiate_all<W: Replayable>(
    w: &W,
    wire: bool,
    t: &mut Tracer,
) -> Vec<(EngineKind, W::Engine)> {
    let mut kinds = vec![EngineKind::Analytic];
    if wire && w.wire_comparable() {
        kinds.push(EngineKind::Wire);
    }
    kinds
        .into_iter()
        .map(|kind| (kind, t.time(W::INSTANTIATE, |_| w.instantiate(kind)).0))
        .collect()
}

#[derive(Clone, Copy)]
enum Src<'a> {
    Built(&'a FleetWorkload),
    Text(&'a str),
}

/// Parses (for text input) and instantiates one case.
fn setup<'a>(src: Src<'a>, wire: bool, r: &mut Replay, t: &mut Tracer) -> Ready<'a> {
    let text = match src {
        Src::Built(w) => return Ready::Fleet(Cow::Borrowed(w), instantiate_all(w, wire, t)),
        Src::Text(text) => text,
    };
    r.parse_bytes += text.len() as u64;
    let parsed = t
        .time("trace.parse_str", |_| {
            TraceFile::parse_str("input.mbt", text)
        })
        .0;
    match parsed
        .unwrap_or_else(|e| panic!("generated trace failed to parse: {e}"))
        .trace
    {
        Trace::Workload(w) => {
            let engines = instantiate_all(&w, wire, t);
            Ready::Bus(w, engines)
        }
        Trace::Fleet(w) => {
            let engines = instantiate_all(&w, wire, t);
            Ready::Fleet(Cow::Owned(w), engines)
        }
    }
}

/// Drains every engine, then digests every report and checks they agree
/// with each other and with `pin`. Returns whether they did.
fn drain_and_verify<W: Replayable>(
    w: &W,
    engines: &mut [(EngineKind, W::Engine)],
    schedule: FleetSchedule,
    pin: Option<u64>,
    r: &mut Replay,
    t: &mut Tracer,
) -> bool {
    let (reports, drain) = t.time("drain", |t| {
        engines
            .iter_mut()
            .map(|(kind, engine)| {
                let report = t
                    .time(W::apply_span(*kind), |_| w.apply(engine, schedule))
                    .0;
                (*kind, report)
            })
            .collect::<Vec<_>>()
    });
    r.drain_s += drain;
    for (kind, report) in &reports {
        let (txn, cycles) = W::totals(report);
        r.count_drain(*kind, txn, cycles);
    }
    let (ok, verify) = t.time("verify", |t| {
        let digests: Vec<u64> = reports.iter().map(|(_, rep)| W::digest(rep, t)).collect();
        let agree = digests.windows(2).all(|p| p[0] == p[1]);
        let pinned = pin.is_none_or(|p| p == digests[0]);
        if !(agree && pinned) {
            eprintln!("verify failed: digests {digests:016x?}, pin {pin:016x?}");
        }
        agree && pinned
    });
    r.verify_s += verify;
    ok
}

/// One case: set-up, drain and verify, summed into `r`.
fn case(src: Src<'_>, wire: bool, input: &Input, r: &mut Replay, t: &mut Tracer) -> bool {
    let (ready, setup_s) = t.time("setup", |t| setup(src, wire, r, t));
    r.setup_s += setup_s;
    match ready {
        Ready::Bus(w, mut e) => drain_and_verify(&w, &mut e, input.schedule, input.pin, r, t),
        Ready::Fleet(w, mut e) => {
            drain_and_verify(w.as_ref(), &mut e, input.schedule, input.pin, r, t)
        }
    }
}

/// Replay number `index` of `input`, timed into a [`Replay`]. The
/// battery first generates its inputs for seed window `index`, untimed.
pub fn replay(input: &Input, index: u64, t: &mut Tracer) -> Replay {
    let texts = match input.source {
        Source::Battery { seed, count } => {
            battery_texts(seed.wrapping_add(index.wrapping_mul(count)), count, t)
        }
        _ => Vec::new(),
    };
    let mut r = Replay::default();
    let (ok, _) = t.time("replay", |t| match &input.source {
        Source::Fleet(w) => case(Src::Built(w), false, input, &mut r, t),
        Source::Mbt(text) => case(Src::Text(text), false, input, &mut r, t),
        Source::Battery { .. } => texts.iter().fold(true, |ok, text| {
            case(Src::Text(text), true, input, &mut r, t) & ok
        }),
    });
    r.ok = ok;
    r
}

/// Counts from the traced run's layer probes; their timings are spans
/// (`probe.*`, and `trace.parse_str` for a workload that parses
/// nothing itself).
#[derive(Clone, Debug, Default)]
pub struct Probe {
    /// Fleet counters of each schedule's drains (in [`SCHEDULES`]
    /// order), from the first round.
    pub counts: [FleetCounts; 4],
    /// The `sharded2` counters of every round, with the round's span
    /// iteration.
    pub sharded2: Vec<(u64, FleetCounts)>,
    /// Transactions of the wire twin on analytic and on wire.
    pub wire_twin_txn: [u64; 2],
    /// Bytes of the fleet serialized to `.mbt` for the parse probe.
    pub parse_bytes: u64,
    /// Every schedule reproduced the pin (the battery: the batched
    /// digests) and repeated its counters in every round, and both
    /// engines agreed on the wire twin's digest.
    pub ok: bool,
}

/// Rounds of each probe; the schedule order alternates between rounds.
pub const PROBE_ROUNDS: u64 = 3;

/// Span names of the schedule probes, in [`SCHEDULES`] order.
pub const PROBE_DRAINS: [&str; 4] = [
    "probe.drain.batched",
    "probe.drain.interleaved",
    "probe.drain.sharded1",
    "probe.drain.sharded2",
];

/// Drains each fleet under `schedule` in a span named `name`, summing
/// their counters; with `digests`, also returns each report's
/// `fleet_digest` (computed outside the span).
fn drain_fleets(
    fleets: &[FleetWorkload],
    kind: EngineKind,
    schedule: FleetSchedule,
    name: &'static str,
    digests: bool,
    t: &mut Tracer,
) -> (FleetCounts, Vec<u64>) {
    let mut counts = FleetCounts::default();
    let mut out = Vec::new();
    for w in fleets {
        let mut fleet = w.instantiate(kind);
        let report = t.time(name, |_| w.apply_scheduled(&mut fleet, schedule)).0;
        counts.add(w, &report);
        if digests {
            out.push(fleet_digest(&report.signature()));
        }
    }
    (counts, out)
}

/// Whether two drains of one workload agree on their deterministic
/// counters (a cheap check for the rounds that compute no digest).
fn same_traffic(a: &FleetCounts, b: &FleetCounts) -> bool {
    let key = |c: &FleetCounts| {
        (
            c.transactions,
            c.sim_cycles,
            c.forwarded,
            c.hop_forwards,
            c.dropped,
        )
    };
    key(a) == key(b)
}

/// The traced run's layer probes, `PROBE_ROUNDS` rounds stamped with
/// span iterations from `t.iteration + 1`: `input`'s fleets drained
/// under every schedule, the open-loop twins under the workload's own
/// schedule, the wire twin batched on both engines (spans named as in
/// a replay, inside a probe iteration), and, when the replay parses
/// nothing, a parse of the fleet serialized to `.mbt`.
pub fn probe(input: &Input, t: &mut Tracer) -> Probe {
    let mut p = Probe {
        ok: true,
        ..Probe::default()
    };
    let text = match &input.source {
        Source::Fleet(w) => Some(TraceFile::fleet(w.clone()).to_mbt()),
        _ => None,
    };
    let analytic = EngineKind::Analytic;
    let mut reference: Option<Vec<u64>> = None;
    for round in 0..PROBE_ROUNDS {
        t.iteration += 1;
        let mut order: Vec<usize> = (0..SCHEDULES.len()).collect();
        if round % 2 == 1 {
            order.reverse();
        }
        for i in order {
            let (sched, span) = (SCHEDULES[i].1, PROBE_DRAINS[i]);
            let (counts, digests) =
                drain_fleets(&input.fleets, analytic, sched, span, round == 0, t);
            if round == 0 {
                // Every schedule must reproduce the pin (or, for the
                // battery, the batched digests).
                let reference = reference.get_or_insert_with(|| match input.pin {
                    Some(pin) => vec![pin],
                    None => digests.clone(),
                });
                p.ok &= digests == *reference;
                p.counts[i] = counts.clone();
            }
            p.ok &= same_traffic(&counts, &p.counts[i]);
            if i == 3 {
                p.sharded2.push((t.iteration, counts));
            }
        }
        drain_fleets(
            &input.twins,
            analytic,
            input.schedule,
            "probe.drain.twin",
            false,
            t,
        );
        if let Some(w) = &input.wire_twin {
            let mut digests = [0; 2];
            for (i, kind) in [analytic, EngineKind::Wire].into_iter().enumerate() {
                let span = <FleetWorkload as Replayable>::apply_span(kind);
                let (c, d) = drain_fleets(
                    std::slice::from_ref(w),
                    kind,
                    FleetSchedule::Batched,
                    span,
                    true,
                    t,
                );
                p.wire_twin_txn[i] = c.transactions;
                digests[i] = d[0];
            }
            p.ok &= digests[0] == digests[1];
        }
        if let Some(text) = &text {
            let parsed = t.time("trace.parse_str", |_| {
                TraceFile::parse_str("probe.mbt", text)
            });
            p.ok &= parsed.0.is_ok();
            p.parse_bytes = text.len() as u64;
        }
    }
    if !p.ok {
        eprintln!("probe failed: a schedule or engine missed the pin or changed its counters");
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_file_parses_and_seeds_differ() {
        let p = pins();
        assert_ne!(p.default_seed, p.held_out_seed);
        assert!(Pins::parse("fleet-open 12\n").is_err());
        assert!(Pins::parse("bogus 1\n").is_err());
    }

    #[test]
    fn battery_inputs_follow_the_seed() {
        let p = pins();
        let mut t = Tracer::new(false);
        let a = battery_texts(p.default_seed, BATTERY_SEEDS, &mut t);
        assert_eq!(a.len() as u64, 2 * BATTERY_SEEDS);
        assert_eq!(a, battery_texts(p.default_seed, BATTERY_SEEDS, &mut t));
        assert_ne!(a, battery_texts(p.held_out_seed, BATTERY_SEEDS, &mut t));
    }

    fn small_fleet_input(pin: Option<u64>) -> Input {
        let w = FleetWorkload::sense_and_aggregate(4, 3, 1);
        Input {
            name: "fleet-open",
            pin,
            schedule: FleetSchedule::Sharded { shards: 2 },
            twins: vec![twin(&w, 1)],
            wire_twin: Some(FleetWorkload::sense_and_aggregate(2, 3, 1)),
            fleets: vec![w.clone()],
            source: Source::Fleet(w),
        }
    }

    #[test]
    fn wrong_pin_fails_and_right_pin_passes() {
        let mut t = Tracer::new(false);
        let w = FleetWorkload::sense_and_aggregate(4, 3, 1);
        let right = fleet_digest(&w.run_on(EngineKind::Analytic).signature());
        let good = replay(&small_fleet_input(Some(right)), 1, &mut t);
        assert!(good.ok);
        assert!(good.transactions() > 0 && good.drain_s > 0.0);
        let bad = replay(&small_fleet_input(Some(right ^ 1)), 1, &mut t);
        assert!(!bad.ok, "a wrong pinned digest must count as a failure");
    }

    #[test]
    fn battery_replay_compares_engines() {
        let mut t = Tracer::new(true);
        let input = Input {
            name: "seeded-battery",
            pin: None,
            schedule: FleetSchedule::Batched,
            fleets: Vec::new(),
            twins: Vec::new(),
            wire_twin: None,
            source: Source::Battery { seed: 5, count: 4 },
        };
        let r = replay(&input, 0, &mut t);
        assert!(r.ok);
        assert!(r.parse_bytes > 0 && r.analytic_txn > 0 && r.wire_txn > 0);
        // Each replay index takes the next window of seeds.
        let next = replay(&input, 1, &mut t);
        assert_ne!(r.parse_bytes, next.parse_bytes);
        let texts = battery_texts(9, 4, &mut t);
        assert_eq!(next.parse_bytes, texts.iter().map(|s| s.len() as u64).sum());
        assert!(t.spans().iter().any(|s| s.name == "scenario.apply.wire"));
    }

    #[test]
    fn probe_agrees_across_schedules() {
        let mut t = Tracer::new(true);
        let p = probe(&small_fleet_input(None), &mut t);
        assert!(p.ok);
        assert_eq!(p.sharded2.len() as u64, PROBE_ROUNDS);
        assert_eq!(p.sharded2[0].1.shard_txn.len(), 2);
        assert!(p.wire_twin_txn[1] > 0 && p.parse_bytes > 0);
        let drains = t
            .spans()
            .iter()
            .filter(|s| s.name == PROBE_DRAINS[3])
            .count();
        assert_eq!(drains as u64, PROBE_ROUNDS);
        let wrong = probe(&small_fleet_input(Some(1)), &mut t);
        assert!(!wrong.ok, "a schedule missing the pin must fail the probe");
    }
}
