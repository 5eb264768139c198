//! Deterministic delta-debugging shrinker for failing traces.
//!
//! A fuzz battery that trips an engine divergence hands back a seeded
//! generator output with dozens of nodes and hundreds of steps — far
//! more than the divergence needs. [`shrink_workload`] and
//! [`shrink_fleet`] minimize such a scenario while a caller-supplied
//! predicate (*"does this still fail?"*) keeps returning `true`, so
//! fuzz failures ship as minimal `.mbt` repros.
//!
//! Both trace kinds run the same passes, in this order, to a fixpoint:
//!
//! 1. **Drop steps** — ddmin with chunk sizes halving from `len/2` to
//!    1, so the result is 1-minimal: no single remaining step can be
//!    removed.
//! 2. **Shrink payloads** — empty, then first half, then all-zero
//!    bytes (the fixpoint loop re-halves until nothing shrinks).
//! 3. **Shrink partial-drain counts** — toward 0, then halving.
//! 4. **Drop reactive table entries** — any [`NodeBehavior`], then
//!    (for fleets) any mesh route, the failure does not need, so
//!    closed-loop repros keep only the behaviors that actually fire.
//! 5. **Drop topology** — any node (or cluster) nothing references,
//!    remapping the indices of later ones down; then, for fleets,
//!    trimming trailing unreferenced sensors off each cluster.
//!
//! The passes are written once, over a private trait the two kinds'
//! decomposed states implement; each kind supplies only what differs:
//! which steps carry a payload or a count, what references a node or
//! cluster, and how a drop remaps indices.
//!
//! Every pass proposes a candidate, rebuilds it through the public
//! workload builders, and keeps it only if the predicate still fails.
//! The shrinker never manufactures an out-of-range reference or a
//! scenario the builders would reject: in particular no candidate
//! queues non-envelope traffic on a gateway's forwarding port (the
//! traffic [`crate::Fleet::queue`] and the `.mbt` parser reject), so a
//! cluster drop that would renumber a local send onto its own
//! gateway's port is skipped. There is no randomness: the same input
//! and predicate always minimize to the same trace (the shrinker
//! self-test pins this).

use std::collections::BTreeMap;

use crate::addr::Address;
use crate::behavior::NodeBehavior;
use crate::fleet::{Fleet, FleetNodeId, FleetStep, FleetWorkload, MeshRoute};
use crate::scenario::{Step, Workload};

use super::{rebuild_fleet, rebuild_workload};

/// Minimizes a failing single-bus workload.
///
/// `predicate` must return `true` for a *still-failing* candidate; it
/// is required to hold for `workload` itself (if it does not, the
/// input is returned unchanged). The result is 1-minimal over step
/// removal: dropping any single remaining step makes the predicate
/// pass.
pub fn shrink_workload(
    workload: &Workload,
    predicate: &mut dyn FnMut(&Workload) -> bool,
) -> Workload {
    shrink::<WorkloadParts>(workload, predicate)
}

/// Minimizes a failing fleet workload; the fleet counterpart of
/// [`shrink_workload`], adding the mesh-route and sensor-trim passes.
pub fn shrink_fleet(
    workload: &FleetWorkload,
    predicate: &mut dyn FnMut(&FleetWorkload) -> bool,
) -> FleetWorkload {
    shrink::<FleetParts>(workload, predicate)
}

fn shrink<P: Parts>(trace: &P::Trace, predicate: &mut dyn FnMut(&P::Trace) -> bool) -> P::Trace {
    if !predicate(trace) {
        return trace.clone();
    }
    let mut state = P::of(trace);
    let steps = |s: &P| s.steps().len();
    loop {
        let mut progress = ddmin(&mut state, predicate);
        progress |= sweep(&mut state, predicate, steps, false, |s, i| {
            let payloads = P::payload(&s.steps()[i]).map_or_else(Vec::new, payload_candidates);
            let edit = |p| s.edited(|c| P::set_payload(&mut c.steps_mut()[i], p));
            payloads.into_iter().map(edit).collect::<Vec<_>>()
        });
        progress |= sweep(&mut state, predicate, steps, false, |s, i| {
            let counts = P::count(&s.steps()[i]).map_or_else(Vec::new, count_candidates);
            let edit = |n| s.edited(|c| c.steps_mut()[i] = P::partial_drain(n));
            counts.into_iter().map(edit).collect::<Vec<_>>()
        });
        for table in 0..P::TABLES {
            progress |= sweep(
                &mut state,
                predicate,
                |s| s.table_len(table),
                true,
                |s, i| Some(s.edited(|c| c.drop_entry(table, i))),
            );
        }
        progress |= sweep(&mut state, predicate, P::units, true, P::without_unit);
        progress |= sweep(&mut state, predicate, P::units, false, P::trimmed);
        if !progress {
            return state.build();
        }
    }
}

/// One trace kind's decomposed state: the parts the passes edit, and
/// what the passes need to know about each kind.
trait Parts: Clone {
    type Trace: Clone;
    type Step;
    /// Reactive tables the drop pass walks, in order.
    const TABLES: usize;

    fn of(trace: &Self::Trace) -> Self;
    /// Reassembles the trace through the public builders.
    fn build(&self) -> Self::Trace;
    fn steps(&self) -> &[Self::Step];
    fn steps_mut(&mut self) -> &mut Vec<Self::Step>;
    /// The payload the payload pass may shrink, if `step` has one.
    fn payload(step: &Self::Step) -> Option<&[u8]>;
    fn set_payload(step: &mut Self::Step, payload: Vec<u8>);
    /// The partial-drain count of `step`, if it is one.
    fn count(step: &Self::Step) -> Option<usize>;
    fn partial_drain(count: usize) -> Self::Step;
    fn table_len(&self, table: usize) -> usize;
    fn drop_entry(&mut self, table: usize, i: usize);
    /// Topology units: nodes of a bus, clusters of a fleet.
    fn units(&self) -> usize;
    /// The state without unit `i`, later indices remapped down by one;
    /// `None` while anything references `i`, or when the remapped
    /// trace would be one the builders reject.
    fn without_unit(&self, i: usize) -> Option<Self>;
    /// A further reduction of unit `i` that keeps its index, if any.
    fn trimmed(&self, _i: usize) -> Option<Self> {
        None
    }

    fn edited(&self, edit: impl FnOnce(&mut Self)) -> Self {
        let mut candidate = self.clone();
        edit(&mut candidate);
        candidate
    }
}

// ----------------------------------------------------------------------
// The passes
// ----------------------------------------------------------------------

/// Walks sites `0..len(state)` (re-read after every site), trying
/// `candidates(state, site)` in order and keeping the first the
/// predicate still fails on. With `retry`, a site whose candidate was
/// kept is tried again: the removal passes use this so whatever slid
/// into the removed slot gets its turn.
fn sweep<P: Parts, I: IntoIterator<Item = P>>(
    state: &mut P,
    predicate: &mut dyn FnMut(&P::Trace) -> bool,
    len: impl Fn(&P) -> usize,
    retry: bool,
    candidates: impl Fn(&P, usize) -> I,
) -> bool {
    let mut progress = false;
    let mut site = 0;
    while site < len(state) {
        match candidates(state, site)
            .into_iter()
            .find(|c| predicate(&c.build()))
        {
            Some(candidate) => {
                *state = candidate;
                progress = true;
                site += usize::from(!retry);
            }
            None => site += 1,
        }
    }
    progress
}

/// ddmin over steps: removes chunks of halving size, each chunk size
/// swept from the front.
fn ddmin<P: Parts>(state: &mut P, predicate: &mut dyn FnMut(&P::Trace) -> bool) -> bool {
    let mut progress = false;
    let mut chunk = state.steps().len() / 2;
    while chunk >= 1 {
        let chunks = |s: &P| s.steps().len().div_ceil(chunk);
        progress |= sweep(state, predicate, chunks, true, |s, k| {
            Some(s.edited(|c| {
                let steps = c.steps_mut();
                steps.drain(k * chunk..((k + 1) * chunk).min(steps.len()));
            }))
        });
        chunk /= 2;
    }
    progress
}

/// Candidate reductions for one payload, in preference order. The
/// fixpoint loop re-applies the half-length candidate until it stops
/// helping, so long payloads shrink logarithmically.
fn payload_candidates(payload: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    if !payload.is_empty() {
        out.push(Vec::new());
        if payload.len() > 1 {
            out.push(payload[..payload.len() / 2].to_vec());
        }
        if payload.iter().any(|&b| b != 0) {
            out.push(vec![0; payload.len()]);
        }
    }
    out
}

fn count_candidates(count: usize) -> Vec<usize> {
    match count {
        0 => Vec::new(),
        1 => vec![0],
        _ => vec![0, count / 2],
    }
}

/// Removes the `i`-th entry (in key order) of a behavior table.
fn drop_nth<K: Ord + Copy>(behaviors: &mut BTreeMap<K, NodeBehavior>, i: usize) {
    if let Some(&key) = behaviors.keys().nth(i) {
        behaviors.remove(&key);
    }
}

// ----------------------------------------------------------------------
// Single bus
// ----------------------------------------------------------------------

#[derive(Clone)]
struct WorkloadParts {
    name: String,
    config: crate::config::BusConfig,
    nodes: Vec<crate::node::NodeSpec>,
    behaviors: BTreeMap<usize, NodeBehavior>,
    horizon: u32,
    steps: Vec<Step>,
    strict_nulls: bool,
}

impl Parts for WorkloadParts {
    type Trace = Workload;
    type Step = Step;
    const TABLES: usize = 1;

    fn of(w: &Workload) -> Self {
        WorkloadParts {
            name: w.name().to_string(),
            config: *w.config(),
            nodes: w.node_specs().to_vec(),
            behaviors: w.behaviors().clone(),
            horizon: w.reply_horizon(),
            steps: w.steps().to_vec(),
            strict_nulls: w.strict_nulls(),
        }
    }

    fn build(&self) -> Workload {
        rebuild_workload(
            &self.name,
            self.config,
            &self.nodes,
            &self.behaviors,
            self.horizon,
            &self.steps,
            self.strict_nulls,
        )
    }

    fn steps(&self) -> &[Step] {
        &self.steps
    }

    fn steps_mut(&mut self) -> &mut Vec<Step> {
        &mut self.steps
    }

    fn payload(step: &Step) -> Option<&[u8]> {
        match step {
            Step::Queue { msg, .. } | Step::QueueUnchecked { msg, .. } => Some(msg.payload()),
            _ => None,
        }
    }

    fn set_payload(step: &mut Step, payload: Vec<u8>) {
        if let Step::Queue { msg, .. } | Step::QueueUnchecked { msg, .. } = step {
            *msg = msg.with_payload(payload);
        }
    }

    fn count(step: &Step) -> Option<usize> {
        match *step {
            Step::RunTransactions { count } => Some(count),
            _ => None,
        }
    }

    fn partial_drain(count: usize) -> Step {
        Step::RunTransactions { count }
    }

    fn table_len(&self, _table: usize) -> usize {
        self.behaviors.len()
    }

    fn drop_entry(&mut self, _table: usize, i: usize) {
        drop_nth(&mut self.behaviors, i);
    }

    fn units(&self) -> usize {
        self.nodes.len()
    }

    /// Steps and behaviors reference nodes by index. Destination
    /// *addresses* are left alone — a send whose receiver disappears
    /// legally resolves to [`crate::TxOutcome::NoDestination`], and the
    /// predicate decides whether the failure survives.
    fn without_unit(&self, i: usize) -> Option<Self> {
        // A behavior entry is a reference too: the table pass clears it
        // first when it is not needed, then the node falls on the next
        // fixpoint iteration.
        if self.behaviors.contains_key(&i) {
            return None;
        }
        let shift = |n: usize| n - usize::from(n > i);
        let mut c = self.clone();
        c.nodes.remove(i);
        c.behaviors = self
            .behaviors
            .iter()
            .map(|(&n, b)| (shift(n), b.clone()))
            .collect();
        for step in &mut c.steps {
            if let Step::Queue { node, .. }
            | Step::QueueUnchecked { node, .. }
            | Step::Wakeup { node } = step
            {
                if *node == i {
                    return None;
                }
                *node = shift(*node);
            }
        }
        Some(c)
    }
}

// ----------------------------------------------------------------------
// Fleet
// ----------------------------------------------------------------------

#[derive(Clone)]
struct FleetParts {
    name: String,
    config: crate::config::BusConfig,
    clusters: Vec<Vec<bool>>,
    domains: Vec<usize>,
    routes: Vec<MeshRoute>,
    behaviors: BTreeMap<FleetNodeId, NodeBehavior>,
    horizon: u32,
    steps: Vec<FleetStep>,
    strict_nulls: bool,
}

/// Whether `dest` could be a gateway forwarding port: fu 0 of the
/// gateway's fixed short prefix (0x1), or fu 0 of any full prefix
/// (gateway presences own per-cluster full prefixes the shrinker
/// cannot enumerate, so it stays conservative).
fn targets_forwarding_port(dest: Address) -> bool {
    match dest {
        Address::Short { prefix, fu_id } => prefix.raw() == 0x1 && fu_id.raw() == 0,
        Address::Full { fu_id, .. } => fu_id.raw() == 0,
        Address::Broadcast { .. } => false,
    }
}

/// The node identities a fleet step names.
fn step_ids(step: &mut FleetStep) -> Vec<&mut FleetNodeId> {
    match step {
        FleetStep::Local { src, .. } => vec![src],
        FleetStep::Remote { src, dest, .. } => vec![src, dest],
        FleetStep::Wakeup { node } => vec![node],
        FleetStep::Drain | FleetStep::RunRounds { .. } => Vec::new(),
    }
}

impl Parts for FleetParts {
    type Trace = FleetWorkload;
    type Step = FleetStep;
    /// Behaviors, then mesh routes.
    const TABLES: usize = 2;

    fn of(w: &FleetWorkload) -> Self {
        FleetParts {
            name: w.name().to_string(),
            config: *w.config(),
            clusters: w.cluster_specs().to_vec(),
            domains: w.cluster_domains().to_vec(),
            routes: w.mesh_routes().to_vec(),
            behaviors: w.behaviors().clone(),
            horizon: w.reply_horizon(),
            steps: w.steps().to_vec(),
            strict_nulls: w.strict_nulls(),
        }
    }

    fn build(&self) -> FleetWorkload {
        rebuild_fleet(
            &self.name,
            self.config,
            &self.clusters,
            &self.domains,
            &self.routes,
            &self.behaviors,
            self.horizon,
            &self.steps,
            self.strict_nulls,
        )
    }

    fn steps(&self) -> &[FleetStep] {
        &self.steps
    }

    fn steps_mut(&mut self) -> &mut Vec<FleetStep> {
        &mut self.steps
    }

    fn payload(step: &FleetStep) -> Option<&[u8]> {
        match step {
            // A local send to a forwarding port (fu 0 of a gateway
            // presence) is an envelope *because its payload decodes as
            // one* — shrinking the payload would turn it into traffic
            // `Fleet::queue` rejects, and `FleetWorkload::apply`
            // treats a rejected step as a caller bug. Leave such
            // payloads alone; the step-removal pass can still drop the
            // whole send.
            FleetStep::Local { msg, .. } if targets_forwarding_port(msg.dest()) => None,
            FleetStep::Local { msg, .. } => Some(msg.payload()),
            FleetStep::Remote { payload, .. } => Some(payload),
            _ => None,
        }
    }

    fn set_payload(step: &mut FleetStep, candidate: Vec<u8>) {
        match step {
            FleetStep::Local { msg, .. } => *msg = msg.with_payload(candidate),
            FleetStep::Remote { payload, .. } => *payload = candidate,
            _ => {}
        }
    }

    fn count(step: &FleetStep) -> Option<usize> {
        match *step {
            FleetStep::RunRounds { rounds } => Some(rounds),
            _ => None,
        }
    }

    fn partial_drain(rounds: usize) -> FleetStep {
        FleetStep::RunRounds { rounds }
    }

    fn table_len(&self, table: usize) -> usize {
        [self.behaviors.len(), self.routes.len()][table]
    }

    /// Dropping a route is always legal: an envelope that loses its
    /// only route becomes an unroutable drop, and the predicate decides
    /// whether that still fails.
    fn drop_entry(&mut self, table: usize, i: usize) {
        if table == 0 {
            drop_nth(&mut self.behaviors, i);
        } else {
            self.routes.remove(i);
        }
    }

    fn units(&self) -> usize {
        self.clusters.len()
    }

    /// Remote destinations naming a dropped cluster would dangle, so a
    /// cluster referenced *anywhere* (src, dest, or wakeup) is kept.
    fn without_unit(&self, i: usize) -> Option<Self> {
        // Behaviors hosted on the cluster and mesh routes hopping
        // *through* it count as references; the table pass clears
        // those first when they are not load-bearing.
        if self.behaviors.keys().any(|id| id.cluster == i) || self.routes.iter().any(|r| r.via == i)
        {
            return None;
        }
        let shift = |c: usize| c - usize::from(c > i);
        let mut c = self.clone();
        c.clusters.remove(i);
        c.domains.remove(i);
        // Route range bounds live in cluster-index space; shift them
        // with the clusters they cover (`via == i` is excluded above).
        for r in &mut c.routes {
            (r.lo, r.hi, r.via) = (shift(r.lo), shift(r.hi), shift(r.via));
        }
        c.behaviors = self
            .behaviors
            .iter()
            .map(|(&id, b)| (FleetNodeId::new(shift(id.cluster), id.node), b.clone()))
            .collect();
        for step in &mut c.steps {
            for id in step_ids(step) {
                if id.cluster == i {
                    return None;
                }
                id.cluster = shift(id.cluster);
            }
            // A full-prefix destination keeps its address, so a send
            // aimed at a later cluster's gateway presence can land on
            // the sender's own forwarding port once renumbered.
            if let FleetStep::Local { src, msg } = step {
                if Fleet::misuses_forwarding_port(src.cluster, msg) {
                    return None;
                }
            }
        }
        Some(c)
    }

    /// Trims cluster `i`'s sensor list down to the highest ring
    /// position anything still references (position 0 is the gateway;
    /// sensors are 1-based).
    fn trimmed(&self, i: usize) -> Option<Self> {
        let mut c = self.clone();
        let max_node = c
            .steps
            .iter_mut()
            .flat_map(step_ids)
            .map(|id| *id)
            .chain(self.behaviors.keys().copied())
            .filter(|id| id.cluster == i)
            .map(|id| id.node)
            .max()
            .unwrap_or(0);
        if max_node >= c.clusters[i].len() {
            return None;
        }
        c.clusters[i].truncate(max_node);
        Some(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Address, FuId, ShortPrefix};
    use crate::config::BusConfig;
    use crate::engine::EngineKind;
    use crate::message::Message;

    /// A storm shrinks to nothing when the predicate is `true` for
    /// every candidate (the degenerate always-failing case).
    #[test]
    fn always_failing_shrinks_to_empty() {
        let w = Workload::many_node_storm(6, 3);
        let min = shrink_workload(&w, &mut |_| true);
        assert!(min.steps().is_empty());
        assert!(min.node_specs().is_empty());
    }

    /// A predicate keyed on one specific payload byte pins the shrink
    /// to exactly the send carrying it (plus nothing else).
    #[test]
    fn shrinks_to_the_one_interesting_send() {
        let w = Workload::many_node_storm(6, 3);
        let needle = |w: &Workload| {
            w.steps().iter().any(|s| match s {
                Step::Queue { msg, .. } => !msg.payload().is_empty(),
                _ => false,
            })
        };
        let min = shrink_workload(&w, &mut { |w: &Workload| needle(w) });
        let sends = min
            .steps()
            .iter()
            .filter(|s| matches!(s, Step::Queue { .. }))
            .count();
        assert_eq!(sends, 1, "exactly one send survives: {:?}", min.steps());
        assert_eq!(min.steps().len(), 1, "and nothing else: {:?}", min.steps());
        // Determinism: shrinking again (or shrinking the minimum)
        // reproduces the identical trace.
        let again = shrink_workload(&w, &mut { |w: &Workload| needle(w) });
        assert_eq!(format!("{:?}", min.steps()), format!("{:?}", again.steps()));
        let fixpoint = shrink_workload(&min, &mut { |w: &Workload| needle(w) });
        assert_eq!(
            format!("{:?}", min.steps()),
            format!("{:?}", fixpoint.steps())
        );
    }

    /// Shrinking preserves predicate truth end-to-end on a real
    /// behavioral predicate (an engine actually runs the candidates).
    #[test]
    fn behavioral_predicate_survives_shrinking() {
        let w = Workload::many_node_storm(5, 2);
        let mut pred = |w: &Workload| {
            let report = w.run_on(EngineKind::Analytic);
            report.records.iter().any(|r| !r.delivered_to.is_empty())
        };
        let min = shrink_workload(&w, &mut pred);
        assert!(pred(&min), "minimized workload still delivers");
        assert!(min.steps().len() <= 2, "a send plus at most one drain");
    }

    #[test]
    fn passing_input_is_returned_unchanged() {
        let w = Workload::many_node_storm(3, 1);
        let min = shrink_workload(&w, &mut |_| false);
        assert_eq!(min.steps().len(), w.steps().len());
    }

    #[test]
    fn fleet_shrinks_to_the_remote_leg() {
        let w = FleetWorkload::cross_storm(4, 3, 2);
        let mut pred = |w: &FleetWorkload| {
            w.steps()
                .iter()
                .any(|s| matches!(s, FleetStep::Remote { .. }))
        };
        let min = shrink_fleet(&w, &mut pred);
        assert_eq!(
            min.steps().len(),
            1,
            "one remote survives: {:?}",
            min.steps()
        );
        assert!(
            min.cluster_specs().len() <= 2,
            "only the clusters the remote references survive: {:?}",
            min.cluster_specs()
        );
        // Payloads shrink too.
        let FleetStep::Remote { payload, .. } = &min.steps()[0] else {
            panic!("not a remote: {:?}", min.steps());
        };
        assert!(payload.is_empty(), "payload minimized: {payload:?}");
    }

    /// Unreferenced-cluster dropping remaps indices so a later
    /// cluster's traffic still applies cleanly.
    #[test]
    fn cluster_remap_keeps_references_valid() {
        let w = FleetWorkload::new("remap", BusConfig::default())
            .cluster(vec![false])
            .cluster(vec![false])
            .cluster(vec![false])
            .send_remote(
                crate::fleet::FleetNodeId::new(0, 1),
                crate::fleet::FleetNodeId::new(2, 1),
                FuId::ZERO,
                vec![0xAA],
            )
            .drain();
        let mut pred = |w: &FleetWorkload| {
            let report = w.run_on(EngineKind::Analytic);
            report.forwarded >= 1
        };
        assert!(pred(&w));
        let min = shrink_fleet(&w, &mut pred);
        assert!(pred(&min));
        assert_eq!(min.cluster_specs().len(), 2, "middle cluster dropped");
    }

    /// `Message::with_payload` keeps destination and priority — the
    /// payload pass must not silently drop the priority claim.
    #[test]
    fn payload_shrink_preserves_priority() {
        let w = Workload::new("prio", BusConfig::default())
            .node(
                crate::node::NodeSpec::new("a", crate::addr::FullPrefix::new(1).unwrap())
                    .with_short_prefix(ShortPrefix::new(1).unwrap()),
            )
            .node(
                crate::node::NodeSpec::new("b", crate::addr::FullPrefix::new(2).unwrap())
                    .with_short_prefix(ShortPrefix::new(2).unwrap()),
            )
            .send(
                0,
                Message::new(
                    Address::short(ShortPrefix::new(2).unwrap(), FuId::ZERO),
                    vec![1, 2, 3, 4],
                )
                .with_priority(),
            )
            .drain();
        let mut pred = |w: &Workload| {
            w.steps().iter().any(|s| match s {
                Step::Queue { msg, .. } => msg.is_priority(),
                _ => false,
            })
        };
        let min = shrink_workload(&w, &mut pred);
        let Step::Queue { msg, .. } = &min.steps()[0] else {
            panic!("send dropped: {:?}", min.steps());
        };
        assert!(msg.is_priority());
        assert!(msg.payload().is_empty());
    }
}
