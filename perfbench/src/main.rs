//! The repository benchmark. Replays one workload over and over for a
//! fixed wall-clock budget and prints, as the last line of standard
//! output, one JSON object with every end-to-end metric (`--trace 0`)
//! or every per-layer metric (`--trace 1`). Lines before it give each
//! metric's quartiles, sample count and tail percentile.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet-open --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Exits 1 if any replay fails its check (a digest that misses its pin,
//! engines that disagree, or a caught panic) and 2 on bad arguments.
//! See `perfbench/README.md` for the workloads and metrics.

mod replay;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::RangeInclusive;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use replay::{Input, Probe, Replay, PROBE_DRAINS, SCHEDULES, WORKLOADS};
use spans::{Span, Tracer};

const USAGE: &str =
    "usage: mbus-perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// Share of `--seconds` the traced run spends replaying untraced, and
/// again traced; the layer probes then run a fixed number of rounds.
const TRACED_RUN_PHASE: f64 = 0.4;

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: None,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => out.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(out.seconds.is_finite() && out.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(out)
}

/// Replays attempted and failed, over the whole run.
#[derive(Default)]
struct Run {
    attempted: u64,
    failed: u64,
}

impl Run {
    /// One replay, as replay index and span iteration `t.iteration + 1`.
    /// A failed check or a caught panic counts as a failure.
    fn attempt(&mut self, input: &Input, t: &mut Tracer) -> Option<Replay> {
        self.attempted += 1;
        t.iteration += 1;
        let index = t.iteration;
        match catch_unwind(AssertUnwindSafe(|| replay::replay(input, index, t))) {
            Ok(r) => {
                self.failed += u64::from(!r.ok);
                Some(r)
            }
            Err(_) => {
                t.unwind();
                self.failed += 1;
                None
            }
        }
    }

    /// Replays back to back until `secs` have passed (at least once).
    fn measure(&mut self, input: &Input, t: &mut Tracer, secs: f64) -> Vec<Replay> {
        let budget = Duration::from_secs_f64(secs);
        // WALL-CLOCK: the run's time budget; never reaches a signature.
        let start = Instant::now();
        let mut out = Vec::new();
        loop {
            out.extend(self.attempt(input, t));
            if start.elapsed() >= budget {
                return out;
            }
        }
    }
}

/// The process's resident-set high-water mark, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn median_of(replays: &[Replay], f: impl Fn(&Replay) -> f64) -> f64 {
    stats::median(&replays.iter().map(f).collect::<Vec<_>>())
}

/// Seconds of the spans named any of `names`, summed per iteration
/// within `iters`.
fn span_sums(spans: &[Span], names: &[&str], iters: &RangeInclusive<u64>) -> BTreeMap<u64, f64> {
    let mut per = BTreeMap::new();
    for s in spans {
        if names.contains(&s.name) && iters.contains(&s.iteration) {
            *per.entry(s.iteration).or_default() += (s.end_ns - s.start_ns) as f64 / 1e9;
        }
    }
    per
}

/// The median of [`span_sums`] over the iterations that have any such
/// span; 0 if none does.
fn span_median(spans: &[Span], names: &[&str], iters: &RangeInclusive<u64>) -> f64 {
    let per: Vec<f64> = span_sums(spans, names, iters).into_values().collect();
    if per.is_empty() {
        0.0
    } else {
        stats::median(&per)
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    assert!(value.is_finite(), "metric {name} is not finite: {value}");
    Metric { name, value, unit }
}

/// The end-to-end metrics, each a median over `replays`, with a
/// summary line per metric.
fn end_to_end(replays: &[Replay], run: &Run) -> Vec<Metric> {
    type Sample = fn(&Replay) -> f64;
    let rows: [(&'static str, &'static str, Sample); 5] = [
        ("setup_s", "s", |r| r.setup_s),
        ("txn_per_s", "txn/s", |r| {
            r.transactions() as f64 / r.drain_s
        }),
        ("sim_cycles_per_s", "cycles/s", |r| {
            r.sim_cycles as f64 / r.drain_s
        }),
        ("verify_s", "s", |r| r.verify_s),
        ("replay_s", "s", Replay::replay_s),
    ];
    let mut out = Vec::new();
    for (name, unit, f) in rows {
        let xs: Vec<f64> = replays.iter().map(f).collect();
        let s = stats::summarize(&xs).expect("at least one replay");
        let tail = s
            .tail
            .map_or("tail: fewer than 20 samples".to_string(), |(p, v)| {
                format!("p{p}={v:.6}")
            });
        println!(
            "{name:<18} median {:>14.6} {unit:<8} q1 {:.6} q3 {:.6} n={} {tail}",
            s.median, s.q1, s.q3, s.n
        );
        out.push(m(name, s.median, unit));
    }
    let rss = peak_rss_mb();
    println!(
        "{:<18} {rss:.1} MiB (process high-water mark)",
        "peak_rss_mb"
    );
    out.push(m("peak_rss_mb", rss, "MB"));
    println!(
        "{:<18} {} of {} replays failed ({:.4})",
        "fail_frac",
        run.failed,
        run.attempted,
        ratio(run.failed as f64, run.attempted as f64)
    );
    out
}

/// The per-layer metrics of the traced run: span medians over the
/// traced replays (`replays`, iterations `replay_iters`) and the
/// probes (`probe_iters`), plus deterministic counters.
fn per_layer(
    input: &Input,
    spans: &[Span],
    replays: (&[Replay], &RangeInclusive<u64>),
    untraced: &[Replay],
    probe: (&Probe, &RangeInclusive<u64>),
) -> Vec<Metric> {
    let (traced, r_it) = replays;
    let (p, p_it) = probe;
    let all_it = *r_it.start()..=*p_it.end();
    let first = &traced[0];
    let sm = |names: &[&str], iters: &RangeInclusive<u64>| span_median(spans, names, iters);

    let parse_s = sm(&["trace.parse_str"], &all_it);
    let parse_bytes = if first.parse_bytes > 0 {
        first.parse_bytes
    } else {
        p.parse_bytes
    };
    let drains: Vec<f64> = PROBE_DRAINS.iter().map(|n| sm(&[n], p_it)).collect();
    let own = SCHEDULES
        .iter()
        .position(|(_, s)| *s == input.schedule)
        .expect("replay schedule is probed");

    // Shard layer, per probe round of the two-shard drain.
    let sharded_drain = span_sums(spans, &[PROBE_DRAINS[3]], p_it);
    let (mut busy, mut wait, mut imbalance) = (Vec::new(), Vec::new(), Vec::new());
    for (iter, c) in &p.sharded2 {
        let b = c.shard_wall_nanos.iter().sum::<u64>() as f64 / 1e9;
        let shards = c.shard_wall_nanos.len() as f64;
        busy.push(b);
        wait.push(shards * sharded_drain.get(iter).copied().unwrap_or(0.0) - b);
        let max = c.shard_wall_nanos.iter().copied().max().unwrap_or(0) as f64;
        let min = c.shard_wall_nanos.iter().copied().min().unwrap_or(0) as f64;
        imbalance.push(ratio(max, min));
    }
    let shard_txn = &p.sharded2[0].1.shard_txn;
    let (tmax, tmin) = (
        shard_txn.iter().copied().max().unwrap_or(0) as f64,
        shard_txn.iter().copied().min().unwrap_or(0) as f64,
    );
    let tmean = ratio(shard_txn.iter().sum::<u64>() as f64, shard_txn.len() as f64);

    // Engines: the replay's own analytic drains; wire from the replays
    // where they run it (the battery), else from the wire twin, whose
    // analytic drain is the ratio's base.
    let analytic = ["fleet.apply.analytic", "scenario.apply.analytic"];
    let wire = ["fleet.apply.wire", "scenario.apply.wire"];
    let analytic_s = sm(&analytic, r_it);
    let analytic_ns = ratio(analytic_s * 1e9, first.analytic_txn as f64);
    let (wire_s, wire_ns, base_ns) = if first.wire_txn > 0 {
        let s = sm(&wire, r_it);
        (s, ratio(s * 1e9, first.wire_txn as f64), analytic_ns)
    } else {
        let s = sm(&wire, p_it);
        let base = ratio(sm(&analytic, p_it) * 1e9, p.wire_twin_txn[0] as f64);
        (s, ratio(s * 1e9, p.wire_twin_txn[1] as f64), base)
    };
    let replay_s = median_of(traced, Replay::replay_s);
    let signature_s = sm(&["report.signature"], r_it);

    let batched = &p.counts[0];
    let interleaved = &p.counts[1];
    vec![
        m("trace.parse_s", parse_s, "s"),
        m(
            "trace.parse_mb_per_s",
            ratio(parse_bytes as f64 / 1e6, parse_s),
            "MB/s",
        ),
        m(
            "trace.digest_s",
            sm(&["trace.fleet_digest", "trace.scenario_digest"], r_it),
            "s",
        ),
        m("fleet.instantiate_s", sm(&["fleet.instantiate"], r_it), "s"),
        m("fleet.clusters", batched.clusters as f64, "count"),
        m("fleet.nodes", batched.nodes as f64, "count"),
        m("fleet.drain_s.batched", drains[0], "s"),
        m("fleet.drain_s.interleaved", drains[1], "s"),
        m("fleet.drain_s.sharded1", drains[2], "s"),
        m("fleet.drain_s.sharded2", drains[3], "s"),
        m(
            "fleet.interleaved_over_batched",
            ratio(drains[1], drains[0]),
            "ratio",
        ),
        m(
            "fleet.sharded1_over_interleaved",
            ratio(drains[2], drains[1]),
            "ratio",
        ),
        m(
            "fleet.sharded2_over_sharded1",
            ratio(drains[3], drains[2]),
            "ratio",
        ),
        m("fleet.transactions", batched.transactions as f64, "count"),
        m("fleet.sim_cycles", batched.sim_cycles as f64, "cycles"),
        m("fleet.epochs", interleaved.epochs as f64, "count"),
        m(
            "fleet.max_turn_gap",
            interleaved.max_turn_gap as f64,
            "count",
        ),
        m("shard.busy_s", stats::median(&busy), "s"),
        m("shard.wait_s", stats::median(&wait), "s"),
        m("shard.imbalance", stats::median(&imbalance), "ratio"),
        m("shard.txn_spread", ratio(tmax - tmin, tmean), "ratio"),
        m("gateway.forwarded", batched.forwarded as f64, "count"),
        m("gateway.hop_forwards", batched.hop_forwards as f64, "count"),
        m("gateway.dropped", batched.dropped as f64, "count"),
        m("gateway.ttl_drops", batched.ttl_drops as f64, "count"),
        m(
            "gateway.forwarded_per_txn",
            ratio(batched.forwarded as f64, batched.transactions as f64),
            "ratio",
        ),
        m(
            "behavior.injected_replies",
            batched.injected_replies as f64,
            "count",
        ),
        m(
            "behavior.reply_rounds",
            batched.reply_rounds as f64,
            "count",
        ),
        m(
            "behavior.reply_share",
            ratio(
                batched.injected_replies as f64,
                (batched.injected_replies + batched.sent) as f64,
            ),
            "ratio",
        ),
        m(
            "behavior.closed_over_open",
            ratio(drains[own], sm(&["probe.drain.twin"], p_it)),
            "ratio",
        ),
        m("report.signature_s", signature_s, "s"),
        m(
            "report.signature_ns_per_record",
            ratio(signature_s * 1e9, first.transactions() as f64),
            "ns",
        ),
        m("engine.analytic_s", analytic_s, "s"),
        m("engine.wire_s", wire_s, "s"),
        m("engine.analytic_ns_per_txn", analytic_ns, "ns"),
        m("engine.wire_ns_per_txn", wire_ns, "ns"),
        m(
            "engine.wire_over_analytic",
            ratio(wire_ns, base_ns),
            "ratio",
        ),
        m(
            "engine.wire_share",
            ratio(sm(&wire, r_it), replay_s),
            "ratio",
        ),
        m(
            "bench.trace_overhead",
            ratio(replay_s, median_of(untraced, Replay::replay_s)),
            "ratio",
        ),
    ]
}

fn result_line(run: &Run, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        run.failed == 0,
        run.attempted,
        run.failed
    );
    for (i, x) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            x.name, x.value, x.unit
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let pins = replay::pins();
    let seed = args.seed.unwrap_or(pins.default_seed);
    let mut t = Tracer::new(args.trace);
    let input = replay::build(&args.workload, seed, &pins, &mut t).expect("workload validated");
    println!(
        "workload {} seed {seed} schedule {}",
        input.name, input.schedule
    );

    let mut run = Run::default();
    // Untimed warm-up: page in the code and the allocator's arenas.
    t.on = false;
    run.attempt(&input, &mut t);
    let metrics = if args.trace {
        let untraced = run.measure(&input, &mut t, args.seconds * TRACED_RUN_PHASE);
        t.on = true;
        let first = t.iteration + 1;
        let traced = run.measure(&input, &mut t, args.seconds * TRACED_RUN_PHASE);
        let replay_iters = first..=t.iteration;
        let probe = replay::probe(&input, &mut t);
        let probe_iters = *replay_iters.end() + 1..=t.iteration;
        run.attempted += 1;
        run.failed += u64::from(!probe.ok);
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/spans-{}-seed{seed}.jsonl", input.name);
        if let Err(e) = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, t.to_jsonl(input.name)))
        {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("{} spans written to {path}", t.spans().len());
        if traced.is_empty() || untraced.is_empty() {
            eprintln!("error: every replay of a phase panicked");
            return ExitCode::FAILURE;
        }
        let metrics = per_layer(
            &input,
            t.spans(),
            (&traced, &replay_iters),
            &untraced,
            (&probe, &probe_iters),
        );
        for x in &metrics {
            println!("{:<34} {:>16.6} {}", x.name, x.value, x.unit);
        }
        metrics
    } else {
        let replays = run.measure(&input, &mut t, args.seconds);
        if replays.is_empty() {
            eprintln!("error: every replay panicked");
            return ExitCode::FAILURE;
        }
        end_to_end(&replays, &run)
    };
    println!("{}", result_line(&run, &metrics));
    if run.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = args("--workload fleet-open --seed 9 --seconds 3 --trace 1").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (Some(9), 3.0, true));
        assert!(args("--workload nope").is_err());
        assert!(args("--workload fleet-open --trace 2").is_err());
        assert!(args("--workload fleet-open --seconds 0").is_err());
        assert!(args("--workload fleet-open --seed").is_err());
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let run = Run {
            attempted: 3,
            failed: 1,
        };
        let line = result_line(&run, &[m("a_s", 1.5, "s"), m("b", 2.0, "count")]);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"a_s\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 2, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn span_median_groups_by_iteration() {
        let span = |name, it, start, end| Span {
            name,
            start_ns: start,
            end_ns: end,
            parent: None,
            iteration: it,
        };
        let spans = [
            span("a", 1, 0, 1_000_000_000),
            span("a", 1, 0, 1_000_000_000),
            span("a", 2, 0, 1_000_000_000),
            span("b", 2, 0, 5_000_000_000),
            span("a", 3, 0, 9_000_000_000),
        ];
        assert_eq!(span_median(&spans, &["a"], &(1..=2)), 1.5);
        assert_eq!(span_median(&spans, &["a", "b"], &(2..=2)), 6.0);
        assert_eq!(span_median(&spans, &["c"], &(1..=3)), 0.0);
    }

    #[test]
    fn a_panicking_replay_counts_as_failed() {
        // A `Mbt` source that is not a trace makes the replay panic in
        // its set-up; the run must count it, not abort.
        let input = Input {
            name: "fleet-reply-mesh",
            source: replay::Source::Mbt("not a trace".into()),
            pin: Some(0),
            schedule: mbus_core::FleetSchedule::Interleaved,
            fleets: Vec::new(),
            twins: Vec::new(),
            wire_twin: None,
        };
        let mut run = Run::default();
        let mut t = Tracer::new(true);
        assert!(run.attempt(&input, &mut t).is_none());
        assert_eq!((run.attempted, run.failed), (1, 1));
    }
}
