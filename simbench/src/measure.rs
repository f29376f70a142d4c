//! One benchmark invocation: untraced runs for the end-to-end metrics,
//! or a traced run for the per-layer metrics.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use netsim::time::SimDuration;
use netsim::trace::TraceDigest;

use crate::host;
use crate::layers::{AgentKind, QueueKind, Wrappers};
use crate::pins;
use crate::report::{Report, AGENT_FIELDS, QUEUE_FIELDS};
use crate::workload::{ratio, Outcome, Workload};

/// Simulated time between two timed slices of a traced run.
const SLICE: SimDuration = SimDuration::from_millis(100);

/// Worlds built (and dropped unrun) before each measured run, on top of
/// the run's own build, so `setup_s` is a median of many set-ups spread
/// over the whole measurement.
const SETUP_SAMPLES: usize = 4;

/// Scenario seeds an untraced invocation cycles through: run `i` of
/// `--seed n` simulates scenario seed `n * SEED_MIX + i % SEED_MIX`, so
/// distinct seeds never share a scenario. Simulated work differs from
/// seed to seed; a mix keeps one invocation's medians from resting on a
/// single scenario's luck.
const SEED_MIX: u64 = 16;

/// The scenario seed of untraced run `i` of `--seed seed`.
fn scenario_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(SEED_MIX).wrapping_add(i % SEED_MIX)
}

/// The median of `v` (0 when empty).
fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The median of `f` over `items`.
fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// Nearest-rank quantile of `v` (0 when empty).
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Counts runs, catches their panics and checks each outcome: channel
/// conservation on every run, the pinned digest and event count on a
/// pinned seed, and one digest per seed across every run of the
/// invocation (which is what makes the traced, re-assembled and one-shard
/// runs comparable with the measured ones).
struct Checker {
    workload: Workload,
    sim_secs: u64,
    reference: BTreeMap<u64, TraceDigest>,
    report: Report,
}

impl Checker {
    fn new(workload: Workload, sim_secs: u64) -> Checker {
        Checker {
            workload,
            sim_secs,
            reference: BTreeMap::new(),
            report: Report::default(),
        }
    }

    /// Run `run`, a simulation of scenario seed `seed`; `None` if it
    /// panicked or failed a check.
    fn attempt<T>(
        &mut self,
        what: &str,
        seed: u64,
        run: impl FnOnce() -> T,
        outcome: fn(&T) -> &Outcome,
    ) -> Option<T> {
        self.report.attempted += 1;
        let verdict = match catch_unwind(AssertUnwindSafe(run)) {
            Ok(value) => match self.check(seed, outcome(&value)) {
                Ok(()) => return Some(value),
                Err(e) => e,
            },
            Err(_) => "panicked".to_string(),
        };
        self.report.failed += 1;
        self.report
            .notes
            .push(format!("check failed: {what}, seed {seed}: {verdict}"));
        None
    }

    fn check(&mut self, seed: u64, outcome: &Outcome) -> Result<(), String> {
        outcome.conservation.clone()?;
        let d = &outcome.digest;
        let pin = pins::pinned(self.workload, seed, self.sim_secs);
        if let Some((digest, events)) = pin {
            if d.value() != digest || d.events() != events {
                return Err(format!(
                    "digest {} with {} events, pinned {digest:016x} with {events}",
                    d.hex(),
                    d.events()
                ));
            }
        }
        match self.reference.get(&seed) {
            Some(r) if r != d => Err(format!(
                "digest {} with {} events differs from the first run's {} with {}",
                d.hex(),
                d.events(),
                r.hex(),
                r.events()
            )),
            Some(_) => Ok(()),
            None => {
                self.report.notes.push(format!(
                    "digest: seed={seed} {} events={} pinned={}",
                    d.hex(),
                    d.events(),
                    pin.is_some()
                ));
                self.reference.insert(seed, d.clone());
                Ok(())
            }
        }
    }
}

/// One untraced run, timed phase by phase.
struct Rep {
    setup_s: f64,
    /// Seconds inside the engine's run calls.
    run_s: f64,
    /// Setup, run and collect: the run's wall time less any probes.
    wall_s: f64,
    cpu_s: f64,
    /// Host speed probes taken between the run's slices.
    probes: Vec<host::Probe>,
    outcome: Outcome,
}

/// Build, run and collect one world. With a probe, the run stops after
/// each given stretch of simulated time for a host speed probe, whose
/// time is left out of every figure.
fn untraced_rep(
    w: Workload,
    seed: u64,
    sim_secs: u64,
    domains: usize,
    workers: usize,
    mut probe: Option<(&mut host::SpeedProbe, SimDuration)>,
) -> Rep {
    let cpu = host::cpu_seconds();
    let start = Instant::now();
    let mut built = w.build(seed, sim_secs, domains, workers);
    let setup_s = start.elapsed().as_secs_f64();
    let mut probes = Vec::new();
    let slice = probe.as_ref().map(|&(_, every)| every);
    let run_s = built.run(slice, |_| {
        if let Some((p, _)) = probe.as_mut() {
            probes.push(p.run());
        }
    });
    let collect = Instant::now();
    let outcome = built.collect();
    let collect_s = collect.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu - probes.iter().map(|p| p.cpu_s).sum::<f64>();
    Rep {
        setup_s,
        run_s,
        wall_s: setup_s + run_s + collect_s,
        cpu_s,
        probes,
        outcome,
    }
}

/// End-to-end metrics: untraced runs of the workload, cycling through
/// [`SEED_MIX`] scenario seeds until `seconds` have passed, reported as
/// medians over the runs. Each run is put on the reference host's clock:
/// its wall times are scaled by [`host::REFERENCE_PROBE_S`] over the mean
/// wall time of the host speed probes taken between its slices, and its
/// CPU time likewise by their mean CPU time.
pub fn untraced(w: Workload, seed: u64, seconds: f64, sim_secs: u64) -> Report {
    let mut checker = Checker::new(w, sim_secs);
    let mut speed = host::SpeedProbe::default();
    let mut reps = Vec::new();
    let mut setup = Vec::new();
    let start = Instant::now();
    for i in 0.. {
        let s = scenario_seed(seed, i);
        let mut setups = Vec::new();
        for _ in 0..SETUP_SAMPLES {
            let start = Instant::now();
            let built = w.build(s, sim_secs, w.domains(), 1);
            setups.push(start.elapsed().as_secs_f64());
            drop(built);
        }
        let probe = Some((&mut speed, w.probe_every()));
        let run = || untraced_rep(w, s, sim_secs, w.domains(), 1, probe);
        if let Some(rep) = checker.attempt("run", s, run, |r| &r.outcome) {
            let probes = |f: fn(&host::Probe) -> f64| rep.probes.iter().map(f).sum::<f64>();
            let n = rep.probes.len() as f64;
            let scale = host::REFERENCE_PROBE_S * n / probes(|p| p.wall_s);
            let cpu_scale = host::REFERENCE_PROBE_S * n / probes(|p| p.cpu_s);
            setups.push(rep.setup_s);
            setup.extend(setups.iter().map(|t| t * scale));
            reps.push((scale, cpu_scale, rep));
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let rates: Vec<f64> = reps
        .iter()
        .map(|(k, _, r)| r.outcome.digest.events() as f64 / (r.run_s * k))
        .collect();
    let mut report = checker.report;
    report.set("events_per_s", median(&rates));
    report.set("wall_s", median_of(&reps, |(k, _, r)| r.wall_s * k));
    report.set("setup_s", median(&setup));
    report.set("cpu_s", median_of(&reps, |(_, k, r)| r.cpu_s * k));
    report.set("peak_rss_mb", host::peak_rss_mib());
    let passed = report.attempted - report.failed;
    report.set("pass_share", ratio(passed, report.attempted));
    report.notes.push(format!(
        "runs: {} of {sim_secs} simulated s over scenario seeds {}..={}, {} set-ups timed",
        reps.len(),
        scenario_seed(seed, 0),
        scenario_seed(seed, SEED_MIX - 1),
        setup.len(),
    ));
    report.notes.push(format!(
        "host speed: median scale {:.3} (reference-host seconds per second); unscaled \
         medians {:.0} events/s, {:.4} s wall",
        median_of(&reps, |(k, _, _)| *k),
        median_of(&reps, |(_, _, r)| r.outcome.digest.events() as f64
            / r.run_s),
        median_of(&reps, |(_, _, r)| r.wall_s),
    ));
    report.notes.push(format!(
        "events/s per run: min {:.0} q1 {:.0} median {:.0} q3 {:.0} max {:.0}",
        quantile(&rates, 0.0),
        quantile(&rates, 0.25),
        quantile(&rates, 0.5),
        quantile(&rates, 0.75),
        quantile(&rates, 1.0),
    ));
    report
}

/// One traced run: wrappers on every agent and queue of a world
/// assembled from public calls, with spans around build, run and collect.
/// The run is advanced one slice at a time with epoch loads recorded.
struct TracedRep {
    build_s: f64,
    routes_s: f64,
    /// Seconds inside the engine's run calls.
    engine_s: f64,
    run_span_s: f64,
    collect_s: f64,
    wall_s: f64,
    domains: usize,
    slices: Vec<f64>,
    loads: Option<Vec<Vec<u64>>>,
    wrappers: Wrappers,
    outcome: Outcome,
}

fn traced_rep(w: Workload, seed: u64, sim_secs: u64) -> TracedRep {
    let start = Instant::now();
    let mut wrappers = Wrappers::default();
    let (mut built, routes_s) = w.assemble(seed, sim_secs, Some(&mut wrappers));
    wrappers.wrap_queues(built.engine_mut().world_mut());
    built.engine_mut().record_epoch_loads(true);
    let build_s = start.elapsed().as_secs_f64();

    let run = Instant::now();
    let mut slices = Vec::new();
    let engine_s = built.run(Some(SLICE), |secs| slices.push(secs * 1e3));
    let run_span_s = run.elapsed().as_secs_f64();

    let collect = Instant::now();
    let outcome = built.collect();
    let collect_s = collect.elapsed().as_secs_f64();
    let wall_s = start.elapsed().as_secs_f64();

    // The classic loop of an unpartitioned world records no loads.
    let loads = built
        .engine()
        .epoch_loads()
        .filter(|l| !l.is_empty())
        .map(<[Vec<u64>]>::to_vec);
    TracedRep {
        build_s,
        routes_s,
        engine_s,
        run_span_s,
        collect_s,
        wall_s,
        domains: built.engine().domain_count(),
        slices,
        loads,
        wrappers,
        outcome,
    }
}

/// Events on the critical path of a `workers`-wide epoch run: each epoch
/// waits for its most loaded worker, and domain `d` runs on worker
/// `d % workers`, as in the engine.
fn critical_path_events(loads: &[Vec<u64>], workers: usize) -> u64 {
    loads
        .iter()
        .map(|row| {
            let mut buckets = vec![0u64; workers];
            for (d, &n) in row.iter().enumerate() {
                buckets[d % workers] += n;
            }
            buckets.into_iter().max().unwrap_or(0)
        })
        .sum()
}

/// Per-layer metrics: alternating untraced and traced runs of the
/// workload's first scenario seed until `seconds` have passed, reported
/// from the traced run of median wall time. For a partitioned workload
/// each round adds two untraced comparison runs, one on a single domain
/// and one with a worker thread per domain, which measure the threaded
/// executor's speedup.
pub fn traced(w: Workload, seed: u64, seconds: f64, sim_secs: u64) -> Report {
    let seed = scenario_seed(seed, 0);
    let mut checker = Checker::new(w, sim_secs);
    let domains = w.domains();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut one_domain, mut threaded) = (Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        let run = || untraced_rep(w, seed, sim_secs, domains, 1, None);
        plain.extend(checker.attempt("untraced run", seed, run, |r| &r.outcome));
        let run = || traced_rep(w, seed, sim_secs);
        traced.extend(checker.attempt("traced run", seed, run, |r| &r.outcome));
        if domains > 1 {
            let run = || untraced_rep(w, seed, sim_secs, 1, 1, None);
            one_domain.extend(checker.attempt("one-domain run", seed, run, |r| &r.outcome));
            let run = || untraced_rep(w, seed, sim_secs, domains, domains, None);
            threaded.extend(checker.attempt("threaded run", seed, run, |r| &r.outcome));
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let mut report = checker.report;
    if report.failed > 0 {
        return report;
    }

    traced.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    let t = &traced[(traced.len() - 1) / 2];
    report.set("scenario.build_s", t.build_s);
    report.set("scenario.routes_s", t.routes_s);
    report.set("scenario.collect_s", t.collect_s);

    let run_s = t.engine_s;
    let child_s = t.wrappers.child_ns() as f64 * 1e-9;
    let d = &t.outcome.digest;
    report.set("engine.run_s", run_s);
    report.set("engine.self_s", run_s - child_s);
    report.set("engine.ns_per_event", run_s * 1e9 / d.events() as f64);
    report.set("engine.events", d.events() as f64);
    report.set("engine.enqueues", d.enqueues as f64);
    report.set("engine.drops", d.drops as f64);
    report.set("engine.tx_starts", d.tx_starts as f64);
    report.set("engine.arrivals", d.arrivals as f64);
    report.set("engine.deliveries", d.deliveries as f64);
    report.set("engine.slice_ms.p50", quantile(&t.slices, 0.5));
    report.set("engine.slice_ms.p95", quantile(&t.slices, 0.95));
    report.set("arena.capacity", t.outcome.arena_capacity as f64);
    report.set("engine.live_packets_end", t.outcome.live_packets as f64);

    for kind in QueueKind::ALL {
        let q = t.wrappers.queue_totals(kind);
        let values = [
            q.enqueue_calls as f64,
            ratio(q.enqueue_ns, q.enqueue_calls),
            q.dequeue_calls as f64,
            ratio(q.dequeue_ns, q.dequeue_calls),
            ratio(q.dequeue_hits, q.dequeue_calls),
            ratio(q.drops, q.enqueue_calls),
            (q.enqueue_ns + q.dequeue_ns) as f64 * 1e-9,
        ];
        for ((field, _), v) in QUEUE_FIELDS.iter().zip(values) {
            report.set(format!("queue.{}.{field}", kind.name()), v);
        }
    }
    let o = &t.outcome;
    report.set("fault.drop_ratio", ratio(o.fault_drops, o.offered));
    for kind in AgentKind::ALL {
        let a = t.wrappers.agent_totals(kind);
        let values = [
            a.packet_calls as f64,
            ratio(a.packet_ns, a.packet_calls),
            a.timer_calls as f64,
            ratio(a.timer_ns, a.timer_calls),
            (a.packet_ns + a.timer_ns + a.start_ns) as f64 * 1e-9,
        ];
        for ((field, _), v) in AGENT_FIELDS.iter().zip(values) {
            report.set(format!("{}.{field}", kind.name()), v);
        }
    }
    report.set("rla.retransmit_ratio", o.rla.retransmit_ratio());
    report.set("tcp.retransmit_ratio", o.tcp.retransmit_ratio());
    report.set("rla.window_cuts", o.rla.window_cuts as f64);
    report.set("tcp.timeouts", o.tcp.timeouts as f64);

    let (epochs, model_speedup) = match &t.loads {
        Some(l) => {
            let events: u64 = l.iter().flatten().sum();
            (l.len(), ratio(events, critical_path_events(l, domains)))
        }
        None => (0, 1.0),
    };
    report.set("exchange.domains", t.domains as f64);
    report.set("exchange.epochs", epochs as f64);
    report.set("exchange.load_imbalance", domains as f64 / model_speedup);
    report.set("exchange.model_speedup", model_speedup);
    // A single-domain workload has no threaded run to compare: its
    // speedup is 1, its exchange overhead 0 and its CPU use that of the
    // measured runs.
    let (measured_speedup, overhead_s, cpu_per_wall) = if domains > 1 {
        let sequential = median_of(&one_domain, |r| r.run_s);
        let parallel = median_of(&threaded, |r| r.run_s);
        let speedup = sequential / parallel;
        let overhead = parallel - sequential / model_speedup;
        report.notes.push(format!(
            "exchange: {domains} domains on {domains} threads take {parallel:.3} s, one domain \
             {sequential:.3} s: measured speedup {speedup:.3}, modeled speedup \
             {model_speedup:.3}, overhead {overhead:.3} s"
        ));
        let cpu = median_of(&threaded, |r| r.cpu_s / r.wall_s);
        (speedup, overhead, cpu)
    } else {
        (1.0, 0.0, median_of(&plain, |r| r.cpu_s / r.wall_s))
    };
    report.set("exchange.measured_speedup", measured_speedup);
    report.set("exchange.overhead_s", overhead_s);
    report.set("exchange.cpu_per_wall", cpu_per_wall);
    report.set(
        "trace.overhead_ratio",
        median_of(&traced, |r| r.wall_s) / median_of(&plain, |r| r.wall_s),
    );
    report.notes.push(format!(
        "spans: build {:.4} s + run {:.4} s + collect {:.4} s of {:.4} s traced wall; \
         {} traced and {} untraced runs",
        t.build_s,
        t.run_span_s,
        t.collect_s,
        t.wall_s,
        traced.len(),
        plain.len()
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::id::NodeId;
    use netsim::time::SimTime;

    fn outcome(digest: TraceDigest, conservation: Result<(), String>) -> Outcome {
        Outcome {
            digest,
            conservation,
            offered: 0,
            fault_drops: 0,
            rla: Default::default(),
            tcp: Default::default(),
            arena_capacity: 0,
            live_packets: 0,
        }
    }

    #[test]
    fn wrong_digests_broken_conservation_and_panics_fail_the_run() {
        let w = Workload::TreeCase1DropTail;
        let empty = || outcome(TraceDigest::new(), Ok(()));
        let mut pinned = Checker::new(w, w.sim_secs());
        assert!(pinned
            .attempt("run", scenario_seed(1, 0), empty, |o| o)
            .is_none());

        let mut other = TraceDigest::new();
        other.record_arrive(SimTime::ZERO, NodeId::from(0), 1);
        let mut c = Checker::new(w, 4);
        assert!(c.attempt("run", 3, empty, |o| o).is_some());
        assert!(c
            .attempt("run", 3, || outcome(other.clone(), Ok(())), |o| o)
            .is_none());
        assert!(c
            .attempt("run", 4, || outcome(other, Err("leak".into())), |o| o)
            .is_none());
        assert!(c
            .attempt("run", 5, || -> Outcome { panic!("boom") }, |o| o)
            .is_none());
        assert_eq!((c.report.attempted, c.report.failed), (4, 3));
    }

    #[test]
    fn spans_account_for_the_traced_wall_time() {
        for w in Workload::ALL {
            let t = traced_rep(w, 3, 8);
            let spans = t.build_s + t.run_span_s + t.collect_s;
            assert!((t.wall_s - spans).abs() <= 0.02 * t.wall_s, "{}", w.name());
        }
    }
}
