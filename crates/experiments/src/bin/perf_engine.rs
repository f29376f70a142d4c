//! Engine throughput on the paper's workload: wall-clocks the fig-7
//! drop-tail scenario (case 1, every gateway drop-tail) and reports
//! simulator events per wall-second.
//!
//! The number this prints is the repo's headline perf metric: the run
//! manifest (`BENCH_engine.manifest.json`) records it together with the
//! trace digest, so a perf regression *and* a behaviour change are both
//! one `git diff` away. Set `RLA_BENCH_BASELINE` (events/sec) to a
//! previously recorded figure to get a speedup ratio in the manifest.
//!
//! Honours `RLA_DURATION_SECS` (default 60 s here — this is a bench, not
//! a table regeneration) and `RLA_SEED`.
//!
//! With `RLA_BENCH_GATE_PCT=<p>` the bench becomes a regression gate: it
//! reads the committed `BENCH_engine.manifest.json` before overwriting it
//! and exits nonzero if events/s fell more than `p` percent below the
//! recorded figure. CI uses `p = 5` to pin the telemetry-disabled hot
//! path to the baseline.
//!
//! A second phase benches the partitioned executor on the case-5 60 s
//! scenario and writes `BENCH_engine_parallel.manifest.json`. The
//! sequential figure (`events_per_sec`) is the merged-to-one-domain run
//! — the `RLA_SHARDS=1` production path — whose measured per-region
//! event counts then steer the cost-aware merge for the 2- and 4-domain
//! runs. Each of those runs single-worker with per-epoch load recording
//! armed, and the modeled aggregate is that run's measured throughput
//! times a critical-path speedup over the recorded loads — each epoch
//! costs its most-loaded worker bucket (the barrier waits for it), so
//! the model is exact for the round-robin placement the engine uses and
//! independent of how many cores the bench machine happens to have. The
//! same gate percentage applies to this manifest's sequential figure.

use std::time::Instant;

use experiments::manifest::{results_dir, write_manifest};
use experiments::prelude::*;

/// `events_per_sec` from a committed bench manifest, if one exists and
/// parses.
fn committed_events_per_sec(manifest: &str) -> Option<f64> {
    let text = std::fs::read_to_string(results_dir().join(manifest)).ok()?;
    Json::parse(&text)
        .ok()?
        .get("events_per_sec")
        .and_then(Json::as_f64)
}

/// Events on the critical path of a `workers`-wide run: per epoch, the
/// barrier releases when the most-loaded bucket finishes, so the epoch
/// costs `max` over buckets of the bucket's event total (domains are
/// placed round-robin, `domain % workers`, exactly as the engine does).
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

/// Exit nonzero when `events_per_sec` fell more than `pct` percent below
/// the figure committed in `manifest` before this run overwrote it.
fn apply_gate(manifest: &str, committed: Option<f64>, events_per_sec: f64, pct: f64) {
    let Some(base) = committed else {
        eprintln!("gate: RLA_BENCH_GATE_PCT set but no committed {manifest} to compare");
        std::process::exit(1);
    };
    let floor = base * (1.0 - pct / 100.0);
    println!("gate floor         {floor:>12.0} ({pct}% below {base:.0})");
    if events_per_sec < floor {
        eprintln!(
            "gate: FAIL — {events_per_sec:.0} ev/s is more than {pct}% below the committed {base:.0} in {manifest}"
        );
        std::process::exit(1);
    }
    println!("gate               {:>12}", "ok");
}

fn main() {
    let duration = cli::duration_or(SimDuration::from_secs(60));
    // Read before the run: the manifest writes below overwrite the files
    // the gates compare against.
    let committed = committed_events_per_sec("BENCH_engine.manifest.json");
    let committed_parallel = committed_events_per_sec("BENCH_engine_parallel.manifest.json");
    let spec = ScenarioSpec::paper(CongestionCase::Case1RootLink)
        .with_gateway(GatewayKind::DropTail)
        .with_duration(duration)
        .with_seed(cli::base_seed());
    eprintln!(
        "perf_engine: fig-7 case-1 drop-tail, {:.0} s simulated...",
        duration.as_secs_f64()
    );

    let scenario = spec.build();
    let mut world = scenario.build();
    let wall = Instant::now();
    let result = world.run(&scenario);
    let wall_secs = wall.elapsed().as_secs_f64();

    let events = result.trace_events;
    let events_per_sec = events as f64 / wall_secs;
    println!("simulated          {:>12.0} s", duration.as_secs_f64());
    println!("packet events      {events:>12}");
    println!("wall clock         {wall_secs:>12.2} s");
    println!("events / wall-sec  {events_per_sec:>12.0}");

    let mut fields: Vec<(&str, Json)> = vec![
        ("binary", "perf_engine".into()),
        ("scenario", "fig7 case1 drop-tail".into()),
        ("duration_secs", duration.as_secs_f64().into()),
        ("seed", result.seed.into()),
        (
            "trace_digest",
            format!("{:016x}", result.trace_digest).into(),
        ),
        ("trace_events", events.into()),
        ("wall_secs", wall_secs.into()),
        ("events_per_sec", events_per_sec.into()),
    ];
    let baseline = std::env::var("RLA_BENCH_BASELINE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok());
    if let Some(base) = baseline {
        let speedup = events_per_sec / base;
        println!("baseline           {base:>12.0}");
        println!("speedup            {speedup:>12.2}x");
        fields.push(("baseline_events_per_sec", base.into()));
        fields.push(("speedup", speedup.into()));
    }
    match write_manifest("BENCH_engine", &Json::obj(fields)) {
        Ok(path) => eprintln!("manifest: {}", path.display()),
        Err(e) => eprintln!("manifest: could not write BENCH_engine.manifest.json: {e}"),
    }

    if let Some(pct) = cli::bench_gate_pct() {
        apply_gate("BENCH_engine.manifest.json", committed, events_per_sec, pct);
    }

    // ------------------------------------------------------------------
    // Phase 2: partitioned executor on the case-5 scenario.
    // ------------------------------------------------------------------
    eprintln!(
        "perf_engine: case-5 drop-tail partitioned, {:.0} s simulated...",
        duration.as_secs_f64()
    );
    let spec = ScenarioSpec::paper(CongestionCase::Case5OneLevel2)
        .with_gateway(GatewayKind::DropTail)
        .with_duration(duration)
        .with_seed(cli::base_seed());

    // 2a: the RLA_SHARDS=1 production path — the merge pass collapses
    // the fine partition into one domain, so this is the sequential
    // figure the gate pins. The run also yields the measured per-region
    // event counts that steer the cost-aware merge below.
    let scenario = spec.build().with_shards(1);
    let mut world = scenario.build();
    let wall = Instant::now();
    let result = world.run(&scenario);
    let wall_secs = wall.elapsed().as_secs_f64();

    let costs = world.engine.region_event_counts();
    let regions = world.engine.region_count();
    let events = result.trace_events;
    let events_per_sec_seq = events as f64 / wall_secs;
    println!("regions            {regions:>12}");
    println!("packet events      {events:>12}");
    println!("wall clock         {wall_secs:>12.2} s");
    println!("events / wall-sec  {events_per_sec_seq:>12.0}  (1 shard, measured)");

    let mut fields: Vec<(&str, Json)> = vec![
        ("binary", "perf_engine".into()),
        ("scenario", "case5 one-level-2 drop-tail partitioned".into()),
        ("duration_secs", duration.as_secs_f64().into()),
        ("seed", result.seed.into()),
        (
            "trace_digest",
            format!("{:016x}", result.trace_digest).into(),
        ),
        ("trace_events", events.into()),
        ("domains", (regions as u64).into()),
        ("wall_secs", wall_secs.into()),
        ("events_per_sec", events_per_sec_seq.into()),
    ];

    // 2b: cost-aware merges at 2 and 4 domains, run single-worker with
    // load recording armed so the critical-path model can price the
    // epoch barriers of a genuinely parallel run.
    let mut epochs = 0u64;
    for shards in [2usize, 4] {
        let scenario = spec
            .build()
            .with_shards(shards)
            .with_domain_costs(costs.clone());
        let mut world = scenario.build();
        world.engine.set_workers(1);
        world.engine.record_epoch_loads(true);
        let wall = Instant::now();
        let result = world.run(&scenario);
        let wall_secs = wall.elapsed().as_secs_f64();
        assert_eq!(
            result.trace_events, events,
            "shard count changed the event count"
        );
        let loads: Vec<Vec<u64>> = world
            .engine
            .epoch_loads()
            .expect("a single-worker run records epoch loads")
            .to_vec();
        epochs = loads.len() as u64;
        let rate = events as f64 / wall_secs;
        let crit = critical_path_events(&loads, shards);
        let speedup = events as f64 / crit as f64;
        let aggregate = rate * speedup;
        println!(
            "events / wall-sec  {aggregate:>12.0}  ({shards} shards, modeled, {speedup:.2}x of {rate:.0})"
        );
        fields.push((
            match shards {
                2 => "events_per_sec_2_shards",
                _ => "events_per_sec_4_shards",
            },
            aggregate.into(),
        ));
        fields.push((
            match shards {
                2 => "model_speedup_2_shards",
                _ => "model_speedup_4_shards",
            },
            speedup.into(),
        ));
    }
    fields.insert(7, ("epochs", epochs.into()));
    match write_manifest("BENCH_engine_parallel", &Json::obj(fields)) {
        Ok(path) => eprintln!("manifest: {}", path.display()),
        Err(e) => eprintln!("manifest: could not write BENCH_engine_parallel.manifest.json: {e}"),
    }

    if let Some(pct) = cli::bench_gate_pct() {
        apply_gate(
            "BENCH_engine_parallel.manifest.json",
            committed_parallel,
            events_per_sec_seq,
            pct,
        );
    }
}
