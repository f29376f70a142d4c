//! Short runs of every workload: each passes its checks and reports every
//! catalogued metric with its unit, the catalogue matches
//! `BENCHMARK.json`, and the wrappers and the re-assembled trees leave the
//! trace digest unchanged.

use experiments::Json;
use simbench::measure;
use simbench::report::{end_to_end, per_layer};
use simbench::{Workload, Wrappers};

/// Simulated seconds of a test run: long enough for every agent to send,
/// short enough for a debug build.
const SIM_SECS: u64 = 8;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(json: &Json, section: &str) -> Vec<(String, String)> {
    json.get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a {section} list"))
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn owned(catalogue: &[(String, &str)]) -> Vec<(String, String)> {
    catalogue
        .iter()
        .map(|(n, u)| (n.clone(), u.to_string()))
        .collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    let json = benchmark_json();
    assert_eq!(declared(&json, "end_to_end"), owned(&end_to_end()));
    assert_eq!(declared(&json, "per_layer"), owned(&per_layer()));
    let workloads: Vec<&str> = json
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads list")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

/// The result line carries exactly the catalogue, each metric with its
/// unit and a finite value.
fn assert_reports(report: &simbench::Report, catalogue: &[(String, &'static str)]) {
    assert_eq!(report.failed, 0, "{:#?}", report.notes);
    assert!(report.attempted >= 1);
    let line = report.result_line(catalogue);
    let result = Json::parse(&line).expect("result line is JSON");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics");
    assert_eq!(metrics.len(), catalogue.len());
    for ((name, unit), (key, entry)) in catalogue.iter().zip(metrics) {
        assert_eq!(name, key);
        assert_eq!(entry.get("unit").and_then(Json::as_str), Some(*unit));
        let v = entry.get("value").and_then(Json::as_f64);
        assert!(v.is_some_and(f64::is_finite), "{name} = {v:?}");
    }
}

#[test]
fn every_workload_reports_every_metric_and_passes_its_checks() {
    for w in Workload::ALL {
        let report = measure::untraced(w, 7, 0.0, SIM_SECS);
        assert_reports(&report, &end_to_end());
        assert_eq!(report.values["pass_share"], 1.0);

        let report = measure::traced(w, 7, 0.0, SIM_SECS);
        assert_reports(&report, &per_layer());
        let v = &report.values;
        // Inside the run span, engine self time plus the queue and agent
        // child time is the time inside the run calls.
        let children: f64 = v
            .iter()
            .filter(|(name, _)| {
                let layer = ["queue.", "rla.", "tcp."]
                    .iter()
                    .any(|p| name.starts_with(p));
                layer && name.ends_with(".self_s")
            })
            .map(|(_, value)| value)
            .sum();
        let run = v["engine.run_s"];
        assert!((v["engine.self_s"] + children - run).abs() <= 1e-9 * run.max(1.0));
        assert!(v["engine.events"] > 0.0 && v["rla.sender.on_packet_calls"] > 0.0);
    }
}

#[test]
fn wrappers_and_reassembled_worlds_keep_the_digest() {
    for w in Workload::ALL {
        let mut program = w.build(3, SIM_SECS, w.domains(), 1);
        program.run(None, |_| {});
        let expected = program.collect().digest;

        let (mut bare, _) = w.assemble(3, SIM_SECS, None);
        bare.run(None, |_| {});
        assert_eq!(
            bare.collect().digest,
            expected,
            "{}: re-assembled",
            w.name()
        );

        let mut wrappers = Wrappers::default();
        let (mut wrapped, _) = w.assemble(3, SIM_SECS, Some(&mut wrappers));
        wrappers.wrap_queues(wrapped.engine_mut().world_mut());
        wrapped.run(None, |_| {});
        assert_eq!(wrapped.collect().digest, expected, "{}: wrapped", w.name());
        assert!(wrappers.child_ns() > 0);
    }
}

#[test]
fn the_threaded_run_keeps_the_digest() {
    let w = Workload::TreeCase5Red2Domains;
    let mut inline = w.build(5, SIM_SECS, w.domains(), 1);
    inline.run(None, |_| {});
    let mut threaded = w.build(5, SIM_SECS, w.domains(), w.domains());
    threaded.run(None, |_| {});
    assert_eq!(threaded.collect().digest, inline.collect().digest);
}
