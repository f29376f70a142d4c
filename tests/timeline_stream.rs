//! The streamed telemetry run (`debug_probe`'s path) hands back the file
//! it wrote, and that file holds the run's samples as JSONL.

use experiments::cli::TelemetryOptions;
use experiments::{CongestionCase, Json, ScenarioSpec};
use netsim::time::SimDuration;

#[test]
fn streamed_run_returns_a_nonempty_jsonl_timeline() {
    let dir = std::env::temp_dir().join(format!("timeline-stream-{}", std::process::id()));
    let scenario = ScenarioSpec::paper(CongestionCase::Case1RootLink)
        .with_duration(SimDuration::from_secs(5))
        .with_seed(1)
        .build();
    let mut world = scenario.build();
    let opts = TelemetryOptions {
        timeline: true,
        dir: dir.clone(),
        ..TelemetryOptions::default()
    };
    let (_, rec, path) = world.run_with_telemetry_streamed(&scenario, &opts, "stream_test");
    assert!(rec.stream_path().is_none(), "the stream is finished");
    assert_eq!(path, dir.join("stream_test.timeline.jsonl"));

    let text = std::fs::read_to_string(&path).expect("the streamed timeline exists");
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty(), "{} is empty", path.display());
    for line in &lines {
        assert!(Json::parse(line).is_ok(), "not JSON: {line}");
    }
    assert!(
        lines.iter().any(|l| l.contains("\"rla.0\"")),
        "the RLA flow series is missing"
    );
    std::fs::remove_dir_all(&dir).expect("remove the temp dir");
}
