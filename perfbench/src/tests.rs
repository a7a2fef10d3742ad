//! Smoke tests of the benchmark itself, at tiny sizes.

use super::*;
use serde_json::Value;
use std::collections::BTreeMap;

fn tiny(kind: Kind, seed: u64, traced: bool) -> Outcome {
    run(&RunSpec {
        kind,
        size: Size::TINY,
        seed,
        seconds: 0.0,
        min_passes: 1,
        traced,
    })
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let field = |m: &Value, key: &str| {
        m.as_object().expect("metric object")[key]
            .as_str()
            .expect("string field")
            .to_string()
    };
    doc.as_object().expect("top-level object")[section]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

/// `(name, unit)` of every metric in the printed result line, after
/// checking the line's shape.
fn printed(outcome: &Outcome) -> Vec<(String, String)> {
    let doc: Value = serde_json::from_str(&outcome.to_json()).expect("result line is JSON");
    let obj = doc.as_object().expect("result object");
    let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    obj["metrics"]
        .as_object()
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let m = m.as_object().expect("metric object");
            assert!(matches!(m["value"], Value::Num(_)), "{name} has a number");
            (name.clone(), m["unit"].as_str().expect("unit").to_string())
        })
        .collect()
}

fn sorted(mut v: Vec<(String, String)>) -> Vec<(String, String)> {
    v.sort();
    v
}

#[test]
fn every_named_metric_is_printed_with_its_unit() {
    for kind in Kind::ALL {
        let plain = tiny(kind, 1, false);
        assert_eq!(
            sorted(printed(&plain)),
            sorted(declared("end_to_end")),
            "{}",
            kind.name()
        );
        let traced = tiny(kind, 1, true);
        assert_eq!(
            sorted(printed(&traced)),
            sorted(declared("per_layer")),
            "{}",
            kind.name()
        );
        for m in &plain.metrics {
            assert!(m.value > 0.0, "{} {} is {}", kind.name(), m.name, m.value);
        }
    }
}

#[test]
fn match_error_share_is_zero() {
    for kind in Kind::ALL {
        let out = tiny(kind, 3, true);
        assert!(out.correct(), "{}: {:?}", kind.name(), out.notes);
        assert!(out.attempted > 0);
        assert_eq!(out.metric("match_error_share"), 0.0, "{}", kind.name());
        assert!(
            out.metric("sink.reference_matches") > 0.0,
            "{}",
            kind.name()
        );
    }
}

const DETERMINISTIC: [&str; 11] = [
    "net.messages",
    "net.bytes",
    "net.local_deliveries",
    "join.inputs",
    "join.probes",
    "join.merge_attempts",
    "join.evicted",
    "join.peak_buffered",
    "plan.projections",
    "ckpt.bytes",
    "ckpt.last_snapshot_bytes",
];

fn counters(out: &Outcome) -> BTreeMap<&'static str, f64> {
    DETERMINISTIC.iter().map(|&n| (n, out.metric(n))).collect()
}

#[test]
fn deterministic_counters_repeat_per_seed_and_differ_across_seeds() {
    for kind in Kind::ALL {
        let a = counters(&tiny(kind, 5, true));
        let b = counters(&tiny(kind, 5, true));
        let c = counters(&tiny(kind, 6, true));
        assert_eq!(a, b, "{}: same seed", kind.name());
        for name in ["net.messages", "net.bytes", "join.inputs", "ckpt.bytes"] {
            assert_ne!(a[name], c[name], "{}: {name} across seeds", kind.name());
        }
    }
}

#[test]
fn traced_spans_nest_and_self_times_cover_the_run() {
    let out = tiny(Kind::Cluster, 2, true);
    let spans = out.tracer.spans();
    assert_eq!(spans[0].name, "run");
    for (i, s) in spans.iter().enumerate() {
        assert!(s.start_ns <= s.end_ns, "span {i} is closed");
        match s.parent {
            None => assert_eq!(i, 0, "only the run span is a root"),
            Some(p) => {
                assert!(p < i);
                let parent = &spans[p];
                assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
            }
        }
    }
    for layer in [
        "generate",
        "check.reference",
        "plan.estimate",
        "plan.construct",
        "deploy.verify",
        "deploy.build",
        "exec.sim",
        "exec.sim.chunk",
        "ckpt.snapshot",
        "ckpt.restore",
        "exec.resume",
        "exec.threaded",
        "check.matches",
    ] {
        assert!(spans.iter().any(|s| s.name == layer), "no {layer} span");
    }
    let self_ns = out.tracer.self_times_ns();
    let wall = spans[0].duration_ns() as f64 / 1e9;
    let below_root: f64 = self_ns[1..].iter().sum::<u64>() as f64 / 1e9;
    let uncovered = out.metric("trace.uncovered_s");
    assert!(
        (below_root - (wall - uncovered)).abs() < 1e-6,
        "self times {below_root} vs wall {wall} less uncovered {uncovered}"
    );
    assert!(out.metric("trace.overhead_ratio").is_finite());
}

#[test]
fn reference_counts_missing_spurious_and_duplicate_matches() {
    use muse_runtime::sim::{run_simulation, SimConfig};
    let inputs = generate(Kind::Cluster, Size::TINY, 4);
    let reference = Reference::compute(&inputs);
    let setup = workloads::setup(&inputs, &mut Tracer::new(0, false)).expect("plan deploys");
    let dep = &setup.deployment;
    let report = run_simulation(dep, &inputs.segments[0], &SimConfig::default());
    let matches = report.matches;
    assert_eq!(reference.errors(0, dep, &matches), 0);

    let q = matches
        .iter()
        .position(|m| !m.is_empty())
        .expect("some match");
    let mut missing = matches.clone();
    missing[q].pop();
    assert_eq!(reference.errors(0, dep, &missing), 1);

    let mut duplicated = matches.clone();
    let extra = duplicated[q][0].clone();
    duplicated[q].push(extra);
    assert_eq!(reference.errors(0, dep, &duplicated), 1);

    // Segment 1's matches checked against segment 0's reference are wrong.
    let other = run_simulation(dep, &inputs.segments[1], &SimConfig::default());
    assert!(reference.errors(0, dep, &other.matches) > 0);
}
