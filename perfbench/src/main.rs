//! The repository benchmark: one command that generates a workload from a
//! seed, drives the MuSE planner and both executors through their public
//! entry points, checks every executor run against the centralized
//! `Evaluator`, and prints every metric of `BENCHMARK.json` by name with
//! its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cluster --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` the last line of standard output is a JSON object with
//! the end-to-end metrics; with `--trace 1` it holds the per-layer metrics
//! of a traced run, whose spans are also written to
//! `perfbench/out/spans-<workload>-<seed>.jsonl`. A readable table goes to
//! standard error. See `perfbench/README.md` for the metric-to-layer map.

mod spans;
mod stats;
mod workloads;

use spans::Tracer;
use stats::{mean, median, quantile};
use std::fmt::Write as _;
use std::time::Instant;
use workloads::{generate, pass, Inputs, Kind, Pass, Reference, Size, SETUPS_PER_PASS};

/// A reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one benchmark run.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub tracer: Tracer,
    /// Context lines for the readable report (sample counts, sizes).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn metric(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} not reported"))
            .value
    }

    /// The result object printed as the last line of standard output.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no NaN or infinity; a metric that cannot be
            // computed is reported as null (and the run as failed).
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// How a run measures.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    pub kind: Kind,
    pub size: Size,
    pub seed: u64,
    /// Measuring time; passes repeat until it is used up.
    pub seconds: f64,
    /// Minimum passes (per mode, in a traced run) regardless of time.
    pub min_passes: usize,
    pub traced: bool,
}

/// Runs one workload: generate, compute the reference, then repeat passes
/// for the measuring time and summarize them.
pub fn run(spec: &RunSpec) -> Outcome {
    let run_id = spec.seed.rotate_left(32)
        ^ std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
    let mut tr = Tracer::new(run_id, spec.traced);
    let root = tr.enter("run");
    let (inputs, _) = tr.time("generate", |_| generate(spec.kind, spec.size, spec.seed));
    let (reference, reference_s) = tr.time("check.reference", |_| Reference::compute(&inputs));
    // `peak_rss_mb` covers the passes only, not the reference evaluation.
    reset_peak_rss();

    let mut attempted = 0;
    let mut failed = 0;
    let mut errors = Vec::new();
    // (pass, wall seconds) per mode; `plain` passes run with spans off.
    let mut plain: Vec<(Pass, f64)> = Vec::new();
    let mut traced: Vec<(Pass, f64)> = Vec::new();
    let start = Instant::now();
    loop {
        let enough = |v: &Vec<(Pass, f64)>| v.len() >= spec.min_passes;
        let done = start.elapsed().as_secs_f64() >= spec.seconds
            && enough(&plain)
            && (!spec.traced || enough(&traced));
        if done {
            break;
        }
        // A traced run alternates plain and traced passes, so that the
        // difference between the two is the tracing overhead.
        let trace_this = spec.traced && traced.len() < plain.len();
        let (result, secs) = if trace_this {
            tr.time("pass", |tr| pass(&inputs, &reference, tr))
        } else {
            let id = tr.enter("pass.untraced");
            let was_on = tr.set_on(false);
            let r = tr.time("pass", |tr| pass(&inputs, &reference, tr));
            tr.set_on(was_on);
            tr.exit(id);
            r
        };
        // One set-up plus the checked executor runs of the pass.
        attempted += 1;
        match result {
            Ok(p) => {
                attempted += p.runs;
                failed += p.failed_runs;
                if p.match_errors > 0 {
                    errors.push(format!("{} mismatched sink matches", p.match_errors));
                }
                if trace_this { &mut traced } else { &mut plain }.push((p, secs));
            }
            Err(e) => {
                failed += 1;
                errors.push(e);
                break;
            }
        }
    }
    tr.exit(root);

    let mut notes = errors;
    if reference.matches() == 0 {
        // A benchmark whose reference finds nothing measures nothing.
        failed += 1;
        notes.push("the reference produced no matches".to_string());
    }
    let mut metrics = Vec::new();
    if let Some((last, _)) = plain.last() {
        notes.push(format!(
            "{} events in {} segments, {} reference matches per replay, {} threads per threaded run, {} cores",
            inputs.events(),
            inputs.segments.len(),
            reference.matches(),
            inputs.threads(),
            cores()
        ));
        notes.push(format!(
            "{} passes; latency samples per pass: {}",
            plain.len(),
            last.latencies_ns.len()
        ));
        for (p, _) in &plain {
            notes.push(format!(
                "pass: setup median {:.4} s, sim {:.3} s, threaded {:.3} s, latency mean {:.3} ms, p50 {:.3} ms, p90 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms",
                median(&p.setup_secs),
                p.sim_s,
                p.threaded_s,
                mean(&p.latencies_ns) / 1e6,
                quantile(&p.latencies_ns, 0.5) / 1e6,
                quantile(&p.latencies_ns, 0.9) / 1e6,
                quantile(&p.latencies_ns, 0.95) / 1e6,
                quantile(&p.latencies_ns, 0.99) / 1e6,
            ));
        }
        if !spec.traced {
            metrics = end_to_end(&inputs, &plain);
        } else if !traced.is_empty() {
            metrics = per_layer(&inputs, &reference, &plain, &traced, &tr, reference_s);
        }
    }
    if metrics.iter().any(|m| !m.value.is_finite()) {
        failed += 1;
    }
    Outcome {
        attempted,
        failed,
        metrics,
        tracer: tr,
        notes,
    }
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Medians over passes of a per-pass figure.
fn med(passes: &[(Pass, f64)], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(|(p, _)| f(p)).collect::<Vec<_>>())
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den as f64
}

/// Resets the peak resident set size to the current one (Linux 4.0 and
/// later). Where the reset is not supported, `peak_rss_mb` stays the
/// peak of the whole process.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn end_to_end(inputs: &Inputs, passes: &[(Pass, f64)]) -> Vec<Metric> {
    let events = inputs.events() as f64;
    let last = &passes.last().expect("at least one pass").0;
    // Set-up time and throughput are totals over the whole run: all set-up
    // time over the set-ups, every replayed event over all the replay
    // time. The machine's speed can switch between two states lasting
    // seconds to minutes; a total moves smoothly with the share of time
    // spent in each, where a median jumps between them.
    let setups = passes
        .iter()
        .map(|(p, _)| p.setup_secs.len())
        .sum::<usize>();
    let setup_s = passes.iter().flat_map(|(p, _)| &p.setup_secs).sum::<f64>();
    let throughput = |secs: fn(&Pass) -> f64| {
        events * passes.len() as f64 / passes.iter().map(|(p, _)| secs(p)).sum::<f64>()
    };
    vec![
        Metric {
            name: "setup_s",
            value: setup_s / setups as f64,
            unit: "s",
        },
        Metric {
            name: "sim_events_per_s",
            value: throughput(|p| p.sim_s),
            unit: "events/s",
        },
        Metric {
            name: "events_per_s",
            value: throughput(|p| p.threaded_s),
            unit: "events/s",
        },
        Metric {
            name: "transmission_ratio",
            value: last.sim.transmission_ratio(),
            unit: "msgs/event",
        },
        Metric {
            name: "net_bytes_per_event",
            value: ratio(last.sim.bytes_sent, last.sim.events_injected),
            unit: "B/event",
        },
        Metric {
            name: "plan_cost_ratio",
            value: last.setup.plan_cost_ratio,
            unit: "ratio",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb(),
            unit: "MB",
        },
    ]
}

fn per_layer(
    inputs: &Inputs,
    reference: &Reference,
    plain: &[(Pass, f64)],
    traced: &[(Pass, f64)],
    tr: &Tracer,
    reference_s: f64,
) -> Vec<Metric> {
    // Self time per span name, per traced pass (median over passes).
    let by_pass: Vec<_> = (0..tr.spans().len())
        .filter(|&i| tr.spans()[i].name == "pass")
        .map(|i| tr.self_seconds_by_name(i))
        .collect();
    let self_s = |names: &[&str]| {
        median(
            &by_pass
                .iter()
                .map(|m| names.iter().map(|n| m.get(n).copied().unwrap_or(0.0)).sum())
                .collect::<Vec<f64>>(),
        )
    };
    // Set-up self times per set-up.
    let per_setup = |names: &[&str]| self_s(names) / SETUPS_PER_PASS as f64;
    // Threaded wall latency, median over the untraced passes of each
    // pass's figure.
    let latency = |f: fn(&[u64]) -> f64| med(plain, |p| f(&p.latencies_ns) / 1e6);
    let uncovered_s = tr.self_times_ns()[0] as f64 / 1e9;
    let plain_s = median(&plain.iter().map(|(_, s)| *s).collect::<Vec<_>>());
    let traced_s = median(&traced.iter().map(|(_, s)| *s).collect::<Vec<_>>());

    let p = &traced.last().expect("a traced pass").0;
    let (s, t) = (&p.sim, &p.threaded);
    let runs: u64 = plain.iter().chain(traced).map(|(p, _)| p.runs).sum();
    let errors: u64 = plain
        .iter()
        .chain(traced)
        .map(|(p, _)| p.match_errors)
        .sum();
    let graphs = p.setup.graphs_evaluated.max(1);
    // Median over segments of one snapshot's size (each segment's state
    // grows from its own start).
    let per_segment = |pick: fn(&Vec<u64>) -> Option<&u64>| {
        median(
            &p.snapshot_bytes
                .iter()
                .map(|s| pick(s).map_or(0.0, |&b| b as f64))
                .collect::<Vec<_>>(),
        ) as u64
    };
    let v = |name, value: f64, unit| Metric { name, value, unit };
    let c = |name, value: u64| v(name, value as f64, "count");
    let bytes = |name, value: u64| v(name, value as f64, "B");
    vec![
        v("plan.estimate_s", per_setup(&["plan.estimate"]), "s"),
        v("plan.construct_s", per_setup(&["plan.construct"]), "s"),
        c("plan.projections", p.setup.projections),
        c("plan.combinations", p.setup.combinations),
        c("plan.graphs_evaluated", p.setup.graphs_evaluated),
        v(
            "plan.us_per_graph",
            per_setup(&["plan.construct"]) * 1e6 / graphs as f64,
            "us",
        ),
        v("deploy.verify_s", per_setup(&["deploy.verify"]), "s"),
        v("deploy.build_s", per_setup(&["deploy.build"]), "s"),
        c("deploy.tasks", p.setup.deployment.tasks.len() as u64),
        c(
            "deploy.remote_routes",
            p.setup.deployment.num_remote_routes() as u64,
        ),
        c("disc.considered", s.discrimination.candidates_considered),
        c("disc.admitted", s.discrimination.candidates_admitted),
        v("disc.pruned_ratio", s.discrimination.hit_ratio(), "ratio"),
        c("join.inputs", s.join.inputs),
        c("join.probes", s.join.probes),
        v(
            "join.probes_per_input",
            ratio(s.join.probes, s.join.inputs.max(1)),
            "ratio",
        ),
        c("join.merge_attempts", s.join.merge_attempts),
        v(
            "join.merge_success_ratio",
            s.join.merge_success_ratio(),
            "ratio",
        ),
        v("join.guard_pass_ratio", s.join.guard_pass_ratio(), "ratio"),
        c("join.evicted", s.join.evicted),
        c("join.peak_buffered", s.join.peak_buffered),
        c("net.messages", s.messages_sent),
        bytes("net.bytes", s.bytes_sent),
        c("net.local_deliveries", s.local_deliveries),
        v("exec.sim_s", self_s(&["exec.sim", "exec.sim.chunk"]), "s"),
        v("exec.resume_s", self_s(&["exec.resume"]), "s"),
        v("exec.threaded_s", self_s(&["exec.threaded"]), "s"),
        c("transport.frames", t.transport.frames_sent),
        v(
            "transport.mean_batch",
            ratio(t.transport.messages_framed, t.transport.frames_sent.max(1)),
            "msgs/frame",
        ),
        c("transport.blocked_sends", t.transport.blocked_sends),
        c("transport.peak_queue_depth", t.transport.peak_queue_depth),
        c(
            "transport.pool_requests",
            t.transport.pool_allocs + t.transport.pool_reuses,
        ),
        v(
            "transport.pool_reuse_ratio",
            t.transport.pool_reuse_ratio(),
            "ratio",
        ),
        c("sink.matches", t.sink_matches),
        c("sink.reference_matches", reference.matches()),
        c("sink.latency_samples", p.latencies_ns.len() as u64),
        v("sink.latency_mean_ms", latency(mean), "ms"),
        v("sink.latency_p50_ms", latency(|l| quantile(l, 0.5)), "ms"),
        v("sink.latency_p90_ms", latency(|l| quantile(l, 0.9)), "ms"),
        v("sink.latency_p99_ms", latency(|l| quantile(l, 0.99)), "ms"),
        c("sink.latency_samples_dropped", t.latency_samples_dropped),
        c("check.runs", runs),
        v(
            "match_error_share",
            ratio(errors, (reference.matches() * runs).max(1)),
            "ratio",
        ),
        v("check.reference_s", reference_s, "s"),
        v("ckpt.snapshot_s", self_s(&["ckpt.snapshot"]), "s"),
        c(
            "ckpt.snapshots",
            p.snapshot_bytes.iter().map(|s| s.len() as u64).sum(),
        ),
        bytes("ckpt.bytes", p.snapshot_bytes.iter().flatten().sum()),
        bytes("ckpt.first_snapshot_bytes", per_segment(|s| s.first())),
        bytes("ckpt.last_snapshot_bytes", per_segment(|s| s.last())),
        v("ckpt.restore_s", self_s(&["ckpt.restore"]), "s"),
        c("trace.events", inputs.events() as u64),
        c("trace.spans", tr.spans().len() as u64),
        v("trace.untraced_pass_s", plain_s, "s"),
        v("trace.overhead_ratio", traced_s / plain_s - 1.0, "ratio"),
        v("trace.uncovered_s", uncovered_s, "s"),
    ]
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Kind::ALL.map(Kind::name).join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut kind, mut seed, mut seconds, mut traced) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [key, value] = pair else { usage() };
        match key.as_str() {
            "--workload" => kind = Some(Kind::from_name(value).unwrap_or_else(|| usage())),
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| usage())),
            "--seconds" => seconds = Some(value.parse::<f64>().unwrap_or_else(|_| usage())),
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            _ => usage(),
        }
    }
    let (Some(kind), Some(seed), Some(seconds), Some(traced)) = (kind, seed, seconds, traced)
    else {
        usage()
    };
    let outcome = run(&RunSpec {
        kind,
        size: Size::FULL,
        seed,
        seconds,
        min_passes: 3,
        traced,
    });

    eprintln!("perfbench {} seed {seed}", kind.name());
    for note in &outcome.notes {
        eprintln!("  {note}");
    }
    for m in &outcome.metrics {
        eprintln!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if traced {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{}-{seed}.jsonl", kind.name()));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, outcome.tracer.to_jsonl()));
        match written {
            Ok(()) => eprintln!("  spans: {}", path.display()),
            Err(e) => eprintln!("  spans not written: {e}"),
        }
    }
    println!("{}", outcome.to_json());
}

#[cfg(test)]
mod tests;
