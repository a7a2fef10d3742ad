//! Experiment harness CLI: regenerates every table and figure of the
//! paper's evaluation (§7).
//!
//! ```text
//! harness <experiment|all> [--reps N] [--seed S] [--quick] [--out DIR] [--telemetry DIR]
//! harness explain <match-hash|all> [--seed S] [--quick]
//! ```
//!
//! Experiments: fig5a fig5b fig5c fig5d fig6a fig6b fig7a fig7b fig7c fig7d
//! table3 fig8. Results are printed as text tables and, with `--out`,
//! written as JSON for downstream plotting. Extra experiments are
//! run only when named explicitly: `ablation` (design-choice ablations),
//! `matcher` (indexed vs. naive join engine; written as
//! `BENCH_matcher.json`), `executor` (the threaded executor's batched
//! transport, match sets checked against the simulator; written as
//! `BENCH_executor.json`),
//! `faults` (crash recovery on the threaded executor; written as
//! `BENCH_faults.json`), `multiquery` (shared evaluation at scale;
//! `BENCH_multiquery.json`), `observe` (provenance overhead, witness
//! closure, cost-model drift, flight recorder; `BENCH_observe.json`), and
//! `migrate` (live-migration soundness gate: certified plan pairs restore
//! fingerprint-identical, rejected pairs fail the restore;
//! `BENCH_migrate.json`).
//!
//! `explain` re-runs the observe witness workload with full provenance
//! sampling and replays one recorded match (by its hex hash, as printed
//! in provenance exports) — or every record with `all` — checking that
//! the witness event set alone reproduces the match byte-identically.
//!
//! With `--telemetry DIR`, the executing experiments (`table3`, `fig8`,
//! `matcher`, `executor`) additionally collect run telemetry — registry snapshots,
//! per-task series, lineage traces, provenance records — written as
//! `DIR/telemetry.json`, `DIR/series.jsonl`, `DIR/trace.jsonl`, and
//! `DIR/provenance.jsonl`, with a per-task summary table printed per run
//! and the experiment wall time sourced from the telemetry registry.

use muse_bench::experiments::{all_experiments, run_experiment_telemetry};
use muse_bench::runner::SweepSettings;
use muse_bench::telemetry::{TelemetryCollector, TelemetryOutput};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: harness <experiment|all> [--reps N] [--seed S] [--quick] [--out DIR] \
             [--telemetry DIR]\n\
             \u{20}      harness explain <match-hash|all> [--seed S] [--quick]\n\
             experiments: {} all",
            all_experiments().join(" ")
        );
        return ExitCode::from(2);
    }
    if args[0] == "explain" {
        return run_explain(&args[1..]);
    }

    let mut ids: Vec<String> = Vec::new();
    let mut settings = SweepSettings::default();
    let mut out_dir: Option<PathBuf> = None;
    let mut telemetry_dir: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--reps" => {
                i += 1;
                settings.reps = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--reps needs a number"));
            }
            "--seed" => {
                i += 1;
                settings.seed = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs a number"));
            }
            "--quick" => settings = SweepSettings::quick(),
            "--out" => {
                i += 1;
                out_dir = Some(PathBuf::from(
                    args.get(i).unwrap_or_else(|| die("--out needs a path")),
                ));
            }
            "--telemetry" => {
                i += 1;
                telemetry_dir = Some(PathBuf::from(
                    args.get(i)
                        .unwrap_or_else(|| die("--telemetry needs a path")),
                ));
            }
            "all" => ids.extend(all_experiments().iter().map(|s| s.to_string())),
            id if all_experiments().contains(&id)
                || id == "ablation"
                || id == "matcher"
                || id == "executor"
                || id == "faults"
                || id == "multiquery"
                || id == "observe"
                || id == "migrate" =>
            {
                ids.push(id.to_string())
            }
            other => die(&format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    if ids.is_empty() {
        die("no experiment selected");
    }
    ids.dedup();

    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
    }

    let mut telemetry_out = telemetry_dir.as_ref().map(|_| TelemetryOutput::new());
    let mut all_checks_pass = true;
    for id in &ids {
        eprintln!("running {id} (reps = {}) …", settings.reps);
        let mut collector = telemetry_dir.as_ref().map(|_| TelemetryCollector::new());
        let started = std::time::Instant::now();
        let output = run_experiment_telemetry(id, &settings, collector.as_mut());
        let elapsed = started.elapsed();
        println!("{}", output.render());
        if let Some(collector) = &mut collector {
            // The experiment's wall time flows through the telemetry
            // registry; the summary line below reads it (and the peak
            // live-match gauge) back from there rather than from ad-hoc
            // `Instant` arithmetic.
            collector.set_wall_ns(elapsed.as_nanos() as u64);
            for (label, run) in collector.runs() {
                if !run.tasks.is_empty() {
                    println!("-- {label} --\n{}", run.task_table());
                }
                if let Some(transport) = run.transport_summary() {
                    println!("-- {label} transport --\n{transport}");
                }
                if let Some(disc) = run.discrimination_summary() {
                    println!("-- {label} discrimination --\n{disc}");
                }
                if let Some(rec) = run.recovery_summary() {
                    println!("-- {label} recovery --\n{rec}");
                }
                if let Some(prov) = run.provenance_summary() {
                    println!("-- {label} provenance --\n{prov}");
                }
            }
            eprintln!("{id} finished: {}\n", collector.summary_line());
            all_checks_pass &= collector.checks_pass();
            if let Some(out) = &mut telemetry_out {
                out.add(id, collector);
            }
        } else {
            eprintln!("{id} finished in {elapsed:.1?}\n");
        }
        if let Some(dir) = &out_dir {
            // The matcher and executor benches are named deliverables, not
            // paper figures.
            let file = match id.as_str() {
                "matcher" => "BENCH_matcher.json".to_string(),
                "executor" => "BENCH_executor.json".to_string(),
                "faults" => "BENCH_faults.json".to_string(),
                "multiquery" => "BENCH_multiquery.json".to_string(),
                "observe" => "BENCH_observe.json".to_string(),
                "migrate" => "BENCH_migrate.json".to_string(),
                _ => format!("{id}.json"),
            };
            let path = dir.join(file);
            let json = serde_json::to_string_pretty(&output).expect("serialize result");
            std::fs::write(&path, json).expect("write result file");
            eprintln!("wrote {}", path.display());
        }
    }
    if let (Some(dir), Some(out)) = (&telemetry_dir, &telemetry_out) {
        let paths = out.write(dir).expect("write telemetry files");
        for p in paths {
            eprintln!("wrote {}", p.display());
        }
    }
    if !all_checks_pass {
        eprintln!("error: telemetry latency checks failed (histogram vs. exact percentiles)");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// `harness explain <match-hash|all> [--seed S] [--quick]`: replays the
/// observe witness workload and checks, for the targeted provenance
/// record(s), that the recorded witness events alone reproduce the match
/// byte-identically.
fn run_explain(args: &[String]) -> ExitCode {
    use muse_bench::observe::{
        find_recorded_match, witness_closure_holds, witness_duration, witness_run,
    };

    let mut target: Option<String> = None;
    let mut seed: u64 = 1;
    let mut quick = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs a number"));
            }
            "--quick" => quick = true,
            other if target.is_none() && !other.starts_with('-') => {
                target = Some(other.to_string());
            }
            other => die(&format!("unknown explain argument '{other}'")),
        }
        i += 1;
    }
    let target = target.unwrap_or_else(|| "all".to_string());

    let duration = witness_duration(quick);
    eprintln!("replaying observe witness run (duration = {duration}, seed = {seed}) …");
    let (deployment, trace, mut report) = witness_run(duration, seed);
    let run = report
        .telemetry
        .take()
        .unwrap_or_else(|| die("witness run produced no telemetry"));

    let records: Vec<_> = if target == "all" {
        run.provenance.records().collect()
    } else {
        let hash = u64::from_str_radix(target.trim_start_matches("0x"), 16)
            .unwrap_or_else(|_| die(&format!("'{target}' is not a hex match hash or 'all'")));
        match run.provenance.find(hash) {
            Some(rec) => vec![rec],
            None => {
                eprintln!("error: no provenance record with hash {hash:016x}");
                return ExitCode::from(1);
            }
        }
    };
    if records.is_empty() {
        eprintln!("error: witness run recorded no matches");
        return ExitCode::from(1);
    }

    let mut failures = 0usize;
    for rec in &records {
        let verdict = match find_recorded_match(&report.matches, rec) {
            Some(original) if witness_closure_holds(&deployment, &trace, rec, original) => {
                "reproduced"
            }
            Some(_) => {
                failures += 1;
                "FAILED (replay diverged)"
            }
            None => {
                failures += 1;
                "FAILED (match not delivered)"
            }
        };
        println!(
            "{:016x} t={} query={} witnesses={} absence={} -> {verdict}",
            rec.match_hash,
            rec.t,
            rec.query,
            rec.witness.len(),
            rec.absence.len(),
        );
    }
    println!(
        "{} of {} record(s) reproduced byte-identically from their witness sets",
        records.len() - failures,
        records.len()
    );
    if failures > 0 {
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
