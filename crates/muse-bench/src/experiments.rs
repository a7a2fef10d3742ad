//! The experiments of §7, one function per table/figure.
//!
//! Simulation experiments (Figs. 5-7) compute plan costs analytically via
//! the cost model, exactly like the paper's simulation study; the case
//! study (Table 3, Fig. 8) actually executes the plans on the runtime over
//! the synthetic cluster trace.

use crate::runner::{evaluate_workload, RatioPoint, StrategyCosts, SweepSettings};
use crate::stats::summarize;
use crate::telemetry::TelemetryCollector;
use muse_core::algorithms::amuse::AMuseConfig;
use muse_core::algorithms::baselines::placement_to_graph;
use muse_core::algorithms::multi_query::amuse_workload;
use muse_core::graph::PlanContext;
use muse_core::projection::ProjectionTable;
use muse_core::workload::Workload;
use muse_runtime::deploy::Deployment;
use muse_runtime::sim::{run_simulation, SimConfig};
use muse_runtime::threaded::{run_threaded, ThreadedConfig};
use muse_sim::cluster_trace::{
    generate_cluster_trace, query1_source, query2_source, ClusterTraceConfig,
};
use muse_sim::network_gen::{generate_network, NetworkConfig};
use muse_sim::workload_gen::{generate_workload, WorkloadConfig};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Output of one experiment: a ratio sweep, a construction-statistics
/// table, the case-study table, or the case-study latency/throughput runs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ExperimentOutput {
    /// Transmission-ratio sweep (Figs. 5-7c).
    RatioSweep {
        /// Experiment id (e.g. "fig5a").
        id: String,
        /// Human-readable description.
        title: String,
        /// Name of the swept parameter.
        x_label: String,
        /// Measured points.
        points: Vec<RatioPoint>,
    },
    /// Construction efficiency (Fig. 7d).
    Construction {
        /// Experiment id ("fig7d").
        id: String,
        /// Rows: (setting, aMuSE ms, aMuSE* ms, aMuSE #proj, aMuSE* #proj).
        rows: Vec<ConstructionRow>,
    },
    /// Case-study transmission ratios (Table 3).
    CaseStudyTable {
        /// Experiment id ("table3").
        id: String,
        /// Rows: per scenario, measured transmission ratios.
        rows: Vec<CaseStudyRow>,
    },
    /// Case-study latency/throughput (Fig. 8).
    CaseStudyRuns {
        /// Experiment id ("fig8").
        id: String,
        /// Per-scenario latency and throughput of MS vs. OP.
        rows: Vec<RunRow>,
    },
    /// Threaded-executor throughput with the batched, backpressured
    /// transport, its per-query match sets checked against the simulator's
    /// (written as `BENCH_executor.json`; not a paper artifact).
    ExecutorBench {
        /// Experiment id ("executor").
        id: String,
        /// Workload executed ("relay": the transport-bound relay topology).
        scenario: String,
        /// Events injected per run.
        events: u64,
        /// Messages per frame before an eager flush (batched transport).
        batch: usize,
        /// Bounded per-node channel capacity, in frames.
        capacity: usize,
        /// Threaded-executor measurements.
        batched: TransportRunRow,
        /// Sink matches of the simulator on the same trace.
        sim_matches: u64,
        /// Whether the threaded executor reproduced the simulator's
        /// per-query match sets.
        fingerprints_equal: bool,
    },
    /// Threaded-executor crash recovery (§7.3 Ambrosia): uninterrupted
    /// baseline vs. chunk-boundary checkpointing vs. an injected node
    /// crash with restore-and-replay recovery (written as
    /// `BENCH_faults.json`; not a paper artifact).
    FaultBench {
        /// Experiment id ("faults").
        id: String,
        /// Workload executed ("relay": the transport-bound relay topology).
        scenario: String,
        /// Events injected per run.
        events: u64,
        /// Node whose crash is injected (a join-hosting center node).
        crash_node: usize,
        /// Injection index at that node where the crash fires.
        crash_at: u64,
        /// Simulated downtime before the node restarts, in milliseconds.
        restart_delay_ms: f64,
        /// Uninterrupted run, no resilience machinery.
        baseline: FaultRunRow,
        /// Chunk-boundary checkpointing on, no crash.
        checkpointed: FaultRunRow,
        /// Checkpointing plus the injected crash and recovery.
        crashed: FaultRunRow,
        /// Checkpointed wall time over baseline wall time.
        checkpoint_overhead: f64,
        /// Crashed-run wall time over baseline wall time.
        recovery_overhead: f64,
        /// Whether all three runs produced identical per-query match sets
        /// (the losslessness gate CI checks).
        fingerprints_equal: bool,
    },
    /// Matcher join-engine throughput: indexed vs. naive reference
    /// (written as `BENCH_matcher.json`; not a paper artifact).
    MatcherBench {
        /// Experiment id ("matcher").
        id: String,
        /// Join arrivals fed per engine run.
        arrivals: u64,
        /// Query window (ticks).
        window: u64,
        /// Eviction slack factor (the threaded executor's default).
        slack: f64,
        /// Indexed engine measurements.
        indexed: MatcherEngineRow,
        /// Naive reference engine measurements.
        naive: MatcherEngineRow,
        /// Indexed events/sec over naive events/sec.
        speedup: f64,
        /// Whether both engines emitted identical fingerprint streams.
        fingerprints_equal: bool,
    },
    /// Shared multi-query evaluation at scale: throughput, per-event
    /// candidate-set size, and resident partials as the number of
    /// concurrent queries grows, with shared-plan execution gated on
    /// fingerprint equality against independent per-query evaluation
    /// (written as `BENCH_multiquery.json`; not a paper artifact).
    MultiQueryBench {
        /// Experiment id ("multiquery").
        id: String,
        /// Events injected per run (one trace shared by all sweep points).
        events: u64,
        /// Per-sweep-point measurements, in ascending query count.
        points: Vec<MultiQueryRow>,
        /// Whether shared and independent evaluation agreed at every point.
        fingerprints_equal: bool,
        /// Whether shared-mode wall time grew sublinearly in the query
        /// count between the smallest and largest sweep points.
        sublinear: bool,
    },
    /// Observability stack end-to-end (written as `BENCH_observe.json`;
    /// not a paper artifact): provenance-tracing overhead on the threaded
    /// relay workload, witness-closure replay and cost-model drift on the
    /// calibrated `SEQ` workload, and the crash flight recorder.
    ObserveBench {
        /// Experiment id ("observe").
        id: String,
        /// Events injected per overhead run (relay trace length).
        events: u64,
        /// Provenance sampling divisor of the "sampled" overhead mode.
        sample: u64,
        /// Overhead modes, in order: off, disabled, sampled, full.
        overhead: Vec<ObserveModeRow>,
        /// Disabled-provenance telemetry stayed under 5% wall overhead.
        disabled_ok: bool,
        /// 1-in-`sample` provenance stayed under 15% wall overhead.
        sampled_ok: bool,
        /// Simulator and threaded executor produced identical per-query
        /// match sets on the relay trace.
        fingerprints_equal: bool,
        /// Provenance records captured by the witness run (sample = 1).
        provenance_records: u64,
        /// Mean witness events per record.
        mean_witness: f64,
        /// Every record's witness set replayed to a byte-identical match.
        witnesses_reproduce: bool,
        /// Rate-weighted drift score on the stationary calibrated trace.
        stationary_score: f64,
        /// Stationary score stayed under 0.10.
        stationary_ok: bool,
        /// Rate-weighted drift score on the 3x rate-shifted trace.
        shifted_score: f64,
        /// Shifted score exceeded 0.5.
        shifted_detected: bool,
        /// Drift-monitored vertices in the calibrated deployment.
        drift_vertices: usize,
        /// Full per-vertex drift report for the stationary trace.
        stationary_drift: muse_runtime::drift::CostDrift,
        /// Full per-vertex drift report for the rate-shifted trace.
        shifted_drift: muse_runtime::drift::CostDrift,
        /// Flight records recovered from the injected crash's dump.
        flight_records: u64,
        /// Pretty-printed tail of the crashed node's flight timeline.
        flight_timeline: String,
    },
    /// Live-migration soundness gate (written as `BENCH_migrate.json`; not
    /// a paper artifact): a run under plan A is snapshotted mid-trace, the
    /// A→B plan diff is certified by `muse-verify`'s migration pass, and
    /// the mapped snapshot resumes under B in both executors with match
    /// sets checked against an uninterrupted run. The narrowed-window pair
    /// must be refused by the verifier AND fail the mapped restore —
    /// `scripts/ci.sh` greps both flags.
    MigrateBench {
        /// Experiment id ("migrate").
        id: String,
        /// Events injected per run.
        events: u64,
        /// Old plan's window (ticks); the identity pair keeps it.
        window_old: u64,
        /// Widened window of the certified-with-replay pair (ticks).
        window_wide: u64,
        /// Narrowed window of the refused pair (ticks).
        window_narrow: u64,
        /// Tasks matched across the identity migration's plan diff.
        matched_tasks: usize,
        /// Verifier certified the identity migration with no replay.
        identity_certified: bool,
        /// Simulator resume matched the uninterrupted run's match sets.
        sim_identical: bool,
        /// Threaded resume matched the uninterrupted run's match sets.
        threaded_identical: bool,
        /// Certified migration restored fingerprint-identical in BOTH
        /// executors (the CI gate).
        certified_identical: bool,
        /// Widened pair certified with a replay obligation and restored.
        widened_certified_with_replay: bool,
        /// Verifier refused the narrowed pair.
        narrow_refused: bool,
        /// Mapped restore of the refused pair failed with
        /// `MigrationRejected` (the CI gate).
        rejected_fails: bool,
        /// Complete matches delivered by the migrated simulator run.
        migrated_matches: u64,
    },
}

/// One telemetry mode's wall-clock measurement in the observe bench.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObserveModeRow {
    /// Mode name ("off", "disabled", "sampled", or "full").
    pub mode: String,
    /// Wall-clock time of the best rep, milliseconds.
    pub wall_ms: f64,
    /// Wall time relative to the "off" mode (1.0 = no overhead).
    pub overhead: f64,
    /// Provenance records held at end of run.
    pub provenance_records: u64,
    /// Provenance records evicted by the ring bound.
    pub provenance_dropped: u64,
}

/// The threaded executor's measurements in the executor bench.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransportRunRow {
    /// Transport name ("batched").
    pub transport: String,
    /// Injected events per wall-clock second (best of reps).
    pub events_per_sec: f64,
    /// Wall-clock time of the best rep, milliseconds.
    pub wall_ms: f64,
    /// Sink-latency five-number summary in microseconds (best rep).
    pub latency_us: [f64; 5],
    /// Complete matches produced.
    pub matches: u64,
    /// Frames pushed onto inter-node channels.
    pub frames_sent: u64,
    /// Messages carried inside those frames.
    pub messages_framed: u64,
    /// Mean realized batch size (messages per frame).
    pub mean_batch: f64,
    /// `try_send` attempts rejected by a full channel.
    pub blocked_sends: u64,
    /// Fraction of frame buffers served from the recycling pool.
    pub pool_reuse_ratio: f64,
    /// Peak frames in flight to any single node.
    pub peak_queue_depth: u64,
}

/// One resilience mode's measurements in the faults bench.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultRunRow {
    /// Mode name ("baseline", "checkpointed", or "crashed").
    pub mode: String,
    /// Injected events per wall-clock second (best of reps).
    pub events_per_sec: f64,
    /// Wall-clock time of the best rep, milliseconds.
    pub wall_ms: f64,
    /// Complete matches produced.
    pub matches: u64,
    /// Node crashes taken (0 except in the crashed mode).
    pub crashes: u64,
    /// Chunk-boundary snapshots written across all nodes.
    pub snapshots_taken: u64,
    /// Cumulative encoded snapshot bytes.
    pub snapshot_bytes: u64,
    /// Messages re-delivered to the restarted node from peer replay logs.
    pub replayed_messages: u64,
    /// Duplicate replay deliveries suppressed by receivers.
    pub suppressed_sends: u64,
    /// Sender retry rounds against the downed node (bounded backoff).
    pub send_retries: u64,
    /// Wall milliseconds from crash to fully restored state.
    pub recovery_ms: f64,
}

/// One engine's measurements in the matcher bench.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MatcherEngineRow {
    /// Engine name ("indexed" or "naive").
    pub engine: String,
    /// Join arrivals processed per wall-clock second (best of reps).
    pub events_per_sec: f64,
    /// Complete matches emitted.
    pub matches_emitted: u64,
    /// Peak simultaneously open (live) partial matches in the join stores.
    pub peak_open_partials: u64,
    /// Wall-clock time of the best rep, milliseconds.
    pub wall_ms: f64,
}

/// One sweep point of the multi-query bench.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiQueryRow {
    /// Concurrent queries registered at this point.
    pub queries: usize,
    /// Distinct query structures the planner actually constructed (the
    /// rest reused an earlier plan via structural memoization).
    pub distinct_plans: usize,
    /// Logical tasks (graph vertices) before sharing collapsed them.
    pub logical_tasks: usize,
    /// Physical tasks after shared-projection collapsing.
    pub physical_tasks: usize,
    /// Shared-plan events per wall-clock second (best of reps).
    pub shared_events_per_sec: f64,
    /// Shared-plan wall time of the best rep, milliseconds.
    pub shared_wall_ms: f64,
    /// Independent per-query-task events per wall-clock second.
    pub independent_events_per_sec: f64,
    /// Independent-evaluation wall time, milliseconds.
    pub independent_wall_ms: f64,
    /// Shared events/sec over independent events/sec.
    pub speedup: f64,
    /// Mean discrimination-index candidates per event, shared plan.
    pub mean_candidates_shared: f64,
    /// Mean discrimination-index candidates per event, independent plan.
    pub mean_candidates_independent: f64,
    /// Share of considered candidates rejected by the band filter before
    /// any predicate evaluation (shared plan).
    pub filtered_pct: f64,
    /// Peak concurrently-buffered partial matches, shared plan.
    pub peak_partials_shared: u64,
    /// Peak concurrently-buffered partial matches, independent plan.
    pub peak_partials_independent: u64,
    /// Complete matches delivered across all logical sinks.
    pub matches: u64,
    /// Whether both evaluation modes produced identical per-query match
    /// sets at this point.
    pub fingerprints_equal: bool,
}

/// One Fig. 7d row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConstructionRow {
    /// Experiment setting this row belongs to.
    pub setting: String,
    /// aMuSE construction time (milliseconds, median across seeds).
    pub amuse_ms: f64,
    /// aMuSE* construction time (milliseconds, median).
    pub amuse_star_ms: f64,
    /// Beneficial projections explored by aMuSE (median).
    pub amuse_projections: f64,
    /// Beneficial projections explored by aMuSE* (median).
    pub amuse_star_projections: f64,
}

/// One Table 3 row: measured (executed) transmission ratios.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CaseStudyRow {
    /// Scenario: "AND", "SEQ", or "QWL".
    pub scenario: String,
    /// aMuSE transmission ratio (messages / injected events).
    pub amuse_ratio: f64,
    /// oOP transmission ratio.
    pub oop_ratio: f64,
    /// Matches found (sanity: both plans must agree).
    pub matches: u64,
}

/// One Fig. 8 row: executed latency/throughput of a strategy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunRow {
    /// Scenario: "AND", "SEQ", or "QWL".
    pub scenario: String,
    /// Strategy: "MS" (MuSE graph) or "OP" (operator placement).
    pub strategy: String,
    /// Wall-clock latency five-number summary in microseconds.
    pub latency_us: [f64; 5],
    /// Injected events per wall-clock second.
    pub events_per_sec: f64,
    /// Matches produced.
    pub matches: u64,
}

/// The ids of all experiments, in paper order. The `ablation` experiment is
/// not a paper artifact (it quantifies this implementation's design
/// choices) and is therefore not part of `all`; run it explicitly.
pub fn all_experiments() -> Vec<&'static str> {
    vec![
        "fig5a", "fig5b", "fig5c", "fig5d", "fig6a", "fig6b", "fig7a", "fig7b", "fig7c", "fig7d",
        "table3", "fig8",
    ]
}

/// Runs one experiment by id.
///
/// # Panics
///
/// Panics on an unknown id; see [`all_experiments`].
pub fn run_experiment(id: &str, settings: &SweepSettings) -> ExperimentOutput {
    run_experiment_telemetry(id, settings, None)
}

/// Runs one experiment by id, optionally collecting executor telemetry.
/// Only the experiments that actually execute plans (`table3`, `fig8`,
/// `matcher`) produce telemetry; the analytic sweeps ignore the collector.
///
/// # Panics
///
/// Panics on an unknown id; see [`all_experiments`].
pub fn run_experiment_telemetry(
    id: &str,
    settings: &SweepSettings,
    tel: Option<&mut TelemetryCollector>,
) -> ExperimentOutput {
    match id {
        "fig5a" => fig5_event_node_ratio(id, false, settings),
        "fig5b" => fig5_event_node_ratio(id, true, settings),
        "fig5c" => fig5_network_size(id, false, settings),
        "fig5d" => fig5_network_size(id, true, settings),
        "fig6a" => fig6_event_skew(id, false, settings),
        "fig6b" => fig6_event_skew(id, true, settings),
        "fig7a" => fig7_selectivity(id, false, settings),
        "fig7b" => fig7_selectivity(id, true, settings),
        "fig7c" => fig7_workload_size(id, settings),
        "fig7d" => fig7_construction(id, settings),
        "table3" => table3_case_study(id, settings, tel),
        "fig8" => fig8_case_study(id, settings, tel),
        "ablation" => ablation(id, settings),
        "matcher" => matcher_bench(id, settings, tel),
        "executor" => executor_bench(id, settings, tel),
        "faults" => faults_bench(id, settings, tel),
        "multiquery" => multiquery_bench(id, settings, tel),
        "observe" => observe_bench(id, settings, tel),
        "migrate" => migrate_bench(id, settings, tel),
        other => panic!("unknown experiment '{other}'; see `all_experiments()`"),
    }
}

/// Builds the (network, workload) instance of a simulation experiment.
fn instance(
    net_cfg: &NetworkConfig,
    wl_cfg: &WorkloadConfig,
) -> (muse_core::network::Network, Workload) {
    let network = generate_network(net_cfg);
    let workload = generate_workload(wl_cfg);
    (network, workload)
}

fn base_configs(large: bool, seed: u64) -> (NetworkConfig, WorkloadConfig) {
    if large {
        (
            NetworkConfig {
                seed,
                ..NetworkConfig::large()
            },
            WorkloadConfig {
                seed,
                ..WorkloadConfig::large()
            },
        )
    } else {
        (
            NetworkConfig {
                seed,
                ..Default::default()
            },
            WorkloadConfig {
                seed,
                ..Default::default()
            },
        )
    }
}

fn sweep(
    id: &str,
    title: &str,
    x_label: &str,
    xs: &[f64],
    settings: &SweepSettings,
    mut make: impl FnMut(f64, u64) -> StrategyCosts,
) -> ExperimentOutput {
    let points = xs
        .iter()
        .map(|&x| {
            let costs: Vec<StrategyCosts> = settings.seeds().map(|seed| make(x, seed)).collect();
            RatioPoint::collect(x, &costs)
        })
        .collect();
    ExperimentOutput::RatioSweep {
        id: id.to_string(),
        title: title.to_string(),
        x_label: x_label.to_string(),
        points,
    }
}

/// Fig. 5a/5b: varying the event node ratio.
fn fig5_event_node_ratio(id: &str, large: bool, settings: &SweepSettings) -> ExperimentOutput {
    let xs = [0.2, 0.4, 0.6, 0.8, 1.0];
    sweep(
        id,
        "Transmission ratio vs. event node ratio",
        "event node ratio",
        &xs,
        settings,
        |x, seed| {
            let (mut nc, wc) = base_configs(large, seed);
            nc.event_node_ratio = x;
            let (net, w) = instance(&nc, &wc);
            evaluate_workload(&w, &net)
        },
    )
}

/// Fig. 5c/5d: varying the network size.
fn fig5_network_size(id: &str, large: bool, settings: &SweepSettings) -> ExperimentOutput {
    let xs: Vec<f64> = if large {
        vec![20.0, 40.0, 60.0, 80.0, 100.0]
    } else {
        vec![10.0, 20.0, 30.0, 40.0, 50.0]
    };
    sweep(
        id,
        "Transmission ratio vs. network size",
        "nodes",
        &xs,
        settings,
        move |x, seed| {
            let (mut nc, wc) = base_configs(large, seed);
            nc.nodes = x as usize;
            let (net, w) = instance(&nc, &wc);
            evaluate_workload(&w, &net)
        },
    )
}

/// Fig. 6a/6b: varying the event rate skew.
fn fig6_event_skew(id: &str, large: bool, settings: &SweepSettings) -> ExperimentOutput {
    let xs = [1.1, 1.4, 1.7, 2.0];
    sweep(
        id,
        "Transmission ratio vs. event skew",
        "zipf exponent",
        &xs,
        settings,
        move |x, seed| {
            let (mut nc, wc) = base_configs(large, seed);
            nc.rate_skew = x;
            let (net, w) = instance(&nc, &wc);
            evaluate_workload(&w, &net)
        },
    )
}

/// Fig. 7a/7b: varying the minimal selectivity.
fn fig7_selectivity(id: &str, large: bool, settings: &SweepSettings) -> ExperimentOutput {
    let xs = [0.01, 0.05, 0.1, 0.15, 0.2];
    sweep(
        id,
        "Transmission ratio vs. minimal selectivity",
        "min selectivity",
        &xs,
        settings,
        move |x, seed| {
            let (nc, mut wc) = base_configs(large, seed);
            wc.selectivity_min = x;
            wc.selectivity_max = 0.2f64.max(x);
            let (net, w) = instance(&nc, &wc);
            evaluate_workload(&w, &net)
        },
    )
}

/// Fig. 7c: varying the workload size.
fn fig7_workload_size(id: &str, settings: &SweepSettings) -> ExperimentOutput {
    let xs = [1.0, 5.0, 10.0, 15.0, 20.0];
    sweep(
        id,
        "Transmission ratio vs. workload size",
        "queries",
        &xs,
        settings,
        move |x, seed| {
            let (nc, mut wc) = base_configs(false, seed);
            wc.queries = x as usize;
            let (net, w) = instance(&nc, &wc);
            evaluate_workload(&w, &net)
        },
    )
}

/// Fig. 7d: construction time and number of considered projections for the
/// default and large settings.
fn fig7_construction(id: &str, settings: &SweepSettings) -> ExperimentOutput {
    let mut rows = Vec::new();
    for (setting, large) in [
        ("default (20 nodes, 5 queries)", false),
        ("large (50 nodes, 15 queries)", true),
    ] {
        let costs: Vec<StrategyCosts> = settings
            .seeds()
            .map(|seed| {
                let (nc, wc) = base_configs(large, seed);
                let (net, w) = instance(&nc, &wc);
                evaluate_workload(&w, &net)
            })
            .collect();
        let med = |f: &dyn Fn(&StrategyCosts) -> f64| {
            let v: Vec<f64> = costs.iter().map(f).collect();
            summarize(&v).median
        };
        rows.push(ConstructionRow {
            setting: setting.to_string(),
            amuse_ms: med(&|c| c.amuse_time.as_secs_f64() * 1e3),
            amuse_star_ms: med(&|c| c.amuse_star_time.as_secs_f64() * 1e3),
            amuse_projections: med(&|c| c.amuse_projections as f64),
            amuse_star_projections: med(&|c| c.amuse_star_projections as f64),
        });
    }
    ExperimentOutput::Construction {
        id: id.to_string(),
        rows,
    }
}

/// Ablation of this implementation's design choices (DESIGN.md §3b):
/// multi-sink placements on/off and the bounded combination enumeration,
/// across the event-node-ratio sweep. Reported like a ratio sweep with the
/// strategies reinterpreted: `amuse` = full aMuSE, `amuse_star` = multi-sink
/// disabled, `oop` = combination cap reduced to 50.
fn ablation(id: &str, settings: &SweepSettings) -> ExperimentOutput {
    let xs = [0.2, 0.4, 0.6, 0.8, 1.0];
    let run = |config: &AMuseConfig, x: f64, seed: u64| -> f64 {
        let (mut nc, wc) = base_configs(false, seed);
        nc.event_node_ratio = x;
        let (net, w) = instance(&nc, &wc);
        let central = muse_core::algorithms::baselines::centralized_cost(w.queries(), &net);
        let plan = amuse_workload(&w, &net, config).expect("plans");
        plan.total_cost / central.max(f64::MIN_POSITIVE)
    };
    let points = xs
        .iter()
        .map(|&x| {
            let full: Vec<f64> = settings
                .seeds()
                .map(|s| run(&AMuseConfig::default(), x, s))
                .collect();
            let no_ms: Vec<f64> = settings
                .seeds()
                .map(|s| {
                    run(
                        &AMuseConfig {
                            disable_multi_sink: true,
                            ..Default::default()
                        },
                        x,
                        s,
                    )
                })
                .collect();
            let small_cap: Vec<f64> = settings
                .seeds()
                .map(|s| {
                    run(
                        &AMuseConfig {
                            max_combinations: 50,
                            ..Default::default()
                        },
                        x,
                        s,
                    )
                })
                .collect();
            RatioPoint {
                x,
                amuse: full,
                amuse_star: no_ms,
                oop: small_cap,
            }
        })
        .collect();
    ExperimentOutput::RatioSweep {
        id: id.to_string(),
        title: "Ablation: full aMuSE vs. no multi-sink vs. combination cap 50".to_string(),
        x_label: "event node ratio".to_string(),
        points,
    }
}

/// The three case-study scenarios: each is a (name, query sources) pair.
fn case_study_scenarios() -> Vec<(&'static str, Vec<&'static str>)> {
    vec![
        ("SEQ", vec![query1_source()]),
        ("AND", vec![query2_source()]),
        ("QWL", vec![query1_source(), query2_source()]),
    ]
}

/// Builds the cluster-trace instance and parses a scenario's workload.
///
/// Planning statistics are *estimated from the trace*, as a real system
/// would: rates are re-derived in window units (events per 30 min window
/// per node) and predicate selectivities come from empirical same-id pair
/// counts ([`muse_sim::stats_est`]); naive independence assumptions would
/// mislead the planner because a task's life-cycle events are strongly
/// correlated in both id and time.
fn case_study_instance(
    sources: &[&str],
    jobs: usize,
    seed: u64,
) -> (muse_sim::cluster_trace::ClusterTrace, Workload) {
    let mut trace = generate_cluster_trace(&ClusterTraceConfig {
        jobs,
        seed,
        ..Default::default()
    });
    let cfg = ClusterTraceConfig::default();
    let window = 30 * 60 * 1000; // the queries' WITHIN 30min
    let options = muse_core::query::parser::ParserOptions::default();
    let mut workload = Workload::parse(trace.catalog.clone(), sources.iter().copied(), &options)
        .expect("case-study queries parse");

    let attrs = [
        trace.catalog.attr("jID").unwrap(),
        trace.catalog.attr("uID").unwrap(),
    ];
    let selectivities = muse_sim::stats_est::PairSelectivities::estimate(
        &trace.events,
        window,
        &attrs,
        cfg.duration_ms,
    );
    for q in workload.queries_mut() {
        selectivities.apply_to_query(q);
    }
    trace.network = muse_sim::stats_est::rates_per_window(
        &trace.network,
        &trace.events,
        window,
        cfg.duration_ms,
    );
    (trace, workload)
}

/// Deploys the aMuSE plan and the oOP plan of a workload on the cluster
/// network. Returns `(muse deployment, oop deployment)`.
fn case_study_deployments(
    trace: &muse_sim::cluster_trace::ClusterTrace,
    workload: &Workload,
) -> (Deployment, Deployment) {
    let plan = amuse_workload(workload, &trace.network, &AMuseConfig::default())
        .expect("aMuSE plans the case study");
    let ctx = PlanContext::new(workload.queries(), &trace.network, &plan.table);
    let muse_deployment = Deployment::new(&plan.merged, &ctx);

    let mut table = ProjectionTable::new();
    let mut oop_graph = muse_core::graph::MuseGraph::new();
    let placements =
        muse_core::algorithms::baselines::optimal_operator_placement_workload_placements(
            workload.queries(),
            &trace.network,
        );
    for (q, placement) in workload.queries().iter().zip(&placements) {
        let g =
            placement_to_graph(q, placement, &trace.network, &mut table).expect("placement graph");
        oop_graph.union_with(&g);
    }
    let oop_ctx = PlanContext::new(workload.queries(), &trace.network, &table);
    let oop_deployment = Deployment::new(&oop_graph, &oop_ctx);
    (muse_deployment, oop_deployment)
}

/// Table 3: executed transmission ratios of the case study.
fn table3_case_study(
    id: &str,
    settings: &SweepSettings,
    mut tel: Option<&mut TelemetryCollector>,
) -> ExperimentOutput {
    let jobs = if settings.reps <= 2 { 150 } else { 400 };
    let sim_config = SimConfig {
        telemetry: tel.as_ref().map(|t| t.spec()),
        ..SimConfig::default()
    };
    let mut rows = Vec::new();
    for (scenario, sources) in case_study_scenarios() {
        let (trace, workload) = case_study_instance(&sources, jobs, settings.seed);
        let (ms, op) = case_study_deployments(&trace, &workload);
        let mut ms_report = run_simulation(&ms, &trace.events, &sim_config);
        let mut op_report = run_simulation(&op, &trace.events, &sim_config);
        let ms_matches: u64 = ms_report.matches.iter().map(|m| m.len() as u64).sum();
        let op_matches: u64 = op_report.matches.iter().map(|m| m.len() as u64).sum();
        assert_eq!(
            ms_matches, op_matches,
            "{scenario}: MuSE and oOP plans must produce identical matches"
        );
        if let Some(tel) = tel.as_deref_mut() {
            for (strategy, report) in [("MS", &mut ms_report), ("OP", &mut op_report)] {
                let label = format!("{id}/{scenario}/{strategy}");
                if let Some(run) = report.telemetry.take() {
                    tel.record_run(&label, run);
                }
                tel.check_latency(&label, &report.metrics);
            }
        }
        rows.push(CaseStudyRow {
            scenario: scenario.to_string(),
            amuse_ratio: ms_report.metrics.transmission_ratio(),
            oop_ratio: op_report.metrics.transmission_ratio(),
            matches: ms_matches,
        });
    }
    ExperimentOutput::CaseStudyTable {
        id: id.to_string(),
        rows,
    }
}

/// Fig. 8: wall-clock latency and throughput of MS vs. OP on the threaded
/// executor.
fn fig8_case_study(
    id: &str,
    settings: &SweepSettings,
    mut tel: Option<&mut TelemetryCollector>,
) -> ExperimentOutput {
    let jobs = if settings.reps <= 2 { 100 } else { 250 };
    let threaded_config = ThreadedConfig {
        telemetry: tel.as_ref().map(|t| t.spec()),
        ..ThreadedConfig::default()
    };
    let mut rows = Vec::new();
    for (scenario, sources) in case_study_scenarios() {
        let (trace, workload) = case_study_instance(&sources, jobs, settings.seed);
        let (ms, op) = case_study_deployments(&trace, &workload);
        for (strategy, deployment) in [("MS", &ms), ("OP", &op)] {
            let mut report = run_threaded(deployment, &trace.events, &threaded_config);
            if let Some(tel) = tel.as_deref_mut() {
                if let Some(run) = report.telemetry.take() {
                    tel.record_run(&format!("{id}/{scenario}/{strategy}"), run);
                }
            }
            let latency_us = report
                .latency_summary_ns()
                .map(|s| s.map(|v| v as f64 / 1e3))
                .unwrap_or([0.0; 5]);
            rows.push(RunRow {
                scenario: scenario.to_string(),
                strategy: strategy.to_string(),
                latency_us,
                events_per_sec: report.events_per_sec,
                matches: report.metrics.sink_matches,
            });
        }
    }
    ExperimentOutput::CaseStudyRuns {
        id: id.to_string(),
        rows,
    }
}

/// The `executor` experiment (`BENCH_executor.json`): threaded-executor
/// throughput with the batched, backpressured transport on the
/// transport-bound relay workload ([`crate::transport_stress`]), with its
/// per-query match sets checked against the simulator's.
fn executor_bench(
    id: &str,
    settings: &SweepSettings,
    tel: Option<&mut TelemetryCollector>,
) -> ExperimentOutput {
    let duration = if settings.reps <= 2 { 60.0 } else { 200.0 };
    executor_bench_sized(id, duration, settings, tel)
}

fn executor_bench_sized(
    id: &str,
    duration: f64,
    settings: &SweepSettings,
    tel: Option<&mut TelemetryCollector>,
) -> ExperimentOutput {
    use crate::transport_stress::{stress_deployment, stress_network, stress_trace};
    use muse_runtime::matcher::Match;
    use muse_runtime::sim::{run_simulation, SimConfig};
    use muse_runtime::threaded::TransportMode;
    use std::collections::BTreeSet;

    // The threaded executor runs with an enlarged chunk (10 windows): the
    // relay window is short, and per-window chunks would make barrier
    // rounds, not the data plane, the measured cost. The eviction slack is
    // raised to cover it — remote deliveries can land a full chunk late,
    // so `slack * window` must stay above `chunk` or window stores evict
    // partials that a late frame still needs (match loss, which the
    // fingerprint check below would flag).
    const CHUNK_TICKS: muse_core::event::Timestamp = 10 * crate::transport_stress::WINDOW;
    const SLACK: f64 = 12.0;
    let scenario = "relay";
    let network = stress_network();
    let ms = stress_deployment(&network);
    let trace_events = stress_trace(&network, duration, settings.seed);
    let reps = settings.reps.max(1);
    let TransportMode { batch, capacity } = TransportMode::default();
    let fingerprints = |matches: &[Vec<Match>]| -> Vec<BTreeSet<Vec<u64>>> {
        matches
            .iter()
            .map(|q| q.iter().map(Match::fingerprint).collect())
            .collect()
    };

    // Best-of-reps timing; fingerprints come from the best rep (the
    // executor is deterministic up to thread interleaving, and match
    // *sets* are interleaving-independent).
    let config = ThreadedConfig {
        slack: SLACK,
        chunk_ticks: Some(CHUNK_TICKS),
        ..ThreadedConfig::default()
    };
    // One untimed warmup rep: the first run after process start pays for
    // faulting the trace in and warming the allocator.
    let _ = run_threaded(&ms, &trace_events, &config);
    let mut best: Option<muse_runtime::threaded::ThreadedReport> = None;
    for _ in 0..reps {
        let report = run_threaded(&ms, &trace_events, &config);
        if best.as_ref().is_none_or(|b| report.wall_time < b.wall_time) {
            best = Some(report);
        }
    }
    let report = best.expect("reps >= 1");
    let t = &report.metrics.transport;
    let mean_batch = if t.frames_sent > 0 {
        t.messages_framed as f64 / t.frames_sent as f64
    } else {
        0.0
    };
    let batched = TransportRunRow {
        transport: "batched".to_string(),
        events_per_sec: report.events_per_sec,
        wall_ms: report.wall_time.as_secs_f64() * 1e3,
        latency_us: report
            .latency_summary_ns()
            .map(|s| s.map(|v| v as f64 / 1e3))
            .unwrap_or([0.0; 5]),
        matches: report.metrics.sink_matches,
        frames_sent: t.frames_sent,
        messages_framed: t.messages_framed,
        mean_batch,
        blocked_sends: t.blocked_sends,
        pool_reuse_ratio: t.pool_reuse_ratio(),
        peak_queue_depth: t.peak_queue_depth,
    };
    let sim = run_simulation(&ms, &trace_events, &SimConfig::default());
    let fingerprints_equal = fingerprints(&report.matches) == fingerprints(&sim.matches);

    // A separate instrumented pass (telemetry sampling has overhead, so it
    // stays out of the timed runs): one batched run with the collector's
    // spec, recorded under `<id>/batched` for the harness summary tables.
    if let Some(tel) = tel {
        let config = ThreadedConfig {
            telemetry: Some(tel.spec()),
            ..config
        };
        let mut report = run_threaded(&ms, &trace_events, &config);
        if let Some(run) = report.telemetry.take() {
            tel.record_run(&format!("{id}/batched"), run);
        }
    }

    ExperimentOutput::ExecutorBench {
        id: id.to_string(),
        scenario: scenario.to_string(),
        events: trace_events.len() as u64,
        batch,
        capacity,
        batched,
        sim_matches: sim.metrics.sink_matches,
        fingerprints_equal,
    }
}

/// The `faults` experiment (`BENCH_faults.json`): crash-recovery cost on
/// the threaded executor over the transport-bound relay workload. Three
/// modes run on the same trace: an uninterrupted baseline, chunk-boundary
/// checkpointing without a crash (the steady-state Ambrosia tax), and
/// checkpointing plus an injected crash of a join-hosting center node with
/// restore-and-replay recovery. The per-query match sets of all three must
/// be identical — the losslessness gate `scripts/ci.sh` checks.
fn faults_bench(
    id: &str,
    settings: &SweepSettings,
    tel: Option<&mut TelemetryCollector>,
) -> ExperimentOutput {
    use crate::transport_stress::{stress_deployment, stress_network, stress_trace, WINDOW};
    use muse_runtime::matcher::Match;
    use muse_runtime::threaded::FaultPlan;
    use std::collections::BTreeSet;
    use std::time::Duration;

    // Same chunk/slack regime as the executor bench (see there for why the
    // relay workload needs the enlarged chunk and covering slack).
    const CHUNK_TICKS: muse_core::event::Timestamp = 10 * WINDOW;
    const SLACK: f64 = 12.0;
    let duration = if settings.reps <= 2 { 40.0 } else { 120.0 };
    let scenario = "relay";
    let network = stress_network();
    let deployment = stress_deployment(&network);
    let trace_events = stress_trace(&network, duration, settings.seed);
    let reps = settings.reps.max(1);

    // Crash center node 0 — it hosts join state fed by every edge node, so
    // recovery must rebuild window stores from the snapshot AND re-collect
    // a chunk of peer traffic from the replay logs. The crash fires halfway
    // through the node's own injections; the restart delay models a
    // supervisor respawning the process.
    let crash_node = 0usize;
    let local = trace_events
        .iter()
        .filter(|e| e.origin.index() == crash_node)
        .count() as u64;
    let crash_at = local / 2;
    let restart_delay = Duration::from_millis(1);
    let base_config = ThreadedConfig {
        slack: SLACK,
        chunk_ticks: Some(CHUNK_TICKS),
        ..ThreadedConfig::default()
    };

    let measure = |config: &ThreadedConfig, name: &str| -> (FaultRunRow, Vec<BTreeSet<Vec<u64>>>) {
        let _ = run_threaded(&deployment, &trace_events, config);
        let mut best: Option<muse_runtime::threaded::ThreadedReport> = None;
        for _ in 0..reps {
            let report = run_threaded(&deployment, &trace_events, config);
            if best.as_ref().is_none_or(|b| report.wall_time < b.wall_time) {
                best = Some(report);
            }
        }
        let report = best.expect("reps >= 1");
        let fps: Vec<BTreeSet<Vec<u64>>> = report
            .matches
            .iter()
            .map(|q| q.iter().map(Match::fingerprint).collect())
            .collect();
        let rec = &report.metrics.recovery;
        let row = FaultRunRow {
            mode: name.to_string(),
            events_per_sec: report.events_per_sec,
            wall_ms: report.wall_time.as_secs_f64() * 1e3,
            matches: report.metrics.sink_matches,
            crashes: rec.crashes,
            snapshots_taken: rec.snapshots_taken,
            snapshot_bytes: rec.snapshot_bytes,
            replayed_messages: rec.replayed_messages,
            suppressed_sends: rec.suppressed_sends,
            send_retries: rec.send_retries,
            recovery_ms: rec.recovery_ns as f64 / 1e6,
        };
        (row, fps)
    };

    let (baseline, base_fps) = measure(&base_config, "baseline");
    let (checkpointed, ckpt_fps) = measure(
        &ThreadedConfig {
            checkpoint: true,
            ..base_config.clone()
        },
        "checkpointed",
    );
    let crash_config = ThreadedConfig {
        checkpoint: true,
        fault: Some(FaultPlan {
            node: crash_node,
            crash_at,
            restart_delay,
        }),
        ..base_config.clone()
    };
    let (crashed, crash_fps) = measure(&crash_config, "crashed");
    let fingerprints_equal = base_fps == ckpt_fps && base_fps == crash_fps;
    let ratio = |row: &FaultRunRow| {
        if baseline.wall_ms > 0.0 {
            row.wall_ms / baseline.wall_ms
        } else {
            0.0
        }
    };
    let checkpoint_overhead = ratio(&checkpointed);
    let recovery_overhead = ratio(&crashed);

    // One instrumented crashed run so the recovery counters land in the
    // telemetry registry (sampling overhead keeps it out of the timing).
    if let Some(tel) = tel {
        let config = ThreadedConfig {
            telemetry: Some(tel.spec()),
            ..crash_config
        };
        let mut report = run_threaded(&deployment, &trace_events, &config);
        if let Some(run) = report.telemetry.take() {
            tel.record_run(&format!("{id}/crashed"), run);
        }
    }

    ExperimentOutput::FaultBench {
        id: id.to_string(),
        scenario: scenario.to_string(),
        events: trace_events.len() as u64,
        crash_node,
        crash_at,
        restart_delay_ms: restart_delay.as_secs_f64() * 1e3,
        baseline,
        checkpointed,
        crashed,
        checkpoint_overhead,
        recovery_overhead,
        fingerprints_equal,
    }
}

/// The `matcher` experiment (`BENCH_matcher.json`): indexed vs. naive join
/// throughput on the skip-till-any-match stress workload, with the
/// emission streams cross-checked for byte identity.
fn matcher_bench(
    id: &str,
    settings: &SweepSettings,
    tel: Option<&mut TelemetryCollector>,
) -> ExperimentOutput {
    let arrivals = if settings.reps <= 2 { 40_000 } else { 150_000 };
    matcher_bench_sized(id, arrivals, settings, tel)
}

fn matcher_bench_sized(
    id: &str,
    arrivals: usize,
    settings: &SweepSettings,
    tel: Option<&mut TelemetryCollector>,
) -> ExperimentOutput {
    use crate::matcher_stress::{stress_feed, stress_query, stress_slots, WINDOW};
    use muse_runtime::matcher::{JoinTask, Match, NaiveJoinTask};
    use std::time::Instant;

    // The threaded executor's default out-of-order slack: the naive engine
    // buffers (and rescans) this many windows of matches per slot.
    let slack = 4.0;
    let query = stress_query();
    let slots = stress_slots();
    let feed = stress_feed(arrivals, settings.seed);
    let reps = settings.reps.max(1);

    let run = |naive_engine: bool| -> (MatcherEngineRow, Vec<Vec<u64>>) {
        let mut best_ms = f64::INFINITY;
        let mut emitted = 0u64;
        let mut peak = 0u64;
        let mut prints: Vec<Vec<u64>> = Vec::new();
        for rep in 0..reps {
            let mut fps = Vec::new();
            let start = Instant::now();
            let (e, p) = if naive_engine {
                let mut join = NaiveJoinTask::with_slack(&query, query.prims(), &slots, slack);
                let mut peak = 0usize;
                for (slot, m) in &feed {
                    fps.extend(
                        join.on_match(*slot, m.clone())
                            .iter()
                            .map(Match::fingerprint),
                    );
                    peak = peak.max(join.buffered());
                }
                (join.emitted(), peak as u64)
            } else {
                let mut join = JoinTask::with_slack(&query, query.prims(), &slots, slack);
                for (slot, m) in &feed {
                    fps.extend(
                        join.on_match(*slot, m.clone())
                            .iter()
                            .map(Match::fingerprint),
                    );
                }
                (join.emitted(), join.stats().peak_buffered)
            };
            best_ms = best_ms.min(start.elapsed().as_secs_f64() * 1e3);
            emitted = e;
            peak = p;
            if rep == 0 {
                prints = fps;
            }
        }
        (
            MatcherEngineRow {
                engine: if naive_engine { "naive" } else { "indexed" }.to_string(),
                events_per_sec: arrivals as f64 / (best_ms / 1e3),
                matches_emitted: emitted,
                peak_open_partials: peak,
                wall_ms: best_ms,
            },
            prints,
        )
    };

    let (indexed, indexed_fps) = run(false);
    let (naive, naive_fps) = run(true);
    let fingerprints_equal = indexed_fps == naive_fps;
    let speedup = indexed.events_per_sec / naive.events_per_sec;

    // A separate instrumented pass over the indexed engine: emit-lag
    // latencies (engine watermark minus the emitted match's newest event)
    // feed both the exact vector and the streaming histogram, so the
    // exported quantiles can be cross-checked against the exact
    // percentiles.
    if let Some(tel) = tel {
        use muse_runtime::metrics::Metrics;
        use muse_runtime::telemetry::{
            names, ClockDomain, GaugeKind, RunTelemetry, TaskSummary, TraceRecord,
        };
        use muse_telemetry::SeriesRecord;

        let spec = tel.spec();
        let mut run = RunTelemetry::new(ClockDomain::VirtualTicks, &spec);
        let c_sink = run.registry.counter(names::SINK_MATCHES);
        let h_lat = run.registry.hist(names::LATENCY_SINK);
        let mut metrics = Metrics::new(1);
        let mut join = JoinTask::with_slack(&query, query.prims(), &slots, slack);
        let cadence = spec.series_cadence_ticks.max(1);
        let mut next_sample = 0u64;
        let mut prev = [0u64; 4];
        for (slot, m) in &feed {
            let outs = join.on_match(*slot, m.clone());
            let now = join.last_seen();
            for out in &outs {
                let lag = now.saturating_sub(out.last_time());
                metrics.record_latency(lag);
                run.registry.inc(c_sink, 1);
                run.registry.observe(h_lat, lag);
                run.trace.push(TraceRecord::SinkMatch {
                    t: now,
                    node: 0,
                    task: 0,
                    size: out.len(),
                    last_time: out.last_time(),
                });
            }
            if now >= next_sample {
                let s = join.stats();
                run.series.push(SeriesRecord {
                    t: now,
                    task: 0,
                    node: 0,
                    label: "J0@stress".to_string(),
                    queue_depth: 0,
                    live_matches: join.buffered() as u64,
                    watermark_lag: 0,
                    inputs: s.inputs.saturating_sub(prev[0]),
                    probes: s.probes.saturating_sub(prev[1]),
                    evictions: s.evicted.saturating_sub(prev[2]),
                    emitted: s.emitted.saturating_sub(prev[3]),
                });
                prev = [s.inputs, s.probes, s.evicted, s.emitted];
                next_sample = now + cadence;
            }
        }
        let s = *join.stats();
        for (name, v) in [
            (names::JOIN_INPUTS, s.inputs),
            (names::JOIN_PROBES, s.probes),
            (names::JOIN_GUARD_REJECTS, s.guard_rejects),
            (names::JOIN_MERGE_ATTEMPTS, s.merge_attempts),
            (names::JOIN_MERGE_SUCCESSES, s.merge_successes),
            (names::JOIN_EMITTED, s.emitted),
            (names::JOIN_EVICTED, s.evicted),
        ] {
            let c = run.registry.counter(name);
            run.registry.inc(c, v);
        }
        let g = run.registry.gauge(names::JOIN_PEAK_LIVE, GaugeKind::Max);
        run.registry.gauge_peak(g, s.peak_buffered);
        run.tasks.push(TaskSummary {
            task: 0,
            node: 0,
            label: "J0@stress".to_string(),
            kind: "sink".to_string(),
            inputs: s.inputs,
            probes: s.probes,
            emitted: s.emitted,
            evictions: s.evicted,
            peak_live: s.peak_buffered,
            considered: 0,
            admitted: 0,
            replayed: 0,
            suppressed: 0,
        });
        let label = format!("{id}/indexed");
        tel.record_run(&label, run);
        tel.check_latency(&label, &metrics);
    }

    ExperimentOutput::MatcherBench {
        id: id.to_string(),
        arrivals: arrivals as u64,
        window: WINDOW,
        slack,
        indexed,
        naive,
        speedup,
        fingerprints_equal,
    }
}

/// The `multiquery` experiment (`BENCH_multiquery.json`): shared
/// multi-query evaluation at scale. A family-structured workload is swept
/// from 1k to 100k concurrent queries over a fixed trace; at each point
/// the same merged plan runs twice on the simulator — once with
/// shared-projection collapsing plus the event discrimination index
/// (`Sharing::Shared`), once with one physical task per logical vertex
/// (`Sharing::Independent`) — and the per-query match sets must be
/// identical. Reported per point: events/sec for both modes, the mean
/// per-event candidate-set size, the band-filter rejection ratio, and the
/// peak of resident partial matches.
fn multiquery_bench(
    id: &str,
    settings: &SweepSettings,
    tel: Option<&mut TelemetryCollector>,
) -> ExperimentOutput {
    let (sweep, duration): (&[usize], f64) = if settings.reps <= 2 {
        (&[200, 2_000], 120.0)
    } else {
        (&[1_000, 10_000, 100_000], 300.0)
    };
    multiquery_bench_sized(id, sweep, duration, settings, tel)
}

fn multiquery_bench_sized(
    id: &str,
    sweep: &[usize],
    duration: f64,
    settings: &SweepSettings,
    mut tel: Option<&mut TelemetryCollector>,
) -> ExperimentOutput {
    use muse_core::network::NetworkBuilder;
    use muse_core::types::{EventTypeId, NodeId};
    use muse_runtime::deploy::Sharing;
    use muse_runtime::matcher::Match;
    use muse_runtime::sim::SimReport;
    use muse_sim::traces::{generate_traces, TraceConfig};
    use muse_sim::workload_gen::{generate_family_workload, FamilyWorkloadConfig};
    use std::collections::BTreeSet;
    use std::time::Instant;

    // 4 nodes, 12 types, each type produced by exactly one node at a flat
    // rate: the sweep varies the *workload*, so the event side stays fixed
    // and every throughput delta is attributable to query count.
    const TYPES: usize = 12;
    let mut builder = NetworkBuilder::new(4, TYPES);
    for node in 0..4u16 {
        let owned: Vec<EventTypeId> = (0..3).map(|k| EventTypeId(node * 3 + k)).collect();
        builder = builder.node(NodeId(node), owned.clone());
        for t in owned {
            builder = builder.rate(t, 2.0);
        }
    }
    let network = builder.build();

    let reps = settings.reps.max(1);
    let trace = generate_traces(
        &network,
        &TraceConfig {
            duration,
            ticks_per_unit: 1_000.0,
            rate_scale: 1.0,
            key_domain: 8,
            band_domain: 1_000,
            seed: settings.seed,
        },
    );
    let sim_config = SimConfig::default();

    let mut points = Vec::with_capacity(sweep.len());
    for (pi, &n) in sweep.iter().enumerate() {
        let workload = generate_family_workload(&FamilyWorkloadConfig {
            queries: n,
            families: 25,
            variants_per_family: 8,
            prims_per_family: 3,
            types: TYPES,
            share_fraction: 0.3,
            band_domain: 1_000,
            window: 1_000,
            seed: settings.seed,
        });
        let plan = amuse_workload(&workload, &network, &AMuseConfig::default())
            .expect("family workload plans");
        let distinct_plans = plan.graphs.len() - plan.reused_plans();
        let ctx = PlanContext::new(workload.queries(), &network, &plan.table);
        // `unchecked`: the fail-fast verifier walks every query and vertex,
        // which at 100k generated queries costs more than the run itself;
        // these plans come straight from the in-tree construction.
        let shared = Deployment::unchecked(&plan.merged, &ctx, Sharing::Shared);
        let independent = Deployment::unchecked(&plan.merged, &ctx, Sharing::Independent);

        let fingerprints = |report: &SimReport| -> Vec<BTreeSet<Vec<u64>>> {
            report
                .matches
                .iter()
                .map(|q| q.iter().map(Match::fingerprint).collect())
                .collect()
        };

        // Shared mode: one untimed warmup (faults the trace in), then
        // best-of-reps. Independent mode runs once afterwards, with the
        // trace already warm — any cache bias favors the baseline.
        let _ = run_simulation(&shared, &trace, &sim_config);
        let mut best: Option<(std::time::Duration, SimReport)> = None;
        for _ in 0..reps {
            let started = Instant::now();
            let report = run_simulation(&shared, &trace, &sim_config);
            let wall = started.elapsed();
            if best.as_ref().is_none_or(|(b, _)| wall < *b) {
                best = Some((wall, report));
            }
        }
        let (shared_wall, shared_report) = best.expect("reps >= 1");
        let started = Instant::now();
        let independent_report = run_simulation(&independent, &trace, &sim_config);
        let independent_wall = started.elapsed();

        let fingerprints_equal = fingerprints(&shared_report) == fingerprints(&independent_report);
        let shared_wall_ms = shared_wall.as_secs_f64() * 1e3;
        let independent_wall_ms = independent_wall.as_secs_f64() * 1e3;
        let shared_eps = trace.len() as f64 / shared_wall.as_secs_f64();
        let independent_eps = trace.len() as f64 / independent_wall.as_secs_f64();
        let sd = &shared_report.metrics.discrimination;
        let idd = &independent_report.metrics.discrimination;

        // Instrumented shared pass on the smallest point only: telemetry
        // sampling has overhead and one labeled run is enough for the
        // harness summary tables.
        if pi == 0 {
            if let Some(tel) = tel.as_deref_mut() {
                let config = SimConfig {
                    telemetry: Some(tel.spec()),
                    ..sim_config.clone()
                };
                let mut report = run_simulation(&shared, &trace, &config);
                if let Some(run) = report.telemetry.take() {
                    tel.record_run(&format!("{id}/q{n}/shared"), run);
                }
            }
        }

        points.push(MultiQueryRow {
            queries: n,
            distinct_plans,
            logical_tasks: shared.logical_tasks,
            physical_tasks: shared.tasks.len(),
            shared_events_per_sec: shared_eps,
            shared_wall_ms,
            independent_events_per_sec: independent_eps,
            independent_wall_ms,
            speedup: shared_eps / independent_eps,
            mean_candidates_shared: sd.mean_candidates(),
            mean_candidates_independent: idd.mean_candidates(),
            filtered_pct: 100.0 * sd.hit_ratio(),
            peak_partials_shared: shared_report.metrics.join.peak_buffered,
            peak_partials_independent: independent_report.metrics.join.peak_buffered,
            matches: shared_report.metrics.sink_matches,
            fingerprints_equal,
        });
    }

    let fingerprints_equal = points.iter().all(|p| p.fingerprints_equal);
    let first = points.first().expect("non-empty sweep");
    let last = points.last().expect("non-empty sweep");
    let sublinear =
        last.shared_wall_ms / first.shared_wall_ms < last.queries as f64 / first.queries as f64;

    ExperimentOutput::MultiQueryBench {
        id: id.to_string(),
        events: trace.len() as u64,
        points,
        fingerprints_equal,
        sublinear,
    }
}

/// The `observe` experiment (`BENCH_observe.json`): the observability
/// stack end-to-end. Four phases:
///
/// 1. **Overhead** — the relay workload runs on the simulator with
///    telemetry off, with telemetry attached but provenance disabled,
///    with 1-in-64 provenance sampling, and with every sink match
///    recorded; wall-time ratios against the off mode gate the
///    zero-cost-when-disabled claim. A threaded run with sampling on is
///    then checked for match parity against the untraced simulator.
/// 2. **Witness closure** — the calibrated `SEQ` workload runs on the
///    simulator with `provenance_sample = 1`; every record's witness set
///    is replayed through a fresh simulation and must reproduce its match
///    byte-identically (the same check `harness explain` exposes).
/// 3. **Drift** — the §4.4 cost model is re-evaluated against observed
///    per-vertex rates: near-zero on the stationary trace, above 0.5 when
///    the trace is generated from a 3x rate-shifted network.
/// 4. **Flight recorder** — a crash is injected into a checkpointed relay
///    run; the crashed node's bounded flight ring must dump and decode.
fn observe_bench(
    id: &str,
    settings: &SweepSettings,
    tel: Option<&mut TelemetryCollector>,
) -> ExperimentOutput {
    let relay_duration = if settings.reps <= 2 { 40.0 } else { 120.0 };
    let witness_duration = crate::observe::witness_duration(settings.reps <= 2);
    observe_bench_sized(id, relay_duration, witness_duration, settings, tel)
}

fn observe_bench_sized(
    id: &str,
    relay_duration: f64,
    witness_duration: f64,
    settings: &SweepSettings,
    mut tel: Option<&mut TelemetryCollector>,
) -> ExperimentOutput {
    use crate::observe::{
        find_recorded_match, observe_deployment, observe_network, observe_trace, shifted_network,
        witness_closure_holds, witness_spec, RATE_SCALE, TICKS_PER_UNIT,
    };
    use crate::transport_stress::{stress_deployment, stress_network, stress_trace, WINDOW};
    use muse_runtime::drift::CostDrift;
    use muse_runtime::flight::{decode_dump, render_timeline};
    use muse_runtime::matcher::Match;
    use muse_runtime::threaded::FaultPlan;
    use muse_telemetry::TelemetrySpec;
    use std::collections::BTreeSet;
    use std::time::Duration;

    // Same chunk/slack regime as the executor bench (see there).
    const CHUNK_TICKS: muse_core::event::Timestamp = 10 * WINDOW;
    const SLACK: f64 = 12.0;
    const SAMPLE: u64 = 64;
    let network = stress_network();
    let deployment = stress_deployment(&network);
    let trace_events = stress_trace(&network, relay_duration, settings.seed);
    let reps = settings.reps.max(1);

    // Phase 1: wall-time overhead of the provenance path, measured on the
    // simulator. The telemetry spec under test IS the measured
    // configuration here (unlike the other benches, which keep
    // instrumentation out of the timed runs); the single-threaded
    // simulator exercises every per-event hook the tracer adds
    // (inject/candidate/emit/rate/sink-match) while keeping the timing
    // deterministic — the threaded executor's barrier rounds make its
    // wall time scheduler-bound on small hosts, which would gate CI on
    // noise rather than on the tracer. Modes are measured round-robin and
    // scored by their fastest rep, on a trace long enough that the 5%
    // gate's headroom dwarfs timer jitter.
    let overhead_events = stress_trace(&network, relay_duration.max(240.0), settings.seed);
    let modes: [(&str, Option<TelemetrySpec>); 4] = [
        ("off", None),
        ("disabled", Some(TelemetrySpec::provenance_only(0))),
        ("sampled", Some(TelemetrySpec::provenance_only(SAMPLE))),
        ("full", Some(TelemetrySpec::provenance_only(1))),
    ];
    let measure_reps = reps.max(5);
    let mut best_ms = [f64::MAX; 4];
    let mut held_dropped = [(0u64, 0u64); 4];
    for round in 0..=measure_reps {
        for (i, (_, spec)) in modes.iter().enumerate() {
            let config = SimConfig {
                telemetry: spec.clone(),
                ..SimConfig::default()
            };
            let started = std::time::Instant::now();
            let report = run_simulation(&deployment, &overhead_events, &config);
            let ms = started.elapsed().as_secs_f64() * 1e3;
            // Round 0 is warmup for every mode alike.
            if round > 0 && ms < best_ms[i] {
                best_ms[i] = ms;
            }
            held_dropped[i] = report.telemetry.as_ref().map_or((0, 0), |t| {
                (t.provenance.len() as u64, t.provenance.dropped())
            });
            std::hint::black_box(report);
        }
    }
    let base = best_ms[0].max(f64::MIN_POSITIVE);
    let mut rows: Vec<ObserveModeRow> = modes
        .iter()
        .zip(best_ms.iter().zip(held_dropped))
        .map(|((name, _), (&ms, (held, dropped)))| ObserveModeRow {
            mode: name.to_string(),
            wall_ms: ms,
            overhead: ms / base,
            provenance_records: held,
            provenance_dropped: dropped,
        })
        .collect();
    let full = rows.pop().expect("4 modes");
    let sampled = rows.pop().expect("4 modes");
    let disabled = rows.pop().expect("4 modes");
    let off = rows.pop().expect("4 modes");
    let disabled_ok = disabled.overhead < 1.05;
    let sampled_ok = sampled.overhead < 1.15;

    // Executor parity on the relay trace: the simulator's untraced
    // trace-ordered run and a threaded run with 1-in-64 provenance
    // sampling must agree per query — the check that provenance hooks
    // cannot perturb matching, which also keeps the threaded hot path
    // covered now that the timed rows above come from the simulator.
    let fingerprints = |matches: &[Vec<Match>]| -> Vec<BTreeSet<Vec<u64>>> {
        matches
            .iter()
            .map(|q| q.iter().map(Match::fingerprint).collect())
            .collect()
    };
    let threaded_config = ThreadedConfig {
        slack: SLACK,
        chunk_ticks: Some(CHUNK_TICKS),
        telemetry: Some(TelemetrySpec::provenance_only(SAMPLE)),
        ..ThreadedConfig::default()
    };
    let traced_report = run_threaded(&deployment, &trace_events, &threaded_config);
    let sim_report = run_simulation(&deployment, &trace_events, &SimConfig::default());
    let fingerprints_equal =
        fingerprints(&sim_report.matches) == fingerprints(&traced_report.matches);

    // Phase 2: witness closure on the calibrated workload.
    let onet = observe_network();
    let odeployment = observe_deployment(&onet);
    let otrace = observe_trace(&onet, witness_duration, settings.seed);
    let oconfig = SimConfig {
        telemetry: Some(witness_spec()),
        ..SimConfig::default()
    };
    let mut oreport = run_simulation(&odeployment, &otrace, &oconfig);
    let orun = oreport.telemetry.take().expect("telemetry requested");
    let provenance_records = orun.provenance.len() as u64;
    let witness_total: usize = orun.provenance.records().map(|r| r.witness.len()).sum();
    let mean_witness = witness_total as f64 / provenance_records.max(1) as f64;
    let mut witnesses_reproduce = provenance_records > 0 && orun.provenance.dropped() == 0;
    for rec in orun.provenance.records() {
        witnesses_reproduce &= find_recorded_match(&oreport.matches, rec)
            .is_some_and(|orig| witness_closure_holds(&odeployment, &otrace, rec, orig));
    }

    // Phase 3: cost-model drift — stationary rates from the witness run's
    // estimators, shifted rates from a trace generated at 3x.
    let duration_ticks = (witness_duration * TICKS_PER_UNIT) as u64;
    let stationary = CostDrift::compute(
        &odeployment,
        &orun.rates,
        TICKS_PER_UNIT,
        RATE_SCALE,
        duration_ticks,
    );
    let strace = observe_trace(&shifted_network(), witness_duration, settings.seed + 1);
    let mut sreport = run_simulation(&odeployment, &strace, &oconfig);
    let srun = sreport.telemetry.take().expect("telemetry requested");
    let shifted = CostDrift::compute(
        &odeployment,
        &srun.rates,
        TICKS_PER_UNIT,
        RATE_SCALE,
        duration_ticks,
    );
    let stationary_ok = stationary.score < 0.10;
    let shifted_detected = shifted.score > 0.5;
    if let Some(tel) = tel.as_deref_mut() {
        tel.record_run(&format!("{id}/witness"), orun);
    }

    // Phase 4: flight recorder. A short checkpointed relay run with an
    // injected crash; the crashed node publishes its flight ring, which
    // must decode and carry the crash marker.
    let ftrace = stress_trace(&network, relay_duration.min(20.0), settings.seed);
    // Crash the first *edge* node: it injects ~100 events per time unit,
    // so the halfway crash point exists even on short traces (the centers'
    // rare anchors may not produce a single event before the run ends).
    let crash_node = crate::transport_stress::CENTERS;
    let local = ftrace
        .iter()
        .filter(|e| e.origin.index() == crash_node)
        .count() as u64;
    let fconfig = ThreadedConfig {
        slack: SLACK,
        chunk_ticks: Some(CHUNK_TICKS),
        checkpoint: true,
        fault: Some(FaultPlan {
            node: crash_node,
            crash_at: local / 2,
            restart_delay: Duration::from_millis(1),
        }),
        telemetry: tel.as_deref().map(|t| t.spec()),
        ..ThreadedConfig::default()
    };
    let mut freport = run_threaded(&deployment, &ftrace, &fconfig);
    if let Some(tel) = tel {
        if let Some(run) = freport.telemetry.take() {
            tel.record_run(&format!("{id}/crashed"), run);
        }
    }
    let dumps: Vec<muse_runtime::flight::FlightDump> = freport
        .flight_dumps
        .iter()
        .filter_map(|d| decode_dump(d))
        .collect();
    let flight_records = dumps.iter().map(|d| d.records.len() as u64).sum();
    let flight_timeline = dumps
        .first()
        .map(|d| {
            let full = render_timeline(d);
            let lines: Vec<&str> = full.lines().collect();
            let tail = lines.len().saturating_sub(12);
            lines[tail..].join("\n")
        })
        .unwrap_or_default();

    ExperimentOutput::ObserveBench {
        id: id.to_string(),
        events: trace_events.len() as u64,
        sample: SAMPLE,
        overhead: vec![off, disabled, sampled, full],
        disabled_ok,
        sampled_ok,
        fingerprints_equal,
        provenance_records,
        mean_witness,
        witnesses_reproduce,
        stationary_score: stationary.score,
        stationary_ok,
        shifted_score: shifted.score,
        shifted_detected,
        drift_vertices: stationary.per_vertex.len(),
        stationary_drift: stationary,
        shifted_drift: shifted,
        flight_records,
        flight_timeline,
    }
}

/// The `migrate` experiment (`BENCH_migrate.json`): the live-migration
/// soundness gate over the Fig. 1 `SEQ(AND(t0, t1), t2)` workload, whose
/// partial matches cross the network. A simulator run under plan A is
/// snapshotted mid-trace; the certified identity migration must resume
/// fingerprint-identical to an uninterrupted run in the simulator AND the
/// threaded executor; the certified widened-window pair must restore with
/// its replay obligation; and the narrowed-window pair must be refused by
/// the verifier and fail [`checkpoint::map_snapshot`]. `scripts/ci.sh`
/// greps the `certified_identical` and `rejected_fails` flags.
fn migrate_bench(
    id: &str,
    settings: &SweepSettings,
    _tel: Option<&mut TelemetryCollector>,
) -> ExperimentOutput {
    use muse_core::catalog::Catalog;
    use muse_core::event::Timestamp;
    use muse_core::graph::MuseGraph;
    use muse_core::query::{Pattern, Predicate, Query};
    use muse_core::types::{EventTypeId, NodeId};
    use muse_runtime::checkpoint::{self, CheckpointError};
    use muse_runtime::matcher::Match;
    use muse_runtime::sim::SimExecutor;
    use muse_runtime::threaded::run_threaded_resumed;
    use muse_verify::verify_migration;
    use std::collections::BTreeSet;

    const WINDOW_OLD: Timestamp = 5_000;
    const WINDOW_WIDE: Timestamp = 8_000;
    const WINDOW_NARROW: Timestamp = 2_000;

    let t = EventTypeId;
    let network = muse_core::network::NetworkBuilder::new(3, 3)
        .node(NodeId(0), [t(0), t(2)])
        .node(NodeId(1), [t(0), t(1)])
        .node(NodeId(2), [t(1)])
        .rate(t(0), 20.0)
        .rate(t(1), 20.0)
        .rate(t(2), 1.0)
        .build();
    let events = muse_sim::traces::generate_traces(
        &network,
        &muse_sim::traces::TraceConfig {
            duration: 30.0,
            ticks_per_unit: 100.0,
            rate_scale: 0.05,
            key_domain: 0,
            band_domain: 0,
            seed: settings.seed,
        },
    );
    let half = events.len() / 2;

    struct Placed {
        queries: Vec<Query>,
        table: ProjectionTable,
        graph: MuseGraph,
        deployment: Deployment,
    }
    let place = |window: Timestamp| -> Placed {
        let pattern = Pattern::seq([
            Pattern::and([Pattern::leaf(t(0)), Pattern::leaf(t(1))]),
            Pattern::leaf(t(2)),
        ]);
        let workload = Workload::from_patterns(
            Catalog::with_anonymous_types(3),
            [(pattern, Vec::<Predicate>::new(), window)],
        )
        .expect("pattern builds a workload");
        let plan = amuse_workload(&workload, &network, &AMuseConfig::default())
            .expect("aMuSE plans workload");
        let queries = workload.queries().to_vec();
        let ctx = PlanContext::new(&queries, &network, &plan.table);
        let deployment = Deployment::new(&plan.merged, &ctx);
        Placed {
            queries,
            table: plan.table,
            graph: plan.merged,
            deployment,
        }
    };
    let certify = |a: &Placed, b: &Placed| {
        let actx = PlanContext::new(&a.queries, &network, &a.table);
        let bctx = PlanContext::new(&b.queries, &network, &b.table);
        verify_migration(&a.graph, &actx, &b.graph, &bctx, None)
    };
    let fps = |matches: &[Match]| -> BTreeSet<Vec<u64>> {
        matches.iter().map(Match::fingerprint).collect()
    };

    let a = place(WINDOW_OLD);
    let b = place(WINDOW_OLD);
    let wide = place(WINDOW_WIDE);
    let narrow = place(WINDOW_NARROW);

    // One mid-trace snapshot under plan A feeds every direction below.
    let mut exec = SimExecutor::new(&a.deployment, SimConfig::default());
    exec.process_trace(&events[..half]);
    let bytes = checkpoint::snapshot(&exec).expect("sim snapshots");

    // Certified identity migration: resume in both executors and compare
    // against uninterrupted runs under the new plan.
    let (_, plan_ab) = certify(&a, &b);
    let identity_certified = plan_ab.safe && !plan_ab.needs_replay;
    let matched_tasks = plan_ab.matched;
    let (sim_identical, migrated_matches) = if plan_ab.safe {
        let mut resumed = checkpoint::restore_mapped(
            &a.deployment,
            &b.deployment,
            &plan_ab,
            SimConfig::default(),
            &bytes,
        )
        .expect("certified migration restores");
        resumed.process_trace(&events[half..]);
        let migrated = resumed.finish();
        let mut uninterrupted = SimExecutor::new(&b.deployment, SimConfig::default());
        uninterrupted.process_trace(&events);
        let baseline = uninterrupted.finish();
        let identical = !baseline.matches[0].is_empty()
            && fps(&migrated.matches[0]) == fps(&baseline.matches[0]);
        (identical, migrated.metrics.sink_matches)
    } else {
        (false, 0)
    };
    let tcfg = ThreadedConfig::default();
    let threaded_identical = plan_ab.safe && {
        let mapped =
            checkpoint::map_snapshot(&a.deployment, &b.deployment, &plan_ab, tcfg.slack, &bytes)
                .expect("certified migration maps");
        let mapped_bytes = checkpoint::encode(&mapped);
        let migrated = run_threaded_resumed(&b.deployment, &events, &tcfg, &mapped_bytes)
            .expect("mapped snapshot resumes the threaded executor");
        let baseline = run_threaded(&b.deployment, &events, &tcfg);
        !baseline.matches[0].is_empty() && fps(&migrated.matches[0]) == fps(&baseline.matches[0])
    };
    let certified_identical = identity_certified && sim_identical && threaded_identical;

    // Widened window: must certify with a replay obligation and restore.
    let (_, plan_aw) = certify(&a, &wide);
    let widened_certified_with_replay = plan_aw.safe
        && plan_aw.needs_replay
        && checkpoint::restore_mapped(
            &a.deployment,
            &wide.deployment,
            &plan_aw,
            SimConfig::default(),
            &bytes,
        )
        .is_ok();

    // Narrowed window: the verifier must refuse, and the mapped restore
    // must fail — no state ever crosses an uncertified migration.
    let (_, plan_an) = certify(&a, &narrow);
    let narrow_refused = !plan_an.safe;
    let rejected_fails = matches!(
        checkpoint::map_snapshot(
            &a.deployment,
            &narrow.deployment,
            &plan_an,
            SimConfig::default().slack,
            &bytes,
        ),
        Err(CheckpointError::MigrationRejected(_))
    );

    ExperimentOutput::MigrateBench {
        id: id.to_string(),
        events: events.len() as u64,
        window_old: WINDOW_OLD,
        window_wide: WINDOW_WIDE,
        window_narrow: WINDOW_NARROW,
        matched_tasks,
        identity_certified,
        sim_identical,
        threaded_identical,
        certified_identical,
        widened_certified_with_replay,
        narrow_refused,
        rejected_fails,
        migrated_matches,
    }
}

impl ExperimentOutput {
    /// The experiment's id.
    pub fn id(&self) -> &str {
        match self {
            ExperimentOutput::RatioSweep { id, .. }
            | ExperimentOutput::Construction { id, .. }
            | ExperimentOutput::CaseStudyTable { id, .. }
            | ExperimentOutput::CaseStudyRuns { id, .. }
            | ExperimentOutput::ExecutorBench { id, .. }
            | ExperimentOutput::FaultBench { id, .. }
            | ExperimentOutput::MatcherBench { id, .. }
            | ExperimentOutput::MultiQueryBench { id, .. }
            | ExperimentOutput::ObserveBench { id, .. }
            | ExperimentOutput::MigrateBench { id, .. } => id,
        }
    }

    /// Renders the experiment as a plain-text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        match self {
            ExperimentOutput::RatioSweep {
                id,
                title,
                x_label,
                points,
            } => {
                let _ = writeln!(out, "== {id}: {title} ==");
                let _ = writeln!(
                    out,
                    "{x_label:>16} | {:>24} | {:>24} | {:>24}",
                    "aMuSE (med [min,max])", "aMuSE* (med [min,max])", "oOP (med [min,max])"
                );
                for p in points {
                    let f = |v: &Vec<f64>| {
                        let s = summarize(v);
                        format!("{:.5} [{:.5},{:.5}]", s.median, s.min, s.max)
                    };
                    let _ = writeln!(
                        out,
                        "{:>16} | {:>24} | {:>24} | {:>24}",
                        p.x,
                        f(&p.amuse),
                        f(&p.amuse_star),
                        f(&p.oop)
                    );
                }
            }
            ExperimentOutput::Construction { id, rows } => {
                let _ = writeln!(out, "== {id}: construction efficiency ==");
                let _ = writeln!(
                    out,
                    "{:>32} | {:>12} | {:>12} | {:>12} | {:>12}",
                    "setting", "aMuSE [ms]", "aMuSE* [ms]", "aMuSE #proj", "aMuSE* #proj"
                );
                for r in rows {
                    let _ = writeln!(
                        out,
                        "{:>32} | {:>12.2} | {:>12.2} | {:>12.0} | {:>12.0}",
                        r.setting,
                        r.amuse_ms,
                        r.amuse_star_ms,
                        r.amuse_projections,
                        r.amuse_star_projections
                    );
                }
            }
            ExperimentOutput::CaseStudyTable { id, rows } => {
                let _ = writeln!(out, "== {id}: case study transmission ratio ==");
                let _ = writeln!(
                    out,
                    "{:>8} | {:>12} | {:>12} | {:>10}",
                    "scenario", "aMuSE", "oOP", "matches"
                );
                for r in rows {
                    let _ = writeln!(
                        out,
                        "{:>8} | {:>11.1}% | {:>11.1}% | {:>10}",
                        r.scenario,
                        r.amuse_ratio * 100.0,
                        r.oop_ratio * 100.0,
                        r.matches
                    );
                }
            }
            ExperimentOutput::CaseStudyRuns { id, rows } => {
                let _ = writeln!(out, "== {id}: case study latency & throughput ==");
                let _ = writeln!(
                    out,
                    "{:>8} | {:>4} | {:>44} | {:>12} | {:>8}",
                    "scenario", "plan", "latency µs (min/q1/med/q3/max)", "events/s", "matches"
                );
                for r in rows {
                    let lat = format!(
                        "{:.0}/{:.0}/{:.0}/{:.0}/{:.0}",
                        r.latency_us[0],
                        r.latency_us[1],
                        r.latency_us[2],
                        r.latency_us[3],
                        r.latency_us[4]
                    );
                    let _ = writeln!(
                        out,
                        "{:>8} | {:>4} | {:>44} | {:>12.0} | {:>8}",
                        r.scenario, r.strategy, lat, r.events_per_sec, r.matches
                    );
                }
            }
            ExperimentOutput::ExecutorBench {
                id,
                scenario,
                events,
                batch,
                capacity,
                batched: r,
                sim_matches,
                fingerprints_equal,
            } => {
                let _ = writeln!(
                    out,
                    "== {id}: transport throughput ({scenario}, {events} events, \
                     batch {batch}, capacity {capacity}) =="
                );
                let _ = writeln!(
                    out,
                    "{:>8} | {:>12} | {:>10} | {:>8} | {:>10} | {:>10} | {:>8} | {:>7} | {:>6} | {:>8}",
                    "mode",
                    "events/s",
                    "wall ms",
                    "matches",
                    "frames",
                    "messages",
                    "batch",
                    "blocked",
                    "reuse",
                    "q-peak"
                );
                let _ = writeln!(
                    out,
                    "{:>8} | {:>12.0} | {:>10.1} | {:>8} | {:>10} | {:>10} | {:>8.1} | {:>7} | {:>5.0}% | {:>8}",
                    r.transport,
                    r.events_per_sec,
                    r.wall_ms,
                    r.matches,
                    r.frames_sent,
                    r.messages_framed,
                    r.mean_batch,
                    r.blocked_sends,
                    r.pool_reuse_ratio * 100.0,
                    r.peak_queue_depth
                );
                let _ = writeln!(
                    out,
                    "simulator matches: {sim_matches}, match sets identical to the simulator: \
                     {fingerprints_equal}"
                );
            }
            ExperimentOutput::FaultBench {
                id,
                scenario,
                events,
                crash_node,
                crash_at,
                restart_delay_ms,
                baseline,
                checkpointed,
                crashed,
                checkpoint_overhead,
                recovery_overhead,
                fingerprints_equal,
            } => {
                let _ = writeln!(
                    out,
                    "== {id}: crash recovery ({scenario}, {events} events, crash node \
                     {crash_node} at injection {crash_at}, downtime {restart_delay_ms:.0} ms) =="
                );
                let _ = writeln!(
                    out,
                    "{:>12} | {:>12} | {:>10} | {:>8} | {:>6} | {:>10} | {:>10} | {:>9} | {:>10} | {:>8} | {:>8}",
                    "mode",
                    "events/s",
                    "wall ms",
                    "matches",
                    "crash",
                    "snapshots",
                    "snap KiB",
                    "replayed",
                    "suppressed",
                    "retries",
                    "rec ms"
                );
                for r in [baseline, checkpointed, crashed] {
                    let _ = writeln!(
                        out,
                        "{:>12} | {:>12.0} | {:>10.1} | {:>8} | {:>6} | {:>10} | {:>10.1} | {:>9} | {:>10} | {:>8} | {:>8.2}",
                        r.mode,
                        r.events_per_sec,
                        r.wall_ms,
                        r.matches,
                        r.crashes,
                        r.snapshots_taken,
                        r.snapshot_bytes as f64 / 1024.0,
                        r.replayed_messages,
                        r.suppressed_sends,
                        r.send_retries,
                        r.recovery_ms
                    );
                }
                let _ = writeln!(
                    out,
                    "checkpoint overhead: {checkpoint_overhead:.2}x, recovery overhead: \
                     {recovery_overhead:.2}x, match sets identical: {fingerprints_equal}"
                );
            }
            ExperimentOutput::MatcherBench {
                id,
                arrivals,
                window,
                slack,
                indexed,
                naive,
                speedup,
                fingerprints_equal,
            } => {
                let _ = writeln!(
                    out,
                    "== {id}: join engine throughput ({arrivals} arrivals, window {window}, \
                     slack {slack}) =="
                );
                let _ = writeln!(
                    out,
                    "{:>8} | {:>12} | {:>10} | {:>14} | {:>10}",
                    "engine", "events/s", "wall ms", "peak partials", "matches"
                );
                for r in [indexed, naive] {
                    let _ = writeln!(
                        out,
                        "{:>8} | {:>12.0} | {:>10.1} | {:>14} | {:>10}",
                        r.engine,
                        r.events_per_sec,
                        r.wall_ms,
                        r.peak_open_partials,
                        r.matches_emitted
                    );
                }
                let _ = writeln!(
                    out,
                    "speedup: {speedup:.2}x, emission streams identical: {fingerprints_equal}"
                );
            }
            ExperimentOutput::MultiQueryBench {
                id,
                events,
                points,
                fingerprints_equal,
                sublinear,
            } => {
                let _ = writeln!(
                    out,
                    "== {id}: shared multi-query evaluation ({events} events per run) =="
                );
                let _ = writeln!(
                    out,
                    "{:>8} | {:>8} | {:>8} {:>8} | {:>12} {:>12} | {:>8} | {:>10} {:>9} | {:>10} | {:>8} | {:>3}",
                    "queries",
                    "distinct",
                    "logical",
                    "physical",
                    "shared e/s",
                    "indep e/s",
                    "speedup",
                    "mean-cand",
                    "filtered",
                    "partials",
                    "matches",
                    "fp"
                );
                for p in points {
                    let _ = writeln!(
                        out,
                        "{:>8} | {:>8} | {:>8} {:>8} | {:>12.0} {:>12.0} | {:>7.2}x | {:>10.1} {:>8.1}% | {:>10} | {:>8} | {:>3}",
                        p.queries,
                        p.distinct_plans,
                        p.logical_tasks,
                        p.physical_tasks,
                        p.shared_events_per_sec,
                        p.independent_events_per_sec,
                        p.speedup,
                        p.mean_candidates_shared,
                        p.filtered_pct,
                        p.peak_partials_shared,
                        p.matches,
                        if p.fingerprints_equal { "ok" } else { "DIV" }
                    );
                }
                let _ = writeln!(
                    out,
                    "all match sets identical: {fingerprints_equal}, sublinear scaling: {sublinear}"
                );
            }
            ExperimentOutput::ObserveBench {
                id,
                events,
                sample,
                overhead,
                disabled_ok,
                sampled_ok,
                fingerprints_equal,
                provenance_records,
                mean_witness,
                witnesses_reproduce,
                stationary_score,
                stationary_ok,
                shifted_score,
                shifted_detected,
                drift_vertices,
                stationary_drift: _,
                shifted_drift,
                flight_records,
                flight_timeline,
            } => {
                let _ = writeln!(
                    out,
                    "== {id}: observability stack (relay, {events} events, sample 1-in-{sample}) =="
                );
                let _ = writeln!(
                    out,
                    "{:>10} | {:>10} | {:>8} | {:>12} | {:>8}",
                    "provenance", "wall ms", "overhead", "records", "dropped"
                );
                for r in overhead {
                    let _ = writeln!(
                        out,
                        "{:>10} | {:>10.1} | {:>7.2}x | {:>12} | {:>8}",
                        r.mode, r.wall_ms, r.overhead, r.provenance_records, r.provenance_dropped
                    );
                }
                let _ = writeln!(
                    out,
                    "disabled <5%: {disabled_ok}, sampled <15%: {sampled_ok}, \
                     sim/threaded match sets identical: {fingerprints_equal}"
                );
                let _ = writeln!(
                    out,
                    "witness closure: {provenance_records} records, mean witness \
                     {mean_witness:.1} events, all reproduce byte-identically: \
                     {witnesses_reproduce}"
                );
                let _ = writeln!(
                    out,
                    "cost-model drift over {drift_vertices} vertices: stationary \
                     {stationary_score:.4} (ok: {stationary_ok}), shifted {shifted_score:.4} \
                     (detected: {shifted_detected})"
                );
                let _ = writeln!(out, "worst shifted vertices:\n{}", shifted_drift.render(3));
                let _ = writeln!(
                    out,
                    "flight recorder: {flight_records} records dumped at crash"
                );
                if !flight_timeline.is_empty() {
                    let _ = writeln!(out, "{flight_timeline}");
                }
            }
            ExperimentOutput::MigrateBench {
                id,
                events,
                window_old,
                window_wide,
                window_narrow,
                matched_tasks,
                identity_certified,
                sim_identical,
                threaded_identical,
                certified_identical,
                widened_certified_with_replay,
                narrow_refused,
                rejected_fails,
                migrated_matches,
            } => {
                let _ = writeln!(
                    out,
                    "== {id}: live migration soundness (fig1 workload, {events} events) =="
                );
                let _ = writeln!(
                    out,
                    "identity {window_old} -> {window_old}: certified {identity_certified}, \
                     {matched_tasks} matched task(s), sim identical {sim_identical}, threaded \
                     identical {threaded_identical} ({migrated_matches} matches)"
                );
                let _ = writeln!(
                    out,
                    "widened {window_old} -> {window_wide}: certified with replay and restores: \
                     {widened_certified_with_replay}"
                );
                let _ = writeln!(
                    out,
                    "narrowed {window_old} -> {window_narrow}: verifier refused {narrow_refused}, \
                     mapped restore fails {rejected_fails}"
                );
                let _ = writeln!(
                    out,
                    "certified restores identical: {certified_identical}, rejected restore \
                     fails: {rejected_fails}"
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SweepSettings {
        SweepSettings { reps: 1, seed: 3 }
    }

    #[test]
    fn experiment_ids_resolve() {
        assert_eq!(all_experiments().len(), 12);
    }

    #[test]
    #[should_panic(expected = "unknown experiment")]
    fn unknown_id_panics() {
        run_experiment("fig99", &quick());
    }

    #[test]
    fn matcher_bench_small_instance_agrees() {
        let out = matcher_bench_sized("matcher", 2_000, &quick(), None);
        match &out {
            ExperimentOutput::MatcherBench {
                indexed,
                naive,
                fingerprints_equal,
                ..
            } => {
                assert!(*fingerprints_equal, "engines diverged");
                assert_eq!(indexed.matches_emitted, naive.matches_emitted);
                assert!(indexed.matches_emitted > 0);
                assert!(indexed.peak_open_partials > 0);
            }
            other => panic!("unexpected output {other:?}"),
        }
        assert_eq!(out.id(), "matcher");
        let text = out.render();
        assert!(text.contains("speedup"));
        assert!(text.contains("indexed"));
    }

    #[test]
    fn executor_bench_small_instance_agrees() {
        let mut tel = TelemetryCollector::new();
        let out = executor_bench_sized("executor", 20.0, &quick(), Some(&mut tel));
        match &out {
            ExperimentOutput::ExecutorBench {
                batched,
                sim_matches,
                fingerprints_equal,
                ..
            } => {
                assert!(
                    *fingerprints_equal,
                    "threaded run diverged from the simulator"
                );
                assert_eq!(batched.matches, *sim_matches);
                assert!(batched.matches > 0, "workload must produce matches");
                assert!(batched.frames_sent > 0, "plan must ship frames");
                // Batching packs several messages into a frame and recycles
                // frame buffers.
                assert!(batched.frames_sent < batched.messages_framed);
                assert!(batched.mean_batch > 1.0);
                assert!(batched.pool_reuse_ratio > 0.0);
            }
            other => panic!("unexpected output {other:?}"),
        }
        assert_eq!(out.id(), "executor");
        let text = out.render();
        assert!(text.contains("simulator"));
        assert!(text.contains("batched"));
        let (label, run) = tel.runs().next().expect("one instrumented run");
        assert_eq!(label, "executor/batched");
        assert!(
            run.transport_summary().is_some(),
            "instrumented run must carry transport telemetry"
        );
    }

    #[test]
    fn multiquery_bench_small_instance_agrees() {
        let mut tel = TelemetryCollector::new();
        let out = multiquery_bench_sized("multiquery", &[50, 500], 30.0, &quick(), Some(&mut tel));
        match &out {
            ExperimentOutput::MultiQueryBench {
                points,
                fingerprints_equal,
                ..
            } => {
                assert!(*fingerprints_equal, "evaluation modes diverged");
                assert_eq!(points.len(), 2);
                for p in points {
                    assert!(p.matches > 0, "workload must produce matches");
                    // Sharing must collapse duplicate structures: 500
                    // queries over 200 distinct structures cannot need
                    // more physical than logical tasks, and the larger
                    // point must show strictly fewer physical tasks than
                    // logical ones.
                    assert!(p.physical_tasks <= p.logical_tasks);
                    assert!(p.mean_candidates_shared > 0.0);
                }
                assert!(
                    points[1].physical_tasks < points[1].logical_tasks,
                    "500 queries over 200 structures must share tasks"
                );
                // The shared plan never does worse than one-task-per-vertex.
                assert!(points[1].speedup > 1.0, "speedup {}", points[1].speedup);
            }
            other => panic!("unexpected output {other:?}"),
        }
        assert_eq!(out.id(), "multiquery");
        let text = out.render();
        assert!(text.contains("sublinear"));
        let (label, run) = tel.runs().next().expect("one instrumented run");
        assert_eq!(label, "multiquery/q50/shared");
        assert!(
            run.discrimination_summary().is_some(),
            "instrumented run must carry discrimination telemetry"
        );
    }

    #[test]
    fn observe_bench_small_instance_holds() {
        let mut tel = TelemetryCollector::new();
        // Relay phase shortened to 10 units (wall-clock bound); the
        // witness/drift phase needs ~60 units or Poisson noise alone
        // pushes per-vertex drift past the stationary gate.
        let out = observe_bench_sized("observe", 10.0, 60.0, &quick(), Some(&mut tel));
        match &out {
            ExperimentOutput::ObserveBench {
                overhead,
                fingerprints_equal,
                provenance_records,
                witnesses_reproduce,
                stationary_ok,
                shifted_detected,
                flight_records,
                ..
            } => {
                assert_eq!(overhead.len(), 4);
                assert!(*fingerprints_equal, "sim and threaded diverged");
                assert!(*provenance_records > 0, "witness run must record");
                assert!(*witnesses_reproduce, "witness closure violated");
                assert!(*stationary_ok, "stationary drift too high");
                assert!(*shifted_detected, "3x shift not flagged");
                assert!(*flight_records > 0, "crash must dump flight records");
                // The "full" sampling mode records every sink match.
                assert!(overhead[3].provenance_records > 0);
                // Overhead gates are deliberately NOT asserted here: a
                // 10-unit trace is wall-noise-dominated; the CI lane gates
                // them on the real durations.
            }
            other => panic!("unexpected output {other:?}"),
        }
        let text = out.render();
        assert!(text.contains("witness closure"));
        assert!(
            text.contains("CRASH"),
            "timeline must show the crash:\n{text}"
        );
        let labels: Vec<&str> = tel.runs().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, vec!["observe/witness", "observe/crashed"]);
        let (_, witness_run) = tel.runs().next().unwrap();
        assert!(
            witness_run.provenance_summary().is_some(),
            "witness run must surface a provenance summary"
        );
    }

    #[test]
    fn matcher_bench_telemetry_quantiles_match_exact() {
        let mut tel = TelemetryCollector::new();
        matcher_bench_sized("matcher", 2_000, &quick(), Some(&mut tel));
        let (label, run) = tel.runs().next().expect("one instrumented run");
        assert_eq!(label, "matcher/indexed");
        assert!(run.registry.counter_value("sink_matches").unwrap() > 0);
        assert!(!run.tasks.is_empty());
        assert!(!run.series.is_empty());
        // The histogram-derived p50/p100 must match the exact sorted
        // percentiles within one bucket's relative error.
        assert!(!tel.checks().is_empty(), "no latency checks recorded");
        assert!(
            tel.checks_pass(),
            "latency checks failed: {:?}",
            tel.checks()
        );
    }

    #[test]
    fn render_ratio_sweep() {
        let out = ExperimentOutput::RatioSweep {
            id: "figX".into(),
            title: "test".into(),
            x_label: "x".into(),
            points: vec![RatioPoint {
                x: 0.5,
                amuse: vec![0.01],
                amuse_star: vec![0.02],
                oop: vec![0.9],
            }],
        };
        let text = out.render();
        assert!(text.contains("figX"));
        assert!(text.contains("0.5"));
        assert_eq!(out.id(), "figX");
    }
}
