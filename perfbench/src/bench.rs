//! One benchmark run: the untraced pass that yields the end-to-end metrics,
//! or the traced pass that yields the per-layer metrics, each with its
//! correctness gate.

use crate::driver::{converged_within, run_pass, same_report, Layers, Pass};
use crate::host::{self, Calibration};
use crate::median;
use crate::replay;
use crate::trace::Tracer;
use crate::workloads::{Scale, Workload};
use geogossip_geometry::point::NodeId;
use geogossip_graph::GeometricGraph;
use geogossip_sim::scenario::{ScenarioSpec, TrialCost};
use geogossip_sim::SeedStream;
use std::mem::{size_of, size_of_val};
use std::time::{Duration, Instant};

/// Fewest timed passes of an untraced run, so the reported figures are
/// medians of at least three.
pub const MIN_PASSES: usize = 3;
/// Fewest untraced/traced pass pairs of a traced run.
pub const MIN_TRACE_PAIRS: usize = 2;

/// What to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// How long the timed passes may take.
    pub seconds: f64,
    /// `false`: the untraced pass and end-to-end metrics; `true`: the traced
    /// pass and per-layer metrics.
    pub trace: bool,
    /// Instance sizes.
    pub scale: Scale,
}

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// The metric's unit in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// A finished run: operations, failures and metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Operations (trials) attempted, checks included.
    pub attempted: u64,
    /// Operations that errored, missed ε, or failed a check.
    pub failed: u64,
    /// One line per failure.
    pub problems: Vec<String>,
    /// The metrics of the pass that ran.
    pub metrics: Vec<Metric>,
    /// Host context: core count, CPU, commit, calibration before and after.
    pub context: Vec<(String, String)>,
    /// The traced pass's spans, as JSON lines.
    pub spans: Vec<String>,
}

impl Outcome {
    /// Whether every operation succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Operation bookkeeping for the correctness gate.
#[derive(Debug, Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Gate {
    fn operation(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(problem());
        }
    }

    /// Counts every trial of `pass`: it must run, reach ε, and report
    /// exactly what `reference` (when given) reported for the same trial.
    fn pass(&mut self, label: &str, pass: &Pass, epsilon: f64, reference: Option<&[TrialCost]>) {
        for (t, trial) in pass.trials.iter().enumerate() {
            match trial {
                Err(e) => self.operation(false, || format!("{label} trial {t}: {e}")),
                Ok(run) => {
                    let cost = &run.cost;
                    self.operation(converged_within(cost, epsilon), || {
                        format!(
                            "{label} trial {t}: not converged to {epsilon} \
                             (error {}, {} ticks, {} transmissions)",
                            cost.final_error,
                            cost.ticks,
                            cost.transmissions.total()
                        )
                    });
                    if let Some(reference) = reference {
                        let same = reference.get(t).is_some_and(|r| same_report(r, cost));
                        self.operation(same, || format!("{label} trial {t}: report differs"));
                    }
                }
            }
        }
    }

    /// Counts `Runner::run` on `spec` as one operation per trial, each of
    /// which must report exactly what the benchmark's own driving did.
    fn runner(&mut self, spec: &ScenarioSpec, ours: &[TrialCost]) {
        let label = format!("Runner::run({})", spec.name);
        match geogossip_core::builtin_runner()
            .with_transport(Box::new(geogossip_net::NetRuntime))
            .run(spec)
        {
            Err(e) => self.operation(false, || format!("{label}: {e}")),
            Ok(report) => {
                for (t, theirs) in report.trials.iter().enumerate() {
                    let same = ours.get(t).is_some_and(|o| same_report(o, theirs));
                    self.operation(same, || format!("{label} trial {t}: differs from ours"));
                }
            }
        }
    }
}

/// The first pass's reports, with failed trials left out.
fn reports(pass: &Pass) -> Vec<TrialCost> {
    pass.ok_trials().map(|t| t.cost.clone()).collect()
}

/// Runs the benchmark as `options` says.
pub fn run(options: &Options) -> Outcome {
    run_spec(options, &options.workload.spec(options.seed, options.scale))
}

/// Runs the benchmark on `spec` in place of the workload's own spec (the
/// self-test shrinks a budget this way).
pub fn run_spec(options: &Options, spec: &ScenarioSpec) -> Outcome {
    let mut gate = Gate::default();
    if let Err(e) = spec.validate() {
        gate.operation(false, || format!("invalid spec: {e}"));
        return finish(gate, Vec::new(), Vec::new(), Vec::new());
    }
    let before = Calibration::measure();
    let (metrics, spans) = if options.trace {
        traced(options, spec, &mut gate)
    } else {
        (untraced(options, spec, &mut gate), Vec::new())
    };
    let after = Calibration::measure();
    let mut metrics = metrics;
    if options.trace {
        let host = before.mean(after);
        metrics.push(metric("host.alu_ns", host.alu_ns));
        metrics.push(metric("host.l2_load_ns", host.l2_load_ns));
    }
    let context = vec![
        ("workload".to_string(), options.workload.name().to_string()),
        ("seed".to_string(), options.seed.to_string()),
        ("nproc".to_string(), host::nproc().to_string()),
        ("cpu".to_string(), host::cpu_model()),
        ("commit".to_string(), host::commit()),
        (
            "host.alu_ns".to_string(),
            format!("{} before, {} after", before.alu_ns, after.alu_ns),
        ),
        (
            "host.l2_load_ns".to_string(),
            format!("{} before, {} after", before.l2_load_ns, after.l2_load_ns),
        ),
    ];
    finish(gate, metrics, context, spans)
}

fn finish(
    gate: Gate,
    metrics: Vec<Metric>,
    context: Vec<(String, String)>,
    spans: Vec<String>,
) -> Outcome {
    Outcome {
        attempted: gate.attempted.max(1),
        failed: gate.failed.max(u64::from(gate.attempted == 0)),
        problems: gate.problems,
        metrics,
        context,
        spans,
    }
}

/// Builds the metric `name` with its unit.
fn metric(name: &'static str, value: f64) -> Metric {
    Metric {
        name,
        value,
        unit: crate::unit_of(name),
    }
}

/// The untraced pass: timed passes for `--seconds`, then the checks.
///
/// Every time metric is a median over passes; set-up time is CPU time
/// ([`crate::driver::TrialTimes::setup_s`]).
///
/// Peak memory is read after the first pass, which is what one run of the
/// workload costs: later passes only add allocator fragmentation across the
/// pool's threads (78 MiB after one `geo-torus` pass, 133–147 MiB after
/// three).
fn untraced(options: &Options, spec: &ScenarioSpec, gate: &mut Gate) -> Vec<Metric> {
    let layers = Layers::new();
    let budget = Duration::from_secs_f64(options.seconds);
    let start = Instant::now();
    let mut passes: Vec<Pass> = vec![run_pass(&layers, spec, None)];
    let peak_rss_mb = host::peak_rss_mib();
    loop {
        let typical = median(passes.iter().map(|p| p.wall_s).collect());
        if passes.len() >= MIN_PASSES && start.elapsed() + Duration::from_secs_f64(typical) > budget
        {
            break;
        }
        passes.push(run_pass(&layers, spec, None));
    }

    let first = reports(&passes[0]);
    for (p, pass) in passes.iter().enumerate() {
        let reference = (p > 0).then_some(first.as_slice());
        gate.pass(&format!("pass {p}"), pass, spec.stop.epsilon, reference);
    }

    let engine_s = median(passes.iter().map(Pass::engine_s).collect());
    let transmissions: u64 = first.iter().map(|c| c.transmissions.total()).sum();
    vec![
        metric("wall_s", median(passes.iter().map(|p| p.wall_s).collect())),
        metric(
            "setup_s",
            median(passes.iter().map(Pass::setup_s).collect()),
        ),
        metric("engine_s", engine_s),
        metric("tx_per_s", transmissions as f64 / engine_s),
        metric("transmissions", transmissions as f64),
        metric("peak_rss_mb", peak_rss_mb),
    ]
}

/// Sum of protocol metric `key` over trials.
fn metric_sum(costs: &[TrialCost], key: &str) -> f64 {
    costs.iter().filter_map(|c| c.metric(key)).sum()
}

/// Largest value of protocol metric `key` over trials.
fn metric_max(costs: &[TrialCost], key: &str) -> f64 {
    costs
        .iter()
        .filter_map(|c| c.metric(key))
        .fold(0.0, f64::max)
}

/// Bytes of the graph's arrays, summed over the slices the graph hands out:
/// every node's `neighbor_block` (CSR row and `f64` coordinate mirrors) and
/// `scan_block` (the routing scan's row), and the positions. The CSR
/// offsets, one `u32` per node and one more, have no public slice; the
/// spatial grid is left out.
fn graph_bytes(graph: &GeometricGraph) -> f64 {
    let rows: usize = (0..graph.len())
        .map(|v| {
            let (index, xs, ys) = graph.neighbor_block(NodeId(v));
            let (scan_xs, scan_ys, scan_index) = graph.scan_block(NodeId(v));
            size_of_val(index)
                + size_of_val(xs)
                + size_of_val(ys)
                + size_of_val(scan_xs)
                + size_of_val(scan_ys)
                + size_of_val(scan_index)
        })
        .sum();
    let offsets = (graph.len() + 1) * size_of::<u32>();
    (size_of_val(graph.positions()) + offsets + rows) as f64
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload does not use).
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The time figures of one traced pass; the traced run reports each one's
/// median over its traced passes.
#[derive(Debug, Clone, Copy)]
struct TracedTimes {
    graph_build_s: f64,
    field_values_s: f64,
    core_build_s: f64,
    engine_self_s: f64,
    engine_self_ns_per_tick: f64,
    core_step_s: f64,
    core_ns_per_tick: f64,
    affine_ns_per_local_exchange: f64,
    net_run_s: f64,
    net_ns_per_message: f64,
    /// The traced pass's engine time, for the tracing overhead.
    engine_s: f64,
}

impl TracedTimes {
    fn of(tracer: &Tracer, pass: &Pass) -> Self {
        let costs = reports(pass);
        let ticks = costs.iter().map(|c| c.ticks).sum::<u64>() as f64;
        let step_s = tracer.step_s;
        let engine_self_s = tracer.total("engine.run") - step_s;
        let net_run_s = tracer.total("net.run_trial");
        TracedTimes {
            graph_build_s: tracer.total("graph.build"),
            field_values_s: tracer.total("field.values"),
            core_build_s: tracer.total("core.build"),
            engine_self_s,
            engine_self_ns_per_tick: ratio(engine_self_s * 1e9, ticks),
            core_step_s: step_s,
            core_ns_per_tick: ratio(step_s * 1e9, ticks),
            affine_ns_per_local_exchange: ratio(
                step_s * 1e9,
                metric_sum(&costs, "local_exchanges"),
            ),
            net_run_s,
            net_ns_per_message: ratio(net_run_s * 1e9, metric_sum(&costs, "messages_sent")),
            engine_s: pass.engine_s(),
        }
    }
}

/// The traced pass: untraced and traced passes alternate for `--seconds`,
/// then the layer replays and the checks.
fn traced(options: &Options, spec: &ScenarioSpec, gate: &mut Gate) -> (Vec<Metric>, Vec<String>) {
    let layers = Layers::new();
    let twin = options.workload.parallel_twin(options.seed, options.scale);
    let budget = Duration::from_secs_f64(options.seconds);
    let start = Instant::now();
    let mut untraced_passes: Vec<Pass> = Vec::new();
    let mut twin_passes: Vec<Pass> = Vec::new();
    let mut traced_passes: Vec<(Tracer, Pass)> = Vec::new();
    loop {
        let round_start = Instant::now();
        let untraced = run_pass(&layers, spec, None);
        let ticks: u64 = untraced.ok_trials().map(|t| t.cost.ticks).sum();
        let mut tracer = Tracer::new(untraced.engine_s() * 1e9 / ticks.max(1) as f64);
        untraced_passes.push(untraced);
        let pass = run_pass(&layers, spec, Some(&mut tracer));
        traced_passes.push((tracer, pass));
        if let Some(twin) = &twin {
            twin_passes.push(run_pass(&layers, twin, None));
        }
        let round = round_start.elapsed();
        if traced_passes.len() >= MIN_TRACE_PAIRS && start.elapsed() + round > budget {
            break;
        }
    }

    let epsilon = spec.stop.epsilon;
    let first = reports(&untraced_passes[0]);
    for (p, pass) in untraced_passes.iter().enumerate() {
        let reference = (p > 0).then_some(first.as_slice());
        gate.pass(&format!("untraced pass {p}"), pass, epsilon, reference);
    }
    for (p, (_, pass)) in traced_passes.iter().enumerate() {
        gate.pass(&format!("traced pass {p}"), pass, epsilon, Some(&first));
    }
    for (p, pass) in twin_passes.iter().enumerate() {
        gate.pass(
            &format!("parallel twin pass {p}"),
            pass,
            epsilon,
            Some(&first),
        );
    }
    gate.runner(spec, &first);
    if let Some(twin) = &twin {
        gate.runner(twin, &first);
    }

    // Counts repeat exactly (the gate checked), so the first passes give
    // them all.
    let (tracer, _) = &traced_passes[0];
    let costs = &first;
    let sum = |key: &str| metric_sum(costs, key);
    let ticks: u64 = costs.iter().map(|c| c.ticks).sum();
    let routing_hops: u64 = costs.iter().map(|c| c.transmissions.routing()).sum();
    let rounds = sum("exchanges") + sum("long_range_exchanges");
    let sent = sum("messages_sent");
    let delivered = sum("messages_delivered");
    if spec.transport.is_some() {
        let m = tracer.messages;
        let agree = m.dispatched as f64 == sent
            && m.delivered as f64 == delivered
            && m.dropped as f64 == sum("messages_dropped")
            && m.retried as f64 == sum("messages_retried");
        gate.operation(agree, || {
            format!("probe counts {m:?} disagree with the message ledger")
        });
    }

    // Times: the median over traced passes, figure by figure.
    let times: Vec<TracedTimes> = traced_passes
        .iter()
        .map(|(tracer, pass)| TracedTimes::of(tracer, pass))
        .collect();
    let timed = |figure: fn(&TracedTimes) -> f64| median(times.iter().map(figure).collect());
    let untraced_engine = median(untraced_passes.iter().map(Pass::engine_s).collect());
    let traced_engine = timed(|t| t.engine_s);
    let speedup = if twin.is_some() {
        untraced_engine / median(twin_passes.iter().map(Pass::engine_s).collect())
    } else {
        1.0
    };

    // Replays on the trial-0 graph.
    let graph = spec.topology.build(&SeedStream::new(spec.seed), 0);
    let routes = match options.scale {
        Scale::Full => replay::REPLAY_ROUTES,
        Scale::Smoke => 256,
    };
    let clock_ticks = match options.scale {
        Scale::Full => replay::REPLAY_TICKS,
        Scale::Smoke => 10_000,
    };
    let routing = replay::routing(&graph, spec.seed, routes);
    gate.operation(routing.mismatches == 0, || {
        format!(
            "{} of {} iterated greedy_step walks differ from route_terminus",
            routing.mismatches, routing.routes
        )
    });
    let clock_ns = replay::clock_ns_per_tick(graph.len(), spec.seed, clock_ticks);

    let metrics = vec![
        metric("graph.build_s", timed(|t| t.graph_build_s)),
        metric("graph.edges", graph.edge_count() as f64),
        metric(
            "graph.mean_degree",
            2.0 * graph.edge_count() as f64 / graph.len() as f64,
        ),
        metric("graph.bytes", graph_bytes(&graph)),
        metric("field.values_s", timed(|t| t.field_values_s)),
        metric("core.build_s", timed(|t| t.core_build_s)),
        metric("engine.ticks", ticks as f64),
        metric("engine.self_s", timed(|t| t.engine_self_s)),
        metric(
            "engine.self_ns_per_tick",
            timed(|t| t.engine_self_ns_per_tick),
        ),
        metric("clock.ns_per_tick", clock_ns),
        metric("core.step_s", timed(|t| t.core_step_s)),
        metric("core.ns_per_tick", timed(|t| t.core_ns_per_tick)),
        metric("routing.hops", routing_hops as f64),
        metric("routing.hops_per_round", ratio(routing_hops as f64, rounds)),
        metric("routing.failed_routes", sum("failed_routes")),
        metric("routing.hops_per_route", routing.hops_per_route()),
        metric("routing.ns_per_hop", routing.ns_per_hop()),
        metric("routing.ns_per_neighbor", routing.ns_per_neighbor()),
        metric("routing.step_ns_per_hop", routing.step_ns_per_hop()),
        metric("affine.top_rounds", sum("top_rounds")),
        metric("affine.local_exchanges", sum("local_exchanges")),
        metric("affine.long_range_exchanges", sum("long_range_exchanges")),
        metric(
            "affine.ns_per_local_exchange",
            timed(|t| t.affine_ns_per_local_exchange),
        ),
        metric(
            "batch.threads",
            twin.as_ref()
                .and_then(|t| t.parallelism)
                .map_or(1, |p| p.threads) as f64,
        ),
        metric("batch.speedup_vs_seq", speedup),
        metric("net.run_s", timed(|t| t.net_run_s)),
        metric("net.messages_sent", sent),
        metric("net.messages_delivered", delivered),
        metric("net.delivered_ratio", ratio(delivered, sent)),
        metric("net.dropped", sum("messages_dropped")),
        metric("net.retried", sum("messages_retried")),
        metric("net.duplicated", sum("messages_duplicated")),
        metric("net.rounds_abandoned", sum("rounds_abandoned")),
        metric(
            "net.in_flight_peak",
            metric_max(costs, "messages_in_flight_peak"),
        ),
        metric("net.ns_per_message", timed(|t| t.net_ns_per_message)),
        metric(
            "trace.overhead_pct",
            (traced_engine / untraced_engine - 1.0) * 100.0,
        ),
    ];
    let spans = traced_passes
        .iter()
        .enumerate()
        .flat_map(|(p, (tracer, _))| {
            tracer.spans.iter().map(move |s| {
                format!(
                    "{{\"pass\":{p},\"trial\":{},\"span\":\"{}\",\"start_s\":{},\"end_s\":{}}}",
                    s.trial, s.name, s.start_s, s.end_s
                )
            })
        })
        .collect();
    (metrics, spans)
}
