//! One measured run of one workload in this process: set-up (timed) → the
//! trials stepped one at a time (warm-up; also the source of slot counts
//! and of the merge check) → timed repetitions of the public driver → with
//! `--trace 1` the traced trials, overhead comparisons, microbenchmarks and
//! the cost stack.

use std::time::Instant;

use rxl::fabric::{CountingProbe, EnginePhase, NullProbe};
use rxl::telemetry::{EngineProfiler, MetricsProbe};

use crate::json::Value;
use crate::metrics::{self, Def};
use crate::micro::{self, Layers};
use crate::spans::{spans_from_json, spans_to_json, Span, Spans};
use crate::stats::{fnv1a, median, Bound, Summary};
use crate::workloads::{self, Inputs, Totals, TrialPass, DEFAULT_SEED};

pub struct RunOptions {
    pub workload: String,
    pub seed: u64,
    /// Timed repetitions to make at least.
    pub min_reps: usize,
    /// Keep repeating until this much wall has been measured.
    pub seconds: f64,
    pub trace: bool,
}

/// Untraced driver repetitions a traced run makes (the denominators of its
/// overhead shares).
const TRACED_RUN_REPS: usize = 3;

/// Everything one run measured.
pub struct Record {
    pub workload: String,
    /// What one timed repetition ran (sizes, for the manifest).
    pub unit: String,
    pub seed: u64,
    pub trace: bool,
    /// Trials attempted over every pass and repetition of the run.
    pub attempted: u64,
    /// Trials that stalled, hit the slot limit or deadlocked, plus one per
    /// broken invariant.
    pub failed: u64,
    pub problems: Vec<String>,
    /// FNV-1a of the `Debug` text of the driver's merged report.
    pub digest: u64,
    pub metrics: Vec<(String, Summary)>,
    pub spans: Vec<Span>,
}

impl Record {
    pub fn metric(&self, name: &str) -> Option<&Summary> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    pub fn to_json(&self) -> Value {
        Value::obj([
            ("workload", Value::from(self.workload.as_str())),
            ("unit", Value::from(self.unit.as_str())),
            ("seed", Value::from(self.seed as f64)),
            ("trace", Value::from(self.trace)),
            ("correct", Value::from(self.failed == 0)),
            ("attempted", Value::from(self.attempted as f64)),
            ("failed", Value::from(self.failed as f64)),
            (
                "problems",
                Value::Arr(
                    self.problems
                        .iter()
                        .map(|p| Value::from(p.as_str()))
                        .collect(),
                ),
            ),
            // Hex text: a 64-bit digest does not fit a JSON number.
            ("digest", Value::from(format!("{:016x}", self.digest))),
            (
                "metrics",
                Value::obj(self.metrics.iter().map(|(name, s)| {
                    let unit = metrics::find(name).map_or("", |d| d.unit);
                    let mut fields = vec![("unit".to_string(), Value::from(unit))];
                    if let Value::Obj(summary) = s.to_json() {
                        fields.extend(summary);
                    }
                    (name.clone(), Value::Obj(fields))
                })),
            ),
            ("spans", spans_to_json(&self.spans)),
        ])
    }

    pub fn from_json(v: &Value) -> Option<Record> {
        let strings = |key: &str| -> Option<Vec<String>> {
            v.get(key)?
                .as_arr()?
                .iter()
                .map(|p| p.as_str().map(str::to_string))
                .collect()
        };
        Some(Record {
            workload: v.get("workload")?.as_str()?.to_string(),
            unit: v.get("unit")?.as_str()?.to_string(),
            seed: v.get("seed")?.as_f64()? as u64,
            trace: matches!(v.get("trace")?, Value::Bool(true)),
            attempted: v.get("attempted")?.as_f64()? as u64,
            failed: v.get("failed")?.as_f64()? as u64,
            problems: strings("problems")?,
            digest: u64::from_str_radix(v.get("digest")?.as_str()?, 16).ok()?,
            metrics: v
                .get("metrics")?
                .as_obj()?
                .iter()
                .map(|(name, m)| Some((name.clone(), Summary::from_json(m)?)))
                .collect::<Option<_>>()?,
            spans: spans_from_json(v.get("spans")?)?,
        })
    }

    /// The one-line result the driver protocol reads: every metric
    /// `BENCHMARK.json` lists for this kind of run, 0 where the workload
    /// does not have the layer.
    pub fn driver_line(&self) -> Value {
        let listed: Vec<&Def> = if self.trace {
            metrics::PER_LAYER.iter().collect()
        } else {
            metrics::END_TO_END
                .iter()
                .filter(|d| d.driver_bound.is_some())
                .collect()
        };
        Value::obj([
            ("correct", Value::from(self.failed == 0)),
            ("attempted", Value::from(self.attempted as f64)),
            ("failed", Value::from(self.failed as f64)),
            (
                "metrics",
                Value::obj(listed.into_iter().map(|d| {
                    let value = self.metric(d.name).map_or(0.0, |s| s.median);
                    (
                        d.name,
                        Value::obj([("value", Value::from(value)), ("unit", Value::from(d.unit))]),
                    )
                })),
            ),
        ])
    }

    /// Every metric by name with its unit, one per line.
    pub fn print(&self) {
        println!(
            "== {} seed {} trace {} ==",
            self.workload,
            self.seed,
            u8::from(self.trace)
        );
        for (name, s) in &self.metrics {
            let def = metrics::find(name);
            let unit = def.map_or("", |d| d.unit);
            let better = def.map_or("", |d| d.better.label());
            let mut line = format!("{name:<38} {:>16.6} {unit:<10} {better:<6}", s.median);
            if s.samples.len() > 1 {
                line += &format!(
                    " q1 {:.6} q3 {:.6} min {:.6} n={} spread {:.1}%",
                    s.q1,
                    s.q3,
                    s.min,
                    s.samples.len(),
                    s.spread() * 100.0
                );
                // A host metric whose own spread exceeds its bound cannot
                // resolve a change of that size.
                if let Some(Bound::Share { share, floor }) = def.map(|d| d.bound) {
                    if s.q3 - s.q1 > (share * s.median.abs()).max(floor) {
                        line += "  *unresolved*";
                    }
                }
            }
            println!("{}", line.trim_end());
        }
        println!("digest {:016x}", self.digest);
        for p in &self.problems {
            println!("PROBLEM: {p}");
        }
    }
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn delivered(t: &Totals) -> u64 {
    let f = &t.failures;
    f.clean_deliveries + f.ordering_failures + f.duplicate_deliveries + f.data_failures
}

/// Builds the workload's inputs repeatedly, timing each build: at least five
/// times, and for half a second in total (at most 200 builds) so that a
/// sub-millisecond set-up still has a steady median. Only the first build's
/// inner spans are kept.
fn timed_setups(opts: &RunOptions, spans: &mut Spans) -> Result<(Inputs, Vec<f64>), String> {
    let started = Instant::now();
    let mut inputs = spans.scope("setup", |s| workloads::build(&opts.workload, opts.seed, s))?;
    let mut samples = vec![started.elapsed().as_secs_f64()];
    spans.scope("setup.repeats", |_| {
        while samples.len() < 200 && (samples.len() < 5 || started.elapsed().as_secs_f64() < 0.5) {
            drop(inputs);
            let t = Instant::now();
            inputs = workloads::build(&opts.workload, opts.seed, &mut Spans::new())?;
            samples.push(t.elapsed().as_secs_f64());
        }
        Ok((inputs, samples))
    })
}

/// Runs the workload as `opts` says. `Err` is a one-line message for a
/// request that cannot run at all (unknown workload, input over the tag
/// cap).
pub fn run(opts: &RunOptions) -> Result<Record, String> {
    let mut spans = Spans::new();
    let root = format!("workload:{}", opts.workload);
    let mut record = spans.scope(&root, |spans| measure(opts, spans))?;
    record.spans = spans.into_spans();
    Ok(record)
}

/// What the passes and repetitions of one run established, from which the
/// metrics are derived.
struct Measured<'a> {
    workload: &'a str,
    inputs: &'a Inputs,
    /// Simulated facts of the unit, from the untraced outside-in trials.
    totals: Totals,
    /// Wall of that pass: all of it, and its per-trial `run` calls alone.
    plain_pass_wall_s: f64,
    plain_run_wall_s: f64,
    /// Walls of the timed driver repetitions.
    wall: Summary,
}

type Metrics = Vec<(String, Summary)>;

fn single(name: &str, value: f64) -> (String, Summary) {
    (name.to_string(), Summary::single(value))
}

fn measure(opts: &RunOptions, spans: &mut Spans) -> Result<Record, String> {
    let spec = workloads::SPECS
        .iter()
        .find(|s| s.name == opts.workload)
        .ok_or_else(|| format!("unknown workload {:?}", opts.workload))?;
    let (inputs, setup_samples) = timed_setups(opts, spans)?;
    let mut problems: Vec<String> = Vec::new();
    let mut attempted = 0u64;
    let mut failed_trials = 0u64;

    // The trials stepped one at a time, untraced: warms the process up and
    // yields the exact slot counts no driver report carries.
    let pass_start = Instant::now();
    let plain = spans.scope("warmup", |s| inputs.run_trials(s, || NullProbe));
    let plain_pass_wall_s = pass_start.elapsed().as_secs_f64();
    let totals = plain.totals;
    attempted += totals.trials;
    failed_trials += totals.trials - totals.ok_trials;
    if inputs.is_rxl() && totals.fail_order_events != 0 {
        problems.push(format!(
            "RXL produced {} Fail_order events",
            totals.fail_order_events
        ));
    }

    let traced = opts.trace.then(|| {
        let pass = spans.scope("traced", |s| {
            inputs.run_trials(s, || (EngineProfiler::new(), CountingProbe::default()))
        });
        attempted += pass.totals.trials;
        failed_trials += pass.totals.trials - pass.totals.ok_trials;
        if pass.totals != totals {
            problems.push(format!(
                "traced trials {:?} differ from untraced {:?}: a probe perturbed the simulation",
                pass.totals, totals
            ));
        }
        pass
    });

    // Timed repetitions of the public driver.
    let (min_reps, seconds) = if opts.trace {
        (TRACED_RUN_REPS, 0.0)
    } else {
        (opts.min_reps, opts.seconds)
    };
    let mut walls = Vec::new();
    let mut digest = 0u64;
    let mut p99 = None;
    let timing = Instant::now();
    while walls.len() < min_reps || timing.elapsed().as_secs_f64() < seconds {
        let rep = walls.len();
        let run = spans.scope(&format!("rep:{rep}"), |_| inputs.run_driver());
        walls.push(run.wall_s);
        attempted += run.facts.trials;
        failed_trials += run.facts.trials - run.facts.ok_trials;
        let rep_digest = fnv1a(run.debug.as_bytes());
        if rep == 0 {
            digest = rep_digest;
            p99 = run.facts.p99_latency_slots;
            problems.extend(
                run.facts
                    .mismatches(&totals)
                    .into_iter()
                    .map(|m| format!("merge check: {m}")),
            );
        } else if rep_digest != digest {
            problems.push(format!(
                "repetition {rep} digest {rep_digest:016x} differs from repetition 0 {digest:016x}"
            ));
        }
    }
    if opts.seed == DEFAULT_SEED && digest != spec.digest {
        problems.push(format!(
            "digest {digest:016x} differs from the pinned {:016x} (re-pin only together with tests/fabric_golden_digest.rs)",
            spec.digest
        ));
    }

    let measured = Measured {
        workload: &opts.workload,
        inputs: &inputs,
        totals,
        plain_pass_wall_s,
        plain_run_wall_s: plain.run_wall_s,
        wall: Summary::of(walls),
    };
    let mut metrics = spans.scope("report.merge", |spans| match &traced {
        Some(traced) => per_layer_metrics(&measured, traced, spans),
        None => end_to_end_metrics(&measured, setup_samples, p99),
    });
    for (name, _) in &metrics {
        if metrics::find(name).is_none() {
            problems.push(format!("metric {name} is not in the metric table"));
        }
    }
    let failed = failed_trials + problems.len() as u64;
    if !opts.trace {
        metrics.push(single("failed_share", share(failed, attempted)));
    }
    // Table order, so files and printouts line up across runs.
    let order = |name: &str| {
        metrics::END_TO_END
            .iter()
            .chain(metrics::PER_LAYER)
            .position(|d| d.name == name)
    };
    metrics.sort_by_key(|(name, _)| order(name));
    Ok(Record {
        workload: opts.workload.clone(),
        unit: inputs.unit(),
        seed: opts.seed,
        trace: opts.trace,
        attempted,
        failed,
        problems,
        digest,
        metrics,
        spans: Vec::new(),
    })
}

/// The end-to-end metrics of an untraced run (`failed_share` is added by
/// the caller, which owns the failure count).
fn end_to_end_metrics(m: &Measured, setup_samples: Vec<f64>, p99: Option<u64>) -> Metrics {
    let t = &m.totals;
    let rate = |count: u64| m.wall.map(|w| count as f64 / w);
    let mut out = vec![
        ("setup_s".to_string(), Summary::of(setup_samples)),
        ("wall_s".to_string(), m.wall.clone()),
        ("hop_flits_per_s".to_string(), rate(t.switches.flits_in)),
        ("payload_flits_per_s".to_string(), rate(t.links.flits_sent)),
        ("slots_per_s".to_string(), rate(t.slots)),
        single("peak_rss_mb", peak_rss_mib()),
        single("goodput_flits_per_slot", share(t.links.flits_sent, t.slots)),
        single("wire_overhead_share", t.links.bandwidth_overhead()),
        single("fail_order_events", t.fail_order_events as f64),
    ];
    if let Some(p99) = p99 {
        out.push(single("p99_latency_slots", p99 as f64));
    }
    out
}

/// The per-layer metrics of a traced run: microbenchmarks, the traced
/// trials' counts and phase profile, the overhead comparisons and the cost
/// stack.
fn per_layer_metrics(
    m: &Measured,
    traced: &TrialPass<(EngineProfiler, CountingProbe)>,
    spans: &mut Spans,
) -> Metrics {
    let layers = spans.scope("microbenchmarks", |_| micro::run_all());
    let mut out: Metrics = layers.iter().map(|(n, v)| single(n, v)).collect();
    let t = &m.totals;
    let hops = t.switches.flits_in;
    let (link_traversals, channel_errors) =
        traced.probes.iter().fold((0u64, 0u64), |acc, (_, c)| {
            (acc.0 + c.link_traversals, acc.1 + c.channel_errors)
        });

    if m.inputs.fabric().is_some() {
        let mut phase_ns = [0u64; 4];
        let mut profiled_slots = 0u64;
        for (profiler, _) in &traced.probes {
            let p = profiler.profile();
            for (sum, ns) in phase_ns.iter_mut().zip(p.nanos) {
                *sum += ns;
            }
            profiled_slots += p.slots;
        }
        let phase_total: u64 = phase_ns.iter().sum();
        out.extend([
            single("fabric.slots", t.slots as f64),
            single("fabric.hop_flits_per_slot", share(hops, t.slots)),
            single("fabric.credit_stalls", t.credit_stalls as f64),
            single(
                "fabric.materialised_share",
                share(channel_errors, link_traversals),
            ),
            single(
                "fabric.phase_ns_per_slot",
                share(phase_total, profiled_slots),
            ),
        ]);
        out.extend(EnginePhase::ALL.map(|phase| {
            single(
                &format!("fabric.phase_{}_share", phase.label()),
                share(phase_ns[phase.index()], phase_total),
            )
        }));
    }

    let l = &t.links;
    let busy_wire = l.total_wire_flits() - l.idle_flits_sent;
    let s = &t.switches;
    out.extend([
        single(
            "fabric.driver_overhead_share",
            1.0 - m.plain_run_wall_s / m.wall.median,
        ),
        single(
            "link.retransmit_share",
            share(l.flits_retransmitted, busy_wire),
        ),
        single(
            "link.standalone_ack_share",
            share(l.standalone_acks_sent, busy_wire),
        ),
        single("link.nacks_sent", l.nacks_sent as f64),
        single("link.flits_rejected", l.flits_rejected as f64),
        single(
            "switch.corrected_share",
            share(s.flits_corrected, s.flits_in),
        ),
        single(
            "switch.uncorrectable_drop_share",
            share(s.flits_dropped_uncorrectable, s.flits_in),
        ),
        single(
            "transport.clean_deliveries",
            t.failures.clean_deliveries as f64,
        ),
        single(
            "transport.failures_total",
            t.failures.total_failures() as f64,
        ),
        single(
            "trace.overhead_share",
            traced.run_wall_s / m.plain_run_wall_s - 1.0,
        ),
    ]);
    if let Some(v) = probe_overhead(m, spans) {
        out.push(single("telemetry.probe_overhead_share", v));
    }
    if let Some(v) = chaos_runner_overhead(m.inputs, spans) {
        out.push(single("chaos.runner_overhead_share", v));
    }
    let measured_ns = m.wall.median * 1e9 / hops as f64;
    if matches!(m.inputs, Inputs::Path(_)) {
        out.push(single("sim.path_hop_flit_ns", measured_ns));
    }
    if let Some(predicted_wall_ns) = predicted_wall_ns(m, link_traversals, &layers) {
        let predicted_ns = predicted_wall_ns / hops as f64;
        out.extend([
            single("stack.predicted_ns_per_hop_flit", predicted_ns),
            single("stack.measured_ns_per_hop_flit", measured_ns),
            single("stack.unexplained_share", 1.0 - predicted_ns / measured_ns),
        ]);
    }
    out
}

/// `telemetry.probe_overhead_share`: the share of a probed run's wall the
/// probes cost. On `pod_clean_rxl`, `MetricsProbe` trials against the
/// `NullProbe` trials; on `serving_subknee`, the driver (`RequestProbe` +
/// `MetricsRegistry` on every trial) against `NullProbe` trials of the same
/// request streams, input generation included on both sides.
fn probe_overhead(m: &Measured, spans: &mut Spans) -> Option<f64> {
    match m.workload {
        "pod_clean_rxl" => {
            let (topology, config) = m.inputs.fabric()?;
            let probed = spans.scope("probe_overhead", |s| {
                m.inputs
                    .run_trials(s, || MetricsProbe::for_topology(topology, config.vc_count))
            });
            Some(1.0 - m.plain_run_wall_s / probed.run_wall_s)
        }
        "serving_subknee" => Some(1.0 - m.plain_pass_wall_s / m.wall.median),
        _ => None,
    }
}

/// `chaos.runner_overhead_share`: what the epoch-stepping runner costs when
/// it has nothing to inject — `ChaosMonteCarlo` with an empty scenario
/// against `FabricMonteCarlo` on the same inputs, a quarter of the unit's
/// trials, three alternating pairs.
fn chaos_runner_overhead(inputs: &Inputs, spans: &mut Spans) -> Option<f64> {
    let (chaos, plain, workload) = inputs.chaos_overhead_pair(inputs.trials() / 4)?;
    let timed = |f: &dyn Fn()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    };
    spans.scope("chaos_overhead", |_| {
        let mut chaos_s = Vec::new();
        let mut plain_s = Vec::new();
        for _ in 0..3 {
            chaos_s.push(timed(&|| drop(chaos.run(workload))));
            plain_s.push(timed(&|| drop(plain.run(workload))));
        }
        Some(1.0 - median(&plain_s) / median(&chaos_s))
    })
}

/// The cost stack's prediction: the microbenchmark ns/op weighted by the
/// traced counts — what one repetition would cost if it were nothing but
/// the public layer operations it performs. Total nanoseconds, or `None`
/// for workloads the stack is not defined on.
fn predicted_wall_ns(m: &Measured, link_traversals: u64, layers: &Layers) -> Option<f64> {
    let t = &m.totals;
    let l = &t.links;
    let s = &t.switches;
    let emissions = (l.total_wire_flits() - l.idle_flits_sent) as f64;
    let hit_hops = (s.flits_corrected + s.flits_dropped_uncorrectable) as f64;
    let audit = |registered: f64| {
        registered * layers.get("transport.audit_record_sent_ns")
            + delivered(t) as f64 * layers.get("transport.audit_observe_delivery_ns")
    };
    match (m.workload, m.inputs) {
        ("pod_clean_rxl" | "ring_noisy_rxl", Inputs::Fabric(f)) => {
            let cursor = if f.ber() > 1e-5 {
                "link.cursor_step_noisy_ns"
            } else {
                "link.cursor_step_quiet_ns"
            };
            let hops = s.flits_in as f64;
            // Every traversal is a switch hop or a delivery; a flit a link
            // ever hit is materialised (encode + full pipeline at that hop)
            // and, if it arrives, takes the full receive.
            let receives = link_traversals as f64 - hops;
            let full_receives =
                (s.flits_corrected as f64 + receives * hit_hops / hops).min(receives);
            Some(
                t.slots as f64 * layers.get("fabric.slot_idle_ns")
                    + emissions * layers.get("link.tx_emit_ns")
                    + link_traversals as f64 * layers.get(cursor)
                    + (hops - hit_hops) * layers.get("switch.forward_clean_ns")
                    + hit_hops
                        * (layers.get("flit.rxl_encode_ns")
                            + layers.get("switch.process_in_place_corrected_ns"))
                    + (receives - full_receives) * layers.get("link.rx_receive_trusted_ns")
                    + full_receives * layers.get("link.rx_receive_ns")
                    + audit((f.total_messages() as u64 * t.trials) as f64),
            )
        }
        ("path_eager_rxl", Inputs::Path(p)) => {
            let hops = s.flits_in as f64;
            // Every emission is encoded, crosses one more link than it has
            // switch hops, and is decoded in full where it arrives.
            let traversals = emissions + hops;
            Some(
                emissions
                    * (layers.get("link.tx_emit_ns") + layers.get("link.tx_encode_emission_ns"))
                    + traversals * layers.get("link.channel_apply_ns")
                    + (hops - hit_hops) * layers.get("switch.process_in_place_clean_ns")
                    + hit_hops * layers.get("switch.process_in_place_corrected_ns")
                    + (l.flits_accepted + l.flits_rejected) as f64
                        * layers.get("link.rx_receive_ns")
                    + audit((p.total_messages() as u64 * t.trials) as f64),
            )
        }
        _ => None,
    }
}
