//! `perfbench`: end-to-end and per-layer benchmark of the simulator.
//!
//! ```sh
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no shims in the
//! world: `pkts_per_s` (delivered packets per host second of `Sim`
//! execution), `setup_s` (time to build the world and arm its workload)
//! and `peak_rss_mb`; see [`measure`] for the estimators.
//! `--trace 1` runs shimmed reps alternated with plain ones and reports
//! the per-layer metrics, writing the span timeline as Chrome trace-event
//! JSON to `--trace-out`. Every rep's outcome digest is compared with an
//! untimed reference rep's and its packets are checked for conservation;
//! a rep that fails either check is a failed operation. The last line of
//! standard output is the JSON result.

mod outcome;
mod shims;
mod trace;
mod workloads;

use outcome::Outcome;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use trace::{Layer, Recorder};
use workloads::{Peaks, Workload};

/// Environment knobs that would change which engine path is measured.
const REFUSED_ENV: [&str; 4] = [
    "EDP_SHARDS",
    "EDP_BURST",
    "EDP_HORIZON",
    "EDP_SWEEP_THREADS",
];
/// World builds timed per rep for `setup_s`.
const SETUP_SAMPLES: usize = 32;
/// Steps per timed chunk.
const CHUNK: usize = 1000;
/// Reps run even when `--seconds` is already spent.
const MIN_REPS: usize = 5;
/// Spans kept in the exported timeline (aggregates are always exact).
const SPAN_CAP: usize = 20_000;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_out: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1> \
         [--trace-out <file>]",
        Workload::ALL.map(|w| w.name()).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 0,
        seconds: 10.0,
        traced: false,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => match Workload::parse(&value) {
                Some(w) => args.workloads = vec![w],
                None => {
                    eprintln!("error: unknown workload `{value}`");
                    usage()
                }
            },
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--trace-out" => args.trace_out = Some(value),
            _ => {
                eprintln!("error: unknown argument `{flag}`");
                usage()
            }
        }
    }
    if args.workloads.is_empty() || !args.seconds.is_finite() || args.seconds <= 0.0 {
        usage();
    }
    args
}

/// Host fingerprint recorded with every result. The calibration rate is
/// recorded, not divided by: it does not cancel this kind of host noise.
fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().replace('"', "'"))
        })
        .unwrap_or_else(|| "unknown".into());
    // Fixed calibration loop: sort 4096 xorshift keys, then index 1024 of
    // them in a BTreeMap; iterations per second over ~100 ms.
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut iters = 0u64;
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_millis(100) {
        let mut v: Vec<u64> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        v.sort_unstable();
        let m: std::collections::BTreeMap<u64, u64> =
            v.iter().step_by(4).map(|&k| (k, k)).collect();
        std::hint::black_box(m.len());
        iters += 1;
    }
    let rate = iters as f64 / t0.elapsed().as_secs_f64();
    format!("{{\"nproc\":{nproc},\"cpu_model\":\"{cpu}\",\"calib_iters_per_s\":{rate:.1}}}")
}

/// Peak resident set of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The median of `v` (the lower one for an even count; sorts `v`).
fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    v[(v.len() - 1) / 2]
}

/// One metric of a result line.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value: if value.is_finite() { value } else { 0.0 },
    }
}

/// Outcome bookkeeping shared by both modes.
struct Checker {
    workload: Workload,
    reference: u64,
    attempted: u64,
    failed: u64,
}

impl Checker {
    /// Counts one rep; a digest mismatch or broken conservation fails it.
    fn check(&mut self, what: &str, o: &Outcome) {
        self.attempted += 1;
        let mut why = Vec::new();
        if o.digest != self.reference {
            why.push(format!(
                "digest {:016x} != reference {:016x}",
                o.digest, self.reference
            ));
        }
        if !o.conserved() {
            why.push(format!(
                "sent {} != delivered {} + dropped {} + queued {}",
                o.sent, o.delivered, o.dropped, o.queued
            ));
        }
        if !why.is_empty() {
            self.failed += 1;
            eprintln!(
                "FAILED {} {what} rep: {}",
                self.workload.name(),
                why.join("; ")
            );
        }
    }
}

/// The untimed reference rep: a single-world run (for `line8_2shard`,
/// of the same world on the classic engine), stepped one event at a time
/// to record peaks. Its digest is what every later rep must reproduce.
fn reference(w: Workload, seed: u64) -> (Outcome, u64, Peaks) {
    let single = if w == Workload::Line8TwoShard {
        Workload::Line8
    } else {
        w
    };
    let (mut net, mut sim) = single.setup(seed, false);
    let peaks = workloads::run_counting(&mut net, &mut sim, single.deadline());
    (Outcome::of(&[&net], w.sent()), sim.events_fired(), peaks)
}

/// A timed rep: its outcome, its host seconds in pieces, and what the
/// traced run reads from it. An untraced classic-engine rep is timed per
/// chunk of [`CHUNK`] steps; a traced rep, and a sharded rep (whose steps
/// the engine drives), as one piece.
fn timed_rep(w: Workload, seed: u64, traced: bool) -> (Outcome, Vec<f64>, Rep) {
    if w == Workload::Line8TwoShard {
        let t0 = Instant::now();
        let (shards, stats) = workloads::run_sharded_rep(seed, traced, SPAN_CAP);
        let secs = t0.elapsed().as_secs_f64();
        let nets: Vec<_> = shards.iter().map(|s| &s.net).collect();
        let o = Outcome::of(&nets, w.sent());
        let mut rep = Rep {
            events: shards.iter().map(|s| s.events).sum(),
            stats,
            ..Rep::default()
        };
        for s in shards {
            rep.traces.extend(s.trace);
            rep.profiles.extend(s.prof);
        }
        return (o, vec![secs], rep);
    }
    let (mut net, mut sim) = w.setup(seed, traced);
    let mut times = Vec::new();
    if traced {
        trace::start(Instant::now(), SPAN_CAP);
        let t0 = Instant::now();
        workloads::run_traced(&mut net, &mut sim, w.deadline());
        times.push(t0.elapsed().as_secs_f64());
    } else {
        workloads::run_chunked(&mut net, &mut sim, w.deadline(), CHUNK, &mut times);
    }
    let rep = Rep {
        traces: trace::finish().into_iter().collect(),
        ..Rep::default()
    };
    (Outcome::of(&[&net], w.sent()), times, rep)
}

/// What a traced run reads from a rep besides its outcome.
#[derive(Default)]
struct Rep {
    /// Span recorders, one per thread that ran switches.
    traces: Vec<Recorder>,
    /// Wall-clock profiles of a traced sharded rep's shards.
    profiles: Vec<edp_telemetry::prof::Profile>,
    /// A sharded rep's engine statistics.
    stats: edp_netsim::ShardStats,
    /// Events fired, summed over a sharded rep's shards.
    events: u64,
}

/// `--trace 0`: the end-to-end metrics.
///
/// Every rep runs identical work, so each piece of it (a chunk of steps,
/// or a whole sharded rep) has one intrinsic cost plus whatever the host
/// added while it ran. On a shared host that addition is one-sided and
/// comes in phases seconds long, in which reps run up to 2x slower. The
/// rep-time median then tracks the share of the run spent in a slow
/// phase. So the run time is the sum over pieces of the fastest time
/// seen for that piece, and `setup_s` is the fastest build: each needs
/// only one unhindered instance per piece in the whole run.
fn measure(w: Workload, seed: u64, seconds: f64) -> (Checker, Vec<Metric>) {
    let (o, _, _) = reference(w, seed);
    let delivered = o.delivered as f64;
    let mut ck = Checker {
        workload: w,
        reference: o.digest,
        attempted: 0,
        failed: 0,
    };
    ck.check("reference", &o);
    let mut fastest: Vec<f64> = Vec::new();
    let mut rep_secs = Vec::new();
    let mut setup_s = f64::INFINITY;
    let mut peak_rss = 0.0;
    let t0 = Instant::now();
    while rep_secs.len() < MIN_REPS || t0.elapsed().as_secs_f64() < seconds {
        let (o, times, _) = timed_rep(w, seed, false);
        ck.check("timed", &o);
        rep_secs.push(times.iter().sum::<f64>());
        if fastest.is_empty() {
            // Every rep runs the same world, so the first one's peak is
            // the run's.
            peak_rss = peak_rss_mb();
            fastest = times;
        } else {
            assert_eq!(
                fastest.len(),
                times.len(),
                "reps of one world differ in steps"
            );
            for (f, t) in fastest.iter_mut().zip(times) {
                *f = f.min(t);
            }
        }
        for _ in 0..SETUP_SAMPLES {
            let t = Instant::now();
            let world = w.setup(seed, false);
            setup_s = setup_s.min(t.elapsed().as_secs_f64());
            drop(world);
        }
    }
    let pkts_per_s = delivered / fastest.iter().sum::<f64>();
    eprintln!(
        "{}: {} reps; rep rate median {:.0} 1/s, fastest-piece rate {pkts_per_s:.0} 1/s; \
         fastest of {} builds {setup_s:.3e} s",
        w.name(),
        rep_secs.len(),
        delivered / median(&mut rep_secs),
        rep_secs.len() * SETUP_SAMPLES,
    );
    let metrics = vec![
        metric("pkts_per_s", "1/s", pkts_per_s),
        metric("setup_s", "s", setup_s),
        metric("peak_rss_mb", "MB", peak_rss),
    ];
    (ck, metrics)
}

/// `--trace 1`: the per-layer metrics, plus the trace export.
fn layers(w: Workload, seed: u64, seconds: f64, meta: &str) -> (Checker, Vec<Metric>, String) {
    let (o, ref_events, peaks) = reference(w, seed);
    let mut ck = Checker {
        workload: w,
        reference: o.digest,
        attempted: 0,
        failed: 0,
    };
    ck.check("reference", &o);
    let delivered = o.delivered as f64;
    let mut agg = Recorder::empty();
    let mut first: Option<Vec<Recorder>> = None;
    let mut phase_ns = [0u64; edp_telemetry::prof::NPHASES];
    let mut profiles = Vec::new();
    let mut shard_stats = edp_netsim::ShardStats::default();
    let mut shard_events = 0u64;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while traced.len() < MIN_REPS || t0.elapsed().as_secs_f64() < seconds {
        let (o, times, _) = timed_rep(w, seed, false);
        ck.check("untraced", &o);
        plain.push(times.iter().sum::<f64>());
        let (o, times, rep) = timed_rep(w, seed, true);
        ck.check("traced", &o);
        traced.push(times.iter().sum::<f64>());
        shard_stats = rep.stats;
        shard_events = rep.events;
        for p in &rep.profiles {
            for (d, s) in phase_ns.iter_mut().zip(p.phase_ns.iter()) {
                *d += s;
            }
        }
        if profiles.is_empty() {
            profiles = rep.profiles;
        }
        for r in &rep.traces {
            agg.absorb(r);
        }
        if first.is_none() {
            first = Some(rep.traces);
        }
    }
    let reps = traced.len() as f64;
    let wall: f64 = traced.iter().sum::<f64>() * 1e9;
    let overhead = median(&mut traced) / median(&mut plain);
    let per_rep = |l: Layer| agg.calls[l.index()] as f64 / reps;
    let total = |l: Layer| agg.total_ns[l.index()] as f64;
    let per_call = |l: Layer| total(l) / agg.calls[l.index()].max(1) as f64;
    let sum_total = |ls: &[Layer]| ls.iter().map(|&l| total(l)).sum::<f64>();
    let switch_layers = [
        Layer::SwitchReceive,
        Layer::SwitchTransmit,
        Layer::SwitchTimer,
        Layer::SwitchControl,
        Layer::SwitchLink,
    ];
    let switch_ns = sum_total(&switch_layers);
    let switch_self: f64 = switch_layers
        .iter()
        .map(|&l| agg.self_ns[l.index()] as f64)
        .sum();
    let switch_calls: f64 = switch_layers.iter().map(|&l| per_rep(l)).sum();
    let sharded = w == Workload::Line8TwoShard;
    let phase = |p: edp_telemetry::prof::Phase| phase_ns[p.index()] as f64;
    let attributed: f64 = phase_ns.iter().sum::<u64>() as f64;
    // The step time: traced `Sim::step` spans, or on the sharded engine
    // the `prof` Execute phase that runs them.
    let (step_ns, events) = if sharded {
        (
            phase(edp_telemetry::prof::Phase::Execute),
            shard_events as f64,
        )
    } else {
        (total(Layer::Step), ref_events as f64)
    };
    let hits = o.counter("flow_cache_hits") as f64;
    let misses = o.counter("flow_cache_misses") as f64;
    let mut m = vec![
        metric("evsim.events_per_pkt", "count", events / delivered),
        metric("evsim.ns_per_event", "ns", step_ns / (events * reps)),
        metric(
            "evsim.pending_peak",
            "count",
            if sharded { 0.0 } else { peaks.pending as f64 },
        ),
        metric(
            "netsim.self_ns_per_pkt",
            "ns",
            (step_ns - switch_ns) / (delivered * reps),
        ),
        metric(
            "netsim.cp_messages",
            "count",
            o.counter("cp_messages") as f64,
        ),
        metric("switch.receive_ns", "ns", per_call(Layer::SwitchReceive)),
        metric("switch.transmit_ns", "ns", per_call(Layer::SwitchTransmit)),
        metric("switch.timer_ns", "ns", per_call(Layer::SwitchTimer)),
        metric("switch.calls_per_pkt", "count", switch_calls / delivered),
        metric(
            "pisa.table_ns_per_lookup",
            "ns",
            per_call(Layer::PisaIngress),
        ),
        metric(
            "pisa.flow_cache_hit_ratio",
            "ratio",
            hits / (hits + misses).max(1.0),
        ),
        metric(
            "pisa.flow_cache_invalidations",
            "count",
            o.counter("flow_cache_invalidations") as f64,
        ),
        metric("pisa.tm_drops", "count", o.counter("queue_dropped") as f64),
        metric(
            "pisa.tm_queue_peak_bytes",
            "bytes",
            peaks.queue_bytes as f64,
        ),
    ];
    let kinds = [
        ("ingress", Layer::AppIngress),
        ("egress", Layer::AppEgress),
        ("enqueue", Layer::AppEnqueue),
        ("dequeue", Layer::AppDequeue),
        ("overflow", Layer::AppOverflow),
        ("timer", Layer::AppTimer),
    ];
    for (kind, l) in kinds {
        m.push(metric(
            &format!("apps.handler_ns.{kind}"),
            "ns",
            per_call(l),
        ));
        m.push(metric(
            &format!("apps.handler_calls.{kind}"),
            "count",
            per_rep(l),
        ));
    }
    m.push(metric(
        "core.self_ns_per_pkt",
        "ns",
        switch_self / (delivered * reps),
    ));
    let frac = |num: f64| {
        if attributed > 0.0 {
            num / attributed
        } else {
            0.0
        }
    };
    use edp_telemetry::prof::Phase;
    m.extend([
        metric("shard.barriers", "count", shard_stats.barriers as f64),
        metric("shard.windows", "count", shard_stats.windows as f64),
        metric(
            "shard.cross_messages",
            "count",
            shard_stats.cross_messages as f64,
        ),
        metric("shard.events_total", "count", shard_events as f64),
        metric(
            "shard.barrier_wait_frac",
            "ratio",
            frac(phase(Phase::Negotiate) + phase(Phase::Barrier)),
        ),
        metric(
            "shard.exchange_frac",
            "ratio",
            frac(phase(Phase::Mailbox) + phase(Phase::Extend)),
        ),
        metric("shard.compute_frac", "ratio", frac(phase(Phase::Execute))),
        metric("trace.overhead_ratio", "ratio", overhead),
    ]);
    // Self-time breakdown by module: what the traced wall clock went to.
    let mut modules: Vec<(&str, f64)> = Vec::new();
    for l in Layer::ALL {
        let ns = agg.self_ns[l.index()] as f64;
        match modules.iter_mut().find(|(n, _)| *n == l.module()) {
            Some(e) => e.1 += ns,
            None => modules.push((l.module(), ns)),
        }
    }
    if sharded {
        // The engine drives the steps: the rest of Execute is evsim and
        // netsim, and the other prof phases are the shard layer's own.
        if let Some(e) = modules.iter_mut().find(|(n, _)| *n == "evsim+netsim") {
            e.1 = step_ns - switch_ns;
        }
        modules.push(("shard.sync", attributed - step_ns));
    }
    let accounted: f64 = modules.iter().map(|(_, ns)| ns).sum();
    let denom = if sharded { attributed } else { wall };
    m.push(metric("trace.attributed_frac", "ratio", accounted / denom));
    let mut report = String::new();
    let _ = writeln!(
        report,
        "{}: traced self time by module over {} reps ({:.1} ms traced wall{}):",
        w.name(),
        traced.len(),
        wall / 1e6,
        if sharded {
            ", summed over shard threads"
        } else {
            ""
        }
    );
    modules.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, ns) in &modules {
        let _ = writeln!(report, "  {name:<14} {:>6.1}%", 100.0 * ns / denom);
    }
    let _ = writeln!(
        report,
        "  accounted {:.1}% of the traced wall clock; largest layer: {}",
        100.0 * accounted / denom,
        modules.first().map_or("-", |m| m.0)
    );
    let json_meta = format!(
        "{{\"fingerprint\":{meta},\"largest_layer\":\"{}\"}}",
        modules.first().map_or("-", |m| m.0)
    );
    let first = first.unwrap_or_default();
    let mut trace_json = trace::to_chrome_json(w.name(), &first, &json_meta);
    if !profiles.is_empty() {
        let prof_json =
            edp_telemetry::prof::to_trace_json(&[(format!("{} prof", w.name()), &profiles[..])]);
        report.push_str(&edp_telemetry::prof::render_table(&[&profiles[..]]));
        trace_json = merge_traces(&trace_json, &prof_json);
    }
    print!("{report}");
    (ck, m, trace_json)
}

/// Appends the events of the second trace-event document to the first
/// (the prof export uses pid 1; its events move to pid 1000+).
fn merge_traces(a: &str, b: &str) -> String {
    let body = |s: &str| {
        let start = s.find('[').map_or(0, |i| i + 1);
        let end = s.rfind(']').unwrap_or(s.len());
        s[start..end].trim().to_string()
    };
    let moved = body(b).replace("\"pid\":", "\"pid\":100");
    format!(
        "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n{},\n{}\n]}}\n",
        body(a),
        moved
    )
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

fn main() {
    let set: Vec<&str> = REFUSED_ENV
        .into_iter()
        .filter(|k| std::env::var_os(k).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!(
            "error: {} set in the environment; the benchmark measures the default engine \
             path and refuses to run with a knob that would change it. Unset it and rerun.",
            set.join(", ")
        );
        std::process::exit(2);
    }
    let args = parse_args();
    let fp = fingerprint();
    println!("{{\"fingerprint\": {fp}}}");
    let mut all = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for &w in &args.workloads {
        let (ck, metrics) = if args.traced {
            let (ck, metrics, json) = layers(w, args.seed, args.seconds, &fp);
            if let Some(path) = &args.trace_out {
                let path = if args.workloads.len() > 1 {
                    path.replace(".json", &format!("-{}.json", w.name()))
                } else {
                    path.clone()
                };
                if let Err(e) = std::fs::write(&path, json) {
                    eprintln!("error: writing {path}: {e}");
                    std::process::exit(1);
                }
                println!("{}: trace written to {path}", w.name());
            }
            (ck, metrics)
        } else {
            measure(w, args.seed, args.seconds)
        };
        attempted += ck.attempted;
        failed += ck.failed;
        if args.workloads.len() > 1 {
            println!(
                "{}: {}",
                w.name(),
                result_line(ck.failed == 0, ck.attempted, ck.failed, &metrics)
            );
            all.extend(metrics.into_iter().map(|mut m| {
                m.name = format!("{}.{}", w.name(), m.name);
                m
            }));
        } else {
            all = metrics;
        }
    }
    println!("{}", result_line(failed == 0, attempted, failed, &all));
}
