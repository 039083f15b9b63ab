//! Sharded-engine scaling snapshot: wall-clock throughput of an
//! 8-switch line topology at 1, 2, and 4 shards, written to
//! `BENCH_2.json`. Each leg's rate is the median of [`TRIALS`] runs,
//! reported with its interquartile range; trials alternate across legs so
//! a slow phase of the host lands on every leg alike. `windows`,
//! `barriers` and `cross_messages` are the run's deterministic shard
//! counts. Each leg also runs one profiled pass (`edp_telemetry::prof`)
//! to attribute its wall-clock: `barrier_wait_frac` and `exchange_frac`
//! pin how much of the run waited on peers vs moved mailbox traffic.
//! The reported rates always come from unprofiled passes.
//!
//! ```sh
//! cargo run --release -p edp-bench --bin bench_shards
//! cargo run --release -p edp-bench --bin bench_shards -- --pkts 50000 --out /tmp/b2.json
//! ```
//!
//! The line `h0 — sw0 — sw1 — … — sw7 — h1` keeps every inter-switch
//! link at 2 µs latency. Block placement deals it into contiguous runs,
//! so at `k` shards `k - 1` trunks cross a mailbox and each packet
//! crosses `k - 1` times. The run also asserts the delivered-packet count
//! is identical at every shard count before reporting any rate.
//!
//! Speedup is bounded by physical parallelism: the snapshot records
//! `host_cores` (`std::thread::available_parallelism`) next to the
//! rates so a number measured on a 1-core container is not mistaken for
//! an engine regression.

use edp_evsim::{Sim, SimDuration, SimTime};
use edp_netsim::traffic::start_cbr;
use edp_netsim::{run_sharded, Host, HostApp, LinkSpec, Network, NodeRef};
use edp_packet::PacketBuilder;
use edp_pisa::{BaselineSwitch, ForwardTo, QueueConfig};
use edp_telemetry::prof;
use std::net::Ipv4Addr;
use std::time::Instant;

const SWITCHES: usize = 8;
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
/// Unprofiled runs per leg; the reported rate is their median.
const TRIALS: usize = 5;

/// Builds the 8-switch line with `n` CBR packets armed. Pure function
/// of its arguments — every shard builds the identical world.
fn build(n: u64) -> (Network, Sim<Network>) {
    let mut net = Network::new(42);
    let switches: Vec<usize> = (0..SWITCHES)
        .map(|_| {
            net.add_switch(Box::new(BaselineSwitch::new(
                ForwardTo(1),
                2,
                QueueConfig::default(),
            )))
        })
        .collect();
    let h0 = net.add_host(Host::new(Ipv4Addr::new(10, 0, 0, 1), HostApp::Sink));
    let h1 = net.add_host(Host::new(Ipv4Addr::new(10, 0, 0, 2), HostApp::Sink));
    let edge = LinkSpec::ten_gig(SimDuration::from_micros(1));
    let trunk = LinkSpec::ten_gig(SimDuration::from_micros(2));
    net.connect(
        (NodeRef::Host(h0), 0),
        (NodeRef::Switch(switches[0]), 0),
        edge,
    );
    for w in switches.windows(2) {
        net.connect(
            (NodeRef::Switch(w[0]), 1),
            (NodeRef::Switch(w[1]), 0),
            trunk,
        );
    }
    net.connect(
        (NodeRef::Switch(switches[SWITCHES - 1]), 1),
        (NodeRef::Host(h1), 0),
        edge,
    );
    let mut sim: Sim<Network> = Sim::new();
    start_cbr(
        &mut sim,
        h0,
        SimTime::ZERO,
        SimDuration::from_nanos(500),
        n,
        move |i| {
            PacketBuilder::udp(
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
                4000,
                8080,
                &[],
            )
            .ident(i as u16)
            .pad_to(256)
            .build()
        },
    );
    (net, sim)
}

/// Runs the line at `shards` and returns `(delivered, stats, wall
/// seconds)`.
fn measure(shards: usize, n: u64) -> (u64, edp_netsim::ShardStats, f64) {
    // 500 ns spacing + the ~17 µs path + margin.
    let deadline = SimTime::from_nanos(500 * n + 1_000_000);
    let t0 = Instant::now();
    let (delivered, stats) = run_sharded(
        shards,
        deadline,
        |_shard| build(n),
        |_shard, net, _sim| net.hosts[1].stats.rx_pkts,
    );
    let secs = t0.elapsed().as_secs_f64();
    (delivered.iter().sum(), stats, secs)
}

/// Re-runs the leg with the wall-clock profiler enabled and returns
/// `(barrier_wait_frac, exchange_frac)` — the fraction of the group's
/// attributed wall-clock spent waiting on peers (negotiations and
/// frontier stalls) and doing mailbox work, summed over shards. A
/// separate pass so the profiler's own overhead never contaminates the
/// reported rate.
fn measure_fracs(shards: usize, n: u64) -> (f64, f64) {
    let deadline = SimTime::from_nanos(500 * n + 1_000_000);
    let epoch = Instant::now();
    let (profiles, _) = run_sharded(
        shards,
        deadline,
        |shard| {
            prof::enable(epoch, shard, shards);
            build(n)
        },
        |_shard, _net, _sim| prof::disable().expect("profiling enabled in build"),
    );
    let mut phase_ns = [0u64; prof::NPHASES];
    for p in &profiles {
        for (dst, src) in phase_ns.iter_mut().zip(p.phase_ns.iter()) {
            *dst += src;
        }
    }
    let attr: u64 = phase_ns.iter().sum();
    if attr == 0 {
        return (0.0, 0.0);
    }
    let wait = phase_ns[prof::Phase::Negotiate.index()] + phase_ns[prof::Phase::Barrier.index()];
    let exchange = phase_ns[prof::Phase::Mailbox.index()] + phase_ns[prof::Phase::Extend.index()];
    (wait as f64 / attr as f64, exchange as f64 / attr as f64)
}

/// `(median, interquartile range)` of `xs`, with linearly interpolated
/// quartiles.
fn median_iqr(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |p: f64| {
        let i = p * (v.len() - 1) as f64;
        let (lo, hi) = (i.floor() as usize, i.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (i - lo as f64)
    };
    (q(0.5), q(0.75) - q(0.25))
}

fn main() {
    let mut pkts: u64 = 200_000;
    let mut out = String::from("BENCH_2.json");
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--pkts" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => pkts = v,
                None => {
                    eprintln!("error: --pkts requires a count");
                    std::process::exit(2);
                }
            },
            "--out" => match it.next() {
                Some(p) => out = p,
                None => {
                    eprintln!("error: --out requires a path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("error: unknown argument `{other}`");
                eprintln!("usage: bench_shards [--pkts N] [--out <path>]");
                std::process::exit(2);
            }
        }
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "bench_shards — {SWITCHES}-switch line, {pkts} pkts, {TRIALS} trials per leg, \
         {cores} host core(s)"
    );

    let mut rates: Vec<Vec<f64>> = vec![Vec::new(); SHARD_COUNTS.len()];
    let mut stats = vec![edp_netsim::ShardStats::default(); SHARD_COUNTS.len()];
    let mut base_rx = None;
    for _ in 0..TRIALS {
        for (leg, shards) in SHARD_COUNTS.into_iter().enumerate() {
            let (rx, st, secs) = measure(shards, pkts);
            assert_eq!(
                *base_rx.get_or_insert(rx),
                rx,
                "{shards}-shard run delivered a different count"
            );
            rates[leg].push(pkts as f64 / secs);
            stats[leg] = st;
        }
    }
    let (base_rate, _) = median_iqr(&rates[0]);
    let mut rows = Vec::new();
    for (leg, shards) in SHARD_COUNTS.into_iter().enumerate() {
        let (rate, iqr) = median_iqr(&rates[leg]);
        let st = stats[leg];
        let speedup = rate / base_rate;
        let (wait_frac, exch_frac) = measure_fracs(shards, pkts);
        println!(
            "  {shards} shard(s): {rate:>10.0} pkts/s (IQR {iqr:.0}) \
             ({} windows, {} barriers, {} cross msgs, speedup {speedup:.2}x, \
             barrier-wait {:.0}%, exchange {:.0}%)",
            st.windows,
            st.barriers,
            st.cross_messages,
            wait_frac * 100.0,
            exch_frac * 100.0,
        );
        rows.push(format!(
            "    {{\"shards\": {shards}, \"trials\": {TRIALS}, \
             \"pkts_per_sec\": {rate:.1}, \"pkts_per_sec_iqr\": {iqr:.1}, \
             \"windows\": {}, \"barriers\": {}, \"cross_messages\": {}, \
             \"speedup_vs_baseline\": {speedup:.3}, \
             \"barrier_wait_frac\": {wait_frac:.3}, \
             \"exchange_frac\": {exch_frac:.3}}}",
            st.windows, st.barriers, st.cross_messages,
        ));
    }

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"pkts\": {pkts},\n"));
    json.push_str(&format!("  \"switches\": {SWITCHES},\n"));
    json.push_str(&format!("  \"host_cores\": {cores},\n"));
    json.push_str(
        "  \"note\": \"pkts_per_sec is the median of `trials` runs, with its \
         interquartile range; speedup is bounded by host_cores\",\n",
    );
    json.push_str("  \"results\": [\n");
    json.push_str(&rows.join(",\n"));
    json.push_str("\n  ]\n}\n");
    std::fs::write(&out, json).expect("write snapshot");
    println!("wrote {out}");
}
