//! Performance snapshot harness: one binary that times the three fast
//! paths (event queue, table lookups, switch datapath) with plain wall
//! clocks and writes a `BENCH_<n>.json` so every PR leaves a perf
//! trajectory to regress against.
//!
//! ```sh
//! cargo run --release -p edp-bench --bin bench_snapshot            # full run
//! cargo run --release -p edp-bench --bin bench_snapshot -- --smoke # CI-sized
//! cargo run --release -p edp-bench --bin bench_snapshot -- --out BENCH_1.json
//! # CI regression gate: fail (exit 1) if any gated metric is more than
//! # --max-regress below the baseline snapshot:
//! cargo run --release -p edp-bench --bin bench_snapshot -- \
//!     --smoke --out /tmp/smoke.json --baseline BENCH_1.json --max-regress 0.25
//! ```
//!
//! Interpretation: every metric is an operations-per-second rate, larger
//! is better, except the `shard_*` counts, where lower is better. The JSON is flat (`{"metrics": {"name": rate, ...}}`) so a
//! later PR can diff two snapshots with nothing fancier than `jq`.

use edp_core::{BaselineAdapter, EventSwitch, EventSwitchConfig};
use edp_evsim::{Periodic, Sim, SimDuration, SimTime};
use edp_packet::{Burst, Packet, PacketBuilder, PacketUid};
use edp_pisa::{
    insert_ipv4_route, ipv4_lpm_schema, FieldMatch, ForwardTo, MatchKind, MatchTable, TableEntry,
};
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Instant;

struct Scale {
    events: u64,
    cancels: u64,
    periodic_ticks: u64,
    lookups: u64,
    pkts: u64,
}

const FULL: Scale = Scale {
    events: 2_000_000,
    cancels: 1_000_000,
    periodic_ticks: 2_000_000,
    lookups: 2_000_000,
    pkts: 400_000,
};

const SMOKE: Scale = Scale {
    events: 50_000,
    cancels: 25_000,
    periodic_ticks: 50_000,
    lookups: 50_000,
    pkts: 10_000,
};

fn rate(n: u64, elapsed: std::time::Duration) -> f64 {
    n as f64 / elapsed.as_secs_f64()
}

/// events/s: schedule `n` one-shot events (staggered, with same-time
/// ties) and drain them.
fn bench_events_schedule_fire(n: u64) -> f64 {
    let mut sim: Sim<u64> = Sim::new();
    let t0 = Instant::now();
    for i in 0..n {
        // Four events per nominal instant: exercises FIFO tie-breaking.
        sim.schedule_at(SimTime::from_nanos(i / 4), |w: &mut u64, _: &mut _| {
            *w = w.wrapping_add(1);
        });
    }
    let mut world = 0u64;
    sim.run(&mut world);
    assert_eq!(world, n);
    rate(n, t0.elapsed())
}

/// events/s when half the scheduled events are cancelled before firing:
/// measures the cancellation path (tombstones in the seed design).
fn bench_events_cancel_heavy(n: u64) -> f64 {
    let mut sim: Sim<u64> = Sim::new();
    let t0 = Instant::now();
    let mut ids = Vec::with_capacity(n as usize / 2);
    for i in 0..n {
        let id = sim.schedule_at(SimTime::from_nanos(i), |w: &mut u64, _: &mut _| {
            *w = w.wrapping_add(1);
        });
        if i % 2 == 0 {
            ids.push(id);
        }
    }
    for id in ids {
        sim.cancel(id);
    }
    let mut world = 0u64;
    sim.run(&mut world);
    assert_eq!(world, n - n / 2 - n % 2);
    rate(n, t0.elapsed())
}

/// events/s for a self-re-arming periodic timer (the hot shape for
/// traffic generators and polling loops).
fn bench_events_periodic(ticks: u64) -> f64 {
    let mut sim: Sim<u64> = Sim::new();
    let mut left = ticks;
    sim.schedule_periodic(
        SimTime::from_nanos(1),
        SimDuration::from_nanos(1),
        move |w: &mut u64, _: &mut Sim<u64>| {
            *w = w.wrapping_add(1);
            left -= 1;
            if left == 0 {
                Periodic::Stop
            } else {
                Periodic::Continue
            }
        },
    );
    let t0 = Instant::now();
    let mut world = 0u64;
    sim.run(&mut world);
    assert_eq!(world, ticks);
    rate(ticks, t0.elapsed())
}

/// lookups/s on an all-exact table with 10k entries.
fn bench_exact_lookup(n: u64) -> f64 {
    let mut t: MatchTable<u32> = MatchTable::new("exact", vec![MatchKind::Exact]);
    for i in 0..10_000u64 {
        t.insert_exact(&[i], i as u32);
    }
    let t0 = Instant::now();
    let mut acc = 0u64;
    for i in 0..n {
        let key = [(i * 7919) % 10_000];
        if let Some(v) = t.lookup(&key) {
            acc = acc.wrapping_add(*v as u64);
        }
    }
    std::hint::black_box(acc);
    rate(n, t0.elapsed())
}

/// lookups/s on a 1k-entry IPv4 LPM table (the acceptance-criteria
/// workload: mixed /8 /16 /24 prefixes plus a default route).
fn bench_lpm_lookup_1k(n: u64) -> f64 {
    let mut t: MatchTable<u32> = MatchTable::new("lpm1k", ipv4_lpm_schema());
    let mut id = 0u32;
    for a in 0..4u32 {
        insert_ipv4_route(&mut t, Ipv4Addr::new(10 + a as u8, 0, 0, 0), 8, id);
        id += 1;
    }
    for b in 0..55u32 {
        insert_ipv4_route(&mut t, Ipv4Addr::new(10, b as u8, 0, 0), 16, id);
        id += 1;
    }
    for c in 0..940u32 {
        insert_ipv4_route(
            &mut t,
            Ipv4Addr::new(10, (c / 256) as u8, (c % 256) as u8, 0),
            24,
            id,
        );
        id += 1;
    }
    insert_ipv4_route(&mut t, Ipv4Addr::new(0, 0, 0, 0), 0, id);
    let entries = t.len() as u64;
    assert!(
        entries >= 1000,
        "expected >=1000 LPM entries, got {entries}"
    );
    let t0 = Instant::now();
    let mut acc = 0u64;
    for i in 0..n {
        // Mix of hits at /24, /16, /8 and default-route depth.
        let addr = Ipv4Addr::new(10, (i % 7) as u8, (i % 251) as u8, (i % 253) as u8);
        let key = [u32::from(addr) as u64];
        if let Some(v) = t.lookup(&key) {
            acc = acc.wrapping_add(*v as u64);
        }
    }
    std::hint::black_box(acc);
    rate(n, t0.elapsed())
}

/// lookups/s on a 128-entry ternary ACL with distinct priorities.
fn bench_ternary_lookup(n: u64) -> f64 {
    let mut t: MatchTable<u32> = MatchTable::new("acl", vec![MatchKind::Ternary]);
    for i in 0..128u64 {
        t.insert(TableEntry {
            fields: vec![FieldMatch::Ternary {
                value: i,
                mask: 0x7F,
            }],
            priority: i as i64,
            action: i as u32,
        });
    }
    let t0 = Instant::now();
    let mut acc = 0u64;
    for i in 0..n {
        if let Some(v) = t.lookup(&[i % 131]) {
            acc = acc.wrapping_add(*v as u64);
        }
    }
    std::hint::black_box(acc);
    rate(n, t0.elapsed())
}

/// Drives `n` shared-payload frames through `sw` in same-instant groups
/// of `burst` (1 = the classic per-packet receive/transmit loop) and
/// returns the pkts/s rate. The frame is `Arc`-shared so the loop pays
/// an Arc bump per packet, not an alloc+memcpy — the same economy a real
/// driver gets from a descriptor ring.
fn drive_switch<P: edp_core::EventProgram>(
    sw: &mut EventSwitch<P>,
    frame: &Arc<Vec<u8>>,
    n: u64,
    burst: usize,
    out_port: u8,
) -> f64 {
    let b = burst.max(1) as u64;
    let t0 = Instant::now();
    let mut t = 0u64;
    let mut done = 0u64;
    while done < n {
        let take = b.min(n - done);
        t += 100;
        if take == 1 {
            sw.receive(
                SimTime::from_nanos(t),
                0,
                Packet::from_shared(PacketUid(0), Arc::clone(frame)),
            );
            std::hint::black_box(sw.transmit(SimTime::from_nanos(t + 50), out_port));
        } else {
            let mut group = Burst::with_capacity(take as usize);
            for _ in 0..take {
                group.push(Packet::from_shared(PacketUid(0), Arc::clone(frame)));
            }
            sw.receive_burst(SimTime::from_nanos(t), 0, group);
            std::hint::black_box(sw.transmit_burst(
                SimTime::from_nanos(t + 50),
                out_port,
                take as usize,
            ));
        }
        done += take;
    }
    assert_eq!(sw.counters().tx, n);
    rate(n, t0.elapsed())
}

/// pkts/s through the EventSwitch: receive + transmit with full event
/// delivery (enqueue/dequeue/transmit handler dispatches), in groups of
/// `burst` same-instant frames.
fn bench_switch_pkts_at(n: u64, burst: usize) -> f64 {
    let frame = Arc::new(
        PacketBuilder::udp(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            4000,
            8080,
            &[],
        )
        .pad_to(256)
        .build(),
    );
    let cfg = EventSwitchConfig {
        n_ports: 4,
        ..Default::default()
    };
    let mut sw = EventSwitch::new(BaselineAdapter(ForwardTo(1)), cfg);
    drive_switch(&mut sw, &frame, n, burst, 1)
}

/// pkts/s through the EventSwitch running a routed program: a
/// [`TableRouter`] with 1k LPM routes installed. The first packet of the
/// flow runs the LPM lookup; every later packet replays the memoized
/// decision from the per-flow cache — the shape the cache exists for.
fn bench_switch_routed_at(n: u64, burst: usize) -> f64 {
    let frame = Arc::new(
        PacketBuilder::udp(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 1, 2, 3),
            4000,
            8080,
            &[],
        )
        .pad_to(256)
        .build(),
    );
    let cfg = EventSwitchConfig {
        n_ports: 4,
        ..Default::default()
    };
    let mut sw = EventSwitch::new(BaselineAdapter(edp_pisa::TableRouter::new()), cfg);
    for i in 0..1024u32 {
        let dst = Ipv4Addr::new(10, ((i >> 8) & 0xff) as u8, (i & 0xff) as u8, 0);
        sw.control_plane(
            SimTime::ZERO,
            edp_pisa::TableRouter::OP_INSERT_ROUTE,
            [u64::from(u32::from(dst)), 24, 2, 0],
        );
    }
    drive_switch(&mut sw, &frame, n, burst, 2)
}

/// pkts/s for a 3-way flood fan-out (the multicast copy path).
fn bench_switch_flood(n: u64) -> f64 {
    use edp_core::EventActions;
    use edp_packet::ParsedPacket;
    use edp_pisa::{Destination, StdMeta};

    struct Flooder;
    impl edp_core::EventProgram for Flooder {
        fn on_ingress(
            &mut self,
            _p: &mut Packet,
            _h: &ParsedPacket,
            m: &mut StdMeta,
            _n: SimTime,
            _a: &mut EventActions,
        ) {
            m.dest = Destination::Flood;
        }
    }
    let frame = PacketBuilder::udp(
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(10, 0, 0, 2),
        4000,
        8080,
        &[],
    )
    .pad_to(1024)
    .build();
    let cfg = EventSwitchConfig {
        n_ports: 4,
        ..Default::default()
    };
    let mut sw = EventSwitch::new(Flooder, cfg);
    let t0 = Instant::now();
    let mut t = 0u64;
    for _ in 0..n {
        t += 100;
        sw.receive(SimTime::from_nanos(t), 0, Packet::anonymous(frame.clone()));
        for port in [1u8, 2, 3] {
            std::hint::black_box(sw.transmit(SimTime::from_nanos(t + 50), port));
        }
    }
    rate(n, t0.elapsed())
}

/// pkts/s end-to-end through the sharded engine on the canonical
/// dumbbell (h0 — switch — h1): the whole-stack number for the parallel
/// execution path. Shard count comes from `EDP_SHARDS` (min 1), so the
/// committed baseline — measured at 1 shard — gates the engine's fixed
/// overhead (windows, barriers, mailboxes) over the classic loop.
fn bench_sharded_dumbbell(n: u64) -> f64 {
    use edp_netsim::traffic::start_cbr;
    use edp_netsim::{run_sharded, Host, HostApp, LinkSpec, Network, NodeRef};
    use edp_pisa::QueueConfig;

    let shards = edp_bench::top::shards_from_env().max(1);
    let interval = SimDuration::from_nanos(500);
    let deadline = SimTime::from_nanos(500 * n + 1_000_000);
    let t0 = Instant::now();
    let (delivered, _) = run_sharded(
        shards,
        deadline,
        |_shard| {
            let mut net = Network::new(1);
            let sw = net.add_switch(Box::new(edp_pisa::BaselineSwitch::new(
                ForwardTo(1),
                2,
                QueueConfig::default(),
            )));
            let h0 = net.add_host(Host::new(Ipv4Addr::new(10, 0, 0, 1), HostApp::Sink));
            let h1 = net.add_host(Host::new(Ipv4Addr::new(10, 0, 0, 2), HostApp::Sink));
            let spec = LinkSpec::ten_gig(SimDuration::from_micros(1));
            net.connect((NodeRef::Host(h0), 0), (NodeRef::Switch(sw), 0), spec);
            net.connect((NodeRef::Switch(sw), 1), (NodeRef::Host(h1), 0), spec);
            let mut sim: Sim<Network> = Sim::new();
            start_cbr(&mut sim, h0, SimTime::ZERO, interval, n, move |i| {
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
            });
            (net, sim)
        },
        |_shard, net, _sim| net.hosts[1].stats.rx_pkts,
    );
    let total: u64 = delivered.iter().sum();
    assert_eq!(total, n, "dumbbell must deliver every frame");
    rate(n, t0.elapsed())
}

/// Frontier sessions for a *fixed* line workload (10k packets, 4
/// switches, 2 shards): a deterministic count — identical in smoke and
/// full runs, on any machine — gated lower-is-better so a protocol that
/// goes back to one negotiation per lookahead fails CI.
///
/// The dumbbell is useless for this metric: with one switch the
/// partitioner finds no cross-shard link and the shards never interact.
/// The 4-switch line's 2 µs trunks give the shards a real lookahead.
fn bench_shard_windows() -> f64 {
    run_line(10_000, 2, 4).windows as f64
}

/// Rendezvous joined on a *fixed* 8-switch 2-shard line workload. Like
/// `shard_windows` it is a pure function of the workload, so it gates
/// lower-is-better: a change that puts a barrier back inside the run
/// fails CI instead of silently giving the barrier latency back.
fn bench_shard_barriers() -> f64 {
    run_line(10_000, 2, 8).barriers as f64
}

/// Packets that crossed a shard boundary on the same fixed 8-switch
/// 2-shard line: one per packet when block placement cuts a single
/// trunk. Deterministic and gated lower-is-better, so a partition that
/// scatters neighbours across shards again fails CI.
fn bench_shard_cross_messages() -> f64 {
    run_line(10_000, 2, 8).cross_messages as f64
}

/// Runs an `switches`-switch line (`h0 — sw0 — … — h1`, 2 µs trunks)
/// through the sharded engine and returns its [`edp_netsim::ShardStats`],
/// a pure function of `(n, shards, switches)` — no wall-clock input.
fn run_line(n: u64, shards: usize, switches: usize) -> edp_netsim::ShardStats {
    use edp_netsim::traffic::start_cbr;
    use edp_netsim::{run_sharded, Host, HostApp, LinkSpec, Network, NodeRef};
    use edp_pisa::QueueConfig;

    let interval = SimDuration::from_nanos(500);
    let deadline = SimTime::from_nanos(500 * n + 1_000_000);
    let (delivered, stats) = run_sharded(
        shards,
        deadline,
        |_shard| {
            let mut net = Network::new(7);
            let switches: Vec<usize> = (0..switches)
                .map(|_| {
                    net.add_switch(Box::new(edp_pisa::BaselineSwitch::new(
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
                (
                    NodeRef::Switch(*switches.last().expect("at least one switch")),
                    1,
                ),
                (NodeRef::Host(h1), 0),
                edge,
            );
            let mut sim: Sim<Network> = Sim::new();
            start_cbr(&mut sim, h0, SimTime::ZERO, interval, n, move |i| {
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
            });
            (net, sim)
        },
        |_shard, net, _sim| net.hosts[1].stats.rx_pkts,
    );
    let total: u64 = delivered.iter().sum();
    assert_eq!(total, n, "line must deliver every frame");
    stats
}

/// pkts/s for the capture-ingestion path: decode a generated classic
/// pcap (500 ns gaps) and replay it through the canonical dumbbell on
/// sim time until every frame reaches the sink. The capture is built in
/// memory before the clock starts, so the number covers codec decode +
/// replay injection + the network path, not frame assembly.
fn bench_pcap_replay(n: u64) -> f64 {
    use edp_netsim::{start_replay, Host, HostApp, LinkSpec, Network, NodeRef};
    use edp_packet::{PcapFile, PcapPacket};
    use edp_pisa::QueueConfig;

    let mut file = PcapFile::default();
    for i in 0..n {
        let frame = PacketBuilder::udp(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            4000,
            8080,
            &[],
        )
        .ident(i as u16)
        .pad_to(256)
        .build();
        file.packets.push(PcapPacket::full(i * 500, frame));
    }
    let bytes = file.to_pcap_bytes();
    let deadline = SimTime::from_nanos(500 * n + 1_000_000);

    let t0 = Instant::now();
    let parsed = PcapFile::parse(&bytes).expect("generated capture parses");
    let mut net = Network::new(1);
    let sw = net.add_switch(Box::new(edp_pisa::BaselineSwitch::new(
        ForwardTo(1),
        2,
        QueueConfig::default(),
    )));
    let h0 = net.add_host(Host::new(Ipv4Addr::new(10, 0, 0, 1), HostApp::Sink));
    let h1 = net.add_host(Host::new(Ipv4Addr::new(10, 0, 0, 2), HostApp::Sink));
    let spec = LinkSpec::ten_gig(SimDuration::from_micros(1));
    net.connect((NodeRef::Host(h0), 0), (NodeRef::Switch(sw), 0), spec);
    net.connect((NodeRef::Switch(sw), 1), (NodeRef::Host(h1), 0), spec);
    let mut sim: Sim<edp_netsim::Network> = Sim::new();
    start_replay(
        &mut sim,
        h0,
        Arc::new(parsed.packets),
        SimTime::ZERO,
        1.0,
        deadline,
    );
    sim.run_until(&mut net, deadline);
    assert_eq!(
        net.hosts[h1].stats.rx_pkts, n,
        "replay must deliver every frame"
    );
    rate(n, t0.elapsed())
}

/// Metrics gated by the CI regression check: the event-queue and LPM
/// rates the PR-1 fast-path work optimized, the sharded-engine dumbbell
/// throughput, the burst-mode forward rate (explicit burst of 32), and
/// the deterministic shard counts. The raw per-packet path metrics are
/// too machine-noise-prone at smoke scale to gate on.
const GATED_METRICS: [&str; 10] = [
    "events_schedule_fire_per_sec",
    "events_cancel_heavy_per_sec",
    "events_periodic_per_sec",
    "lookups_lpm_1k_per_sec",
    "sharded_dumbbell_pkts_per_sec",
    "switch_forward_burst_pkts_per_sec",
    "pcap_replay_pkts_per_sec",
    "shard_windows",
    "shard_barriers",
    "shard_cross_messages",
];

/// Gated metrics where *lower* is better — deterministic counts, not
/// throughput rates. For these the regression fraction is how far the
/// measurement rose above the baseline.
const LOWER_IS_BETTER: [&str; 3] = ["shard_windows", "shard_barriers", "shard_cross_messages"];

/// Scale for re-measuring a tripped gated metric: windows of tens to
/// hundreds of milliseconds, wide enough that CPU-frequency and
/// scheduler noise averages out instead of deciding the verdict.
const RETRY: Scale = Scale {
    events: 2_000_000,
    cancels: 1_000_000,
    periodic_ticks: 2_000_000,
    lookups: 20_000_000,
    pkts: 400_000,
};

/// Re-runs one gated metric's bench at scale `s`. `None` for metrics
/// that are not gated (nothing to re-measure).
fn bench_gated(name: &str, s: &Scale) -> Option<f64> {
    Some(match name {
        "events_schedule_fire_per_sec" => bench_events_schedule_fire(s.events),
        "events_cancel_heavy_per_sec" => bench_events_cancel_heavy(s.cancels),
        "events_periodic_per_sec" => bench_events_periodic(s.periodic_ticks),
        "lookups_lpm_1k_per_sec" => bench_lpm_lookup_1k(s.lookups / 10),
        "sharded_dumbbell_pkts_per_sec" => bench_sharded_dumbbell(s.pkts),
        "switch_forward_burst_pkts_per_sec" => bench_switch_pkts_at(s.pkts, 32),
        "pcap_replay_pkts_per_sec" => bench_pcap_replay(s.pkts),
        "shard_windows" => bench_shard_windows(),
        "shard_barriers" => bench_shard_barriers(),
        "shard_cross_messages" => bench_shard_cross_messages(),
        _ => return None,
    })
}

/// Pulls `"name": <number>` out of a flat snapshot JSON. Hand-rolled on
/// purpose: the workspace has no JSON parser dependency, and the
/// snapshot format is fixed (one `"key": value` pair per line).
fn extract_metric(json: &str, name: &str) -> Option<f64> {
    let needle = format!("\"{name}\"");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| {
            !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E' || c == '+')
        })
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Compares measured gated metrics against a baseline snapshot; returns
/// the regressions as `(name, measured, baseline, fraction)`.
fn check_regressions(
    metrics: &[(&str, f64)],
    baseline_json: &str,
    max_regress: f64,
) -> Vec<(String, f64, f64, f64)> {
    let mut bad = Vec::new();
    for name in GATED_METRICS {
        let Some(base) = extract_metric(baseline_json, name) else {
            eprintln!("warning: baseline has no metric `{name}`, skipping");
            continue;
        };
        let Some(&(_, got)) = metrics.iter().find(|(n, _)| *n == name) else {
            continue;
        };
        let frac = if LOWER_IS_BETTER.contains(&name) {
            got / base - 1.0
        } else {
            1.0 - got / base
        };
        if frac > max_regress {
            bad.push((name.to_string(), got, base, frac));
        }
    }
    bad
}

fn next_snapshot_path() -> String {
    for n in 1..10_000u32 {
        let p = format!("BENCH_{n}.json");
        if !std::path::Path::new(&p).exists() {
            return p;
        }
    }
    "BENCH_overflow.json".to_string()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut max_regress = 0.25;
    let mut it = args.iter();
    let usage = "usage: bench_snapshot [--smoke] [--out <path>] \
                 [--baseline <path>] [--max-regress <frac>]";
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => match it.next() {
                Some(p) => out = Some(p.clone()),
                None => {
                    eprintln!("error: --out requires a path");
                    std::process::exit(2);
                }
            },
            "--baseline" => match it.next() {
                Some(p) => baseline = Some(p.clone()),
                None => {
                    eprintln!("error: --baseline requires a path");
                    std::process::exit(2);
                }
            },
            "--max-regress" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v > 0.0 && v < 1.0 => max_regress = v,
                _ => {
                    eprintln!("error: --max-regress requires a fraction in (0, 1)");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("error: unknown argument `{other}`");
                eprintln!("{usage}");
                std::process::exit(2);
            }
        }
    }
    let s = if smoke { SMOKE } else { FULL };

    let mut metrics: Vec<(&str, f64)> = Vec::new();
    println!(
        "bench_snapshot ({} run)",
        if smoke { "smoke" } else { "full" }
    );

    let mut record = |name: &'static str, v: f64| {
        println!("  {name:<32} {v:>16.0} ops/s");
        metrics.push((name, v));
    };

    record(
        "events_schedule_fire_per_sec",
        bench_events_schedule_fire(s.events),
    );
    record(
        "events_cancel_heavy_per_sec",
        bench_events_cancel_heavy(s.cancels),
    );
    record(
        "events_periodic_per_sec",
        bench_events_periodic(s.periodic_ticks),
    );
    record("lookups_exact_10k_per_sec", bench_exact_lookup(s.lookups));
    record(
        "lookups_lpm_1k_per_sec",
        bench_lpm_lookup_1k(s.lookups / 10),
    );
    record(
        "lookups_ternary_128_per_sec",
        bench_ternary_lookup(s.lookups),
    );
    record(
        "switch_forward_pkts_per_sec",
        bench_switch_pkts_at(s.pkts, 1),
    );
    record(
        "switch_routed_1k_pkts_per_sec",
        bench_switch_routed_at(s.pkts, 1),
    );
    record("switch_flood_pkts_per_sec", bench_switch_flood(s.pkts / 4));
    record(
        "sharded_dumbbell_pkts_per_sec",
        bench_sharded_dumbbell(s.pkts),
    );
    record(
        "switch_forward_burst_pkts_per_sec",
        bench_switch_pkts_at(s.pkts, 32),
    );
    record(
        "switch_routed_burst_pkts_per_sec",
        bench_switch_routed_at(s.pkts, 32),
    );
    record("pcap_replay_pkts_per_sec", bench_pcap_replay(s.pkts));
    record("shard_windows", bench_shard_windows());
    record("shard_barriers", bench_shard_barriers());
    record("shard_cross_messages", bench_shard_cross_messages());

    let path = out.unwrap_or_else(next_snapshot_path);
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str("  \"metrics\": {\n");
    for (i, (name, v)) in metrics.iter().enumerate() {
        let comma = if i + 1 == metrics.len() { "" } else { "," };
        json.push_str(&format!("    \"{name}\": {v:.1}{comma}\n"));
    }
    json.push_str("  }\n}\n");
    std::fs::write(&path, json).expect("write snapshot");
    println!("wrote {path}");

    if let Some(base_path) = baseline {
        // Exit 3 (distinct from 1 = regression, 2 = usage) so CI logs show
        // at a glance whether the gate *failed* or never got to run.
        let base_json = match std::fs::read_to_string(&base_path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot read baseline snapshot `{base_path}`: {e}");
                eprintln!("hint: point --baseline at a committed BENCH_<n>.json");
                std::process::exit(3);
            }
        };
        if GATED_METRICS
            .iter()
            .all(|m| extract_metric(&base_json, m).is_none())
        {
            eprintln!(
                "error: baseline `{base_path}` is malformed: no gated metric \
                 ({}) found in it",
                GATED_METRICS.join(", ")
            );
            std::process::exit(3);
        }
        let mut bad = check_regressions(&metrics, &base_json, max_regress);
        if !bad.is_empty() {
            // A smoke sample is only milliseconds wide, so a loaded
            // machine can fake a >25% drop. Re-measure every tripped
            // metric with much wider windows ([`RETRY`] scale), best of
            // three, before believing the number — a real regression
            // reproduces, scheduler noise does not.
            for (name, got, _, _) in &bad {
                let lower = LOWER_IS_BETTER.contains(&name.as_str());
                let mut best: f64 = *got;
                for _ in 0..3 {
                    if let Some(v) = bench_gated(name, &RETRY) {
                        best = if lower { best.min(v) } else { best.max(v) };
                    }
                }
                println!("  re-measured {name}: best {best:.0} ops/s");
                if let Some(m) = metrics.iter_mut().find(|(n, _)| *n == name.as_str()) {
                    m.1 = best;
                }
            }
            bad = check_regressions(&metrics, &base_json, max_regress);
        }
        if bad.is_empty() {
            println!(
                "regression gate: all {} gated metrics within {:.0}% of {base_path}",
                GATED_METRICS.len(),
                max_regress * 100.0
            );
        } else {
            for (name, got, base, frac) in &bad {
                eprintln!(
                    "REGRESSION {name}: {got:.0} ops/s vs baseline {base:.0} \
                     ({:.1}% slower, limit {:.0}%)",
                    frac * 100.0,
                    max_regress * 100.0
                );
            }
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SNAPSHOT: &str = r#"{
  "smoke": true,
  "metrics": {
    "events_schedule_fire_per_sec": 6000000.0,
    "events_cancel_heavy_per_sec": 6000000.0,
    "events_periodic_per_sec": 50000000.0,
    "lookups_lpm_1k_per_sec": 36000000.0,
    "sharded_dumbbell_pkts_per_sec": 500000.0,
    "switch_forward_burst_pkts_per_sec": 8000000.0,
    "pcap_replay_pkts_per_sec": 400000.0,
    "shard_windows": 1000.0,
    "shard_barriers": 5000.0,
    "shard_cross_messages": 10000.0
  }
}"#;

    #[test]
    fn extracts_numbers_from_flat_json() {
        assert_eq!(
            extract_metric(SNAPSHOT, "events_periodic_per_sec"),
            Some(50_000_000.0)
        );
        assert_eq!(extract_metric(SNAPSHOT, "nope"), None);
    }

    #[test]
    fn flags_only_metrics_past_the_threshold() {
        // 30% down on one gated metric, others at parity.
        let measured: Vec<(&str, f64)> = vec![
            ("events_schedule_fire_per_sec", 6_000_000.0),
            ("events_cancel_heavy_per_sec", 6_000_000.0),
            ("events_periodic_per_sec", 35_000_000.0),
            ("lookups_lpm_1k_per_sec", 36_000_000.0),
        ];
        let bad = check_regressions(&measured, SNAPSHOT, 0.25);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].0, "events_periodic_per_sec");
        assert!((bad[0].3 - 0.30).abs() < 1e-9);
        // A 25%-exactly drop is within the (strict >) limit.
        let measured: Vec<(&str, f64)> = vec![("lookups_lpm_1k_per_sec", 27_000_000.0)];
        assert!(check_regressions(&measured, SNAPSHOT, 0.25).is_empty());
        // Improvements never trip the gate.
        let measured: Vec<(&str, f64)> = vec![("lookups_lpm_1k_per_sec", 90_000_000.0)];
        assert!(check_regressions(&measured, SNAPSHOT, 0.25).is_empty());
    }

    #[test]
    fn window_count_gates_in_the_lower_is_better_direction() {
        // shard_windows going *up* 50% is a regression...
        let measured: Vec<(&str, f64)> = vec![("shard_windows", 1_500.0)];
        let bad = check_regressions(&measured, SNAPSHOT, 0.25);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].0, "shard_windows");
        assert!((bad[0].3 - 0.50).abs() < 1e-9);
        // ...while dropping (better batching) never trips the gate.
        let measured: Vec<(&str, f64)> = vec![("shard_windows", 100.0)];
        assert!(check_regressions(&measured, SNAPSHOT, 0.25).is_empty());
        // Scattering the line across shards again multiplies crossings.
        let measured: Vec<(&str, f64)> = vec![("shard_cross_messages", 70_000.0)];
        assert_eq!(check_regressions(&measured, SNAPSHOT, 0.25).len(), 1);
    }

    #[test]
    fn every_gated_metric_can_be_remeasured() {
        let tiny = Scale {
            events: 64,
            cancels: 64,
            periodic_ticks: 64,
            lookups: 640,
            pkts: 16,
        };
        for name in GATED_METRICS {
            let v = bench_gated(name, &tiny);
            assert!(v.is_some_and(|v| v > 0.0), "{name} not re-measurable");
        }
        assert_eq!(bench_gated("switch_flood_pkts_per_sec", &tiny), None);
    }
}
