//! The four named workloads: world builders and the loops that run reps.
//!
//! Every builder is a pure function of `(seed, traced)`. The seed picks
//! the traffic (ports, addresses, flow mix, routes, churn); the program
//! receives only the built world. `traced` wraps every switch and program
//! in the timing shims and changes nothing else.

use crate::shims::{ShimEvent, ShimPisa, ShimSwitch};
use crate::trace::{self, span, Layer};
use edp_apps::common::{dumbbell, sink_addr};
use edp_apps::microburst::MicroburstEvent;
use edp_core::{EventProgram, EventSwitch, EventSwitchConfig, TimerSpec};
use edp_evsim::{Periodic, Sim, SimDuration, SimRng, SimTime, Zipf};
use edp_netsim::traffic::start_cbr;
use edp_netsim::{Host, HostApp, LinkSpec, Network, NodeRef, ShardStats, SwitchHarness};
use edp_packet::PacketBuilder;
use edp_pisa::{BaselineSwitch, ForwardTo, PisaProgram, QueueConfig, TableRouter};
use edp_telemetry::prof;
use std::net::Ipv4Addr;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `h0 — 8×BaselineSwitch(ForwardTo) — h1`, one CBR stream.
    Line8,
    /// The `Line8` world through the sharded engine at 2 shards.
    Line8TwoShard,
    /// The `microburst` event app on the canonical 50 Mb/s dumbbell.
    MicroburstDumbbell,
    /// One `TableRouter` switch under a Zipf flow mix and route churn.
    RoutedChurn,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Line8,
        Workload::Line8TwoShard,
        Workload::MicroburstDumbbell,
        Workload::RoutedChurn,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Line8 => "line8",
            Workload::Line8TwoShard => "line8_2shard",
            Workload::MicroburstDumbbell => "microburst_dumbbell",
            Workload::RoutedChurn => "routed_churn",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Packets the workload's senders inject in one rep.
    pub fn sent(self) -> u64 {
        match self {
            Workload::Line8 | Workload::Line8TwoShard => LINE8_PKTS,
            Workload::MicroburstDumbbell => MB_PKTS,
            Workload::RoutedChurn => CHURN_SENDERS as u64 * CHURN_PKTS_PER_SENDER,
        }
    }

    /// Simulated deadline of one rep: past the last send plus enough
    /// time for every queue and wire to drain.
    pub fn deadline(self) -> SimTime {
        match self {
            Workload::Line8 | Workload::Line8TwoShard => {
                SimTime::from_nanos(LINE8_SPACING_NS * LINE8_PKTS + 1_000_000)
            }
            // 100 KB of queue drains through 50 Mb/s in 16 ms.
            Workload::MicroburstDumbbell => {
                SimTime::from_nanos(MB_SPACING_NS * MB_PKTS + 20_000_000)
            }
            Workload::RoutedChurn => {
                SimTime::from_nanos(CHURN_SPACING_NS * CHURN_PKTS_PER_SENDER + 1_000_000)
            }
        }
    }

    /// Builds the workload's world with its traffic armed. Timers stay
    /// unarmed: [`Workload::setup`] arms them, and the sharded engine arms
    /// them itself.
    pub fn build(self, seed: u64, traced: bool) -> (Network, Sim<Network>) {
        match self {
            Workload::Line8 | Workload::Line8TwoShard => line8(seed, traced),
            Workload::MicroburstDumbbell => microburst_dumbbell(seed, traced),
            Workload::RoutedChurn => routed_churn(seed, traced),
        }
    }

    /// Builds a single-world rep ready for its first `Sim::step`: the
    /// span that `setup_s` times.
    pub fn setup(self, seed: u64, traced: bool) -> (Network, Sim<Network>) {
        let (mut net, mut sim) = self.build(seed, traced);
        net.arm_all_timers(&mut sim);
        (net, sim)
    }
}

const LINE8_SWITCHES: usize = 8;
const LINE8_PKTS: u64 = 2_500;
const LINE8_SPACING_NS: u64 = 500;
const MB_PKTS: u64 = 50_000;
const MB_SPACING_NS: u64 = 10_000;
const CHURN_SENDERS: usize = 4;
const CHURN_SINKS: usize = 4;
const CHURN_PKTS_PER_SENDER: u64 = 12_500;
const CHURN_SPACING_NS: u64 = 1_000;
/// Flow population per sender, drawn Zipf(`CHURN_ZIPF_S`).
const CHURN_FLOWS: usize = 16_384;
const CHURN_ZIPF_S: f64 = 0.9;
/// Routes in the table at start (the default route included).
const CHURN_ROUTES: usize = 1_024;
const CHURN_INSERT_EVERY_NS: u64 = 4_000_000;

fn baseline<P: PisaProgram + 'static>(
    program: P,
    ports: usize,
    traced: bool,
) -> Box<dyn SwitchHarness> {
    let cfg = QueueConfig::default();
    if traced {
        Box::new(ShimSwitch(Box::new(BaselineSwitch::new(
            ShimPisa(program),
            ports,
            cfg,
        ))))
    } else {
        Box::new(BaselineSwitch::new(program, ports, cfg))
    }
}

fn event<P: EventProgram + 'static>(
    program: P,
    cfg: EventSwitchConfig,
    traced: bool,
) -> Box<dyn SwitchHarness> {
    if traced {
        Box::new(ShimSwitch(Box::new(EventSwitch::new(
            ShimEvent(program),
            cfg,
        ))))
    } else {
        Box::new(EventSwitch::new(program, cfg))
    }
}

/// Seeded UDP port pair for a single-stream workload.
fn seeded_ports(seed: u64) -> (u16, u16) {
    let mut rng = SimRng::seed_from_u64(seed);
    (
        rng.uniform_u64(1024, 65_535) as u16,
        rng.uniform_u64(1024, 65_535) as u16,
    )
}

fn line8(seed: u64, traced: bool) -> (Network, Sim<Network>) {
    let mut net = Network::new(seed);
    let switches: Vec<usize> = (0..LINE8_SWITCHES)
        .map(|_| net.add_switch(baseline(ForwardTo(1), 2, traced)))
        .collect();
    let src = Ipv4Addr::new(10, 0, 0, 1);
    let dst = Ipv4Addr::new(10, 0, 0, 2);
    let h0 = net.add_host(Host::new(src, HostApp::Sink));
    let h1 = net.add_host(Host::new(dst, HostApp::Sink));
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
        (NodeRef::Switch(switches[LINE8_SWITCHES - 1]), 1),
        (NodeRef::Host(h1), 0),
        edge,
    );
    let mut sim: Sim<Network> = Sim::new();
    let (sport, dport) = seeded_ports(seed);
    start_cbr(
        &mut sim,
        h0,
        SimTime::ZERO,
        SimDuration::from_nanos(LINE8_SPACING_NS),
        LINE8_PKTS,
        move |i| {
            PacketBuilder::udp(src, dst, sport, dport, &[])
                .ident(i as u16)
                .pad_to(256)
                .build()
        },
    );
    (net, sim)
}

fn microburst_dumbbell(seed: u64, traced: bool) -> (Network, Sim<Network>) {
    // The registry's `microburst` instance, on 4 ports with one 100 µs
    // periodic timer so the timer path is on the measured path too.
    let cfg = EventSwitchConfig {
        n_ports: 4,
        timers: vec![TimerSpec {
            id: 0,
            period: SimDuration::from_micros(100),
            start: SimDuration::from_micros(100),
        }],
        ..Default::default()
    };
    let sw = event(MicroburstEvent::new(64, 8_000, 1), cfg, traced);
    // One sender on port 0; the sink sits behind the 50 Mb/s bottleneck
    // on port 1, which ~190 Mb/s of CBR oversubscribes.
    let (net, senders, _sink, _) = dumbbell(sw, 1, 50_000_000, seed);
    let mut sim: Sim<Network> = Sim::new();
    let src = Ipv4Addr::new(10, 0, 0, 1);
    let (sport, dport) = seeded_ports(seed);
    start_cbr(
        &mut sim,
        senders[0],
        SimTime::ZERO,
        SimDuration::from_nanos(MB_SPACING_NS),
        MB_PKTS,
        move |i| {
            PacketBuilder::udp(src, sink_addr(), sport, dport, &[0u8; 200])
                .ident(i as u16)
                .build()
        },
    );
    (net, sim)
}

/// The Zipf sampler behind the churn flow mix: a constant of the
/// workload, built once per process.
fn churn_zipf() -> Arc<Zipf> {
    static ZIPF: OnceLock<Arc<Zipf>> = OnceLock::new();
    Arc::clone(ZIPF.get_or_init(|| Arc::new(Zipf::new(CHURN_FLOWS, CHURN_ZIPF_S))))
}

fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A route `[prefix, len, port, 0]` into 10/8, pointing at a sink port.
fn random_route(rng: &mut SimRng) -> [u64; 4] {
    let len = rng.uniform_u64(12, 25);
    let addr = (10u64 << 24) | rng.uniform_u64(0, 1 << 24);
    let prefix = addr & !((1u64 << (32 - len)) - 1) & 0xFFFF_FFFF;
    let port = CHURN_SENDERS as u64 + rng.uniform_u64(0, CHURN_SINKS as u64);
    [prefix, len, port, 0]
}

fn routed_churn(seed: u64, traced: bool) -> (Network, Sim<Network>) {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut router = TableRouter::new();
    let op = TableRouter::OP_INSERT_ROUTE;
    router.control_update(op, [0, 0, CHURN_SENDERS as u64, 0], SimTime::ZERO);
    for _ in 1..CHURN_ROUTES {
        router.control_update(op, random_route(&mut rng), SimTime::ZERO);
    }
    let mut net = Network::new(seed);
    let sw = net.add_switch(baseline(router, CHURN_SENDERS + CHURN_SINKS, traced));
    let edge = LinkSpec::ten_gig(SimDuration::from_micros(1));
    let senders: Vec<_> = (0..CHURN_SENDERS)
        .map(|i| {
            let h = net.add_host(Host::new(
                Ipv4Addr::new(192, 168, 0, i as u8 + 1),
                HostApp::Sink,
            ));
            net.connect((NodeRef::Host(h), 0), (NodeRef::Switch(sw), i as u8), edge);
            h
        })
        .collect();
    for j in 0..CHURN_SINKS {
        let h = net.add_host(Host::new(
            Ipv4Addr::new(192, 168, 1, j as u8 + 1),
            HostApp::Sink,
        ));
        let port = (CHURN_SENDERS + j) as u8;
        net.connect((NodeRef::Host(h), 0), (NodeRef::Switch(sw), port), edge);
    }
    let mut sim: Sim<Network> = Sim::new();
    for (i, &h) in senders.iter().enumerate() {
        let zipf = churn_zipf();
        let mut pick = SimRng::stream(seed, &[1, i as u64]);
        let src = Ipv4Addr::new(192, 168, 0, i as u8 + 1);
        let salt = mix64(seed ^ ((i as u64 + 1) << 40));
        // Stagger the senders so their frames interleave at the switch.
        let start = SimTime::from_nanos(i as u64 * CHURN_SPACING_NS / CHURN_SENDERS as u64);
        start_cbr(
            &mut sim,
            h,
            start,
            SimDuration::from_nanos(CHURN_SPACING_NS),
            CHURN_PKTS_PER_SENDER,
            move |_| {
                let flow = mix64(salt ^ zipf.sample(&mut pick) as u64);
                let dst = Ipv4Addr::from((10u32 << 24) | (flow as u32 & 0x00FF_FFFF));
                let sport = 1024 + (flow >> 32) as u16 % 60_000;
                PacketBuilder::udp(src, dst, sport, 443, &[])
                    .pad_to(128)
                    .build()
            },
        );
    }
    let mut churn = SimRng::stream(seed, &[2]);
    sim.schedule_periodic(
        SimTime::from_nanos(CHURN_INSERT_EVERY_NS),
        SimDuration::from_nanos(CHURN_INSERT_EVERY_NS),
        move |w: &mut Network, s: &mut Sim<Network>| {
            let route = random_route(&mut churn);
            w.control_plane_send(s, SimDuration::from_micros(1), sw, op, route);
            if s.now().as_nanos() + CHURN_INSERT_EVERY_NS < CHURN_SPACING_NS * CHURN_PKTS_PER_SENDER
            {
                Periodic::Continue
            } else {
                Periodic::Stop
            }
        },
    );
    (net, sim)
}

/// Runs a built single-world rep to the workload's deadline in chunks of
/// `chunk` steps, appending each chunk's host seconds to `times`. Fires
/// the same events as `Sim::run_until`.
pub fn run_chunked(
    net: &mut Network,
    sim: &mut Sim<Network>,
    deadline: SimTime,
    chunk: usize,
    times: &mut Vec<f64>,
) {
    loop {
        let t0 = Instant::now();
        let mut n = 0;
        while n < chunk && matches!(sim.peek_next(), Some(t) if t <= deadline) {
            sim.step(net);
            n += 1;
        }
        times.push(t0.elapsed().as_secs_f64());
        if n < chunk {
            break;
        }
    }
    sim.fast_forward(deadline);
}

/// Runs a rep to the deadline with a span around the drive loop and
/// around every step, so the step's self time is what the switch shims
/// inside it do not cover. Fires the same events as `Sim::run_until`.
pub fn run_traced(net: &mut Network, sim: &mut Sim<Network>, deadline: SimTime) {
    let _root = span(Layer::Loop);
    loop {
        let _s = span(Layer::Step);
        match sim.peek_next() {
            Some(t) if t <= deadline => {
                sim.step(net);
            }
            _ => break,
        }
    }
    sim.fast_forward(deadline);
}

/// Peaks observed by stepping a rep one event at a time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Peaks {
    /// Largest `Sim::pending` after any step.
    pub pending: usize,
    /// Largest total traffic-manager occupancy (bytes, all switches).
    pub queue_bytes: u64,
}

fn queue_bytes(net: &Network) -> u64 {
    let mut total = 0;
    for sw in &net.switches {
        let any = sw.as_any();
        let ports = sw.n_ports() as u8;
        total += if let Some(s) = any.downcast_ref::<BaselineSwitch<ForwardTo>>() {
            (0..ports).map(|p| s.occupancy_bytes(p)).sum::<u64>()
        } else if let Some(s) = any.downcast_ref::<BaselineSwitch<TableRouter>>() {
            (0..ports).map(|p| s.occupancy_bytes(p)).sum::<u64>()
        } else if let Some(s) = any.downcast_ref::<EventSwitch<MicroburstEvent>>() {
            (0..ports).map(|p| s.occupancy_bytes(p)).sum::<u64>()
        } else {
            panic!("queue sampling: unknown switch type")
        };
    }
    total
}

/// Runs a rep to the deadline one step at a time, recording pending-event
/// and queue peaks (an untimed counting rep: sampling costs more than a
/// step).
pub fn run_counting(net: &mut Network, sim: &mut Sim<Network>, deadline: SimTime) -> Peaks {
    let mut peaks = Peaks::default();
    while matches!(sim.peek_next(), Some(t) if t <= deadline) {
        sim.step(net);
        peaks.pending = peaks.pending.max(sim.pending());
        peaks.queue_bytes = peaks.queue_bytes.max(queue_bytes(net));
    }
    sim.fast_forward(deadline);
    peaks
}

/// What one shard hands back from a sharded rep.
pub struct ShardOut {
    /// The shard's finished world.
    pub net: Network,
    /// Events the shard fired.
    pub events: u64,
    /// The shard's span recorder (traced reps only).
    pub trace: Option<trace::Recorder>,
    /// The shard's wall-clock profile (traced reps only).
    pub prof: Option<prof::Profile>,
}

/// Shards `line8_2shard` runs at.
pub const SHARDS: usize = 2;

/// Runs `Line8TwoShard` through the sharded engine at its default
/// strategy. Traced reps record shim spans and `prof` phases per shard.
pub fn run_sharded_rep(seed: u64, traced: bool, span_cap: usize) -> (Vec<ShardOut>, ShardStats) {
    let epoch = Instant::now();
    edp_netsim::run_sharded(
        SHARDS,
        Workload::Line8TwoShard.deadline(),
        |shard| {
            if traced {
                prof::enable(epoch, shard, SHARDS);
                trace::start(epoch, span_cap);
            }
            Workload::Line8TwoShard.build(seed, traced)
        },
        |_shard, net, sim| ShardOut {
            net,
            events: sim.events_fired(),
            trace: trace::finish(),
            prof: prof::disable(),
        },
    )
}
