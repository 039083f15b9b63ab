//! Sharded parallel execution of a [`Network`] simulation.
//!
//! The engine runs the *same* build closure on every worker thread (SPMD):
//! each shard holds a full copy of the topology and the full event
//! schedule, but only executes the side effects of the nodes it owns —
//! [`Network::owns_node`] gates packet injection, switch processing,
//! timer cranks, and telemetry at fire time. Packets that cross a shard
//! boundary travel through per-`(src, dst)` mailboxes under the lock-free
//! frontier session (see [`edp_evsim::drive_windows`]), carrying a
//! wire-order key so the destination shard schedules them exactly where a
//! single-threaded run would have.
//!
//! # Partitioning rule
//!
//! [`ShardPlan::partition`] groups nodes with a union-find over the links
//! that cannot be cut:
//!
//! * **host links** — a host and its attached switch must co-shard, so
//!   end-to-end latency accounting and response frames never cross a
//!   mailbox;
//! * **zero-latency links** — the frontier argument needs every
//!   cross-shard hop to take at least the lookahead of simulated time; a
//!   zero-latency link would force a zero lookahead and serialize the
//!   run, so its endpoints are co-sharded instead.
//!
//! Each group is anchored at its smallest node index. The groups are then
//! ordered by a breadth-first walk over the cuttable links: a walk starts
//! at the smallest unvisited anchor and visits neighbours in anchor
//! order. That order is dealt in `nshards` contiguous blocks balanced by
//! node count: a group with `p` nodes before it in the order, out of `n`
//! nodes in all, goes to shard `p * nshards / n`. Neighbours in the walk
//! land on the same shard, so a line of switches is cut only at the
//! `nshards - 1` block boundaries. The plan is a pure function of the
//! topology, so every worker computes the identical plan. The lookahead
//! is the minimum latency over the links that ended up crossing shards
//! (`None` when none do: each shard then runs straight to the deadline).

use crate::net::{Endpoint, Network, NodeRef};
use crate::trace::Tracer;
use edp_evsim::{drive_windows, Sim, SimDuration, SimTime, WindowSync};
use edp_packet::Packet;
use edp_telemetry::prof;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A packet crossing from one shard to another, carrying everything the
/// destination shard needs to schedule the delivery exactly as the
/// single-shard run would have: the arrival instant, the wire-order key,
/// and the in-flight send-time record for latency accounting.
pub(crate) struct ShardMsg {
    pub(crate) at: SimTime,
    pub(crate) dest: Endpoint,
    pub(crate) pkt: Packet,
    pub(crate) send_time: Option<SimTime>,
    pub(crate) key: u64,
}

/// This shard's role in a sharded run: its id, the shared partition, and
/// the outbound frames awaiting the next publish.
pub(crate) struct ShardCtx {
    pub(crate) id: usize,
    pub(crate) plan: ShardPlan,
    pub(crate) outbox: Vec<ShardMsg>,
}

/// A static partition of a topology across shards. Pure function of the
/// topology: every worker thread computes the same plan independently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    nshards: usize,
    switch_owner: Vec<usize>,
    host_owner: Vec<usize>,
    lookahead: Option<SimDuration>,
}

impl ShardPlan {
    /// Partitions `net`'s topology into `nshards` shards (see the module
    /// docs for the rule).
    ///
    /// # Panics
    /// Panics when `nshards > 1` and any link sets the legacy
    /// [`LinkSpec::drop_prob`]: that path draws the shared workload RNG on
    /// the transmitting shard only, desynchronizing every other shard's
    /// copy. Use [`crate::LinkFaultModel::loss`] (per-link streams)
    /// instead.
    pub fn partition(net: &Network, nshards: usize) -> ShardPlan {
        assert!(nshards >= 1, "a plan needs at least one shard");
        let ns = net.switches.len();
        let nh = net.hosts.len();
        let n = ns + nh;
        let flat = |node: NodeRef| match node {
            NodeRef::Switch(i) => i,
            NodeRef::Host(h) => ns + h,
        };
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        let mut cuttable: Vec<(usize, usize)> = Vec::new();
        for (ends, spec) in net.topology_edges() {
            assert!(
                nshards == 1 || spec.drop_prob == 0.0,
                "LinkSpec::drop_prob is unsupported under sharded execution: it draws \
                 the shared workload RNG on one shard only; install a LinkFaultModel \
                 (per-link RNG streams) instead"
            );
            let (a, b) = (flat(ends[0].0), flat(ends[1].0));
            let host_edge = ends.iter().any(|e| matches!(e.0, NodeRef::Host(_)));
            if host_edge || spec.latency.is_zero() {
                let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                // Anchor every group at its smallest member so group
                // identity is independent of union order.
                let (lo, hi) = (ra.min(rb), ra.max(rb));
                parent[hi] = lo;
            } else {
                cuttable.push((a, b));
            }
        }
        let anchor: Vec<usize> = (0..n).map(|x| find(&mut parent, x)).collect();
        // Group sizes and group adjacency over the cuttable links, both
        // indexed by anchor; adjacency sorted so the walk is canonical.
        let mut size = vec![0usize; n];
        for &r in &anchor {
            size[r] += 1;
        }
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (a, b) in cuttable {
            let (ra, rb) = (anchor[a], anchor[b]);
            if ra != rb {
                adj[ra].push(rb);
                adj[rb].push(ra);
            }
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }
        // Breadth-first deal: each group's shard is fixed by the node
        // count dealt before it in the walk.
        let mut group_shard = vec![0usize; n];
        let mut seen = vec![false; n];
        let mut dealt = 0usize;
        let mut queue: VecDeque<usize> = VecDeque::new();
        for start in 0..n {
            if anchor[start] != start || seen[start] {
                continue;
            }
            seen[start] = true;
            queue.push_back(start);
            while let Some(g) = queue.pop_front() {
                group_shard[g] = dealt * nshards / n;
                dealt += size[g];
                for &next in &adj[g] {
                    if !seen[next] {
                        seen[next] = true;
                        queue.push_back(next);
                    }
                }
            }
        }
        let mut owner: Vec<usize> = anchor.iter().map(|&r| group_shard[r]).collect();
        let mut lookahead: Option<SimDuration> = None;
        for (ends, spec) in net.topology_edges() {
            if owner[flat(ends[0].0)] != owner[flat(ends[1].0)] {
                debug_assert!(!spec.latency.is_zero(), "zero-latency links are co-sharded");
                lookahead = Some(match lookahead {
                    None => spec.latency,
                    Some(cur) if spec.latency.as_nanos() < cur.as_nanos() => spec.latency,
                    Some(cur) => cur,
                });
            }
        }
        let host_owner = owner.split_off(ns);
        ShardPlan {
            nshards,
            switch_owner: owner,
            host_owner,
            lookahead,
        }
    }

    /// Number of shards the plan was built for.
    pub fn shards(&self) -> usize {
        self.nshards
    }

    /// The shard that owns `node`'s side effects.
    pub fn owner(&self, node: NodeRef) -> usize {
        match node {
            NodeRef::Switch(i) => self.switch_owner[i],
            NodeRef::Host(h) => self.host_owner[h],
        }
    }

    /// Minimum simulated latency of any cross-shard link; `None` when the
    /// partition cut no links (the shards cannot interact).
    pub fn lookahead(&self) -> Option<SimDuration> {
        self.lookahead
    }
}

/// Aggregate statistics of one sharded run. Every field is deterministic
/// for a given (topology, workload, shard count) — they are *not* part of
/// the simulation's observable schedule, which is shard-count-invariant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Frontier sessions executed (identical on every shard): 1, or 0
    /// when nothing was scheduled at or before the deadline.
    pub windows: u64,
    /// Barrier rendezvous joined per shard (identical on every shard):
    /// the opening and closing negotiations; see
    /// [`edp_evsim::DriveStats`].
    pub barriers: u64,
    /// Packets that crossed a shard boundary through the mailboxes.
    pub cross_messages: u64,
}

/// Runs a network simulation across `nshards` worker threads and returns
/// each shard's `finish` result (in shard order) plus run statistics.
///
/// `build` runs once per shard **on that shard's thread** and must
/// construct the identical topology and workload schedule regardless of
/// the shard id — the engine installs the shard role afterwards, then
/// arms switch timers (ownership-gated), so `build` must do neither.
/// `finish` runs after the deadline on the same thread and typically
/// extracts statistics, telemetry, or the whole [`Network`].
///
/// With `nshards == 1` this is the single-threaded reference schedule;
/// larger counts produce the byte-identical observable outcome.
pub fn run_sharded<T, B, F>(
    nshards: usize,
    deadline: SimTime,
    build: B,
    finish: F,
) -> (Vec<T>, ShardStats)
where
    T: Send,
    B: Fn(usize) -> (Network, Sim<Network>) + Sync,
    F: Fn(usize, Network, Sim<Network>) -> T + Sync,
{
    assert!(nshards >= 1, "run_sharded needs at least one shard");
    let sync = WindowSync::new(nshards);
    let mailboxes: Vec<Vec<Mutex<Vec<ShardMsg>>>> = (0..nshards)
        .map(|_| (0..nshards).map(|_| Mutex::new(Vec::new())).collect())
        .collect();
    let crossed = AtomicU64::new(0);
    let mut results: Vec<Option<(T, edp_evsim::DriveStats)>> = (0..nshards).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..nshards)
            .map(|me| {
                let sync = &sync;
                let mailboxes = &mailboxes;
                let crossed = &crossed;
                let build = &build;
                let finish = &finish;
                scope.spawn(move || {
                    let out = catch_unwind(AssertUnwindSafe(|| {
                        run_shard(
                            me, nshards, deadline, sync, mailboxes, crossed, build, finish,
                        )
                    }));
                    match out {
                        Ok(v) => v,
                        Err(p) => {
                            // Wake peers blocked at a barrier or spinning
                            // on a frontier so the run fails loudly
                            // instead of deadlocking.
                            sync.poison();
                            resume_unwind(p);
                        }
                    }
                })
            })
            .collect();
        for (me, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(v) => results[me] = Some(v),
                Err(p) => resume_unwind(p),
            }
        }
    });
    let mut drive = edp_evsim::DriveStats::default();
    let outs: Vec<T> = results
        .into_iter()
        .map(|r| {
            let (t, d) = r.expect("shard result");
            drive = d;
            t
        })
        .collect();
    (
        outs,
        ShardStats {
            windows: drive.windows,
            barriers: drive.barriers,
            cross_messages: crossed.load(Ordering::Relaxed),
        },
    )
}

#[allow(clippy::too_many_arguments)]
fn run_shard<T, B, F>(
    me: usize,
    nshards: usize,
    deadline: SimTime,
    sync: &WindowSync,
    mailboxes: &[Vec<Mutex<Vec<ShardMsg>>>],
    crossed: &AtomicU64,
    build: &B,
    finish: &F,
) -> (T, edp_evsim::DriveStats)
where
    B: Fn(usize) -> (Network, Sim<Network>) + Sync,
    F: Fn(usize, Network, Sim<Network>) -> T + Sync,
{
    let (mut net, mut sim) = build(me);
    let plan = ShardPlan::partition(&net, nshards);
    let lookahead = plan.lookahead();
    net.install_shard(me, plan);
    net.arm_all_timers(&mut sim);
    // Everything since prof::enable (world build, partition, timer
    // arming) is setup; the drive loop laps the rest.
    prof::lap(prof::Phase::Setup);
    // Reused per-destination staging rows so a publish's whole batch for
    // a peer costs one mailbox lock instead of one per message.
    let mut staged: Vec<Vec<ShardMsg>> = (0..nshards).map(|_| Vec::new()).collect();
    // Inbox sequence watermark: peers bump `inbox_seq(me)` after landing
    // a batch in this shard's mailbox, so a drain that would find nothing
    // skips all `nshards` row locks. Reading the watermark *before* the
    // drain keeps it conservative — a batch landing mid-drain is counted
    // under the next watermark and picked up by the next accept.
    let mut seen_seq: u64 = 0;
    let stats = drive_windows(
        &mut net,
        &mut sim,
        me,
        sync,
        lookahead,
        deadline,
        |net, sim| {
            let seq = sync.inbox_seq(me);
            if seq == seen_seq {
                return;
            }
            seen_seq = seq;
            for (src, row) in mailboxes.iter().enumerate() {
                let msgs: Vec<ShardMsg> = row[me]
                    .lock()
                    .expect("shard mailbox poisoned")
                    .drain(..)
                    .collect();
                if !msgs.is_empty() {
                    prof::flow_recv(src, msgs.len() as u64);
                }
                for m in msgs {
                    net.accept_shard_msg(sim, m);
                }
            }
        },
        |net, _sim, promise| {
            let out = net.take_outbox();
            if out.is_empty() {
                return;
            }
            crossed.fetch_add(out.len() as u64, Ordering::Relaxed);
            for (dst, msg) in out {
                // The frontier promise, checked at runtime: every arrival
                // published now lands at or past the bound this shard
                // promised its peers. A failure means a cross-shard hop
                // took less than the plan's lookahead.
                assert!(
                    msg.at >= promise,
                    "cross-shard arrival at {} precedes the frontier promise {promise}: \
                     a hop crossed shards faster than the lookahead",
                    msg.at
                );
                staged[dst].push(msg);
            }
            for (dst, batch) in staged.iter_mut().enumerate() {
                if !batch.is_empty() {
                    prof::flow_send(dst, batch.len() as u64);
                    mailboxes[me][dst]
                        .lock()
                        .expect("shard mailbox poisoned")
                        .append(batch);
                    // After the batch lands: bump the destination's inbox
                    // watermark (and the shared traffic counter) so its
                    // next accept knows a drain will find something.
                    sync.mark_traffic(dst);
                }
            }
        },
    );
    (finish(me, net, sim), stats)
}

/// Deterministically merges per-shard packet traces into one canonical
/// rendering: entries sorted by `(time, rendered line)`, with summed
/// footer accounting. The result is a pure function of the entry multiset
/// — which ownership gating makes shard-count-invariant — so the merged
/// text is byte-identical across shard counts (compare merged output on
/// *both* sides; a raw single-shard [`Tracer::render`] keeps insertion
/// order instead). Entries must not have been evicted: an eviction on any
/// shard shows up in the footer and breaks equality loudly.
pub fn merge_tracers(tracers: &[&Tracer]) -> String {
    let mut lines: Vec<(SimTime, String)> = Vec::new();
    let (mut len, mut dropped, mut capacity) = (0usize, 0u64, 0usize);
    for t in tracers {
        len += t.len();
        dropped += t.dropped();
        capacity = capacity.max(t.capacity());
        for e in t.entries() {
            lines.push((e.at, e.render()));
        }
    }
    lines.sort();
    let mut out = String::new();
    for (_, l) in &lines {
        out.push_str(l);
        out.push('\n');
    }
    out.push_str(&format!(
        "-- {len} entries, {dropped} dropped (capacity {capacity})\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{Host, HostApp, HostId};
    use crate::link::LinkSpec;
    use edp_packet::PacketBuilder;
    use edp_pisa::{BaselineSwitch, ForwardTo, QueueConfig};
    use std::net::Ipv4Addr;

    fn a(n: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, n)
    }

    fn forward_switch() -> Box<BaselineSwitch<ForwardTo>> {
        Box::new(BaselineSwitch::new(ForwardTo(1), 2, QueueConfig::default()))
    }

    /// h0 — sw0 — sw1 — … — sw(n-1) — h1: 1 us host links, 2 us trunks.
    fn switch_line(switches: usize, seed: u64) -> (Network, HostId, HostId) {
        let mut net = Network::new(seed);
        for _ in 0..switches {
            net.add_switch(forward_switch());
        }
        let h0 = net.add_host(Host::new(a(1), HostApp::Sink));
        let h1 = net.add_host(Host::new(a(2), HostApp::Sink));
        let edge = LinkSpec::ten_gig(SimDuration::from_micros(1));
        let trunk = LinkSpec::ten_gig(SimDuration::from_micros(2));
        net.connect((NodeRef::Host(h0), 0), (NodeRef::Switch(0), 0), edge);
        for i in 1..switches {
            net.connect((NodeRef::Switch(i - 1), 1), (NodeRef::Switch(i), 0), trunk);
        }
        net.connect(
            (NodeRef::Switch(switches - 1), 1),
            (NodeRef::Host(h1), 0),
            edge,
        );
        (net, h0, h1)
    }

    /// Links whose endpoints the plan put on different shards.
    fn cut_links(net: &Network, plan: &ShardPlan) -> usize {
        net.topology_edges()
            .filter(|(ends, _)| plan.owner(ends[0].0) != plan.owner(ends[1].0))
            .count()
    }

    #[test]
    fn partition_cosh_shards_hosts_and_cuts_the_trunk() {
        let (net, h0, h1) = switch_line(2, 1);
        let plan = ShardPlan::partition(&net, 2);
        assert_eq!(
            plan.owner(NodeRef::Host(h0)),
            plan.owner(NodeRef::Switch(0))
        );
        assert_eq!(
            plan.owner(NodeRef::Host(h1)),
            plan.owner(NodeRef::Switch(1))
        );
        assert_ne!(
            plan.owner(NodeRef::Switch(0)),
            plan.owner(NodeRef::Switch(1))
        );
        assert_eq!(plan.lookahead(), Some(SimDuration::from_micros(2)));
    }

    #[test]
    fn block_placement_cuts_one_trunk_per_block_boundary() {
        let (net, _, _) = switch_line(8, 1);
        for (shards, cuts) in [(1usize, 0usize), (2, 1), (4, 3)] {
            let plan = ShardPlan::partition(&net, shards);
            assert_eq!(cut_links(&net, &plan), cuts, "{shards} shards");
            // Blocks are contiguous runs of the line, in shard order.
            let owners: Vec<usize> = (0..8).map(|i| plan.owner(NodeRef::Switch(i))).collect();
            assert!(owners.windows(2).all(|w| w[0] <= w[1]), "{owners:?}");
            assert_eq!(owners[7], shards - 1, "every shard gets a block");
        }
    }

    #[test]
    fn block_placement_keeps_hosts_with_their_switch() {
        let (net, h0, h1) = switch_line(8, 1);
        for shards in [2usize, 3, 4, 8] {
            let plan = ShardPlan::partition(&net, shards);
            assert_eq!(
                plan.owner(NodeRef::Host(h0)),
                plan.owner(NodeRef::Switch(0))
            );
            assert_eq!(
                plan.owner(NodeRef::Host(h1)),
                plan.owner(NodeRef::Switch(7))
            );
        }
    }

    #[test]
    fn block_placement_is_a_pure_function_of_the_topology() {
        for shards in [1usize, 2, 3, 4] {
            let (one, _, _) = switch_line(8, 1);
            let (two, _, _) = switch_line(8, 99);
            assert_eq!(
                ShardPlan::partition(&one, shards),
                ShardPlan::partition(&two, shards)
            );
        }
    }

    /// A ring of six switches where switch `i` carries `i % 3` hosts, so
    /// the uncuttable groups have sizes 1, 2 and 3.
    fn lumpy_ring() -> Network {
        let mut net = Network::new(1);
        for i in 0..6 {
            net.add_switch(Box::new(BaselineSwitch::new(
                ForwardTo(1),
                2 + i % 3,
                QueueConfig::default(),
            )));
        }
        let trunk = LinkSpec::ten_gig(SimDuration::from_micros(2));
        for i in 0..6 {
            net.connect(
                (NodeRef::Switch(i), 0),
                (NodeRef::Switch((i + 1) % 6), 1),
                trunk,
            );
        }
        let edge = LinkSpec::ten_gig(SimDuration::from_micros(1));
        let mut ip = 1u8;
        for i in 0..6 {
            for port in 0..i % 3 {
                let h = net.add_host(Host::new(a(ip), HostApp::Sink));
                ip += 1;
                net.connect(
                    (NodeRef::Host(h), 0),
                    (NodeRef::Switch(i), 2 + port as u8),
                    edge,
                );
            }
        }
        net
    }

    #[test]
    fn block_placement_balances_node_counts_within_one_group() {
        let ring = lumpy_ring();
        let (line, _, _) = switch_line(8, 1);
        for (net, biggest) in [(&ring, 3usize), (&line, 2)] {
            for shards in [2usize, 3, 4] {
                let plan = ShardPlan::partition(net, shards);
                let mut count = vec![0usize; shards];
                for i in 0..net.switches.len() {
                    count[plan.owner(NodeRef::Switch(i))] += 1;
                }
                for h in 0..net.hosts.len() {
                    count[plan.owner(NodeRef::Host(h))] += 1;
                }
                let (lo, hi) = (count.iter().min().unwrap(), count.iter().max().unwrap());
                assert!(hi - lo <= biggest, "{shards} shards: {count:?}");
            }
        }
    }

    #[test]
    fn zero_latency_links_force_co_sharding() {
        let mut net = Network::new(1);
        let s0 = net.add_switch(forward_switch());
        let s1 = net.add_switch(forward_switch());
        net.connect(
            (NodeRef::Switch(s0), 1),
            (NodeRef::Switch(s1), 0),
            LinkSpec::ten_gig(SimDuration::ZERO),
        );
        let plan = ShardPlan::partition(&net, 2);
        assert_eq!(
            plan.owner(NodeRef::Switch(s0)),
            plan.owner(NodeRef::Switch(s1))
        );
        assert_eq!(plan.lookahead(), None, "nothing left to cut");
    }

    #[test]
    #[should_panic(expected = "drop_prob is unsupported")]
    fn legacy_drop_prob_rejected_under_sharding() {
        let mut net = Network::new(1);
        let h0 = net.add_host(Host::new(a(1), HostApp::Sink));
        let h1 = net.add_host(Host::new(a(2), HostApp::Sink));
        let mut spec = LinkSpec::ten_gig(SimDuration::from_micros(1));
        spec.drop_prob = 0.5;
        net.connect((NodeRef::Host(h0), 0), (NodeRef::Host(h1), 0), spec);
        let _ = ShardPlan::partition(&net, 2);
    }

    /// Runs the two-switch line under `shards` workers and folds the
    /// observables: (delivered count, flow latency means, merged trace).
    fn run_line(shards: usize) -> (u64, String, String, ShardStats) {
        let (nets, stats) = run_sharded(
            shards,
            SimTime::from_millis(1),
            |_me| {
                let (mut net, h0, _h1) = switch_line(2, 11);
                net.tracer.enabled = true;
                let mut sim: Sim<Network> = Sim::new();
                for i in 0..20u16 {
                    sim.schedule_at(
                        SimTime::from_micros(i as u64 * 5),
                        move |w: &mut Network, s: &mut Sim<Network>| {
                            let f = PacketBuilder::udp(a(1), a(2), 5, 6, &[])
                                .ident(i)
                                .pad_to(500)
                                .build();
                            w.host_send(s, h0, f);
                        },
                    );
                }
                (net, sim)
            },
            |_me, net, _sim| net,
        );
        let rx: u64 = nets.iter().map(|n| n.hosts[1].stats.rx_pkts).sum();
        let means: String = nets
            .iter()
            .filter_map(|n| n.hosts[1].stats.flows.values().next())
            .map(|f| format!("{:.3}", f.latency_ns.mean()))
            .collect::<Vec<_>>()
            .join(",");
        let tracers: Vec<&Tracer> = nets.iter().map(|n| &n.tracer).collect();
        (rx, means, merge_tracers(&tracers), stats)
    }

    #[test]
    fn sharded_line_matches_single_shard_byte_for_byte() {
        let (rx1, means1, trace1, stats1) = run_line(1);
        let (rx2, means2, trace2, stats2) = run_line(2);
        assert_eq!(rx1, 20);
        assert_eq!(rx1, rx2);
        assert_eq!(means1, means2, "end-to-end latency survives the crossing");
        assert_eq!(trace1, trace2, "merged traces byte-identical");
        assert_eq!(stats1.cross_messages, 0, "one shard crosses nothing");
        assert_eq!(
            stats2.cross_messages, 20,
            "every frame crosses the one cut trunk"
        );
        assert_eq!((stats2.windows, stats2.barriers), (1, 4));
    }

    /// h0 — ev0 — ev1 — h1: two event switches with a silent 10 us
    /// periodic timer each, forwarding toward h1.
    fn timer_line() -> (Network, HostId) {
        use edp_core::{BaselineAdapter, EventSwitch, EventSwitchConfig, TimerSpec};
        let mut net = Network::new(3);
        for _ in 0..2 {
            let cfg = EventSwitchConfig {
                n_ports: 2,
                timers: vec![TimerSpec {
                    id: 0,
                    period: SimDuration::from_micros(10),
                    start: SimDuration::from_micros(10),
                }],
                ..Default::default()
            };
            net.add_switch(Box::new(EventSwitch::new(
                BaselineAdapter(ForwardTo(1)),
                cfg,
            )));
        }
        let h0 = net.add_host(Host::new(a(1), HostApp::Sink));
        let h1 = net.add_host(Host::new(a(2), HostApp::Sink));
        let edge = LinkSpec::ten_gig(SimDuration::from_micros(1));
        let trunk = LinkSpec::ten_gig(SimDuration::from_micros(2));
        net.connect((NodeRef::Host(h0), 0), (NodeRef::Switch(0), 0), edge);
        net.connect((NodeRef::Switch(0), 1), (NodeRef::Switch(1), 0), trunk);
        net.connect((NodeRef::Switch(1), 1), (NodeRef::Host(h1), 0), edge);
        (net, h0)
    }

    fn run_timer_line(shards: usize) -> (u64, String, ShardStats) {
        let (nets, stats) = run_sharded(
            shards,
            SimTime::from_millis(1),
            |_me| {
                let (mut net, h0) = timer_line();
                net.tracer.enabled = true;
                let mut sim: Sim<Network> = Sim::new();
                for i in 0..5u16 {
                    sim.schedule_at(
                        SimTime::from_micros(i as u64 * 7),
                        move |w: &mut Network, s: &mut Sim<Network>| {
                            let f = PacketBuilder::udp(a(1), a(2), 5, 6, &[])
                                .ident(i)
                                .pad_to(500)
                                .build();
                            w.host_send(s, h0, f);
                        },
                    );
                }
                (net, sim)
            },
            |_me, net, _sim| net,
        );
        let rx: u64 = nets.iter().map(|n| n.hosts[1].stats.rx_pkts).sum();
        let tracers: Vec<&Tracer> = nets.iter().map(|n| &n.tracer).collect();
        (rx, merge_tracers(&tracers), stats)
    }

    /// The timer line is traffic-free after its five packets drain (~35
    /// us of a 1 ms run), but its timers tick every 10 us on both
    /// shards. The app's static effect summary certifies the timers
    /// local; the frontier session runs them all without a rendezvous.
    #[test]
    fn certified_timers_collapse_barriers_without_changing_the_schedule() {
        use edp_core::{AppManifest, EffectSummary, EmitFootprint, EventKind};
        let manifest = AppManifest::new("silent-timer")
            .handles([EventKind::IngressPacket, EventKind::TimerExpiration])
            .emits(EventKind::IngressPacket, EmitFootprint::Any);
        assert!(EffectSummary::from_manifest(&manifest).timer_local());
        let (rx_1, trace_1, _) = run_timer_line(1);
        let (rx_2, trace_2, stats_2) = run_timer_line(2);
        assert_eq!(rx_1, 5);
        assert_eq!(rx_2, rx_1);
        assert_eq!(trace_2, trace_1, "sharding must not change the schedule");
        assert_eq!((stats_2.windows, stats_2.barriers), (1, 4));
    }

    /// A command sent before the deadline but delivered after it counts
    /// once, as sent, at every shard count.
    #[test]
    fn cp_messages_count_at_send_for_any_shard_count() {
        let deadline = SimTime::from_millis(1);
        let count = |shards: usize| {
            let (nets, _) = run_sharded(
                shards,
                deadline,
                |_me| {
                    let (net, _, _) = switch_line(2, 5);
                    let mut sim: Sim<Network> = Sim::new();
                    for (at_us, sw) in [(100u64, 0usize), (900, 1), (950, 0)] {
                        sim.schedule_at(
                            SimTime::from_micros(at_us),
                            move |w: &mut Network, s: &mut Sim<Network>| {
                                // The last two land past the deadline.
                                w.control_plane_send(
                                    s,
                                    SimDuration::from_micros(200),
                                    sw,
                                    0,
                                    [0; 4],
                                );
                            },
                        );
                    }
                    (net, sim)
                },
                |_me, net, _sim| net.cp_messages,
            );
            nets.iter().sum::<u64>()
        };
        assert_eq!(count(1), 3);
        assert_eq!(count(2), 3);
        assert_eq!(count(4), 3);
    }
}
