//! Conservative, rendezvous-free execution of sharded simulations.
//!
//! A sharded run partitions the world across worker threads, each owning a
//! [`Sim`] of its own. If every cross-shard interaction takes at least
//! `lookahead` of simulated time to arrive, a shard may fire every event
//! strictly before `min(peer progress) + lookahead` without ever receiving
//! a message that should have pre-empted it (conservative PDES).
//!
//! [`drive_windows`] runs that argument as one *frontier session* per run:
//! shards exchange through lock-free per-shard frontier atomics and
//! per-destination mailbox sequence counters, and the only barriers are
//! the negotiation that opens the run and the one that confirms
//! termination. The ordering keys carried by the messages (see
//! [`Sim::schedule_keyed_at`]) make the merged schedule byte-identical to
//! a single-threaded run.
//!
//! The rendezvous is poisonable: a worker that panics calls
//! [`WindowSync::poison`] before unwinding, which wakes every peer blocked
//! at a barrier (or spinning on a frontier) and makes it panic too — the
//! run fails loudly instead of deadlocking.

use crate::sim::Sim;
use crate::time::{SimDuration, SimTime};
use edp_telemetry::prof;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Sentinel for "no time" in the atomic negotiation slots.
const NONE_NS: u64 = u64::MAX;

/// A cache-line-padded atomic so per-shard frontier and sequence slots
/// never false-share under the spin-heavy exchange path.
#[repr(align(64))]
struct PaddedU64(AtomicU64);

impl PaddedU64 {
    fn new(v: u64) -> Self {
        PaddedU64(AtomicU64::new(v))
    }
}

/// Shared synchronization state for one sharded run: a reusable,
/// poisonable sense-reversing spin-then-park barrier, per-shard slots for
/// the earliest-pending-event negotiation, and the lock-free exchange
/// state (per-shard frontiers, per-destination inbox sequence counters,
/// and the shared traffic counter).
pub struct WindowSync {
    shards: usize,
    /// Threads currently arrived at the in-progress barrier.
    arrived: AtomicUsize,
    /// The barrier's sense ticket: bumped by the last arriver; waiters
    /// spin (then park) until it changes.
    generation: AtomicU64,
    /// Set by [`WindowSync::poison`]; every waiter panics on observing it.
    poisoned: AtomicBool,
    /// Per-shard earliest-pending-event slots for the negotiation.
    next: Vec<PaddedU64>,
    /// Per-shard execution frontiers (ns); monotone over the whole run.
    frontier: Vec<PaddedU64>,
    /// Per-destination publish sequence counters: bumped after a message
    /// lands in that destination's mailbox, so receivers drain only when
    /// something actually arrived.
    inbox_seq: Vec<PaddedU64>,
    /// Total publish marks so far, over every destination.
    traffic: AtomicU64,
    /// Parking fallback for oversubscribed hosts: waiters that exhaust
    /// the spin budget sleep here until the generation ticket moves.
    park: Mutex<()>,
    cv: Condvar,
}

impl WindowSync {
    /// Iterations of busy-spin before a barrier waiter starts yielding —
    /// sized for sub-microsecond rendezvous.
    const SPIN: u32 = 128;
    /// `yield_now` rounds after the spin budget, before parking on the
    /// condvar. Short: on an oversubscribed host the peer needs the CPU.
    const YIELDS: u32 = 64;

    /// Creates synchronization state for `shards` worker threads.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "a sharded run needs at least one shard");
        WindowSync {
            shards,
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            next: (0..shards).map(|_| PaddedU64::new(NONE_NS)).collect(),
            frontier: (0..shards).map(|_| PaddedU64::new(0)).collect(),
            inbox_seq: (0..shards).map(|_| PaddedU64::new(0)).collect(),
            traffic: AtomicU64::new(0),
            park: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Marks the run as failed and wakes every thread blocked at a
    /// barrier. Call from a worker that is about to unwind so its peers
    /// panic instead of waiting forever for a rendezvous it will never
    /// join.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        // Take and drop the park lock so a waiter between its generation
        // check and its condvar wait cannot miss the wake.
        drop(self.park.lock().unwrap_or_else(|e| e.into_inner()));
        self.cv.notify_all();
    }

    fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Panics once [`WindowSync::poison`] has been called, so a peer's
    /// panic fails every waiter loudly.
    fn check_poison(&self) {
        assert!(
            !self.is_poisoned(),
            "sharded run poisoned: a peer shard panicked"
        );
    }

    /// One rendezvous of the sense-reversing barrier: the last arriver
    /// releases the generation ticket and wakes parked waiters; everyone
    /// else spins on the ticket, yields a while, and finally parks.
    fn wait(&self) {
        self.check_poison();
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.shards {
            // Safe to reset before the ticket moves: peers leave on the
            // generation, not the arrival count, and cannot re-arrive
            // until the ticket releases them.
            self.arrived.store(0, Ordering::Release);
            self.generation
                .store(gen.wrapping_add(1), Ordering::Release);
            // Close the park race: a waiter either re-checks the ticket
            // under this lock before sleeping or is already waiting.
            drop(self.park.lock().unwrap_or_else(|e| e.into_inner()));
            self.cv.notify_all();
            return;
        }
        let mut rounds = 0u32;
        loop {
            if self.generation.load(Ordering::Acquire) != gen || self.is_poisoned() {
                break;
            }
            rounds += 1;
            if rounds <= Self::SPIN {
                std::hint::spin_loop();
            } else if rounds <= Self::SPIN + Self::YIELDS {
                std::thread::yield_now();
            } else {
                let mut g = self.park.lock().unwrap_or_else(|e| e.into_inner());
                while self.generation.load(Ordering::Acquire) == gen && !self.is_poisoned() {
                    g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
                }
                break;
            }
        }
        self.check_poison();
    }

    /// Publishes this shard's earliest pending event time and returns the
    /// global minimum over all shards. Every shard must call this the same
    /// number of times; all callers of one round return the same value.
    pub fn negotiate(&self, shard: usize, local_next: Option<SimTime>) -> Option<SimTime> {
        self.check_poison();
        let packed = local_next.map_or(NONE_NS, |t| t.as_nanos());
        self.next[shard].0.store(packed, Ordering::Release);
        self.wait();
        let global = self
            .next
            .iter()
            .map(|s| s.0.load(Ordering::Acquire))
            .min()
            .unwrap_or(NONE_NS);
        // Second rendezvous so no shard can overwrite its slot for the
        // next round while a peer is still reading this one.
        self.wait();
        (global != NONE_NS).then(|| SimTime::from_nanos(global))
    }

    /// Raises this shard's execution frontier (monotone): a promise that
    /// it will never again publish a message arriving before
    /// `ns + lookahead`. Store *after* the publishes it covers so a peer
    /// that reads the new frontier also sees their traffic bumps.
    pub fn set_frontier(&self, shard: usize, ns: u64) {
        self.frontier[shard].0.fetch_max(ns, Ordering::AcqRel);
    }

    /// Minimum frontier over the other shards — the receive-bound
    /// certificate: nothing can arrive here before `min + lookahead`.
    /// Read *before* the traffic counter so a drain never misses a
    /// message published under a frontier this call observed.
    pub fn peer_frontier_min(&self, me: usize) -> u64 {
        let mut m = u64::MAX;
        for (s, f) in self.frontier.iter().enumerate() {
            if s != me {
                m = m.min(f.0.load(Ordering::Acquire));
            }
        }
        m
    }

    /// Marks a publish to `dst`: bumps the destination's inbox sequence
    /// and the shared traffic counter. Call after the message is in the
    /// mailbox and before raising the frontier that covers it.
    pub fn mark_traffic(&self, dst: usize) {
        self.inbox_seq[dst].0.fetch_add(1, Ordering::AcqRel);
        self.traffic.fetch_add(1, Ordering::AcqRel);
    }

    /// Inbox sequence for `shard` — a drain is needed only when this has
    /// moved since the last one.
    pub fn inbox_seq(&self, shard: usize) -> u64 {
        self.inbox_seq[shard].0.load(Ordering::Acquire)
    }

    /// The shared traffic counter: total publish marks so far.
    pub fn traffic(&self) -> u64 {
        self.traffic.load(Ordering::Acquire)
    }
}

/// Counters returned by [`drive_windows`]; identical on every shard of a
/// run (each counted step is a pure function of group-agreed state).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriveStats {
    /// Frontier sessions executed: 1, or 0 when no shard had an event at
    /// or before the deadline.
    pub windows: u64,
    /// Barrier rendezvous joined: two per negotiation, so 4 for a run
    /// with work and 2 for one without. The session itself joins none.
    pub barriers: u64,
}

/// The exclusive execution bound for a shard whose peers have executed
/// up to `peer_next`: events strictly before the returned time are safe
/// to fire.
///
/// `lookahead` is the minimum simulated-time delay of any cross-shard
/// interaction; `None` means the shards cannot interact at all, so the
/// bound is the deadline cap. The bound is capped just past `deadline` so
/// an inclusive-deadline run (`t <= deadline`, matching [`Sim::run_until`])
/// never fires later events.
pub fn safe_horizon(
    peer_next: SimTime,
    lookahead: Option<SimDuration>,
    deadline: SimTime,
) -> SimTime {
    let cap = deadline.as_nanos().saturating_add(1);
    let h = match lookahead {
        Some(la) => peer_next.as_nanos().saturating_add(la.as_nanos()),
        None => cap,
    };
    SimTime::from_nanos(h.min(cap))
}

/// Runs one shard's event loop to `deadline` (inclusive, matching
/// [`Sim::run_until`]) through the lock-free frontier exchange.
///
/// `lookahead` is the minimum simulated-time delay of any cross-shard
/// interaction; `None` means the shards cannot interact (one shard, or no
/// cut link), and each runs straight to the deadline. `accept` schedules
/// messages handed over by peers into `sim`. `publish` moves outbound
/// messages into the shared mailboxes, calling
/// [`WindowSync::mark_traffic`] after each lands; its `SimTime` argument
/// is the promise every published arrival must meet (at or past it).
/// Both run on the shard's own thread. Returns [`DriveStats`], identical
/// on every shard.
///
/// # The frontier session
///
/// After an opening negotiation, each shard maintains an atomic frontier
/// `F` — a promise that it will never again publish a message arriving
/// before `F + lookahead` — and repeats, with no barrier:
///
/// 1. read the peers' frontiers; the receive bound is
///    `min(peer F) + lookahead` (nothing can arrive here before it);
/// 2. if the shared traffic counter moved, drain the inbox;
/// 3. fire everything strictly before the receive bound and publish;
/// 4. raise `F` to the receive bound.
///
/// A message published before its sender's frontier raise is visible to
/// any receiver that read the raised frontier (it reads the traffic
/// counter after the frontier); one published after it arrives at or past
/// the bound that receiver executes below. So no message lands below a
/// bound its receiver has executed past, and each shard fires exactly the
/// events, in the `(time, key, seq)` order, of a single world (DESIGN.md
/// §16 has the full sketch). The shard with the smallest frontier always
/// advances; the session ends when every frontier reached the deadline
/// cap and the traffic counter is quiet, and the closing negotiation
/// asserts that no event at or before the deadline was left behind.
#[allow(clippy::too_many_arguments)] // deliberate: the low-level engine entry point takes the full protocol
pub fn drive_windows<W>(
    world: &mut W,
    sim: &mut Sim<W>,
    shard: usize,
    sync: &WindowSync,
    lookahead: Option<SimDuration>,
    deadline: SimTime,
    mut accept: impl FnMut(&mut W, &mut Sim<W>),
    mut publish: impl FnMut(&mut W, &mut Sim<W>, SimTime),
) -> DriveStats {
    let mut stats = DriveStats::default();
    let global = sync.negotiate(shard, sim.peek_next());
    stats.barriers += 2;
    prof::lap(prof::Phase::Negotiate);
    if global.is_some_and(|t| t <= deadline) {
        stats.windows = 1;
        prof::window_begin();
        drive_frontier_session(
            world,
            sim,
            shard,
            sync,
            lookahead,
            deadline,
            &mut accept,
            &mut publish,
        );
        prof::window_end();
        let left = sync.negotiate(shard, sim.peek_next());
        stats.barriers += 2;
        prof::lap(prof::Phase::Negotiate);
        assert!(
            left.is_none_or(|t| t > deadline),
            "the frontier session left an event at {left:?}, at or before the deadline {deadline}"
        );
    }
    // Mirror run_until's clock semantics.
    sim.fast_forward(deadline);
    stats
}

/// The frontier session (see [`drive_windows`]): runs this shard to the
/// deadline through the lock-free frontier exchange, joining no barriers.
/// Returns once every shard's frontier has reached the cap and the traffic
/// counter has quiesced past this shard's last drain.
#[allow(clippy::too_many_arguments)]
fn drive_frontier_session<W>(
    world: &mut W,
    sim: &mut Sim<W>,
    shard: usize,
    sync: &WindowSync,
    lookahead: Option<SimDuration>,
    deadline: SimTime,
    accept: &mut impl FnMut(&mut W, &mut Sim<W>),
    publish: &mut impl FnMut(&mut W, &mut Sim<W>, SimTime),
) {
    // With no lookahead the first bound is already this cap.
    let cap = safe_horizon(deadline, None, deadline);
    // Stall ladder for waiting on a slow peer's frontier: tuned for
    // sub-microsecond rounds, with a sleep fallback so an oversubscribed
    // host is not starved by busy loops. There is no wake channel on the
    // frontier atomics, so the park is a timed backoff, not a condvar.
    const SPIN: u32 = 64;
    const YIELDS: u32 = 4096;
    // Force a drain on the first iteration: a peer already in its session
    // may have published before this shard got here.
    let mut seen_traffic: Option<u64> = None;
    // The exclusive bound this shard has executed to, which is also the
    // frontier value it last promised (both monotone).
    let mut exec_bound = SimTime::ZERO;
    let mut dirty = false;
    let mut stalls = 0u32;
    loop {
        // Order matters: read peer frontiers before the traffic counter,
        // so any message published under an observed frontier raise is
        // seen by the drain below.
        let peer = SimTime::from_nanos(sync.peer_frontier_min(shard));
        let bound = safe_horizon(peer, lookahead, deadline);
        let traffic_now = sync.traffic();
        if seen_traffic != Some(traffic_now) {
            seen_traffic = Some(traffic_now);
            prof::lap(prof::Phase::Poll);
            accept(world, sim);
            prof::lap(prof::Phase::Mailbox);
            dirty = true;
        }
        let progressed = bound > exec_bound || dirty;
        if progressed {
            prof::lap(prof::Phase::Poll);
            sim.run_before(world, bound);
            prof::lap(prof::Phase::Execute);
            // Everything just fired was at or past `exec_bound`, the
            // frontier last promised (drained arrivals included — they
            // postdate it), so published arrivals land at or past
            // `exec_bound + lookahead`.
            let promise = safe_horizon(exec_bound, lookahead, deadline);
            publish(world, sim, promise);
            prof::lap(prof::Phase::Mailbox);
            dirty = false;
            if bound > exec_bound {
                exec_bound = bound;
                // Raise the promise only after the publishes it must
                // cover are marked in the traffic counter.
                sync.set_frontier(shard, bound.as_nanos());
            }
        }
        if exec_bound >= cap
            && sync.peer_frontier_min(shard) >= cap.as_nanos()
            && Some(sync.traffic()) == seen_traffic
        {
            prof::lap(prof::Phase::Poll);
            break;
        }
        prof::lap(prof::Phase::Poll);
        if progressed {
            stalls = 0;
            continue;
        }
        sync.check_poison();
        stalls = stalls.saturating_add(1);
        if stalls <= SPIN {
            std::hint::spin_loop();
        } else if stalls <= SPIN + YIELDS {
            std::thread::yield_now();
        } else {
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
        prof::lap(prof::Phase::Barrier);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    #[test]
    fn horizon_is_lookahead_past_next_capped_at_deadline() {
        let d = SimTime::from_nanos(1000);
        let la = Some(SimDuration::from_nanos(50));
        assert_eq!(
            safe_horizon(SimTime::from_nanos(100), la, d),
            SimTime::from_nanos(150)
        );
        assert_eq!(
            safe_horizon(SimTime::from_nanos(990), la, d),
            SimTime::from_nanos(1001),
            "cap is one past the deadline so t == deadline still fires"
        );
        assert_eq!(
            safe_horizon(SimTime::from_nanos(u64::MAX), la, d),
            SimTime::from_nanos(1001),
            "a shard with no peers sees an unbounded frontier"
        );
        assert_eq!(
            safe_horizon(SimTime::ZERO, None, d),
            SimTime::from_nanos(1001)
        );
    }

    /// Runs the two-shard ping-pong and returns the per-shard fired-time
    /// logs plus the (identical-across-shards) drive stats.
    fn ping_pong() -> (Vec<u64>, Vec<u64>, DriveStats) {
        let lookahead = SimDuration::from_nanos(10);
        let deadline = SimTime::from_nanos(200);
        let sync = WindowSync::new(2);
        let mailbox: [StdMutex<Vec<SimTime>>; 2] =
            [StdMutex::new(Vec::new()), StdMutex::new(Vec::new())];
        let out: [StdMutex<(Vec<u64>, DriveStats)>; 2] = Default::default();

        std::thread::scope(|scope| {
            for me in 0..2usize {
                let sync = &sync;
                let mailbox = &mailbox;
                let out = &out;
                scope.spawn(move || {
                    // World = (outbox of arrival-times, fired-times log).
                    type World = (Vec<SimTime>, Vec<u64>);
                    let mut world: World = (Vec::new(), Vec::new());
                    let mut sim: Sim<World> = Sim::new();
                    if me == 0 {
                        // Shard 0 serves: every received ping fires a pong.
                        sim.schedule_at(SimTime::ZERO, |w: &mut World, s: &mut Sim<World>| {
                            w.1.push(s.now().as_nanos());
                            w.0.push(s.now() + SimDuration::from_nanos(10));
                        });
                    }
                    let stats = drive_windows(
                        &mut world,
                        &mut sim,
                        me,
                        sync,
                        Some(lookahead),
                        deadline,
                        |_w, s| {
                            let mut inbox = mailbox[me].lock().unwrap();
                            for at in inbox.drain(..) {
                                s.schedule_keyed_at(
                                    at,
                                    0,
                                    move |w: &mut World, s: &mut Sim<World>| {
                                        w.1.push(s.now().as_nanos());
                                        let reply = s.now() + SimDuration::from_nanos(10);
                                        if reply <= SimTime::from_nanos(100) {
                                            w.0.push(reply);
                                        }
                                    },
                                );
                            }
                        },
                        |w, _s, promise| {
                            if w.0.is_empty() {
                                return;
                            }
                            assert!(w.0.iter().all(|&at| at >= promise), "promise broken");
                            let peer = 1 - me;
                            mailbox[peer].lock().unwrap().append(&mut w.0);
                            sync.mark_traffic(peer);
                        },
                    );
                    *out[me].lock().unwrap() = (world.1, stats);
                });
            }
        });
        let [(l0, w0), (l1, w1)] = out.map(|m| m.into_inner().unwrap());
        assert_eq!(w0, w1, "drive stats must agree across shards");
        (l0, l1, w0)
    }

    #[test]
    fn two_shards_exchange_messages_deterministically() {
        // Shard 0 fired at 0, 20, 40, ... and shard 1 at 10, 30, ... until
        // the reply cutoff at t=100.
        let (l0, l1, _) = ping_pong();
        assert_eq!(l0, vec![0, 20, 40, 60, 80, 100]);
        assert_eq!(l1, vec![10, 30, 50, 70, 90]);
    }

    #[test]
    fn effects_frontier_joins_no_barriers_inside_the_session() {
        let (_, _, stats) = ping_pong();
        // Cross-shard effects are bounded by published frontiers alone:
        // the only barriers are the two of the opening negotiation and
        // the two of the closing one.
        assert_eq!((stats.windows, stats.barriers), (1, 4));
    }

    /// A chain on shard 0 that never publishes, run with and without a
    /// lookahead: both fire the whole chain in one session.
    fn silent_chain(lookahead: Option<SimDuration>) -> (Vec<u64>, DriveStats) {
        let sync = WindowSync::new(2);
        let out: StdMutex<(Vec<u64>, DriveStats)> = StdMutex::new(Default::default());
        std::thread::scope(|scope| {
            for me in 0..2usize {
                let sync = &sync;
                let out = &out;
                scope.spawn(move || {
                    let mut world: Vec<u64> = Vec::new();
                    let mut sim: Sim<Vec<u64>> = Sim::new();
                    if me == 0 {
                        fn tick(w: &mut Vec<u64>, s: &mut Sim<Vec<u64>>) {
                            w.push(s.now().as_nanos());
                            let next = s.now() + SimDuration::from_nanos(5);
                            if next <= SimTime::from_nanos(100) {
                                s.schedule_at(next, tick);
                            }
                        }
                        sim.schedule_at(SimTime::ZERO, tick);
                    }
                    let stats = drive_windows(
                        &mut world,
                        &mut sim,
                        me,
                        sync,
                        lookahead,
                        SimTime::from_nanos(100),
                        |_w, _s| {},
                        |_w, _s, _promise| {},
                    );
                    assert_eq!(sim.now(), SimTime::from_nanos(100));
                    if me == 0 {
                        *out.lock().unwrap() = (world, stats);
                    }
                });
            }
        });
        out.into_inner().unwrap()
    }

    #[test]
    fn silent_chain_runs_in_one_window() {
        let want: Vec<u64> = (0..=100).step_by(5).collect();
        for lookahead in [Some(SimDuration::from_nanos(10)), None] {
            let (log, stats) = silent_chain(lookahead);
            assert_eq!(
                log, want,
                "lookahead {lookahead:?}: the deadline is inclusive"
            );
            assert_eq!((stats.windows, stats.barriers), (1, 4));
        }
    }

    #[test]
    fn an_idle_run_skips_the_session() {
        let sync = WindowSync::new(1);
        let mut sim: Sim<()> = Sim::new();
        sim.schedule_at(SimTime::from_nanos(50), |_: &mut (), _: &mut _| {});
        let stats = drive_windows(
            &mut (),
            &mut sim,
            0,
            &sync,
            None,
            SimTime::from_nanos(10),
            |_w, _s| {},
            |_w, _s, _promise| {},
        );
        assert_eq!((stats.windows, stats.barriers), (0, 2));
        assert_eq!(sim.now(), SimTime::from_nanos(10));
        assert_eq!(sim.pending(), 1, "events past the deadline stay pending");
    }

    #[test]
    fn frontier_and_traffic_counters_are_monotone() {
        let sync = WindowSync::new(3);
        assert_eq!(sync.peer_frontier_min(0), 0);
        sync.set_frontier(1, 100);
        sync.set_frontier(2, 50);
        assert_eq!(sync.peer_frontier_min(0), 50);
        assert_eq!(sync.peer_frontier_min(2), 0, "own slot is excluded");
        sync.set_frontier(2, 20);
        assert_eq!(sync.peer_frontier_min(0), 50, "frontiers never retreat");
        let t0 = sync.traffic();
        let s0 = sync.inbox_seq(1);
        sync.mark_traffic(1);
        assert_eq!(sync.traffic(), t0 + 1);
        assert_eq!(sync.inbox_seq(1), s0 + 1);
        assert_eq!(sync.inbox_seq(0), 0, "other inboxes untouched");
    }

    #[test]
    fn poison_wakes_a_blocked_peer_and_panics_it() {
        let sync = std::sync::Arc::new(WindowSync::new(2));
        let peer = {
            let sync = std::sync::Arc::clone(&sync);
            std::thread::spawn(move || sync.negotiate(0, Some(SimTime::ZERO)))
        };
        // Give the peer time to park at the first rendezvous, then poison
        // instead of joining it.
        std::thread::sleep(std::time::Duration::from_millis(20));
        sync.poison();
        let out = peer.join();
        assert!(out.is_err(), "poisoned waiter must panic, not hang");
        // Later arrivals see the poison immediately.
        let late =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sync.negotiate(1, None)));
        assert!(late.is_err());
    }

    #[test]
    fn poison_stops_a_shard_spinning_on_a_frontier() {
        let sync = std::sync::Arc::new(WindowSync::new(2));
        let runner = {
            let sync = std::sync::Arc::clone(&sync);
            std::thread::spawn(move || {
                let mut sim: Sim<()> = Sim::new();
                sim.schedule_at(SimTime::ZERO, |_: &mut (), _: &mut _| {});
                drive_windows(
                    &mut (),
                    &mut sim,
                    0,
                    &sync,
                    Some(SimDuration::from_nanos(10)),
                    SimTime::from_nanos(1000),
                    |_w, _s| {},
                    |_w, _s, _promise| {},
                )
            })
        };
        // Join the opening negotiation, then die without ever raising a
        // frontier: the runner is left waiting on it inside the session.
        sync.negotiate(1, None);
        std::thread::sleep(std::time::Duration::from_millis(20));
        sync.poison();
        assert!(
            runner.join().is_err(),
            "frontier spin must observe the poison"
        );
    }
}
