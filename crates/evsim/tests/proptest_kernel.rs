//! Property-based tests for the simulation kernel's core invariants.

use edp_evsim::{Histogram, Sim, SimDuration, SimTime, TimerWheel, Welford};
use proptest::prelude::*;

proptest! {
    /// Events always fire in non-decreasing time order, regardless of the
    /// order they were scheduled in.
    #[test]
    fn events_fire_in_time_order(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut sim: Sim<Vec<u64>> = Sim::new();
        for &t in &times {
            sim.schedule_at(SimTime::from_nanos(t), move |w: &mut Vec<u64>, _: &mut _| {
                w.push(t)
            });
        }
        let mut fired = Vec::new();
        sim.run(&mut fired);
        prop_assert_eq!(fired.len(), times.len());
        let mut sorted = times.clone();
        sorted.sort_unstable();
        prop_assert_eq!(fired, sorted);
    }

    /// Same-instant events fire in scheduling (FIFO) order.
    #[test]
    fn same_time_fifo(n in 1usize..100, t in 0u64..1000) {
        let mut sim: Sim<Vec<usize>> = Sim::new();
        for i in 0..n {
            sim.schedule_at(SimTime::from_nanos(t), move |w: &mut Vec<usize>, _: &mut _| {
                w.push(i)
            });
        }
        let mut fired = Vec::new();
        sim.run(&mut fired);
        prop_assert_eq!(fired, (0..n).collect::<Vec<_>>());
    }

    /// Cancelling an arbitrary subset prevents exactly that subset.
    #[test]
    fn cancellation_is_exact(
        times in prop::collection::vec(0u64..10_000, 1..100),
        cancel_mask in prop::collection::vec(any::<bool>(), 100),
    ) {
        let mut sim: Sim<Vec<usize>> = Sim::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                sim.schedule_at(SimTime::from_nanos(t), move |w: &mut Vec<usize>, _: &mut _| {
                    w.push(i)
                })
            })
            .collect();
        let mut expect: Vec<usize> = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            if cancel_mask[i % cancel_mask.len()] {
                sim.cancel(*id);
            } else {
                expect.push(i);
            }
        }
        let mut fired = Vec::new();
        sim.run(&mut fired);
        fired.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(fired, expect);
    }

    /// run_until never fires events beyond the deadline and always leaves
    /// `now == deadline` when it had events left.
    #[test]
    fn run_until_respects_deadline(
        times in prop::collection::vec(1u64..100_000, 1..100),
        deadline in 1u64..100_000,
    ) {
        let mut sim: Sim<Vec<u64>> = Sim::new();
        for &t in &times {
            sim.schedule_at(SimTime::from_nanos(t), move |w: &mut Vec<u64>, _: &mut _| {
                w.push(t)
            });
        }
        let mut fired = Vec::new();
        sim.run_until(&mut fired, SimTime::from_nanos(deadline));
        prop_assert!(fired.iter().all(|&t| t <= deadline));
        prop_assert_eq!(sim.now(), SimTime::from_nanos(deadline));
        prop_assert_eq!(
            fired.len(),
            times.iter().filter(|&&t| t <= deadline).count()
        );
    }

    /// The timer wheel fires every timer after exactly its delay.
    #[test]
    fn wheel_exact_delays(
        slots in 1usize..64,
        delays in prop::collection::vec(1u64..500, 1..50),
    ) {
        let mut wheel = TimerWheel::new(slots);
        for (i, &d) in delays.iter().enumerate() {
            wheel.arm(d, (i, d));
        }
        let max = *delays.iter().max().unwrap();
        let fired = wheel.advance(max);
        prop_assert_eq!(fired.len(), delays.len());
        for (tick, (_i, d)) in fired {
            prop_assert_eq!(tick, d, "timer armed for {} fired at {}", d, tick);
        }
        prop_assert_eq!(wheel.armed(), 0);
    }

    /// Histogram quantiles are monotone in q and bracket the data.
    #[test]
    fn histogram_quantiles_monotone(values in prop::collection::vec(0u64..1_000_000_000, 1..300)) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let min = *values.iter().min().unwrap();
        let max = *values.iter().max().unwrap();
        let mut prev = 0;
        for i in 0..=10 {
            let q = h.quantile(i as f64 / 10.0);
            prop_assert!(q >= prev, "quantiles must be monotone");
            prev = q;
        }
        prop_assert!(h.quantile(1.0) <= max);
        // Bucket resolution bound: p0 can undershoot min by ≤ ~6%.
        prop_assert!(h.quantile(0.0) as f64 >= min as f64 * 0.93 - 1.0);
        prop_assert_eq!(h.max(), max);
    }

    /// Welford's mean matches the naive mean.
    #[test]
    fn welford_mean_matches_naive(values in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut w = Welford::new();
        for &v in &values {
            w.add(v);
        }
        let naive = values.iter().sum::<f64>() / values.len() as f64;
        prop_assert!((w.mean() - naive).abs() < 1e-6 * (1.0 + naive.abs()));
    }

    /// Duration arithmetic round-trips through serialization-delay math.
    #[test]
    fn serialization_delay_bounds(bytes in 1u64..100_000, rate in 1_000u64..100_000_000_000) {
        let d = SimDuration::for_bytes_at_rate(bytes, rate);
        let exact_ns = bytes as f64 * 8.0 * 1e9 / rate as f64;
        // Rounds up, never by more than 1 ns.
        prop_assert!(d.as_nanos() as f64 >= exact_ns - 1e-6);
        prop_assert!((d.as_nanos() as f64) < exact_ns + 1.0);
    }
}

// ---------------------------------------------------------------------
// Firing order against a reference model
// ---------------------------------------------------------------------

use edp_evsim::{EventId, Periodic, UNKEYED};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::rc::Rc;

/// A scripted one-shot event: when it fires it logs its tag, arms its
/// children `delay` after the current instant, and may cancel one
/// top-level event.
#[derive(Debug, Clone)]
struct Ev {
    tag: u32,
    delay: u64,
    key: Option<u64>,
    cancel: Option<usize>,
    children: Vec<Ev>,
}

/// A top-level item armed before the run starts.
#[derive(Debug, Clone)]
enum Top {
    Once(Ev),
    /// Ticks `ticks` times every `period` from `start`, arming `child`
    /// (if any) on every tick.
    Periodic {
        tag: u32,
        start: u64,
        period: u64,
        ticks: u32,
        child: Option<Ev>,
    },
}

/// One driver call between comparisons.
#[derive(Debug, Clone, Copy)]
enum Drive {
    Step,
    RunBefore(u64),
    RunUntil(u64),
}

/// Log tag for a cancel's return value, beside the event tags.
const CANCEL_TRUE: u32 = u32::MAX;
const CANCEL_FALSE: u32 = u32::MAX - 1;

#[derive(Default)]
struct SimWorld {
    log: Vec<(u64, u32)>,
    ids: Vec<Option<EventId>>,
}

fn sim_arm(s: &mut Sim<SimWorld>, ev: Rc<Ev>) -> EventId {
    let at = s.now() + SimDuration::from_nanos(ev.delay);
    let key = ev.key.unwrap_or(UNKEYED);
    s.schedule_keyed_at(at, key, move |w: &mut SimWorld, s: &mut Sim<SimWorld>| {
        sim_fire(w, s, &ev)
    })
}

fn sim_fire(w: &mut SimWorld, s: &mut Sim<SimWorld>, ev: &Ev) {
    let now = s.now().as_nanos();
    w.log.push((now, ev.tag));
    for c in &ev.children {
        sim_arm(s, Rc::new(c.clone()));
    }
    if let Some(i) = ev.cancel {
        let ok = w.ids[i % w.ids.len()].is_some_and(|id| s.cancel(id));
        w.log
            .push((now, if ok { CANCEL_TRUE } else { CANCEL_FALSE }));
    }
}

/// What a model entry does when it fires.
#[derive(Clone)]
enum Action {
    Once(Ev),
    Tick {
        tag: u32,
        period: u64,
        left: u32,
        child: Option<Ev>,
    },
}

/// The reference: a plain `BinaryHeap<Reverse<(time, key, seq)>>` with
/// lazily reclaimed cancels, mirroring `Sim`'s documented semantics.
#[derive(Default)]
struct Model {
    now: u64,
    heap: BinaryHeap<Reverse<(u64, u64, u64)>>,
    /// seq -> (action, cancelled)
    entries: HashMap<u64, (Action, bool)>,
    next_seq: u64,
    live: usize,
    ids: Vec<Option<u64>>,
    log: Vec<(u64, u32)>,
}

impl Model {
    fn arm(&mut self, at: u64, key: u64, action: Action) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((at, key, seq)));
        self.entries.insert(seq, (action, false));
        self.live += 1;
        seq
    }

    fn arm_ev(&mut self, ev: &Ev) -> u64 {
        let at = self.now + ev.delay;
        self.arm(at, ev.key.unwrap_or(UNKEYED), Action::Once(ev.clone()))
    }

    fn cancel(&mut self, seq: u64) -> bool {
        match self.entries.get_mut(&seq) {
            Some(e) if !e.1 => {
                e.1 = true;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    fn next_time(&self) -> Option<u64> {
        self.heap
            .iter()
            .filter(|Reverse((_, _, seq))| !self.entries[seq].1)
            .map(|Reverse((t, _, _))| *t)
            .min()
    }

    fn step(&mut self) -> bool {
        while let Some(Reverse((t, _, seq))) = self.heap.pop() {
            let (action, cancelled) = self.entries.remove(&seq).expect("entry");
            if cancelled {
                continue;
            }
            self.live -= 1;
            self.now = t;
            match action {
                Action::Once(ev) => {
                    self.log.push((t, ev.tag));
                    for c in &ev.children {
                        self.arm_ev(c);
                    }
                    if let Some(i) = ev.cancel {
                        let target = self.ids[i % self.ids.len()];
                        let ok = target.is_some_and(|s| self.cancel(s));
                        self.log
                            .push((t, if ok { CANCEL_TRUE } else { CANCEL_FALSE }));
                    }
                }
                Action::Tick {
                    tag,
                    period,
                    left,
                    child,
                } => {
                    self.log.push((t, tag));
                    if let Some(c) = &child {
                        self.arm_ev(c);
                    }
                    if left > 1 {
                        let next = Action::Tick {
                            tag,
                            period,
                            left: left - 1,
                            child,
                        };
                        self.arm(t + period, UNKEYED, next);
                    }
                }
            }
            return true;
        }
        false
    }
}

/// Everything observable about `sim` equals the reference's view.
fn check_against_model(sim: &mut Sim<SimWorld>, world: &SimWorld, model: &Model) {
    assert_eq!(world.log, model.log);
    assert_eq!(sim.now().as_nanos(), model.now);
    assert_eq!(sim.pending(), model.live);
    let fired = model.log.iter().filter(|(_, t)| *t < CANCEL_FALSE).count();
    assert_eq!(sim.events_fired() as usize, fired);
    assert_eq!(sim.peek_next().map(|t| t.as_nanos()), model.next_time());
}

fn leaf_ev() -> impl Strategy<Value = Ev> {
    (
        any::<u16>(),
        // About 60% of the mix is zero-delay (same-instant) events.
        (0u64..100).prop_map(|d| d.saturating_sub(60)),
        prop_oneof![Just(None), (0u64..4).prop_map(Some)],
        (0u8..10, 0usize..16).prop_map(|(x, i)| (x < 2).then_some(i)),
    )
        .prop_map(|(tag, delay, key, cancel)| Ev {
            tag: tag as u32,
            delay,
            key,
            cancel,
            children: Vec::new(),
        })
}

fn ev_with_children(children: impl Strategy<Value = Ev>) -> impl Strategy<Value = Ev> {
    (leaf_ev(), prop::collection::vec(children, 0..3)).prop_map(|(mut ev, children)| {
        ev.children = children;
        ev
    })
}

fn top_item() -> impl Strategy<Value = Top> {
    let once = ev_with_children(ev_with_children(leaf_ev())).prop_map(Top::Once);
    let periodic = (
        any::<u16>(),
        0u64..60,
        1u64..30,
        1u32..6,
        any::<bool>(),
        leaf_ev(),
    )
        .prop_map(
            |(tag, start, period, ticks, has_child, child)| Top::Periodic {
                tag: tag as u32,
                start,
                period,
                ticks,
                child: has_child.then_some(child),
            },
        );
    (0u8..5, once, periodic)
        .prop_map(|(pick, once, periodic)| if pick < 4 { once } else { periodic })
}

fn drive_op() -> impl Strategy<Value = Drive> {
    (0u8..5, 0u64..30).prop_map(|(pick, dt)| match pick {
        0..=2 => Drive::Step,
        3 => Drive::RunBefore(dt),
        _ => Drive::RunUntil(dt),
    })
}

proptest! {
    /// A random mix of zero-delay, delayed, keyed and
    /// periodic events, with cancels before and during the run and
    /// handlers that arm events at their own instant, fires in exactly the
    /// order of a reference binary heap over `(time, key, seq)`; and
    /// `peek_next`, `pending`, `now`, `run_before` and
    /// `run_until` agree with the reference after every driver call.
    #[test]
    fn firing_order_matches_reference_heap(
        tops in prop::collection::vec(top_item(), 1..12),
        setup_cancels in prop::collection::vec(0usize..16, 0..3),
        drives in prop::collection::vec(drive_op(), 0..40),
    ) {
        let mut sim: Sim<SimWorld> = Sim::new();
        let mut world = SimWorld::default();
        let mut model = Model::default();
        for top in &tops {
            match top {
                Top::Once(ev) => {
                    world.ids.push(Some(sim_arm(&mut sim, Rc::new(ev.clone()))));
                    let seq = model.arm_ev(ev);
                    model.ids.push(Some(seq));
                }
                Top::Periodic { tag, start, period, ticks, child } => {
                    let (tag, period, child_ev) = (*tag, *period, child.clone());
                    let mut left = *ticks;
                    let id = sim.schedule_periodic(
                        SimTime::from_nanos(*start),
                        SimDuration::from_nanos(period),
                        move |w: &mut SimWorld, s: &mut Sim<SimWorld>| {
                            w.log.push((s.now().as_nanos(), tag));
                            if let Some(c) = &child_ev {
                                sim_arm(s, Rc::new(c.clone()));
                            }
                            left -= 1;
                            if left > 0 { Periodic::Continue } else { Periodic::Stop }
                        },
                    );
                    world.ids.push(Some(id));
                    let action = Action::Tick { tag, period, left: *ticks, child: child.clone() };
                    let seq = model.arm(*start, UNKEYED, action);
                    model.ids.push(Some(seq));
                }
            }
        }
        for &i in &setup_cancels {
            let i = i % tops.len();
            let ok = sim.cancel(world.ids[i].expect("armed"));
            prop_assert_eq!(ok, model.cancel(model.ids[i].expect("armed")));
        }
        for &d in &drives {
            match d {
                Drive::Step => {
                    prop_assert_eq!(sim.step(&mut world), model.step());
                }
                Drive::RunBefore(dt) => {
                    let bound = model.now + dt;
                    sim.run_before(&mut world, SimTime::from_nanos(bound));
                    while model.next_time().is_some_and(|t| t < bound) {
                        model.step();
                    }
                }
                Drive::RunUntil(dt) => {
                    let deadline = model.now + dt;
                    sim.run_until(&mut world, SimTime::from_nanos(deadline));
                    while model.next_time().is_some_and(|t| t <= deadline) {
                        model.step();
                    }
                    model.now = model.now.max(deadline);
                }
            }
            check_against_model(&mut sim, &world, &model);
        }
        sim.run(&mut world);
        while model.step() {}
        check_against_model(&mut sim, &world, &model);
        prop_assert_eq!(sim.pending(), 0);
    }
}
