//! The discrete-event executor.
//!
//! [`Sim<W>`] owns a priority queue of `(time, callback)` entries over a
//! caller-supplied world type `W`. Events fire in time order; events
//! scheduled for the same instant fire in scheduling order (a monotone
//! sequence number breaks ties), which makes runs bit-reproducible.
//!
//! The executor is deliberately synchronous and single-threaded: runs
//! parallelize at the *trial* level (`devtools::par`), never inside one
//! simulation, which is what keeps every run bit-reproducible.
//!
//! ## Queue layout
//!
//! One [`BinaryHeap`] of events, each a packed `u128` key
//! `(biased time, 64-bit sequence)` plus its boxed callback, ordered by
//! the key alone so a comparison is a single wide-integer compare.
//!
//! A heap is all the kernel's traffic needs. It carries only the
//! testbed's background processes (cross traffic, the monitor pinger
//! and its controller): a [`crate::testbed::Testbed`] holds at most
//! three pending events and each [`crate::fleet::FleetShard`] exactly
//! one. Fleet poll timers never enter the kernel — the fleet runner
//! drives polls from its epoch barrier — so no workload presents the
//! deep queue a timing wheel or a callback slab would pay off on.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use clocksim::time::{SimDuration, SimTime};

/// An event callback: receives the world and the simulator (so it can
/// schedule follow-up events). `Send` so a whole kernel, pending events
/// included, can move to a worker thread — the fleet runner ticks shard
/// kernels in parallel.
type EventFn<W> = Box<dyn FnOnce(&mut W, &mut Sim<W>) + Send>;

/// One queued event. Ordering is by `key` alone (unique among pending
/// events — the sequence half never collides) and reversed, so the
/// max-heap [`BinaryHeap`] pops the earliest key first.
struct Event<W> {
    key: u128,
    f: EventFn<W>,
}

impl<W> PartialEq for Event<W> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<W> Eq for Event<W> {}

impl<W> PartialOrd for Event<W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<W> Ord for Event<W> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

/// Pack `(at, seq)` into one orderable integer. The time is sign-flipped
/// into the top 64 bits (so `i64` order survives the unsigned compare);
/// the full 64-bit sequence occupies the low half, so same-instant FIFO
/// order survives any schedule count a simulation can reach.
#[inline]
fn pack_key(at: SimTime, seq: u64) -> u128 {
    let biased = (at.as_nanos() as u64) ^ (1u64 << 63);
    ((biased as u128) << 64) | seq as u128
}

#[inline]
fn key_time(key: u128) -> SimTime {
    SimTime((((key >> 64) as u64) ^ (1u64 << 63)) as i64)
}

/// Discrete-event simulator over world type `W`.
pub struct Sim<W> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Event<W>>,
    fired: u64,
}

impl<W> Default for Sim<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> Sim<W> {
    /// A simulator positioned at the epoch with an empty queue.
    pub fn new() -> Self {
        Sim { now: SimTime::ZERO, seq: 0, queue: BinaryHeap::new(), fired: 0 }
    }

    /// Current simulation time (the time of the last fired event, or the
    /// target of the last `run_until`).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events fired so far (diagnostics, benches).
    pub fn events_fired(&self) -> u64 {
        self.fired
    }

    /// Number of events currently queued.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Seed the tie-breaker sequence counter (tests only): lets a
    /// regression test start just below a wrap boundary without
    /// scheduling billions of events first.
    #[cfg(test)]
    pub(crate) fn set_seq_for_test(&mut self, seq: u64) {
        self.seq = seq;
    }

    /// Schedule `f` at absolute time `at`. Scheduling in the past fires the
    /// event at the current time instead (never travels backwards).
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        f: impl FnOnce(&mut W, &mut Sim<W>) + Send + 'static,
    ) {
        let at = at.max(self.now);
        // Sequence numbers order same-instant events. 64 bits cannot
        // wrap in any physically runnable simulation (5 billion events
        // per second for a century falls short), so FIFO order among
        // ties holds unconditionally.
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Event { key: pack_key(at, seq), f: Box::new(f) });
    }

    /// Schedule `f` after a relative delay.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        f: impl FnOnce(&mut W, &mut Sim<W>) + Send + 'static,
    ) {
        self.schedule_at(self.now + delay.max_zero(), f);
    }

    /// Remove and return the earliest event if its time is `<= t`.
    #[inline]
    fn pop_through(&mut self, t: SimTime) -> Option<Event<W>> {
        if key_time(self.queue.peek()?.key) > t {
            return None;
        }
        self.queue.pop()
    }

    /// Fire every event with `at <= t`, then advance the clock to exactly
    /// `t`. Events may schedule new events, including at the current time.
    pub fn run_until(&mut self, world: &mut W, t: SimTime) {
        while let Some(e) = self.pop_through(t) {
            self.fire(world, e);
        }
        if t > self.now {
            self.now = t;
        }
    }

    /// Fire events until the queue drains (for self-terminating workloads).
    pub fn run_to_completion(&mut self, world: &mut W) {
        while let Some(e) = self.queue.pop() {
            self.fire(world, e);
        }
    }

    #[inline]
    fn fire(&mut self, world: &mut W, e: Event<W>) {
        self.now = key_time(e.key);
        self.fired += 1;
        (e.f)(world, self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{FleetConfig, FleetNet};
    use crate::testbed::{Testbed, TestbedConfig};

    #[test]
    fn events_fire_in_time_order() {
        let mut sim: Sim<Vec<u32>> = Sim::new();
        let mut world = Vec::new();
        sim.schedule_at(SimTime::from_secs(3), |w: &mut Vec<u32>, _| w.push(3));
        sim.schedule_at(SimTime::from_secs(1), |w: &mut Vec<u32>, _| w.push(1));
        sim.schedule_at(SimTime::from_secs(2), |w: &mut Vec<u32>, _| w.push(2));
        sim.run_until(&mut world, SimTime::from_secs(10));
        assert_eq!(world, vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_secs(10));
        assert_eq!(sim.events_fired(), 3);
    }

    #[test]
    fn ties_fire_in_scheduling_order() {
        let mut sim: Sim<Vec<u32>> = Sim::new();
        let mut world = Vec::new();
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            sim.schedule_at(t, move |w: &mut Vec<u32>, _| w.push(i));
        }
        sim.run_until(&mut world, t);
        assert_eq!(world, (0..10).collect::<Vec<_>>());
    }

    /// Regression test for the tie-breaker wrap bug: the old kernel kept
    /// `seq` in 32 bits and wrapped it, so the 2^32-th schedule in a run
    /// sorted *before* same-instant events scheduled earlier — FIFO order
    /// among ties silently inverted (a 1M-client × 30-min fleet run blows
    /// past 2^32 events). With the sequence seeded just below the old
    /// wrap point, the old kernel fires 2, 3, 0, 1; the 64-bit sequence
    /// keeps 0, 1, 2, 3.
    #[test]
    fn same_instant_fifo_survives_u32_seq_boundary() {
        let mut sim: Sim<Vec<u32>> = Sim::new();
        sim.set_seq_for_test(u64::from(u32::MAX) - 1);
        let mut world = Vec::new();
        let t = SimTime::from_secs(7);
        for i in 0..4 {
            sim.schedule_at(t, move |w: &mut Vec<u32>, _| w.push(i));
        }
        sim.run_until(&mut world, t);
        assert_eq!(
            world,
            vec![0, 1, 2, 3],
            "same-instant FIFO order must survive the u32 sequence boundary"
        );
    }

    #[test]
    fn run_until_stops_at_boundary() {
        let mut sim: Sim<Vec<u32>> = Sim::new();
        let mut world = Vec::new();
        sim.schedule_at(SimTime::from_secs(1), |w: &mut Vec<u32>, _| w.push(1));
        sim.schedule_at(SimTime::from_secs(5), |w: &mut Vec<u32>, _| w.push(5));
        sim.run_until(&mut world, SimTime::from_secs(2));
        assert_eq!(world, vec![1]);
        assert_eq!(sim.pending(), 1);
        sim.run_until(&mut world, SimTime::from_secs(5));
        assert_eq!(world, vec![1, 5]);
    }

    #[test]
    fn events_can_reschedule_themselves() {
        struct W {
            count: u32,
        }
        fn tick(w: &mut W, sim: &mut Sim<W>) {
            w.count += 1;
            if w.count < 5 {
                sim.schedule_in(SimDuration::from_secs(1), tick);
            }
        }
        let mut sim = Sim::new();
        let mut world = W { count: 0 };
        sim.schedule_at(SimTime::ZERO, tick);
        sim.run_until(&mut world, SimTime::from_secs(100));
        assert_eq!(world.count, 5);
    }

    #[test]
    fn past_scheduling_clamps_to_now() {
        let mut sim: Sim<Vec<SimTime>> = Sim::new();
        let mut world = Vec::new();
        sim.schedule_at(SimTime::from_secs(5), |_, sim: &mut Sim<Vec<SimTime>>| {
            // Attempt to schedule in the past.
            sim.schedule_at(SimTime::from_secs(1), |w: &mut Vec<SimTime>, sim| {
                w.push(sim.now());
            });
        });
        sim.run_until(&mut world, SimTime::from_secs(10));
        assert_eq!(world, vec![SimTime::from_secs(5)]);
    }

    #[test]
    fn boundary_event_fires_inclusively() {
        let mut sim: Sim<Vec<u32>> = Sim::new();
        let mut world = Vec::new();
        sim.schedule_at(SimTime::from_secs(2), |w: &mut Vec<u32>, _| w.push(1));
        sim.run_until(&mut world, SimTime::from_secs(2));
        assert_eq!(world, vec![1]);
    }

    #[test]
    fn run_to_completion_drains() {
        let mut sim: Sim<u32> = Sim::new();
        let mut world = 0u32;
        for i in 0..100 {
            sim.schedule_at(SimTime::from_secs(i), |w: &mut u32, _| *w += 1);
        }
        sim.run_to_completion(&mut world);
        assert_eq!(world, 100);
        assert_eq!(sim.pending(), 0);
    }

    #[test]
    fn key_packing_orders_by_time_then_seq() {
        let t0 = SimTime::from_secs(0);
        let t1 = SimTime::from_secs(1);
        assert!(pack_key(t0, 5) < pack_key(t1, 0));
        assert!(pack_key(t1, 0) < pack_key(t1, 1));
        // The 64-bit sequence never folds into the time half.
        assert!(pack_key(t1, u64::MAX) < pack_key(SimTime(t1.0 + 1), 0));
        assert_eq!(key_time(pack_key(t1, 3)), t1);
    }

    #[test]
    fn nested_same_time_event_fires_in_same_run() {
        let mut sim: Sim<Vec<&'static str>> = Sim::new();
        let mut world = Vec::new();
        sim.schedule_at(SimTime::from_secs(1), |w: &mut Vec<&'static str>, sim| {
            w.push("outer");
            sim.schedule_in(SimDuration::ZERO, |w: &mut Vec<&'static str>, _| w.push("inner"));
        });
        sim.run_until(&mut world, SimTime::from_secs(1));
        assert_eq!(world, vec!["outer", "inner"]);
    }

    #[test]
    fn hours_apart_events_fire_in_time_order() {
        let mut sim: Sim<Vec<u32>> = Sim::new();
        let mut world = Vec::new();
        for (i, secs) in [36_000i64, 1, 72_000, 2, 18_000].iter().enumerate() {
            sim.schedule_at(SimTime::from_secs(*secs), move |w: &mut Vec<u32>, _| {
                w.push(i as u32);
            });
        }
        sim.run_to_completion(&mut world);
        assert_eq!(world, vec![1, 3, 4, 0, 2]);
        assert_eq!(sim.now(), SimTime::from_secs(72_000));
    }

    /// Pins the traffic the single-heap design rests on (module docs):
    /// a fleet shard kernel only ever holds its cross-traffic tick, and
    /// a wireless testbed with the monitor enabled holds at most its
    /// cross-traffic, ping and controller ticks.
    #[test]
    fn testbed_and_fleet_kernels_stay_shallow() {
        let cfg = FleetConfig { clients: 64, shards: 4, ..FleetConfig::default() };
        let mut fleet = FleetNet::new(&cfg, 11);
        let mut tb = Testbed::wireless(TestbedConfig::default(), 11);
        for secs in (0..=240).step_by(7) {
            let t = SimTime::from_secs(secs);
            fleet.advance_to(t);
            tb.advance_to(t);
            let (shards, _) = fleet.parts();
            assert_eq!(shards.len(), 4);
            for shard in shards.iter() {
                assert_eq!(shard.sim.pending(), 1, "fleet shard at {secs} s");
            }
            assert!(tb.sim.pending() <= 3, "testbed holds {} at {secs} s", tb.sim.pending());
        }
        assert!(tb.sim.events_fired() > 100, "the monitor processes must actually run");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use devtools::prop;
    use devtools::{prop_assert, prop_assert_eq, props};

    props! {
        /// For any schedule of events, firing order is sorted by
        /// (time, insertion order).
        fn firing_order_is_stable_sort(times in prop::vecs(prop::ints(0..1000), 1..60)) {
            let mut sim: Sim<Vec<(i64, usize)>> = Sim::new();
            let mut world: Vec<(i64, usize)> = Vec::new();
            for (idx, &t) in times.iter().enumerate() {
                sim.schedule_at(SimTime::from_secs(t), move |w: &mut Vec<(i64, usize)>, _| {
                    w.push((t, idx));
                });
            }
            sim.run_to_completion(&mut world);
            prop_assert_eq!(world.len(), times.len());
            for pair in world.windows(2) {
                let (ta, ia) = pair[0];
                let (tb, ib) = pair[1];
                prop_assert!(ta < tb || (ta == tb && ia < ib), "{pair:?}");
            }
        }
    }
}
