//! Exchange composition: one SNTP request/reply round trip across the
//! simulated network.
//!
//! [`perform_exchange`] is where protocol bytes, clocks, and network
//! models meet for one device on the testbed. It runs the three phases
//! of [`crate::fleet`] that every exchange in the workspace shares:
//!
//! 1. read T1 from the client's clock, serialize a request, carry it
//!    across the last hop (WiFi/wired/cellular) — which may drop it;
//! 2. carry it across the backbone (droppable), let the server parse it
//!    and answer with T2/T3 from *its* clock, carry the reply back
//!    across the backbone (droppable again);
//! 3. carry the reply across the last hop, read T4 from the client's
//!    clock, and run the RFC 4330 sanity checks to derive (offset,
//!    delay).
//!
//! True time appears only where the physical world needs it (when packets
//! *actually* arrive); every timestamp in the packets comes from a
//! possibly-wrong clock, exactly as on real hardware.

use clocksim::time::{SimDuration, SimTime};
use clocksim::ClockControl;
use netsim::faults::FaultInjector;
use netsim::Testbed;
use ntp_wire::NtpDuration;

use crate::client::OffsetSample;
use crate::fleet::{
    begin_fleet_exchange, complete_fleet_exchange, serve_fleet_exchange, RequestShape,
};
use crate::server::SimServer;

/// Why an exchange failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExchangeError {
    /// Request lost on the client's last hop.
    LostLastHopUp,
    /// Request lost on the backbone.
    LostBackboneUp,
    /// Reply lost on the backbone.
    LostBackboneDown,
    /// Reply lost on the client's last hop.
    LostLastHopDown,
    /// Reply arrived but failed parsing or sanity checks.
    RejectedReply,
    /// Packet swallowed by a scheduled server outage (fault layer).
    Blackholed,
    /// The reply arrived after the per-query timeout; the request was
    /// abandoned and the late reply rejected.
    Timeout,
    /// The server answered kiss-o'-death with this code; the caller
    /// must honor it (back off / stop using the server).
    KissODeath([u8; 4]),
}

/// A successful exchange with full diagnostics.
#[derive(Clone, Copy, Debug)]
pub struct CompletedExchange {
    /// The validated offset sample as the client computed it.
    pub sample: OffsetSample,
    /// True forward one-way delay (ground truth; evaluation only).
    pub true_fwd: SimDuration,
    /// True return one-way delay (ground truth; evaluation only).
    pub true_back: SimDuration,
    /// True time at which the reply arrived.
    pub completed_at: SimTime,
    /// Which server answered.
    pub server_id: usize,
}

impl CompletedExchange {
    /// The offset-measurement error contributed by path asymmetry alone:
    /// `(fwd − back) / 2` (ground truth; evaluation only).
    pub fn asymmetry_error(&self) -> NtpDuration {
        let diff_ns = self.true_fwd.as_nanos() - self.true_back.as_nanos();
        NtpDuration::from_nanos(diff_ns / 2)
    }
}

/// A packet observed during a traced exchange, for pcap dumping.
#[derive(Clone, Debug)]
pub struct TracedPacket {
    /// True time the packet was *captured* (client-side vantage: requests
    /// at departure, replies at arrival).
    pub at: SimTime,
    /// Direction: `true` = client → server.
    pub outbound: bool,
    /// The raw 48-byte NTP payload.
    pub bytes: Vec<u8>,
}

/// What a round trip runs under besides the network itself. Every field
/// is optional; the [`Default`] is the null layer fleet clients use.
#[derive(Debug, Default)]
pub struct ExchangeHooks<'a> {
    /// Fault layer, consulted *on top of* the channel models (a packet
    /// must survive both): storm/outage drops, extra delay, corrupted
    /// and duplicated replies, plus the state changes
    /// [`perform_exchange`] applies before T1 is read. With an empty
    /// schedule it draws nothing, so it behaves exactly like `None`.
    pub faults: Option<&'a mut FaultInjector>,
    /// Per-query round-trip budget: a reply landing later is abandoned
    /// and fails with [`ExchangeError::Timeout`].
    pub timeout: Option<SimDuration>,
    /// Client-side capture of the request and reply bytes, as a tcpdump
    /// on the device would see them: a lost packet still appears in the
    /// direction it was observed (an outbound request shows up even if
    /// its reply never comes).
    pub capture: Option<&'a mut Vec<TracedPacket>>,
}

/// Perform one full exchange starting at true time `t`: the testbed is
/// the last hop and `server`'s own min-poll rule decides admission.
///
/// A fault layer in `hooks` first applies what is due by `t`: client
/// clock steps (suspend/resume) before T1 is read, a falseticker onset
/// stepping the server's clock, and — for servers its kiss-o'-death
/// windows name — the server's rate limiting, on inside a window and
/// off outside it.
pub fn perform_exchange(
    testbed: &mut Testbed,
    server: &mut SimServer,
    clock: &mut dyn ClockControl,
    t: SimTime,
    mut hooks: ExchangeHooks<'_>,
) -> Result<CompletedExchange, ExchangeError> {
    if let Some(faults) = hooks.faults.as_deref_mut() {
        let t = t.max(clock.position());
        for step_ms in faults.take_clock_steps(t) {
            clock.step(t, NtpDuration::from_seconds_f64(step_ms / 1e3));
        }
        if let Some(err_ms) = faults.take_falseticker_onset(t, server.id) {
            server.clock.step(t, NtpDuration::from_seconds_f64(err_ms / 1e3));
        }
        if faults.kod_manages(server.id) {
            server.min_poll_interval = faults.kod_min_poll(t, server.id);
        }
    }
    let mut request =
        begin_fleet_exchange(testbed, clock, 0, server.id, t, RequestShape::Sntp, &mut hooks)?;
    let reply = serve_fleet_exchange(&request, server, None, 0, &mut hooks).1?;
    complete_fleet_exchange(testbed, clock, &mut request, &reply, &mut hooks)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::pool::{PoolConfig, ServerPool};
    use clocksim::{OscillatorConfig, SimClock, SimRng};
    use netsim::faults::{FaultKind, FaultSchedule, FaultStats, ServerSet};
    use netsim::testbed::TestbedConfig;

    fn perfect_clock() -> SimClock {
        SimClock::new(OscillatorConfig::perfect().build(SimRng::new(1)), SimTime::ZERO)
    }

    #[test]
    fn wired_exchange_offset_tracks_server_error() {
        let mut tb = Testbed::wired(1);
        let mut pool = ServerPool::new(
            PoolConfig { size: 1, false_ticker_fraction: 0.0, good_error_sigma_ms: 0.0, ..Default::default() },
            2,
        );
        let mut clock = perfect_clock();
        let mut offsets = Vec::new();
        for i in 0..200 {
            let t = SimTime::from_secs(i * 5);
            if let Ok(done) = perform_exchange(
                &mut tb,
                pool.server_mut(0),
                &mut clock,
                t,
                ExchangeHooks::default(),
            ) {
                offsets.push(done.sample.offset.as_millis_f64());
            }
        }
        assert!(offsets.len() > 190);
        let mean = offsets.iter().sum::<f64>() / offsets.len() as f64;
        // Server error ~0, symmetric wired path: offsets near zero.
        assert!(mean.abs() < 5.0, "mean={mean}");
    }

    #[test]
    fn offset_error_equals_asymmetry_plus_clock_errors() {
        let mut tb = Testbed::wired(3);
        let mut pool = ServerPool::new(
            PoolConfig { size: 1, false_ticker_fraction: 0.0, good_error_sigma_ms: 0.0, ..Default::default() },
            4,
        );
        let mut clock = perfect_clock();
        for i in 0..50 {
            let t = SimTime::from_secs(i * 5);
            if let Ok(done) = perform_exchange(
                &mut tb,
                pool.server_mut(0),
                &mut clock,
                t,
                ExchangeHooks::default(),
            ) {
                // With a perfect client clock and a ≈0-error server, the
                // reported offset must equal the path-asymmetry error
                // (fwd − back)/2 up to the server's tiny wobble.
                let predicted = done.asymmetry_error().as_millis_f64();
                let got = done.sample.offset.as_millis_f64();
                assert!(
                    (got - predicted).abs() < 2.0,
                    "offset {got} vs asym {predicted}"
                );
            }
        }
    }

    #[test]
    fn wireless_exchanges_are_noisier_than_wired() {
        let spread = |mut tb: Testbed, seed: u64| {
            let mut pool = ServerPool::new(
                PoolConfig { size: 4, false_ticker_fraction: 0.0, ..Default::default() },
                seed,
            );
            let mut clock = perfect_clock();
            let mut offsets = Vec::new();
            for i in 0..400 {
                let t = SimTime::from_secs(i * 5);
                let sid = pool.pick();
                if let Ok(done) = perform_exchange(
                    &mut tb,
                    pool.server_mut(sid),
                    &mut clock,
                    t,
                    ExchangeHooks::default(),
                ) {
                    offsets.push(done.sample.offset.as_millis_f64());
                }
            }
            clocksim::stats::stddev(&offsets)
        };
        let wired = spread(Testbed::wired(5), 6);
        let wireless = spread(Testbed::wireless(TestbedConfig::default(), 7), 8);
        assert!(wireless > 3.0 * wired, "wireless σ {wireless} vs wired σ {wired}");
    }

    #[test]
    fn losses_reported_with_direction() {
        let mut tb = Testbed::lossy_wired(9, 0.5);
        let mut pool = ServerPool::new(PoolConfig { size: 1, ..Default::default() }, 10);
        let mut clock = perfect_clock();
        let mut errs = 0;
        for i in 0..100 {
            let t = SimTime::from_secs(i * 5);
            if perform_exchange(&mut tb, pool.server_mut(0), &mut clock, t, ExchangeHooks::default())
                .is_err()
            {
                errs += 1;
            }
        }
        assert!(errs > 30, "errs={errs}");
    }

    #[test]
    fn clock_error_appears_in_offset() {
        let mut tb = Testbed::wired(11);
        let mut pool = ServerPool::new(
            PoolConfig { size: 1, false_ticker_fraction: 0.0, good_error_sigma_ms: 0.0, ..Default::default() },
            12,
        );
        // Client clock 500 ms behind truth: server appears 500 ms ahead.
        let osc = OscillatorConfig::perfect().build(SimRng::new(13));
        let mut clock = SimClock::with_initial_error(
            osc,
            SimTime::ZERO,
            NtpDuration::from_millis(-500),
        );
        let t = SimTime::from_secs(10);
        let done =
            perform_exchange(&mut tb, pool.server_mut(0), &mut clock, t, ExchangeHooks::default())
                .unwrap();
        assert!((done.sample.offset.as_millis_f64() - 500.0).abs() < 5.0);
    }

    fn with_faults(faults: &mut FaultInjector, timeout: Option<SimDuration>) -> ExchangeHooks<'_> {
        ExchangeHooks { faults: Some(faults), timeout, capture: None }
    }

    fn quiet_pool(seed: u64) -> ServerPool {
        ServerPool::new(
            PoolConfig {
                size: 2,
                false_ticker_fraction: 0.0,
                good_error_sigma_ms: 0.0,
                backbone_loss: 0.0,
                ..Default::default()
            },
            seed,
        )
    }

    /// An empty schedule draws nothing from the injector's RNG and fires
    /// nothing, so it is the same round trip as no fault layer at all.
    #[test]
    fn faulted_exchange_with_empty_schedule_matches_normal_path() {
        let mut faults = FaultInjector::new(FaultSchedule::none(), 1);
        let mut tb_a = Testbed::wired(20);
        let mut tb_b = Testbed::wired(20);
        let mut pool_a = quiet_pool(21);
        let mut pool_b = quiet_pool(21);
        let mut clock_a = perfect_clock();
        let mut clock_b = perfect_clock();
        for i in 0..50 {
            let t = SimTime::from_secs(i * 10);
            let plain = perform_exchange(
                &mut tb_a,
                pool_a.server_mut(0),
                &mut clock_a,
                t,
                ExchangeHooks::default(),
            );
            let faulted = perform_exchange(
                &mut tb_b,
                pool_b.server_mut(0),
                &mut clock_b,
                t,
                with_faults(&mut faults, None),
            );
            match (plain, faulted) {
                (Ok(a), Ok(b)) => assert_eq!(a.sample, b.sample),
                (a, b) => panic!("paths diverged: {a:?} vs {b:?}"),
            }
        }
        assert_eq!(faults.stats, FaultStats::default());
    }

    #[test]
    fn outage_blackholes_and_recovers() {
        let sched = FaultSchedule::none().window(
            100.0,
            200.0,
            FaultKind::ServerOutage { servers: ServerSet::All },
        );
        let mut faults = FaultInjector::new(sched, 2);
        let mut tb = Testbed::wired(22);
        let mut pool = quiet_pool(23);
        let mut clock = perfect_clock();
        let go = |tb: &mut Testbed, pool: &mut ServerPool, clock: &mut SimClock, faults: &mut FaultInjector, s: i64| {
            perform_exchange(
                tb,
                pool.server_mut(0),
                clock,
                SimTime::from_secs(s),
                with_faults(faults, None),
            )
        };
        assert!(go(&mut tb, &mut pool, &mut clock, &mut faults, 50).is_ok());
        assert_eq!(
            go(&mut tb, &mut pool, &mut clock, &mut faults, 150).unwrap_err(),
            ExchangeError::Blackholed
        );
        assert!(go(&mut tb, &mut pool, &mut clock, &mut faults, 250).is_ok());
        assert!(faults.stats.dropped_up >= 1);
    }

    #[test]
    fn slow_reply_times_out_and_is_not_applied() {
        // 800 ms of extra downlink delay against a 500 ms budget.
        let sched = FaultSchedule::none().window(
            0.0,
            1e9,
            FaultKind::DelaySpike { extra_up_ms: 0.0, extra_down_ms: 800.0 },
        );
        let mut faults = FaultInjector::new(sched, 3);
        let mut tb = Testbed::wired(24);
        let mut pool = quiet_pool(25);
        let mut clock = perfect_clock();
        let budget = Some(SimDuration::from_millis(500));
        let err = perform_exchange(
            &mut tb,
            pool.server_mut(0),
            &mut clock,
            SimTime::from_secs(10),
            with_faults(&mut faults, budget),
        )
        .unwrap_err();
        assert_eq!(err, ExchangeError::Timeout);
        // With a roomier budget the same spike is tolerated.
        let ok = perform_exchange(
            &mut tb,
            pool.server_mut(0),
            &mut clock,
            SimTime::from_secs(20),
            with_faults(&mut faults, Some(SimDuration::from_secs(5))),
        );
        assert!(ok.is_ok());
    }

    #[test]
    fn corrupted_replies_are_rejected() {
        let sched =
            FaultSchedule::none().window(0.0, 1e9, FaultKind::CorruptReply { prob: 1.0 });
        let mut faults = FaultInjector::new(sched, 4);
        let mut tb = Testbed::wired(26);
        let mut pool = quiet_pool(27);
        let mut clock = perfect_clock();
        let err = perform_exchange(
            &mut tb,
            pool.server_mut(0),
            &mut clock,
            SimTime::from_secs(5),
            with_faults(&mut faults, None),
        )
        .unwrap_err();
        assert_eq!(err, ExchangeError::RejectedReply);
        assert_eq!(faults.stats.corrupted, 1);
    }

    #[test]
    fn duplicated_replies_apply_exactly_once() {
        let sched =
            FaultSchedule::none().window(0.0, 1e9, FaultKind::DuplicateReply { prob: 1.0 });
        let mut faults = FaultInjector::new(sched, 5);
        let mut tb = Testbed::wired(28);
        let mut pool = quiet_pool(29);
        let mut clock = perfect_clock();
        // Succeeds despite every reply being cloned: the duplicate is
        // rejected internally (debug_assert'd in the exchange).
        let done = perform_exchange(
            &mut tb,
            pool.server_mut(0),
            &mut clock,
            SimTime::from_secs(5),
            with_faults(&mut faults, None),
        )
        .unwrap();
        assert!(done.sample.offset.as_millis_f64().abs() < 50.0);
        assert_eq!(faults.stats.duplicated, 1);
    }

    #[test]
    fn kod_window_turns_rate_limiting_on_and_off() {
        let sched = FaultSchedule::none().window(
            100.0,
            200.0,
            FaultKind::KissODeath { servers: ServerSet::One(0), min_poll_secs: 64.0 },
        );
        let mut faults = FaultInjector::new(sched, 6);
        let mut tb = Testbed::wired(30);
        let mut pool = quiet_pool(31);
        let mut clock = perfect_clock();
        let go = |tb: &mut Testbed, pool: &mut ServerPool, clock: &mut SimClock, faults: &mut FaultInjector, s: i64| {
            perform_exchange(
                tb,
                pool.server_mut(0),
                clock,
                SimTime::from_secs(s),
                with_faults(faults, None),
            )
        };
        // Inside the window, polls 10 s apart: first primes the limiter,
        // second draws RATE.
        assert!(go(&mut tb, &mut pool, &mut clock, &mut faults, 110).is_ok());
        assert_eq!(
            go(&mut tb, &mut pool, &mut clock, &mut faults, 120).unwrap_err(),
            ExchangeError::KissODeath(*b"RATE")
        );
        assert_eq!(pool.server(0).kod_sent, 1);
        // After the window the same cadence is served normally.
        assert!(go(&mut tb, &mut pool, &mut clock, &mut faults, 210).is_ok());
        assert!(go(&mut tb, &mut pool, &mut clock, &mut faults, 220).is_ok());
    }

    #[test]
    fn falseticker_onset_shifts_measured_offset() {
        let sched = FaultSchedule::none()
            .at(100.0, FaultKind::FalsetickerOnset { server: 0, error_ms: 300.0 });
        let mut faults = FaultInjector::new(sched, 7);
        let mut tb = Testbed::wired(32);
        let mut pool = quiet_pool(33);
        let mut clock = perfect_clock();
        let before = perform_exchange(
            &mut tb,
            pool.server_mut(0),
            &mut clock,
            SimTime::from_secs(50),
            with_faults(&mut faults, None),
        )
        .unwrap();
        assert!(before.sample.offset.as_millis_f64().abs() < 50.0);
        let after = perform_exchange(
            &mut tb,
            pool.server_mut(0),
            &mut clock,
            SimTime::from_secs(150),
            with_faults(&mut faults, None),
        )
        .unwrap();
        let shift = after.sample.offset.as_millis_f64() - before.sample.offset.as_millis_f64();
        assert!((shift - 300.0).abs() < 50.0, "onset shift {shift}");
    }

    #[test]
    fn client_clock_step_appears_in_offset() {
        // The device sleeps and wakes 400 ms behind: the server then
        // appears 400 ms *ahead*.
        let sched = FaultSchedule::none().at(100.0, FaultKind::ClockStep { offset_ms: -400.0 });
        let mut faults = FaultInjector::new(sched, 8);
        let mut tb = Testbed::wired(34);
        let mut pool = quiet_pool(35);
        let mut clock = perfect_clock();
        let done = perform_exchange(
            &mut tb,
            pool.server_mut(0),
            &mut clock,
            SimTime::from_secs(150),
            with_faults(&mut faults, None),
        )
        .unwrap();
        assert!((done.sample.offset.as_millis_f64() - 400.0).abs() < 50.0);
        assert_eq!(faults.stats.clock_steps, 1);
    }

    /// A capture under the fault layer sees what the device sees: the
    /// request even when an outage swallows it, and a corrupted reply as
    /// it landed.
    #[test]
    fn capture_records_fault_dropped_requests_and_corrupted_replies() {
        let sched = FaultSchedule::none()
            .window(0.0, 100.0, FaultKind::ServerOutage { servers: ServerSet::All })
            .window(100.0, 1e9, FaultKind::CorruptReply { prob: 1.0 });
        let mut faults = FaultInjector::new(sched, 9);
        let mut tb = Testbed::wired(38);
        let mut pool = quiet_pool(39);
        let mut clock = perfect_clock();
        let mut capture = Vec::new();
        let mut outcomes = Vec::new();
        for s in [50, 150] {
            let hooks = ExchangeHooks {
                faults: Some(&mut faults),
                timeout: None,
                capture: Some(&mut capture),
            };
            let t = SimTime::from_secs(s);
            outcomes.push(perform_exchange(&mut tb, pool.server_mut(0), &mut clock, t, hooks));
        }
        assert_eq!(outcomes[0].unwrap_err(), ExchangeError::Blackholed);
        assert_eq!(outcomes[1].unwrap_err(), ExchangeError::RejectedReply);
        let outbound: Vec<bool> = capture.iter().map(|p| p.outbound).collect();
        assert_eq!(outbound, [true, true, false]);
        let request = ntp_wire::NtpPacket::parse(&capture[1].bytes).unwrap();
        let reply = ntp_wire::NtpPacket::parse(&capture[2].bytes).unwrap();
        assert_ne!(reply.origin_ts, request.transmit_ts, "capture must hold the corrupted bytes");
    }

    /// One round trip through whichever path a caller asks for: faults,
    /// a timeout and a packet capture are each optional.
    fn round_trip(
        tb: &mut Testbed,
        server: &mut SimServer,
        clock: &mut SimClock,
        t: SimTime,
        faults: Option<&mut FaultInjector>,
        timeout: Option<SimDuration>,
        capture: Option<&mut Vec<TracedPacket>>,
    ) -> Result<CompletedExchange, ExchangeError> {
        perform_exchange(tb, server, clock, t, ExchangeHooks { faults, timeout, capture })
    }

    /// FNV-1a over little-endian words and raw bytes.
    pub(crate) struct Fnv(pub(crate) u64);

    impl Fnv {
        pub(crate) fn bytes(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
            }
        }
        pub(crate) fn word(&mut self, v: u64) {
            self.bytes(&v.to_le_bytes());
        }
        fn outcome(&mut self, r: &Result<CompletedExchange, ExchangeError>) {
            match r {
                Ok(d) => {
                    self.word(0);
                    self.word(d.sample.offset.as_nanos() as u64);
                    self.word(d.sample.delay.as_nanos() as u64);
                    self.word(d.sample.t1.to_era_nanos() as u64);
                    self.word(d.sample.t4.to_era_nanos() as u64);
                    self.word(d.completed_at.as_nanos() as u64);
                    self.word(d.true_fwd.as_nanos() as u64);
                    self.word(d.true_back.as_nanos() as u64);
                    self.word(d.server_id as u64);
                }
                Err(e) => {
                    self.word(1);
                    self.bytes(format!("{e:?}").as_bytes());
                }
            }
        }
    }

    /// Every fault kind at once, staggered over a 600 s run.
    fn every_fault_kind() -> FaultSchedule {
        FaultSchedule::none()
            .window(40.0, 120.0, FaultKind::LossStorm { loss_prob: 0.4 })
            .window(130.0, 170.0, FaultKind::ServerOutage { servers: ServerSet::One(1) })
            .window(180.0, 260.0, FaultKind::KissODeath { servers: ServerSet::One(0), min_poll_secs: 64.0 })
            .at(200.0, FaultKind::FalsetickerOnset { server: 1, error_ms: 250.0 })
            .window(270.0, 360.0, FaultKind::DelaySpike { extra_up_ms: 40.0, extra_down_ms: 450.0 })
            .window(300.0, 420.0, FaultKind::DuplicateReply { prob: 0.5 })
            .window(380.0, 480.0, FaultKind::CorruptReply { prob: 0.4 })
            .at(450.0, FaultKind::ClockStep { offset_ms: -300.0 })
            .window(500.0, 560.0, FaultKind::LossStorm { loss_prob: 0.2 })
    }

    /// The single-client round trip on every testbed, with no faults, an
    /// empty fault layer, every fault kind (with and without a timeout)
    /// and a packet capture, folded into one digest together with each
    /// RNG stream's next draw afterwards. Any change to a hop, a draw's
    /// order or a reply's classification moves the digest.
    #[test]
    fn exchange_round_trips_are_pinned() {
        #[derive(Clone, Copy)]
        enum Mode {
            Plain,
            Traced,
            EmptyFaults,
            AllFaults(Option<SimDuration>),
        }
        let testbeds: [fn(u64) -> Testbed; 3] = [
            Testbed::wired,
            |s| Testbed::wireless(TestbedConfig::default(), s),
            |s| Testbed::cellular(netsim::cellular::CellularConfig::default(), s),
        ];
        let modes = [
            Mode::Plain,
            Mode::Traced,
            Mode::EmptyFaults,
            Mode::AllFaults(None),
            Mode::AllFaults(Some(SimDuration::from_millis(300))),
        ];
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        for (k, make_tb) in testbeds.iter().enumerate() {
            for (m, &mode) in modes.iter().enumerate() {
                let seed = 100 + 10 * k as u64 + m as u64;
                let mut tb = make_tb(seed);
                let mut pool = ServerPool::new(
                    PoolConfig { size: 2, backbone_loss: 0.05, ..Default::default() },
                    seed + 1000,
                );
                let osc = OscillatorConfig::laptop().with_skew_ppm(30.0).build(SimRng::new(seed));
                let mut clock = SimClock::new(osc, SimTime::ZERO);
                let mut faults = match mode {
                    Mode::EmptyFaults => Some(FaultInjector::new(FaultSchedule::none(), seed)),
                    Mode::AllFaults(_) => Some(FaultInjector::new(every_fault_kind(), seed)),
                    Mode::Plain | Mode::Traced => None,
                };
                let timeout = match mode {
                    Mode::AllFaults(to) => to,
                    _ => None,
                };
                let mut capture = Vec::new();
                for i in 0..120i64 {
                    let t = SimTime::from_secs(i * 5) + SimDuration::from_millis(i * 37 % 1000);
                    let r = round_trip(
                        &mut tb,
                        pool.server_mut((i % 2) as usize),
                        &mut clock,
                        t,
                        faults.as_mut(),
                        timeout,
                        matches!(mode, Mode::Traced).then_some(&mut capture),
                    );
                    h.outcome(&r);
                }
                for p in &capture {
                    h.word(p.at.as_nanos() as u64);
                    h.word(u64::from(p.outbound));
                    h.bytes(&p.bytes);
                }
                let end = SimTime::from_secs(700);
                if let Some(hints) = tb.hints(end) {
                    h.word(hints.rssi_dbm.to_bits());
                    h.word(hints.noise_dbm.to_bits());
                }
                for s in 0..2 {
                    h.word(pool.server_mut(s).rng.next_u64());
                    h.word(pool.server(s).kod_sent);
                }
                h.word(clock.now(end).to_era_nanos() as u64);
                if let Some(f) = &faults {
                    h.bytes(format!("{:?}", f.stats).as_bytes());
                }
            }
        }
        assert_eq!(h.0, 15_253_660_237_752_558_471, "pinned single-client round-trip digest moved");
    }

    /// The whole faulted pipeline replays bit-identically for a fixed
    /// (schedule, seed) — the contract the fault-sweep artifacts and the
    /// parallel-equivalence suite build on.
    #[test]
    fn faulted_exchange_sequence_is_deterministic() {
        let run = || {
            let sched = FaultSchedule::none()
                .window(0.0, 2000.0, FaultKind::LossStorm { loss_prob: 0.3 })
                .window(500.0, 1500.0, FaultKind::DuplicateReply { prob: 0.5 })
                .at(800.0, FaultKind::ClockStep { offset_ms: 120.0 });
            let mut faults = FaultInjector::new(sched, 99);
            let mut tb = Testbed::wireless(TestbedConfig::default(), 36);
            let mut pool = quiet_pool(37);
            let mut clock = perfect_clock();
            (0..200)
                .map(|i| {
                    perform_exchange(
                        &mut tb,
                        pool.server_mut((i % 2) as usize),
                        &mut clock,
                        SimTime::from_secs(i * 10),
                        with_faults(&mut faults, Some(SimDuration::from_secs(2))),
                    )
                    .map(|d| d.sample.offset.as_millis_f64().to_bits())
                    .map_err(|e| format!("{e:?}"))
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
