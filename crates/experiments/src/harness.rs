//! Shared experiment machinery: clock setups, the plain SNTP sampler,
//! and the paired SNTP+MNTP sampler that reproduces the paper's
//! simultaneous head-to-head runs.

use clocksim::time::{SimDuration, SimTime};
use clocksim::{OscillatorConfig, SimClock, SimRng};
use mntp::{HintGate, MntpConfig, TrendFilter};
use netsim::{Testbed, WirelessHints};
use sntp::{perform_exchange, ExchangeHooks, PoolConfig, ServerPool};

/// How the target node's system clock behaves during a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClockMode {
    /// "NTP clock correction" on: the clock is held within a few ms of
    /// true time (the paper keeps ntpd disciplining the Macbook).
    NtpCorrected,
    /// Correction suspended: the clock free-runs at the given skew, ppm.
    FreeRunning {
        /// Constant oscillator skew, ppm ×10 (integer so the mode stays
        /// `Eq`/hashable; 125 = 12.5 ppm).
        skew_tenth_ppm: i32,
    },
}

impl ClockMode {
    /// The paper's free-running laptop: ~30 ppm effective drift (its
    /// 1-hour uncorrected traces drift by ≈100 ms).
    pub fn free_running_default() -> Self {
        ClockMode::FreeRunning { skew_tenth_ppm: 300 }
    }

    /// Build the clock.
    pub fn build(self, seed: u64) -> SimClock {
        match self {
            ClockMode::NtpCorrected => {
                // Disciplined clock: tiny residual wobble is modelled by
                // a near-zero-skew oscillator with small wander.
                let cfg = OscillatorConfig {
                    skew_ppm: 0.0,
                    wander_sigma_ppm: 0.6,
                    wander_tau_secs: 120.0,
                    temp_coeff_ppm_per_c: 0.0,
                    temp_ref_c: 25.0,
                    temperature: clocksim::temperature::TemperatureProfile::room(),
                };
                SimClock::new(cfg.build(SimRng::new(seed)), SimTime::ZERO)
            }
            ClockMode::FreeRunning { skew_tenth_ppm } => {
                let osc = OscillatorConfig::laptop()
                    .with_skew_ppm(skew_tenth_ppm as f64 / 10.0)
                    .build(SimRng::new(seed));
                SimClock::new(osc, SimTime::ZERO)
            }
        }
    }
}

/// Default pool for the experiments.
pub fn default_pool(seed: u64) -> ServerPool {
    ServerPool::new(PoolConfig::default(), seed)
}

/// A plain SNTP sampling run: poll every `poll_secs`, record every
/// reported offset.
#[derive(Clone, Debug, Default)]
pub struct SntpRun {
    /// `(t_secs, reported offset ms)` for every completed exchange.
    pub offsets: Vec<(f64, f64)>,
    /// Failed exchanges (losses/timeouts).
    pub losses: u64,
    /// `(t_secs, true clock error ms)` ground truth.
    pub true_error_ms: Vec<(f64, f64)>,
}

impl SntpRun {
    /// Offset magnitudes, ms.
    pub fn abs_offsets(&self) -> Vec<f64> {
        self.offsets.iter().map(|(_, o)| o.abs()).collect()
    }
}

/// Run plain SNTP for `duration_secs`.
pub fn sntp_run(
    testbed: &mut Testbed,
    pool: &mut ServerPool,
    clock: &mut SimClock,
    duration_secs: u64,
    poll_secs: f64,
) -> SntpRun {
    let mut run = SntpRun::default();
    let polls = (duration_secs as f64 / poll_secs).floor() as u64;
    for i in 0..=polls {
        let t = SimTime::ZERO + SimDuration::from_secs_f64(i as f64 * poll_secs);
        let id = pool.pick();
        match perform_exchange(testbed, pool.server_mut(id), clock, t, ExchangeHooks::default()) {
            Ok(done) => run.offsets.push((t.as_secs_f64(), done.sample.offset.as_millis_f64())),
            Err(_) => run.losses += 1,
        }
        run.true_error_ms.push((t.as_secs_f64(), clock.true_error(t).as_millis_f64()));
    }
    run
}

/// One MNTP event in a paired run.
#[derive(Clone, Debug, PartialEq)]
pub enum MntpEvent {
    /// Gate deferred the query.
    Deferred,
    /// Exchange lost.
    Failed,
    /// Sample accepted; `corrected` is offset − trend prediction (the
    /// residual a drift-corrected clock would show), absent before a
    /// trend exists.
    Accepted {
        /// Raw reported offset, ms.
        offset_ms: f64,
        /// Offset minus trend prediction, ms.
        corrected_ms: Option<f64>,
    },
    /// Sample rejected by the trend filter.
    Rejected {
        /// The rejected offset, ms.
        offset_ms: f64,
    },
}

/// The paired SNTP + MNTP run of the paper's §5.1/§5.2 experiments:
/// both clients sample the same host clock over the same channel.
#[derive(Clone, Debug, Default)]
pub struct PairedRun {
    /// SNTP side: `(t_secs, offset ms)`.
    pub sntp_offsets: Vec<(f64, f64)>,
    /// SNTP losses.
    pub sntp_losses: u64,
    /// MNTP side: `(t_secs, hints, event)`.
    pub mntp_events: Vec<(f64, Option<WirelessHints>, MntpEvent)>,
    /// Trend predictions over time `(t_secs, predicted offset ms)`.
    pub trend: Vec<(f64, f64)>,
    /// Ground-truth clock error `(t_secs, ms)`.
    pub true_error_ms: Vec<(f64, f64)>,
}

impl PairedRun {
    /// Accepted MNTP offsets, ms.
    pub fn mntp_accepted(&self) -> Vec<f64> {
        self.mntp_events
            .iter()
            .filter_map(|(_, _, e)| match e {
                MntpEvent::Accepted { offset_ms, .. } => Some(*offset_ms),
                _ => None,
            })
            .collect()
    }

    /// Corrected (trend-residual) MNTP offsets, ms.
    pub fn mntp_corrected(&self) -> Vec<f64> {
        self.mntp_events
            .iter()
            .filter_map(|(_, _, e)| match e {
                MntpEvent::Accepted { corrected_ms: Some(c), .. } => Some(*c),
                _ => None,
            })
            .collect()
    }

    /// Rejected MNTP offsets, ms.
    pub fn mntp_rejected(&self) -> Vec<f64> {
        self.mntp_events
            .iter()
            .filter_map(|(_, _, e)| match e {
                MntpEvent::Rejected { offset_ms } => Some(*offset_ms),
                _ => None,
            })
            .collect()
    }

    /// Count of deferred MNTP query instants.
    pub fn mntp_deferrals(&self) -> usize {
        self.mntp_events.iter().filter(|(_, _, e)| *e == MntpEvent::Deferred).count()
    }

    /// SNTP offset magnitudes.
    pub fn sntp_abs(&self) -> Vec<f64> {
        self.sntp_offsets.iter().map(|(_, o)| o.abs()).collect()
    }
}

/// Run SNTP and MNTP (the §5.1 baseline configuration: gate + filter,
/// no phases, no drift correction) side by side. `mntp_testbed` may be
/// the same testbed (shared channel) or a different one — the paper's
/// Figures 9/10 compare SNTP on a *wired* network against MNTP on a
/// *wireless* one, hence two testbeds.
#[allow(clippy::too_many_arguments)]
pub fn paired_run(
    sntp_testbed: &mut Testbed,
    mut mntp_testbed: Option<&mut Testbed>,
    pool: &mut ServerPool,
    clock: &mut SimClock,
    duration_secs: u64,
    poll_secs: f64,
    cfg: &MntpConfig,
) -> PairedRun {
    let mut gate = HintGate::new(cfg);
    let mut filter = TrendFilter::new(cfg.filter_sigma, cfg.reestimate_drift);
    let mut run = PairedRun::default();
    let polls = (duration_secs as f64 / poll_secs).floor() as u64;
    for i in 0..=polls {
        let t = SimTime::ZERO + SimDuration::from_secs_f64(i as f64 * poll_secs);
        let t_secs = t.as_secs_f64();

        // --- SNTP side: polls unconditionally ---
        let id = pool.pick();
        match perform_exchange(
            sntp_testbed,
            pool.server_mut(id),
            clock,
            t,
            ExchangeHooks::default(),
        ) {
            Ok(done) => run.sntp_offsets.push((t_secs, done.sample.offset.as_millis_f64())),
            Err(_) => run.sntp_losses += 1,
        }

        // --- MNTP side: same channel unless a second testbed is given ---
        let tb: &mut Testbed = match mntp_testbed.as_deref_mut() {
            Some(other) => other,
            None => &mut *sntp_testbed,
        };
        let hints = tb.hints(t);
        let event = if !gate.favorable(hints.as_ref()) {
            MntpEvent::Deferred
        } else {
            let id = pool.pick();
            match perform_exchange(tb, pool.server_mut(id), clock, t, ExchangeHooks::default()) {
                Ok(done) => {
                    let ms = done.sample.offset.as_millis_f64();
                    let predicted = filter.predict(t_secs);
                    if filter.offer(t_secs, ms) {
                        MntpEvent::Accepted {
                            offset_ms: ms,
                            corrected_ms: predicted.map(|p| ms - p),
                        }
                    } else {
                        MntpEvent::Rejected { offset_ms: ms }
                    }
                }
                Err(_) => MntpEvent::Failed,
            }
        };
        run.mntp_events.push((t_secs, hints, event));

        run.true_error_ms.push((t_secs, clock.true_error(t).as_millis_f64()));
        if let Some(p) = filter.predict(t_secs) {
            run.trend.push((t_secs, p));
        }
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::testbed::TestbedConfig;

    #[test]
    fn sntp_run_records_offsets_and_truth() {
        let mut tb = Testbed::wired(1);
        let mut pool = default_pool(2);
        let mut clock = ClockMode::NtpCorrected.build(3);
        let run = sntp_run(&mut tb, &mut pool, &mut clock, 600, 5.0);
        assert!(run.offsets.len() > 110);
        assert_eq!(run.true_error_ms.len(), 121);
        // NTP-corrected clock: truth stays within a few ms.
        assert!(run.true_error_ms.iter().all(|(_, e)| e.abs() < 10.0));
    }

    #[test]
    fn free_running_clock_drifts() {
        let mut tb = Testbed::wired(4);
        let mut pool = default_pool(5);
        let mut clock = ClockMode::free_running_default().build(6);
        let run = sntp_run(&mut tb, &mut pool, &mut clock, 3600, 5.0);
        let last = run.true_error_ms.last().unwrap().1;
        // 30 ppm for an hour ≈ +108 ms.
        assert!(last > 80.0, "drift {last}");
    }

    #[test]
    fn paired_run_shares_channel_and_splits_verdicts() {
        let mut tb = Testbed::wireless(TestbedConfig::default(), 7);
        let mut pool = default_pool(8);
        let mut clock = ClockMode::NtpCorrected.build(9);
        let cfg = MntpConfig::baseline(5.0);
        let run = paired_run(&mut tb, None, &mut pool, &mut clock, 1800, 5.0, &cfg);
        assert!(!run.sntp_offsets.is_empty());
        assert!(run.mntp_deferrals() > 0);
        assert!(!run.mntp_accepted().is_empty());
        // MNTP accepted max should beat SNTP max decisively.
        let sntp_max = run.sntp_abs().into_iter().fold(0.0f64, f64::max);
        let mntp_max = run.mntp_accepted().iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        assert!(sntp_max > 2.0 * mntp_max, "sntp={sntp_max} mntp={mntp_max}");
    }

    #[test]
    fn paired_run_with_separate_testbeds() {
        let mut wired = Testbed::wired(10);
        let mut wireless = Testbed::wireless(TestbedConfig::default(), 11);
        let mut pool = default_pool(12);
        let mut clock = ClockMode::NtpCorrected.build(13);
        let cfg = MntpConfig::baseline(5.0);
        let run = paired_run(
            &mut wired,
            Some(&mut wireless),
            &mut pool,
            &mut clock,
            900,
            5.0,
            &cfg,
        );
        // SNTP side is wired → no hints recorded there; MNTP side sees
        // wireless hints.
        assert!(run.mntp_events.iter().any(|(_, h, _)| h.is_some()));
        assert!(run.sntp_losses < 10);
    }
}
