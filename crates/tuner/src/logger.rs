//! The tuner's logging component.
//!
//! "The logging component runs on the TN of our testbed and emits SNTP
//! requests to multiple reference clocks every 5 seconds and records the
//! responses in the form of traces. It also records the corresponding
//! wireless hints from the channel every time an SNTP request is
//! emitted." (§5.3)

use clocksim::time::{SimDuration, SimTime};
use clocksim::SimClock;
use netsim::Testbed;
use sntp::{perform_exchange, ExchangeHooks, ServerPool};

use crate::trace::{Trace, TraceRow};

/// Record a trace: query `sources` distinct pool servers every
/// `interval_secs` for `duration_secs`, logging hints and per-source
/// offsets. The clock is read but never corrected (the trace captures
/// the free-running drift the emulator will have to estimate).
pub fn record_trace(
    testbed: &mut Testbed,
    pool: &mut ServerPool,
    clock: &mut SimClock,
    duration_secs: u64,
    interval_secs: f64,
    sources: usize,
) -> Trace {
    let mut trace = Trace { rows: Vec::new(), interval_secs };
    let n = (duration_secs as f64 / interval_secs).floor() as u64;
    for i in 0..=n {
        let t = SimTime::ZERO + SimDuration::from_secs_f64(i as f64 * interval_secs);
        let hints = testbed.hints(t);
        let ids = pool.pick_distinct(sources);
        let offsets_ms = ids
            .into_iter()
            .map(|id| {
                perform_exchange(testbed, pool.server_mut(id), clock, t, ExchangeHooks::default())
                    .ok()
                    .map(|done| done.sample.offset.as_millis_f64())
            })
            .collect();
        trace.rows.push(TraceRow { t_secs: t.as_secs_f64(), hints, offsets_ms });
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use clocksim::{OscillatorConfig, SimRng};
    use netsim::testbed::TestbedConfig;
    use sntp::PoolConfig;

    fn setup(seed: u64) -> (Testbed, ServerPool, SimClock) {
        let tb = Testbed::wireless(TestbedConfig::default(), seed);
        let pool = ServerPool::new(PoolConfig::default(), seed + 1);
        let osc = OscillatorConfig::laptop().with_skew_ppm(20.0).build(SimRng::new(seed + 2));
        let clock = SimClock::new(osc, SimTime::ZERO);
        (tb, pool, clock)
    }

    #[test]
    fn trace_has_expected_shape() {
        let (mut tb, mut pool, mut clock) = setup(1);
        let trace = record_trace(&mut tb, &mut pool, &mut clock, 600, 5.0, 3);
        assert_eq!(trace.rows.len(), 121);
        assert!(trace.rows.iter().all(|r| r.offsets_ms.len() == 3));
        assert!(trace.rows.iter().all(|r| r.hints.is_some()), "wireless testbed has hints");
        // Most rows should carry at least one response.
        let with_any = trace.rows.iter().filter(|r| !r.responses().is_empty()).count();
        assert!(with_any > 60, "responses={with_any}");
    }

    #[test]
    fn trace_shows_the_drift() {
        let (mut tb, mut pool, mut clock) = setup(3);
        let trace = record_trace(&mut tb, &mut pool, &mut clock, 3600, 5.0, 3);
        // 20 ppm over an hour = −72 ms of offset trend (clock fast →
        // servers appear behind). Compare early vs late medians.
        let median_of = |rows: &[crate::trace::TraceRow]| {
            let mut v: Vec<f64> = rows.iter().flat_map(|r| r.responses()).collect();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[v.len() / 2]
        };
        let early = median_of(&trace.rows[..120]);
        let late = median_of(&trace.rows[trace.rows.len() - 120..]);
        // The drift (−72 ms over the hour) must dominate the channel's
        // bloat noise in the medians.
        assert!(late < early - 25.0, "early={early} late={late}");
    }

    #[test]
    fn roundtrips_through_text() {
        let (mut tb, mut pool, mut clock) = setup(5);
        let trace = record_trace(&mut tb, &mut pool, &mut clock, 120, 5.0, 3);
        let parsed = Trace::from_text(&trace.to_text()).unwrap();
        assert_eq!(parsed.rows.len(), trace.rows.len());
        for (a, b) in parsed.rows.iter().zip(&trace.rows) {
            assert_eq!(a.offsets_ms.iter().filter(|o| o.is_some()).count(),
                       b.offsets_ms.iter().filter(|o| o.is_some()).count());
        }
    }
}
