//! The §3.2 laboratory study in miniature: how much does a wireless last
//! hop hurt SNTP, and what do the wireless hints look like while it
//! happens?
//!
//! ```text
//! cargo run --release --example wireless_lab
//! ```

use mntp_repro::clocksim::time::SimTime;
use mntp_repro::clocksim::{stats, OscillatorConfig, SimClock, SimRng};
use mntp_repro::netsim::testbed::TestbedConfig;
use mntp_repro::netsim::Testbed;
use mntp_repro::sntp::{perform_exchange, ExchangeHooks, PoolConfig, ServerPool};

fn run_sntp(testbed: &mut Testbed, seed: u64, minutes: u64) -> Vec<f64> {
    let mut pool = ServerPool::new(PoolConfig::default(), seed);
    let osc = OscillatorConfig::perfect().build(SimRng::new(seed + 1));
    let mut clock = SimClock::new(osc, SimTime::ZERO);
    let mut offsets = Vec::new();
    for i in 0..minutes * 12 {
        let t = SimTime::from_secs(i as i64 * 5);
        let id = pool.pick();
        if let Ok(done) = perform_exchange(
            testbed,
            pool.server_mut(id),
            &mut clock,
            t,
            ExchangeHooks::default(),
        ) {
            offsets.push(done.sample.offset.as_millis_f64());
        }
    }
    offsets
}

fn main() {
    let minutes = 30;

    let mut wired = Testbed::wired(1);
    let wired_offsets = run_sntp(&mut wired, 2, minutes);
    let w = stats::Summary::of(&wired_offsets);
    println!("wired    SNTP ({} min): mean {:+.1} ms, σ {:.1} ms, worst {:+.1} ms", minutes, w.mean, w.std, w.max_abs());

    let mut wireless = Testbed::wireless(TestbedConfig::default(), 3);
    let wl_offsets = run_sntp(&mut wireless, 2, minutes);
    let l = stats::Summary::of(&wl_offsets);
    println!("wireless SNTP ({} min): mean {:+.1} ms, σ {:.1} ms, worst {:+.1} ms", minutes, l.mean, l.std, l.max_abs());

    // Show the channel's mood swings: hints sampled once a minute.
    println!("\nwireless hints over time (the monitor node is stirring the channel):");
    println!("{:>6}  {:>8}  {:>8}  {:>6}  gate", "t(s)", "rssi", "noise", "snr");
    let mut tb = Testbed::wireless(TestbedConfig::default(), 3);
    for i in 0..minutes {
        let t = SimTime::from_secs(i as i64 * 60);
        let h = tb.hints(t).expect("wireless testbed has hints");
        let pass = h.rssi_dbm > -75.0 && h.noise_dbm < -70.0 && h.snr_margin_db() >= 20.0;
        println!(
            "{:>6}  {:>8.1}  {:>8.1}  {:>6.1}  {}",
            t.as_secs_f64(),
            h.rssi_dbm,
            h.noise_dbm,
            h.snr_margin_db(),
            if pass { "open" } else { "DEFER" }
        );
    }
}
