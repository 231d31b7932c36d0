//! The §2 vendor behaviours: how far does a phone's clock wander under
//! Android's and Windows Mobile's real SNTP policies?
//!
//! ```text
//! cargo run --release --example vendor_policies
//! ```

use mntp_repro::clocksim::time::SimTime;
use mntp_repro::clocksim::{ClockControl, OscillatorConfig, SimClock, SimRng};
use mntp_repro::netsim::Testbed;
use mntp_repro::sntp::vendor::{VendorAction, VendorClient, VendorPolicy};
use mntp_repro::sntp::{perform_exchange, ExchangeHooks, PoolConfig, ServerPool};

fn simulate(label: &str, policy: VendorPolicy, days: u64, seed: u64) {
    let mut tb = Testbed::wired(seed);
    let mut pool = ServerPool::new(PoolConfig::default(), seed + 1);
    let osc = OscillatorConfig::phone().build(SimRng::new(seed + 2));
    let mut clock = SimClock::new(osc, SimTime::ZERO);
    let mut client = VendorClient::new(policy, clock.now(SimTime::ZERO));

    let mut worst: f64 = 0.0;
    let mut polls = 0u64;
    let mut t_secs = 0i64;
    while t_secs <= (days * 86_400) as i64 {
        let t = SimTime::from_secs(t_secs);
        if client.on_tick(clock.now(t)) == VendorAction::SendRequest {
            polls += 1;
            let id = pool.pick();
            match perform_exchange(
                &mut tb,
                pool.server_mut(id),
                &mut clock,
                t,
                ExchangeHooks::default(),
            ) {
                Ok(done) => {
                    if let Some(cmd) = client.on_success(clock.now(t), &done.sample) {
                        cmd.apply(&mut clock, t);
                    }
                }
                Err(_) => client.on_failure(clock.now(t)),
            }
        }
        worst = worst.max(clock.true_error(t).as_millis_f64().abs());
        t_secs += 300;
    }
    println!(
        "{label:<42} polls={polls:<4} worst clock error = {:.0} ms ({} updates applied, {} suppressed)",
        worst, client.updates_applied, client.updates_suppressed
    );
}

fn main() {
    let days = 5;
    println!("simulating {days} days on a phone-grade crystal (≈18 ppm fast)…\n");
    simulate("Android KitKat (daily, 5 s threshold)", VendorPolicy::android_kitkat(), days, 1);
    simulate("Windows Mobile (weekly, no retries)", VendorPolicy::windows_mobile(), days, 2);
    simulate("hourly poll, no threshold", VendorPolicy::measurement(3600), days, 3);
    println!(
        "\nThe 5-second Android threshold means the clock must drift >5 s before it is\n\
         ever corrected — §2's explanation for why mobile clocks are so poorly synced."
    );
}
