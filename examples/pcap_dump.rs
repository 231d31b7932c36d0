//! Capture ten minutes of simulated SNTP traffic to a real `.pcap` file —
//! open it in Wireshark, or point the same tcpdump-derived tooling the
//! paper's §3.1 pipeline used at it.
//!
//! ```text
//! cargo run --release --example pcap_dump
//! wireshark sntp_capture.pcap        # or: tcpdump -r sntp_capture.pcap
//! ```

use std::fs::File;
use std::io::BufWriter;

use mntp_repro::clocksim::time::SimTime;
use mntp_repro::clocksim::{OscillatorConfig, SimClock, SimRng};
use mntp_repro::netsim::pcap::{Endpoint, PcapWriter};
use mntp_repro::netsim::testbed::TestbedConfig;
use mntp_repro::netsim::Testbed;
use mntp_repro::sntp::{perform_exchange, ExchangeHooks, PoolConfig, ServerPool};

fn main() -> std::io::Result<()> {
    let mut testbed = Testbed::wireless(TestbedConfig::default(), 5);
    let mut pool = ServerPool::new(PoolConfig::default(), 6);
    let osc = OscillatorConfig::laptop().with_skew_ppm(20.0).build(SimRng::new(7));
    let mut clock = SimClock::new(osc, SimTime::ZERO);

    let client_ep = Endpoint::of([192, 168, 1, 23], 52_123);
    let path = "sntp_capture.pcap";
    let mut pcap = PcapWriter::new(BufWriter::new(File::create(path)?))?;

    let mut lost = 0u32;
    for i in 0..120 {
        let t = SimTime::from_secs(i * 5);
        let server_id = pool.pick();
        // Give each pool server a distinct plausible address.
        let server_ep = Endpoint::of([203, 0, 113, (server_id as u8) + 1], 123);
        let mut capture = Vec::new();
        let hooks = ExchangeHooks { capture: Some(&mut capture), ..Default::default() };
        let outcome =
            perform_exchange(&mut testbed, pool.server_mut(server_id), &mut clock, t, hooks);
        for pkt in capture {
            let (src, dst) = if pkt.outbound { (client_ep, server_ep) } else { (server_ep, client_ep) };
            pcap.record_udp(pkt.at, src, dst, &pkt.bytes)?;
        }
        if outcome.is_err() {
            lost += 1;
        }
    }
    let packets = pcap.packets();
    pcap.finish()?;
    println!("wrote {packets} NTP packets (over {lost} lost exchanges) to {path}");
    println!("inspect with: tcpdump -r {path} | head");
    Ok(())
}
