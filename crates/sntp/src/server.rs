//! A simulated stratum server.
//!
//! Each [`SimServer`] owns a [`ReferenceClock`] with its own (usually
//! small, occasionally terrible) error, a processing delay, and the wired
//! backbone path between itself and the testbed's uplink. Servers speak
//! real packet bytes: requests are validated as a borrowed
//! [`PacketView`] and replies written by the same allocation-free
//! `ntp-wire` writers [`crate::server_core::ServerCore`] uses, and the
//! RATE decision is netsim's shared [`rate_limited`] check.

use clocksim::rng::SimRng;
use clocksim::time::{SimDuration, SimTime};
use clocksim::ClockControl;
use clocksim::ReferenceClock;
use netsim::fleet::rate_limited;
use netsim::link::Link;
use ntp_wire::{refid::RefId, sntp_profile, PacketView, WireError, PACKET_LEN};

use crate::server_core::RateTable;

/// A simulated NTP server.
pub struct SimServer {
    /// Server index within its pool.
    pub id: usize,
    /// Advertised stratum.
    pub stratum: u8,
    /// Advertised reference id.
    pub refid: RefId,
    /// The server's own clock.
    pub clock: ReferenceClock,
    /// Processing time between receive and transmit.
    pub proc_delay: SimDuration,
    /// Backbone path, client → server direction.
    pub backbone_up: Link,
    /// Backbone path, server → client direction.
    pub backbone_down: Link,
    /// True clock error magnitude this server was built with, ms — ground
    /// truth for validating false-ticker rejection (not visible to
    /// protocol code).
    pub true_error_ms: f64,
    /// RNG stream for this server's backbone links.
    pub rng: SimRng,
    /// Kiss-o'-death rate limiting: minimum spacing between requests
    /// from one client before the server answers `RATE` (public pool
    /// servers enforce exactly this against abusive SNTP clients).
    pub min_poll_interval: Option<SimDuration>,
    /// Per-client arrival times of the previous request (rate-limit
    /// state, keyed the way a real pool server keys it: by source).
    last_request: RateTable,
    /// KoD replies sent (diagnostics).
    pub kod_sent: u64,
}

impl SimServer {
    /// Answer a request that arrived at true time `arrival`. Returns the
    /// reply bytes and the departure time.
    ///
    /// This is the classic single-client pool path: the whole
    /// `pool`/`exchange` stack drives one simulated device against its
    /// server pool, so every request through here is that one device and
    /// rate-limit state is keyed under a single implicit client. For
    /// multi-client use, call [`SimServer::handle_from`] with a distinct
    /// key per source, or requests from different clients would be
    /// conflated into one spacing stream and KoD each other.
    pub fn handle(
        &mut self,
        request_bytes: &[u8],
        arrival: SimTime,
    ) -> Result<([u8; PACKET_LEN], SimTime), WireError> {
        self.handle_from(0, request_bytes, arrival)
    }

    /// Answer a request from a specific client key (source surrogate).
    /// Rate limiting compares this client's arrival spacing only against
    /// its own previous request, exactly like the batched
    /// [`crate::server_core::ServerCore`] pipeline.
    pub fn handle_from(
        &mut self,
        client: u64,
        request_bytes: &[u8],
        arrival: SimTime,
    ) -> Result<([u8; PACKET_LEN], SimTime), WireError> {
        let request = PacketView::new(request_bytes)?;
        let (departure, kod) = self.admit(client, arrival);
        Ok(self.serve(&request, arrival, departure, kod))
    }

    /// The server's own admission rule for a request from `client`
    /// arriving at `arrival`: it departs after the processing delay, and
    /// min-poll rate limiting decides whether it is answered with a RATE
    /// kiss instead of time. Returns `(departure, kod)`.
    pub fn admit(&mut self, client: u64, arrival: SimTime) -> (SimTime, bool) {
        let kod = self.min_poll_interval.is_some_and(|floor| {
            rate_limited(self.last_request.upsert(client, arrival.as_nanos()), arrival, floor)
        });
        (arrival + self.proc_delay, kod)
    }

    /// Answer a validated request with an externally decided fate: the
    /// caller ([`admit`](Self::admit) or a fleet-scale service model)
    /// picks the departure time and whether to send a RATE kiss; this
    /// method only stamps the reply from the server's clock. Timestamp
    /// reads keep their order — KoD reads the clock once at `departure`;
    /// a time reply reads at `arrival` then `departure`.
    pub fn serve(
        &mut self,
        request: &PacketView<'_>,
        arrival: SimTime,
        departure: SimTime,
        kod: bool,
    ) -> ([u8; PACKET_LEN], SimTime) {
        let mut reply = [0u8; PACKET_LEN];
        if kod {
            self.kod_sent += 1;
            let t3 = self.clock.now(departure);
            sntp_profile::write_kod_into(request, RefId::KISS_RATE, t3, &mut reply);
        } else {
            let t2 = self.clock.now(arrival);
            let t3 = self.clock.now(departure);
            sntp_profile::write_server_reply_into(
                request,
                t2,
                t3,
                self.stratum,
                self.refid,
                t2,
                &mut reply,
            );
        }
        (reply, departure)
    }

    /// Build a well-behaved stratum-2 server with a given clock error.
    pub fn with_error_ms(id: usize, error_ms: f64, backbone: (Link, Link), rng: &mut SimRng) -> Self {
        let err = ntp_wire::NtpDuration::from_seconds_f64(error_ms / 1e3);
        SimServer {
            id,
            stratum: 2,
            refid: RefId::ipv4(192, 0, 2, (id % 250) as u8 + 1),
            clock: ReferenceClock::with_wobble(err, 0.3, 300.0, rng.fork(id as u64)),
            proc_delay: SimDuration::from_micros(150),
            backbone_up: backbone.0,
            backbone_down: backbone.1,
            true_error_ms: error_ms,
            rng: rng.fork(1000 + id as u64),
            min_poll_interval: None,
            last_request: RateTable::with_capacity(16),
            kod_sent: 0,
        }
    }

    /// Enable kiss-o'-death rate limiting (builder-style).
    pub fn with_rate_limit(mut self, min_interval: SimDuration) -> Self {
        self.min_poll_interval = Some(min_interval);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::link::DelayModel;
    use ntp_wire::{Exchange, NtpPacket, NtpTimestamp};

    fn server(error_ms: f64) -> SimServer {
        let mut rng = SimRng::new(1);
        let up = Link::lossless(DelayModel::backbone(20.0));
        let down = Link::lossless(DelayModel::backbone(20.0));
        SimServer::with_error_ms(0, error_ms, (up, down), &mut rng)
    }

    #[test]
    fn reply_carries_server_time() {
        let mut s = server(100.0);
        let req = sntp_profile::client_request(NtpTimestamp::from_parts(50, 0)).serialize();
        let arrival = SimTime::from_secs(1000);
        let (reply_bytes, departure) = s.handle(&req, arrival).unwrap();
        assert_eq!(departure, arrival + SimDuration::from_micros(150));
        let reply = NtpPacket::parse(&reply_bytes).unwrap();
        assert_eq!(reply.stratum, 2);
        assert_eq!(reply.origin_ts, NtpTimestamp::from_parts(50, 0));
        // Server clock error ≈ 100 ms: t2 should be ≈ true arrival + 100 ms.
        let diff = reply.receive_ts.wrapping_sub(arrival.to_ntp());
        assert!((diff.as_millis_f64() - 100.0).abs() < 3.0, "diff={diff:?}");
    }

    #[test]
    fn t3_after_t2_by_processing_delay() {
        let mut s = server(0.0);
        let req = sntp_profile::client_request(NtpTimestamp::from_parts(1, 0)).serialize();
        let (reply_bytes, _) = s.handle(&req, SimTime::from_secs(10)).unwrap();
        let reply = NtpPacket::parse(&reply_bytes).unwrap();
        let proc = reply.transmit_ts.wrapping_sub(reply.receive_ts);
        assert!((proc.as_seconds_f64() - 150e-6).abs() < 20e-6, "proc={proc:?}");
    }

    #[test]
    fn garbage_request_rejected() {
        let mut s = server(0.0);
        assert!(s.handle(&[1, 2, 3], SimTime::ZERO).is_err());
    }

    #[test]
    fn rate_limited_server_sends_kod() {
        let mut s = server(0.0).with_rate_limit(SimDuration::from_secs(8));
        let req = sntp_profile::client_request(NtpTimestamp::from_parts(1, 0)).serialize();
        // First request: normal reply.
        let (r1, _) = s.handle(&req, SimTime::from_secs(10)).unwrap();
        assert!(!NtpPacket::parse(&r1).unwrap().is_kiss_of_death());
        // Second request 2 s later: RATE.
        let (r2, _) = s.handle(&req, SimTime::from_secs(12)).unwrap();
        let kod = NtpPacket::parse(&r2).unwrap();
        assert!(kod.is_kiss_of_death());
        assert_eq!(kod.reference_id.as_kiss_code(), Some(*b"RATE"));
        assert_eq!(s.kod_sent, 1);
        // After backing off, service resumes.
        let (r3, _) = s.handle(&req, SimTime::from_secs(30)).unwrap();
        assert!(!NtpPacket::parse(&r3).unwrap().is_kiss_of_death());
    }

    /// Two clients interleaving requests must not trip each other's rate
    /// limit: each polls at a compliant 10 s cadence, but their combined
    /// arrival stream at the server is one request every 5 s — under the
    /// 8 s minimum. With the old single-slot `last_request` this KoD'd
    /// every request after the first; per-client keying serves them all.
    #[test]
    fn interleaved_clients_do_not_kod_each_other() {
        let mut s = server(0.0).with_rate_limit(SimDuration::from_secs(8));
        let req = sntp_profile::client_request(NtpTimestamp::from_parts(1, 0)).serialize();
        for i in 0..8i64 {
            let client = (i % 2) as u64 + 1;
            let arrival = SimTime::from_secs(i * 5);
            let (reply, _) = s.handle_from(client, &req, arrival).unwrap();
            assert!(
                !NtpPacket::parse(&reply).unwrap().is_kiss_of_death(),
                "client {client} KoD'd at t={}s by its peer's traffic",
                i * 5
            );
        }
        assert_eq!(s.kod_sent, 0);
        // The limit still bites a genuinely abusive client.
        let (reply, _) = s.handle_from(1, &req, SimTime::from_secs(37)).unwrap();
        assert!(NtpPacket::parse(&reply).unwrap().is_kiss_of_death());
        assert_eq!(s.kod_sent, 1);
    }

    #[test]
    fn client_rejects_kod_replies() {
        use crate::client::SntpClient;
        let mut s = server(0.0).with_rate_limit(SimDuration::from_secs(60));
        let mut c = SntpClient::new();
        let t1 = NtpTimestamp::from_parts(5, 0);
        let req = c.make_request(t1);
        s.handle(&req, SimTime::from_secs(1)).unwrap();
        // Immediately again: KoD, which the RFC 4330 checks must reject.
        let req = c.make_request(t1);
        let (kod_bytes, _) = s.handle(&req, SimTime::from_secs(2)).unwrap();
        assert!(c.on_reply(&kod_bytes, NtpTimestamp::from_parts(6, 0)).is_err());
        assert_eq!(c.rejected(), 1);
    }

    /// Every admission decision the three servers make, folded into one
    /// FNV digest:
    /// - `ServerModel` at gaps of floor − 1 ns, floor and floor + 1 ns on
    ///   each of its 2/16/64 s floors, and over generated arrival streams
    ///   (same-instant bursts, out-of-order arrivals, restarts), with the
    ///   ladder off and on; conservation is checked after every arrival;
    /// - `SimServer::handle_from` reply bytes, errors and `kod_sent`, rate
    ///   limiting off and on;
    /// - the `ServerCore` reply stream, fates and counters with
    ///   `min_poll_interval` off and on.
    #[test]
    fn server_admission_is_pinned() {
        use crate::exchange::tests::Fnv;
        use crate::server_core::{CoreConfig, ReplyRing, RequestRing, ServerCore};
        use netsim::fleet::{DegradationConfig, ServerModel, ServerModelConfig, ServiceDecision};
        use ntp_wire::NtpDuration;

        fn arrive(h: &mut Fnv, m: &mut ServerModel, client: u32, at: SimTime) {
            match m.on_arrival(client, at) {
                ServiceDecision::Dropped => h.word(0),
                ServiceDecision::Served { depart, kod } => {
                    h.word(1 + u64::from(kod));
                    h.word(depart.as_nanos() as u64);
                }
            }
            let s = m.stats;
            assert_eq!(s.arrivals, s.served + s.kod_sent + s.dropped + s.shed);
        }
        fn model_stats(h: &mut Fnv, m: &ServerModel) {
            let s = m.stats;
            for v in [s.arrivals, s.served, s.dropped, s.kod_sent, s.shed, s.restarts] {
                h.word(v);
            }
            h.word(s.peak_backlog as u64);
        }
        /// SNTP, ntpd-shaped (v3, poll 6) or malformed request bytes.
        fn request(kind: u64, t: SimTime) -> Vec<u8> {
            let sntp = sntp_profile::client_request(t.to_ntp());
            match kind {
                0 => NtpPacket { version: ntp_wire::Version(3), poll: 6, ..sntp }.serialize(),
                1 => vec![0x1b; 20],
                2 => vec![0u8; 48],
                3 => vec![0x20; 48],
                _ => sntp.serialize(),
            }
        }

        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        // The default ladder ramps at backlog 16.
        let ladders = [None, Some(DegradationConfig::default())];

        // Floors: with a 100 s service time the background arrivals stay
        // queued, so the probe's second poll sees backlog 1 (hard floor),
        // 19 (ramp rung) or 27 (overload).
        for ladder in ladders {
            for background in [0u32, 18, 26] {
                for floor_s in [2i64, 16, 64] {
                    for delta_ns in [-1i64, 0, 1] {
                        let mut m = ServerModel::new(ServerModelConfig {
                            service_time: SimDuration::from_secs(100),
                            overload_backlog: 24,
                            ladder,
                            ..ServerModelConfig::default()
                        });
                        let t0 = SimTime::from_secs(10);
                        for c in 1..=background {
                            arrive(&mut h, &mut m, c, t0);
                        }
                        arrive(&mut h, &mut m, 0, t0);
                        let gap = SimDuration(floor_s * 1_000_000_000 + delta_ns);
                        arrive(&mut h, &mut m, 0, t0 + gap);
                        model_stats(&mut h, &m);
                    }
                }
            }
        }

        // Generated streams: 24 clients against a quiet and a loaded
        // server, so every rung, the shed and the drop all fire.
        let loaded = ServerModelConfig {
            queue_capacity: 40,
            service_time: SimDuration::from_millis(150),
            overload_backlog: 28,
            ..ServerModelConfig::default()
        };
        for ladder in ladders {
            for base in [ServerModelConfig::default(), loaded.clone()] {
                for seed in 0..3u64 {
                    let mut rng = SimRng::new(seed);
                    let mut m = ServerModel::new(ServerModelConfig { ladder, ..base.clone() });
                    let mut t = SimTime::from_secs(1);
                    for _ in 0..600 {
                        t = match rng.below(16) {
                            0..=3 => t,
                            4 => t + SimDuration::from_millis(-5),
                            5 => t + SimDuration::from_secs(2) + SimDuration(rng.int_range(-1, 1)),
                            _ => t + SimDuration::from_millis(rng.below(60) as i64),
                        };
                        if rng.below(150) == 0 {
                            m.restart(t);
                            h.word(99);
                        }
                        arrive(&mut h, &mut m, rng.below(24) as u32, t);
                    }
                    model_stats(&mut h, &m);
                    h.word(m.backlog() as u64);
                }
            }
        }

        // SimServer: wobbling clock, four clients, every request kind.
        for rate in [None, Some(SimDuration::from_secs(8))] {
            let mut s = server(12.5);
            s.min_poll_interval = rate;
            let mut rng = SimRng::new(7);
            let mut t = SimTime::from_secs(10);
            for _ in 0..300 {
                t += SimDuration::from_millis(rng.below(6000) as i64);
                let client = rng.below(4);
                match s.handle_from(client, &request(rng.below(8), t), t) {
                    Ok((reply, departure)) => {
                        h.word(0);
                        h.bytes(&reply);
                        h.word(departure.as_nanos() as u64);
                    }
                    Err(e) => {
                        h.word(1);
                        h.bytes(format!("{e:?}").as_bytes());
                    }
                }
            }
            h.word(s.kod_sent);
        }

        // ServerCore: six 64-request batches, serial and sharded.
        for min_poll_interval in [None, Some(SimDuration::from_secs(4))] {
            for shards in [1usize, 4] {
                let mut core = ServerCore::new(CoreConfig {
                    min_poll_interval,
                    clock_error: NtpDuration::from_millis(3),
                    shards,
                    ..CoreConfig::default()
                });
                let mut out = ReplyRing::new();
                let mut rng = SimRng::new(21);
                let mut t = SimTime::from_secs(5);
                for _ in 0..6 {
                    let mut reqs = RequestRing::with_capacity(64);
                    for _ in 0..64 {
                        t += SimDuration::from_millis(rng.below(400) as i64);
                        let client = rng.below(16);
                        reqs.push(client, t, &request(rng.below(8), t));
                    }
                    core.process_batch(&reqs, &mut out);
                    h.bytes(out.as_bytes());
                    for fate in out.fates() {
                        h.bytes(format!("{fate:?}").as_bytes());
                    }
                }
                let st = core.stats();
                for v in [st.served, st.kod, st.malformed, st.sntp_shaped, st.other_shaped, st.total()] {
                    h.word(v);
                }
                h.word(core.clients_tracked() as u64);
            }
        }
        assert_eq!(h.0, 9_391_712_502_999_489_160, "pinned server admission digest moved");
    }

    #[test]
    fn end_to_end_offset_equals_server_error_on_symmetric_path() {
        // Client clock = truth; symmetric 10 ms legs; server ahead 75 ms.
        let mut s = server(75.0);
        let t_send = SimTime::from_secs(500);
        let t1 = t_send.to_ntp();
        let req = sntp_profile::client_request(t1).serialize();
        let arrival = t_send + SimDuration::from_millis(10);
        let (reply_bytes, departure) = s.handle(&req, arrival).unwrap();
        let t4_true = departure + SimDuration::from_millis(10);
        let reply = NtpPacket::parse(&reply_bytes).unwrap();
        let ex = Exchange::from_reply(&reply, t4_true.to_ntp());
        assert!((ex.offset().as_millis_f64() - 75.0).abs() < 3.0, "offset={:?}", ex.offset());
        assert!((ex.delay().as_millis_f64() - 20.0).abs() < 1.0);
    }
}
