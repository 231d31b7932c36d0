//! The SNTP round trip, factored into three phases.
//!
//! Every exchange in the workspace runs these three functions in order,
//! whether it is one testbed device ([`crate::perform_exchange`]) or one
//! client among many in a sharded fleet:
//!
//! 1. [`begin_fleet_exchange`] — client side: stamp `t1`, shape the
//!    request, pay the last-hop uplink. Touches only the client's own
//!    clock and channel → safe to run shard-parallel.
//! 2. [`serve_fleet_exchange`] — server side: backbone up, admission,
//!    serve, backbone down. Admission is a
//!    [`netsim::fleet::ServerModel`] capacity decision (which can drop
//!    the request on backlog overflow or answer a RATE kiss under load)
//!    or, without a model, the server's own min-poll rule. Touches the
//!    shared server state → the fleet runner executes these serially in
//!    global client-id order.
//! 3. [`complete_fleet_exchange`] — client side again: last-hop
//!    downlink, stamp `t4`, classify the reply → shard-parallel.
//!
//! The last hop is any [`ChannelIo`]: one lane of a shared
//! [`netsim::fleet::FleetNet`], a standalone `WifiChannel`, or the whole
//! `Testbed`. [`ExchangeHooks`] carry the single-device extras through
//! the phases — a fault layer consulted between the hops, a per-query
//! timeout and a packet capture; fleets run with the null default.
//! Alongside the client-side outcome, phase 2 emits the *server-side*
//! observation — the raw request bytes and true arrival time — so a
//! simulated fleet produces exactly the kind of log the paper's §3.1
//! measurement pipeline consumes.

use clocksim::time::{SimDuration, SimTime};
use clocksim::ClockControl;
use netsim::faults::{FaultInjector, PacketFate};
use netsim::fleet::{ServerModel, ServiceDecision};
use netsim::wifi::ChannelIo;
use ntp_wire::{refid::RefId, NtpDuration, NtpPacket, NtpShort, PacketView, PACKET_LEN};

use crate::client::{ReplyOutcome, SntpClient};
use crate::exchange::{CompletedExchange, ExchangeError, ExchangeHooks, TracedPacket};
use crate::server::SimServer;

/// On-the-wire shape of the request a fleet client emits.
///
/// "SNTP sets all fields in an NTP packet to zero except the first
/// octet" (§2); a full NTP implementation populates stratum, poll,
/// precision and the root/reference fields. Shaping requests lets the
/// synthetic server log exercise the same packet-shape classifier the
/// paper ran over tcpdump output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestShape {
    /// RFC 4330 minimal client request.
    Sntp,
    /// Full-NTP-shaped client request (populated header fields).
    Ntpd,
}

/// Server-side record of one arrival, as a capture at the server would
/// see it — plus the service decision for rate accounting.
#[derive(Clone, Debug)]
pub struct FleetArrival {
    /// Fleet client id.
    pub client_id: u32,
    /// Which server the request reached.
    pub server_id: usize,
    /// True arrival time at the server.
    pub at: SimTime,
    /// Raw request bytes as captured.
    pub request: Vec<u8>,
    /// The request was dropped for backlog overflow (no reply).
    pub dropped: bool,
    /// The reply was a RATE kiss-o'-death.
    pub kod: bool,
}

/// Give an SNTP-shaped request the header of a full NTP client
/// (stratum/poll/precision/root/reference fields populated), keeping
/// the transmit timestamp so the origin-echo check still passes.
fn ntpd_shape(request: &mut NtpPacket, client_id: u32) {
    request.stratum = 3;
    request.poll = 6;
    request.precision = -20;
    request.root_delay = NtpShort::from_millis(30);
    request.root_dispersion = NtpShort::from_millis(15);
    request.reference_id = RefId::ipv4(198, 51, 100, (client_id % 250) as u8 + 1);
    request.reference_ts = request
        .transmit_ts
        .wrapping_add_duration(NtpDuration::from_seconds_f64(-64.0));
}

/// A request that has left the station but not yet crossed the backbone:
/// everything phase 2 (the server side) and phase 3 (reply completion)
/// need from phase 1.
#[derive(Clone, Debug)]
pub struct FleetRequestInFlight {
    /// The client protocol state (holds the origin timestamp for the
    /// echo check on the reply).
    pub client: SntpClient,
    /// Serialized (possibly ntpd-shaped) request bytes, as a capture
    /// would record them.
    pub request_bytes: Vec<u8>,
    /// Last-hop uplink delay already paid.
    pub hop_up: SimDuration,
    /// Effective transmit instant (`t` clamped forward to the client
    /// clock's position).
    pub t_eff: SimTime,
    /// The server the request is addressed to.
    pub server_id: usize,
}

/// A reply that has left the server but not yet crossed the last hop:
/// everything phase 3 needs from phase 2.
#[derive(Clone, Debug)]
pub struct FleetReplyInFlight {
    /// Reply bytes, as they will land (corrupted in flight when the
    /// fault layer says so).
    pub reply_bytes: [u8; PACKET_LEN],
    /// True departure time of the reply at the server.
    pub departure: SimTime,
    /// Backbone downlink delay already paid, extra fault-layer delay
    /// included.
    pub bb_down: SimDuration,
    /// Arrival time at the WAP (`departure + bb_down`).
    pub at_wap: SimTime,
    /// True forward path delay (`hop_up + bb_up` plus any extra
    /// fault-layer delay), for ground truth.
    pub fwd: SimDuration,
    /// The fault layer duplicated the reply: a second copy lands right
    /// behind the first.
    pub duplicate: bool,
}

/// The error a fault-layer drop at `t` surfaces as: a server outage
/// blackholes the packet, a loss storm looks like last-hop loss.
fn fault_drop(
    faults: &FaultInjector,
    t: SimTime,
    server: usize,
    lost: ExchangeError,
) -> ExchangeError {
    if faults.outage_active(t, server) {
        ExchangeError::Blackholed
    } else {
        lost
    }
}

/// Phase 1 (client side): stamp `t1`, shape and serialize the request,
/// pay the last-hop uplink.
///
/// A capture records the request as it leaves, even if it is then
/// lost. The fault layer's uplink check sits between the stamp and the
/// last-hop draw, so a request it drops never draws the channel.
pub fn begin_fleet_exchange<C: ChannelIo>(
    chan: &mut C,
    clock: &mut dyn ClockControl,
    client_id: u32,
    server_id: usize,
    t: SimTime,
    shape: RequestShape,
    hooks: &mut ExchangeHooks<'_>,
) -> Result<FleetRequestInFlight, ExchangeError> {
    // A request cannot depart at a time the clock has already passed
    // (e.g. another client on the same host just finished an exchange
    // that advanced it). Without this clamp, T1 would be stamped with a
    // *later* clock state than the nominal departure time, biasing the
    // measured offset by half the discrepancy.
    let t = t.max(clock.position());
    let mut client = SntpClient::new();
    let t1 = clock.now(t);
    let mut request_bytes = client.make_request(t1);
    if shape == RequestShape::Ntpd {
        let Ok(mut request) = NtpPacket::parse(&request_bytes) else {
            return Err(ExchangeError::RejectedReply);
        };
        ntpd_shape(&mut request, client_id);
        request_bytes = request.serialize();
    }
    if let Some(capture) = hooks.capture.as_deref_mut() {
        capture.push(TracedPacket { at: t, outbound: true, bytes: request_bytes.clone() });
    }
    if let Some(faults) = hooks.faults.as_deref_mut() {
        if faults.uplink_fate(t, server_id) == PacketFate::Drop {
            return Err(fault_drop(faults, t, server_id, ExchangeError::LostLastHopUp));
        }
    }

    // Client → WAP over this client's last hop.
    let Some(hop_up) = chan.transmit_up(t) else {
        return Err(ExchangeError::LostLastHopUp);
    };
    Ok(FleetRequestInFlight { client, request_bytes, hop_up, t_eff: t, server_id })
}

/// Phase 2 (server side): backbone uplink, admission, service, backbone
/// downlink. Touches shared server state — the fleet runner calls this
/// serially in global client-id order.
///
/// Admission is `model`'s capacity decision when one fronts the server,
/// else the server's own min-poll rule ([`SimServer::admit`]). Returns
/// the server-side arrival observation (when the request reached the
/// server at all) alongside the in-flight reply. A
/// [`ServiceDecision::Dropped`] request surfaces to the client as
/// [`ExchangeError::Blackholed`] — from the phone's point of view a
/// queue-overflow drop and a blackholed packet are indistinguishable.
///
/// The fault layer adds its extra uplink delay after the backbone draw,
/// decides the reply's fate after service, and adds its extra downlink
/// delay to the backbone leg.
pub fn serve_fleet_exchange(
    inflight: &FleetRequestInFlight,
    server: &mut SimServer,
    model: Option<&mut ServerModel>,
    client_id: u32,
    hooks: &mut ExchangeHooks<'_>,
) -> (Option<FleetArrival>, Result<FleetReplyInFlight, ExchangeError>) {
    // Phase 1 built these bytes, so they always validate.
    let Ok(request) = PacketView::new(&inflight.request_bytes) else {
        return (None, Err(ExchangeError::RejectedReply));
    };
    // WAP → server across the backbone.
    let bb_up = {
        let SimServer { backbone_up, rng, .. } = server;
        backbone_up.transmit(rng)
    };
    let Some(bb_up) = bb_up else {
        return (None, Err(ExchangeError::LostBackboneUp));
    };
    let mut fwd = inflight.hop_up + bb_up;
    if let Some(faults) = hooks.faults.as_deref() {
        fwd = fwd + faults.extra_delay_up(inflight.t_eff);
    }
    let arrival_at = inflight.t_eff + fwd;

    let mut arrival = FleetArrival {
        client_id,
        server_id: server.id,
        at: arrival_at,
        request: inflight.request_bytes.clone(),
        dropped: false,
        kod: false,
    };
    let (depart, kod) = match model.map(|m| m.on_arrival(client_id, arrival_at)) {
        Some(ServiceDecision::Dropped) => {
            arrival.dropped = true;
            return (Some(arrival), Err(ExchangeError::Blackholed));
        }
        Some(ServiceDecision::Served { depart, kod }) => (depart, kod),
        None => server.admit(u64::from(client_id), arrival_at),
    };
    arrival.kod = kod;
    let (mut reply_bytes, departure) = server.serve(&request, arrival_at, depart, kod);

    let fate = match hooks.faults.as_deref_mut() {
        Some(faults) => match faults.downlink_fate(departure, server.id) {
            PacketFate::Drop => {
                let lost = fault_drop(faults, departure, server.id, ExchangeError::LostLastHopDown);
                return (Some(arrival), Err(lost));
            }
            fate => fate,
        },
        None => PacketFate::Deliver,
    };
    if fate == PacketFate::Corrupt {
        // Flip the origin-timestamp field: the packet still parses but
        // cannot pass the bogus-reply check.
        if let Some(origin) = reply_bytes.get_mut(24..32) {
            for b in origin {
                *b ^= 0xFF;
            }
        }
    }

    // Server → WAP.
    let bb_down = {
        let SimServer { backbone_down, rng, .. } = server;
        backbone_down.transmit(rng)
    };
    let Some(mut bb_down) = bb_down else {
        return (Some(arrival), Err(ExchangeError::LostBackboneDown));
    };
    if let Some(faults) = hooks.faults.as_deref() {
        bb_down = bb_down + faults.extra_delay_down(departure);
    }
    let at_wap = departure + bb_down;
    let duplicate = fate == PacketFate::Duplicate;
    let reply = FleetReplyInFlight { reply_bytes, departure, bb_down, at_wap, fwd, duplicate };
    (Some(arrival), Ok(reply))
}

/// Phase 3 (client side): last-hop downlink, stamp `t4`, classify the
/// reply.
///
/// The downlink is sampled at the reply's arrival at the WAP, so it sees
/// the channel state of that moment. A capture records the reply as it
/// lands. If it lands after the hooks' timeout, the request is
/// abandoned (`Err(Timeout)`) and the late reply is fed to the client
/// anyway — it must be rejected, exactly like a stale packet on real
/// hardware; a duplicated reply's second copy is handled the same way
/// after the first is consumed.
pub fn complete_fleet_exchange<C: ChannelIo>(
    chan: &mut C,
    clock: &mut dyn ClockControl,
    inflight: &mut FleetRequestInFlight,
    reply: &FleetReplyInFlight,
    hooks: &mut ExchangeHooks<'_>,
) -> Result<CompletedExchange, ExchangeError> {
    let Some(hop_down) = chan.transmit_down(reply.at_wap) else {
        return Err(ExchangeError::LostLastHopDown);
    };
    let back = reply.bb_down + hop_down;
    let completed_at = reply.departure + back;
    if let Some(capture) = hooks.capture.as_deref_mut() {
        let bytes = reply.reply_bytes.to_vec();
        capture.push(TracedPacket { at: completed_at, outbound: false, bytes });
    }

    let t4 = clock.now(completed_at);
    let client = &mut inflight.client;
    if hooks.timeout.is_some_and(|to| (completed_at - inflight.t_eff).as_nanos() > to.as_nanos()) {
        // The caller gave up before the reply landed; the late packet
        // still reaches the socket and must be rejected, not applied.
        client.abandon();
        let late = client.on_reply_classified(&reply.reply_bytes, t4);
        debug_assert!(late.is_err(), "stale reply must not be accepted");
        return Err(ExchangeError::Timeout);
    }
    match client.on_reply_classified(&reply.reply_bytes, t4) {
        Ok(ReplyOutcome::Sample(sample)) => {
            if reply.duplicate {
                // The clone lands right behind the consumed original.
                let dup = client.on_reply_classified(&reply.reply_bytes, t4);
                debug_assert!(dup.is_err(), "duplicate reply must not be double-applied");
            }
            Ok(CompletedExchange {
                sample,
                true_fwd: reply.fwd,
                true_back: back,
                completed_at,
                server_id: inflight.server_id,
            })
        }
        Ok(ReplyOutcome::KissODeath(code)) => Err(ExchangeError::KissODeath(code)),
        Err(_) => Err(ExchangeError::RejectedReply),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{PoolConfig, ServerPool};
    use clocksim::rng::SimRng;
    use clocksim::time::SimDuration;
    use clocksim::{OscillatorConfig, SimClock};
    use netsim::fleet::{FleetConfig, FleetNet};

    fn test_clock(seed: u64) -> SimClock {
        let osc = OscillatorConfig::laptop().with_skew_ppm(30.0).build(SimRng::new(seed));
        SimClock::new(osc, SimTime::ZERO)
    }

    /// The three phases back-to-back for fleet client `client_id`
    /// against server `server` fronted by `model`.
    fn round_trip<C: ChannelIo>(
        chan: &mut C,
        server: &mut SimServer,
        model: &mut ServerModel,
        clock: &mut SimClock,
        client_id: u32,
        t: SimTime,
        shape: RequestShape,
    ) -> (Option<FleetArrival>, Result<CompletedExchange, ExchangeError>) {
        let hooks = &mut ExchangeHooks::default();
        let mut request =
            match begin_fleet_exchange(chan, clock, client_id, server.id, t, shape, hooks) {
                Ok(r) => r,
                Err(e) => return (None, Err(e)),
            };
        let (arrival, reply) =
            serve_fleet_exchange(&request, server, Some(model), client_id, hooks);
        let outcome =
            reply.and_then(|r| complete_fleet_exchange(chan, clock, &mut request, &r, hooks));
        (arrival, outcome)
    }

    fn setup() -> (FleetNet, ServerPool, SimClock) {
        let cfg = FleetConfig { clients: 3, servers: 2, ..FleetConfig::default() };
        let net = FleetNet::new(&cfg, 11);
        let pool = ServerPool::new(
            PoolConfig { size: 2, false_ticker_fraction: 0.0, ..PoolConfig::default() },
            12,
        );
        (net, pool, test_clock(13))
    }

    #[test]
    fn fleet_exchange_yields_sample_and_arrival() {
        let (mut net, mut pool, mut clock) = setup();
        let t = SimTime::from_secs(5);
        net.advance_to(t);
        let (mut chan, model) = net.lanes(0, 0).expect("lane 0/0");
        let (arrival, outcome) = round_trip(
            &mut chan,
            pool.server_mut(0),
            model,
            &mut clock,
            0,
            t,
            RequestShape::Sntp,
        );
        let arrival = arrival.expect("request should reach the server");
        assert!(!arrival.dropped && !arrival.kod);
        assert!(arrival.at > t);
        let parsed = NtpPacket::parse(&arrival.request).unwrap();
        assert!(parsed.is_sntp_client_shape());
        let done = outcome.expect("exchange should succeed on a quiet lane");
        // Client starts at truth; the measured offset is bounded by the
        // server's own clock error (σ tens of ms) plus path asymmetry.
        assert!(done.sample.offset.as_millis_f64().abs() < 500.0);
        assert!(done.sample.delay.as_millis_f64() > 0.0);
    }

    #[test]
    fn ntpd_shape_classifies_as_full_ntp_and_still_validates() {
        let (mut net, mut pool, mut clock) = setup();
        let t = SimTime::from_secs(5);
        net.advance_to(t);
        let (mut chan, model) = net.lanes(1, 0).expect("lane 1/0");
        let (arrival, outcome) = round_trip(
            &mut chan,
            pool.server_mut(0),
            model,
            &mut clock,
            1,
            t,
            RequestShape::Ntpd,
        );
        let parsed = NtpPacket::parse(&arrival.expect("arrival").request).unwrap();
        assert!(!parsed.is_sntp_client_shape(), "ntpd shape must not look like SNTP");
        outcome.expect("shaped request must still pass the origin check");
    }

    #[test]
    fn overloaded_model_surfaces_drops_and_kisses() {
        use netsim::fleet::ServerModelConfig;
        let cfg = FleetConfig {
            clients: 8,
            servers: 1,
            server: ServerModelConfig {
                queue_capacity: 2,
                service_time: SimDuration::from_secs_f64(0.5),
                ..ServerModelConfig::default()
            },
            ..FleetConfig::default()
        };
        let mut net = FleetNet::new(&cfg, 21);
        let mut pool = ServerPool::new(PoolConfig { size: 1, ..PoolConfig::default() }, 22);
        let t = SimTime::from_secs(3);
        net.advance_to(t);
        let mut dropped = 0;
        let mut ok = 0;
        for c in 0..8u32 {
            // Each fleet client owns its clock; a shared one would
            // serialize the burst via the departure clamp.
            let mut clock = test_clock(100 + c as u64);
            let (mut chan, model) = net.lanes(c as usize, 0).expect("lane");
            let (_, outcome) = round_trip(
                &mut chan,
                pool.server_mut(0),
                model,
                &mut clock,
                c,
                t,
                RequestShape::Sntp,
            );
            match outcome {
                Err(ExchangeError::Blackholed) => dropped += 1,
                Ok(_) => ok += 1,
                Err(_) => {}
            }
        }
        assert!(dropped > 0, "capacity 2 with 0.5 s service must drop a burst of 8");
        assert!(ok > 0, "head of the burst should still be served");
        let stats = net.server_model(0).expect("model").stats;
        assert_eq!(stats.dropped, dropped);
    }
}
