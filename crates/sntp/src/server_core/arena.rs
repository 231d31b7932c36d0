//! Preallocated request/reply arenas for the batched server pipeline.
//!
//! Both rings are flat `Vec<u8>` arenas carved into fixed 48-byte slots —
//! one slot per datagram — so a whole batch is two contiguous allocations
//! that live for the engine's lifetime and are reused batch after batch.
//! Nothing in the per-packet path allocates: ingest copies each datagram
//! into its request slot once, and every reply is written in place by the
//! allocation-free `ntp-wire` writers.

use clocksim::time::{SimDuration, SimTime};
use ntp_wire::PACKET_LEN;

/// Bytes per arena slot — exactly one NTP header.
pub const SLOT: usize = PACKET_LEN;

/// Per-datagram metadata carried alongside the raw bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestMeta {
    /// Stable client key (source address surrogate) — the rate-limit and
    /// shard-routing identity.
    pub client: u64,
    /// True arrival instant at the server.
    pub arrival: SimTime,
    /// Stored datagram length, capped at [`SLOT`]. Shorter datagrams keep
    /// their real length so the parser sees the same truncation the wire
    /// delivered; longer ones keep only the header (trailing extension
    /// bytes are ignored by the codec anyway).
    pub len: u8,
}

/// A batch of inbound datagrams: one 48-byte slot plus one
/// [`RequestMeta`] per request, in arrival order.
#[derive(Clone, Debug)]
pub struct RequestRing {
    bytes: Vec<u8>,
    meta: Vec<RequestMeta>,
    cap: usize,
}

impl RequestRing {
    /// A ring with room for `cap` datagrams.
    pub fn with_capacity(cap: usize) -> Self {
        RequestRing { bytes: vec![0; cap * SLOT], meta: Vec::with_capacity(cap), cap }
    }

    /// Slot capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Datagrams currently batched.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// True when no datagrams are batched.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// Drop all batched datagrams (slots are reused, not zeroed).
    pub fn clear(&mut self) {
        self.meta.clear();
    }

    /// Copy one datagram into the next slot. Returns `false` (dropping
    /// the datagram) when the ring is full — the caller decides whether
    /// that means flush-and-retry or backpressure.
    pub fn push(&mut self, client: u64, arrival: SimTime, datagram: &[u8]) -> bool {
        let i = self.meta.len();
        if i >= self.cap {
            return false;
        }
        let keep = datagram.len().min(SLOT);
        let start = i * SLOT;
        if let (Some(dst), Some(src)) =
            (self.bytes.get_mut(start..start + keep), datagram.get(..keep))
        {
            dst.copy_from_slice(src);
        }
        self.meta.push(RequestMeta { client, arrival, len: keep as u8 });
        true
    }

    /// The metadata records, in arrival order.
    pub fn meta(&self) -> &[RequestMeta] {
        &self.meta
    }

    /// One datagram by batch index: its metadata and wire bytes. The
    /// slice is truncated to the stored length, so a short datagram
    /// parses exactly as the original would (`Truncated`).
    pub fn get(&self, idx: usize) -> Option<(&RequestMeta, &[u8])> {
        let m = self.meta.get(idx)?;
        let start = idx * SLOT;
        let wire = self.bytes.get(start..start + m.len as usize)?;
        Some((m, wire))
    }

    /// Iterate `(meta, wire bytes)` in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = (&RequestMeta, &[u8])> {
        self.meta.iter().zip(self.bytes.chunks_exact(SLOT)).map(|(m, slot)| {
            let wire = slot.get(..m.len as usize).unwrap_or(slot);
            (m, wire)
        })
    }

    /// Shift every arrival forward by `dt`, keeping the batch otherwise
    /// intact. Benchmarks replay one prepared batch many times; without
    /// this the second pass would see zero inter-arrival gaps and measure
    /// the kiss-o'-death path instead of service.
    pub fn advance_arrivals(&mut self, dt: SimDuration) {
        for m in &mut self.meta {
            m.arrival = m.arrival + dt;
        }
    }
}

/// What the pipeline decided to do with one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fate {
    /// A normal time reply was written.
    Time,
    /// A RATE kiss-o'-death was written.
    Kod,
    /// The datagram failed structural validation; its reply slot stays
    /// zeroed and nothing is sent.
    Malformed,
}

/// The outbound side: one 48-byte reply slot plus one [`Fate`] per
/// request, positionally aligned with the [`RequestRing`] batch.
#[derive(Clone, Debug, Default)]
pub struct ReplyRing {
    bytes: Vec<u8>,
    fates: Vec<Fate>,
}

impl ReplyRing {
    /// An empty ring; slots appear per batch.
    pub fn new() -> Self {
        ReplyRing::default()
    }

    /// Start a batch of `n` replies: all slots zeroed, all fates
    /// `Malformed` until a stage decides otherwise. Allocation is
    /// amortized — after the first batch of a given size this is a
    /// `memset`, nothing more.
    pub fn begin_batch(&mut self, n: usize) {
        self.bytes.clear();
        self.bytes.resize(n * SLOT, 0);
        self.fates.clear();
        self.fates.resize(n, Fate::Malformed);
    }

    /// Replies in the current batch.
    pub fn len(&self) -> usize {
        self.fates.len()
    }

    /// True when the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.fates.is_empty()
    }

    /// The fate of reply `idx`.
    pub fn fate(&self, idx: usize) -> Option<Fate> {
        self.fates.get(idx).copied()
    }

    /// All fates, in request order.
    pub fn fates(&self) -> &[Fate] {
        &self.fates
    }

    /// Record the fate of reply `idx`.
    pub fn set_fate(&mut self, idx: usize, fate: Fate) {
        if let Some(f) = self.fates.get_mut(idx) {
            *f = fate;
        }
    }

    /// Reply bytes for slot `idx` (zeroed if the fate is `Malformed`).
    pub fn slot(&self, idx: usize) -> Option<&[u8]> {
        let start = idx * SLOT;
        self.bytes.get(start..start + SLOT)
    }

    /// Mutable 48-byte reply slot `idx` for in-place serialization.
    pub fn slot_mut(&mut self, idx: usize) -> Option<&mut [u8; SLOT]> {
        let start = idx * SLOT;
        let s = self.bytes.get_mut(start..start + SLOT)?;
        <&mut [u8; SLOT]>::try_from(s).ok()
    }

    /// The whole reply stream, concatenated in request order — the byte
    /// string the determinism tests compare across (shards, jobs).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_roundtrip() {
        let mut ring = RequestRing::with_capacity(4);
        assert!(ring.is_empty());
        let datagram = [7u8; SLOT];
        assert!(ring.push(42, SimTime::from_secs(1), &datagram));
        assert_eq!(ring.len(), 1);
        let (m, wire) = ring.get(0).unwrap();
        assert_eq!(m.client, 42);
        assert_eq!(m.len as usize, SLOT);
        assert_eq!(wire, &datagram);
    }

    #[test]
    fn short_datagram_keeps_its_length() {
        let mut ring = RequestRing::with_capacity(2);
        ring.push(1, SimTime::ZERO, &[0xAB; 10]);
        let (m, wire) = ring.get(0).unwrap();
        assert_eq!(m.len, 10);
        assert_eq!(wire, &[0xAB; 10]);
    }

    #[test]
    fn long_datagram_truncated_to_header() {
        let mut ring = RequestRing::with_capacity(2);
        ring.push(1, SimTime::ZERO, &[0xCD; 200]);
        let (m, wire) = ring.get(0).unwrap();
        assert_eq!(m.len as usize, SLOT);
        assert_eq!(wire.len(), SLOT);
    }

    #[test]
    fn full_ring_rejects() {
        let mut ring = RequestRing::with_capacity(1);
        assert!(ring.push(1, SimTime::ZERO, &[0; SLOT]));
        assert!(!ring.push(2, SimTime::ZERO, &[0; SLOT]));
        assert_eq!(ring.len(), 1);
    }

    #[test]
    fn iter_matches_get() {
        let mut ring = RequestRing::with_capacity(3);
        for i in 0..3u8 {
            ring.push(i as u64, SimTime::from_secs(i as i64), &[i; 20]);
        }
        let via_iter: Vec<_> = ring.iter().map(|(m, w)| (*m, w.to_vec())).collect();
        for (i, (m, w)) in via_iter.iter().enumerate() {
            let (gm, gw) = ring.get(i).unwrap();
            assert_eq!(m, gm);
            assert_eq!(w, gw);
        }
    }

    #[test]
    fn advance_arrivals_shifts_only_time() {
        let mut ring = RequestRing::with_capacity(2);
        ring.push(5, SimTime::from_secs(10), &[1; SLOT]);
        ring.advance_arrivals(SimDuration::from_secs(3));
        let (m, _) = ring.get(0).unwrap();
        assert_eq!(m.arrival, SimTime::from_secs(13));
        assert_eq!(m.client, 5);
    }

    #[test]
    fn reply_ring_batch_lifecycle() {
        let mut out = ReplyRing::new();
        out.begin_batch(3);
        assert_eq!(out.len(), 3);
        assert_eq!(out.fate(0), Some(Fate::Malformed));
        out.slot_mut(1).unwrap().fill(0x11);
        out.set_fate(1, Fate::Time);
        assert_eq!(out.slot(1).unwrap(), &[0x11; SLOT]);
        assert_eq!(out.fate(1), Some(Fate::Time));
        // A new batch wipes everything.
        out.begin_batch(2);
        assert_eq!(out.len(), 2);
        assert_eq!(out.slot(1).unwrap(), &[0u8; SLOT]);
        assert_eq!(out.fate(1), Some(Fate::Malformed));
        assert_eq!(out.as_bytes().len(), 2 * SLOT);
    }

    #[test]
    fn out_of_range_access_is_none() {
        let ring = RequestRing::with_capacity(1);
        assert!(ring.get(0).is_none());
        let mut out = ReplyRing::new();
        out.begin_batch(1);
        assert!(out.slot(1).is_none());
        assert!(out.fate(1).is_none());
    }
}
