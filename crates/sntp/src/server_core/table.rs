//! Sparse per-client rate-limit state: an open-addressing hash table of
//! last-seen ticks.
//!
//! The fleet model (`netsim::fleet::ServerModel`) keys its admission state
//! by dense client index — a `Vec<i64>` grown to the highest id seen. That
//! is the right shape when clients are `0..N` simulation lanes; a
//! production ingest path sees sparse 64-bit keys (source addresses) where
//! a dense vector is either gigantic or useless. This table stores exactly
//! the occupied entries: Fibonacci-hashed open addressing with linear
//! probing, ≤ 7/8 load factor, amortized-doubling growth.
//!
//! Empty slots are encoded in the *tick* array (`i64::MIN` is not a valid
//! arrival time), so keys need no reserved sentinel and any `u64` is a
//! valid client key.

/// Knuth's 64-bit Fibonacci multiplier (⌊2⁶⁴/φ⌋, forced odd).
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Tick value marking an empty slot. Arrival ticks are nanoseconds on the
/// simulation timeline and never take this value.
const EMPTY_TICK: i64 = i64::MIN;

/// Open-addressing map `client key → last-seen tick (ns)`.
#[derive(Clone, Debug)]
pub struct RateTable {
    keys: Vec<u64>,
    ticks: Vec<i64>,
    len: usize,
    mask: usize,
}

impl RateTable {
    /// A table that holds `at_least` clients before its first growth.
    pub fn with_capacity(at_least: usize) -> Self {
        // Smallest power of two keeping load ≤ 7/8 at `at_least` entries.
        let cap = (at_least.saturating_mul(8) / 7 + 1).next_power_of_two().max(16);
        RateTable { keys: vec![0; cap], ticks: vec![EMPTY_TICK; cap], len: 0, mask: cap - 1 }
    }

    /// Occupied entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no client has been seen.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current slot count (capacity before the next growth is 7/8 of it).
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Home slot: low bits of the Fibonacci hash. (Shard routing uses the
    /// *top* bits — see [`shard_of`] — so the two decisions stay
    /// independent and per-shard probe sequences don't degenerate.)
    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(FIB) as usize) & self.mask
    }

    /// Record `tick` as `key`'s last-seen instant and return the previous
    /// one, if the client was known. This is the whole rate-limit
    /// bookkeeping step: one probe sequence for both read and write.
    #[inline]
    pub fn upsert(&mut self, key: u64, tick: i64) -> Option<i64> {
        if (self.len + 1) * 8 > self.keys.len() * 7 {
            self.grow();
        }
        let mask = self.mask;
        let mut i = self.home(key);
        loop {
            match self.ticks.get(i).copied() {
                Some(EMPTY_TICK) => {
                    if let (Some(k), Some(t)) = (self.keys.get_mut(i), self.ticks.get_mut(i)) {
                        *k = key;
                        *t = tick;
                    }
                    self.len += 1;
                    return None;
                }
                Some(prev) => {
                    if self.keys.get(i).copied() == Some(key) {
                        if let Some(t) = self.ticks.get_mut(i) {
                            *t = tick;
                        }
                        return Some(prev);
                    }
                    i = (i + 1) & mask;
                }
                // Unreachable: `i` is always masked into range.
                None => return None,
            }
        }
    }

    /// Look up `key`'s last-seen tick without modifying the table.
    pub fn get(&self, key: u64) -> Option<i64> {
        let mask = self.mask;
        let mut i = self.home(key);
        loop {
            match self.ticks.get(i).copied() {
                Some(EMPTY_TICK) | None => return None,
                Some(tick) => {
                    if self.keys.get(i).copied() == Some(key) {
                        return Some(tick);
                    }
                    i = (i + 1) & mask;
                }
            }
        }
    }

    /// Double the slot count and reinsert every occupied entry.
    fn grow(&mut self) {
        let new_cap = self.keys.len().saturating_mul(2).max(16);
        let old_keys = std::mem::replace(&mut self.keys, vec![0; new_cap]);
        let old_ticks = std::mem::replace(&mut self.ticks, vec![EMPTY_TICK; new_cap]);
        self.mask = new_cap - 1;
        self.len = 0;
        for (key, tick) in old_keys.into_iter().zip(old_ticks) {
            if tick != EMPTY_TICK {
                self.insert_fresh(key, tick);
            }
        }
    }

    /// Insert a key known to be absent (rehash path — no read needed).
    fn insert_fresh(&mut self, key: u64, tick: i64) {
        let mask = self.mask;
        let mut i = self.home(key);
        loop {
            match self.ticks.get(i).copied() {
                Some(EMPTY_TICK) => {
                    if let (Some(k), Some(t)) = (self.keys.get_mut(i), self.ticks.get_mut(i)) {
                        *k = key;
                        *t = tick;
                    }
                    self.len += 1;
                    return;
                }
                Some(_) => i = (i + 1) & mask,
                // Unreachable: `i` is always masked into range.
                None => return,
            }
        }
    }
}

/// Which of `shards` tables owns `key`. `shards` must be a power of two;
/// the routing bits are the *top* bits of the Fibonacci hash, disjoint
/// from the in-table home-slot bits (low), so every shard's table still
/// sees a well-distributed key stream.
///
/// This routing is what makes the sharded pipeline bit-deterministic:
/// a client's requests always land on the same shard, so its last-seen
/// sequence — and therefore every KoD decision — is identical no matter
/// how many shards run or how they're scheduled.
#[inline]
pub fn shard_of(key: u64, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let bits = shards.trailing_zeros();
    (key.wrapping_mul(FIB) >> (64 - bits)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_upsert_returns_none_then_previous() {
        let mut t = RateTable::with_capacity(8);
        assert_eq!(t.upsert(7, 100), None);
        assert_eq!(t.upsert(7, 250), Some(100));
        assert_eq!(t.upsert(7, 400), Some(250));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn distinct_keys_do_not_interfere() {
        let mut t = RateTable::with_capacity(4);
        assert_eq!(t.upsert(1, 10), None);
        assert_eq!(t.upsert(2, 20), None);
        assert_eq!(t.upsert(1, 30), Some(10));
        assert_eq!(t.upsert(2, 40), Some(20));
        assert_eq!(t.get(1), Some(30));
        assert_eq!(t.get(2), Some(40));
        assert_eq!(t.get(3), None);
    }

    #[test]
    fn growth_preserves_every_entry() {
        let mut t = RateTable::with_capacity(4);
        let n = 10_000u64;
        for k in 0..n {
            assert_eq!(t.upsert(k, k as i64 * 3), None, "key {k} seen twice?");
        }
        assert_eq!(t.len(), n as usize);
        for k in 0..n {
            assert_eq!(t.get(k), Some(k as i64 * 3), "key {k} lost in growth");
        }
        // Load factor invariant held.
        assert!(t.len() * 8 <= t.capacity() * 7);
    }

    #[test]
    fn sparse_keys_work() {
        let mut t = RateTable::with_capacity(8);
        for k in [0u64, 1, u64::MAX, u64::MAX - 1, 1 << 63, 0xDEAD_BEEF_0000_0001] {
            assert_eq!(t.upsert(k, 42), None);
        }
        for k in [0u64, 1, u64::MAX, u64::MAX - 1, 1 << 63, 0xDEAD_BEEF_0000_0001] {
            assert_eq!(t.get(k), Some(42), "key {k:#x}");
        }
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn adversarial_same_home_slot_keys_probe_linearly() {
        // Keys crafted to collide in home slot (same low hash bits after
        // multiplication is hard to craft directly, so just hammer a tiny
        // table where collisions are guaranteed).
        let mut t = RateTable::with_capacity(2);
        for k in 0..64u64 {
            t.upsert(k, k as i64);
        }
        for k in 0..64u64 {
            assert_eq!(t.get(k), Some(k as i64));
        }
    }

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        for &shards in &[1usize, 2, 4, 8, 16] {
            for k in 0..1000u64 {
                let s = shard_of(k, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(k, shards), "routing must be pure");
            }
        }
        // shards=1 always routes to 0.
        assert_eq!(shard_of(u64::MAX, 1), 0);
    }

    #[test]
    fn shard_routing_spreads_keys() {
        let shards = 8;
        let mut counts = vec![0usize; shards];
        for k in 0..80_000u64 {
            counts[shard_of(k, shards)] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - 10_000.0).abs() < 2_000.0,
                "shard {s} holds {c} of 80k keys — routing is skewed"
            );
        }
    }
}
