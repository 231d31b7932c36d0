//! The batched server-side throughput engine.
//!
//! The fleet experiments model the server as [`crate::SimServer`] — one
//! request at a time, behind backbone links and a wobbling clock. That is
//! the right fidelity for simulation, and three orders of magnitude off a
//! production ingest path. This module is the production shape: requests
//! arrive as raw bytes in a preallocated arena ([`RequestRing`]), flow
//! through a staged pipeline (zero-copy classify → sharded rate-limit →
//! in-place reply emission, see [`pipeline`]), and leave as a contiguous
//! reply stream ([`ReplyRing`]) without a single per-packet allocation.
//!
//! Both servers share their policy and their bytes: the RATE decision is
//! netsim's `fleet::rate_limited` check (the one the fleet's
//! `ServerModel` uses too), and replies come from the same `ntp-wire`
//! writers. So a `ServerCore` with clock error *e* produces byte-for-byte
//! the replies a wobble-free `SimServer` would, including kiss-o'-death
//! fates — property-tested in `tests/server_core_equivalence.rs` at the
//! workspace root. Scale-out is
//! deterministic: per-client shard routing plus a serial positional merge
//! keeps the reply stream identical at any (shards, jobs); throughput is
//! tracked by the `server_core_*` benches against
//! `results/bench/baseline.json`.
//!
//! * [`arena`] — [`RequestRing`] / [`ReplyRing`] slot arenas and [`Fate`].
//! * [`table`] — [`RateTable`]: sparse per-client last-seen ticks
//!   (open addressing, Fibonacci hashing) and [`shard_of`] routing.
//! * [`pipeline`] — [`ServerCore`]: the staged engine itself.

pub mod arena;
pub mod pipeline;
pub mod table;

pub use arena::{Fate, ReplyRing, RequestMeta, RequestRing, SLOT};
pub use pipeline::{CoreConfig, CoreStats, ServerCore};
pub use table::{shard_of, RateTable};
