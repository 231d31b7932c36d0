//! # ntpd-sim
//!
//! A reference NTPv4 client implementation — the paper's stated future
//! work ("we plan to build a reference NTP implementation and perform an
//! exhaustive benchmarking of MNTP against SNTP and NTP", §7) — built on
//! the same sans-io substrate as the rest of the workspace.
//!
//! The implementation follows the RFC 5905 mitigation pipeline:
//!
//! * [`clock_filter`] — per-peer 8-stage shift register; the sample with
//!   the minimum delay among the last eight wins (delay and offset error
//!   are correlated, so minimum-delay picking strips most path noise).
//! * selection, clustering and combining — Marzullo-style intersection
//!   finds the largest clique of peers whose correctness intervals
//!   overlap (the rest are falsetickers); among survivors, the peer with
//!   the worst selection jitter is iteratively discarded and the
//!   remainder combined into one offset weighted by root distance. These
//!   stages live in [`sntp::select`], one shared, structurally panic-free
//!   copy that the fleet's hardened MNTP discipline also runs.
//! * [`discipline`] — the PLL/FLL hybrid loop: phase and frequency
//!   corrections, 128 ms step threshold, adaptive poll interval.
//! * [`huffpuff`] — the huff-n'-puff one-sided-congestion filter, NTP's
//!   transport-only answer to the asymmetry problem MNTP attacks with
//!   cross-layer hints.
//! * [`daemon`] — [`daemon::Ntpd`] glues the stages to a peer set with
//!   reachability tracking and poll scheduling.
//!
//! Simplifications relative to a production `ntpd` (documented here per
//! the repo's omissions policy): no symmetric/broadcast modes, no
//! interleaved mode, no autokey/NTS, and the poll-adaptation heuristic
//! is a simplified Allan-intercept rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock_filter;
pub mod daemon;
pub mod discipline;
pub mod huffpuff;

pub use clock_filter::{ClockFilter, FilterSample};
pub use huffpuff::HuffPuff;
pub use daemon::{run_ntpd, run_ntpd_faulted, Ntpd, NtpdConfig, NtpdDiscipline, NtpdRun};
pub use discipline::{Discipline, DisciplineConfig};
