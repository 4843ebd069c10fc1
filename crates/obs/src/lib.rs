//! # obs — flight-recorder tracing for the MANA-2.0 checkpoint window
//!
//! The checkpoint window is where MANA-2.0 lives or dies: drain sweeps,
//! 2PC barrier waits, image writes, the commit round-trip. This crate
//! records *where that time goes* with machinery cheap enough to leave on
//! in chaos runs and deterministic enough to assert on in tests:
//!
//! * a bounded, per-actor **event ring buffer** ([`Ring`]) — fixed
//!   capacity, overwrite-oldest, zero allocation on the hot path after
//!   setup;
//! * one recording handle per actor ([`Telemetry`]) with a **span API**
//!   over the checkpoint phases ([`Phase`]: intent, drain exchange and
//!   sweeps, image write, commit, flush, restart validation, journal
//!   replay, …) — a span emits the `Begin`/`End` pair, feeds the phase's
//!   latency histogram in the [`metrics`] plane and returns the duration;
//! * point events ([`EventKind`]) for network sends/matches, drain
//!   captures and schedules, store write attempts (per-attempt
//!   write/fsync/rename timings), retries, injected faults, and restart
//!   skips and journal appends — each enum of the schema declared once,
//!   its names, fields, writer, reader and visitor ([`Field`]) derived
//!   from that declaration;
//! * a monotonic [`Clock`] trait — [`WallClock`] under benches,
//!   [`TestClock`] for deterministic traces under test;
//! * a **flight recorder** ([`flight_record`]): merge every ring into one
//!   JSONL file (one event per line, stable schema) plus a Chrome
//!   `trace_event` export for `chrome://tracing` / Perfetto;
//! * an **analyzer** ([`analyze`]) shared with the `mana2-trace` binary:
//!   per-round phase-duration tables, drain-sweep histograms, cross-rank
//!   2PC barrier skew, store write/retry breakdowns, and schema checks.
//!
//! The crate is dependency-free so every layer of the repo (including the
//! simulator, via a hook trait defined on its side) can feed it events.
//!
//! ## Example
//!
//! ```
//! use obs::{EventKind, Phase, Telemetry, TraceSink};
//!
//! let sink = TraceSink::deterministic(2, 64);
//! let tel = Telemetry::new(0, Some(sink.clone()), None);
//! let span = tel.begin(0, Phase::ImageWrite);
//! tel.event(0, EventKind::StoreWrite { bytes: 4096, retries: 0, crc: 0xDEAD });
//! tel.end(span);
//! assert_eq!(sink.ring_events(0).len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
mod clock;
mod dump;
mod event;
pub mod json;
pub mod metrics;
mod ring;
mod sink;
mod telemetry;

pub use clock::{Clock, TestClock, WallClock};
pub use dump::{
    chrome_trace, events_to_jsonl, flight_record, parse_jsonl, unique_label, ConfigRecord,
    DumpMeta, FlightDump, JsonlHeader, SCHEMA,
};
pub use event::{
    EventKind, FaultKind, Field, FieldDecl, InjectedFault, Phase, RejectCode, RestartStep,
    TraceEvent, Value, VariantDecl, COORD_ACTOR, NO_ROUND,
};
pub use ring::Ring;
pub use sink::TraceSink;
pub use telemetry::{Span, Telemetry};
