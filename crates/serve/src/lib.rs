//! # scal-serve — the concurrent fault-campaign service
//!
//! Every campaign flavour in the workspace — combinational alternating-pair
//! sweeps (`scal-faults`), driven sequential machines (`scal-seq`), and CPU
//! datapath workloads (`scal-system`) — runs behind one TCP server speaking
//! line-delimited JSON:
//!
//! * a **request** is one JSON line carrying a netlist (the `scal-netlist`
//!   text interchange format), a fault spec, and campaign knobs mirroring
//!   the `Campaign` builders (backend, fault dropping, threads);
//! * the **response** streams typed frames back as JSONL: `accepted`, one
//!   `event` frame per [`scal_obs::CampaignEvent`], and a terminal `result`
//!   frame with the deterministic report and
//!   [`scal_obs::CoverageMap`] (or `error`);
//! * campaigns from all connections share one **bounded worker pool** with
//!   per-request priorities, aging for fair progress, per-job deadlines,
//!   and cancel-by-id wired to the sticky [`scal_obs::CancelToken`] — so a
//!   cancelled request still returns its valid fault-ordered prefix.
//!
//! Determinism is inherited, not re-implemented: the server runs the exact
//! same [`job::run_job`] path a local caller would, and campaign event
//! replay is already deterministic (modulo `Progress` interleaving, worker
//! attribution, and wall times), so a streamed run is bit-identical to a
//! local one. The soak test (`tests/soak.rs`) drives hundreds of
//! concurrent mixed requests with random cancellations and asserts exactly
//! that.
//!
//! Everything is `std`-only (`std::net` + threads): no async runtime, no
//! serde, no registry access.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod job;
pub mod proto;
pub mod sched;
pub mod server;
pub mod telemetry;
pub mod wire;

pub use client::{Client, Frame, FrameStream};
pub use job::{run_job, JobOutput, ServeError};
pub use proto::{FaultSpec, JobKind, JobSpec, ProtoError, Request, StatusInfo, PROTOCOL_VERSION};
pub use sched::{SchedConfig, Scheduler};
pub use server::{serve, ServeConfig, ServerHandle};
pub use telemetry::{FlightEvent, FlightRecorder, PromSample, PromText, Telemetry};
pub use wire::WireObserver;
