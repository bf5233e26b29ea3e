//! # rsm-core
//!
//! Shared vocabulary types and the **sans-io protocol abstraction** used by
//! the Clock-RSM reproduction (Du et al., DSN 2014).
//!
//! Every replication protocol in this workspace — [Clock-RSM], Multi-Paxos,
//! Paxos-bcast, and Mencius-bcast — is written as a deterministic,
//! event-driven state machine implementing the [`Protocol`] trait. A protocol
//! never touches a socket, a disk, or a wall clock directly: all its
//! interactions with the outside world go through a [`Context`]. The only
//! driver-side `Context` is [`NodeCore`] (module [`node`]): it owns a
//! replica's protocol, state machine, stable log and batching, takes time
//! as an argument, and returns every effect to its driver. Two drivers
//! run it in this workspace:
//!
//! * `simnet` — a deterministic discrete-event simulator with virtual time,
//!   a configurable wide-area latency matrix, loosely synchronized physical
//!   clocks, stable storage, and fault injection. All paper experiments run
//!   on it.
//! * `rsm-runtime` — a threaded real-time runtime that emulates WAN latency
//!   with real delays, demonstrating that the same protocol cores run
//!   unmodified outside the simulator.
//!
//! The split mirrors the paper's model (Section II): an asynchronous message
//! passing system, FIFO channels, crash-recovery failures, stable storage,
//! and loosely synchronized physical clocks whose precision affects only
//! performance, never safety.
//!
//! ## Batching
//!
//! Every protocol in the workspace replicates whole [`Batch`]es of client
//! commands: drivers coalesce queued requests (up to
//! [`BatchPolicy::max_batch`] commands and [`BatchPolicy::max_bytes`] of
//! payload, never waiting intentionally) and deliver them via
//! [`Protocol::on_client_batch`]; protocols bind each batch to a
//! contiguous run of ordering coordinates and acknowledge it with one
//! cumulative watermark message. `BatchPolicy::DISABLED` (the default
//! everywhere) reproduces per-command behaviour exactly — batching is
//! never observable in the committed sequence, only in throughput.
//!
//! The flush threshold can also adapt to load: an
//! [`adaptive`](BatchPolicy::adaptive) policy gives each [`NodeCore`] a
//! [`BatchController`] that widens batches as its inbox deepens and
//! narrows them back when load (and commit latency) subsides, so a
//! single knob serves both light-load latency and heavy-load
//! amortization. Batches themselves are `Arc`-shared, so the per-peer
//! message clones of a broadcast never deep-copy command payloads.
//!
//! ## Linearizable reads
//!
//! The [`read`] module is the protocol-agnostic half of the local read
//! subsystem: a [`ReadPath`] capability each protocol reports, a
//! [`ReadQueue`] parking pending reads against a watermark, and the
//! [`ReadRequest`]/[`ReadReply`] quorum-probe wire shapes. Drivers route
//! commands marked [`Command::read_only`] to
//! [`Protocol::on_client_read`] **outside** the write batching pipeline
//! (a `Get` is never delayed behind a flush threshold), and protocols
//! serve them from the local state machine via
//! [`Context::sm_read`]/[`Context::send_reply`] once their stable
//! prefix provably covers the read. See the module docs for the
//! critical invariant split: where clock skew is latency-only
//! (Clock-RSM stable-timestamp reads) versus where a bounded-skew
//! assumption is load-bearing (Paxos leader-lease reads).
//!
//! ## Checkpointing & state transfer
//!
//! The [`checkpoint`] module (Section V-B of the paper) is shared by all
//! protocols: a [`CheckpointPolicy`] schedules periodic state machine
//! snapshots (every N commands / M bytes), optionally compacting the
//! stable log below the checkpoint watermark, and the
//! [`StateTransferRequest`]/[`StateTransferReply`] wire shapes let a
//! recovered replica install a peer's checkpoint when nothing can
//! retransmit what it missed — turning recovery from "sound only if the
//! outage was short" into "sound for any outage length" while bounding
//! per-replica memory. See the module docs for the watermark and epoch
//! invariants.
//!
//! [Clock-RSM]: https://doi.org/10.1109/DSN.2014.42
//!
//! ## Example
//!
//! ```
//! use rsm_core::{Command, CommandId, ClientId, ReplicaId, Timestamp};
//! use bytes::Bytes;
//!
//! let origin = ReplicaId::new(0);
//! let client = ClientId::new(origin, 7);
//! let cmd = Command::new(CommandId::new(client, 1), Bytes::from_static(b"put k v"));
//! let ts = Timestamp::new(1_000_000, origin);
//! assert!(ts < Timestamp::new(1_000_000, ReplicaId::new(1)));
//! assert_eq!(cmd.id.client, client);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod checkpoint;
pub mod command;
pub mod config;
pub mod error;
pub mod id;
pub mod lease;
pub mod matrix;
pub mod node;
pub mod obs;
pub mod protocol;
pub mod read;
pub mod session;
pub mod sm;
pub mod testing;
pub mod time;
pub mod wire;

pub use batch::{Batch, BatchController, BatchPolicy};
pub use checkpoint::{
    Checkpoint, CheckpointPolicy, Checkpointer, StateTransferReply, StateTransferRequest,
};
pub use command::{Command, CommandId, Committed, Reply};
pub use config::{Epoch, Membership};
pub use error::{ProtocolError, Result};
pub use id::{ClientId, ReplicaId};
pub use lease::{Lease, LeaseConfig};
pub use matrix::LatencyMatrix;
pub use node::NodeCore;
pub use obs::TraceStage;
pub use protocol::{Context, Protocol, TimerToken};
pub use read::{ReadPath, ReadProbes, ReadQueue, ReadReply, ReadRequest};
pub use session::{
    ClientSession, SessionCheck, SessionEvict, SessionOpen, SessionRetry, SessionTable,
    DEFAULT_SESSION_WINDOW,
};
pub use sm::StateMachine;
pub use time::{Micros, Timestamp};
pub use wire::{
    decode_payload, encode_payload, FrameHeader, WireDecode, WireEncode, WireError, WireMsg,
    WireReader, WireSize, MSG_HEADER_BYTES,
};
