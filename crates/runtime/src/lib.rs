//! # rsm-runtime
//!
//! A **threaded real-time runtime** for the sans-io protocol cores: one OS
//! thread per replica, each running the same `rsm_core::node::NodeCore`
//! the simulator runs, fed by a `std::sync::mpsc` inbox. Peer messages
//! travel either through a network thread that delays every message by
//! the configured wide-area latency (optionally scaled down for fast
//! tests) and delivers it straight into the destination inbox, or over
//! framed TCP/UDS sockets ([`ClusterTransport`]).
//!
//! The discrete-event simulator (`simnet`) is where all experiments run;
//! this runtime exists to demonstrate that the *same* protocol
//! implementations — Clock-RSM, Paxos, Paxos-bcast, Mencius-bcast — run
//! unmodified outside virtual time, which is the point of the sans-io
//! design. The geo-replicated key-value store example (`geo_kvstore`)
//! uses it as a live deployment on one machine.
//!
//! A node thread keeps only thread concerns: it waits on its inbox with
//! a timeout for the next timer or observability poll, drains what is
//! already queued (at most `max_batch` inputs) into one `NodeCore::drain`
//! step, and pushes the step's effects to the outbound link, its timer
//! heap, and the reply router.
//! Request coalescing ([`ClusterConfig::batch_policy`]), the adaptive
//! controller's depth signal (the writes in each drain) and latency feed,
//! and commit→reply routing are the core's, exactly as in the simulator.
//!
//! For scale-out, [`shard`] layers `N` independent clusters over one
//! partitioned key space sharing a single clock epoch, with
//! timestamp-consistent cross-shard snapshot reads under Clock-RSM (and
//! the honest per-shard linearizable fallback elsewhere).
//!
//! ## Example
//!
//! ```
//! use rsm_runtime::{Cluster, ClusterConfig};
//! use clock_rsm::{ClockRsm, ClockRsmConfig};
//! use kvstore::{KvOp, KvStore};
//! use rsm_core::{LatencyMatrix, Membership, ReplicaId};
//! use std::time::Duration;
//!
//! let cfg = ClusterConfig::new(LatencyMatrix::uniform(3, 10_000)).scale(0.05);
//! let cluster = Cluster::spawn(cfg, |id| {
//!     ClockRsm::new(id, Membership::uniform(3), ClockRsmConfig::default())
//! }, || Box::new(KvStore::new()));
//!
//! let reply = cluster
//!     .execute(ReplicaId::new(0), KvOp::put("k", "v").encode(), Duration::from_secs(5))
//!     .expect("command should commit");
//! assert_eq!(reply.result[0], 1);
//! cluster.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
pub mod net;
pub mod node;
pub mod shard;

pub use cluster::{Cluster, ClusterConfig, ClusterSession, ClusterTransport, ExecuteError};
pub use shard::ShardedCluster;
