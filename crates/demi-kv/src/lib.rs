//! demi-kv: a Redis-class key-value server on the Demikernel datapath.
//!
//! The paper's claim is that a libOS can give kernel-bypass speed
//! *with* OS services; this crate is the proof-of-work application: a
//! RESP (Redis protocol) server whose entire datapath is built from the
//! repo's own primitives and keeps their zero-copy discipline end to
//! end.
//!
//! - [`resp`] — incremental zero-copy RESP parsing over `DemiBuffer` RX
//!   views, and reply serialization that coalesces a pipelined burst's
//!   replies into minimal TX segments (values prepend their own bulk
//!   headers in place when sole ownership allows).
//! - [`store`] — the cache: slab-backed hash index, intrusive LRU under
//!   a byte budget, lazy + hierarchical-wheel TTL expiry, and a
//!   [`store::CacheMirror`] doorbell so a NIC-offload replica (PR:
//!   device-side offload) shares one insert/invalidate path with the
//!   host.
//! - [`KvEngine`] — the engine: drains every complete command per RX pass
//!   (deep pipelining), splits replies at the durability barrier for
//!   group commit.
//! - [`log`] — group-commit batch codec + replay: one storage
//!   submission per drained batch, byte-exact recovery of acknowledged
//!   state.
#![warn(unreachable_pub)]

pub mod log;
pub mod resp;
mod server;
pub mod store;

pub use resp::{ReplyWriter, RespParser};
pub use server::{DrainResult, EngineStats, KvConn, KvEngine, KvEngineConfig};

#[cfg(test)]
mod tests;
