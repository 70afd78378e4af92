//! Device offload programs (E17): the stack as offload *planner*. It
//! decides which flows are device-eligible (Established, quiescent server
//! connections on the offloaded port), installs the restricted engine
//! into a NIC program slot, keeps host control blocks coherent by
//! applying the engine's sync events, drops the engine's record of a
//! flow once its connection is gone, and falls everything back to the
//! pure host path on uninstall. The engine's flow table is the only
//! record of which flows it serves: the planner asks it, and finds a
//! flow's connection through the demux table. Applications never talk to
//! the device directly; the shard core reaches its `Option<Offload>` only
//! through `drain_events`, `release_conn`, `walk_due` and `rearm`.

use std::cell::RefCell;
use std::rc::Rc;

use dpdk_sim::{
    FlowKey, NicProgram, OffloadEvent, OffloadService, OffloadStats, ProgramSlot, TcpOffload,
};
use sim_fabric::SimTime;

use super::NetworkStack;
use crate::tcp::{ConnId, TcpPeer};
use crate::types::{NetError, SocketAddr};

/// The installed device offload program: the engine and the NIC slot it
/// occupies. An engine's sync events all belong to the stack that
/// installed it — a second stack on the same port installs its own engine
/// in its own slot.
pub(super) struct Offload {
    engine: Rc<RefCell<TcpOffload>>,
    slot: ProgramSlot,
    /// The offloaded local TCP port.
    port: u16,
    /// `TcpPeer::flow_changes` at the last walk (`None` before the first).
    walked: Option<u64>,
}

/// The engine's key for the flow from `remote`.
fn engine_key(remote: SocketAddr) -> FlowKey {
    (remote.ip.octets(), remote.port)
}

/// The remote endpoint of the flow the engine keys `key`.
fn remote_of(key: FlowKey) -> SocketAddr {
    SocketAddr::new(key.0.into(), key.1)
}

impl Offload {
    /// Applies the device's queued sync events to `tcp`'s control
    /// blocks, in emission order; returns how many were applied.
    pub(super) fn drain_events(&mut self, tcp: &mut TcpPeer, now: SimTime) -> usize {
        let mut applied = 0usize;
        for ev in self.engine.borrow_mut().take_events() {
            let (OffloadEvent::AckAdvance { key, .. }
            | OffloadEvent::Served { key, .. }
            | OffloadEvent::Flushed { key, .. }) = ev;
            let Some(conn) = tcp.demux_conn(self.port, remote_of(key)) else {
                continue;
            };
            applied += 1;
            if let OffloadEvent::Served { served_at, .. } = ev {
                if demi_telemetry::enabled() {
                    demi_telemetry::stage::record(
                        demi_telemetry::stage::Stage::DeviceServed,
                        now.saturating_since(served_at).as_nanos(),
                    );
                }
            }
            tcp.apply_offload(conn, ev, now);
        }
        applied
    }

    /// Takes `conn` back from the device before a host-side mutation
    /// (send, close, abort): disarms its flow and applies the flushed
    /// bytes. Returns the sync events applied (none for a flow the device
    /// was not serving).
    pub(super) fn release_conn(&mut self, tcp: &mut TcpPeer, conn: ConnId, now: SimTime) -> usize {
        let (Ok(local), Ok(remote)) = (tcp.local(conn), tcp.remote(conn)) else {
            return 0;
        };
        if local.port != self.port {
            return 0;
        }
        self.engine.borrow_mut().disarm_flow(engine_key(remote));
        self.drain_events(tcp, now)
    }

    /// Hands the engine every connection the host already holds on the
    /// offloaded port (at install), arming the quiescent ones; returns how
    /// many it armed. Later connections reach the engine by their SYN.
    fn adopt(&self, tcp: &TcpPeer) -> usize {
        let mut engine = self.engine.borrow_mut();
        let mut armed = 0;
        for (remote, shadow) in tcp.conns_on_port(self.port) {
            armed += usize::from(engine.arm_flow(engine_key(remote), shadow));
        }
        armed
    }

    /// Whether [`Offload::rearm`] could change anything: since its last
    /// walk, the host touched or freed a control block or changed a SYN
    /// table, or the device opened a record or fell a flow back. O(1), so
    /// an idle pass costs no walk however many flows are armed.
    pub(super) fn walk_due(&self, tcp: &TcpPeer) -> bool {
        self.walked != Some(tcp.flow_changes) || self.engine.borrow().unreconciled()
    }

    /// Drops the engine's record of every flow whose connection is gone
    /// and arms every unarmed flow whose connection is quiescent again;
    /// returns how many it armed and how many records it dropped.
    /// Quiescence (nothing queued, unacked, or out of order) guarantees
    /// the shadow state handed to the device — next expected sequence
    /// number, next transmit sequence number — is the complete truth about
    /// the flow, so device and host cannot diverge. One demux lookup per
    /// flow on the port.
    pub(super) fn rearm(&mut self, tcp: &TcpPeer) -> (usize, usize) {
        self.walked = Some(tcp.flow_changes);
        self.engine.borrow_mut().reconcile(
            |key| tcp.holds_flow(self.port, remote_of(key)),
            |key| tcp.offload_shadow(self.port, remote_of(key)),
        )
    }
}

impl NetworkStack {
    /// Installs the TCP offload engine for connections on local `port`.
    /// [`OffloadService::Echo`] reflects complete framed request messages
    /// on the device without an RX→host→TX crossing;
    /// [`OffloadService::KvCache`] answers GETs that hit a NIC-resident
    /// cache bounded to `capacity_bytes` of device memory, and everything
    /// else (misses, SETs, DELs) falls back to the host, which repopulates
    /// the cache with [`NetworkStack::offload_cache_insert`].
    pub fn install_tcp_offload(&self, port: u16, service: OffloadService) -> Result<(), NetError> {
        let mut shard = self.shard.borrow_mut();
        if shard.offload.is_some() {
            return Err(NetError::Unsupported("a TCP offload is already installed"));
        }
        let engine = Rc::new(RefCell::new(TcpOffload::new(port, service)));
        let slot = shard
            .port
            .install_program(NicProgram::TcpOffload {
                engine: Rc::clone(&engine),
            })
            .map_err(|_| NetError::Unsupported("device has no free program slots"))?;
        let off = Offload {
            engine,
            slot,
            port,
            walked: None,
        };
        shard.shard_stats.offload_rearms += off.adopt(&shard.tcp) as u64;
        shard.offload = Some(off);
        Ok(())
    }

    /// Removes the installed TCP offload program, if any: every armed
    /// flow is disarmed, absorbed-but-unserved bytes are handed back to
    /// the host control blocks, and the NIC slot is freed. Connections
    /// continue seamlessly on the pure host path. Idempotent.
    pub fn uninstall_tcp_offload(&self) {
        let mut shard = self.shard.borrow_mut();
        let Some(off) = &shard.offload else {
            return;
        };
        off.engine.borrow_mut().disarm_all();
        let now = shard.clock.now();
        shard.drain_offload_events(now);
        shard.flush_tcp();
        if let Some(off) = shard.offload.take() {
            shard.port.uninstall_program(off.slot);
        }
    }

    /// Write-through populate of the device KV cache (the host calls
    /// this after serving a GET miss). Returns `false` when no KV
    /// offload is installed or the entry exceeds the device-memory bound
    /// — callers need no special-casing either way.
    pub fn offload_cache_insert(&self, key: &[u8], value: &[u8]) -> bool {
        match &self.shard.borrow().offload {
            Some(off) => off.engine.borrow_mut().cache_insert(key, value),
            None => false,
        }
    }

    /// Host-driven invalidation of one device KV cache entry — for
    /// removals the device cannot see on the wire (host-side LRU
    /// eviction, TTL expiry). Returns `false` when no KV offload is
    /// installed or the key was not cached.
    pub fn offload_cache_invalidate(&self, key: &[u8]) -> bool {
        match &self.shard.borrow().offload {
            Some(off) => off.engine.borrow_mut().cache_invalidate(key),
            None => false,
        }
    }

    /// Counters of the installed offload engine, if any.
    pub fn offload_stats(&self) -> Option<OffloadStats> {
        let shard = self.shard.borrow();
        shard
            .offload
            .as_ref()
            .map(|off| off.engine.borrow().stats())
    }
}
