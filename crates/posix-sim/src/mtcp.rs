//! An mTCP-style batched, POSIX-preserving user-level stack.
//!
//! The paper's related-work section reports: "We explored mTCP but found
//! it to be too expensive; for example, its latency was higher than the
//! Linux kernel's." The reason is structural: mTCP keeps the POSIX
//! interface (so the copy per read/write survives) and regains efficiency
//! by *batching* — packets are processed in bulk at batching epochs, which
//! amortizes per-packet costs but adds up to an epoch of queueing delay in
//! each direction. This module models exactly that trade: no syscall
//! crossings, copies preserved, and a configurable batching epoch that
//! delays event visibility. Experiment E8 sweeps it against the kernel and
//! the Demikernel.

use std::collections::{HashMap, VecDeque};

use demi_memory::DemiBuffer;
use net_stack::tcp::{ConnId, ListenerId};
use net_stack::types::{NetError, SocketAddr};
use net_stack::NetworkStack;
use sim_fabric::{SimClock, SimTime};

use crate::kernel::{CostModel, SimKernel};

/// mTCP-model tunables.
#[derive(Debug, Clone, Copy)]
pub struct MtcpConfig {
    /// Batching epoch: events and transmissions are released only at epoch
    /// boundaries.
    pub epoch: SimTime,
}

impl Default for MtcpConfig {
    fn default() -> Self {
        MtcpConfig {
            epoch: SimTime::from_micros(10),
        }
    }
}

/// Batching counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MtcpStats {
    /// Epoch flushes executed.
    pub batches: u64,
    /// Events (rx chunks + tx sends) released by those flushes.
    pub batched_events: u64,
}

/// The batched user-level stack.
pub struct MtcpSim {
    stack: NetworkStack,
    clock: SimClock,
    /// Copies are charged (POSIX preserved) but syscalls are free (that is
    /// the whole point of a user-level stack).
    meter: SimKernel,
    config: MtcpConfig,
    next_flush: SimTime,
    staged_rx: HashMap<ConnId, VecDeque<DemiBuffer>>,
    visible_rx: HashMap<ConnId, VecDeque<DemiBuffer>>,
    staged_tx: Vec<(ConnId, DemiBuffer)>,
    stats: MtcpStats,
}

impl MtcpSim {
    /// Wraps a network stack in the batching model.
    pub fn new(stack: NetworkStack, clock: SimClock, config: MtcpConfig) -> Self {
        let meter = SimKernel::new(
            clock.clone(),
            CostModel {
                syscall: SimTime::ZERO, // Kernel bypassed.
                ..CostModel::default()  // Copies preserved by POSIX.
            },
        );
        MtcpSim {
            next_flush: clock.now().saturating_add(config.epoch),
            stack,
            clock,
            meter,
            config,
            staged_rx: HashMap::new(),
            visible_rx: HashMap::new(),
            staged_tx: Vec::new(),
            stats: MtcpStats::default(),
        }
    }

    /// The copy meter (syscall count stays zero by construction).
    pub fn meter(&self) -> &SimKernel {
        &self.meter
    }

    /// Batching counters.
    pub fn stats(&self) -> MtcpStats {
        self.stats
    }

    /// The underlying stack (for connection setup plumbing in harnesses).
    pub fn stack(&self) -> &NetworkStack {
        &self.stack
    }

    /// Registers a connection for batched receive staging.
    fn track(&mut self, conn: ConnId) {
        self.staged_rx.entry(conn).or_default();
        self.visible_rx.entry(conn).or_default();
    }

    /// Listens (control path, unbatched).
    pub fn listen(&mut self, port: u16, backlog: usize) -> Result<ListenerId, NetError> {
        self.stack.tcp_listen(port, backlog)
    }

    /// Accepts (control path, unbatched).
    pub fn accept(&mut self, listener: ListenerId) -> Result<Option<ConnId>, NetError> {
        let conn = self.stack.tcp_accept(listener)?;
        if let Some(c) = conn {
            self.track(c);
        }
        Ok(conn)
    }

    /// Connects (control path, unbatched).
    pub fn connect(&mut self, remote: SocketAddr) -> Result<ConnId, NetError> {
        let conn = self.stack.tcp_connect(remote)?;
        self.track(conn);
        Ok(conn)
    }

    /// POSIX-style send: copies the user buffer, then *stages* the send
    /// until the next epoch flush.
    pub fn send(&mut self, conn: ConnId, data: &[u8]) -> Result<(), NetError> {
        let mut buf = DemiBuffer::zeroed(data.len());
        self.meter.copy(buf.try_mut().expect("fresh buffer"), data);
        self.staged_tx.push((conn, buf));
        Ok(())
    }

    /// POSIX-style receive: copies released (post-epoch) data into the
    /// user buffer. `None` = nothing released yet.
    pub fn recv(&mut self, conn: ConnId, buf: &mut [u8]) -> Option<usize> {
        let queue = self.visible_rx.get_mut(&conn)?;
        let mut chunk = queue.pop_front()?;
        let n = chunk.len().min(buf.len());
        self.meter.copy(&mut buf[..n], &chunk.as_slice()[..n]);
        if n < chunk.len() {
            chunk.advance(n);
            queue.push_front(chunk);
        }
        Some(n)
    }

    /// Drives the stack and runs epoch flushes when due.
    pub fn poll(&mut self) {
        self.stack.poll();
        // Stage arrivals (not yet visible to the application).
        let conns: Vec<ConnId> = self.staged_rx.keys().copied().collect();
        for conn in conns {
            while let Ok(Some(chunk)) = self.stack.tcp_recv(conn) {
                self.staged_rx
                    .get_mut(&conn)
                    .expect("tracked")
                    .push_back(chunk);
            }
        }
        let now = self.clock.now();
        if now >= self.next_flush {
            self.flush();
            self.next_flush = now.saturating_add(self.config.epoch);
        }
    }

    fn flush(&mut self) {
        self.stats.batches += 1;
        for (conn, queue) in self.staged_rx.iter_mut() {
            let visible = self.visible_rx.entry(*conn).or_default();
            while let Some(chunk) = queue.pop_front() {
                self.stats.batched_events += 1;
                visible.push_back(chunk);
            }
        }
        for (conn, buf) in self.staged_tx.drain(..) {
            self.stats.batched_events += 1;
            let _ = self.stack.tcp_send(conn, buf);
        }
    }

    /// Earliest deadline: the next epoch flush or a stack timer.
    pub fn next_deadline(&self) -> Option<SimTime> {
        let flush = Some(self.next_flush);
        [flush, self.stack.next_deadline()]
            .into_iter()
            .flatten()
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpdk_sim::{DpdkPort, PortConfig};
    use net_stack::tcp::State;
    use net_stack::StackConfig;
    use sim_fabric::{Fabric, MacAddress};
    use std::net::Ipv4Addr;

    fn host(fabric: &Fabric, last: u8) -> NetworkStack {
        let port = DpdkPort::new(fabric, PortConfig::basic(MacAddress::from_last_octet(last)));
        NetworkStack::new(
            port,
            fabric.clock(),
            StackConfig::new(Ipv4Addr::new(10, 0, 0, last)),
        )
    }

    fn settle(
        fabric: &Fabric,
        mtcp: &mut MtcpSim,
        peer: &NetworkStack,
        mut until: impl FnMut(&mut MtcpSim, &NetworkStack) -> bool,
    ) {
        for _ in 0..100_000 {
            mtcp.poll();
            peer.poll();
            if until(mtcp, peer) {
                return;
            }
            if fabric.advance_to_next_event() {
                continue;
            }
            let deadline = [mtcp.next_deadline(), peer.next_deadline()]
                .into_iter()
                .flatten()
                .min();
            match deadline {
                Some(t) => fabric.clock().advance_to(t),
                None => return,
            }
        }
        panic!("mtcp world did not settle");
    }

    #[test]
    fn batching_delays_but_delivers() {
        let fabric = Fabric::new(3);
        let server = host(&fabric, 2);
        let mut mtcp = MtcpSim::new(host(&fabric, 1), fabric.clock(), MtcpConfig::default());
        let lid = server.tcp_listen(80, 8).unwrap();
        let conn = mtcp
            .connect(SocketAddr::new(Ipv4Addr::new(10, 0, 0, 2), 80))
            .unwrap();
        settle(&fabric, &mut mtcp, &server, |m, _| {
            m.stack().tcp_state(conn) == Ok(State::Established)
        });
        let mut sconn = None;
        settle(&fabric, &mut mtcp, &server, |_, s| {
            sconn = s.tcp_accept(lid).unwrap();
            sconn.is_some()
        });
        let sconn = sconn.unwrap();

        let t_send = fabric.clock().now();
        mtcp.send(conn, b"batched request").unwrap();
        // The send is staged: nothing reaches the server before an epoch.
        settle(&fabric, &mut mtcp, &server, |_, s| s.tcp_readable(sconn));
        let t_arrive = fabric.clock().now();
        assert!(
            t_arrive.saturating_since(t_send) >= SimTime::from_micros(1),
            "delivery cannot be instant"
        );
        assert_eq!(
            server.tcp_recv(sconn).unwrap().unwrap().as_slice(),
            b"batched request"
        );
        assert!(mtcp.stats().batches >= 1);
        assert_eq!(mtcp.meter().stats().syscalls, 0, "no kernel crossings");
        assert!(mtcp.meter().stats().copies >= 1, "POSIX copy preserved");
    }

    #[test]
    fn rx_is_released_only_at_epoch_boundaries() {
        let fabric = Fabric::new(3);
        let server = host(&fabric, 2);
        let mut mtcp = MtcpSim::new(host(&fabric, 1), fabric.clock(), MtcpConfig::default());
        let lid = server.tcp_listen(80, 8).unwrap();
        let conn = mtcp
            .connect(SocketAddr::new(Ipv4Addr::new(10, 0, 0, 2), 80))
            .unwrap();
        settle(&fabric, &mut mtcp, &server, |m, _| {
            m.stack().tcp_state(conn) == Ok(State::Established)
        });
        let mut sconn = None;
        settle(&fabric, &mut mtcp, &server, |_, s| {
            sconn = s.tcp_accept(lid).unwrap();
            sconn.is_some()
        });
        server
            .tcp_send(sconn.unwrap(), DemiBuffer::from_slice(b"reply"))
            .unwrap();
        let mut buf = [0u8; 32];
        let mut got = None;
        settle(&fabric, &mut mtcp, &server, |m, _| {
            got = m.recv(conn, &mut buf);
            got.is_some()
        });
        assert_eq!(&buf[..got.unwrap()], b"reply");
    }
}
