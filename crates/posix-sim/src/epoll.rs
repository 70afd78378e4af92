//! Level-triggered readiness with POSIX wake-all semantics.
//!
//! The paper (§4.4) pins two defects on `epoll`: a woken thread must make
//! *another* syscall to get the data, and a completion wakes *every*
//! waiter even though only one can consume it. This module reproduces both
//! faithfully: `epoll_wait` is a metered syscall that returns readiness
//! (never data), and it is level-triggered, so every concurrent waiter
//! observes the same ready descriptor until someone drains it.

use std::collections::HashMap;

use crate::socket::{Fd, KernelSockets, SockError};

/// An epoll instance descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EpollId(pub u32);

/// Counters for wakeup accounting (experiment E4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct EpollStats {
    /// `epoll_wait` calls that returned at least one ready fd.
    pub wakeups: u64,
    /// `epoll_wait` calls that returned empty.
    pub empty_waits: u64,
}

/// The kernel's epoll instance table.
#[derive(Debug, Default)]
pub struct EpollRegistry {
    sets: HashMap<EpollId, Vec<Fd>>,
    next: u32,
    stats: EpollStats,
}

impl EpollRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// `epoll_create`.
    pub fn create(&mut self, sockets: &mut KernelSockets) -> EpollId {
        sockets.kernel().syscall();
        let id = EpollId(self.next);
        self.next += 1;
        self.sets.insert(id, Vec::new());
        id
    }

    /// `epoll_ctl(EPOLL_CTL_ADD)` for read interest.
    pub fn add(
        &mut self,
        sockets: &mut KernelSockets,
        ep: EpollId,
        fd: Fd,
    ) -> Result<(), SockError> {
        sockets.kernel().syscall();
        let set = self.sets.get_mut(&ep).ok_or(SockError::BadFd)?;
        if !set.contains(&fd) {
            set.push(fd);
        }
        Ok(())
    }

    /// Nonblocking `epoll_wait`: returns up to `max` ready descriptors.
    ///
    /// Level-triggered: a descriptor stays ready (and is returned to every
    /// caller) until its data is consumed — this is what makes the wake-all
    /// thundering herd possible.
    pub fn wait(
        &mut self,
        sockets: &mut KernelSockets,
        ep: EpollId,
        max: usize,
    ) -> Result<Vec<Fd>, SockError> {
        sockets.kernel().syscall();
        sockets.poll();
        let set = self.sets.get(&ep).ok_or(SockError::BadFd)?;
        let ready: Vec<Fd> = set
            .iter()
            .copied()
            .filter(|&fd| sockets.is_readable(fd))
            .take(max)
            .collect();
        if ready.is_empty() {
            self.stats.empty_waits += 1;
        } else {
            self.stats.wakeups += 1;
        }
        Ok(ready)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{CostModel, SimKernel};
    use dpdk_sim::{DpdkPort, PortConfig};
    use net_stack::{NetworkStack, StackConfig};
    use sim_fabric::{Fabric, LinkConfig, MacAddress};
    use std::net::Ipv4Addr;

    impl EpollRegistry {
        /// `epoll_ctl(EPOLL_CTL_DEL)`.
        fn remove(
            &mut self,
            sockets: &mut KernelSockets,
            ep: EpollId,
            fd: Fd,
        ) -> Result<(), SockError> {
            sockets.kernel().syscall();
            let set = self.sets.get_mut(&ep).ok_or(SockError::BadFd)?;
            set.retain(|&f| f != fd);
            Ok(())
        }

        /// Wakeup counters.
        fn stats(&self) -> EpollStats {
            self.stats
        }
    }

    fn two_hosts() -> (Fabric, KernelSockets, KernelSockets) {
        let fabric = Fabric::new(5);
        fabric.set_default_link(LinkConfig::ideal());
        let mk = |fabric: &Fabric, last: u8| {
            let port = DpdkPort::new(fabric, PortConfig::basic(MacAddress::from_last_octet(last)));
            let stack = NetworkStack::new(
                port,
                fabric.clock(),
                StackConfig::new(Ipv4Addr::new(10, 0, 0, last)),
            );
            KernelSockets::new(SimKernel::new(fabric.clock(), CostModel::default()), stack)
        };
        let a = mk(&fabric, 1);
        let b = mk(&fabric, 2);
        (fabric, a, b)
    }

    #[test]
    fn wait_reports_readiness_level_triggered() {
        let (fabric, mut a, mut b) = two_hosts();
        let mut epoll = EpollRegistry::new();
        let sender = a.udp_socket(1000).unwrap();
        let receiver = b.udp_socket(2000).unwrap();
        let ep = epoll.create(&mut b);
        epoll.add(&mut b, ep, receiver).unwrap();

        assert!(epoll.wait(&mut b, ep, 8).unwrap().is_empty());

        a.sendto(
            sender,
            net_stack::SocketAddr::new(Ipv4Addr::new(10, 0, 0, 2), 2000),
            b"wake",
        )
        .unwrap();
        // Let ARP resolution and delivery play out.
        for _ in 0..20 {
            a.poll();
            b.poll();
            if !fabric.advance_to_next_event() {
                break;
            }
        }
        b.poll();

        // Level-triggered: ready on every call until drained.
        assert_eq!(epoll.wait(&mut b, ep, 8).unwrap(), vec![receiver]);
        assert_eq!(epoll.wait(&mut b, ep, 8).unwrap(), vec![receiver]);
        let mut buf = [0u8; 16];
        let (_, n) = b.recvfrom(receiver, &mut buf).unwrap().unwrap();
        assert_eq!(&buf[..n], b"wake");
        assert!(epoll.wait(&mut b, ep, 8).unwrap().is_empty());

        let s = epoll.stats();
        assert_eq!(s.wakeups, 2);
        assert_eq!(s.empty_waits, 2);
    }

    #[test]
    fn add_remove_controls_interest() {
        let (_fabric, _a, mut b) = two_hosts();
        let mut epoll = EpollRegistry::new();
        let fd = b.udp_socket(2000).unwrap();
        let ep = epoll.create(&mut b);
        epoll.add(&mut b, ep, fd).unwrap();
        epoll.add(&mut b, ep, fd).unwrap(); // Idempotent.
        epoll.remove(&mut b, ep, fd).unwrap();
        assert!(epoll.wait(&mut b, ep, 8).unwrap().is_empty());
    }

    #[test]
    fn every_syscall_is_charged() {
        let (_fabric, _a, mut b) = two_hosts();
        let mut epoll = EpollRegistry::new();
        let fd = b.udp_socket(2000).unwrap(); // 2 syscalls (socket+bind).
        let ep = epoll.create(&mut b); // 1
        epoll.add(&mut b, ep, fd).unwrap(); // 1
        let _ = epoll.wait(&mut b, ep, 8); // 1
        assert_eq!(b.kernel().stats().syscalls, 5);
    }
}
