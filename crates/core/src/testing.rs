//! World builders and the allocation meter shared by integration tests,
//! examples, and the perf ledger.
//!
//! Every world follows one convention: hosts are numbered by last octet —
//! host *n* is `10.0.0.n` at MAC `02:00:00:00:00:0n` — and client/server
//! co-run as coroutines on one shared [`Runtime`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

use dpdk_sim::PortConfig;
use net_stack::StackConfig;
use sim_fabric::{Fabric, MacAddress};
use spdk_sim::nvme::{NvmeConfig, NvmeDevice};

use crate::libos::catcorn::Catcorn;
use crate::libos::catfs::Catfs;
use crate::libos::catmem::Catmem;
use crate::libos::catnap::Catnap;
use crate::libos::catnip::Catnip;
use crate::runtime::Runtime;

thread_local! {
    /// This thread's allocation count while an [`AllocMeter`] is armed,
    /// `None` otherwise. Const-initialised and destructor-free, so the
    /// allocator can read it at any point of a thread's life without
    /// allocating or touching torn-down state.
    static METERED: Cell<Option<u64>> = const { Cell::new(None) };
}

/// A global allocator that counts allocations **per thread, and only
/// inside an [`AllocMeter`] window**: "zero allocations here" then means
/// *this* thread's window, however many sibling tests `cargo test` runs
/// in parallel. A test binary opts in with
/// `#[global_allocator] static A: CountingAlloc = CountingAlloc;`.
pub struct CountingAlloc;

// SAFETY: every request is forwarded unchanged to `System`; the only
// addition is a thread-local counter bump that cannot allocate or unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: a thread's last frees/allocations may run after its
        // thread-locals are gone; those are never inside a window.
        let _ = METERED.try_with(|m| m.set(m.get().map(|n| n + 1)));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Arms the calling thread's allocation counter until dropped (the RAII
/// guard idiom: a panicking test cannot leave the meter armed for the next
/// test that reuses its thread). Counts stay 0 unless the test binary
/// installed [`CountingAlloc`].
pub struct AllocMeter(());

impl AllocMeter {
    /// Starts a window at zero. Windows do not nest.
    pub fn arm() -> AllocMeter {
        let previous = METERED.replace(Some(0));
        assert!(previous.is_none(), "allocation windows do not nest");
        AllocMeter(())
    }

    /// Allocations (including reallocations) this thread made so far in
    /// the window.
    pub fn count(&self) -> u64 {
        METERED.get().unwrap_or(0)
    }
}

impl Drop for AllocMeter {
    fn drop(&mut self) {
        METERED.set(None);
    }
}

/// Host *n*'s IPv4 address.
pub fn host_ip(n: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, n)
}

/// Host *n*'s MAC address.
pub fn host_mac(n: u8) -> MacAddress {
    MacAddress::from_last_octet(n)
}

/// Two catnip hosts (1 = client, 2 = server) on a fresh fabric.
pub fn catnip_pair(seed: u64) -> (Runtime, Fabric, Catnip, Catnip) {
    let fabric = Fabric::new(seed);
    let rt = Runtime::with_fabric(fabric.clone());
    let client = Catnip::new(&rt, &fabric, host_mac(1), host_ip(1));
    let server = Catnip::new(&rt, &fabric, host_mac(2), host_ip(2));
    (rt, fabric, client, server)
}

/// Two catnip hosts where the server (host 2) sits on a SmartNIC-class
/// device with `slots` on-device program slots — the world the E17
/// offload tests run in. The client stays on a plain NIC.
pub fn catnip_pair_offload(seed: u64, slots: usize) -> (Runtime, Fabric, Catnip, Catnip) {
    let fabric = Fabric::new(seed);
    let rt = Runtime::with_fabric(fabric.clone());
    let client = Catnip::new(&rt, &fabric, host_mac(1), host_ip(1));
    let server = Catnip::with_stack_config(
        &rt,
        &fabric,
        PortConfig::smartnic(host_mac(2), slots),
        StackConfig::new(host_ip(2)),
    );
    (rt, fabric, client, server)
}

/// One fully-built shard world: a client and a server catnip host that
/// are each one shard of their logical host, wired to the other worlds
/// through the links in the [`crate::exec::ShardSpec`] they were built
/// from.
pub struct ShardWorld {
    /// The world's runtime (own scheduler, own pollers).
    pub rt: Runtime,
    /// The world's fabric (own virtual clock).
    pub fabric: Fabric,
    /// This world's shard of the client host (`10.0.0.1`).
    pub client: Catnip,
    /// This world's shard of the server host (`10.0.0.2`).
    pub server: Catnip,
    /// The run's metrics sink (absorb on this world's thread).
    pub hub: std::sync::Arc<crate::metrics::MetricsHub>,
}

/// Builds shard world `spec.index` of the standard two-host deployment:
/// client = host 1, server = host 2, each host sharded across all the
/// run's worlds. `spec.hosts[0]` carries the client host's cross-world
/// links and `spec.hosts[1]` the server's — both stacks share their
/// host's port namespace (so a `tcp_connect` picks an ephemeral port
/// that RSS-homes the flow to this world) and attach their ring-mesh
/// endpoint (so frames that globally hash elsewhere are handed off
/// rather than misdelivered). The fabric seed mixes `spec.index` into
/// `seed` the same way in both exec modes, keeping per-world traffic
/// byte-identical between [`crate::exec::ExecMode::SingleThread`] and
/// [`crate::exec::ExecMode::ThreadPerShard`].
pub fn catnip_shard_world(spec: crate::exec::ShardSpec, seed: u64) -> ShardWorld {
    assert!(
        spec.hosts.len() >= 2,
        "shard world needs client + server host links (run_shards hosts >= 2)"
    );
    let fabric = Fabric::new(seed ^ (spec.index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let rt = Runtime::with_fabric(fabric.clone());
    let mut hosts = spec.hosts.into_iter();
    let client_links = hosts.next().unwrap();
    let server_links = hosts.next().unwrap();
    let host = |n, links| {
        let (nic, cfg) = (PortConfig::basic(host_mac(n)), StackConfig::new(host_ip(n)));
        Catnip::shard_of(&rt, &fabric, nic, cfg, links)
    };
    let client = host(1, client_links);
    let server = host(2, server_links);
    ShardWorld {
        rt,
        fabric,
        client,
        server,
        hub: spec.hub,
    }
}

/// Two catnap (kernel-baseline) hosts on a fresh fabric.
pub fn catnap_pair(seed: u64) -> (Runtime, Fabric, Catnap, Catnap) {
    let fabric = Fabric::new(seed);
    let rt = Runtime::with_fabric(fabric.clone());
    let client = Catnap::new(&rt, &fabric, host_mac(1), host_ip(1));
    let server = Catnap::new(&rt, &fabric, host_mac(2), host_ip(2));
    (rt, fabric, client, server)
}

/// Two catcorn (RDMA) hosts on a fresh fabric.
pub fn catcorn_pair(seed: u64) -> (Runtime, Fabric, Catcorn, Catcorn) {
    let fabric = Fabric::new(seed);
    let rt = Runtime::with_fabric(fabric.clone());
    let client = Catcorn::new(&rt, &fabric, host_mac(1));
    let server = Catcorn::new(&rt, &fabric, host_mac(2));
    (rt, fabric, client, server)
}

/// A catmem instance on a standalone runtime.
pub fn catmem_world() -> (Runtime, Catmem) {
    let rt = Runtime::new();
    let libos = Catmem::new(&rt);
    (rt, libos)
}

/// A catfs instance on a fresh simulated NVMe device.
pub fn catfs_world() -> (Runtime, Catfs, NvmeDevice) {
    let rt = Runtime::new();
    let device = NvmeDevice::new(rt.clock().clone(), NvmeConfig::default());
    let catfs = Catfs::new(&rt, device.clone());
    (rt, catfs, device)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::libos::{LibOs, SocketKind};
    use crate::types::Sga;
    use net_stack::types::SocketAddr;

    #[test]
    fn worlds_construct_and_exchange() {
        let (_rt, _fabric, client, server) = catnip_pair(1);
        let sqd = server.socket(SocketKind::Udp).unwrap();
        server.bind(sqd, SocketAddr::new(host_ip(2), 7)).unwrap();
        let cqd = client.socket(SocketKind::Udp).unwrap();
        client.bind(cqd, SocketAddr::new(host_ip(1), 9000)).unwrap();
        client
            .pushto(cqd, &Sga::from_slice(b"hi"), SocketAddr::new(host_ip(2), 7))
            .unwrap();
        let (_, sga) = server.blocking_pop(sqd).unwrap().expect_pop();
        assert_eq!(sga.to_vec(), b"hi");
    }

    #[test]
    fn addressing_convention_is_consistent() {
        assert_eq!(host_ip(7).octets()[3], 7);
        assert_eq!(host_mac(7), MacAddress::from_last_octet(7));
    }
}
