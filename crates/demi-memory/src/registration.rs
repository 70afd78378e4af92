//! Device memory-registration hooks and pin accounting.
//!
//! Kernel-bypass devices translate user-space addresses on the device
//! (IOMMU / NIC translation tables), which requires memory to be
//! *registered*: pinned and mapped before any I/O may touch it. The paper's
//! position is that this belongs in the libOS, invisibly to applications.
//! A [`Registrar`] is what a simulated device exposes to the memory manager
//! so that registration events — and the memory-vs-registration-cost
//! trade-off of experiment E5 — are observable.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Identifies a registered memory region with a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionId(pub u64);

/// Aggregate registration counters for one registrar.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionStats {
    /// Regions currently registered.
    pub active_regions: u64,
    /// Total `register` calls ever made.
    pub registrations: u64,
    /// Total `deregister` calls ever made.
    pub deregistrations: u64,
    /// Bytes currently pinned.
    pub pinned_bytes: u64,
    /// High-water mark of pinned bytes.
    pub pinned_bytes_peak: u64,
}

/// The hook a device implements to observe memory registration.
///
/// Registration is a control-path operation (paper §4.1): it happens when a
/// pool grows, not per I/O. Implementations typically record a translation
/// entry and account pinned memory.
pub trait Registrar {
    /// Registers a region of `bytes` bytes; returns its device-side id.
    fn register(&self, bytes: usize) -> RegionId;

    /// Removes a previously registered region.
    fn deregister(&self, id: RegionId);

    /// Human-readable device name for diagnostics.
    fn name(&self) -> &str {
        "registrar"
    }
}

/// A reference [`Registrar`] that counts registrations and pinned bytes.
///
/// Every simulated device that does not need its own translation-table
/// model uses this; it is also what experiments query for pin accounting.
#[derive(Clone, Default)]
pub struct CountingRegistrar {
    inner: Rc<RefCell<CountingInner>>,
}

#[derive(Default)]
struct CountingInner {
    next_id: u64,
    regions: Vec<(RegionId, usize)>,
    stats: RegionStats,
}

impl CountingRegistrar {
    /// Creates a registrar with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> RegionStats {
        self.inner.borrow().stats
    }
}

impl Registrar for CountingRegistrar {
    fn register(&self, bytes: usize) -> RegionId {
        let mut inner = self.inner.borrow_mut();
        let id = RegionId(inner.next_id);
        inner.next_id += 1;
        inner.regions.push((id, bytes));
        inner.stats.registrations += 1;
        inner.stats.active_regions += 1;
        inner.stats.pinned_bytes += bytes as u64;
        inner.stats.pinned_bytes_peak = inner.stats.pinned_bytes_peak.max(inner.stats.pinned_bytes);
        id
    }

    fn deregister(&self, id: RegionId) {
        let mut inner = self.inner.borrow_mut();
        if let Some(pos) = inner.regions.iter().position(|(r, _)| *r == id) {
            let (_, bytes) = inner.regions.remove(pos);
            inner.stats.deregistrations += 1;
            inner.stats.active_regions -= 1;
            inner.stats.pinned_bytes -= bytes as u64;
        }
    }

    fn name(&self) -> &str {
        "counting"
    }
}

impl fmt::Debug for CountingRegistrar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CountingRegistrar({:?})", self.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CountingRegistrar {
        /// Whether a region id is currently registered.
        fn is_registered(&self, id: RegionId) -> bool {
            self.inner.borrow().regions.iter().any(|(r, _)| *r == id)
        }
    }

    #[test]
    fn register_and_deregister_track_pins() {
        let reg = CountingRegistrar::new();
        let a = reg.register(4096);
        let b = reg.register(8192);
        let s = reg.stats();
        assert_eq!(s.active_regions, 2);
        assert_eq!(s.pinned_bytes, 12_288);
        assert_eq!(s.pinned_bytes_peak, 12_288);
        assert!(reg.is_registered(a));

        reg.deregister(a);
        let s = reg.stats();
        assert_eq!(s.active_regions, 1);
        assert_eq!(s.pinned_bytes, 8_192);
        assert_eq!(s.pinned_bytes_peak, 12_288, "peak is sticky");
        assert!(!reg.is_registered(a));
        assert!(reg.is_registered(b));
    }

    #[test]
    fn deregister_unknown_region_is_ignored() {
        let reg = CountingRegistrar::new();
        reg.deregister(RegionId(99));
        assert_eq!(reg.stats(), RegionStats::default());
    }

    #[test]
    fn ids_are_unique() {
        let reg = CountingRegistrar::new();
        let a = reg.register(1);
        let b = reg.register(1);
        assert_ne!(a, b);
    }
}
