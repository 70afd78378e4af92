//! A deterministic, virtual-time network fabric for simulated kernel-bypass devices.
//!
//! The fabric is the substitute for the physical datacenter network in the
//! Demikernel reproduction: simulated NICs (`dpdk-sim`, `rdma-sim`) register
//! *endpoints* identified by MAC address, transmit raw frames, and receive
//! frames into per-endpoint mailboxes after a configurable link delay.
//!
//! Time is virtual: a [`SimClock`] advances only when the caller decides
//! (typically the Demikernel scheduler, when every coroutine is blocked).
//! All randomness (frame loss) comes from a seeded PRNG, so a simulation run
//! is a pure function of its inputs — every test and experiment is exactly
//! reproducible.
//!
//! # Examples
//!
//! ```
//! use sim_fabric::{Fabric, LinkConfig, MacAddress, SimTime};
//!
//! let fabric = Fabric::new(7);
//! let a = fabric.register_endpoint(MacAddress::new([2, 0, 0, 0, 0, 1]));
//! let b = fabric.register_endpoint(MacAddress::new([2, 0, 0, 0, 0, 2]));
//!
//! a.transmit(b.mac(), vec![0xAB; 64]);
//! // Nothing arrives until virtual time passes the link latency.
//! assert!(b.receive().is_none());
//! fabric.advance_to_next_event();
//! assert_eq!(b.receive().unwrap().payload, vec![0xAB; 64]);
//! ```
#![warn(unreachable_pub)]

mod caps;
mod clock;
mod fabric;
mod rng;

pub use caps::{DeviceCaps, DeviceCategory};
pub use clock::{SimClock, SimTime};
pub use fabric::{Endpoint, Fabric, FabricStats, Frame, LinkConfig, MacAddress};
pub use rng::SimRng;
