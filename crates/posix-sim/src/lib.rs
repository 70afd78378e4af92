//! The simulated legacy kernel — the baseline the paper argues against.
//!
//! Every overhead the paper attributes to the traditional OS I/O path is
//! modeled here as an explicit, countable, *metered* event so experiments
//! can compare it against the Demikernel data path on equal terms:
//!
//! * [`SimKernel`] — the syscall gate. Each POSIX call charges a crossing cost
//!   in virtual time and increments exact counters (E1: "the kernel adds
//!   significant overhead to every I/O access").
//! * [`KernelSockets`] — POSIX sockets over the same [`net_stack`] the Demikernel
//!   uses, but with the kernel in the way: every `read`/`write` performs a
//!   *real* `memcpy` between kernel and user buffers, plus a metered copy
//!   charge (E2: "copying a 4k page takes 1µs on a 4Ghz CPU"). TCP reads
//!   expose stream semantics — partial reads and all (E3).
//! * [`epoll`] — level-triggered readiness with POSIX wake-all semantics:
//!   every waiter sees a ready fd, one gets the data, the rest waste their
//!   wakeup (E4: "wait wakes exactly one thread ... never wasted wake ups"
//!   is the Demikernel's fix for exactly this).
//! * [`Ext4Sim`] — an ext4-like layout (inodes, bitmaps, indirect blocks) on
//!   the simulated NVMe device, the baseline for E10's storage-layout
//!   comparison.
//! * [`MtcpSim`] — a POSIX-preserving user-level stack with mTCP-style batch
//!   processing: no syscall crossings, but batching epochs add latency
//!   (E8: "its latency was higher than the Linux kernel's").
#![warn(unreachable_pub)]

pub mod epoll;
mod file;
mod kernel;
mod mtcp;
mod socket;

pub use file::{Ext4Sim, FileError, FileFd};
pub use kernel::{CostModel, KernelStats, SimKernel};
pub use mtcp::{MtcpConfig, MtcpSim};
pub use socket::{Fd, KernelSockets, SockError};
