//! The perf ledger: one whole-path wall-clock benchmark of the Demikernel
//! reproduction (UDP echo + three KV workloads) with per-layer rigs and a
//! traced run. See `README.md` for the workload rationale and the rules
//! the numbers follow.

pub mod alloc;
pub mod diff;
pub mod json;
pub mod layers;
pub mod ledger;
pub mod measure;
pub mod noise;
pub mod rigs;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;
