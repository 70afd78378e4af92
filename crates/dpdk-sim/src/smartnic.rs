//! On-device program slots (the Table-1 "+other features" column).
//!
//! Programmable NICs (FPGA or SoC based) can run application-supplied
//! functions on the I/O path. The paper's queue abstraction exposes these
//! as `filter`/`map` queue transformations that a libOS *may* offload
//! (§4.2–4.3). The simulation models offload cost honestly: every program
//! execution spends *device* cycles, tracked separately from host cycles,
//! so experiments E6/E17 can show the host-CPU reduction without
//! pretending the work is free.
//!
//! Programs are a small *closed set* of verified behaviors — filter,
//! steer, in-place map, and the data-parameterized TCP offload engine in
//! [`crate::offload`] — not arbitrary code. That is the exokernel-style
//! safety argument: the device runs only shapes the libOS planner can
//! reason about, parameterized by data (predicates, flow tables, cache
//! contents), never by unvetted control flow on the wire path.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use demi_memory::DemiBuffer;
use sim_fabric::SimTime;

use crate::offload::{OffloadAction, TcpOffload};

/// A frame predicate: `false` drops the frame.
pub type FramePredicate = Rc<dyn Fn(&[u8]) -> bool>;
/// A steering function: `Some(q)` selects RX queue `q`.
pub type FrameSelector = Rc<dyn Fn(&[u8]) -> Option<u16>>;
/// An in-place frame rewriter over the mutable frame bytes.
pub type FrameTransform = Rc<dyn Fn(&mut [u8])>;

/// Handle to an installed program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgramSlot(pub usize);

/// An application function offloaded to the NIC.
#[derive(Clone)]
pub enum NicProgram {
    /// Drops frames for which the predicate returns `false`.
    Filter {
        /// The predicate, applied to the raw frame.
        predicate: FramePredicate,
        /// Device cycles consumed per frame examined.
        cycles_per_frame: u64,
    },
    /// Chooses the RX queue for a frame (`None` falls through to RSS).
    Steer {
        /// The steering function, applied to the raw frame.
        selector: FrameSelector,
        /// Device cycles consumed per frame examined.
        cycles_per_frame: u64,
    },
    /// Rewrites the frame *in place* on the device — no allocation on
    /// the device path. (A shared buffer forces one counted copy first;
    /// see [`SlotStats::copy_fallbacks`].)
    Map {
        /// The transformation, applied to the mutable raw frame.
        transform: FrameTransform,
        /// Device cycles consumed per frame examined.
        cycles_per_frame: u64,
    },
    /// The restricted TCP offload engine: ACK absorption, echo
    /// short-circuiting, and the NIC-resident KV GET cache (see
    /// [`crate::offload`]). The handle stays with the installer — it is
    /// the host's doorbell for arming flows and syncing shadow state.
    TcpOffload {
        /// Shared engine state (flow table, cache, sync-event queue).
        engine: Rc<RefCell<TcpOffload>>,
    },
}

impl fmt::Debug for NicProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NicProgram::Filter { .. } => write!(f, "NicProgram::Filter"),
            NicProgram::Steer { .. } => write!(f, "NicProgram::Steer"),
            NicProgram::Map { .. } => write!(f, "NicProgram::Map"),
            NicProgram::TcpOffload { .. } => write!(f, "NicProgram::TcpOffload"),
        }
    }
}

/// Counters for on-device execution, aggregated over all slots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmartNicStats {
    /// Cycles spent executing programs on the device.
    pub device_cycles: u64,
    /// Frames examined by at least one program.
    pub frames_processed: u64,
    /// Frames dropped by filter programs.
    pub frames_filtered: u64,
    /// Frames consumed by an offload engine without host delivery
    /// (absorbed pure ACKs plus device-served requests).
    pub frames_absorbed: u64,
    /// Requests answered entirely on the device (reply frames built and
    /// transmitted without an RX→host→TX crossing).
    pub frames_served: u64,
}

/// Per-slot execution counters, so device cycles can be attributed to
/// individual offloads (E17).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotStats {
    /// Device cycles this slot's program consumed.
    pub cycles: u64,
    /// Frames this slot's program examined.
    pub frames: u64,
    /// Frames this slot dropped (filters) or absorbed (offload engines).
    pub drops: u64,
    /// Requests this slot served device-side (offload engines).
    pub served: u64,
    /// Map rewrites that could not run in place because another live
    /// handle shared the frame storage — each one cost a counted copy.
    pub copy_fallbacks: u64,
}

/// Error installing a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmartNicError {
    /// Every program slot is occupied (hardware resources are finite).
    OutOfSlots,
    /// The device has no program slots at all (plain DPDK NIC).
    NotProgrammable,
}

impl fmt::Display for SmartNicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmartNicError::OutOfSlots => write!(f, "all NIC program slots are in use"),
            SmartNicError::NotProgrammable => write!(f, "device has no program slots"),
        }
    }
}

impl std::error::Error for SmartNicError {}

/// What the device decided about an incoming frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxDecision {
    /// Frame dropped by a filter program.
    Drop,
    /// Frame consumed by an offload engine (pure ACK absorbed or request
    /// served device-side); it must not reach a host RX ring.
    Absorb,
    /// Frame accepted; `queue` is `Some` if a steering program chose one.
    /// Map programs rewrote the frame bytes in place.
    Accept {
        /// Steering decision, if any.
        queue: Option<u16>,
    },
}

/// The device-side program engine.
#[derive(Debug)]
pub struct SmartNic {
    slots: Vec<Option<NicProgram>>,
    slot_stats: Vec<SlotStats>,
    stats: SmartNicStats,
    /// Reply frames offload engines built this pump; the port drains and
    /// transmits them (device TX, never a host doorbell).
    tx: Vec<DemiBuffer>,
}

impl SmartNic {
    /// Creates an engine with `num_slots` program slots (0 = plain NIC).
    pub fn new(num_slots: usize) -> Self {
        SmartNic {
            slots: vec![None; num_slots],
            slot_stats: vec![SlotStats::default(); num_slots],
            stats: SmartNicStats::default(),
            tx: Vec::new(),
        }
    }

    /// Installs a program in the first free slot.
    pub fn install(&mut self, program: NicProgram) -> Result<ProgramSlot, SmartNicError> {
        if self.slots.is_empty() {
            return Err(SmartNicError::NotProgrammable);
        }
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(program);
                self.slot_stats[i] = SlotStats::default();
                return Ok(ProgramSlot(i));
            }
        }
        Err(SmartNicError::OutOfSlots)
    }

    /// Removes the program in `slot`; idempotent.
    pub fn uninstall(&mut self, slot: ProgramSlot) {
        if let Some(s) = self.slots.get_mut(slot.0) {
            *s = None;
        }
    }

    /// Number of installed programs.
    pub fn installed(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Runs every installed program over an incoming frame, in slot
    /// order. Map programs rewrite `frame` in place, so later slots see
    /// the mapped bytes.
    pub fn process_rx(&mut self, frame: &mut DemiBuffer, now: SimTime) -> RxDecision {
        if self.installed() == 0 {
            return RxDecision::Accept { queue: None };
        }
        self.stats.frames_processed += 1;
        let mut queue = None;
        for i in 0..self.slots.len() {
            let Some(program) = self.slots[i].clone() else {
                continue;
            };
            let slot = &mut self.slot_stats[i];
            slot.frames += 1;
            match program {
                NicProgram::Filter {
                    predicate,
                    cycles_per_frame,
                } => {
                    self.stats.device_cycles += cycles_per_frame;
                    slot.cycles += cycles_per_frame;
                    if !predicate(frame.as_slice()) {
                        self.stats.frames_filtered += 1;
                        slot.drops += 1;
                        return RxDecision::Drop;
                    }
                }
                NicProgram::Steer {
                    selector,
                    cycles_per_frame,
                } => {
                    self.stats.device_cycles += cycles_per_frame;
                    slot.cycles += cycles_per_frame;
                    if let Some(q) = selector(frame.as_slice()) {
                        queue = Some(q);
                    }
                }
                NicProgram::Map {
                    transform,
                    cycles_per_frame,
                } => {
                    self.stats.device_cycles += cycles_per_frame;
                    slot.cycles += cycles_per_frame;
                    match frame.try_mut() {
                        Some(bytes) => transform(bytes),
                        None => {
                            // Another live handle shares the storage:
                            // rewrite a private copy instead of corrupting
                            // the sender's bytes (`from_slice` counts the
                            // alloc + copy toward the datapath counters).
                            slot.copy_fallbacks += 1;
                            let mut copy = DemiBuffer::from_slice(frame.as_slice());
                            transform(copy.try_mut().expect("fresh buffer is exclusive"));
                            *frame = copy;
                        }
                    }
                }
                NicProgram::TcpOffload { engine } => {
                    let outcome = engine.borrow_mut().process(frame.as_slice(), now);
                    self.stats.device_cycles += outcome.cycles;
                    slot.cycles += outcome.cycles;
                    if outcome.served {
                        self.stats.frames_served += 1;
                        slot.served += 1;
                    }
                    match outcome.action {
                        OffloadAction::Deliver => {}
                        OffloadAction::Absorb => {
                            self.stats.frames_absorbed += 1;
                            slot.drops += 1;
                            self.tx.extend(engine.borrow_mut().take_tx());
                            return RxDecision::Absorb;
                        }
                    }
                    self.tx.extend(engine.borrow_mut().take_tx());
                }
            }
        }
        RxDecision::Accept { queue }
    }

    /// Drains reply frames built by offload engines this pump.
    pub fn take_tx(&mut self) -> Vec<DemiBuffer> {
        std::mem::take(&mut self.tx)
    }

    /// Execution counters, aggregated over all slots.
    pub fn stats(&self) -> SmartNicStats {
        self.stats
    }

    /// Per-slot execution counters (index = slot number; uninstalled
    /// slots keep the stats of their last occupant until reused).
    pub fn slot_stats(&self) -> &[SlotStats] {
        &self.slot_stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filter(keep_byte: u8) -> NicProgram {
        NicProgram::Filter {
            predicate: Rc::new(move |f: &[u8]| f.first() == Some(&keep_byte)),
            cycles_per_frame: 10,
        }
    }

    fn buf(bytes: &[u8]) -> DemiBuffer {
        DemiBuffer::from_slice(bytes)
    }

    #[test]
    fn plain_nic_rejects_programs() {
        let mut nic = SmartNic::new(0);
        assert_eq!(nic.install(filter(1)), Err(SmartNicError::NotProgrammable));
    }

    #[test]
    fn slots_are_finite() {
        let mut nic = SmartNic::new(2);
        nic.install(filter(1)).unwrap();
        nic.install(filter(2)).unwrap();
        assert_eq!(nic.install(filter(3)), Err(SmartNicError::OutOfSlots));
        assert_eq!(nic.installed(), 2);
    }

    #[test]
    fn filter_drops_and_counts_device_cycles() {
        let mut nic = SmartNic::new(1);
        nic.install(filter(0xAA)).unwrap();
        assert!(matches!(
            nic.process_rx(&mut buf(&[0xAA, 1]), SimTime::ZERO),
            RxDecision::Accept { .. }
        ));
        assert!(matches!(
            nic.process_rx(&mut buf(&[0xBB, 1]), SimTime::ZERO),
            RxDecision::Drop
        ));
        let s = nic.stats();
        assert_eq!(s.frames_processed, 2);
        assert_eq!(s.frames_filtered, 1);
        assert_eq!(s.device_cycles, 20);
    }

    #[test]
    fn steer_selects_queue() {
        let mut nic = SmartNic::new(1);
        nic.install(NicProgram::Steer {
            selector: Rc::new(|f: &[u8]| f.first().map(|b| (*b % 4) as u16)),
            cycles_per_frame: 5,
        })
        .unwrap();
        match nic.process_rx(&mut buf(&[7]), SimTime::ZERO) {
            RxDecision::Accept { queue } => assert_eq!(queue, Some(3)),
            other => panic!("unexpected decision {other:?}"),
        }
    }

    #[test]
    fn map_rewrites_frame_in_place_and_composes_with_filter() {
        let mut nic = SmartNic::new(2);
        nic.install(NicProgram::Map {
            transform: Rc::new(|f: &mut [u8]| {
                for b in f.iter_mut() {
                    *b ^= 0xFF;
                }
            }),
            cycles_per_frame: 3,
        })
        .unwrap();
        // Filter sees the *mapped* bytes because it is installed after.
        nic.install(filter(0x00)).unwrap();
        let mut frame = buf(&[0xFF, 0x01]);
        match nic.process_rx(&mut frame, SimTime::ZERO) {
            RxDecision::Accept { .. } => assert_eq!(frame.as_slice(), &[0x00, 0xFE]),
            other => panic!("unexpected decision {other:?}"),
        }
        assert!(matches!(
            nic.process_rx(&mut buf(&[0x00]), SimTime::ZERO),
            RxDecision::Drop
        ));
        assert_eq!(
            nic.slot_stats()[0].copy_fallbacks,
            0,
            "exclusive buffer rewrites in place"
        );
    }

    #[test]
    fn map_on_exclusive_buffer_does_not_allocate() {
        let mut nic = SmartNic::new(1);
        nic.install(NicProgram::Map {
            transform: Rc::new(|f: &mut [u8]| f.reverse()),
            cycles_per_frame: 1,
        })
        .unwrap();
        let mut frame = buf(&[1, 2, 3, 4]);
        let before = demi_memory::counters::snapshot();
        nic.process_rx(&mut frame, SimTime::ZERO);
        let d = demi_memory::counters::snapshot().delta(&before);
        assert_eq!(frame.as_slice(), &[4, 3, 2, 1]);
        assert_eq!(d.allocs, 0, "in-place map must not allocate");
        assert_eq!(d.copies, 0, "in-place map must not copy");
        assert_eq!(nic.slot_stats()[0].copy_fallbacks, 0);
    }

    #[test]
    fn map_on_shared_buffer_takes_one_counted_copy() {
        let mut nic = SmartNic::new(1);
        nic.install(NicProgram::Map {
            transform: Rc::new(|f: &mut [u8]| f.reverse()),
            cycles_per_frame: 1,
        })
        .unwrap();
        let original = buf(&[1, 2, 3, 4]);
        let mut frame = original.clone(); // shared: sender still holds it
        let before = demi_memory::counters::snapshot();
        nic.process_rx(&mut frame, SimTime::ZERO);
        let d = demi_memory::counters::snapshot().delta(&before);
        assert_eq!(frame.as_slice(), &[4, 3, 2, 1]);
        assert_eq!(
            original.as_slice(),
            &[1, 2, 3, 4],
            "sender's bytes untouched"
        );
        assert!(d.copies >= 1, "shared storage forces a counted copy");
        assert_eq!(nic.slot_stats()[0].copy_fallbacks, 1);
    }

    #[test]
    fn per_slot_stats_attribute_cycles_to_programs() {
        let mut nic = SmartNic::new(2);
        let f_slot = nic.install(filter(0xAA)).unwrap();
        let s_slot = nic
            .install(NicProgram::Steer {
                selector: Rc::new(|_: &[u8]| Some(1)),
                cycles_per_frame: 5,
            })
            .unwrap();
        nic.process_rx(&mut buf(&[0xAA]), SimTime::ZERO); // passes filter, steered
        nic.process_rx(&mut buf(&[0xBB]), SimTime::ZERO); // dropped by filter
        let fs = nic.slot_stats()[f_slot.0];
        let ss = nic.slot_stats()[s_slot.0];
        assert_eq!(fs.frames, 2);
        assert_eq!(fs.cycles, 20);
        assert_eq!(fs.drops, 1);
        assert_eq!(ss.frames, 1, "steer never saw the dropped frame");
        assert_eq!(ss.cycles, 5);
        let agg = nic.stats();
        assert_eq!(agg.device_cycles, fs.cycles + ss.cycles);
    }

    #[test]
    fn uninstall_frees_the_slot() {
        let mut nic = SmartNic::new(1);
        let slot = nic.install(filter(1)).unwrap();
        nic.uninstall(slot);
        assert_eq!(nic.installed(), 0);
        assert!(nic.install(filter(2)).is_ok());
    }
}
