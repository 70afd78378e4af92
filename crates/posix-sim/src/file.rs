//! An ext4-like file layout on the simulated NVMe device.
//!
//! Paper §5.3: "Existing disk layouts (e.g., ext4) may impose unnecessary
//! overhead since each Demikernel libOS supports only a single application,
//! which may not require an entire UNIX file system." This module is the
//! general-purpose layout in that comparison: inodes, a block bitmap, and
//! single-indirect pointers — so every small append pays metadata writes
//! (inode block + bitmap block, plus the indirect block once a file grows)
//! on top of its data block. Experiment E10 counts those device-level
//! writes against `catfs`'s single-application log layout.
//!
//! The implementation is synchronous over virtual time: each block I/O
//! submits to the NVMe queue pair and advances the clock to completion,
//! which is exactly what a blocking kernel file system does to its caller.

use std::collections::HashMap;

use sim_fabric::SimClock;
use spdk_sim::nvme::{NvmeDevice, QpairId, BLOCK_SIZE};

use crate::kernel::SimKernel;

/// Open-file handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileFd(pub u32);

/// File-system errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileError {
    /// No such file.
    NotFound,
    /// A file with this name already exists.
    Exists,
    /// The fixed file table is full.
    TooManyFiles,
    /// The device ran out of blocks.
    NoSpace,
    /// Unknown handle.
    BadFd,
    /// Read past end of file.
    OutOfBounds,
    /// Maximum file size (12 direct + 1024 indirect blocks) exceeded.
    FileTooLarge,
}

impl std::fmt::Display for FileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FileError::NotFound => "file not found",
            FileError::Exists => "file exists",
            FileError::TooManyFiles => "file table full",
            FileError::NoSpace => "no space left on device",
            FileError::BadFd => "bad file descriptor",
            FileError::OutOfBounds => "read out of bounds",
            FileError::FileTooLarge => "file too large",
        };
        write!(f, "{s}")
    }
}

impl std::error::Error for FileError {}

/// Layout-level write/read counters, split by class (experiment E10).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct FsStats {
    /// Data-block writes.
    pub data_writes: u64,
    /// Metadata-block writes (inode table, bitmap, indirect blocks).
    pub metadata_writes: u64,
    /// Data-block reads.
    pub data_reads: u64,
    /// Metadata-block reads.
    pub metadata_reads: u64,
}

const DIRECT_PTRS: usize = 12;
const PTRS_PER_BLOCK: usize = BLOCK_SIZE / 8;
const MAX_FILES: usize = 64;

/// On-"disk" layout constants (block addresses).
const INODE_TABLE_START: u64 = 1;
const INODE_TABLE_BLOCKS: u64 = 8; // 8 inodes per block × 8 = 64 files.
const BITMAP_BLOCK: u64 = INODE_TABLE_START + INODE_TABLE_BLOCKS;
const DATA_START: u64 = BITMAP_BLOCK + 1;

#[derive(Debug, Clone, Default)]
struct Inode {
    size: u64,
    direct: [u64; DIRECT_PTRS],
    indirect: u64,
}

struct OpenFile {
    ino: usize,
}

/// The ext4-like file system.
pub struct Ext4Sim {
    device: NvmeDevice,
    qpair: QpairId,
    clock: SimClock,
    kernel: Option<SimKernel>,
    /// In-memory caches (a real kernel caches these too); durability still
    /// requires the metadata *writes*, which is what we count.
    names: HashMap<String, usize>,
    inodes: Vec<Option<Inode>>,
    bitmap: Vec<u8>,
    next_free_block: u64,
    open: HashMap<FileFd, OpenFile>,
    next_fd: u32,
    stats: FsStats,
}

impl Ext4Sim {
    /// Formats a fresh file system on `device`; `kernel` (if given) charges
    /// a syscall per public operation.
    pub fn format(device: NvmeDevice, clock: SimClock, kernel: Option<SimKernel>) -> Self {
        let qpair = device.alloc_qpair();
        let mut fs = Ext4Sim {
            device,
            qpair,
            clock,
            kernel,
            names: HashMap::new(),
            inodes: vec![None; MAX_FILES],
            bitmap: vec![0u8; BLOCK_SIZE],
            next_free_block: DATA_START,
            open: HashMap::new(),
            next_fd: 1,
            stats: FsStats::default(),
        };
        // Superblock write.
        fs.write_block(0, &[0xE4u8; BLOCK_SIZE], true);
        fs
    }

    fn charge_syscall(&self) {
        if let Some(k) = &self.kernel {
            k.syscall();
        }
    }

    /// Synchronous block write: submit, advance virtual time, complete.
    fn write_block(&mut self, lba: u64, data: &[u8], metadata: bool) {
        debug_assert_eq!(data.len(), BLOCK_SIZE);
        if metadata {
            self.stats.metadata_writes += 1;
        } else {
            self.stats.data_writes += 1;
        }
        self.device
            .submit_write(self.qpair, 0, lba, data.to_vec())
            .expect("block write");
        self.complete_all();
    }

    fn read_block(&mut self, lba: u64, metadata: bool) -> Vec<u8> {
        if metadata {
            self.stats.metadata_reads += 1;
        } else {
            self.stats.data_reads += 1;
        }
        self.device
            .submit_read(self.qpair, 0, lba, 1)
            .expect("block read");
        let comps = self.complete_all();
        comps
            .into_iter()
            .next()
            .and_then(|c| c.data)
            .expect("read returns data")
    }

    fn complete_all(&mut self) -> Vec<spdk_sim::nvme::NvmeCompletion> {
        let mut out = Vec::new();
        while self.device.in_flight(self.qpair) > 0 {
            if let Some(t) = self.device.next_deadline() {
                self.clock.advance_to(t);
            }
            out.extend(self.device.poll_completions(self.qpair, 64));
        }
        out
    }

    fn alloc_block(&mut self) -> Result<u64, FileError> {
        if self.next_free_block >= self.device.namespace_blocks() {
            return Err(FileError::NoSpace);
        }
        let lba = self.next_free_block;
        self.next_free_block += 1;
        // Persist the allocation: bitmap block write (the metadata cost).
        let idx = ((lba - DATA_START) as usize) % (BLOCK_SIZE * 8);
        self.bitmap[idx / 8] |= 1 << (idx % 8);
        let bitmap = self.bitmap.clone();
        self.write_block(BITMAP_BLOCK, &bitmap, true);
        Ok(lba)
    }

    fn inode_block(ino: usize) -> u64 {
        INODE_TABLE_START + (ino as u64) / 8
    }

    fn persist_inode(&mut self, ino: usize) {
        // Serialize the whole inode block (8 inodes) — a real FS writes the
        // containing block, not just the inode.
        let mut block = vec![0u8; BLOCK_SIZE];
        let base = (ino / 8) * 8;
        for i in 0..8 {
            if let Some(Some(inode)) = self.inodes.get(base + i) {
                let off = i * 512;
                block[off..off + 8].copy_from_slice(&inode.size.to_be_bytes());
                for (d, ptr) in inode.direct.iter().enumerate() {
                    let o = off + 8 + d * 8;
                    block[o..o + 8].copy_from_slice(&ptr.to_be_bytes());
                }
                let o = off + 8 + DIRECT_PTRS * 8;
                block[o..o + 8].copy_from_slice(&inode.indirect.to_be_bytes());
            }
        }
        self.write_block(Self::inode_block(ino), &block, true);
    }

    /// Creates a file and opens it.
    pub fn create(&mut self, name: &str) -> Result<FileFd, FileError> {
        self.charge_syscall();
        if self.names.contains_key(name) {
            return Err(FileError::Exists);
        }
        let ino = self
            .inodes
            .iter()
            .position(|i| i.is_none())
            .ok_or(FileError::TooManyFiles)?;
        self.inodes[ino] = Some(Inode::default());
        self.names.insert(name.to_string(), ino);
        self.persist_inode(ino);
        let fd = FileFd(self.next_fd);
        self.next_fd += 1;
        self.open.insert(fd, OpenFile { ino });
        Ok(fd)
    }

    /// Resolves the device block holding file block `fbn`, allocating it
    /// (and the indirect block) if `grow`.
    fn resolve_block(&mut self, ino: usize, fbn: usize, grow: bool) -> Result<u64, FileError> {
        if fbn < DIRECT_PTRS {
            let ptr = self.inodes[ino].as_ref().expect("inode").direct[fbn];
            if ptr != 0 {
                return Ok(ptr);
            }
            if !grow {
                return Err(FileError::OutOfBounds);
            }
            let lba = self.alloc_block()?;
            self.inodes[ino].as_mut().expect("inode").direct[fbn] = lba;
            return Ok(lba);
        }
        let idx = fbn - DIRECT_PTRS;
        if idx >= PTRS_PER_BLOCK {
            return Err(FileError::FileTooLarge);
        }
        // Indirect block: allocate on first use.
        let mut indirect_lba = self.inodes[ino].as_ref().expect("inode").indirect;
        if indirect_lba == 0 {
            if !grow {
                return Err(FileError::OutOfBounds);
            }
            indirect_lba = self.alloc_block()?;
            self.inodes[ino].as_mut().expect("inode").indirect = indirect_lba;
            self.write_block(indirect_lba, &vec![0u8; BLOCK_SIZE], true);
        }
        let mut table = self.read_block(indirect_lba, true);
        let o = idx * 8;
        let ptr = u64::from_be_bytes(table[o..o + 8].try_into().expect("8 bytes"));
        if ptr != 0 {
            return Ok(ptr);
        }
        if !grow {
            return Err(FileError::OutOfBounds);
        }
        let lba = self.alloc_block()?;
        table[o..o + 8].copy_from_slice(&lba.to_be_bytes());
        self.write_block(indirect_lba, &table, true);
        Ok(lba)
    }

    /// Appends `data`, paying the general-purpose layout's metadata costs.
    pub fn append(&mut self, fd: FileFd, data: &[u8]) -> Result<(), FileError> {
        self.charge_syscall();
        let ino = self.open.get(&fd).ok_or(FileError::BadFd)?.ino;
        let mut written = 0;
        while written < data.len() {
            let size = self.inodes[ino].as_ref().expect("inode").size as usize;
            let fbn = size / BLOCK_SIZE;
            let in_block = size % BLOCK_SIZE;
            let take = (BLOCK_SIZE - in_block).min(data.len() - written);
            let lba = self.resolve_block(ino, fbn, true)?;
            let mut block = if in_block == 0 {
                vec![0u8; BLOCK_SIZE]
            } else {
                // Partial tail block: read-modify-write.
                self.read_block(lba, false)
            };
            block[in_block..in_block + take].copy_from_slice(&data[written..written + take]);
            self.write_block(lba, &block, false);
            self.inodes[ino].as_mut().expect("inode").size += take as u64;
            written += take;
        }
        // Durable size update: the inode block is written per append.
        self.persist_inode(ino);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spdk_sim::nvme::NvmeConfig;

    impl Ext4Sim {
        /// Layout counters.
        fn stats(&self) -> FsStats {
            self.stats
        }

        /// Opens an existing file.
        fn open(&mut self, name: &str) -> Result<FileFd, FileError> {
            self.charge_syscall();
            let ino = *self.names.get(name).ok_or(FileError::NotFound)?;
            let fd = FileFd(self.next_fd);
            self.next_fd += 1;
            self.open.insert(fd, OpenFile { ino });
            Ok(fd)
        }

        /// File size in bytes.
        fn size(&self, fd: FileFd) -> Result<u64, FileError> {
            let f = self.open.get(&fd).ok_or(FileError::BadFd)?;
            Ok(self.inodes[f.ino]
                .as_ref()
                .expect("open implies inode")
                .size)
        }

        /// Reads `len` bytes at `offset`.
        fn read(&mut self, fd: FileFd, offset: u64, len: usize) -> Result<Vec<u8>, FileError> {
            self.charge_syscall();
            let ino = self.open.get(&fd).ok_or(FileError::BadFd)?.ino;
            let size = self.inodes[ino].as_ref().expect("inode").size;
            if offset + len as u64 > size {
                return Err(FileError::OutOfBounds);
            }
            let mut out = Vec::with_capacity(len);
            let mut pos = offset as usize;
            let end = offset as usize + len;
            while pos < end {
                let fbn = pos / BLOCK_SIZE;
                let in_block = pos % BLOCK_SIZE;
                let take = (BLOCK_SIZE - in_block).min(end - pos);
                let lba = self.resolve_block(ino, fbn, false)?;
                let block = self.read_block(lba, false);
                out.extend_from_slice(&block[in_block..in_block + take]);
                pos += take;
            }
            Ok(out)
        }

        /// Closes a handle.
        fn close(&mut self, fd: FileFd) -> Result<(), FileError> {
            self.charge_syscall();
            self.open.remove(&fd).map(|_| ()).ok_or(FileError::BadFd)
        }
    }

    fn fs() -> Ext4Sim {
        let clock = SimClock::new();
        let dev = NvmeDevice::new(clock.clone(), NvmeConfig::default());
        Ext4Sim::format(dev, clock, None)
    }

    #[test]
    fn create_append_read_round_trip() {
        let mut f = fs();
        let fd = f.create("log").unwrap();
        f.append(fd, b"hello ").unwrap();
        f.append(fd, b"world").unwrap();
        assert_eq!(f.size(fd).unwrap(), 11);
        assert_eq!(f.read(fd, 0, 11).unwrap(), b"hello world");
        assert_eq!(f.read(fd, 6, 5).unwrap(), b"world");
    }

    #[test]
    fn small_appends_pay_metadata_write_amplification() {
        let mut f = fs();
        let fd = f.create("kv").unwrap();
        let before = f.stats();
        f.append(fd, &[7u8; 100]).unwrap();
        let after = f.stats();
        // One data block plus at least bitmap + inode metadata writes.
        assert_eq!(after.data_writes - before.data_writes, 1);
        assert!(
            after.metadata_writes - before.metadata_writes >= 2,
            "general-purpose layout writes metadata per append"
        );
    }

    #[test]
    fn large_file_spills_into_indirect_blocks() {
        let mut f = fs();
        let fd = f.create("big").unwrap();
        let chunk = vec![3u8; BLOCK_SIZE];
        for _ in 0..(DIRECT_PTRS + 3) {
            f.append(fd, &chunk).unwrap();
        }
        let total = ((DIRECT_PTRS + 3) * BLOCK_SIZE) as u64;
        assert_eq!(f.size(fd).unwrap(), total);
        // Read data crossing the direct/indirect boundary.
        let boundary = (DIRECT_PTRS * BLOCK_SIZE - 10) as u64;
        let data = f.read(fd, boundary, 20).unwrap();
        assert_eq!(data, vec![3u8; 20]);
    }

    #[test]
    fn name_conflicts_and_missing_files_error() {
        let mut f = fs();
        f.create("a").unwrap();
        assert_eq!(f.create("a"), Err(FileError::Exists));
        assert_eq!(f.open("b"), Err(FileError::NotFound));
    }

    #[test]
    fn reopen_sees_existing_contents() {
        let mut f = fs();
        let fd = f.create("persist").unwrap();
        f.append(fd, b"data").unwrap();
        f.close(fd).unwrap();
        let fd2 = f.open("persist").unwrap();
        assert_eq!(f.read(fd2, 0, 4).unwrap(), b"data");
    }

    #[test]
    fn out_of_bounds_read_rejected() {
        let mut f = fs();
        let fd = f.create("short").unwrap();
        f.append(fd, b"abc").unwrap();
        assert_eq!(f.read(fd, 0, 4), Err(FileError::OutOfBounds));
        assert_eq!(f.read(fd, 4, 1), Err(FileError::OutOfBounds));
    }

    #[test]
    fn syscalls_are_charged_when_kernel_attached() {
        let clock = SimClock::new();
        let dev = NvmeDevice::new(clock.clone(), NvmeConfig::default());
        let kernel = SimKernel::new(clock.clone(), crate::kernel::CostModel::default());
        let mut f = Ext4Sim::format(dev, clock, Some(kernel.clone()));
        let fd = f.create("counted").unwrap();
        f.append(fd, b"x").unwrap();
        let _ = f.read(fd, 0, 1).unwrap();
        assert_eq!(kernel.stats().syscalls, 3);
    }

    #[test]
    fn io_advances_virtual_time() {
        let clock = SimClock::new();
        let dev = NvmeDevice::new(clock.clone(), NvmeConfig::default());
        let mut f = Ext4Sim::format(dev, clock.clone(), None);
        let before = clock.now();
        let fd = f.create("timed").unwrap();
        f.append(fd, &[1u8; 8192]).unwrap();
        assert!(clock.now() > before, "block I/O must take virtual time");
    }
}
