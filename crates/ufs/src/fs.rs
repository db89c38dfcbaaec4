//! The update-in-place file system proper.
//!
//! Faithful to the behaviours the paper's benchmarks exercise:
//!
//! * **Synchronous metadata** — creates and deletes write the inode and the
//!   directory block to the device before returning (the Solaris UFS
//!   discipline that makes small-file workloads disk-bound);
//! * **Delayed or synchronous data** — data writes default to the buffer
//!   cache and are flushed, elevator-sorted and clustered, on `sync`; the
//!   benchmarks flip [`fscore::FileSystem::set_sync_writes`] on to model
//!   `O_SYNC` updates;
//! * **Update in place** — overwriting an allocated block rewrites the same
//!   device block, the behaviour eager writing is measured against;
//! * **Locality-aware allocation** — new blocks are taken near the file's
//!   previous block (first-fit from a moving hint), so sequential files lay
//!   out sequentially;
//! * **Read-ahead** — detected sequential reads prefetch a window of blocks
//!   with clustered device reads.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::bitmap::Bitmap;
use crate::dir::{Dirent, DIRENT_SIZE};
use crate::inode::{classify, BlockPath, Inode, NO_BLOCK, PTRS_PER_BLOCK};
use crate::layout::{Layout, BLOCK_SIZE, INODE_SIZE};
use disksim::{BlockDevice, DeviceSnapshot, SimClock};
use fscore::{BufferCache, FileId, FileSystem, FsError, FsResult, HostModel};

/// Inode number of the root directory.
const ROOT_INO: u32 = 0;

/// Where a named object lives: its inode, and the directory slot naming it.
#[derive(Debug, Clone, Copy)]
struct PathEntry {
    ino: u32,
    parent: u32,
    slot: u64,
    is_dir: bool,
}

/// Tuning knobs for a [`Ufs`] instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UfsConfig {
    /// Number of inodes to format.
    pub inode_count: u32,
    /// Buffer-cache size in bytes.
    pub cache_bytes: usize,
    /// Make data writes synchronous from the start.
    pub sync_data: bool,
    /// Read-ahead window in blocks (0 disables).
    pub readahead_blocks: u64,
    /// Issue `trim` to the device when files are deleted. Off by default:
    /// the paper's VLD only learns of deletes by overwrite detection.
    pub trim_on_delete: bool,
    /// When the cache fills, flush *all* dirty blocks (sorted) instead of
    /// evicting one at a time — the paper's NVRAM-buffer discipline for the
    /// LFS experiments ("we do not flush to disk until the buffer cache is
    /// full").
    pub flush_on_full: bool,
}

impl Default for UfsConfig {
    fn default() -> Self {
        Self {
            inode_count: 2048,
            cache_bytes: 16 << 20,
            sync_data: false,
            readahead_blocks: 16,
            trim_on_delete: false,
            flush_on_full: false,
        }
    }
}

/// The update-in-place file system over any block device.
pub struct Ufs {
    dev: Box<dyn BlockDevice>,
    host: HostModel,
    layout: Layout,
    cfg: UfsConfig,
    inode_bm: Bitmap,
    /// Bitmap over the data region (bit 0 = layout.data_start).
    block_bm: Bitmap,
    cache: BufferCache,
    /// Directory index: normalised path → entry location.
    names: HashMap<String, PathEntry>,
    /// Per-directory slot occupancy for O(1) free-slot search.
    dir_slots: HashMap<u32, Vec<bool>>,
    /// Children per directory inode (for empty-directory checks).
    child_count: HashMap<u32, u32>,
    handles: HashMap<FileId, u32>,
    next_handle: FileId,
    /// ino → (last file block read, first un-prefetched file block), for
    /// sequential-read detection and windowed read-ahead.
    seq_state: HashMap<u32, (u64, u64)>,
    /// Moving allocation hint within the data region.
    alloc_hint: u64,
    /// Pointer blocks with delayed slot updates, written through at the
    /// end of the operation (see [`Ufs::flush_pointer_blocks`]).
    dirty_ptrs: std::collections::BTreeSet<u64>,
    sync_data: bool,
    /// Observability sink (disabled by default — a single branch per use).
    metrics: disksim::Metrics,
    /// Causal-span handle shared with the device stack below (cloned from
    /// [`BlockDevice::spans`] at construction, so spans opened here are the
    /// attribution targets for the disk commands the stack issues).
    spans: disksim::Spans,
}

impl Ufs {
    /// Format a fresh file system on `dev` and mount it.
    pub fn format(dev: Box<dyn BlockDevice>, host: HostModel, cfg: UfsConfig) -> FsResult<Ufs> {
        assert_eq!(
            dev.block_size(),
            BLOCK_SIZE,
            "UFS expects 4 KB device blocks"
        );
        let layout = Layout::compute(dev.num_blocks(), cfg.inode_count)?;
        let spans = dev.spans();
        let mut fs = Ufs {
            dev,
            host,
            layout,
            cfg,
            inode_bm: Bitmap::new(cfg.inode_count as u64),
            block_bm: Bitmap::new(layout.data_blocks()),
            cache: BufferCache::with_bytes(cfg.cache_bytes, BLOCK_SIZE),
            names: HashMap::new(),
            dir_slots: HashMap::new(),
            child_count: HashMap::new(),
            handles: HashMap::new(),
            next_handle: 1,
            seq_state: HashMap::new(),
            alloc_hint: 0,
            dirty_ptrs: std::collections::BTreeSet::new(),
            sync_data: cfg.sync_data,
            metrics: disksim::Metrics::default(),
            spans,
        };
        // Superblock, root inode, bitmaps.
        let sp = fs.span_open(disksim::SpanKind::FsOp, "ufs.format");
        fs.dev.write_block(0, &layout.encode())?;
        fs.inode_bm.set(ROOT_INO as u64);
        fs.put_inode(ROOT_INO, &Inode::empty_dir(), true)?;
        fs.dir_slots.insert(ROOT_INO, Vec::new());
        fs.child_count.insert(ROOT_INO, 0);
        fs.flush_bitmaps()?;
        fs.span_close(sp);
        Ok(fs)
    }

    /// Capture the whole mounted system — the device stack below (down to
    /// the simulated media, shared copy-on-write) and every piece of
    /// file-system state (bitmaps, buffer cache, directory index, handles,
    /// allocation hints) — as a `Send + Sync` [`UfsSnapshot`]. Returns
    /// `None` if any device in the stack does not support snapshotting.
    ///
    /// [`UfsSnapshot::restore`] yields an independent system that continues
    /// exactly as this one would; observability handles are not captured (a
    /// restored system starts detached).
    pub fn snapshot(&self) -> Option<UfsSnapshot> {
        Some(UfsSnapshot {
            dev: self.dev.snapshot()?,
            host: self.host,
            layout: self.layout,
            cfg: self.cfg,
            inode_bm: self.inode_bm.clone(),
            block_bm: self.block_bm.clone(),
            cache: self.cache.clone(),
            names: self.names.clone(),
            dir_slots: self.dir_slots.clone(),
            child_count: self.child_count.clone(),
            handles: self.handles.clone(),
            next_handle: self.next_handle,
            seq_state: self.seq_state.clone(),
            alloc_hint: self.alloc_hint,
            dirty_ptrs: self.dirty_ptrs.clone(),
            sync_data: self.sync_data,
        })
    }

    /// Mount an existing file system, rebuilding in-memory state from disk.
    /// `cfg` sets the runtime behaviour (cache, read-ahead, trim, flush
    /// discipline); the inode count comes from the superblock.
    pub fn mount(mut dev: Box<dyn BlockDevice>, host: HostModel, cfg: UfsConfig) -> FsResult<Ufs> {
        assert_eq!(dev.block_size(), BLOCK_SIZE);
        // Superblock/bitmap loads, the directory walk and the bitmap
        // reconciliation are all recovery-path reads.
        let spans = dev.spans();
        let sp = if spans.is_enabled() {
            spans.open(disksim::SpanKind::Recovery, "ufs.mount", dev.clock().now())
        } else {
            0
        };
        let mut sb = vec![0u8; BLOCK_SIZE];
        dev.read_block(0, &mut sb)?;
        let layout = Layout::decode(&sb)?;
        let cfg = UfsConfig {
            inode_count: layout.inode_count,
            ..cfg
        };
        // Load the bitmaps.
        let mut ibm_bytes = Vec::new();
        for b in 0..layout.inode_bitmap_blocks {
            let mut buf = vec![0u8; BLOCK_SIZE];
            dev.read_block(layout.inode_bitmap_start + b, &mut buf)?;
            ibm_bytes.extend_from_slice(&buf);
        }
        let mut bbm_bytes = Vec::new();
        for b in 0..layout.block_bitmap_blocks {
            let mut buf = vec![0u8; BLOCK_SIZE];
            dev.read_block(layout.block_bitmap_start + b, &mut buf)?;
            bbm_bytes.extend_from_slice(&buf);
        }
        let mut fs = Ufs {
            dev,
            host,
            layout,
            cfg,
            inode_bm: Bitmap::from_bytes(layout.inode_count as u64, &ibm_bytes),
            block_bm: Bitmap::from_bytes(layout.data_blocks(), &bbm_bytes),
            cache: BufferCache::with_bytes(cfg.cache_bytes, BLOCK_SIZE),
            names: HashMap::new(),
            dir_slots: HashMap::new(),
            child_count: HashMap::new(),
            handles: HashMap::new(),
            next_handle: 1,
            seq_state: HashMap::new(),
            alloc_hint: 0,
            dirty_ptrs: std::collections::BTreeSet::new(),
            sync_data: cfg.sync_data,
            metrics: disksim::Metrics::default(),
            spans: spans.clone(),
        };
        fs.load_directories()?;
        fs.reconcile_bitmaps()?;
        fs.span_close(sp);
        Ok(fs)
    }

    /// Crash recovery for the delayed-bitmap discipline: inode and
    /// directory updates are synchronous but bitmap flushes wait for
    /// `sync`, so after a power loss the on-media bitmaps can lag the
    /// metadata. Trusting a stale *free* bit would hand out an inode or
    /// block that reachable metadata already owns (double allocation, then
    /// a dangling dirent once either owner is deleted) — so re-mark
    /// everything reachable from the root as allocated. The opposite
    /// staleness (bits still set for freed objects) is harmless: those
    /// leak until `fsck` reclaims them.
    ///
    /// An allocated inode no entry names is an orphan of a crash inside
    /// `delete` (entry cleared, inode not yet). Its blocks are not marked
    /// here, so a later allocation would hand them to a live file while
    /// the orphan still points at them: clear every orphan first.
    fn reconcile_bitmaps(&mut self) -> FsResult<()> {
        let mut inos: Vec<u32> = vec![ROOT_INO];
        inos.extend(self.names.values().map(|e| e.ino));
        let named: HashSet<u32> = inos.iter().copied().collect();
        for ino in 0..self.layout.inode_count {
            if !named.contains(&ino) && self.get_inode(ino)?.allocated {
                let cleared = Inode { allocated: false, ..Inode::empty() };
                self.put_inode(ino, &cleared, true)?;
                self.inode_bm.clear(ino as u64);
            }
        }
        for ino in inos {
            self.inode_bm.set(ino as u64);
            let inode = self.get_inode(ino)?;
            for blk in self.referenced_blocks(&inode)? {
                // Out-of-range pointers are fsck's to report, not ours to
                // mirror into the bitmap.
                if blk >= self.layout.data_start
                    && blk - self.layout.data_start < self.block_bm.len()
                {
                    self.block_bm.set(blk - self.layout.data_start);
                }
            }
        }
        Ok(())
    }

    /// Every device block `inode` references: data blocks plus the
    /// indirect pointer blocks themselves.
    fn referenced_blocks(&mut self, inode: &Inode) -> FsResult<Vec<u64>> {
        let mut out = Vec::new();
        for &d in &inode.direct {
            if d != NO_BLOCK {
                out.push(d as u64);
            }
        }
        if inode.indirect != NO_BLOCK {
            out.push(inode.indirect as u64);
            out.extend(self.pointer_targets(inode.indirect as u64)?);
        }
        if inode.dindirect != NO_BLOCK {
            out.push(inode.dindirect as u64);
            for p in self.pointer_targets(inode.dindirect as u64)? {
                out.push(p);
                out.extend(self.pointer_targets(p)?);
            }
        }
        Ok(out)
    }

    /// The non-empty pointers stored in an indirect block.
    fn pointer_targets(&mut self, blk: u64) -> FsResult<Vec<u64>> {
        let buf = self.get_block(blk)?;
        let mut ptrs = Vec::new();
        for o in (0..BLOCK_SIZE).step_by(4) {
            let b = u32::from_le_bytes(buf[o..o + 4].try_into().expect("slice of 4"));
            if b != NO_BLOCK {
                ptrs.push(b as u64);
            }
        }
        Ok(ptrs)
    }

    /// Access the underlying device (e.g. to harvest statistics).
    pub fn device(&self) -> &dyn BlockDevice {
        self.dev.as_ref()
    }

    /// Mutable device access.
    pub fn device_mut(&mut self) -> &mut dyn BlockDevice {
        self.dev.as_mut()
    }

    /// Consume the file system, returning the device.
    pub fn into_device(self) -> Box<dyn BlockDevice> {
        self.dev
    }

    /// The computed on-disk layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Does the in-memory block bitmap hold device block `blk`? Blocks
    /// below the data region (superblock, bitmaps, inode table) always do;
    /// blocks past the file system's end never do.
    pub fn block_in_use(&self, blk: u64) -> bool {
        match blk.checked_sub(self.layout.data_start) {
            None => true,
            Some(i) => i < self.block_bm.len() && self.block_bm.get(i),
        }
    }

    /// Attach a metrics registry; buffer-cache hit/miss/dirty gauges are
    /// refreshed on flush and idle (cold paths only).
    pub fn set_metrics(&mut self, metrics: disksim::Metrics) {
        self.metrics = metrics;
        self.update_cache_gauges();
    }

    /// Open a causal span at the current device clock. Returns 0 (no span,
    /// nothing to close) when span tracing is disabled — one branch of cost.
    fn span_open(&self, kind: disksim::SpanKind, label: &'static str) -> u32 {
        if self.spans.is_enabled() {
            self.spans.open(kind, label, self.dev.clock().now())
        } else {
            0
        }
    }

    /// Close a span previously opened by [`Ufs::span_open`].
    fn span_close(&self, sp: u32) {
        if sp != 0 {
            self.spans.close(sp, self.dev.clock().now());
        }
    }

    /// Refresh the cache gauges from the buffer cache's own counters.
    fn update_cache_gauges(&self) {
        if !self.metrics.is_enabled() {
            return;
        }
        let (hits, misses) = self.cache.stats();
        self.metrics.gauge("ufs.cache_hits", hits as i64);
        self.metrics.gauge("ufs.cache_misses", misses as i64);
        self.metrics.gauge("ufs.cache_dirty", self.cache.dirty_count() as i64);
    }

    // ----- low-level block helpers ------------------------------------

    fn cache_insert(&mut self, blk: u64, data: Arc<[u8]>, dirty: bool) -> FsResult<()> {
        if self.cache.is_full()
            && !self.cache.contains(blk)
            && self.cfg.flush_on_full
            && self.cache.dirty_count() * 4 >= self.cache.capacity() * 3
        {
            // NVRAM discipline: once the buffer is substantially dirty,
            // drain it all at once; clean blocks then evict for free.
            self.flush_dirty_sorted()?;
        }
        let mut sp = 0;
        while self.cache.is_full() && !self.cache.contains(blk) {
            let (vb, vd, vdirty) = self
                .cache
                .evict_lru_prefer_clean()
                .expect("full cache is non-empty");
            if vdirty {
                // Open lazily: most evictions find a clean victim and touch
                // no disk, so they should not mint a span record.
                if sp == 0 {
                    sp = self.span_open(disksim::SpanKind::CacheFlush, "ufs.evict");
                }
                self.dev.write_block(vb, &vd)?;
            }
        }
        self.span_close(sp);
        self.cache.insert(blk, data, dirty);
        Ok(())
    }

    /// Read a device block through the cache. The returned handle shares
    /// the cached payload — a hit costs an `Arc` clone, not a 4 KB copy.
    fn get_block(&mut self, blk: u64) -> FsResult<Arc<[u8]>> {
        if let Some(d) = self.cache.get_rc(blk) {
            return Ok(d);
        }
        let mut buf = vec![0u8; BLOCK_SIZE];
        self.dev.read_block(blk, &mut buf)?;
        let data: Arc<[u8]> = buf.into();
        self.cache_insert(blk, Arc::clone(&data), false)?;
        Ok(data)
    }

    /// Write a device block: synchronously (write-through) or delayed.
    fn put_block(&mut self, blk: u64, data: Vec<u8>, sync: bool) -> FsResult<()> {
        let data: Arc<[u8]> = data.into();
        if sync {
            self.dev.write_block(blk, &data)?;
            self.cache_insert(blk, data, false)
        } else {
            self.cache_insert(blk, data, true)
        }
    }

    // ----- inode helpers ----------------------------------------------

    fn get_inode(&mut self, ino: u32) -> FsResult<Inode> {
        let (blk, off) = self.layout.inode_location(ino);
        let buf = self.get_block(blk)?;
        Inode::decode(&buf[off..off + INODE_SIZE])
    }

    fn put_inode(&mut self, ino: u32, inode: &Inode, sync: bool) -> FsResult<()> {
        let (blk, off) = self.layout.inode_location(ino);
        // The block holds other inodes too, so read-modify-write.
        let mut buf = self.get_block(blk)?.to_vec();
        inode.encode_into(&mut buf[off..off + INODE_SIZE]);
        self.put_block(blk, buf, sync)
    }

    // ----- allocation ---------------------------------------------------

    fn usable_free(&self) -> u64 {
        self.block_bm
            .free()
            .saturating_sub(self.layout.reserved_blocks)
    }

    fn alloc_data_block(&mut self, hint: u64) -> FsResult<u64> {
        if self.usable_free() == 0 {
            return Err(FsError::NoSpace);
        }
        let idx = self.block_bm.alloc_from(hint).ok_or(FsError::NoSpace)?;
        self.alloc_hint = idx + 1;
        Ok(self.layout.data_start + idx)
    }

    fn free_data_block(&mut self, blk: u64) {
        debug_assert!(blk >= self.layout.data_start);
        self.block_bm.clear(blk - self.layout.data_start);
        self.cache.remove(blk);
        self.dirty_ptrs.remove(&blk);
        if self.cfg.trim_on_delete {
            let _ = self.dev.trim(blk);
        }
    }

    /// Resolve the device block backing `file_block` of `inode`, allocating
    /// data and indirect blocks as needed. Returns the device block and
    /// whether the inode itself changed.
    fn resolve_block(
        &mut self,
        inode: &mut Inode,
        file_block: u64,
        allocate: bool,
    ) -> FsResult<Option<u64>> {
        let hint = self.alloc_hint;
        match classify(file_block)? {
            BlockPath::Direct(i) => {
                if inode.direct[i] == NO_BLOCK {
                    if !allocate {
                        return Ok(None);
                    }
                    inode.direct[i] = self.alloc_data_block(hint)? as u32;
                }
                Ok(Some(inode.direct[i] as u64))
            }
            BlockPath::Indirect(i) => {
                if inode.indirect == NO_BLOCK {
                    if !allocate {
                        return Ok(None);
                    }
                    let b = self.alloc_data_block(hint)?;
                    // Pointer blocks are metadata: written through before
                    // anything on media can reference them. An inode block
                    // can reach the media early (a synchronous update to a
                    // neighbouring inode carries the whole block), so a
                    // cached-only pointer block would leave an on-media
                    // inode pointing at stale garbage after a crash.
                    self.put_block(b, vec![0u8; BLOCK_SIZE], true)?;
                    inode.indirect = b as u32;
                }
                self.resolve_via(inode.indirect as u64, i, allocate, false)
            }
            BlockPath::Double(i, j) => {
                if inode.dindirect == NO_BLOCK {
                    if !allocate {
                        return Ok(None);
                    }
                    let b = self.alloc_data_block(hint)?;
                    self.put_block(b, vec![0u8; BLOCK_SIZE], true)?;
                    inode.dindirect = b as u32;
                }
                let l1 = match self.resolve_via(inode.dindirect as u64, i, allocate, true)? {
                    Some(b) => b,
                    None => return Ok(None),
                };
                self.resolve_via(l1, j, allocate, false)
            }
        }
    }

    /// Look up (or allocate) slot `idx` inside the pointer block `ptr_blk`.
    /// `child_is_ptr` says whether a freshly allocated child is itself a
    /// pointer block (a level-1 indirect) rather than a data block.
    fn resolve_via(
        &mut self,
        ptr_blk: u64,
        idx: u64,
        allocate: bool,
        child_is_ptr: bool,
    ) -> FsResult<Option<u64>> {
        debug_assert!(idx < PTRS_PER_BLOCK);
        let mut buf = self.get_block(ptr_blk)?.to_vec();
        let o = idx as usize * 4;
        let cur = u32::from_le_bytes(buf[o..o + 4].try_into().expect("slice of 4"));
        if cur != NO_BLOCK {
            return Ok(Some(cur as u64));
        }
        if !allocate {
            return Ok(None);
        }
        let b = self.alloc_data_block(self.alloc_hint)?;
        // A pointer-block child is zeroed on media before this slot can
        // reference it; data children are overwritten by the caller and may
        // stay delayed (a crash then leaves a pointer to stale data in an
        // unsynced file, which recovery semantics allow).
        self.put_block(b, vec![0u8; BLOCK_SIZE], child_is_ptr)?;
        buf[o..o + 4].copy_from_slice(&(b as u32).to_le_bytes());
        // The slot update is metadata but need not hit the media per slot:
        // it is delayed here and written through once per operation
        // ([`Ufs::flush_pointer_blocks`]), before the inode that leads to
        // it can reach the media.
        self.put_block(ptr_blk, buf, false)?;
        self.dirty_ptrs.insert(ptr_blk);
        Ok(Some(b))
    }

    /// Write through every pointer block with delayed slot updates. Called
    /// at the end of each mutating operation so on-media metadata is always
    /// structurally consistent: an inode block can reach the media at any
    /// later point (a synchronous update to a neighbouring inode carries
    /// the whole block, and cache pressure evicts dirty blocks), and the
    /// pointer chain it references must already be there.
    fn flush_pointer_blocks(&mut self) -> FsResult<()> {
        while let Some(&blk) = self.dirty_ptrs.iter().next() {
            self.dirty_ptrs.remove(&blk);
            if let Some((data, dirty)) = self.cache.remove(blk) {
                if dirty {
                    self.dev.write_block(blk, &data)?;
                }
                self.cache.insert(blk, data, false);
            }
        }
        Ok(())
    }

    // ----- directories ----------------------------------------------------

    /// Normalise a path: strip leading/trailing separators, reject empty
    /// names and empty segments, validate every component.
    fn normalize(path: &str) -> FsResult<String> {
        let trimmed = path.trim_matches('/');
        if trimmed.is_empty() {
            return Err(FsError::Invalid("empty path"));
        }
        for seg in trimmed.split('/') {
            Dirent::check_name(seg)?;
        }
        Ok(trimmed.to_string())
    }

    /// Split a normalised path into (parent path, leaf name).
    fn split_parent(path: &str) -> (Option<&str>, &str) {
        match path.rfind('/') {
            Some(i) => (Some(&path[..i]), &path[i + 1..]),
            None => (None, path),
        }
    }

    /// The inode of the directory that should contain `path`'s leaf.
    fn parent_dir_ino(&self, path: &str) -> FsResult<u32> {
        match Self::split_parent(path).0 {
            None => Ok(ROOT_INO),
            Some(parent) => {
                let e = self.names.get(parent).ok_or(FsError::NotFound)?;
                if !e.is_dir {
                    return Err(FsError::Invalid("path component is not a directory"));
                }
                Ok(e.ino)
            }
        }
    }

    /// Rebuild the in-memory directory index by walking the tree from the
    /// root (used at mount).
    ///
    /// A crash inside `rename` can leave the file under both names (the new
    /// entry lands before the old one is cleared). Files have no link
    /// count, so deleting one name would free the inode under the other:
    /// the walk keeps the first name it meets and clears the rest.
    fn load_directories(&mut self) -> FsResult<()> {
        self.dir_slots.insert(ROOT_INO, Vec::new());
        self.child_count.insert(ROOT_INO, 0);
        let mut named = HashSet::new();
        let mut stack: Vec<(u32, String)> = vec![(ROOT_INO, String::new())];
        while let Some((dir_ino, prefix)) = stack.pop() {
            let entries = self.read_dir_entries(dir_ino)?;
            let slots = entries
                .iter()
                .map(|(s, _)| *s)
                .max()
                .map(|m| m + 1)
                .unwrap_or(0);
            let mut occupancy = vec![false; slots as usize];
            for (slot, e) in entries {
                if !named.insert(e.ino) {
                    self.write_dir_slot(dir_ino, slot, None)?;
                    continue;
                }
                occupancy[slot as usize] = true;
                let path = if prefix.is_empty() {
                    e.name.clone()
                } else {
                    format!("{prefix}/{}", e.name)
                };
                let child = self.get_inode(e.ino)?;
                self.names.insert(
                    path.clone(),
                    PathEntry {
                        ino: e.ino,
                        parent: dir_ino,
                        slot,
                        is_dir: child.is_dir,
                    },
                );
                *self.child_count.entry(dir_ino).or_insert(0) += 1;
                if child.is_dir {
                    self.dir_slots.entry(e.ino).or_default();
                    self.child_count.entry(e.ino).or_insert(0);
                    stack.push((e.ino, path));
                }
            }
            let occ = self.dir_slots.entry(dir_ino).or_default();
            *occ = occupancy;
        }
        Ok(())
    }

    /// All live entries of a directory, as (slot, entry).
    fn read_dir_entries(&mut self, dir_ino: u32) -> FsResult<Vec<(u64, Dirent)>> {
        let mut dir = self.get_inode(dir_ino)?;
        let entries = dir.size / DIRENT_SIZE as u64;
        let per_block = (BLOCK_SIZE / DIRENT_SIZE) as u64;
        let mut out = Vec::new();
        for blk_idx in 0..dir.blocks() {
            let Some(dev_blk) = self.resolve_block(&mut dir, blk_idx, false)? else {
                continue;
            };
            let buf = self.get_block(dev_blk)?;
            for s in 0..per_block {
                let slot_idx = blk_idx * per_block + s;
                if slot_idx >= entries {
                    break;
                }
                let o = s as usize * DIRENT_SIZE;
                if let Some(e) = Dirent::decode(&buf[o..o + DIRENT_SIZE]) {
                    out.push((slot_idx, e));
                }
            }
        }
        Ok(out)
    }

    /// Write a directory slot (synchronously — metadata) and keep the
    /// directory inode's size current.
    fn write_dir_slot(
        &mut self,
        dir_ino: u32,
        slot_idx: u64,
        entry: Option<&Dirent>,
    ) -> FsResult<()> {
        let per_block = (BLOCK_SIZE / DIRENT_SIZE) as u64;
        let file_block = slot_idx / per_block;
        let mut dir = self.get_inode(dir_ino)?;
        let dev_blk = self
            .resolve_block(&mut dir, file_block, true)?
            .ok_or(FsError::NoSpace)?;
        let mut buf = self.get_block(dev_blk)?.to_vec();
        let o = (slot_idx % per_block) as usize * DIRENT_SIZE;
        match entry {
            Some(e) => e.encode_into(&mut buf[o..o + DIRENT_SIZE]),
            None => Dirent::clear_slot(&mut buf[o..o + DIRENT_SIZE]),
        }
        self.put_block(dev_blk, buf, true)?;
        let needed = (slot_idx + 1) * DIRENT_SIZE as u64;
        if needed > dir.size {
            dir.size = needed;
            self.put_inode(dir_ino, &dir, true)?;
        }
        Ok(())
    }

    fn free_dir_slot(&mut self, dir_ino: u32) -> u64 {
        let occ = self.dir_slots.entry(dir_ino).or_default();
        match occ.iter().position(|used| !used) {
            Some(i) => i as u64,
            None => {
                occ.push(false);
                (occ.len() - 1) as u64
            }
        }
    }

    /// Allocate an inode + directory entry for `path` (file or directory).
    fn create_entry(&mut self, path: &str, is_dir: bool) -> FsResult<PathEntry> {
        let path = Self::normalize(path)?;
        if self.names.contains_key(&path) {
            return Err(FsError::Exists);
        }
        let parent = self.parent_dir_ino(&path)?;
        let leaf = Self::split_parent(&path).1.to_string();
        let ino = self.inode_bm.alloc_from(1).ok_or(FsError::NoSpace)? as u32;
        // Synchronous metadata: inode first, then the directory entry that
        // makes it reachable (the safe ordering).
        let inode = if is_dir {
            Inode::empty_dir()
        } else {
            Inode::empty()
        };
        self.put_inode(ino, &inode, true)?;
        let slot = self.free_dir_slot(parent);
        self.write_dir_slot(parent, slot, Some(&Dirent { ino, name: leaf }))?;
        self.dir_slots.get_mut(&parent).expect("parent indexed")[slot as usize] = true;
        *self.child_count.entry(parent).or_insert(0) += 1;
        let entry = PathEntry {
            ino,
            parent,
            slot,
            is_dir,
        };
        self.names.insert(path, entry);
        if is_dir {
            self.dir_slots.insert(ino, Vec::new());
            self.child_count.insert(ino, 0);
        }
        Ok(entry)
    }

    /// List the names directly inside a directory (`"/"` or `""` for the
    /// root), in unspecified order.
    pub fn list(&self, path: &str) -> FsResult<Vec<String>> {
        let dir_ino = match path.trim_matches('/') {
            "" => ROOT_INO,
            p => {
                let e = self.names.get(p).ok_or(FsError::NotFound)?;
                if !e.is_dir {
                    return Err(FsError::Invalid("not a directory"));
                }
                e.ino
            }
        };
        Ok(self
            .names
            .iter()
            .filter(|(_, e)| e.parent == dir_ino)
            .map(|(p, _)| p.rsplit('/').next().expect("non-empty path").to_string())
            .collect())
    }

    // ----- misc -----------------------------------------------------------

    fn ino_of(&self, f: FileId) -> FsResult<u32> {
        self.handles.get(&f).copied().ok_or(FsError::BadHandle)
    }

    fn flush_bitmaps(&mut self) -> FsResult<()> {
        for chunk in self.inode_bm.take_dirty_chunks() {
            let blk = self.layout.inode_bitmap_start + chunk as u64;
            let data = self.inode_bm.chunk_bytes(chunk);
            self.dev.write_block(blk, &data)?;
        }
        for chunk in self.block_bm.take_dirty_chunks() {
            let blk = self.layout.block_bitmap_start + chunk as u64;
            let data = self.block_bm.chunk_bytes(chunk);
            self.dev.write_block(blk, &data)?;
        }
        Ok(())
    }

    /// Flush dirty cache blocks in elevator order, clustering physically
    /// contiguous runs into single device commands. Each flushed block also
    /// costs host CPU — the flush runs through the same user-level code as
    /// any other block write.
    fn flush_dirty_sorted(&mut self) -> FsResult<()> {
        let dirty = self.cache.take_dirty_sorted();
        self.host.charge(&self.dev.clock(), dirty.len() as u64);
        // Only mint a span when there is actually something to write back.
        let sp = if dirty.is_empty() {
            0
        } else {
            self.span_open(disksim::SpanKind::CacheFlush, "ufs.flush")
        };
        let r = self.flush_runs(&dirty);
        self.span_close(sp);
        r?;
        self.update_cache_gauges();
        Ok(())
    }

    /// Write a sorted dirty-block list as clustered runs (the I/O half of
    /// [`Ufs::flush_dirty_sorted`], split out so the flush span brackets it).
    fn flush_runs(&mut self, dirty: &[u64]) -> FsResult<()> {
        let mut i = 0;
        while i < dirty.len() {
            let mut j = i + 1;
            while j < dirty.len() && dirty[j] == dirty[j - 1] + 1 {
                j += 1;
            }
            // Assemble the cluster straight out of the cache — the payloads
            // were never cloned out of it.
            let mut run = Vec::with_capacity((j - i) * BLOCK_SIZE);
            for &blk in &dirty[i..j] {
                run.extend_from_slice(self.cache.peek(blk).expect("flushed block cached"));
            }
            self.dev.write_blocks(dirty[i], &run)?;
            i = j;
        }
        Ok(())
    }

    /// Prefetch file blocks `[from, to)` with clustered device reads.
    fn readahead(&mut self, inode: &mut Inode, from: u64, to: u64) -> FsResult<()> {
        let mut targets = Vec::new();
        for fb in from..to {
            if let Some(db) = self.resolve_block(inode, fb, false)? {
                if !self.cache.contains(db) {
                    targets.push(db);
                }
            }
        }
        targets.sort_unstable();
        targets.dedup();
        let mut i = 0;
        while i < targets.len() {
            let mut j = i + 1;
            while j < targets.len() && targets[j] == targets[j - 1] + 1 {
                j += 1;
            }
            let n = j - i;
            let mut buf = vec![0u8; n * BLOCK_SIZE];
            self.dev.read_blocks(targets[i], &mut buf)?;
            for (k, chunk) in buf.chunks(BLOCK_SIZE).enumerate() {
                self.cache_insert(targets[i] + k as u64, chunk.into(), false)?;
            }
            i = j;
        }
        Ok(())
    }

    // ----- FsOp bodies ---------------------------------------------------
    //
    // The `FileSystem` entry points below are thin span wrappers around
    // these inner methods so `?` early returns cannot leak an open span.

    fn sync_inner(&mut self) -> FsResult<()> {
        self.flush_dirty_sorted()?;
        self.flush_bitmaps()?;
        // Let the device persist its own buffered state (the LLD's
        // partial-segment flush and checkpoint; a no-op for write-through
        // devices).
        self.dev.flush()?;
        Ok(())
    }

    fn write_inner(&mut self, f: FileId, offset: u64, data: &[u8]) -> FsResult<()> {
        let ino = self.ino_of(f)?;
        let blocks = (data.len() as u64).div_ceil(BLOCK_SIZE as u64);
        self.host.charge(&self.dev.clock(), blocks);
        if data.is_empty() {
            return Ok(());
        }
        let mut inode = self.get_inode(ino)?;
        // Extending past EOF exposes bytes of already-allocated blocks in
        // the gap `[size, offset)` — the old last block's tail, and (after
        // a crash persisted pointers but not delayed data) even whole
        // blocks past it — which can hold garbage rather than zero
        // padding. Zero whatever is allocated there so the gap reads as
        // the hole POSIX promises; unallocated blocks already do.
        if offset > inode.size {
            let bs = BLOCK_SIZE as u64;
            for fb in inode.size / bs..=(offset - 1) / bs {
                let Some(dev_blk) = self.resolve_block(&mut inode, fb, false)? else {
                    continue;
                };
                let lo = inode.size.saturating_sub(fb * bs).min(bs) as usize;
                let hi = (offset - fb * bs).min(bs) as usize;
                if lo >= hi {
                    continue;
                }
                let mut buf = self.get_block(dev_blk)?.to_vec();
                buf[lo..hi].fill(0);
                self.put_block(dev_blk, buf, self.sync_data)?;
            }
        }
        let mut pos = 0usize;
        let mut off = offset;
        let mut inode_dirty = false;
        while pos < data.len() {
            let fb = off / BLOCK_SIZE as u64;
            let in_block = (off % BLOCK_SIZE as u64) as usize;
            let n = (BLOCK_SIZE - in_block).min(data.len() - pos);
            let had = {
                // Track whether this write allocates, to know the inode changed.
                let before = self.resolve_block(&mut inode, fb, false)?;
                before.is_some()
            };
            let dev_blk = self
                .resolve_block(&mut inode, fb, true)?
                .ok_or(FsError::NoSpace)?;
            if !had {
                inode_dirty = true;
            }
            let mut buf = if n == BLOCK_SIZE {
                vec![0u8; BLOCK_SIZE]
            } else if had {
                // Partial overwrite: read-modify-write needs its own copy.
                self.get_block(dev_blk)?.to_vec()
            } else {
                vec![0u8; BLOCK_SIZE]
            };
            buf[in_block..in_block + n].copy_from_slice(&data[pos..pos + n]);
            self.put_block(dev_blk, buf, self.sync_data)?;
            pos += n;
            off += n as u64;
        }
        if off > inode.size {
            inode.size = off;
            inode_dirty = true;
        }
        // Pointer blocks updated by this write reach the media before the
        // inode that references them possibly can.
        self.flush_pointer_blocks()?;
        if inode_dirty {
            // File-growth metadata is delayed (flushed on sync), matching
            // the FFS discipline for write-path updates.
            self.put_inode(ino, &inode, false)?;
        }
        Ok(())
    }

    fn read_inner(&mut self, f: FileId, offset: u64, out: &mut [u8]) -> FsResult<usize> {
        let ino = self.ino_of(f)?;
        let blocks = (out.len() as u64).div_ceil(BLOCK_SIZE as u64);
        self.host.charge(&self.dev.clock(), blocks);
        let mut inode = self.get_inode(ino)?;
        if offset >= inode.size {
            return Ok(0);
        }
        let want = out.len().min((inode.size - offset) as usize);
        let mut pos = 0usize;
        let mut off = offset;
        while pos < want {
            let fb = off / BLOCK_SIZE as u64;
            let in_block = (off % BLOCK_SIZE as u64) as usize;
            let n = (BLOCK_SIZE - in_block).min(want - pos);
            match self.resolve_block(&mut inode, fb, false)? {
                Some(dev_blk) => {
                    let buf = self.get_block(dev_blk)?;
                    out[pos..pos + n].copy_from_slice(&buf[in_block..in_block + n]);
                }
                None => out[pos..pos + n].fill(0), // hole
            }
            // Sequential-read detection drives windowed read-ahead: once a
            // run is detected, keep the next `readahead_blocks` blocks
            // prefetched, refilling in batches when the window half-drains.
            let ra = self.cfg.readahead_blocks;
            let (last_fb, mut ra_until) =
                self.seq_state.get(&ino).copied().unwrap_or((u64::MAX, 0));
            let sequential = fb == last_fb.wrapping_add(1) || fb == last_fb;
            if sequential && ra > 0 && fb + ra / 2 + 1 >= ra_until {
                let start = ra_until.max(fb + 1);
                let end = (fb + 1 + ra).min(inode.blocks());
                if start < end {
                    self.readahead(&mut inode, start, end)?;
                    ra_until = end;
                }
            }
            self.seq_state.insert(ino, (fb, ra_until));
            pos += n;
            off += n as u64;
        }
        Ok(want)
    }

    fn delete_inner(&mut self, name: &str) -> FsResult<()> {
        self.host.charge(&self.dev.clock(), 0);
        let path = Self::normalize(name)?;
        let e = *self.names.get(&path).ok_or(FsError::NotFound)?;
        if e.is_dir && self.child_count.get(&e.ino).copied().unwrap_or(0) > 0 {
            return Err(FsError::Invalid("directory not empty"));
        }
        let (ino, slot) = (e.ino, e.slot);
        // Directory entry out first (synchronously), then free the inode
        // and blocks.
        self.write_dir_slot(e.parent, slot, None)?;
        self.names.remove(&path);
        self.dir_slots.get_mut(&e.parent).expect("parent indexed")[slot as usize] = false;
        *self.child_count.entry(e.parent).or_insert(1) -= 1;
        if e.is_dir {
            self.dir_slots.remove(&ino);
            self.child_count.remove(&ino);
        }
        let mut inode = self.get_inode(ino)?;
        // Free all data + indirect blocks.
        for i in 0..crate::inode::NDIRECT {
            if inode.direct[i] != NO_BLOCK {
                self.free_data_block(inode.direct[i] as u64);
            }
        }
        if inode.indirect != NO_BLOCK {
            let buf = self.get_block(inode.indirect as u64)?;
            for o in (0..BLOCK_SIZE).step_by(4) {
                let b = u32::from_le_bytes(buf[o..o + 4].try_into().expect("slice of 4"));
                if b != NO_BLOCK {
                    self.free_data_block(b as u64);
                }
            }
            self.free_data_block(inode.indirect as u64);
        }
        if inode.dindirect != NO_BLOCK {
            let l1 = self.get_block(inode.dindirect as u64)?;
            for o in (0..BLOCK_SIZE).step_by(4) {
                let p = u32::from_le_bytes(l1[o..o + 4].try_into().expect("slice of 4"));
                if p != NO_BLOCK {
                    let l2 = self.get_block(p as u64)?;
                    for o2 in (0..BLOCK_SIZE).step_by(4) {
                        let b = u32::from_le_bytes(l2[o2..o2 + 4].try_into().expect("slice of 4"));
                        if b != NO_BLOCK {
                            self.free_data_block(b as u64);
                        }
                    }
                    self.free_data_block(p as u64);
                }
            }
            self.free_data_block(inode.dindirect as u64);
        }
        inode = Inode::empty();
        inode.allocated = false;
        self.put_inode(ino, &inode, true)?;
        self.inode_bm.clear(ino as u64);
        self.seq_state.remove(&ino);
        Ok(())
    }

    fn rename_inner(&mut self, from: &str, to: &str) -> FsResult<()> {
        self.host.charge(&self.dev.clock(), 0);
        let from = Self::normalize(from)?;
        let to = Self::normalize(to)?;
        let e = *self.names.get(&from).ok_or(FsError::NotFound)?;
        if e.is_dir {
            return Err(FsError::Invalid("directory rename not supported"));
        }
        if from == to {
            return Ok(());
        }
        if self.names.contains_key(&to) {
            return Err(FsError::Exists);
        }
        let new_parent = self.parent_dir_ino(&to)?;
        let leaf = Self::split_parent(&to).1.to_string();
        // Synchronous metadata, safe ordering: the new entry lands first,
        // then the old one is cleared — a crash in between leaves the file
        // reachable under both names, never under none.
        let slot = self.free_dir_slot(new_parent);
        self.write_dir_slot(new_parent, slot, Some(&Dirent { ino: e.ino, name: leaf }))?;
        self.dir_slots.get_mut(&new_parent).expect("parent indexed")[slot as usize] = true;
        *self.child_count.entry(new_parent).or_insert(0) += 1;
        self.write_dir_slot(e.parent, e.slot, None)?;
        self.dir_slots.get_mut(&e.parent).expect("parent indexed")[e.slot as usize] = false;
        *self.child_count.entry(e.parent).or_insert(1) -= 1;
        self.names.remove(&from);
        self.names.insert(
            to,
            PathEntry {
                ino: e.ino,
                parent: new_parent,
                slot,
                is_dir: false,
            },
        );
        Ok(())
    }
}

/// A point-in-time image of a mounted [`Ufs`] and the whole device stack
/// under it. Plain data and `Send + Sync`: captured once, it can be
/// restored concurrently from many worker threads, each restore yielding a
/// fully independent system whose media pages and cache payloads are
/// shared copy-on-write with the snapshot and with sibling forks.
pub struct UfsSnapshot {
    dev: Box<dyn DeviceSnapshot>,
    host: HostModel,
    layout: Layout,
    cfg: UfsConfig,
    inode_bm: Bitmap,
    block_bm: Bitmap,
    cache: BufferCache,
    names: HashMap<String, PathEntry>,
    dir_slots: HashMap<u32, Vec<bool>>,
    child_count: HashMap<u32, u32>,
    handles: HashMap<FileId, u32>,
    next_handle: FileId,
    seq_state: HashMap<u32, (u64, u64)>,
    alloc_hint: u64,
    dirty_ptrs: std::collections::BTreeSet<u64>,
    sync_data: bool,
}

// Snapshots must cross thread boundaries: the whole point is to capture
// once and restore from parallel figure-cell workers.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<UfsSnapshot>();
};

impl UfsSnapshot {
    /// Materialise an independent live system from this snapshot.
    pub fn restore(&self) -> Ufs {
        let dev = self.dev.restore();
        let spans = dev.spans();
        Ufs {
            dev,
            host: self.host,
            layout: self.layout,
            cfg: self.cfg,
            inode_bm: self.inode_bm.clone(),
            block_bm: self.block_bm.clone(),
            cache: self.cache.clone(),
            names: self.names.clone(),
            dir_slots: self.dir_slots.clone(),
            child_count: self.child_count.clone(),
            handles: self.handles.clone(),
            next_handle: self.next_handle,
            seq_state: self.seq_state.clone(),
            alloc_hint: self.alloc_hint,
            dirty_ptrs: self.dirty_ptrs.clone(),
            sync_data: self.sync_data,
            metrics: disksim::Metrics::disabled(),
            spans,
        }
    }

    /// Simulation events the captured system had consumed. A fork credits
    /// these to the global counter ([`disksim::clock::add_events`]) so the
    /// per-figure event totals match a from-scratch rebuild exactly.
    pub fn local_events(&self) -> u64 {
        self.dev.local_events()
    }
}

impl FileSystem for Ufs {
    fn create(&mut self, name: &str) -> FsResult<FileId> {
        self.host.charge(&self.dev.clock(), 0);
        let sp = self.span_open(disksim::SpanKind::FsOp, "ufs.create");
        let r = self.create_entry(name, false);
        self.span_close(sp);
        let entry = r?;
        let h = self.next_handle;
        self.next_handle += 1;
        self.handles.insert(h, entry.ino);
        Ok(h)
    }

    fn mkdir(&mut self, path: &str) -> FsResult<()> {
        self.host.charge(&self.dev.clock(), 0);
        let sp = self.span_open(disksim::SpanKind::FsOp, "ufs.mkdir");
        let r = self.create_entry(path, true);
        self.span_close(sp);
        r?;
        Ok(())
    }

    fn open(&mut self, name: &str) -> FsResult<FileId> {
        self.host.charge(&self.dev.clock(), 0);
        let path = Self::normalize(name)?;
        let e = *self.names.get(&path).ok_or(FsError::NotFound)?;
        if e.is_dir {
            return Err(FsError::Invalid("is a directory"));
        }
        let h = self.next_handle;
        self.next_handle += 1;
        self.handles.insert(h, e.ino);
        Ok(h)
    }

    fn write(&mut self, f: FileId, offset: u64, data: &[u8]) -> FsResult<()> {
        let sp = self.span_open(disksim::SpanKind::FsOp, "ufs.write");
        let r = self.write_inner(f, offset, data);
        self.span_close(sp);
        r
    }

    fn read(&mut self, f: FileId, offset: u64, out: &mut [u8]) -> FsResult<usize> {
        let sp = self.span_open(disksim::SpanKind::FsOp, "ufs.read");
        let r = self.read_inner(f, offset, out);
        self.span_close(sp);
        r
    }

    fn delete(&mut self, name: &str) -> FsResult<()> {
        let sp = self.span_open(disksim::SpanKind::FsOp, "ufs.delete");
        let r = self.delete_inner(name);
        self.span_close(sp);
        r
    }

    fn rename(&mut self, from: &str, to: &str) -> FsResult<()> {
        let sp = self.span_open(disksim::SpanKind::FsOp, "ufs.rename");
        let r = self.rename_inner(from, to);
        self.span_close(sp);
        r
    }

    fn file_size(&mut self, f: FileId) -> FsResult<u64> {
        let ino = self.ino_of(f)?;
        Ok(self.get_inode(ino)?.size)
    }

    fn sync(&mut self) -> FsResult<()> {
        self.host.charge(&self.dev.clock(), 0);
        let sp = self.span_open(disksim::SpanKind::FsOp, "ufs.sync");
        let r = self.sync_inner();
        self.span_close(sp);
        r
    }

    fn drop_caches(&mut self) {
        self.cache.drop_clean();
        self.seq_state.clear();
    }

    fn set_sync_writes(&mut self, on: bool) {
        self.sync_data = on;
    }

    fn idle(&mut self, ns: u64) {
        let clock = self.dev.clock();
        let end = clock.now() + ns;
        if self.cfg.flush_on_full {
            // NVRAM discipline: use idle time for background write-back so
            // a later burst finds the buffer empty — with enough idle, the
            // flush (and any cleaning it triggers below) is entirely masked
            // and the foreground runs at memory speed.
            let sp = if self.cache.dirty_count() > 0 {
                self.span_open(disksim::SpanKind::CacheFlush, "ufs.idle_writeback")
            } else {
                0
            };
            while clock.now() < end && self.cache.dirty_count() > 0 {
                let dirty = self.cache.take_dirty_sorted();
                for blk in dirty {
                    if clock.now() >= end {
                        // Out of idle budget: re-dirty in place, no copy.
                        self.cache.mark_dirty(blk);
                        continue;
                    }
                    self.host.charge(&clock, 1);
                    let data = self.cache.peek(blk).expect("flushed block cached");
                    if self.dev.write_block(blk, data).is_err() {
                        self.cache.mark_dirty(blk);
                    }
                }
                if clock.now() >= end {
                    break;
                }
            }
            self.span_close(sp);
            self.update_cache_gauges();
        }
        let remaining = end.saturating_sub(clock.now());
        fscore::fs::grant_idle(self.dev.as_mut(), remaining);
        clock.advance_to(end);
    }

    fn clock(&self) -> SimClock {
        self.dev.clock()
    }

    fn utilization(&self) -> f64 {
        // df-style: the reserve counts as used.
        (self.block_bm.used() + self.layout.reserved_blocks) as f64
            / self.layout.data_blocks() as f64
    }

    fn free_blocks(&self) -> u64 {
        self.usable_free()
    }
}
