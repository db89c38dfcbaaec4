//! The four device stacks of the paper's Figure 5, with a fault layer
//! uniformly spliced directly above the raw device:
//!
//! * `UfsRegular` — `Ufs → FaultDisk → RegularDisk`
//! * `UfsVld`     — `Ufs → FaultDisk → Vld`
//! * `LfsRegular` — `Ufs → LogDisk → FaultDisk → RegularDisk`
//! * `LfsVld`     — `Ufs → LogDisk → FaultDisk → Vld`
//!
//! Placing the fault layer at the same depth in every stack means a seeded
//! power cut is always expressed in raw-device write ops, and teardown
//! (simulated power loss: volatile layers evaporate, only the media's
//! sectors survive) and remount (the stack's real recovery path) follow one
//! uniform recipe.

use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

use disksim::fault::content_hash;
use disksim::{
    downcast_device, probe_device, BlockDevice, Disk, DiskSpec, FaultDisk, FaultLog, FaultPlan,
    RegularDisk, SimClock,
};
use fscore::{FsResult, HostModel};
use lfs::{LldConfig, LogDisk};
use ufs::{FsckError, Ufs, UfsConfig};
use vlog_core::vld::{Vld, VldConfig};

/// Logical block size all stacks run at.
pub const BLOCK: usize = 4096;

/// One of the four checked configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackConfig {
    /// Update-in-place file system on an update-in-place disk.
    UfsRegular,
    /// Update-in-place file system on the virtual-log disk.
    UfsVld,
    /// Log-structured logical disk on an update-in-place disk.
    LfsRegular,
    /// Log-structured logical disk on the virtual-log disk.
    LfsVld,
}

/// Sweep order for all four configurations.
pub const ALL_CONFIGS: [StackConfig; 4] = [
    StackConfig::UfsRegular,
    StackConfig::UfsVld,
    StackConfig::LfsRegular,
    StackConfig::LfsVld,
];

impl StackConfig {
    /// Is a log-structured logical disk part of the stack?
    pub fn is_lfs(self) -> bool {
        matches!(self, StackConfig::LfsRegular | StackConfig::LfsVld)
    }

    /// Is the raw device a VLD?
    pub fn on_vld(self) -> bool {
        matches!(self, StackConfig::UfsVld | StackConfig::LfsVld)
    }

    fn index(self) -> usize {
        match self {
            StackConfig::UfsRegular => 0,
            StackConfig::UfsVld => 1,
            StackConfig::LfsRegular => 2,
            StackConfig::LfsVld => 3,
        }
    }
}

impl fmt::Display for StackConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StackConfig::UfsRegular => "ufs-regular",
            StackConfig::UfsVld => "ufs-vld",
            StackConfig::LfsRegular => "lfs-regular",
            StackConfig::LfsVld => "lfs-vld",
        };
        f.write_str(s)
    }
}

fn spec() -> DiskSpec {
    DiskSpec::hp97560_sim()
}

fn vld_cfg() -> VldConfig {
    VldConfig::default()
}

fn ufs_cfg(lfs: bool) -> UfsConfig {
    UfsConfig {
        // Small inode table keeps format cheap; read-ahead off for
        // cross-stack uniformity (the paper disables it on the LLD).
        inode_count: 64,
        cache_bytes: 1 << 20,
        readahead_blocks: 0,
        // The LFS file layer propagates deletes to the log and drains the
        // cache in bulk, as in the paper's LFS configuration.
        trim_on_delete: lfs,
        flush_on_full: lfs,
        ..UfsConfig::default()
    }
}

/// Build a freshly formatted stack with `plan` armed in its fault layer.
pub fn build(cfg: StackConfig, plan: FaultPlan) -> FsResult<Ufs> {
    build_recorded(cfg, plan, None)
}

/// [`build`] with an optional flight recorder: its event ring and span
/// table are attached to the raw device before the stack is formatted.
/// Both live on the mechanical [`Disk`], which survives teardown, so one
/// recorder covers format, workload, crash and the recovery that follows.
pub fn build_recorded(
    cfg: StackConfig,
    plan: FaultPlan,
    rec: Option<&disksim::FlightRecorder>,
) -> FsResult<Ufs> {
    let clock = SimClock::new();
    let host = HostModel::instant();
    let raw: Box<dyn BlockDevice> = if cfg.on_vld() {
        let mut vld = Vld::format(spec(), clock, vld_cfg());
        if let Some(r) = rec {
            vld.set_observability(Some(r.tracer.clone()), disksim::Metrics::default());
            vld.set_spans(r.spans.clone());
        }
        Box::new(vld)
    } else {
        let mut rd = RegularDisk::new(spec(), clock, BLOCK);
        if let Some(r) = rec {
            rd.disk_mut().set_tracer(Some(r.tracer.clone()));
            rd.disk_mut().set_spans(r.spans.clone());
        }
        Box::new(rd)
    };
    let faulted = Box::new(FaultDisk::new(raw, plan));
    let dev: Box<dyn BlockDevice> = if cfg.is_lfs() {
        Box::new(LogDisk::format(faulted, LldConfig::default())?)
    } else {
        faulted
    };
    let mut fs = Ufs::format(dev, host, ufs_cfg(cfg.is_lfs()))?;
    // mkfs ends with a flush: a crash before the first operation must find
    // a mountable file system even on stacks that buffer writes (the LLD's
    // partial segment is volatile until the first sync).
    fscore::FileSystem::sync(&mut fs)?;
    Ok(fs)
}

/// Device write ops a clean format of `cfg` performs — the deterministic
/// offset seeded cuts are expressed relative to. Measured once per config.
pub fn format_writes(cfg: StackConfig) -> u64 {
    static CACHE: [OnceLock<u64>; 4] =
        [OnceLock::new(), OnceLock::new(), OnceLock::new(), OnceLock::new()];
    *CACHE[cfg.index()].get_or_init(|| {
        let fs = build(cfg, FaultPlan::none()).expect("clean format");
        probe_device::<FaultDisk>(fs.device())
            .expect("fault layer present in every stack")
            .write_ops()
    })
}

/// What survives a simulated power loss.
pub struct CrashState {
    /// The mechanical disk's sectors — the only non-volatile state.
    pub disk: Disk,
    /// Write ops the fault layer acknowledged before the lights went out.
    pub write_ops: u64,
    /// What the fault layer injected (cuts, torn block, corruptions).
    pub log: FaultLog,
    /// Acknowledged writes: device block → content hash at ack time.
    pub acked: HashMap<u64, u64>,
}

/// Dismantle the stack without any shutdown courtesy: caches, buffered
/// segments and the VLD's in-memory map evaporate; only the media survives.
pub fn teardown(cfg: StackConfig, fs: Ufs) -> CrashState {
    let dev = fs.into_device();
    let dev = if cfg.is_lfs() {
        let lld: LogDisk = downcast_device(dev);
        lld.crash()
    } else {
        dev
    };
    let faulted: FaultDisk = downcast_device(dev);
    let (write_ops, log, acked, inner) = faulted.into_parts();
    let disk = if cfg.on_vld() {
        let vld: Vld = downcast_device(inner);
        vld.crash()
    } else {
        let raw: RegularDisk = downcast_device(inner);
        raw.into_disk()
    };
    CrashState { disk, write_ops, log, acked }
}

/// How much of the LLD's summary-scan recovery a remount checks against
/// its checkpoint recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanCheck {
    /// The media do not hold a completed sync: no check.
    Skip,
    /// A completed sync and no trim ever issued: the scan must rebuild
    /// the checkpoint's map exactly.
    Exact,
    /// A completed sync after trims: as `Exact`, except that summaries do
    /// not log trims, so the scan may also map a block the checkpoint does
    /// not — accepted only where the recovered file system's block bitmap
    /// shows that block free.
    Trimmed,
}

/// Bring the media back up through the stack's real recovery path, one
/// layer at a time, checking each recovered layer before the next one
/// mounts on it:
///
/// * the raw device still holds every write the fault layer acknowledged
///   (read from the sectors, or through the recovered VLD map);
/// * a VLD never claims a tail record after a power cut, its scan
///   recovery passes the virtual log's audit, and a shut-down copy of it
///   recovers through the tail record to the same map, audited again;
/// * an LLD remounts idempotently, and its summary-scan fallback rebuilds
///   the map its checkpoint holds, as far as `scan` asks;
/// * the file system passes [`post_recovery_audit`].
///
/// The mounted stack — on the scan-recovered VLD, where there is one —
/// gets a fresh fault layer armed with `plan`. Returns it with every
/// violated expectation.
pub fn remount(
    cfg: StackConfig,
    st: CrashState,
    plan: FaultPlan,
    scan: ScanCheck,
) -> FsResult<(Ufs, Vec<String>)> {
    let CrashState { disk, log, acked, .. } = st;
    // Spans left open by the crash (an interrupted FsOp, a mid-flight
    // compaction) are closed here so the recovery spans opened below attach
    // at the root rather than under a dead foreground op. No-op when no
    // flight recorder is attached.
    disk.spans().close_all(disk.clock().now());
    let mut complaints = Vec::new();
    let mut raw: Box<dyn BlockDevice> = if cfg.on_vld() {
        let (vld, rep) =
            Vld::recover(disk, spec().command_overhead_ns, vld_cfg())?;
        if log.power_cuts > 0 && rep.used_tail {
            complaints.push("vld recovery claims a tail record after a power cut".to_string());
        }
        let audit = vld.vlog().check_consistency().into_iter();
        complaints.extend(audit.map(|m| format!("vld audit after scan: {m}")));
        complaints.extend(tail_recovery_complaints(&vld)?);
        Box::new(vld)
    } else {
        Box::new(RegularDisk::from_disk(disk, BLOCK))
    };
    let mut blocks: Vec<(u64, u64)> = acked.into_iter().collect();
    blocks.sort_unstable();
    let mut buf = vec![0u8; BLOCK];
    for (block, hash) in blocks {
        // The torn block's last write was never acknowledged.
        if log.torn_block != Some(block)
            && (raw.read_block(block, &mut buf).is_err() || content_hash(&buf) != hash)
        {
            complaints.push(format!("acknowledged write to device block {block} lost"));
        }
    }
    let mut map = None;
    let mut scan_only = Vec::new();
    if cfg.is_lfs() {
        let lld = LogDisk::mount(raw, LldConfig::default())?;
        let (region, ckpt_map) = (lld.checkpoint_region(), lld.map_snapshot());
        raw = lld.crash();
        if scan != ScanCheck::Skip {
            let scan_map;
            (raw, scan_map) = summary_scan(raw, region)?;
            for (lb, (&c, &s)) in ckpt_map.iter().zip(&scan_map).enumerate() {
                if c == lfs::seg::NONE && s != lfs::seg::NONE {
                    scan_only.push(lb as u64);
                } else if c != s {
                    complaints.push(format!(
                        "lld summary scan maps block {lb} to slot {s}, the checkpoint to slot {c}"
                    ));
                }
            }
            if scan == ScanCheck::Exact && !scan_only.is_empty() {
                complaints.push(format!(
                    "lld summary scan maps {} blocks the checkpoint does not, with no trim \
                     issued (first: {})",
                    scan_only.len(),
                    scan_only[0]
                ));
                scan_only.clear();
            }
        }
        map = Some(ckpt_map);
    }
    let faulted = Box::new(FaultDisk::new(raw, plan));
    let dev: Box<dyn BlockDevice> = match map {
        Some(map) => {
            let lld = LogDisk::mount(faulted, LldConfig::default())?;
            if lld.map_snapshot() != map {
                complaints.push("lld recovery is not idempotent".to_string());
            }
            Box::new(lld)
        }
        None => faulted,
    };
    let mut fs = Ufs::mount(dev, HostModel::instant())?;
    if let Some(&lb) = scan_only.iter().find(|&&lb| fs.block_in_use(lb)) {
        complaints.push(format!(
            "lld summary scan maps block {lb}, which the file system holds and the checkpoint \
             does not"
        ));
    }
    complaints.extend(post_recovery_audit(&mut fs));
    Ok((fs, complaints))
}

/// Shut a copy of a scan-recovered VLD down in order and recover the copy
/// again: it must take the tail-record path, rebuild the identical map
/// and pass the virtual log's audit. The original is left untouched.
fn tail_recovery_complaints(vld: &Vld) -> FsResult<Vec<String>> {
    let map = |v: &Vld| -> Vec<Option<u64>> {
        (0..v.vlog().num_blocks()).map(|lb| v.vlog().translate(lb)).collect()
    };
    let mut copy = Vld::from_snapshot(&vld.snapshot_state());
    copy.shutdown()?;
    let (copy, rep) = Vld::recover(copy.crash(), spec().command_overhead_ns, vld_cfg())?;
    let mut complaints = Vec::new();
    if !rep.used_tail {
        complaints.push("vld tail-record path not taken after an orderly shutdown".to_string());
    }
    if map(&copy) != map(vld) {
        complaints.push("vld tail-record and scan recovery disagree on the map".to_string());
    }
    let audit = copy.vlog().check_consistency().into_iter();
    complaints.extend(audit.map(|m| format!("vld audit after tail recovery: {m}")));
    Ok(complaints)
}

/// Destroy both LLD checkpoint slots, mount from the segment summaries
/// alone and take that map, then put the slots back. Returns the device
/// and the scan's map.
fn summary_scan(
    mut raw: Box<dyn BlockDevice>,
    (start, len): (u64, u64),
) -> FsResult<(Box<dyn BlockDevice>, Vec<u32>)> {
    let mut slots = vec![0u8; len as usize * BLOCK];
    raw.read_blocks(start, &mut slots)?;
    raw.write_blocks(start, &vec![0xA5; slots.len()])?;
    let lld = LogDisk::mount(raw, LldConfig::default())?;
    let scan = lld.map_snapshot();
    let mut raw = lld.crash();
    raw.write_blocks(start, &slots)?;
    Ok((raw, scan))
}

/// Structural audits over a freshly recovered stack: the virtual log's
/// internal consistency check (when a VLD is present, probed in place via
/// [`disksim::probe_device`]) and `fsck` restricted to the severe classes a
/// crash must never produce. Leaked blocks and orphan inodes are expected
/// crash debris and not flagged here.
pub fn post_recovery_audit(fs: &mut Ufs) -> Vec<String> {
    let mut complaints = Vec::new();
    if let Some(vld) = probe_device::<Vld>(fs.device()) {
        complaints.extend(
            vld.vlog()
                .check_consistency()
                .into_iter()
                .map(|m| format!("vld audit: {m}")),
        );
    }
    match ufs::fsck(fs.device_mut()) {
        Ok(rep) => complaints.extend(
            rep.errors
                .iter()
                .filter(|e| severe(e))
                .map(|e| format!("fsck: {e:?}")),
        ),
        Err(e) => complaints.push(format!("fsck did not run: {e}")),
    }
    complaints
}

fn severe(e: &FsckError) -> bool {
    matches!(
        e,
        FsckError::PointerOutOfRange { .. }
            | FsckError::DoubleReference { .. }
            | FsckError::DanglingDirent { .. }
            | FsckError::SizeBeyondPointers { .. }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fscore::FileSystem;

    /// Every config builds, survives teardown, and remounts cleanly; the
    /// in-place VLD probe finds the virtual log exactly on VLD stacks.
    #[test]
    fn round_trip_and_probe_all_configs() {
        for cfg in ALL_CONFIGS {
            let mut fs = build(cfg, FaultPlan::none()).expect("format");
            let f = fs.create("probe").expect("create");
            fs.write(f, 0, b"hello").expect("write");
            fs.sync().expect("sync");
            assert_eq!(
                probe_device::<Vld>(fs.device()).is_some(),
                cfg.on_vld(),
                "{cfg}: VLD probe"
            );
            assert!(post_recovery_audit(&mut fs).is_empty(), "{cfg}: clean audit");
            let st = teardown(cfg, fs);
            assert!(st.write_ops > 0, "{cfg}: no writes counted");
            assert_eq!(st.log.power_cuts, 0);
            let (mut fs, complaints) =
                remount(cfg, st, FaultPlan::none(), ScanCheck::Exact).expect("remount");
            assert!(complaints.is_empty(), "{cfg}: {complaints:?}");
            let f = fs.open("probe").expect("open after remount");
            let mut buf = [0u8; 5];
            assert_eq!(fs.read(f, 0, &mut buf).expect("read"), 5);
            assert_eq!(&buf, b"hello");
        }
    }

    /// Format write counts are deterministic (the cut-offset scheme relies
    /// on this) and differ across stacks.
    #[test]
    fn format_write_counts_are_stable() {
        for cfg in ALL_CONFIGS {
            let a = format_writes(cfg);
            let fs = build(cfg, FaultPlan::none()).expect("format");
            let b = probe_device::<FaultDisk>(fs.device()).unwrap().write_ops();
            assert_eq!(a, b, "{cfg}: format writes drifted");
            assert!(a > 0, "{cfg}: format wrote nothing?");
        }
    }

    /// A tracer attached to the fault layer sees every injected fault as an
    /// [`disksim::OpKind::Fault`] event with a zero service-time breakdown.
    #[test]
    fn injected_faults_surface_in_the_trace() {
        let raw = RegularDisk::new(spec(), SimClock::new(), BLOCK);
        // Silent corruption: the op still succeeds, so the file system
        // keeps running (the corrupted block stays shadowed by the cache).
        let mut faulty = FaultDisk::new(Box::new(raw), FaultPlan::corrupt_write(2, 42));
        let tracer = disksim::Tracer::with_capacity(1 << 16);
        faulty.set_tracer(Some(tracer.clone()));
        let mut fs = Ufs::format(Box::new(faulty), HostModel::instant(), ufs_cfg(false))
            .expect("format");
        let f = fs.create("f").expect("create");
        fs.write(f, 0, &[7u8; 8192]).expect("write");
        fs.sync().expect("sync");
        let faults: Vec<_> = tracer
            .events()
            .into_iter()
            .filter(|e| e.kind == disksim::OpKind::Fault)
            .collect();
        assert_eq!(faults.len(), 1, "exactly the armed fault is traced");
        assert_eq!(faults[0].total_ns(), 0, "fault events must not perturb busy-sum accounting");
    }

    /// A flight recorder attached at build keeps recording across the
    /// crash: its span table and event ring live on the mechanical disk,
    /// so one dump shows format, workload, crash and every recovery layer,
    /// and recording the same episode twice gives the same dump.
    #[test]
    fn flight_recorder_covers_crash_and_recovery() {
        let trace = crate::cuts::small_mixed();
        let none = crate::PlantedBug::None;
        for cfg in ALL_CONFIGS {
            let dump = |cfg| {
                let rec = disksim::FlightRecorder::with_capacity(256);
                crate::run_trace_recorded(cfg, &trace, &none, Some(&rec)).expect("clean episode");
                assert!(!rec.tracer.is_empty(), "{cfg}: no events recorded");
                rec.dump()
            };
            let first = dump(cfg);
            let mut labels = vec!["ufs.format", "ufs.mount"];
            labels.extend(cfg.on_vld().then_some("vld.recover"));
            labels.extend(cfg.is_lfs().then_some("lld.mount"));
            for label in labels {
                let span = format!("\"label\":\"{label}\"");
                assert!(first.contains(&span), "{cfg}: no {label} span");
            }
            assert_eq!(first, dump(cfg), "{cfg}: recorder dump nondeterministic");
        }
    }
}
