//! Construction of the paper's system combinations (its Figure 5): a file
//! system (UFS or LFS) over a device (regular disk or VLD) on a simulated
//! drive (HP97560 or Seagate ST19101), timed against a host model — plus
//! the *aged states* figure cells start from: every cell that starts from
//! "system with an aged file at some utilisation" describes that state as
//! an [`AgedSpec`]. A state only one cell uses is built directly
//! ([`build_aged`]); a state several cells share is built once by the
//! figure, snapshotted ([`ufs::UfsSnapshot`]), and forked copy-on-write per
//! cell ([`SharedAged`]).

use disksim::{BlockDevice, DiskSpec, RegularDisk, SimClock};
use fscore::{FileId, FileSystem, FsResult, HostModel};
use lfs::{lfs_filesystem, LfsConfig};
use ufs::{Ufs, UfsConfig, UfsSnapshot};
use vlog_core::{Vld, VldConfig};

use crate::workload::{make_file, BLOCK};

/// Which simulated drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiskKind {
    /// The 1990 HP97560 (36-cylinder simulated slice).
    Hp,
    /// The 1998 Seagate ST19101 (11-cylinder simulated slice).
    Seagate,
}

impl DiskKind {
    /// The drive's spec (paper-sized simulation slice).
    pub fn spec(self) -> DiskSpec {
        match self {
            DiskKind::Hp => DiskSpec::hp97560_sim(),
            DiskKind::Seagate => DiskSpec::st19101_sim(),
        }
    }

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            DiskKind::Hp => "HP97560",
            DiskKind::Seagate => "ST19101",
        }
    }
}

/// Which block device exports the drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DevKind {
    /// Update-in-place (logical block = fixed physical location).
    Regular,
    /// The Virtual Log Disk (eager writing + virtual log).
    Vld,
}

impl DevKind {
    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            DevKind::Regular => "Regular",
            DevKind::Vld => "VLD",
        }
    }
}

/// Which file system runs on top.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FsKind {
    /// Update-in-place UFS (synchronous metadata).
    Ufs,
    /// Log-structured stack (file layer over the LLD).
    Lfs,
}

impl FsKind {
    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            FsKind::Ufs => "UFS",
            FsKind::Lfs => "LFS",
        }
    }
}

/// Build a raw block device of the given kind on a fresh clock.
pub fn make_device(dev: DevKind, disk: DiskKind) -> Box<dyn BlockDevice> {
    let clock = SimClock::new();
    match dev {
        DevKind::Regular => Box::new(RegularDisk::new(disk.spec(), clock, 4096)),
        DevKind::Vld => Box::new(Vld::format(disk.spec(), clock, VldConfig::default())),
    }
}

/// Build one of the paper's four system combinations.
pub fn make_system(fs: FsKind, dev: DevKind, disk: DiskKind, host: HostModel) -> FsResult<Ufs> {
    let device = make_device(dev, disk);
    match fs {
        FsKind::Ufs => Ufs::format(device, host, UfsConfig::default()),
        FsKind::Lfs => lfs_filesystem(device, host, LfsConfig::default()),
    }
}

/// A configuration label like "UFS on VLD".
pub fn combo_label(fs: FsKind, dev: DevKind) -> String {
    format!("{} on {}", fs.label(), dev.label())
}

/// A complete description of the aged state a figure cell starts from: the
/// system combination, the single target file's size as a fraction of
/// usable capacity, whether writes are synchronous, and any deterministic
/// warm-up applied before measurement begins. Two cells with equal specs
/// start from byte-identical states, which is what lets [`SharedAged`]
/// build the state once and fork it per cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgedSpec {
    /// File system on top.
    pub fs: FsKind,
    /// Block device in the middle.
    pub dev: DevKind,
    /// Simulated drive at the bottom.
    pub disk: DiskKind,
    /// Host CPU cost model.
    pub host: HostModel,
    /// Target-file size as a fraction of usable capacity.
    pub file_frac: f64,
    /// Flip [`FileSystem::set_sync_writes`] before any warm-up.
    pub sync_writes: bool,
    /// Random 4 KB updates (seed 7) applied after file creation; 0 skips
    /// the warm-up (figures whose warm-up shares the measurement RNG
    /// stream keep it on the measured side of the snapshot).
    pub warmup_blocks: u64,
    /// Override the VLD compactor's empty-track pool target (Figure 9's
    /// measured-after-compaction footnote). Ignored on a regular disk.
    pub vld_target_empty_tracks: Option<u32>,
}

impl AgedSpec {
    /// The common shape: default device configs, no warm-up.
    pub fn new(fs: FsKind, dev: DevKind, disk: DiskKind, host: HostModel, file_frac: f64) -> Self {
        Self {
            fs,
            dev,
            disk,
            host,
            file_frac,
            sync_writes: false,
            warmup_blocks: 0,
            vld_target_empty_tracks: None,
        }
    }
}

/// Build the aged state described by `spec` from scratch. Cells whose
/// state no other cell shares call this directly (a snapshot would cost a
/// media flatten plus copy-on-write faults for a single use); it is also
/// the per-cell path of [`SharedAged`] under reference mode, and the oracle
/// the fork-identity tests compare against.
pub fn build_aged(spec: &AgedSpec) -> FsResult<(Ufs, FileId, u64)> {
    let mut fs = match (spec.dev, spec.vld_target_empty_tracks) {
        (DevKind::Vld, Some(target)) => {
            let mut cfg = VldConfig::default();
            cfg.compactor.target_empty_tracks = target;
            let vld = Vld::format(spec.disk.spec(), SimClock::new(), cfg);
            match spec.fs {
                FsKind::Ufs => Ufs::format(Box::new(vld), spec.host, UfsConfig::default())?,
                FsKind::Lfs => lfs_filesystem(Box::new(vld), spec.host, LfsConfig::default())?,
            }
        }
        _ => make_system(spec.fs, spec.dev, spec.disk, spec.host)?,
    };
    let usable = fs.free_blocks();
    let file_blocks = (usable as f64 * spec.file_frac) as u64;
    let f = make_file(&mut fs, "target", file_blocks * BLOCK as u64)?;
    if spec.sync_writes {
        fs.set_sync_writes(true);
    }
    if spec.warmup_blocks > 0 {
        let w = spec.warmup_blocks;
        crate::fig10::burst_idle_bench(&mut fs, f, file_blocks, w, 0, w, 7)?;
    }
    Ok((fs, f, file_blocks))
}

/// An aged state that several figure cells start from, owned by the figure
/// that runs them: built once up front, then [`fork`](SharedAged::fork)ed
/// per cell in O(metadata) — media tracks, map pages and cache payloads
/// stay shared copy-on-write until a fork writes them. Dropping the value
/// releases the snapshot, so nothing outlives the figure.
///
/// Event accounting is rebuild-equivalent: the build's simulation events
/// are subtracted once and credited back by every fork, so per-figure event
/// totals match a mode where each cell rebuilds from scratch. Under
/// reference mode ([`disksim::reference_mode`]), or on a stack that cannot
/// snapshot, every fork is a from-scratch [`build_aged`]; CI diffs the two
/// paths' figure output byte-for-byte.
pub struct SharedAged {
    spec: AgedSpec,
    built: Option<(UfsSnapshot, FileId, u64)>,
}

impl SharedAged {
    /// Build the state `spec` describes (outside reference mode).
    pub fn new(spec: AgedSpec) -> FsResult<Self> {
        let mut built = None;
        if !disksim::reference_mode() {
            let (fs, file, file_blocks) = build_aged(&spec)?;
            if let Some(snap) = fs.snapshot() {
                disksim::clock::sub_events(snap.local_events());
                built = Some((snap, file, file_blocks));
            }
        }
        Ok(Self { spec, built })
    }

    /// An independent system in the shared state, plus the target file's
    /// handle and length in blocks.
    pub fn fork(&self) -> FsResult<(Ufs, FileId, u64)> {
        match &self.built {
            Some((snap, file, file_blocks)) => {
                disksim::clock::add_events(snap.local_events());
                Ok((snap.restore(), *file, *file_blocks))
            }
            None => build_aged(&self.spec),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fscore::FileSystem;

    #[test]
    fn all_four_combinations_construct_and_work() {
        for fs_kind in [FsKind::Ufs, FsKind::Lfs] {
            for dev_kind in [DevKind::Regular, DevKind::Vld] {
                let mut fs =
                    make_system(fs_kind, dev_kind, DiskKind::Seagate, HostModel::instant())
                        .unwrap_or_else(|e| {
                            panic!("{}: {e}", combo_label(fs_kind, dev_kind));
                        });
                let f = fs.create("probe").unwrap();
                fs.write(f, 0, &vec![7u8; 8192]).unwrap();
                fs.sync().unwrap();
                fs.drop_caches();
                let mut out = vec![0u8; 8192];
                assert_eq!(fs.read(f, 0, &mut out).unwrap(), 8192);
                assert!(
                    out.iter().all(|&b| b == 7),
                    "{}",
                    combo_label(fs_kind, dev_kind)
                );
            }
        }
    }

    #[test]
    fn hp_systems_construct() {
        let mut fs = make_system(
            FsKind::Ufs,
            DevKind::Vld,
            DiskKind::Hp,
            HostModel::sparcstation_10(),
        )
        .unwrap();
        let f = fs.create("x").unwrap();
        fs.write(f, 0, b"data").unwrap();
        assert!(fs.clock().now() > 0);
    }
}
