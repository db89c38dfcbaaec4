//! Fork-vs-rebuild identity properties for shared aged-state snapshots.
//!
//! The snapshot engine's contract is that a fork of a shared aged build is
//! *indistinguishable* from a from-scratch rebuild of the same
//! [`AgedSpec`]: same measured latencies (bit-for-bit), same virtual clock,
//! same logical media contents, same disk statistics — across all four
//! FS/device stacks, under fault injection, and regardless of how many
//! workers fork concurrently. These tests pin that contract; the CI figure
//! gate (`VLFS_REFERENCE=1` diff, which rebuilds every cell) checks the
//! same property end-to-end.

use disksim::fault::content_hash;
use disksim::{par, FaultDisk, FaultPlan, RegularDisk, SimClock};
use fscore::{FileId, FileSystem, HostModel};
use ufs::{Ufs, UfsConfig};
use vlfs_bench::setup::{build_aged, AgedSpec, DevKind, DiskKind, FsKind, SharedAged};
use vlfs_bench::workload::{make_file, steady_state_update_ms, BLOCK};

/// A behavioural fingerprint of a system: everything a figure cell could
/// observe. Two systems in byte-identical states produce equal
/// fingerprints; any state divergence (cache contents, media bytes, layout
/// affecting seek times, clock skew) shows up in at least one field.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    /// Measured workload latency, exact bits.
    latency_bits: u64,
    /// Virtual clock after the workload.
    clock_ns: u64,
    /// FNV hash of the target file's full contents, read back cold.
    file_hash: u64,
    /// Device statistics after the workload.
    disk_stats: String,
}

/// Run the standard measured workload on `fs` and fingerprint the result.
fn fingerprint(mut fs: Ufs, f: FileId, file_blocks: u64, updates: u64) -> Fingerprint {
    let ms = steady_state_update_ms(&mut fs, f, file_blocks, updates, updates, 0xF18)
        .expect("measured workload");
    fs.drop_caches();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut buf = vec![0u8; 16 * BLOCK];
    let mut off = 0u64;
    let total = file_blocks * BLOCK as u64;
    while off < total {
        let n = fs.read(f, off, &mut buf).expect("read back");
        assert!(n > 0, "short read at {off}");
        for &b in &buf[..n] {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        off += n as u64;
    }
    Fingerprint {
        latency_bits: ms.to_bits(),
        clock_ns: fs.clock().now(),
        file_hash: h,
        disk_stats: format!("{:?}", fs.device().disk_stats()),
    }
}

fn spec(fs: FsKind, dev: DevKind, disk: DiskKind) -> AgedSpec {
    AgedSpec {
        sync_writes: matches!(fs, FsKind::Ufs),
        ..AgedSpec::new(fs, dev, disk, HostModel::sparcstation_10(), 0.25)
    }
}

/// Fork and rebuild agree bit-for-bit on every stack of the paper's
/// Figure 5 matrix, on both simulated drives.
#[test]
fn fork_matches_rebuild_across_all_stacks() {
    for (fs, dev, disk) in [
        (FsKind::Ufs, DevKind::Regular, DiskKind::Seagate),
        (FsKind::Ufs, DevKind::Vld, DiskKind::Seagate),
        (FsKind::Lfs, DevKind::Regular, DiskKind::Seagate),
        (FsKind::Lfs, DevKind::Vld, DiskKind::Seagate),
        (FsKind::Ufs, DevKind::Vld, DiskKind::Hp),
        (FsKind::Lfs, DevKind::Regular, DiskKind::Hp),
    ] {
        let s = spec(fs, dev, disk);
        let (built, f, fb) = build_aged(&s).expect("build");
        let snap = built.snapshot().expect("stack must snapshot");
        let fork = fingerprint(snap.restore(), f, fb, 80);
        let (oracle, f2, fb2) = build_aged(&s).expect("rebuild");
        assert_eq!((f, fb), (f2, fb2), "{fs:?}/{dev:?}/{disk:?} setup handle");
        let rebuild = fingerprint(oracle, f2, fb2, 80);
        assert_eq!(fork, rebuild, "{fs:?}/{dev:?}/{disk:?} fork != rebuild");
    }
}

/// Build a UFS over a fault-injecting device; `plan` decides what fails.
fn faulty_system(plan: FaultPlan) -> (Ufs, FileId, u64) {
    let raw = RegularDisk::new(DiskKind::Seagate.spec(), SimClock::new(), 4096);
    let dev = FaultDisk::new(Box::new(raw), plan);
    let mut fs =
        Ufs::format(Box::new(dev), HostModel::sparcstation_10(), UfsConfig::default()).unwrap();
    let file_blocks = (fs.free_blocks() as f64 * 0.2) as u64;
    let f = make_file(&mut fs, "target", file_blocks * BLOCK as u64).unwrap();
    fs.set_sync_writes(true);
    (fs, f, file_blocks)
}

/// Fault injection state (the write-op cursor and pending plan) is part of
/// the snapshot: a fork hits the same transient error at the same op as a
/// rebuild, then both recover identically.
#[test]
fn fork_matches_rebuild_under_fault_disk() {
    // Pass 1: count the setup's write ops so the fault lands mid-measurement.
    let (fs, _, _) = faulty_system(FaultPlan::none());
    let setup_ops = disksim::probe_device::<FaultDisk>(fs.device())
        .expect("fault disk at top of stack")
        .write_ops();
    drop(fs);
    let plan = || FaultPlan::transient(setup_ops + 25);

    let run = |mut fs: Ufs, f: FileId, fb: u64| -> (Vec<String>, Fingerprint) {
        // Drive writes one block at a time so per-op Results are visible.
        let mut outcomes = Vec::new();
        let data = vec![0x5Au8; BLOCK];
        for i in 0..40u64 {
            let off = (i * 97 % fb) * BLOCK as u64;
            outcomes.push(match fs.write(f, off, &data) {
                Ok(()) => "ok".to_string(),
                Err(e) => format!("{e:?}"),
            });
        }
        (outcomes, fingerprint(fs, f, fb, 40))
    };

    let (built, f, fb) = faulty_system(plan());
    let snap = built.snapshot().expect("fault stack must snapshot");
    let (fork_outcomes, fork_fp) = run(snap.restore(), f, fb);
    let (oracle, f2, fb2) = faulty_system(plan());
    let (rebuild_outcomes, rebuild_fp) = run(oracle, f2, fb2);

    assert!(
        fork_outcomes.iter().any(|o| o != "ok"),
        "transient fault should fire during the measured writes"
    );
    assert_eq!(fork_outcomes, rebuild_outcomes, "fault timing diverged");
    assert_eq!(fork_fp, rebuild_fp, "post-fault state diverged");
}

/// Writes in one fork are invisible to the parent, to sibling forks, and
/// to forks taken later from the same snapshot.
#[test]
fn fork_mutation_is_isolated() {
    let s = spec(FsKind::Lfs, DevKind::Vld, DiskKind::Seagate);
    let (mut parent, f, fb) = build_aged(&s).expect("build");
    let snap = parent.snapshot().expect("snapshot");

    let read_hash = |fs: &mut Ufs| {
        fs.drop_caches();
        let mut buf = vec![0u8; (fb as usize) * BLOCK];
        let n = fs.read(f, 0, &mut buf).expect("read");
        content_hash(&buf[..n])
    };
    let mut sibling = snap.restore();
    let before = read_hash(&mut sibling);

    let mut mutant = snap.restore();
    let blot = vec![0xEEu8; 8 * BLOCK];
    for i in 0..16u64 {
        let off = (i * 131 % fb) * BLOCK as u64;
        mutant.write(f, off, &blot).expect("mutate fork");
    }
    mutant.sync().expect("sync fork");
    let mutated = read_hash(&mut mutant);
    assert_ne!(mutated, before, "mutation must be visible in the fork");

    assert_eq!(read_hash(&mut parent), before, "parent saw fork writes");
    assert_eq!(read_hash(&mut sibling), before, "sibling saw fork writes");
    let mut late = snap.restore();
    assert_eq!(read_hash(&mut late), before, "snapshot itself was mutated");
}

/// A figure-owned [`SharedAged`] serves concurrent workers the same state
/// the rebuild oracle produces, at pool widths 1 and 4: every cell forks
/// the one shared build, and every cell's fingerprint matches.
#[test]
fn cached_forks_match_rebuilds_under_parallel_workers() {
    let s = spec(FsKind::Ufs, DevKind::Vld, DiskKind::Seagate);
    let cells: Vec<u64> = (0..6).collect();
    let oracle: Vec<Fingerprint> = cells
        .iter()
        .map(|_| {
            let (fs, f, fb) = build_aged(&s).expect("rebuild");
            fingerprint(fs, f, fb, 60)
        })
        .collect();
    for width in [1usize, 4] {
        let base = SharedAged::new(s).expect("shared build");
        let got = par::pmap_in(width, cells.clone(), |_| {
            let (fs, f, fb) = base.fork().expect("shared fork");
            fingerprint(fs, f, fb, 60)
        });
        assert_eq!(got, oracle, "width {width}: shared fork diverged");
    }
}
