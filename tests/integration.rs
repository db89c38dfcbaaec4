//! Cross-crate integration tests: full file-system stacks over full device
//! stacks, exercised end to end on simulated drives.

use vlfs::disksim::{BlockDevice, DiskSpec, RegularDisk, SimClock};
use vlfs::fscore::{FileSystem, HostModel};
use vlfs::lfs::{lfs_filesystem, LfsConfig};
use vlfs::ufs::{Ufs, UfsConfig};
use vlfs::vlog::{Vld, VldConfig};

fn regular(spec: DiskSpec) -> Box<dyn BlockDevice> {
    Box::new(RegularDisk::new(spec, SimClock::new(), 4096))
}

fn vld(spec: DiskSpec) -> Box<dyn BlockDevice> {
    Box::new(Vld::format(spec, SimClock::new(), VldConfig::default()))
}

/// All four (fs × device) stacks on both drive models.
fn all_stacks() -> Vec<(String, Ufs)> {
    let mut out = Vec::new();
    for (disk_name, spec) in [
        ("hp", DiskSpec::hp97560_sim()),
        ("st", DiskSpec::st19101_sim()),
    ] {
        for (dev_name, dev) in [
            ("regular", regular(spec.clone())),
            ("vld", vld(spec.clone())),
        ] {
            let fs =
                Ufs::format(dev, HostModel::instant(), UfsConfig::default()).expect("format ufs");
            out.push((format!("ufs/{dev_name}/{disk_name}"), fs));
        }
        for (dev_name, dev) in [
            ("regular", regular(spec.clone())),
            ("vld", vld(spec.clone())),
        ] {
            let fs = lfs_filesystem(dev, HostModel::instant(), LfsConfig::default())
                .expect("format lfs");
            out.push((format!("lfs/{dev_name}/{disk_name}"), fs));
        }
    }
    out
}

#[test]
fn mixed_workload_on_every_stack() {
    for (name, mut fs) in all_stacks() {
        // Create a tree of files of varied sizes, rewrite some, delete some,
        // then verify everything byte-for-byte after a cold restart of the
        // caches.
        let sizes = [100usize, 4096, 5000, 65536, 300_000];
        for (i, &sz) in sizes.iter().enumerate() {
            let f = fs.create(&format!("file{i}")).unwrap_or_else(|e| {
                panic!("{name}: create {i}: {e}");
            });
            let data: Vec<u8> = (0..sz).map(|b| (b as u8) ^ (i as u8)).collect();
            fs.write(f, 0, &data)
                .unwrap_or_else(|e| panic!("{name}: write {i}: {e}"));
        }
        // Rewrite the middle of file 3 with a recognisable pattern.
        let f3 = fs.open("file3").unwrap();
        fs.write(f3, 10_000, &vec![0xEE; 20_000]).unwrap();
        fs.delete("file1").unwrap();
        fs.sync().unwrap();
        fs.drop_caches();

        for (i, &sz) in sizes.iter().enumerate() {
            if i == 1 {
                assert!(fs.open("file1").is_err(), "{name}: deleted file came back");
                continue;
            }
            let f = fs.open(&format!("file{i}")).unwrap();
            let mut out = vec![0u8; sz];
            assert_eq!(
                fs.read(f, 0, &mut out).unwrap(),
                sz,
                "{name}: short read {i}"
            );
            for (off, &b) in out.iter().enumerate() {
                let expect = if i == 3 && (10_000..30_000).contains(&off) {
                    0xEE
                } else {
                    (off as u8) ^ (i as u8)
                };
                assert_eq!(b, expect, "{name}: file{i} byte {off}");
            }
        }
    }
}

#[test]
fn timing_is_deterministic_across_runs() {
    // The whole point of the virtual clock: identical runs cost identical
    // simulated time, bit for bit.
    let run = || {
        let mut fs = Ufs::format(
            vld(DiskSpec::st19101_sim()),
            HostModel::sparcstation_10(),
            UfsConfig::default(),
        )
        .expect("format");
        fs.set_sync_writes(true);
        let f = fs.create("d").unwrap();
        for i in 0..200u64 {
            let b = (i * 37) % 150;
            fs.write(f, b * 4096, &vec![i as u8; 4096]).unwrap();
        }
        fs.clock().now()
    };
    assert_eq!(run(), run());
}

#[test]
fn vld_is_transparent_to_ufs_contents() {
    // Same workload on regular vs VLD: identical file contents, different
    // physical layout, VLD faster for sync writes.
    let mut on_reg = Ufs::format(
        regular(DiskSpec::st19101_sim()),
        HostModel::instant(),
        UfsConfig::default(),
    )
    .expect("format");
    let mut on_vld = Ufs::format(
        vld(DiskSpec::st19101_sim()),
        HostModel::instant(),
        UfsConfig::default(),
    )
    .expect("format");
    for fs in [&mut on_reg, &mut on_vld] {
        fs.set_sync_writes(true);
        let f = fs.create("same").unwrap();
        for i in 0..100u64 {
            fs.write(f, (i * 13 % 64) * 4096, &vec![i as u8; 4096])
                .unwrap();
        }
    }
    let t_reg = on_reg.clock().now();
    let t_vld = on_vld.clock().now();
    assert!(t_vld < t_reg, "VLD {t_vld} should beat regular {t_reg}");
    let mut a = vec![0u8; 64 * 4096];
    let mut b = vec![0u8; 64 * 4096];
    let fa = on_reg.open("same").unwrap();
    let fb = on_vld.open("same").unwrap();
    on_reg.read(fa, 0, &mut a).unwrap();
    on_vld.read(fb, 0, &mut b).unwrap();
    assert_eq!(a, b);
}

#[test]
fn ufs_on_vld_survives_crash_and_remount() {
    // Full-stack crash test: UFS metadata + data through the VLD, power
    // failure, VLD scan recovery, UFS remount.
    let spec = DiskSpec::st19101_sim();
    let mut fs = Ufs::format(
        vld(spec.clone()),
        HostModel::instant(),
        UfsConfig::default(),
    )
    .expect("format");
    fs.set_sync_writes(true);
    let f = fs.create("precious").unwrap();
    fs.write(f, 0, b"do not lose me").unwrap();
    fs.sync().unwrap();

    // Crash the device under the file system.
    let dev = fs.into_device();
    // Downcast dance: we built it as a Vld above.
    let vld_box: Box<Vld> = unsafe {
        // SAFETY: constructed as Box<Vld> in this test; Box<dyn> -> Box<Vld>
        // via raw pointer round-trip.
        Box::from_raw(Box::into_raw(dev) as *mut Vld)
    };
    let disk = vld_box.crash();
    let o = spec.command_overhead_ns;
    let (recovered, report) = Vld::recover(disk, o, VldConfig::default()).expect("recover");
    assert!(!report.used_tail, "no shutdown happened");
    let mut fs = Ufs::mount(
        Box::new(recovered),
        HostModel::instant(),
        UfsConfig::default(),
    )
    .expect("mount");
    let f = fs.open("precious").unwrap();
    let mut out = vec![0u8; 14];
    assert_eq!(fs.read(f, 0, &mut out).unwrap(), 14);
    assert_eq!(&out, b"do not lose me");
}

#[test]
fn lfs_over_vld_full_lifecycle() {
    // The most exotic of the paper's Figure 5 stacks: log atop log.
    let mut fs = lfs_filesystem(
        vld(DiskSpec::st19101_sim()),
        HostModel::instant(),
        LfsConfig::default(),
    )
    .expect("format");
    for i in 0..100 {
        let f = fs.create(&format!("m{i}")).unwrap();
        fs.write(f, 0, &vec![i as u8; 3000]).unwrap();
    }
    fs.sync().unwrap();
    // Overwrite churn to exercise both the LFS cleaner and the VLD's
    // overwrite-detection free path.
    for i in 0..100 {
        let f = fs.open(&format!("m{i}")).unwrap();
        fs.write(f, 0, &vec![(i + 1) as u8; 3000]).unwrap();
    }
    fs.sync().unwrap();
    fs.idle(5_000_000_000);
    fs.drop_caches();
    for i in (0..100).step_by(9) {
        let f = fs.open(&format!("m{i}")).unwrap();
        let mut out = vec![0u8; 3000];
        assert_eq!(fs.read(f, 0, &mut out).unwrap(), 3000);
        assert!(out.iter().all(|&b| b == (i + 1) as u8), "file m{i}");
    }
}

#[test]
fn utilization_reporting_is_consistent() {
    let mut fs = Ufs::format(
        regular(DiskSpec::st19101_sim()),
        HostModel::instant(),
        UfsConfig::default(),
    )
    .expect("format");
    let u0 = fs.utilization();
    let free0 = fs.free_blocks();
    let f = fs.create("x").unwrap();
    fs.write(f, 0, &vec![0u8; 1 << 20]).unwrap();
    fs.sync().unwrap();
    assert!(fs.utilization() > u0);
    // 256 data blocks, plus an indirect block and the new directory block.
    let used = free0 - fs.free_blocks();
    assert!((256..=259).contains(&used), "used {used}");
    fs.delete("x").unwrap();
    // Everything returns except the root-directory block.
    assert!(free0 - fs.free_blocks() <= 1);
}

#[test]
fn vld_recovers_from_a_serialized_disk_image() {
    // Crash a VLD, serialise the raw disk to bytes (as a tool would to a
    // file), load it "in another process", and recover.
    use vlfs::disksim::Disk;
    let spec = DiskSpec::st19101_sim();
    let mut v = Vld::format(spec.clone(), SimClock::new(), VldConfig::default());
    for lb in 0..300u64 {
        v.write_block(lb, &vec![lb as u8; 4096]).unwrap();
    }
    let disk = v.crash();
    let mut image = Vec::new();
    disk.save_image(&mut image).unwrap();

    let loaded = Disk::load_image(
        {
            let mut s = spec.clone();
            s.command_overhead_ns = 0; // the VLD's internal disk convention
            s
        },
        SimClock::new(),
        &mut image.as_slice(),
    )
    .unwrap();
    let (mut v2, report) =
        Vld::recover(loaded, spec.command_overhead_ns, VldConfig::default()).unwrap();
    assert!(report.pieces_recovered > 0);
    for lb in (0..300u64).step_by(23) {
        let mut buf = vec![0u8; 4096];
        v2.read_block(lb, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == lb as u8), "block {lb}");
    }
}

#[test]
fn zoned_disk_supports_the_full_stack() {
    // A two-zone drive (denser outer tracks): the whole stack — geometry,
    // free map, eager allocation, UFS — must work across the zone boundary.
    use vlfs::disksim::{DiskSpec, Geometry, Zone};
    let mut spec = DiskSpec::st19101_sim();
    spec.geometry = Geometry::zoned(
        8,
        vec![
            Zone {
                first_cyl: 0,
                cylinders: 6,
                sectors_per_track: 256,
            },
            Zone {
                first_cyl: 6,
                cylinders: 8,
                sectors_per_track: 128,
            },
        ],
    );
    let dev = Box::new(RegularDisk::new(spec.clone(), SimClock::new(), 4096));
    let mut fs = Ufs::format(dev, HostModel::instant(), UfsConfig::default()).unwrap();
    let f = fs.create("zoned").unwrap();
    let data: Vec<u8> = (0..2_000_000u32).map(|i| i as u8).collect();
    fs.write(f, 0, &data).unwrap();
    fs.sync().unwrap();
    fs.drop_caches();
    let mut out = vec![0u8; data.len()];
    assert_eq!(fs.read(f, 0, &mut out).unwrap(), data.len());
    assert_eq!(out, data);

    // And the VLD on the same zoned drive.
    let mut vld = Vld::format(spec, SimClock::new(), VldConfig::default());
    for lb in 0..500u64 {
        vld.write_block(lb, &vec![lb as u8; 4096]).unwrap();
    }
    vld.idle(5_000_000_000); // compaction across zones
    for lb in (0..500u64).step_by(37) {
        let mut buf = vec![0u8; 4096];
        vld.read_block(lb, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == lb as u8), "zoned VLD block {lb}");
    }
}

#[test]
fn lfs_stack_crash_and_roll_forward() {
    // Full stack: files through UFS-over-LLD, sync, more writes, crash,
    // remount. Synced files must survive; the post-sync tail may be lost
    // but never torn.
    use vlfs::lfs::{LldConfig, LogDisk};
    let raw = regular(DiskSpec::st19101_sim());
    let mut fs = lfs_filesystem(raw, HostModel::instant(), LfsConfig::default()).unwrap();
    for i in 0..40 {
        let f = fs.create(&format!("durable{i}")).unwrap();
        fs.write(f, 0, &vec![i as u8; 8000]).unwrap();
    }
    fs.sync().unwrap();
    // Post-sync writes: not durable unless a segment happened to flush.
    for i in 0..10 {
        let f = fs.create(&format!("maybe{i}")).unwrap();
        fs.write(f, 0, &vec![0xEE; 4000]).unwrap();
    }
    // Crash: unwrap the stack down to the raw device.
    let dev = fs.into_device();
    let lld: Box<LogDisk> = unsafe {
        // SAFETY: constructed as Box<LogDisk> by lfs_filesystem.
        Box::from_raw(Box::into_raw(dev) as *mut LogDisk)
    };
    let raw = lld.crash();
    let lld = LogDisk::mount(raw, LldConfig::default()).unwrap();
    let cfg = LfsConfig::default().file_layer();
    let mut fs = Ufs::mount(Box::new(lld), HostModel::instant(), cfg).unwrap();
    for i in 0..40 {
        let f = fs
            .open(&format!("durable{i}"))
            .unwrap_or_else(|e| panic!("synced file durable{i} lost: {e}"));
        let mut out = vec![0u8; 8000];
        assert_eq!(fs.read(f, 0, &mut out).unwrap(), 8000);
        assert!(out.iter().all(|&b| b == i as u8), "durable{i} corrupted");
    }
}
