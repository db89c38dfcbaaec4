//! Event crediting of shared aged states.
//!
//! Per-section simulation-event totals must not depend on whether cells
//! fork a shared aged build or rebuild it: a [`SharedAged`] subtracts its
//! build's events once and credits them back on every fork, while a direct
//! [`build_aged`] simply counts its own events. The simulation-event counter
//! is process-wide, so this property lives alone in its own test binary —
//! any concurrently running test would move the counter under it.
//!
//! The binary pins the default (optimised) side of the reference switch;
//! `reference_switch.rs` checks the other side.

use disksim::clock::events;
use disksim::{Disk, DiskSpec, PhysAddr, SimClock, SECTOR_BYTES};
use fscore::{FileSystem, HostModel};
use vlfs_bench::setup::{build_aged, AgedSpec, DevKind, DiskKind, FsKind, SharedAged};
use vlog_core::{AllocConfig, AllocMode, EagerAllocator};

#[test]
fn n_forks_credit_n_builds_and_a_direct_build_counts_once() {
    std::env::remove_var("VLFS_REFERENCE");
    assert!(!disksim::reference_mode());
    assert_eq!(
        EagerAllocator::new(AllocConfig::default()).mode(),
        AllocMode::Fast
    );

    // The batched clock charges a write spanning two tracks as one event.
    let mut disk = Disk::new(DiskSpec::st19101_sim(), SimClock::new());
    let track1 = disk
        .phys_to_lba(PhysAddr {
            cyl: 0,
            track: 1,
            sector: 0,
        })
        .expect("track 1 exists");
    let e0 = events();
    disk.write_sectors(track1 - 4, &[0u8; 8 * SECTOR_BYTES])
        .expect("in range");
    assert_eq!(events() - e0, 1, "one event per command");

    let spec = AgedSpec {
        sync_writes: true,
        warmup_blocks: 200,
        ..AgedSpec::new(
            FsKind::Ufs,
            DevKind::Vld,
            DiskKind::Seagate,
            HostModel::sparcstation_10(),
            0.25,
        )
    };

    let e0 = events();
    let (fs, _, _) = build_aged(&spec).expect("direct build");
    let build_events = events() - e0;
    assert!(build_events > 0, "the build must simulate something");
    assert_eq!(
        fs.clock().local_events(),
        build_events,
        "a direct build counts its events exactly once"
    );
    drop(fs);

    for n in [0u64, 1, 5] {
        let e0 = events();
        let base = SharedAged::new(spec).expect("shared build");
        let forks: Vec<_> = (0..n).map(|_| base.fork().expect("fork")).collect();
        assert_eq!(
            events() - e0,
            n * build_events,
            "{n} forks must credit {n} x the build's events"
        );
        drop(forks);
    }
}
