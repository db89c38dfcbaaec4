//! Reference-mode routing.
//!
//! `VLFS_REFERENCE=1` is the one switch that selects every reference path
//! (see `disksim::refmode`). It is read once per process, so this property
//! lives alone in its own test binary, which sets the variable before
//! anything reads it; the simulation-event counter it checks is
//! process-wide as well. `shared_aged_events.rs` pins the default side.

use disksim::clock::events;
use disksim::{Disk, DiskSpec, PhysAddr, SimClock, SECTOR_BYTES};
use fscore::HostModel;
use vlfs_bench::setup::{AgedSpec, DevKind, DiskKind, FsKind, SharedAged};
use vlog_core::{AllocConfig, AllocMode, EagerAllocator};

#[test]
fn reference_switch_routes_allocator_clock_and_snapshots() {
    std::env::set_var("VLFS_REFERENCE", "1");
    assert!(disksim::reference_mode());

    assert_eq!(
        EagerAllocator::new(AllocConfig::default()).mode(),
        AllocMode::Reference
    );

    // A write spanning two tracks: the stepwise clock charges the command
    // overhead, then one event per track run.
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
    assert_eq!(events() - e0, 1 + 2, "overhead + one event per run");

    // No shared snapshot is built: every fork rebuilds from scratch.
    let spec = AgedSpec::new(
        FsKind::Ufs,
        DevKind::Regular,
        DiskKind::Seagate,
        HostModel::sparcstation_10(),
        0.25,
    );
    let e0 = events();
    let _base = SharedAged::new(spec).expect("shared state");
    assert_eq!(
        events() - e0,
        0,
        "reference mode builds per fork, not up front"
    );
}
