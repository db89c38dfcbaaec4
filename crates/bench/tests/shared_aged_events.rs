//! Event crediting of shared aged states.
//!
//! Per-section simulation-event totals must not depend on whether cells
//! fork a shared aged build or rebuild it: a [`SharedAged`] subtracts its
//! build's events once and credits them back on every fork, while a direct
//! [`build_aged`] simply counts its own events. The simulation-event counter
//! is process-wide, so this property lives alone in its own test binary —
//! any concurrently running test would move the counter under it.

use disksim::clock::events;
use fscore::{FileSystem, HostModel};
use vlfs_bench::setup::{build_aged, AgedSpec, DevKind, DiskKind, FsKind, SharedAged};

#[test]
fn n_forks_credit_n_builds_and_a_direct_build_counts_once() {
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
