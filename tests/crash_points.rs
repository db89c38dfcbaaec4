//! Crash-point exploration across the paper's four stacks (Figure 5): UFS
//! and the log-structured logical disk, each on a regular disk and on the
//! virtual-log disk.
//!
//! The tier-1 tests cut power at *every* device write of the small mixed
//! trace, with torn-write variants where the raw device is a regular disk;
//! each point runs the whole differential check, the layer-by-layer
//! recovery checks included. The `#[ignore]`d tests cut seeded samples of
//! the points of longer generated traces — same checks, more state (name
//! reuse, renames, reads, idle cleaning and compaction).

use modelcheck::{
    generate, small_mixed, sweep_cuts, CutReport, McOp, PlantedBug, StackConfig, TraceSpec,
    ALL_CONFIGS,
};

fn exhaustive(cfg: StackConfig) -> CutReport {
    let rep = sweep_cuts(cfg, &small_mixed(), None, &PlantedBug::None);
    rep.assert_clean();
    rep
}

#[test]
fn exhaustive_crash_sweep_ufs_regular() {
    let rep = exhaustive(StackConfig::UfsRegular);
    assert_eq!(
        rep.points as u64,
        3 * rep.writes + 1,
        "torn variants missing"
    );
}

#[test]
fn exhaustive_crash_sweep_ufs_vld() {
    let rep = exhaustive(StackConfig::UfsVld);
    assert_eq!(rep.points as u64, rep.writes + 1);
}

#[test]
fn exhaustive_crash_sweep_ufs_lfs() {
    let rep = exhaustive(StackConfig::LfsRegular);
    assert_eq!(
        rep.points as u64,
        3 * rep.writes + 1,
        "torn variants missing"
    );
}

#[test]
fn exhaustive_crash_sweep_lfs_vld() {
    let rep = exhaustive(StackConfig::LfsVld);
    assert_eq!(rep.points as u64, rep.writes + 1);
}

/// A cut inside `rename` can leave the file under both names. Recovery
/// must keep only one, or deleting the other frees the inode under it
/// and leaves a dangling entry.
#[test]
fn interrupted_rename_then_delete_leaves_no_dangling_name() {
    let ops = vec![
        McOp::Create { name: 13 },
        McOp::Create { name: 7 },
        McOp::Rename { from: 13, to: 0 },
        McOp::Delete { name: 0 },
    ];
    let trace = TraceSpec { ops, cut: None };
    for cfg in ALL_CONFIGS {
        sweep_cuts(cfg, &trace, None, &PlantedBug::None).assert_clean();
    }
}

/// A cut inside `delete` can clear the entry but not the inode. Recovery
/// must free that orphan, or a later file reuses blocks it still points at.
#[test]
fn interrupted_delete_leaves_no_orphan_pointers() {
    let ops = vec![
        McOp::Create { name: 6 },
        McOp::Write {
            name: 6,
            offset: 45056,
            len: 17442,
            tag: 1,
        },
        McOp::Sync,
        McOp::Write {
            name: 6,
            offset: 90640,
            len: 22939,
            tag: 2,
        },
        McOp::Delete { name: 6 },
        McOp::Create { name: 3 },
        McOp::Append {
            name: 3,
            len: 12081,
            tag: 3,
        },
    ];
    let trace = TraceSpec { ops, cut: None };
    for cfg in ALL_CONFIGS {
        sweep_cuts(cfg, &trace, None, &PlantedBug::None).assert_clean();
    }
}

fn sampled_churn(cfg: StackConfig, seed: u64) {
    let mut trace = generate(seed, 96);
    trace.cut = None;
    // An explicit crash ends the first incarnation, the only one a cut can
    // hit: without them the cut points span the whole trace.
    trace.ops.retain(|op| *op != McOp::CrashRemount);
    sweep_cuts(cfg, &trace, Some((48, seed)), &PlantedBug::None).assert_clean();
}

#[test]
#[ignore = "large sampled sweep; run explicitly"]
fn sampled_churn_sweep_ufs_regular() {
    sampled_churn(StackConfig::UfsRegular, 0x5eed_0001);
}

#[test]
#[ignore = "large sampled sweep; run explicitly"]
fn sampled_churn_sweep_ufs_vld() {
    sampled_churn(StackConfig::UfsVld, 0x5eed_0002);
}

#[test]
#[ignore = "large sampled sweep; run explicitly"]
fn sampled_churn_sweep_ufs_lfs() {
    sampled_churn(StackConfig::LfsRegular, 0x5eed_0003);
}

#[test]
#[ignore = "large sampled sweep; run explicitly"]
fn sampled_churn_sweep_lfs_vld() {
    sampled_churn(StackConfig::LfsVld, 0x5eed_0004);
}
