//! The one process-wide switch selecting the *reference* paths.
//!
//! Every optimised hot path in this workspace keeps one exact,
//! pre-optimisation oracle, and setting `VLFS_REFERENCE=1` in the
//! environment routes the whole process through all of them at once:
//!
//! * the stepwise disk clock — [`crate::Disk::read_sectors`] and
//!   [`crate::Disk::write_sectors`] charge one clock event for the command
//!   overhead and one per track run, instead of one per command;
//! * the exhaustive allocator — `core::alloc`'s `AllocMode::Reference`
//!   (`EagerAllocator::new` picks it) prices every reachable slot instead of
//!   searching best-first;
//! * the victim pickers — the compactor (`core::compact`) and the LLD
//!   cleaner (`lfs`) rescan every track or segment instead of reading an
//!   index;
//! * rebuild per cell — the figure driver (`vlfs-bench`) builds every aged
//!   state from scratch instead of forking a shared snapshot, and measures
//!   every Figure 9 / Table 2 cell afresh with no measurement memo.
//!
//! Each pair is *representation-equivalent* — identical virtual-clock
//! arithmetic, identical picks and identical state — so figure output must
//! not depend on the switch. CI runs the quick figure suite both ways and
//! `cmp`s the stdout byte-for-byte; that check is what enforces it.

use std::sync::OnceLock;

/// True when `VLFS_REFERENCE` is set to `1` (or `true`) in the environment.
/// Read once per process; changing the variable afterwards has no effect.
pub fn reference_mode() -> bool {
    static MODE: OnceLock<bool> = OnceLock::new();
    *MODE.get_or_init(|| {
        std::env::var("VLFS_REFERENCE")
            .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
            .unwrap_or(false)
    })
}
