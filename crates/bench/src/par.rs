//! Deterministic fan-out of independent benchmark points across threads.
//!
//! The pool itself now lives in [`disksim::par`] so the model checker and
//! its crash-point sweeps share it (and its `VLFS_THREADS` knob) without
//! depending on this crate; the figure modules and the `perfbench`
//! benchmark (which calls `set_threads(1)` through this path) keep using
//! it through this re-export. See `disksim::par` for the ordering
//! and determinism contract.

pub use disksim::par::{pmap, pmap_in, set_threads, threads};

#[cfg(test)]
mod tests {
    use super::*;

    /// The figure modules' contract: input-order results, identical to a
    /// sequential map. (The pool's own tests live in `disksim::par`.)
    #[test]
    fn reexported_pool_keeps_input_order() {
        let seq: Vec<u64> = (0..16u64).map(|i| i * 3 + 1).collect();
        assert_eq!(pmap((0..16u64).collect(), |i| i * 3 + 1), seq);
        assert_eq!(pmap_in(4, (0..16u64).collect(), |i| i * 3 + 1), seq);
    }
}
