//! Host-time spans recorded at layer boundaries, from the benchmark's side.
//!
//! A span is opened around each call the benchmark makes into a layer (a
//! `FileSystem` call, a [`crate::timed::Timed`] device call, a figure
//! section) and closed when the call returns. Spans nest: a layer's *self*
//! time is its spans' duration minus the time covered by the spans opened
//! inside them. Spans live in a per-thread recorder kept in memory; the
//! driver takes the per-layer totals after each batch.
//!
//! Untraced runs never open a span (their stacks carry no timing wrappers),
//! so the recorder costs nothing there.

use std::cell::RefCell;
use std::time::Instant;

/// The benchmark driver itself: the root span of a traced batch.
pub const DRIVER: usize = 0;
/// The file layer (`ufs::Ufs` as a `FileSystem`).
pub const UFS: usize = 1;
/// The Virtual Log Disk, foreground calls (virtual log, map, allocator and
/// the disk model under it: the VLD owns its disk, so they are one layer).
pub const VLD: usize = 2;
/// The Virtual Log Disk during idle grants: the compactor.
pub const COMPACT: usize = 3;
/// The log-structured logical disk, foreground calls.
pub const LLD: usize = 4;
/// The log-structured logical disk during idle grants: the cleaner.
pub const LLD_IDLE: usize = 5;
/// The raw disk model under a regular-disk stack.
pub const DISK: usize = 6;
/// First figure section; section `i` records under `SECTION0 + i`.
pub const SECTION0: usize = 7;
/// Room for every layer and section.
pub const MAX_LAYERS: usize = 32;

/// Calls and self time per layer, for one stretch of recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Totals {
    /// Spans closed, per layer.
    pub calls: [u64; MAX_LAYERS],
    /// Self nanoseconds, per layer.
    pub self_ns: [u64; MAX_LAYERS],
}

impl Default for Totals {
    fn default() -> Self {
        Self {
            calls: [0; MAX_LAYERS],
            self_ns: [0; MAX_LAYERS],
        }
    }
}

impl Totals {
    /// Self time summed over every layer.
    pub fn self_ns_sum(&self) -> u64 {
        self.self_ns.iter().sum()
    }

    /// Self milliseconds of one layer.
    pub fn self_ms(&self, layer: usize) -> f64 {
        self.self_ns[layer] as f64 / 1e6
    }
}

struct Frame {
    layer: usize,
    start: Instant,
    child_ns: u64,
}

#[derive(Default)]
struct Recorder {
    stack: Vec<Frame>,
    totals: Totals,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Open a span for `layer`.
pub fn enter(layer: usize) {
    let start = Instant::now();
    REC.with(|r| {
        r.borrow_mut().stack.push(Frame {
            layer,
            start,
            child_ns: 0,
        })
    });
}

/// Close the innermost open span.
///
/// # Panics
///
/// Panics if no span is open (an unbalanced `enter`/`exit` is a bug here).
pub fn exit() {
    let end = Instant::now();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let f = r.stack.pop().expect("span exit without a matching enter");
        let dur = end.duration_since(f.start).as_nanos() as u64;
        r.totals.calls[f.layer] += 1;
        r.totals.self_ns[f.layer] += dur.saturating_sub(f.child_ns);
        if let Some(parent) = r.stack.last_mut() {
            parent.child_ns += dur;
        }
    });
}

/// Run `f` inside a span for `layer`.
pub fn span<R>(layer: usize, f: impl FnOnce() -> R) -> R {
    enter(layer);
    let out = f();
    exit();
    out
}

/// Return the totals recorded since the last call and start afresh.
///
/// # Panics
///
/// Panics if a span is still open.
pub fn take() -> Totals {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.stack.is_empty(), "taking span totals with a span open");
        std::mem::take(&mut r.totals)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children_and_partitions_the_root() {
        take();
        let t0 = Instant::now();
        span(DRIVER, || {
            spin(200_000);
            span(UFS, || {
                spin(300_000);
                span(DISK, || spin(400_000));
            });
        });
        let wall = t0.elapsed().as_nanos() as u64;
        let t = take();
        assert_eq!(t.calls[DRIVER], 1);
        assert_eq!(t.calls[UFS], 1);
        assert_eq!(t.calls[DISK], 1);
        assert!(t.self_ns[DISK] >= 400_000);
        assert!(t.self_ns[UFS] >= 300_000 && t.self_ns[UFS] < 400_000 + 300_000);
        let sum = t.self_ns_sum();
        assert!(
            sum <= wall && wall - sum < wall / 20,
            "sum {sum} wall {wall}"
        );
    }

    #[test]
    #[should_panic(expected = "without a matching enter")]
    fn unbalanced_exit_panics() {
        exit();
    }
}
