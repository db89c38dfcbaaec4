//! The crash-point sweep: one trace, a power cut at every post-format
//! device write it performs.
//!
//! The simulator is deterministic, so a cut-free run of a trace performs
//! the same `W` post-format writes every time, and "cut point `k`" is well
//! defined: a [`Cut`] at post-format write `k` lets `k - 1` writes through
//! and kills the device on the `k`-th (`k = W + 1` never fires). Each point
//! is an ordinary [`run_trace`] episode, so it gets the whole differential
//! check: the durability oracle, and the layer-by-layer recovery checks of
//! [`crate::stack::remount`] at the cut and again at the episode's finale.
//! Where the raw device is a regular disk, every point that fires also runs
//! torn: part of the cut write's 8 sectors reach the media.

use std::collections::BTreeSet;

use crate::diff::{run_trace, Divergence, PlantedBug};
use crate::gen::{Cut, McOp, TraceSpec};
use crate::rng::McRng;
use crate::shrink::{shrink, Reproducer};
use crate::stack::StackConfig;

/// Sectors of the cut write that land in the torn variants.
const TORN: [u32; 2] = [1, 3];

/// What a cut-point sweep ran and found.
#[derive(Debug)]
pub struct CutReport {
    /// The stack swept.
    pub cfg: StackConfig,
    /// Post-format write ops of the cut-free run (`W`).
    pub writes: u64,
    /// Crash points run, torn variants included.
    pub points: usize,
    /// Failing points in sweep order, each with its shrunk reproducer.
    pub failures: Vec<(Cut, Box<Reproducer>)>,
}

impl CutReport {
    /// Panic with every failing point's reproducer, if there is one.
    pub fn assert_clean(&self) {
        let text: Vec<String> = self
            .failures
            .iter()
            .map(|(c, r)| format!("{c:?}\n{r}"))
            .collect();
        assert!(
            text.is_empty(),
            "{}: {} of {} crash points failed:\n{}",
            self.cfg,
            text.len(),
            self.points,
            text.join("\n")
        );
    }
}

/// The fixed small workload: three files made durable across one sync (two
/// through `O_SYNC` writes), then churn across a second sync (a
/// delayed-write file, an `O_SYNC` overwrite, a create-write-delete cycle),
/// then trailing writes that only the episode's finale syncs.
pub fn small_mixed() -> TraceSpec {
    let (alpha, beta, gamma, delta, temp, late) = (0, 1, 2, 3, 4, 5);
    let create = |name| McOp::Create { name };
    let write = |name: u8, offset, len| McOp::Write {
        name,
        offset,
        len,
        tag: name as u64 + 1,
    };
    let sync_write = |name: u8, offset, len| McOp::SyncWrite {
        name,
        offset,
        len,
        tag: name as u64 + 1,
    };
    let ops = vec![
        create(alpha),
        sync_write(alpha, 0, 8192),
        create(beta),
        write(beta, 0, 4096),
        write(beta, 4096, 4096),
        create(gamma),
        sync_write(gamma, 0, 2048),
        McOp::Sync,
        create(delta),
        write(delta, 0, 12288),
        sync_write(gamma, 2048, 4096),
        create(temp),
        write(temp, 0, 4096),
        McOp::Delete { name: temp },
        McOp::Sync,
        create(late),
        write(late, 0, 4096),
    ];
    TraceSpec { ops, cut: None }
}

/// `W`: the post-format writes a cut-free run of `trace` on `cfg` makes.
pub fn count_writes(cfg: StackConfig, trace: &TraceSpec) -> u64 {
    let uncut = TraceSpec {
        cut: None,
        ..trace.clone()
    };
    match run_trace(cfg, &uncut, &PlantedBug::None) {
        Ok(stats) => stats.writes,
        Err(d) => panic!("{cfg}: the cut-free run diverged {d}"),
    }
}

/// Cut `trace` at every write point `1..=W+1` of `cfg` — or, with
/// `sample = Some((n, seed))`, at `n` seeded points that always include
/// both ends — with `planted` armed, fanned over the shared worker pool.
pub fn sweep_cuts(
    cfg: StackConfig,
    trace: &TraceSpec,
    sample: Option<(usize, u64)>,
    planted: &PlantedBug,
) -> CutReport {
    sweep_cuts_in(disksim::par::threads(), cfg, trace, sample, planted)
}

/// [`sweep_cuts`] at an explicit pool width. Points are independent and
/// come back in sweep order, so the report is the same at any width.
pub fn sweep_cuts_in(
    width: usize,
    cfg: StackConfig,
    trace: &TraceSpec,
    sample: Option<(usize, u64)>,
    planted: &PlantedBug,
) -> CutReport {
    let writes = count_writes(cfg, trace);
    let last = writes + 1;
    let points: BTreeSet<u64> = match sample {
        None => (1..=last).collect(),
        Some((n, seed)) => {
            let mut rng = McRng::new(seed);
            let mut points = BTreeSet::from([1, last]);
            while points.len() < n.min(last as usize) {
                points.insert(1 + rng.below(last));
            }
            points
        }
    };
    let torn: &[u32] = if cfg.on_vld() { &[] } else { &TORN };
    let cuts: Vec<Cut> = points
        .into_iter()
        .flat_map(|at_op| {
            let torn = if at_op <= writes { torn } else { &[] };
            std::iter::once(0)
                .chain(torn.iter().copied())
                .map(move |survivors| Cut { at_op, survivors })
        })
        .collect();
    let points = cuts.len();
    let failures = disksim::par::pmap_in(width, cuts, |cut| {
        let cut_trace = TraceSpec {
            cut: Some(cut),
            ..trace.clone()
        };
        let drift = |what: String| Divergence {
            step: None,
            op: None,
            what: format!("{what}: the run drifted from the cut-free run's {writes} writes"),
        };
        let failure = match run_trace(cfg, &cut_trace, planted) {
            Err(d) => d,
            Ok(_) if cut.at_op > writes => return None,
            Ok(stats) if !stats.cut_fired => drift("the cut never fired".to_string()),
            Ok(stats) if stats.writes != cut.at_op - 1 => drift(format!(
                "{} writes acknowledged before the cut, expected {}",
                stats.writes,
                cut.at_op - 1
            )),
            Ok(_) => return None,
        };
        Some((
            cut,
            Box::new(shrink(cfg, None, &cut_trace, planted, failure)),
        ))
    });
    CutReport {
        cfg,
        writes,
        points,
        failures: failures.into_iter().flatten().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::ALL_CONFIGS;

    /// `W` is a pure function of (stack, trace): the property that makes a
    /// cut point a reproducible coordinate.
    #[test]
    fn write_counts_are_deterministic() {
        let trace = small_mixed();
        for cfg in ALL_CONFIGS {
            let w = count_writes(cfg, &trace);
            assert!(w > 0, "{cfg}: the trace wrote nothing");
            assert_eq!(
                w,
                count_writes(cfg, &trace),
                "{cfg}: nondeterministic write count"
            );
        }
    }

    /// The same sampled sweep on a 1-wide and a 4-wide pool gives the
    /// identical report: same points, same failures, same order.
    #[test]
    fn sweep_report_identical_across_pool_widths() {
        let trace = small_mixed();
        for cfg in ALL_CONFIGS {
            let sweep = |width| {
                let rep = sweep_cuts_in(width, cfg, &trace, Some((3, 0xD15C)), &PlantedBug::None);
                format!("{rep:?}")
            };
            assert_eq!(sweep(1), sweep(4), "{cfg}: pool width changed the report");
        }
    }

    /// A silent write corruption planted in the device must fail the sweep
    /// with shrunk reproducers that still fail on replay: the moved checks
    /// fire.
    #[test]
    fn planted_corruption_fails_the_sweep() {
        let cfg = StackConfig::UfsRegular;
        let trace = small_mixed();
        let planted = PlantedBug::SilentCorruption { op: 3, seed: 0xBAD };
        let rep = sweep_cuts(cfg, &trace, Some((4, 7)), &planted);
        let (_, repro) = rep
            .failures
            .first()
            .expect("planted corruption went unnoticed");
        assert!(
            repro.trace.ops.len() <= trace.ops.len(),
            "shrinking grew the trace"
        );
        assert!(
            run_trace(cfg, &repro.trace, &planted).is_err(),
            "reproducer does not replay:\n{repro}"
        );
    }
}
