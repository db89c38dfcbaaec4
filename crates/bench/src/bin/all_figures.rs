//! Regenerate every table and figure in one run (used to refresh
//! EXPERIMENTS.md). Pass `--quick` for a fast smoke pass.
//!
//! Sections run in their fixed order on the main thread; within each
//! section the figure modules fan their independent simulation points
//! across a scoped thread pool (`vlfs_bench::par`), so stdout is
//! byte-identical to a fully sequential run. `--threads N` (or the
//! `VLFS_THREADS` env var) pins the pool width; `--timing-json PATH`
//! writes the per-section wall-clock / simulated-event record that
//! `BENCH_all_figures.json` archives. The human-readable timing report
//! goes to stderr so it never perturbs the figure text.
//!
//! `--trace PATH` and `--metrics-json PATH` additionally run the traced
//! observability exhibit (see `vlfs_bench::obs`), exporting a JSONL event
//! trace (analysed by the `vlstat` binary) and a metrics document; figure
//! stdout is unaffected.

use vlfs_bench::{par, timing};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let flag_value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    if let Some(n) = flag_value("--threads").and_then(|v| v.parse::<usize>().ok()) {
        par::set_threads(n);
    }
    let timing_json = flag_value("--timing-json");
    let trace_path = flag_value("--trace");
    let metrics_path = flag_value("--metrics-json");

    let (w1, t2, files, mb, u8_, u9, b10, b11) = if quick {
        (120, 40, 200, 4, 400, 200, 1200, 800)
    } else {
        (400, 120, 1500, 10, 2000, 1000, 6000, 4000)
    };
    let mode = if quick { "quick" } else { "full" };
    let mut rec = timing::Recorder::new(mode, par::threads());

    macro_rules! section {
        ($name:literal, $body:expr) => {
            println!("{}", rec.time($name, || $body));
        };
    }
    section!("table1", vlfs_bench::table1::run());
    section!("fig1", vlfs_bench::fig1::run(w1));
    section!("fig2", vlfs_bench::fig2::run(t2));
    section!("fig6", vlfs_bench::fig6::run(files));
    section!("fig7", vlfs_bench::fig7::run(mb));
    section!("fig8", vlfs_bench::fig8::run(u8_));
    section!("table2", vlfs_bench::table2::run(u9));
    section!("fig9", vlfs_bench::fig9::run(u9));
    section!("fig10", vlfs_bench::fig10::run(b10));
    section!("fig11", vlfs_bench::fig11::run(b11));
    section!("appendix", vlfs_bench::appendix::run(if quick { 200 } else { 800 }));
    section!(
        "vlfs_preview",
        vlfs_bench::vlfs_preview::run(if quick { 150 } else { 600 })
    );

    // The observability exhibit runs only when an export path was given.
    // It writes the trace / metrics files and reports on stderr, so stdout
    // stays byte-identical whether or not tracing is enabled.
    if trace_path.is_some() || metrics_path.is_some() {
        let report = rec.time("obs", || {
            vlfs_bench::obs::run(
                if quick { 240 } else { 800 },
                trace_path.as_deref(),
                metrics_path.as_deref(),
            )
        });
        eprint!("{report}");
    }

    eprint!("{}", rec.report());
    if let Some(path) = timing_json {
        if let Err(e) = std::fs::write(&path, rec.to_json() + "\n") {
            eprintln!("# failed to write {path}: {e}");
        }
    }
}
