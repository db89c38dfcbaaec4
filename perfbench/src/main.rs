//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <figures_quick|vld_sync_update|lfs_burst_idle> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable summary on stderr and, as the last line of
//! stdout, one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! With `--trace 0` the metrics are the end-to-end set (tracing off); with
//! `--trace 1` they are the per-layer set from a traced run. Exits non-zero
//! without a result line on bad arguments or a failed set-up. See
//! `perfbench/README.md` for the workloads and metrics.

mod figures;
mod stats;
mod synth;
mod timed;
mod trace;

use stats::{result_line, Values};

/// End-to-end metrics, reported by every workload with tracing off.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("sim_events_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics of the traced run (besides the per-section ones). A
/// layer a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 44] = [
    ("host_op_us_p50", "us"),
    ("host_op_us_p99", "us"),
    ("sim_write_ms_p50", "ms"),
    ("sim_write_ms_p99", "ms"),
    ("sim_read_ms_p50", "ms"),
    ("write_amp", "ratio"),
    ("driver.self_ms", "ms"),
    ("ufs.calls", "count"),
    ("ufs.self_ms", "ms"),
    ("ufs.self_us_per_call", "us"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("vld.calls", "count"),
    ("vld.self_ms", "ms"),
    ("vlog.data_writes", "count"),
    ("vlog.map_writes", "count"),
    ("vlog.map_per_data", "ratio"),
    ("vlog.checkpoints", "count"),
    ("alloc.fast_path", "count"),
    ("alloc.greedy_fallback", "count"),
    ("compact.idle_ms", "ms"),
    ("compact.blocks_moved", "count"),
    ("compact.tracks_emptied", "count"),
    ("lld.calls", "count"),
    ("lld.self_ms", "ms"),
    ("lld.idle_ms", "ms"),
    ("lld.segments_cleaned", "count"),
    ("lld.blocks_copied", "count"),
    ("lld.copied_per_cleaned", "ratio"),
    ("lld.clean_on_demand", "count"),
    ("lld.clean_during_idle", "count"),
    ("disk.self_ms", "ms"),
    ("disk.cmds", "count"),
    ("disk.sectors_read", "count"),
    ("disk.sectors_written", "count"),
    ("disk.busy_ms.seek", "ms"),
    ("disk.busy_ms.rotation", "ms"),
    ("disk.busy_ms.transfer", "ms"),
    ("disk.busy_ms.overhead", "ms"),
    ("disk.busy_ms.head_switch", "ms"),
    ("snapshot.capture_ms", "ms"),
    ("snapshot.fork_ms", "ms"),
    ("setup.age_ms", "ms"),
];

/// Tracing's own cost and the self-time accounting check, last in the
/// per-layer set.
const TRACE: [(&str, &str); 2] = [
    ("trace.overhead_frac", "ratio"),
    ("trace.unaccounted_frac", "ratio"),
];

/// Every per-layer metric name with its unit, in report order.
fn per_layer_catalogue() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &str)> = PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for (name, _) in figures::SECTIONS {
        out.push((format!("section.{name}.ms"), "ms"));
        out.push((format!("section.{name}.sim_events"), "count"));
    }
    out.extend(TRACE.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// Peak resident set of this process in MB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |name: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == name)
            .ok_or(format!("missing {name}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{name} needs a value"))
    };
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t}")),
        },
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--figures-pass") {
        figures::pass_main(args.get(i + 1).map(String::as_str) == Some("1"));
        return;
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (values, attempted, failed, correct) = match a.workload.as_str() {
        "figures_quick" => match figures::run(a.seconds, a.trace) {
            Ok(r) => (r.values, r.attempted, r.failed, r.correct),
            Err(e) => fail(&format!("figures pass: {e}")),
        },
        name @ ("vld_sync_update" | "lfs_burst_idle") => {
            let w = if name == "vld_sync_update" {
                synth::Workload::VldSyncUpdate
            } else {
                synth::Workload::LfsBurstIdle
            };
            match synth::run(w, a.seed, a.seconds, a.trace) {
                Ok(r) => (r.values, r.attempted, r.failed, r.correct),
                Err(e) => fail(&format!("set-up: {e}")),
            }
        }
        other => fail(&format!("unknown workload {other}")),
    };
    report(&a, values, attempted, failed, correct);
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(1);
}

fn report(a: &Args, values: Values, attempted: u64, failed: u64, mut correct: bool) {
    let catalogue: Vec<(String, &str)> = if a.trace {
        per_layer_catalogue()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    for (k, v) in &values {
        eprintln!("# {:<28} {v}", k);
    }
    let mut metrics = Vec::with_capacity(catalogue.len());
    for (name, unit) in catalogue {
        // A layer a workload bypasses reads 0; an end-to-end metric must
        // always have been measured.
        let v = values.get(&name).copied().unwrap_or(0.0);
        correct &= v.is_finite() && (a.trace || values.contains_key(&name));
        metrics.push((name, v, unit));
    }
    eprintln!(
        "# workload {} seed {} trace {}: attempted {attempted}, failed {failed}, correct {correct}",
        a.workload, a.seed, a.trace
    );
    println!("{}", result_line(correct, attempted, failed, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names `BENCHMARK.json` declares are exactly the names a run
    /// reports, with the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let declared = |section: &str| -> Vec<(String, String)> {
            let body = &json[json.find(&format!("\"{section}\"")).expect(section)..];
            let body = &body[..body.find(']').expect("list end")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let at = entry.find(&format!("\"{key}\"")).expect(key) + key.len() + 2;
                        let rest = &entry[at..];
                        let start = rest.find('"').expect("value") + 1;
                        rest[start..start + rest[start..].find('"').expect("value end")].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.into(), u.into()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer_catalogue()
            .into_iter()
            .map(|(n, u)| (n, u.into()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
    }

    #[test]
    fn arguments_are_checked() {
        let ok: Vec<String> = "x --workload w --seed 3 --seconds 2 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&ok).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("w", 3, 2.0, true)
        );
        for bad in [
            "x --workload w --seed 3 --seconds 2 --trace 2",
            "x --workload w --seed -1 --seconds 2 --trace 0",
            "x --workload w --seconds 2 --trace 0",
        ] {
            let v: Vec<String> = bad.split(' ').map(String::from).collect();
            assert!(parse_args(&v).is_err(), "{bad}");
        }
    }
}
