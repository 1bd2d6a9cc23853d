//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads (all closed loops; see README.md for why each exists):
//!
//! * `cells-exact` — one client, cold `MeasureRequest` cells, exact sim;
//! * `cells-sampled` — the same cells under `SamplePolicy::default_sampled()`;
//! * `fleet-warm` — two clients, warm hits through `epicg` → 2 × `epicd`;
//! * `fleet-mixed` — the same fleet, cold sweeps of fresh keys and their
//!   warm re-sweeps.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! per-layer probe instead and prints the per-layer metrics. Every output
//! is checked against the IR interpreter. The last line of standard
//! output is one JSON object; the exit code is nonzero when any check
//! failed.

mod cells;
mod fleet;
mod util;

use epic_sim::SamplePolicy;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use util::{median, Report};

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    CellsExact,
    CellsSampled,
    FleetWarm,
    FleetMixed,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "cells-exact" => Workload::CellsExact,
            "cells-sampled" => Workload::CellsSampled,
            "fleet-warm" => Workload::FleetWarm,
            "fleet-mixed" => Workload::FleetMixed,
            _ => return None,
        })
    }
}

struct Args {
    name: String,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<Option<&String>, String> {
        match argv.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => argv
                .get(i + 1)
                .map(Some)
                .ok_or(format!("{flag} needs a value")),
        }
    };
    let num = |flag: &str, default: u64| -> Result<u64, String> {
        get(flag)?.map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("{flag}: not a number: {v}"))
        })
    };
    let name = get("--workload")?.ok_or("--workload is required")?.clone();
    let workload = Workload::parse(&name).ok_or(format!(
        "unknown workload {name} (cells-exact, cells-sampled, fleet-warm, fleet-mixed)"
    ))?;
    let trace = match num("--trace", 0)? {
        0 => false,
        1 => true,
        v => return Err(format!("--trace must be 0 or 1, not {v}")),
    };
    Ok(Args {
        name,
        workload,
        seed: num("--seed", 1)?,
        seconds: num("--seconds", 15)?.max(1),
        trace,
    })
}

fn main() -> ExitCode {
    let t0 = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = repo_root();
    if !root.join("crates").is_dir() {
        eprintln!("perfbench: no crates/ beside {}", root.display());
        return ExitCode::from(2);
    }
    let mut rep = Report::default();
    let sampled = args.workload == Workload::CellsSampled;
    let policy = if sampled {
        SamplePolicy::default_sampled()
    } else {
        SamplePolicy::Exact
    };
    let mixed = args.workload == Workload::FleetMixed;
    match (args.workload, args.trace) {
        (Workload::CellsExact | Workload::CellsSampled, false) => {
            cells::run(args.seed, args.seconds, policy, t0, &mut rep)
        }
        (Workload::FleetWarm | Workload::FleetMixed, false) => {
            fleet::run(args.seed, args.seconds, mixed, t0, &mut rep)
        }
        (_, true) => traced(&args, policy, mixed, &root, &mut rep),
    }
    rep.emit();
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The traced run: per-layer metrics, tracing overhead, deterministic
/// counts (checked against an earlier traced run of the same seed) and
/// the code-size ledger.
fn traced(args: &Args, policy: SamplePolicy, mixed: bool, root: &Path, rep: &mut Report) {
    let (overhead, traced_ops, counts) = match args.workload {
        Workload::CellsExact | Workload::CellsSampled => {
            let (counts, ratios) = cells::probe(&cells::draw(args.seed), policy, rep);
            if let Err(e) = fleet::cells_layers(args.seed, rep) {
                rep.problem(e);
            }
            ((median(&ratios) - 1.0) * 100.0, ratios.len(), counts)
        }
        Workload::FleetWarm | Workload::FleetMixed => {
            let (overhead, n) =
                fleet::traced(args.seed, args.seconds, mixed, rep).unwrap_or_else(|e| {
                    rep.problem(e);
                    (0.0, 0)
                });
            let (counts, _) = cells::probe(&fleet::read_set(args.seed), SamplePolicy::Exact, rep);
            (overhead, n, counts)
        }
    };
    rep.put("bench.trace_overhead_pct", overhead, "%", traced_ops);
    for line in &counts {
        println!("{line}");
    }
    let checked = check_counts(root, &args.name, args.seed, &counts, rep);
    rep.put(
        "bench.counts_checked",
        f64::from(u8::from(checked)),
        "count",
        counts.len(),
    );
    let crate_src = |name: &str| match name {
        "root" => root.join("src"),
        _ => root.join("crates").join(name).join("src"),
    };
    for name in util::LOC_CRATES {
        let n = util::rust_loc(&crate_src(name));
        rep.put(format!("loc.{name}"), n as f64, "lines", 1);
    }
    // every crate, including any the list above does not name yet
    let total: u64 = std::fs::read_dir(root.join("crates"))
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| util::rust_loc(&e.path().join("src")))
        .sum::<u64>()
        + util::rust_loc(&crate_src("root"));
    rep.put("loc.total", total as f64, "lines", 1);
}

/// The checkout root: the parent of this package's directory.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// Compare this traced run's deterministic counts with the first traced
/// run of the same workload and seed on the same sources in this
/// checkout (recorded under `.perfbench/`, keyed by
/// [`util::source_hash`], so a changed program never meets a stale
/// file); returns whether a comparison was made.
fn check_counts(root: &Path, name: &str, seed: u64, counts: &[String], rep: &mut Report) -> bool {
    let dir = root.join(".perfbench");
    let hash = util::source_hash(root);
    let path = dir.join(format!("counts-{name}-{seed}-{hash:016x}.txt"));
    let text = counts.join("\n") + "\n";
    match std::fs::read_to_string(&path) {
        Ok(prev) => {
            if prev != text {
                rep.failed += 1;
                rep.problem(format!(
                    "deterministic counts differ from the earlier traced run in {}",
                    path.display()
                ));
            }
            true
        }
        Err(_) => {
            if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text))
            {
                rep.problem(format!("record counts in {}: {e}", path.display()));
            }
            false
        }
    }
}
