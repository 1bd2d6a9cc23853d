//! Cold matrix cells: the `cells-exact` and `cells-sampled` workloads,
//! the output oracle, and the per-layer walk every traced run uses.

use crate::util::{await_threads, mean, median, ms, peak_rss_mb, quantile, threads, Report, Rng};
use epic_driver::{
    passes_for, CompileOptions, MeasureRequest, MeasuredCell, Measurement, OptLevel, PipelineCx,
    TracePolicy,
};
use epic_sim::{SamplePolicy, SimOptions, SimResult};
use epic_trace::Trace;
use epic_workloads::Workload;
use std::time::{Duration, Instant};

/// How many times a run sets up; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// One (program, level) cell on the program's `ref` input.
#[derive(Clone)]
pub struct Cell {
    pub w: Workload,
    pub level: OptLevel,
}

impl Cell {
    pub fn label(&self) -> String {
        format!("{} {}", self.w.name, self.level.name())
    }
}

/// The seeded draw: all 12 programs, each at a fixed level (suite order
/// deals GCC, O-NS, ILP-NS, ILP-CS three times over), in seeded order.
/// The cell set is the same for every seed, so every run does the same
/// work: dealing levels by seed moves a round's median cell by about 10%.
pub fn draw(seed: u64) -> Vec<Cell> {
    let mut cells: Vec<Cell> = epic_workloads::all()
        .into_iter()
        .enumerate()
        .map(|(i, w)| Cell {
            w,
            level: OptLevel::ALL[i % OptLevel::ALL.len()],
        })
        .collect();
    Rng::new(seed).shuffle(&mut cells);
    cells
}

fn sim_options(policy: SamplePolicy) -> SimOptions {
    SimOptions {
        sample: policy,
        ..SimOptions::default()
    }
}

/// One cold cell through the public measurement entry point: one cell
/// at a time, no cache.
fn measure_cell(
    cell: &Cell,
    policy: SamplePolicy,
    trace: TracePolicy,
) -> Result<MeasuredCell, String> {
    MeasureRequest::new(std::slice::from_ref(&cell.w))
        .levels(&[cell.level])
        .sample(policy)
        .trace(trace)
        .threads(1)
        .run()
        .map(|mut r| r.cells.remove(0).remove(0))
        .map_err(|e| e.to_string())
}

fn measure(cell: &Cell, policy: SamplePolicy) -> Result<Measurement, String> {
    measure_cell(cell, policy, TracePolicy::Disabled).map(|c| c.measurement)
}

/// What the independent IR interpreter says a run must produce.
pub struct Expected {
    output: Vec<u64>,
    checksum: u64,
    ret: u64,
}

/// Interpret `source` on `args` with the IR interpreter (the semantic
/// oracle `epic_driver::oracle` wraps, here keeping checksum and return
/// value too).
fn oracle(source: &str, args: &[i64]) -> Result<Expected, String> {
    let prog = epic_lang::compile(source).map_err(|e| e.to_string())?;
    let r = epic_ir::interp::run(&prog, args, Default::default()).map_err(|e| e.to_string())?;
    Ok(Expected {
        output: r.output,
        checksum: r.checksum,
        ret: r.ret,
    })
}

impl Expected {
    pub fn matches(&self, sim: &SimResult) -> bool {
        sim.output == self.output && sim.checksum == self.checksum && sim.ret == self.ret
    }
}

/// Run the oracle for each `(source, args)` on two threads.
pub fn oracles(jobs: &[(&str, &[i64])]) -> Vec<Result<Expected, String>> {
    epic_driver::par_map(jobs, 2, |_, (src, args)| oracle(src, args))
}

/// Rounds every `cells-sampled` run measures at least: a cell's latency
/// is its median over the rounds, so with three one slow round cannot
/// move it. A `cells-exact` round takes longer than `--seconds`, so it
/// measures one.
const SAMPLED_MIN_ROUNDS: u32 = 3;

/// `cells-exact` / `cells-sampled`: closed loop, one client, whole
/// rounds of the drawn cells, about `seconds` of them: at least one
/// round ([`SAMPLED_MIN_ROUNDS`] when sampled), and another only while
/// it would end less than half a round past `seconds`.
///
/// The latency metrics are taken over the per-cell medians. Taken over
/// every op, the median of two or more rounds of 12 cells falls between
/// copies of two neighbouring cells (e.g. 370 and 480 ms), so one slow
/// op of the faster cell would move it by the whole gap.
pub fn run(seed: u64, seconds: u64, policy: SamplePolicy, t0: Instant, rep: &mut Report) {
    let idle_threads = threads();
    let mut setups = Vec::new();
    let mut cells = Vec::new();
    for i in 0..SETUP_REPS {
        let start = if i == 0 { t0 } else { Instant::now() };
        cells = draw(seed);
        if let Err(e) = measure(&warmup_cell(), policy) {
            rep.problem(format!("warm-up cell: {e}"));
        }
        await_threads(idle_threads);
        setups.push(start.elapsed().as_secs_f64());
    }

    let min_rounds = if policy == SamplePolicy::Exact {
        1
    } else {
        SAMPLED_MIN_ROUNDS
    };
    let mut lat: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let mut results: Vec<Vec<Result<Measurement, String>>> = vec![Vec::new(); cells.len()];
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < min_rounds
        || start.elapsed().as_secs_f64() * (1.0 + 0.5 / f64::from(rounds)) < seconds as f64
    {
        rounds += 1;
        for (i, cell) in cells.iter().enumerate() {
            let t = Instant::now();
            let r = measure(cell, policy);
            lat[i].push(ms(t.elapsed()));
            results[i].push(r);
            // one cell at a time: the next starts when this one's worker is gone
            await_threads(idle_threads);
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let rss = peak_rss_mb();

    let jobs: Vec<(&str, &[i64])> = cells
        .iter()
        .map(|c| (c.w.source, c.w.ref_args.as_slice()))
        .collect();
    for ((cell, runs), want) in cells.iter().zip(&results).zip(oracles(&jobs)) {
        for r in runs {
            rep.attempted += 1;
            let ok = match (r, &want) {
                (Ok(m), Ok(want)) => want.matches(&m.sim),
                _ => false,
            };
            if !ok {
                rep.failed += 1;
                rep.problem(format!(
                    "{}: output differs from the IR interpreter",
                    cell.label()
                ));
            }
        }
    }

    let n = lat.iter().map(Vec::len).sum::<usize>();
    let per_cell: Vec<f64> = lat.iter().map(|v| median(v)).collect();
    let p50 = median(&per_cell);
    rep.put("setup_s", median(&setups), "s", setups.len());
    rep.put("ops_per_s", n as f64 / elapsed, "1/s", n);
    rep.put("latency_ms.p50", p50, "ms", n);
    rep.put("latency_ms.p99", quantile(&per_cell, 0.99), "ms", n);
    // every cell is cold, so the cold-job median is the op median
    rep.put("cold_latency_ms.p50", p50, "ms", n);
    rep.put("peak_rss_mb", rss, "MiB", 1);
}

/// The set-up's warm-up cell, a cheap one (a few hundred ms), so the
/// first timed cell does not pay for cold code pages and allocator growth.
fn warmup_cell() -> Cell {
    Cell {
        w: epic_workloads::by_name("gzip_mc").expect("gzip_mc is in the suite"),
        level: OptLevel::Gcc,
    }
}

/// Per-layer timings and deterministic counts of one cell, from calls
/// into each layer's public functions.
struct Walk {
    lang: Duration,
    passes: Vec<(&'static str, Duration)>,
    code_bytes: u64,
    exact: Duration,
    exact_cycles: u64,
    retired: u64,
    sample: Duration,
    sample_cycles: u64,
    sample_clusters: u64,
    sample_detail_ops: u64,
    sample_total_ops: u64,
    phase_profile: Duration,
    kmeans: Duration,
    /// The public entry point on the same cell, untraced and traced.
    plain_op: Duration,
    traced_op: Duration,
    /// The traced op's wall time outside its `compile` and `sim` spans.
    driver_overhead: Duration,
    outputs_ok: bool,
}

impl Walk {
    /// The deterministic counts line two traced runs must agree on.
    fn counts_line(&self, cell: &Cell) -> String {
        format!(
            "count {} {} cycles={} retired={} code_bytes={} sampled_cycles={} err_pct={:.4} clusters={} detail_frac={}/{}",
            cell.w.name,
            cell.level.name(),
            self.exact_cycles,
            self.retired,
            self.code_bytes,
            self.sample_cycles,
            self.err_pct(),
            self.sample_clusters,
            self.sample_detail_ops,
            self.sample_total_ops
        )
    }

    /// Sampled-vs-exact cycle error, in percent.
    fn err_pct(&self) -> f64 {
        (self.sample_cycles as f64 - self.exact_cycles as f64).abs()
            / self.exact_cycles.max(1) as f64
            * 100.0
    }
}

/// Whether two runs of one cell agree on every simulated statistic.
fn same_sim(a: &SimResult, b: &SimResult) -> bool {
    a.output == b.output
        && a.checksum == b.checksum
        && a.ret == b.ret
        && a.cycles == b.cycles
        && a.counters == b.counters
        && a.sample == b.sample
}

/// Walk one cell through lang, every pass of `passes_for`, the exact
/// engine, the sampled engine and its two phases, timing each call; then
/// run the public entry point (`policy`) on the same cell untraced and
/// traced, back to back, the untraced one first when `plain_first`, so
/// pairs alternate. Both ops must reproduce the walk's code size and
/// simulated statistics exactly.
fn walk(
    cell: &Cell,
    policy: SamplePolicy,
    plain_first: bool,
    want: &Expected,
) -> Result<Walk, String> {
    let trace = Trace::enabled();
    let w = &cell.w;
    let copts = CompileOptions::for_level(cell.level);
    let span = trace.span("lang.compile");
    let prog = epic_lang::compile(w.source).map_err(|e| e.to_string())?;
    let lang = span.finish();
    let mut cx = PipelineCx::new(prog, &copts, &w.train_args, &w.ref_args);
    let mut passes = Vec::new();
    for pass in passes_for(&copts) {
        let span = trace.span_pair("pass:", pass.name());
        pass.run(&mut cx)
            .map_err(|e| format!("{}: {e}", pass.name()))?;
        passes.push((pass.name(), span.finish()));
    }
    let (mach, _) = cx.mach.take().ok_or("pipeline produced no machine code")?;

    let span = trace.span("sim.exact");
    let exact =
        epic_sim::run(&mach, &w.ref_args, &SimOptions::default()).map_err(|e| e.to_string())?;
    let exact_t = span.finish();
    let sopts = sim_options(SamplePolicy::default_sampled());
    let span = trace.span("sim.sample");
    let sampled = epic_sim::run(&mach, &w.ref_args, &sopts).map_err(|e| e.to_string())?;
    let sample_t = span.finish();
    let (clusters, detail_ops, total_ops) = sampled.sample.as_ref().map_or((0, 0, 0), |i| {
        (i.clusters as u64, i.sampled_ops, i.total_ops)
    });
    let SamplePolicy::Sampled {
        interval_len,
        max_clusters,
        ..
    } = SamplePolicy::default_sampled()
    else {
        return Err("the default sampling policy is not sampled".into());
    };
    let span = trace.span("sim.sample.phase_profile");
    let pp = epic_sim::phase_profile(&mach, &w.ref_args, &sopts, interval_len)
        .map_err(|e| e.to_string())?;
    let profile_t = span.finish();
    let span = trace.span("sim.sample.kmeans");
    std::hint::black_box(epic_sim::kmeans(&pp.bbvs, max_clusters, 1));
    let kmeans_t = span.finish();

    let reference = if policy == SamplePolicy::Exact {
        &exact
    } else {
        &sampled
    };
    let order = if plain_first {
        [TracePolicy::Disabled, TracePolicy::Enabled]
    } else {
        [TracePolicy::Enabled, TracePolicy::Disabled]
    };
    let (mut plain_op, mut traced_op, mut driver_overhead) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    for tp in order {
        let t = Instant::now();
        let op = measure_cell(cell, policy, tp)?;
        let d = t.elapsed();
        let m = &op.measurement;
        if !same_sim(&m.sim, reference) || m.compiled.code_bytes != mach.code_bytes() {
            return Err(format!(
                "{}: the {tp:?} op differs from the layer walk's code size or simulated statistics",
                cell.label()
            ));
        }
        if tp == TracePolicy::Disabled {
            plain_op = d;
            continue;
        }
        traced_op = d;
        let snap = op.trace.as_ref().ok_or("traced op carries no trace")?;
        let root = |name: &str| {
            snap.root(name)
                .map(|s| Duration::from_nanos(s.dur_ns))
                .ok_or(format!("traced op has no {name} span"))
        };
        driver_overhead = op.wall.saturating_sub(root("compile")? + root("sim")?);
    }

    let c = &exact.counters;
    let outputs_ok = want.matches(&exact) && want.matches(&sampled) && pp.output == want.output;
    Ok(Walk {
        lang,
        passes,
        code_bytes: mach.code_bytes(),
        exact: exact_t,
        exact_cycles: exact.cycles,
        retired: c.retired_useful + c.retired_squashed + c.retired_nops,
        sample: sample_t,
        sample_cycles: sampled.cycles,
        sample_clusters: clusters,
        sample_detail_ops: detail_ops,
        sample_total_ops: total_ops,
        phase_profile: profile_t,
        kmeans: kmeans_t,
        plain_op,
        traced_op,
        driver_overhead,
        outputs_ok,
    })
}

/// Which per-layer metric a pipeline pass's time belongs to.
fn pass_metric(name: &str) -> Option<&'static str> {
    Some(match name {
        "profile" => "ir.profile_ms",
        "verify" => "ir.verify_ms",
        "promote" => "opt.promote_ms",
        "inline" => "opt.inline_ms",
        "classical" => "opt.classical_ms",
        "alias" => "opt.alias_ms",
        "ilp-transform" | "data-spec" => "core.ilp_ms",
        "schedule" => "sched.schedule_ms",
        "mach-check" => "mach.check_ms",
        _ => return None,
    })
}

const PASS_METRICS: [&str; 9] = [
    "ir.profile_ms",
    "ir.verify_ms",
    "opt.promote_ms",
    "opt.inline_ms",
    "opt.classical_ms",
    "opt.alias_ms",
    "core.ilp_ms",
    "sched.schedule_ms",
    "mach.check_ms",
];

/// Walk every cell (oracle first, outside any timing), report the
/// compile, sim and driver layer metrics, and return the counts lines
/// and the per-cell traced/untraced op-time ratios.
pub fn probe(cells: &[Cell], policy: SamplePolicy, rep: &mut Report) -> (Vec<String>, Vec<f64>) {
    let jobs: Vec<(&str, &[i64])> = cells
        .iter()
        .map(|c| (c.w.source, c.w.ref_args.as_slice()))
        .collect();
    let wants = oracles(&jobs);
    let mut walks = Vec::new();
    for (i, (cell, want)) in cells.iter().zip(&wants).enumerate() {
        let r = want
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|want| walk(cell, policy, i % 2 == 0, want));
        rep.attempted += 1;
        match r {
            Ok(w) if w.outputs_ok => walks.push((cell, w)),
            Ok(_) => {
                rep.failed += 1;
                rep.problem(format!(
                    "{}: traced output differs from the IR interpreter",
                    cell.label()
                ));
            }
            Err(e) => {
                rep.failed += 1;
                rep.problem(format!("{}: {e}", cell.label()));
            }
        }
    }
    let n = walks.len();
    let per_cell = |f: &dyn Fn(&Walk) -> f64| -> f64 {
        walks.iter().map(|(_, w)| f(w)).sum::<f64>() / n.max(1) as f64
    };

    rep.put("lang.compile_ms", per_cell(&|w| ms(w.lang)), "ms", n);
    for metric in PASS_METRICS {
        let v = per_cell(&|w| {
            w.passes
                .iter()
                .filter(|(p, _)| pass_metric(p) == Some(metric))
                .map(|p| ms(p.1))
                .sum()
        });
        rep.put(metric, v, "ms", n);
    }
    let sum = |f: &dyn Fn(&Walk) -> u64| -> u64 { walks.iter().map(|(_, w)| f(w)).sum() };
    rep.put("mach.code_bytes", sum(&|w| w.code_bytes) as f64, "bytes", n);

    let cycles = sum(&|w| w.exact_cycles) as f64;
    let exact_s: f64 = walks.iter().map(|(_, w)| w.exact.as_secs_f64()).sum();
    rep.put("sim.exact_ms", per_cell(&|w| ms(w.exact)), "ms", n);
    rep.put("sim.exact.mcycles", cycles / 1e6, "Mcycles", n);
    rep.put(
        "sim.exact.mcycles_per_s",
        cycles / 1e6 / exact_s,
        "Mcycles/s",
        n,
    );
    rep.put(
        "sim.exact.retired_mops",
        sum(&|w| w.retired) as f64 / 1e6,
        "Mops",
        n,
    );
    rep.put("sim.sample_ms", per_cell(&|w| ms(w.sample)), "ms", n);
    rep.put(
        "sim.sample.profile_ms",
        per_cell(&|w| ms(w.phase_profile)),
        "ms",
        n,
    );
    rep.put("sim.sample.kmeans_ms", per_cell(&|w| ms(w.kmeans)), "ms", n);
    let detail = sum(&|w| w.sample_detail_ops) as f64 / sum(&|w| w.sample_total_ops).max(1) as f64;
    rep.put("sim.sample.detail_frac", detail, "ratio", n);
    rep.put(
        "sim.sample.clusters",
        sum(&|w| w.sample_clusters) as f64,
        "count",
        n,
    );
    let errs: Vec<f64> = walks.iter().map(|(_, w)| w.err_pct()).collect();
    rep.put("sim.sample.err_pct", mean(&errs), "%", n);
    rep.put(
        "driver.overhead_ms",
        per_cell(&|w| ms(w.driver_overhead)),
        "ms",
        n,
    );

    let counts = walks.iter().map(|(c, w)| w.counts_line(c)).collect();
    let ratios = walks
        .iter()
        .map(|(_, w)| w.traced_op.as_secs_f64() / w.plain_op.as_secs_f64())
        .collect();
    (counts, ratios)
}
