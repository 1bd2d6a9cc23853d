//! The warm/mixed `epicg` fleet workloads, and the facade-tax ledger
//! every traced run reports.
//!
//! The traffic follows the gateway sweeps in `scripts/ci.sh`: a sweep is
//! what `epicc submit --gateway` does, client threads work-stealing over
//! a cell list, each waiting for its reply before taking the next; the
//! membership smoke sweeps a cell set cold once and then re-sweeps it
//! warm three times. `fleet-warm` repeats warm sweeps of its read set;
//! `fleet-mixed` repeats that one-cold, three-warm pattern on fresh
//! keys, so a quarter of its ops are cold jobs. Each submit follows a
//! seeded think time (see [`think_times`]).

use crate::cells::{self, Cell};
use crate::util::{median, ms, peak_rss_mb, quantile, us, Report, Rng};
use epic_cluster::{gate, GatewayConfig, GatewayHandle};
use epic_driver::{CompileOptions, Measurement, OptLevel};
use epic_serve::codec::{decode_measurement, encode_measurement};
use epic_serve::sched::DriverRunner;
use epic_serve::{
    digest, serve_with, ArtifactStore, CacheKey, Client, JobSpec, Priority, Scheduler, Served,
    ServerConfig, ServerHandle,
};
use epic_sim::SimOptions;
use epic_trace::Trace;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Shards behind the gateway, each with one scheduler worker.
const SHARDS: u64 = 2;
/// Client threads of every sweep (`epicc submit --threads 2`).
const CLIENTS: usize = 2;
/// Programs whose `ref` run simulates well under a second. Three of
/// them, at every level, so the median warming submit always falls
/// within one program's submits, not in a jump between two programs.
const CHEAP: [&str; 3] = ["eon_mc", "bzip2_mc", "vortex_mc"];
/// Warm re-sweeps after each cold sweep on `fleet-mixed`.
const RESWEEPS: usize = 3;
/// Mixed into the seed for the traffic's draws (orders, inputs, think
/// times).
const TRAFFIC_SEED: u64 = 0x0073_7765_6570;
/// Fleets set up per run; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// Samples per stack in the facade-tax ledger.
const LEDGER_REPS: usize = 100;
/// In-process submits per ledger or tracing sample (they take
/// microseconds).
const LEDGER_INNER: u32 = 20;
/// Traced/untraced sample pairs of warm hits, and of cold jobs, in the
/// tracing-overhead probe.
const WARM_PAIRS: usize = 200;
const COLD_PAIRS: usize = 24;

/// An in-process fleet: `SHARDS` `epicd` event loops behind one `epicg`.
struct Fleet {
    shards: Vec<ServerHandle>,
    gw: GatewayHandle,
    addr: String,
}

impl Fleet {
    fn start() -> Result<Fleet, String> {
        let mut shards = Vec::new();
        let mut addrs = Vec::new();
        for id in 1..=SHARDS {
            let sched = scheduler(Trace::disabled());
            let cfg = ServerConfig {
                shard_id: id,
                ..ServerConfig::default()
            };
            let h = serve_with("127.0.0.1:0", Arc::new(sched), cfg)
                .map_err(|e| format!("shard {id}: {e}"))?;
            addrs.push((id, h.addr().to_string()));
            shards.push(h);
        }
        let gw = gate("127.0.0.1:0", &addrs, GatewayConfig::default())
            .map_err(|e| format!("epicg: {e}"))?;
        let addr = gw.addr().to_string();
        Ok(Fleet { shards, gw, addr })
    }

    fn client(&self) -> Result<Client, String> {
        Client::connect(&self.addr).map_err(|e| format!("connect epicg: {e}"))
    }

    fn stop(mut self) {
        self.gw.stop();
        for h in &mut self.shards {
            h.stop();
        }
    }
}

/// A shard's scheduler: an in-memory store, the driver as runner, one
/// worker; `trace` records a span tree per job it runs.
fn scheduler(trace: Trace) -> Scheduler {
    let store = Arc::new(ArtifactStore::in_memory());
    Scheduler::with_runner_traced(store, Box::new(DriverRunner::default()), 1, 256, trace)
}

/// A key the fleet holds: its spec, the digest it returned when first
/// computed, and that first measurement (checked against the oracle).
struct Warm {
    spec: JobSpec,
    key: CacheKey,
    digest: CacheKey,
    first: Measurement,
}

/// The read set: every cheap program at every level, in seeded order.
pub fn read_set(seed: u64) -> Vec<Cell> {
    let mut set: Vec<Cell> = CHEAP
        .iter()
        .flat_map(|name| {
            let w = epic_workloads::by_name(name).expect("cheap workload is in the suite");
            OptLevel::ALL.map(|level| Cell {
                w: w.clone(),
                level,
            })
        })
        .collect();
    Rng::new(seed ^ 0x7265_6164).shuffle(&mut set);
    set
}

/// A read-set cell's job: the program on its `train` input. Warming
/// submits on `ref` inputs took 150–220 ms each, close to the gateway's
/// 250 ms hedge delay; in slower periods they crossed it, the hedged
/// duplicates queued later warming submits behind them on the replica's
/// one worker, and `setup_s` jumped from ~1.8 to ~3.4 s between runs.
fn read_spec(c: &Cell) -> JobSpec {
    let train = &c.w.train_args;
    JobSpec::from_options(
        c.w.source,
        train,
        train,
        &CompileOptions::for_level(c.level),
        &SimOptions::default(),
    )
}

/// Submit `cells` cold through the gateway one at a time (so no warming
/// submit queues behind another), then let the fleet settle; returns the
/// warmed keys and each submit's latency (ms).
fn warm(fleet: &Fleet, cells: &[Cell]) -> Result<(Vec<Warm>, Vec<f64>), String> {
    let mut client = fleet.client()?;
    let mut warmed = Vec::new();
    let mut lat = Vec::new();
    for c in cells {
        let spec = read_spec(c);
        let t = Instant::now();
        let served = client
            .submit(&spec, Priority::Normal, 0)
            .map_err(|e| format!("warm {}: {e}", c.label()))?;
        lat.push(ms(t.elapsed()));
        warmed.push(Warm {
            key: served.key,
            digest: digest(&served.measurement),
            first: served.measurement,
            spec,
        });
    }
    settle(fleet)?;
    Ok((warmed, lat))
}

/// Wait until no shard has a job queued or running: a hedged duplicate
/// of a warming submit may still be simulating on the replica.
fn settle(fleet: &Fleet) -> Result<(), String> {
    let mut client = fleet.client()?;
    let give_up = Instant::now() + Duration::from_secs(30);
    let mut quiet = 0;
    // two quiet readings apart, so a hedge still in a socket is seen
    while quiet < 2 {
        let s = client.stats().map_err(|e| format!("stats: {e}"))?;
        quiet = if s.sched.in_flight == 0 && s.sched.queue_depth == 0 {
            quiet + 1
        } else {
            0
        };
        if Instant::now() > give_up {
            return Err(format!("fleet still busy after 30 s: {:?}", s.sched));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    Ok(())
}

/// Fresh `ref` inputs for one fleet's cold jobs: for each read-set cell,
/// every size from half of the program's `train` input up to, but not
/// including, the `train` size itself (the read set's key), in seeded
/// order, each used once. Every key is new to the fleet, and
/// every batch holds each cell once, so the program mix stays the same
/// however long a run is. A cell's machine code is cached on a shard
/// after its first job there, so a cold job is mostly tens of ms of sim.
struct Fresh {
    sizes: Vec<Vec<i64>>,
}

impl Fresh {
    fn new(read: &[Cell], rng: &mut Rng) -> Fresh {
        let sizes = read
            .iter()
            .map(|c| {
                let n = c.w.train_args[0];
                let mut v: Vec<i64> = (n / 2..n).collect();
                rng.shuffle(&mut v);
                v
            })
            .collect();
        Fresh { sizes }
    }

    /// The next batch, in seeded order; `None` once a cell has used up
    /// its sizes.
    fn batch(&mut self, read: &[Cell], rng: &mut Rng) -> Option<Vec<JobSpec>> {
        let mut batch = Vec::new();
        for (cell, sizes) in read.iter().zip(&mut self.sizes) {
            let train = &cell.w.train_args;
            let mut args = train.clone();
            args[0] = sizes.pop()?;
            batch.push(JobSpec::from_options(
                cell.w.source,
                train,
                &args,
                &CompileOptions::for_level(cell.level),
                &SimOptions::default(),
            ));
        }
        rng.shuffle(&mut batch);
        Some(batch)
    }
}

/// One submit's result and latency (ms).
type Answer = (Result<Served, String>, f64);

/// One sweep as `epicc submit` runs it: the clients take `specs` in
/// order, work-stealing, each waiting for its reply before taking the
/// next, after a seeded think time (see [`think_times`]). Returns each
/// spec's result and latency (ms), by index.
fn sweep(clients: &mut [Client], specs: &[JobSpec], rng: &mut Rng) -> Vec<Answer> {
    let thinks = think_times(specs.len(), rng);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Answer>>> = specs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for client in clients.iter_mut() {
            let (next, slots, thinks) = (&next, &slots, &thinks);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(i) else { break };
                std::thread::sleep(thinks[i]);
                let t = Instant::now();
                let r = client
                    .submit(spec, Priority::Normal, 0)
                    .map_err(|e| e.to_string());
                *slots[i].lock().expect("sweep slot") = Some((r, ms(t.elapsed())));
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("sweep slot")
                .expect("every spec was taken")
        })
        .collect()
}

/// Seeded think times, uniform below the gateway's loop park (5 ms),
/// one before each submit. No caller in the repository waits between
/// submits (`epicc submit` resubmits at once), so this is the
/// benchmark's own choice: without it a closed loop falls into step
/// with the 5 ms sweeps of `epicg` and `epicd`, and a process's warm
/// hits split between ~10.5 and ~15.5 ms in a share that differs from
/// run to run (about 30–70% fast in runs of one build), so their median
/// jumps between the two. Arrivals spread over the park interval make
/// the latency distribution continuous.
fn think_times(n: usize, rng: &mut Rng) -> Vec<Duration> {
    let park = GatewayConfig::default().poll_park.as_micros() as usize;
    (0..n)
        .map(|_| Duration::from_micros(rng.below(park) as u64))
        .collect()
}

/// What the clients saw in a timed phase.
#[derive(Default)]
struct Seen {
    lat: Vec<f64>,
    cold_lat: Vec<f64>,
    cold: Vec<(JobSpec, Measurement)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Seen {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.problems.push(what);
    }

    /// A warm sweep: every answer must carry the digest its key
    /// returned when first computed, and come from the store.
    fn warm_sweep(
        &mut self,
        clients: &mut [Client],
        specs: &[JobSpec],
        digests: &[Option<CacheKey>],
        rng: &mut Rng,
    ) {
        for ((r, lat), want) in sweep(clients, specs, rng).into_iter().zip(digests) {
            self.attempted += 1;
            match r {
                Ok(s) if s.cache_hit && Some(digest(&s.measurement)) == *want => self.lat.push(lat),
                Ok(s) if !s.cache_hit => self.fail(format!("warm re-sweep of {} missed", s.key)),
                Ok(s) => self.fail(format!("warm hit {} changed its digest", s.key)),
                Err(e) => self.fail(format!("submit: {e}")),
            }
        }
    }

    /// A cold sweep of fresh keys; returns each answer's digest (checked
    /// against the IR interpreter after the timed phase).
    fn cold_sweep(
        &mut self,
        clients: &mut [Client],
        specs: &[JobSpec],
        rng: &mut Rng,
    ) -> Vec<Option<CacheKey>> {
        let mut digests = Vec::new();
        for ((r, lat), spec) in sweep(clients, specs, rng).into_iter().zip(specs) {
            self.attempted += 1;
            match r {
                Ok(s) => {
                    self.lat.push(lat);
                    self.cold_lat.push(lat);
                    digests.push(Some(digest(&s.measurement)));
                    self.cold.push((spec.clone(), s.measurement));
                }
                Err(e) => {
                    digests.push(None);
                    self.fail(format!("submit: {e}"));
                }
            }
        }
        digests
    }
}

/// A set-up fleet with its warmed read set, its clients' connections
/// and its fresh inputs.
struct Rig {
    fleet: Fleet,
    warm: Vec<Warm>,
    clients: Vec<Client>,
    fresh: Fresh,
}

impl Rig {
    fn new(read: &[Cell], rng: &mut Rng) -> Result<(Rig, Vec<f64>), String> {
        let fleet = Fleet::start()?;
        let (warm, lat) = warm(&fleet, read)?;
        let clients = (0..CLIENTS)
            .map(|_| fleet.client())
            .collect::<Result<_, _>>()?;
        let fresh = Fresh::new(read, rng);
        let rig = Rig {
            fleet,
            warm,
            clients,
            fresh,
        };
        Ok((rig, lat))
    }

    /// One round of the workload: a warm sweep of the read set in seeded
    /// order (`fleet-warm`), or a cold sweep of a fresh batch and its
    /// warm re-sweeps (`fleet-mixed`). `false` once the fresh inputs are
    /// used up.
    fn round(&mut self, mixed: bool, read: &[Cell], rng: &mut Rng, seen: &mut Seen) -> bool {
        if mixed {
            let Some(batch) = self.fresh.batch(read, rng) else {
                return false;
            };
            let digests = seen.cold_sweep(&mut self.clients, &batch, rng);
            for _ in 0..RESWEEPS {
                seen.warm_sweep(&mut self.clients, &batch, &digests, rng);
            }
        } else {
            let mut order: Vec<&Warm> = self.warm.iter().collect();
            rng.shuffle(&mut order);
            let specs: Vec<JobSpec> = order.iter().map(|w| w.spec.clone()).collect();
            let digests: Vec<Option<CacheKey>> = order.iter().map(|w| Some(w.digest)).collect();
            seen.warm_sweep(&mut self.clients, &specs, &digests, rng);
        }
        true
    }
}

/// Check every warmed key's first answer and every cold job against
/// the IR interpreter, outside any timing.
fn check_outputs(warm: &[Warm], cold: &[(JobSpec, Measurement)], rep: &mut Report) {
    let all: Vec<(&JobSpec, &Measurement)> = warm
        .iter()
        .map(|w| (&w.spec, &w.first))
        .chain(cold.iter().map(|(s, m)| (s, m)))
        .collect();
    check_jobs(&all, rep);
}

/// Check each job's answer against the IR interpreter.
fn check_jobs(all: &[(&JobSpec, &Measurement)], rep: &mut Report) {
    // one interpreter run per distinct (program, input)
    let mut jobs: Vec<(&str, &[i64])> = Vec::new();
    let idx: Vec<usize> = all
        .iter()
        .map(|(s, _)| {
            let job = (s.source.as_str(), s.ref_args.as_slice());
            jobs.iter().position(|j| *j == job).unwrap_or_else(|| {
                jobs.push(job);
                jobs.len() - 1
            })
        })
        .collect();
    let wants = cells::oracles(&jobs);
    for ((spec, m), i) in all.iter().zip(idx) {
        if !wants[i].as_ref().is_ok_and(|w| w.matches(&m.sim)) {
            rep.failed += 1;
            rep.problem(format!(
                "job {}: output differs from the IR interpreter",
                spec.job_key()
            ));
        }
    }
}

/// Fleet work counters, from the `stats` and `metrics` verbs.
#[derive(Clone, Copy)]
struct Work {
    compiles: u64,
    sims: u64,
    mach_hits: u64,
    evictions: u64,
    coalesced: u64,
    shed: u64,
    hedged: u64,
    hedge_wins: u64,
    replicated: u64,
    failover: u64,
}

impl Work {
    fn read(fleet: &Fleet) -> Result<Work, String> {
        let mut c = fleet.client()?;
        let s = c.stats().map_err(|e| format!("stats: {e}"))?;
        let m = c.metrics().map_err(|e| format!("metrics: {e}"))?;
        Ok(Work {
            compiles: s.compiles,
            sims: s.sims,
            mach_hits: s.store.mach_hits,
            evictions: s.store.evictions,
            coalesced: s.sched.coalesced,
            shed: s.sched.shed,
            hedged: m.counter("gateway.cluster.hedged"),
            hedge_wins: m.counter("gateway.cluster.hedge_wins"),
            replicated: m.counter("gateway.cluster.replicated"),
            failover: m.counter("gateway.cluster.failover"),
        })
    }

    /// `self - before`, field by field. The `stats` fields are one
    /// fleet's; the gateway counters come from the process-wide registry,
    /// which every in-process fleet shares.
    fn since(self, before: Work) -> Work {
        Work {
            compiles: self.compiles - before.compiles,
            sims: self.sims - before.sims,
            mach_hits: self.mach_hits - before.mach_hits,
            evictions: self.evictions - before.evictions,
            coalesced: self.coalesced - before.coalesced,
            shed: self.shed - before.shed,
            hedged: self.hedged - before.hedged,
            hedge_wins: self.hedge_wins - before.hedge_wins,
            replicated: self.replicated - before.replicated,
            failover: self.failover - before.failover,
        }
    }

    fn report(&self, rep: &mut Report) {
        rep.put("serve.compiles", self.compiles as f64, "count", 1);
        rep.put("serve.sims", self.sims as f64, "count", 1);
        rep.put("serve.mach_hits", self.mach_hits as f64, "count", 1);
        rep.put("serve.evictions", self.evictions as f64, "count", 1);
        rep.put("serve.coalesced", self.coalesced as f64, "count", 1);
        rep.put("serve.shed", self.shed as f64, "count", 1);
        rep.put("cluster.hedged", self.hedged as f64, "count", 1);
        rep.put("cluster.hedge_wins", self.hedge_wins as f64, "count", 1);
        rep.put("cluster.replicated", self.replicated as f64, "count", 1);
        rep.put("cluster.failover", self.failover as f64, "count", 1);
        let waste = if self.hedged == 0 {
            0.0
        } else {
            self.hedged.saturating_sub(self.hedge_wins) as f64 / self.hedged as f64
        };
        rep.put("cluster.hedge_waste", waste, "ratio", self.hedged as usize);
    }
}

/// `fleet-warm` and `fleet-mixed`: set a fleet up `SETUP_REPS` times,
/// then run rounds (see [`Rig::round`]) for `seconds`, taken by the
/// fleets in turn. A fleet's `epicg` and `epicd` sweep timers keep one
/// phase for its life, and that phase moves the warm-hit latency by up
/// to a 5 ms park; spreading each run over several fleets samples
/// several phases.
pub fn run(seed: u64, seconds: u64, mixed: bool, t0: Instant, rep: &mut Report) {
    let read = read_set(seed);
    let mut rng = Rng::new(seed ^ TRAFFIC_SEED);
    let mut setups = Vec::new();
    let mut setup_cold = Vec::new();
    let mut rigs = Vec::new();
    for i in 0..SETUP_REPS {
        let start = if i == 0 { t0 } else { Instant::now() };
        let (rig, lat) = match Rig::new(&read, &mut rng) {
            Ok(x) => x,
            Err(e) => return rep.problem(format!("setup: {e}")),
        };
        setups.push(start.elapsed().as_secs_f64());
        setup_cold.extend(lat);
        rigs.push(rig);
    }

    let before: Result<Vec<Work>, String> = rigs.iter().map(|r| Work::read(&r.fleet)).collect();
    let mut seen = Seen::default();
    let start = Instant::now();
    let end = start + Duration::from_secs(seconds);
    for i in 0.. {
        if Instant::now() >= end {
            break;
        }
        if !rigs[i % SETUP_REPS].round(mixed, &read, &mut rng, &mut seen) {
            println!("note: fresh inputs used up; the timed phase ended early");
            break;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let rss = peak_rss_mb();
    let after: Result<Vec<Work>, String> = rigs.iter().map(|r| Work::read(&r.fleet)).collect();
    match (before, after) {
        (Ok(b), Ok(a)) => {
            for (a, b) in a.into_iter().zip(b) {
                let d = a.since(b);
                if !mixed && (d.compiles != 0 || d.sims != 0) {
                    rep.failed += 1;
                    rep.problem(format!(
                        "warm phase did work: {} compiles, {} sims",
                        d.compiles, d.sims
                    ));
                }
            }
        }
        (Err(e), _) | (_, Err(e)) => rep.problem(e),
    }
    let mut warmed = Vec::new();
    for r in rigs {
        r.fleet.stop();
        warmed.extend(r.warm);
    }
    tally(seen.attempted, seen.failed, &seen.problems, rep);
    check_outputs(&warmed, &seen.cold, rep);

    let n = seen.lat.len();
    rep.put("setup_s", median(&setups), "s", setups.len());
    rep.put("ops_per_s", n as f64 / elapsed, "1/s", n);
    rep.put("latency_ms.p50", median(&seen.lat), "ms", n);
    rep.put("latency_ms.p99", quantile(&seen.lat, 0.99), "ms", n);
    // fleet-warm's cold jobs are its set-ups' warming submits
    let cold_lat = if mixed { &seen.cold_lat } else { &setup_cold };
    rep.put(
        "cold_latency_ms.p50",
        median(cold_lat),
        "ms",
        cold_lat.len(),
    );
    rep.put("peak_rss_mb", rss, "MiB", 1);
}

fn tally(attempted: u64, failed: u64, problems: &[String], rep: &mut Report) {
    rep.attempted += attempted;
    rep.failed += failed;
    for p in problems.iter().take(5) {
        rep.problem(p.clone());
    }
}

/// The facade-tax ledger: one warm key through each stack in turn,
/// interleaved so slow spells hit every stack alike.
fn ledger(fleet: &Fleet, w: &Warm, rep: &mut Report) -> Result<(), String> {
    let (sched, shard_addr) = fleet
        .shards
        .iter()
        .find(|h| h.scheduler().store().lookup(w.key).is_some())
        .map(|h| (Arc::clone(h.scheduler()), h.addr().to_string()))
        .ok_or("no shard holds the ledger key")?;
    let store = sched.store();
    let mut direct = Client::connect(&shard_addr).map_err(|e| e.to_string())?;
    let mut via_gw = fleet.client()?;
    let (mut lookup, mut enc, mut dec, mut stack1, mut stack2, mut stack3, mut stack4) =
        (vec![], vec![], vec![], vec![], vec![], vec![], vec![]);
    let mut bytes = 0;
    let check = |m: &Measurement, what: &str| {
        if digest(m) == w.digest {
            Ok(())
        } else {
            Err(format!("{what}: warm key changed its digest"))
        }
    };
    for _ in 0..LEDGER_REPS {
        // 1. store lookup + codec round trip
        let (mut l, mut e, mut d) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        for _ in 0..LEDGER_INNER {
            let t = Instant::now();
            let m = store.lookup(w.key).ok_or("ledger key evicted")?;
            let t1 = Instant::now();
            let b = encode_measurement(&m);
            let t2 = Instant::now();
            let back = decode_measurement(&b).map_err(|e| e.to_string())?;
            let t3 = Instant::now();
            (l, e, d) = (l + (t1 - t), e + (t2 - t1), d + (t3 - t2));
            bytes = b.len();
            check(&back, "codec")?;
        }
        lookup.push(us(l) / LEDGER_INNER as f64);
        enc.push(us(e) / LEDGER_INNER as f64);
        dec.push(us(d) / LEDGER_INNER as f64);
        stack1.push(us(l + e + d) / LEDGER_INNER as f64);
        // 2. Scheduler::submit + Ticket::wait
        let t = Instant::now();
        for _ in 0..LEDGER_INNER {
            let ticket = sched
                .submit(w.spec.clone(), Priority::Normal, None)
                .map_err(|e| e.to_string())?;
            let m = ticket.wait().map_err(|e| e.to_string())?;
            check(&m, "scheduler")?;
        }
        stack2.push(us(t.elapsed()) / LEDGER_INNER as f64);
        // 3. Client -> epicd, 4. Client -> epicg -> epicd
        for (client, out, what) in [
            (&mut direct, &mut stack3, "epicd"),
            (&mut via_gw, &mut stack4, "epicg"),
        ] {
            let t = Instant::now();
            let served = client
                .submit(&w.spec, Priority::Normal, 0)
                .map_err(|e| format!("{what}: {e}"))?;
            out.push(ms(t.elapsed()));
            check(&served.measurement, what)?;
        }
    }
    let n = LEDGER_REPS;
    let (s1, s2, s3, s4) = (
        median(&stack1),
        median(&stack2),
        median(&stack3),
        median(&stack4),
    );
    rep.put("serve.codec.encode_us", median(&enc), "us", n);
    rep.put("serve.codec.decode_us", median(&dec), "us", n);
    rep.put("serve.codec.bytes", bytes as f64, "bytes", 1);
    rep.put("serve.store.lookup_us", median(&lookup), "us", n);
    rep.put("serve.sched.hit_us", s2, "us", n);
    rep.put("serve.epicd.hit_ms", s3, "ms", n);
    rep.put("cluster.epicg.hit_ms", s4, "ms", n);
    rep.put("ledger.store_codec_us", s1, "us", n);
    rep.put("ledger.sched_added_us", s2 - s1, "us", n);
    rep.put("ledger.epicd_added_ms", s3 - s2 / 1e3, "ms", n);
    rep.put("ledger.epicg_added_ms", s4 - s3, "ms", n);
    Ok(())
}

/// The serve and cluster layers for a traced `cells-*` run: a fresh
/// fleet warmed with the read set's first cell, then the ledger.
pub fn cells_layers(seed: u64, rep: &mut Report) -> Result<(), String> {
    let fleet = Fleet::start()?;
    let (w, _) = warm(&fleet, &read_set(seed)[..1])?;
    ledger(&fleet, &w[0], rep)?;
    // a fresh fleet, and the only one in this process: its counters
    // are exactly what the warm-up and the ledger did
    let work = Work::read(&fleet)?;
    fleet.stop();
    check_outputs(&w, &[], rep);
    work.report(rep);
    Ok(())
}

/// Traced `fleet-warm` / `fleet-mixed`: one fleet runs the workload's
/// rounds for its share of an untraced run (`seconds / SETUP_REPS`), for
/// the `stats` and `metrics` counters; then the ledger and the tracing
/// overhead. Returns the overhead in percent
/// and its sample-pair count.
pub fn traced(
    seed: u64,
    seconds: u64,
    mixed: bool,
    rep: &mut Report,
) -> Result<(f64, usize), String> {
    let read = read_set(seed);
    let mut rng = Rng::new(seed ^ TRAFFIC_SEED);
    let (mut rig, _) = Rig::new(&read, &mut rng)?;
    let before = Work::read(&rig.fleet)?;
    let mut seen = Seen::default();
    // one fleet's share of an untraced run
    let end = Instant::now() + Duration::from_secs(seconds) / SETUP_REPS as u32;
    while Instant::now() < end && rig.round(mixed, &read, &mut rng, &mut seen) {}
    let work = Work::read(&rig.fleet)?.since(before);
    if !mixed && (work.compiles != 0 || work.sims != 0) {
        rep.failed += 1;
        rep.problem(format!(
            "warm phase did work: {} compiles, {} sims",
            work.compiles, work.sims
        ));
    }
    work.report(rep);
    ledger(&rig.fleet, &rig.warm[0], rep)?;
    rig.fleet.stop();
    tally(seen.attempted, seen.failed, &seen.problems, rep);
    check_outputs(&rig.warm, &seen.cold, rep);
    trace_overhead(&read, mixed, &mut rng, rep)
}

/// Tracing overhead on the workload's op mix. A fleet's only tracing is
/// its schedulers' per-job span trees, so the same ops go through
/// `Scheduler::submit` + `Ticket::wait` on an untraced and a traced
/// scheduler, in pairs that alternate which goes first: warm hits on
/// the read set, and on `fleet-mixed` fresh cold jobs too. Returns the
/// percentage by which the traced op time exceeds the untraced one
/// (each class's ratio, weighted by the class's share of the mix's
/// untraced time), and the number of pairs.
fn trace_overhead(
    read: &[Cell],
    mixed: bool,
    rng: &mut Rng,
    rep: &mut Report,
) -> Result<(f64, usize), String> {
    let plain = scheduler(Trace::disabled());
    let traced = scheduler(Trace::enabled());
    let specs: Vec<JobSpec> = read.iter().map(read_spec).collect();
    let run = |s: &Scheduler, spec: &JobSpec| -> Result<Arc<Measurement>, String> {
        let ticket = s
            .submit(spec.clone(), Priority::Normal, None)
            .map_err(|e| e.to_string())?;
        ticket.wait().map_err(|e| e.to_string())
    };
    let mut firsts = Vec::new();
    for spec in &specs {
        let m = run(&plain, spec)?;
        if digest(&*run(&traced, spec)?) != digest(&m) {
            return Err(format!(
                "job {}: traced scheduler changed the result",
                spec.job_key()
            ));
        }
        firsts.push((spec.clone(), m));
    }
    // each side of a pair: untraced then traced, or the other way round
    let pair = |i: usize, f: &mut dyn FnMut(&Scheduler) -> Result<Duration, String>| {
        let (a, b) = if i.is_multiple_of(2) {
            (&plain, &traced)
        } else {
            (&traced, &plain)
        };
        let (da, db) = (f(a)?, f(b)?);
        Ok::<_, String>(if i.is_multiple_of(2) {
            (da, db)
        } else {
            (db, da)
        })
    };
    let (mut warm_p, mut warm_t) = (Vec::new(), Vec::new());
    for i in 0..WARM_PAIRS {
        let spec = &specs[i % specs.len()];
        let (p, t) = pair(i, &mut |s| {
            let t = Instant::now();
            for _ in 0..LEDGER_INNER {
                run(s, spec)?;
            }
            Ok(t.elapsed())
        })?;
        warm_p.push(us(p) / f64::from(LEDGER_INNER));
        warm_t.push(us(t) / f64::from(LEDGER_INNER));
    }
    let (mut cold_p, mut cold_t) = (Vec::new(), Vec::new());
    if mixed {
        let mut fresh = Fresh::new(read, rng);
        let mut cold = Vec::new();
        while cold.len() < COLD_PAIRS {
            cold.extend(fresh.batch(read, rng).ok_or("fresh inputs used up")?);
        }
        for (i, spec) in cold.iter().take(COLD_PAIRS).enumerate() {
            let mut got = Vec::new();
            let (p, t) = pair(i, &mut |s| {
                let t = Instant::now();
                got.push(run(s, spec)?);
                Ok(t.elapsed())
            })?;
            if digest(&got[0]) != digest(&got[1]) {
                return Err(format!(
                    "job {}: traced scheduler changed the result",
                    spec.job_key()
                ));
            }
            cold_p.push(us(p));
            cold_t.push(us(t));
            firsts.push((spec.clone(), got.swap_remove(0)));
        }
    }
    // each class's traced/untraced ratio, weighted by the share of
    // untraced op time the class takes in the workload's mix. Warm hits:
    // the median pair ratio, robust to a preempted batch. Cold jobs: the
    // ratio of sums, because the second run of a pair is faster (warm CPU
    // caches) and the alternating order only cancels that in sums.
    let cold_share = if mixed {
        1.0 / (1 + RESWEEPS) as f64
    } else {
        0.0
    };
    let warm_ratio = median(
        &warm_t
            .iter()
            .zip(&warm_p)
            .map(|(t, p)| t / p)
            .collect::<Vec<_>>(),
    );
    let cold_ratio = cold_t.iter().sum::<f64>() / cold_p.iter().sum::<f64>();
    let (w_time, c_time) = (
        (1.0 - cold_share) * median(&warm_p),
        cold_share * median(&cold_p),
    );
    let mix = if mixed {
        (w_time * warm_ratio + c_time * cold_ratio) / (w_time + c_time)
    } else {
        warm_ratio
    };
    let overhead = (mix - 1.0) * 100.0;
    let jobs: Vec<(&JobSpec, &Measurement)> = firsts.iter().map(|(s, m)| (s, &**m)).collect();
    check_jobs(&jobs, rep);
    Ok((overhead, warm_p.len() + cold_p.len()))
}
