//! The three workloads. Each is a closed loop of *passes*: a pass
//! sends a fixed set of requests, starting from cold engine caches,
//! and the run repeats passes until its time is up. Every request
//! hands the program AIGER bytes only.
//!
//! * `table3` — the paper's 15 suite circuits in seed-shuffled order,
//!   one client: parse → synth → map onto TG static, TG pseudo and
//!   CMOS; verification off.
//! * `certify` — one client, circuits in list order: parse → synth →
//!   map (TG static) → `verify_mapping_report` for the suite (C6288
//!   aside, see [`c6288_probe`]) plus the 9-bit array multiplier; the
//!   seed picks the known-answer negatives and the check patterns.
//! * `stream` — one `SynthService` per pass with verification on,
//!   driven by one client per CPU over a seeded request sequence in
//!   which 60 % of the requests repeat an earlier circuit.

use crate::check::{self, Rng};
use crate::stats::quantile;
use crate::trace::{Ctx, Tracer};
use cntfet_aig::{parse_aiger, write_aiger_binary, Aig, CecReport, CecResult};
use cntfet_bench::serve::{ServeOutcome, ServeStats, SynthRequest, SynthService};
use cntfet_boolfn::CacheStats;
use cntfet_core::{Library, LogicFamily};
use cntfet_synth::{resyn2rs_with, SynthOptions};
use cntfet_techmap::{map, mapping_to_aig, verify_mapping_report, MapOptions, Mapping};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Words of random patterns (64 patterns each) in every output check.
const CHECK_WORDS: usize = 4;
/// Known-answer negatives per `certify` pass.
const NEGATIVES: usize = 3;
/// The suite circuit `certify` runs as a traced side probe only.
pub const C6288: &str = "C6288";

/// One generated input: the original graph and its AIGER encoding.
pub struct Circuit {
    pub name: String,
    pub aig: Aig,
    pub aiger: Vec<u8>,
}

impl Circuit {
    fn new(name: impl Into<String>, aig: Aig) -> Circuit {
        let aiger = write_aiger_binary(&aig);
        Circuit {
            name: name.into(),
            aig,
            aiger,
        }
    }
}

/// The paper's 15 Table 3 circuits, in row order.
pub fn suite() -> Vec<Circuit> {
    cntfet_circuits::paper_benchmarks()
        .into_iter()
        .map(|b| Circuit::new(b.name, b.aig))
        .collect()
}

/// `certify`'s circuits: the suite without C6288, plus the 9-bit
/// array multiplier (too wide for exhaustive simulation, too small
/// for sweeping, so it takes the plain output-miter path).
pub fn certify_set() -> Vec<Circuit> {
    let mut v: Vec<Circuit> = suite().into_iter().filter(|c| c.name != C6288).collect();
    v.push(Circuit::new("mul-9", cntfet_circuits::array_multiplier(9)));
    v
}

/// `stream`'s catalog of distinct circuits. It is fixed, so the work
/// and the quality totals of a pass do not depend on the seed; the
/// seed decides the request sequence drawn from it.
pub fn stream_catalog() -> Vec<Circuit> {
    use cntfet_circuits::{
        array_multiplier, cla_adder, majority, mux_tree, parity, random_logic, ripple_adder,
    };
    let mut v = Vec::new();
    for n in (4..=64).step_by(2) {
        v.push(Circuit::new(format!("ripple-{n}"), ripple_adder(n)));
    }
    for n in (4..=32).step_by(4) {
        v.push(Circuit::new(format!("cla-{n}"), cla_adder(n)));
    }
    for n in 2..=8 {
        v.push(Circuit::new(format!("mul-{n}"), array_multiplier(n)));
    }
    for n in (8..=64).step_by(4) {
        v.push(Circuit::new(format!("parity-{n}"), parity(n)));
    }
    for n in (3..=15).step_by(2) {
        v.push(Circuit::new(format!("maj-{n}"), majority(n)));
    }
    for k in 2..=5 {
        v.push(Circuit::new(format!("mux-{k}"), mux_tree(k)));
    }
    for i in 0..24 {
        let name = format!("rand-{i}");
        let aig = random_logic(&name, 8 + 40 * i / 23, 1 + i % 8, 0x5EED_0000 + i as u64);
        v.push(Circuit::new(name, aig));
    }
    v
}

/// A stream pass's request sequence over `n` catalog entries: every
/// entry once, plus `1.5 · n` repeats of entries already
/// requested, mixed by `rng`. With 60 % of the requests repeats, the
/// median request is a cache hit.
pub fn request_sequence(n: usize, rng: &mut Rng) -> Vec<usize> {
    let repeats = n * 3 / 2;
    let mut fresh: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut fresh);
    let mut fresh = fresh.into_iter();
    let (mut seen, mut sent_repeats, mut seq) = (Vec::new(), 0, Vec::with_capacity(n + repeats));
    while seq.len() < n + repeats {
        let repeat =
            !seen.is_empty() && sent_repeats < repeats && (seen.len() == n || rng.below(5) < 3);
        let c = if repeat {
            sent_repeats += 1;
            seen[rng.below(seen.len())]
        } else {
            let c = fresh.next().expect("fewer than n fresh requests were sent");
            seen.push(c);
            c
        };
        seq.push(c);
    }
    seq
}

/// Quality of results, summed over the mappings of one pass in a fixed
/// order (so the float sums repeat exactly).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Qor {
    pub ands: f64,
    pub gates: f64,
    pub area: f64,
    pub delay_ps: f64,
}

/// Everything a run measured; the report turns it into metrics.
#[derive(Debug, Default)]
pub struct RunLog {
    pub pass_wall_s: Vec<f64>,
    pub pass_cpu_s: Vec<f64>,
    pub pass_peak_rss_mb: Vec<f64>,
    /// Per-request latencies of every pass, in completion order.
    pub latencies_ms: Vec<f64>,
    pub pass_p50_ms: Vec<f64>,
    pub pass_p95_ms: Vec<f64>,
    pub requests: usize,
    pub attempted: usize,
    pub failed: usize,
    pub errors: Vec<String>,
    pub qor: Qor,
    pub ands_removed: u64,
    pub sat_conflicts: u64,
    pub sat_propagations: u64,
    pub internal_proofs: u64,
    pub refinements: u64,
    pub exhaustive_checks: u64,
    pub negatives: usize,
    pub serve_hits: usize,
    pub serve_misses: usize,
    pub duplicate_misses: usize,
    pub serve_hit_ms: Vec<f64>,
    pub serve_miss_ms: Vec<f64>,
    /// Engine cache traffic of the timed parts.
    pub caches: Caches,
    /// Optimized graphs of the last pass (input to the cut probe).
    pub optimized: Vec<Aig>,
}

impl RunLog {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(what);
        }
    }

    fn absorb_report(&mut self, r: &CecReport) {
        self.sat_conflicts += r.sat_stats.conflicts;
        self.sat_propagations += r.sat_stats.propagations;
        self.internal_proofs += r.internal_proofs;
        self.refinements += r.refinements;
        self.exhaustive_checks += u64::from(r.exhaustive);
    }
}

/// Runs passes until `seconds` have been spent in their timed parts
/// (at least one pass). Each pass starts from cold engine caches and
/// returns the wall and CPU seconds of its timed part; what it does
/// after [`timed`] (the output checks) is not measured.
fn run_passes(seconds: f64, log: &mut RunLog, mut pass: impl FnMut(usize, &mut RunLog) -> Timed) {
    let mut spent = 0.0;
    let mut i = 0;
    while i == 0 || spent < seconds {
        cntfet_bench::clear_result_caches();
        let first_request = log.latencies_ms.len();
        let t = pass(i, log);
        let latencies = &log.latencies_ms[first_request..];
        log.pass_p50_ms.push(quantile(latencies, 0.50));
        log.pass_p95_ms.push(quantile(latencies, 0.95));
        log.pass_wall_s.push(t.wall_s);
        log.pass_cpu_s.push(t.cpu_s);
        log.pass_peak_rss_mb.push(t.peak_rss_mb);
        log.caches.add(&t.caches);
        spent += t.wall_s;
        i += 1;
    }
}

/// What [`timed`] measured.
pub struct Timed {
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    caches: Caches,
}

/// Runs `f`; returns what it cost (wall seconds, process CPU seconds,
/// peak resident memory, engine cache traffic) and its result. The
/// peak is taken over `f` alone, so memory that the unmeasured checks
/// use between passes does not count.
fn timed<R>(f: impl FnOnce() -> R) -> (Timed, R) {
    crate::sys::reset_peak_rss();
    let (t0, cpu0, caches0) = (Instant::now(), crate::sys::cpu_seconds(), Caches::now());
    let out = f();
    let t = Timed {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: crate::sys::cpu_seconds() - cpu0,
        peak_rss_mb: crate::sys::peak_rss_mb(),
        caches: Caches::now().minus(&caches0),
    };
    (t, out)
}

/// Hit/miss counters of the process-wide engine caches.
#[derive(Debug, Default, Clone, Copy)]
pub struct Caches {
    pub synth: CacheStats,
    pub map: CacheStats,
    pub cec: CacheStats,
    pub npn: CacheStats,
}

impl Caches {
    fn now() -> Caches {
        Caches {
            synth: cntfet_synth::synth_cache_stats(),
            map: cntfet_techmap::map_cache_stats(),
            cec: cntfet_aig::cec_cache_stats(),
            npn: cntfet_boolfn::canon_cache_stats(),
        }
    }

    fn minus(&self, before: &Caches) -> Caches {
        let d = |a: CacheStats, b: CacheStats| CacheStats {
            hits: a.hits - b.hits,
            misses: a.misses - b.misses,
        };
        Caches {
            synth: d(self.synth, before.synth),
            map: d(self.map, before.map),
            cec: d(self.cec, before.cec),
            npn: d(self.npn, before.npn),
        }
    }

    fn add(&mut self, other: &Caches) {
        self.synth.absorb(&other.synth);
        self.map.absorb(&other.map);
        self.cec.absorb(&other.cec);
        self.npn.absorb(&other.npn);
    }
}

fn parse(tracer: &Tracer, ctx: Ctx, c: &Circuit) -> Result<Aig, String> {
    tracer
        .span("aig.parse", "", ctx, |_| parse_aiger(&c.aiger))
        .map_err(|e| format!("{}: parse: {e}", c.name))
}

/// One pass's result for one request of `table3` or `certify`.
struct Done {
    circuit: usize,
    optimized: Aig,
    mappings: Vec<Mapping>,
}

/// `table3` / `certify` share one single-client loop; `verify` picks
/// the workload, `shuffle` sends the circuits in seed-shuffled order
/// rather than in list order. The (unmeasured) output checks run after
/// each pass.
pub fn run_single_client(
    circuits: &[Circuit],
    libs: &[(Library, &'static str)],
    verify: bool,
    shuffle: bool,
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
) -> RunLog {
    let mut log = RunLog::default();
    let mut req = 0u32;
    run_passes(seconds, &mut log, |pass, log| {
        let mut order: Vec<usize> = (0..circuits.len()).collect();
        if shuffle {
            Rng::new(seed, 1 + pass as u64).shuffle(&mut order);
        }
        let mut done: Vec<Done> = Vec::with_capacity(circuits.len());
        let (t, ()) = timed(|| {
            tracer.span(
                "pass",
                "",
                Ctx {
                    req: u32::MAX,
                    ..Ctx::default()
                },
                |pctx| {
                    for &ci in &order {
                        let c = &circuits[ci];
                        req += 1;
                        let t0 = Instant::now();
                        let ctx = Ctx { req, ..pctx };
                        let out = tracer.span("request", "", ctx, |ctx| -> Result<Done, String> {
                            let aig = parse(tracer, ctx, c)?;
                            let optimized = tracer.span("synth", "", ctx, |_| {
                                resyn2rs_with(&aig, &SynthOptions::default())
                            });
                            let mut mappings = Vec::with_capacity(libs.len());
                            for (lib, label) in libs {
                                let m = tracer.span("techmap.map", label, ctx, |_| {
                                    map(&optimized, lib, MapOptions::default())
                                });
                                if verify {
                                    let r = tracer.span("verify", "", ctx, |_| {
                                        verify_mapping_report(&optimized, &m, lib)
                                    });
                                    log.absorb_report(&r);
                                    if r.result != CecResult::Equivalent {
                                        return Err(format!(
                                            "{}: verifier rejected the mapping",
                                            c.name
                                        ));
                                    }
                                }
                                mappings.push(m);
                            }
                            Ok(Done {
                                circuit: ci,
                                optimized,
                                mappings,
                            })
                        });
                        log.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                        log.requests += 1;
                        log.attempted += 1;
                        match out {
                            Ok(d) => done.push(d),
                            Err(e) => log.fail(e),
                        }
                    }
                },
            )
        });
        check_pass(circuits, libs, verify, seed, pass, done, log);
        t
    });
    log
}

/// Output checks of one pass: the independent evaluator on every
/// mapping, quality totals, and (for `certify`) the known-answer
/// negatives.
fn check_pass(
    circuits: &[Circuit],
    libs: &[(Library, &'static str)],
    verify: bool,
    seed: u64,
    pass: usize,
    mut done: Vec<Done>,
    log: &mut RunLog,
) {
    done.sort_by_key(|d| d.circuit);
    let mut rng = Rng::new(seed, 1000 + pass as u64);
    let mut qor = Qor::default();
    for d in &done {
        let c = &circuits[d.circuit];
        let patterns = check::random_patterns(c.aig.num_pis(), CHECK_WORDS, &mut rng);
        qor.ands += d.optimized.num_ands() as f64;
        log.ands_removed += c.aig.num_ands().saturating_sub(d.optimized.num_ands()) as u64;
        for (m, (lib, label)) in d.mappings.iter().zip(libs) {
            let rebuilt = mapping_to_aig(m, lib, c.aig.num_pis());
            if !check::agree(&c.aig, &rebuilt, &patterns, CHECK_WORDS) {
                log.fail(format!(
                    "{}: {label} mapping differs from the input",
                    c.name
                ));
            }
            qor.gates += m.stats.gates as f64;
            qor.area += m.stats.area;
            qor.delay_ps += m.stats.delay_ps;
        }
    }
    if done.len() == circuits.len() {
        log.qor = qor;
    }
    if verify && !done.is_empty() {
        let (lib, _) = &libs[0];
        for _ in 0..NEGATIVES {
            let d = &done[rng.below(done.len())];
            let name = &circuits[d.circuit].name;
            log.attempted += 1;
            log.negatives += 1;
            let Some(bad) = check::corrupt(&d.mappings[0], &mut rng) else {
                log.fail(format!("{name}: no gate drives an output"));
                continue;
            };
            let ok = match verify_mapping_report(&d.optimized, &bad, lib).result {
                CecResult::Counterexample { inputs, output } => {
                    let rebuilt = mapping_to_aig(&bad, lib, d.optimized.num_pis());
                    check::differ_at(&d.optimized, &rebuilt, &inputs, output)
                }
                CecResult::Equivalent => false,
            };
            if !ok {
                log.fail(format!("{name}: known-answer negative not caught"));
            }
        }
    }
    log.optimized = done.into_iter().map(|d| d.optimized).collect();
}

/// One request's result in a `stream` pass.
struct Served {
    circuit: usize,
    outcome: ServeOutcome,
    serve_ms: f64,
}

/// `stream`: one service per pass, `clients` closed-loop clients.
pub fn run_stream(
    catalog: &[Circuit],
    first_service: SynthService,
    make_service: impl Fn() -> SynthService,
    clients: usize,
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
) -> RunLog {
    let mut log = RunLog::default();
    let mut reference: Vec<Option<ServeStats>> = vec![None; catalog.len()];
    let next_req = AtomicUsize::new(0);
    let mut service = first_service;
    let mut seq = request_sequence(catalog.len(), &mut Rng::new(seed, 1));
    run_passes(seconds, &mut log, |pass, log| {
        let served = Mutex::new(Vec::with_capacity(seq.len()));
        let next = AtomicUsize::new(0);
        let (t, ()) = timed(|| {
            tracer.span(
                "pass",
                "",
                Ctx {
                    req: u32::MAX,
                    ..Ctx::default()
                },
                |pctx| {
                    std::thread::scope(|s| {
                        for client in 0..clients {
                            let (served, next, seq, service) = (&served, &next, &seq, &service);
                            let next_req = &next_req;
                            s.spawn(move || loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                let Some(&ci) = seq.get(i) else { break };
                                let c = &catalog[ci];
                                let req = next_req.fetch_add(1, Ordering::Relaxed) as u32 + 1;
                                let t0 = Instant::now();
                                let ctx = Ctx {
                                    req,
                                    client: client as u32,
                                    ..pctx
                                };
                                let out = tracer.span("request", "", ctx, |ctx| {
                                    let aig = parse(tracer, ctx, c)?;
                                    let request = SynthRequest::new(c.name.clone(), aig);
                                    let t = Instant::now();
                                    let outcome = tracer
                                        .span("serve.run", "", ctx, |_| service.run(&request));
                                    Ok::<_, String>(Served {
                                        circuit: ci,
                                        outcome,
                                        serve_ms: t.elapsed().as_secs_f64() * 1e3,
                                    })
                                });
                                let ms = t0.elapsed().as_secs_f64() * 1e3;
                                served
                                    .lock()
                                    .expect("no client panics while holding the lock")
                                    .push((out, ms));
                            });
                        }
                    });
                },
            )
        });
        check_stream_pass(
            catalog,
            served.into_inner().expect("clients joined"),
            &mut reference,
            log,
        );
        // Untimed: the next pass gets a fresh service (cold service
        // cache) and a fresh request sequence.
        service = make_service();
        seq = request_sequence(catalog.len(), &mut Rng::new(seed, 2 + pass as u64));
        t
    });
    if reference.iter().all(Option::is_some) {
        let mut qor = Qor::default();
        for s in reference.iter().flatten() {
            qor.ands += s.optimized.0 as f64;
            qor.gates += s.mapping.gates as f64;
            qor.area += s.mapping.area;
            qor.delay_ps += s.mapping.delay_ps;
        }
        log.qor = qor;
    }
    log
}

/// Checks of one `stream` pass: every request done and verified, the
/// parsed input intact, and every answer for a circuit equal to the
/// first one the run got for it (cache hits included).
fn check_stream_pass(
    catalog: &[Circuit],
    served: Vec<(Result<Served, String>, f64)>,
    reference: &mut [Option<ServeStats>],
    log: &mut RunLog,
) {
    let mut misses_per_circuit: HashMap<usize, usize> = HashMap::new();
    for (s, latency_ms) in served {
        log.latencies_ms.push(latency_ms);
        log.requests += 1;
        log.attempted += 1;
        let s = match s {
            Ok(s) => s,
            Err(e) => {
                log.fail(e);
                continue;
            }
        };
        let c = &catalog[s.circuit];
        let ServeOutcome::Done { stats, cached, .. } = s.outcome else {
            log.fail(format!("{}: request did not complete", c.name));
            continue;
        };
        if cached {
            log.serve_hits += 1;
            log.serve_hit_ms.push(s.serve_ms);
        } else {
            log.serve_misses += 1;
            log.serve_miss_ms.push(s.serve_ms);
            log.ands_removed += stats.input.0.saturating_sub(stats.optimized.0) as u64;
            *misses_per_circuit.entry(s.circuit).or_default() += 1;
        }
        if stats.verified != Some(true) {
            log.fail(format!("{}: mapping not verified equivalent", c.name));
        } else if stats.input.0 != c.aig.num_ands() {
            log.fail(format!("{}: parsed input has the wrong size", c.name));
        } else if stats.optimized.0 > stats.input.0 {
            log.fail(format!("{}: synthesis grew the circuit", c.name));
        } else {
            match &reference[s.circuit] {
                None => reference[s.circuit] = Some(stats),
                Some(r) if *r == stats => {}
                Some(_) => log.fail(format!("{}: answer differs from an earlier one", c.name)),
            }
        }
    }
    log.duplicate_misses += misses_per_circuit.values().map(|&m| m - 1).sum::<usize>();
}

/// The traced side probe of `certify`: C6288 through parse → synth →
/// map (TG static) → verify at the default worker count. It runs on
/// its own thread so the run can give up on it at `deadline_s`;
/// returns (milliseconds spent, SAT conflicts, completed, verdict ok).
pub fn c6288_probe(c: Circuit, lib: Library, deadline_s: f64) -> (f64, u64, bool, bool) {
    let (tx, rx) = std::sync::mpsc::channel();
    let t0 = Instant::now();
    // Detached on purpose: if the deadline passes, the process exits
    // with the probe still running.
    let _probe = std::thread::spawn(move || {
        let ok_and_conflicts = parse_aiger(&c.aiger).ok().map(|aig| {
            let optimized = resyn2rs_with(&aig, &SynthOptions::default());
            let m = map(&optimized, &lib, MapOptions::default());
            let t = Instant::now();
            let r = verify_mapping_report(&optimized, &m, &lib);
            let verify_ms = t.elapsed().as_secs_f64() * 1e3;
            let mut rng = Rng::new(0x6288, 0);
            let patterns = check::random_patterns(c.aig.num_pis(), CHECK_WORDS, &mut rng);
            let rebuilt = mapping_to_aig(&m, &lib, c.aig.num_pis());
            let ok = r.result == CecResult::Equivalent
                && check::agree(&c.aig, &rebuilt, &patterns, CHECK_WORDS);
            (ok, r.sat_stats.conflicts, verify_ms)
        });
        let _ = tx.send(ok_and_conflicts);
    });
    let wait = std::time::Duration::from_secs_f64(deadline_s.max(0.0));
    match rx.recv_timeout(wait) {
        Ok(Some((ok, conflicts, verify_ms))) => (verify_ms, conflicts, true, ok),
        Ok(None) => (t0.elapsed().as_secs_f64() * 1e3, 0, true, false),
        Err(_) => (t0.elapsed().as_secs_f64() * 1e3, 0, false, true),
    }
}

/// `resyn2rs` of every parsed catalog circuit, for the cut probe of
/// `stream` (answered from the synthesis cache the last pass filled).
pub fn optimized_catalog(catalog: &[Circuit]) -> Vec<Aig> {
    catalog
        .iter()
        .filter_map(|c| parse_aiger(&c.aiger).ok())
        .map(|aig| resyn2rs_with(&aig, &SynthOptions::default()))
        .collect()
}

/// The Table 3 libraries with their metric labels.
pub fn table3_libraries() -> Vec<(Library, &'static str)> {
    let [s, p, c] = cntfet_bench::suite_libraries();
    vec![(s, "tg_static"), (p, "tg_pseudo"), (c, "cmos")]
}

pub fn tg_static() -> Vec<(Library, &'static str)> {
    vec![(Library::new(LogicFamily::TgStatic), "tg_static")]
}
