//! The repository benchmark: the paper's flow (AIGER in → synthesis →
//! CNTFET/CMOS mapping → certified netlist) measured end to end and
//! layer by layer, at the default worker count.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table3|certify|stream --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run is a fresh process. It generates its inputs from the seed,
//! sets up (libraries, rewriting tables, service), then repeats
//! passes of the workload (see [`workloads`]) until `--seconds` have
//! been spent in them, checks every output, and prints one JSON line
//! last: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! spans are recorded around every call into the program, the
//! per-layer metrics and side probes are reported instead, and the
//! spans are written to `perfbench/out/` as Chrome trace-event JSON.
//! Engines run at their default configuration: the worker count is
//! whatever `threadpool::Jobs` resolves, and it is printed with the
//! rest of the machine's configuration.

mod check;
mod stats;
mod sys;
mod trace;
mod workloads;

use cntfet_bench::serve::SynthService;
use stats::{beyond, median};
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::time::Instant;
use trace::{LayerTimes, Tracer};
use workloads::RunLog;

/// The tolerance of the traced consistency check: on the one-client
/// workloads the layer spans must cover the pass wall time to within
/// this share.
const COVERAGE_TOLERANCE: f64 = 0.02;
/// Set-up is measured in this many fresh processes.
const SETUP_REPS: usize = 7;
/// The traced `certify` run gives up on its C6288 probe when the
/// process has been running this long.
const PROBE_DEADLINE_S: f64 = 160.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["table3", "certify", "stream"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (table3, certify, stream)"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Everything a workload needs before its first request can be sent.
struct Ready {
    libs: Vec<(cntfet_core::Library, &'static str)>,
    service: Option<SynthService>,
}

fn set_up(workload: &str) -> Ready {
    let _ = cntfet_boolfn::RwrLibrary::global();
    match workload {
        "table3" => Ready {
            libs: workloads::table3_libraries(),
            service: None,
        },
        "certify" => Ready {
            libs: workloads::tg_static(),
            service: None,
        },
        _ => Ready {
            libs: Vec::new(),
            service: Some(new_service()),
        },
    }
}

fn new_service() -> SynthService {
    SynthService::new(cntfet_core::LogicFamily::TgStatic)
}

/// Set-up time: the median over [`SETUP_REPS`] fresh processes (this
/// binary with `--setup-only`) of the time from spawning one until it
/// reports that it is ready for its first request.
fn setup_probe(workload: &str) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("set-up probe: {e}"))?;
    let mut times = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let mut child = Command::new(&exe)
            .args(["--setup-only", workload])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("set-up probe: {e}"))?;
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .map(|out| BufReader::new(out).read_line(&mut line));
        let elapsed = t.elapsed().as_secs_f64();
        let status = child.wait().map_err(|e| format!("set-up probe: {e}"))?;
        if !matches!(read, Some(Ok(_))) || line.trim() != "ready" || !status.success() {
            return Err(format!("set-up probe: child failed ({status})"));
        }
        times.push(elapsed);
    }
    Ok(median(&times))
}

/// The median cost of one `par_map` region over `2 · jobs` no-op
/// tasks, microseconds.
fn dispatch_probe() -> f64 {
    let n = 2 * threadpool::Jobs::get();
    let mut us = Vec::with_capacity(200);
    for _ in 0..200 {
        let t = Instant::now();
        std::hint::black_box(threadpool::par_map(0, n, std::hint::black_box));
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&us)
}

/// Cut enumeration with the mapper's default parameters on each
/// graph: (total milliseconds, total cuts).
fn cut_probe(graphs: &[cntfet_aig::Aig]) -> (f64, usize) {
    let o = cntfet_techmap::MapOptions::default();
    let params = cntfet_aig::CutParams {
        k: o.cut_size,
        max_cuts: o.cuts_per_node,
        rank: o.cut_rank,
    };
    let (mut ms, mut cuts) = (0.0, 0);
    for g in graphs {
        let t = Instant::now();
        let arena = cntfet_aig::enumerate_cuts_with_jobs(g, params, o.jobs);
        ms += t.elapsed().as_secs_f64() * 1e3;
        cuts += arena.num_cuts();
    }
    (ms, cuts)
}

/// The mean cost of recording one span, microseconds.
fn span_cost_probe() -> f64 {
    let t = Tracer::new(true);
    let n = 20_000;
    let start = Instant::now();
    for i in 0..n {
        t.span(
            "probe",
            "",
            trace::Ctx {
                req: i,
                ..Default::default()
            },
            |_| (),
        );
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(n)
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn end_to_end(log: &RunLog, setup_s: f64) -> Metrics {
    let timed_s: f64 = log.pass_wall_s.iter().sum();
    vec![
        ("setup_s", setup_s, "s"),
        ("wall_s", median(&log.pass_wall_s), "s"),
        ("circuits_per_s", log.requests as f64 / timed_s, "1/s"),
        ("cpu_s", median(&log.pass_cpu_s), "s"),
        ("latency_p50_ms", median(&log.pass_p50_ms), "ms"),
        ("latency_p95_ms", median(&log.pass_p95_ms), "ms"),
        ("peak_rss_mb", log.pass_peak_rss_mb[0], "MiB"),
        ("ands", log.qor.ands, "count"),
        ("gates", log.qor.gates, "count"),
        ("area", log.qor.area, "units"),
        ("delay_ps", log.qor.delay_ps, "ps"),
    ]
}

/// The traced run's report: layer times from the spans (which are
/// also written out), counters, the consistency check and the side
/// probes. A failed check or probe is recorded in `log`.
fn per_layer(args: &Args, run: &Run, log: &mut RunLog, tracer: &Tracer) -> Metrics {
    let spans = tracer.spans();
    let layers = LayerTimes::of(&spans);
    let leaf_ms: f64 = ["aig.parse", "synth", "techmap.map", "verify", "serve.run"]
        .iter()
        .map(|l| layers.total(l))
        .sum();
    let coverage = leaf_ms / (layers.total("pass") * run.clients as f64);
    if run.clients == 1 {
        log.attempted += 1;
        if (coverage - 1.0).abs() > COVERAGE_TOLERANCE {
            log.fail(format!(
                "layer spans cover {coverage:.4} of the pass wall time (tolerance {COVERAGE_TOLERANCE})"
            ));
        }
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}-seed{}.trace.json", args.workload, args.seed));
    let written = std::fs::create_dir_all(path.parent().expect("a file path has a parent"))
        .and_then(|()| std::fs::write(&path, trace::chrome_json(&spans, &run.config)));
    match written {
        Ok(()) => println!("trace: {} spans written to {}", spans.len(), path.display()),
        Err(e) => println!("trace: not written ({e})"),
    }

    let dispatch_us = dispatch_probe();
    let optimized = if args.workload == "stream" {
        workloads::optimized_catalog(&run.circuits)
    } else {
        std::mem::take(&mut log.optimized)
    };
    let (cuts_ms, cuts) = cut_probe(&optimized);
    let (mut c6288_ms, mut c6288_conflicts, mut c6288_done) = (0.0, 0.0, 0.0);
    if args.workload == "certify" {
        let c6288 = workloads::suite()
            .into_iter()
            .find(|c| c.name == workloads::C6288)
            .expect("C6288 is in the suite");
        let left = PROBE_DEADLINE_S - run.started.elapsed().as_secs_f64();
        let (ms, conflicts, done, ok) = workloads::c6288_probe(c6288, run.libs[0].0.clone(), left);
        log.attempted += 1;
        if !ok {
            log.fail("C6288: mapping not verified equivalent".into());
        }
        (c6288_ms, c6288_conflicts, c6288_done) = (ms, conflicts as f64, f64::from(u8::from(done)));
    }

    let passes = log.pass_wall_s.len() as f64;
    let per_pass = |x: f64| x / passes;
    let count = |x: u64| per_pass(x as f64);
    let c = &log.caches;
    let lookups = (log.serve_hits + log.serve_misses).max(1) as f64;
    vec![
        ("aig.parse_ms", per_pass(layers.total("aig.parse")), "ms"),
        ("synth.ms", per_pass(layers.total("synth")), "ms"),
        ("synth.ands_removed", count(log.ands_removed), "count"),
        ("synth.cache_hits", count(c.synth.hits), "count"),
        (
            "techmap.map_ms",
            per_pass(layers.total("techmap.map")),
            "ms",
        ),
        (
            "techmap.map_tg_static_ms",
            per_pass(layers.total("techmap.map_tg_static")),
            "ms",
        ),
        (
            "techmap.map_tg_pseudo_ms",
            per_pass(layers.total("techmap.map_tg_pseudo")),
            "ms",
        ),
        (
            "techmap.map_cmos_ms",
            per_pass(layers.total("techmap.map_cmos")),
            "ms",
        ),
        ("techmap.cache_hits", count(c.map.hits), "count"),
        ("verify.ms", per_pass(layers.total("verify")), "ms"),
        ("verify.max_ms", layers.max("verify"), "ms"),
        ("sat.conflicts", count(log.sat_conflicts), "count"),
        ("sat.propagations", count(log.sat_propagations), "count"),
        ("sweep.internal_proofs", count(log.internal_proofs), "count"),
        ("sweep.refinements", count(log.refinements), "count"),
        (
            "verify.exhaustive_checks",
            count(log.exhaustive_checks),
            "count",
        ),
        ("verify.cache_hits", count(c.cec.hits), "count"),
        ("verify.negatives", count(log.negatives as u64), "count"),
        ("verify.c6288_ms", c6288_ms, "ms"),
        ("verify.c6288_conflicts", c6288_conflicts, "count"),
        ("verify.c6288_done", c6288_done, "bool"),
        ("boolfn.npn_hit_ratio", c.npn.hit_rate(), "ratio"),
        ("serve.ms", per_pass(layers.total("serve.run")), "ms"),
        ("serve.hit_ratio", log.serve_hits as f64 / lookups, "ratio"),
        (
            "serve.duplicate_misses",
            count(log.duplicate_misses as u64),
            "count",
        ),
        ("serve.hit_ms_p50", median(&log.serve_hit_ms), "ms"),
        ("serve.miss_ms", median(&log.serve_miss_ms), "ms"),
        (
            "request.self_ms",
            per_pass(layers.self_time("request")),
            "ms",
        ),
        ("threadpool.dispatch_us", dispatch_us, "us"),
        ("cuts.enumerate_ms", cuts_ms, "ms"),
        ("cuts.count", cuts as f64, "count"),
        ("trace.wall_s", median(&log.pass_wall_s), "s"),
        ("trace.layer_coverage", coverage, "ratio"),
        ("trace.spans", count(spans.len() as u64), "count"),
        ("trace.span_cost_us", span_cost_probe(), "us"),
        ("latency.samples", log.latencies_ms.len() as f64, "count"),
        (
            "failed_share",
            log.failed as f64 / log.attempted.max(1) as f64,
            "ratio",
        ),
    ]
}

/// What a run was given: its start, configuration, inputs and set-up.
struct Run {
    started: Instant,
    clients: usize,
    config: String,
    circuits: Vec<workloads::Circuit>,
    libs: Vec<(cntfet_core::Library, &'static str)>,
}

fn main() {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().collect();
    if let [_, flag, workload] = argv.as_slice() {
        if flag == "--setup-only" {
            let _ready = set_up(workload);
            println!("ready");
            let _ = std::io::stdout().flush();
            return;
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload table3|certify|stream --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let clients = if args.workload == "stream" {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        1
    };
    let config = sys::config_json(&args.workload, args.seed, args.seconds, args.trace, clients);
    println!("config {config}");

    // Set-up time is an end-to-end metric; the traced run skips it.
    let setup_s = if args.trace {
        0.0
    } else {
        setup_probe(&args.workload).unwrap_or_else(|e| {
            eprintln!("perfbench: {e}");
            std::process::exit(1)
        })
    };

    // Inputs (the benchmark's own work, not set-up).
    let gen = Instant::now();
    let circuits = match args.workload.as_str() {
        "table3" => workloads::suite(),
        "certify" => workloads::certify_set(),
        _ => workloads::stream_catalog(),
    };
    let mut rng = check::Rng::new(args.seed, 0);
    for c in &circuits {
        let parsed = cntfet_aig::parse_aiger(&c.aiger).expect("the AIGER writer's output parses");
        let patterns = check::random_patterns(c.aig.num_pis(), 4, &mut rng);
        assert!(
            check::agree(&c.aig, &parsed, &patterns, 4),
            "{}: AIGER round trip changed the circuit",
            c.name
        );
    }
    println!(
        "inputs: {} circuits generated in {:.3} s",
        circuits.len(),
        gen.elapsed().as_secs_f64()
    );

    let ready = set_up(&args.workload);
    let tracer = Tracer::new(args.trace);
    let (seed, seconds) = (args.seed, args.seconds as f64);
    let mut log = match (args.workload.as_str(), ready.service) {
        ("table3", _) => workloads::run_single_client(
            &circuits,
            &ready.libs,
            false,
            true,
            seed,
            seconds,
            &tracer,
        ),
        ("certify", _) => workloads::run_single_client(
            &circuits,
            &ready.libs,
            true,
            false,
            seed,
            seconds,
            &tracer,
        ),
        (_, service) => {
            let first = service.expect("set_up makes the stream service");
            workloads::run_stream(
                &circuits,
                first,
                new_service,
                clients,
                seed,
                seconds,
                &tracer,
            )
        }
    };
    let run = Run {
        started,
        clients,
        config,
        circuits,
        libs: ready.libs,
    };
    let metrics = if args.trace {
        per_layer(&args, &run, &mut log, &tracer)
    } else {
        end_to_end(&log, setup_s)
    };

    let n = log.latencies_ms.len() / log.pass_wall_s.len();
    println!(
        "run: {} passes, {} requests ({} per pass: {} beyond p50, {} beyond p95), {} attempted, {} failed, {:.1} s in total",
        log.pass_wall_s.len(),
        log.requests,
        n,
        beyond(n, 0.50),
        beyond(n, 0.95),
        log.attempted,
        log.failed,
        started.elapsed().as_secs_f64()
    );
    let passes: Vec<String> = (log.pass_wall_s.iter().zip(&log.pass_peak_rss_mb))
        .map(|(w, m)| format!("{w:.3}s/{m:.1}MiB"))
        .collect();
    println!("passes (wall, peak memory): {}", passes.join(" "));
    for e in &log.errors {
        println!("FAILED: {e}");
    }
    for (name, value, unit) in &metrics {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "{}:{{\"value\":{value},\"unit\":{}}}",
                sys::json_str(name),
                sys::json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        log.failed == 0,
        log.attempted.max(1),
        log.failed,
        body.join(",")
    );
    // A C6288 probe that missed its deadline is still running on a
    // detached thread; exiting here ends it.
    std::process::exit(0);
}
