//! Regenerates **Table 3** of the paper: technology-mapping results
//! (gate count, area, logic depth, normalized and absolute delay) for
//! all 15 benchmarks in the CNTFET static, CNTFET pseudo and CMOS
//! libraries, including the Average and Improvement rows.
//!
//! Every mapping is SAT-verified against the optimized netlist unless
//! `--fast` is given. `--objective area` / `--objective delay` report
//! the area- and delay-pressed corners of the multi-objective coverer
//! instead of the default balanced covering; `--delay-rounds N`
//! overrides the arrival-aware re-enumeration round bound (`0`
//! reproduces the single-enumeration engine); `--jobs N` sets the
//! worker-thread budget (default: `CNTFET_JOBS` or the detected core
//! count — the table is identical for every value); `--input FILE`
//! (repeatable) runs external AIGER/BLIF circuits through the same
//! pipeline instead of the built-in suite. Any other argument is
//! rejected with exit code 2.

use cntfet_bench::serve::load_circuit;
use cntfet_bench::{print_table3, run_circuit, run_suite_with, suite_libraries, Table3Row};
use cntfet_techmap::{MapOptions, Objective};

fn main() {
    let mut fast = false;
    let mut objective = Objective::Balanced;
    let mut delay_rounds = MapOptions::default().delay_rounds;
    // `--input FILE` (repeatable): run external circuits instead of
    // the built-in suite.
    let mut inputs: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fast" => fast = true,
            "--objective" => {
                objective = match args.next().as_deref() {
                    Some("area") => Objective::Area,
                    Some("delay") => Objective::Delay,
                    Some("balanced") => Objective::Balanced,
                    other => {
                        eprintln!(
                            "unknown objective {other:?}: expected area, delay or balanced"
                        );
                        std::process::exit(2);
                    }
                }
            }
            "--delay-rounds" => match args.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) => delay_rounds = n,
                None => {
                    eprintln!("--delay-rounds expects a non-negative integer");
                    std::process::exit(2);
                }
            },
            "--jobs" => match args.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n > 0 => threadpool::Jobs::set(n),
                _ => {
                    eprintln!("--jobs expects a positive integer");
                    std::process::exit(2);
                }
            },
            "--input" => match args.next() {
                Some(f) if !f.starts_with("--") => inputs.push(f),
                _ => {
                    eprintln!("--input expects a file path (.aag, .aig or .blif)");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!(
                    "unknown argument {other:?}: expected --fast, --objective, \
                     --delay-rounds, --jobs or --input"
                );
                std::process::exit(2);
            }
        }
    }

    println!("== Table 3 reproduction: synthesis + technology mapping ==");
    println!(
        "(resyn2rs optimization, 6-cut NPN matching, {objective:?} covering, \
         {delay_rounds} arrival round(s), {} worker(s); verification {})\n",
        threadpool::Jobs::get(),
        if fast { "OFF (--fast)" } else { "ON" }
    );
    let t0 = std::time::Instant::now();
    let map_opts = MapOptions { objective, delay_rounds, ..Default::default() };
    let rows: Vec<Table3Row> = if inputs.is_empty() {
        run_suite_with(!fast, None, map_opts)
    } else {
        let libs = suite_libraries();
        let _ = cntfet_boolfn::RwrLibrary::global();
        inputs
            .iter()
            .map(|f| match load_circuit(std::path::Path::new(f)) {
                Ok(aig) => {
                    let name = aig.name().to_string();
                    run_circuit(&name, "external", &aig, !fast, map_opts, &libs)
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            })
            .collect()
    };
    print_table3(&rows);
    let all_verified = rows.iter().all(|r| r.verified);
    println!(
        "\n{} benchmarks in {:.1}s — equivalence checks: {}",
        rows.len(),
        t0.elapsed().as_secs_f64(),
        if fast {
            "skipped".to_string()
        } else if all_verified {
            "ALL PASSED".to_string()
        } else {
            "FAILURES!".to_string()
        }
    );
    println!(
        "\npaper averages: static 762 gates / 6727 area / 21.3 lvl / 198.7τ / 117.2 ps;\n\
         pseudo 771 / 3839 / 21.7 / 234.8 / 138.5; CMOS 1241 / 10805 / 36.4 / 269.9 / 809.7\n\
         paper improvements: 38.6% gates, 37.7%/64.5% area, 41.5%/40.4% levels, 6.9×/5.8× speed"
    );
    if !fast && !all_verified {
        std::process::exit(1);
    }
}
