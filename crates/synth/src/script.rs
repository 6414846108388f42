//! Synthesis entry points: `resyn2rs`/`quick_opt` as scripts over the
//! pass framework, with a never-worse guard.

use crate::pass::{AigStats, Script};
use cntfet_aig::Aig;

/// Options of [`resyn2rs_with`].
///
/// # Examples
///
/// ```
/// use cntfet_aig::{equivalent, Aig};
/// use cntfet_synth::{resyn2rs_with, SynthOptions};
///
/// let mut g = Aig::new("chain");
/// let pis = g.add_pis(8);
/// let mut acc = pis[0];
/// for &p in &pis[1..] {
///     acc = g.and(acc, p);
/// }
/// g.add_po(acc);
///
/// // One self-checked round.
/// let opts = SynthOptions { rounds: 1, self_check: true };
/// let opt = resyn2rs_with(&g, &opts);
/// assert!(equivalent(&g, &opt));
/// assert!(opt.depth() <= 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SynthOptions {
    /// Maximum script rounds (each round runs the full pass sequence;
    /// iteration stops early once a round stops improving).
    pub rounds: usize,
    /// Run the CEC self-check hook after every pass (expensive;
    /// intended for tests and debugging).
    pub self_check: bool,
}

impl Default for SynthOptions {
    fn default() -> Self {
        SynthOptions { rounds: 4, self_check: false }
    }
}

/// Everything that determines a synthesis outcome: the input's
/// structural fingerprint, the full options and the script kind
/// (`0` = resyn2rs, `1` = quick). The worker count is deliberately
/// *not* part of the key: synthesis runs on the calling thread, so
/// synthesized graphs are bit-identical at every worker count
/// (asserted by the workspace `determinism` tests) and one cached
/// result serves every `jobs` setting.
type SynthKey = (u128, SynthOptions, u8);

/// The process-wide synthesis result cache: optimized graphs keyed by
/// [`SynthKey`].
fn synth_cache() -> &'static cntfet_aig::ResultCache<SynthKey, Aig> {
    static CACHE: std::sync::OnceLock<cntfet_aig::ResultCache<SynthKey, Aig>> =
        std::sync::OnceLock::new();
    CACHE.get_or_init(|| cntfet_aig::ResultCache::new(256))
}

/// Hit/miss counters of the process-wide synthesis result cache.
pub fn synth_cache_stats() -> cntfet_boolfn::CacheStats {
    synth_cache().stats()
}

/// Drops every entry of the process-wide synthesis result cache
/// (counters keep accumulating) — used by benchmarks to measure cold
/// runs.
pub fn clear_synth_cache() {
    synth_cache().clear();
}

/// Runs the `resyn2rs`-flavoured optimization script with default
/// options (4 rounds).
///
/// Returns an AIG logically equivalent to the input that is never
/// worse than it in `(ands, depth)`: each round must strictly improve
/// or its result is discarded.
pub fn resyn2rs(aig: &Aig) -> Aig {
    resyn2rs_with(aig, &SynthOptions::default())
}

/// [`resyn2rs`] with explicit [`SynthOptions`].
///
/// Results are memoized process-wide under the input's structural
/// fingerprint and the options ([`synth_cache_stats`] reads the
/// counters; `CNTFET_NO_CACHE=1` disables the memo).
pub fn resyn2rs_with(aig: &Aig, opts: &SynthOptions) -> Aig {
    synth_cache().get_or_insert_with((aig.fingerprint(), *opts, 0), || {
        run_rounds(aig, opts, Script::resyn2rs)
    })
}

/// A light script for quick optimization (one balance + rewrite),
/// memoized like [`resyn2rs_with`] under its own script-kind tag.
pub fn quick_opt(aig: &Aig) -> Aig {
    let opts = SynthOptions { rounds: 1, ..Default::default() };
    synth_cache().get_or_insert_with((aig.fingerprint(), opts, 1), || {
        run_rounds(aig, &opts, Script::quick)
    })
}

/// Round loop with the never-worse guard: keeps the best `(ands,
/// depth)` snapshot, stops as soon as a round fails to improve it.
/// One [`Script`] instance runs all rounds, so its no-op skip state
/// carries over — a converged graph's follow-up round costs almost
/// nothing.
fn run_rounds(aig: &Aig, opts: &SynthOptions, script: fn() -> Script) -> Aig {
    let mut best = aig.compact();
    let mut best_stats = AigStats::of(&best);
    let mut script = script().with_self_check(opts.self_check);
    for _round in 0..opts.rounds {
        let mut cur = best.clone();
        script.run(&mut cur);
        let stats = AigStats::of(&cur);
        if stats.better_than(&best_stats) {
            best = cur;
            best_stats = stats;
        } else {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use cntfet_aig::equivalent;

    /// A messy ripple-carry adder with redundant logic sprinkled in.
    fn messy_adder(bits: usize) -> Aig {
        let mut g = Aig::new("messy");
        let a = g.add_pis(bits);
        let b = g.add_pis(bits);
        let mut carry = cntfet_aig::Lit::FALSE;
        for i in 0..bits {
            let x = g.xor(a[i], b[i]);
            let s = g.xor(x, carry);
            // Redundant re-computation of the same sum.
            let x2 = g.xor(b[i], a[i]);
            let s2 = g.xor(carry, x2);
            let both = g.and(s, s2); // == s
            g.add_po(both);
            let c1 = g.and(a[i], b[i]);
            let c2 = g.and(x, carry);
            carry = g.or(c1, c2);
        }
        g.add_po(carry);
        g
    }

    #[test]
    fn resyn2rs_preserves_function_and_shrinks() {
        let g = messy_adder(6);
        let o = resyn2rs(&g);
        assert!(equivalent(&g, &o), "resyn2rs must preserve the function");
        assert!(o.num_ands() <= g.num_ands(), "{} -> {}", g.num_ands(), o.num_ands());
    }

    #[test]
    fn in_place_never_worse_than_seed_on_messy_adders() {
        // The retired seed rebuild engine's `resyn2rs` outcomes on
        // these adders, frozen when it was deleted.
        let seed = [
            (2usize, AigStats { ands: 13, depth: 4 }),
            (4, AigStats { ands: 31, depth: 8 }),
            (6, AigStats { ands: 49, depth: 12 }),
        ];
        for (bits, os) in seed {
            let g = messy_adder(bits);
            let new = resyn2rs(&g);
            assert!(equivalent(&g, &new));
            let ns = AigStats::of(&new);
            assert!(
                ns.ands < os.ands || (ns.ands == os.ands && ns.depth <= os.depth),
                "bits={bits}: in-place {ns:?} vs seed {os:?}"
            );
        }
    }

    #[test]
    fn quick_opt_preserves_function() {
        let g = messy_adder(4);
        let o = quick_opt(&g);
        assert!(equivalent(&g, &o));
    }

    #[test]
    fn self_check_mode_runs_clean() {
        let g = messy_adder(3);
        let opts = SynthOptions { rounds: 2, self_check: true };
        let o = resyn2rs_with(&g, &opts);
        assert!(equivalent(&g, &o));
    }

    #[test]
    fn stats_capture() {
        let g = messy_adder(2);
        let s = AigStats::of(&g);
        assert!(s.ands > 0);
        assert!(s.depth > 0);
    }
}
