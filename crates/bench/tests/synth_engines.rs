//! Synthesis quality regression: the in-place DAG-aware `resyn2rs`
//! must never be worse than the seed rebuild engine's frozen outcomes
//! (`SEED_SYNTH_BASELINE`) in `(ands, depth)` on any benchmark of the
//! full Table 3 suite, with every output CEC-verified against the
//! source circuit.

use cntfet_bench::{compare_with_seed_baseline, SEED_SYNTH_BASELINE};

#[test]
fn inplace_resyn2rs_never_worse_than_seed_on_full_suite() {
    let seed_total: usize = SEED_SYNTH_BASELINE.iter().map(|r| r.1).sum();
    assert_eq!(seed_total, 27_139, "frozen seed baseline edited");
    let cmp = compare_with_seed_baseline(true);
    assert_eq!(cmp.len(), 15, "full suite expected");
    for c in &cmp {
        assert!(c.verified, "{}: in-place output failed CEC", c.name);
        assert!(
            c.never_worse(),
            "{}: in-place {}/{} worse than seed {}/{}",
            c.name,
            c.inplace.ands,
            c.inplace.depth,
            c.seed.ands,
            c.seed.depth
        );
    }
}
