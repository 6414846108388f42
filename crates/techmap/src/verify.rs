//! Reconstruction of a mapped netlist as an AIG and SAT-based
//! verification against the source network.

use crate::mapper::{Mapping, PoBinding, Source};
use cntfet_aig::{check_equivalence_sweeping_report, Aig, CecReport, CecResult, Lit, SweepOptions};
use cntfet_core::Library;
use std::collections::HashMap;

/// Rebuilds the logic of a mapped netlist as an AIG with the same
/// PI/PO interface as the source.
pub fn mapping_to_aig(mapping: &Mapping, library: &Library, num_pis: usize) -> Aig {
    let mut g = Aig::new("mapped");
    let pis = g.add_pis(num_pis);
    let mut value: HashMap<u32, Lit> = HashMap::new();

    let src_lit = |src: Source, compl: bool, value: &HashMap<u32, Lit>, pis: &[Lit]| -> Lit {
        let base = match src {
            Source::Pi(i) => pis[i],
            Source::Node(n) => *value.get(&(n.index() as u32)).expect("gate emitted before use"),
        };
        base.negate_if(compl)
    };

    for gate in &mapping.gates {
        let cell = &library.cells()[gate.cell];
        let expr = cell.gate.function();
        let leaves: Vec<Lit> = gate
            .pins
            .iter()
            .map(|&(src, compl)| src_lit(src, compl, &value, &pis))
            .collect();
        let lit = g.build_expr(&expr, &leaves).negate_if(gate.out_compl);
        value.insert(gate.root.index() as u32, lit);
    }

    for po in &mapping.pos {
        let lit = match *po {
            PoBinding::Const(compl) => Lit::FALSE.negate_if(compl),
            PoBinding::Signal(src, compl) => src_lit(src, compl, &value, &pis),
        };
        g.add_po(lit);
    }
    g
}

/// Checks that a mapping implements exactly the source AIG.
///
/// Every mapping, whatever its size, goes through the one three-tier
/// engine ([`cntfet_aig::check_equivalence_sweeping_report`] under
/// default [`SweepOptions`]): exhaustive simulation for ≤ 16 PIs, else
/// SAT sweeping, which exploits the structural similarity between a
/// netlist and its mapping, then the output miter. A plain miter
/// without sweeping chokes on arithmetic structure: the TG-static
/// mapping of the 9-bit array multiplier needed 88 606 conflicts there
/// and needs about a thousand under sweeping.
pub fn verify_mapping(source: &Aig, mapping: &Mapping, library: &Library) -> CecResult {
    verify_mapping_report(source, mapping, library).result
}

/// [`verify_mapping`] returning the full [`CecReport`], so callers
/// (repro binaries, benches) can track what the verification engine
/// cost — solver conflicts/propagations, internal sweeping proofs,
/// whether exhaustive simulation short-circuited the check.
pub fn verify_mapping_report(source: &Aig, mapping: &Mapping, library: &Library) -> CecReport {
    let rebuilt = mapping_to_aig(mapping, library, source.num_pis());
    check_equivalence_sweeping_report(source, &rebuilt, &SweepOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::{map, MapOptions};
    use cntfet_core::LogicFamily;

    fn full_adder_chain(bits: usize) -> Aig {
        let mut g = Aig::new("adder");
        let a = g.add_pis(bits);
        let b = g.add_pis(bits);
        let mut carry = Lit::FALSE;
        for i in 0..bits {
            let x = g.xor(a[i], b[i]);
            let s = g.xor(x, carry);
            g.add_po(s);
            let c1 = g.and(a[i], b[i]);
            let c2 = g.and(x, carry);
            carry = g.or(c1, c2);
        }
        g.add_po(carry);
        g
    }

    #[test]
    fn mapped_adder_equivalent_all_families() {
        let src = full_adder_chain(6);
        for family in [LogicFamily::TgStatic, LogicFamily::TgPseudo, LogicFamily::CmosStatic] {
            let lib = Library::new(family);
            let m = map(&src, &lib, MapOptions::default());
            assert_eq!(
                verify_mapping(&src, &m, &lib),
                CecResult::Equivalent,
                "{family:?} mapping broke the adder"
            );
            assert!(m.stats.gates > 0);
            assert!(m.stats.area > 0.0);
            assert!(m.stats.delay_norm > 0.0);
        }
    }

    #[test]
    fn cntfet_maps_xor_in_one_gate() {
        let mut g = Aig::new("xor2");
        let p = g.add_pis(2);
        let x = g.xor(p[0], p[1]);
        g.add_po(x);
        let lib = Library::new(LogicFamily::TgStatic);
        let m = map(&g, &lib, MapOptions::default());
        assert_eq!(m.stats.gates, 1, "XOR must map to a single F01 cell");
        assert_eq!(lib.cells()[m.gates[0].cell].name, "F01");
        assert_eq!(verify_mapping(&g, &m, &lib), CecResult::Equivalent);
    }

    #[test]
    fn cmos_needs_more_gates_for_xor() {
        let mut g = Aig::new("xor2");
        let p = g.add_pis(2);
        let x = g.xor(p[0], p[1]);
        g.add_po(x);
        let lib = Library::new(LogicFamily::CmosStatic);
        let m = map(&g, &lib, MapOptions::default());
        assert!(m.stats.gates >= 3, "CMOS XOR takes several NAND/NOR/INV");
        assert_eq!(verify_mapping(&g, &m, &lib), CecResult::Equivalent);
    }

    #[test]
    fn po_polarities_and_constants() {
        let mut g = Aig::new("polarity");
        let p = g.add_pis(2);
        let x = g.and(p[0], p[1]);
        g.add_po(x.negate()); // NAND output
        g.add_po(Lit::TRUE);
        g.add_po(p[0]); // PI passthrough
        g.add_po(p[1].negate()); // complemented PI
        for family in [LogicFamily::TgStatic, LogicFamily::CmosStatic] {
            let lib = Library::new(family);
            let m = map(&g, &lib, MapOptions::default());
            assert_eq!(
                verify_mapping(&g, &m, &lib),
                CecResult::Equivalent,
                "{family:?}"
            );
        }
    }

    #[test]
    fn area_recovery_does_not_break_function() {
        let src = full_adder_chain(8);
        let lib = Library::new(LogicFamily::TgStatic);
        let fast = map(&src, &lib, MapOptions { area_rounds: 0, ..Default::default() });
        let tight = map(&src, &lib, MapOptions { area_rounds: 3, ..Default::default() });
        assert_eq!(verify_mapping(&src, &tight, &lib), CecResult::Equivalent);
        assert!(tight.stats.area <= fast.stats.area + 1e-9);
        assert!(tight.stats.delay_norm >= fast.stats.delay_norm - 1e-9);
    }
}
