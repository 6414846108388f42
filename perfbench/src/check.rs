//! The benchmark's own output checks, independent of the program's
//! equivalence checker: a bit-parallel evaluator over the public AIG
//! structure, and the known-answer negatives that a verifier which
//! always answers "equivalent" would fail.

use cntfet_aig::{Aig, Lit};
use cntfet_techmap::{Mapping, PoBinding, Source};

/// SplitMix64: the benchmark's seeded generator (shuffles, request
/// sequences, simulation patterns).
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so that one
    /// run seed can drive several independent sequences.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Evaluates every output of `aig` on `words` × 64 input patterns;
/// `inputs[pi * words + w]` holds word `w` of input `pi`. Returns the
/// outputs in the same layout. Walks `and_ids` and `fanins` directly,
/// so it shares no code with the program's simulator.
pub fn evaluate(aig: &Aig, inputs: &[u64], words: usize) -> Vec<u64> {
    assert_eq!(
        inputs.len(),
        aig.num_pis() * words,
        "one word row per input"
    );
    let mut value = vec![0u64; aig.num_nodes() * words];
    for (i, pi) in aig.pis().iter().enumerate() {
        let n = pi.index();
        value[n * words..(n + 1) * words].copy_from_slice(&inputs[i * words..(i + 1) * words]);
    }
    let word = |value: &[u64], l: Lit, w: usize| {
        let v = value[l.node().index() * words + w];
        if l.is_complement() {
            !v
        } else {
            v
        }
    };
    for id in aig.and_ids() {
        let (a, b) = aig.fanins(id);
        let n = id.index();
        assert!(
            a.node().index() < n && b.node().index() < n,
            "fresh AIGs list fanins first"
        );
        for w in 0..words {
            value[n * words + w] = word(&value, a, w) & word(&value, b, w);
        }
    }
    let mut out = Vec::with_capacity(aig.num_pos() * words);
    for &po in aig.pos() {
        out.extend((0..words).map(|w| word(&value, po, w)));
    }
    out
}

/// Seeded random input patterns for `num_pis` inputs.
pub fn random_patterns(num_pis: usize, words: usize, rng: &mut Rng) -> Vec<u64> {
    (0..num_pis * words).map(|_| rng.next_u64()).collect()
}

/// True when `a` and `b` agree on every output for every pattern.
pub fn agree(a: &Aig, b: &Aig, patterns: &[u64], words: usize) -> bool {
    a.num_pis() == b.num_pis()
        && a.num_pos() == b.num_pos()
        && evaluate(a, patterns, words) == evaluate(b, patterns, words)
}

/// True when `a` and `b` differ on output `output` under the single
/// assignment `inputs` (a counterexample check).
pub fn differ_at(a: &Aig, b: &Aig, inputs: &[bool], output: usize) -> bool {
    let words: Vec<u64> = inputs.iter().map(|&x| if x { !0 } else { 0 }).collect();
    if words.len() != a.num_pis() || words.len() != b.num_pis() || output >= a.num_pos() {
        return false;
    }
    (evaluate(a, &words, 1)[output] ^ evaluate(b, &words, 1)[output]) & 1 == 1
}

/// A copy of `mapping` with the output polarity of one gate flipped;
/// the gate is one that drives a primary output directly, so that
/// output is inverted for every input. `None` when no output is
/// driven by a gate.
pub fn corrupt(mapping: &Mapping, rng: &mut Rng) -> Option<Mapping> {
    let output_gates: Vec<usize> = mapping
        .pos
        .iter()
        .filter_map(|po| match po {
            PoBinding::Signal(Source::Node(root), _) => {
                mapping.gates.iter().position(|g| g.root == *root)
            }
            _ => None,
        })
        .collect();
    if output_gates.is_empty() {
        return None;
    }
    let mut bad = mapping.clone();
    let g = output_gates[rng.below(output_gates.len())];
    bad.gates[g].out_compl = !bad.gates[g].out_compl;
    Some(bad)
}
