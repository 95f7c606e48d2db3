//! Theorem 6.2 (Figure 7): ∀∃-QBF ≤ atom-injective containment for
//! CQ/`CRPQ_fin`.
//!
//! `Φ = ∀x₁…xₙ ∃y₁…y_ℓ φ` (φ in CNF) is **valid** iff `Q₁ ⊆a-inj Q₂`.
//!
//! The construction re-derives the paper's D/E-gadget mechanism (the
//! appendix figure is reproduced only in sketch form); every ingredient of
//! the paper's proof sketch is realised:
//!
//! * **∀-choices are quotient choices** — for each `xᵢ`, `Q₁`'s strict
//!   gadget `D` has a path `p -g1ᵢ-> m -g2ᵢ-> q` in which `p` and `q` are
//!   *not* atom-related: an a-inj-expansion may merge them (`xᵢ := false`)
//!   or keep them apart (`xᵢ := true`) — "whether the two nodes are equal
//!   or not" in the paper's words.
//! * **literal tests** — `xᵢ`-positive: a 2-letter atom `[g1ᵢ g2ᵢ]` needs a
//!   *simple* 2-path, which exists iff `p ≠ q`; `xᵢ`-negative: a node with
//!   `inᵢ`-in and `g2ᵢ`-in exists iff `p = q`.
//! * **∃-choices are homomorphism choices** — one shared `Q₂` variable
//!   `ŷᵢ` per `yᵢ` maps to the global node `Yᵗᵢ` or `Yᶠᵢ` (the paper's
//!   `y_{i,tf} ↦ y_{i,t}/y_{i,f}`), enforcing consistency across clauses.
//! * **exactly one strict slot** — `Q₁` has a chain of `2L-1` blocks with
//!   the strict gadget `D` at the centre and permissive gadgets `E`
//!   elsewhere; a clause gadget is an `L`-block chain that must overlap the
//!   centre wherever it slides, so at least one literal is tested strictly
//!   while the rest park in `E` ("every represented literal can be
//!   homomorphically embedded" there): `E` carries relator edges making the
//!   positive test always simple, back-edges making the negative test
//!   always satisfied, and y-links to *both* polarity nodes.

use crpq_automata::Regex;
use crpq_core::{Eval, Semantics};
use crpq_query::{Cq, Crpq, CrpqAtom, Var};
use crpq_util::{Interner, Symbol};

/// A literal: `X(i, positive)` refers to universal `x_i`, `Y(i, positive)`
/// to existential `y_i` (0-based indices).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Literal {
    /// Universal variable literal.
    X(usize, bool),
    /// Existential variable literal.
    Y(usize, bool),
}

/// A ∀∃-QBF instance `∀x̄ ∃ȳ ⋀ clauses`.
#[derive(Clone, Debug)]
pub struct QbfInstance {
    /// Number of universally quantified variables.
    pub num_universal: usize,
    /// Number of existentially quantified variables.
    pub num_existential: usize,
    /// CNF clauses (non-empty).
    pub clauses: Vec<Vec<Literal>>,
}

impl QbfInstance {
    /// Maximum clause width `L`.
    pub fn width(&self) -> usize {
        self.clauses.iter().map(Vec::len).max().unwrap_or(1).max(1)
    }

    /// Evaluates φ under full assignments.
    fn phi(&self, xs: &[bool], ys: &[bool]) -> bool {
        self.clauses.iter().all(|clause| {
            clause.iter().any(|lit| match *lit {
                Literal::X(i, pos) => xs[i] == pos,
                Literal::Y(i, pos) => ys[i] == pos,
            })
        })
    }
}

/// Brute-force ∀∃-QBF evaluation (exponential; ground truth).
pub fn qbf_brute_force(inst: &QbfInstance) -> bool {
    let (n, l) = (inst.num_universal, inst.num_existential);
    assert!(n < 20 && l < 20, "brute force is exponential");
    for xmask in 0u32..(1u32 << n) {
        let xs: Vec<bool> = (0..n).map(|i| (xmask >> i) & 1 == 1).collect();
        let ok = (0u32..(1u32 << l)).any(|ymask| {
            let ys: Vec<bool> = (0..l).map(|i| (ymask >> i) & 1 == 1).collect();
            self_phi(inst, &xs, &ys)
        });
        if !ok {
            return false;
        }
    }
    true
}

fn self_phi(inst: &QbfInstance, xs: &[bool], ys: &[bool]) -> bool {
    inst.phi(xs, ys)
}

/// Everything the validators need to navigate the reduction output.
pub struct QbfReduction {
    /// Left-hand query (a Boolean CQ).
    pub q1: Crpq,
    /// Right-hand query (Boolean `CRPQ_fin`, singleton words of length ≤ 2).
    pub q2: Crpq,
    /// `(p_i, q_i)` variable pairs of the strict gadget, per universal var.
    pub d_pairs: Vec<(Var, Var)>,
    /// Size of the label alphabet (for anonymous graph views).
    pub num_symbols: usize,
}

/// Builds the reduction. `Q₁ ⊆a-inj Q₂` iff the instance is valid.
pub fn qbf_to_ainj_containment(inst: &QbfInstance, alphabet: &mut Interner) -> QbfReduction {
    let n = inst.num_universal;
    let l = inst.num_existential;
    let width = inst.width();
    let blocks = 2 * width - 1;
    let centre = width; // 1-based block index of D

    // ---- labels ----------------------------------------------------------
    let a = alphabet.intern("a");
    let rel = alphabet.intern("r");
    let in_i: Vec<Symbol> = (0..n).map(|i| alphabet.intern(&format!("in{i}"))).collect();
    let g1_i: Vec<Symbol> = (0..n)
        .map(|i| alphabet.intern(&format!("g1_{i}")))
        .collect();
    let g2_i: Vec<Symbol> = (0..n)
        .map(|i| alphabet.intern(&format!("g2_{i}")))
        .collect();
    let lt_i: Vec<Symbol> = (0..l).map(|i| alphabet.intern(&format!("lt{i}"))).collect();
    let lf_i: Vec<Symbol> = (0..l).map(|i| alphabet.intern(&format!("lf{i}"))).collect();

    // ---- Q1 ---------------------------------------------------------------
    let mut next = 0u32;
    let mut fresh = || {
        next += 1;
        Var(next - 1)
    };
    let chain: Vec<Var> = (0..blocks).map(|_| fresh()).collect();
    let y_t: Vec<Var> = (0..l).map(|_| fresh()).collect();
    let y_f: Vec<Var> = (0..l).map(|_| fresh()).collect();

    let lit_atom = |s: Var, sym: Symbol, d: Var| CrpqAtom {
        src: s,
        dst: d,
        regex: Regex::lit(sym),
    };
    let mut atoms1: Vec<CrpqAtom> = Vec::new();
    for k in 1..blocks {
        atoms1.push(lit_atom(chain[k - 1], a, chain[k]));
    }
    let mut d_pairs = Vec::with_capacity(n);
    for (k, &c) in chain.iter().enumerate() {
        let is_d = k + 1 == centre;
        for i in 0..n {
            let p = fresh();
            let m = fresh();
            let q = fresh();
            atoms1.push(lit_atom(c, in_i[i], p));
            atoms1.push(lit_atom(p, g1_i[i], m));
            atoms1.push(lit_atom(m, g2_i[i], q));
            if is_d {
                d_pairs.push((p, q));
            } else {
                // E-block: back-edge (negative test always passes) and
                // relator (p, q become atom-related: positive test always
                // simple).
                atoms1.push(lit_atom(m, g2_i[i], p));
                atoms1.push(lit_atom(p, rel, q));
            }
        }
        for i in 0..l {
            atoms1.push(lit_atom(c, lt_i[i], y_t[i]));
            atoms1.push(lit_atom(c, lf_i[i], y_f[i]));
            if !is_d {
                // permissive cross-links
                atoms1.push(lit_atom(c, lt_i[i], y_f[i]));
                atoms1.push(lit_atom(c, lf_i[i], y_t[i]));
            }
        }
    }
    let q1 = Crpq {
        num_vars: next as usize,
        atoms: atoms1,
        free: Vec::new(),
    };

    // ---- Q2 ---------------------------------------------------------------
    let mut next2 = 0u32;
    let mut fresh2 = || {
        next2 += 1;
        Var(next2 - 1)
    };
    let y_hat: Vec<Var> = (0..l).map(|_| fresh2()).collect();
    let mut atoms2: Vec<CrpqAtom> = Vec::new();
    for clause in &inst.clauses {
        // Pad the clause to `width` by repeating the last literal.
        let mut lits = clause.clone();
        while lits.len() < width {
            lits.push(*lits.last().expect("clauses must be non-empty")); // invariant: the builder rejects empty clauses
        }
        let cnodes: Vec<Var> = (0..width).map(|_| fresh2()).collect();
        for r in 1..width {
            atoms2.push(CrpqAtom {
                src: cnodes[r - 1],
                dst: cnodes[r],
                regex: Regex::lit(a),
            });
        }
        for (r, lit) in lits.iter().enumerate() {
            let anchor = cnodes[r];
            match *lit {
                Literal::X(i, true) => {
                    let t1 = fresh2();
                    let t2 = fresh2();
                    atoms2.push(CrpqAtom {
                        src: anchor,
                        dst: t1,
                        regex: Regex::lit(in_i[i]),
                    });
                    atoms2.push(CrpqAtom {
                        src: t1,
                        dst: t2,
                        regex: Regex::word(&[g1_i[i], g2_i[i]]),
                    });
                }
                Literal::X(i, false) => {
                    let s1 = fresh2();
                    let s2 = fresh2();
                    atoms2.push(CrpqAtom {
                        src: anchor,
                        dst: s1,
                        regex: Regex::lit(in_i[i]),
                    });
                    atoms2.push(CrpqAtom {
                        src: s2,
                        dst: s1,
                        regex: Regex::lit(g2_i[i]),
                    });
                }
                Literal::Y(i, pos) => {
                    let label = if pos { lt_i[i] } else { lf_i[i] };
                    atoms2.push(CrpqAtom {
                        src: anchor,
                        dst: y_hat[i],
                        regex: Regex::lit(label),
                    });
                }
            }
        }
    }
    let q2 = Crpq {
        num_vars: next2 as usize,
        atoms: atoms2,
        free: Vec::new(),
    };

    let num_symbols = alphabet.len();
    QbfReduction {
        q1,
        q2,
        d_pairs,
        num_symbols,
    }
}

/// The **clean quotient** of `Q₁` for a universal assignment: merge
/// `(pᵢ, qᵢ)` in the strict gadget exactly for the `false` variables.
pub fn clean_quotient(red: &QbfReduction, xs: &[bool]) -> Cq {
    let cq = red.q1.as_cq().expect("Q1 is a CQ"); // invariant: the reduction emits an atomless Q1
    let merges: Vec<(Var, Var)> = red
        .d_pairs
        .iter()
        .zip(xs)
        .filter(|(_, &x)| !x)
        .map(|(&pair, _)| pair)
        .collect();
    cq.collapse_equalities(&merges).0
}

/// Validates the reduction semantics over all clean quotients:
/// for every `x̄`, `Q₂(F(x̄))_a-inj ≠ ∅` must coincide with `∃ȳ φ(x̄, ȳ)`.
pub fn check_reduction_clean_quotients(inst: &QbfInstance, red: &QbfReduction) -> bool {
    let n = inst.num_universal;
    for xmask in 0u32..(1u32 << n) {
        let xs: Vec<bool> = (0..n).map(|i| (xmask >> i) & 1 == 1).collect();
        let quotient = clean_quotient(red, &xs);
        let g = quotient.to_graph_anon(red.num_symbols);
        let matched = Eval::new(&red.q2, &g)
            .semantics(Semantics::AtomInjective)
            .contains(&[]);
        let exists_y = (0u32..(1u32 << inst.num_existential)).any(|ymask| {
            let ys: Vec<bool> = (0..inst.num_existential)
                .map(|i| (ymask >> i) & 1 == 1)
                .collect();
            inst.phi(&xs, &ys)
        });
        if matched != exists_y {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crpq_containment::{contain_with, ContainmentConfig};
    use crpq_query::expansion::ExpansionLimits;

    fn reduction(inst: &QbfInstance) -> QbfReduction {
        let mut it = Interner::new();
        qbf_to_ainj_containment(inst, &mut it)
    }

    #[test]
    fn brute_force_basics() {
        // ∀x (x) — invalid.
        let inst = QbfInstance {
            num_universal: 1,
            num_existential: 0,
            clauses: vec![vec![Literal::X(0, true)]],
        };
        assert!(!qbf_brute_force(&inst));
        // ∀x ∃y (x ∨ y)(¬x ∨ ¬y) — valid (y := ¬x).
        let inst2 = QbfInstance {
            num_universal: 1,
            num_existential: 1,
            clauses: vec![
                vec![Literal::X(0, true), Literal::Y(0, true)],
                vec![Literal::X(0, false), Literal::Y(0, false)],
            ],
        };
        assert!(qbf_brute_force(&inst2));
        // (x ∨ y)(¬x ∨ y)(¬y ∨ x)(¬y ∨ ¬x) — invalid.
        let inst3 = QbfInstance {
            num_universal: 1,
            num_existential: 1,
            clauses: vec![
                vec![Literal::X(0, true), Literal::Y(0, true)],
                vec![Literal::X(0, false), Literal::Y(0, true)],
                vec![Literal::Y(0, false), Literal::X(0, true)],
                vec![Literal::Y(0, false), Literal::X(0, false)],
            ],
        };
        assert!(!qbf_brute_force(&inst3));
    }

    #[test]
    fn clean_quotients_match_semantics() {
        let instances = vec![
            // ∀x (x): invalid
            QbfInstance {
                num_universal: 1,
                num_existential: 0,
                clauses: vec![vec![Literal::X(0, true)]],
            },
            // ∀x (x ∨ ¬x): valid
            QbfInstance {
                num_universal: 1,
                num_existential: 0,
                clauses: vec![vec![Literal::X(0, true), Literal::X(0, false)]],
            },
            // ∃y (y): valid
            QbfInstance {
                num_universal: 0,
                num_existential: 1,
                clauses: vec![vec![Literal::Y(0, true)]],
            },
            // ∀x ∃y (x ∨ y)(¬x ∨ ¬y): valid
            QbfInstance {
                num_universal: 1,
                num_existential: 1,
                clauses: vec![
                    vec![Literal::X(0, true), Literal::Y(0, true)],
                    vec![Literal::X(0, false), Literal::Y(0, false)],
                ],
            },
            // ∀x ∃y (y ∨ y)(¬y ∨ x): invalid (x=false kills it)
            QbfInstance {
                num_universal: 1,
                num_existential: 1,
                clauses: vec![
                    vec![Literal::Y(0, true), Literal::Y(0, true)],
                    vec![Literal::Y(0, false), Literal::X(0, true)],
                ],
            },
        ];
        for inst in instances {
            let red = reduction(&inst);
            assert!(
                check_reduction_clean_quotients(&inst, &red),
                "clean-quotient semantics mismatch for {inst:?}"
            );
        }
    }

    #[test]
    fn invalid_formula_refuted_by_engine() {
        // ∀x (x) with width 1: tiny enough for the full a-inj containment
        // engine to find the merge counter-example.
        let inst = QbfInstance {
            num_universal: 1,
            num_existential: 0,
            clauses: vec![vec![Literal::X(0, true)]],
        };
        let red = reduction(&inst);
        let out = contain_with(
            &red.q1,
            &red.q2,
            Semantics::AtomInjective,
            ContainmentConfig {
                limits: ExpansionLimits {
                    max_word_len: 2,
                    max_expansions: 100_000,
                },
                threads: 1,
            },
        );
        assert!(out.is_not_contained(), "{out:?}");
    }

    #[test]
    fn valid_formula_contained_by_engine() {
        // ∃y (y), no universals, width 1: the full engine certifies
        // containment (partition space is tiny).
        let inst = QbfInstance {
            num_universal: 0,
            num_existential: 1,
            clauses: vec![vec![Literal::Y(0, true)]],
        };
        let red = reduction(&inst);
        let out = contain_with(
            &red.q1,
            &red.q2,
            Semantics::AtomInjective,
            ContainmentConfig {
                limits: ExpansionLimits {
                    max_word_len: 2,
                    max_expansions: 100_000,
                },
                threads: 1,
            },
        );
        assert!(out.is_contained(), "{out:?}");
    }

    #[test]
    fn random_instances_validate() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(62);
        for _ in 0..8 {
            let n = rng.gen_range(1..=2usize);
            let l = rng.gen_range(0..=1usize);
            let clauses: Vec<Vec<Literal>> = (0..rng.gen_range(1..=2))
                .map(|_| {
                    (0..2)
                        .map(|_| {
                            let pos = rng.gen_bool(0.5);
                            if l > 0 && rng.gen_bool(0.4) {
                                Literal::Y(rng.gen_range(0..l), pos)
                            } else {
                                Literal::X(rng.gen_range(0..n), pos)
                            }
                        })
                        .collect()
                })
                .collect();
            let inst = QbfInstance {
                num_universal: n,
                num_existential: l,
                clauses,
            };
            let brute = qbf_brute_force(&inst);
            let red = reduction(&inst);
            assert!(
                check_reduction_clean_quotients(&inst, &red),
                "mismatch for {inst:?} (brute force says {brute})"
            );
        }
    }
}
