//! Conjunctive regular path queries (CRPQs).
//!
//! A CRPQ atom is `x -[L]-> y` for a regular language `L`. The class
//! hierarchy `CQ ⊆ CRPQ_fin ⊆ CRPQ` (paper §2) is captured by
//! [`QueryClass`]. ε-elimination (§2.1) rewrites a CRPQ into an equivalent
//! finite union of ε-free CRPQs, which is how every engine in this workspace
//! handles ε: all downstream algorithms assume ε-free atoms.

use crate::cq::{Cq, CqAtom, Var};
use crpq_automata::{Nfa, Regex};
use crpq_util::{Interner, UnionFind};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A CRPQ atom `src -[regex]-> dst`.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CrpqAtom {
    /// Source variable.
    pub src: Var,
    /// Target variable.
    pub dst: Var,
    /// The atom language as a regular expression.
    pub regex: Regex,
}

impl CrpqAtom {
    /// Compiles the atom language to an NFA.
    pub fn nfa(&self) -> Nfa {
        Nfa::from_regex(&self.regex)
    }

    /// Canonical structural key of the atom *language*
    /// ([`Nfa::canonical_key`] of the compiled automaton).
    ///
    /// ε-elimination copies most atoms verbatim into every ε-free variant,
    /// so their keys coincide across variants — the property the relation
    /// catalog in `crpq-core` exploits to materialise each distinct atom
    /// relation once per graph instead of once per variant. Callers that
    /// already hold the compiled NFA should key off that instead of paying
    /// for a second compilation here.
    pub fn canonical_key(&self) -> crpq_automata::NfaKey {
        self.nfa().canonical_key()
    }
}

/// The paper's query classes, ordered by generality.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum QueryClass {
    /// Conjunctive queries: every atom is a single letter.
    Cq,
    /// CRPQs with star-free (finite-language) expressions.
    CrpqFin,
    /// Unrestricted CRPQs.
    Crpq,
}

impl fmt::Display for QueryClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryClass::Cq => write!(f, "CQ"),
            QueryClass::CrpqFin => write!(f, "CRPQ_fin"),
            QueryClass::Crpq => write!(f, "CRPQ"),
        }
    }
}

/// A conjunctive regular path query.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Crpq {
    /// Number of variables (ids `0..num_vars`).
    pub num_vars: usize,
    /// Atoms.
    pub atoms: Vec<CrpqAtom>,
    /// Free-variable tuple (possibly repeating; empty = Boolean).
    pub free: Vec<Var>,
}

impl Crpq {
    /// A Boolean CRPQ, inferring `num_vars`.
    pub fn boolean(atoms: Vec<CrpqAtom>) -> Crpq {
        let num_vars = atoms
            .iter()
            .map(|a| a.src.0.max(a.dst.0) as usize + 1)
            .max()
            .unwrap_or(0);
        Crpq {
            num_vars,
            atoms,
            free: Vec::new(),
        }
    }

    /// A CRPQ with an explicit free tuple.
    pub fn with_free(atoms: Vec<CrpqAtom>, free: Vec<Var>) -> Crpq {
        let mut q = Crpq::boolean(atoms);
        let max_free = free.iter().map(|v| v.index() + 1).max().unwrap_or(0);
        q.num_vars = q.num_vars.max(max_free);
        q.free = free;
        q
    }

    /// Lifts a CQ into a CRPQ (single-letter languages).
    pub fn from_cq(cq: &Cq) -> Crpq {
        Crpq {
            num_vars: cq.num_vars,
            atoms: cq
                .atoms
                .iter()
                .map(|a| CrpqAtom {
                    src: a.src,
                    dst: a.dst,
                    regex: Regex::Literal(a.label),
                })
                .collect(),
            free: cq.free.clone(),
        }
    }

    /// Whether the query is Boolean.
    pub fn is_boolean(&self) -> bool {
        self.free.is_empty()
    }

    /// Classifies the query into the paper's hierarchy.
    ///
    /// Star-free syntax implies a finite language; a query is a `CQ` when
    /// every atom is exactly one letter.
    pub fn classify(&self) -> QueryClass {
        let all_single = self
            .atoms
            .iter()
            .all(|a| matches!(a.regex, Regex::Literal(_)));
        if all_single {
            return QueryClass::Cq;
        }
        if self.atoms.iter().all(|a| a.regex.is_star_free()) {
            QueryClass::CrpqFin
        } else {
            QueryClass::Crpq
        }
    }

    /// Downcasts to a CQ if all atoms are single letters.
    pub fn as_cq(&self) -> Option<Cq> {
        let mut atoms = Vec::with_capacity(self.atoms.len());
        for a in &self.atoms {
            match a.regex {
                Regex::Literal(sym) => atoms.push(CqAtom {
                    src: a.src,
                    label: sym,
                    dst: a.dst,
                }),
                _ => return None,
            }
        }
        Some(Cq {
            num_vars: self.num_vars,
            atoms,
            free: self.free.clone(),
        })
    }

    /// Whether some atom language contains ε.
    pub fn has_epsilon_atoms(&self) -> bool {
        self.atoms.iter().any(|a| a.regex.nullable())
    }

    /// Whether the query's *constraint graph* (atoms as undirected edges,
    /// isolated variables excluded) is connected. Used as a precondition by
    /// the Appendix-C engine.
    pub fn is_connected(&self) -> bool {
        if self.atoms.is_empty() {
            return true;
        }
        let mut uf = UnionFind::new(self.num_vars);
        for a in &self.atoms {
            uf.union(a.src.index(), a.dst.index());
        }
        let root = uf.find(self.atoms[0].src.index());
        let mut touched = vec![false; self.num_vars];
        for a in &self.atoms {
            touched[a.src.index()] = true;
            touched[a.dst.index()] = true;
        }
        (0..self.num_vars).all(|v| !touched[v] || uf.find(v) == root)
    }

    /// The ε-elimination of §2.1: an equivalent union of **ε-free** CRPQs.
    ///
    /// Each nullable atom is either kept with language `L \ {ε}` or removed
    /// while merging its endpoints (substitution `[x/y]`); atoms with
    /// `L = {ε}` are always removed; atoms with `∅` language make the branch
    /// unsatisfiable (dropped from the union).
    pub fn epsilon_free_union(&self) -> Vec<Crpq> {
        let nullable: Vec<usize> = self
            .atoms
            .iter()
            .enumerate()
            .filter(|(_, a)| a.regex.nullable())
            .map(|(i, _)| i)
            .collect();
        let mut out = Vec::new();
        // Iterate over subsets S of nullable atoms taken as ε (removed).
        for mask in 0u64..(1u64 << nullable.len()) {
            let removed: Vec<usize> = nullable
                .iter()
                .enumerate()
                .filter(|&(bit, _)| mask & (1 << bit) != 0)
                .map(|(_, &i)| i)
                .collect();
            let mut uf = UnionFind::new(self.num_vars);
            for &i in &removed {
                uf.union(self.atoms[i].src.index(), self.atoms[i].dst.index());
            }
            let (renaming, k) = uf.dense_classes();
            let mut atoms = Vec::new();
            let mut unsat = false;
            for (i, a) in self.atoms.iter().enumerate() {
                if removed.contains(&i) {
                    continue;
                }
                let regex = if a.regex.nullable() {
                    // keep with ε removed: L \ {ε}
                    remove_epsilon_syntactically(&a.regex)
                } else {
                    a.regex.clone()
                };
                if regex.is_empty_language() {
                    unsat = true;
                    break;
                }
                atoms.push(CrpqAtom {
                    src: Var(renaming[a.src.index()] as u32),
                    dst: Var(renaming[a.dst.index()] as u32),
                    regex,
                });
            }
            if unsat {
                continue;
            }
            let free = self
                .free
                .iter()
                .map(|v| Var(renaming[v.index()] as u32))
                .collect();
            out.push(Crpq {
                num_vars: k,
                atoms,
                free,
            });
        }
        out
    }

    /// Pretty-printer.
    pub fn display<'a>(&'a self, alphabet: &'a Interner) -> CrpqDisplay<'a> {
        CrpqDisplay { q: self, alphabet }
    }
}

/// `L \ {ε}` as a regular expression, via the NFA route (exact).
fn remove_epsilon_syntactically(regex: &Regex) -> Regex {
    // Syntactic shortcuts for the common shapes, falling back to the
    // NFA-based derivative expansion for the rest.
    match regex {
        Regex::Epsilon => Regex::Empty,
        Regex::Star(inner) => Regex::plus((**inner).clone()),
        Regex::Optional(inner) => {
            if inner.nullable() {
                remove_epsilon_syntactically(inner)
            } else {
                (**inner).clone()
            }
        }
        Regex::Alt(parts) => Regex::alt(
            parts
                .iter()
                .map(|p| {
                    if p.nullable() {
                        remove_epsilon_syntactically(p)
                    } else {
                        p.clone()
                    }
                })
                .collect(),
        ),
        other => {
            // General case: first-symbol expansion. L\{ε} = Σ_a a·(a⁻¹L).
            // We realise it as the NFA with initial-finality stripped,
            // reconstructed as a regex via a symbolic wrapper: since our
            // engines consume NFAs, we keep the regex but mark it through an
            // equivalent construct: (L) ∩ Σ⁺ — expressed by wrapping the
            // NFA at compile time. For the regex level we conservatively
            // build `concat of nothing`… instead we use the precise NFA:
            RegexFromNfa::rebuild(other)
        }
    }
}

/// Helper that turns `L \ {ε}` into a regex by state elimination on the
/// ε-stripped NFA. Exact but potentially large; only used for shapes not
/// covered by the syntactic cases (e.g. `(a b)* c?` nested nullables).
struct RegexFromNfa;

impl RegexFromNfa {
    fn rebuild(regex: &Regex) -> Regex {
        let nfa = Nfa::from_regex(regex).without_epsilon().trimmed();
        nfa_to_regex(&nfa)
    }
}

/// Classic state-elimination (Brzozowski–McCluskey) conversion NFA → regex.
pub fn nfa_to_regex(nfa: &Nfa) -> Regex {
    if nfa.is_empty_language() {
        return Regex::Empty;
    }
    let n = nfa.num_states();
    // GNFA with fresh start (n) and accept (n+1) states.
    let total = n + 2;
    let (start, accept) = (n, n + 1);
    let mut edge: Vec<Vec<Option<Regex>>> = vec![vec![None; total]; total];
    let add = |edge: &mut Vec<Vec<Option<Regex>>>, i: usize, j: usize, r: Regex| {
        let slot = &mut edge[i][j];
        *slot = Some(match slot.take() {
            Some(prev) => Regex::alt(vec![prev, r]),
            None => r,
        });
    };
    for q in 0..n {
        for &(sym, t) in nfa.transitions_from(q as u32) {
            add(&mut edge, q, t as usize, Regex::Literal(sym));
        }
    }
    for q in nfa.initials().iter() {
        add(&mut edge, start, q, Regex::Epsilon);
    }
    for q in nfa.finals().iter() {
        add(&mut edge, q, accept, Regex::Epsilon);
    }
    // Eliminate the original states one by one.
    for k in 0..n {
        let self_loop = edge[k][k].take();
        let loop_star = self_loop.map(Regex::star);
        let preds: Vec<usize> = (0..total)
            .filter(|&i| i != k && edge[i][k].is_some())
            .collect();
        let succs: Vec<usize> = (0..total)
            .filter(|&j| j != k && edge[k][j].is_some())
            .collect();
        for &i in &preds {
            for &j in &succs {
                let mut parts = vec![edge[i][k].clone().unwrap()]; // invariant: checked Some above
                if let Some(ls) = &loop_star {
                    parts.push(ls.clone());
                }
                parts.push(edge[k][j].clone().unwrap()); // invariant: checked Some above
                add(&mut edge, i, j, Regex::concat(parts));
            }
        }
        for row in &mut edge {
            row[k] = None;
        }
        for cell in &mut edge[k] {
            *cell = None;
        }
    }
    edge[start][accept].take().unwrap_or(Regex::Empty)
}

/// Pretty-printer for [`Crpq`].
pub struct CrpqDisplay<'a> {
    q: &'a Crpq,
    alphabet: &'a Interner,
}

impl fmt::Display for CrpqDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.q.free.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "x{}", v.0)?;
        }
        write!(f, ") <- ")?;
        for (i, a) in self.q.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(
                f,
                "x{} -[{}]-> x{}",
                a.src.0,
                a.regex.display(self.alphabet),
                a.dst.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crpq_automata::parse_regex;
    use crpq_util::Symbol;

    fn atom(s: u32, expr: &str, d: u32, it: &mut Interner) -> CrpqAtom {
        CrpqAtom {
            src: Var(s),
            dst: Var(d),
            regex: parse_regex(expr, it).unwrap(),
        }
    }

    #[test]
    fn classification() {
        let mut it = Interner::new();
        let cq = Crpq::boolean(vec![atom(0, "a", 1, &mut it)]);
        assert_eq!(cq.classify(), QueryClass::Cq);
        assert!(cq.as_cq().is_some());

        let fin = Crpq::boolean(vec![atom(0, "a b + c", 1, &mut it)]);
        assert_eq!(fin.classify(), QueryClass::CrpqFin);
        assert!(fin.as_cq().is_none());

        let full = Crpq::boolean(vec![atom(0, "(a b)*", 1, &mut it)]);
        assert_eq!(full.classify(), QueryClass::Crpq);
    }

    #[test]
    fn connectivity() {
        let mut it = Interner::new();
        let conn = Crpq::boolean(vec![atom(0, "a", 1, &mut it), atom(1, "b", 2, &mut it)]);
        assert!(conn.is_connected());
        let disc = Crpq::boolean(vec![atom(0, "a", 1, &mut it), atom(2, "b", 3, &mut it)]);
        assert!(!disc.is_connected());
    }

    #[test]
    fn epsilon_free_union_star() {
        // Q(x,y) = x -[(a b)*]-> y yields two variants: x -[(ab)^+]-> y and
        // the collapse x=y with no atoms.
        let mut it = Interner::new();
        let q = Crpq::with_free(vec![atom(0, "(a b)*", 1, &mut it)], vec![Var(0), Var(1)]);
        let union = q.epsilon_free_union();
        assert_eq!(union.len(), 2);
        let kept = union.iter().find(|v| !v.atoms.is_empty()).unwrap();
        assert!(!kept.atoms[0].regex.nullable());
        let nfa = kept.atoms[0].nfa();
        assert!(nfa.accepts(&[Symbol(0), Symbol(1)]));
        assert!(!nfa.accepts(&[]));
        let collapsed = union.iter().find(|v| v.atoms.is_empty()).unwrap();
        assert_eq!(collapsed.num_vars, 1);
        assert_eq!(collapsed.free, vec![Var(0), Var(0)]);
    }

    #[test]
    fn epsilon_free_union_no_nullables() {
        let mut it = Interner::new();
        let q = Crpq::boolean(vec![atom(0, "a b", 1, &mut it)]);
        let union = q.epsilon_free_union();
        assert_eq!(union.len(), 1);
        assert_eq!(&union[0], &q);
    }

    #[test]
    fn epsilon_only_atom_always_collapses() {
        let mut it = Interner::new();
        let q = Crpq::boolean(vec![atom(0, "ε", 1, &mut it), atom(0, "a", 1, &mut it)]);
        let union = q.epsilon_free_union();
        // keep-branch of the ε-atom is unsat (∅ language), so only the
        // collapse branch survives: x0=x1 with a self-loop a-atom.
        assert_eq!(union.len(), 1);
        assert_eq!(union[0].num_vars, 1);
        assert_eq!(union[0].atoms.len(), 1);
        assert_eq!(union[0].atoms[0].src, union[0].atoms[0].dst);
    }

    #[test]
    fn nfa_to_regex_roundtrip() {
        let mut it = Interner::new();
        for expr in ["a", "a b", "(a+b)* c", "(a b)^+", "a? b*"] {
            let r = parse_regex(expr, &mut it).unwrap();
            let nfa = Nfa::from_regex(&r);
            let back = nfa_to_regex(&nfa);
            let nfa2 = Nfa::from_regex(&back);
            let alphabet: Vec<Symbol> = (0..it.len() as u32).map(Symbol).collect();
            assert!(
                crpq_automata::dfa::nfa_equivalent(&nfa, &nfa2, &alphabet),
                "roundtrip failed for {expr}"
            );
        }
    }

    #[test]
    fn remove_epsilon_complex_shape() {
        // (a b)* c? is nullable in a nested way; check L\{ε} exact.
        let mut it = Interner::new();
        let q = Crpq::boolean(vec![atom(0, "(a b)* c?", 1, &mut it)]);
        let union = q.epsilon_free_union();
        let kept = union.iter().find(|v| !v.atoms.is_empty()).unwrap();
        let nfa = kept.atoms[0].nfa();
        assert!(!nfa.accepts(&[]));
        let (a, b, c) = (Symbol(0), Symbol(1), Symbol(2));
        assert!(nfa.accepts(&[c]));
        assert!(nfa.accepts(&[a, b]));
        assert!(nfa.accepts(&[a, b, c]));
        assert!(nfa.accepts(&[a, b, a, b]));
        assert!(!nfa.accepts(&[a]));
    }

    #[test]
    fn from_cq_roundtrip() {
        let mut it = Interner::new();
        let a = it.intern("a");
        let cq = Cq::with_free(
            vec![CqAtom {
                src: Var(0),
                label: a,
                dst: Var(1),
            }],
            vec![Var(1)],
        );
        let crpq = Crpq::from_cq(&cq);
        assert_eq!(crpq.classify(), QueryClass::Cq);
        assert_eq!(crpq.as_cq().unwrap(), cq);
    }
}
