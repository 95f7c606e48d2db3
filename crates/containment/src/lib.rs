//! # crpq-containment
//!
//! The containment problem `Q₁ ⊆★ Q₂` (paper §4–§6) under all three
//! semantics:
//!
//! * [`naive`] — the characterisation-based **counter-example engine**:
//!   `Q₁ ⊄★ Q₂` iff some ★-expansion `E₁` of `Q₁` has `ȳ ∉ Q₂(E₁)★` (§4.1).
//!   The ∀-side enumerates ★-expansions of `Q₁` (ordinary expansions for
//!   `st`/`q-inj` by Props 4.2/4.3, a-inj-expansions for `a-inj` by
//!   Prop 4.6); the ∃-side is *evaluation* of `Q₂` over the candidate, which
//!   is complete. Decisions are exact whenever `Q₁`'s languages are finite
//!   within the budget, and three-valued otherwise — the honest rendering of
//!   an ExpSpace-complete (st), PSpace-complete (q-inj) and undecidable
//!   (a-inj) problem family on bounded hardware. The budget is one
//!   [`ExpansionLimits`]; CRPQ and UCRPQ containment share one sequential
//!   counter-example walk.
//! * [`abstraction`] — the paper's main algorithmic contribution
//!   (Thm 5.1, Appendix C): the **PSpace abstraction algorithm** for
//!   query-injective CRPQ/CRPQ containment, built on per-atom profile
//!   simulation, achievable abstraction enumeration, morphism types into the
//!   3-subdivision of `Q₁`, and the Figure-9 compatibility cases.
//! * [`rpq_cq`] — an **exact** decision procedure for single-atom CRPQ ⊆ CQ
//!   under standard semantics via regular pattern languages (the homomorphism
//!   sets `{w : Q₂ → path(w)}` are regular).
//! * [`analysis`] — class-aware front end choosing budgets and engines that
//!   make the verdict exact wherever Figure 1 promises decidability and our
//!   engines cover the fragment.

pub mod abstraction;
pub mod analysis;
pub mod boundedness;
pub mod naive;
pub mod optimize;
pub mod rpq_cq;

pub use analysis::{contain, recommended_limits};
pub use boundedness::{check_boundedness, Boundedness, BoundednessConfig};
pub use crpq_core::Semantics;
pub use crpq_query::expansion::ExpansionLimits;
pub use naive::{contain_union_with, contain_with, CounterExample, Outcome};
pub use optimize::{equivalent, minimize_atoms, Equivalence, MinimizeResult};
