//! Epistemic-temporal model checking over systems of runs (§2.3 of Halpern
//! & Ricciardi), plus the conditions A1–A5t of §3.
//!
//! The paper's language closes application primitives (`send`, `recv`,
//! `crash`, `do`, `init`) under boolean connectives, the temporal operator
//! `✷` ("from now on", with dual `✸`), and the knowledge operators `K_p`.
//! Truth is relative to a triple `(R, r, m)` — a *system* (set of runs), a
//! run, and a time — with the crucial clause
//!
//! > `(R, r, m) ⊨ K_p φ` iff `(R, r′, m′) ⊨ φ` for **all** points
//! > `(r′, m′)` of `R` with `r′_p(m′) = r_p(m)`.
//!
//! [`ModelChecker`] implements exactly this semantics over the finite
//! [`System`](ktudc_model::System)s produced by `ktudc-sim`, by *global*
//! model checking: each subformula is evaluated to a truth table over every
//! point of the system (so `K_p` is an exact conjunction over the
//! indistinguishability class, not an approximation), with tables cached
//! per subformula.
//!
//! Truth tables are bit-packed densely ([`bittable::BitTable`]) so boolean
//! connectives work 64 points per instruction, and `K_p` is evaluated once
//! per `~_p`-equivalence class. The
//! original per-point scalar evaluator survives as
//! [`reference::ReferenceChecker`] and the two are held bit-identical by
//! differential tests.
//!
//! # Finite-horizon reading
//!
//! `✷φ` at `(r, m)` means "φ at every `m′` with `m ≤ m′ ≤ horizon(r)`", and
//! `✸φ` dually. Over *exhaustively enumerated* systems (see
//! `ktudc_sim::explorer`) the `K_p` clause is exact; over sampled systems a
//! reported `K_p φ` may be an overstatement (a larger sample could refute
//! it) while a reported `¬K_p φ` is always sound. The condition checkers in
//! [`conditions`] inherit the same one-sided soundness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bittable;
pub mod checker;
pub mod conditions;
pub mod formula;
pub mod reference;

pub use bittable::{BitTable, Layout};
pub use checker::ModelChecker;
pub use conditions::{check_a1, check_a2, check_a3, check_a4, check_a5, ConditionViolation};
pub use formula::{Formula, Prim};
pub use reference::ReferenceChecker;
