//! `ktudc-epistemic`'s differential tests (the packed `ModelChecker`
//! against the scalar `ReferenceChecker`, randomized and over a system of
//! straddling runs), included so that the root package's `cargo test`
//! runs them too.

#[path = "../crates/epistemic/tests/differential.rs"]
mod differential;
