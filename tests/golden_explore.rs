//! `ktudc-core`'s exploration pins (plain, reduced, checkpointed and
//! budget-aborted walks), included so that the root package's
//! `cargo test` runs them too.

#[path = "../crates/core/tests/golden_explore.rs"]
mod golden_explore;
