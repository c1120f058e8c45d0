//! `ktudc-core`'s Table-1 cell pins (tallies and run digests, on the
//! calling thread and inside a `Pool` job), included so that the root
//! package's `cargo test` runs them too.

#[path = "../crates/core/tests/golden_cells.rs"]
mod golden_cells;
