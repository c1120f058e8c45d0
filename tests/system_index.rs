//! `ktudc-model`'s property tests — among them the `~_p` index checked
//! against brute-force history equality at every point — included so that
//! the root package's `cargo test` runs them too.

#[path = "../crates/model/tests/proptests.rs"]
mod proptests;
