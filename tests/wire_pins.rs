//! `ktudc-serve`'s wire-encoding pins (every optional field present and
//! absent, full-line byte strings, strict decoding of present keys),
//! included so that the root package's `cargo test` runs them too.

#[path = "../crates/serve/tests/wire_pins.rs"]
mod wire_pins;
