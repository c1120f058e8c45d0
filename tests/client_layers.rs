//! `ktudc-serve`'s client-layer pins (`Client`, `HardenedClient` and a
//! one-member `ClusterClient` send byte-identical request lines; the
//! single-server accessors take their payload or refuse a wrong kind),
//! included so that the root package's `cargo test` runs them too.

#[path = "../crates/serve/tests/client_layers.rs"]
mod client_layers;
