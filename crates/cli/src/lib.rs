#![warn(missing_docs)]

//! Library side of the `popgame` CLI: every subcommand implementation.
//!
//! The binary (`src/main.rs`) is a thin dispatcher over
//! [`commands`]; the logic lives here so rustdoc covers it (the binary
//! target shares its `popgame` name with the facade crate's lib and is
//! excluded from doc builds — rust-lang/cargo#6313 — so `doc = false` is
//! set on the bin and this `popgame_cli` lib carries the documentation).
//!
//! Every subcommand drives the same code paths as the `popgamed` daemon:
//! `solve` and `simulate` parse through the shared request structs in
//! `popgame_service::api` (identical validation, identical canonical
//! semantics, identical response documents), `serve` boots the very same
//! `PopgameService`, and `reproduce` runs the deterministic report
//! harness in `popgame_report`. Argument parsing is pure `std`.

mod bench;
pub mod commands;
pub mod fleet;
mod load;
