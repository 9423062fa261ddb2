//! # `mla-serve`
//!
//! The multi-tenant serving daemon over the session layer of `mla-sim`:
//! a [`Server`] keeps a table of named [`TenantSession`]s, serves every
//! reveal frame one reveal at a time through [`Session::apply`] (the
//! loop body of `Simulation::run`), answers position/cost queries
//! mid-stream, and can checkpoint **all** tenants at once and restore
//! them — across a real process boundary — such that replaying the
//! remaining reveals is bit-identical to the uninterrupted run. A restore
//! replaces only the tenants its checkpoint names.
//!
//! The wire protocol is length-prefixed JSON frames
//! ([`mla_runner::wire`]); one request object in, one response object
//! out. Every response carries `"ok"`; failures carry a machine-readable
//! `"code"` plus a human-readable `"error"` and never tear down the
//! server (panic-safety is lint-enforced on this crate).
//!
//! Responses go out in request order. [`serve_loop`] holds the response
//! to a `reveal` frame while the next request is already in its input
//! buffer, and writes out everything held once that buffer drains or a
//! frame of another op arrives; every other response is flushed as soon
//! as it is made. A pipelined stream of reveals thus costs one write per
//! buffered batch, not one per reveal, and a client that waits for each
//! response never waits on a held one.
//!
//! [`serve_loop`] reads each frame once. A compact `reveal` request (the
//! one shape defined at `compact_reveal` in `server.rs`) skips the `Json`
//! tree: its four fields are read where they lie, and the cost response
//! is written straight into the output. The response bytes are the ones
//! [`Server::handle`] gives; every other frame takes that general path.
//!
//! The `mla-serve` binary wraps [`serve_loop`] around stdin/stdout (the
//! default) or a TCP listener, with `--restore`/`--checkpoint` flags for
//! crash recovery. See `docs/ARCHITECTURE.md` § "Sessions and
//! checkpoints" for the protocol reference.
//!
//! [`TenantSession`]: mla_sim::TenantSession
//! [`Session::apply`]: mla_sim::Session::apply

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod hex;
mod server;

pub use hex::{decode_hex, encode_hex};
pub use server::{serve_loop, Reply, Server};
