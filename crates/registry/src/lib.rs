//! Schema-driven tool registry shared by the `soctam` CLI and the
//! `soctam-serve` daemon.
//!
//! Every pipeline operation (optimize, table, compact, ...) is declared
//! **once** as a [`Tool`]: a name, a one-line summary, a typed parameter
//! table and an implementation function. Both front ends are generated
//! from that single declaration:
//!
//! * the CLI turns each tool into a subcommand and each [`ParamSpec`]
//!   into a `--flag`, so there is no hand-maintained dispatch to drift
//!   out of sync;
//! * the daemon serves each tool at `POST /v1/tools/<name>` and accepts
//!   the same parameter names as JSON fields, publishing the whole
//!   schema at `GET /v1/tools`.
//!
//! Parsing either surface yields the same [`ParamValues`], so a tool
//! body cannot tell which front end invoked it — which is what makes
//! CLI-vs-server byte-parity testable. The execution resources arrive
//! beside the parameters, in the [`soctam::RunCtx`] the front end builds.
//!
//! The crate also hosts the dependency-free [`Json`] value used by the
//! daemon's wire format (the workspace is std-only by policy).
//!
//! # Example
//!
//! ```
//! use soctam::RunCtx;
//! use soctam_registry::{parse_cli, standard_registry};
//!
//! let tool = standard_registry().get("info").unwrap();
//! let params = parse_cli(tool.params, &[]).unwrap();
//! let soc = soctam_registry::resolve_soc("d695").unwrap();
//! let out = (tool.run)(&soc, &params, &RunCtx::default()).unwrap();
//! assert!(out.text.contains("d695"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod json;
mod param;
mod profile;
mod tool;
mod tools;

pub use json::{Json, JsonError};
pub use param::{parse_cli, parse_json, ParamError, ParamKind, ParamSpec, ParamValue, ParamValues};
pub use profile::{expand_profile, parse_profile};
pub use tool::{Tool, ToolError, ToolErrorKind, ToolFn, ToolOutput, ToolRegistry};
pub use tools::{resolve_soc, resolve_soc_text, standard_registry};
