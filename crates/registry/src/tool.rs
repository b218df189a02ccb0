//! The tool abstraction: one named pipeline operation with a declared
//! parameter schema, invokable from any front end.

use std::fmt;

use soctam::{RunCtx, Soc, SoctamError};

use crate::json::Json;
use crate::param::{ParamSpec, ParamValues};

/// How a tool invocation failed; front ends map this to their surface
/// (CLI exit codes, HTTP status codes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ToolErrorKind {
    /// The request itself was malformed (unknown flag, bad value).
    /// CLI exit 2; HTTP 400.
    Usage,
    /// The inputs were well-formed but semantically invalid; carries
    /// stable diagnostic codes. CLI exit 1; HTTP 422.
    Invalid,
    /// The operation ran and failed. CLI exit 1; HTTP 500.
    Failed,
}

/// A structured tool failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ToolError {
    /// Failure class.
    pub kind: ToolErrorKind,
    /// Human-readable description.
    pub message: String,
    /// Stable diagnostic codes (`SOC-V*`, `PAT-V*`, `SCH-V*`, ...) when
    /// the failure came from a validation pass; empty otherwise.
    pub codes: Vec<String>,
}

impl ToolError {
    /// A malformed-request error.
    pub fn usage(message: impl Into<String>) -> Self {
        ToolError {
            kind: ToolErrorKind::Usage,
            message: message.into(),
            codes: Vec::new(),
        }
    }

    /// A runtime failure.
    pub fn failed(message: impl Into<String>) -> Self {
        ToolError {
            kind: ToolErrorKind::Failed,
            message: message.into(),
            codes: Vec::new(),
        }
    }

    /// Maps a pipeline error, preserving validation diagnostic codes.
    pub fn from_soctam(err: &SoctamError) -> Self {
        if let SoctamError::Validation(diags) = err {
            return ToolError {
                kind: ToolErrorKind::Invalid,
                message: err.to_string(),
                codes: diags.items().iter().map(|d| d.code().to_owned()).collect(),
            };
        }
        ToolError::failed(err.to_string())
    }
}

impl fmt::Display for ToolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)?;
        if !self.codes.is_empty() {
            write!(f, " [{}]", self.codes.join(", "))?;
        }
        Ok(())
    }
}

impl std::error::Error for ToolError {}

/// What a successful tool invocation produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ToolOutput {
    /// The human-readable report (the CLI prints this verbatim; the
    /// server embeds it in the response JSON).
    pub text: String,
    /// Whether an optimization budget expired and the result is the
    /// best found so far rather than the converged answer.
    pub degraded: bool,
}

impl ToolOutput {
    /// A non-degraded output.
    pub fn text(text: String) -> Self {
        ToolOutput {
            text,
            degraded: false,
        }
    }
}

/// The signature every tool implementation has. The front end builds
/// the [`RunCtx`] once per invocation (the CLI from its flags, the
/// daemon from its startup pool and shared cache plus the job's cancel
/// token and progress sink); tools only read it and construct no pool
/// or cache of their own.
pub type ToolFn = fn(&Soc, &ParamValues, &RunCtx) -> Result<ToolOutput, ToolError>;

/// A registered pipeline operation.
#[derive(Clone)]
pub struct Tool {
    /// Tool name; doubles as the CLI subcommand and the server route
    /// segment (`POST /v1/tools/<name>`).
    pub name: &'static str,
    /// One-line summary for usage text and the schema.
    pub summary: &'static str,
    /// Declared parameters.
    pub params: &'static [ParamSpec],
    /// The implementation.
    pub run: ToolFn,
}

impl Tool {
    /// The tool's JSON schema: name, summary and parameter table.
    pub fn schema(&self) -> Json {
        Json::obj(vec![
            ("name", Json::str(self.name)),
            ("summary", Json::str(self.summary)),
            (
                "params",
                Json::Arr(self.params.iter().map(ParamSpec::schema).collect()),
            ),
        ])
    }
}

/// A named collection of tools; the single source of truth both front
/// ends generate their surface from.
#[derive(Default)]
pub struct ToolRegistry {
    tools: Vec<Tool>,
}

impl ToolRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ToolRegistry::default()
    }

    /// Adds a tool.
    ///
    /// # Panics
    ///
    /// On a duplicate name — registration happens once at startup from
    /// static tables, so a collision is a programming error, not a
    /// recoverable condition.
    pub fn register(&mut self, tool: Tool) {
        assert!(
            self.tools.iter().all(|t| t.name != tool.name),
            "duplicate tool name `{}`",
            tool.name
        );
        self.tools.push(tool);
    }

    /// Looks a tool up by name.
    pub fn get(&self, name: &str) -> Option<&Tool> {
        self.tools.iter().find(|tool| tool.name == name)
    }

    /// All tools, in registration order.
    pub fn tools(&self) -> &[Tool] {
        &self.tools
    }

    /// The full registry schema (`[{name, summary, params}, ...]`).
    pub fn schema(&self) -> Json {
        Json::Arr(self.tools.iter().map(Tool::schema).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamKind;

    static P: &[ParamSpec] = &[ParamSpec::new("n", ParamKind::U64, Some("1"), "a number")];

    fn dummy(_: &Soc, params: &ParamValues, _: &RunCtx) -> Result<ToolOutput, ToolError> {
        Ok(ToolOutput::text(format!("n={}", params.u64("n"))))
    }

    fn registry() -> ToolRegistry {
        let mut reg = ToolRegistry::new();
        reg.register(Tool {
            name: "dummy",
            summary: "a test tool",
            params: P,
            run: dummy,
        });
        reg
    }

    #[test]
    fn lookup_and_schema_work() {
        let reg = registry();
        assert!(reg.get("dummy").is_some());
        assert!(reg.get("missing").is_none());
        let schema = reg.schema().render();
        assert!(schema.contains(r#""name":"dummy""#));
        assert!(schema.contains(r#""summary":"a test tool""#));
        assert!(schema.contains(r#""name":"n""#));
    }

    #[test]
    #[should_panic(expected = "duplicate tool name")]
    fn duplicate_registration_panics() {
        let mut reg = registry();
        reg.register(Tool {
            name: "dummy",
            summary: "again",
            params: P,
            run: dummy,
        });
    }

    #[test]
    fn tool_error_display_appends_codes() {
        let mut err = ToolError::failed("boom");
        assert_eq!(err.to_string(), "boom");
        err.codes = vec!["SOC-V1".into(), "SCH-V2".into()];
        assert_eq!(err.to_string(), "boom [SOC-V1, SCH-V2]");
    }
}
