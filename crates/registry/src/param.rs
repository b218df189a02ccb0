//! Typed tool parameters: declarative specs, CLI and JSON parsing.
//!
//! Every tool in the registry declares its parameters once as a static
//! [`ParamSpec`] table. Both front ends derive their surface from that
//! table: the CLI turns each spec into a `--name <value>` flag, and the
//! server accepts the same names as JSON object fields. Parsing either
//! surface produces the same [`ParamValues`], so a tool body cannot tell
//! (and must not care) which front end invoked it.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::json::Json;

/// The type of a tool parameter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParamKind {
    /// A `u64` (seeds, budgets).
    U64,
    /// A `u32` (widths, partition counts).
    U32,
    /// A `usize` (counts, capacities).
    Usize,
    /// A boolean flag; on the CLI it takes no value.
    Bool,
    /// A free-form string (file paths).
    Str,
    /// A comma-separated list of `u32` on the CLI; a JSON array of
    /// integers on the server.
    U32List,
}

impl ParamKind {
    /// The schema name for this kind, as published by `/v1/tools`.
    pub fn type_name(self) -> &'static str {
        match self {
            ParamKind::U64 => "u64",
            ParamKind::U32 => "u32",
            ParamKind::Usize => "usize",
            ParamKind::Bool => "bool",
            ParamKind::Str => "string",
            ParamKind::U32List => "u32-list",
        }
    }
}

/// A single declared parameter: name, type, default and help text.
#[derive(Clone, Copy, Debug)]
pub struct ParamSpec {
    /// Parameter name (dashed, e.g. `deadline-ms`); the CLI flag is
    /// `--<name>` and the JSON field is `<name>` verbatim.
    pub name: &'static str,
    /// Value type.
    pub kind: ParamKind,
    /// Default value in CLI text syntax; `None` makes the parameter
    /// optional with no default (absent unless supplied).
    pub default: Option<&'static str>,
    /// One-line help shown in usage text and the schema.
    pub help: &'static str,
}

impl ParamSpec {
    /// Declares a parameter.
    pub const fn new(
        name: &'static str,
        kind: ParamKind,
        default: Option<&'static str>,
        help: &'static str,
    ) -> Self {
        ParamSpec {
            name,
            kind,
            default,
            help,
        }
    }

    /// The JSON schema fragment for this parameter.
    pub fn schema(&self) -> Json {
        let mut fields = vec![
            ("name", Json::str(self.name)),
            ("type", Json::str(self.kind.type_name())),
        ];
        match self.default {
            Some(d) => fields.push(("default", Json::str(d))),
            None => fields.push(("default", Json::Null)),
        }
        fields.push(("help", Json::str(self.help)));
        Json::obj(fields)
    }

    /// Parses a CLI-style text value against this spec.
    pub(crate) fn parse_text(&self, text: &str) -> Result<ParamValue, ParamError> {
        let bad = || ParamError::new(format!("invalid --{} value", self.name));
        match self.kind {
            ParamKind::U64 => text.parse().map(ParamValue::U64).map_err(|_| bad()),
            ParamKind::U32 => text.parse().map(ParamValue::U32).map_err(|_| bad()),
            ParamKind::Usize => text.parse().map(ParamValue::Usize).map_err(|_| bad()),
            ParamKind::Bool => match text {
                "true" => Ok(ParamValue::Bool(true)),
                "false" => Ok(ParamValue::Bool(false)),
                _ => Err(bad()),
            },
            ParamKind::Str => Ok(ParamValue::Str(text.to_owned())),
            ParamKind::U32List => text
                .split(',')
                .map(|part| part.trim().parse::<u32>().map_err(|_| bad()))
                .collect::<Result<Vec<u32>, ParamError>>()
                .map(ParamValue::U32List),
        }
    }

    /// Parses a JSON value against this spec.
    fn parse_json(&self, value: &Json) -> Result<ParamValue, ParamError> {
        let bad = || {
            ParamError::new(format!(
                "parameter `{}` must be a {}",
                self.name,
                self.kind.type_name()
            ))
        };
        match self.kind {
            ParamKind::U64 => value.as_u64().map(ParamValue::U64).ok_or_else(bad),
            ParamKind::U32 => value
                .as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .map(ParamValue::U32)
                .ok_or_else(bad),
            ParamKind::Usize => value
                .as_u64()
                .and_then(|n| usize::try_from(n).ok())
                .map(ParamValue::Usize)
                .ok_or_else(bad),
            ParamKind::Bool => value.as_bool().map(ParamValue::Bool).ok_or_else(bad),
            ParamKind::Str => value
                .as_str()
                .map(|s| ParamValue::Str(s.to_owned()))
                .ok_or_else(bad),
            ParamKind::U32List => {
                let items = value.as_arr().ok_or_else(bad)?;
                items
                    .iter()
                    .map(|item| {
                        item.as_u64()
                            .and_then(|n| u32::try_from(n).ok())
                            .ok_or_else(bad)
                    })
                    .collect::<Result<Vec<u32>, ParamError>>()
                    .map(ParamValue::U32List)
            }
        }
    }
}

/// A parsed parameter value.
#[derive(Clone, Debug, PartialEq)]
pub enum ParamValue {
    /// A `u64`.
    U64(u64),
    /// A `u32`.
    U32(u32),
    /// A `usize`.
    Usize(usize),
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(String),
    /// A list of `u32`.
    U32List(Vec<u32>),
}

/// A parameter parse failure (maps to a usage error on the CLI and a
/// 400 response on the server).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParamError {
    /// Human-readable description.
    pub message: String,
}

impl ParamError {
    fn new(message: impl Into<String>) -> Self {
        ParamError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ParamError {}

/// The parameter values a tool invocation received, defaults included.
///
/// Accessors return the kind's zero value when a name is absent or of a
/// different kind; for values produced by [`parse_cli`] / [`parse_json`]
/// against the same spec table that a tool declared, this is unreachable
/// — defaults are seeded before user input is applied.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ParamValues {
    map: BTreeMap<&'static str, ParamValue>,
    /// Names whose value came from user input (CLI flag, JSON field or
    /// [`ParamValues::set`]) rather than a spec default. Profiles fill
    /// only non-explicit slots, so the precedence is always
    /// defaults < profile < explicit input.
    explicit: BTreeSet<&'static str>,
}

impl ParamValues {
    /// Seeds values with every spec's default.
    ///
    /// # Errors
    ///
    /// [`ParamError`] when a spec's default text does not parse (a
    /// programming error in a spec table, surfaced loudly).
    pub fn defaults(specs: &'static [ParamSpec]) -> Result<Self, ParamError> {
        let mut values = ParamValues::default();
        for spec in specs {
            if let Some(default) = spec.default {
                values.map.insert(spec.name, spec.parse_text(default)?);
            }
        }
        Ok(values)
    }

    /// Sets a value directly (used by front ends for derived settings).
    /// Counts as explicit input: a profile never overrides it.
    pub fn set(&mut self, name: &'static str, value: ParamValue) {
        self.map.insert(name, value);
        self.explicit.insert(name);
    }

    /// Sets a value without marking it explicit (profile entries: they
    /// beat spec defaults but lose to flags and JSON fields).
    pub(crate) fn set_soft(&mut self, name: &'static str, value: ParamValue) {
        if !self.explicit.contains(name) {
            self.map.insert(name, value);
        }
    }

    /// Whether `name` was supplied by user input (not defaulted).
    pub fn was_explicit(&self, name: &str) -> bool {
        self.explicit.contains(name)
    }

    /// Whether `name` was supplied or defaulted.
    pub fn contains(&self, name: &str) -> bool {
        self.map.contains_key(name)
    }

    /// A `u64` parameter.
    pub fn u64(&self, name: &str) -> u64 {
        match self.map.get(name) {
            Some(ParamValue::U64(v)) => *v,
            _ => 0,
        }
    }

    /// A `u32` parameter.
    pub fn u32(&self, name: &str) -> u32 {
        match self.map.get(name) {
            Some(ParamValue::U32(v)) => *v,
            _ => 0,
        }
    }

    /// A `usize` parameter.
    pub fn usize(&self, name: &str) -> usize {
        match self.map.get(name) {
            Some(ParamValue::Usize(v)) => *v,
            _ => 0,
        }
    }

    /// A boolean parameter.
    pub fn bool(&self, name: &str) -> bool {
        matches!(self.map.get(name), Some(ParamValue::Bool(true)))
    }

    /// A list parameter.
    pub fn u32_list(&self, name: &str) -> Vec<u32> {
        match self.map.get(name) {
            Some(ParamValue::U32List(v)) => v.clone(),
            _ => Vec::new(),
        }
    }

    /// An optional `u64` parameter (no default declared).
    pub fn opt_u64(&self, name: &str) -> Option<u64> {
        match self.map.get(name) {
            Some(ParamValue::U64(v)) => Some(*v),
            _ => None,
        }
    }

    /// An optional `usize` parameter (no default declared).
    pub fn opt_usize(&self, name: &str) -> Option<usize> {
        match self.map.get(name) {
            Some(ParamValue::Usize(v)) => Some(*v),
            _ => None,
        }
    }

    /// An optional string parameter (no default declared).
    pub fn opt_str(&self, name: &str) -> Option<&str> {
        match self.map.get(name) {
            Some(ParamValue::Str(s)) => Some(s),
            _ => None,
        }
    }
}

pub(crate) fn find_spec(specs: &'static [ParamSpec], name: &str) -> Option<&'static ParamSpec> {
    specs.iter().find(|spec| spec.name == name)
}

/// Parses CLI arguments (`--name value` / bare `--flag` for booleans)
/// against a spec table. Unknown flags are errors; `--help` is NOT
/// handled here — front ends intercept it before parsing.
///
/// # Errors
///
/// [`ParamError`] on unknown flags, missing values or bad values.
pub fn parse_cli(specs: &'static [ParamSpec], args: &[String]) -> Result<ParamValues, ParamError> {
    let mut values = ParamValues::defaults(specs)?;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(ParamError::new(format!(
                "unexpected argument `{arg}` (try --help)"
            )));
        };
        let Some(spec) = find_spec(specs, name) else {
            return Err(ParamError::new(format!(
                "unknown option `--{name}` (try --help)"
            )));
        };
        if spec.kind == ParamKind::Bool {
            values.set(spec.name, ParamValue::Bool(true));
            continue;
        }
        let Some(text) = iter.next() else {
            return Err(ParamError::new(format!("--{name} needs a value")));
        };
        let value = spec.parse_text(text)?;
        values.set(spec.name, value);
    }
    Ok(values)
}

/// Parses a JSON object's fields against a spec table. Unknown fields
/// are errors (strict by design: a typo'd field silently ignored would
/// change results without warning).
///
/// # Errors
///
/// [`ParamError`] on non-object input, unknown fields or bad values.
pub fn parse_json(specs: &'static [ParamSpec], params: &Json) -> Result<ParamValues, ParamError> {
    let mut values = ParamValues::defaults(specs)?;
    let entries = match params {
        Json::Null => &[][..],
        other => other
            .as_obj()
            .ok_or_else(|| ParamError::new("`params` must be a JSON object"))?,
    };
    for (name, value) in entries {
        let Some(spec) = find_spec(specs, name) else {
            return Err(ParamError::new(format!("unknown parameter `{name}`")));
        };
        let value = spec.parse_json(value)?;
        values.set(spec.name, value);
    }
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    static SPECS: &[ParamSpec] = &[
        ParamSpec::new("patterns", ParamKind::Usize, Some("10000"), "pattern count"),
        ParamSpec::new("width", ParamKind::U32, Some("32"), "TAM width"),
        ParamSpec::new("stats", ParamKind::Bool, Some("false"), "print stats"),
        ParamSpec::new("widths", ParamKind::U32List, Some("8,16"), "width sweep"),
        ParamSpec::new("deadline-ms", ParamKind::U64, None, "wall-clock budget"),
        ParamSpec::new("svg", ParamKind::Str, None, "SVG output path"),
    ];

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn cli_parsing_applies_defaults_and_overrides() {
        let values = parse_cli(SPECS, &args(&["--patterns", "42", "--stats"])).unwrap();
        assert_eq!(values.usize("patterns"), 42);
        assert_eq!(values.u32("width"), 32);
        assert!(values.bool("stats"));
        assert_eq!(values.u32_list("widths"), vec![8, 16]);
        assert_eq!(values.opt_u64("deadline-ms"), None);
        assert_eq!(values.opt_str("svg"), None);
    }

    #[test]
    fn cli_unknown_flag_and_missing_value_fail() {
        assert!(parse_cli(SPECS, &args(&["--bogus"])).is_err());
        assert!(parse_cli(SPECS, &args(&["--width"])).is_err());
        assert!(parse_cli(SPECS, &args(&["loose"])).is_err());
        assert!(parse_cli(SPECS, &args(&["--width", "x"])).is_err());
    }

    #[test]
    fn json_parsing_matches_cli_parsing() {
        let from_cli = parse_cli(
            SPECS,
            &args(&["--patterns", "7", "--widths", "8,24", "--svg", "out.svg"]),
        )
        .unwrap();
        let from_json = parse_json(
            SPECS,
            &Json::parse(r#"{"patterns":7,"widths":[8,24],"svg":"out.svg"}"#).unwrap(),
        )
        .unwrap();
        assert_eq!(from_cli, from_json);
    }

    #[test]
    fn json_unknown_field_is_strictly_rejected() {
        let err = parse_json(SPECS, &Json::parse(r#"{"patern":7}"#).unwrap()).unwrap_err();
        assert!(err.message.contains("patern"));
    }

    #[test]
    fn json_type_mismatch_is_rejected() {
        assert!(parse_json(SPECS, &Json::parse(r#"{"patterns":"7"}"#).unwrap()).is_err());
        assert!(parse_json(SPECS, &Json::parse(r#"{"widths":[-3]}"#).unwrap()).is_err());
        assert!(parse_json(SPECS, &Json::parse("[]").unwrap()).is_err());
        assert!(parse_json(SPECS, &Json::Null).is_ok());
    }

    #[test]
    fn schema_reports_name_type_default_help() {
        let schema = SPECS[0].schema().render();
        assert!(schema.contains(r#""name":"patterns""#));
        assert!(schema.contains(r#""type":"usize""#));
        assert!(schema.contains(r#""default":"10000""#));
    }
}
