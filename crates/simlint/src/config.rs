//! `simlint.toml`: which paths are scanned and how each rule applies.
//!
//! The parser is a deliberately tiny TOML subset (the workspace has no
//! registry access, in the spirit of `shims/`): `[section]` headers,
//! `key = "string"`, `key = ["a", "b"]`, `#` comments. That covers the
//! whole configuration surface; anything fancier is a parse error with
//! a line number rather than a silent misread.

use crate::rules::Rule;
use std::collections::BTreeMap;

/// How violations of a rule are treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Report and fail the gate (subject to the baseline).
    Deny,
    /// Report but never fail.
    Warn,
    /// Rule disabled.
    Off,
}

impl Severity {
    pub fn label(self) -> &'static str {
        match self {
            Severity::Deny => "deny",
            Severity::Warn => "warn",
            Severity::Off => "off",
        }
    }
}

/// Which crates a rule applies to. Crate names are directory names
/// (`engine`, `routing`, …; the workspace `tests` member is `tests`).
#[derive(Debug, Clone, Default, PartialEq)]
pub enum CrateScope {
    /// Every scanned crate.
    #[default]
    All,
    /// Only the listed crates.
    Include(Vec<String>),
    /// Every crate except the listed ones.
    Exclude(Vec<String>),
}

impl CrateScope {
    pub fn contains(&self, krate: &str) -> bool {
        match self {
            CrateScope::All => true,
            CrateScope::Include(list) => list.iter().any(|c| c == krate),
            CrateScope::Exclude(list) => !list.iter().any(|c| c == krate),
        }
    }
}

/// Per-rule configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleConfig {
    pub severity: Severity,
    pub scope: CrateScope,
}

/// The whole configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Workspace-relative directories to scan for `.rs` files.
    pub include: Vec<String>,
    /// Workspace-relative path prefixes to skip (fixtures, vendored
    /// code). `target` directories are always skipped.
    pub exclude: Vec<String>,
    rules: BTreeMap<&'static str, RuleConfig>,
}

impl Default for Config {
    /// The defaults mirror the checked-in `simlint.toml`, so the tool
    /// behaves identically when run without a config file.
    fn default() -> Self {
        let mut rules = BTreeMap::new();
        rules.insert(
            Rule::HashIteration.slug(),
            RuleConfig {
                severity: Severity::Deny,
                scope: CrateScope::Include(
                    [
                        "engine",
                        "routing",
                        "netsim",
                        "faults",
                        "partition",
                        "core",
                        "snapshot",
                        "simlint",
                    ]
                    .map(String::from)
                    .to_vec(),
                ),
            },
        );
        rules.insert(
            Rule::WallClock.slug(),
            RuleConfig {
                severity: Severity::Deny,
                scope: CrateScope::Exclude(vec!["bench".to_string()]),
            },
        );
        rules.insert(
            Rule::EntropyRng.slug(),
            RuleConfig {
                severity: Severity::Deny,
                scope: CrateScope::Exclude(vec!["bench".to_string()]),
            },
        );
        rules.insert(
            Rule::FloatOrder.slug(),
            RuleConfig {
                severity: Severity::Deny,
                scope: CrateScope::Include(
                    [
                        "engine",
                        "parutil",
                        "netsim",
                        "routing",
                        "partition",
                        "core",
                        "snapshot",
                        "faults",
                    ]
                    .map(String::from)
                    .to_vec(),
                ),
            },
        );
        rules.insert(
            Rule::DeterminismTaint.slug(),
            RuleConfig {
                severity: Severity::Deny,
                scope: CrateScope::Exclude(vec!["bench".to_string()]),
            },
        );
        rules.insert(
            Rule::UnwrapAudit.slug(),
            RuleConfig {
                severity: Severity::Deny,
                scope: CrateScope::All,
            },
        );
        rules.insert(
            Rule::CastLossy.slug(),
            RuleConfig {
                severity: Severity::Deny,
                scope: CrateScope::Include(vec!["engine".to_string(), "routing".to_string()]),
            },
        );
        Config {
            include: vec!["crates".to_string(), "tests".to_string()],
            exclude: vec!["crates/simlint/tests/fixtures".to_string()],
            rules,
        }
    }
}

impl Config {
    /// The configuration of `rule` (defaults if the file omitted it).
    pub fn rule(&self, rule: Rule) -> RuleConfig {
        if rule == Rule::MalformedSuppression {
            // Broken suppressions are always hard errors: a suppression
            // that silently fails to apply would hide a violation, one
            // that silently applies without a reason defeats the audit.
            return RuleConfig {
                severity: Severity::Deny,
                scope: CrateScope::All,
            };
        }
        self.rules.get(rule.slug()).cloned().unwrap_or(RuleConfig {
            severity: Severity::Deny,
            scope: CrateScope::All,
        })
    }

    /// Does `rule` apply to `krate` at all?
    pub fn applies(&self, rule: Rule, krate: &str) -> bool {
        let rc = self.rule(rule);
        rc.severity != Severity::Off && rc.scope.contains(krate)
    }

    /// Parse the `simlint.toml` text. Errors carry 1-based line numbers.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        let mut section: Option<String> = None;
        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let Some(name) = rest.strip_suffix(']') else {
                    return Err(format!("line {lineno}: unterminated section header"));
                };
                section = Some(name.trim().to_string());
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("line {lineno}: expected `key = value`"));
            };
            let key = key.trim();
            let value = value.trim();
            match section.as_deref() {
                Some("lint") => match key {
                    "include" => cfg.include = parse_string_array(value, lineno)?,
                    "exclude" => cfg.exclude = parse_string_array(value, lineno)?,
                    other => {
                        return Err(format!("line {lineno}: unknown [lint] key `{other}`"));
                    }
                },
                Some(s) if s.starts_with("rule.") => {
                    let slug = &s["rule.".len()..];
                    let Some(rule) = Rule::from_slug(slug) else {
                        return Err(format!("section [rule.{slug}]: unknown rule `{slug}`"));
                    };
                    if rule == Rule::MalformedSuppression {
                        return Err(format!(
                            "section [rule.{slug}]: `{slug}` is not configurable"
                        ));
                    }
                    let entry = cfg.rules.entry(rule.slug()).or_insert_with(|| RuleConfig {
                        severity: Severity::Deny,
                        scope: CrateScope::All,
                    });
                    match key {
                        "severity" => {
                            entry.severity = match parse_string(value, lineno)?.as_str() {
                                "deny" => Severity::Deny,
                                "warn" => Severity::Warn,
                                "off" => Severity::Off,
                                other => {
                                    return Err(format!(
                                        "line {lineno}: severity must be \
                                         deny|warn|off, got `{other}`"
                                    ));
                                }
                            };
                        }
                        "crates" => {
                            entry.scope = CrateScope::Include(parse_string_array(value, lineno)?);
                        }
                        "exclude-crates" => {
                            entry.scope = CrateScope::Exclude(parse_string_array(value, lineno)?);
                        }
                        other => {
                            return Err(format!("line {lineno}: unknown rule key `{other}`"));
                        }
                    }
                }
                Some(other) => {
                    return Err(format!("line {lineno}: unknown section [{other}]"));
                }
                None => {
                    return Err(format!("line {lineno}: key outside any section"));
                }
            }
        }
        Ok(cfg)
    }
}

fn parse_string(value: &str, lineno: usize) -> Result<String, String> {
    let v = value.trim();
    let inner = v
        .strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .ok_or_else(|| format!("line {lineno}: expected a quoted string, got `{v}`"))?;
    Ok(inner.to_string())
}

fn parse_string_array(value: &str, lineno: usize) -> Result<Vec<String>, String> {
    let v = value.trim();
    let inner = v
        .strip_prefix('[')
        .and_then(|r| r.strip_suffix(']'))
        .ok_or_else(|| format!("line {lineno}: expected `[\"a\", \"b\"]`, got `{v}`"))?;
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue; // trailing comma
        }
        out.push(parse_string(part, lineno)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_scope_rules_sensibly() {
        let cfg = Config::default();
        assert!(cfg.applies(Rule::HashIteration, "engine"));
        assert!(!cfg.applies(Rule::HashIteration, "workloads"));
        assert!(cfg.applies(Rule::WallClock, "engine"));
        assert!(!cfg.applies(Rule::WallClock, "bench"));
        assert!(cfg.applies(Rule::UnwrapAudit, "bench"));
        assert!(cfg.applies(Rule::CastLossy, "routing"));
        assert!(!cfg.applies(Rule::CastLossy, "topology"));
    }

    #[test]
    fn parses_full_config() {
        let text = r#"
# comment
[lint]
include = ["crates", "tests"]
exclude = ["crates/simlint/tests/fixtures"]

[rule.hash-iteration]
severity = "deny"
crates = ["engine", "routing"]

[rule.wall-clock]
severity = "warn"
exclude-crates = ["bench"]

[rule.unwrap-audit]
severity = "off"
"#;
        let cfg = Config::parse(text).expect("valid config");
        assert_eq!(cfg.include, vec!["crates", "tests"]);
        assert!(cfg.applies(Rule::HashIteration, "engine"));
        assert!(!cfg.applies(Rule::HashIteration, "netsim"));
        assert_eq!(cfg.rule(Rule::WallClock).severity, Severity::Warn);
        assert!(!cfg.applies(Rule::UnwrapAudit, "engine"));
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "[lint\ninclude = []",
            "[lint]\ninclude = crates",
            "[lint]\nbogus = \"x\"",
            "[rule.nonsense]\nseverity = \"deny\"",
            "[rule.hash-iteration]\nseverity = \"fatal\"",
            "key = \"outside\"",
            "[rule.malformed-suppression]\nseverity = \"off\"",
        ] {
            assert!(Config::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn default_config_matches_checked_in_simlint_toml() {
        let file = Config::parse(include_str!("../../../simlint.toml")).expect("valid config");
        assert_eq!(Config::default(), file);
    }

    #[test]
    fn malformed_suppression_always_denies() {
        let cfg = Config::default();
        let rc = cfg.rule(Rule::MalformedSuppression);
        assert_eq!(rc.severity, Severity::Deny);
        assert!(rc.scope.contains("anything"));
    }
}
