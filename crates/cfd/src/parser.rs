//! A compact text syntax for CFDs.
//!
//! The paper writes rules as `φ1 : (ZIP → CT, STT, {46360 ‖ Michigan City, IN})`.
//! The equivalent in this crate's syntax is one rule per line:
//!
//! ```text
//! # φ1: zip 46360 determines city and state
//! ZIP -> CT, STT : 46360 || Michigan City, IN
//! # φ5: within Fort Wayne, street determines zip (variable CFD)
//! STR, CT -> ZIP : _, Fort Wayne || _
//! ```
//!
//! Grammar per non-empty, non-comment line:
//!
//! ```text
//! rule      := lhs "->" rhs [ ":" lhs_pat "||" rhs_pat ]
//! lhs, rhs  := attr ("," attr)*
//! lhs_pat   := entry ("," entry)*        -- aligned with lhs
//! rhs_pat   := entry ("," entry)*        -- aligned with rhs
//! entry     := "_" | text                -- "_" is the '−' wildcard
//! ```
//!
//! Omitting the pattern section yields an all-wildcard pattern, i.e. a plain
//! FD.  Lines starting with `#` are comments.  Multi-RHS lines are normalised
//! into one [`Cfd`] per RHS attribute, mirroring §1.2 of the paper.

use gdr_relation::Schema;

use crate::error::CfdError;
use crate::rule::{Cfd, CfdSpec};
use crate::Result;

/// Parses a multi-line rule document into normal-form CFDs.
pub fn parse_rules(schema: &Schema, text: &str) -> Result<Vec<Cfd>> {
    let mut rules = Vec::new();
    let mut rule_counter = 0usize;
    for (line_no, raw_line) in text.lines().enumerate() {
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        rule_counter += 1;
        let spec = parse_spec_line(line, line_no + 1, &format!("phi{rule_counter}"))?;
        let mut normalized = spec.normalize(schema).map_err(|err| match err {
            CfdError::Parse { .. } => err,
            other => CfdError::Parse {
                line: line_no + 1,
                detail: other.to_string(),
            },
        })?;
        rules.append(&mut normalized);
    }
    Ok(rules)
}

/// Parses a single rule line into the (possibly multi-RHS) specification form.
pub(crate) fn parse_spec_line(line: &str, line_no: usize, default_name: &str) -> Result<CfdSpec> {
    // Optional explicit name prefix: `name: LHS -> RHS ...` is not supported
    // because attribute lists already use commas; the default name is the
    // rule's position (`phi1`, `phi2`, ...).
    let (deps, pattern) = match line.split_once(':') {
        Some((deps, pattern)) => (deps.trim(), Some(pattern.trim())),
        None => (line.trim(), None),
    };

    let (lhs_text, rhs_text) = deps.split_once("->").ok_or_else(|| CfdError::Parse {
        line: line_no,
        detail: "missing `->` between LHS and RHS".to_string(),
    })?;
    let lhs = split_list(lhs_text);
    let rhs = split_list(rhs_text);
    if lhs.is_empty() || lhs.iter().any(|s| s.is_empty()) {
        return Err(CfdError::Parse {
            line: line_no,
            detail: "empty left-hand side".to_string(),
        });
    }
    if rhs.is_empty() || rhs.iter().any(|s| s.is_empty()) {
        return Err(CfdError::Parse {
            line: line_no,
            detail: "empty right-hand side".to_string(),
        });
    }

    let (lhs_pattern, rhs_pattern) = match pattern {
        None => (vec![None; lhs.len()], vec![None; rhs.len()]),
        Some(pattern) => {
            let (lhs_pat_text, rhs_pat_text) =
                pattern.split_once("||").ok_or_else(|| CfdError::Parse {
                    line: line_no,
                    detail: "pattern section must contain `||` separating LHS and RHS entries"
                        .to_string(),
                })?;
            let lhs_pattern = parse_pattern_list(lhs_pat_text);
            let rhs_pattern = parse_pattern_list(rhs_pat_text);
            if lhs_pattern.len() != lhs.len() {
                return Err(CfdError::Parse {
                    line: line_no,
                    detail: format!(
                        "LHS pattern has {} entries but LHS has {} attributes",
                        lhs_pattern.len(),
                        lhs.len()
                    ),
                });
            }
            if rhs_pattern.len() != rhs.len() {
                return Err(CfdError::Parse {
                    line: line_no,
                    detail: format!(
                        "RHS pattern has {} entries but RHS has {} attributes",
                        rhs_pattern.len(),
                        rhs.len()
                    ),
                });
            }
            (lhs_pattern, rhs_pattern)
        }
    };

    Ok(CfdSpec {
        name: default_name.to_string(),
        lhs,
        rhs,
        lhs_pattern,
        rhs_pattern,
    })
}

/// Renders a rule back into the textual syntax (one line, no name).
pub fn rule_to_line(schema: &Schema, rule: &Cfd) -> String {
    let lhs: Vec<&str> = rule.lhs().iter().map(|&a| schema.attr_name(a)).collect();
    let lhs_pat: Vec<String> = rule
        .lhs_pattern()
        .iter()
        .map(|p| p.to_string())
        .map(|s| if s.is_empty() { "_".to_string() } else { s })
        .collect();
    let rhs_pat = {
        let s = rule.rhs_pattern().to_string();
        if s.is_empty() {
            "_".to_string()
        } else {
            s
        }
    };
    format!(
        "{} -> {} : {} || {}",
        lhs.join(", "),
        schema.attr_name(rule.rhs()),
        lhs_pat.join(", "),
        rhs_pat
    )
}

fn split_list(text: &str) -> Vec<String> {
    text.split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !(text.trim().is_empty() && s.is_empty()))
        .collect()
}

fn parse_pattern_list(text: &str) -> Vec<Option<String>> {
    text.split(',')
        .map(|s| {
            let s = s.trim();
            if s == "_" {
                None
            } else {
                Some(s.to_string())
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdr_relation::{Schema, Table, Value};

    fn schema() -> Schema {
        Schema::new(&["Name", "SRC", "STR", "CT", "STT", "ZIP"])
    }

    /// The five rules of Figure 1 in the textual syntax.
    pub(crate) fn figure1_rules_text() -> &'static str {
        "\
# phi1..phi4: zip determines city and state in specific contexts
ZIP -> CT, STT : 46360 || Michigan City, IN
ZIP -> CT, STT : 46774 || New Haven, IN
ZIP -> CT, STT : 46825 || Fort Wayne, IN
ZIP -> CT, STT : 46391 || Westville, IN
# phi5: street determines zip within Fort Wayne
STR, CT -> ZIP : _, Fort Wayne || _
"
    }

    #[test]
    fn parses_figure1_rules() {
        let rules = parse_rules(&schema(), figure1_rules_text()).unwrap();
        // Four multi-RHS constant specs split into two rules each, plus one
        // variable rule.
        assert_eq!(rules.len(), 9);
        assert_eq!(rules.iter().filter(|r| r.is_constant()).count(), 8);
        let variable = rules.iter().find(|r| !r.is_constant()).unwrap();
        assert_eq!(variable.lhs().len(), 2);
        assert_eq!(variable.rhs(), 5); // ZIP
    }

    #[test]
    fn plain_fd_without_pattern() {
        let rules = parse_rules(&schema(), "ZIP -> CT\n").unwrap();
        assert_eq!(rules.len(), 1);
        assert!(!rules[0].is_constant());
        let mut table = Table::new("t", schema());
        table.push_row(vec![Value::Null; 6]).unwrap();
        let (_, t) = table.iter().next().unwrap();
        assert!(rules[0].in_context(&t)); // all-wildcard context
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "\n# comment only\n\nZIP -> CT : 46360 || Michigan City\n\n";
        let rules = parse_rules(&schema(), text).unwrap();
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].name(), "phi1");
    }

    #[test]
    fn pattern_constants_are_bound() {
        let rules = parse_rules(&schema(), "ZIP -> CT : 46360 || Michigan City").unwrap();
        let rule = &rules[0];
        assert!(rule.is_constant());
        assert_eq!(
            rule.rhs_pattern().as_const(),
            Some(&Value::from("Michigan City"))
        );
        assert_eq!(
            rule.lhs_pattern()[0].as_const(),
            Some(&Value::from("46360"))
        );
    }

    #[test]
    fn missing_arrow_is_an_error() {
        let err = parse_rules(&schema(), "ZIP CT : x || y").unwrap_err();
        assert!(matches!(err, CfdError::Parse { line: 1, .. }));
    }

    #[test]
    fn missing_double_bar_is_an_error() {
        let err = parse_rules(&schema(), "ZIP -> CT : 46360, Michigan City").unwrap_err();
        assert!(matches!(err, CfdError::Parse { .. }));
    }

    #[test]
    fn misaligned_patterns_are_errors() {
        assert!(parse_rules(&schema(), "ZIP -> CT : 46360, extra || x").is_err());
        assert!(parse_rules(&schema(), "ZIP -> CT : 46360 || x, y").is_err());
    }

    #[test]
    fn empty_sides_are_errors() {
        assert!(parse_rules(&schema(), " -> CT").is_err());
        assert!(parse_rules(&schema(), "ZIP -> ").is_err());
    }

    #[test]
    fn unknown_attribute_is_reported_with_line() {
        let err = parse_rules(&schema(), "ZIP -> Country : 1 || x").unwrap_err();
        match err {
            CfdError::Parse { line, detail } => {
                assert_eq!(line, 1);
                assert!(detail.contains("Country"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rule_to_line_round_trips() {
        let schema = schema();
        let rules = parse_rules(&schema, "STR, CT -> ZIP : _, Fort Wayne || _").unwrap();
        let line = rule_to_line(&schema, &rules[0]);
        let reparsed = parse_rules(&schema, &line).unwrap();
        assert_eq!(reparsed[0].lhs(), rules[0].lhs());
        assert_eq!(reparsed[0].rhs(), rules[0].rhs());
        assert_eq!(reparsed[0].lhs_pattern(), rules[0].lhs_pattern());
        assert_eq!(reparsed[0].rhs_pattern(), rules[0].rhs_pattern());
    }

    #[test]
    fn names_follow_rule_positions() {
        let rules = parse_rules(
            &schema(),
            "ZIP -> CT : 46360 || Michigan City\nZIP -> CT, STT : 46391 || Westville, IN\n",
        )
        .unwrap();
        assert_eq!(rules[0].name(), "phi1");
        assert_eq!(rules[1].name(), "phi2,1");
        assert_eq!(rules[2].name(), "phi2,2");
    }
}
