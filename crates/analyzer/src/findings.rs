//! Findings, the `// analyzer: allow(rule, reason)` escape hatch, and
//! the per-rule report the CI step publishes.

use crate::lexer::Comment;

/// One rule violation (or one suppressed would-be violation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (`no_panic`, `lock_order`, `relaxed_atomic`,
    /// `no_sleep`, `drift`, `allow_syntax`).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub hint: String,
    /// `Some(reason)` when an `analyzer: allow` suppressed it — kept in
    /// the report so suppressions are tracked across PRs, never lost.
    pub allowed: Option<String>,
}

impl Finding {
    /// `true` when the finding still counts against `--deny`.
    pub fn denied(&self) -> bool {
        self.allowed.is_none()
    }

    /// The `file:line [rule] message (fix: hint)` console form.
    pub fn render(&self) -> String {
        let status = match &self.allowed {
            Some(reason) => format!(" [allowed: {reason}]"),
            None => String::new(),
        };
        format!(
            "{}:{} [{}] {}{} (fix: {})",
            self.file, self.line, self.rule, self.message, status, self.hint
        )
    }
}

/// One parsed `analyzer: allow(rule, reason)` annotation.
#[derive(Debug, Clone)]
pub struct Allow {
    pub rule: String,
    pub reason: String,
    /// Line the annotation sits on; it covers that line and the next
    /// (so it can ride at the end of the flagged line or just above it).
    pub line: u32,
    /// Set when a rule consumed it (unused allows are reported, so
    /// stale suppressions cannot accumulate silently).
    pub used: std::cell::Cell<bool>,
}

/// Extracts every well-formed allow annotation from a file's comments,
/// and emits an `allow_syntax` finding for each malformed one (an
/// allow without a reason is exactly the silent suppression the
/// escape hatch exists to prevent).
pub fn parse_allows(file: &str, comments: &[Comment], findings: &mut Vec<Finding>) -> Vec<Allow> {
    let mut allows = Vec::new();
    for comment in comments {
        // Only a plain `// analyzer: …` line comment is an annotation.
        // Doc comments (`///`, `//!`) merely *document* the convention
        // and must not parse as one.
        let Some(body) = comment.text.strip_prefix("//") else {
            continue;
        };
        if body.starts_with('/') || body.starts_with('!') {
            continue;
        }
        let Some(rest) = body.trim_start().strip_prefix("analyzer:") else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(args) = rest.strip_prefix("allow") else {
            findings.push(Finding {
                rule: "allow_syntax",
                file: file.to_string(),
                line: comment.line,
                message: format!(
                    "unrecognized analyzer annotation: '{}'",
                    comment.text.trim()
                ),
                hint: "use `// analyzer: allow(<rule>, <reason>)`".into(),
                allowed: None,
            });
            continue;
        };
        let args = args.trim_start();
        let parsed = args
            .strip_prefix('(')
            .and_then(|a| a.split_once(')'))
            .and_then(|(inside, _)| inside.split_once(','))
            .map(|(rule, reason)| (rule.trim().to_string(), reason.trim().to_string()));
        match parsed {
            Some((rule, reason)) if !rule.is_empty() && !reason.is_empty() => {
                allows.push(Allow {
                    rule,
                    reason,
                    line: comment.line,
                    used: std::cell::Cell::new(false),
                });
            }
            _ => findings.push(Finding {
                rule: "allow_syntax",
                file: file.to_string(),
                line: comment.line,
                message: "analyzer allow without a rule id and non-empty reason".into(),
                hint: "write `// analyzer: allow(<rule>, <reason>)` — the reason is required"
                    .into(),
                allowed: None,
            }),
        }
    }
    allows
}

/// Applies the file's allows to a fresh finding: if a matching
/// annotation covers the finding's line (same line or the line just
/// above), the finding is downgraded to `allowed` and the annotation
/// is marked used.
pub fn apply_allows(finding: &mut Finding, allows: &[Allow]) {
    for allow in allows {
        let covers = allow.line == finding.line || allow.line + 1 == finding.line;
        if covers && allow.rule == finding.rule {
            finding.allowed = Some(allow.reason.clone());
            allow.used.set(true);
            return;
        }
    }
}

/// After a file's rules have all run: every allow that suppressed
/// nothing is itself a finding — a stale suppression is a hole in the
/// net that the next regression walks through.
pub fn report_unused_allows(file: &str, allows: &[Allow], findings: &mut Vec<Finding>) {
    for allow in allows {
        if !allow.used.get() {
            findings.push(Finding {
                rule: "allow_syntax",
                file: file.to_string(),
                line: allow.line,
                message: format!(
                    "stale allow({}) suppresses nothing on this or the next line",
                    allow.rule
                ),
                hint: "delete the annotation or move it to the line it covers".into(),
                allowed: None,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn well_formed_allow_parses() {
        let lexed = lex("// analyzer: allow(no_panic, cache was just filled two lines up)\nx\n");
        let mut findings = Vec::new();
        let allows = parse_allows("f.rs", &lexed.comments, &mut findings);
        assert!(findings.is_empty());
        assert_eq!(allows.len(), 1);
        assert_eq!(allows[0].rule, "no_panic");
        assert!(allows[0].reason.contains("just filled"));
    }

    #[test]
    fn reasonless_allow_is_a_finding() {
        let lexed = lex("// analyzer: allow(no_panic)\n");
        let mut findings = Vec::new();
        let allows = parse_allows("f.rs", &lexed.comments, &mut findings);
        assert!(allows.is_empty());
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "allow_syntax");
    }

    #[test]
    fn allow_covers_same_and_next_line_only() {
        let lexed = lex("// analyzer: allow(no_panic, fine here)\n");
        let mut sink = Vec::new();
        let allows = parse_allows("f.rs", &lexed.comments, &mut sink);
        let mut same = Finding {
            rule: "no_panic",
            file: "f.rs".into(),
            line: 1,
            message: String::new(),
            hint: String::new(),
            allowed: None,
        };
        let mut next = Finding {
            line: 2,
            ..same.clone()
        };
        let mut far = Finding {
            line: 3,
            ..same.clone()
        };
        let mut other_rule = Finding {
            rule: "lock_order",
            line: 1,
            ..same.clone()
        };
        apply_allows(&mut same, &allows);
        apply_allows(&mut next, &allows);
        apply_allows(&mut far, &allows);
        apply_allows(&mut other_rule, &allows);
        assert!(same.allowed.is_some());
        assert!(next.allowed.is_some());
        assert!(far.allowed.is_none());
        assert!(other_rule.allowed.is_none());
    }

    #[test]
    fn unused_allow_is_reported() {
        let lexed = lex("// analyzer: allow(no_panic, nothing here needs it)\n");
        let mut findings = Vec::new();
        let allows = parse_allows("f.rs", &lexed.comments, &mut findings);
        report_unused_allows("f.rs", &allows, &mut findings);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("stale allow"));
    }
}
