//! Rule `lock_order`: lock acquisitions on known named fields must
//! respect the declared hierarchy (levels in
//! [`crate::config::Config::workspace`]), and no known lock guard may
//! be held across a blocking `wait*` call — except a `Condvar`
//! parking on its own guard, which is the one blessed shape.
//!
//! The tracker is lexical and intraprocedural: it follows brace depth
//! through one file, binds a guard when it sees
//! `<receiver>.<field>.lock()/read()/write()` (or a declared helper
//! like `lock_inner()`), and kills the guard when its scope closes,
//! when `drop(name)` runs, or — for un-bound temporaries — at the end
//! of the statement. That is deliberately the same approximation a
//! reviewer makes reading the code, so a finding is always legible.

use crate::config::Config;
use crate::findings::{apply_allows, Allow, Finding};
use crate::lexer::{Lexed, TokenKind};
use crate::rules::{in_test, test_regions};

pub const RULE: &str = "lock_order";

/// Guard-returning methods on lock fields.
const ACQUIRE_METHODS: &[&str] = &["lock", "read", "write", "try_lock", "try_read", "try_write"];

/// Blocking park calls checked for the held-across-wait rule.
const WAIT_METHODS: &[&str] = &["wait", "wait_timeout", "wait_while", "wait_timeout_while"];

/// One live lock guard.
struct Guard {
    /// `let`-bound name, if any (temporaries have none).
    name: Option<String>,
    field: String,
    level: u8,
    /// Brace depth at the acquisition site.
    depth: usize,
    /// Bound by `if let` / `while let`: dies when the block it guards
    /// closes back to `depth` (not only when depth drops below).
    conditional: bool,
    /// A conditional guard's block has been entered.
    entered: bool,
    /// No `let` binding: dies at the end of the statement.
    temp: bool,
}

pub fn check(
    file: &str,
    lexed: &Lexed,
    cfg: &Config,
    allows: &[Allow],
    findings: &mut Vec<Finding>,
) {
    let fields: Vec<(&str, u8)> = cfg
        .locks
        .iter()
        .filter(|l| file.ends_with(l.file))
        .map(|l| (l.field, l.level))
        .collect();
    let helpers: Vec<(&str, u8)> = cfg
        .lock_helpers
        .iter()
        .filter(|h| file.ends_with(h.file))
        .map(|h| (h.method, h.level))
        .collect();
    if fields.is_empty() && helpers.is_empty() {
        return;
    }

    let tokens = &lexed.tokens;
    let regions = test_regions(tokens);
    let mut depth = 0usize;
    let mut guards: Vec<Guard> = Vec::new();

    let emit = |line: u32, message: String, hint: String, findings: &mut Vec<Finding>| {
        let mut f = Finding {
            rule: RULE,
            file: file.to_string(),
            line,
            message,
            hint,
            allowed: None,
        };
        apply_allows(&mut f, allows);
        findings.push(f);
    };

    for i in 0..tokens.len() {
        let t = &tokens[i];
        match t.kind {
            TokenKind::Punct('{') => {
                for g in &mut guards {
                    if g.conditional && g.depth == depth {
                        g.entered = true;
                    }
                }
                depth += 1;
                continue;
            }
            TokenKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| {
                    let closed =
                        g.depth > depth || (g.conditional && g.entered && g.depth == depth);
                    !closed
                });
                continue;
            }
            TokenKind::Punct(';') => {
                guards.retain(|g| !(g.temp && depth <= g.depth));
                continue;
            }
            _ => {}
        }
        if in_test(&regions, i) || t.kind != TokenKind::Ident {
            continue;
        }

        // `drop(name)` releases a named guard early.
        if t.is_ident("drop")
            && tokens.get(i + 1).is_some_and(|x| x.is_punct('('))
            && tokens.get(i + 3).is_some_and(|x| x.is_punct(')'))
        {
            if let Some(victim) = tokens.get(i + 2) {
                guards.retain(|g| g.name.as_deref() != Some(victim.text.as_str()));
            }
            continue;
        }

        // Held-across-wait: `<recv>.wait*(…)` with any known guard live,
        // unless the receiver is a declared condvar.
        if WAIT_METHODS.contains(&t.text.as_str())
            && i >= 2
            && tokens[i - 1].is_punct('.')
            && tokens.get(i + 1).is_some_and(|x| x.is_punct('('))
        {
            let recv = &tokens[i - 2].text;
            let is_condvar = cfg.condvar_receivers.iter().any(|c| c == recv);
            if !is_condvar {
                if let Some(g) = guards.first() {
                    emit(
                        t.line,
                        format!(
                            "`{recv}.{}()` parks while holding lock `{}` (level {})",
                            t.text, g.field, g.level
                        ),
                        format!(
                            "release `{}` before blocking, or poll with `try_poll`",
                            g.field
                        ),
                        findings,
                    );
                }
            }
            continue;
        }

        // Acquisition: `.<field>.<method>(` on a known field, or a
        // declared guard-returning helper call.
        let acquired: Option<(String, u8, u32)> = if let Some(&(_, level)) =
            helpers.iter().find(|(m, _)| t.is_ident(m)).filter(|_| {
                i >= 1
                    && tokens[i - 1].is_punct('.')
                    && tokens.get(i + 1).is_some_and(|x| x.is_punct('('))
            }) {
            Some((t.text.clone(), level, t.line))
        } else if let Some(&(_, level)) = fields.iter().find(|(f, _)| t.is_ident(f)).filter(|_| {
            i >= 1
                && tokens[i - 1].is_punct('.')
                && tokens.get(i + 1).is_some_and(|x| x.is_punct('.'))
                && tokens
                    .get(i + 2)
                    .is_some_and(|x| ACQUIRE_METHODS.contains(&x.text.as_str()))
                && tokens.get(i + 3).is_some_and(|x| x.is_punct('('))
        }) {
            Some((t.text.clone(), level, tokens[i + 2].line))
        } else {
            None
        };
        let Some((field, level, line)) = acquired else {
            continue;
        };

        for g in &guards {
            if g.field == field {
                emit(
                    line,
                    format!("re-acquires `{field}` while a guard on it is still live"),
                    format!("drop the earlier `{field}` guard first (non-reentrant lock)"),
                    findings,
                );
            } else if g.level > level {
                emit(
                    line,
                    format!(
                        "acquires `{field}` (level {level}) while holding `{}` (level {}) — inverts the declared hierarchy",
                        g.field, g.level
                    ),
                    format!(
                        "acquire `{field}` before `{}`, or drop `{}` first (hierarchy: crates/analyzer/src/config.rs)",
                        g.field, g.field
                    ),
                    findings,
                );
            }
        }

        // Bind the guard: scan back through the statement for `let`.
        let mut name = None;
        let mut conditional = false;
        let mut j = i;
        while j > 0 {
            j -= 1;
            let b = &tokens[j];
            if b.is_punct(';') || b.is_punct('{') || b.is_punct('}') {
                break;
            }
            if b.is_ident("let") {
                conditional =
                    j > 0 && (tokens[j - 1].is_ident("if") || tokens[j - 1].is_ident("while"));
                let mut k = j + 1;
                while tokens.get(k).is_some_and(|x| {
                    x.is_ident("mut")
                        || matches!(x.kind, TokenKind::Punct('(') | TokenKind::Punct(')'))
                }) {
                    k += 1;
                }
                if let Some(n) = tokens.get(k).filter(|x| x.kind == TokenKind::Ident) {
                    name = Some(n.text.clone());
                }
                break;
            }
        }
        guards.push(Guard {
            temp: name.is_none(),
            name,
            field,
            level,
            depth,
            conditional,
            entered: false,
        });
    }

    // A guard surviving to EOF means unbalanced braces somewhere; the
    // lexer has no recovery, so just drop them silently.
    let _ = guards;
}

/// Convenience for tests: run the rule over a snippet with the
/// workspace lock declarations scoped to `file`.
#[cfg(test)]
fn run_snippet(file: &str, src: &str) -> Vec<Finding> {
    use crate::findings::parse_allows;
    let lexed = crate::lexer::lex(src);
    let mut findings = Vec::new();
    let allows = parse_allows(file, &lexed.comments, &mut findings);
    check(file, &lexed, &Config::workspace(), &allows, &mut findings);
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_inversion_is_caught() {
        // homes (level 1) held, then membership (level 0): inverted.
        let bad = r#"
            fn f(&self) {
                let homes = self.homes.write().unwrap_or_else(E::into_inner);
                let snap = self.membership.read().unwrap_or_else(E::into_inner);
            }
        "#;
        let found = run_snippet("crates/core/src/cluster/mod.rs", bad);
        assert!(found
            .iter()
            .any(|f| f.rule == RULE && f.message.contains("inverts")));
    }

    #[test]
    fn clean_ordering_passes() {
        let clean = r#"
            fn f(&self) {
                let snap = self.membership.read().unwrap_or_else(E::into_inner);
                let homes = self.homes.write().unwrap_or_else(E::into_inner);
                drop(homes);
                let replicas = self.replicas.read().unwrap_or_else(E::into_inner);
            }
        "#;
        assert!(run_snippet("crates/core/src/cluster/mod.rs", clean).is_empty());
    }

    #[test]
    fn drop_releases_the_guard() {
        let ok = r#"
            fn f(&self) {
                let homes = self.homes.write().unwrap_or_else(E::into_inner);
                drop(homes);
                let snap = self.membership.read().unwrap_or_else(E::into_inner);
            }
        "#;
        assert!(run_snippet("crates/core/src/cluster/mod.rs", ok).is_empty());
    }

    #[test]
    fn scope_close_releases_the_guard() {
        let ok = r#"
            fn f(&self) {
                {
                    let homes = self.homes.write().unwrap_or_else(E::into_inner);
                    homes.insert(1, 2);
                }
                let snap = self.membership.read().unwrap_or_else(E::into_inner);
            }
        "#;
        assert!(run_snippet("crates/core/src/cluster/mod.rs", ok).is_empty());
    }

    #[test]
    fn reacquire_same_lock_is_caught() {
        let bad = r#"
            fn f(&self) {
                let a = self.inner.lock().unwrap_or_else(E::into_inner);
                let b = self.inner.lock().unwrap_or_else(E::into_inner);
            }
        "#;
        let found = run_snippet("crates/core/src/service.rs", bad);
        assert!(found.iter().any(|f| f.message.contains("re-acquires")));
    }

    #[test]
    fn wait_across_lock_is_caught_but_condvar_is_blessed() {
        let bad = r#"
            fn f(&self) {
                let inner = self.inner.lock().unwrap_or_else(E::into_inner);
                ticket.wait();
            }
        "#;
        let found = run_snippet("crates/core/src/service.rs", bad);
        assert!(found
            .iter()
            .any(|f| f.message.contains("parks while holding")));

        let blessed = r#"
            fn f(&self) {
                let mut slot = self.slot.lock().unwrap_or_else(E::into_inner);
                while slot.is_none() {
                    slot = self.ready.wait(slot).unwrap_or_else(E::into_inner);
                }
            }
        "#;
        assert!(run_snippet("crates/core/src/service.rs", blessed).is_empty());
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let ok = r#"
            fn f(&self) {
                self.wall_ns.lock().unwrap_or_else(E::into_inner).push(1);
                let snap = self.inner.lock().unwrap_or_else(E::into_inner);
            }
        "#;
        assert!(run_snippet("crates/core/src/service.rs", ok).is_empty());
    }

    #[test]
    fn helper_methods_count_as_acquisitions() {
        let bad = r#"
            fn f(&self) {
                let wall = self.wall_ns.lock().unwrap_or_else(E::into_inner);
                let inner = self.lock_inner();
            }
        "#;
        let found = run_snippet("crates/core/src/service.rs", bad);
        assert!(found.iter().any(|f| f.message.contains("inverts")));
    }
}
