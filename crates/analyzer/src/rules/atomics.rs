//! Rule `relaxed_atomic`: `Ordering::Relaxed` on an atomic that gates
//! data visibility (the checked-in manifest in
//! [`crate::config::Config::workspace`]) is a finding unless
//! allowlisted with a reason. Relaxed is fine for pure counters; it is
//! wrong for flags whose observers then read *other* memory that the
//! flag-setter wrote — those need Acquire/Release pairing or the
//! reader can see the flag before the data.

use crate::config::Config;
use crate::findings::{apply_allows, Allow, Finding};
use crate::lexer::{Lexed, Token, TokenKind};
use crate::rules::{in_test, test_regions};

pub const RULE: &str = "relaxed_atomic";

/// Atomic methods that take an `Ordering` argument.
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Walks back from a `Relaxed` token to the atomic call it belongs to,
/// returning `(method, receiver field)` when both are recognizable.
fn call_context(tokens: &[Token], relaxed_idx: usize) -> Option<(String, String)> {
    let mut i = relaxed_idx;
    let mut steps = 0;
    while i > 0 && steps < 256 {
        i -= 1;
        steps += 1;
        let t = &tokens[i];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            return None;
        }
        if t.kind == TokenKind::Ident
            && ATOMIC_METHODS.contains(&t.text.as_str())
            && i >= 1
            && tokens[i - 1].is_punct('.')
            && tokens.get(i + 1).is_some_and(|x| x.is_punct('('))
        {
            // Receiver: the token before the `.`, skipping one
            // balanced `[…]` index group (`flags[id].swap(…)`).
            let mut r = i - 1;
            if r > 0 && tokens[r - 1].is_punct(']') {
                let mut depth = 0usize;
                while r > 0 {
                    r -= 1;
                    if tokens[r].is_punct(']') {
                        depth += 1;
                    } else if tokens[r].is_punct('[') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                }
            }
            if r > 0 && tokens[r - 1].kind == TokenKind::Ident {
                return Some((t.text.clone(), tokens[r - 1].text.clone()));
            }
            return Some((t.text.clone(), String::new()));
        }
    }
    None
}

pub fn check(
    file: &str,
    lexed: &Lexed,
    cfg: &Config,
    allows: &[Allow],
    findings: &mut Vec<Finding>,
) {
    let tokens = &lexed.tokens;
    let regions = test_regions(tokens);
    for i in 3..tokens.len() {
        if in_test(&regions, i) {
            continue;
        }
        let qualified = tokens[i].is_ident("Relaxed")
            && tokens[i - 1].is_punct(':')
            && tokens[i - 2].is_punct(':')
            && tokens[i - 3].is_ident("Ordering");
        if !qualified {
            continue;
        }
        let Some((method, field)) = call_context(tokens, i) else {
            continue;
        };
        let Some(spec) = cfg.data_gating_atomics.iter().find(|a| a.field == field) else {
            continue;
        };
        let mut f = Finding {
            rule: RULE,
            file: file.to_string(),
            line: tokens[i].line,
            message: format!(
                "Relaxed `{method}` on data-gating atomic `{field}` — {}",
                spec.why
            ),
            hint: "use Acquire for loads / Release for stores (AcqRel for RMW), or annotate \
                   `// analyzer: allow(relaxed_atomic, <why ordering is not needed here>)`"
                .to_string(),
            allowed: None,
        };
        apply_allows(&mut f, allows);
        findings.push(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::findings::parse_allows;
    use crate::lexer::lex;

    fn run(src: &str) -> Vec<Finding> {
        let lexed = lex(src);
        let mut findings = Vec::new();
        let allows = parse_allows("f.rs", &lexed.comments, &mut findings);
        check("f.rs", &lexed, &Config::workspace(), &allows, &mut findings);
        findings
    }

    #[test]
    fn seeded_relaxed_on_gating_flag_is_caught() {
        let bad = "fn f(&self) -> bool { self.stopped.load(Ordering::Relaxed) }";
        let found = run(bad);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("stopped"));
        assert!(found[0].denied());
    }

    #[test]
    fn clean_acquire_release_passes() {
        let clean = "fn f(&self) { self.stopped.store(true, Ordering::Release); \
                     let _ = self.stopped.load(Ordering::Acquire); }";
        assert!(run(clean).is_empty());
    }

    #[test]
    fn relaxed_on_plain_counter_is_fine() {
        let ok = "fn f(&self) { self.jobs_done.fetch_add(1, Ordering::Relaxed); }";
        assert!(run(ok).is_empty());
    }

    #[test]
    fn indexed_receiver_is_resolved() {
        let bad = "fn f(&self) { self.draining[id].swap(true, Ordering::Relaxed); }";
        let found = run(bad);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("draining"));
    }

    #[test]
    fn failure_ordering_of_cas_is_checked_too() {
        let bad = "fn f(&self) { let _ = self.stopped.compare_exchange(false, true, \
                   Ordering::AcqRel, Ordering::Relaxed); }";
        assert_eq!(run(bad).len(), 1);
    }

    #[test]
    fn allow_with_reason_downgrades() {
        let src = "fn f(&self) -> u64 {\n    // analyzer: allow(relaxed_atomic, monotonic counter only read for stats)\n    self.executor_panics.load(Ordering::Relaxed)\n}";
        let found = run(src);
        assert_eq!(found.len(), 1);
        assert!(!found[0].denied());
    }
}
