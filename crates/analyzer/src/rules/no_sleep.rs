//! Rule `no_sleep`: `thread::sleep` in the serving stack or its tests
//! is a finding. A sleep on a serving path is a timer on some caller's
//! latency, and a sleep in a test bets that a timer outlasts the
//! scheduler; both should block on the event they wait for instead. A
//! sleep that must stay — a back-off after an error that would
//! otherwise repeat at once — carries a reasoned allow.
//!
//! `thread::yield_now` outside test code is a finding too: a loop that
//! yields until something changes is a guess about the scheduler.
//! Test code (a `#[cfg(test)]` region or a file under a `tests/`
//! directory) may yield in a counter wait with a stall limit.

use crate::findings::{apply_allows, Allow, Finding};
use crate::lexer::Lexed;
use crate::rules::{in_test, test_regions};

pub const RULE: &str = "no_sleep";

pub fn check(file: &str, lexed: &Lexed, allows: &[Allow], findings: &mut Vec<Finding>) {
    let tokens = &lexed.tokens;
    let test_file = file.starts_with("tests/") || file.contains("/tests/");
    let regions = test_regions(tokens);
    for i in 3..tokens.len() {
        let in_thread = tokens[i - 1].is_punct(':')
            && tokens[i - 2].is_punct(':')
            && tokens[i - 3].is_ident("thread");
        let message = if in_thread && tokens[i].is_ident("sleep") {
            "`thread::sleep` in serving-stack or test code"
        } else if in_thread
            && tokens[i].is_ident("yield_now")
            && !test_file
            && !in_test(&regions, i)
        {
            "`thread::yield_now` outside test code"
        } else {
            continue;
        };
        let mut f = Finding {
            rule: RULE,
            file: file.to_string(),
            line: tokens[i].line,
            message: message.into(),
            hint: "block on the event being waited for (a condvar, a blocking call), \
                   or annotate `// analyzer: allow(no_sleep, <why a timer is right here>)`"
                .into(),
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
        check("f.rs", &lexed, &allows, &mut findings);
        findings
    }

    #[test]
    fn qualified_sleep_is_caught() {
        let found = run("fn f() { std::thread::sleep(d); }\nuse std::thread::sleep;\n");
        assert_eq!(found.iter().filter(|f| f.denied()).count(), 2);
    }

    #[test]
    fn other_sleeps_and_test_code_pass() {
        // Other sleeps pass; test code passes only while it does not
        // call `thread::sleep` (or carries a reasoned allow).
        let src = "fn f() { clock.sleep(d); sleep_until(t); }\n\
                   #[cfg(test)]\nmod tests { fn g() { gate.wait_entered(1); } }";
        assert!(run(src).is_empty());
        let sleepy = "#[cfg(test)]\nmod tests { fn g() { std::thread::sleep(d); } }";
        assert_eq!(run(sleepy).iter().filter(|f| f.denied()).count(), 1);
        let allowed = "#[cfg(test)]\nmod tests {\n\
                       // analyzer: allow(no_sleep, a slow double sleeps by design)\n\
                       fn g() { std::thread::sleep(d); } }";
        assert!(run(allowed).iter().all(|f| !f.denied()));
    }

    #[test]
    fn qualified_yield_is_caught_and_method_yields_pass() {
        // Test regions and `tests/` files are covered by the self-test.
        let spin = "fn f() { while !done() { std::thread::yield_now(); } }";
        assert_eq!(run(spin).iter().filter(|f| f.denied()).count(), 1);
        assert!(run("fn f() { executor.yield_now(); }").is_empty());
    }
}
