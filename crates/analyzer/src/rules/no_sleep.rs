//! Rule `no_sleep`: `thread::sleep` in the serving stack or its tests
//! is a finding. A sleep on a serving path is a timer on some caller's
//! latency, and a sleep in a test bets that a timer outlasts the
//! scheduler; both should block on the event they wait for instead. A
//! sleep that must stay — a back-off after an error that would
//! otherwise repeat at once — carries a reasoned allow.
//!
//! `thread::yield_now` outside test code is a finding too: a loop that
//! yields until something changes is a guess about the scheduler.
//! So is a timed wait outside test code (`wait_timeout`,
//! `wait_timeout_while`, `set_read_timeout`, `set_write_timeout`,
//! `recv_timeout`, `park_timeout`): its timeout is a timer standing in
//! for an event. Test code (a `#[cfg(test)]` region or a file under a
//! `tests/` directory) may yield in a counter wait, and bound a wait
//! with a stall limit.

use crate::findings::{apply_allows, Allow, Finding};
use crate::lexer::Lexed;
use crate::rules::{in_test, test_regions};

pub const RULE: &str = "no_sleep";

/// Calls that wait with a timeout, flagged outside test code.
const TIMED_WAITS: &[&str] = &[
    "wait_timeout",
    "wait_timeout_while",
    "set_read_timeout",
    "set_write_timeout",
    "recv_timeout",
    "park_timeout",
];

pub fn check(file: &str, lexed: &Lexed, allows: &[Allow], findings: &mut Vec<Finding>) {
    let tokens = &lexed.tokens;
    let test_file = file.starts_with("tests/") || file.contains("/tests/");
    let regions = test_regions(tokens);
    for i in 3..tokens.len() {
        let in_thread = tokens[i - 1].is_punct(':')
            && tokens[i - 2].is_punct(':')
            && tokens[i - 3].is_ident("thread");
        let outside_tests = || !test_file && !in_test(&regions, i);
        // A method call or a path, not a definition of the same name.
        let called = tokens[i - 1].is_punct('.') || tokens[i - 1].is_punct(':');
        let message = if in_thread && tokens[i].is_ident("sleep") {
            "`thread::sleep` in serving-stack or test code".to_string()
        } else if in_thread && tokens[i].is_ident("yield_now") && outside_tests() {
            "`thread::yield_now` outside test code".to_string()
        } else if let Some(name) = TIMED_WAITS
            .iter()
            .find(|name| called && tokens[i].is_ident(name) && outside_tests())
        {
            format!("timed wait `{name}` outside test code")
        } else {
            continue;
        };
        let mut f = Finding {
            rule: RULE,
            file: file.to_string(),
            line: tokens[i].line,
            message,
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

    #[test]
    fn timed_waits_are_caught_outside_test_code() {
        let waits = "fn f() {\n\
                     cv.wait_timeout(g, d);\n\
                     cv.wait_timeout_while(g, d, p);\n\
                     s.set_read_timeout(Some(d));\n\
                     s.set_write_timeout(Some(d));\n\
                     rx.recv_timeout(d);\n\
                     std::thread::park_timeout(d);\n\
                     }";
        let found = run(waits);
        assert_eq!(found.iter().filter(|f| f.denied()).count(), 6);
        assert!(found.iter().all(|f| f.message.starts_with("timed wait")));
        // Test code may bound its waits; a definition is not a call.
        let in_test = format!("#[cfg(test)]\nmod tests {{ {waits} }}");
        assert!(run(&in_test).is_empty());
        assert!(run("fn wait_timeout(d: Duration) {}").is_empty());
        let allowed = "fn f() {\n\
                       // analyzer: allow(no_sleep, a peer that never answers must not pin this thread)\n\
                       s.set_read_timeout(Some(d));\n}";
        assert!(run(allowed).iter().all(|f| !f.denied()));
    }
}
