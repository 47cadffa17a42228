//! Rule `no_sleep`: `thread::sleep` in the serving stack or its tests
//! is a finding. A sleep on a serving path is a timer on some caller's
//! latency, and a sleep in a test bets that a timer outlasts the
//! scheduler; both should block on the event they wait for instead. A
//! sleep that must stay — a back-off after an error that would
//! otherwise repeat at once — carries a reasoned allow.

use crate::findings::{apply_allows, Allow, Finding};
use crate::lexer::Lexed;

pub const RULE: &str = "no_sleep";

pub fn check(file: &str, lexed: &Lexed, allows: &[Allow], findings: &mut Vec<Finding>) {
    let tokens = &lexed.tokens;
    for i in 3..tokens.len() {
        let is_sleep = tokens[i].is_ident("sleep")
            && tokens[i - 1].is_punct(':')
            && tokens[i - 2].is_punct(':')
            && tokens[i - 3].is_ident("thread");
        if !is_sleep {
            continue;
        }
        let mut f = Finding {
            rule: RULE,
            file: file.to_string(),
            line: tokens[i].line,
            message: "`thread::sleep` in serving-stack or test code".into(),
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
}
