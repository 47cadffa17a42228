//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! see the library documentation for what each run measures.

use std::process::ExitCode;
use std::time::Duration;

use perfbench::report::result_json;
use perfbench::run::{end_to_end, paper_anchor, traced_ladder};
use perfbench::workload::{generate, workload, Workload, OPEN_RATE_PER_S, STREAM_JOBS, WINDOW};
use serde_json::{json, Value};

/// A run that is still going after this long is stopped with an error,
/// so a wedged stack cannot hold the caller past its own limit.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=120).contains(s))
                    .ok_or_else(|| bad("whole seconds from 1 to 120"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// The CPU's brand string, read with `cpuid` rather than from a file.
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    let mut bytes = Vec::with_capacity(48);
    // The brand-string leaves exist only when leaf 0x8000_0000 says so.
    if __cpuid(0x8000_0000).eax < 0x8000_0004 {
        return "unknown".into();
    }
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for reg in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&reg.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".into()
}

/// The checked-out commit, read from `.git` when the working directory
/// is a git checkout.
fn commit() -> Value {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return Value::Null,
    };
    match head.strip_prefix("ref: ") {
        None => Value::String(head),
        Some(name) => std::fs::read_to_string(format!(".git/{name}"))
            .map(|id| Value::String(id.trim().to_string()))
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|refs| {
                    refs.lines()
                        .find(|l| l.ends_with(name))
                        .and_then(|l| l.split_whitespace().next())
                        .map_or(Value::Null, |id| Value::String(id.to_string()))
                })
            })
            .unwrap_or(Value::Null),
    }
}

fn config(w: &Workload) -> Value {
    json!({
        "engine": w.engine,
        "bits": perfbench::workload::BITS,
        "moduli": w.moduli,
        "even_moduli": w.even_moduli,
        "connections": w.connections,
        "arrival": if w.is_open() { "open" } else { "closed" },
        "open_rate_per_s": if w.is_open() { Value::Float(OPEN_RATE_PER_S) } else { Value::Null },
        "window": WINDOW,
        "run_len": perfbench::workload::RUN_LEN,
        "stream_jobs": STREAM_JOBS,
        "tiles": perfbench::workload::TILES,
        "workers_per_tile": 1,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload(&args.workload) else {
        eprintln!("perfbench: unknown workload '{}'", args.workload);
        return ExitCode::from(2);
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: still running after {WATCHDOG:?}; giving up");
        std::process::exit(3);
    });
    let anchor = match paper_anchor() {
        Ok(anchor) => anchor,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let generated = generate(w, args.seed);
    let outcome = if args.trace {
        traced_ladder(w, &generated, args.seconds)
    } else {
        end_to_end(w, &generated, args.seconds)
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for m in &outcome.metrics {
        let unit = perfbench::report::unit_of(m.name).unwrap_or("");
        eprintln!("{:<34} {:>16.4} {unit}", m.name, m.value);
    }
    let record = json!({
        "record": "perfbench/v1",
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": {
            "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
            "cpu": cpu_model(),
        },
        "commit": commit(),
        "config": config(w),
        "paper_anchor": {
            "modelled_cycles_per_mul": anchor.0,
            "table3_ratio_to_bpntt": anchor.1,
            "validated_against": "paper Table 3 only; no silicon measurement",
        },
        "oracle_mismatches": outcome.mismatches,
        "detail": outcome.detail,
    });
    println!(
        "{}",
        serde_json::to_string(&record).expect("records serialise")
    );
    let correct = outcome.mismatches == 0;
    let result = result_json(correct, outcome.attempted, outcome.failed, &outcome.metrics);
    println!(
        "{}",
        serde_json::to_string(&result).expect("results serialise")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} products diverged from the oracle",
            outcome.mismatches
        );
        ExitCode::from(1)
    }
}
