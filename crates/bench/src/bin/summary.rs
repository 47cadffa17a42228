//! Consolidates the sweep artifacts in `results/` into one headline
//! file, `results/bench_summary.json` — the numbers a PR reviewer (or
//! the CI `bench-summary` job) reads first, with a pointer back to
//! each source artifact for the full matrix.
//!
//! ```sh
//! # After running any of the sweep binaries:
//! cargo run --release --bin summary
//! # CI: fail unless every expected artifact is present. Wire serving
//! # has no sweep artifact: perfbench's net rung measures it.
//! cargo run --release --bin summary -- \
//!   --require shard_sweep,hotpath_sweep,cluster_sweep,elasticity_sweep,autotune_sweep,weighted_sweep,analyzer_report
//! ```
//!
//! Artifacts that are absent are skipped (and listed as skipped), so
//! the binary works after a partial local run; `--require` turns a
//! missing artifact into a hard failure.

use modsram_bench::{print_table, write_json_artifact};
use serde_json::Value;

/// Reads and parses `results/<name>.json`, `None` if the file does
/// not exist. A file that exists but fails to parse is a hard error —
/// a truncated artifact should fail loudly, not vanish from the summary.
fn load(name: &str) -> Option<Value> {
    let path = format!("results/{name}.json");
    let text = std::fs::read_to_string(&path).ok()?;
    Some(serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path}: {e}")))
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

fn count(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap_or(0)
}

fn rows<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v.get(key).and_then(Value::as_array).unwrap_or(&[])
}

/// The per-artifact headline extractors: each maps a parsed artifact
/// to (headline JSON, one-line table text).
fn summarize(name: &str, v: &Value) -> (Value, String) {
    match name {
        "hotpath_sweep" => {
            let sweep = rows(v, "sweep");
            let best = sweep
                .iter()
                .max_by(|a, b| num(a, "speedup").total_cmp(&num(b, "speedup")));
            let (engine, bits, speedup) = best.map_or(("-".into(), 0, f64::NAN), |r| {
                (
                    r.get("engine")
                        .and_then(Value::as_str)
                        .unwrap_or("-")
                        .to_string(),
                    count(r, "bits"),
                    num(r, "speedup"),
                )
            });
            // r4csa-lut's single-job speedup over its stepper at 256 bits.
            let single = sweep
                .iter()
                .find(|r| {
                    r.get("engine").and_then(Value::as_str) == Some("r4csa-lut")
                        && count(r, "bits") == 256
                        && count(r, "run") == 1
                })
                .map_or(f64::NAN, |r| num(r, "speedup"));
            (
                serde_json::json!({
                    "rows": sweep.len(),
                    "best_laned_speedup": speedup,
                    "best_laned_engine": engine.as_str(),
                    "best_laned_bits": bits,
                    "r4csa_single_job_speedup_256b": single,
                }),
                format!(
                    "best laned speedup {speedup:.2}x ({engine} @ {bits}b), \
                     r4csa single job {single:.2}x @ 256b, {} rows",
                    sweep.len()
                ),
            )
        }
        "shard_sweep" => {
            let banked_best = rows(v, "banked_device_sweep")
                .iter()
                .map(|r| num(r, "speedup"))
                .fold(f64::NAN, f64::max);
            (
                serde_json::json!({
                    "banked_device_best_speedup": banked_best,
                }),
                format!("banked best {banked_best:.2}x"),
            )
        }
        "cluster_sweep" => {
            let sweep = rows(v, "sweep");
            let best = sweep
                .iter()
                .max_by(|a, b| num(a, "modelled_speedup").total_cmp(&num(b, "modelled_speedup")));
            let tiles = best.map_or(0, |r| count(r, "tiles"));
            let speedup = best.map_or(f64::NAN, |r| num(r, "modelled_speedup"));
            let min_affinity = sweep
                .iter()
                .map(|r| num(r, "affinity_hit_rate"))
                .fold(f64::NAN, f64::min);
            // The saturation probe's relief: what one spill hop accepts
            // over Strict on the same saturated home.
            let accepted = |policy: &str| {
                rows(v, "saturation_probe")
                    .iter()
                    .find(|r| r.get("policy").and_then(Value::as_str) == Some(policy))
                    .map_or(f64::NAN, |r| num(r, "accepted"))
            };
            let relief = accepted("spill1") / accepted("strict");
            (
                serde_json::json!({
                    "rows": sweep.len(),
                    "best_modelled_speedup": speedup,
                    "best_modelled_speedup_tiles": tiles,
                    "min_affinity_hit_rate": min_affinity,
                    "spill1_over_strict_accepted": relief,
                }),
                format!(
                    "{speedup:.2}x modelled at {tiles} tiles, min affinity {min_affinity:.2}, \
                     spill1 accepts {relief:.2}x strict"
                ),
            )
        }
        "elasticity_sweep" => {
            let phases = rows(v, "phases");
            let lost: u64 = phases.iter().map(|r| count(r, "lost_tickets")).sum();
            let rehomed: u64 = phases.iter().map(|r| count(r, "rehomed_moduli")).sum();
            let min_affinity = phases
                .iter()
                .map(|r| num(r, "affinity_hit_rate"))
                .fold(f64::NAN, f64::min);
            (
                serde_json::json!({
                    "phases": phases.len(),
                    "lost_tickets": lost,
                    "rehomed_moduli": rehomed,
                    "min_affinity_hit_rate": min_affinity,
                }),
                format!(
                    "{} phases, {lost} lost tickets, {rehomed} re-homed, min affinity {min_affinity:.2}",
                    phases.len()
                ),
            )
        }
        "autotune_sweep" => {
            let matrix = rows(v, "rows");
            let min_vs_best = matrix
                .iter()
                .map(|r| num(r, "speedup_vs_best"))
                .fold(f64::NAN, f64::min);
            let clear_wins = matrix
                .iter()
                .filter(|r| num(r, "speedup_vs_best") > 1.15)
                .count();
            let races = v.get("tuner").map_or(0, |t| count(t, "races_run"));
            (
                serde_json::json!({
                    "rows": matrix.len(),
                    "min_speedup_vs_best_baseline": min_vs_best,
                    "clear_wins_over_1_15x": clear_wins,
                    "races_run": races,
                }),
                format!(
                    "{} rows, min {min_vs_best:.2}x vs best baseline, {clear_wins} clear wins, {races} races",
                    matrix.len()
                ),
            )
        }
        "weighted_sweep" => {
            let share = v.get("share").cloned().unwrap_or(Value::Null);
            let makespan = v.get("makespan").cloned().unwrap_or(Value::Null);
            let reweigh = v.get("live_reweigh").cloned().unwrap_or(Value::Null);
            let rel_err = num(&share, "max_rel_err");
            let moved = count(&share, "equal_weight_moved");
            let gain = num(&makespan, "makespan_gain");
            let lost = count(&reweigh, "lost_tickets");
            (
                serde_json::json!({
                    "share_max_rel_err": rel_err,
                    "equal_weight_moved": moved,
                    "makespan_gain": gain,
                    "reweigh_lost_tickets": lost,
                    "republish_rehomed": count(&reweigh, "republish_rehomed"),
                }),
                format!(
                    "share err {:.1}%, {moved} moved at equal weights, makespan gain {gain:.2}x, {lost} lost",
                    rel_err * 100.0
                ),
            )
        }
        "analyzer_report" => {
            let denied = count(v, "denied");
            let allowed = count(v, "allowed");
            let per_rule: Vec<String> = v
                .get("rules")
                .and_then(Value::as_object)
                .map(|rules| {
                    rules
                        .iter()
                        .map(|(rule, counts)| {
                            format!(
                                "{rule}={}+{}",
                                count(counts, "denied"),
                                count(counts, "allowed")
                            )
                        })
                        .collect()
                })
                .unwrap_or_default();
            (
                serde_json::json!({
                    "denied": denied,
                    "allowed": allowed,
                    "per_rule": per_rule.join(" ").as_str(),
                }),
                format!(
                    "{denied} denied, {allowed} allowed ({})",
                    per_rule.join(", ")
                ),
            )
        }
        _ => unreachable!("unknown artifact '{name}'"),
    }
}

const ARTIFACTS: &[&str] = &[
    "shard_sweep",
    "hotpath_sweep",
    "cluster_sweep",
    "elasticity_sweep",
    "autotune_sweep",
    "weighted_sweep",
    "analyzer_report",
];

fn main() {
    let mut required: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--require" => {
                required = it
                    .next()
                    .expect("--require needs a comma-separated list")
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .collect()
            }
            other => panic!("unknown flag '{other}'"),
        }
    }
    for name in &required {
        assert!(
            ARTIFACTS.contains(&name.as_str()),
            "--require names unknown artifact '{name}' (known: {ARTIFACTS:?})"
        );
    }

    let mut table = Vec::new();
    let mut summaries: Vec<(String, Value)> = Vec::new();
    let mut skipped: Vec<&str> = Vec::new();
    for &name in ARTIFACTS {
        match load(name) {
            Some(parsed) => {
                let (headline, line) = summarize(name, &parsed);
                table.push(vec![name.to_string(), line]);
                summaries.push((name.to_string(), headline));
            }
            None => {
                assert!(
                    !required.iter().any(|r| r == name),
                    "required artifact results/{name}.json is missing"
                );
                skipped.push(name);
            }
        }
    }
    assert!(
        !summaries.is_empty(),
        "no sweep artifacts in results/ — run a sweep binary first"
    );

    print_table(
        "Bench summary: headline numbers per sweep artifact",
        &["artifact", "headline"],
        &table,
    );
    if !skipped.is_empty() {
        println!("\nskipped (artifact not present): {}", skipped.join(", "));
    }

    let consolidated = serde_json::json!({
        "schema": "modsram-bench-summary/v1",
        "artifacts": summaries.iter().map(|(name, headline)| serde_json::json!({
            "artifact": name.as_str(),
            "source": format!("results/{name}.json").as_str(),
            "headline": headline.clone(),
        })).collect::<Vec<_>>(),
        "skipped": skipped.iter().map(|s| Value::from(*s)).collect::<Vec<_>>(),
    });
    let path = write_json_artifact("bench_summary", &consolidated);
    println!("\nartifact: {path}");
}
