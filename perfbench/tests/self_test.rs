//! Self-tests for the harness's pure parts.

use modsram_core::cluster::home_tile_for;
use perfbench::report::{
    interquartile_mean, median, percentile, result_json, unit_of, valid_name, Metric, END_TO_END,
    MIN_BEYOND, PER_LAYER,
};
use perfbench::run::{paper_anchor, PAPER_TABLE3_CYCLES};
use perfbench::trace::Kind;
use perfbench::workload::{generate, moduli, workload, TILES, WORKLOADS};
use serde_json::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

#[test]
fn percentile_with_enough_samples_beyond_is_taken_as_asked() {
    let sorted: Vec<u64> = (1..=1000).collect();
    let p = percentile(&sorted, 0.99).expect("1000 samples support p99");
    assert_eq!((p.value, p.label.as_str(), p.samples), (990, "p99", 1000));
    assert_eq!(sorted.len() - p.value as usize, MIN_BEYOND);
    assert_eq!(percentile(&sorted, 0.5).expect("supported").label, "p50");
}

#[test]
fn percentile_with_fewer_than_ten_beyond_falls_back_and_names_it() {
    let sorted: Vec<u64> = (1..=500).collect();
    let p = percentile(&sorted, 0.99).expect("500 samples support some percentile");
    assert_eq!(p.value, 490);
    assert_eq!(sorted.len() - p.value as usize, MIN_BEYOND);
    assert_eq!(p.label, "p98");
    assert!(p.q < 0.99);

    let sorted: Vec<u64> = (1..=999).collect();
    let p = percentile(&sorted, 0.99).expect("supported");
    assert_eq!(
        p.label, "p98.9",
        "the label never claims more than was taken"
    );

    let tiny: Vec<u64> = (1..=MIN_BEYOND as u64).collect();
    assert!(percentile(&tiny, 0.5).is_none());
}

#[test]
fn metric_span_and_workload_names_are_well_formed() {
    let names = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|(n, _)| *n)
        .chain(WORKLOADS.iter().map(|w| w.name))
        .chain(Kind::ALL.iter().map(|k| k.name()));
    for name in names {
        assert!(valid_name(name), "{name}");
    }
    for bad in ["", "has space", "-leading", "slash/ed", &"x".repeat(65)] {
        assert!(!valid_name(bad), "{bad:?}");
    }
}

#[test]
fn benchmark_json_lists_exactly_what_the_harness_reports() {
    let spec = benchmark_json();
    let listed = |key: &str| -> Vec<(String, String)> {
        spec.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let catalogue = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), catalogue(END_TO_END));
    assert_eq!(listed("per_layer"), catalogue(PER_LAYER));
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workload list")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn result_json_round_trips_through_the_vendored_shim() {
    let metrics = vec![
        Metric {
            name: "modelled_cycles_per_job",
            value: 769.358_412_5,
        },
        Metric {
            name: "net.latency_p99_us",
            value: 911.103_000_000_1,
        },
        Metric {
            name: "setup_s",
            value: 0.004_877_186,
        },
    ];
    let result = result_json(true, 1_276_925, 0, &metrics);
    let text = serde_json::to_string(&result).expect("serialises");
    let back = serde_json::from_str(&text).expect("parses");
    assert_eq!(back, result);
    let keys: Vec<&str> = back
        .as_object()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let p99 = back
        .get("metrics")
        .and_then(|m| m.get("net.latency_p99_us"));
    assert_eq!(
        p99.and_then(|m| m.get("value")).and_then(Value::as_f64),
        Some(911.103_000_000_1)
    );
    assert_eq!(
        p99.and_then(|m| m.get("unit")).and_then(Value::as_str),
        unit_of("net.latency_p99_us")
    );
}

#[test]
fn a_seed_names_the_inputs() {
    let w = workload("openloop-mixed").expect("known workload");
    let (a, b, c) = (generate(w, 7), generate(w, 7), generate(w, 8));
    assert_eq!(a.streams[0].jobs, b.streams[0].jobs);
    assert_ne!(a.streams[0].jobs, c.streams[0].jobs);
    assert_eq!(a.moduli, c.moduli, "moduli do not depend on the seed");
    assert_eq!(a.moduli.iter().filter(|p| p.is_even()).count(), 16);
    assert!(a.moduli.iter().all(|p| p.bit_len() == 256));
}

#[test]
fn the_modelled_device_matches_table_3() {
    let (cycles, vs_bpntt) = paper_anchor().expect("model reads 767 at 256 bits");
    assert_eq!(cycles, PAPER_TABLE3_CYCLES);
    assert!(vs_bpntt < 0.53, "Table 3's ~52% of BP-NTT's cycles");
}

#[test]
fn every_workload_spreads_its_moduli_over_both_tiles() {
    for w in &WORKLOADS {
        let mut homes = vec![0usize; TILES];
        for p in moduli(w.moduli, w.even_moduli) {
            homes[home_tile_for(&p, TILES).expect("tiles exist")] += 1;
        }
        assert_eq!(homes, vec![w.moduli / TILES; TILES], "{}", w.name);
    }
}

#[test]
fn median_takes_the_middle_of_odd_and_even_counts() {
    assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(
        median(&[5.0, f64::NAN]),
        5.0,
        "non-finite values are skipped"
    );
    assert_eq!(median(&[]), 0.0);
}

#[test]
fn interquartile_mean_trims_a_quarter_from_each_end() {
    let setups = [2.9, 3.0, 5.0, 5.1, 90.0, 0.1, 3.1, 4.9];
    assert_eq!(interquartile_mean(&setups), (3.0 + 3.1 + 4.9 + 5.0) / 4.0);
    assert_eq!(interquartile_mean(&[7.0]), 7.0);
    assert_eq!(interquartile_mean(&[]), 0.0);
}
