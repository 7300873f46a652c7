//! Self-check of the benchmark at tiny sizes: every named metric is
//! reported with its unit (and declared in `BENCHMARK.json`), a wrong
//! MEM set counts as a failed operation, and the modeled metrics repeat
//! exactly.

use std::time::Duration;

use gpu_sim::{Device, DeviceSpec};
use gpumem_core::{Gpumem, GpumemConfig, RunError};
use gpumem_seq::{naive_mems, table2_pairs};
use perfbench::tally::Tally;
use perfbench::{Prober, Report, Size, Workload, END_TO_END, PER_LAYER};

fn tiny(workload: Workload, seed: u64) -> Report {
    perfbench::run(
        workload,
        seed,
        Duration::ZERO,
        Size::Tiny,
        &Prober::InProcess,
    )
}

#[test]
fn every_metric_is_reported_with_its_unit() {
    let declared =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the repository root");
    for workload in Workload::ALL {
        let report = tiny(workload, 7);
        assert!(
            report.correct(),
            "{}: {}",
            workload.name(),
            report.render_text()
        );
        let text = report.render_text();
        for (metrics, expected) in [
            (&report.end_to_end, END_TO_END),
            (&report.per_layer, PER_LAYER),
        ] {
            let got: Vec<(&str, &str)> =
                metrics.iter().map(|m| (m.name.as_str(), m.unit)).collect();
            assert_eq!(got, expected, "{}", workload.name());
            for m in metrics {
                assert!(m.value.is_finite(), "{} {}", workload.name(), m.name);
                let line = format!("# {} ", workload.name());
                assert!(
                    text.lines().any(|l| l.starts_with(&line)
                        && l.ends_with(&format!("{} = {} {}", m.name, m.value, m.unit))),
                    "{} does not print {}",
                    workload.name(),
                    m.name
                );
            }
        }
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            declared.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "BENCHMARK.json does not declare {name} in {unit}"
        );
    }
}

#[test]
fn a_wrong_mem_set_counts_as_a_failure() {
    let pair = table2_pairs(1.0 / 65536.0)[1].realize(3);
    let config = GpumemConfig::builder(20).seed_len(8).build().unwrap();
    let gpumem = Gpumem::with_device(config, Device::new(DeviceSpec::tesla_k20c()));
    let result = gpumem.run(&pair.reference, &pair.query).unwrap();
    let oracle = naive_mems(&pair.reference, &pair.query, 20);
    assert!(!oracle.is_empty());

    let mut tally = Tally::default();
    tally.record(&[Ok(&result)], &[&oracle]);
    assert_eq!((tally.attempted, tally.failed), (1, 0));

    let mut corrupted = result.clone();
    corrupted.mems.pop();
    tally.record(&[Ok(&corrupted)], &[&oracle]);
    assert_eq!((tally.attempted, tally.failed), (2, 1));

    let mut miscounted = result.clone();
    miscounted.stats.counts.in_block += 1;
    tally.record(&[Ok(&result), Ok(&miscounted)], &[&oracle, &oracle]);
    assert_eq!((tally.attempted, tally.failed), (3, 2));

    let error = RunError::InvalidOptions("refused".to_string());
    tally.record(&[Err(&error)], &[&oracle]);
    assert_eq!((tally.attempted, tally.failed), (4, 3));
    assert!(tally
        .first_failure
        .unwrap()
        .contains("differs from the oracle"));

    let report = Report {
        attempted: tally.attempted,
        failed: tally.failed,
        ..Report::default()
    };
    assert_eq!(report.error_rate(), 0.75);
    assert!(!report.correct());
}

#[test]
fn modeled_metrics_repeat_exactly() {
    for workload in Workload::ALL {
        let (a, b) = (tiny(workload, 11), tiny(workload, 11));
        for name in ["modeled_index_s", "modeled_match_s"] {
            let (x, y) = (a.metric(name).unwrap().value, b.metric(name).unwrap().value);
            assert!(x > 0.0, "{} {name}", workload.name());
            assert_eq!(x.to_bits(), y.to_bits(), "{} {name}", workload.name());
        }
        let other = tiny(workload, 12);
        assert_ne!(
            a.metric("modeled_match_s").unwrap().value,
            other.metric("modeled_match_s").unwrap().value,
            "{}: the seed changes the inputs",
            workload.name()
        );
    }
}
