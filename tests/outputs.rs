//! Golden-shape checks on experiment CSV artifacts.

use fairswap::core::experiments::{extensions, fig5, sweeps, table1, ExperimentScale};
use fairswap::core::{Executor, GridObservation};

fn scale() -> ExperimentScale {
    ExperimentScale {
        nodes: 150,
        files: 40,
        seed: 0xFA12,
    }
}

#[test]
fn table1_csv_shape() {
    let csv = table1::run(
        scale(),
        &Executor::serial(),
        &mut GridObservation::disabled(),
    )
    .unwrap()
    .to_csv();
    let text = csv.to_csv_string();
    let mut lines = text.lines();
    assert_eq!(
        lines.next().unwrap(),
        "k,originator_fraction,mean_forwarded,total_forwarded,mean_hops"
    );
    assert_eq!(lines.count(), 4);
    // Every data row has 5 comma-separated fields.
    for row in text.lines().skip(1) {
        assert_eq!(row.split(',').count(), 5, "row {row}");
    }
}

#[test]
fn fig5_csv_is_long_format_lorenz() {
    let fig = fig5::run(
        scale(),
        &Executor::serial(),
        &mut GridObservation::disabled(),
    )
    .unwrap();
    let csv = fig.to_csv();
    // 4 series, each with nodes+1 Lorenz points.
    assert_eq!(csv.len(), 4 * (150 + 1));
    let text = csv.to_csv_string();
    assert!(text.starts_with("k,originator_fraction,gini,population_share,value_share"));
    // Shares parse back as numbers within [0, 1].
    for row in text.lines().skip(1).take(20) {
        let fields: Vec<&str> = row.split(',').collect();
        let p: f64 = fields[3].parse().unwrap();
        let v: f64 = fields[4].parse().unwrap();
        assert!((0.0..=1.0).contains(&p) && (0.0..=1.0).contains(&v));
    }
}

#[test]
fn overhead_csv_has_one_row_per_k() {
    let sweep = sweeps::overhead_vs_k(
        scale(),
        &[4, 8, 20],
        1.0,
        1,
        &Executor::serial(),
        &mut GridObservation::disabled(),
    )
    .unwrap();
    let csv = sweep.to_csv();
    assert_eq!(csv.len(), 3);
    let text = csv.to_csv_string();
    let ks: Vec<&str> = text
        .lines()
        .skip(1)
        .map(|row| row.split(',').next().unwrap())
        .collect();
    assert_eq!(ks, vec!["4", "8", "20"]);
}

#[test]
fn mechanisms_csv_lists_all_five() {
    let result = extensions::mechanisms(
        scale(),
        4,
        1.0,
        &Executor::serial(),
        &mut GridObservation::disabled(),
    )
    .unwrap();
    let text = result.to_csv().to_csv_string();
    for id in [
        "swarm",
        "pay-all-hops",
        "tit-for-tat",
        "effort-based",
        "proof-of-bandwidth",
    ] {
        assert!(text.contains(id), "missing {id}");
    }
}

#[test]
fn reports_serialize_to_json() {
    let table = table1::run(
        scale(),
        &Executor::serial(),
        &mut GridObservation::disabled(),
    )
    .unwrap();
    let json = serde_json::to_string(&table).expect("serializable");
    let back: fairswap::core::experiments::table1::Table1 =
        serde_json::from_str(&json).expect("deserializable");
    // Floats round-trip through decimal JSON with sub-ulp drift; compare
    // field-wise with a tolerance instead of exact equality.
    assert_eq!(back.rows.len(), table.rows.len());
    for (a, b) in back.rows.iter().zip(&table.rows) {
        assert_eq!(a.k, b.k);
        assert_eq!(a.total_forwarded, b.total_forwarded);
        assert!((a.mean_forwarded - b.mean_forwarded).abs() < 1e-9);
        assert!((a.mean_hops - b.mean_hops).abs() < 1e-9);
    }
}
