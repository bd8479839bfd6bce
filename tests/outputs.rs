//! Golden-shape checks on experiment CSV artifacts.

use fairswap::core::experiments::{extensions, paper, sweeps, ExperimentScale};
use fairswap::core::{CsvTable, Executor, GridObservation};

fn scale() -> ExperimentScale {
    ExperimentScale {
        nodes: 150,
        files: 40,
        seed: 0xFA12,
    }
}

fn paper_grid(scale: ExperimentScale) -> paper::PaperGrid {
    paper::run(scale, &Executor::serial(), &mut GridObservation::disabled()).unwrap()
}

/// `paper` at `--nodes 60 --files 10` renders every file byte for byte as
/// committed under `tests/fixtures/paper/`. The fixtures were written by
/// the five single-figure commands that `paper` replaced.
#[test]
fn paper_csvs_match_the_golden_fixtures() {
    let grid = paper_grid(ExperimentScale {
        nodes: 60,
        files: 10,
        ..ExperimentScale::paper()
    });
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/paper");
    for (name, csv) in grid.csvs() {
        let golden = std::fs::read_to_string(dir.join(name)).unwrap();
        assert_eq!(
            csv.to_csv_string(),
            golden,
            "{name} drifted from its fixture"
        );
    }
}

#[test]
fn table1_csv_shape() {
    let text = paper_grid(scale()).table1_csv().to_csv_string();
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
    let csv = paper_grid(scale()).fig5_csv();
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
    let csv = CsvTable::from_rows(&sweep.rows);
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
    let text = CsvTable::from_rows(&result.rows).to_csv_string();
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
    let grid = paper_grid(scale());
    let json = serde_json::to_string(&grid).expect("serializable");
    let back: paper::PaperGrid = serde_json::from_str(&json).expect("deserializable");
    // Floats round-trip through decimal JSON with sub-ulp drift; compare
    // field-wise with a tolerance instead of exact equality.
    assert_eq!(back.cells.len(), grid.cells.len());
    for (a, b) in back.cells.iter().zip(&grid.cells) {
        assert_eq!(a.k, b.k);
        assert_eq!(a.total_forwarded, b.total_forwarded);
        assert_eq!(a.paid_nodes, b.paid_nodes);
        assert_eq!(a.forwarded_bins, b.forwarded_bins);
        assert_eq!(a.f2_lorenz.len(), b.f2_lorenz.len());
        assert_eq!(a.f1_lorenz.len(), b.f1_lorenz.len());
        assert!((a.mean_forwarded - b.mean_forwarded).abs() < 1e-9);
        assert!((a.mean_hops - b.mean_hops).abs() < 1e-9);
        assert!((a.f2_gini - b.f2_gini).abs() < 1e-9);
        assert!((a.f1_gini - b.f1_gini).abs() < 1e-9);
        assert!((a.hoover - b.hoover).abs() < 1e-9);
    }
}
