//! Golden output contract: every preset CSV the binary writes is pinned
//! byte for byte against `tests/fixtures/{presets,paper}/`, and every
//! CSV header documented in `docs/EXPERIMENTS.md` is pinned against the
//! header actually written.
//!
//! Running the commands through the binary also pins the per-preset
//! parameters the CLI picks (the `k` grids, churn rates, free-rider
//! fractions), not only the renderers. All three commands finish in well
//! under a second in release mode.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The commands whose outputs the fixtures hold, each with the scratch
/// directory name it writes into.
const RUNS: &[(&str, &[&str])] = &[
    ("all", &["all", "--nodes", "60", "--files", "10"]),
    (
        "large-scale",
        &[
            "large-scale",
            "--nodes",
            "200",
            "--files",
            "10",
            "--bits",
            "16",
        ],
    ),
    ("fuzzed", &["fuzzed"]),
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Runs `fairswap <args> --out <fresh dir>` and returns the directory.
fn run_into(label: &str, args: &[&str]) -> PathBuf {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("golden-{label}"));
    let _ = std::fs::remove_dir_all(&out);
    let output = Command::new(env!("CARGO_BIN_EXE_fairswap"))
        .args(args)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("spawning the fairswap binary");
    assert!(
        output.status.success(),
        "fairswap {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    out
}

/// Every `*.csv` file in `dir`, by file name.
fn csvs_in(dir: &Path) -> BTreeMap<String, String> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "csv"))
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&path).unwrap())
        })
        .collect()
}

/// The committed fixtures of both directories, by file name.
fn fixtures() -> BTreeMap<String, String> {
    let dir = repo_root().join("tests/fixtures");
    let mut all = csvs_in(&dir.join("presets"));
    for (name, text) in csvs_in(&dir.join("paper")) {
        assert!(
            all.insert(name.clone(), text).is_none(),
            "{name} is committed in both fixture directories"
        );
    }
    all
}

/// What the three fixture commands write, by file name.
fn written() -> BTreeMap<String, String> {
    let mut all = BTreeMap::new();
    for (label, args) in RUNS {
        for (name, text) in csvs_in(&run_into(label, args)) {
            assert!(
                all.insert(name.clone(), text).is_none(),
                "{name} is written by more than one command"
            );
        }
    }
    all
}

#[test]
fn every_preset_csv_matches_its_golden_fixture() {
    let fixtures = fixtures();
    let written = written();
    assert_eq!(
        written.keys().collect::<Vec<_>>(),
        fixtures.keys().collect::<Vec<_>>(),
        "the commands write exactly the committed fixtures"
    );
    for (name, text) in &written {
        assert_eq!(text, &fixtures[name], "{name} drifted from its fixture");
    }
}

/// The `(file, header)` pairs `docs/EXPERIMENTS.md` documents: each
/// `` `<name>.csv` `` whose next backtick span is a bare comma-separated
/// column list.
fn documented_headers(doc: &str) -> Vec<(String, String)> {
    let spans: Vec<&str> = doc.split('`').skip(1).step_by(2).collect();
    spans
        .windows(2)
        .filter(|pair| pair[0].ends_with(".csv") && !pair[0].contains(char::is_whitespace))
        .filter(|pair| pair[1].contains(',') && !pair[1].contains(char::is_whitespace))
        .map(|pair| (pair[0].to_string(), pair[1].to_string()))
        .collect()
}

#[test]
fn documented_csv_headers_match_the_emitted_ones() {
    let doc = std::fs::read_to_string(repo_root().join("docs/EXPERIMENTS.md")).unwrap();
    let documented = documented_headers(&doc);
    let mut emitted: BTreeMap<String, String> = fixtures();
    // `run.csv` has no preset fixture; take it from the demo spec.
    let demo = repo_root().join("tests/fixtures/demo_spec.json");
    let run = run_into("run", &["run", "--config", demo.to_str().unwrap()]);
    emitted.extend(csvs_in(&run));
    for (name, header) in &documented {
        let text = emitted
            .get(name)
            .unwrap_or_else(|| panic!("docs/EXPERIMENTS.md documents {name}, which nothing emits"));
        assert_eq!(
            text.lines().next().unwrap(),
            header,
            "docs/EXPERIMENTS.md documents a stale header for {name}"
        );
    }
    // Every emitted table is documented, so a new column cannot slip
    // past the docs either.
    for name in emitted.keys() {
        assert!(
            documented.iter().any(|(doc_name, _)| doc_name == name),
            "{name} has no documented header in docs/EXPERIMENTS.md"
        );
    }
}
