//! Golden output contract: every preset CSV the binary writes is pinned
//! byte for byte against `tests/fixtures/{presets,paper}/`, the summary
//! each command prints and the demo spec's `run.csv` against
//! `tests/fixtures/cli/`, and every CSV
//! header and command documented in `docs/EXPERIMENTS.md` against what
//! the binary actually writes and accepts.
//!
//! Running the commands through the binary also pins the per-preset
//! parameters each `PRESETS` entry fixes (the `k` grids, churn rates,
//! free-rider fractions), not only the renderers. All three commands
//! finish in well under a second in release mode.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

/// The commands whose outputs the fixtures hold, each with the scratch
/// directory name it writes into and the name of its stdout fixture.
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

/// Stands in for the `--out` directory in the stdout fixtures.
const OUT_PLACEHOLDER: &str = "<out>";

/// Runs `fairswap <args> --out <fresh dir>` and returns the directory
/// and the stdout, with the directory replaced by [`OUT_PLACEHOLDER`].
fn run_into(label: &str, args: &[&str]) -> (PathBuf, String) {
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
    let stdout = String::from_utf8(output.stdout)
        .unwrap()
        .replace(&out.display().to_string(), OUT_PLACEHOLDER);
    (out, stdout)
}

/// Each of [`RUNS`], run once per test binary: label, out dir, stdout.
fn runs() -> &'static [(&'static str, PathBuf, String)] {
    static DONE: OnceLock<Vec<(&'static str, PathBuf, String)>> = OnceLock::new();
    DONE.get_or_init(|| {
        RUNS.iter()
            .map(|&(label, args)| {
                let (out, stdout) = run_into(label, args);
                (label, out, stdout)
            })
            .collect()
    })
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
    for (_, out, _) in runs() {
        for (name, text) in csvs_in(out) {
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

#[test]
fn every_summary_matches_its_golden_fixture() {
    let dir = repo_root().join("tests/fixtures/cli");
    for (label, _, stdout) in runs() {
        let path = dir.join(format!("{label}.stdout"));
        let fixture = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        assert_eq!(stdout, &fixture, "`fairswap {label}` stdout drifted");
    }
}

#[test]
fn run_csv_matches_its_golden_fixture() {
    let demo = repo_root().join("tests/fixtures/demo_spec.json");
    let (run, stdout) = run_into("run", &["run", "--config", demo.to_str().unwrap()]);
    // A tool takes no preset scale, so its banner is its name alone.
    assert_eq!(stdout.lines().next(), Some("== run"), "{stdout}");
    let fixture = std::fs::read_to_string(repo_root().join("tests/fixtures/cli/run.csv")).unwrap();
    assert_eq!(
        std::fs::read_to_string(run.join("run.csv")).unwrap(),
        fixture,
        "`fairswap run --config tests/fixtures/demo_spec.json` run.csv drifted"
    );
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
    // `run.csv` is no preset's; its fixture is the demo spec's run.
    emitted.extend(csvs_in(&repo_root().join("tests/fixtures/cli")));
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

/// The command names in the usage text's `<a|b|...|all>` list, without
/// the `all` meta-command.
fn usage_commands() -> Vec<String> {
    let output = Command::new(env!("CARGO_BIN_EXE_fairswap"))
        .output()
        .expect("spawning the fairswap binary");
    let usage = String::from_utf8(output.stderr).unwrap();
    let list = usage
        .split_once("usage: fairswap <")
        .and_then(|(_, rest)| rest.split_once('>'))
        .expect("usage text lists the commands as <a|b|...>")
        .0;
    list.split('|')
        .filter(|name| *name != "all")
        .map(str::to_string)
        .collect()
}

#[test]
fn every_command_has_a_documented_section_and_back() {
    let doc = std::fs::read_to_string(repo_root().join("docs/EXPERIMENTS.md")).unwrap();
    let documented: Vec<&str> = doc
        .lines()
        .filter_map(|line| line.strip_prefix("## `"))
        .filter_map(|rest| rest.split_once('`'))
        .map(|(name, _)| name)
        .collect();
    let commands = usage_commands();
    for command in &commands {
        assert!(
            documented.contains(&command.as_str()),
            "`{command}` has no section in docs/EXPERIMENTS.md"
        );
    }
    for name in &documented {
        assert!(
            commands.iter().any(|command| command == name),
            "docs/EXPERIMENTS.md documents `{name}`, which is not a command"
        );
    }
}
