//! CLI error-path consistency: every parse failure must exit nonzero
//! with `error: ...` plus the usage text on stderr, and nothing on
//! stdout — scripts and CI probe exit codes, not prose.

use std::process::{Command, Output};

fn fairswap(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fairswap"))
        .args(args)
        .output()
        .expect("spawning the fairswap binary")
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// Extracts the command names from the usage text's `Commands:` table so
/// the sweep below cannot drift from the binary's real dispatch table.
fn command_names(usage: &str) -> Vec<String> {
    let table = usage
        .split("Commands:")
        .nth(1)
        .expect("usage text has a Commands: section");
    table
        .lines()
        .filter(|line| line.contains('—'))
        .filter_map(|line| line.split_whitespace().next())
        .map(str::to_string)
        .filter(|name| name != "all")
        .collect()
}

#[test]
fn no_command_fails_with_usage() {
    let output = fairswap(&[]);
    assert!(!output.status.success());
    assert_eq!(output.status.code(), Some(1));
    let err = stderr(&output);
    assert!(err.contains("error: missing command"), "{err}");
    assert!(err.contains("usage: fairswap"), "{err}");
    assert!(output.stdout.is_empty());
}

#[test]
fn unknown_command_fails_with_usage() {
    // `bench` is not a command either; it must fail like any typo.
    for name in ["frobnicate", "bench"] {
        let output = fairswap(&[name]);
        assert!(!output.status.success());
        assert_eq!(output.status.code(), Some(1));
        let err = stderr(&output);
        assert!(err.contains(&format!("unknown command: {name}")), "{err}");
        assert!(err.contains("usage: fairswap"), "{err}");
    }
}

#[test]
fn every_command_rejects_a_bogus_flag_identically() {
    // Harvest the real command list from the usage text.
    let usage = stderr(&fairswap(&[]));
    let names = command_names(&usage);
    assert!(
        names.len() >= 18,
        "expected the full command table, got {names:?}"
    );
    assert!(names.iter().any(|n| n == "serve"), "{names:?}");
    assert!(names.iter().any(|n| n == "paper"), "{names:?}");
    for name in &names {
        // Flag parsing fails before dispatch, so nothing heavy runs.
        let output = fairswap(&[name, "--definitely-not-a-flag"]);
        assert_eq!(
            output.status.code(),
            Some(1),
            "{name} accepted a bogus flag"
        );
        let err = stderr(&output);
        assert!(
            err.contains("error: unknown flag: --definitely-not-a-flag"),
            "{name}: {err}"
        );
        assert!(err.contains("usage: fairswap"), "{name}: {err}");
        assert!(
            output.stdout.is_empty(),
            "{name} wrote to stdout on a parse error"
        );
    }
}

#[test]
fn value_flags_report_missing_values() {
    for args in [
        &["paper", "--nodes"][..],
        &["serve", "--addr"][..],
        &["run", "--config"][..],
    ] {
        let output = fairswap(args);
        assert_eq!(output.status.code(), Some(1), "{args:?}");
        let err = stderr(&output);
        assert!(err.contains("missing value for"), "{args:?}: {err}");
        assert!(err.contains("usage: fairswap"), "{args:?}: {err}");
    }
}

#[test]
fn invalid_numeric_values_are_rejected() {
    for (args, needle) in [
        (&["paper", "--nodes", "many"][..], "invalid --nodes value"),
        (
            &["serve", "--workers", "two"][..],
            "invalid --workers value",
        ),
        (
            &["serve", "--cache-cap", "-1"][..],
            "invalid --cache-cap value",
        ),
    ] {
        let output = fairswap(args);
        assert_eq!(output.status.code(), Some(1), "{args:?}");
        let err = stderr(&output);
        assert!(err.contains(needle), "{args:?}: {err}");
    }
}
