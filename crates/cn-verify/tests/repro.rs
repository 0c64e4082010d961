//! The `repro` binary's command line: where its output goes, and what it
//! exits with when that output fails or an option is not its own.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

/// A sink that refuses every write (`/dev/full`: ENOSPC) is an exit 1
/// with a message, not a silent success.
#[cfg(target_os = "linux")]
#[test]
fn a_failed_write_exits_1_with_a_message() {
    let out = repro(&["--scale", "quick", "--out", "/dev/full", "table2"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("cannot write output"), "stderr: {stderr}");
}

/// `dot` writes both machines into the `--out` file, like every other
/// experiment, and nothing to stdout.
#[test]
fn dot_writes_to_the_out_file() {
    let path = std::env::temp_dir().join(format!("repro-dot-{}.txt", std::process::id()));
    let out = repro(&["--scale", "quick", "--out", path.to_str().unwrap(), "dot"]);
    let written = std::fs::read_to_string(&path).expect("read --out file");
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(written.matches("digraph").count(), 2, "{written}");
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

/// `--markdown` is not an option: `--format markdown` is its one spelling.
#[test]
fn markdown_flag_is_a_usage_error() {
    let out = repro(&["--scale", "quick", "--markdown", "table2"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("unknown option `--markdown`"), "{stderr}");
    assert!(stderr.contains("usage: repro"), "{stderr}");
}
