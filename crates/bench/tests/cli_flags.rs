//! `repro` and `loadgen` refuse unknown flags and unparsable values with
//! exit code 2 and a usage line, and still accept every flag the CI
//! smokes, the fleet benchmark and the verify notes pass.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .output()
        .expect("binary starts")
}

fn assert_usage_error(bin: &str, args: &[&str]) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains("usage:"),
        "{args:?}: no usage line in {stderr}"
    );
}

#[test]
fn repro_refuses_unknown_flags_and_bad_values() {
    let repro = env!("CARGO_BIN_EXE_repro");
    assert_usage_error(repro, &["run", "examples/quick.spec.json", "--bogus"]);
    assert_usage_error(
        repro,
        &["run", "examples/quick.spec.json", "--timeout-ms", "soon"],
    );
    assert_usage_error(repro, &["serve", "--max-inflight"]);
    assert_usage_error(repro, &["router", "--probe-ms", "-5"]);
}

#[test]
fn repro_accepts_every_documented_flag() {
    let repro = env!("CARGO_BIN_EXE_repro");
    let out = run(
        repro,
        &["tab1", "--locations", "5", "--threads", "1", "--fast"],
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    // Parsing succeeds; the unroutable address then fails the bind (1).
    let serve = [
        "serve",
        "--addr",
        "256.0.0.1:0",
        "--world",
        "anchors",
        "--max-inflight",
        "1",
        "--queue-depth",
        "1",
        "--default-deadline-ms",
        "5",
        "--drain-ms",
        "5",
        "--cache-capacity",
        "1",
        "--max-redeliveries",
        "1",
        "--no-persist",
    ];
    assert_eq!(run(repro, &serve).status.code(), Some(1));
    let router = [
        "router",
        "--addr",
        "256.0.0.1:0",
        "--backends",
        "127.0.0.1:1,127.0.0.1:2",
        "--vnodes",
        "4",
        "--probe-ms",
        "100",
        "--drain-ms",
        "5",
    ];
    assert_eq!(run(repro, &router).status.code(), Some(1));
}

#[test]
fn loadgen_refuses_unknown_flags_and_bad_values() {
    let loadgen = env!("CARGO_BIN_EXE_loadgen");
    assert_usage_error(loadgen, &["--bogus"]);
    assert_usage_error(loadgen, &["--requests", "many"]);
    assert_usage_error(loadgen, &["--addr"]);
}

#[test]
fn loadgen_accepts_every_documented_flag() {
    let loadgen = env!("CARGO_BIN_EXE_loadgen");
    // Nothing listens on port 1: the one request is a transport error,
    // which `--allow-transport` tolerates, so a clean parse exits 0.
    let out = run(
        loadgen,
        &[
            "--addr",
            "127.0.0.1:1",
            "--spec",
            "examples/quick.spec.json",
            "--requests",
            "1",
            "--concurrency",
            "1",
            "--unique",
            "--no-cache",
            "--deadline-ms",
            "5",
            "--min-ok",
            "0",
            "--histogram",
            "--min-hit-rate",
            "0",
            "--backends",
            "127.0.0.1:1",
            "--allow-transport",
        ],
    );
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}
