//! `miss-train` command-line contract: a malformed flag value is a usage
//! error (exit code 2), never a panic (exit code 101), and no fault plan is
//! read from the environment.

use std::process::Command;

#[test]
fn malformed_numeric_flags_exit_with_usage_code() {
    for (flag, value) in [
        ("--seed", "x"),
        ("--scale", "y"),
        ("--epochs", "z"),
        ("--keep", "z"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_miss-train"))
            .args(["train", "--dataset", "tiny", "--model", "DIN", flag, value])
            .output()
            .expect("miss-train starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(
            stderr.contains(&format!("bad value for {flag}")),
            "{stderr}"
        );
    }
}

/// Fault plans are installed by tests only: a run with a `MISS_FAULTS`
/// spec in the environment trains exactly like one without it.
#[test]
fn miss_faults_in_the_environment_changes_nothing() {
    let run = |ring: &str, faults: Option<&str>| {
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(ring);
        let _ = std::fs::remove_dir_all(&dir);
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_miss-train"));
        cmd.args(["train", "--dataset", "tiny", "--model", "DIN", "--epochs", "1", "--ring"])
            .arg(&dir)
            .env_remove("MISS_FAULTS");
        if let Some(spec) = faults {
            cmd.env("MISS_FAULTS", spec);
        }
        let out = cmd.output().expect("miss-train starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "MISS_FAULTS={faults:?}: {stderr}");
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    };
    let clean = run("cli-ring-clean", None);
    let with_var = run("cli-ring-faults", Some("trainer.nan.loss@1+"));
    assert_eq!(with_var, clean);
}
