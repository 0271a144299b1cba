//! `miss-train` command-line contract: a malformed flag value is a usage
//! error (exit code 2), never a panic (exit code 101).

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
