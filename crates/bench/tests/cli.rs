//! Experiment-binary command-line contract: a missing or malformed flag
//! value, or an unknown flag, is a usage error (exit code 2), never a panic
//! (exit code 101).

use std::process::Command;

#[test]
fn bad_arguments_exit_with_usage_code() {
    for (args, expect) in [
        (&["--scale"][..], "bad value for --scale: "),
        (&["--scale", "x"][..], "bad value for --scale: x"),
        (&["--reps", "y"][..], "bad value for --reps: y"),
        (&["--bogus"][..], "unknown argument --bogus"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_table03"))
            .args(args)
            .output()
            .expect("table03 starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(expect), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
}
