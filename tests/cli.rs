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

/// Each subcommand accepts only its own flags: a typo for one of them, or a
/// flag another subcommand (or an older version) takes, exits 2 naming it
/// instead of being ignored. `eval` reads the model from the checkpoint, so
/// `--model` and `--miss` are unknown to it.
#[test]
fn unknown_flags_exit_with_usage_code() {
    for (args, flag) in [
        (&["train", "--dataset", "tiny", "--model", "DIN", "--epoch", "1", "--seed", "3"][..], "--epoch"),
        (&["eval", "--dataset", "tiny", "--ckpt", "none.ckpt", "--seed", "5"], "--seed"),
        (&["eval", "--dataset", "tiny", "--model", "DIN", "--ckpt", "none.ckpt"], "--model"),
        (&["eval", "--dataset", "tiny", "--ckpt", "none.ckpt", "--miss"], "--miss"),
        (&["stats", "--dataset", "tiny", "--miss"], "--miss"),
        (&["train", "--dataset", "tiny", "stray"], "stray"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_miss-train"))
            .args(args)
            .output()
            .expect("miss-train starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(&format!("unknown argument for {}: {flag}", args[0])), "{stderr}");
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

/// `miss-train` run with `args`; its exit code, stdout and stderr.
fn miss_train_output(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_miss-train"))
        .args(args)
        .output()
        .expect("miss-train starts");
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("utf-8 output");
    (out.status.code(), text(out.stdout), text(out.stderr))
}

/// `miss-train` run to completion with `args`; its stdout.
fn miss_train(args: &[&str]) -> String {
    let (code, stdout, stderr) = miss_train_output(args);
    assert_eq!(code, Some(0), "{args:?}: {stderr}");
    stdout
}

fn metrics_line(stdout: &str) -> &str {
    stdout
        .lines()
        .find(|l| l.starts_with("test AUC"))
        .unwrap_or_else(|| panic!("no metrics line in {stdout:?}"))
}

/// Checkpointing never changes the run: `train` prints the same metrics
/// with and without `--out` / `--ring`; `eval` on the checkpoint scores the
/// weights `train` selected; and resuming a finished run trains no further
/// epoch and prints the same line.
#[test]
fn checkpointed_training_reports_and_saves_the_selected_model() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-protocol");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let ckpt = dir.join("din.ckpt");
    let ckpt = ckpt.to_str().expect("utf-8 path");
    let ring = dir.join("ring");
    let ring = ring.to_str().expect("utf-8 path");
    let train = |extra: &[&str]| {
        let args = [&["train", "--dataset", "tiny", "--model", "DIN", "--seed", "3"], extra];
        miss_train(&args.concat())
    };

    let plain = train(&[]);
    let line = metrics_line(&plain);
    assert_eq!(metrics_line(&train(&["--out", ckpt])), line, "--out changed the run");
    assert_eq!(metrics_line(&train(&["--ring", ring])), line, "--ring changed the run");

    let scored = miss_train(&["eval", "--dataset", "tiny", "--ckpt", ckpt]);
    let (metrics, _epochs) = line.split_once("  (").expect("epochs suffix");
    assert_eq!(metrics_line(&scored), metrics, "eval scored other weights than train selected");

    let before = std::fs::read(ckpt).expect("checkpoint");
    let resumed = train(&["--resume", ckpt, "--out", ckpt]);
    assert_eq!(metrics_line(&resumed), line, "resuming a finished run changed its report");
    assert!(
        std::fs::read(ckpt).expect("checkpoint") == before,
        "resuming a finished run trained another epoch"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint says which model it holds: `eval` needs no model flags, for
/// a run with MISS attached too (its SSL heads are never read at
/// inference), and names the model it scored.
#[test]
fn eval_reads_the_model_from_the_checkpoint() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-arch");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for (name, extra) in [("din", &[][..]), ("din-miss", &["--miss"][..])] {
        let ckpt = dir.join(format!("{name}.ckpt"));
        let ckpt = ckpt.to_str().expect("utf-8 path");
        let train = ["train", "--dataset", "tiny", "--model", "DIN", "--seed", "3", "--out", ckpt];
        let trained = miss_train(&[&train[..], extra].concat());
        let scored = miss_train(&["eval", "--dataset", "tiny", "--ckpt", ckpt]);
        let (metrics, _epochs) = metrics_line(&trained).split_once("  (").expect("epochs suffix");
        assert_eq!(metrics_line(&scored), metrics, "{name}: eval scored other weights");
        assert!(scored.lines().any(|l| l.starts_with("DIN checkpoint at epoch ")), "{scored}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--resume` refuses a checkpoint of another model before loading any of
/// it (exit 3, naming both), also when the two models register the same
/// parameter names (LR and FM); so does `--ring` over another model's slots,
/// which it leaves as they were.
/// DIN with `--miss` is the same model with SSL heads added, so it stays a
/// parameter-count mismatch.
#[test]
fn resume_refuses_a_checkpoint_of_another_model() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-resume-arch");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = |name: &str| dir.join(name).to_str().expect("utf-8 path").to_string();
    let (din, lr, ring) = (path("din.ckpt"), path("lr.ckpt"), path("ring"));
    let train = |extra: &[&str]| {
        miss_train_output(&[&["train", "--dataset", "tiny", "--epochs", "2"], extra].concat())
    };
    for extra in [["--model", "DIN", "--out", &din], ["--model", "LR", "--ring", &ring]] {
        assert_eq!(train(&extra).0, Some(0), "{extra:?}");
    }
    std::fs::copy(dir.join("ring").join("ckpt.e00000002.ckpt"), &lr).expect("LR checkpoint");

    for (model, ckpt, held) in [("IPNN", &din, "DIN"), ("FM", &lr, "LR")] {
        let (code, _, stderr) = train(&["--model", model, "--resume", ckpt]);
        assert_eq!(code, Some(3), "{model} resuming {held}: {stderr}");
        assert!(
            stderr.contains(&format!("checkpoint holds {held} "))
                && stderr.contains(&format!("this run builds {model} ")),
            "{stderr}"
        );
    }

    let (code, _, stderr) = train(&["--model", "DIN", "--miss", "--resume", &din]);
    assert_eq!(code, Some(3), "{stderr}");
    assert!(stderr.contains("dense params, the store has"), "{stderr}");

    let slots = || {
        let mut slots: Vec<_> = std::fs::read_dir(&ring)
            .expect("ring dir")
            .map(|e| {
                let path = e.expect("ring entry").path();
                (path.clone(), std::fs::read(path).expect("ring slot"))
            })
            .collect();
        slots.sort();
        slots
    };
    let before = slots();
    let (code, _, stderr) = train(&["--model", "FM", "--ring", &ring]);
    assert_eq!(code, Some(3), "{stderr}");
    assert!(stderr.contains("checkpoint holds LR "), "{stderr}");
    assert!(slots() == before, "an FM run over LR's ring changed its slots");
    let _ = std::fs::remove_dir_all(&dir);
}
