//! Every experiment binary runs end to end in `--smoke` mode (the tiny
//! world, one seed, two epochs): it exits 0 and prints its title, its rows
//! in paper order, and metrics in range (AUC in [0, 1], Logloss finite and
//! positive).

use std::process::Command;

/// `exe --smoke` run to completion; its stdout.
fn smoke(exe: &str) -> String {
    let out = Command::new(exe)
        .arg("--smoke")
        .output()
        .expect("binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{exe}: {stderr}");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

fn assert_title(stdout: &str, title: &str) {
    let line = format!("=== {title} ===");
    assert!(stdout.lines().any(|l| l == line), "no {line:?} in {stdout}");
}

fn assert_auc(auc: f64, row: &str) {
    assert!((0.0..=1.0).contains(&auc), "AUC out of range: {row}");
}

fn number(field: &str, row: &str) -> f64 {
    field
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("{field:?} is not a number in {row:?}"))
}

/// A `print_table` grid: one `label | AUC Logloss` row per cell, labels in
/// `labels`' order.
fn assert_grid(exe: &str, title: &str, labels: &[&str]) {
    let stdout = smoke(exe);
    assert_title(&stdout, title);
    let mut seen = Vec::new();
    for row in stdout.lines().filter(|l| l.contains(" | ")) {
        let mut fields = row.split(" | ");
        let label = fields.next().unwrap_or_default().trim();
        if label.is_empty() || label == "Model" {
            continue;
        }
        for pair in fields {
            let (auc, logloss) = pair.trim().split_once(' ').expect("AUC Logloss pair");
            assert_auc(number(auc, row), row);
            let logloss = number(logloss, row);
            assert!(logloss.is_finite() && logloss > 0.0, "Logloss: {row}");
        }
        seen.push(label.to_string());
    }
    assert_eq!(seen, labels, "{stdout}");
}

/// Tables X/XI: one `dataset level% DIN DIN-MISS RI` row per level.
fn assert_ri_table(exe: &str, title: &str, levels: &[&str]) {
    let stdout = smoke(exe);
    assert_title(&stdout, title);
    let rows: Vec<Vec<&str>> = stdout
        .lines()
        .skip_while(|l| !l.starts_with("Dataset"))
        .skip(1)
        .map(|l| l.split_whitespace().collect())
        .collect();
    let seen: Vec<&str> = rows.iter().map(|r| r[1]).collect();
    assert_eq!(seen, levels, "{stdout}");
    for r in &rows {
        let row = r.join(" ");
        assert_eq!(r.len(), 5, "{row}");
        assert_auc(number(r[2], &row), &row);
        assert_auc(number(r[3], &row), &row);
        assert!(r[4].ends_with('%'), "{row}");
    }
}

#[test]
fn table03_lists_the_dataset() {
    let stdout = smoke(env!("CARGO_BIN_EXE_table03"));
    assert_title(&stdout, "Table III: dataset statistics");
    let rows: Vec<Vec<&str>> = stdout
        .lines()
        .skip(2)
        .map(|l| l.split_whitespace().collect())
        .collect();
    assert_eq!(rows.len(), 1, "{stdout}");
    assert_eq!(rows[0][0], "tiny-sim");
    for count in &rows[0][1..] {
        assert!(count.parse::<usize>().is_ok_and(|n| n > 0), "{stdout}");
    }
}

#[test]
fn table04_lists_every_baseline_then_miss() {
    let labels = [
        "LR",
        "FM",
        "DeepFM",
        "IPNN",
        "DCN",
        "DCN-M",
        "xDeepFM",
        "DIN",
        "DIEN",
        "SIM(soft)",
        "DMR",
        "AutoInt+",
        "FiGNN",
        "MISS",
    ];
    let title = "Table IV: overall performance";
    assert_grid(env!("CARGO_BIN_EXE_table04"), title, &labels);
}

#[test]
fn table05_pairs_each_base_with_miss() {
    let labels = [
        "DIN",
        "DIN-MISS",
        "IPNN",
        "IPNN-MISS",
        "FiGNN",
        "FiGNN-MISS",
    ];
    let title = "Table V: compatibility analysis";
    assert_grid(env!("CARGO_BIN_EXE_table05"), title, &labels);
}

#[test]
fn table06_lists_every_ssl_method_per_base() {
    let labels = [
        "IPNN",
        "IPNN-Rule",
        "IPNN-IRSSL",
        "IPNN-S3Rec",
        "IPNN-CL4SRec",
        "IPNN-MISS",
        "DIN",
        "DIN-Rule",
        "DIN-IRSSL",
        "DIN-S3Rec",
        "DIN-CL4SRec",
        "DIN-MISS",
    ];
    let title = "Table VI: superiority analysis";
    assert_grid(env!("CARGO_BIN_EXE_table06"), title, &labels);
}

#[test]
fn table07_lists_every_variant_then_the_base() {
    let labels = [
        "IPNN-MISS",
        "IPNN-MISS/F",
        "IPNN-MISS/F/U",
        "IPNN-MISS/F/L",
        "IPNN-MISS/F/U/L",
        "IPNN-MISS/M/F/U/L",
        "IPNN",
        "DIN-MISS",
        "DIN-MISS/F",
        "DIN-MISS/F/U",
        "DIN-MISS/F/L",
        "DIN-MISS/F/U/L",
        "DIN-MISS/M/F/U/L",
        "DIN",
    ];
    let title = "Table VII: MISS variants";
    assert_grid(env!("CARGO_BIN_EXE_table07"), title, &labels);
}

#[test]
fn table08_lists_every_extractor() {
    let labels = ["DIN", "MISS-SA", "MISS-LSTM", "MISS-CNN"];
    let title = "Table VIII: multi-interest extractors";
    assert_grid(env!("CARGO_BIN_EXE_table08"), title, &labels);
}

#[test]
fn table09_lists_both_strategies() {
    let labels = ["DIN", "MISS-Joint", "MISS-Pre"];
    let title = "Table IX: training strategies";
    assert_grid(env!("CARGO_BIN_EXE_table09"), title, &labels);
}

#[test]
fn table10_lists_every_sampling_rate() {
    let title = "Table X: AUC under training-set down-sampling";
    assert_ri_table(
        env!("CARGO_BIN_EXE_table10"),
        title,
        &["80%", "90%", "100%"],
    );
}

#[test]
fn table11_lists_every_noise_rate() {
    let title = "Table XI: AUC under training-label noise";
    assert_ri_table(env!("CARGO_BIN_EXE_table11"), title, &["0%", "10%", "20%"]);
}

#[test]
fn fig05_probes_every_extractor() {
    let stdout = smoke(env!("CARGO_BIN_EXE_fig05"));
    let title = "Figure 5: view-pair cosine similarity vs training step (Amazon-Cds)";
    assert_title(&stdout, title);
    let mut seen: Vec<&str> = Vec::new();
    for row in stdout.lines().skip(2) {
        let fields: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(fields.len(), 3, "{row}");
        let similarity = number(fields[2], row);
        assert!(
            (-1.0..=1.0).contains(&similarity),
            "cosine out of range: {row}"
        );
        if seen.last() != Some(&fields[0]) {
            seen.push(fields[0]);
        }
    }
    assert_eq!(seen, ["MISS-SA", "MISS-LSTM", "MISS-CNN"], "{stdout}");
}

#[test]
fn fig06_lists_every_loss_weight() {
    let labels = ["alpha=0.05", "alpha=0.1", "alpha=0.5", "alpha=1", "alpha=5"];
    let title = "Figure 6: DIN-MISS vs SSL loss weight";
    assert_grid(env!("CARGO_BIN_EXE_fig06"), title, &labels);
}

#[test]
fn fig07_lists_every_temperature() {
    let labels = ["tau=0.05", "tau=0.1", "tau=0.5", "tau=1", "tau=5"];
    let title = "Figure 7: DIN-MISS vs InfoNCE temperature";
    assert_grid(env!("CARGO_BIN_EXE_fig07"), title, &labels);
}

#[test]
fn ablation_lists_every_design_choice() {
    let labels = [
        "DIN",
        "uniform+mlp (paper)",
        "gaussian+mlp",
        "geometric+mlp",
        "uniform+transformer",
    ];
    let title = "Design-choice ablation: distance law × encoder";
    assert_grid(env!("CARGO_BIN_EXE_ablation"), title, &labels);
}
