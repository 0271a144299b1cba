//! `BenchGroup::finish` must fail the bench process when it cannot write
//! `BENCH_<group>.json`. One test in its own binary, because it sets the
//! process-wide `TESTKIT_BENCH_DIR`.

use miss_testkit::bench::{black_box, BenchGroup};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn finish_into(dir: &std::path::Path) -> std::thread::Result<()> {
    std::env::set_var("TESTKIT_BENCH_DIR", dir);
    let mut group = BenchGroup::new("output_probe");
    group.bench_function("noop", |b| b.iter(|| black_box(1 + 1)));
    catch_unwind(AssertUnwindSafe(|| group.finish()))
}

#[test]
fn finish_fails_when_the_output_directory_does_not_exist() {
    let root = std::env::temp_dir().join(format!("testkit_bench_output_{}", std::process::id()));
    let missing = root.join("does_not_exist");
    let _ = std::fs::remove_dir_all(&root);
    assert!(
        finish_into(&missing).is_err(),
        "finish returned without writing"
    );
    assert!(!missing.exists());

    std::fs::create_dir_all(&root).expect("create the output directory");
    assert!(
        finish_into(&root).is_ok(),
        "finish failed on a writable directory"
    );
    let written =
        std::fs::read_to_string(root.join("BENCH_output_probe.json")).expect("bench JSON");
    assert!(written.contains(r#""name": "noop""#));
    std::fs::remove_dir_all(&root).expect("clean up");
}
