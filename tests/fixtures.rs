//! Fixture tests for the workspace lint gate (DESIGN.md §7): each rule must
//! fire on a seeded violation and stay silent on compliant code, including
//! the cases a naive grep gets wrong (banned names inside string literals or
//! comments, `SAFETY:` comments in block form or above a `let` prefix).
//!
//! The fixtures are compiled as one scratch crate that inherits this
//! workspace's real configuration: the `[workspace.lints]` tables of the
//! root `Cargo.toml`, the root `clippy.toml`, and the crate-level
//! `#![deny(...)]` headers of the R5/R6 source files. `cargo clippy` runs on
//! it once and every test reads the diagnostics for its own fixture file.
//!
//! All fixture sources live in string literals, so this file itself stays
//! clean under the gate.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::sync::OnceLock;

/// R5 header: the float-discipline deny set of the autograd tape.
const R5_FILE: &str = include_str!("../crates/autograd/src/tape.rs");
/// R6 header: the panic-lint deny set of a crate R6 covers.
const R6_FILE: &str = include_str!("../crates/nn/src/lib.rs");

/// `(file, line, lint)` → rendered diagnostic.
type Findings = BTreeMap<(String, usize, String), String>;

/// The first `#![deny(...)]` block of `src`, verbatim.
fn deny_header(src: &str) -> &str {
    let start = src.find("#![deny(").expect("source has a #![deny] header");
    let len = src[start..].find(")]").expect("header is closed") + 2;
    &src[start..start + len]
}

/// Fixture files, as `(name, source)`; `name` is the module under `src/`.
fn fixtures() -> Vec<(&'static str, String)> {
    let r5 = deny_header(R5_FILE);
    let r6 = deny_header(R6_FILE);
    let float_env = "pub fn f(x: u32, y: f32) -> bool {\n    let _z = x as f32;\n    let _w = y as i32;\n    y == 1.5\n}\n";
    vec![
        ("r1_hashmap", "use std::collections::HashMap;\npub fn f() -> u32 {\n    let m: HashMap<u32, u32> =\n        HashMap::new();\n    let mut n = 0;\n    for _ in &m {\n        n += 1;\n    }\n    n\n}\n".into()),
        ("r1_btreemap", "use std::collections::BTreeMap;\npub fn f() -> u32 {\n    let m: BTreeMap<u32, u32> = BTreeMap::new();\n    let mut n = 0;\n    for _ in &m {\n        n += 1;\n    }\n    n\n}\n".into()),
        ("r1_cfg_not_test", "#[cfg(not(test))]\npub fn f() {\n    let _ = std::collections::HashMap::<u32, u32>::new();\n}\n".into()),
        ("r2_test_code", "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let _x = std::time::Instant::now();\n    }\n}\n".into()),
        ("r2_text_only", "pub fn f() -> &'static str {\n    \"Instant::now is banned\"\n}\n// Instant is discussed here only.\n".into()),
        ("r2_bench_timer", "#[expect(clippy::disallowed_methods, reason = \"observational timer\")]\npub fn now() -> std::time::Instant {\n    std::time::Instant::now()\n}\n".into()),
        ("r3_spawn", "pub fn a() {\n    let _ = std::thread::spawn(|| {});\n}\npub fn b() {\n    std::thread::scope(|_s| {});\n}\npub fn c() {\n    let _ = std::thread::Builder::new();\n}\n".into()),
        ("r3_pool", "#[expect(clippy::disallowed_methods, reason = \"the deterministic pool owns its workers\")]\npub fn pool() {\n    let _ = std::thread::spawn(|| {});\n}\npub fn benign(thread: u32) -> u32 {\n    std::thread::yield_now();\n    thread\n}\n".into()),
        ("r4_outside", "unsafe fn g() -> u32 {\n    1\n}\npub fn f() -> u32 {\n    unsafe { g() }\n}\n".into()),
        ("r4_missing", "#![allow(unsafe_code, reason = \"fixture: R4 concerns the comment\")]\nunsafe fn g() -> u32 {\n    1\n}\npub fn f() -> u32 {\n    unsafe { g() }\n}\n".into()),
        ("r4_line_comment", "#![allow(unsafe_code, reason = \"fixture: R4 concerns the comment\")]\nunsafe fn g() -> u32 {\n    1\n}\npub fn f() -> u32 {\n    // SAFETY: g has no preconditions here.\n    unsafe { g() }\n}\n".into()),
        ("r4_block_and_prefix", "#![allow(unsafe_code, reason = \"fixture: R4 concerns the comment\")]\nunsafe fn g() -> u32 {\n    1\n}\npub struct P(pub *mut u8);\n/* SAFETY: disjoint slot writes, proven by chunking. */\nunsafe impl Send for P {}\npub fn f() -> u32 {\n    // SAFETY: idx < len checked by the caller.\n    let v = unsafe { g() };\n    v + 1\n}\n".into()),
        ("r4_unrelated", "#![allow(unsafe_code, reason = \"fixture: R4 concerns the comment\")]\nunsafe fn g() -> u32 {\n    1\n}\npub fn f() -> u32 {\n    // this comment says nothing about preconditions\n    unsafe { g() }\n}\n".into()),
        ("r5_scoped", format!("{r5}\n{float_env}")),
        ("r5_unscoped", float_env.into()),
        ("r5_ordering", format!("{r5}\npub fn lo(y: f32, n: usize) -> bool {{\n    for _i in 1..n {{}}\n    let _k = n as u64;\n    y <= 1.5\n}}\npub fn hi(y: f32) -> bool {{\n    y >= -2.0\n}}\n")),
        ("r6_unwrap", format!("{r6}\npub fn a(x: Option<u32>) -> u32 {{\n    x.unwrap()\n}}\npub fn b(x: Option<u32>) -> u32 {{\n    x.expect(\"present\")\n}}\npub fn c() -> u32 {{\n    todo!()\n}}\n")),
        ("r6_string", format!("{r6}\npub fn f() -> &'static str {{\n    \"never call .unwrap( in hot paths\"\n}}\n")),
        ("r6_unwrap_or", format!("{r6}\npub fn f(x: Option<u32>) -> u32 {{\n    x.unwrap_or(0).max(x.unwrap_or_default())\n}}\n#[cfg(test)]\nmod tests {{\n    #[test]\n    fn t() {{\n        assert_eq!(super::f(Some(2)).checked_add(1).unwrap(), 3);\n    }}\n}}\n")),
        ("r9_expect_site", format!("{r6}\npub fn f(grid: &[u32]) -> u32 {{\n    #[expect(clippy::expect_used, reason = \"empty grid asserted impossible by the caller\")]\n    let a = *grid.first().expect(\"non-empty\");\n    let b = grid.last().copied().unwrap();\n    a + b\n}}\n")),
        ("r10_env", "pub fn a() -> bool {\n    std::env::var(\"MISS_KNOB\").is_ok()\n}\npub fn b() -> bool {\n    std::env::var_os(\"MISS_KNOB\").is_some()\n}\npub fn c() -> &'static str {\n    env!(\"CARGO_PKG_NAME\")\n}\n".into()),
        ("r9_no_reason", "#[allow(clippy::needless_return)]\npub fn f() -> u32 {\n    return 1;\n}\n".into()),
    ]
}

/// `s` after the first occurrence of `pat`.
fn after<'a>(s: &'a str, pat: &str) -> Option<&'a str> {
    s.find(pat).map(|i| &s[i + pat.len()..])
}

/// Lint name and primary `file:line` of one `compiler-message` JSON line.
fn parse_message(json: &str) -> Option<((String, usize, String), String)> {
    let lint = after(json, "\"code\":{\"code\":\"")?.split('"').next()?;
    let rendered = after(json, "\"rendered\":\"")?;
    // The rendered text's first `--> file:line:col` is the primary span; the
    // JSON string escapes its newlines, so the location ends at a backslash.
    let loc = after(rendered, "--> ")?.split('\\').next()?;
    let mut parts = loc.split(':');
    let file = parts.next()?.to_string();
    let line = parts.next()?.parse().ok()?;
    Some(((file, line, lint.to_string()), rendered.to_string()))
}

/// Writes the fixture crate and runs clippy on it, once per test binary.
fn findings() -> &'static Findings {
    static FINDINGS: OnceLock<Findings> = OnceLock::new();
    FINDINGS.get_or_init(|| {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint-fixtures");
        let src = dir.join("src");
        std::fs::create_dir_all(&src).expect("create fixture crate");
        let workspace_lints: Vec<&str> = {
            let mut keep = false;
            include_str!("../Cargo.toml")
                .lines()
                .filter(|line| {
                    if line.starts_with('[') {
                        keep = line.starts_with("[workspace.lints");
                    }
                    keep
                })
                .collect()
        };
        assert!(!workspace_lints.is_empty(), "root Cargo.toml has [workspace.lints]");
        let manifest = format!(
            "[package]\nname = \"lint-fixtures\"\nversion = \"0.0.0\"\nedition = \"2021\"\npublish = false\n\n[lints]\nworkspace = true\n\n[workspace]\n\n{}\n",
            workspace_lints.join("\n")
        );
        std::fs::write(dir.join("Cargo.toml"), manifest).expect("write manifest");
        std::fs::write(dir.join("clippy.toml"), include_str!("../clippy.toml")).expect("write clippy.toml");
        let mut lib = String::new();
        for (name, body) in fixtures() {
            lib.push_str(&format!("pub mod {name};\n"));
            std::fs::write(src.join(format!("{name}.rs")), body).expect("write fixture");
        }
        std::fs::write(src.join("lib.rs"), lib).expect("write lib.rs");

        #[expect(
            clippy::disallowed_methods,
            reason = "cargo sets CARGO for its test binaries: the fixture crate is linted by the same toolchain"
        )]
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let out = Command::new(cargo)
            .args(["clippy", "--offline", "--quiet", "--keep-going", "--all-targets"])
            .arg("--message-format=json")
            .current_dir(&dir)
            .env("CARGO_TARGET_DIR", dir.join("target"))
            .output()
            .expect("run cargo clippy");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 diagnostics");
        // The lib and its test harness report shared sites twice: the map
        // keeps one entry per (file, line, lint).
        let found: Findings = stdout
            .lines()
            .filter(|l| l.contains("\"reason\":\"compiler-message\""))
            .filter_map(parse_message)
            .collect();
        assert!(
            stdout.contains("\"reason\":\"build-finished\""),
            "clippy did not run to completion:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        found
    })
}

/// `(line, lint)` of every finding in fixture `name`.
fn at(name: &str) -> Vec<(usize, &'static str)> {
    let file = format!("src/{name}.rs");
    findings()
        .keys()
        .filter(|(f, _, _)| *f == file)
        .map(|(_, line, lint)| (*line, lint.as_str()))
        .collect()
}

/// Lint names of the findings in fixture `name`, in line order.
fn lints_at(name: &str) -> Vec<&'static str> {
    at(name).into_iter().map(|(_, lint)| lint).collect()
}

/// 1-based line of the first fixture line in `name` containing `needle`.
fn line_of(name: &str, needle: &str) -> usize {
    let (_, body) = fixtures().into_iter().find(|(n, _)| *n == name).expect("fixture exists");
    body.lines().position(|l| l.contains(needle)).expect("needle in fixture") + 1
}

// ---------------------------------------------------------------- R1

#[test]
fn r1_fires_on_hashmap_in_production_code() {
    let lints = lints_at("r1_hashmap");
    assert!(
        lints.iter().all(|&l| l == "clippy::disallowed_types" || l == "clippy::iter_over_hash_type"),
        "{lints:?}"
    );
    // One finding per mention of the type, plus the loop over it.
    let mentions = lints.iter().filter(|&&l| l == "clippy::disallowed_types").count();
    assert_eq!(mentions, 3, "{lints:?}");
    assert_eq!(
        at("r1_hashmap")
            .into_iter()
            .filter(|&(_, l)| l == "clippy::iter_over_hash_type")
            .map(|(line, _)| line)
            .collect::<Vec<_>>(),
        vec![line_of("r1_hashmap", "for _ in &m")]
    );
}

#[test]
fn r1_silent_on_btreemap() {
    assert!(at("r1_btreemap").is_empty(), "{:?}", at("r1_btreemap"));
}

#[test]
fn r1_fires_after_cfg_not_test() {
    // `#[cfg(not(test))]` is production code, not a test region.
    assert_eq!(lints_at("r1_cfg_not_test"), vec!["clippy::disallowed_types"]);
}

// ---------------------------------------------------------------- R2

#[test]
fn r2_fires_on_instant_even_in_test_code() {
    // Wall-clock reads are banned in tests too: a time-dependent test is a
    // broken determinism contract.
    assert_eq!(lints_at("r2_test_code"), vec!["clippy::disallowed_methods"]);
}

#[test]
fn r2_silent_when_name_only_in_string_or_comment() {
    assert!(at("r2_text_only").is_empty(), "{:?}", at("r2_text_only"));
}

#[test]
fn r2_silent_in_bench_timer_file() {
    // The sanctioned timer carries a reasoned `#[expect]`, which is also
    // fulfilled: no `unfulfilled_lint_expectations` either.
    assert!(at("r2_bench_timer").is_empty(), "{:?}", at("r2_bench_timer"));
}

// ---------------------------------------------------------------- R3

#[test]
fn r3_fires_on_spawn_scope_builder() {
    let found = at("r3_spawn");
    for call in ["thread::spawn", "thread::scope", "thread::Builder::new"] {
        let line = line_of("r3_spawn", call);
        assert!(found.contains(&(line, "clippy::disallowed_methods")), "{call}: {found:?}");
    }
    assert_eq!(found.len(), 3, "{found:?}");
}

#[test]
fn r3_silent_in_parallel_crate_and_on_other_thread_items() {
    // The pool's spawn is exempt at its site; `yield_now` and a local named
    // `thread` are not spawns.
    assert!(at("r3_pool").is_empty(), "{:?}", at("r3_pool"));
}

// ---------------------------------------------------------------- R4

#[test]
fn r4_unsafe_outside_allowlist_is_two_findings() {
    // Unexempted `unsafe` AND no SAFETY comment: both diagnostics fire.
    let line = line_of("r4_outside", "unsafe { g() }");
    let on_block: Vec<_> = at("r4_outside").into_iter().filter(|&(l, _)| l == line).collect();
    assert_eq!(
        on_block,
        vec![(line, "clippy::undocumented_unsafe_blocks"), (line, "unsafe_code")]
    );
}

#[test]
fn r4_missing_safety_in_allowlisted_file_is_one_finding() {
    let line = line_of("r4_missing", "unsafe { g() }");
    assert_eq!(at("r4_missing"), vec![(line, "clippy::undocumented_unsafe_blocks")]);
    let rendered = &findings()[&("src/r4_missing.rs".to_string(), line, "clippy::undocumented_unsafe_blocks".to_string())];
    assert!(rendered.contains("safety comment"), "msg names the fix: {rendered}");
}

#[test]
fn r4_satisfied_by_line_comment_directly_above() {
    assert!(at("r4_line_comment").is_empty(), "{:?}", at("r4_line_comment"));
}

#[test]
fn r4_satisfied_by_block_comment_and_same_line_prefix() {
    // A `/* SAFETY: */` block above an `unsafe impl`, and a `let v =` prefix
    // on the line of the `unsafe` block, both keep the comment attached.
    assert!(at("r4_block_and_prefix").is_empty(), "{:?}", at("r4_block_and_prefix"));
}

#[test]
fn r4_unrelated_comment_does_not_count() {
    let line = line_of("r4_unrelated", "unsafe { g() }");
    assert_eq!(
        at("r4_unrelated"),
        vec![(line, "clippy::undocumented_unsafe_blocks")],
        "non-SAFETY comment must not satisfy R4"
    );
}

// ---------------------------------------------------------------- R5

#[test]
fn r5_fires_on_float_casts_and_literal_compares_in_scoped_paths() {
    let mut lints = lints_at("r5_scoped");
    lints.sort_unstable();
    assert_eq!(
        lints,
        vec!["clippy::cast_possible_truncation", "clippy::cast_precision_loss", "clippy::float_cmp"]
    );
    // Same source without the scoped header: silent.
    assert!(at("r5_unscoped").is_empty(), "{:?}", at("r5_unscoped"));
}

#[test]
fn r5_silent_on_ordering_compares_and_int_ranges() {
    assert!(at("r5_ordering").is_empty(), "{:?}", at("r5_ordering"));
}

// ---------------------------------------------------------------- R6

#[test]
fn r6_fires_on_unwrap_expect_todo() {
    let expected = [
        (line_of("r6_unwrap", "x.unwrap()"), "clippy::unwrap_used"),
        (line_of("r6_unwrap", "x.expect("), "clippy::expect_used"),
        (line_of("r6_unwrap", "todo!()"), "clippy::todo"),
    ];
    assert_eq!(at("r6_unwrap"), expected);
}

#[test]
fn r6_silent_on_unwrap_inside_string_literal() {
    // The canonical grep false positive: the banned spelling inside a string.
    assert!(at("r6_string").is_empty(), "{:?}", at("r6_string"));
}

#[test]
fn r6_silent_on_unwrap_or_and_in_tests() {
    // `unwrap_or` is fine, and test code is exempt through clippy.toml.
    assert!(at("r6_unwrap_or").is_empty(), "{:?}", at("r6_unwrap_or"));
}

// ---------------------------------------------------------------- R10

#[test]
fn r10_fires_on_runtime_env_reads_only() {
    // `env!` is resolved at compile time: not a setting read at run time.
    assert_eq!(
        at("r10_env"),
        vec![
            (line_of("r10_env", "env::var("), "clippy::disallowed_methods"),
            (line_of("r10_env", "env::var_os("), "clippy::disallowed_methods"),
        ]
    );
}

// ------------------------------------------------------- exemption layer

#[test]
fn allow_entry_suppresses_matching_line_only() {
    let line = line_of("r9_expect_site", "copied().unwrap()");
    assert_eq!(
        at("r9_expect_site"),
        vec![(line, "clippy::unwrap_used")],
        "only the unexempted line survives"
    );
}

#[test]
fn allow_entry_requires_reason() {
    let line = line_of("r9_no_reason", "#[allow(");
    assert_eq!(at("r9_no_reason"), vec![(line, "clippy::allow_attributes_without_reason")]);
}
