#!/usr/bin/env python3
"""Bench regression gate: compare a fresh BENCH_<group>.json against the
committed bench_baseline.json and fail when any shared case's median
regresses by more than the tolerance (default 25%).

The baseline may be a single-group document (`{"group": ..., "cases":
[...]}`) or a multi-group one (`{"groups": [<single-group doc>, ...]}`);
case names are unique across groups, so both flatten to one name->median
map. A fresh file is always a single group, so gating it against the full
baseline only compares the cases that group produced. A group the baseline
lacks is gated by its within-run clauses (--require-faster, --require-ratio)
alone, and is an error when it has none. Cases present on one
side only — a renamed sweep, a retired case, a case added mid-PR — print a
named warning and never fail the gate, so the case set can evolve without
breaking CI between the rename and the baseline refresh.

Medians on a busy CI box are noisy; the tolerance is deliberately loose so
the gate catches real regressions (a lost tiling path, an accidental
serial fallback) rather than scheduler jitter.

Gate flags:
  --require <case>          the named case must be present in the fresh run
  --require-faster <a> <b>  fresh median of <a> must beat fresh median of <b>
  --require-ratio <a> <b> <r>  fresh median of <a> over fresh median of <b>
                            must be <= r (a noise-tolerant require-faster:
                            0.5 demands <a> at least 2x faster than <b>;
                            1.25 allows <a> to trail <b> by up to 25%)
  --max-ratio <case> <r>    fresh/baseline median of <case> must be <= r
                            (r < 1 demands an improvement, e.g. 0.75 locks
                            in a >= 25% speedup over the committed baseline)

Baseline maintenance:
  scripts/check_bench.py --update-baseline <baseline.json> <fresh.json>...
                            replace each fresh file's group inside the
                            baseline (other groups are kept verbatim)

Usage: scripts/check_bench.py <fresh.json> <baseline.json> [tolerance]
                              [--require <case>]...
                              [--require-faster <a> <b>]...
                              [--require-ratio <a> <b> <r>]...
                              [--max-ratio <case> <r>]...
       scripts/check_bench.py --update-baseline <baseline.json> <fresh.json>...
       scripts/check_bench.py --self-test
"""

import json
import subprocess
import sys
import tempfile


def load(path):
    with open(path) as f:
        return json.load(f)


def groups_of(doc):
    return doc["groups"] if "groups" in doc else [doc]


def medians(path, only_group=None):
    """Flatten a bench document to {case name: median_ns}, with a named
    warning (not a KeyError) for malformed groups or cases. With
    `only_group`, groups under other names are skipped (with a note) so a
    single-group fresh run is compared against its own baseline group, not
    the whole multi-group document."""
    out = {}
    for g in groups_of(load(path)):
        gname = g.get("group", "<unnamed>")
        if only_group is not None and gname != only_group:
            print(f"note: skipping baseline group `{gname}` (gating group `{only_group}`)")
            continue
        for c in g.get("cases", []):
            if "name" not in c or "median_ns" not in c:
                print(f"warning: malformed case in group `{gname}` of {path}: {c}")
                continue
            out[c["name"]] = c["median_ns"]
    return out


def update_baseline(baseline_path, fresh_paths):
    """Replace each fresh file's group in the baseline document, preserving
    every other group. Creates the baseline if it does not exist."""
    try:
        base_doc = load(baseline_path)
        groups = groups_of(base_doc)
    except FileNotFoundError:
        groups = []
    for fresh_path in fresh_paths:
        fresh = load(fresh_path)
        if "groups" in fresh:
            sys.exit(f"--update-baseline takes single-group files, got {fresh_path}")
        name = fresh.get("group")
        if not name:
            sys.exit(f"{fresh_path} has no group name")
        replaced = False
        for i, g in enumerate(groups):
            if g.get("group") == name:
                groups[i] = fresh
                replaced = True
                break
        if not replaced:
            groups.append(fresh)
        print(f"{'replaced' if replaced else 'added'} group `{name}` from {fresh_path}")
    with open(baseline_path, "w") as f:
        json.dump({"groups": groups}, f, indent=2)
        f.write("\n")
    print(f"wrote {baseline_path} ({len(groups)} groups)")


def pop_flag(args, flag, nargs):
    """Extract every occurrence of `flag` with its `nargs` values."""
    found = []
    while flag in args:
        i = args.index(flag)
        if i + nargs >= len(args):
            sys.exit(f"ERROR: {flag} needs {nargs} argument(s)")
        found.append(tuple(args[i + 1 : i + 1 + nargs]))
        del args[i : i + 1 + nargs]
    return found


def parse_float(flag, text):
    """A bound for a gate flag must parse as a number; a typo'd bound must
    be a named error, not a ValueError traceback (tracebacks read as tool
    crashes, and a crash in the middle of CI invites a blind re-run)."""
    try:
        return float(text)
    except ValueError:
        sys.exit(f"ERROR: {flag} bound `{text}` is not a number")


def self_test():
    """Pytest-free self-test: drive this script as a subprocess over tiny
    synthetic bench documents and assert on exit codes and named errors.
    Run by scripts/ci.sh; exits 0 on success."""

    def doc(group, **cases):
        return {
            "group": group,
            "cases": [{"name": n, "median_ns": m} for n, m in cases.items()],
        }

    def run(files, argv):
        with tempfile.TemporaryDirectory() as td:
            paths = []
            for i, content in enumerate(files):
                p = f"{td}/f{i}.json"
                with open(p, "w") as f:
                    json.dump(content, f)
                paths.append(p)
            cmd = [sys.executable, __file__] + [
                paths[a] if isinstance(a, int) else a for a in argv
            ]
            return subprocess.run(cmd, capture_output=True, text=True)

    checks = [
        (
            "clean pass",
            run([doc("g", a=100), doc("g", a=100)], [0, 1]),
            lambda r: r.returncode == 0 and "bench gate passed" in r.stdout,
        ),
        (
            "regression fails",
            run([doc("g", a=200), doc("g", a=100)], [0, 1, "0.25"]),
            lambda r: r.returncode == 1 and "REGRESSION" in r.stdout,
        ),
        (
            "slack tolerance passes the same ratio",
            run([doc("g", a=200), doc("g", a=100)], [0, 1, "1.5"]),
            lambda r: r.returncode == 0,
        ),
        (
            "malformed --require-ratio bound is a named error",
            run(
                [doc("g", a=100, b=50), doc("g", a=100)],
                [0, 1, "--require-ratio", "a", "b", "fast"],
            ),
            lambda r: r.returncode != 0
            and "--require-ratio bound `fast` is not a number" in r.stderr,
        ),
        (
            "truncated --require-ratio is a named error",
            run([doc("g", a=100), doc("g", a=100)], [0, 1, "--require-ratio", "a"]),
            lambda r: r.returncode != 0 and "--require-ratio needs 3" in r.stderr,
        ),
        (
            "--require-ratio gates the fresh pair",
            run(
                [doc("g", slow=100, fastc=80), doc("g", slow=100)],
                [0, 1, "--require-ratio", "fastc", "slow", "0.5"],
            ),
            lambda r: r.returncode == 1 and "exceeds --require-ratio" in r.stderr,
        ),
        (
            "baseline missing the fresh group is a named error",
            run(
                [doc("serving", a=100), {"groups": [doc("kernels", k=10)]}],
                [0, 1],
            ),
            lambda r: r.returncode == 1 and "nothing to gate against" in r.stderr,
        ),
        (
            "baseline-less group passes on its within-run clauses",
            run(
                [doc("step", a=200, b=100), {"groups": [doc("kernels", k=10)]}],
                [0, 1, "--require-ratio", "a", "b", "3.0"],
            ),
            lambda r: r.returncode == 0
            and "gating on the within-run clauses alone" in r.stdout,
        ),
        (
            "baseline-less group still fails its within-run clauses",
            run(
                [doc("step", a=400, b=100), {"groups": [doc("kernels", k=10)]}],
                [0, 1, "--require-ratio", "a", "b", "3.0"],
            ),
            lambda r: r.returncode == 1 and "exceeds --require-ratio" in r.stderr,
        ),
        (
            "empty baseline case list is a named error",
            run([doc("g", a=100), {"group": "g", "cases": []}], [0, 1]),
            lambda r: r.returncode == 1 and "nothing to gate against" in r.stderr,
        ),
        (
            "malformed tolerance is a named error",
            run([doc("g", a=100), doc("g", a=100)], [0, 1, "loose"]),
            lambda r: r.returncode != 0
            and "tolerance bound `loose` is not a number" in r.stderr,
        ),
    ]
    failed = 0
    for name, result, ok in checks:
        status = "ok" if ok(result) else "FAIL"
        if status == "FAIL":
            failed += 1
            sys.stderr.write(
                f"self-test FAIL: {name}\n  rc={result.returncode}\n"
                f"  stdout: {result.stdout!r}\n  stderr: {result.stderr!r}\n"
            )
        print(f"self-test {name:<48} {status}")
    if failed:
        sys.exit(f"{failed} self-test case(s) failed")
    print(f"check_bench self-test passed ({len(checks)} cases)")


def main():
    args = sys.argv[1:]
    if args and args[0] == "--self-test":
        self_test()
        return
    if args and args[0] == "--update-baseline":
        if len(args) < 3:
            sys.exit("--update-baseline needs <baseline.json> <fresh.json>...")
        update_baseline(args[1], args[2:])
        return

    required = [a[0] for a in pop_flag(args, "--require", 1)]
    faster = pop_flag(args, "--require-faster", 2)
    pair_ratios = [
        (a, b, parse_float("--require-ratio", r))
        for a, b, r in pop_flag(args, "--require-ratio", 3)
    ]
    ratios = [
        (case, parse_float("--max-ratio", r))
        for case, r in pop_flag(args, "--max-ratio", 2)
    ]
    if len(args) < 2:
        sys.exit(__doc__)
    fresh_path, base_path = args[0], args[1]
    tolerance = parse_float("tolerance", args[2]) if len(args) > 2 else 0.25

    fresh_doc = load(fresh_path)
    fresh_group = fresh_doc.get("group") if "groups" not in fresh_doc else None
    fresh = medians(fresh_path)
    base = medians(base_path, only_group=fresh_group)
    hard_errors = []

    # An empty baseline side means every regression comparison below would
    # be silently skipped. A group gated by within-run clauses (one fresh
    # median against another) still checks something, so it passes on those
    # alone, with a note. Without such a clause the gate would "pass" having
    # checked nothing — the exact failure mode after a group rename or a
    # truncated baseline commit. Name it and fail.
    if not base:
        where = f"baseline {base_path} has no cases for group `{fresh_group or '<any>'}`"
        if faster or pair_ratios:
            print(f"note: {where}; gating on the within-run clauses alone")
        else:
            hard_errors.append(
                f"{where} — nothing to gate against (refresh it with "
                "--update-baseline, or gate the group with --require-faster "
                "or --require-ratio)"
            )

    for name in required:
        if name not in fresh:
            hard_errors.append(f"required case `{name}` missing from {fresh_path}")

    for a, b in faster:
        if a not in fresh or b not in fresh:
            missing = [n for n in (a, b) if n not in fresh]
            hard_errors.append(
                f"--require-faster case(s) {missing} missing from {fresh_path}"
            )
        elif fresh[a] >= fresh[b]:
            hard_errors.append(
                f"`{a}` (median {fresh[a]} ns) must beat `{b}` (median {fresh[b]} ns)"
            )
        else:
            print(f"{a} beats {b}: {fresh[a]} < {fresh[b]} ns  ok")

    for a, b, r in pair_ratios:
        if a not in fresh or b not in fresh:
            missing = [n for n in (a, b) if n not in fresh]
            hard_errors.append(
                f"--require-ratio case(s) {missing} missing from {fresh_path}"
            )
        else:
            ratio = fresh[a] / fresh[b] if fresh[b] else float("inf")
            if ratio > r:
                hard_errors.append(
                    f"`{a}` / `{b}` at x{ratio:.2f} exceeds --require-ratio {r}"
                )
            else:
                print(f"{a} / {b} x{ratio:.2f} <= {r}  ok")

    for case, r in ratios:
        if case not in fresh:
            hard_errors.append(f"--max-ratio case `{case}` missing from {fresh_path}")
        elif case not in base:
            hard_errors.append(f"--max-ratio case `{case}` missing from {base_path}")
        else:
            ratio = fresh[case] / base[case] if base[case] else float("inf")
            if ratio > r:
                hard_errors.append(
                    f"`{case}` at x{ratio:.2f} of baseline exceeds --max-ratio {r}"
                )
            else:
                print(f"{case} x{ratio:.2f} <= {r}  ok")

    failures = []
    for name in sorted(base):
        if name not in fresh:
            print(f"warning: case `{name}` in baseline but missing from fresh run")
            continue
        b, f = base[name], fresh[name]
        ratio = f / b if b else float("inf")
        status = "ok"
        if ratio > 1.0 + tolerance:
            status = "REGRESSION"
            failures.append((name, b, f, ratio))
        print(f"{name:<36} baseline {b:>12} ns  fresh {f:>12} ns  x{ratio:.2f}  {status}")
    for name in sorted(set(fresh) - set(base)):
        print(f"warning: new case `{name}` (median {fresh[name]} ns), not in baseline — not gated")

    if hard_errors:
        print(f"\n{len(hard_errors)} gate condition(s) failed:", file=sys.stderr)
        for msg in hard_errors:
            print(f"  ERROR: {msg}", file=sys.stderr)
    if failures:
        print(f"\n{len(failures)} case(s) regressed beyond {tolerance:.0%}:", file=sys.stderr)
        for name, b, f, ratio in failures:
            print(f"  {name}: {b} -> {f} ns (x{ratio:.2f})", file=sys.stderr)
    if hard_errors or failures:
        sys.exit(1)
    if base:
        print(f"\nbench gate passed ({len(base)} baseline cases, tolerance {tolerance:.0%})")
    else:
        print("\nbench gate passed (within-run clauses only, no baseline cases)")


if __name__ == "__main__":
    main()
