#!/usr/bin/env python3
"""Docs linter: keep docs/ and src/ from drifting apart.

The documentation layer (docs/CONFIG.md, docs/ARCHITECTURE.md,
docs/BENCHMARKS.md, README.md) makes claims the code can silently
invalidate: an env var gets added to src/ but never documented, a documented
knob gets deleted from the code, a doc points at a file that was renamed.
This linter makes each of those a build failure instead of rot:

  env-undocumented  every quoted "FEDHISYN_*" string literal in src/ (the
                    repo's env-var convention — macros like FEDHISYN_CHECK
                    are never quoted) must appear in docs/CONFIG.md.
  env-stale         every FEDHISYN_* token mentioned in docs/CONFIG.md must
                    still occur as a quoted literal somewhere in src/ — a
                    knob removed from the code must leave the table too.
  flag-undocumented every shared flag declared in src/ (a `FlagDecl`
                    constant or array: "name=VALUE" or "name") must have a
                    row in the "## Shared flags" table of docs/CONFIG.md.
  flag-stale        every `--name` row of that table must still be declared
                    by a `FlagDecl` in src/.
  path-missing      every backtick-quoted token in docs/*.md and README.md
                    that looks like a repo path (src/..., tests/...,
                    bench/..., tools/..., docs/..., examples/...,
                    .github/...) must exist relative to the repo root.
                    Trailing `:LINE` / `:LINE-LINE` references are stripped
                    before the check (so `src/exp/dispatch.cpp:120` is
                    checked as the file); `*` globs must match at least one
                    file.

Exit codes: 0 clean, 1 violations (or self-test failure), 2 usage error.

`--root` is the repo root (the directory holding src/ and docs/).
`--self-test` runs the linter against generated fixture trees — each rule
firing once plus a passing twin — and is wired as the `lint_docs_selftest`
ctest entry; `lint_docs` runs the real tree.
"""

import argparse
import glob
import os
import re
import sys
import tempfile

SOURCE_SUFFIXES = (".cpp", ".hpp", ".h", ".cc", ".cxx")
CONFIG_MD = os.path.join("docs", "CONFIG.md")

# Quoted env-var literal in C++ ("FEDHISYN_THREADS") vs bare macro token.
ENV_LITERAL = re.compile(r'"(FEDHISYN_[A-Z0-9_]+)"')
ENV_TOKEN = re.compile(r"\bFEDHISYN_[A-Z0-9_]+\b")

# A backtick-quoted token counts as a repo path when it starts with one of
# the checked-in top-level directories.  `build/...` is deliberately not
# checked: it only exists after configuring.
PATH_TOKEN = re.compile(
    r"^(?:src|tests|bench|tools|docs|examples|\.github)/[\w.\-/*]+$"
)
LINE_REF = re.compile(r":\d+(?:-\d+)?$")

# A shared flag declaration: `FlagDecl kName = "name=VALUE";` or
# `FlagDecl kNames[] = {"name", ...};`.  The flag's name ends at '='.
FLAG_DECL = re.compile(r'\bFlagDecl\s+\w+\s*(?:\[\s*\])?\s*=\s*(\{[^}]*\}|"[^"]*")')
FLAG_NAME = re.compile(r'"([^"=]+)(?:=[^"]*)?"')
FLAG_SECTION = "## Shared flags"
FLAG_ROW = re.compile(r"^\|\s*`--([a-z0-9-]+)")


def iter_files(root, suffixes):
    for directory, _, files in sorted(os.walk(root)):
        for name in sorted(files):
            if name.endswith(suffixes):
                yield os.path.join(directory, name)


def src_env_literals(root):
    """{env var: first 'path:line' using it} for quoted literals in src/."""
    found = {}
    src = os.path.join(root, "src")
    for path in iter_files(src, SOURCE_SUFFIXES):
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8", errors="replace") as handle:
            for number, line in enumerate(handle, start=1):
                for var in ENV_LITERAL.findall(line):
                    found.setdefault(var, f"{rel}:{number}")
    return found


def src_flag_decls(root):
    """{flag name: 'path:line' declaring it} for FlagDecl literals in src/."""
    found = {}
    for path in iter_files(os.path.join(root, "src"), SOURCE_SUFFIXES):
        rel = os.path.relpath(path, root)
        with open(path, encoding="utf-8", errors="replace") as handle:
            text = handle.read()
        for match in FLAG_DECL.finditer(text):
            number = text.count("\n", 0, match.start()) + 1
            for name in FLAG_NAME.findall(match.group(1)):
                found.setdefault(name, f"{rel}:{number}")
    return found


def config_flag_rows(config_text):
    """{flag name: line number} for the rows of the shared-flag table."""
    rows = {}
    in_section = False
    for number, line in enumerate(config_text.splitlines(), start=1):
        if line.startswith("## "):
            in_section = line.strip() == FLAG_SECTION
        elif in_section:
            match = FLAG_ROW.match(line)
            if match:
                rows.setdefault(match.group(1), number)
    return rows


def doc_files(root):
    docs = []
    readme = os.path.join(root, "README.md")
    if os.path.exists(readme):
        docs.append(readme)
    docs_dir = os.path.join(root, "docs")
    if os.path.isdir(docs_dir):
        docs.extend(iter_files(docs_dir, (".md",)))
    return docs


def doc_path_tokens(path):
    """Yields (line_number, token) for path-looking backtick tokens.

    Inline code spans and fenced code blocks are both scanned: paths are
    referenced from prose as `src/...` and from shell examples as bare
    arguments.
    """
    in_fence = False
    with open(path, encoding="utf-8", errors="replace") as handle:
        for number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if stripped.startswith("```"):
                in_fence = not in_fence
                continue
            if in_fence:
                spans = [line]
            else:
                spans = re.findall(r"`([^`]+)`", line)
            for span in spans:
                for token in span.split():
                    token = token.rstrip(".,;)")
                    if PATH_TOKEN.match(token):
                        yield number, token


def lint(root):
    """Returns a list of 'where: [rule] message' violation strings."""
    violations = []

    config_path = os.path.join(root, CONFIG_MD)
    config_text = ""
    if os.path.exists(config_path):
        with open(config_path, encoding="utf-8", errors="replace") as handle:
            config_text = handle.read()
    else:
        violations.append(f"{CONFIG_MD}: [env-undocumented] missing — every "
                          "FEDHISYN_* env var must be documented there")

    used = src_env_literals(root)
    documented = set(ENV_TOKEN.findall(config_text))
    if config_text:
        for var in sorted(set(used) - documented):
            violations.append(
                f"{used[var]}: [env-undocumented] {var} is read here but "
                f"absent from {CONFIG_MD}"
            )
    for var in sorted(documented - set(used)):
        violations.append(
            f"{CONFIG_MD}: [env-stale] {var} is documented but no quoted "
            '"FEDHISYN_..." literal in src/ reads it'
        )

    declared = src_flag_decls(root)
    rows = config_flag_rows(config_text)
    if config_text:
        for name in sorted(set(declared) - set(rows)):
            violations.append(
                f"{declared[name]}: [flag-undocumented] --{name} is declared "
                f"here but has no row under '{FLAG_SECTION}' in {CONFIG_MD}"
            )
    for name in sorted(set(rows) - set(declared)):
        violations.append(
            f"{CONFIG_MD}:{rows[name]}: [flag-stale] --{name} has a row but "
            "no FlagDecl in src/ declares it"
        )

    for doc in doc_files(root):
        rel_doc = os.path.relpath(doc, root)
        for number, token in doc_path_tokens(doc):
            target = LINE_REF.sub("", token)
            if "*" in target:
                if not glob.glob(os.path.join(root, target)):
                    violations.append(
                        f"{rel_doc}:{number}: [path-missing] glob '{token}' "
                        "matches nothing"
                    )
            elif not os.path.exists(os.path.join(root, target)):
                violations.append(
                    f"{rel_doc}:{number}: [path-missing] '{token}' does not "
                    "exist"
                )
    return violations


def run(root):
    violations = lint(root)
    for violation in violations:
        print(violation)
    if violations:
        print(f"lint_docs: {len(violations)} violation(s) in {root}")
        return 1
    print(f"lint_docs: clean ({root})")
    return 0


# ------------------------------------------------------------- self-test --


def write(root, rel, text):
    path = os.path.join(root, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def self_test():
    failures = []

    def expect(label, violations, *rule_fragments):
        """The violation list must contain exactly these rule fragments."""
        if len(violations) != len(rule_fragments):
            failures.append(f"{label}: expected {len(rule_fragments)} "
                            f"violation(s), got {violations}")
            return
        for fragment in rule_fragments:
            if not any(fragment in v for v in violations):
                failures.append(f"{label}: no violation matching {fragment!r} "
                                f"in {violations}")

    # Clean tree: documented env vars and flags, existing paths, line refs,
    # globs; a flag row outside the shared-flag section is not checked.
    with tempfile.TemporaryDirectory(prefix="lint_docs_") as root:
        write(root, "src/knobs.cpp",
              'const char* a = std::getenv("FEDHISYN_ALPHA");\n'
              '// FEDHISYN_CHECK(x) — unquoted macro tokens are not env vars\n'
              'constexpr FlagDecl kFlags[] = {"alpha=N",\n    "beta"};\n'
              'inline constexpr FlagDecl kGamma = "gamma=a,b";\n'
              'using FlagDecl = std::string_view;\n')
        write(root, "docs/CONFIG.md",
              "| `FEDHISYN_ALPHA` | does alpha things |\n"
              "## Shared flags\n| Flag | What |\n|---|---|\n"
              "| `--alpha N` | a |\n| `--beta` | b |\n| `--gamma a,b` | g |\n"
              "## Tool flags\n| `--local` | not a shared flag |\n")
        write(root, "docs/GUIDE.md",
              "See `src/knobs.cpp:1` and the sources under `src/*.cpp`.\n"
              "```sh\npython3 tools/lint.py --root .\n```\n")
        write(root, "tools/lint.py", "# present\n")
        write(root, "README.md", "Details in `docs/CONFIG.md`.\n")
        expect("clean tree", lint(root))

    # Each rule fires.
    with tempfile.TemporaryDirectory(prefix="lint_docs_") as root:
        write(root, "src/knobs.cpp",
              'std::getenv("FEDHISYN_ALPHA");\n'
              'std::getenv("FEDHISYN_UNDOCUMENTED");\n')
        write(root, "src/flags.cpp",
              'constexpr FlagDecl kFlags[] = {"alpha=N", "undeclared-row=N"};\n')
        write(root, "docs/CONFIG.md",
              "| `FEDHISYN_ALPHA` | fine |\n"
              "| `FEDHISYN_REMOVED` | knob deleted from src/ |\n"
              "## Shared flags\n| `--alpha N` | fine |\n"
              "| `--removed-flag` | flag deleted from src/ |\n")
        write(root, "docs/GUIDE.md",
              "Read `src/gone.cpp` and `bench/nothing_*.json`.\n")
        expect("each rule fires", lint(root),
               "[env-undocumented] FEDHISYN_UNDOCUMENTED",
               "[env-stale] FEDHISYN_REMOVED",
               "[flag-undocumented] --undeclared-row",
               "[flag-stale] --removed-flag",
               "[path-missing] 'src/gone.cpp'",
               "[path-missing] glob 'bench/nothing_*.json'")

    # A missing CONFIG.md is itself a violation (and suppresses the
    # per-variable noise), and plain prose mentioning src never fires.
    with tempfile.TemporaryDirectory(prefix="lint_docs_") as root:
        write(root, "src/knobs.cpp", 'std::getenv("FEDHISYN_ALPHA");\n')
        write(root, "README.md",
              "The sources live under src/ (no backticks, not checked).\n")
        expect("missing CONFIG.md", lint(root),
               "[env-undocumented] missing")

    if failures:
        for failure in failures:
            print(f"self-test FAIL: {failure}")
        return 1
    print("self-test OK: all 5 rules fire and clean fixtures stay clean")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root",
                        help="repo root (the directory holding src/ and docs/)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the fixture-based self-test and exit")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.root:
        parser.error("--root is required (or use --self-test)")
    if not os.path.isdir(os.path.join(args.root, "src")):
        parser.error(f"--root {args.root} has no src/ — not the repo root")
    return run(args.root)


if __name__ == "__main__":
    sys.exit(main())
