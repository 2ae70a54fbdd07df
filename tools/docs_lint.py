#!/usr/bin/env python3
"""Docs lint: fail on broken relative links and stale program/source names.

Scans README.md, DESIGN.md and docs/*.md for markdown links and inline
reference targets. External links (http/https/mailto) are ignored - CI
must not flake on the outside world. A relative target is resolved
against the containing file's directory (anchors stripped) and must
exist.

Every `bench_<name>` token in those files and in .github/workflows/ci.yml
must name an existing bench/bench_<name>.cc, so a deleted bench program
cannot linger in a recipe or a CI step.

Every backticked source path in those docs (`src/cache/lanes.hh`,
`rm/global_opt.cc`: a path with a directory, ending in .hh or .cc) must
exist at the repo root or under src/, so a deleted source file cannot
linger in the docs.

Any offender is a hard failure; every one is listed.

Usage: python3 tools/docs_lint.py [repo_root]
"""

import pathlib
import re
import sys

# [text](target) - excluding images is unnecessary: their targets must
# exist too. Target ends at the first unescaped ')' (no nested parens in
# any of our docs).
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

EXTERNAL = ("http://", "https://", "mailto:")

BENCH_RE = re.compile(r"\bbench_[A-Za-z0-9_]+")

SOURCE_RE = re.compile(r"`([A-Za-z0-9_.-]+(?:/[A-Za-z0-9_.-]+)+\.(?:hh|cc))`")


def doc_files(root: pathlib.Path):
    for name in ("README.md", "DESIGN.md"):
        path = root / name
        if path.is_file():
            yield path
    yield from sorted((root / "docs").glob("*.md"))


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def check_bench_names(root: pathlib.Path, path: pathlib.Path):
    errors = []
    text = path.read_text(encoding="utf-8")
    for match in BENCH_RE.finditer(text):
        if not (root / "bench" / f"{match.group(0)}.cc").is_file():
            errors.append(f"{path}:{line_of(text, match.start())}: "
                          f"no bench program {match.group(0)}")
    return errors


def check_source_paths(root: pathlib.Path, path: pathlib.Path):
    errors = []
    text = path.read_text(encoding="utf-8")
    for match in SOURCE_RE.finditer(text):
        name = match.group(1)
        if not ((root / name).is_file() or (root / "src" / name).is_file()):
            errors.append(f"{path}:{line_of(text, match.start())}: "
                          f"no source file {name}")
    return errors


def check_links(path: pathlib.Path):
    errors = []
    text = path.read_text(encoding="utf-8")
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(EXTERNAL):
            continue
        target = target.split("#", 1)[0]
        if not target:  # pure in-page anchor
            continue
        resolved = (path.parent / target).resolve()
        if not resolved.exists():
            errors.append(f"{path}:{line_of(text, match.start())}: "
                          f"broken link -> {match.group(1)}")
    return errors


def main() -> int:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    errors = []
    checked = 0
    for path in doc_files(root):
        checked += 1
        errors.extend(check_links(path))
        errors.extend(check_bench_names(root, path))
        errors.extend(check_source_paths(root, path))
    workflow = root / ".github" / "workflows" / "ci.yml"
    if workflow.is_file():
        checked += 1
        errors.extend(check_bench_names(root, workflow))
    if errors:
        print("\n".join(errors), file=sys.stderr)
        print(f"docs lint: {len(errors)} offender(s)", file=sys.stderr)
        return 1
    print(f"docs lint: {checked} file(s), all relative links resolve and "
          "every bench program and source file named exists")
    return 0


if __name__ == "__main__":
    sys.exit(main())
