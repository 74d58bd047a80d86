#!/usr/bin/env python3
"""Doc lint: the docs tree must keep up with the code.

Four checks, each of which fails the build on a violation:

1. **Env-knob coverage** — every ``JK_*`` environment variable
   mentioned anywhere under ``src/`` must appear in at least one
   ``docs/*.md`` (the consolidated table lives in ``docs/env-knobs.md``).
2. **Public-API coverage** — every name in ``repro.core.__all__`` and
   ``repro.fleet.__all__`` must appear in at least one ``docs/*.md``
   (the coverage anchor is the API-surface listing in
   ``docs/index.md``).
3. **Link resolution** — every relative markdown link inside ``docs/``
   (and the README's links into ``docs/``) must point at a file that
   exists.
4. **Repository paths** — every back-ticked repository path in the
   README, ``docs/*.md`` and the verify skill must exist: a deleted
   module or script cannot go on being documented.  Names a run
   *produces* (``result.json``, ``.jkbench_out/…``) are not paths of
   the repository.  ``benchmarks/jkbench/README.md`` is the benchmark's
   own file and is not scanned.

Run:  PYTHONPATH=src python tools/doclint.py
"""

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
DOCS = REPO / "docs"

KNOB_RE = re.compile(r"JK_[A-Z][A-Z_]*")
# [text](target) — but not images and not in fenced code (good enough:
# fenced blocks in these docs never contain markdown links).
LINK_RE = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
# A back-ticked token made of path characters only: `<pid>`, `{a,b}`,
# `x:y` and anything with a space are prose or patterns, not paths, and
# a leading `/` is an absolute or URL path, not one of ours.
PATH_TOKEN_RE = re.compile(r"`([A-Za-z0-9_.*][A-Za-z0-9_.*/-]*)`")
PATH_EXTENSIONS = (".py", ".md", ".json", ".jsonl", ".yml", ".txt")
#: What running the tests and the benchmark leaves behind.
RUN_OUTPUT_NAMES = {"result.json", "BENCH_history.jsonl"}
RUN_OUTPUT_DIRS = (".jkbench_out/", ".jkbench_tmp/", ".bench_build/",
                   ".benchmarks/")
VERIFY_SKILL = Path(".claude") / "skills" / "verify" / "SKILL.md"


def _knobs_in_source():
    knobs = set()
    for path in SRC.rglob("*.py"):
        for match in KNOB_RE.findall(path.read_text(encoding="utf-8")):
            knobs.add(match.rstrip("_"))
    return knobs


def _public_exports():
    """The ``__all__`` lists, read syntactically — the lint must not
    depend on the package importing cleanly in the lint environment."""
    exports = {}
    for package in ("core", "fleet"):
        init = SRC / "repro" / package / "__init__.py"
        tree = ast.parse(init.read_text(encoding="utf-8"))
        names = None
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in node.targets)):
                names = [ast.literal_eval(elt) for elt in node.value.elts]
        if names is None:
            raise SystemExit(f"doclint: no __all__ literal in {init}")
        exports[f"repro.{package}"] = names
    return exports


def _docs_corpus():
    pages = {}
    for path in sorted(DOCS.glob("*.md")):
        pages[path] = path.read_text(encoding="utf-8")
    readme = REPO / "README.md"
    pages[readme] = readme.read_text(encoding="utf-8")
    return pages


def _path_pages(pages):
    """The pages rule 4 scans: the docs corpus plus the verify skill."""
    scanned = dict(pages)
    skill = REPO / VERIFY_SKILL
    if skill.exists():
        scanned[skill] = skill.read_text(encoding="utf-8")
    return scanned


def _dangling_paths(text):
    """Back-ticked tokens of ``text`` that claim to be repository paths
    and match no file.

    A token with a ``/`` is a claim when it starts at a directory the
    repository has (``repro/…`` and ``ipc/…`` are read under ``src/``
    and ``src/repro/``) or ends in a source or document extension —
    ``jk/Kernel`` and ``try/finally`` are neither.  A bare name is a
    claim only as a root document, upper-case first (``ROADMAP.md``):
    a bare ``lrmi.py`` does not say where it lives.  ``*`` globs.
    """
    roots = (REPO, SRC, SRC / "repro")
    dangling = []
    for token in dict.fromkeys(PATH_TOKEN_RE.findall(text)):
        path = token.rstrip("/")
        if (path.rsplit("/", 1)[-1] in RUN_OUTPUT_NAMES
                or token.startswith(RUN_OUTPUT_DIRS)):
            continue
        if "/" in path:
            head = path.split("/", 1)[0]
            claim = (path.endswith(PATH_EXTENSIONS)
                     or any((root / head).is_dir() for root in roots))
        else:
            claim = path.endswith(PATH_EXTENSIONS) and path[0].isupper()
        if claim and not any(any(root.glob(path)) for root in roots):
            dangling.append(token)
    return dangling


def _word_pattern(name):
    return re.compile(rf"(?<![A-Za-z0-9_]){re.escape(name)}(?![A-Za-z0-9_])")


def main():
    problems = []
    pages = _docs_corpus()
    corpus = "\n".join(pages.values())

    for knob in sorted(_knobs_in_source()):
        if knob not in corpus:
            problems.append(
                f"undocumented env knob: {knob} (add it to "
                f"docs/env-knobs.md)"
            )

    for module, names in _public_exports().items():
        for name in sorted(names):
            if not _word_pattern(name).search(corpus):
                problems.append(
                    f"undocumented public export: {module}.{name} "
                    f"(add it to the API surface in docs/index.md)"
                )

    for path, text in pages.items():
        for target in LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            resolved = (path.parent / target.split("#", 1)[0]).resolve()
            if not resolved.exists():
                problems.append(
                    f"dangling link in {path.relative_to(REPO)}: "
                    f"({target})"
                )

    for path, text in _path_pages(pages).items():
        for token in _dangling_paths(text):
            problems.append(
                f"dangling path in {path.relative_to(REPO)}: `{token}` "
                f"names no file in the repository"
            )

    if problems:
        print(f"doclint: {len(problems)} problem(s)")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    knob_count = len(_knobs_in_source())
    export_count = sum(len(v) for v in _public_exports().values())
    print(f"doclint: ok ({knob_count} knobs, {export_count} exports, "
          f"{len(pages)} pages)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
