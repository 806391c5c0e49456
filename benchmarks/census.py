"""Reachability census: which functions of ``src/`` does anything served,
commanded or measured actually call?

    python benchmarks/census.py [--check]

A ``sitecustomize`` directory goes first on ``PYTHONPATH``, so every Python
process the runs below start — spawned spine servers, pre-fork workers,
replay clients — installs a ``sys.setprofile`` / ``threading.setprofile``
hook that appends ``file:line`` the first time a function of ``src/`` is
called (one line-buffered append per function: a killed worker loses
nothing).  The runs: (i) the four spine workloads untraced and ``--traced``,
(ii) a smoke of every CLI command, (iii) the paper-fidelity scripts
``--quick``.  What ``ast`` finds in ``src/`` and no run called is printed
per file; with ``--check`` the exit code is 1 when such a function matches
no `` `path.py::Qual.name` `` pattern (``fnmatch``) in ``docs/reachability.md``,
or when a pattern there matches no ``def`` of ``src/`` (a stale entry).
"""

from __future__ import annotations

import ast
import fnmatch
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
LEDGER = ROOT / "docs" / "reachability.md"
#: The ledger's own description of its pattern syntax, not an entry.
SYNTAX_EXAMPLE = "path.py::Qual.name"

HOOK = '''
import os, sys, threading
_src, _seen = os.environ["CENSUS_SRC"], set()
_out = open(os.path.join(os.environ["CENSUS_OUT"], "%d.txt" % os.getpid()), "a", buffering=1)
def _hook(frame, event, arg):
    if event == "call" and frame.f_code not in _seen:
        code = frame.f_code
        _seen.add(code)
        if code.co_filename.startswith(_src):
            _out.write("%s:%d\\n" % (code.co_filename, code.co_firstlineno))
threading.setprofile(_hook)
sys.setprofile(_hook)
'''

_QUERY = 'SELECT ?w WHERE { ?t foaf:name "Tom Hanks"@en . ?t dbo:spouse ?w }'
_TYPO = 'SELECT ?p WHERE { ?p foaf:surname "Kennedys"@en }'
_GROUPED = ("SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s a dbo:Person . ?s dbo:birthPlace ?c "
            "OPTIONAL { ?c dbo:country ?k } } GROUP BY ?c ORDER BY DESC(?n) LIMIT 5")
#: (ii) every CLI command, with the options that select a different path.
CLI: List[List[str]] = [
    ["stats"], ["complete", "Kenn"], ["--tree-capacity", "20", "complete", "enned"],
    ["suggest", _TYPO], ["suggest", _QUERY.replace("spouse", "spuse")],
    ["query", _QUERY], ["query", _TYPO, "--explain", "--analyze"],
    *(["query", _GROUPED, "--format", fmt] for fmt in ("json", "csv", "tsv", "xml")),
    ["query", "SELECT * WHERE { ?s ?p ?o FILTER(strlen() > 2) }"],
    ["query", "SELECT ?n (STRLEN(?n) AS ?l) WHERE { ?s foaf:surname ?n } LIMIT 3"],
    ["explain", _GROUPED, "--analyze"], ["explain", _TYPO, "--probes"],
    ["table1"], ["study", "--participants", "2"],
    ["init", "--save", "{tmp}/c.sqlite"], ["cache-info", "{tmp}/c.sqlite"], ["cache-info", "{tmp}/none"],
    ["serve", "--port", "0", "--smoke"], ["serve", "--port", "0", "--sapphire", "--shards", "2", "--smoke"],
    ["serve", "--port", "0", "--sapphire", "--workers", "2", "--shards", "2", "--smoke"],
    ["replay", "--sessions", "4", "--emit-scripts", "{tmp}/scripts.json"],
    ["replay", "--sessions", "4", "--processes", "0", "--json", "{tmp}/replay.json"],
    ["replay", "--sessions", "4", "--processes", "2", "--workers", "2", "--shards", "2"],
]
#: (iii) Table 1, Figure 8, the three ablations, the QSM experiments.
PAPER = ["bench_table1", "bench_user_study", "bench_ablation_parameters", "bench_ablation_steiner",
         "bench_ablation_tree_fraction", "bench_qsm"]


def commands(tmp: str) -> Iterator[List[str]]:
    spine = [sys.executable, str(ROOT / "benchmarks" / "spine" / "run.py"), "--out", f"{tmp}/spine"]
    yield spine
    yield spine + ["--traced"]
    for argv in CLI:
        yield [sys.executable, "-m", "repro.cli", *(arg.replace("{tmp}", tmp) for arg in argv)]
    for name in PAPER:
        yield [sys.executable, str(ROOT / "benchmarks" / f"{name}.py"), "--quick"]


def reached() -> Set[Tuple[str, int]]:
    """Run everything under the hook; the ``(file, first line)`` pairs called."""
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        for sub in ("hook", "out"):
            os.mkdir(os.path.join(tmp, sub))
        Path(tmp, "hook", "sitecustomize.py").write_text(HOOK, encoding="utf-8")
        env = {**os.environ, "CENSUS_SRC": str(SRC), "CENSUS_OUT": f"{tmp}/out",
               "PYTHONPATH": os.pathsep.join([f"{tmp}/hook", str(ROOT / "src")])}
        for command in commands(tmp):
            done = subprocess.run(command, cwd=tmp, env=env, capture_output=True, text=True, check=False)
            print(f"  exit {done.returncode}  {' '.join(command[1:])[:100]}", file=sys.stderr)
        lines = {line for path in Path(tmp, "out").iterdir()
                 for line in path.read_text(encoding="utf-8").splitlines()}
    return {(name, int(number)) for name, _, number in (line.rpartition(":") for line in lines)}


def functions() -> Iterator[Tuple[str, int, str, int]]:
    """Every ``def`` of ``src/``: file, first line as a code object reports
    it (the first decorator's), qualified name, line count."""
    def walk(path: Path, node: ast.AST, prefix: str) -> Iterator[Tuple[str, int, str, int]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                yield str(path), first, prefix + child.name, child.end_lineno - first + 1
                yield from walk(path, child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                yield from walk(path, child, prefix + child.name + ".")
            else:
                yield from walk(path, child, prefix)
    for path in sorted(SRC.rglob("*.py")):
        yield from walk(path, ast.parse(path.read_text(encoding="utf-8")), "")


def main(argv: List[str]) -> int:
    called = reached()
    kept = re.findall(r"`([\w/]+\.py::[^`]+)`", LEDGER.read_text(encoding="utf-8")) if LEDGER.exists() else []
    kept = [pattern for pattern in kept if pattern != SYNTAX_EXAMPLE]
    total = 0
    per_file: Dict[str, List[Tuple[str, int]]] = {}
    unlisted: List[str] = []
    defined: List[str] = []
    for path, first, name, n_lines in functions():
        total += 1
        module = Path(path).relative_to(SRC).as_posix()
        defined.append(f"{module}::{name}")
        if (path, first) not in called:
            per_file.setdefault(module, []).append((name, n_lines))
            if not any(fnmatch.fnmatchcase(f"{module}::{name}", pattern) for pattern in kept):
                unlisted.append(f"{module}::{name}")
    stale = [pattern for pattern in kept if not any(fnmatch.fnmatchcase(name, pattern) for name in defined)]
    for name, missed in sorted(per_file.items(), key=lambda item: -sum(n for _, n in item[1])):
        print(f"{sum(n for _, n in missed):5d} lines  {name}: {', '.join(n for n, _ in missed)}")
    n_missed = sum(len(missed) for missed in per_file.values())
    print(f"{n_missed} of {total} functions / {sum(n for m in per_file.values() for _, n in m)} lines of "
          f"src/ reached by no run; {len(unlisted)} of them not in {LEDGER.relative_to(ROOT)}")
    for label in unlisted:
        print(f"  unlisted: {label}")
    for pattern in stale:
        print(f"  stale: {pattern} matches no def of src/")
    return 1 if "--check" in argv and (unlisted or stale) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
