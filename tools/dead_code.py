"""Reach census: the ``src/repro`` definitions no production entry point runs.

Runs the entry points below in this one process under a ``sys.setprofile``
recorder and prints every top-level function or method of ``src/repro``
that none of them ever called, unless ``tools/dead_code_keep.txt`` lists
it with a reason.  A keep-list line that names a definition which no
longer exists, or which is now reached, is printed too, so the list
cannot rot.  Prints nothing (exit 0) when the census is clean, exits 1
when it prints, and exits 2 naming any entry point that failed::

    python tools/dead_code.py            # or: make dead-code

The entry points, all ``--jobs 1`` and in-process, their output discarded:

* ``repro run-all --no-cache --scale 0.1 --streams 2`` (every experiment),
  every ``repro`` command of the Makefile and ``.github/workflows/ci.yml``,
  and each remaining subcommand once (:data:`COMMANDS` lists them all);
* ``bench measure`` (untraced) on every ``BENCHMARK.json`` workload at
  ``--size 0.1``, and the bench micro drivers its traced mode adds;
* every ``examples/*.py``.

Tests do not count.  Functions nested in other functions are not listed
(their parent is); neither are interface stubs whose body is only a
docstring, ``...``, ``pass`` or ``raise NotImplementedError``.  Traced,
the whole census takes one to a few minutes.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
KEEP_FILE = Path(__file__).resolve().parent / "dead_code_keep.txt"

#: ``{out}`` is replaced by a scratch file, ``{cache}`` by a scratch cache
#: directory.  The two cached ``run-all`` calls are runall-smoke's cache check.
COMMANDS: Tuple[Tuple[str, ...], ...] = (
    ("run-all", "--no-cache", "--scale", "0.1", "--streams", "2"),
    # Makefile: policy-smoke, agg-smoke, cluster-smoke, striped-smoke,
    # runall-smoke, serve-quick, serve-soak
    ("sweep", "e2", "--param", "sharing_policy",
     "--values", "grouping-throttling,cooperative,pbm",
     "--scale", "0.1", "--streams", "2", "--jobs", "1", "--no-cache",
     "--out", "{out}"),
    ("sweep", "ag-mix", "--param", "sharing_policy",
     "--values", "grouping-throttling,cooperative,pbm",
     "--scale", "0.1", "--streams", "2", "--jobs", "1", "--no-cache",
     "--out", "{out}"),
    ("cluster-sim", "steady,skew", "--scale", "0.1", "--replicas", "2",
     "--jobs", "1", "--no-cache", "--out", "{out}"),
    ("sweep", "st-push", "--param", "device_count", "--values", "1,2",
     "--scale", "0.1", "--streams", "2", "--jobs", "1", "--no-cache",
     "--out", "{out}"),
    ("run-all", "--only", "e1,e4", "--scale", "0.1", "--streams", "2",
     "--jobs", "1", "--no-cache", "--out", "{out}"),
    ("run-all", "--only", "e1,e4", "--scale", "0.1", "--streams", "2",
     "--cache-dir", "{cache}"),
    ("run-all", "--only", "e1,e4", "--scale", "0.1", "--streams", "2",
     "--cache-dir", "{cache}"),
    ("serve-sim", "steady", "--scale", "0.1", "--no-cache",
     "--assert-bounded"),
    ("serve-sim", "soak", "--scale", "0.1", "--no-cache", "--assert-bounded",
     "--faults", "pool-pressure:fraction=0.6,from=1.0,until=3.0"),
    # Makefile: chaos-smoke
    ("chaos", "e2", "--scale", "0.1", "--streams", "2",
     "--sharing-policy", "grouping-throttling"),
    ("chaos", "e2", "--scale", "0.1", "--streams", "2",
     "--sharing-policy", "cooperative"),
    ("chaos", "e2", "--scale", "0.1", "--streams", "2",
     "--sharing-policy", "pbm"),
    ("chaos", "st-push", "--scale", "0.1", "--streams", "3",
     "--device-count", "2", "--push", "--sharing-policy", "cooperative"),
    ("chaos", "ag-mix", "--scale", "0.1", "--streams", "2",
     "--faults", "pool-pressure:fraction=0.6,from=0.0"),
    # ci.yml: the join and multi-device chaos steps
    ("chaos", "mj-join", "--scale", "0.1", "--streams", "2",
     "--faults", "pool-pressure:fraction=0.5,from=0.05,until=0.3"),
    ("chaos", "st-push", "--scale", "0.1", "--streams", "3",
     "--device-count", "2", "--push", "--faults",
     "disk-delay:factor=4.0,device=1;disk-error:rate=0.1,device=0;leader-abort"),
    # the subcommands neither file runs, once each (``run`` with the
    # ``--sharing`` example from its help text)
    ("list",),
    ("run", "e2", "--scale", "0.1", "--streams", "2",
     "--sharing", "distance_threshold_extents=4"),
    ("trace", "e2", "--scale", "0.1", "--streams", "2", "--out", "{out}"),
    ("serve-sim", "--list"),
    ("cluster-sim", "--list"),
)

BENCH_SIZE = 0.1
BENCH_SEED = 11


class Definition:
    """One ``def`` of the package: where it is and how long it is."""

    __slots__ = ("qualname", "path", "first_line", "def_line", "lines")

    def __init__(self, qualname: str, path: str, node: ast.AST):
        self.qualname = qualname
        self.path = path
        self.def_line = node.lineno
        # A code object's first line is its first decorator's.
        self.first_line = min(
            [node.lineno] + [d.lineno for d in node.decorator_list])
        self.lines = node.end_lineno - self.first_line + 1


def _is_stub(node: ast.AST) -> bool:
    body = list(node.body)
    if body and isinstance(body[0], ast.Expr) and isinstance(
            body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
        body = body[1:]
    if not body:
        return True
    if len(body) != 1:
        return False
    stmt = body[0]
    if isinstance(stmt, ast.Pass):
        return True
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) \
            and stmt.value.value is Ellipsis:
        return True
    if isinstance(stmt, ast.Raise) and stmt.exc is not None:
        exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    return False


def definitions() -> List[Definition]:
    """Every module-level function and (nested-)class method of the package."""
    found: List[Definition] = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        tree = ast.parse(path.read_text(), filename=str(path))

        def walk(body: list, prefix: str) -> None:
            for node in body:
                if isinstance(node, ast.ClassDef):
                    walk(node.body, f"{prefix}{node.name}.")
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not _is_stub(node):
                        found.append(Definition(
                            f"{module}.{prefix}{node.name}", str(path), node))

        walk(tree.body, "")
    return found


def load_keep_list() -> Dict[str, str]:
    """``qualified.name  reason`` lines; ``#`` starts a comment."""
    keep: Dict[str, str] = {}
    for raw in KEEP_FILE.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            name, _, reason = line.partition(" ")
            if not reason.strip():
                raise SystemExit(f"{KEEP_FILE.name}: {name} has no reason")
            keep[name] = reason.strip()
    return keep


@contextlib.contextmanager
def recording(seen: Set[Tuple[str, int]]) -> Iterator[None]:
    """Record ``(file, first line)`` of every Python frame entered."""
    prefix = str(PACKAGE)
    codes: Set[object] = set()
    add = codes.add

    def profiler(frame, event, _arg):
        if event == "call":
            add(frame.f_code)

    sys.setprofile(profiler)
    try:
        yield
    finally:
        sys.setprofile(None)
        for code in codes:
            filename = os.path.realpath(code.co_filename)
            if filename.startswith(prefix):
                seen.add((filename, code.co_firstlineno))


def _run_entry_points(scratch: Path) -> List[str]:
    """Drive every entry point; returns the ones that failed."""
    from repro.cli import main as repro_main
    from bench import harness, layers

    failures: List[str] = []

    def attempt(label: str, call) -> None:
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                status = call()
        except SystemExit as exc:
            status = exc.code
        except Exception as exc:  # noqa: BLE001 - reported, census continues
            status = f"{type(exc).__name__}: {exc}"
        if status not in (0, None):
            failures.append(f"{label}: {status}")

    cache = scratch / "cache"
    for index, command in enumerate(COMMANDS):
        argv = [token.format(out=scratch / f"out{index}", cache=cache)
                for token in command]
        attempt("repro " + " ".join(command), lambda argv=argv: repro_main(argv))

    workloads = [w["name"] for w in harness.load_contract()["workloads"]]
    for workload in workloads:
        attempt(
            f"bench measure --workload {workload}",
            lambda w=workload: harness.measure(
                w, BENCH_SEED, 0.0, False, size=BENCH_SIZE, out_dir=scratch
            ) and None,
        )
    attempt("bench micro drivers", lambda: layers.micros(repeats=1) and None)

    for example in sorted((ROOT / "examples").glob("*.py")):
        attempt(f"examples/{example.name}",
                lambda e=example: runpy.run_path(str(e), run_name="__main__")
                and None)
    return failures


def census() -> Tuple[List[Definition], List[Definition], List[str]]:
    """``(all definitions, unreached ones, failed entry points)``."""
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    seen: Set[Tuple[str, int]] = set()
    with tempfile.TemporaryDirectory(prefix="dead-code-") as scratch:
        with recording(seen):
            failures = _run_entry_points(Path(scratch))
    defs = definitions()
    unreached = [d for d in defs if (d.path, d.first_line) not in seen]
    return defs, unreached, failures


def main() -> int:
    keep = load_keep_list()
    defs, unreached, failures = census()
    if failures:
        for failure in failures:
            print(f"entry point failed: {failure}", file=sys.stderr)
        return 2
    names = {d.qualname for d in defs}
    unreached_names = {d.qualname for d in unreached}
    report = [f"{d.qualname}  ({os.path.relpath(d.path, ROOT)}:{d.def_line}, "
              f"{d.lines} lines)"
              for d in unreached if d.qualname not in keep]
    report += [f"{name}  keep-list entry names no definition"
               for name in sorted(keep) if name not in names]
    report += [f"{name}  keep-list entry is reached"
               for name in sorted(keep)
               if name in names and name not in unreached_names]
    for line in report:
        print(line)
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main())
