"""Every graph command's bytes, pinned.

``cli_golden.json`` holds stdout, stderr and the exit code of each case
below, in text and json, plus ``alpha`` in dot. To regenerate it after a
deliberate output change, run

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff: a change here is a change to the CLI's contract.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from lmss.cli import main
from lmss.cli_io import emit
from lmss.graph_families import FamilySpec, generate

GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"

GRAPHS = {"fig1": FamilySpec("fig1"), "fig4": FamilySpec("fig4_tree"),
          "c4": FamilySpec("cycle", 4), "p6": FamilySpec("path", 6),
          "fig7": FamilySpec("fig7", 6), "star5": FamilySpec("star", 5)}

_ALL = ("fig1", "fig4", "c4", "p6", "fig7")
_FORESTS = ("fig4", "p6", "star5")  # star5 leaves three leaves exposed, p6 none

# (command, graph, extra arguments); every case runs in text and json
_COMMANDS = (
    [("alpha", g, []) for g in _ALL]
    + [("omega", g, []) for g in _ALL]
    + [("psi", g, []) for g in _ALL]
    + [("psi", "fig1", ["--set", "d,e"]), ("psi", "fig1", ["--set", "b,d"]),
       ("psi", "c4", ["--set", "1,3"])]
    + [("matching", g, extra) for g in _FORESTS for extra in ([], ["--internal-cover"])]
    + [("ke-check", g, []) for g in _FORESTS]
    + [("embed", g, extra) for g in _FORESTS for extra in ([], ["--pendant-only"])]
    + [("chain", "fig4", ["--set", "a,b,c,d,e", "--strategy", s])
       for s in ("greedy", "greedy_peel", "constructive")]
    + [("chain", "p6", ["--set", "a,c,f"]),
       ("chain", "fig1", ["--set", "a,c,f"])]  # stuck: exit 1
    + [("nt-extend", "fig1", ["--s1", "d,e", "--s2", "a,c,f"]),
       ("nt-extend", "p6", ["--s1", "f", "--s2", "a,c,e"]),
       ("nt-extend", "c4", ["--s1", "", "--s2", "2,4"])]
    + [("exchange", "p6", ["--s1", "f", "--s2", "a,c"]),
       ("exchange", "fig7", ["--s1", "a1", "--s2", "a4,a5"])]  # no witness: exit 1
    + [("verify-greedoid", g, []) for g in _ALL]
    # input errors: exit 2 with one error line
    + [("matching", "c4", []), ("matching", "c4", ["--internal-cover"]),
       ("ke-check", "c4", []), ("embed", "c4", []), ("embed", "c4", ["--pendant-only"]),
       ("psi", "fig1", ["--set", "a,zz"]),
       ("chain", "p6", ["--set", "a,b"]),
       ("chain", "c4", ["--set", "1,3", "--strategy", "constructive"])]
)

CASES = [[cmd, graph, *extra, "--format", fmt]
         for cmd, graph, extra in _COMMANDS for fmt in ("text", "json")]
CASES += [["alpha", g, "--format", "dot"] for g in _ALL]


def _case_id(argv) -> str:
    return " ".join(argv)


def _run(argv, graph_dir: Path) -> dict:
    """Run ``lmss`` in process on ``argv``, whose second word names a graph
    of GRAPHS written under ``graph_dir``."""
    real = [argv[0], str(graph_dir / f"{argv[1]}.graph"), *argv[2:]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(real)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _write_graphs(graph_dir: Path) -> None:
    for name, spec in GRAPHS.items():
        (graph_dir / f"{name}.graph").write_text(emit(generate(spec), "text"),
                                                 encoding="utf-8")


@pytest.fixture(scope="module")
def graph_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("graphs")
    _write_graphs(d)
    return d


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_case_id(a) for a in CASES)


@pytest.mark.parametrize("argv", CASES, ids=_case_id)
def test_cli_bytes_match_golden(argv, graph_dir, golden):
    assert _run(argv, graph_dir) == golden[_case_id(argv)]


if __name__ == "__main__":  # regenerate the golden file
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _write_graphs(Path(tmp))
        records = {_case_id(a): _run(a, Path(tmp)) for a in CASES}
    GOLDEN.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(records)} cases to {GOLDEN}", file=sys.stderr)
