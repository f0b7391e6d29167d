"""Smoke tests of the benchmark itself, at one round per workload.

    python -m pytest perfbench/tests -q

from the root of a checkout. They take about 90 s: every workload
runs three times as a subprocess (untraced under two hash seeds, traced
under a third), and each answer checker is fed a deliberately wrong answer.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import lmss  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, hash_seed, cwd=ROOT, seed=7):
    """One run of the benchmark at one round: (exit code, stdout lines)."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.01", "--trace", str(trace)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170, check=False)
    return proc.returncode, proc.stdout.splitlines()


def digest(lines) -> str:
    (line,) = [x for x in lines if x.startswith("outputs sha256 = ")]
    return line.split(" = ")[1]


@pytest.fixture(scope="module", params=NAMES)
def runs(request):
    """The three smoke runs of one workload."""
    name = request.param
    return name, [bench(name, trace, hash_seed)
                  for trace, hash_seed in ((0, 0), (0, 1), (1, 2))]


def test_runs_report_the_declared_metrics_and_agree(runs):
    name, results = runs
    declared = {0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
                1: {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
    for trace, (code, lines) in zip((0, 0, 1), results):
        assert code == 0, "\n".join(lines)
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        got = {k: m["unit"] for k, m in result["metrics"].items()}
        assert got == declared[trace], f"{name} --trace {trace}"
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    # the same seed gives the same outputs, whatever the hash seed and
    # whether or not the calls are traced
    assert len({digest(lines) for _, lines in results}) == 1
    assert (ROOT / ".bench_out" / f"trace-{name}.bin").is_file()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    code, lines = bench("tree_sweep", 0, 0, cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_seed_changes_the_inputs():
    wl = W.TreeSweep()
    api = W.Api()
    corpus = wl.setup(1, api, None)
    assert wl.make_round(corpus, 1, 0, api) == wl.make_round(corpus, 1, 0, api)
    assert wl.make_round(corpus, 1, 0, api) != wl.make_round(corpus, 2, 0, api)
    assert wl.make_round(corpus, 1, 0, api) != wl.make_round(corpus, 1, 1, api)


# -- each checker accepts a right answer and rejects a wrong one --------------


def checked(wl, inp, res) -> W.Tally:
    tally = W.Tally()
    wl.check(inp, res, tally)
    return tally


def assert_rejects(wl, inp, res, wrong):
    assert checked(wl, inp, res).failed == 0
    assert checked(wl, inp, wrong).failed > 0


def small_forest(n=40, seed=3):
    return lmss.generate(lmss.FamilySpec("random_forest", n=n, seed=seed, delete_prob=0.15))


def test_tree_sweep_checker_rejects_a_wrong_witness():
    wl = W.TreeSweep()
    api = W.Api()
    inp = wl.make_round(wl.setup(1, api, None), 1, 0, api)[0]
    res = wl.run(api, inp)
    witnesses = res[6]
    assert witnesses
    wrong = list(res)
    wrong[6] = [witnesses[0]._replace(witness=None)] + witnesses[1:]
    assert_rejects(wl, inp, res, tuple(wrong))


def test_big_forest_checker_rejects_a_smaller_stable_set():
    wl = W.BigForest()
    api = W.Api()
    g = small_forest()
    res = wl.run(api, g)
    a = res[1]
    smaller = dataclasses.replace(a, set=a.set - {min(a.set)}, size=a.size - 1)
    assert_rejects(wl, g, res, (res[0], smaller, *res[2:]))


def test_oracle_lattice_checker_rejects_a_flipped_verdict():
    wl = W.OracleLattice()
    api = W.Api()
    inp = wl.make_round(wl.setup(1, api, None), 1, 0, api)[0]
    res = wl.run(api, inp)
    verdicts = res[-1]
    assert_rejects(wl, inp, res, (*res[:-1], [not verdicts[0], *verdicts[1:]]))


def test_cli_mix_checker_rejects_changed_stdout(tmp_path):
    wl = W.CliMix()
    api = W.Api()
    state = wl.setup(1, api, str(tmp_path))
    argv = ["psi", state["fixed"]["fig1"][0], "--format", "json"]
    proc, in_process = wl.run(api, argv)
    wrong = subprocess.CompletedProcess(proc.args, proc.returncode, proc.stdout + b" ", b"")
    assert_rejects(wl, argv, (proc, in_process), (wrong, in_process))


def test_cli_stdout_equals_emit_of_the_library_result(tmp_path):
    """Every command of a cli_mix round, through lmss.cli.main in-process,
    prints what emit() prints for the library result."""
    wl = W.CliMix()
    api = W.Api()
    state = wl.setup(1, api, str(tmp_path))
    cmds = wl.make_round(state, 1, 0, api)
    assert {argv[0] for argv in cmds} == {
        "alpha", "embed", "matching", "ke-check", "psi", "omega", "verify-greedoid",
        "chain", "exchange", "nt-extend", "gen"}
    for argv in cmds:
        assert W.run_cli_main(argv) == W.expected_cli(argv), argv
