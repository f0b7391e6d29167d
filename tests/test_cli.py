import io
import json
import resource
import subprocess
import sys
import warnings
from collections import Counter
from itertools import count
from types import SimpleNamespace

import pytest

import lmss
from lmss import (AccessibilityFailure, InternalError, graph_families, greedoid_engine,
                  selftest, stable_core)
from lmss.cli import main
from conftest import CHECKOUT, fresh_python, lmss_command

FIG1_TEXT = """# family: fig1
# n: 6
p 6 6
v a
v b
v c
v d
v e
v f
e a b
e b c
e c d
e c e
e d f
e e f
"""

C4_REPORT_JSON = """{
  "family_size": 3,
  "accessibility_ok": false,
  "exchange_ok": true,
  "accessibility_violations": [
    [
      "1",
      "3"
    ],
    [
      "2",
      "4"
    ]
  ],
  "exchange_violations": []
}
"""


def run(capsys, monkeypatch, argv, stdin=""):
    # a text stream over bytes, with the ``.buffer`` a real pipe has
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin.encode()),
                                                       encoding="utf-8"))
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def fig1_file(tmp_path):
    p = tmp_path / "fig1.graph"
    p.write_text(FIG1_TEXT)
    return str(p)


@pytest.fixture
def c4_file(tmp_path, capsys, monkeypatch):
    code, out, _ = run(capsys, monkeypatch, ["gen", "--family", "cycle", "-n", "4"])
    assert code == 0
    p = tmp_path / "c4.graph"
    p.write_text(out)
    return str(p)


class TestCommands:
    def test_gen_fig1_golden(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["gen", "--family", "fig1"])
        assert code == 0 and out == FIG1_TEXT

    def test_alpha_json(self, capsys, monkeypatch, fig1_file):
        code, out, _ = run(capsys, monkeypatch,
                           ["alpha", fig1_file, "--format", "json"])
        assert code == 0
        assert json.loads(out) == {"alpha": 3, "method": "brute_force",
                                   "set": ["a", "c", "f"]}

    def test_alpha_from_stdin(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["alpha"], stdin=FIG1_TEXT)
        assert code == 0 and "alpha: 3" in out

    def test_file_with_byte_order_mark(self, capsys, monkeypatch, fig1_file, tmp_path):
        bom = tmp_path / "bom.graph"
        bom.write_bytes(b"\xef\xbb\xbf" + FIG1_TEXT.encode())
        plain = run(capsys, monkeypatch, ["alpha", fig1_file])
        assert run(capsys, monkeypatch, ["alpha", str(bom)]) == plain
        assert plain[0] == 0
        piped = run(capsys, monkeypatch, ["alpha"], stdin=FIG1_TEXT)
        assert run(capsys, monkeypatch, ["alpha"], stdin="\ufeff" + FIG1_TEXT) == piped

    def test_graph_file_is_closed(self, capsys, monkeypatch, fig1_file):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, _ = run(capsys, monkeypatch, ["alpha", fig1_file])
        assert code == 0
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_omega(self, capsys, monkeypatch, fig1_file):
        code, out, _ = run(capsys, monkeypatch,
                           ["omega", fig1_file, "--format", "json"])
        data = json.loads(out)
        assert data["alpha"] == 3 and data["count"] == 3
        assert ["a", "c", "f"] in data["sets"]

    def test_psi_enumerate_and_test(self, capsys, monkeypatch, fig1_file):
        code, out, _ = run(capsys, monkeypatch,
                           ["psi", fig1_file, "--format", "json"])
        assert code == 0 and json.loads(out)["count"] == 6
        code, out, _ = run(capsys, monkeypatch,
                           ["psi", fig1_file, "--set", "d,e", "--format", "json"])
        assert code == 0
        assert json.loads(out) == {"set": ["d", "e"], "is_local_max_stable": True}

    def test_matching_internal_cover(self, capsys, monkeypatch, tmp_path):
        code, out, _ = run(capsys, monkeypatch, ["gen", "--family", "path", "-n", "5"])
        p5 = tmp_path / "p5.graph"
        p5.write_text(out)
        code, out, _ = run(capsys, monkeypatch,
                           ["matching", str(p5), "--internal-cover", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["mu"] == 2 and data["internal_cover"] is True
        assert data["edges"] == [["a", "b"], ["c", "d"]]

    def test_ke_check(self, capsys, monkeypatch, tmp_path):
        _, out, _ = run(capsys, monkeypatch, ["gen", "--family", "path", "-n", "4"])
        p4 = tmp_path / "p4.graph"
        p4.write_text(out)
        code, out, _ = run(capsys, monkeypatch, ["ke-check", str(p4), "--format", "json"])
        assert code == 0
        assert json.loads(out) == {"alpha": 2, "mu": 2, "order": 4,
                                   "identity_holds": True,
                                   "has_perfect_matching": True}

    def test_embed(self, capsys, monkeypatch, tmp_path):
        _, out, _ = run(capsys, monkeypatch, ["gen", "--family", "path", "-n", "3"])
        p3 = tmp_path / "p3.graph"
        p3.write_text(out)
        code, out, _ = run(capsys, monkeypatch, ["embed", str(p3), "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["added_edges"] == [["c", "c_w"]]
        assert len(data["host"]["labels"]) == 4

    def test_chain(self, capsys, monkeypatch, fig1_file, tmp_path):
        _, out, _ = run(capsys, monkeypatch, ["gen", "--family", "path", "-n", "8"])
        p8 = tmp_path / "p8.graph"
        p8.write_text(out)
        code, out, _ = run(capsys, monkeypatch,
                           ["chain", str(p8), "--set", "a,c,e,h", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["strategy"] == "greedy_peel" and len(data["chain"]) == 4
        code, out, _ = run(capsys, monkeypatch,
                           ["chain", str(p8), "--set", "a,c,e,h",
                            "--strategy", "constructive", "--format", "json"])
        assert code == 0 and json.loads(out)["strategy"] == "constructive"

    def test_chain_accessibility_failure_exit_1(self, capsys, monkeypatch, fig1_file):
        code, out, _ = run(capsys, monkeypatch,
                           ["chain", fig1_file, "--set", "a,c,f", "--format", "json"])
        assert code == 1
        assert json.loads(out)["stuck_set"] == ["a", "c", "f"]

    def test_nt_extend(self, capsys, monkeypatch, fig1_file):
        code, out, _ = run(capsys, monkeypatch,
                           ["nt-extend", fig1_file, "--s1", "d,e", "--s2", "a,c,f",
                            "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["s3"] == ["a"] and data["result"] == ["a", "d", "e"]

    def test_exchange_found_and_absent(self, capsys, monkeypatch, tmp_path):
        _, out, _ = run(capsys, monkeypatch, ["gen", "--family", "path", "-n", "6"])
        p6 = tmp_path / "p6.graph"
        p6.write_text(out)
        code, out, _ = run(capsys, monkeypatch,
                           ["exchange", str(p6), "--s1", "f", "--s2", "a,c",
                            "--format", "json"])
        assert code == 0 and json.loads(out)["witness"] == "a"
        _, out, _ = run(capsys, monkeypatch, ["gen", "--family", "fig7", "-n", "6"])
        f7 = tmp_path / "fig7.graph"
        f7.write_text(out)
        code, out, _ = run(capsys, monkeypatch,
                           ["exchange", str(f7), "--s1", "a1", "--s2", "a4,a5",
                            "--format", "json"])
        assert code == 1 and json.loads(out)["witness"] is None

    def test_verify_greedoid_golden_and_exit(self, capsys, monkeypatch, c4_file):
        code, out, _ = run(capsys, monkeypatch,
                           ["verify-greedoid", c4_file, "--format", "json"])
        assert code == 1 and out == C4_REPORT_JSON

    def test_verify_greedoid_ok_on_tree(self, capsys, monkeypatch, tmp_path):
        _, out, _ = run(capsys, monkeypatch, ["gen", "--family", "random_tree",
                                              "-n", "10", "--seed", "3"])
        t = tmp_path / "t.graph"
        t.write_text(out)
        code, out, _ = run(capsys, monkeypatch, ["verify-greedoid", str(t)])
        assert code == 0 and "accessibility_ok: yes" in out

    def test_dot_output(self, capsys, monkeypatch, fig1_file):
        code, out, _ = run(capsys, monkeypatch,
                           ["alpha", fig1_file, "--format", "dot"])
        assert code == 0
        assert out.count("fillcolor=gray") == 3 and out.count("--") == 6

    def test_gen_seed_metadata(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch,
                           ["gen", "--family", "random_forest", "-n", "9",
                            "--seed", "11"])
        assert code == 0
        assert "# seed: 11" in out and "# prng: splitmix64" in out


class TestErrorPaths:
    def test_parse_error_exit_2(self, capsys, monkeypatch, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text("p 1 1\nv a\ne a a\n")
        code, _, err = run(capsys, monkeypatch, ["alpha", str(bad)])
        assert code == 2 and "error:" in err

    def test_unknown_label_in_set(self, capsys, monkeypatch, fig1_file):
        code, _, err = run(capsys, monkeypatch,
                           ["psi", fig1_file, "--set", "a,zz"])
        assert code == 2 and "zz" in err

    def test_matching_on_cycle_exit_2(self, capsys, monkeypatch, c4_file):
        code, _, err = run(capsys, monkeypatch, ["matching", c4_file])
        assert code == 2 and "acyclic" in err

    def test_cap_violation_exit_2(self, capsys, monkeypatch, tmp_path):
        _, out, _ = run(capsys, monkeypatch, ["gen", "--family", "path", "-n", "22"])
        p = tmp_path / "p22.graph"
        p.write_text(out)
        code, _, err = run(capsys, monkeypatch, ["psi", str(p)])
        assert code == 2 and "cap" in err
        code, _, _ = run(capsys, monkeypatch, ["psi", str(p), "--cap", "22"])
        assert code == 0

    def test_duplicate_edge_warning_on_stderr(self, capsys, monkeypatch, tmp_path):
        dup = tmp_path / "dup.graph"
        dup.write_text("p 2 2\nv a\nv b\ne a b\ne b a\n")
        code, _, err = run(capsys, monkeypatch, ["alpha", str(dup)])
        assert code == 0 and "duplicate edge" in err

    @pytest.mark.parametrize("name", ["missing.graph", "."])
    def test_unreadable_graph_file_exit_2(self, capsys, monkeypatch, tmp_path, name):
        # a missing file and a directory are input errors, not violations
        code, out, err = run(capsys, monkeypatch,
                             ["verify-greedoid", str(tmp_path / name)])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_outside_64_bits_exit_2(self, capsys, monkeypatch, seed):
        # either would draw another seed's tree (2^64 - 1's, 0's) under its own metadata
        code, out, err = run(capsys, monkeypatch,
                             ["gen", "--family", "random_tree", "-n", "9", "--seed", seed])
        assert (code, out) == (2, "")
        assert err == f"error: seed must lie in [0, 2^64), not {seed}\n"

    def test_bad_family_exit_2(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch, ["gen", "--family", "cycle", "-n", "3"])
        assert code == 2 and "cycle" in err
        # a fixed figure refuses any other order: exit 2, one error line
        code, _, err = run(capsys, monkeypatch, ["gen", "--family", "fig2", "-n", "8"])
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["selftest", "--cap", "3"],
        ["selftest", "--format", "json"],
        ["gen", "--family", "fig1", "--cap", "3"],
        # --cap where the handler never reads it
        *([cmd, "GRAPH", "--cap", "3"] for cmd in ("matching", "ke-check", "embed")),
        # dot where emit has no graph drawing for the record
        *([*cmd, "GRAPH", "--format", "dot"] for cmd in (
            ["omega"], ["psi"], ["matching"], ["ke-check"], ["embed"],
            ["chain", "--set", "a,c,f"], ["nt-extend", "--s1", "f", "--s2", "a,c,f"],
            ["exchange", "--s1", "f", "--s2", "a,c"], ["verify-greedoid"])),
        # refused at parse time, before the (missing) graph file is opened
        ["matching", "missing.graph", "--cap", "3"],
    ])
    def test_option_the_command_ignores_exit_2(self, capsys, fig1_file, argv):
        argv = [fig1_file if a == "GRAPH" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        if "dot" in argv:
            assert "argument --format: invalid choice: 'dot'" in err
        else:
            assert "unrecognized arguments" in err

    @pytest.mark.parametrize("cmd", ["matching", "ke-check", "embed"])
    def test_help_lists_only_the_options_read(self, capsys, cmd):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--cap" not in out and "dot" not in out and "{text,json}" in out


class TestSelftest:
    def test_failure_reported_under_its_criterion(self, capsys, monkeypatch):
        code, passing, _ = run(capsys, monkeypatch, ["selftest"])
        assert code == 0
        monkeypatch.setattr(greedoid_engine, "exchange_witness",
                            lambda g, s1, s2, **kw: greedoid_engine.ExchangeWitness(
                                s1, s2, None))
        code, out, _ = run(capsys, monkeypatch, ["selftest"])
        assert code == 1
        lines, passing = out.splitlines(), passing.splitlines()
        assert lines[5] == ("criterion 6 (exchange totality on forests): FAIL - "
                            "missing witness on a labeled tree with 2 vertices")
        # every other criterion is still run in full and reported unchanged
        assert len(lines) == 9
        assert lines[:5] + lines[6:] == passing[:5] + passing[6:]

    @pytest.mark.parametrize("name, criterion, error", [
        ("exchange_witness", 6, InternalError("exchange witness missing on a forest")),
        ("chain_decompose", 5, AccessibilityFailure({0, 2}))])
    def test_raised_failure_reported_under_its_criterion(self, capsys, monkeypatch,
                                                         name, criterion, error):
        _, passing, _ = run(capsys, monkeypatch, ["selftest"])
        real, calls = getattr(greedoid_engine, name), count(1)

        def raising_on_the_100th_call(*args, **kwargs):
            if next(calls) == 100:
                raise error
            return real(*args, **kwargs)

        monkeypatch.setattr(greedoid_engine, name, raising_on_the_100th_call)
        code, out, err = run(capsys, monkeypatch, ["selftest"])
        assert code == 1 and err == ""
        lines, passing = out.splitlines(), passing.splitlines()
        assert len(lines) == 9
        line = lines[criterion - 1]
        assert line.startswith(f"criterion {criterion} (")
        assert f": FAIL - {type(error).__name__} on a labeled tree with " in line
        assert line.endswith(f" vertices: {error}")
        # every other criterion is still run in full and reported unchanged
        assert lines[:criterion - 1] + lines[criterion:] == \
            passing[:criterion - 1] + passing[criterion:]

    @pytest.mark.parametrize("full, max_tree, forests, sizes, graphs, max_graph", [
        (True, 8, 1000, (range(9, 15), range(2, 21)), 500, 12),
        (False, 6, 100, (range(9, 13), range(2, 15)), 60, 10)], ids=["full", "quick"])
    def test_scale(self, full, max_tree, forests, sizes, graphs, max_graph):
        # the corpus sources record what they are asked for and give nothing
        trees, corpora, oracles, per_criterion = [], [], [], []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_families, "enumerate_labeled_trees",
                       lambda n: trees.append(n) or ())
            mp.setattr(selftest, "_forest_corpus",
                       lambda count, sizes, seed0: corpora.append((count, sizes)) or ())
            mp.setattr(stable_core, "SubsetOracle", lambda g, cap=None: oracles.append(
                g.vertex_count) or SimpleNamespace(psi_masks=list, omega_masks=list))
            for _ in selftest._criteria(full):
                per_criterion.append(oracles[:])
                oracles.clear()
        assert trees == list(range(2, max_tree + 1))
        # Cayley: n^(n-2) labeled trees on n vertices, 280 392 on 2..8 and 1 441 on 2..6
        assert sum(n ** (n - 2) for n in trees) == (280392 if full else 1441)
        assert corpora == [(forests, r) for r in sizes]  # criteria 1 and 7
        random_graphs = per_criterion[3]
        assert len(random_graphs) == graphs
        assert min(random_graphs) >= 4 and max(random_graphs) == max_graph


STARTUP = """
import contextlib, io, json, sys
import lmss.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = lmss.cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("lmss."))]))
"""

SUBMODULES = ("cli_io", "errors", "graph_core", "graph_families", "greedoid_engine",
              "perfect_embedding", "stable_core", "tree_matching")


class TestStartup:
    """A command loads only the modules it runs, and the package's names load
    on first use; each case runs in a new interpreter."""

    ENGINE = "greedoid_engine stable_core"

    @pytest.mark.parametrize("argv, added", [
        (["alpha", "GRAPH"], "stable_core"),
        (["psi", "GRAPH"], "stable_core"),
        (["psi", "GRAPH", "--set", "a,c"], "stable_core"),
        (["omega", "GRAPH"], "stable_core"),
        (["gen", "--family", "random_tree", "-n", "9", "--seed", "1"], "graph_families"),
        (["matching", "TREE"], "tree_matching"),
        (["ke-check", "TREE"], "tree_matching"),
        (["chain", "GRAPH", "--set", "a,d,e"], ENGINE),
        (["chain", "TREE", "--set", "a,d,e", "--strategy", "constructive"], ENGINE),
        (["exchange", "GRAPH", "--s1", "a", "--s2", "d,e"], ENGINE),
        (["nt-extend", "GRAPH", "--s1", "a", "--s2", "a,d,e"], ENGINE),
        (["verify-greedoid", "GRAPH"], ENGINE),
        (["embed", "TREE"], "perfect_embedding tree_matching"),
        (["embed", "TREE", "--pendant-only"], "perfect_embedding tree_matching"),
    ], ids=lambda x: " ".join(x) if isinstance(x, list) else "")
    def test_command_loads_only_what_it_runs(self, fig1_file, tmp_path, argv, added):
        tree = tmp_path / "tree.graph"  # a-b-c-d with e on c
        tree.write_text("p 5 4\nv a\nv b\nv c\nv d\nv e\ne a b\ne b c\ne c d\ne c e\n")
        argv = [{"GRAPH": fig1_file, "TREE": str(tree)}.get(a, a) for a in argv]
        code, loaded = fresh_python(STARTUP, *argv)
        assert code in (0, 1)
        # the CLI's own four modules, then exactly those the command runs
        assert loaded == sorted(f"lmss.{m}" for m in
                                ["cli", "cli_io", "errors", "graph_core", *added.split()])

    def test_every_public_name_resolves_to_its_home_object(self):
        names, homes, listed, loaded = fresh_python("""
import json, sys, lmss
listed = dir(lmss)  # before any name has loaded
loaded = sorted(m for m in sys.modules if m.startswith("lmss."))
homes = {}
for name in lmss.__all__:
    obj = getattr(lmss, name)
    home = "graph_core" if name == "VertexSet" else obj.__module__.removeprefix("lmss.")
    homes[name] = getattr(getattr(lmss, home), name) is obj and home
print(json.dumps([lmss.__all__, homes, listed, loaded]))
""")
        assert names == lmss.__all__ == sorted(lmss.__all__) and len(names) == 62
        assert all(homes.values()) and set(homes.values()) == set(SUBMODULES)
        # what an eager import listed: the names, the submodules and the dunders
        assert listed == sorted({*names, *SUBMODULES, "__all__", "__builtins__", "__cached__",
                                 "__doc__", "__file__", "__loader__", "__name__",
                                 "__package__", "__path__", "__spec__", "__version__"})
        assert loaded == []  # listing loads no submodule
        # here, with modules loaded, dir still lists every name and hides the hooks
        here = set(dir(lmss))
        assert {*names, *SUBMODULES} <= here and not {"__getattr__", "__dir__"} & here

    def test_star_import_binds_every_name(self):
        bound = fresh_python("""
import json
from lmss import *
import lmss
print(json.dumps([name for name in lmss.__all__ if globals()[name] is getattr(lmss, name)]))
""")
        assert bound == lmss.__all__

    def test_unknown_name_raises_attribute_error(self):
        message, loaded = fresh_python("""
import json, sys, lmss
try:
    lmss.no_such_name
except AttributeError as exc:
    print(json.dumps([str(exc), sorted(m for m in sys.modules if m.startswith("lmss."))]))
""")
        assert message == "module 'lmss' has no attribute 'no_such_name'"
        assert loaded == []
        with pytest.raises(AttributeError, match="no_such_name"):
            lmss.no_such_name


DEV_MODE = {"PYTHONDEVMODE": "1", "PYTHONWARNINGS": "error"}  # python -X dev -W error


def _under_1gb():  # ulimit -v 1000000: 1 000 000 KiB of address space, in the child only
    resource.setrlimit(resource.RLIMIT_AS, (1_024_000_000, 1_024_000_000))


class TestSubprocessContract:
    """The installed entry point behaves like the in-process API."""

    def _run(self, args, stdin=None, env_extra=None, timeout=120, **kwargs):
        """The console entry point on ``args``; bytes on stdin give bytes back."""
        cmd, env = lmss_command()
        if env_extra:
            env.update(env_extra)
        return subprocess.run([*cmd, *args], input=stdin, capture_output=True, env=env,
                              text=not isinstance(stdin, bytes), timeout=timeout, **kwargs)

    def test_pipe_gen_into_verify(self):
        gen = self._run(["gen", "--family", "fig7", "-n", "6"])
        assert gen.returncode == 0
        ver = self._run(["verify-greedoid", "-", "--format", "json"], stdin=gen.stdout)
        assert ver.returncode == 1
        data = json.loads(ver.stdout)
        assert [["a1"], ["a4", "a5"]] in data["exchange_violations"]

    @pytest.mark.parametrize("family", ["fig1", "fig2", "fig4_tree"])
    def test_fixed_figure_pipes_into_alpha_with_a_clean_stderr(self, family):
        gen = self._run(["gen", "--family", family])
        res = self._run(["alpha", "-"], stdin=gen.stdout)
        assert (gen.returncode, gen.stderr, res.returncode, res.stderr) == (0, "", 0, "")

    def test_byte_identical_across_hash_seeds(self):
        # different PYTHONHASHSEED processes, and one in dev mode with every
        # warning an error, must emit identical bytes on a clean stderr
        fig4 = self._run(["gen", "--family", "fig4_tree"]).stdout
        outs = []
        for env_extra in ({"PYTHONHASHSEED": "0"}, {"PYTHONHASHSEED": "424242"}, DEV_MODE):
            gen = self._run(["gen", "--family", "random_tree", "-n", "12",
                             "--seed", "99", "--format", "json"],
                            env_extra=env_extra)
            ver = self._run(["verify-greedoid", "-", "--format", "json"],
                            stdin=FIG1_TEXT, env_extra=env_extra)
            chain = self._run(["chain", "-", "--set", "a,b,c,d,e", "--strategy", "constructive"],
                              fig4, env_extra)
            selftest = self._run(["selftest"], env_extra=env_extra)
            outs.append([(r.returncode, r.stdout, r.stderr) for r in (gen, ver, chain, selftest)])
        assert outs[0] == outs[1] == outs[2]
        assert [(code, err) for code, _, err in outs[0]] == [(0, ""), (1, ""), (0, ""), (0, "")]

    @pytest.mark.parametrize("data, env_extra, code", [
        (b"\xef\xbb\xbf\xef\xbb\xbf" + FIG1_TEXT.encode(), None, 2),
        ("p 2 1\nv é\nv b\ne é b\n".encode(), {"PYTHONIOENCODING": "latin-1"}, 0),
        (b"\xef\xbb\xbf" + FIG1_TEXT.encode(), None, 0),
        (FIG1_TEXT.replace("\n", "\r\n").encode(), None, 0),
        (FIG1_TEXT.replace("\n", "\r").encode(), None, 0),
        (b"p 2 1\nv \xff\nv b\ne \xff b\n", None, 2)],
        ids=["double BOM", "latin-1 stdio", "one BOM", "CRLF", "lone CR", "0xff byte"])
    def test_file_and_stdin_answer_the_same_bytes_alike(self, tmp_path, data, env_extra, code):
        # parse_graph is the only decoder: a file and a pipe of the same
        # bytes give the same exit code, stdout and stderr
        p = tmp_path / "g.graph"
        p.write_bytes(data)
        by_file = self._run(["alpha", str(p), "--format", "json"], b"", env_extra)
        by_stdin = self._run(["alpha", "-", "--format", "json"], data, env_extra)
        assert by_file.returncode == by_stdin.returncode == code
        assert by_file.stdout == by_stdin.stdout
        assert by_file.stderr == by_stdin.stderr

    @pytest.mark.parametrize("label", ["€", "é"])
    def test_answers_are_utf8_bytes_whatever_the_locale(self, tmp_path, label):
        # a label the locale's codec cannot write, or writes as another byte,
        # leaves as UTF-8 with a clean stderr
        p = tmp_path / "g.graph"
        p.write_bytes(f"p 2 1\nv {label}\nv b\ne {label} b\n".encode())
        runs = {enc: self._run(["alpha", str(p), "--format", "json"], b"",
                               {"PYTHONIOENCODING": enc})
                for enc in ("utf-8", "latin-1", "ascii")}
        assert label.encode() in runs["utf-8"].stdout
        for res in runs.values():
            assert (res.returncode, res.stderr, res.stdout) == (0, b"", runs["utf-8"].stdout)

    @pytest.mark.parametrize("name", ["missing.graph", "."])
    def test_unreadable_graph_file_exit_2(self, tmp_path, name):
        res = self._run(["alpha", str(tmp_path / name)])
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
        assert "Traceback" not in res.stderr

    def test_every_help_runs_clean(self):
        for cmd in ("alpha", "omega", "psi", "matching", "ke-check", "embed", "chain",
                    "nt-extend", "exchange", "verify-greedoid", "gen", "selftest"):
            res = self._run([cmd, "--help"])
            assert (res.returncode, res.stderr) == (0, ""), cmd

    def test_selftest_quick(self):
        res = self._run(["selftest"])
        assert res.returncode == 0
        lines = [l for l in res.stdout.splitlines() if l.startswith("criterion")]
        assert len(lines) == 9 and all("PASS" in l for l in lines)

    def test_forest_commands_run_clean_in_dev_mode(self):
        forest = self._run(["gen", "--family", "random_forest", "-n", "2000", "--seed", "1"], b"")
        out = {}
        for cmd in ("alpha", "embed", "embed --pendant-only", "matching --internal-cover",
                    "ke-check"):
            res = self._run([*cmd.split(), "-", "--format", "json"], forest.stdout, DEV_MODE)
            out[cmd] = json.loads(res.stdout)
            # emit's own JSON writer gives json.dumps's bytes
            assert (res.returncode, res.stderr, res.stdout) == (0, b"", (json.dumps(
                out[cmd], indent=2, ensure_ascii=False) + "\n").encode()), cmd
        # the peel's flags give alpha's witness and ke-check's count alike
        assert out["alpha"]["alpha"] == out["ke-check"]["alpha"] == len(out["alpha"]["set"])

    @pytest.mark.parametrize("n, k, c, argv, env_extra, timeout, expect", [
        # a triangle, then 1 500 isolated vertices: alpha searches 1 500 levels
        # deep, and the membership check searches only the triangle
        (1503, 0, 3, ["alpha", "--cap", "2000"], DEV_MODE, 120, {"alpha": 1501}),
        (1503, 0, 3, ["psi", "--set", ",".join(f"x{i}" for i in [0, *range(3, 33)])], None,
         120, {"is_local_max_stable": True}),
        # 20 disjoint edges, then a 5-cycle: the search takes the lower end of
        # each edge without branching, so alpha answers at once
        (45, 20, 5, ["alpha", "--cap", "50"], None, 10, {"alpha": 22}),
        # the same graph at the default cap: nt-extend checks --s2 by its
        # membership, whose search covers only the 5-cycle the peel leaves
        (45, 20, 5, ["nt-extend", "--s1", "x0", "--s2",
                     ",".join(f"x{i}" for i in range(0, 43, 2))], None, 10, {"alpha": 22}),
        # 4 disjoint edges beside 12 isolated vertices, 3^4 * 2^12 members:
        # verified component by component, not by the whole-family scan
        (20, 4, 0, ["verify-greedoid"], None, 10, {"family_size": 331776}),
        # 10 disjoint edges on 20 vertices, 3^10 members: at the default cap the
        # graph with the most components of two or more vertices, so the most
        # passes of the per-component member filter
        (20, 10, 0, ["verify-greedoid"], None, 10,
         {"family_size": 59049, "accessibility_ok": True, "exchange_ok": True}),
        # no vertex at all: the empty set is the one maximum stable set, and ','
        # names it
        (0, 0, 0, ["nt-extend", "--s1", ",", "--s2", ","], None, 10,
         {"alpha": 0, "result": []})],
        ids=["triangle alpha", "triangle psi", "5-cycle alpha", "5-cycle nt-extend", "4 edges",
             "10 edges", "empty nt-extend"])
    def test_disjoint_edges_and_a_cycle(self, n, k, c, argv, env_extra, timeout, expect):
        # k disjoint edges, then a c-cycle, then isolated vertices up to n
        vs = [f"x{i}" for i in range(n)]
        es = [(2 * i, 2 * i + 1) for i in range(k)] + [(2 * k + i, 2 * k + (i + 1) % c)
                                                      for i in range(c)]
        text = "\n".join([f"p {n} {len(es)}", *(f"v {v}" for v in vs),
                          *(f"e {vs[a]} {vs[b]}" for a, b in es)]) + "\n"
        res = self._run([argv[0], "-", *argv[1:], "--format", "json"], text, env_extra, timeout)
        # exit code and stderr first, so a refused row shows why, not a JSON error
        assert (res.returncode, res.stderr) == (0, ""), (res.returncode, res.stderr)
        r = json.loads(res.stdout)
        assert {x: r[x] for x in expect} == expect, r

    def test_cycle_fails_accessibility_alike_beside_isolated_vertices(self):
        # C8 fails accessibility; beside two isolated vertices its part fails
        # first, and the whole-family scan lists the same two violations
        c8 = self._run(["gen", "--family", "cycle", "-n", "8"]).stdout
        c8x = c8.replace("p 8 8\n", "p 10 8\n").replace("v 8\n", "v 8\nv x\nv y\n")
        runs = [self._run(["verify-greedoid", "-", "--format", "json"], g) for g in (c8, c8x)]
        a, b = (json.loads(r.stdout)["accessibility_violations"] for r in runs)
        assert [r.returncode for r in runs] == [1, 1] and a == b and len(a) == 2, (a, b)

    def test_embeddings_at_100k_within_bounds(self):
        # a perfect embedding at n=100000 in under 1 GB of address space and 30 s
        # (about 1.7 s on one core): by Konig-Egervary the host has twice the
        # forest's alpha vertices, and one fresh vertex per added edge. Pendant-only
        # mode runs the internal-cover repair at scale: the same counts, and every
        # added edge starts at a vertex of degree at most 1
        gen = ["gen", "--family", "random_forest", "-n", "100000", "--seed", "1"]
        cmd, env = lmss_command()
        with subprocess.Popen([*cmd, *gen], stdout=subprocess.PIPE, env=env,
                              preexec_fn=_under_1gb) as piped:
            embed = subprocess.run([*cmd, "embed", "-", "--format", "json"], env=env,
                                   stdin=piped.stdout, capture_output=True, timeout=30,
                                   preexec_fn=_under_1gb)
        forest = self._run(gen).stdout
        pendant = self._run(["embed", "-", "--pendant-only", "--format", "json"], forest,
                            timeout=30, preexec_fn=_under_1gb)
        alpha = json.loads(self._run(["alpha", "-", "--format", "json"], forest).stdout)
        deg = Counter(w for line in forest.splitlines() if line.startswith("e ")
                      for w in line.split()[1:3])
        assert piped.returncode == embed.returncode == pendant.returncode == 0
        for e in map(json.loads, (embed.stdout, pendant.stdout)):
            n = len(e["host"]["labels"])
            assert n == 2 * alpha["alpha"] and len(e["added_edges"]) == n - 100000
        assert not [v for v, _ in e["added_edges"] if deg[v] > 1]  # e: the pendant-only one

    def test_constructive_chain_at_100k_within_bounds(self):
        # a constructive certificate at n=100000 in under 1 GB of address space
        # and 60 s (through the library: the CLI's chain output is quadratic by format)
        res = subprocess.run([sys.executable, CHECKOUT / "scripts" / "chain_scale.py", "100000"],
                             capture_output=True, env=lmss_command()[1], timeout=60,
                             preexec_fn=_under_1gb)
        assert res.returncode == 0, res.stderr
