"""The summary of tools/bench_pairs.py on fixed numbers."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "call_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def _runs(p90: list[float], rate: list[float], failed: int = 0) -> list[dict]:
    return [
        {
            "correct": True,
            "attempted": 100,
            "failed": failed,
            "metrics": {"call_p90_ms": {"value": a, "unit": "ms"}, "rate": {"value": b, "unit": "1/s"}},
        }
        for a, b in zip(p90, rate)
    ]


def test_summary_of_ten_pairs():
    runs = {
        "parent": _runs([0.30, 0.32, 0.31, 0.35, 0.29, 0.33, 0.30, 0.34, 0.31, 0.36], [5] * 10, failed=1),
        "change": _runs([0.20, 0.21, 0.19, 0.22, 0.29, 0.20, 0.21, 0.23, 0.20, 0.22], [5, 6, 6, 4, 6, 6, 6, 6, 6, 6]),
    }
    summary = bench_pairs.summarize(runs, END_TO_END)
    assert summary["pairs"] == 10 and summary["correct"]
    assert summary["failed"] == {"parent": 10, "change": 0}  # one failed operation per parent run
    p90 = summary["metrics"]["call_p90_ms"]
    # inclusive quartiles of the sorted parent values 0.29 .. 0.36
    assert p90["parent"]["median"] == pytest.approx(0.315)
    assert (p90["parent"]["q1"], p90["parent"]["q3"]) == (pytest.approx(0.3025), pytest.approx(0.3375))
    assert p90["parent"]["values"][:2] == [0.30, 0.32]
    assert p90["change"]["median"] == pytest.approx(0.21)
    assert p90["parent_iqr"] == pytest.approx(0.035)
    # the change is lower in 9 pairs; pair 5 is a tie, which counts for neither
    assert p90["change_wins"] == 9 and p90["gain"]
    # higher is better for rate: 8 wins of 10 make no gain
    rate = summary["metrics"]["rate"]
    assert rate["change_wins"] == 8 and not rate["gain"]
    assert rate["change"]["median"] == 6 and rate["parent_iqr"] == 0


def test_a_lead_inside_the_parents_spread_is_no_gain():
    runs = {
        "parent": _runs([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0], [1] * 10),
        "change": _runs([0.9, 1.9, 2.9, 3.9, 4.9, 5.9, 6.9, 7.9, 8.9, 9.9], [1] * 10),
    }
    p90 = bench_pairs.summarize(runs, END_TO_END)["metrics"]["call_p90_ms"]
    assert p90["change_wins"] == 10
    assert p90["parent_iqr"] == pytest.approx(4.5)
    assert not p90["gain"]


PER_LAYER = [
    {"name": "invariants.interlace_graph_recursive.self_s", "unit": "s", "better": "lower"},
    {"name": "dmat.dmat_from_graph.self_s", "unit": "s", "better": "lower"},
    {"name": "glws.wgl.states", "unit": "count", "better": "lower"},
]


def _traced(rec: list[float], dmat: list[float]) -> list[dict]:
    return [
        {
            "correct": True,
            "attempted": 102,
            "failed": 0,
            "metrics": {
                "invariants.interlace_graph_recursive.self_s": {"value": a, "unit": "s"},
                "dmat.dmat_from_graph.self_s": {"value": b, "unit": "s"},
                "glws.wgl.states": {"value": 0, "unit": "count"},
            },
        }
        for a, b in zip(rec, dmat)
    ]


def test_per_layer_summary_has_quartiles_and_no_verdict():
    runs = {
        "parent": _traced([0.020, 0.024, 0.022, 0.026], [0.004, 0.005, 0.004, 0.006]),
        "change": _traced([0.012, 0.014, 0.011, 0.013], [0.005, 0.004, 0.004, 0.005]),
    }
    summary = bench_pairs.summarize_layers(runs, PER_LAYER)
    assert summary["pairs"] == 4 and summary["correct"] and summary["failed"] == {"parent": 0, "change": 0}
    rec = summary["metrics"]["invariants.interlace_graph_recursive.self_s"]
    assert set(rec) == {"unit", "parent", "change"}  # no wins, no gain
    assert rec["parent"]["values"] == [0.020, 0.024, 0.022, 0.026]
    # inclusive quartiles of 0.020, 0.022, 0.024, 0.026 and of 0.011 .. 0.014
    assert rec["parent"]["median"] == pytest.approx(0.023)
    assert (rec["parent"]["q1"], rec["parent"]["q3"]) == (pytest.approx(0.0215), pytest.approx(0.0245))
    assert rec["change"]["median"] == pytest.approx(0.0125)
    assert summary["metrics"]["dmat.dmat_from_graph.self_s"]["change"]["median"] == pytest.approx(0.0045)
    lines = bench_pairs.layer_lines(summary)
    assert lines == [
        "invariants.interlace_graph_recursive.self_s (s): parent 0.023 [0.0215, 0.0245] change 0.0125 [0.01175, 0.01325]",
        "dmat.dmat_from_graph.self_s (s): parent 0.0045 [0.004, 0.00525] change 0.0045 [0.004, 0.005]",
    ]  # glws.wgl.states is zero on both sides and left out


_STUB_RUN = """import json
print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}))
"""
_STUB_SPEC = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}], "per_layer": []}


def _checkout(root, name: str, pycache: bool) -> str:
    """A stand-in checkout whose bench/run.py prints one fixed report."""
    path = root / name
    (path / "bench").mkdir(parents=True)
    (path / "bench" / "run.py").write_text(_STUB_RUN)
    (path / "BENCHMARK.json").write_text(json.dumps(_STUB_SPEC))
    (path / "src" / "wsys").mkdir(parents=True)
    if pycache:
        (path / "src" / "wsys" / "__pycache__").mkdir()
    return str(path)


def _tool(parent: str, change: str, env: dict) -> subprocess.CompletedProcess:
    cmd = [sys.executable, _PATH, "--parent", parent, "--change", change, "--workload", "family", "--pairs", "1"]
    return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=60)


def test_json_head_records_the_bytecode_state(tmp_path):
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    cases = [
        ({"PYTHONDONTWRITEBYTECODE": "1"}, False),
        ({"PYTHONDONTWRITEBYTECODE": "1"}, True),
        ({"PYTHONDONTWRITEBYTECODE": "", "PYTHONPYCACHEPREFIX": str(tmp_path / "prefix")}, False),
    ]
    for i, (variables, pycache) in enumerate(cases):
        parent = _checkout(tmp_path / str(i), "parent", pycache)
        change = _checkout(tmp_path / str(i), "change", pycache)
        proc = _tool(parent, change, {**env, **variables})
        assert proc.returncode == 0, proc.stderr
        head = json.loads(proc.stdout.splitlines()[-1])
        assert head["bytecode"] == {
            "env": {
                "PYTHONDONTWRITEBYTECODE": bool(variables.get("PYTHONDONTWRITEBYTECODE")),
                "PYTHONPYCACHEPREFIX": "PYTHONPYCACHEPREFIX" in variables,
            },
            "pycache": {"parent": pycache, "change": pycache},
        }


def test_snapshot_records_the_bytecode_state(tmp_path):
    # tools/bench_snapshot.py on a stand-in checkout, a git repository with
    # one commit, writes the checkout's bytecode-cache state into its JSON
    snapshot_tool = os.path.join(os.path.dirname(_PATH), "bench_snapshot.py")
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    for variables, pycache in (({"PYTHONDONTWRITEBYTECODE": "1"}, False), ({}, True)):
        checkout = _checkout(tmp_path / str(pycache), "checkout", pycache)
        git = ["git", "-c", "user.name=stub", "-c", "user.email=stub@example.invalid"]
        for cmd in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "stub"]):
            subprocess.run([*git, *cmd], cwd=checkout, check=True, capture_output=True)
        cmd = [sys.executable, snapshot_tool, "--label", "stub", "--checkout", checkout]
        proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, env={**env, **variables}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        snapshot = json.loads((tmp_path / "BENCH_stub.json").read_text())
        assert snapshot["bytecode"] == {
            "env": {"PYTHONDONTWRITEBYTECODE": bool(variables), "PYTHONPYCACHEPREFIX": False},
            "pycache": {"checkout": pycache},
        }
        assert snapshot["workloads"]["family"]["metrics"]["wall_s"]["median"] == 1.0


def test_refuses_to_pair_checkouts_with_unlike_bytecode_caches(tmp_path):
    for have in ("parent", "change"):
        parent = _checkout(tmp_path / have, "parent", have == "parent")
        change = _checkout(tmp_path / have, "change", have == "change")
        proc = _tool(parent, change, dict(os.environ))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            f"bench_pairs: only the {have} checkout has src/wsys/__pycache__; remove it or compile both"
        ]


_STUB_CLI = """import json, sys
suite = sys.argv[2]
report = {"suite": suite, "passed": True, "instances": INSTANCES, "failures": [], "seconds": SECONDS, "notes": []}
print(json.dumps({"reports": [report], "passed": True}, indent=2))
"""


def _suite_checkout(root, name: str, seconds: float, instances: int = 123) -> str:
    """A stand-in checkout whose `wsys verify SUITE --json` reports fixed seconds."""
    path = root / name
    (path / "src" / "wsys").mkdir(parents=True)
    (path / "src" / "wsys" / "__init__.py").write_text("")
    cli = _STUB_CLI.replace("INSTANCES", str(instances)).replace("SECONDS", str(seconds))
    (path / "src" / "wsys" / "cli.py").write_text(cli)
    (path / "BENCHMARK.json").write_text(json.dumps(_STUB_SPEC))
    return str(path)


def _suite_tool(parent: str, change: str, pairs: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, _PATH, "--parent", parent, "--change", change, "--suite", "hopf-eps", "--pairs", str(pairs)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=60)


def test_suite_pairs_report_seconds_under_the_gain_rule(tmp_path):
    parent = _suite_checkout(tmp_path, "parent", 0.3)
    change = _suite_checkout(tmp_path, "change", 0.2)
    proc = _suite_tool(parent, change, 3)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["suite"] == "hopf-eps" and summary["pairs"] == 3 and summary["correct"]
    assert summary["failed"] == {"parent": 0, "change": 0}
    seconds = summary["metrics"]["seconds"]
    assert seconds["parent"]["values"] == [0.3] * 3 and seconds["change"]["values"] == [0.2] * 3
    assert seconds["change_wins"] == 3 and seconds["parent_iqr"] == 0 and seconds["gain"]
    assert set(summary["metrics"]) == {"seconds"}
    # the change loses: no wins, no gain
    proc = _suite_tool(change, parent, 2)
    seconds = json.loads(proc.stdout.splitlines()[-1])["metrics"]["seconds"]
    assert seconds["change_wins"] == 0 and not seconds["gain"]


def test_suite_pairs_refuse_reports_that_differ_besides_seconds(tmp_path):
    parent = _suite_checkout(tmp_path, "parent", 0.3, instances=123)
    change = _suite_checkout(tmp_path, "change", 0.2, instances=122)
    proc = _suite_tool(parent, change, 3)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == ["bench_pairs: pair 1: the hopf-eps reports differ besides seconds"]
