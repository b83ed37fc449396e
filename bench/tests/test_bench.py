"""Self-test of the benchmark: tiny runs of every workload, and corrupted
package results that the output gates must count as failed ops.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import symdiag  # noqa: E402
from symdiag import cli  # noqa: E402
from symdiag import diagonal as D  # noqa: E402
from symdiag import tracker as T  # noqa: E402
from workloads import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: tiny plans; their tails are medians, since a tiny round has too few ops
#: for 10 samples beyond a high percentile
TINY = {
    "algebra": dict(
        plan={4: {"conjugate": 3, "trace": 2, "add": 1, "tensor": 1},
              8: {"conjugate": 2, "trace": 1, "add": 1, "tensor": 1}},
        warmup_plan={4: {"conjugate": 1}},
    ),
    "synth": dict(plan={4: 12, 13: 3, 14: 1}, warmup_plan={4: 2}),
    "track": dict(plan={2: 2, 4: 2}, warmup_plan={2: 1}),
    "verify": dict(plan=((1, 3, False, 2), (2, 3, True, 2)), warmup_plan=((1, 3, False, 2),)),
}
for fields in TINY.values():
    fields.update(tail_percentile=50.0, min_rounds=2)
SEED = 5


def tiny(name):
    return workloads(TINY)[name]


def execute(name, trace=0):
    lines = run.execute(tiny(name), SEED, 0.0, trace, symdiag)
    info = json.loads(lines[0][2:])
    return lines, info, json.loads(lines[-1])


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_run_prints_every_end_to_end_metric(name):
    lines, _, result = execute(name)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    text = "\n".join(lines[:-1])
    for metric in ("ops_per_s", "latency_p50_ms", "latency_tail_ms", "setup_s",
                   "peak_rss_mb", "error_rate"):
        assert f"# {metric} " in text


@pytest.mark.parametrize("name", list(TINY))
def test_min_rounds_put_ten_samples_beyond_the_tail(name):
    wl = workloads()[name]
    assert len(wl.round(SEED, 0)) * wl.min_rounds * (100 - wl.tail_percentile) / 100 >= 10


@pytest.mark.parametrize("name", list(TINY))
def test_every_round_has_the_same_op_mix(name):
    wl = tiny(name)
    mixes = [Counter((op.size, op.kind) for op in wl.round(SEED, r)) for r in range(4)]
    assert all(mix == mixes[0] for mix in mixes)


def test_commit_is_found_in_packed_refs(tmp_path, monkeypatch):
    git = tmp_path / ".git"
    git.mkdir()
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "packed-refs").write_text("# pack-refs with: peeled\n" + "ab" * 20 + " refs/heads/main\n")
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run._commit() == "ab" * 20


def _relabel(form, delta):
    entries = [list(row) for row in form.entries]
    entries[0][0] += delta
    return D.SymForm(tuple(map(tuple, entries)), form.k)


def _phase_off_by_one(original):
    def conjugate(form, p):
        res = original(form, p)
        return D.ConjugationResult(res.level, res.phase_exponent + 1, res.label, res.residual)

    return conjugate


def _entry_changed(original):
    return lambda *args: _relabel(original(*args), 1)


def _flipped_sign(original):
    def run_circuit(circuit):
        gens = original(circuit)
        gens[0].sign = -gens[0].sign
        return gens

    return run_circuit


def _injection_ignored(original):
    return lambda **kwargs: original(**{**kwargs, "flip_phase": False})


# (workload, [(module, name)], corruption, kinds of op whose output it breaks)
CORRUPTIONS = {
    "phase-exponent-off-by-one": (
        "algebra", [(D, "conjugate")], _phase_off_by_one, {"conjugate", "trace"}),
    "sum-entry-changed": ("algebra", [(D, "group_add")], _entry_changed, {"add"}),
    "synthesized-entry-changed": (
        "synth", [(D, "synthesize"), (cli, "synthesize")], _entry_changed,
        {"feasible", "escalate"}),
    "tracker-sign-flipped": (
        "track", [(T, "run_circuit")], _flipped_sign, {"symbolic", "demoting"}),
    "injected-error-not-reported": (
        "verify", [(cli, "default_suites")], _injection_ignored, {"inject"}),
}


@pytest.mark.parametrize("case", list(CORRUPTIONS))
def test_gate_counts_corrupted_results_as_failed(case, monkeypatch):
    name, targets, corrupt, broken_kinds = CORRUPTIONS[case]
    original = getattr(*targets[0])
    for module, attr in targets:
        monkeypatch.setattr(module, attr, corrupt(original))
    _, info, result = execute(name)
    wl = tiny(name)
    per_round = sum(
        1 for op in wl.round(SEED, 0) if op.kind in broken_kinds
    )
    assert per_round > 0
    assert result["failed"] == per_round * info["rounds"]
    assert result["correct"] is False
    assert result["metrics"]["success_rate"]["value"] < 1.0


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_covers_layers_and_repeats_counts(name):
    _, info, first = execute(name, trace=1)
    _, _, second = execute(name, trace=1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    assert first["correct"] and second["correct"]
    for count in ("tracker.dense_calls", "tracker.symbolic_ratio",
                  "diagonal.synthesize.escalations", "diagonal.synthesize.infeasible",
                  "checks.checked", "diagonal.SymForm.calls", "ring.coerce.calls"):
        assert first["metrics"][count]["value"] == second["metrics"][count]["value"]
    m = {k: v["value"] for k, v in first["metrics"].items()}
    covered = info["module_self_ms_sum"] + m["trace.unattributed_ms"]
    assert covered == pytest.approx(m["trace.wall_ms"], rel=1e-6)
    assert all(m[f"{mod}.errors"] == 0 for mod in
               ("ring", "pauli", "diagonal", "symplectic", "oracle", "tracker", "checks", "cli"))


def test_synth_counts_escalations_and_infeasible_inputs():
    _, _, result = execute("synth", trace=1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    kinds = [op.kind for op in tiny("synth").round(SEED, 0)]
    assert m["diagonal.synthesize.infeasible"] == kinds.count("infeasible")
    assert m["diagonal.synthesize.escalations"] == kinds.count("escalate")


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "track", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
