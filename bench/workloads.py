"""The four benchmark workloads: inputs from a seed, calls, exact output gates.

A workload is a sequence of identical *rounds*.  Round r holds a fixed
number of ops per size class and kind (its plan); its inputs come from
numpy's generator seeded with (seed, r), so the same seed always gives the
same inputs.  An op's `call` runs the package on generated inputs and is
the only timed part; its `check` gates the output exactly, untimed, using
the independent arithmetic in reference.py.

Package functions are looked up on their modules at call time, so the
tracing wrappers apply whenever they are installed.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

import reference as ref
from symdiag import cli
from symdiag import diagonal as D
from symdiag import pauli as P
from symdiag import tracker as T

#: basis vectors sampled per algebra check, besides v = 0
CHECK_VECTORS = 24
#: round index whose inputs feed the warm-up ops; never a measured round
WARMUP_ROUND = 2**31


@dataclass
class Op:
    size: str
    kind: str
    call: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Workload:
    name: str
    #: percentile reported as latency_tail_ms; the plan puts it inside one size class
    tail_percentile: float
    #: rounds measured even when the timed seconds run out earlier, so a run
    #: always has at least 10 samples beyond the tail percentile (the
    #: self-test checks this)
    min_rounds: int
    plan: dict
    #: a small plan on the smallest sizes, run untimed before measuring
    warmup_plan: dict
    build: Callable[[dict, np.random.Generator, int], list[Op]]

    def round(self, seed: int, r: int) -> list[Op]:
        return self._ops(self.plan, seed, r)

    def warmup(self, seed: int) -> list[Op]:
        return self._ops(self.warmup_plan, seed, WARMUP_ROUND)

    def _ops(self, plan, seed: int, r: int) -> list[Op]:
        rng = np.random.default_rng([seed, r])
        ops = self.build(plan, rng, r)
        order = rng.permutation(len(ops))
        return [ops[i] for i in order]


def _stratified(plan_row: dict, cycle: tuple):
    """(kind, index, level) for every op of one size class; levels cycle
    through `cycle` inside each kind so every round has the same level mix."""
    for kind, count in plan_row.items():
        for i in range(count):
            yield kind, i, cycle[i % len(cycle)]


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


# ------------------------------------------------------------------ algebra

ALGEBRA_LEVELS = (3, 4, 5, 6)

#: ops per round; each size takes about a third of the round at the seed
#: commit, and m = 256 conjugations hold the 99.9th percentile
ALGEBRA_PLAN = {
    16: {"conjugate": 2560, "trace": 320, "add": 160, "tensor": 160},
    64: {"conjugate": 192, "trace": 24, "add": 12, "tensor": 12},
    256: {"conjugate": 5, "trace": 1, "add": 1, "tensor": 1},
}


def _algebra_round(plan: dict, rng: np.random.Generator, r: int) -> list[Op]:
    forms: dict = {}

    def form(m, k, j):
        if (m, k, j) not in forms:
            R = ref.random_form(rng, m, k)
            forms[(m, k, j)] = (R, D.SymForm.from_matrix(R, k))
        return forms[(m, k, j)]

    ops = []
    for m, row in plan.items():
        for kind, i, k in _stratified(row, ALGEBRA_LEVELS):
            R, f = form(m, k, int(rng.integers(0, 2)))
            a = rng.integers(0, 4, size=m, dtype=np.int64)
            b = rng.integers(0, 4, size=m, dtype=np.int64)
            V = rng.integers(0, 2, size=(CHECK_VECTORS + 1, m), dtype=np.int64)
            V[0] = 0
            if kind == "conjugate":
                p = P.PauliLabel(tuple(a.tolist()), tuple(b.tolist()))
                ops.append(Op(f"m={m}", kind, _diagonal_call("conjugate", f, p),
                              _conj_gate(R, k, a, b, V)))
            elif kind == "trace":
                p = P.PauliLabel(tuple(a.tolist()), tuple(b.tolist()))
                ops.append(Op(f"m={m}", kind, _diagonal_call("full_recursion_trace", f, p),
                              _trace_gate(R, k, a, b, V)))
            elif kind == "add":
                R2, f2 = form(m, k, 2)
                ops.append(Op(f"m={m}", kind, _diagonal_call("group_add", f, f2),
                              _add_gate(R, R2, k, V)))
            else:
                ell = 3 + i % (k - 2)
                R2, f2 = form(m, ell, 2)
                V2 = rng.integers(0, 2, size=(CHECK_VECTORS + 1, 2 * m), dtype=np.int64)
                ops.append(Op(f"m={m}", kind, _diagonal_call("tensor", f, f2),
                              _tensor_gate(R, k, R2, ell, V2)))
    return ops


def _diagonal_call(name: str, *args):
    return lambda: getattr(D, name)(*args)


def _matrix(form) -> np.ndarray:
    return np.array(form.entries, dtype=np.int64).reshape(form.m, form.m)


def _step_holds(R, k, a, b, step, V) -> bool:
    if step.level != k or step.residual.k != k - 1 or step.residual.m != len(a):
        return False
    la = np.array(step.label.a, dtype=np.int64)
    lb = np.array(step.label.b, dtype=np.int64)
    return ref.conjugation_holds(R, k, a, b, int(step.phase_exponent), la, lb,
                                 _matrix(step.residual), V)


def _conj_gate(R, k, a, b, V):
    return lambda res: _step_holds(R, k, a, b, res, V)


def _trace_gate(R, k, a, b, V):
    def gate(steps):
        if len(steps) != k:
            return False
        current = R
        for j, step in enumerate(steps):
            if not _step_holds(current, k - j, a, b, step, V):
                return False
            current = _matrix(step.residual)
        return True

    return gate


def _add_gate(R1, R2, k, V):
    def gate(out):
        if (out.m, out.k) != (R1.shape[0], k):
            return False
        diff = ref.quad(V, _matrix(out)) - ref.quad(V, R1) - ref.quad(V, R2)
        return not np.any(diff % (1 << k))

    return gate


def _tensor_gate(R1, k, R2, ell, V):
    m = R1.shape[0]

    def gate(out):
        if (out.m, out.k) != (m + R2.shape[0], k):
            return False
        expect = ref.quad(V[:, :m], R1) + (1 << (k - ell)) * ref.quad(V[:, m:], R2)
        return not np.any((ref.quad(V, _matrix(out)) - expect) % (1 << k))

    return gate


# -------------------------------------------------------------------- synth

SYNTH_KINDS = ("feasible", "escalate", "infeasible")
SYNTH_LEVELS = (2, 3, 4, 5)

#: ops per round by size; m = 12 goes through `symdiag synth`, three quarters
#: with exponent payloads and one quarter with complex diagonals, so the
#: median falls inside the exponent-payload ops; larger sizes call
#: synthesize directly.  Sizes with several ops cycle through the kinds.
#: The single m = 20 op is always infeasible, so every round has the same
#: mix: that path does the feasible path's work (solve, then the 2^m-entry
#: verification) and then builds the witness from a second index table.
SYNTH_PLAN = {12: 132, 16: 15, 20: 1}


def _synth_input(rng, m, kind, k):
    """(exponents, k_hint, expected (level, R), cubic support or None)."""
    if kind == "escalate":
        # even diagonal and an odd off-diagonal at level k+1: exponents are
        # whole at level k but need one doubling to be solved
        R = ref.random_form(rng, m, k + 1)
        R[np.diag_indices(m)] &= ~1
        i, j = sorted(rng.choice(m, size=2, replace=False).tolist())
        R[i, j] = R[j, i] = R[i, j] | 1
        e = ref.exponent_list(R, k + 1) // 2
        return e, k, (k + 1, R), None
    R = ref.random_form(rng, m, k)
    e = ref.exponent_list(R, k)
    if kind == "infeasible":
        support = sorted(rng.choice(m, size=3, replace=False).tolist())
        idx = np.arange(1 << m, dtype=np.int64)
        cubic = np.ones_like(idx)
        for s in support:
            cubic &= idx >> (m - 1 - s)
        e = (e + (1 << (k - 1)) * (cubic & 1)) % (1 << k)
        return e, k, None, support
    return e, k, (k, R), None


def _synth_round(plan: dict, rng: np.random.Generator, r: int) -> list[Op]:
    ops = []
    for m, count in plan.items():
        for i in range(count):
            kind = "infeasible" if count == 1 else SYNTH_KINDS[i % len(SYNTH_KINDS)]
            k = SYNTH_LEVELS[(i // len(SYNTH_KINDS)) % len(SYNTH_LEVELS)]
            e, k_hint, expected, support = _synth_input(rng, m, kind, k)
            c = int(rng.integers(0, 1 << k_hint))
            shifted = (e + c) % (1 << k_hint)
            if m > 12:
                call = _direct_synth(shifted, k_hint)
                gate = _synth_gate(e, m, k_hint, expected, support)
            elif (i // len(SYNTH_KINDS)) % 4 != 3:
                payload = json.dumps({"k": k_hint, "exponents": shifted.tolist()})
                call = _bind_cli(["synth", payload])
                gate = _cli_synth_gate(e, m, k_hint, expected, support, ("exponent", c))
            else:
                z = np.exp(2j * np.pi * shifted / (1 << k_hint))
                pairs = np.stack([z.real, z.imag], axis=1).tolist()
                payload = json.dumps({"k": k_hint, "diagonal": pairs})
                call = _bind_cli(["synth", payload])
                gate = _cli_synth_gate(e, m, k_hint, expected, support, ("phase", c))
            ops.append(Op(f"m={m}", kind, call, gate))
    return ops


def _bind_cli(argv):
    return lambda: _cli(argv)


def _direct_synth(exponents, k_hint):
    def call():
        try:
            return D.synthesize(exponents, k_hint)
        except D.InfeasibleDiagonalError as exc:
            return exc

    return call


def _form_equals(level, R, expected) -> bool:
    """The source form is generated canonical, so equality is entrywise."""
    k, Rx = expected
    return level == k and np.array_equal(np.asarray(R, dtype=np.int64), Rx)


def _witness_ok(e, m, k, support, witness, level) -> bool:
    w = np.asarray(witness, dtype=np.int64)
    if w.shape != (m,) or level < k or np.any((w != 0) & (w != 1)):
        return False
    return bool(np.all(w[support] == 1)) and ref.witness_mismatches(e, m, k, w)


def _synth_gate(e, m, k, expected, support):
    def gate(out):
        if support is not None:
            return isinstance(out, D.InfeasibleDiagonalError) and _witness_ok(
                e, m, k, support, out.witness, out.level
            )
        return isinstance(out, D.SymForm) and _form_equals(out.k, _matrix(out), expected)

    return gate


def _cli_synth_gate(e, m, k, expected, support, phase):
    def gate(out):
        code, text = out
        doc = json.loads(text)
        if support is not None:
            return code == 2 and doc.get("infeasible") is True and _witness_ok(
                e, m, k, support, doc["witness"], doc["level"]
            )
        if code != 0 or not _form_equals(doc["k"], doc["R"], expected):
            return False
        how, c = phase
        if how == "exponent":
            return doc["global_phase_exponent"] == c
        want = np.exp(2j * np.pi * c / (1 << k))
        return abs(complex(*doc["global_phase"]) - want) < ref.DENSE_ATOL

    return gate


# -------------------------------------------------------------------- track

TRACK_LAYERS = (4, 6, 8, 10, 12)
TRACK_LEVELS = (2, 3, 4)

#: circuits per round by qubit count, alternating symbolic and demoting
TRACK_PLAN = {2: 60, 3: 60, 4: 60}


def _random_invertible(rng, m) -> np.ndarray:
    Q = np.eye(m, dtype=np.int64)
    for _ in range(2 * m):
        i, j = rng.choice(m, size=2, replace=False)
        Q[i] = (Q[i] + Q[j]) % 2
    return Q


def _clifford(rng, m, gen):
    if gen == "H":
        return {"type": "clifford", "gen": "H", "params": {}}
    if gen == "partialH":
        return {"type": "clifford", "gen": "partialH", "params": {"t": int(rng.integers(0, m))}}
    if gen == "identityH":
        return {"type": "clifford", "gen": "partialH", "params": {"t": m}}
    if gen == "T_R":
        upper = np.triu(rng.integers(0, 2, size=(m, m), dtype=np.int64))
        R = upper + np.triu(upper, 1).T
        return {"type": "clifford", "gen": "T_R", "params": {"R": R.tolist()}}
    if gen == "perm":
        Q = np.eye(m, dtype=np.int64)[rng.permutation(m)]
    else:
        Q = _random_invertible(rng, m)
    return {"type": "clifford", "gen": "L_Q", "params": {"Q": Q.tolist()}}


def _circuit(rng, m, family, n_layers, level_offset) -> dict:
    """Clifford and diagonal layers alternating, Clifford first.

    A symbolic circuit opens with a (partial) Hadamard and then only uses
    layers that keep residuals as forms: phase layers, permutations, the
    trivial partial Hadamard, and general basis changes while every
    residual is at level <= 2.  A demoting circuit puts a Hadamard right
    after the first diagonal layer, where residuals are live.
    """
    layers = []
    top = 0
    for j in range(n_layers):
        if j % 2:
            k = TRACK_LEVELS[(j // 2 + level_offset) % len(TRACK_LEVELS)]
            top = max(top, k)
            R = ref.random_form(rng, m, k)
            layers.append({"type": "diagonal", "R": R.tolist(), "k": k})
            continue
        if j == 0:
            gen = ("H", "partialH")[int(rng.integers(0, 2))]
        elif family == "demoting" and j == 2:
            gen = "H"
        elif family == "demoting":
            gen = ("H", "partialH", "T_R", "perm", "L_Q")[int(rng.integers(0, 5))]
        else:
            choices = ("T_R", "perm", "identityH") + (("L_Q",) if top <= 3 else ())
            gen = choices[int(rng.integers(0, len(choices)))]
        layers.append(_clifford(rng, m, gen))
    return {"m": m, "k": max(top, 2), "layers": layers}


def _track_round(plan: dict, rng: np.random.Generator, r: int) -> list[Op]:
    ops = []
    for m, count in plan.items():
        for i in range(count):
            family = ("symbolic", "demoting")[i % 2]
            n_layers = TRACK_LAYERS[(i // 2) % len(TRACK_LAYERS)]
            d = _circuit(rng, m, family, n_layers, i)
            call = _bind_track(d)
            ops.append(Op(f"m={m}", family, call, _track_gate(d, oracle=(r == 0 and m <= 3))))
    return ops


def _bind_track(d):
    return lambda: T.run_circuit(T.circuit_from_dict(d))


def _generator_dense(g) -> np.ndarray:
    m = g.label.m
    phase = g.sign * np.exp(2j * np.pi * g.phase_num / (1 << g.phase_log2_den))
    if g.residual is None:
        residual = np.eye(1 << m, dtype=complex)
    elif isinstance(g.residual, np.ndarray):
        residual = g.residual
    else:
        residual = ref.dense_form(_matrix(g.residual), g.residual.k)
    return phase * ref.dense_pauli(g.label.a, g.label.b) @ residual


def _track_gate(d, oracle: bool):
    """Dense comparison of every tracked generator with U Z_j U^dagger.

    In the first round, circuits with m <= 3 are also run through the
    package's own verify_against_oracle.
    """
    m = d["m"]

    def gate(gens):
        if len(gens) != m:
            return False
        u = ref.dense_circuit(d)
        for j, g in enumerate(gens):
            z = np.zeros(m, dtype=np.int64)
            z[j] = 1
            target = u @ ref.dense_pauli(np.zeros(m, dtype=np.int64), z) @ u.conj().T
            if np.max(np.abs(target - _generator_dense(g))) > ref.DENSE_ATOL:
                return False
        if oracle:
            return bool(T.verify_against_oracle(T.circuit_from_dict(d))["ok"])
        return True

    return gate


# ------------------------------------------------------------------- verify

#: (m, k, inject, samples) per round; the inject op must exit 1 and name the
#: failing check.  Seven of the eleven ops are at m = 3, so the median and
#: the 65th-percentile tail both fall inside the m = 3 class.
VERIFY_PLAN = (
    (1, 3, False, 50),
    (2, 3, False, 10),
    (2, 4, False, 10),
    (2, 3, True, 10),
    *[(3, 3, False, 10)] * 7,
)


def _verify_round(plan, rng: np.random.Generator, r: int) -> list[Op]:
    ops = []
    for m, k, inject, samples in plan:
        seed = int(rng.integers(0, 2**31))
        argv = ["verify", "--m", str(m), "--k", str(k), "--samples", str(samples),
                "--seed", str(seed), "--json"]
        if inject:
            argv.append("--inject-phase-error")
        kind = "inject" if inject else "verify"
        ops.append(Op(f"m={m}", kind, _bind_cli(argv), _verify_gate(m, k, inject)))
    return ops


def _verify_gate(m, k, inject):
    n_checks = 10 if m >= 2 else 9

    def gate(out):
        code, text = out
        doc = json.loads(text)
        checks = doc["checks"]
        if len(checks) != n_checks:
            return False
        failed = [c for c in checks if not c["passed"]]
        if not inject:
            return code == 0 and doc["passed"] is True and not failed
        name = f"conjugation-exactness(m={m},k={max(k, 2)})"
        return (
            code == 1
            and doc["passed"] is False
            and [c["name"] for c in failed] == [name]
            and {"R", "a", "b"} <= set(failed[0]["detail"])
        )

    return gate


# ----------------------------------------------------------------- registry


def workloads(overrides: dict | None = None) -> dict[str, Workload]:
    """The four workloads; `overrides` maps a workload name to Workload field
    values that replace the defaults, which the self-test uses for tiny
    sizes."""
    made = {
        "algebra": Workload("algebra", 99.9, 3, ALGEBRA_PLAN,
                            {16: {"conjugate": 4, "trace": 1, "add": 1, "tensor": 1}},
                            _algebra_round),
        "synth": Workload("synth", 95.0, 2, SYNTH_PLAN, {12: 2}, _synth_round),
        "track": Workload("track", 95.0, 2, TRACK_PLAN, {2: 2, 3: 2, 4: 2}, _track_round),
        "verify": Workload("verify", 65.0, 3, VERIFY_PLAN, ((1, 3, False, 10),), _verify_round),
    }
    for name, fields in (overrides or {}).items():
        made[name] = replace(made[name], **fields)
    return made
