"""Command-line surface: synthesis, conjugation traces, gate tables,
counting, composition, and oracle-backed verification.

Payload arguments accept inline JSON, a path to a JSON file, or ``-`` for
stdin.  Exit codes: 0 success, 1 malformed input or failed verification,
2 synthesis proved infeasible.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import ring
from .checks import default_suites
from .diagonal import (
    InfeasibleDiagonalError,
    SymForm,
    conjugate,
    diagonal_entries,
    enumerate_canonical_forms,
    form_level,
    full_recursion_trace,
    group_add,
    group_order,
    standard_gate_table,
    synthesize,
    tensor,
)
from .pauli import PauliLabel
from .symplectic import gamma_matrix, is_binary_symplectic

#: complex diagonal entries must match some 2^k-th root of unity below this cap
PHASE_MATCH_CAP = 12
PHASE_MATCH_TOL = 1e-6
ENUMERATE_GUARD = 1 << 20


class CLIError(Exception):
    """Malformed input or an exceeded guard; mapped to exit code 1."""


def _load_payload(text: str):
    try:
        if text == "-":
            return json.load(sys.stdin)
        stripped = text.lstrip()
        if stripped.startswith("{") or stripped.startswith("["):
            return json.loads(text)
        return json.loads(Path(text).read_text())
    except (json.JSONDecodeError, OSError) as exc:
        raise CLIError(f"cannot read JSON payload: {exc}") from exc


def _emit(obj) -> None:
    print(json.dumps(obj))


def _is_entry(z) -> bool:
    """A real number or an [re, im] pair of them: exactly int or float, since bool is an int."""
    if type(z) is list:
        return len(z) == 2 and type(z[0]) in (int, float) and type(z[1]) in (int, float)
    return type(z) in (int, float)


def _exponents_from_diagonal(diag, k_hint: int) -> tuple[int, np.ndarray, complex]:
    """Match complex diagonal entries, each a real number or an [re, im] pair
    of real numbers, to powers of exp(2*pi*i/2^k).

    Escalates k from k_hint until every entry matches within tolerance or
    the cap is hit.  The first entry's phase is returned for reporting and
    divided out before matching.
    """
    if not isinstance(diag, list):
        raise CLIError("diagonal payload must be a list of entries")
    try:
        values = [complex(*z) if isinstance(z, list) and len(z) == 2 else complex(z, 0)
                  for z in diag]
        z = np.array(values, dtype=complex)
        off_circle = ~(np.abs(np.abs(z) - 1.0) <= PHASE_MATCH_TOL)
        # complex() takes boolean parts, which put an entry off the circle or on an axis
        suspects = np.flatnonzero(off_circle | (z.real * z.imag == 0)).tolist()
    except TypeError:
        suspects = range(len(diag))
    bad = next((i for i in suspects if not _is_entry(diag[i])), None)
    if bad is not None:
        raise CLIError(f"diagonal entry {bad} ({json.dumps(diag[bad])}) is not a real number"
                       " or an [re, im] pair of real numbers")
    if not values:
        raise CLIError("diagonal payload is empty")
    if off_circle.any():
        raise CLIError(f"diagonal entry {values[off_circle.argmax()]} does not have unit modulus")
    phase0 = values[0]
    z /= phase0
    angle = np.arctan2(z.imag, z.real) % (2 * math.pi)
    for k in range(max(k_hint, 1), PHASE_MATCH_CAP + 1):
        exps = np.rint(angle / (2 * math.pi / (1 << k))).astype(np.int64) % (1 << k)
        if np.all(np.abs(z - np.exp(2j * math.pi * exps / (1 << k))) <= PHASE_MATCH_TOL):
            return k, exps, phase0
    raise CLIError(
        f"diagonal phases do not match 2^k-th roots of unity for any k <= {PHASE_MATCH_CAP}"
    )


def cmd_synth(args) -> int:
    payload = _load_payload(args.input)
    if not isinstance(payload, dict):
        raise CLIError("synthesis payload must be a JSON object")
    out: dict = {}
    k_hint = payload.get("k", 1 if args.k_hint is None else args.k_hint)
    k_hint = int(ring.as_integers(k_hint))
    if "exponents" in payload and "diagonal" in payload:
        raise CLIError('synthesis payload takes an "exponents" or a "diagonal" field, not both')
    if "exponents" in payload:
        if "k" not in payload and args.k_hint is None:
            raise CLIError("exponent payload needs a level: a \"k\" field or --k-hint")
        exps = ring.as_integers(payload["exponents"])
        if exps.size:  # of any shape: synthesize refuses all but a flat list
            out["global_phase_exponent"] = int(exps.flat[0]) % (1 << max(k_hint, 1))
    elif "diagonal" in payload:
        k_hint, exps, phase0 = _exponents_from_diagonal(payload["diagonal"], k_hint)
        out["global_phase"] = [phase0.real, phase0.imag]
    else:
        raise CLIError('synthesis payload needs an "exponents" or "diagonal" field')
    try:
        form = synthesize(exps, k_hint)
    except InfeasibleDiagonalError as exc:
        _emit({"infeasible": True, "witness": list(exc.witness), "level": exc.level, **out})
        return 2
    _emit({"k": form.k, "R": form.entries.tolist(), **out})
    return 0


def cmd_conjugate(args) -> int:
    form = SymForm.from_dict(_load_payload(args.gate))
    pauli = PauliLabel.from_dict(_load_payload(args.pauli))
    if args.trace:
        rows = []
        for s in full_recursion_trace(form, pauli):
            # the gate conjugated at this step: its ring level and hierarchy level
            row = {"level": s.level, "form_level": form_level(form), **s.to_dict()}
            if s.residual.k == 1:
                row["R_tilde_pauli"] = s.residual.z_pauli_label().to_dict()
            rows.append(row)
            form = s.residual
        _emit({"steps": rows})
    else:
        _emit(conjugate(form, pauli).to_dict())
    return 0


def cmd_table(args) -> int:
    rows = []
    for name, form in standard_gate_table():
        exps = diagonal_entries(form)
        diag = np.exp(2j * math.pi * exps / (1 << form.k))
        rows.append(
            {
                "name": name,
                "k": form.k,
                "form_level": form_level(form),
                "R": form.entries.tolist(),
                "exponents": exps.tolist(),
                "diagonal": [[round(z.real, 12), round(z.imag, 12)] for z in diag],
            }
        )
    if args.json:
        _emit(rows)
    else:
        for row in rows:
            print(
                f"{row['name']:>6}  k={row['k']}  level={row['form_level']}  R={row['R']}"
                f"  exponents={row['exponents']}"
            )
    return 0


def cmd_count(args) -> int:
    order = group_order(args.m, args.k)
    result = {"m": args.m, "k": args.k, "order": order}
    if args.enumerate:
        if order > ENUMERATE_GUARD:
            raise CLIError(
                f"enumeration guard exceeded: order {order} > {ENUMERATE_GUARD}"
            )
        distinct = len(
            {tuple(diagonal_entries(f).tolist()) for f in enumerate_canonical_forms(args.m, args.k)}
        )
        result["enumerated"] = distinct
        if distinct != order:
            if args.json:
                _emit(result)
            else:
                print(f"enumeration mismatch: {distinct} distinct vs formula {order}")
            return 1
    if args.json:
        _emit(result)
    else:
        msg = f"order(m={args.m}, k={args.k}) = {order}"
        if args.enumerate:
            msg += f"  (enumeration agrees: {result['enumerated']} distinct diagonals)"
        print(msg)
    return 0


def cmd_verify(args) -> int:
    if not 1 <= args.m <= 4:
        raise CLIError("verification guard: m must be in 1..4")
    if args.samples < 1:
        raise CLIError("verification guard: samples must be >= 1")
    try:
        ring.check_level(args.k)
    except ValueError as exc:
        raise CLIError(f"verification guard: {exc}") from exc
    results = default_suites(
        m=args.m,
        k=args.k,
        samples=args.samples,
        seed=args.seed,
        exhaustive_paulis=args.exhaustive_paulis,
        flip_phase=args.inject_phase_error,
    )
    failed = [r for r in results if not r.passed]
    max_dev = max((r.max_deviation for r in results), default=0.0)
    if args.json:
        _emit(
            {
                "passed": not failed,
                "max_deviation": max_dev,
                "checks": [
                    {
                        "name": r.name,
                        "passed": r.passed,
                        "checked": r.checked,
                        "max_deviation": r.max_deviation,
                        "detail": r.detail,
                    }
                    for r in results
                ],
            }
        )
    else:
        for r in results:
            print(str(r))
        print(f"max deviation: {max_dev:.3g}")
        print("all checks passed" if not failed else f"{len(failed)} check(s) FAILED")
    return 1 if failed else 0


def cmd_compose(args) -> int:
    """`tensor` and `add`: combine two gate forms with args.combine."""
    f1 = SymForm.from_dict(_load_payload(args.g1))
    f2 = SymForm.from_dict(_load_payload(args.g2))
    _emit(args.combine(f1, f2).to_dict())
    return 0


def cmd_gamma(args) -> int:
    gamma = gamma_matrix(SymForm.from_dict(_load_payload(args.gate)))
    _emit({"Gamma": gamma.tolist(), "symplectic_mod2_ok": is_binary_symplectic(gamma)})
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The shared parser, built once per process; callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="symdiag",
        description="Exact symmetric-matrix calculus for diagonal gates over Z_{2^k}.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="find the form matching a diagonal or exponent list")
    p.add_argument("input", help='JSON: {"k": int, "exponents": [...]} or {"diagonal": [[re, im], ...]}')
    p.add_argument("--k-hint", type=int, default=None, help="starting level when the payload has no k")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("conjugate", help="conjugate a Hermitian Pauli by a diagonal gate")
    p.add_argument("--gate", required=True, help='gate JSON {"m", "k", "R"}')
    p.add_argument("--pauli", required=True, help='Pauli JSON {"a", "b"}')
    p.add_argument("--trace", action="store_true", help="full recursion down to level 1")
    p.set_defaults(func=cmd_conjugate)

    p = sub.add_parser("table", help="standard one- and two-qubit gate forms")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("count", help="number of distinct diagonal gates at (m, k)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--enumerate", action="store_true", help="cross-check by exhaustive enumeration")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("verify", help="run the oracle-backed verification suites")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exhaustive-paulis", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument(
        "--inject-phase-error",
        action="store_true",
        help="self-test: flip the phase exponent sign and expect a located failure",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    for name, combine, help_text in (
        ("tensor", tensor, "tensor product of two gate forms"),
        ("add", group_add, "group-law sum of two gate forms at the same (m, k)"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--g1", required=True)
        p.add_argument("--g2", required=True)
        p.set_defaults(func=cmd_compose, combine=combine)

    p = sub.add_parser("gamma", help="integer symplectic lift of a form, with the mod-2 check")
    p.add_argument("gate", help='gate JSON {"m", "k", "R"}')
    p.set_defaults(func=cmd_gamma)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CLIError, ValueError, KeyError, TypeError, IndexError, OverflowError) as exc:
        message = f"missing field {exc.args[0]!r}" if isinstance(exc, KeyError) else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
