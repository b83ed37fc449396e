"""Span tracing of the package, installed from outside it.

Every public function of the eight modules is replaced by a timing wrapper
in its home module and under every alias another module (or the package
namespace) imported it as; SymForm.__post_init__ and
PauliLabel.__post_init__ are wrapped on their classes.  The cli module is
wrapped at its entry point `main` only, so argument parsing, JSON payload
handling and phase matching count as cli self time.

A span is recorded only inside an op span the benchmark opens, so input
generation and output checks stay out of the trace.  Spans are kept in
memory as (name, start, end, parent, op) and written out at the end; self
time is a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter
from pathlib import Path

MODULES = ("ring", "pauli", "diagonal", "symplectic", "oracle", "tracker", "checks", "cli")

#: generator-construction functions reported together as symplectic.generators
GENERATORS = (
    "hadamard_generator",
    "basis_change_generator",
    "phase_generator",
    "partial_hadamard_generator",
    "identity_generator",
    "table1_generators",
    "generator_from_dict",
)

#: the checks run by checks.default_suites, one self_ms metric each
SUITE_CHECKS = (
    "check_conjugation_exactness",
    "check_xor_quadratic_identity",
    "check_level2_exponents_vanish",
    "check_exponent_shift_additivity",
    "check_shift_difference_symmetry",
    "check_exponent_conjugation_shift",
    "check_sandwich_product_identity",
    "check_conjugation_homomorphism",
    "check_hierarchy_membership",
)

ORACLE_REPORTED = (
    "dense_pauli",
    "dense_diagonal",
    "conjugate_dense",
    "pauli_decomposition",
    "hierarchy_level",
)

#: cap on spans kept for the span file; aggregates always cover every span
MAX_KEPT_SPANS = 1_000_000


class Tracer:
    """Wrappers, the span stack and the aggregates of one traced process."""

    def __init__(self, package):
        self.package = package
        self.modules = {name: importlib.import_module(f"{package.__name__}.{name}") for name in MODULES}
        self.infeasible_error = self.modules["diagonal"].InfeasibleDiagonalError
        self.stack: list[list] = []
        self.spans: list = []
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.keep_spans = True
        self.dropped_spans = 0
        self.op_id = -1
        self.run_depth = 0
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object, object]] = []
        self._wrappers = self._build_wrappers()

    # ------------------------------------------------------------ install

    def _build_wrappers(self) -> dict:
        wrappers = {}
        for mod_name, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                if mod_name == "cli" and attr != "main":
                    continue
                wrappers[obj] = self._wrap(obj, f"{mod_name}.{attr}", mod_name)
        return wrappers

    def install(self) -> None:
        """Swap every wrapped function in, under all of its names."""
        if self._patches:
            return
        namespaces = [self.package, *self.modules.values()]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    self._patch(ns, attr, obj, self._wrappers[obj])
        for mod_name, cls_name in (("diagonal", "SymForm"), ("pauli", "PauliLabel")):
            cls = getattr(self.modules[mod_name], cls_name)
            original = cls.__dict__["__post_init__"]
            wrapped = self._wrap(original, f"{mod_name}.{cls_name}", mod_name)
            self._patch(cls, "__post_init__", original, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original, wrapped))

    # -------------------------------------------------------------- spans

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self, name_id: int, name: str, module: str) -> list:
        parent = self.stack[-1]
        index = -1
        if self.keep_spans:
            if len(self.spans) < MAX_KEPT_SPANS:
                self.spans.append(None)
                index = len(self.spans) - 1
            else:
                self.dropped_spans += 1
        frame = [name_id, name, module, time.perf_counter(), 0.0, index, parent[5]]
        self.stack.append(frame)
        if module == "oracle" and self.run_depth:
            self.counts["dense_calls"] += 1
        return frame

    def _exit(self, frame: list) -> float:
        end = time.perf_counter()
        self.stack.pop()
        name_id, name, module, start, child, index, parent_index = frame
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        parent = self.stack[-1]
        parent[4] += duration
        if index >= 0:
            self.spans[index] = (name_id, start, end, parent_index, self.op_id)
        return duration

    def _wrap(self, fn, name: str, module: str):
        name_id = self._name_id(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame = tracer._enter(name_id, name, module) if tracer.stack else None
                    try:
                        item = next(it)
                    except StopIteration:
                        if frame:
                            tracer._exit(frame)
                        return
                    except BaseException as exc:
                        if frame:
                            tracer._raised(frame, exc)
                        raise
                    if frame:
                        tracer._exit(frame)
                    yield item

            return gen_wrapper

        is_run = name == "tracker.run_circuit"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            frame = tracer._enter(name_id, name, module)
            tracer.run_depth += is_run
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.run_depth -= is_run
                tracer._raised(frame, exc, args, kwargs)
                raise
            tracer.run_depth -= is_run
            duration = tracer._exit(frame)
            tracer._observe(name, args, kwargs, result, duration)
            return result

        return wrapper

    def _raised(self, frame, exc, args=(), kwargs=None) -> None:
        self._exit(frame)
        name, module = frame[1], frame[2]
        if isinstance(exc, self.infeasible_error):
            if name == "diagonal.synthesize":
                self.counts["synth_infeasible"] += 1
                self._count_escalation(args, kwargs or {}, exc.level)
            return
        parent_module = self.stack[-1][2]
        if parent_module != module:
            self.errors[module] += 1

    def _count_escalation(self, args, kwargs, level: int) -> None:
        k_hint = kwargs.get("k_hint", args[1] if len(args) > 1 else None)
        if k_hint is not None and level > int(k_hint):
            self.counts["synth_escalations"] += 1

    def _observe(self, name, args, kwargs, result, duration) -> None:
        if name == "diagonal.diagonal_entries" and self.stack[-1][1] == "diagonal.synthesize":
            self.counts["synth_verify_s"] += duration
        elif name == "diagonal.synthesize":
            self._count_escalation(args, kwargs, result.k)
        elif name == "tracker.run_circuit":
            self.counts["generators"] += len(result)
            self.counts["symbolic_generators"] += sum(
                1 for g in result if not g.is_opaque()
            )
        elif name.startswith("checks.check_"):
            self.counts["checked"] += result.checked

    # ----------------------------------------------------------------- ops

    def run_op(self, op_id: int, kind: str, call):
        """Run one op under a root span; returns (seconds, result, error)."""
        self.op_id = op_id
        index = -1
        if self.keep_spans and len(self.spans) < MAX_KEPT_SPANS:
            self.spans.append(None)
            index = len(self.spans) - 1
        root = [self._name_id(f"op.{kind}"), "op", "bench", time.perf_counter(), 0.0, index, -1]
        self.stack.append(root)
        error = result = None
        try:
            result = call()
        except Exception as exc:  # the op failed; the caller counts it
            error = exc
        end = time.perf_counter()
        self.stack.pop()
        duration = end - root[3]
        self.self_s["op"] += duration - root[4]
        if index >= 0:
            self.spans[index] = (root[0], root[3], end, -1, op_id)
        return duration, result, error

    # ------------------------------------------------------------- output

    def write_spans(self, path: Path) -> int:
        """Write kept spans as CSV; returns the number written."""
        path.parent.mkdir(parents=True, exist_ok=True)
        written = 0
        with path.open("w") as fh:
            fh.write("name,start_s,end_s,parent,op\n")
            for span in self.spans:
                if span is None:
                    continue
                name_id, start, end, parent, op = span
                fh.write(f"{self.names[name_id]},{start:.9f},{end:.9f},{parent},{op}\n")
                written += 1
        return written

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics, averaged per traced pass; counts are per pass."""

        def ms(total):
            return 1e3 * total / passes

        def per_pass(n):
            return n / passes

        s, c = self.self_s, self.calls
        out = {}

        def add(name, value, unit):
            out[name] = (value, unit)

        def module_self(mod):
            return sum(v for k, v in s.items() if k.startswith(mod + "."))

        add("diagonal.SymForm.calls", per_pass(c["diagonal.SymForm"]), "count")
        add("diagonal.SymForm.self_ms", ms(s["diagonal.SymForm"]), "ms")
        for fn in ("residual_form", "global_phase_exponent"):
            add(f"diagonal.{fn}.self_ms", ms(s[f"diagonal.{fn}"]), "ms")
        add("diagonal.conjugate.calls", per_pass(c["diagonal.conjugate"]), "count")
        add("diagonal.conjugate.self_ms", ms(s["diagonal.conjugate"]), "ms")
        for fn in ("full_recursion_trace", "group_add", "tensor"):
            add(f"diagonal.{fn}.self_ms", ms(s[f"diagonal.{fn}"]), "ms")
        add("diagonal.diagonal_entries.calls", per_pass(c["diagonal.diagonal_entries"]), "count")
        add("diagonal.diagonal_entries.self_ms", ms(s["diagonal.diagonal_entries"]), "ms")
        add("diagonal.index_vectors.self_ms", ms(s["diagonal.index_vectors"]), "ms")
        add("diagonal.synthesize.solve_ms", ms(s["diagonal.synthesize"]), "ms")
        add("diagonal.synthesize.verify_ms", ms(self.counts["synth_verify_s"]), "ms")
        add("diagonal.synthesize.escalations", per_pass(self.counts["synth_escalations"]), "count")
        add("diagonal.synthesize.infeasible", per_pass(self.counts["synth_infeasible"]), "count")
        add("cli.main.self_ms", ms(s["cli.main"]), "ms")
        add("pauli.PauliLabel.calls", per_pass(c["pauli.PauliLabel"]), "count")
        add("pauli.PauliLabel.self_ms", ms(s["pauli.PauliLabel"]), "ms")
        coerce = ("ring.as_int_vector", "ring.as_bit_vector")
        add("ring.coerce.calls", per_pass(sum(c[n] for n in coerce)), "count")
        add("ring.coerce.self_ms", ms(sum(s[n] for n in coerce)), "ms")
        add("symplectic.apply_symplectic.self_ms", ms(s["symplectic.apply_symplectic"]), "ms")
        add(
            "symplectic.generators.self_ms",
            ms(sum(s[f"symplectic.{n}"] for n in GENERATORS)),
            "ms",
        )
        add("symplectic.gf2_inverse.self_ms", ms(s["symplectic.gf2_inverse"]), "ms")
        for fn in ("apply_diagonal", "apply_clifford_after_diagonal", "run_circuit"):
            add(f"tracker.{fn}.self_ms", ms(s[f"tracker.{fn}"]), "ms")
        add("tracker.dense_calls", per_pass(self.counts["dense_calls"]), "count")
        total = self.counts["generators"]
        ratio = self.counts["symbolic_generators"] / total if total else 0.0
        add("tracker.symbolic_ratio", ratio, "ratio")
        for fn in ORACLE_REPORTED:
            add(f"oracle.{fn}.self_ms", ms(s[f"oracle.{fn}"]), "ms")
        for fn in SUITE_CHECKS:
            add(f"checks.{fn}.self_ms", ms(s[f"checks.{fn}"]), "ms")
        add("checks.checked", per_pass(self.counts["checked"]), "count")
        for mod in MODULES:
            add(f"{mod}.self_ms", ms(module_self(mod)), "ms")
            add(f"{mod}.errors", per_pass(self.errors[mod]), "count")
        add("trace.unattributed_ms", ms(s["op"]), "ms")
        return out
