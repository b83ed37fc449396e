import json
import math

import pytest

from symdiag.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_built_once_with_fresh_namespaces():
    assert build_parser() is build_parser()
    first = build_parser().parse_args(["count", "--m", "2", "--k", "2", "--json"])
    second = build_parser().parse_args(["count", "--m", "3", "--k", "1"])
    assert first is not second
    assert (first.m, first.json) == (2, True) and (second.m, second.json) == (3, False)


class TestSynth:
    def test_exponent_escalation(self, capsys):
        code, out, _ = run(capsys, "synth", '{"k":2,"exponents":[0,1,1,1]}')
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == 3
        assert payload["R"] == [[2, 3], [3, 2]]

    def test_ccz_diagonal_infeasible(self, capsys):
        diag = [[1, 0]] * 7 + [[-1, 0]]
        code, out, _ = run(capsys, "synth", json.dumps({"diagonal": diag}))
        assert code == 2
        payload = json.loads(out)
        assert payload["infeasible"] is True
        assert payload["witness"] == [1, 1, 1]

    def test_trivial(self, capsys):
        code, out, _ = run(capsys, "synth", '{"k":1,"exponents":[0,0]}')
        assert code == 0
        assert json.loads(out) == {"k": 1, "R": [[0]], "global_phase_exponent": 0}

    def test_global_phase_reported(self, capsys):
        code, out, _ = run(capsys, "synth", '{"k":3,"exponents":[5,6]}')
        assert code == 0
        payload = json.loads(out)
        assert payload["global_phase_exponent"] == 5
        assert payload["R"] == [[1]]

    def test_complex_diagonal_t_gate(self, capsys):
        s = 2**-0.5
        code, out, _ = run(capsys, "synth", json.dumps({"diagonal": [[1, 0], [s, s]]}))
        assert code == 0
        payload = json.loads(out)
        assert (payload["k"], payload["R"]) == (3, [[1]])

    def test_complex_diagonal_escalates_above_k_hint(self, capsys):
        # R = [[1, 1], [1, 3]] at k = 4 has exponents [0, 3, 1, 6] / 16
        diag = [[math.cos(math.pi * e / 8), math.sin(math.pi * e / 8)] for e in (0, 3, 1, 6)]
        code, out, _ = run(capsys, "synth", json.dumps({"k": 2, "diagonal": diag}))
        assert code == 0
        payload = json.loads(out)
        assert (payload["k"], payload["R"]) == (4, [[1, 1], [1, 3]])

    def test_complex_diagonal_non_unit_entry(self, capsys):
        diag = [[1, 0], [0, 1], [0.5, 0], [2, 0]]
        code, _, err = run(capsys, "synth", json.dumps({"diagonal": diag}))
        assert code == 1
        assert "diagonal entry (0.5+0j) does not have unit modulus" in err
        code, _, err = run(capsys, "synth", '{"diagonal":[[1,0],[NaN,0]]}')
        assert code == 1 and "does not have unit modulus" in err

    def test_complex_diagonal_no_root_of_unity(self, capsys):
        third = [math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3)]
        code, _, err = run(capsys, "synth", json.dumps({"diagonal": [[1, 0], third]}))
        assert code == 1
        assert "diagonal phases do not match 2^k-th roots of unity for any k <= 12" in err

    def test_complex_diagonal_mixed_pairs_and_numbers(self, capsys):
        code, out, _ = run(capsys, "synth", '{"diagonal":[1,[0,1],[0,1],-1]}')
        assert code == 0
        payload = json.loads(out)
        assert (payload["k"], payload["R"]) == (2, [[1, 0], [0, 1]])
        assert payload["global_phase"] == [1.0, 0.0]

    @pytest.mark.parametrize("diag, entry", [
        ("[true,true]", "entry 0 (true)"),
        ('["1","1"]', 'entry 0 ("1")'),
        ('[[1,0,9],[1,0,"x"]]', "entry 0 ([1, 0, 9])"),
        ("[[1,0],[false,true]]", "entry 1 ([false, true])"),
        ("[[1,0],[true,true]]", "entry 1 ([true, true])"),
        ("[[1,0],[1]]", "entry 1 ([1])"),
    ])
    def test_complex_diagonal_rejects_non_numbers(self, capsys, diag, entry):
        code, out, err = run(capsys, "synth", f'{{"diagonal":{diag}}}')
        assert code == 1 and out == ""
        assert f"diagonal {entry} is not a real number or an [re, im] pair" in err

    @pytest.mark.parametrize("entry", [str(10**400), f"[0, -{10**400}]"])
    def test_complex_diagonal_beyond_float_range(self, capsys, entry):
        # an error line, as the exponents field gives for the same integer
        code, out, err = run(capsys, "synth", f'{{"diagonal":[1, {entry}]}}')
        assert (code, out) == (1, "")
        assert err == "error: int too large to convert to float\n"
        code, _, err = run(capsys, "synth", f'{{"k":1,"exponents":[0, {10**400}]}}')
        assert code == 1 and "integer outside the int64 range" in err

    def test_malformed_inputs(self, capsys):
        code, _, err = run(capsys, "synth", "{bad json")
        assert code == 1 and "error" in err
        code, _, err = run(capsys, "synth", '{"k":2,"exponents":[0,1,1]}')
        assert code == 1 and "power of two" in err
        code, _, err = run(capsys, "synth", '{"exponents":[0,1]}')
        assert code == 1 and "k" in err
        code, _, err = run(capsys, "synth", '{"diagonal":[[2,0],[1,0]]}')
        assert code == 1 and "unit modulus" in err
        code, _, err = run(capsys, "synth", '{"diagonal":[]}')
        assert code == 1 and "empty" in err
        code, _, err = run(capsys, "synth", '{"k":2}')
        assert code == 1
        code, _, err = run(capsys, "synth", '{"k":3,"exponents":[[0,1],[1,3]]}')
        assert code == 1 and "exponents must be a flat list" in err
        code, _, err = run(capsys, "synth", '{"k":3,"exponents":[0,1],"diagonal":[1,1]}')
        assert code == 1 and '"exponents" or a "diagonal" field, not both' in err

    def test_payload_from_file(self, capsys, tmp_path):
        path = tmp_path / "gate.json"
        path.write_text('{"k":1,"exponents":[0,1]}')
        code, out, _ = run(capsys, "synth", str(path))
        assert code == 0
        assert json.loads(out)["R"] == [[1]]


class TestConjugate:
    def test_single_step(self, capsys):
        code, out, _ = run(
            capsys,
            "conjugate",
            "--gate",
            '{"m":1,"k":3,"R":[[1]]}',
            "--pauli",
            '{"a":[1],"b":[0]}',
        )
        assert code == 0
        assert json.loads(out) == {
            "phi": 7,
            "label": {"a": [1], "b": [1]},
            "R_tilde": [[1]],
            "k_next": 2,
        }

    def test_z_type_unchanged(self, capsys):
        code, out, _ = run(
            capsys,
            "conjugate",
            "--gate",
            '{"m":2,"k":3,"R":[[1,2],[2,3]]}',
            "--pauli",
            '{"a":[0,0],"b":[1,1]}',
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["phi"] == 0
        assert payload["label"] == {"a": [0, 0], "b": [1, 1]}
        assert payload["R_tilde"] == [[0, 0], [0, 0]]

    def test_trace(self, capsys):
        code, out, _ = run(
            capsys,
            "conjugate",
            "--gate",
            '{"m":1,"k":3,"R":[[1]]}',
            "--pauli",
            '{"a":[1],"b":[0]}',
            "--trace",
        )
        assert code == 0
        steps = json.loads(out)["steps"]
        assert [s["level"] for s in steps] == [3, 2, 1]
        assert [s["form_level"] for s in steps] == [3, 2, 1]
        assert steps[0]["phi"] == 7
        assert steps[-1]["k_next"] == 0

    def test_dimension_mismatch(self, capsys):
        code, _, err = run(
            capsys,
            "conjugate",
            "--gate",
            '{"m":1,"k":3,"R":[[1]]}',
            "--pauli",
            '{"a":[1,0],"b":[0,0]}',
        )
        assert code == 1 and "mismatch" in err

    def test_missing_field_is_named(self, capsys):
        code, _, err = run(capsys, "conjugate", "--gate", '{"m":1,"k":3,"R":[[1]]}',
                           "--pauli", '{"a":[1]}')
        assert code == 1 and err == "error: missing field 'b'\n"


class TestTable:
    def test_row_count_and_entries(self, capsys):
        code, out, _ = run(capsys, "table", "--json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 14
        byname = {r["name"]: r for r in rows}
        assert byname["T"]["R"] == [[1]]
        assert byname["CZ"]["R"] == [[0, 2], [2, 0]]
        assert byname["CZ"]["exponents"] == [0, 0, 0, 4]
        assert byname["CP"]["exponents"] == [0, 0, 0, 2]
        levels = {name: row["form_level"] for name, row in byname.items()}
        assert [levels[name] for name in ("T", "P", "Z", "CZ", "CP")] == [3, 2, 1, 2, 3]

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "table")
        assert code == 0
        assert len(out.strip().splitlines()) == 14
        assert "     T  k=3  level=3  R=[[1]]  exponents=[0, 1]" in out.splitlines()


class TestCount:
    def test_formula_values(self, capsys):
        for m, k, want in [(1, 1, 2), (2, 2, 32), (3, 3, 32768)]:
            code, out, _ = run(capsys, "count", "--m", str(m), "--k", str(k), "--json")
            assert code == 0
            assert json.loads(out)["order"] == want

    def test_enumeration_cross_check(self, capsys):
        code, out, _ = run(capsys, "count", "--m", "2", "--k", "2", "--enumerate", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["enumerated"] == payload["order"] == 32

    def test_enumeration_guard(self, capsys):
        code, _, err = run(capsys, "count", "--m", "4", "--k", "4", "--enumerate")
        assert code == 1 and "guard" in err


class TestVerify:
    def test_default_small_pass(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--m", "1", "--k", "3", "--samples", "5", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["max_deviation"] < 1e-8

    def test_injected_phase_error_is_caught(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--m",
            "1",
            "--k",
            "3",
            "--samples",
            "10",
            "--inject-phase-error",
            "--json",
        )
        assert code == 1
        payload = json.loads(out)
        failing = [c for c in payload["checks"] if not c["passed"]]
        assert failing and failing[0]["detail"]  # counterexample located

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_injected_phase_error_fails_at_every_level(self, capsys, m, k):
        code, out, _ = run(capsys, "verify", "--m", str(m), "--k", str(k), "--samples", "2",
                           "--inject-phase-error", "--json")
        failing = [c["name"] for c in json.loads(out)["checks"] if not c["passed"]]
        assert code == 1 and failing == [f"conjugation-exactness(m={m},k={k})"]

    def test_guard_upper_edge_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--m", "4", "--k", "3", "--samples", "2", "--json")
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert code == 0 and checks["conjugation-exactness(m=4,k=3)"]["checked"] == 512

    def test_guard(self, capsys):
        for m in ("5", "0", "-1"):
            code, _, err = run(capsys, "verify", "--m", m)
            assert code == 1 and "verification guard: m must be in 1..4" in err
        for samples in ("0", "-3"):
            code, out, err = run(capsys, "verify", "--m", "1", "--k", "3", "--samples", samples)
            assert code == 1 and "verification guard: samples must be >= 1" in err
            assert "all checks passed" not in out
        # the level is refused before any check runs, so nothing is printed
        for k in ("0", "17"):
            code, out, err = run(capsys, "verify", "--m", "1", "--k", k)
            assert code == 1 and f"verification guard: level k={k} outside [1, 16]" in err
            assert out == ""

    def test_deterministic_given_seed(self, capsys):
        _, out1, _ = run(capsys, "verify", "--m", "1", "--k", "2", "--samples", "5", "--seed", "7", "--json")
        _, out2, _ = run(capsys, "verify", "--m", "1", "--k", "2", "--samples", "5", "--seed", "7", "--json")
        assert out1 == out2


class TestComposition:
    def test_tensor(self, capsys):
        code, out, _ = run(
            capsys,
            "tensor",
            "--g1",
            '{"m":1,"k":3,"R":[[2]]}',
            "--g2",
            '{"m":1,"k":3,"R":[[0]]}',
        )
        assert code == 0
        assert json.loads(out) == {"m": 2, "k": 3, "R": [[2, 0], [0, 0]]}

    def test_tensor_level_error(self, capsys):
        code, _, err = run(
            capsys,
            "tensor",
            "--g1",
            '{"m":1,"k":2,"R":[[1]]}',
            "--g2",
            '{"m":1,"k":3,"R":[[1]]}',
        )
        assert code == 1 and "level" in err

    def test_add(self, capsys):
        code, out, _ = run(
            capsys,
            "add",
            "--g1",
            '{"m":1,"k":3,"R":[[1]]}',
            "--g2",
            '{"m":1,"k":3,"R":[[1]]}',
        )
        assert code == 0
        assert json.loads(out)["R"] == [[2]]

    def test_add_mismatch(self, capsys):
        code, _, err = run(
            capsys,
            "add",
            "--g1",
            '{"m":1,"k":3,"R":[[1]]}',
            "--g2",
            '{"m":1,"k":2,"R":[[1]]}',
        )
        assert code == 1 and "mismatched" in err

    def test_gamma(self, capsys):
        code, out, _ = run(capsys, "gamma", '{"m":1,"k":3,"R":[[1]]}')
        assert code == 0
        payload = json.loads(out)
        assert payload["Gamma"] == [[1, 1], [0, 1]]
        assert payload["symplectic_mod2_ok"] is True


class TestStrictIntegers:
    """Fractional and boolean entries exit 1 instead of being truncated."""

    def test_fractional_form_entry(self, capsys):
        code, out, err = run(
            capsys, "add", "--g1", '{"m":1,"k":3,"R":[[1.7]]}', "--g2", '{"m":1,"k":3,"R":[[0]]}'
        )
        assert code == 1 and out == ""
        assert "expected an integer, got 1.7" in err

    def test_fractional_exponent(self, capsys):
        code, out, err = run(capsys, "synth", '{"k":3,"exponents":[0,1.5]}')
        assert code == 1 and out == ""
        assert "expected an integer, got 1.5" in err

    def test_fractional_and_boolean_pauli_entries(self, capsys):
        gate = '{"m":1,"k":3,"R":[[1]]}'
        code, out, err = run(capsys, "conjugate", "--gate", gate, "--pauli", '{"a":[1.9],"b":[true]}')
        assert code == 1 and out == ""
        assert "expected an integer, got 1.9" in err
        code, out, err = run(capsys, "conjugate", "--gate", gate, "--pauli", '{"a":[1],"b":[true]}')
        assert code == 1 and out == ""
        assert "expected an integer, got True" in err


def test_round_trip_synth_of_conjugate_residual(capsys):
    # residual from the conjugation output feeds straight back into synth
    code, out, _ = run(
        capsys,
        "conjugate",
        "--gate",
        '{"m":1,"k":3,"R":[[1]]}',
        "--pauli",
        '{"a":[1],"b":[0]}',
    )
    step = json.loads(out)
    payload = {"k": step["k_next"], "exponents": [0, step["R_tilde"][0][0]]}
    code, out, _ = run(capsys, "synth", json.dumps(payload))
    assert code == 0
    assert json.loads(out)["R"] == step["R_tilde"]
