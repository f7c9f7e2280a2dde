import csv
import io
import json
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from chaoskit.chaos import moment_via_expansion
from chaoskit.cli import main
from chaoskit.config import entry_budget, set_thread_count, thread_override
from chaoskit.kernels import kernel_to_json, new_kernel, symmetrize
from chaoskit.moments import classical_moment, wick_oracle_moment
from chaoskit import verify
from chaoskit.verify import _random_symmetric


@pytest.fixture
def pair_file(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(kernel_to_json(new_kernel(2, 2, [0, 1, 1, 0]), "classical"))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, (json.loads(out) if out.strip().startswith("{") else None)


def parse_csv(text):
    data_lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(data_lines))))


def manifest_lines(text):
    return [ln for ln in text.splitlines() if ln.startswith("#")]


def test_moment_family_free_constant(capsys):
    code, obj = run_json(
        capsys, "moment", "--family", "constant_hermite", "--p", "2",
        "--model", "free", "--k", "4",
    )
    assert code == 0
    assert obj["report"]["value"] == "3/1"
    assert obj["manifest"]["command"] == "moment"


def test_moment_pair_file(capsys, pair_file):
    code, obj = run_json(capsys, "moment", pair_file, "--k", "4")
    assert code == 0
    assert obj["report"]["value"] == "9/1"
    assert obj["report"]["model"] == "classical"


def test_moment_gaussian_eighth(capsys):
    code, obj = run_json(
        capsys, "moment", "--family", "constant_hermite", "--p", "1",
        "--model", "classical", "--k", "8",
    )
    assert code == 0
    assert obj["report"]["value"] == "105/1"


def test_moment_paths_agree(capsys, pair_file):
    values = []
    for path in ("formula", "expansion", "oracle"):
        code, obj = run_json(capsys, "moment", pair_file, "--k", "4",
                             "--path", path)
        assert code == 0
        values.append(obj["report"]["value"])
    assert values == ["9/1"] * 3


def test_fourth_check_pair(capsys, pair_file):
    code, obj = run_json(capsys, "fourth-check", pair_file)
    assert code == 0
    rep = obj["report"]
    assert rep["gap"] == "6/1"
    assert rep["residue"] == "0/1"
    assert rep["profile_sq"] == ["1/8"]


def test_fourth_check_free_normalized(capsys, pair_file):
    code, obj = run_json(capsys, "fourth-check", pair_file, "--model", "free",
                         "--normalize")
    assert code == 0
    assert obj["report"]["gap"] == "1/2"
    assert obj["report"]["moment"] == "5/2"


def test_fourth_check_unnormalized_is_precondition_error(capsys, tmp_path):
    path = tmp_path / "ones2.json"
    path.write_text(kernel_to_json(new_kernel(2, 1, [1]), "classical"))
    code, _ = run(capsys, "fourth-check", str(path))
    assert code == 4


def test_fourth_check_free_unnormalized_is_precondition_error(capsys, tmp_path):
    path = tmp_path / "twos2.json"
    path.write_text(kernel_to_json(new_kernel(2, 1, [2]), "free"))
    for mode in ("exact", "float"):
        code, _ = run(capsys, "fourth-check", str(path), "--mode", mode)
        assert code == 4


@pytest.mark.parametrize("model", ["classical", "free"])
@pytest.mark.parametrize("mode", ["exact", "float"])
def test_moment_first_order(capsys, tmp_path, pair_file, model, mode):
    # an m=1 kernel is one cell, so at k=1 even p=70, past numpy's axis
    # cap, needs no axis per slot
    p70 = tmp_path / "p70.json"
    p70.write_text(kernel_to_json(new_kernel(70, 1, [1]), model))
    for kern in (pair_file, str(p70)):
        for path in ("formula", "expansion"):
            code, obj = run_json(capsys, "moment", kern, "--k", "1", "--model",
                                 model, "--mode", mode, "--path", path)
            assert code == 0
            expect = "0/1" if mode == "exact" else 0.0
            assert obj["report"]["value"] == expect
            assert obj["report"]["value_float"] == 0.0


def test_index_sets_counts(capsys):
    code, out = run(capsys, "index-sets", "--p", "2", "--k", "4", "--class", "C")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 2
    assert rows[0]["r"] == "0|2|2" and rows[0]["classical_coeff"] == "24"
    assert rows[0]["limit_value"] == "1/12"
    code, out = run(capsys, "index-sets", "--p", "3", "--k", "6", "--class", "C")
    assert len(parse_csv(out)) == 5
    # parity empties B_k when k*p is odd
    code, out = run(capsys, "index-sets", "--p", "1", "--k", "3", "--class", "B")
    assert parse_csv(out) == []


def test_index_sets_past_budget_exits_3_before_enumerating(capsys):
    # Cat_20 rows: counted from the rank tables, never built
    code = main(["index-sets", "--p", "2", "--k", "40", "--class", "C"])
    assert code == 3
    assert ("class C at p=2, k=40 has 6564120420 rank tuples, exceeding the budget "
            "of 10000000") in capsys.readouterr().err


def test_index_sets_budget_caps_listed_tuples(capsys):
    code, out = run(capsys, "index-sets", "--p", "2", "--k", "12", "--class", "B")
    assert code == 0 and len(parse_csv(out)) == 4213
    code, out = run(capsys, "index-sets", "--p", "2", "--k", "12", "--class", "B",
                    "--budget", "4213")
    assert code == 0 and len(parse_csv(out)) == 4213
    assert main(["index-sets", "--p", "2", "--k", "12", "--class", "B",
                 "--budget", "4212"]) == 3


@pytest.mark.parametrize("argv", [
    ["--p", "2000", "--k", "2", "--class", "B"],
    ["--p", "2000", "--k", "2", "--class", "B", "--json"],
    ["--p", "1500", "--k", "4", "--class", "C"],
])
def test_index_sets_weight_past_digit_cap_exits_3(capsys, argv):
    # r! C(p, r)^2 at r near p/2 passes Python's 4300-digit cap for an int
    # in text, in a CSV cell or a JSON number
    code = main(["index-sets", *argv])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("error (budget): integer value has more than")
    assert "float mode" not in captured.err


def test_index_sets_schema_header(capsys):
    _, out = run(capsys, "index-sets", "--p", "2", "--k", "4", "--class", "B")
    assert any("chaoskit.index_sets.v1" in ln for ln in manifest_lines(out))


def test_converge_free_table(capsys):
    code, out = run(capsys, "converge", "--n", "1,2,4", "--model", "free",
                    "--kmax", "4")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 9
    for row in rows:
        if int(row["k"]) == 4:
            assert Fraction(row["ck_sum"]) == 2
            assert float(row["moment"]) == pytest.approx(
                2 + 1 / (2 * int(row["n"])), rel=1e-9
            )


def test_converge_reproducible_payload(capsys):
    _, out1 = run(capsys, "converge", "--n", "1,2", "--model", "classical",
                  "--kmax", "4")
    _, out2 = run(capsys, "converge", "--n", "1,2", "--model", "classical",
                  "--kmax", "4")
    payload1 = [ln for ln in out1.splitlines() if not ln.startswith("#")]
    payload2 = [ln for ln in out2.splitlines() if not ln.startswith("#")]
    assert payload1 == payload2


def test_converge_json_flag(capsys):
    code, obj = run_json(capsys, "converge", "--n", "1", "--model", "free",
                         "--kmax", "3", "--json")
    assert code == 0
    assert obj["manifest"]["schema"] == "chaoskit.converge.v1"
    assert len(obj["report"]["rows"]) == 2


def test_simulate_classical(capsys, pair_file):
    code, obj = run_json(capsys, "simulate", pair_file, "--k", "4",
                         "--samples", "200000", "--seed", "20260808")
    assert code == 0
    rep = obj["report"]
    assert rep["target"] == 9.0
    assert abs(rep["z_score"]) < 4
    assert obj["manifest"]["rng_algorithm"].startswith("philox4x64")


def test_simulate_free(capsys, pair_file):
    code, obj = run_json(capsys, "simulate", pair_file, "--model", "free",
                         "--normalize", "--k", "4", "--samples", "30",
                         "--seed", "5", "--dim", "60")
    assert code == 0
    assert abs(obj["report"]["estimate"] - 2.5) < 0.2


@pytest.mark.parametrize("model", ["classical", "free"])
@pytest.mark.parametrize("mode", [None, "exact", "float"])
def test_simulate_manifest_mode_is_float(capsys, pair_file, model, mode):
    argv = ["simulate", pair_file, "--model", model, "--k", "3",
            "--samples", "1000", "--seed", "1", "--dim", "8"]
    code, obj = run_json(capsys, *argv, *(["--mode", mode] if mode else []))
    assert code == 0
    with open(pair_file) as fh:
        assert json.load(fh)["mode"] == "exact"
    assert obj["manifest"]["mode"] == "float"  # the samplers run on as_float
    assert obj["manifest"]["args"].get("mode") == mode
    assert isinstance(obj["report"]["estimate"], float)


def test_simulate_free_needs_dim(capsys, pair_file):
    code, _ = run(capsys, "simulate", pair_file, "--model", "free",
                  "--normalize", "--k", "4", "--samples", "5", "--seed", "1")
    assert code == 2


def test_exit_code_missing_file(capsys):
    code, _ = run(capsys, "moment", "nope.json", "--k", "4")
    assert code == 2


def test_exit_code_corrupt_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"p": 2, "m": 2')
    code, _ = run(capsys, "moment", str(path), "--k", "4", "--model",
                  "classical")
    assert code == 2


def test_exit_code_budget(capsys, pair_file):
    code, _ = run(capsys, "moment", pair_file, "--k", "6", "--path",
                  "expansion", "--budget", "8")
    assert code == 3


@pytest.mark.parametrize("p, mode, model, k, reason", [
    (10**12, "float", "classical", 2, "entries"),  # an order past the budget
    (100000, "float", "classical", 2, "axes"),
    (70, "exact", "free", 2, "axes"),
])
def test_exit_code_order_past_axis_cap(capsys, tmp_path, p, mode, model, k, reason):
    d = {"model": model, "p": p, "m": 1, "mode": mode, "coeffs": [1]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(d))
    code = main(["moment", str(path), "--k", str(k)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error (budget):") and reason in err


def test_classical_blocks_past_axis_cap_answer_on_every_path(capsys, tmp_path):
    # at p = 32, k = 6 the classical chain builds a block of order 92; only
    # the kernel's own order needs one numpy axis per slot
    d = {"model": "classical", "p": 32, "m": 1, "mode": "float", "coeffs": [1]}
    path = tmp_path / "p32.json"
    path.write_text(json.dumps(d))
    code, obj = run_json(capsys, "moment", str(path), "--k", "6")
    f = new_kernel(32, 1, [1])
    want = Fraction(classical_moment(f, 6))
    assert want == Fraction(wick_oracle_moment(f, 6))
    assert want == Fraction(moment_via_expansion(f, 6, "classical"))
    assert code == 0 and math.isclose(obj["report"]["value"], float(want), rel_tol=1e-12)


@pytest.mark.parametrize("field, value", [
    ("coeffs", 5),
    ("scale_sq", "abc"),
    ("p", 2.7),
])
def test_exit_code_ill_typed_kernel_json(capsys, tmp_path, field, value):
    d = {"model": "classical", "p": 2, "m": 2, "mode": "exact",
         "coeffs": ["0/1", "1/1", "1/1", "0/1"], field: value}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    code = main(["moment", str(path), "--k", "4"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error (input):") and "Traceback" not in err


@pytest.mark.parametrize("flag, value", [
    ("--budget", "0"),
    ("--budget", "-5"),
    ("--threads", "0"),
])
def test_exit_code_nonpositive_caps(capsys, pair_file, flag, value):
    before = entry_budget()
    code = main(["moment", pair_file, "--k", "4", flag, value])
    assert code == 2
    assert capsys.readouterr().err.startswith("error (input):")
    assert entry_budget() == before


def test_main_restores_thread_override(capsys, pair_file):
    set_thread_count(3)
    try:
        assert main(["moment", pair_file, "--k", "4", "--threads", "2"]) == 0
        assert thread_override() == 3
        assert main(["moment", pair_file, "--k", "4"]) == 0
        assert thread_override() == 3
    finally:
        set_thread_count(None)


def test_oracle_answers_what_fits_the_work_bound(capsys, pair_file):
    code, obj = run_json(capsys, "moment", pair_file, "--k", "100", "--path", "oracle")
    assert code == 0
    assert obj["report"]["value"] == f"{math.prod(range(1, 100, 2)) ** 2}/1"


def _fail(*args):
    raise AssertionError("stage ran past the work bound")


@pytest.mark.parametrize("p, m, k", [
    (100000, 1, 1),  # the He_p table alone
    (1, 2000, 2),  # the square: 2001000 keys of 2000 exponents
    (1, 100000, 1),  # F's polynomial: 10^5 keys of 10^5 exponents
    (2, 12, 6),  # a random p = 2, m = 12 kernel
])
def test_exit_code_oracle_past_work_bound(capsys, monkeypatch, tmp_path, p, m, k):
    from chaoskit import moments

    for name in ("_hermite_coeffs", "_gauss_polynomial", "_poly_mul"):
        monkeypatch.setattr(moments, name, _fail)  # the bound is checked first
    if m == 12:
        f = _random_symmetric(np.random.default_rng(4), 2, 12)
    else:
        f = new_kernel(p, m, [1.0] * m**p, mode="float" if m > 1 else "exact")
    path = tmp_path / "kernel.json"
    path.write_text(kernel_to_json(f, "classical"))
    code = main(["moment", str(path), "--k", str(k), "--path", "oracle"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error (budget): Wick oracle")


@pytest.mark.parametrize("command, call, argv", [
    ("moment", "compute_moment", ["--k", "14"]),
    ("simulate", "mc_classical_moment", ["--k", "4", "--samples", "10", "--seed", "1"]),
])
def test_out_of_memory_exits_3_with_one_line(capsys, monkeypatch, pair_file,
                                             command, call, argv):
    from chaoskit import cli

    def _exhaust(*args):
        raise MemoryError

    monkeypatch.setattr(cli, call, _exhaust)
    code = main([command, pair_file, *argv])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == "error (budget): out of memory\n"
    assert captured.out == ""


def test_symmetrized_float_kernel_file_is_symmetric(capsys, tmp_path):
    coeffs = np.random.default_rng(11).standard_normal(256).tolist()
    path = tmp_path / "sym.json"
    path.write_text(kernel_to_json(
        symmetrize(new_kernel(4, 4, coeffs, mode="float")), "classical"))
    code, _ = run(capsys, "moment", str(path), "--k", "2", "--path", "oracle")
    assert code == 0
    code, _ = run(capsys, "simulate", str(path), "--k", "2", "--samples", "1000",
                  "--seed", "1")
    assert code == 0


def test_exit_code_precondition(capsys, tmp_path):
    path = tmp_path / "asym.json"
    path.write_text(kernel_to_json(new_kernel(2, 2, [0, 1, 0, 0]), "free"))
    code, _ = run(capsys, "moment", str(path), "--k", "4")
    assert code == 4


@pytest.mark.parametrize("argv", [
    ["moment", "{float}", "--k", "2", "--mode", "exact"],
    ["moment", "--family", "pair_clt", "--n", "2", "--k", "2"],
    ["moment", "--k", "2"],
    ["moment", "{pair}", "--k", "0"],
    ["converge", "--n", "1,x", "--model", "classical"],
    ["converge", "--n", ",", "--model", "classical"],
])
def test_exit_code_invalid_request(capsys, tmp_path, pair_file, argv):
    float_file = tmp_path / "float.json"
    float_file.write_text(kernel_to_json(new_kernel(2, 2, [0.0, 1.0, 1.0, 0.0],
                                                    mode="float"), "classical"))
    paths = {"{pair}": pair_file, "{float}": str(float_file)}
    code = main([paths.get(a, a) for a in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error (input):")


def test_converge_requires_model():
    with pytest.raises(SystemExit) as exc:
        main(["converge", "--n", "1,2"])
    assert exc.value.code == 2


def test_exit_code_unknown_flag(pair_file):
    with pytest.raises(SystemExit) as exc:
        main(["moment", pair_file, "--k", "4", "--frobnicate"])
    assert exc.value.code == 2


def test_exit_code_bad_seed_type(pair_file):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", pair_file, "--k", "4", "--samples", "10",
              "--seed", "abc"])
    assert exc.value.code == 2


def test_out_file(capsys, tmp_path, pair_file):
    target = tmp_path / "report.json"
    code = main(["moment", pair_file, "--k", "4", "--out", str(target)])
    assert code == 0
    obj = json.loads(target.read_text())
    assert obj["report"]["value"] == "9/1"


def test_verify_command(capsys):
    code, out = run(capsys, "verify")
    assert code == 0
    assert "invariants passed" in out
    assert "FAIL" not in out


def test_verify_json_lists_every_check(capsys):
    code, obj = run_json(capsys, "verify", "--json")
    assert code == 0
    assert obj["manifest"]["command"] == "verify"
    assert obj["report"]["checks"] == [
        {"name": name, "passed": True, "detail": ""} for name, _ in verify.CHECKS
    ]
    assert obj["report"]["passed"] is True


def test_verify_reports_a_failing_check(capsys, monkeypatch):
    def boom():
        raise AssertionError("boom")

    checks = list(verify.CHECKS)
    name = checks[4][0]
    checks[4] = (name, boom)
    monkeypatch.setattr(verify, "CHECKS", checks)
    code, out = run(capsys, "verify")
    assert code == 5
    assert f"FAIL {name}: AssertionError: boom" in out.splitlines()
    assert out.endswith("14/15 invariants passed\n")
    code, obj = run_json(capsys, "verify", "--json")
    assert code == 5
    assert obj["report"]["checks"][4] == {
        "name": name, "passed": False, "detail": "AssertionError: boom",
    }
    assert obj["report"]["passed"] is False


def test_moment_float_order_past_factorial_range(capsys, tmp_path):
    # 200! passes binary64, so the normalization check compares exactly
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"p": 200, "m": 1, "mode": "float", "coeffs": [1.0]}))
    code, obj = run_json(capsys, "moment", str(path), "--k", "1", "--model", "classical")
    assert code == 0
    assert obj["report"]["value"] == 0.0 and obj["report"]["target"] is None


@pytest.mark.parametrize("coeff, want", [
    (1.0, math.inf),
    (0.0, 0.0),
    (1e-100, math.factorial(200) / 10**200),  # 200! * 1e-200 fits binary64
])
def test_float_expansion_past_factorial_range(capfd, tmp_path, coeff, want):
    # the product formula scales by 200!, which passes binary64
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"p": 200, "m": 1, "mode": "float", "coeffs": [coeff]}))
    code = main(["moment", str(path), "--k", "2", "--path", "expansion",
                 "--model", "classical"])
    out, err = capfd.readouterr()
    assert code == 0 and err == ""
    assert math.isclose(json.loads(out)["report"]["value"], want, rel_tol=1e-12)


@pytest.mark.parametrize("argv", [
    ["simulate", "--k", "2", "--samples", "1000", "--seed", "1"],
    ["fourth-check"],
])
def test_float_variance_past_binary64_exits_2(capsys, tmp_path, argv):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"model": "classical", "p": 2, "m": 2, "mode": "float",
                                "coeffs": [1e200] * 4}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflowing sum is +-inf, silently
        code = main([argv[0], str(path), "--normalize", *argv[1:]])
    assert code == 2
    assert capsys.readouterr().err == (
        "error (input): the variance passes the binary64 range; use exact mode\n"
    )


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_boolean_coefficients_exit_2(capsys, tmp_path, mode):
    # JSON true/false are Python bools, which int and float would take as 1/0
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({"model": "classical", "p": 1, "m": 2, "mode": mode,
                                "coeffs": [True, False]}))
    code = main(["moment", str(path), "--k", "2"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error (input): kernel JSON 'coeffs' must be numbers, not booleans\n"
    )


def test_boolean_scale_sq_exits_2(capsys, tmp_path):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({"model": "classical", "p": 1, "m": 2, "mode": "exact",
                                "coeffs": [1, 0], "scale_sq": True}))
    code = main(["moment", str(path), "--k", "2"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error (input): kernel JSON 'scale_sq' must be a number, not a boolean\n"
    )


def test_family_past_budget_exits_3_before_building(capsys):
    # 1.6e7 coefficients: the budget refuses them before any list exists
    tracemalloc.start()
    try:
        code = main(["moment", "--family", "pair_clt", "--n", "2000", "--model", "free",
                     "--k", "2"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and peak < 2**20, peak
    assert capsys.readouterr().err == (
        "error (budget): tensor of order 2 needs 16000000 entries, exceeding the "
        "budget of 10000000\n"
    )


@pytest.mark.parametrize("path, code, value", [
    ("formula", 0, math.inf),
    ("expansion", 0, math.inf),
    ("oracle", 3, None),
], ids=["formula", "expansion", "oracle"])
def test_float_overflow_is_inf_or_exits_3_without_warnings(capfd, tmp_path, path, code,
                                                           value):
    # the fourth moment of this kernel passes binary64; the oracle's sum of
    # opposite infinities is nan, which no document may carry
    kernel = tmp_path / "huge.json"
    kernel.write_text(json.dumps({"model": "classical", "p": 2, "m": 2, "mode": "float",
                                  "coeffs": [1e200, -1e200, -1e200, 1e200]}))
    assert main(["moment", str(kernel), "--k", "4", "--path", path]) == code
    out, err = capfd.readouterr()
    if value is None:
        assert out == ""
        assert err == ("error (budget): a float result passes the binary64 range "
                       "(nan); use exact mode\n")
    else:
        assert err == "" and json.loads(out)["report"]["value"] == value


def test_fourth_check_symmetrizes_once_per_kernel(capsys, monkeypatch):
    import chaoskit.kernels as kernels
    import chaoskit.moments as moments

    orders = []
    sym_array = kernels._sym_array

    def counting(nums, factor, p, m):
        orders.append(p)
        return sym_array(nums, factor, p, m)

    monkeypatch.setattr(kernels, "_sym_array", counting)
    monkeypatch.setattr(moments, "_sym_array", counting)
    code, obj = run_json(capsys, "fourth-check", "--family", "pair_clt", "--n", "4",
                         "--model", "classical")
    assert code == 0 and obj["report"]["identity"] == obj["report"]["moment"]
    # the CLI's sym(f), the chain's sym(f) and its three fused blocks, one
    # normalization check, sym(f ox_1 f) for the profile and sym(f ox f)
    assert orders == [2] * 7 + [4]
