"""Property test: `moment`, `fourth-check` and `simulate` answer any kernel
JSON with exit code 0, 2, 3 or 4 and never with a traceback (exit 1) or a
warning (Tier-1 turns warnings into errors)."""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from chaoskit.cli import main  # noqa: E402

HUGE = 10**320  # past binary64

def fraction_text(min_den: int = 1):
    return st.builds(lambda n, d: f"{n}/{d}", st.integers(-HUGE, HUGE),
                     st.integers(min_den, HUGE))


number = st.one_of(st.integers(-4, 4), fraction_text(), st.integers(-HUGE, HUGE),
                   st.floats(allow_nan=False, allow_infinity=False))
junk = st.one_of(fraction_text(min_den=0), st.floats(),
                 st.sampled_from([None, True, "abc", [1], {}]))


@st.composite
def kernel_json(draw):
    """A well-formed kernel, with one field made malformed or oversized
    about half the time."""
    p, m = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    mode = draw(st.sampled_from(["exact", "float"]))
    entry = number if mode == "exact" else st.one_of(
        st.integers(-(10**300), 10**300),
        st.floats(allow_nan=False, allow_infinity=False))
    d = {"p": p, "m": m, "mode": mode,
         "model": draw(st.sampled_from(["classical", "free"])),
         "coeffs": draw(st.lists(entry, min_size=m**p, max_size=m**p))}
    if draw(st.booleans()):
        d["scale_sq"] = draw(st.one_of(fraction_text(), st.integers(1, HUGE)))
    field = draw(st.sampled_from([None] * 6 + list(d) + ["scale_sq"]))
    if field is not None:
        d[field] = draw(st.one_of(
            junk, st.sampled_from([-1, 0, 200, 10**12, 2.5, "2", "fixed", "wiener"]),
            st.lists(st.one_of(number, junk), max_size=4)))
    return d


command = st.one_of(
    st.tuples(st.just("moment"), st.sampled_from(["--k"]),
              st.integers(1, 5).map(str),
              st.sampled_from(["formula", "expansion", "oracle"])).map(
        lambda t: [t[0], t[1], t[2], "--path", t[3]]),
    st.sampled_from([["fourth-check"], ["fourth-check", "--normalize"]]),
    st.tuples(st.integers(1, 5).map(str), st.sampled_from([[], ["--normalize"]]),
              st.sampled_from([["--model", "classical"],
                               ["--model", "free", "--dim", "4"]])).map(
        lambda t: ["simulate", "--k", t[0], "--samples", "3", "--seed", "1",
                   *t[1], *t[2]]),
)
options = st.lists(st.sampled_from([["--model", "classical"], ["--model", "free"],
                                    ["--mode", "float"], ["--mode", "exact"]]),
                   max_size=2)


@settings(max_examples=100, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kernel=kernel_json(), cmd=command, extra=options)
# values past binary64: the float moment, the float kernel, p! in float mode
@example(kernel={"p": 1, "m": 1, "mode": "exact", "model": "classical",
                 "coeffs": [str(HUGE)]}, cmd=["moment", "--k", "2"], extra=[])
@example(kernel={"p": 1, "m": 2, "mode": "exact", "model": "free",
                 "coeffs": [str(HUGE), "1/3"]}, cmd=["fourth-check"],
         extra=[["--mode", "float"]])
@example(kernel={"p": 200, "m": 1, "mode": "float", "model": "classical",
                 "coeffs": [1.0]}, cmd=["fourth-check", "--normalize"], extra=[])
# float sums past binary64 are +-inf without warnings; the oracle's inf - inf
@example(kernel={"p": 2, "m": 2, "mode": "float", "model": "classical",
                 "coeffs": [1e200, -1e200, -1e200, 1e200]},
         cmd=["moment", "--k", "4", "--path", "oracle"], extra=[])
# a tiny coefficient under a huge irrational scale: sqrt 2 in binary64
@example(kernel={"p": 2, "m": 1, "mode": "exact", "model": "classical",
                 "coeffs": [f"1/{10**200}"], "scale_sq": str(2 * 10**400)},
         cmd=["moment", "--k", "3", "--path", "formula"], extra=[["--mode", "float"]])
# float results past binary64 in symmetrize, in a p = 0 power, and in the
# classical sampler's powers and the GUE traces
@example(kernel={"p": 2, "m": 2, "mode": "float", "model": "classical",
                 "coeffs": [0, 1e308, 1e308, 0]}, cmd=["moment", "--k", "4"], extra=[])
@example(kernel={"p": 0, "m": 1, "mode": "float", "model": "free", "coeffs": [1e200]},
         cmd=["moment", "--k", "4"], extra=[])
@example(kernel={"p": 2, "m": 2, "mode": "float", "model": "classical",
                 "coeffs": [0, 1e200, 1e200, 0]},
         cmd=["simulate", "--k", "4", "--samples", "3", "--seed", "1"], extra=[])
@example(kernel={"p": 0, "m": 1, "mode": "float", "model": "free", "coeffs": [1e200]},
         cmd=["simulate", "--k", "4", "--samples", "3", "--seed", "1", "--dim", "4"],
         extra=[])
def test_cli_never_exits_with_a_traceback(tmp_path, kernel, cmd, extra):
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps(kernel))
    argv = [cmd[0], str(path), *cmd[1:], *[a for opt in extra for a in opt]]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3, 4), argv

