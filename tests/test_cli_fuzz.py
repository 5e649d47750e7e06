"""Drawn argv through every subcommand of the in-process CLI.

Every run must end in one of the documented exits (0, 1 or 2, with
argparse's usage errors as SystemExit(2)) and no other exception may
escape cli.main.  Lengths stay small enough that each run is quick;
lengths just under the 2^31 modulus cap can still run for a long time
and are left out.
"""

import contextlib
import io
import json
import sys

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from constacyclic.cli import main

SUBCOMMANDS = ("exists", "split", "verify", "code", "dual", "iso", "mds", "atlas")
Q = st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 0, 1, -7, 6, 2**61 - 1])
N = st.one_of(st.integers(-3, 80), st.sampled_from([2**31 + 11, 2**64]))
EXTENSIONS = {4: (2, 2), 8: (2, 3), 9: (3, 2), 16: (2, 4)}  # q: (p, k)
TOKENS = st.sampled_from(["1", "2", "0", "-1", "0 1", "1 1", "0 0 1", "1 0 1 1"])
RESIDUES = st.one_of(
    st.just(""),
    st.lists(st.integers(-5, 400), max_size=6).map(
        lambda xs: ",".join(map(str, xs))
    ),
)
EXPONENT = st.one_of(st.integers(-5, 400), st.just(2**64))


def lambda_text(draw, q):
    """Mostly a nonzero element of GF(q) as text, else any short token."""
    if draw(st.booleans()):
        return draw(st.one_of(TOKENS, st.text(max_size=4)))
    p, k = EXTENSIONS.get(q, (q if q > 1 else 17, 1))
    coords = [draw(st.integers(1, p - 1))]
    coords += [draw(st.integers(0, p - 1)) for _ in range(k - 1)]
    return " ".join(map(str, coords))


@st.composite
def invocations(draw):
    """An argv for one subcommand and the text verify reads on stdin."""
    cmd = draw(st.sampled_from(SUBCOMMANDS))
    argv, stdin = [cmd], ""
    if cmd == "verify":
        stdin = draw(
            st.one_of(
                st.text(max_size=20),
                st.dictionaries(
                    st.sampled_from(["q", "n", "lambda", "s", "P", "sP"]),
                    st.one_of(st.integers(-3, 80), st.text(max_size=3)),
                ).map(json.dumps),
            )
        )
    elif cmd == "atlas":
        argv += ["--max-q", str(draw(st.integers(-7, 16)))]
        argv += ["--max-n", str(draw(st.integers(-3, 80)))]
    elif cmd == "mds":
        q = draw(Q)
        argv += ["--q", str(q)]
        if draw(st.booleans()):
            argv += ["--lambda", lambda_text(draw, q)]
    else:
        q = draw(Q)
        argv += ["--q", str(q), "--n", str(draw(N))]
        argv += ["--lambda", lambda_text(draw, q)]
        if cmd in ("code", "dual", "iso"):
            argv += ["--P", draw(RESIDUES)]
            if draw(st.booleans()):
                argv += ["--t", str(draw(EXPONENT))]
        if cmd == "iso":
            argv += ["--iso-t", str(draw(EXPONENT))]
        if cmd == "code" and draw(st.booleans()):
            argv.append("--distance")
    if draw(st.integers(0, 9)) == 9:
        del argv[draw(st.integers(0, len(argv) - 1))]
    return argv, stdin


@settings(
    max_examples=300,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(invocation=invocations())
def test_argv_ends_in_a_documented_exit(invocation):
    argv, stdin = invocation
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code == 2, argv
                code = 2
    finally:
        sys.stdin = saved
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out.getvalue() == "", argv
        assert err.getvalue().startswith(("error:", "usage:")), argv
