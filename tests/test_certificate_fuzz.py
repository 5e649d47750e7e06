"""Single-field mutations of valid certificates through the verify CLI.

Every mutation must end in one of the documented exits (0, 1 or 2) with
no exception escaping cli.main; a float or a boolean anywhere verify
reads a number must exit 2 rather than be truncated, and so must a
string anywhere verify reads an integer (lambda is text, so it may be
one).  A certificate that verify reads must fail exactly the checks that
the literal set comparisons of oracles.set_check_reference fail on its
fields, plus p0-matches and r-matches computed independently: the
factor-product identity follows from the set checks, so it never fails
on its own.
"""

import contextlib
import copy
import io
import json
import sys

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from constacyclic import certificate, construct_type2, make_setting
from constacyclic.cli import main

import oracles

# fields verify_certificate reads; "checks" is ignored and rewritten
READ = ("q", "n", "r", "lambda", "t", "s", "kind", "P", "sP", "P0")
KINDS = ("drop", "float", "bool", "str", "list", "object", "null", "residue")


@pytest.fixture(scope="module")
def certs():
    out = []
    # prime field, extension field, and a tower over the size cap
    for q, n, lam in [(5, 6, 2), (13, 14, 5), (4, 21, "0 1"), (5, 22, 2)]:
        st_ = make_setting(q, n, lam)
        out.append((certificate(construct_type2(st_)), st_.nr))
    return out


def verify_exit(cert) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(cert))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify"])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def expected_failures(cert) -> list:
    """The names of the checks that should fail, in transcript order."""
    setting = make_setting(cert["q"], cert["n"], cert["lambda"])
    t = cert.get("t", 1)
    ref = oracles.set_check_reference(
        setting, t, cert["s"], cert["P"], cert["sP"], cert.get("kind", "type-ii")
    )
    failed = [name for name, ok in ref if not ok]
    if "P0" in cert and sorted(cert["P0"]) != list(oracles.p0_filter(setting, t)):
        failed.append("p0-matches")
    lam = setting.lam.label
    if "r" in cert and cert["r"] != oracles.element_order(setting.field, lam):
        failed.append("r-matches")
    return failed


def swapped(data, kind, value, nr):
    if kind == "float":
        exact = isinstance(value, int) and not isinstance(value, bool)
        whole = st.just(float(value)) if exact else st.just(1.0)
        return data.draw(st.one_of(whole, st.floats()))
    if kind == "bool":
        return data.draw(st.booleans())
    if kind == "str":
        return data.draw(st.one_of(st.just(str(value)), st.text(max_size=4)))
    if kind == "list":
        return [value]
    if kind == "object":
        return {"a": value}
    if kind == "null":
        return None
    base = value if isinstance(value, int) else 0
    return data.draw(
        st.sampled_from([base + nr, base - nr, -1, 0, nr, base + 2**64])
    )


@settings(
    max_examples=150,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_single_field_mutation_ends_in_a_documented_exit(certs, data):
    cert, nr = data.draw(st.sampled_from(certs))
    cert = copy.deepcopy(cert)
    key = data.draw(st.sampled_from(sorted(cert)))
    kind = data.draw(st.sampled_from(KINDS))
    if kind == "drop":
        del cert[key]
    elif isinstance(cert[key], list) and cert[key] and data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(cert[key]) - 1))
        cert[key][i] = swapped(data, kind, cert[key][i], nr)
    else:
        cert[key] = swapped(data, kind, cert[key], nr)
    code, out, err = verify_exit(cert)
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err.startswith("error:")
    else:
        report = json.loads(out)
        assert report["ok"] is (code == 0)
        failed = [
            c["name"] for c in report["checks"]
            if not c["pass"] and not c.get("skipped")
        ]
        assert failed == expected_failures(cert), (key, kind)
        assert bool(failed) is (code == 1)
    if kind in ("float", "bool") and key in READ:
        assert code == 2, (key, cert.get(key))
    if kind == "str" and key in READ and key not in ("lambda", "kind"):
        assert code == 2, (key, cert.get(key))


@settings(
    max_examples=150,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_integer_mutation_fails_the_named_checks(certs, data):
    """An integer put into t, s, r or a residue list always parses, so
    verify exits 0 or 1 and fails exactly the reference's checks."""
    cert, nr = data.draw(st.sampled_from(certs))
    cert = copy.deepcopy(cert)
    key = data.draw(st.sampled_from(("t", "s", "r", "P", "sP", "P0")))
    value = st.integers(-nr, 2 * nr)
    if not isinstance(cert[key], list):
        cert[key] = data.draw(value)
    else:
        op = data.draw(st.sampled_from(("replace", "append", "remove")))
        if op == "append" or not cert[key]:
            cert[key].append(data.draw(value))
        else:
            i = data.draw(st.integers(0, len(cert[key]) - 1))
            if op == "replace":
                cert[key][i] = data.draw(value)
            else:
                del cert[key][i]
    code, out, err = verify_exit(cert)
    assert code in (0, 1), err
    report = json.loads(out)
    failed = [
        c["name"] for c in report["checks"]
        if not c["pass"] and not c.get("skipped")
    ]
    assert failed == expected_failures(cert), (key, cert[key])
    assert bool(failed) is (code == 1)
