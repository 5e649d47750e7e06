"""The four benchmark workloads: their ops, how an op runs, and its checks.

An op is a dict with an ``id`` and either ``setting`` (a sweep op, run
through the library API the way ``exists | verify`` runs it) or ``argv``
(a ``constacyclic`` command line, run through ``cli.main``).  A ``verify``
op names the split op whose stdout it reads as stdin in ``stdin_from``.
Ops come in groups that stay together when a seed permutes the order.

Everything that touches ``constacyclic`` imports it lazily, so importing
this module does not import the library: a worker imports the library
first, where the import is timed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import sys

WORKLOADS = ("sweep", "distance", "big-field", "large-n")


def _code(q, n, lam, check_set):
    return [
        "code", "--q", str(q), "--n", str(n), "--lambda", str(lam),
        "--P", ",".join(str(x) for x in check_set), "--distance",
    ]


def _unit(m):
    """Coordinate tuple of the field's 1 over F_{p^m}."""
    return " ".join(["1"] + ["0"] * (m - 1))


# (id, argv, expected top-level JSON fields)
_DISTANCE_OPS = [
    ("code-q13-n14", _code(13, 14, 5, [25, 29, 33, 37, 41, 45]), {"min_distance": 9}),
    ("mds-q13", ["mds", "--q", "13"], {"d_found": 9, "mds": True}),
    ("code-q7-n20", _code(7, 20, 6, [1, 3, 7, 9, 21, 23, 27, 29]), {"min_distance": 6}),
    ("code-q3-n26", _code(3, 26, 2, [1, 3, 5, 9, 15, 19, 27, 29, 31, 35, 41, 45]),
     {"min_distance": 6}),
    ("code-q4-n21", _code(4, 21, "1 0", [1, 2, 3, 4, 6, 7, 8, 11, 12, 16]),
     {"min_distance": 8}),
    ("code-q16-n13", _code(16, 13, "0 1 0 1", [1, 7, 16, 22, 34, 37]), {"min_distance": 6}),
    ("code-q9-n14", _code(9, 14, "0 1", [1, 5, 9, 13, 25, 45]), {"min_distance": 6}),
    ("code-q5-n24", _code(5, 24, 2, [1, 5, 25, 29, 49, 53, 73, 77]), {"min_distance": 5}),
]

_BIG_FIELD_OPS = [
    (f"code-q{q}-n{q + 1}", _code(q, q + 1, _unit(m), [1, q]), {})
    for q, m in ((256, 8), (343, 3), (512, 9), (1024, 10))
] + [
    ("code-q2048-n23", _code(2048, 23, _unit(11), [1, 2]), {}),
    ("mds-q289", ["mds", "--q", "289"], {}),
]

# (q, n, lambda), one per existence reason: odd-square, n_r-even and
# TypeI-even-quotient
_LARGE_N_SETTINGS = [(13, 500111, 5), (3, 200002, 2), (5, 200002, 4)]

# The cheapest group of each workload, run alone by ``--smoke``.
SMOKE_GROUP = {
    "sweep": "q13-r4-n14",
    "distance": "code-q9-n14",
    "big-field": "code-q2048-n23",
    "large-n": "split-q3-n200002",
}


def _cli_groups(table):
    return [[{"id": i, "argv": a, "expect": e}] for i, a, e in table]


def _large_n_groups():
    groups = []
    for q, n, lam in _LARGE_N_SETTINGS:
        split_id = f"split-q{q}-n{n}"
        argv = ["split", "--q", str(q), "--n", str(n), "--lambda", str(lam)]
        groups.append([
            {"id": split_id, "argv": argv, "expect": {}},
            {"id": f"verify-q{q}-n{n}", "argv": ["verify"], "expect": {"ok": True},
             "stdin_from": split_id},
        ])
    return groups


def _sweep_groups():
    """One op per (q <= 16, r | q-1, 1 <= n <= 60, gcd(n, q) = 1).

    lambda is the least-label element of order r.
    """
    from constacyclic import arith, gf, mds

    groups = []
    for q in range(2, 17):
        try:
            field = gf.field_for_order(q)
        except ValueError:
            continue
        for r in arith.divisors(q - 1):
            lam = mds.default_lambda(field, r).label
            for n in range(1, 61):
                if math.gcd(n, q) == 1:
                    groups.append([{"id": f"q{q}-r{r}-n{n}", "setting": [q, n, lam]}])
    return groups


def groups_for(workload):
    if workload == "sweep":
        return _sweep_groups()
    if workload == "distance":
        return _cli_groups(_DISTANCE_OPS)
    if workload == "big-field":
        return _cli_groups(_BIG_FIELD_OPS)
    if workload == "large-n":
        return _large_n_groups()
    raise ValueError(f"unknown workload {workload!r}")


def op_list(workload, seed, smoke=False):
    """The workload's ops, groups permuted by the seed (and nothing else)."""
    groups = groups_for(workload)
    if smoke:
        return [op for g in groups if g[0]["id"] == SMOKE_GROUP[workload] for op in g]
    random.Random(seed).shuffle(groups)
    return [op for g in groups for op in g]


# ---------------------------------------------------------------------------
# running an op (worker side)


def execute(op, stdin_text=None):
    """Run one op; returns (exit code, result).

    For a CLI op the result is its stdout text.  For a sweep op it is the
    JSON-ready record of verdict, reason, Type-I flag, certificate and
    verify transcript, which ``stdout_of`` turns into canonical text
    outside the timed region.
    """
    if "setting" in op:
        return _sweep_op(*op["setting"])
    return _cli_op(op["argv"], stdin_text)


def _sweep_op(q, n, lam):
    from constacyclic import codes, duadic

    setting = codes.make_setting(q, n, lam)
    verdict = duadic.exists_type2(setting)
    record = {
        "exists": verdict.exists,
        "reason": verdict.reason,
        "type1_exists": duadic.exists_type1(setting),
    }
    if verdict.witness is not None:
        cert = json.loads(json.dumps(duadic.certificate(verdict.witness)))
        result, fresh = duadic.verify_certificate(cert)
        record["certificate"] = cert
        record["verify"] = {"ok": result.ok, "checks": fresh["checks"]}
    return (0 if verdict.exists else 1), record


def _cli_op(argv, stdin_text):
    from constacyclic import cli

    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    finally:
        sys.stdin = saved
    return rc, out.getvalue()


def stdout_of(op, result):
    """The text whose sha256 is the op's golden digest."""
    if "setting" in op:
        return json.dumps(result, sort_keys=True, separators=(",", ":"))
    return result


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# checks that do not depend on the goldens


def _transcript_errors(split_checks, verify_payload):
    errors = []
    if verify_payload.get("ok") is not True:
        errors.append("verify transcript does not pass")
    checks = verify_payload.get("checks", [])
    if any(not c.get("pass") and not c.get("skipped") for c in checks):
        errors.append("verify transcript has a failed check")
    if checks[: len(split_checks)] != split_checks:
        errors.append("verify transcript does not match the split's checks")
    return errors


def sweep_errors(record):
    """Invariants of one sweep record."""
    if record["exists"] != ("certificate" in record):
        return ["verdict and witness disagree"]
    if "certificate" not in record:
        return []
    return _transcript_errors(record["certificate"]["checks"], record["verify"])


def verify_errors(split_stdout, verify_stdout):
    """A verify run on a split's certificate passes and extends its checks."""
    try:
        split_checks = json.loads(split_stdout)["checks"]
        payload = json.loads(verify_stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparsable split or verify output: {exc}"]
    return _transcript_errors(split_checks, payload)


def report_errors(op, stdout):
    """Expected fields, and every distance within its certified bounds.

    Runs after the pass, because it calls the library again.
    """
    try:
        payload = json.loads(stdout)
    except ValueError as exc:
        return [f"unparsable output: {exc}"]
    errors = [
        f"{key} is {payload.get(key)!r}, expected {want!r}"
        for key, want in op.get("expect", {}).items()
        if payload.get(key) != want
    ]
    reports = payload.get("codes", [payload] if "check_set" in payload else [])
    for rep in reports:
        errors.extend(_distance_errors(rep, payload.get("d_lower_bound")))
    return errors


def _distance_errors(rep, shared_lower_bound):
    from constacyclic import codes

    setting = codes.make_setting(rep["q"], rep["n"], rep["lambda"])
    code = codes.ConstaCode(codes.IndexSet(setting, rep["t"], tuple(rep["check_set"])))
    low = codes.distance_lower_bound(code)
    singleton = rep["n"] - rep["dimension"] + 1
    if "min_distance" in rep:
        d = rep["min_distance"]
        if not low <= d <= singleton:
            return [f"distance {d} outside [{low}, {singleton}] for {rep['check_set']}"]
    elif shared_lower_bound is not None and not shared_lower_bound <= min(low, singleton):
        # a report's shared bound is the least of its codes' bounds
        return [f"lower bound {shared_lower_bound} above {min(low, singleton)}"]
    return []
