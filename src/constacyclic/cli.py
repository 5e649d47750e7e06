"""Command-line surface: existence queries, splittings, code reports.

Every subcommand prints one JSON document (the atlas prints one JSON
object per line) on stdout and keeps diagnostics on stderr.  Exit codes:
0 for success or a true verdict, 1 for a verified-false verdict, 2 for
usage errors and every other failure, which prints one ``error:`` line
on stderr instead of a traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import codes, duadic, gf, mds
from .arith import MAX_MODULUS, divisors, factorize
from .codes import ConstaCode, IndexSet, make_setting
from .errors import DivideByZero, Internal, NoSplitting, TooLarge


def _setting_from_args(args):
    return make_setting(args.q, args.n, args.lam)


def _code_from_args(args) -> ConstaCode:
    setting = _setting_from_args(args)
    elems = tuple(int(x) for x in args.P.split(",") if x.strip() != "")
    return ConstaCode(IndexSet(setting, args.t, elems))


def _emit(payload) -> None:
    print(_dumps(payload, ""))


def _dumps(value, pad0: str) -> str:
    """json.dumps(value, indent=2) at indent pad0, byte for byte.

    The pure-Python encoder that indent selects is slow on the long
    residue lists of a certificate, so a nonempty list of plain ints is
    formatted directly and a dict with str keys is written key by key.
    Everything else goes through json.dumps and is re-indented, which is
    exact because JSON text holds no raw newline inside a string.
    """
    pad = pad0 + "  "
    if type(value) is list and set(map(type, value)) == {int}:
        # one %-format pass writes ints faster than str() on each
        body = (",\n" + pad).join(["%d"] * len(value)) % tuple(value)
        return "[\n" + pad + body + "\n" + pad0 + "]"
    if type(value) is dict and set(map(type, value)) == {str}:
        body = (",\n" + pad).join(
            json.dumps(k) + ": " + _dumps(v, pad) for k, v in value.items()
        )
        return "{\n" + pad + body + "\n" + pad0 + "}"
    return json.dumps(value, indent=2).replace("\n", "\n" + pad0)


def _cmd_exists(args) -> int:
    """Verdict with a certified witness; over the witness cap, the verdict
    alone, with the reason the witness was skipped."""
    setting = _setting_from_args(args)
    over_cap = setting.n > duadic.MAX_WITNESS_LENGTH
    verdict = duadic.exists_type2(setting, with_witness=not over_cap)
    payload = {
        "q": setting.q,
        "n": setting.n,
        "r": setting.r,
        "lambda": gf.element_to_text(setting.field, setting.lam.label),
        "exists": verdict.exists,
        "reason": verdict.reason,
        "type1_exists": duadic.exists_type1(setting),
    }
    if verdict.witness is not None:
        payload["witness"] = duadic.certificate(verdict.witness)
    elif verdict.exists:
        payload["witness_skipped"] = (
            f"length {setting.n} exceeds the 2^22 witness cap"
        )
    _emit(payload)
    return 0 if verdict.exists else 1


def _cmd_split(args) -> int:
    setting = _setting_from_args(args)
    verdict = duadic.exists_type2(setting)
    if not verdict.exists:
        print(
            f"no Type-II splitting for q={setting.q}, n={setting.n}, "
            f"r={setting.r}",
            file=sys.stderr,
        )
        return 1
    _emit(duadic.certificate(verdict.witness))
    return 0


def _cmd_verify(args) -> int:
    if args.file:
        with open(args.file, "r", encoding="utf-8") as fh:
            cert = json.load(fh)
    else:
        cert = json.load(sys.stdin)
    result, fresh = duadic.verify_certificate(cert)
    _emit({"ok": result.ok, "checks": fresh["checks"]})
    return 0 if result.ok else 1


def _cmd_code(args) -> int:
    code = _code_from_args(args)
    distance = None
    if args.distance:
        distance = codes.min_distance(code)
    _emit(codes.code_report(code, distance))
    return 0


def _cmd_dual(args) -> int:
    code = _code_from_args(args)
    _emit(codes.code_report(codes.dual(code)))
    return 0


def _cmd_iso(args) -> int:
    code = _code_from_args(args)
    verdict = duadic.is_iso_orthogonal(code, args.iso_t)
    _emit(
        {
            "q": code.setting.q,
            "n": code.setting.n,
            "t": args.iso_t % code.setting.nr,
            "check_set": list(code.check.elems),
            "iso_orthogonal": verdict,
        }
    )
    return 0 if verdict else 1


def _cmd_mds(args) -> int:
    lam = None
    if args.lam is not None:
        field = gf.field_for_order(args.q)
        lam = gf.element_from_text(field, args.lam)
    report = mds.mds_report(args.q, lam)
    _emit(report)
    return 0 if report["mds"] in (True, None) else 1


def _check_atlas_box(max_q: int, max_n: int) -> None:
    """Refuse a box holding a field over 2^20 or a modulus n*r over 2^31.

    The atlas prints as it goes, so the whole box is checked before its
    first line.  Within a field F_q the largest order is r = q - 1 and the
    largest length is max_n, or max_n - 1 when the characteristic divides
    max_n.  Only q with (q - 1) * max_n over the cap can exceed it, so the
    downward scan stops after a few hundred q at most.
    """
    for q in range(gf.MAX_FIELD_SIZE + 1, max_q + 1):
        if len(factorize(q)) == 1:
            raise TooLarge(f"atlas box holds field size {q}, over the 2^20 cap")
    for q in range(min(max_q, gf.MAX_FIELD_SIZE), 1, -1):
        if (q - 1) * max_n <= MAX_MODULUS:
            break
        fac = factorize(q)
        if len(fac) == 1:
            n = max_n - 1 if max_n % fac[0][0] == 0 else max_n
            if n * (q - 1) > MAX_MODULUS:
                raise TooLarge(
                    f"atlas box holds q={q}, n={n}, r={q - 1}: modulus "
                    f"n*r = {n * (q - 1)} exceeds the 2^31 cap"
                )


def _cmd_atlas(args) -> int:
    _check_atlas_box(args.max_q, args.max_n)
    for q in range(2, args.max_q + 1):
        try:
            field = gf.field_for_order(q)
        except ValueError:
            continue
        for r in divisors(q - 1):
            lam = mds.default_lambda(field, r)
            for n in range(1, args.max_n + 1):
                if math.gcd(n, q) != 1:
                    continue
                setting = make_setting(q, n, lam.label)
                verdict = duadic.exists_type2(setting, with_witness=False)
                line = {
                    "q": q,
                    "n": n,
                    "r": r,
                    "lambda": gf.element_to_text(field, lam.label),
                    "type1": duadic.exists_type1(setting),
                    "type2": verdict.exists,
                    "reason": verdict.reason,
                }
                print(json.dumps(line))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="constacyclic",
        description="Duadic constacyclic codes: existence, splittings, reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_setting_args(p, with_lambda=True):
        p.add_argument("--q", type=int, required=True, help="field size (prime power)")
        p.add_argument("--n", type=int, required=True, help="code length")
        if with_lambda:
            p.add_argument(
                "--lambda",
                dest="lam",
                required=True,
                help="unit: bare integer over a prime field, coordinate "
                'tuple like "0 1" otherwise',
            )

    p = sub.add_parser("exists", help="Type-II existence verdict")
    add_setting_args(p)
    p.set_defaults(func=_cmd_exists)

    p = sub.add_parser("split", help="construct a Type-II splitting certificate")
    add_setting_args(p)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("verify", help="re-check a splitting certificate")
    p.add_argument("--file", help="certificate path (default: stdin)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("code", help="report a code given its check set")
    add_setting_args(p)
    p.add_argument("--t", type=int, default=1, help="algebra exponent (default 1)")
    p.add_argument("--P", required=True, help="check set, comma-separated residues")
    p.add_argument(
        "--distance", action="store_true", help="enumerate the exact minimum distance"
    )
    p.set_defaults(func=_cmd_code)

    p = sub.add_parser("dual", help="report the Euclidean dual code")
    add_setting_args(p)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--P", required=True)
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("iso", help="decide iso-orthogonality of a code")
    add_setting_args(p)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--P", required=True)
    p.add_argument(
        "--iso-t",
        dest="iso_t",
        type=int,
        required=True,
        help="isometry exponent to test",
    )
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("mds", help="the length-(q+1) MDS pair demo")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--lambda", dest="lam", default=None)
    p.set_defaults(func=_cmd_mds)

    p = sub.add_parser("atlas", help="existence verdicts over a parameter sweep")
    p.add_argument("--max-q", type=int, default=16)
    p.add_argument("--max-n", type=int, default=30)
    p.set_defaults(func=_cmd_atlas)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (
        ValueError,
        TooLarge,
        OSError,
        json.JSONDecodeError,
        KeyError,
        NoSplitting,
        Internal,
        DivideByZero,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
