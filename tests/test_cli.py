import io
import json
import os
import subprocess
import sys

import pytest

import constacyclic
from constacyclic import cli, exists_type2, make_setting
from constacyclic.cli import main
from constacyclic.errors import DivideByZero, Internal, NoSplitting

from conftest import sweep_settings


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExists:
    def test_golden_true(self, capsys):
        code, out, _ = run(capsys, "exists", "--q", "13", "--n", "14", "--lambda", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["exists"] is True
        assert payload["reason"] == "n_r-even"
        assert payload["witness"]["s"]

    def test_golden_false(self, capsys):
        code, out, _ = run(capsys, "exists", "--q", "2", "--n", "5", "--lambda", "1")
        assert code == 1
        assert json.loads(out)["exists"] is False

    def test_extension_field_lambda(self, capsys):
        code, out, _ = run(capsys, "exists", "--q", "4", "--n", "21", "--lambda", "0 1")
        assert code == 0
        payload = json.loads(out)
        assert payload["reason"] == "odd-square"

    def test_witness_payload_verifies(self, capsys):
        from constacyclic import verify_certificate

        code, out, _ = run(capsys, "exists", "--q", "5", "--n", "6", "--lambda", "2")
        assert code == 0
        res, _ = verify_certificate(json.loads(out)["witness"])
        assert res.ok


class TestSplitVerify:
    def test_round_trip_via_file(self, capsys, tmp_path):
        code, out, _ = run(capsys, "split", "--q", "4", "--n", "21", "--lambda", "0 1")
        assert code == 0
        path = tmp_path / "cert.json"
        path.write_text(out)
        code, out, _ = run(capsys, "verify", "--file", str(path))
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_round_trip_via_stdin(self, capsys, monkeypatch):
        code, out, _ = run(capsys, "split", "--q", "13", "--n", "14", "--lambda", "5")
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        code, out, _ = run(capsys, "verify")
        assert code == 0

    def test_tampered_certificate_exits_one(self, capsys, tmp_path):
        code, out, _ = run(capsys, "split", "--q", "13", "--n", "14", "--lambda", "5")
        cert = json.loads(out)
        cert["s"] = 3
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cert))
        code, out, _ = run(capsys, "verify", "--file", str(path))
        assert code == 1
        assert json.loads(out)["ok"] is False

    @pytest.mark.parametrize(
        "text",
        [
            "[1,2]",
            '"x"',
            '{"q": 5, "n": 6, "lambda": "2", "s": 5, "P": 3, "sP": []}',
            '{"q": [1], "n": 6, "lambda": "2", "s": 5, "P": [], "sP": []}',
            '{"q": 5, "n": 6, "lambda": "2", "s": 5, "P": [[1]], "sP": []}',
            '{"q": 5, "n": 6, "lambda": "2", "s": {"a": 1}, "P": [], "sP": []}',
            '{"q": 5, "n": 6, "lambda": "2", "s": 5, "P": [], "sP": [], "P0": [[2]]}',
        ],
    )
    def test_malformed_certificate_exits_two(self, capsys, monkeypatch, text):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(capsys, "verify")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("exc", [NoSplitting, Internal, DivideByZero])
    def test_library_failures_exit_two(self, capsys, monkeypatch, exc):
        def boom(args):
            raise exc("forced failure")

        monkeypatch.setattr(cli, "_cmd_split", boom)
        code, out, err = run(capsys, "split", "--q", "5", "--n", "6", "--lambda", "2")
        assert code == 2
        assert out == ""
        assert err == "error: forced failure\n"

    def test_split_verify_and_code_leave_numpy_unimported(self):
        """Towers, root-set polynomials and verification need no numpy."""
        src = os.path.dirname(os.path.dirname(constacyclic.__file__))
        script = (
            "import contextlib, io, sys\n"
            "from constacyclic.cli import main\n"
            "setting = ['--q', '4', '--n', '21', '--lambda', '0 1']\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    assert main(['split', *setting]) == 0\n"
            "sys.stdin = io.StringIO(out.getvalue())\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['verify']) == 0\n"
            "    assert main(['code', *setting, '--P', '7,28,49']) == 0\n"
            "print('numpy' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_inexact_numbers_exit_two(self, capsys, monkeypatch):
        """Floats, booleans and numeric strings are refused, not converted."""
        code, out, _ = run(capsys, "split", "--q", "13", "--n", "14", "--lambda", "5")
        cert = json.loads(out)
        changes = [{"P": [float(x) for x in cert["P"]], "s": cert["s"] + 0.5}]
        changes += [{key: float(cert[key])} for key in ("q", "n", "t", "s", "r")]
        changes += [{key: True} for key in ("q", "n", "lambda", "t", "s", "r")]
        changes += [{key: str(cert[key])} for key in ("q", "n", "t", "s", "r")]
        changes.append(
            {"q": "13", "n": "14", "s": " 41 ", "P": [str(x) for x in cert["P"]]}
        )
        for key in ("P", "sP", "P0"):
            changes.append({key: cert[key][:-1] + [float(cert[key][-1])]})
            changes.append({key: [True] + cert[key][1:]})
            changes.append({key: [str(cert[key][0])] + cert[key][1:]})
        for change in changes:
            monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({**cert, **change})))
            code, out, err = run(capsys, "verify")
            assert (code, out) == (2, ""), change
            assert err.startswith("error:"), change

    @pytest.mark.parametrize(
        "q,n",
        [
            ("2305843009213693951", "5"),
            ("3", "2305843009213693951"),
            ("3", "2147483659"),
        ],
    )
    def test_huge_inputs_exit_two_promptly(self, q, n):
        """q above 2^20 and n*r above 2^31 are refused before any factoring."""
        src = os.path.dirname(os.path.dirname(constacyclic.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "constacyclic.cli", "exists",
             "--q", q, "--n", n, "--lambda", "1"],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=5,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")

    def test_split_without_splitting_exits_one(self, capsys):
        code, out, err = run(capsys, "split", "--q", "2", "--n", "5", "--lambda", "1")
        assert code == 1
        assert out == ""
        assert "no Type-II splitting" in err

    def test_round_trip_across_small_sweep(self, capsys):
        for st in sweep_settings(5, 12):
            if not exists_type2(st, with_witness=False).exists:
                continue
            from constacyclic import gf

            lam_text = gf.element_to_text(st.field, st.lam.label)
            code, out, _ = run(
                capsys,
                "split",
                "--q",
                str(st.q),
                "--n",
                str(st.n),
                "--lambda",
                lam_text,
            )
            assert code == 0
            # verify in-process to keep the sweep quick
            from constacyclic import verify_certificate

            verdict, _ = verify_certificate(json.loads(out))
            assert verdict.ok, (st, verdict.first_failure)


class TestCodeReports:
    def test_code_with_distance(self, capsys):
        code, out, _ = run(
            capsys,
            "code",
            "--q",
            "13",
            "--n",
            "14",
            "--lambda",
            "5",
            "--P",
            "25,29,33,37,41,45",
            "--distance",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["dimension"] == 6
        assert payload["min_distance"] == 9
        assert payload["check_set"] == [25, 29, 33, 37, 41, 45]

    def test_dual_report(self, capsys):
        code, out, _ = run(
            capsys,
            "dual",
            "--q",
            "5",
            "--n",
            "6",
            "--lambda",
            "2",
            "--P",
            "9,21",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["check_set"] == [7, 11, 19, 23]
        assert payload["t"] == 23

    def test_iso_true_false(self, capsys):
        code, out, _ = run(
            capsys,
            "iso",
            "--q",
            "13",
            "--n",
            "14",
            "--lambda",
            "5",
            "--P",
            "25,29,33,37,41,45",
            "--iso-t",
            "27",
        )
        assert code == 0 and json.loads(out)["iso_orthogonal"] is True
        code, out, _ = run(
            capsys,
            "iso",
            "--q",
            "13",
            "--n",
            "14",
            "--lambda",
            "5",
            "--P",
            "1,5,9,13,17,53",
            "--iso-t",
            "1",
        )
        assert code == 1 and json.loads(out)["iso_orthogonal"] is False


class TestMds:
    def test_q5(self, capsys):
        code, out, _ = run(capsys, "mds", "--q", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["d_found"] == 5 and payload["mds"] is True

    def test_q17_bound(self, capsys):
        code, out, _ = run(capsys, "mds", "--q", "17")
        assert code == 0
        payload = json.loads(out)
        assert payload["d_lower_bound"] == 11


class TestAtlas:
    def test_lines_match_library(self, capsys):
        code, out, _ = run(capsys, "atlas", "--max-q", "4", "--max-n", "8")
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert lines
        for entry in lines:
            st = make_setting(entry["q"], entry["n"], entry["lambda"])
            assert entry["type2"] == exists_type2(st, with_witness=False).exists

    def test_default_bounds_cover_the_sweep(self, capsys, sweep):
        code, out, _ = run(capsys, "atlas")
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == len(sweep)
        true_count = sum(1 for e in lines if e["type2"])
        expected = sum(
            1 for st in sweep if exists_type2(st, with_witness=False).exists
        )
        assert true_count == expected

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "atlas", "--max-q", "3", "--max-n", "6")
        _, out2, _ = run(capsys, "atlas", "--max-q", "3", "--max-n", "6")
        assert out1 == out2

    @pytest.mark.parametrize(
        "max_q, max_n",
        [("3", str(2**30 + 1)), (str(2**20 + 7), "30"), ("3", "4000000000")],
    )
    def test_box_over_the_caps_exits_two_before_printing(self, max_q, max_n):
        """In a subprocess, so an unchecked box ends at the timeout."""
        src = os.path.dirname(os.path.dirname(constacyclic.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "constacyclic.cli", "atlas",
             "--max-q", max_q, "--max-n", max_n],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=5,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert proc.stderr.count("\n") == 1

    def test_box_at_the_modulus_cap_starts_printing(self, monkeypatch):
        """q = 3, n = 2^30 reaches n*r = 2^31 exactly, which is allowed."""

        class FirstLine(io.StringIO):
            def write(self, text):
                super().write(text)
                if "\n" in text:
                    raise BrokenPipeError
                return len(text)

        sink = FirstLine()
        monkeypatch.setattr(sys, "stdout", sink)
        assert main(["atlas", "--max-q", "3", "--max-n", str(2**30)]) == 0
        assert json.loads(sink.getvalue())["q"] == 2

    def test_box_check_matches_every_setting(self, monkeypatch):
        """Refused exactly when some setting of the box has n*r over the cap."""
        from constacyclic.arith import divisors, factorize

        for cap in (40, 97, 200):
            monkeypatch.setattr(cli, "MAX_MODULUS", cap)
            for max_q in range(1, 26):
                for max_n in range(0, 30):
                    worst = max(
                        (
                            n * r
                            for q in range(2, max_q + 1)
                            if len(factorize(q)) == 1
                            for r in divisors(q - 1)
                            for n in range(1, max_n + 1)
                            if n % factorize(q)[0][0]
                        ),
                        default=0,
                    )
                    if worst > cap:
                        with pytest.raises(cli.TooLarge):
                            cli._check_atlas_box(max_q, max_n)
                    else:
                        cli._check_atlas_box(max_q, max_n)


class TestUsageErrors:
    def test_bad_lambda_text(self, capsys):
        code, out, err = run(
            capsys, "exists", "--q", "4", "--n", "21", "--lambda", "9"
        )
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_bad_q(self, capsys):
        code, out, err = run(capsys, "mds", "--q", "7")
        assert code == 2
        assert "error" in err

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestWitnessCap:
    # The child caps its own address space, so a length that is not
    # refused fails on memory instead of filling the machine.
    CHILD = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from constacyclic.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )

    OVER_CAP_EXISTS = {
        "q": 2,
        "n": 2147483647,
        "r": 1,
        "lambda": "1",
        "exists": True,
        "reason": "odd-square",
        "type1_exists": False,
        "witness_skipped": "length 2147483647 exceeds the 2^22 witness cap",
    }

    @pytest.mark.parametrize(
        "argv,stdin,payload",
        [
            (
                ["exists", "--q", "2", "--n", "2147483647", "--lambda", "1"],
                "",
                OVER_CAP_EXISTS,
            ),
            (["split", "--q", "2", "--n", "2147483647", "--lambda", "1"], "", None),
            (
                ["verify"],
                '{"q": 3, "n": 1073741824, "lambda": 2, "s": 1, "P": [0], "sP": []}',
                None,
            ),
        ],
        ids=["exists", "split", "verify"],
    )
    def test_over_the_cap_exits_two_promptly(self, argv, stdin, payload):
        """split and verify are refused with exit 2; exists, which needs no
        witness for its verdict, prints the verdict alone and exits 0."""
        src = os.path.dirname(os.path.dirname(constacyclic.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", self.CHILD, *argv],
            input=stdin,
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=5,
        )
        if payload is not None:
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr == ""
            assert proc.stdout == json.dumps(payload, indent=2) + "\n"
            return
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")


def _random_json(rng, depth=0):
    """A JSON-ready value: scalars, strings that need escaping, int lists,
    and nested lists and dicts, some with keys that are not strings."""

    def text():
        alphabet = 'ab "\\/\n\t\x00\x1f\x7fé€𝄞'
        return "".join(rng.choice(alphabet) for _ in range(rng.randrange(6)))

    kind = rng.randrange(8 if depth < 4 else 4)
    if kind == 0:
        return rng.choice([None, True, False, 0.0, -2.5, 1e300, 1.5e-7])
    if kind == 1:
        return rng.choice([0, -1, 7, -(2**70), 2**64 + 3, rng.randint(-9**9, 9**9)])
    if kind == 2:
        return text()
    if kind == 3:
        return [rng.randint(-10**12, 10**12) for _ in range(rng.randrange(5))]
    if kind == 4:
        return [True, 1]
    if kind == 5:
        return [_random_json(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind == 6:
        return {text(): _random_json(rng, depth + 1) for _ in range(rng.randrange(4))}
    return {rng.choice([1, "1", 2.5, None, True]): _random_json(rng, depth + 1)}


class TestEmit:
    """_emit prints exactly what json.dumps(payload, indent=2) prints."""

    def test_random_payloads(self, capsys):
        import random

        rng = random.Random(8)
        for _ in range(600):
            payload = _random_json(rng)
            cli._emit(payload)
            assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"
        cli._emit({"P": [True, 1], "sP": [], "x": [[1, 2], []]})
        out = capsys.readouterr().out
        assert out == json.dumps({"P": [True, 1], "sP": [], "x": [[1, 2], []]},
                                 indent=2) + "\n"
        assert '"P": [\n    true,\n    1\n  ]' in out

    def test_every_subcommand_payload(self, capsys, monkeypatch):
        setting = ["--q", "13", "--n", "14", "--lambda", "5"]
        _, cert, _ = run(capsys, "split", *setting)
        monkeypatch.setattr("sys.stdin", io.StringIO(cert))
        runs = [
            ("exists", *setting),
            ("exists", "--q", "2", "--n", "5", "--lambda", "1"),
            ("split", "--q", "4", "--n", "21", "--lambda", "0 1"),
            ("verify",),
            ("code", *setting, "--P", "25,29,33,37,41,45", "--distance"),
            ("dual", *setting, "--P", "25,29,33,37,41,45"),
            ("iso", *setting, "--P", "25,29,33,37,41,45", "--iso-t", "27"),
            ("mds", "--q", "13"),
            ("mds", "--q", "17"),
        ]
        for argv in runs:
            code, out, _ = run(capsys, *argv)
            assert code in (0, 1), argv
            assert out == json.dumps(json.loads(out), indent=2) + "\n", argv

    @pytest.mark.parametrize(
        "q,n,lam", [(13, 500111, 5), (3, 200002, 2), (5, 200002, 4)]
    )
    def test_large_certificates(self, q, n, lam):
        from constacyclic import certificate

        cert = certificate(exists_type2(make_setting(q, n, lam)).witness)
        assert cli._dumps(cert, "") == json.dumps(cert, indent=2)
