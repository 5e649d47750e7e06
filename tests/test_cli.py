import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

import constacyclic
from constacyclic import cli, exists_type2, make_setting
from constacyclic.cli import main
from constacyclic.errors import DivideByZero, Internal, NoSplitting, TooLarge

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
            pytest.param("[" * 100000 + "]" * 100000, id="nested-too-deeply"),
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
        """Towers, root-set polynomials, verification and k <= 2 distances,
        inside the numpy table range and above it, need no numpy."""
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
            "    unit = ' '.join(['1'] + ['0'] * 10)\n"
            "    big = ['--q', '2048', '--n', '23', '--lambda', unit, '--P', '1,2']\n"
            "    assert main(['code', *big, '--distance']) == 0\n"
            "    lam = ' '.join(['1'] + ['0'] * 7)\n"
            "    q256 = ['--q', '256', '--n', '257', '--lambda', lam, '--P', '1,256']\n"
            "    assert main(['code', *q256, '--distance']) == 0\n"
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

    @pytest.mark.parametrize("q", ["1048573", "1033"])
    def test_mds_over_the_tower_cap_exits_two_promptly(self, q):
        """The tower of an mds pair is F_{q^2}; q^2 > 2^20 is refused
        before the splitting, lambda search or distance work."""
        src = os.path.dirname(os.path.dirname(constacyclic.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "constacyclic.cli", "mds", "--q", q],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=5,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: field size {q}^2 exceeds 2^20\n"

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

            lam_text = gf.element_to_text(st.field, st.lam)
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

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["mds", "--q", "81"],
             "c0964071b901bd22a7df3c2e2d0dfb4d080ec16b685be2bb6ca6448c7002a502"),
            (["mds", "--q", "125"],
             "8738f423a0a239f9b890ebea6e366c4ec4d492339f298b7a454eee023c29fd6d"),
            (["mds", "--q", "169"],
             "4e87869f6d1baf2f34679a40559b7dee0acd471cc681cba36bca977b56394556"),
            (["split", "--q", "27", "--n", "28", "--lambda", "2 0 0"],
             "d84828cf956a8ba4e0109108f0cc94b8475d94eb3b235c7fb507aed9a00c04e1"),
            (["split", "--q", "64", "--n", "65", "--lambda", "1 0 0 0 0 0"],
             "82d85aba61c85141ae3f23c4419c2785b6f851ca5848b6e74365f270f7f4543d"),
            (["code", "--q", "128", "--n", "129", "--lambda", "1 0 0 0 0 0 0",
              "--P", "1,128", "--distance"],
             "bc646f101c515d33a7825729db8a359a5e7fa6822f2b2912377e1a3baab4762e"),
            (["code", "--q", "32", "--n", "33", "--lambda", "1 0 0 0 0",
              "--P", "1,32", "--distance"],
             "93dac9cf06c92adbdc134787a7ba51c1b10d67197f769282b407c7072e9603d1"),
        ],
        ids=["mds-81", "mds-125", "mds-169", "split-27", "split-64", "code-128", "code-32"],
    )
    def test_tower_outputs_pinned(self, capsys, argv, digest):
        """sha256 of the whole stdout over odd extension bases and
        characteristic-2 bases of degree 5-7, which no benchmark golden
        covers; recorded before theta and rho were read from one walk."""
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestPinnedRuns:
    @pytest.mark.parametrize(
        "argv, exit_code, digest",
        [
            (["exists", "--q", "13", "--n", "14", "--lambda", "5"], 0,
             "332a058d4703dff2f9c305068772867c379b237889c99f876e38c02f6f279772"),
            (["exists", "--q", "2", "--n", "4194305", "--lambda", "1"], 1,
             "c0b781c7ddcd9206240ec6612b88f121e65ab237651d18f6b33206752c9c7e0a"),
            (["exists", "--q", "5", "--n", "4194306", "--lambda", "4"], 0,
             "384d3b66cbb0fabb14ff937c546a18221aea0723bd0390cf17227f24c324ac7b"),
            (["dual", "--q", "5", "--n", "6", "--lambda", "2", "--P", "9,21"], 0,
             "64d3c82e04acb24a4c4638f51cb751dd2c3478e163739f00f381c56f6296c101"),
            (["iso", "--q", "13", "--n", "14", "--lambda", "5",
              "--P", "25,29,33,37,41,45", "--iso-t", "27"], 0,
             "6d0dd4621265c2a1853a0a86c52cc297b94048a7f6afb25ceef4768ef9021dc0"),
            (["iso", "--q", "13", "--n", "14", "--lambda", "5",
              "--P", "25,29,33,37,41,45", "--iso-t", "1"], 1,
             "ca3b0b527e8c60b7a29d0e106264ca3d65c5b425fa63781d0e070df7c6670835"),
        ],
        ids=["exists", "exists-false-over-cap", "exists-witness-skipped",
             "dual", "iso-true", "iso-false"],
    )
    def test_stdout_and_exit_pinned(self, capsys, argv, exit_code, digest):
        """sha256 of the whole stdout and the exit code of runs that no
        benchmark golden covers, recorded before the setting's payload
        fields and the witness-cap text each got one owner."""
        code, out, _ = run(capsys, *argv)
        assert code == exit_code
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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

    @pytest.mark.parametrize(
        "box, digest",
        [
            ((), "3bda1776aaafad0b93b1ba186dbf31d033cc28e74ab45e5cecfda002d65d6111"),
            (
                ("--max-q", "256", "--max-n", "12"),
                "7c3d4904a006de7dcc245185681db893df8d05bb010ba744b46910909aa8c858",
            ),
        ],
    )
    def test_output_pinned(self, capsys, box, digest):
        """sha256 of the whole stdout, recorded before lambda became a
        plain label and mds and atlas took field.least_of_order."""
        code, out, _ = run(capsys, "atlas", *box)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_one_type1_test_per_line(self, capsys, monkeypatch):
        """The Type-I flag of atlas and exists comes from the verdict, and
        each line's flag is exists_type1 of its setting.  exists makes no
        call beyond those of exists_type2."""
        from constacyclic import duadic

        seen = []
        real = duadic.exists_type1

        def counted(setting):
            seen.append(setting)
            return real(setting)

        monkeypatch.setattr(duadic, "exists_type1", counted)
        code, out, _ = run(capsys, "atlas")
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(seen) == len(lines) > 0
        assert [e["type1"] for e in lines] == [real(st) for st in seen]
        for q, n, lam in [(3, 20, 2), (13, 14, 5)]:
            st = make_setting(q, n, lam)
            seen.clear()
            exists_type2(st)
            library = len(seen)
            seen.clear()
            argv = ["--q", str(q), "--n", str(n), "--lambda", str(lam)]
            code, out, _ = run(capsys, "exists", *argv)
            assert code == 0 and len(seen) == library
            assert json.loads(out)["type1_exists"] == real(st)

    def test_keeps_no_setting(self, capsys):
        """atlas asks for each setting once, so it leaves make_setting's
        cache as it found it."""
        from constacyclic import codes

        before = codes._setting_cached.cache_info().currsize
        code, out, _ = run(capsys, "atlas", "--max-q", "16", "--max-n", "30")
        assert code == 0 and out
        assert codes._setting_cached.cache_info().currsize == before

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

    def test_box_over_the_field_cap_exits_two(self, capsys, monkeypatch):
        """1048583 is the least prime power above 2^20: a box reaching it
        is refused before any line, and one stopping short passes.  The
        message states the cap that is set."""
        code, out, err = run(capsys, "atlas", "--max-q", "1048583", "--max-n", "1")
        assert code == 2 and out == ""
        assert "1048583" in err and "2^20" in err
        cli._check_atlas_box(1048582, 1)
        monkeypatch.setattr(cli.gf, "MAX_FIELD_SIZE", 1 << 10)
        with pytest.raises(TooLarge, match="field size 1031, over the 2\\^10 cap"):
            cli._check_atlas_box(1031, 1)

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

    @pytest.mark.parametrize("lam", ["1 2", "3 0", "-1 0"])
    def test_lambda_coordinate_out_of_range(self, capsys, lam):
        """Each coordinate of an extension-field element lies in [0, p);
        none is reduced mod p."""
        code, out, err = run(capsys, "exists", "--q", "4", "--n", "5", "--lambda", lam)
        assert (code, out) == (2, "")
        assert err == f"error: element '{lam}' out of range for GF(4)\n"

    def test_certificate_lambda_coordinate_out_of_range(self, capsys, monkeypatch):
        code, out, _ = run(capsys, "split", "--q", "4", "--n", "5", "--lambda", "1 0")
        assert code == 0
        cert = {**json.loads(out), "lambda": "1 2"}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(cert)))
        code, out, err = run(capsys, "verify")
        assert (code, out) == (2, "")
        assert err == "error: element '1 2' out of range for GF(4)\n"

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

    MERSENNE_31 = ["--q", "2", "--n", "2147483647", "--lambda", "1"]
    # the 2-cyclotomic coset of 1 mod 2^31 - 1
    COSET_OF_1 = ",".join(str(1 << i) for i in range(31))

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
            (["code", *MERSENNE_31, "--P", COSET_OF_1], "", None),
            (["dual", *MERSENNE_31, "--P", COSET_OF_1], "", None),
            # below the witness cap, over the field cap: GF(2^22)
            (["dual", "--q", "2", "--n", "4194303", "--lambda", "1", "--P", "0"], "", None),
        ],
        ids=["exists", "split", "verify", "code", "dual", "dual-tower-first"],
    )
    def test_over_the_cap_exits_two_promptly(self, argv, stdin, payload):
        """split, verify, code and dual are refused with exit 2; exists,
        which needs no witness for its verdict, prints the verdict alone
        and exits 0."""
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

    def test_dual_asks_for_the_tower_before_listing(self, monkeypatch, capsys):
        """Over the field cap, dual is refused before P_{n,lambda^t} is listed."""

        def no_listing(setting, t=1):
            raise AssertionError("P_{n,lambda^t} listed before the tower")

        monkeypatch.setattr(constacyclic.codes.CodeSetting, "p_set", no_listing)
        argv = ["dual", "--q", "2", "--n", "4194303", "--lambda", "1", "--P", "0"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: field size 2^22 exceeds 2^20\n"


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
