import argparse
import ast
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from wolstenholme import cli as cli_module
from wolstenholme.cli import _build_parser, _scan_params
from wolstenholme.search import _SCANS, params_digest
from wolstenholme.verify import default_bound, run_suite
from wolstenholme.wpoly import construct_W


def cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "wolstenholme.cli", *args],
        capture_output=True,
        text=True,
        input=stdin,
    )


class TestVerifyCommand:
    def test_passing_suite_exits_zero(self):
        r = cli("verify", "ident", "--bound", "40")
        assert r.returncode == 0
        assert r.stdout == ""  # violations only on stdout
        assert "0 violations" in r.stderr

    @pytest.mark.parametrize("alias", ["form3-cross", "form4-cross", "w-properties"])
    def test_alias_names(self, alias):
        r = cli("verify", alias, "--bound", "12")
        assert r.returncode == 0

    def test_wpoly_suite(self):
        r = cli("verify", "wpoly", "--bound", "31")
        assert r.returncode == 0
        assert r.stdout == ""

    def test_unknown_suite_exits_two(self):
        r = cli("verify", "nosuch")
        assert r.returncode == 2

    @pytest.mark.parametrize("call", [run_suite, default_bound])
    def test_unknown_suite_is_value_error(self, call):
        # the library names the suites, as run_scan names the scans
        with pytest.raises(ValueError, match="unknown suite 'nonesuch'; choose from .*'equ'"):
            call("nonesuch")

    @pytest.mark.parametrize("bound", [True, False, 2.5, "200"])
    def test_bound_not_an_int_is_value_error(self, bound):
        # a bool is an int too and would run as 1, and a float would fail
        # inside the suite with a bare TypeError
        with pytest.raises(ValueError, match=f"suite form2 bound {bound!r} is not an int"):
            run_suite("form2", bound)

    @pytest.mark.parametrize("name", ["bands", "equ"])
    def test_bound_past_the_prime_table_is_value_error(self, name):
        with pytest.raises(ValueError, match=rf"suite {name} bound 4294967296 is not below 2\*\*32$"):
            run_suite(name, 2**32)


# argv: module.function to die in, the call k to die at, then the CLI argv
_KILL_IN_SAVE = """
import itertools, json, os, sys
from wolstenholme import search
from wolstenholme.cli import main

clock = itertools.count(0, 2)
search.monotonic = lambda: next(clock)
module, name = sys.argv[1].split(".")
module, k = {"json": json, "os": os}[module], int(sys.argv[2])
real, calls = getattr(module, name), itertools.count(1)


def dying(*args, **kwargs):
    if next(calls) == k:
        os._exit(137)
    return real(*args, **kwargs)


setattr(module, name, dying)
sys.exit(main(sys.argv[3:]))
"""

JONES_100000_SHA256 = "b84d39077c347053cacd281540f87b36a51bfc180c2c6c053bd79911d2a0b7b9"


class TestScanCommand:
    def test_wilson_records(self):
        r = cli("scan", "wilson", "--limit", "1000")
        assert r.returncode == 0
        assert [json.loads(l)["subject"] for l in r.stdout.splitlines()] == [5, 13, 563]

    def test_missing_limit_exits_two(self):
        r = cli("scan", "jones")
        assert r.returncode == 2

    def test_unknown_scan_exits_two(self):
        r = cli("scan", "nonesuch", "--limit", "5")
        assert r.returncode == 2

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["jones", "--limit", "300"], "663ce1e9324db482"),
            (["new-conjecture", "--p-max", "2000", "--q-max", "100000"], "77370d61bf938fd1"),
            (["new-conjecture", "--p-max", "100", "--q-max", "1000"], "aa1259285147acd1"),
            (["pairs", "--known"], "73c511deafc1180b"),
            (["pairs", "--known", "--stretch"], "b18287a79aa114e0"),
            (["pairs", "--p-max", "30", "--q-max", "900"], "5626c578a0981286"),
        ],
        ids=["limit", "new-conjecture", "new-conjecture-readme", "known", "known-stretch", "pairs-range"],
    )
    def test_params_hash_pinned(self, argv, digest):
        params = _scan_params(_build_parser().parse_args(["scan", *argv]))
        assert params_digest(params) == digest

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["jones"], "requires --limit"),
            (["new-conjecture", "--p-max", "50"], "requires --p-max and --q-max"),
            (["pairs", "--q-max", "50"], "requires --known or --p-max and --q-max"),
        ],
    )
    def test_usage_error_leaves_out_file(self, tmp_path, argv, message):
        out = tmp_path / "records.jsonl"
        out.write_text("kept\n")
        r = cli("scan", *argv, "--out", str(out))
        assert r.returncode == 2
        assert message in r.stderr
        assert out.read_text() == "kept\n"

    @pytest.mark.parametrize(
        "argv, flags",
        [
            (["wilson", "--limit", "30", "--stretch"], "--stretch"),
            (["wilson", "--limit", "30", "--known"], "--known"),
            (["wilson", "--limit", "30", "--p-max", "9"], "--p-max"),
            (["pairs", "--known", "--p-max", "5", "--q-max", "9"], "--p-max and --q-max"),
            (["pairs", "--p-max", "7", "--q-max", "40", "--limit", "3"], "--limit"),
            (["pairs", "--p-max", "7", "--q-max", "40", "--limit", "0"], "--limit"),
            (["pairs", "--p-max", "7", "--q-max", "40", "--stretch"], "--stretch"),
        ],
        ids=["wilson-stretch", "wilson-known", "wilson-p-max", "known-with-range", "pairs-limit",
             "pairs-limit-0", "range-with-stretch"],
    )
    def test_unread_flag_is_usage_error(self, tmp_path, capsys, argv, flags):
        # the flag would be dropped without a word; --out is not opened
        out = tmp_path / "records.jsonl"
        assert cli_module.main(["scan", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"usage error: scan {argv[0]} does not take {flags}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["scan", "new-conjecture", "--p-max", "10", "--q-max", "4294967296"],
             "scan new-conjecture param q_max=4294967296 is not below 2**32"),
            (["scan", "pairs", "--p-max", "10", "--q-max", "4294967296"],
             "scan pairs param q_max=4294967296 is not below 2**32"),
            (["verify", "bands", "--bound", "4294967296"],
             "suite bands bound 4294967296 is not below 2**32"),
        ],
        ids=["new-conjecture", "pairs", "verify"],
    )
    def test_bound_past_the_prime_table_is_usage_error(self, tmp_path, capsys, argv, message):
        # each died in primes_upto with a traceback and exit 1, the exit of a
        # violated expectation, after --out was created
        out = tmp_path / "records.jsonl"
        extra = ["--out", str(out)] if argv[0] == "scan" else []
        assert cli_module.main([*argv, *extra]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"usage error: {message}\n")
        assert not out.exists()

    def test_scan_flags_are_the_table_keys(self):
        # a flag for each param some scan reads, and none for a param no scan reads
        parser = _build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        actions = sub.choices["scan"]._actions
        numeric = {a.dest for a in actions if a.type is int}
        switches = {a.dest for a in actions if isinstance(a, argparse._StoreTrueAction)}
        assert numeric == {k for sd in _SCANS.values() for k in sd.required}
        published = any(sd.known for sd in _SCANS.values())
        assert switches == ({"known", "stretch"} if published else set())

    def test_stdout_deterministic(self):
        a = cli("scan", "new-conjecture", "--p-max", "50", "--q-max", "500")
        b = cli("scan", "new-conjecture", "--p-max", "50", "--q-max", "500")
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode == 0

    def test_known_pairs(self):
        r = cli("scan", "pairs", "--known")
        assert r.returncode == 0
        subjects = [json.loads(l)["subject"] for l in r.stdout.splitlines()]
        assert subjects == [[29, 937], [787, 2543]]

    def test_checkpoint_resume_to_file(self, tmp_path):
        out = tmp_path / "records.jsonl"
        cp = tmp_path / "cp.json"
        full = cli("scan", "jones", "--limit", "200").stdout
        args = ("scan", "jones", "--limit", "200", "--out", str(out), "--checkpoint", str(cp))
        assert cli(*args).returncode == 0
        assert cli(*args).returncode == 0  # resume after completion appends nothing
        assert out.read_text() == full

    def test_resume_onto_stdout_is_usage_error(self, tmp_path):
        out = tmp_path / "records.jsonl"
        cp = tmp_path / "cp.json"
        args = ("scan", "jones", "--limit", "200", "--checkpoint", str(cp))
        assert cli(*args, "--out", str(out)).returncode == 0
        saved = cp.read_text()
        r = cli(*args)
        assert r.returncode == 2
        assert "resuming needs --out" in r.stderr
        assert r.stdout == ""
        assert cp.read_text() == saved

    def test_damaged_prefix_exits_two(self, tmp_path):
        out = tmp_path / "records.jsonl"
        cp = tmp_path / "cp.json"
        args = ("scan", "jones", "--limit", "200", "--out", str(out), "--checkpoint", str(cp))
        assert cli(*args).returncode == 0
        data = bytearray(out.read_bytes())
        data[10] ^= 1
        out.write_bytes(bytes(data))
        r = cli(*args)
        assert r.returncode == 2
        assert "checkpoint error" in r.stderr
        assert out.read_bytes() == bytes(data)

    def test_resume_in_other_format_exits_two(self, tmp_path):
        out, cp = tmp_path / "out.csv", tmp_path / "cp.json"
        args = ("scan", "jones", "--limit", "200", "--out", str(out), "--checkpoint", str(cp))
        assert cli(*args, "--format", "csv").returncode == 0
        before = out.read_bytes()
        r = cli(*args)
        assert r.returncode == 2
        assert "checkpoint error" in r.stderr
        assert out.read_bytes() == before

    @pytest.mark.parametrize(
        "field, value",
        [
            ("offset", "abc"),
            ("offset", -5),
            ("offset", True),
            ("offset", 1.5),
            ("records_emitted", None),
            ("records_emitted", -1),
            ("last_subject", "x"),
            ("last_subject", None),
            ("last_subject", [5, 7, 11]),
            ("last_subject", [5, "7"]),
            ("last_subject", [593, 599]),  # a pair: every scan's subjects are ints
            ("last_subject", -10),
            ("last_subject", 1),  # below wilson's first subject, 2
            ("sha256", "00" * 31),
            ("sha256", "zz" * 32),
            ("sha256", 0),
            ("fmt", "xml"),
            ("fmt", None),
        ],
    )
    def test_malformed_checkpoint_field_exits_two(self, tmp_path, capsys, field, value):
        out, cp = tmp_path / "records.jsonl", tmp_path / "cp.json"
        args = ["scan", "wilson", "--limit", "600", "--out", str(out), "--checkpoint", str(cp)]
        assert cli_module.main(args) == 0
        raw = json.loads(cp.read_text())
        raw[field] = value
        cp.write_text(json.dumps(raw))
        before = out.read_bytes()
        capsys.readouterr()
        assert cli_module.main(args) == 2
        err = capsys.readouterr().err
        assert "checkpoint error" in err and field in err
        assert out.read_bytes() == before

    def test_last_subject_below_first_exits_two_jones(self, tmp_path, capsys):
        out, cp = tmp_path / "records.jsonl", tmp_path / "cp.json"
        args = ["scan", "jones", "--limit", "200", "--out", str(out), "--checkpoint", str(cp)]
        assert cli_module.main(args) == 0
        raw = json.loads(cp.read_text())
        raw["last_subject"] = -10
        cp.write_text(json.dumps(raw))
        before = out.read_bytes()
        capsys.readouterr()
        assert cli_module.main(args) == 2
        err = capsys.readouterr().err
        assert "checkpoint error" in err and "last_subject" in err
        assert out.read_bytes() == before

    @pytest.mark.parametrize("interval", ["0", "-3"])
    def test_checkpoint_interval_below_one_is_usage_error(self, tmp_path, capsys, interval):
        # the cadence is set by elapsed time; no flag sets it, so any value is refused
        out = tmp_path / "records.jsonl"
        with pytest.raises(SystemExit) as info:
            cli_module.main(["scan", "wilson", "--limit", "600", "--out", str(out),
                             "--checkpoint-interval", interval])
        assert info.value.code == 2
        assert "unrecognized arguments: --checkpoint-interval" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("where", ["json.dump", "os.replace"])
    def test_kill_inside_checkpoint_save_leaves_no_temp_file(self, tmp_path, fmt, where, k):
        # under a clock that advances 2 s per read, wilson saves after every
        # prime; the child dies at the k-th call of where inside that save,
        # and a plain rerun finishes the scan
        def argv(directory):
            return ["scan", "wilson", "--limit", "200", "--format", fmt,
                    "--out", str(directory / f"out.{fmt}"),
                    "--checkpoint", str(directory / "cp.json")]

        whole = tmp_path / "whole"
        whole.mkdir()
        assert cli_module.main(argv(whole)) == 0
        cut = tmp_path / "cut"
        cut.mkdir()
        r = subprocess.run([sys.executable, "-c", _KILL_IN_SAVE, where, str(k), *argv(cut)],
                           capture_output=True, text=True, timeout=60)
        assert r.returncode == 137, r.stderr
        assert cli(*argv(cut)).returncode == 0
        assert sorted(os.listdir(cut)) == sorted(os.listdir(whole)) == ["cp.json", f"out.{fmt}"]
        for name in os.listdir(whole):
            assert (cut / name).read_bytes() == (whole / name).read_bytes(), name

    def test_sigkill_then_rerun_is_byte_identical(self, tmp_path):
        # jones to 10^5 runs for seconds, so it saves a checkpoint mid-run
        out = tmp_path / "records.jsonl"
        cp = tmp_path / "cp.json"
        argv = [sys.executable, "-m", "wolstenholme.cli", "scan", "jones",
                "--limit", "100000", "--out", str(out), "--checkpoint", str(cp)]
        proc = subprocess.Popen(argv, stderr=subprocess.DEVNULL)
        try:
            # kill once records past the checkpoint have reached the file
            deadline = time.monotonic() + 60
            while proc.poll() is None and time.monotonic() < deadline:
                try:
                    offset = json.loads(cp.read_text())["offset"]
                except (OSError, ValueError):
                    offset = None
                if offset is not None and out.stat().st_size > offset:
                    break
                time.sleep(0.005)
            proc.send_signal(signal.SIGKILL)
        finally:
            proc.wait(timeout=30)
        assert proc.returncode == -signal.SIGKILL  # interrupted, not finished
        r = subprocess.run(argv, capture_output=True, text=True, timeout=300)
        assert r.returncode == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == JONES_100000_SHA256
        # the rerun resumed: it ran fewer than the 99999 subjects 2..10^5
        subjects = int(r.stderr.split(" subjects,")[0].rsplit(" ", 1)[1])
        assert 0 < subjects < 99999

    def test_csv_format(self):
        r = cli("scan", "wilson", "--limit", "600", "--format", "csv")
        assert r.returncode == 0
        assert r.stdout.splitlines()[0] == "scan,subject,witness,verdict,params_hash"


W151_EXPORT_SHA256 = "7a337b6232129fcabd961991819cd502340cc14883f58322ebd9e4e463d6a2b7"


class TestWpolyCommand:
    def test_export_document(self):
        r = cli("wpoly", "5")
        assert r.returncode == 0
        assert json.loads(r.stdout) == {
            "p": 5,
            "coeffs_ascending": ["30", "345", "-30", "15"],
        }
        assert "verify_W(5)" in r.stderr

    def test_nonprime_exits_two(self):
        assert cli("wpoly", "4").returncode == 2
        assert cli("wpoly", "3").returncode == 2

    def test_nonprime_message(self, capsys):
        assert cli_module.main(["wpoly", "9"]) == 2
        assert capsys.readouterr().err == "usage error: wpoly requires a prime p >= 5, got 9\n"

    def test_out_file(self, tmp_path):
        out = tmp_path / "w61.json"
        r = cli("wpoly", "61", "--out", str(out))
        assert r.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["p"] == 61
        assert len(doc["coeffs_ascending"]) == 2 * 61 - 6  # degree 115
        assert all(isinstance(c, str) for c in doc["coeffs_ascending"])

    def test_export_past_int_str_digit_limit(self, tmp_path, monkeypatch):
        # coefficients of W(151) have up to 751 digits, past a 640-digit cap
        w151 = construct_W(151)
        monkeypatch.setattr(cli_module, "construct_W", lambda p: w151)
        default_out = tmp_path / "default.json"
        assert cli_module.main(["wpoly", "151", "--out", str(default_out)]) == 0
        capped_out = tmp_path / "capped.json"
        old_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert cli_module.main(["wpoly", "151", "--out", str(capped_out)]) == 0
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(old_limit)
        assert capped_out.read_bytes() == default_out.read_bytes()
        assert hashlib.sha256(default_out.read_bytes()).hexdigest() == W151_EXPORT_SHA256


class TestRunAsPackage:
    def test_python_m_wolstenholme_from_checkout(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}

        def run(*args):
            return subprocess.run(
                [sys.executable, "-m", "wolstenholme", *args],
                capture_output=True,
                text=True,
                cwd=tmp_path,
                env=env,
            )

        r = run("wpoly", "5")
        assert r.returncode == 0
        assert r.stdout == cli("wpoly", "5").stdout
        assert run("wpoly", "4").returncode == 2


class TestClassifyCommand:
    def test_bands_p11(self):
        r = cli("classify", "11")
        assert r.returncode == 0
        rows = [json.loads(l) for l in r.stdout.splitlines()]
        assert [row["q"] for row in rows] == [5, 7, 13, 17, 19]
        assert all(row["predicted_divides"] == row["actual_divides"] for row in rows)

    def test_nonprime_exits_two(self):
        assert cli("classify", "10").returncode == 2

    def test_nonprime_message(self, capsys):
        assert cli_module.main(["classify", "10"]) == 2
        assert capsys.readouterr().err == "usage error: classify requires a prime p >= 5, got 10\n"


class TestUnwritableOutput:
    """A file the CLI cannot write is a usage error (exit 2), not a
    violated expectation (exit 1) with a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "wilson", "--limit", "50", "--out", "{bad}"],
            ["classify", "11", "--out", "{bad}"],
            ["wpoly", "7", "--out", "{bad}"],
            ["scan", "wilson", "--limit", "50", "--out", "{ok}", "--checkpoint", "{bad}"],
        ],
        ids=["scan-out", "classify-out", "wpoly-out", "scan-checkpoint"],
    )
    def test_exits_two_naming_the_path(self, tmp_path, argv):
        bad = str(tmp_path / "missing" / "file")
        ok = str(tmp_path / "records.jsonl")
        r = cli(*(a.format(bad=bad, ok=ok) for a in argv))
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert f"usage error: cannot write {bad}: No such file or directory" in r.stderr


class TestReportCommand:
    def test_summarize_stream(self):
        scan = cli("scan", "new-conjecture", "--p-max", "100", "--q-max", "1000")
        rep = cli("report", stdin=scan.stdout)
        assert rep.returncode == 0
        summary = json.loads(rep.stdout)
        assert summary["records"] == 1
        assert summary["new_conjecture"]["max_q_over_p"] == "3/13"
        assert summary["damage"] == {
            "repeated_or_backwards_subjects": 0,
            "scans_with_mixed_params_hash": [],
            "unparseable_lines": 0,
        }

    def test_ratio_counts_hits_only(self):
        # a fail record with q > p must not push max_q_over_p above 1
        lines = [
            json.dumps({"scan": "new-conjecture", "subject": p, "witness": {"q": q},
                        "verdict": verdict, "params_hash": "x"})
            for p, q, verdict in ((13, "3", "hit"), (13, "29", "fail"))
        ]
        rep = cli("report", stdin="\n".join(lines) + "\n")
        assert rep.returncode == 1  # the fail record
        assert json.loads(rep.stdout)["new_conjecture"] == {
            "hits": 1,
            "max_q_over_p": "3/13",
        }

    def test_fail_records_exit_one(self):
        line = json.dumps(
            {
                "scan": "jones",
                "subject": 10,
                "witness": {},
                "verdict": "fail",
                "params_hash": "x",
            }
        )
        rep = cli("report", stdin=line + "\n")
        assert rep.returncode == 1

    def test_missing_file_exits_two(self, tmp_path):
        rep = cli("report", str(tmp_path / "nope.jsonl"))
        assert rep.returncode == 2
        assert "usage error" in rep.stderr
        assert "Traceback" not in rep.stderr

    def test_ratio_matches_the_scan(self):
        # the scan's own ratio report (stderr) and report over its stream agree
        scan = cli("scan", "new-conjecture", "--p-max", "200", "--q-max", "5000")
        assert scan.returncode == 0
        line = next(l for l in scan.stderr.splitlines() if l.startswith("ratio report: "))
        own = ast.literal_eval(line.removeprefix("ratio report: "))
        rep = cli("report", stdin=scan.stdout)
        assert rep.returncode == 0
        summary = json.loads(rep.stdout)["new_conjecture"]
        assert own["hits"] > 1
        assert summary == {"hits": own["hits"], "max_q_over_p": own["max_q_over_p"]}


def _record(subject, params_hash="h", scan="s", **witness) -> str:
    rec = {"scan": scan, "subject": subject, "witness": witness, "verdict": "hit",
           "params_hash": params_hash}
    return json.dumps(rec, separators=(",", ":")) + "\n"


class TestReportDamage:
    def _damage(self, stream, *extra):
        rep = cli("report", *extra, stdin=stream)
        assert "Traceback" not in rep.stderr
        return rep.returncode, json.loads(rep.stdout)["damage"]

    def test_torn_line(self):
        code, damage = self._damage(_record(5) + '{"scan":"jones","subj')
        assert code == 1
        assert damage["unparseable_lines"] == 1

    def test_duplicated_tail(self):
        stream = cli("scan", "jones", "--limit", "300").stdout
        lines = stream.splitlines(keepends=True)
        code, damage = self._damage(stream + "".join(lines[-5:]))
        assert code == 1
        assert damage["repeated_or_backwards_subjects"] == 5

    def test_pair_subjects_going_backwards(self):
        stream = _record([7, 11]) + _record([7, 13]) + _record([5, 900]) + _record([7, 13])
        code, damage = self._damage(stream)
        assert code == 1
        assert damage["repeated_or_backwards_subjects"] == 2

    def test_records_sharing_a_subject_are_fine(self):
        # new-conjecture emits one record per q for the same p
        code, damage = self._damage(_record(13, q="3") + _record(13, q="5") + _record(17))
        assert code == 0
        assert damage["repeated_or_backwards_subjects"] == 0

    def test_mixed_params_hash(self):
        code, damage = self._damage(_record(5, "a") + _record(7, "b"))
        assert code == 1
        assert damage["scans_with_mixed_params_hash"] == ["s"]

    @pytest.mark.parametrize(
        "subject, q",
        [(13, "abc"), (0, "3"), ([5, 7], "3")],
        ids=["q-not-decimal", "subject-zero", "pair-subject"],
    )
    def test_new_conjecture_hit_without_a_ratio(self, subject, q):
        # the hit's q/p cannot be read, so the line counts as unparseable,
        # and the scan's subjects keep the shape of the hit that follows
        stream = _record(subject, scan="new-conjecture", q=q)
        stream += _record(13, scan="new-conjecture", q="3")
        rep = cli("report", stdin=stream)
        assert "Traceback" not in rep.stderr
        assert rep.returncode == 1
        summary = json.loads(rep.stdout)
        assert summary["damage"]["unparseable_lines"] == 1
        assert summary["new_conjecture"] == {"hits": 1, "max_q_over_p": "3/13"}

    @pytest.mark.parametrize("subject", [[], [5], [1, 2, 3]], ids=["empty", "one", "three"])
    def test_subject_list_not_a_pair(self, subject):
        code, damage = self._damage(_record(3) + _record(subject))
        assert code == 1
        assert damage["unparseable_lines"] == 1

    @pytest.mark.parametrize("first, then", [(5, [5, 7]), ([5, 7], 11)], ids=["int-pair", "pair-int"])
    def test_mixed_subject_shapes(self, first, then):
        # a scan's subjects all have the shape of its first record's
        stream = _record(first, scan="wilson") + _record(then, scan="wilson")
        code, damage = self._damage(stream + _record([5, 7]) + _record(9))
        assert code == 1
        assert damage["unparseable_lines"] == 2  # the second wilson record and s's 9

    def test_csv_damage(self):
        stream = cli("scan", "wilson", "--limit", "600", "--format", "csv").stdout
        lines = stream.splitlines(keepends=True)
        code, damage = self._damage(stream + lines[1] + "wilson,7,{", "--format", "csv")
        assert code == 1
        assert damage["repeated_or_backwards_subjects"] == 1
        assert damage["unparseable_lines"] == 1

    def test_extra_jsonl_key(self):
        # as a csv row with an extra field is
        junk = '{"scan":"s","subject":5,"witness":{},"verdict":"hit","params_hash":"h","junk":1}\n'
        code, damage = self._damage(_record(3) + junk)
        assert code == 1
        assert damage["unparseable_lines"] == 1

    @pytest.mark.parametrize(
        "header", ["", "scan,subjec,witness,verdict,params_hash\n"], ids=["lost", "damaged"]
    )
    def test_csv_header_not_first(self, header):
        # scan wilson --limit 600 --format csv | tail -n +2 | report --format csv:
        # the missing header is damage, and no record is taken for it
        stream = cli("scan", "wilson", "--limit", "600", "--format", "csv").stdout
        rows = stream.splitlines(keepends=True)[1:]
        rep = cli("report", "--format", "csv", stdin=header + "".join(rows))
        assert "Traceback" not in rep.stderr
        assert rep.returncode == 1
        summary = json.loads(rep.stdout)
        assert (summary["records"], summary["by_scan"]) == (3, {"wilson": {"hit": 3}})
        assert summary["damage"]["unparseable_lines"] == 1

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_non_ascii_bytes(self, tmp_path, fmt, source):
        header = "scan,subject,witness,verdict,params_hash\n" if fmt == "csv" else ""
        good = _record(5) if fmt == "jsonl" else "s,5,{},hit,h\n"
        data = (header + good).encode() + b"\xff\xfe\n"
        args = ["report", "--format", fmt]
        if source == "file":
            path = tmp_path / f"bad.{fmt}"
            path.write_bytes(data)
            args.append(str(path))
        rep = subprocess.run(
            [sys.executable, "-m", "wolstenholme.cli", *args],
            capture_output=True,
            input=data if source == "stdin" else None,
        )
        assert b"Traceback" not in rep.stderr
        assert rep.returncode == 1
        summary = json.loads(rep.stdout)
        assert summary["records"] == 1
        assert summary["damage"]["unparseable_lines"] == 1

    def test_deeply_nested_line(self):
        # json.loads gives up with RecursionError, not ValueError, on this one
        code, damage = self._damage(_record(5) + "[" * 100000 + "\n")
        assert code == 1
        assert damage["unparseable_lines"] == 1

    def test_non_ascii_inside_a_record(self):
        code, damage = self._damage(_record(5).replace('"h"', '"h\u00e9"'))
        assert code == 1
        assert damage["unparseable_lines"] == 1

    def test_csv_torn_quote_mid_file(self):
        header = "scan,subject,witness,verdict,params_hash\n"
        # the torn quote swallows everything after it: more than csv's field limit
        stream = header + 's,5,"{""q\n' + "s,7,{},hit,h\n" * 12000
        code, damage = self._damage(stream, "--format", "csv")
        assert code == 1
        assert damage["unparseable_lines"] == 1


def _pinned_streams():
    """The three report inputs whose output is pinned: an intact jsonl scan,
    a csv scan with a duplicated row and a torn last row, and a jsonl stream
    that mixes subject shapes and params hashes and holds a new-conjecture
    hit whose q/p cannot be read."""
    jones = cli("scan", "jones", "--limit", "300").stdout
    rows = cli("scan", "wilson", "--limit", "600", "--format", "csv").stdout.splitlines(True)
    csv_damaged = "".join(rows[:2] + rows[1:]) + rows[-1][:9]
    mixed = (
        _record(5, scan="wilson") + _record([5, 7], scan="wilson") + _record(13, scan="wilson")
        + _record(5, "a") + _record(7, "b")
        + _record(13, scan="new-conjecture", q="abc")
        + _record(13, scan="new-conjecture", q="3")
        + _record(11, scan="new-conjecture", q="3")
    )
    return {"jones": (jones, "jsonl"), "csv-damaged": (csv_damaged, "csv"), "mixed": (mixed, "jsonl")}


# sha256 of report's stdout and stderr on each pinned stream, with its exit code
_NO_DAMAGE = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
REPORT_PINS = [
    ("jones", 0, "992ac6ebfe2cb0c0e875c5e434a21cd1268fcb7c2ad4ea808e9d18d0257155ad", _NO_DAMAGE),
    ("csv-damaged", 1,
     "903b86e8c8c2091a25cc22e4cd24c66ec1b7b1a6a184fb43837fc120525fbf95",
     "2ba779515b6064f6b7ffb77fbd46b777bf3cbe266f32dc8a2e151e4cd678990d"),
    ("mixed", 1,
     "75ac4503a674a62e7fe4626be3f746e734f76a6a05511fb8fc19b19a2b65c3d4",
     "c4d193ddc6fbb194f24b49cafaabe2d403bae15e01a906a1675fa0a8caf8b5a4"),
]


@pytest.mark.parametrize("name, code, stdout, stderr", REPORT_PINS, ids=[p[0] for p in REPORT_PINS])
def test_report_output_pinned(name, code, stdout, stderr):
    stream, fmt = _pinned_streams()[name]
    rep = cli("report", "--format", fmt, stdin=stream)
    assert rep.returncode == code
    assert hashlib.sha256(rep.stdout.encode()).hexdigest() == stdout
    assert hashlib.sha256(rep.stderr.encode()).hexdigest() == stderr
