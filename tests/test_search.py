import hashlib
import io
import itertools
import json
import math
import os
from fractions import Fraction

import pytest

from wolstenholme import arith, congruence, search
from wolstenholme.arith import is_prime, primes_in, primes_upto, valuation
from wolstenholme.cli import main
from wolstenholme.congruence import pair_criterion, w_exact, w_mod, wilson_residue
from wolstenholme.errors import CheckpointError
from wolstenholme.search import (
    _SCANS,
    FORMAT_VERSION,
    Checkpoint,
    ScanRecord,
    check_stream,
    checkpoint_load,
    checkpoint_save,
    max_ratio_report,
    params_digest,
    read_records,
    run_scan,
    scan_records,
)
from w_oracle import w_iter


class TestScans:
    def test_wilson_known_primes(self):
        recs = scan_records("wilson", {"limit": 1000})
        assert [r.subject for r in recs] == [5, 13, 563]

    def test_wilson_below_first(self):
        assert scan_records("wilson", {"limit": 4}) == []

    def test_wilson_cube_empty(self):
        assert scan_records("wilson-cube", {"limit": 2000}) == []

    def test_jones_hits_are_primes(self):
        recs = scan_records("jones", {"limit": 300})
        assert [r.subject for r in recs] == [p for p in primes_upto(300) if p >= 5]
        assert all(r.verdict == "hit" for r in recs)
        assert all(r.witness["reverified"] is True for r in recs)

    def test_jones_small_limit(self):
        assert scan_records("jones", {"limit": 4}) == []

    def test_wolstenholme_none_below_1000(self):
        assert scan_records("wolstenholme-primes", {"limit": 1000}) == []

    def test_mod5_empty(self):
        assert scan_records("mod5", {"limit": 500}) == []

    def test_new_conjecture_13_3(self):
        recs = scan_records("new-conjecture", {"p_max": 13, "q_max": 100})
        assert len(recs) == 1
        rec = recs[0]
        assert rec.subject == 13 and rec.witness["q"] == "3"
        assert rec.witness["valuation"] == "2"  # 9 | 5200299 but 27 does not
        assert rec.verdict == "hit"

    def test_new_conjecture_no_hits_small(self):
        # w(5)-1 = 5^3 exactly; w(7)-1 = 1715 = 5 * 7^3
        assert scan_records("new-conjecture", {"p_max": 5, "q_max": 100}) == []
        assert scan_records("new-conjecture", {"p_max": 7, "q_max": 100}) == []

    def test_new_conjecture_records_every_square_divisor_to_300(self):
        # the records are exactly the q != p with q^2 | w(p) - 1, by w_mod
        # over every pair of primes up to 300; each has q < p, so no
        # n = pq with 3 <= p < q <= 300 has both halves of the level-2 pair
        # criterion, w(n) = 1 (mod n^2)
        ps = primes_upto(300)
        recs = scan_records("new-conjecture", {"p_max": 300, "q_max": 300})
        found = [(r.subject, int(r.witness["q"])) for r in recs]
        expected = [(p, q) for p in ps for q in ps if q != p and w_mod(p, q * q) == 1]
        assert found == expected == [(13, 3), (107, 7), (113, 7), (137, 17)]
        assert all(r.verdict == "hit" for r in recs)
        pairs = itertools.combinations([p for p in ps if p >= 3], 2)
        assert [(p, q) for p, q in pairs if all(pair_criterion(p, q, 2))] == []

    def test_new_conjecture_ratio_report(self):
        recs = scan_records("new-conjecture", {"p_max": 100, "q_max": 1000})
        rep = max_ratio_report(recs)
        assert rep["hits"] == len(recs) >= 1
        assert rep["max_q_over_p"] == "3/13"

    def test_ratio_report_counts_hits_only(self):
        # a fail record (here q > p) is not a hit and must not set the ratio
        hit = search.ScanRecord("new-conjecture", 13, {"q": "3"}, "hit", "h")
        fail = search.ScanRecord("new-conjecture", 13, {"q": "29"}, "fail", "h")
        rep = max_ratio_report([hit, fail])
        assert rep == {"hits": 1, "max_q_over_p": "3/13", "max_pair": [13, 3]}
        assert max_ratio_report([fail])["hits"] == 0

    def test_known_pairs(self):
        recs = scan_records("pairs", {"known": True, "stretch": False})
        assert [r.subject for r in recs] == [(29, 937), (787, 2543)]
        assert all(r.verdict == "hit" for r in recs)
        # first pair is inside the direct budget and cross-checked
        assert recs[0].witness["direct_agrees"] is True
        assert recs[1].witness["direct_agrees"] == "skipped"

    def test_range_pairs_no_hits(self):
        assert scan_records("pairs", {"p_max": 30, "q_max": 60}) == []

    def test_range_mode_needs_bounds(self):
        with pytest.raises(ValueError):
            scan_records("pairs", {"p_max": None, "q_max": None})


class TestCheckpointFile:
    def test_roundtrip(self, tmp_path):
        cp = Checkpoint("jones", {"limit": 50}, params_digest({"limit": 50}), 37, 4)
        path = str(tmp_path / "cp.json")
        checkpoint_save(cp, path)
        assert checkpoint_load(path) == cp

    def test_every_field_roundtrips(self, tmp_path):
        params = {"p_max": 40, "q_max": 60}
        cp = Checkpoint("pairs", params, params_digest(params), 29, 1,
                        offset=143, sha256="ab" * 32, fmt="csv")
        path = str(tmp_path / "cp.json")
        checkpoint_save(cp, path)
        assert checkpoint_load(path) == cp
        with open(path) as fh:
            raw = json.load(fh)
        assert raw["fmt"] == "csv" and raw["format_version"] == FORMAT_VERSION
        del raw["fmt"]
        with open(path, "w") as fh:
            json.dump(raw, fh)
        with pytest.raises(CheckpointError, match="is missing fields"):
            checkpoint_load(path)

    def test_pair_last_subject_is_malformed(self, tmp_path, capsys):
        # a pairs checkpoint whose last subject is a pair (p, q), as pairs
        # checkpoints were before each p became one subject, is refused
        # before its stream is touched
        params = {"p_max": 40, "q_max": 1000}
        out, path = tmp_path / "out.jsonl", str(tmp_path / "cp.json")
        with open(out, "w") as sink:
            run_scan("pairs", params, sink, checkpoint_path=path, limit_subjects=8)
        with open(path) as fh:
            raw = json.load(fh)
        raw["last_subject"] = [29, 937]
        with open(path, "w") as fh:
            json.dump(raw, fh)
        with pytest.raises(CheckpointError, match=r"malformed fields \['last_subject'\]"):
            checkpoint_load(path)
        before = out.read_bytes()
        argv = ["scan", "pairs", "--p-max", "40", "--q-max", "1000",
                "--out", str(out), "--checkpoint", path]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "checkpoint error" in err and "last_subject" in err
        assert out.read_bytes() == before

    def test_params_mismatch(self, tmp_path):
        path = str(tmp_path / "cp.json")
        cp = Checkpoint("jones", {"limit": 50}, params_digest({"limit": 50}), 37, 4)
        checkpoint_save(cp, path)
        with pytest.raises(CheckpointError, match="belongs to params {'limit': 50}"):
            checkpoint_load(path, expected_params={"limit": 51})

    def test_version_mismatch(self, tmp_path):
        path = str(tmp_path / "cp.json")
        cp = Checkpoint("jones", {"limit": 50}, params_digest({"limit": 50}), 37, 4)
        checkpoint_save(cp, path)
        with open(path) as fh:
            raw = json.load(fh)
        raw["format_version"] = FORMAT_VERSION + 1
        with open(path, "w") as fh:
            json.dump(raw, fh)
        with pytest.raises(CheckpointError, match=f"checkpoint format {FORMAT_VERSION + 1} != "):
            checkpoint_load(path)

    def test_corrupt_file(self, tmp_path):
        path = str(tmp_path / "cp.json")
        with open(path, "w") as fh:
            fh.write('{"scan": "jones"')  # truncated
        with pytest.raises(CheckpointError, match="cannot read checkpoint"):
            checkpoint_load(path)

    def test_unwritable_path_is_named(self, tmp_path):
        # the error names the checkpoint, not the temp file beside it
        path = str(tmp_path / "missing" / "cp.json")
        cp = Checkpoint("jones", {"limit": 50}, params_digest({"limit": 50}), 37, 4)
        with pytest.raises(FileNotFoundError) as info:
            checkpoint_save(cp, path)
        assert info.value.filename == path
        with pytest.raises(IsADirectoryError) as info:
            checkpoint_save(cp, str(tmp_path))
        assert info.value.filename == str(tmp_path)
        assert os.listdir(tmp_path) == []  # no temp file left behind

    def test_tampered_params_hash(self, tmp_path):
        path = str(tmp_path / "cp.json")
        cp = Checkpoint("jones", {"limit": 50}, params_digest({"limit": 50}), 37, 4)
        checkpoint_save(cp, path)
        with open(path) as fh:
            raw = json.load(fh)
        raw["params"] = {"limit": 999}
        with open(path, "w") as fh:
            json.dump(raw, fh)
        with pytest.raises(CheckpointError, match="params digest does not match"):
            checkpoint_load(path)


class TestRunner:
    def _full(self, name, params):
        buf = io.StringIO()
        run_scan(name, params, buf)
        return buf.getvalue()

    def test_identical_runs_identical_bytes(self):
        a = self._full("jones", {"limit": 200})
        b = self._full("jones", {"limit": 200})
        assert a == b

    @pytest.mark.parametrize("cut", [1, 3, 41, 167, 199])
    def test_resume_reproduces_stream(self, tmp_path, cut):
        params = {"limit": 200}
        full = self._full("jones", params)
        buf = io.StringIO()
        cpath = str(tmp_path / "cp.json")
        run_scan("jones", params, buf, checkpoint_path=cpath, limit_subjects=cut)
        run_scan("jones", params, buf, checkpoint_path=cpath)
        assert buf.getvalue() == full

    def test_ratio_report_covers_one_invocation(self, tmp_path):
        # hits at p = 13, 107, 113, 137; the cut after 20 subjects (p = 79)
        # leaves the largest q/p, 3/13, to the first leg only
        params = {"p_max": 200, "q_max": 5000}
        recs = scan_records("new-conjecture", params)
        buf = io.StringIO()
        cpath = str(tmp_path / "cp.json")
        legs = [
            run_scan("new-conjecture", params, buf, checkpoint_path=cpath, limit_subjects=cut)
            for cut in (20, None)
        ]
        first, second = [leg.ratio_report for leg in legs]
        assert first == max_ratio_report(r for r in recs if r.subject <= 79)
        assert second == max_ratio_report(r for r in recs if r.subject > 79)
        assert (first["max_pair"], second["hits"], second["max_pair"]) == ([13, 3], 3, [137, 17])
        assert buf.getvalue() == self._full("new-conjecture", params)

    def test_limit_zero_computes_nothing(self, tmp_path, monkeypatch):
        calls, seen = _spy_residues(monkeypatch)
        buf = io.StringIO()
        cpath = str(tmp_path / "cp.json")
        summary = run_scan("wilson", {"limit": 100}, buf, checkpoint_path=cpath, limit_subjects=0)
        assert (summary.subjects, summary.records) == (0, 0)
        assert calls == [] and seen == [] and buf.getvalue() == ""
        assert not os.path.exists(cpath)

    def test_negative_limit_rejected(self, tmp_path):
        buf = io.StringIO()
        cpath = str(tmp_path / "cp.json")
        with pytest.raises(ValueError):
            run_scan("wilson", {"limit": 100}, buf, checkpoint_path=cpath,
                     limit_subjects=-1)
        assert buf.getvalue() == ""
        assert not os.path.exists(cpath)

    @pytest.mark.parametrize("limit", [True, 2.5, "3"])
    def test_limit_not_an_int_rejected(self, tmp_path, limit):
        # True ran 1 subject, 2.5 failed in islice after the CSV header was
        # written, and "3" failed the sign test with a TypeError
        buf = io.StringIO()
        cpath = str(tmp_path / "cp.json")
        with pytest.raises(ValueError, match=f"limit_subjects must be an int >= 0, got {limit!r}"):
            run_scan("wilson", {"limit": 100}, buf, fmt="csv", checkpoint_path=cpath,
                     limit_subjects=limit)
        assert buf.getvalue() == ""
        assert not os.path.exists(cpath)

    def test_rejects_resume_of_other_scan(self, tmp_path):
        cpath = str(tmp_path / "cp.json")
        run_scan("jones", {"limit": 20}, io.StringIO(), checkpoint_path=cpath)
        with pytest.raises(CheckpointError, match="is for scan 'jones' in jsonl, not 'mod5'"):
            run_scan("mod5", {"limit": 20}, io.StringIO(), checkpoint_path=cpath)

    def test_unknown_scan(self):
        with pytest.raises(ValueError):
            run_scan("nonesuch", {}, io.StringIO())

    @pytest.mark.parametrize(
        "name, params",
        [("jones", {}), ("pairs", {"p_max": 10}), ("pairs", {})],
        ids=["jones", "pairs-no-q_max", "pairs-empty"],
    )
    def test_missing_params(self, name, params):
        with pytest.raises(ValueError):
            run_scan(name, params, io.StringIO())

    @pytest.mark.parametrize(
        "name, params",
        [
            ("wilson", {"limit": 30, "q_max": 7}),
            ("pairs", {"known": True, "p_max": 10}),
            ("pairs", {"known": True}),
            ("pairs", {"known": False, "p_max": 30, "q_max": 1000}),
        ],
        ids=["wilson-q_max", "known-p_max", "known-no-stretch", "range-known-false"],
    )
    def test_params_not_the_scans_keys(self, tmp_path, name, params):
        # a key the scan does not read would change the params hash of the
        # same records, so the scan refuses it before writing anything
        sink, cpath = io.StringIO(), str(tmp_path / "cp.json")
        with pytest.raises(ValueError):
            run_scan(name, params, sink, checkpoint_path=cpath)
        with pytest.raises(ValueError):
            scan_records(name, params)
        assert sink.getvalue() == ""
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "name, params",
        [
            ("pairs", {"known": True, "stretch": 0}),
            ("wilson", {"limit": 30.0}),
            ("wilson", {"limit": "30"}),
            ("wilson", {"limit": True}),
            ("new-conjecture", {"p_max": 30, "q_max": 1000.0}),
        ],
        ids=["stretch-int", "limit-float", "limit-str", "limit-bool", "q_max-float"],
    )
    def test_params_of_another_type(self, tmp_path, name, params):
        # stretch 0 would stamp the stretch False records with another
        # params hash, and a bound that is not an int fails mid-scan, so
        # the table refuses both before anything is written
        sink, cpath = io.StringIO(), str(tmp_path / "cp.json")
        with pytest.raises(ValueError, match="is not a"):
            run_scan(name, params, sink, checkpoint_path=cpath)
        with pytest.raises(ValueError, match="is not a"):
            scan_records(name, params)
        assert sink.getvalue() == ""
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "name, params, key",
        [
            ("wilson", {"limit": 2**32}, "limit"),
            ("new-conjecture", {"p_max": 10, "q_max": 2**32}, "q_max"),
            ("pairs", {"p_max": 2**32, "q_max": 10}, "p_max"),
        ],
        ids=["limit", "q_max", "p_max"],
    )
    def test_bound_past_the_prime_table(self, name, params, key):
        # the table's entries are 4 bytes: a q_max of 2^32 died in
        # primes_upto mid-run, and a bound that large never ends
        with pytest.raises(ValueError, match=rf"param {key}=4294967296 is not below 2\*\*32$"):
            _SCANS[name].check(params)
        assert _SCANS[name].check({**params, key: 2**32 - 1}) == ([], [])

    def test_csv_roundtrip(self):
        buf = io.StringIO()
        run_scan("wilson", {"limit": 600}, buf, fmt="csv")
        lines = buf.getvalue().splitlines()
        assert lines[0] == "scan,subject,witness,verdict,params_hash"
        assert len(lines) == 4  # header + the hits 5, 13, 563

    def test_jsonl_key_order(self):
        buf = io.StringIO()
        run_scan("wilson", {"limit": 10}, buf)
        rec = buf.getvalue().splitlines()[0]
        assert list(json.loads(rec)) == ["scan", "subject", "witness", "verdict", "params_hash"]

    def test_last_checkpoint_saved_once(self, tmp_path, monkeypatch):
        # a clock that advances 1 s per read saves after every subject, the
        # ten primes 2..29, and the run ends without saving 29 again
        _clock(monkeypatch, 1.0)
        seen = _spy_calls(monkeypatch, "checkpoint_save")
        run_scan("wilson", {"limit": 30}, io.StringIO(),
                 checkpoint_path=str(tmp_path / "cp.json"))
        assert [args[0].last_subject for args, _ in seen] == list(primes_in(2, 30))

    def test_still_clock_saves_once_at_end(self, tmp_path, monkeypatch):
        _clock(monkeypatch, 0)
        seen = _spy_calls(monkeypatch, "checkpoint_save")
        run_scan("jones", {"limit": 200}, io.StringIO(),
                 checkpoint_path=str(tmp_path / "cp.json"))
        assert [args[0].last_subject for args, _ in seen] == [200]

    def test_final_checkpoint_written(self, tmp_path):
        cpath = str(tmp_path / "cp.json")
        run_scan("jones", {"limit": 50}, io.StringIO(), checkpoint_path=cpath)
        cp = checkpoint_load(cpath)
        assert cp.last_subject == 50
        assert os.path.exists(cpath)


class TestSeekResume:
    """Resume checks the checkpointed prefix, truncates after it and seeks."""

    def _leg1(self, tmp_path, name, params, fmt="jsonl", cut=40):
        out = tmp_path / f"out.{fmt}"
        cpath = str(tmp_path / "cp.json")
        with open(out, "w") as sink:
            run_scan(name, params, sink, fmt=fmt, checkpoint_path=cpath, limit_subjects=cut)
        return out, cpath

    def _leg2(self, out, cpath, name, params, fmt="jsonl"):
        with open(out, "a") as sink:
            run_scan(name, params, sink, fmt=fmt, checkpoint_path=cpath)

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_tail_after_checkpoint_is_dropped(self, tmp_path, fmt):
        params = {"limit": 300}
        full = io.StringIO()
        run_scan("jones", params, full, fmt=fmt)
        out, cpath = self._leg1(tmp_path, "jones", params, fmt)
        cp = checkpoint_load(cpath)
        assert out.stat().st_size == cp.offset
        with open(out, "a") as fh:  # what SIGKILL leaves: flushed records, a torn line
            fh.write(full.getvalue()[cp.offset:][:500] + '{"scan":"jones","subj')
        self._leg2(out, cpath, "jones", params, fmt)
        assert out.read_text() == full.getvalue()

    def test_tail_dropped_in_memory(self, tmp_path):
        params = {"p_max": 20, "q_max": 900}
        full = io.StringIO()
        run_scan("pairs", params, full)
        buf = io.StringIO()
        cpath = str(tmp_path / "cp.json")
        run_scan("pairs", params, buf, checkpoint_path=cpath, limit_subjects=5)
        buf.write("duplicated tail\n")
        run_scan("pairs", params, buf, checkpoint_path=cpath)
        assert buf.getvalue() == full.getvalue()

    @pytest.mark.parametrize("where", ["flip", "short"])
    def test_damaged_prefix_raises(self, tmp_path, where):
        params = {"limit": 300}
        out, cpath = self._leg1(tmp_path, "jones", params)
        data = bytearray(out.read_bytes())
        if where == "flip":
            data[len(data) // 2] ^= 1
        else:
            del data[-1]
        out.write_bytes(bytes(data))
        message = "first .* bytes differ" if where == "flip" else "bytes, fewer than the"
        with pytest.raises(CheckpointError, match=message):
            self._leg2(out, cpath, "jones", params)
        assert out.read_bytes() == bytes(data)  # nothing truncated or appended

    @pytest.mark.parametrize("first, second", [("csv", "jsonl"), ("jsonl", "csv")])
    def test_resume_in_other_format_rejected(self, tmp_path, first, second):
        params = {"limit": 300}
        out, cpath = self._leg1(tmp_path, "jones", params, first)
        before = out.read_bytes()
        with pytest.raises(CheckpointError, match=f"in {first}, not 'jones' in {second}"):
            self._leg2(out, cpath, "jones", params, second)
        assert out.read_bytes() == before  # nothing truncated or appended

    def test_unreadable_sink_raises(self, tmp_path):
        cpath = str(tmp_path / "cp.json")
        run_scan("jones", {"limit": 20}, io.StringIO(), checkpoint_path=cpath)

        class WriteOnly:
            def write(self, text):
                raise AssertionError("nothing may be written")

        with pytest.raises(CheckpointError, match="cannot be read back"):
            run_scan("jones", {"limit": 20}, WriteOnly(), checkpoint_path=cpath)

    def test_v1_checkpoint_rejected(self, tmp_path):
        path = str(tmp_path / "cp.json")
        v1 = {
            "format_version": 1,
            "scan": "jones",
            "params": {"limit": 50},
            "params_hash": params_digest({"limit": 50}),
            "last_subject": 37,
            "records_emitted": 4,
        }
        with open(path, "w") as fh:
            json.dump(v1, fh)
        with pytest.raises(CheckpointError, match="checkpoint format 1 != "):
            checkpoint_load(path)
        with pytest.raises(CheckpointError, match="checkpoint format 1 != "):
            run_scan("jones", {"limit": 50}, io.StringIO(), checkpoint_path=path)

    def test_checkpoint_offset_and_digest(self, tmp_path):
        out, cpath = self._leg1(tmp_path, "wilson", {"limit": 600}, "csv", cut=200)
        cp = checkpoint_load(cpath)
        data = out.read_bytes()
        assert data.startswith(b"scan,subject,witness,verdict,params_hash\n")
        assert cp.offset == len(data)
        assert cp.sha256 == hashlib.sha256(data).hexdigest()

    def _spy(self, monkeypatch, name):
        seen = []
        real = getattr(search, name)

        def spy(*args, **kwargs):
            seen.append(args[:2] if name == "_pair_record" else args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(search, name, spy)
        return seen

    @pytest.mark.parametrize("name", ["jones", "mod5", "wolstenholme-primes"])
    def test_resume_above_binomial_crossover(self, tmp_path, monkeypatch, name):
        # the resumed leg enters w_at after subject 2600, where w(n) is built
        # from its prime exponents and not by math.comb
        params = {"limit": 3000}
        full = io.StringIO()
        run_scan(name, params, full)
        primes = name == "wolstenholme-primes"  # the subjects 5, 7, 11, ...
        cut = len(primes_upto(2600)) - 2 if primes else 2599
        out, cpath = self._leg1(tmp_path, name, params, cut=cut)
        assert checkpoint_load(cpath).last_subject == (2593 if primes else 2600)
        real, calls = math.comb, []

        def spy(n, k):
            calls.append((n, k))
            return real(n, k)

        monkeypatch.setattr(math, "comb", spy)
        self._leg2(out, cpath, name, params)
        assert calls == []
        assert out.read_bytes() == full.getvalue().encode()
        assert checkpoint_load(cpath).last_subject == (2999 if primes else 3000)

    def test_resume_computes_no_earlier_subject(self, tmp_path, monkeypatch):
        params = {"limit": 400}
        out, cpath = self._leg1(tmp_path, "wilson", params, cut=30)
        last = checkpoint_load(cpath).last_subject
        # the scan's one per-subject computation: (n-1)! mod n^2, from a
        # kernel that computes x! for no x below its first point
        calls, seen = _spy_residues(monkeypatch)
        self._leg2(out, cpath, "wilson", params)
        assert len(calls) == 1 and min(calls[0][0]) + 1 > last
        assert seen and min(x + 1 for x, _, _ in seen) > last
        assert [json.loads(l)["subject"] for l in out.read_text().splitlines()] == [5, 13]

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("p_max, q_max", [(20, 900), (40, 1000)])
    def test_resume_pairs_after_every_p(self, tmp_path, monkeypatch, fmt, p_max, q_max):
        # the subjects are the primes 5 <= p <= p_max, each carrying its
        # pairs (p, q); a cut after each k = 0..#p subjects resumes at the
        # next p, and the rerun reproduces the uninterrupted stream without
        # checking a pair of an earlier p.  (20, 900) writes no record;
        # (40, 1000) writes the hit (29, 937) at the eighth subject.
        params = {"p_max": p_max, "q_max": q_max}
        full = io.StringIO()
        run_scan("pairs", params, full, fmt=fmt)
        ps = list(primes_in(5, p_max))
        gcds = _spy_yields(monkeypatch, "_w_minus_one_gcds")
        seen = self._spy(monkeypatch, "_pair_record")
        for k in range(len(ps) + 1):
            out, cpath = tmp_path / f"{k}.{fmt}", str(tmp_path / f"{k}.json")
            with open(out, "w") as sink:
                run_scan("pairs", params, sink, fmt=fmt, checkpoint_path=cpath, limit_subjects=k)
            resuming = os.path.exists(cpath)  # no subject done, no checkpoint
            assert resuming == (k > 0)
            assert not resuming or checkpoint_load(cpath).last_subject == ps[k - 1]
            gcds.clear()
            seen.clear()
            with open(out, "a" if resuming else "w") as sink:
                run_scan("pairs", params, sink, fmt=fmt, checkpoint_path=cpath)
            # the kernel yields each p from the next on, and only the pairs
            # of those p are checked
            assert [p for p, _, _ in gcds] == ps[k:], k
            assert {p for p, _ in seen} <= set(ps[k:]), k
            assert out.read_text() == full.getvalue(), k

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_pairs_saves_before_its_last_subject(self, tmp_path, monkeypatch, fmt):
        # a scan with few subjects still checkpoints mid-run once a subject
        # outlasts the cadence: under a clock that advances 1 s per read, each
        # of the ten primes p <= 40 is saved, and a resume from any of those
        # checkpoints, past a torn tail, reproduces the uninterrupted stream
        params = {"p_max": 40, "q_max": 1000}
        full = io.StringIO()
        run_scan("pairs", params, full, fmt=fmt)
        _clock(monkeypatch, 1.0)
        seen = _spy_calls(monkeypatch, "checkpoint_save")
        run_scan("pairs", params, io.StringIO(), fmt=fmt,
                 checkpoint_path=str(tmp_path / "cp.json"))
        saved = [args[0] for args, _ in seen]
        assert [cp.last_subject for cp in saved] == list(primes_in(5, 40))
        for i, cp in enumerate(saved):
            out, cpath = tmp_path / f"{i}.{fmt}", str(tmp_path / f"{i}.json")
            checkpoint_save(cp, cpath)
            out.write_text(full.getvalue()[: cp.offset + 30])
            self._leg2(out, cpath, "pairs", params, fmt)
            assert out.read_text() == full.getvalue(), cp.last_subject

    def test_resume_known_pairs(self, tmp_path, monkeypatch):
        params = {"known": True, "stretch": False}
        full = io.StringIO()
        run_scan("pairs", params, full)
        out, cpath = self._leg1(tmp_path, "pairs", params, cut=1)
        seen = self._spy(monkeypatch, "_pair_record")
        self._leg2(out, cpath, "pairs", params)
        assert seen == [(787, 2543)]
        assert out.read_text() == full.getvalue()


def _spy_yields(monkeypatch, name, module=search):
    """Record each item the generator module.<name> yields while a scan runs."""
    seen = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        for item in real(*args, **kwargs):
            seen.append(item)
            yield item

    monkeypatch.setattr(module, name, spy)
    return seen


def _spy_calls(monkeypatch, name, module=search):
    """Record (args, result) of each call to module.<name> while a scan runs."""
    seen = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        seen.append((args, out))
        return out

    monkeypatch.setattr(module, name, spy)
    return seen


def _clock(monkeypatch, step):
    """Make search.monotonic a clock that advances step seconds per read."""
    ticks = itertools.count(0, step)
    monkeypatch.setattr(search, "monotonic", lambda: next(ticks))


def _spy_residues(monkeypatch):
    """Record each call to the factorial-residue kernel while a scan runs,
    as (points, moduli), and each (x, m, x! mod m) it yields."""
    calls, seen = [], []
    real = search._factorial_residues

    def spy(points, moduli):
        calls.append((points, moduli))

        def recorded():
            for x, m, r in zip(points, moduli, real(points, moduli)):
                seen.append((x, m, r))
                yield r

        return recorded()

    monkeypatch.setattr(search, "_factorial_residues", spy)
    return calls, seen


def _drain(name, params, after=None):
    """A scan's (subject, records) stream, entered after `after` as a resume is."""
    return list(search._SCANS[name].stream(params, params_digest(params), after))


class TestCarriedPaths:
    """Each carried or filtered path against the per-subject kernel it
    replaced, run from the first subject and entered mid-range."""

    @pytest.mark.parametrize("scan, e", [("wilson", 2), ("wilson-cube", 3)])
    @pytest.mark.parametrize("after", [None, 3, 1499])
    def test_wilson_residues(self, monkeypatch, scan, e, after):
        calls, seen = _spy_residues(monkeypatch)
        _drain(scan, {"limit": 3000}, after)
        start = 2 if after is None else after + 1
        expected = [n for n in range(start, 3001) if is_prime(n) or (e == 3 and n == 4)]
        assert len(calls) == 1
        assert [x + 1 for x, _, _ in seen] == expected
        for x, m, residue in seen:
            assert (m, residue) == ((x + 1) ** e, wilson_residue(x + 1, e))

    @pytest.mark.parametrize("after", [None, 1499])
    def test_wolstenholme_residues(self, monkeypatch, after):
        seen = []
        real = search.w_at

        def spy(points):
            for p, w in real(points):
                seen.append((p, w % p**4))
                yield p, w

        monkeypatch.setattr(search, "w_at", spy)
        _drain("wolstenholme-primes", {"limit": 3000}, after)
        start = 5 if after is None else after + 1
        assert [p for p, _ in seen] == [p for p in primes_upto(3000) if p >= start]
        for p, residue in seen:
            assert residue == w_mod(p, p**4)

    def test_wolstenholme_hit_reverified_without_factoring(self, monkeypatch):
        # the hit at 16843 is reverified by w_mod's modular product mod p^4,
        # which needs no factorization of p^4
        seen = _spy_calls(monkeypatch, "factor_completely", arith)
        params = {"limit": 16843}
        record = ScanRecord(
            "wolstenholme-primes", 16843,
            {"modulus": "80478114820849201", "reverified": True},
            "hit", params_digest(params),
        )
        assert _drain("wolstenholme-primes", params, 16842) == [(16843, [record])]
        assert seen == []

    @pytest.mark.parametrize("after", [None, 1000])
    def test_jones_factorial_formula(self, monkeypatch, after):
        seen = _spy_calls(monkeypatch, "_w_from_factorials")
        _drain("jones", {"limit": 1999}, after)
        start = 5 if after is None else after + 1
        assert [args[0] for args, _ in seen] == [
            p for p in primes_upto(1999) if p >= start
        ]
        for (p, low, high), residue in seen:
            assert low == math.factorial(p - 1) % p**3
            assert high == math.factorial(2 * p - 1) % p**4
            assert residue == w_mod(p, p**3)

    def test_jones_formula_off_wolstenholme(self):
        # below 5 the residue is not 1, so the formula's value is visible
        for p, residue in ((2, 3), (3, 10)):
            (low,) = congruence._factorial_residues([p - 1], [p**3])
            (high,) = congruence._factorial_residues([2 * p - 1], [p**4])
            assert congruence._w_from_factorials(p, low, high) == residue

    @pytest.mark.parametrize(
        "after", [None, 5, 7, 37], ids=["None", "after1", "after2", "after3"]
    )
    def test_pairs_sieve_and_halves(self, monkeypatch, after):
        # the kernel yields every p of the scan; the q it leaves for the
        # right half are exactly the q > p whose left half the validated
        # pair_criterion finds true, and only those p build a Lucas table
        start = 5 if after is None else after + 1
        gcds = _spy_yields(monkeypatch, "_w_minus_one_gcds")
        tables = _spy_calls(monkeypatch, "_w_mod_prime")
        seen = _spy_calls(monkeypatch, "_pair_record")
        _drain("pairs", {"p_max": 40, "q_max": 400}, after)
        ps = list(primes_in(start, 40))
        assert [p for p, _, _ in gcds] == ps
        expected = [
            (p, q) for p in ps for q in primes_in(p + 1, 400) if pair_criterion(p, q, 1)[0]
        ]
        if after is None:  # the left halves of (11, 53), (13, 263), (17, 53), (37, 109)
            assert len(expected) == 4
        assert [args[0] for args, _ in tables] == sorted({p for p, _ in expected})
        assert [args[:2] for args, _ in seen] == expected
        for args, _ in seen:
            p, q, left, right = args[:4]
            assert (left, right) == pair_criterion(p, q, 1)

        # the published pairs take both halves from pair_criterion, which
        # reduces w(p) mod q: no exact w(p), no gcd kernel, no Lucas table
        def refuse(*args, **kwargs):
            raise AssertionError("the published form read a range kernel")

        for module, name in [(search, "w_at"), (congruence, "w_at"),
                             (search, "_w_minus_one_gcds"), (search, "_w_mod_prime")]:
            monkeypatch.setattr(module, name, refuse)
        seen.clear()
        params = {"known": True, "stretch": True}
        stream = _drain("pairs", params, after)
        assert [args[:2] for args, _ in seen] == [pq for pq in search.KNOWN_PAIRS if pq[0] >= start]
        for args, _ in seen:
            p, q, left, right, always = args
            assert (left, right, always) == (*pair_criterion(p, q, 1), True)
        # a resume after each published p carries on with the pairs after it
        full = _drain("pairs", params)
        assert stream == [item for item in full if item[0] >= start]
        for p, _ in search.KNOWN_PAIRS:
            assert _drain("pairs", params, p) == [item for item in full if item[0] > p]

    @staticmethod
    def _plain_power_scan(scan, e, limit):
        """The unfiltered scan: w(n) mod n^e off w_iter at every n, a record
        wherever it is 1."""
        h = params_digest({"limit": limit})
        out = []
        for n, w in w_iter(limit, 2):
            recs = []
            if w % n**e == 1:
                reverified = w_mod(n, n**e) == 1
                witness, verdict = {"modulus": str(n**e), "reverified": reverified}, "fail"
                if scan == "jones":
                    witness["prime"] = n >= 5 and is_prime(n)
                    verdict = "hit" if witness["prime"] and reverified else "fail"
                recs.append(search.ScanRecord(scan, n, witness, verdict, h))
            out.append((n, recs))
        return out

    @pytest.mark.parametrize("limit", [120, 121, 122])
    @pytest.mark.parametrize("scan, e", [("jones", 3), ("mod5", 5)])
    def test_power_scans_against_plain(self, scan, e, limit):
        # at 121 = 11^2 the largest filter prime goes from 7 to 11
        assert _drain(scan, {"limit": limit}) == self._plain_power_scan(scan, e, limit)

    @staticmethod
    def _plain_new_conjecture(params, after):
        """The ungrouped search: every q^2 against the exact w(p) - 1."""
        h = params_digest(params)
        qs = primes_upto(params["q_max"])
        start = 5 if after is None else after + 1
        out = []
        for p in primes_upto(params["p_max"]):
            if p < start:
                continue
            m = w_exact(p) - 1
            recs = []
            for q in qs:
                if q == p or m % (q * q):
                    continue
                reverified = w_mod(p, q * q) == 1
                witness = {
                    "q": str(q),
                    "valuation": str(valuation(m, q)),
                    "ratio_p_over_q": str(Fraction(p, q)),
                    "reverified": reverified,
                }
                verdict = "hit" if q < p and reverified else "fail"
                recs.append(search.ScanRecord("new-conjecture", p, witness, verdict, h))
            out.append((p, recs))
        return out

    @pytest.mark.parametrize("after", [None, 100])
    @pytest.mark.parametrize(
        "p_max, q_max", [(300, 20000), (200, 5000), (600, 1000), (200, 4)]
    )
    def test_new_conjecture_against_plain(self, p_max, q_max, after):
        params = {"p_max": p_max, "q_max": q_max}
        plain = self._plain_new_conjecture(params, after)
        if after is None:
            assert any(recs for _, recs in plain)  # (13, 3) among them
        assert _drain("new-conjecture", params, after) == plain

    @pytest.mark.parametrize("group", [1, 7, 256])
    @pytest.mark.parametrize("after", [None, 100])
    def test_grouped_new_conjecture(self, group, after):
        # the run read in groups of `group` subjects, each group entered
        # after the last subject of the one before, as a chain of resumes is
        params = {"p_max": 300, "q_max": 20000}
        plain = self._plain_new_conjecture(params, after)
        assert any(recs for _, recs in plain)  # hits at 107, 113, 137 (and 13)
        scan, h = search._SCANS["new-conjecture"], params_digest(params)
        got, last = [], after
        while part := list(itertools.islice(scan.stream(params, h, last), group)):
            assert last is None or part[0][0] > last  # each group moves on
            got += part
            last = part[-1][0]
        assert got == plain

    @pytest.mark.parametrize(
        "m, expected",
        [
            (7 * 11, 1),  # g = 77 > 1, but no square
            (7**2 * 11, 7),
            (7**3, 7),
            (7**2 * 11**2 * 13, 7 * 11),
            (97**2 * 101**2, 97),  # 101 is past the primorial's primes
            (1, 1),
        ],
    )
    def test_square_divisors(self, monkeypatch, m, expected):
        # new-conjecture's squares gcd(m // g, g), g = gcd(m, P), at a made-up
        # w(103) = 1 + m * 103^3: 103 is past P's primes and divides no m
        monkeypatch.setattr(congruence, "w_at", lambda points: ((p, 1 + m * p**3) for p in points))
        ((p, found),) = search._gen_new_conjecture({"q_max": 100}, 103, 103)
        assert p == 103
        assert math.prod(int(w["q"]) for _, w, _ in found) == expected

    @pytest.mark.parametrize("scan, e", [("jones", 3), ("mod5", 5)])
    def test_candidate_filter(self, monkeypatch, scan, e):
        # w = 1 (mod n) is not enough: each made-up w passes it, and a record
        # is due only where w = 1 (mod n^e) as well.  With w(n) = 1 mod every
        # small prime, no subject is struck and each made-up w(n) is reduced.
        made_up = {0: lambda n: 1 + 2 * n**e, 1: lambda n: 1 + n, 2: lambda n: 1 + n ** (e - 1)}
        monkeypatch.setattr(congruence, "_w_mod_prime", lambda q: lambda n: 1)
        monkeypatch.setattr(
            congruence, "w_at", lambda points: ((n, made_up[n % 3](n)) for n in points)
        )
        stream = _drain(scan, {"limit": 14}, after=5)
        assert [n for n, recs in stream] == list(range(6, 15))
        assert [rec.subject for _, recs in stream for rec in recs] == [6, 9, 12]

    @pytest.mark.parametrize("scan", ["jones", "mod5"])
    def test_entered_at_every_subject(self, tmp_path, scan):
        # cut after each subject from 10 to 40, every resume enters the
        # filter and the recurrence at its checkpoint, yet the stream is the
        # uninterrupted one
        params = {"limit": 60}
        full = io.StringIO()
        run_scan(scan, params, full)
        plain = _drain(scan, params)
        for cut in range(9, 40):
            assert _drain(scan, params, after=plain[cut - 1][0]) == plain[cut:]
            buf = io.StringIO()
            cpath = str(tmp_path / f"{cut}.json")
            run_scan(scan, params, buf, checkpoint_path=cpath, limit_subjects=cut)
            run_scan(scan, params, buf, checkpoint_path=cpath)
            assert buf.getvalue() == full.getvalue(), cut

    def test_candidate_filter_is_only_necessary(self):
        # w(p^2) = w(p) (mod p^4) and w(p) = 1 (mod p^3) give w(p^2) = 1 (mod p^2)
        # at every prime p >= 5; 283 is not a Wolstenholme prime, so mod n^2 fails
        n = 283**2
        w = math.comb(2 * n - 1, n - 1)
        assert w % n == 1
        assert w % n**2 != 1

    @pytest.mark.parametrize("p", primes_upto(60))
    def test_w_mod_prime(self, p):
        w_mod_p = congruence._w_mod_prime(p)
        near_powers = []
        for power in (p**2, p**3):
            below = next(q for q in range(power - 1, 0, -1) if is_prime(q))
            above = next(q for q in range(power + 1, 2 * power) if is_prime(q))
            near_powers += [below, above]  # 2 to 4 base-p digits in n - 1
        for q in [*primes_in(p + 1, 3000), *near_powers]:
            assert w_mod_p(q) == w_mod(q, p), q

    def test_range_scans_kernel_calls(self, monkeypatch):
        # the pairs right half never reaches w_mod or binomial_mod, and
        # new-conjecture calls w_mod once per record, to reverify it
        calls = {"w_mod": 0, "binomial_mod": 0}
        for module in (search, congruence):
            for name in [n for n in calls if hasattr(module, n)]:
                real = getattr(module, name)

                def spy(*args, _real=real, _name=name):
                    calls[_name] += 1
                    return _real(*args)

                monkeypatch.setattr(module, name, spy)
        pairs = scan_records("pairs", {"p_max": 100, "q_max": 3000})
        assert [r.subject for r in pairs] == [(29, 937)]
        assert calls == {"w_mod": 0, "binomial_mod": 0}
        recs = scan_records("new-conjecture", {"p_max": 300, "q_max": 20000})
        assert calls["w_mod"] == len(recs) > 0


# sha256 of each scan's stream in both formats at a size that runs in well
# under a second, pinned so that a change to the arithmetic routes or to the
# writer that alters one byte fails here.  Streams that are empty at these
# sizes (wilson-cube and mod5 always so far, wolstenholme-primes below 16843)
# pin only that, and in csv only the header row.  The jsonl rows keep the
# bare scan name as their test id.
_EMPTY = hashlib.sha256(b"").hexdigest()
_EMPTY_CSV = hashlib.sha256(b"scan,subject,witness,verdict,params_hash\n").hexdigest()
STREAM_DIGESTS = [  # id, scan, params, jsonl digest, csv digest
    ("wilson", "wilson", {"limit": 2000},
     "216c69c36cdc0f6a0724297bd6456e467c11e349f59fca91e572768a74808a2c",
     "bdefec8b02cc72570afc96e1b75d9d389bc420a09e64378666b7a1e4bf66b50e"),
    ("wilson-cube", "wilson-cube", {"limit": 1000}, _EMPTY, _EMPTY_CSV),
    ("jones", "jones", {"limit": 1500},
     "833854e397032706c7d5c3ebbd75a0b2f87fa3c4ce1b8577795c422e6631747e",
     "ba247e8b548ef26701d41558aa17dd1e2ebb5916d1a41fef8ca6748e5064633d"),
    ("mod5", "mod5", {"limit": 2000}, _EMPTY, _EMPTY_CSV),
    ("wolstenholme-primes", "wolstenholme-primes", {"limit": 2000}, _EMPTY, _EMPTY_CSV),
    ("pairs", "pairs", {"p_max": 30, "q_max": 1000},
     "1a3914c8bade0e932efc39fc32d683206f3d67d20e21f27dea858e9c37193c4c",
     "60208a919268035d473ab703959895e7249af92805dd1a220406a25c4a5b0436"),
    ("pairs-known", "pairs", {"known": True, "stretch": False},
     "6f1dd28bfffb53bde7665d8c0ffa41760d571afac759e970556bf8f57fb47335",
     "4a58a299f7b0915dd775357ebcce8ccc48642af6efead3103370ef1b59578f3e"),
    ("new-conjecture", "new-conjecture", {"p_max": 200, "q_max": 5000},
     "e6bf5058da59d68bd022df8e9833b8b603222b096abbbed9470524f9e21b1414",
     "b6045e48c1053d12d6f0e7581c8ee176ef91a9c83c4de92ab35526f559fd7dec"),
]
STREAM_CASES = [
    pytest.param(name, params, fmt, digest, id=ident if fmt == "jsonl" else f"{ident}-csv")
    for ident, name, params, *digests in STREAM_DIGESTS
    for fmt, digest in zip(("jsonl", "csv"), digests)
]


@pytest.mark.parametrize("name, params, fmt, digest", STREAM_CASES)
def test_stream_digest_pinned(name, params, fmt, digest):
    buf = io.StringIO()
    run_scan(name, params, buf, fmt=fmt)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


@pytest.mark.parametrize("name, params, fmt, digest", STREAM_CASES)
def test_read_records_round_trip(name, params, fmt, digest):
    # what the writer wrote decodes to the records the scan yields, with
    # pair subjects back as tuples
    buf = io.StringIO()
    run_scan(name, params, buf, fmt=fmt)
    buf.seek(0)
    assert list(read_records(buf, fmt)) == scan_records(name, params)


def _line_by_hand(rec: ScanRecord) -> str:
    """The jsonl line spelled column by column, as the writer once built it:
    the oracle of json.dumps(rec.columns())."""
    subject = list(rec.subject) if isinstance(rec.subject, tuple) else rec.subject
    scan, verdict, h = map(json.dumps, (rec.scan, rec.verdict, rec.params_hash))
    return (
        f'{{"scan":{scan},"subject":{json.dumps(subject, separators=(",", ":"))},'
        f'"witness":{rec.witness_json()},"verdict":{verdict},"params_hash":{h}}}'
    )


@pytest.mark.parametrize(
    "name, params",
    [
        ("jones", {"limit": 3000}),
        ("pairs", {"known": True, "stretch": False}),
        ("new-conjecture", {"p_max": 300, "q_max": 300}),
    ],
)
def test_columns_dump_to_the_line_spelled_by_hand(name, params):
    recs = scan_records(name, params)
    unsorted = ScanRecord("s", (5, 7), {"b": True, "a": "1"}, "fail", "h")
    assert recs
    for rec in [*recs, unsorted]:
        columns = rec.columns()
        assert tuple(columns) == search._COLUMNS
        assert json.dumps(columns, separators=(",", ":")) == _line_by_hand(rec)


def test_read_records_keeps_a_record_of_another_shape():
    # the reader decodes each line on its own; check_stream judges the shape
    stream = io.StringIO(_line(5, scan="wilson") + _line([5, 7], scan="wilson"))
    assert [r.subject for r in read_records(stream, "jsonl")] == [5, (5, 7)]


def _line(subject, params_hash="h", scan="s", verdict="hit", **witness) -> str:
    rec = {"scan": scan, "subject": subject, "witness": witness, "verdict": verdict,
           "params_hash": params_hash}
    return json.dumps(rec, separators=(",", ":")) + "\n"


def _checked(text: str, fmt: str = "jsonl") -> dict:
    return check_stream(io.StringIO(text), fmt)


def _damage(unparseable=0, out_of_order=0, mixed=()) -> dict:
    return {
        "unparseable_lines": unparseable,
        "repeated_or_backwards_subjects": out_of_order,
        "scans_with_mixed_params_hash": list(mixed),
    }


class TestCheckStream:
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_intact_scan(self, fmt):
        buf = io.StringIO()
        run_scan("jones", {"limit": 300}, buf, fmt=fmt)
        assert _checked(buf.getvalue(), fmt) == {
            "records": 60, "by_scan": {"jones": {"hit": 60}}, "damage": _damage(),
        }

    def test_empty_stream(self):
        assert _checked("") == {"records": 0, "by_scan": {}, "damage": _damage()}

    def test_new_conjecture_block_is_the_ratio_report(self):
        params = {"p_max": 200, "q_max": 5000}
        buf = io.StringIO()
        run_scan("new-conjecture", params, buf)
        summary = _checked(buf.getvalue())
        ratio = max_ratio_report(scan_records("new-conjecture", params))
        assert ratio["hits"] > 1
        assert summary["new_conjecture"] == {k: ratio[k] for k in ("hits", "max_q_over_p")}
        assert summary["damage"] == _damage()

    def test_no_block_without_hits(self):
        summary = _checked(_line(13, scan="new-conjecture", verdict="fail", q="29"))
        assert "new_conjecture" not in summary
        assert summary["by_scan"] == {"new-conjecture": {"fail": 1}}

    def test_verdicts_counted_per_scan(self):
        stream = _line(5) + _line(7, verdict="fail") + _line(9, scan="t")
        summary = _checked(stream)
        assert summary["records"] == 3
        assert summary["by_scan"] == {"s": {"hit": 1, "fail": 1}, "t": {"hit": 1}}

    def test_repeats_and_backwards(self):
        # several records may share a subject; the same witness there is a repeat
        stream = _line(13, q="3") + _line(13, q="5") + _line(13, q="3") + _line(11) + _line(17)
        assert _checked(stream)["damage"] == _damage(out_of_order=2)

    def test_scans_are_ordered_apart(self):
        stream = _line(13) + _line(5, scan="t") + _line(17) + _line(7, scan="t")
        assert _checked(stream)["damage"] == _damage()

    def test_mixed_params_hash(self):
        stream = _line(5, "a") + _line(7, "b") + _line(5, "a", scan="t") + _line(7, "a", scan="t")
        assert _checked(stream)["damage"] == _damage(mixed=["s"])

    def test_other_shape_is_unparseable_and_sets_nothing(self):
        # the pair counts neither as a record nor in the order or the hashes
        stream = _line(5) + _line([3, 7], "x") + _line(7)
        summary = _checked(stream)
        assert summary["records"] == 2
        assert summary["damage"] == _damage(unparseable=1)

    @pytest.mark.parametrize("subject, q", [(13, "abc"), (0, "3"), ([5, 7], "3")])
    def test_unreadable_ratio_sets_no_shape(self, subject, q):
        # the scan's shape is that of the first record it keeps
        stream = _line(subject, scan="new-conjecture", q=q)
        stream += _line(13, scan="new-conjecture", q="3")
        summary = _checked(stream)
        assert summary["damage"] == _damage(unparseable=1)
        assert summary["new_conjecture"] == {"hits": 1, "max_q_over_p": "3/13"}

    def test_csv_lost_header(self):
        buf = io.StringIO()
        run_scan("wilson", {"limit": 600}, buf, fmt="csv")
        rows = buf.getvalue().splitlines(keepends=True)
        summary = _checked("".join(rows[1:] + rows[1:2]), "csv")
        assert summary["by_scan"] == {"wilson": {"hit": 4}}
        assert summary["damage"] == _damage(unparseable=1, out_of_order=1)
