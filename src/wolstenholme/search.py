"""Checkpointable, resumable desk-scale scans with deterministic output.

Each scan walks ascending int subjects (integers or primes; for pairs, the
primes p, each carrying the records of its pairs (p, q), q > p) and emits
ScanRecords as JSON lines or CSV rows, read_records decodes either format
back into ScanRecords, and check_stream judges a stream for damage: this
module is the one place that knows the record format and what an intact
stream holds.  Running a scan twice with the same parameters produces
byte-identical streams; interrupting (even by SIGKILL) and resuming
reproduces the uninterrupted stream exactly.  A checkpoint records the last
completed subject plus the byte length and sha256 of the stream through
it; resuming checks that prefix, truncates whatever was written after it,
and starts the generator after that subject.

Verdicts: "hit" marks a found subject matching the scan's expectation,
"fail" marks a record violating an assertion the scan makes (e.g. a Jones
hit that is not a prime >= 5); no scan writes another, and verification
suites write no records.  A scan with any "fail" record exits nonzero in CLI context.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re
from bisect import bisect_right, insort
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from itertools import islice
from time import monotonic
from typing import Callable, Iterable, Iterator

from .arith import _BOUND_LIMIT, _prod_tree, primes_in, primes_upto, valuation
from .congruence import (
    PAIR_DIRECT_BUDGET,
    _factorial_residues,
    _w_from_factorials,
    _w_minus_one_gcds,
    _w_mod_prime,
    _w_power_residues,
    is_wolstenholme_prime,
    jones_check,
    pair_criterion,
    pair_direct_check,
    w_at,
    w_mod,
)
from .errors import CheckpointError

__all__ = [
    "ScanRecord",
    "Checkpoint",
    "ScanSummary",
    "params_digest",
    "checkpoint_save",
    "checkpoint_load",
    "run_scan",
    "scan_names",
    "scan_records",
    "read_records",
    "check_stream",
    "max_ratio_report",
]

FORMAT_VERSION = 3
_FORMATS = ("jsonl", "csv")  # of the record stream

# published pairs (p, q) with w(pq) = 1 (mod pq); the third is checked only with
# {"stretch": True}, so the stream of the first two keeps its params and bytes
KNOWN_PAIRS = ((29, 937), (787, 2543), (69239, 231433))

Subject = int | tuple[int, int]

_COLUMNS = ("scan", "subject", "witness", "verdict", "params_hash")  # in both formats
_COMPACT = (",", ":")
# a run saves after the first subject to end this long after its last save
_CHECKPOINT_SECONDS = 1.0


@dataclass(frozen=True)
class ScanRecord:
    scan: str
    subject: Subject
    witness: dict
    verdict: str  # hit | fail
    params_hash: str

    def columns(self) -> dict:
        """The JSON object of the jsonl line: the columns in order, a pair
        subject as a list, the witness (flat) with its keys sorted."""
        subject = list(self.subject) if isinstance(self.subject, tuple) else self.subject
        witness = dict(sorted(self.witness.items()))
        return dict(zip(_COLUMNS, (self.scan, subject, witness, self.verdict, self.params_hash)))

    def witness_json(self) -> str:
        """The canonical witness: sorted keys, compact."""
        return json.dumps(self.witness, sort_keys=True, separators=_COMPACT)

    @classmethod
    def from_fields(cls, row) -> ScanRecord | None:
        """The record of one decoded line, or None unless it has exactly the
        five columns, of the types the writer writes; a pair subject is made
        a tuple again."""
        if not isinstance(row, dict) or row.keys() != set(_COLUMNS):
            return None
        scan, subject, witness, verdict, h = (row[k] for k in _COLUMNS)
        if not (
            _is_subject(subject)
            and isinstance(witness, dict)
            and all(isinstance(v, str) for v in (scan, verdict, h))
        ):
            return None
        subject = tuple(subject) if isinstance(subject, list) else subject
        return cls(scan, subject, witness, verdict, h)


@dataclass(frozen=True)
class Checkpoint:
    scan: str
    params: dict
    params_hash: str
    last_subject: int
    records_emitted: int
    offset: int = 0  # bytes of the stream through last_subject, CSV header included
    sha256: str = hashlib.sha256().hexdigest()  # digest of those bytes
    fmt: str = "jsonl"  # the stream's format; a resume must write the same
    format_version: int = FORMAT_VERSION


def params_digest(params: dict) -> str:
    canonical = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def checkpoint_save(cp: Checkpoint, path: str) -> None:
    """Atomic write: the temp file path + ".tmp", then rename.

    The temp name is fixed by path, so a save killed before its rename
    leaves a file that the next save truncates and renames away.  An
    OSError from any step names path, not the temp file.
    """
    payload = asdict(cp)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _is_count(v) -> bool:
    return type(v) is int and v >= 0  # a bool is not a count


def _is_subject(v) -> bool:
    # a record's subject: an int, or a pair of ints, which JSON gives back as a list
    return type(v) is int or (
        type(v) is list and len(v) == 2 and all(type(x) is int for x in v)
    )


# what each field that a resume reads must hold
_FIELD_CHECKS = {
    "last_subject": lambda v: type(v) is int,
    "records_emitted": _is_count,
    "offset": _is_count,
    "sha256": lambda v: isinstance(v, str) and re.fullmatch("[0-9a-f]{64}", v) is not None,
    "fmt": lambda v: v in _FORMATS,
}


def checkpoint_load(path: str, expected_params: dict | None = None) -> Checkpoint:
    """Load and validate a checkpoint; raises CheckpointError for an unreadable
    file, another format version or params, or a field of the wrong type or
    range."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(payload, dict) or "format_version" not in payload:
        raise CheckpointError(f"checkpoint {path} is missing fields")
    if payload["format_version"] != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint format {payload['format_version']} != {FORMAT_VERSION}"
        )
    names = [f.name for f in fields(Checkpoint)]
    if not set(names).issubset(payload):
        raise CheckpointError(f"checkpoint {path} is missing fields")
    malformed = [k for k, ok in _FIELD_CHECKS.items() if not ok(payload[k])]
    if malformed:
        raise CheckpointError(f"checkpoint {path} has malformed fields {malformed}")
    if params_digest(payload["params"]) != payload["params_hash"]:
        raise CheckpointError(f"checkpoint {path} params digest does not match")
    if expected_params is not None and params_digest(expected_params) != payload["params_hash"]:
        raise CheckpointError(
            f"checkpoint {path} belongs to params {payload['params']}"
        )
    return Checkpoint(**{name: payload[name] for name in names})


# --------------------------------------------------------------------------
# Scan generators: yield (subject, [(record subject, witness, verdict)]) for
# int subjects in strictly ascending order, one yield per subject, never
# skipping a subject of the scan's space; _ScanDef.stream makes each found
# item a ScanRecord.  A record's subject is its scan subject, but for pairs,
# whose subject p carries the records of its pairs (p, q).
# Each walks the subjects lo..hi it is given; the scan table supplies them,
# and a resumed run passes the subject after its checkpoint as lo.
# --------------------------------------------------------------------------


def _wilson_record(n: int, residue: int, m: int, verdict: str) -> list[tuple]:
    """The record of (n-1)! = -1 (mod m), from residue = (n-1)! mod m, or none."""
    if residue != m - 1:
        return []
    return [(n, {"residue": str(residue), "modulus": str(m)}, verdict)]


def _gen_wilson(params: dict, lo: int, hi: int):
    points = [p - 1 for p in primes_in(lo, hi)]  # (p-1)! at each prime p
    moduli = [(x + 1) ** 2 for x in points]
    for x, m, residue in zip(points, moduli, _factorial_residues(points, moduli)):
        yield x + 1, _wilson_record(x + 1, residue, m, "hit")


def _gen_wilson_cube(params: dict, lo: int, hi: int):
    # composite n > 4 has n | (n-1)!, so (n-1)! = 0 != -1 (mod n^3);
    # only primes and n = 4 need the residue
    points = [n - 1 for n in primes_in(lo, hi)]
    if lo <= 4 <= hi:
        insort(points, 3)
    moduli = [(x + 1) ** 3 for x in points]
    residues = _factorial_residues(points, moduli)
    i = 0
    for n in range(lo, hi + 1):
        found = []
        if i < len(points) and n == points[i] + 1:
            # the scan asserts no such n exists
            found = _wilson_record(n, next(residues), moduli[i], "fail")
            i += 1
        yield n, found


def _gen_jones(params: dict, lo: int, hi: int):
    # (p-1)! mod p^3 and (2p-1)! mod p^4 at each prime p >= 5, for w(p)
    # again, independent of the recurrence
    points = [p - 1 for p in primes_in(max(lo, 5), hi)]
    lows = _factorial_residues(points, [(x + 1) ** 3 for x in points])
    highs = _factorial_residues([2 * x + 1 for x in points], [(x + 1) ** 4 for x in points])
    i = 0
    for n, residue in _w_power_residues(lo, hi, 3):
        found = []
        prime_ok = i < len(points) and n == points[i] + 1
        if prime_ok:
            low, high = next(lows), next(highs)
            i += 1
        if residue == 1:
            if prime_ok:
                reverified = _w_from_factorials(n, low, high) == 1
            else:
                reverified = jones_check(n)
            witness = {"modulus": str(n**3), "prime": prime_ok, "reverified": reverified}
            found.append((n, witness, "hit" if prime_ok and reverified else "fail"))
        yield n, found


def _gen_wolstenholme(params: dict, lo: int, hi: int):
    for p, w in w_at(primes_in(lo, hi)):
        found = []
        if w % p**4 == 1:
            # independent route: the modular product instead of the recurrence
            reverified = is_wolstenholme_prime(p)
            witness = {"modulus": str(p**4), "reverified": reverified}
            found.append((p, witness, "hit" if reverified else "fail"))
        yield p, found


def _gen_mod5(params: dict, lo: int, hi: int):
    for n, residue in _w_power_residues(lo, hi, 5):
        found = []
        if residue == 1:
            witness = {"modulus": str(n**5), "reverified": w_mod(n, n**5) == 1}
            found.append((n, witness, "fail"))  # the scan asserts no such n exists
        yield n, found


def _new_conjecture_record(p: int, q: int, m: int) -> tuple[int, dict, str]:
    """The record of q^2 | m = (w(p) - 1) / p^v, reverified mod q^2."""
    reverified = w_mod(p, q * q) == 1
    witness = {
        "q": str(q),
        "valuation": str(valuation(m, q)),
        "ratio_p_over_q": str(Fraction(p, q)),
        "reverified": reverified,
    }
    return p, witness, "hit" if q < p and reverified else "fail"


def _gen_new_conjecture(params: dict, lo: int, hi: int):
    qs = primes_upto(params["q_max"])
    for p, m, g in _w_minus_one_gcds(primes_in(lo, hi), _prod_tree(qs)):
        squares = math.gcd(m // g, g)  # g takes each q | m once: q^2 | m leaves q in m // g
        found = []
        if squares > 1:  # at few p: 6 of the 301 primes up to 2000
            found = [_new_conjecture_record(p, q, m) for q in qs if squares % q == 0]
        yield p, found


def _pair_record(p: int, q: int, left: bool, right: bool, always: bool) -> list[tuple]:
    """The pairs record for p < q from the criterion's two halves at level 1:
    left is w(p) = 1 (mod q), right is w(q) = 1 (mod p)."""
    combined = left and right
    if not combined and not always:
        return []
    witness: dict = {"left": left, "right": right}
    verdict = "hit" if combined else "fail"
    if combined and p * q <= PAIR_DIRECT_BUDGET:
        agrees = pair_direct_check(p, q, 1) == combined
        witness["direct_agrees"] = agrees
        if not agrees:
            verdict = "fail"
    elif combined:
        witness["direct_agrees"] = "skipped"
    return [((p, q), witness, verdict)]


def _gen_pairs(params: dict, lo: int, hi: int | None):
    # with {"known": True}, the published pairs, expected hits, so a miss is
    # emitted as a fail; each takes both halves from pair_criterion, which
    # reduces w(p) mod q without the exact w(p)
    if params.get("known"):
        for p, q in KNOWN_PAIRS if params.get("stretch") else KNOWN_PAIRS[:2]:
            if p >= lo:
                yield p, _pair_record(p, q, *pair_criterion(p, q, 1), True)
        return
    # each prime p carries its pairs (p, q), q > p, in q order, at the q whose
    # left half w(p) = 1 (mod q) holds, q | g; a p at or above q_max has no
    # q > p to pair with
    qs = primes_upto(params["q_max"])
    for p, _, g in _w_minus_one_gcds(primes_in(lo, min(hi, params["q_max"])), _prod_tree(qs)):
        above = qs[bisect_right(qs, p) : bisect_right(qs, g)]  # a q | g is at most g
        qs_p = [q for q in above if g % q == 0]
        w_mod_p = _w_mod_prime(p) if qs_p else None
        yield p, [r for q in qs_p for r in _pair_record(p, q, True, w_mod_p(q) == 1, False)]


@dataclass(frozen=True)
class _ScanDef:
    """The one definition of a scan: its name, generator, first subject and
    params.  A scan reads exactly its required params, the first of which
    bounds its subjects; with known, it also reads the published form
    {"known": True, "stretch": bool}, whose subjects have no bound."""

    name: str
    generate: Callable
    first: int
    required: tuple[str, ...]
    known: bool = False  # {"known": True} checks published subjects instead

    def check(self, params: dict) -> tuple[list[str], list[str]]:
        """The params this scan reads but params lacks (or holds as None),
        and the params it does not read.  A bound it reads that is not an
        int, or a published-form switch that is not a bool, is a ValueError:
        it would stamp the same records with another params hash, or fail
        mid-scan.  So is a bound of 2^32 or more, past the prime table's."""
        published = self.known and params.get("known") is True
        keys = ("known", "stretch") if published else self.required
        for k in keys:
            v = params.get(k)
            # a bool is an int too, so a bool bound fails the first test
            if v is not None and not (isinstance(v, bool) == published and isinstance(v, int)):
                kind = "a bool" if published else "an int"
                raise ValueError(f"scan {self.name} param {k}={v!r} is not {kind}")
            if not published and v is not None and v >= _BOUND_LIMIT:
                raise ValueError(f"scan {self.name} param {k}={v} is not below 2**32")
        return [k for k in keys if params.get(k) is None], [k for k in params if k not in keys]

    def stream(self, params: dict, h: str, after: int | None = None) -> Iterator:
        """The scan's (subject, records) stream, entered just after `after`,
        each record stamped with the scan's name and params hash h."""
        lo = self.first if after is None else after + 1
        for subject, found in self.generate(params, lo, params.get(self.required[0])):
            yield subject, [ScanRecord(self.name, s, w, v, h) for s, w, v in found]


_SCANS = {
    sd.name: sd
    for sd in (
        _ScanDef("wilson", _gen_wilson, 2, ("limit",)),
        _ScanDef("wilson-cube", _gen_wilson_cube, 2, ("limit",)),
        _ScanDef("jones", _gen_jones, 2, ("limit",)),
        _ScanDef("wolstenholme-primes", _gen_wolstenholme, 5, ("limit",)),
        _ScanDef("mod5", _gen_mod5, 2, ("limit",)),
        _ScanDef("new-conjecture", _gen_new_conjecture, 5, ("p_max", "q_max")),
        _ScanDef("pairs", _gen_pairs, 5, ("p_max", "q_max"), known=True),
    )
}


def scan_names() -> list[str]:
    return sorted(_SCANS)


# --------------------------------------------------------------------------
# Runner
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanSummary:
    scan: str
    params_hash: str
    subjects: int
    records: int
    hits: int
    fails: int
    ratio_report: dict  # max_ratio_report of the records this run wrote


def _scan_def(name: str, params: dict) -> _ScanDef:
    """Check params against the scan table and return the scan's definition."""
    if name not in _SCANS:
        raise ValueError(f"unknown scan {name!r}; choose from {scan_names()}")
    sd = _SCANS[name]
    missing, unread = sd.check(params)
    if missing or unread:
        raise ValueError(f"scan {name} params {params}: missing {missing}, unread {unread}")
    return sd


class _Tally:
    """Write-through sink wrapper: the byte count and sha256 of the stream."""

    def __init__(self, sink, offset: int = 0, digest=None):
        self.sink = sink
        self.offset = offset
        self.digest = digest or hashlib.sha256()

    def write(self, text: str) -> None:
        data = text.encode()  # records are ASCII, so this is the file's bytes
        self.offset += len(data)
        self.digest.update(data)
        self.sink.write(text)


def _prefix_digest(sink, size: int):
    """Length and running sha256 of the first size bytes already in sink: a
    file opened from a path (read back in chunks), or an in-memory stream."""
    digest = hashlib.sha256()
    name = getattr(sink, "name", None)
    if isinstance(name, str) and os.path.isfile(name):
        _flush(sink)
        got = 0
        with open(name, "rb") as fh:
            while got < size and (chunk := fh.read(min(1 << 16, size - got))):
                digest.update(chunk)
                got += len(chunk)
        return got, digest
    if hasattr(sink, "getvalue"):
        data = sink.getvalue().encode()[:size]
        digest.update(data)
        return len(data), digest
    raise CheckpointError(
        "cannot resume onto a stream that cannot be read back; write to a file"
    )


def _cut_back(sink, cp: Checkpoint) -> _Tally:
    """Check that sink starts with the bytes cp covers, drop what follows them
    (records written after the checkpoint, perhaps a torn line), and return a
    tally that continues from there."""
    got, digest = _prefix_digest(sink, cp.offset)
    if got != cp.offset:
        raise CheckpointError(
            f"the output holds {got} bytes, fewer than the {cp.offset} the "
            "checkpoint covers"
        )
    if digest.hexdigest() != cp.sha256:
        raise CheckpointError(
            f"the output's first {cp.offset} bytes differ from those the "
            "checkpoint covers"
        )
    sink.truncate(cp.offset)
    sink.seek(cp.offset)
    return _Tally(sink, cp.offset, digest)


def run_scan(
    name: str,
    params: dict,
    sink,
    *,
    fmt: str = "jsonl",
    checkpoint_path: str | None = None,
    limit_subjects: int | None = None,
) -> ScanSummary:
    """Drive a scan: emit records to sink, checkpointing as it goes.

    params holds exactly the keys the scan reads: its required keys, or for
    pairs the published form {"known": True, "stretch": bool}; a missing key
    (or one held as None) or an unread one raises ValueError before sink or
    the checkpoint is touched, so the same records carry one params hash.
    A checkpoint is saved after each subject that ends _CHECKPOINT_SECONDS or
    more after the last save (or the start), and at the end if subjects ran
    since then; sink is flushed first, so a checkpoint never claims
    unflushed work.  If checkpoint_path exists, the run resumes after its
    last completed subject; a checkpoint of another scan or format, or whose
    last_subject is below the scan's first, raises CheckpointError before
    sink is touched.  sink must then hold the earlier output: a file opened
    from its path (append mode is fine) or an in-memory stream.  Its first
    `offset` bytes must match the checkpoint's sha256, else CheckpointError
    again; anything after them is truncated, and the generator starts
    after last_subject, so no earlier subject is computed again.
    limit_subjects stops early after that many
    subjects, computing none past them (used to exercise interruption in
    tests); a value that is negative, a bool or not an int raises
    ValueError.  The summary counts only the subjects and records of this
    call: a resumed run leaves out those before its checkpoint, in its
    ratio report too.
    """
    h = params_digest(params)
    sd = _scan_def(name, params)
    if limit_subjects is not None and (
        isinstance(limit_subjects, bool) or not isinstance(limit_subjects, int) or limit_subjects < 0
    ):
        raise ValueError(f"limit_subjects must be an int >= 0, got {limit_subjects!r}")

    after: int | None = None
    already_emitted = 0
    tally = _Tally(sink)
    if checkpoint_path and os.path.exists(checkpoint_path):
        cp = checkpoint_load(checkpoint_path, expected_params=params)
        if (cp.scan, cp.fmt) != (name, fmt):
            raise CheckpointError(
                f"checkpoint is for scan {cp.scan!r} in {cp.fmt}, not {name!r} in {fmt}"
            )
        if cp.last_subject < sd.first:
            raise CheckpointError(f"checkpoint {checkpoint_path} has last_subject "
                                  f"{cp.last_subject}, below the scan's first subject")
        tally = _cut_back(sink, cp)
        after = cp.last_subject
        already_emitted = cp.records_emitted

    emit = _make_writer(tally, fmt, header=after is None)
    subjects = records = hits = fails = 0
    ratio = _RatioBest()
    last = saved = after
    saved_at = monotonic()

    def save() -> None:
        _flush(sink)
        checkpoint_save(
            Checkpoint(
                name, params, h, last, already_emitted + records,
                tally.offset, tally.digest.hexdigest(), fmt,
            ),
            checkpoint_path,
        )

    for subject, recs in islice(sd.stream(params, h, after), limit_subjects):
        for rec in recs:
            emit(rec)
            ratio.add(rec)
            records += 1
            hits += rec.verdict == "hit"
            fails += rec.verdict == "fail"
        subjects += 1
        last = subject
        if checkpoint_path and (now := monotonic()) - saved_at >= _CHECKPOINT_SECONDS:
            save()
            saved, saved_at = last, now

    _flush(sink)
    if checkpoint_path and last != saved:
        save()
    return ScanSummary(name, h, subjects, records, hits, fails, ratio.report())


def _flush(sink) -> None:
    flush = getattr(sink, "flush", None)
    if flush:
        flush()


def _make_writer(sink: _Tally, fmt: str, header: bool) -> Callable[[ScanRecord], None]:
    if fmt == "jsonl":
        return lambda rec: sink.write(json.dumps(rec.columns(), separators=_COMPACT) + "\n")
    if fmt == "csv":
        writer = csv.writer(sink, lineterminator="\n")
        if header:
            writer.writerow(_COLUMNS)

        def write(rec: ScanRecord) -> None:
            row = rec.columns()
            # a pair subject keeps JSON's default spacing, "[29, 937]"
            row.update(subject=json.dumps(row["subject"]), witness=rec.witness_json())
            writer.writerow(row.values())

        return write
    raise ValueError(f"unknown format {fmt!r}")


def _loads(text: str):
    """The JSON value of an ASCII text (records are ASCII), or None."""
    try:
        return json.loads(text) if text.isascii() else None
    except (ValueError, RecursionError):  # RecursionError: nesting too deep
        return None


def _decoded_rows(fh, fmt: str) -> Iterator:
    """Each line's columns as JSON values, or None where they do not decode."""
    if fmt == "jsonl":
        for line in fh:
            if line.strip():
                yield _loads(line)
        return
    if fmt != "csv":
        raise ValueError(f"unknown format {fmt!r}")
    try:
        # the header row is read as a row, so a stream that lost it loses no record
        for i, row in enumerate(csv.DictReader(fh, _COLUMNS)):
            if i == 0 and list(row.values()) == list(_COLUMNS):
                continue
            # extra fields (a list under key None), a missing one (None), non-ASCII
            if all(isinstance(v, str) and v.isascii() for v in row.values()):
                row.update((k, _loads(row[k])) for k in ("subject", "witness"))
            else:
                row = None
            if i == 0:
                yield None  # the header row is lost or damaged
                if ScanRecord.from_fields(row) is None:
                    continue  # it was the damaged header, counted once
            yield row
    except csv.Error:  # a torn quote makes the rest of the file one huge field
        yield None


def _ratio_readable(rec: ScanRecord) -> bool:
    """Whether max_ratio_report can read q/p off a record: q, if present, is
    spelled as str(q) spells an int, and p is an int subject above 0."""
    q = rec.witness.get("q", "0")
    try:
        return type(rec.subject) is int and rec.subject > 0 and str(int(q)) == q
    except (TypeError, ValueError):
        return False


def read_records(fh, fmt: str) -> Iterator[ScanRecord | None]:
    """Decode a jsonl or csv record stream from the text file fh: yield each
    line's record as a ScanRecord, or None for a line that does not parse.
    Lines are decoded one by one, so a record of another subject shape than
    its scan's first, or a new-conjecture record without a readable q/p, is
    yielded too: whether a record fits its stream is check_stream's call.
    A csv stream whose first row is not the header yields None for the
    header, then that row if it is a record."""
    for row in _decoded_rows(fh, fmt):
        yield ScanRecord.from_fields(row)


@dataclass
class _ScanState:
    front: Subject  # the largest subject so far; its type is the scan's subject shape
    witnesses: set = field(default_factory=set)  # of the records at front
    hashes: set = field(default_factory=set)
    verdicts: dict = field(default_factory=dict)


def check_stream(fh, fmt: str) -> dict:
    """The summary `report` prints of a jsonl or csv record stream read from
    the text file fh: its record count, each scan's verdict counts, the
    damage found, and the new-conjecture ratio report if there are hits.
    Damage is what an intact stream never holds: an unparseable line, which
    also counts a record of another subject shape (int or pair) than its
    scan's first record or a new-conjecture record whose q/p cannot be read,
    and sets no state; a subject below its scan's largest so far, or at it
    with a witness seen there already; a scan with more than one params hash."""
    scans: dict[str, _ScanState] = {}
    unparseable = out_of_order = 0
    ratio = _RatioBest()  # of the new-conjecture hits, kept as they pass
    for rec in read_records(fh, fmt):
        state = scans.get(rec.scan) if rec is not None else None
        if (
            rec is None
            or (rec.scan == "new-conjecture" and not _ratio_readable(rec))
            or (state is not None and type(rec.subject) is not type(state.front))
        ):
            unparseable += 1
            continue
        if state is None:
            state = scans[rec.scan] = _ScanState(rec.subject)
        state.hashes.add(rec.params_hash)
        state.verdicts[rec.verdict] = state.verdicts.get(rec.verdict, 0) + 1
        key = rec.witness_json()
        if rec.subject > state.front:
            state.front, state.witnesses = rec.subject, {key}
        elif rec.subject < state.front or key in state.witnesses:
            out_of_order += 1
        else:
            state.witnesses.add(key)
        ratio.add(rec)
    mixed = sorted(name for name, st in scans.items() if len(st.hashes) > 1)
    summary: dict = {
        "records": sum(sum(st.verdicts.values()) for st in scans.values()),
        "by_scan": {name: st.verdicts for name, st in scans.items()},
        "damage": {
            "unparseable_lines": unparseable,
            "repeated_or_backwards_subjects": out_of_order,
            "scans_with_mixed_params_hash": mixed,
        },
    }
    if ratio.hits:
        summary["new_conjecture"] = {"hits": ratio.hits, "max_q_over_p": str(ratio.best)}
    return summary


def scan_records(name: str, params: dict) -> list[ScanRecord]:
    """Every record of scan `name` under `params`, in stream order: the
    records run_scan would write, as a list and without a checkpoint.
    params is checked as run_scan checks it."""
    out: list[ScanRecord] = []
    for _, recs in _scan_def(name, params).stream(params, params_digest(params)):
        out.extend(recs)
    return out


@dataclass
class _RatioBest:
    """The new-conjecture hits counted so far and the largest q/p among them."""

    hits: int = 0
    best: Fraction | None = None
    pair: list | None = None  # [p, q] at the largest q/p

    def add(self, rec: ScanRecord) -> None:
        if rec.scan != "new-conjecture" or rec.verdict != "hit" or "q" not in rec.witness:
            return
        self.hits += 1
        q = int(rec.witness["q"])
        ratio = Fraction(q, rec.subject)
        if self.best is None or ratio > self.best:
            self.best, self.pair = ratio, [rec.subject, q]

    def report(self) -> dict:
        best = str(self.best) if self.best is not None else None
        return {"hits": self.hits, "max_q_over_p": best, "max_pair": self.pair}


def max_ratio_report(records: Iterable[ScanRecord]) -> dict:
    """Summary of new-conjecture hits: the largest q/p ratio observed.

    The conjecture predicts q < p on all but finitely many hits, so the
    interesting statistic is how close q/p comes to 1 (published data at
    larger scale reports ratios around 1/100).
    """
    ratio = _RatioBest()
    for rec in records:
        ratio.add(rec)
    return ratio.report()
