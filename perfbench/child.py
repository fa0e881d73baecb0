"""One benchmark repetition, run in a fresh Python process.

Reads a JSON spec on stdin, imports wolstenholme from the checkout's
``src/`` (so every lru_cache starts cold, as in a CLI invocation), runs the
operations back to back through the public entry points the CLI uses, and
prints one JSON result line: import time, wall and CPU time of the
operations, peak RSS, and the sha256 and length of each operation's output.
With ``"trace": true`` it also installs the tracer and reports per-function
totals; spans go to ``spans_path``.

    echo '{"root": ".", "workdir": "...", "ops": [...]}' | python3 perfbench/child.py
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time


def _file_digest(path: str) -> tuple[str, int]:
    with open(path, "rb") as fh:
        data = fh.read()
    return hashlib.sha256(data).hexdigest(), len(data)


def _run_scan(search, op: dict, out: str, ckpt: str) -> dict:
    """Run a scan into a real file with a checkpoint, as `scan --out --checkpoint`.

    With a cut, the first leg stops cleanly after `cut` subjects and a second
    call resumes from the checkpoint, appending to the same file.
    """
    name, params, cut = op["scan"], op["params"], op.get("cut")
    legs = []
    for limit in ([cut, None] if cut else [None]):
        resuming = os.path.exists(ckpt)
        t = time.perf_counter()
        with open(out, "a" if resuming else "w") as sink:
            summary = search.run_scan(
                name, params, sink, checkpoint_path=ckpt, limit_subjects=limit
            )
        legs.append((time.perf_counter() - t, summary))
    digest, size = _file_digest(out)
    return {
        "sha256": digest,
        "bytes": size,
        "subjects": sum(s.subjects for _, s in legs),
        "records": sum(s.records for _, s in legs),
        "leg_s": [dt for dt, _ in legs],
    }


def _run_suite(verify, op: dict) -> dict:
    """The ordered (subject, ok) list of a suite, as `verify <suite>` checks it."""
    results = [
        [list(r.subject) if isinstance(r.subject, tuple) else r.subject, r.ok]
        for r in verify.run_suite(op["suite"], op.get("bound"))
    ]
    data = json.dumps(results, separators=(",", ":")).encode()
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data),
            "subjects": len(results)}


def _run_cli(cli, op: dict, out: str) -> dict:
    code = cli.main([a.replace("{out}", out) for a in op["argv"]])
    if code != 0:
        raise RuntimeError(f"cli exited {code}")
    digest, size = _file_digest(out)
    return {"sha256": digest, "bytes": size}


def _rss_mb() -> float:
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def main() -> int:
    spec = json.load(sys.stdin)
    src = os.path.join(os.path.abspath(spec["root"]), "src")
    sys.path.insert(0, src)

    t = time.perf_counter()
    import wolstenholme
    import wolstenholme.cli
    setup_s = time.perf_counter() - t
    if not os.path.abspath(wolstenholme.__file__).startswith(src + os.sep):
        raise SystemExit(f"wolstenholme imported from {wolstenholme.__file__}, not {src}")
    result: dict = {"setup_s": setup_s}
    if not spec.get("ops"):
        print(json.dumps(result))
        return 0

    from wolstenholme import cli, search, verify

    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    workdir = spec["workdir"]
    ops = []
    cpu0, wall0 = _cpu_s(), time.perf_counter()
    try:
        for i, op in enumerate(spec["ops"]):
            out = os.path.join(workdir, f"op{i}.out")
            ckpt = os.path.join(workdir, f"op{i}.ckpt")
            kind = op["kind"]
            if kind == "scan":
                call, args = _run_scan, (search, op, out, ckpt)
            elif kind == "suite":
                call, args = _run_suite, (verify, op)
            else:
                call, args = _run_cli, (cli, op, out)
            t = time.perf_counter()
            try:
                if tracer is not None:
                    tracer.op = op["id"]
                    rec = tracer.span(f"op.{op['id']}", call, *args)
                else:
                    rec = call(*args)
            except Exception as exc:  # one failed operation must not hide the rest
                rec = {"error": f"{type(exc).__name__}: {exc}"}
            rec["id"] = op["id"]
            rec["wall_s"] = time.perf_counter() - t
            ops.append(rec)
    finally:
        wall = time.perf_counter() - wall0
        cpu = _cpu_s() - cpu0
        if tracer is not None:
            tracer.uninstall()
    result.update(wall_s=wall, cpu_s=cpu, peak_rss_mb=_rss_mb(), ops=ops)
    if tracer is not None:
        info = wolstenholme.congruence.w_exact.cache_info()
        result["totals"] = tracer.totals
        result["cache"] = {"w_exact": [info.hits, info.misses]}
        if spec.get("spans_path"):
            tracer.write_spans(spec["spans_path"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
