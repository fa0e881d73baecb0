"""Tracing of wolstenholme's public functions from outside the package.

The tracer replaces each traced function, in every loaded ``wolstenholme.*``
module namespace that binds the same object, with a timing wrapper, and
puts every original back in ``uninstall``.  It touches no file under
``src/``: the program runs unchanged, only the names it looks up at call
time resolve to the wrappers.

Every call is a frame on one stack (the workloads are single-threaded).
A frame's self time is its duration minus the durations of the traced
frames directly inside it.  Per-function totals (calls, total, self) are
always kept.  Functions outside ``_HOT`` also record one span each
(id, name, start, end, parent span, operation id); the hot per-subject
kernels run up to hundreds of thousands of times, so they keep only the
totals, which bounds memory and overhead.  Generators are timed per
resumption, so the consumer's work between items is not charged to them.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, function, kind): "call" for plain functions, "gen" for functions
# whose returned iterator does the work (verify.run_suite returns one).
TRACED = (
    ("arith", "factor_completely", "call"),
    ("arith", "primes_in", "gen"),
    ("arith", "is_prime", "call"),
    ("arith", "binomial_mod", "call"),
    ("arith", "factorial_unit", "call"),
    ("congruence", "w_mod", "call"),
    ("congruence", "wilson_residue", "call"),
    ("congruence", "pair_criterion", "call"),
    ("congruence", "divisor_product_check", "call"),
    ("congruence", "wprime_exact", "call"),
    ("symmetric", "stirling_tables", "call"),
    ("symmetric", "elem_sym_rows", "gen"),
    ("wpoly", "construct_W", "call"),
    ("wpoly", "trend_scan", "call"),
    ("wpoly", "poly_eval_mod", "call"),
    ("wpoly", "verify_W", "call"),
    ("wpoly", "large_prime_divisor_check", "call"),
    ("search", "run_scan", "call"),
    ("search", "checkpoint_save", "call"),
    ("search", "checkpoint_load", "call"),
    ("verify", "run_suite", "gen"),
    ("cli", "main", "call"),
)

_HOT = {
    "arith.factor_completely",
    "arith.is_prime",
    "arith.binomial_mod",
    "arith.factorial_unit",
    "congruence.w_mod",
    "congruence.wilson_residue",
    "congruence.pair_criterion",
    "congruence.divisor_product_check",
    "congruence.wprime_exact",
    "wpoly.poly_eval_mod",
}

# functions whose totals are kept per first argument: the scan, suite or
# CLI command they ran
_LABELLED = {"search.run_scan", "verify.run_suite", "cli.main"}


def _label(base: str, args: tuple) -> str:
    if base not in _LABELLED or not args:
        return base
    first = args[0]
    if base == "cli.main":
        first = first[0] if first else ""
    return f"{base}.{first}"


class Tracer:
    """Holds the frame stack, per-function totals and spans of one run."""

    def __init__(self) -> None:
        self.totals: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.spans: list[tuple] = []
        self.op = ""
        self._stack: list[list] = []  # [name, start, child_s, span_id]
        self._originals: list[tuple] = []  # (module, attr, original)
        self._t0 = time.perf_counter()

    # -- frames ----------------------------------------------------------

    def _count(self, name: str) -> None:
        self.totals.setdefault(name, [0, 0.0, 0.0])[0] += 1

    def _enter(self, name: str, span: bool) -> None:
        span_id = len(self.spans) if span else None
        if span:
            self.spans.append(None)  # reserved; filled in on exit
        self._stack.append([name, time.perf_counter(), 0.0, span_id])

    def _exit(self) -> None:
        end = time.perf_counter()
        name, start, child_s, span_id = self._stack.pop()
        dur = end - start
        entry = self.totals.setdefault(name, [0, 0.0, 0.0])
        entry[1] += dur
        entry[2] += dur - child_s
        parent = None
        if self._stack:
            self._stack[-1][2] += dur
            for frame in reversed(self._stack):
                if frame[3] is not None:
                    parent = frame[3]
                    break
        if span_id is not None:
            self.spans[span_id] = (
                span_id, name, start - self._t0, end - self._t0, parent, self.op
            )

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a recorded span (an operation root)."""
        self._count(name)
        self._enter(name, True)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit()

    # -- wrappers --------------------------------------------------------

    def _wrap_call(self, base: str, fn):
        span = base not in _HOT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = _label(base, args)
            self._count(name)
            self._enter(name, span)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        return wrapper

    def _timed_iter(self, name: str, it):
        try:
            while True:
                self._enter(name, False)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._exit()
                yield item
        finally:
            close = getattr(it, "close", None)
            if close is not None:
                close()

    def _wrap_gen(self, base: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = _label(base, args)
            self._count(name)
            return self._timed_iter(name, fn(*args, **kwargs))

        return wrapper

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        """Replace every traced function in all loaded wolstenholme modules."""
        modules = [
            m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "wolstenholme" or k.startswith("wolstenholme."))
        ]
        make = {"call": self._wrap_call, "gen": self._wrap_gen}
        for mod_name, fn_name, kind in TRACED:
            original = getattr(sys.modules[f"wolstenholme.{mod_name}"], fn_name)
            wrapper = make[kind](f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._originals.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Put back every binding that install replaced."""
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(json.dumps(
                    {"id": span_id, "name": name, "start": round(start, 6),
                     "end": round(end, 6), "parent": parent, "op": op},
                    separators=(",", ":"),
                ) + "\n")
