"""Span tracer that times padic_cubic's layers from outside the package.

Each traced public function is replaced, for the duration of a traced run,
by a wrapper in every padic_cubic module that binds it (``solve`` imports
``nth_roots_mod_p`` by name, ``classify`` imports ``u_term``, and so on), and
methods are replaced on their class.  A wrapper records one span (name, start,
end, parent, op id) while the tracer is active and passes straight through
otherwise.  Aggregates (calls, inclusive time, self time, counters) are kept
for every span; the spans themselves are kept in memory up to a cap and
written out at the end of the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Optional

#: Spans kept in memory per run; aggregates still cover every call beyond it.
SPAN_CAP = 50_000


def _scan_len_nth(args: tuple, kwargs: dict, result: Any) -> int:
    prime = args[2] if len(args) > 2 else kwargs["prime"]
    return prime.p


def _scan_len_exhaustive(args: tuple, kwargs: dict, result: Any) -> int:
    cubic = args[0] if args else kwargs["c"]
    return cubic.prime.p


def _digits_out(args: tuple, kwargs: dict, result: Any) -> int:
    from padic_cubic.solve import DEFAULT_DIGITS

    n = args[1] if len(args) > 1 else kwargs.get("n", DEFAULT_DIGITS)
    return n * len(result)


# (span name, module, attribute path, counters).  A counter maps the call's
# (args, kwargs, result) to an amount added to the named count.
TARGETS: tuple[tuple[str, str, str, dict[str, Callable]], ...] = (
    ("padic.Prime", "padic", "Prime.__post_init__", {}),
    ("padic.int_valuation", "padic", "int_valuation", {}),
    ("padic.PadicRational.digits", "padic", "PadicRational.digits", {}),
    ("padic.PadicRational.unit_part", "padic", "PadicRational.unit_part", {}),
    ("padic.PadicRational.leading_digit", "padic", "PadicRational.leading_digit", {}),
    ("residues.sqrt_exists", "residues", "sqrt_exists", {}),
    ("residues.cbrt_exists", "residues", "cbrt_exists", {}),
    (
        "residues.nth_roots_mod_p",
        "residues",
        "nth_roots_mod_p",
        {"residues.nth_roots_mod_p.scan_len": _scan_len_nth},
    ),
    (
        "fp_cubic.roots_exhaustive",
        "fp_cubic",
        "roots_exhaustive",
        {"fp_cubic.roots_exhaustive.scan_len": _scan_len_exhaustive},
    ),
    ("fp_cubic.u_term", "fp_cubic", "u_term", {}),
    ("fp_cubic.linear_root", "fp_cubic", "linear_root", {}),
    ("classify.region", "classify", "region", {}),
    ("classify.signature", "classify", "signature", {}),
    ("classify.count_in", "classify", "count_in", {}),
    ("classify.solvable_in", "classify", "solvable_in", {}),
    ("solve.all_roots", "solve", "all_roots", {"solve.digits_out": _digits_out}),
    ("solve.candidate_scalings", "solve", "candidate_scalings", {}),
    ("solve.congruence_initials", "solve", "congruence_initials", {}),
    ("solve.double_root_closed_form", "solve", "double_root_closed_form", {}),
    ("oracle.verify", "oracle", "verify", {}),
)

#: Span opened by the CLI launcher around ``padic_cubic.cli.main``.
CLI_MAIN = "cli.main"
#: Spans whose calls are the interesting figure, not their (tiny) time.
_CALLS_ONLY = {"fp_cubic.linear_root"}
#: Spans with children worth separating out: self time is reported too.
_SELF_TIMED = {"solve.all_roots", "oracle.verify", CLI_MAIN}


def profile_cache_counts(classify_mod: Any) -> Optional[tuple[int, int]]:
    """(hits, misses) of classify's profile lru cache, or None if it has none."""
    info = getattr(classify_mod._profile, "cache_info", None)
    if info is None:
        return None
    ci = info()
    return ci.hits, ci.misses


class Tracer:
    """In-memory span recorder with per-name aggregates."""

    def __init__(self) -> None:
        self.active = False
        self.op_id = -1
        self.names: list[str] = []
        self._name_idx: dict[str, int] = {}
        # span: (name index, start ns, end ns, parent span index or -1, op id)
        self.spans: list[tuple[int, int, int, int, int]] = []
        self.dropped = 0
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        # HenselSeeds seen while active; whether each is singular is computed
        # after the run, so that the computation adds nothing to a traced span.
        self.seeds: list[Any] = []
        # open frames: [name, start ns, child ns, span index]
        self._stack: list[list] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def _intern(self, name: str) -> int:
        idx = self._name_idx.get(name)
        if idx is None:
            idx = self._name_idx[name] = len(self.names)
            self.names.append(name)
        return idx

    def enter(self, name: str) -> None:
        parent = self._stack[-1][3] if self._stack else -1
        idx = -1
        if len(self.spans) < SPAN_CAP:
            idx = len(self.spans)
            self.spans.append((self._intern(name), 0, 0, parent, self.op_id))
        else:
            self.dropped += 1
        self._stack.append([name, time.perf_counter_ns(), 0, idx])

    def exit(self) -> None:
        end = time.perf_counter_ns()
        name, start, child_ns, idx = self._stack.pop()
        dur = end - start
        if idx >= 0:
            ni, _, _, parent, op = self.spans[idx]
            self.spans[idx] = (ni, start, end, parent, op)
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_ns[name] = self.total_ns.get(name, 0) + dur
        self.self_ns[name] = self.self_ns.get(name, 0) + dur - child_ns
        if self._stack:
            self._stack[-1][2] += dur

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def span(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run fn under a span named name (for calls the benchmark makes itself)."""
        if not self.active:
            return fn(*args, **kwargs)
        self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit()

    def wrap(self, name: str, fn: Callable, hooks: dict[str, Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            for counter, hook in hooks.items():
                tracer.count(counter, hook(args, kwargs, result))
            if name == "solve.congruence_initials":
                tracer.seeds.extend(result)
            return result

        return wrapper

    # -- installing wrappers where callers bind the names --

    def install(self) -> None:
        """Replace every traced function wherever a padic_cubic module binds it."""
        import padic_cubic  # noqa: F401  (loads every submodule)

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "padic_cubic"]
        for name, module_name, attr, hooks in TARGETS:
            owner: Any = sys.modules[f"padic_cubic.{module_name}"]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            orig = owner.__dict__[leaf]
            wrapped = self.wrap(name, orig, hooks)
            if isinstance(owner, type):
                self._set(owner, leaf, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, wrapped)

    def _set(self, owner: Any, key: str, value: Any) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # -- results --

    def merge(self, summary: dict) -> None:
        """Add a child process's aggregates and spans (same monotonic clock)."""
        for name, calls in summary["calls"].items():
            self.calls[name] = self.calls.get(name, 0) + calls
            self.total_ns[name] = self.total_ns.get(name, 0) + summary["total_ns"][name]
            self.self_ns[name] = self.self_ns.get(name, 0) + summary["self_ns"][name]
        for key, amount in summary["counters"].items():
            self.count(key, amount)
        offset = len(self.spans)
        for name, start, end, parent, _ in summary["spans"]:
            if len(self.spans) >= SPAN_CAP:
                self.dropped += 1
                continue
            parent = parent + offset if parent >= 0 else -1
            self.spans.append((self._intern(name), start, end, parent, self.op_id))
        self.dropped += summary["dropped"]

    def summary(self) -> dict:
        """JSON-ready aggregates and spans (used to ship a child's trace)."""
        return {
            "calls": self.calls,
            "total_ns": self.total_ns,
            "self_ns": self.self_ns,
            "counters": self.counters,
            "spans": [(self.names[n], s, e, p, o) for n, s, e, p, o in self.spans],
            "dropped": self.dropped,
        }

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, (n, start, end, parent, op) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": self.names[n],
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent if parent >= 0 else None,
                            "op": op,
                        }
                    )
                    + "\n"
                )

    def fold_seeds(self) -> None:
        """Turn the recorded seeds into the solve.seeds / singular counts."""
        self.count("solve.seeds", len(self.seeds))
        self.count("solve.singular_seeds", sum(1 for s in self.seeds if s.is_singular))
        self.seeds.clear()

    def layer_metrics(
        self, profile_cache: Optional[tuple[int, int]]
    ) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}, zero where a layer was idle.

        profile_cache is the (hits, misses) of classify's profile cache over the
        traced interval, or None when the package has no such cache.
        """
        self.fold_seeds()
        out: dict[str, tuple[float, str]] = {}
        for name, _, _, counters in TARGETS + ((CLI_MAIN, "", "", {}),):
            out[f"{name}.calls"] = (self.calls.get(name, 0), "count")
            if name not in _CALLS_ONLY:
                out[f"{name}.ms"] = (self.total_ns.get(name, 0) / 1e6, "ms")
            if name in _SELF_TIMED:
                out[f"{name}.self_ms"] = (self.self_ns.get(name, 0) / 1e6, "ms")
            for counter in counters:
                out[counter] = (self.counters.get(counter, 0), "count")
        seeds = self.counters.get("solve.seeds", 0)
        singular = self.counters.get("solve.singular_seeds", 0)
        out["solve.seeds"] = (seeds, "count")
        out["solve.singular_seed_share"] = (singular / seeds if seeds else 0.0, "ratio")
        if profile_cache is not None:
            hits, misses = profile_cache
            lookups = hits + misses
            out["classify.profile_cache.hit_ratio"] = (
                hits / lookups if lookups else 0.0,
                "ratio",
            )
        out["cli.import_ms"] = (self.counters.get("cli.import_ns", 0) / 1e6, "ms")
        return out
