"""Per-layer tracing from outside the package.

`Tracer.install()` wraps the public functions listed in LAYERS and rebinds
every module attribute that refers to the original, because `cli`, `sweeps`
and `recursions` import functions by name.  `uninstall()` puts the
originals back, so untimed and untraced code runs the package unchanged.

A span is [name, start, end, parent index] and stays in memory until the
benchmark writes it out.  A layer's self time is the duration of its spans
minus the time their child spans cover.  Functions that are not wrapped run
inside their caller's span: `core._advance` time is part of
`exactprob.build_s` and `core.seen_packed` time part of `exactprob.oracle_s`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs[name]


def _states(args, kwargs, result) -> dict:
    return {"exactprob.states": result.size, "exactprob.states_max": result.size}


def _dp(args, kwargs, result) -> dict:
    a = args[0]
    return {"exactprob.dp_state_steps": a.size * a.word.n * a.M}


def _oracle(args, kwargs, result) -> dict:
    word, M = _arg(args, kwargs, 0, "word"), _arg(args, kwargs, 1, "M")
    return {"exactprob.oracle_prefixes": 1 << (len(str(word)) * M)}


def _sweep_words(args, kwargs, result) -> dict:
    return {"exactprob.sweep_words": 1 << _arg(args, kwargs, 0, "n")}


def _trials(args, kwargs, result) -> dict:
    return {"montecarlo.trials": result.trials}


def _kernel(args, kwargs, result) -> dict:
    words, ys = _arg(args, kwargs, 0, "words"), _arg(args, kwargs, 1, "ys")
    M = _arg(args, kwargs, 2, "M")
    R, L = ys.shape
    return {"montecarlo.kernel_cells": R * (L + 1) * words.shape[1] * M}


def _u_cells(args, kwargs, result) -> dict:
    return {"recursions.u_cells": (result.P + 1) * (result.Q + 1)}


def _renewal(args, kwargs, result) -> dict:
    return {"moments.renewal_terms": result.N}


def _sweep(args, kwargs, result) -> dict:
    return {"sweeps.checks_failed": int(not result.ok)}


# (module, attribute, span group, counter).  A dotted attribute names a
# method.  Groups are "<module>.<name>"; the module part is the layer.
LAYERS = [
    ("cli", "main", "cli.main", None),
    ("exactprob", "exact_seen_probability", "exactprob.exact", None),
    ("exactprob", "build_automaton", "exactprob.build", _states),
    ("exactprob", "ProbAutomaton.seen_probability", "exactprob.dp", _dp),
    ("exactprob", "exhaustive_seen_probability", "exactprob.oracle", _oracle),
    ("exactprob", "max_word_probability", "exactprob.sweep", _sweep_words),
    ("core", "is_m_seen", "core.seen", None),
    ("core", "seen_within", "core.seen", None),
    ("core", "standard_embedding", "core.seen", None),
    ("core", "count_embeddings_packed", "core.count", None),
    ("montecarlo", "estimate_seen_probability", "montecarlo.estimate", _trials),
    ("montecarlo", "estimate_x_seen_in_y", "montecarlo.estimate", _trials),
    ("montecarlo", "batch_seen", "montecarlo.kernel", _kernel),
    ("montecarlo", "coupling_chain_demo", "montecarlo.coupling", None),
    ("montecarlo", "coupling_F", "montecarlo.coupling", None),
    ("montecarlo", "coupling_witness", "montecarlo.coupling", None),
    ("montecarlo", "plan_parameter_path", "montecarlo.coupling", None),
    ("montecarlo", "red_grid", "montecarlo.grid", None),
    ("montecarlo", "admissible_path_exists", "montecarlo.grid", None),
    ("moments", "renewal_table", "moments.renewal", _renewal),
    ("moments", "growth_constant", "moments.growth", None),
    ("moments", "visits_moment_bruteforce", "moments.bruteforce", None),
    ("moments", "second_moment_oracle", "moments.bruteforce", None),
    ("moments", "second_moment_pairsum", "moments.bruteforce", None),
    ("moments", "second_moment_exact", "moments.second_moment", None),
    ("moments", "random_word_second_moment", "moments.second_moment", None),
    ("moments", "expected_embeddings", "moments.second_moment", None),
] + [("recursions", name, "recursions.fn", _u_cells if name == "u_table" else None)
     for name in ("vn_pair_recursion", "vn_single_recursion", "char_poly",
                  "sigma_closed_form", "sigma_oracle", "u_table", "delta_operator",
                  "pq_polynomials", "sigma_generating_identity",
                  "verify_suffix_bounds_m2")
] + [("sweeps", name, "sweeps.fn", _sweep)
     for name in ("sweep_max_word", "sweep_two_block_chain",
                  "sweep_spacing_equivalences", "worked_four_letter_example",
                  "sweep_second_moment", "sweep_polynomial_certificates",
                  "sweep_renewal_facts", "sweep_couplings", "mc_panel",
                  "red_grid_equivalence")]

# Per-layer metric name -> unit, "better", and how it is computed.
METRICS = {
    "exactprob.build_calls": ("count", "lower"),
    "exactprob.build_s": ("s", "lower"),
    "exactprob.states": ("count", "lower"),
    "exactprob.states_max": ("count", "lower"),
    "exactprob.dp_calls": ("count", "lower"),
    "exactprob.dp_s": ("s", "lower"),
    "exactprob.dp_state_steps": ("count", "lower"),
    "exactprob.oracle_calls": ("count", "lower"),
    "exactprob.oracle_s": ("s", "lower"),
    "exactprob.oracle_prefixes": ("count", "lower"),
    "exactprob.sweep_words": ("count", "lower"),
    "exactprob.errors": ("count", "lower"),
    "core.seen_calls": ("count", "lower"),
    "core.seen_s": ("s", "lower"),
    "core.count_calls": ("count", "lower"),
    "core.count_s": ("s", "lower"),
    "montecarlo.estimate_calls": ("count", "lower"),
    "montecarlo.estimate_s": ("s", "lower"),
    "montecarlo.kernel_calls": ("count", "lower"),
    "montecarlo.kernel_s": ("s", "lower"),
    "montecarlo.draw_s": ("s", "lower"),
    "montecarlo.trials": ("count", "higher"),
    "montecarlo.kernel_cells": ("count", "lower"),
    "montecarlo.trials_per_s": ("1/s", "higher"),
    "montecarlo.coupling_s": ("s", "lower"),
    "montecarlo.grid_s": ("s", "lower"),
    "recursions.calls": ("count", "lower"),
    "recursions.self_s": ("s", "lower"),
    "recursions.u_cells": ("count", "lower"),
    "moments.renewal_s": ("s", "lower"),
    "moments.renewal_terms": ("count", "lower"),
    "moments.growth_calls": ("count", "lower"),
    "moments.growth_s": ("s", "lower"),
    "moments.bruteforce_s": ("s", "lower"),
    "moments.second_moment_s": ("s", "lower"),
    "sweeps.suites": ("count", "lower"),
    "sweeps.self_s": ("s", "lower"),
    "sweeps.checks_failed": ("count", "lower"),
    "cli.calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "failed_frac": ("ratio", "lower"),
}

# Counters that must repeat exactly for the same inputs.
EXACT_COUNTS = ("exactprob.states", "exactprob.dp_state_steps",
                "exactprob.oracle_prefixes", "montecarlo.trials",
                "montecarlo.kernel_cells", "moments.renewal_terms",
                "recursions.u_cells")


def _resolve(module: str, attr: str):
    owner = importlib.import_module(f"wordseen.{module}")
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Records spans and counters for the functions in LAYERS."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self._last_error: dict[str, BaseException] = {}
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark itself opens (one job)."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, group: str, fn, counter):
        name = f"{group}:{fn.__name__}"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                layer = group.split(".")[0]
                if tracer._last_error.get(layer) is not err:  # count it once per layer
                    tracer._last_error[layer] = err
                    tracer.errors[layer] += 1
                raise
            finally:
                tracer._close(idx)
            if counter is not None:
                for key, val in counter(args, kwargs, result).items():
                    if key.endswith("_max"):
                        tracer.counts[key] = max(tracer.counts[key], val)
                    else:
                        tracer.counts[key] += val
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "wordseen" or n.startswith("wordseen.")]
        for module, attr, group, counter in LAYERS:
            owner, name = _resolve(module, attr)
            orig = getattr(owner, name)
            wrapped = self._wrap(group, orig, counter)
            targets = [(owner, name)] + [(m, k) for m in modules
                                         for k, v in vars(m).items() if v is orig]
            for target, key in targets:
                setattr(target, key, wrapped)
                self._saved.append((target, key, orig))

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._saved):
            setattr(target, key, orig)
        self._saved.clear()


def summarize(spans: list[list], counts: dict, errors: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def group(idx: int) -> str:
        return spans[idx][0].split(":")[0]

    def outermost(idx: int) -> bool:
        g, parent = group(idx), spans[idx][3]
        while parent >= 0:
            if group(parent) == g:
                return False
            parent = spans[parent][3]
        return True

    calls: dict[str, int] = defaultdict(int)   # outermost spans per group
    incl: dict[str, float] = defaultdict(float)
    all_calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for idx, (name, start, end, parent) in enumerate(spans):
        g = group(idx)
        layer = g.split(".")[0]
        all_calls[layer] += 1
        self_s[g] += end - start - child_time[idx]
        self_s[layer] += end - start - child_time[idx]
        if outermost(idx):
            calls[g] += 1
            incl[g] += end - start

    m = {
        "exactprob.build_calls": calls["exactprob.build"],
        "exactprob.build_s": incl["exactprob.build"],
        "exactprob.states": counts.get("exactprob.states", 0),
        "exactprob.states_max": counts.get("exactprob.states_max", 0),
        "exactprob.dp_calls": calls["exactprob.dp"],
        "exactprob.dp_s": incl["exactprob.dp"],
        "exactprob.dp_state_steps": counts.get("exactprob.dp_state_steps", 0),
        "exactprob.oracle_calls": calls["exactprob.oracle"],
        "exactprob.oracle_s": incl["exactprob.oracle"],
        "exactprob.oracle_prefixes": counts.get("exactprob.oracle_prefixes", 0),
        "exactprob.sweep_words": counts.get("exactprob.sweep_words", 0),
        "exactprob.errors": errors.get("exactprob", 0),
        "core.seen_calls": calls["core.seen"],
        "core.seen_s": incl["core.seen"],
        "core.count_calls": calls["core.count"],
        "core.count_s": incl["core.count"],
        "montecarlo.estimate_calls": calls["montecarlo.estimate"],
        "montecarlo.estimate_s": incl["montecarlo.estimate"],
        "montecarlo.kernel_calls": calls["montecarlo.kernel"],
        "montecarlo.kernel_s": incl["montecarlo.kernel"],
        "montecarlo.draw_s": self_s["montecarlo.estimate"],
        "montecarlo.trials": counts.get("montecarlo.trials", 0),
        "montecarlo.kernel_cells": counts.get("montecarlo.kernel_cells", 0),
        "montecarlo.coupling_s": incl["montecarlo.coupling"],
        "montecarlo.grid_s": incl["montecarlo.grid"],
        "recursions.calls": all_calls["recursions"],
        "recursions.self_s": self_s["recursions"],
        "recursions.u_cells": counts.get("recursions.u_cells", 0),
        "moments.renewal_s": incl["moments.renewal"],
        "moments.renewal_terms": counts.get("moments.renewal_terms", 0),
        "moments.growth_calls": calls["moments.growth"],
        "moments.growth_s": incl["moments.growth"],
        "moments.bruteforce_s": incl["moments.bruteforce"],
        "moments.second_moment_s": incl["moments.second_moment"],
        "sweeps.suites": calls["sweeps.fn"],
        "sweeps.self_s": self_s["sweeps"],
        "sweeps.checks_failed": counts.get("sweeps.checks_failed", 0),
        "cli.calls": calls["cli.main"],
        "cli.self_s": self_s["cli"],
        "trace.spans": len(spans),
    }
    est = m["montecarlo.estimate_s"]
    m["montecarlo.trials_per_s"] = m["montecarlo.trials"] / est if est else 0.0
    return m
