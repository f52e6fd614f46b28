"""Span tracer for the traced benchmark run.

The tracer replaces each layer function of `hessian_radial` by a wrapper under
every name it is looked up by (module globals, the CLI command table, class
attributes), records one span per call and restores the originals on exit.
Spans carry their parent and the benchmark operation that caused them; a
span opened on a worker thread with an empty stack (the `sweep` thread pool)
takes the innermost span open on the driving thread as its parent.

Aggregates (calls, inclusive time, self time, per-layer work counts) are kept
exactly for every span.  The raw spans go to an in-memory buffer that keeps
the first MAX_SPANS of them and is written out once, when the run ends.
"""

import csv
import functools
import importlib
import itertools
import threading
import time

# Wrapped functions as "<module>.<attribute path>", each with a work counter
# (or None) that maps the call's arguments and result to the units of work
# it did.
TARGETS = {
    "nonlinearity.Nonlinearity.log_eval": None,
    "radial._smooth_factor": None,
    "radial.dphi_from_integral": None,
    "solver._cell_increment": None,
    "solver._cell_increments": None,
    "solver._forward_pass": lambda args, res: len(args[2]),
    "solver.picard_solve": None,
    "solver._blowup_walk": lambda args, res: len(res.profile.grid) - 1,
    "solver.euler_break_line": lambda args, res: len(res.grid) - 1,
    "solver.detect_blowup": None,
    "solver._profile_from_walk": None,
    "solver.RadialProfile.validate": None,
    "solver.per_cell_defect": None,
    # bytes: the CLI hands to_csv a freshly opened file
    "solver.RadialProfile.to_csv": lambda args, res: args[1].tell(),
    "cli.cmd_sweep": None,
    "cli.cmd_solve": None,
    "cli.cmd_verify": None,
    "cli.cmd_ko": None,
    "gaussian.verify_subsolution": lambda args, res: len(res.checks),
    "symmetric.elem_sym_all": None,
    "keller_osserman.ko_classify_numeric": None,
}
# Spans kept in the buffer, about 50 MB of tuples.  One traced `global` round
# makes about 1.2M layer spans, so a run keeps the span tree of its first
# operations only; the per-layer metrics count every span, and the result's
# `spans_dropped` says how many were not kept.
MAX_SPANS = 200_000
# the source term's layer is reported under its short name
_SHORT_NAMES = {"nonlinearity.Nonlinearity.log_eval": "nonlinearity.log_eval"}


def _per(total, count, scale=1.0):
    return total / count * scale if count else 0.0


# Per-layer metrics: name -> (unit, better, the end-to-end metric and
# workload it should move, how it is derived from the aggregates).
LAYER_METRICS = {}


def _metric(name, unit, better, moves, derive):
    LAYER_METRICS[name] = (unit, better, moves, derive)


_HOT = "op_s_p50 and ops_per_s on sweep and global; no change on solve"
for _fn in ("nonlinearity.log_eval", "radial._smooth_factor",
            "solver._cell_increment", "radial.dphi_from_integral"):
    _metric(f"{_fn}.calls", "count", "lower", _HOT,
            lambda s, c: float(s.calls))
    _metric(f"{_fn}.us_per_call", "us", "lower", _HOT,
            lambda s, c: _per(s.total, s.calls, 1e6))
_metric("solver._cell_increments.calls", "count", "lower", "op_s_p50 on solve",
        lambda s, c: float(s.calls))
_metric("solver._cell_increments.us_per_call", "us", "lower",
        "op_s_p50 on solve", lambda s, c: _per(s.total, s.calls, 1e6))
_metric("solver._forward_pass.calls", "count", "lower", "op_s_p50 on solve",
        lambda s, c: float(s.calls))
_metric("solver._forward_pass.us_per_node", "us", "lower", "op_s_p50 on solve",
        lambda s, c: _per(s.total, s.work, 1e6))
_metric("solver.picard_solve.calls", "count", "lower", "op_s_p50 on solve",
        lambda s, c: float(s.calls))
_metric("solver.picard_solve.s_per_call", "s", "lower", "op_s_p50 on solve",
        lambda s, c: _per(s.total, s.calls))
_metric("solver.picard_solve.sweeps_per_solve", "count", "lower",
        "op_s_p50 on solve",
        lambda s, c: _per(c.count("solver.picard_solve",
                                  "solver._forward_pass"), s.calls))
_WALK = ("op_s_p50 on global (steps/s, step count); r_rel_err_max and "
         "bracket_miss_ratio on sweep (step control)")
for _fn in ("solver._blowup_walk", "solver.euler_break_line"):
    _metric(f"{_fn}.calls", "count", "lower", _WALK,
            lambda s, c: float(s.calls))
    _metric(f"{_fn}.self_s", "s", "lower", _WALK, lambda s, c: s.self_time)
    _metric(f"{_fn}.steps", "count", "lower", _WALK, lambda s, c: float(s.work))
    _metric(f"{_fn}.steps_per_s", "1/s", "higher", _WALK,
            lambda s, c: _per(s.work, s.total))
_DB = "op_s_p50 on sweep and global"
_metric("solver.detect_blowup.calls", "count", "lower", _DB,
        lambda s, c: float(s.calls))
_metric("solver.detect_blowup.s_per_call", "s", "lower", _DB,
        lambda s, c: _per(s.total, s.calls))
_metric("solver.detect_blowup.walks_per_call", "count", "lower", _DB,
        lambda s, c: _per(c.count("solver.detect_blowup",
                                  "solver._blowup_walk"), s.calls))
for _fn in ("solver._profile_from_walk", "solver.RadialProfile.validate",
            "solver.per_cell_defect"):
    _metric(f"{_fn}.self_s", "s", "lower",
            "op_s_p50 and peak_rss_mb on global and solve",
            lambda s, c: s.self_time)
_metric("solver.RadialProfile.to_csv.self_s", "s", "lower", "op_s_p50 on solve",
        lambda s, c: s.self_time)
_metric("solver.RadialProfile.to_csv.bytes", "B", "lower", "op_s_p50 on solve",
        lambda s, c: float(s.work))
_metric("cli.cmd_sweep.self_s", "s", "lower", "ops_per_s on sweep",
        lambda s, c: s.self_time)
# sum of the detect_blowup spans a sweep caused over the sweep's own span:
# above 1 the pool overlaps work, which helps only if ops_per_s rises too
_metric("cli.cmd_sweep.parallel_ratio", "1", "higher", "ops_per_s on sweep",
        lambda s, c: _per(c.time("cli.cmd_sweep", "solver.detect_blowup"),
                          s.total))
_metric("cli.cmd_solve.self_s", "s", "lower", "op_s_p50 on solve",
        lambda s, c: s.self_time)
for _fn in ("cli.cmd_verify", "cli.cmd_ko"):
    _metric(f"{_fn}.self_s", "s", "lower", "op_s_p50 on verify",
            lambda s, c: s.self_time)
_metric("gaussian.verify_subsolution.calls", "count", "lower",
        "op_s_p50 on verify", lambda s, c: float(s.calls))
_metric("gaussian.verify_subsolution.us_per_radius", "us", "lower",
        "op_s_p50 on verify", lambda s, c: _per(s.total, s.work, 1e6))
_metric("symmetric.elem_sym_all.calls", "count", "lower", "op_s_p50 on verify",
        lambda s, c: float(s.calls))
_metric("symmetric.elem_sym_all.us_per_call", "us", "lower",
        "op_s_p50 on verify", lambda s, c: _per(s.total, s.calls, 1e6))
_metric("keller_osserman.ko_classify_numeric.calls", "count", "lower",
        "op_s_p50 on verify", lambda s, c: float(s.calls))
_metric("keller_osserman.ko_classify_numeric.s_per_call", "s", "lower",
        "op_s_p50 on verify", lambda s, c: _per(s.total, s.calls))


class _Stat:
    __slots__ = ("calls", "total", "self_time", "work")

    def __init__(self):
        self.calls, self.total, self.self_time, self.work = 0, 0.0, 0.0, 0.0

    def merge(self, other):
        self.calls += other.calls
        self.total += other.total
        self.self_time += other.self_time
        self.work += other.work


class _Children:
    """Per (parent, child) name pair: number of child spans and their time."""

    def __init__(self, pairs):
        self.pairs = pairs

    def count(self, parent, child):
        return self.pairs.get((parent, child), (0, 0.0))[0]

    def time(self, parent, child):
        return self.pairs.get((parent, child), (0, 0.0))[1]


class _Span:
    __slots__ = ("sid", "parent", "name", "start", "children")

    def __init__(self, sid, parent, name, start):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.children = []


class _ThreadState:
    """What one thread records; merged when the run ends, so the hot path
    takes no lock."""

    def __init__(self):
        self.stack = []
        self.stats = {}
        self.pairs = {}
        self.spans = []


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _assign(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    """Context manager that wraps the layer functions while it is open."""

    def __init__(self):
        self.op_id = 0
        self._sids = itertools.count(1)
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._main = self._state()
        self._restore = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def span(self, name, work=None):
        """Decorator factory: wrap `fn` so each call records a span."""
        main_stack = self._main.stack
        sids = self._sids
        clock = time.perf_counter

        def decorate(fn):
            def wrapper(*args, **kwargs):
                state = self._state()
                stack = state.stack
                if stack:
                    parent = stack[-1]
                else:
                    parent = main_stack[-1] if main_stack else None
                sp = _Span(next(sids), parent, name, clock())
                stack.append(sp)
                result = returned = None
                try:
                    result = fn(*args, **kwargs)
                    returned = True
                    return result
                finally:
                    end = clock()
                    stack.pop()
                    dur = end - sp.start
                    st = state.stats.get(name)
                    if st is None:
                        st = state.stats[name] = _Stat()
                    st.calls += 1
                    st.total += dur
                    st.self_time += dur - _covered(sp.children) \
                        if sp.children else dur
                    if work is not None and returned:
                        st.work += work(args, result)
                    if parent is not None:
                        parent.children.append((sp.start, end))
                        key = (parent.name, name)
                        count, total = state.pairs.get(key, (0, 0.0))
                        state.pairs[key] = (count + 1, total + dur)
                    if sp.sid <= MAX_SPANS:
                        state.spans.append((
                            sp.sid, parent.sid if parent else 0, self.op_id,
                            name, sp.start, end, threading.get_ident()))
            return functools.wraps(fn)(wrapper)
        return decorate

    def op(self, op_id):
        """Span around one benchmark operation; layer spans nest under it."""
        self.op_id = op_id
        return self.span("bench.op")

    def __enter__(self):
        package = importlib.import_module("hessian_radial")
        namespaces = [package] + [
            importlib.import_module(f"hessian_radial.{m}")
            for m in ("nonlinearity", "radial", "solver", "cli", "gaussian",
                      "keller_osserman", "symmetric")]
        for name, work in TARGETS.items():
            *path, attr = name.split(".")
            owner = package
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self.span(_SHORT_NAMES.get(name, name), work)(original)
            if isinstance(owner, type):  # a method: patch the class only
                self._patch(owner, attr, original, wrapped)
                continue
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, key, original, wrapped)
                    elif isinstance(value, dict):  # e.g. the CLI command table
                        for dkey, dval in list(value.items()):
                            if dval is original:
                                self._patch(value, dkey, original, wrapped)
        return self

    def _patch(self, owner, key, original, wrapped):
        self._restore.append((owner, key, original))
        _assign(owner, key, wrapped)

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._restore):
            _assign(owner, key, original)
        self._restore.clear()
        return False

    @property
    def dropped(self):
        """Spans aggregated but not kept in the buffer."""
        calls = sum(st.calls for state in self._states
                    for st in state.stats.values())
        return calls - sum(len(state.spans) for state in self._states)

    def layer_metrics(self):
        stats, pairs = {}, {}
        for state in self._states:
            for name, st in state.stats.items():
                stats.setdefault(name, _Stat()).merge(st)
            for key, (count, total) in state.pairs.items():
                old = pairs.get(key, (0, 0.0))
                pairs[key] = (old[0] + count, old[1] + total)
        children = _Children(pairs)
        empty = _Stat()
        out = {}
        for name, (unit, _, _, derive) in LAYER_METRICS.items():
            fn = name.rsplit(".", 1)[0]
            out[name] = (float(derive(stats.get(fn, empty), children)), unit)
        return out

    def write_spans(self, path):
        spans = sorted(s for state in self._states for s in state.spans)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("span", "parent", "op", "name", "start_s",
                             "end_s", "thread"))
            writer.writerows(spans)
