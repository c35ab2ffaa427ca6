"""Outside-in tracing of latfun's layers, and the per-layer metrics.

The tracer wraps the public functions of each layer (``kernels``,
``lattices``, ``simulate``, ``regions``, ``gaussian``, ``cli``). ``simulate``,
``regions`` and ``cli`` import many of these by name, so each wrapper
replaces the original in every latfun namespace that holds it. A wrapped
call made directly inside a span of the same name is part of that span, so
nested calls are counted once. Spans stay in memory; a span's self time is
its duration minus that of its child spans, so the self times of one op sum
to its wall time. The tracer is single-threaded: run traced ops with
``LATFUN_THREADS=1``.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from collections import defaultdict

EXPERIMENTS = ("simulate.two_user", "simulate.k_user", "simulate.side_info")

# Per-layer metrics reported by a --trace 1 run, with their units. The
# kernel probe rates, the thread speed-up, the import time and the tracing
# overhead are filled in by run.py; every other one comes from the spans.
# Self times and counts cover set-up and the traced ops; the op shares
# cover the traced ops only.
METRICS = {
    "kernels.calls": "count",
    "kernels.rows": "count",
    "kernels.self_s.n2": "s",
    "kernels.self_s.n4": "s",
    "kernels.rows_per_s.n2": "1/s",
    "kernels.rows_per_s.n4": "1/s",
    "kernels.rows_per_s.n6": "1/s",
    "kernels.rows_per_s.n8": "1/s",
    "kernels.op_share": "ratio",
    "lattices.round.rows": "count",
    "lattices.round.self_s": "s",
    "lattices.sphere.rows": "count",
    "lattices.sphere.self_s": "s",
    "lattices.mod_lattice.self_s": "s",
    "lattices.sample_dither.self_s": "s",
    "lattices.second_moment.self_s": "s",
    "simulate.two_user.self_s": "s",
    "simulate.k_user.self_s": "s",
    "simulate.side_info.self_s": "s",
    "simulate.build.self_s": "s",
    "simulate.chunks": "count",
    "simulate.trials": "count",
    "simulate.lattice_share": "ratio",
    "simulate.overload_rate": "ratio",
    "simulate.threads2_speedup": "ratio",
    "regions.bt_numeric.self_s": "s",
    "regions.bt_closed.self_s": "s",
    "regions.numeric_evals": "count",
    "regions.lattice_min_sum_rate.self_s": "s",
    "regions.bt_regime.self_s": "s",
    "regions.bt_numeric.op_share": "ratio",
    "gaussian.calls": "count",
    "gaussian.self_s": "s",
    "cli.sweep.self_s": "s",
    "cli.import_s": "s",
    "trace.overhead_frac": "ratio",
}


class Span:
    __slots__ = ("id", "name", "parent", "op", "rows", "start", "end", "attrs")

    def __init__(self, sid, name, parent, op, rows):
        self.id = sid
        self.name = name
        self.parent = parent
        self.op = op
        self.rows = rows
        self.start = self.end = 0.0
        self.attrs = None


def _bt_name(model, *_args, **_kw):
    return ("regions.bt_numeric" if model.c <= 0 else "regions.bt_closed"), 0


def _bt_batch_name(model, d_values, *_args, **_kw):
    return _bt_name(model)[0], len(d_values)


def _coords_name(lat, x, *_args, **_kw):
    name = "lattices.round" if lat.is_diagonal else "lattices.sphere"
    size = x.size if hasattr(x, "size") else len(x)
    return name, size // lat.dim


def _kernel_name(r_mat, targets, *_args, **_kw):
    return f"kernels.n{len(r_mat)}", len(targets)


def _fixed(name):
    return lambda *_args, **_kw: (name, 0)


def _experiment_post(fn):
    """Record trials, overloads and chunks of a finished experiment."""
    sig = inspect.signature(fn)

    def post(span, args, kwargs, report):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        chunk = bound.arguments["chunk_size"]
        span.attrs = {
            "trials": report.trials,
            "overloads": round(report.overload_rate * report.trials),
            "chunks": -(-report.trials // chunk),
        }

    return post


class Tracer:
    def __init__(self, lf):
        self.lf = lf
        self.spans = []
        self.stack = []
        self.op = 0
        self._saved = []
        self._thread = None

    # -- wrappers -----------------------------------------------------------

    def _specs(self):
        lf = self.lf
        sim = lf.simulate
        specs = [
            (lf.kernels, "nearest_point_batch", _kernel_name, None),
            (lf.lattices, "nearest_point_coords", _coords_name, None),
            (lf.lattices, "nearest_point", _fixed("lattices.nearest_point"), None),
            (lf.lattices, "mod_lattice", _fixed("lattices.mod_lattice"), None),
            (lf.lattices, "sample_dither", _fixed("lattices.sample_dither"), None),
            (lf.lattices, "second_moment", _fixed("lattices.second_moment"), None),
            (lf.lattices, "scale_to_second_moment", _fixed("lattices.scale"), None),
            (lf.regions, "bt_min_sum_rates", _bt_batch_name, None),
            (lf.regions, "bt_min_sum_rate", _bt_name, None),
            (lf.regions, "lattice_min_sum_rate", _fixed("regions.lattice_min_sum_rate"), None),
            (lf.regions, "bt_regime", _fixed("regions.bt_regime"), None),
            (lf.regions, "k_user_rates", _fixed("regions.k_user_rates"), None),
            (lf.cli, "sweep_rows_fig5", _fixed("cli.sweep"), None),
        ]
        for attr, name in (
            ("run_two_user_experiment", "simulate.two_user"),
            ("run_k_user_experiment", "simulate.k_user"),
            ("run_side_info_experiment", "simulate.side_info"),
        ):
            fn = getattr(sim, attr)
            specs.append((sim, attr, _fixed(name), _experiment_post(fn)))
        for attr in ("build_two_user_codec", "build_side_info_codec", "build_k_user_codec"):
            specs.append((sim, attr, _fixed("simulate.build"), None))
        gauss = lf.gaussian
        for attr, fn in sorted(vars(gauss).items()):
            if (inspect.isfunction(fn) and fn.__module__ == gauss.__name__
                    and not attr.startswith("_")):
                specs.append((gauss, attr, _fixed("gaussian.algebra"), None))
        return specs

    def _wrap(self, fn, namer, post):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._thread:
                raise RuntimeError("traced call outside the tracing thread; "
                                   "run traced ops with LATFUN_THREADS=1")
            if not stack:
                raise RuntimeError("traced call outside a root span")
            name, rows = namer(*args, **kwargs)
            if stack[-1].name == name:
                return fn(*args, **kwargs)
            span = Span(len(spans), name, stack[-1].id, self.op, rows)
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if post is not None:
                post(span, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Replace each wrapped function in every latfun namespace holding it."""
        lf = self.lf
        namespaces = [lf, lf.kernels, lf.lattices, lf.gaussian, lf.regions, lf.simulate, lf.cli]
        self._thread = threading.get_ident()
        for home, attr, namer, post in self._specs():
            original = getattr(home, attr)
            wrapper = self._wrap(original, namer, post)
            for mod in namespaces:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._saved.append((mod, name, original))

    def uninstall(self):
        for mod, name, original in reversed(self._saved):
            setattr(mod, name, original)
        self._saved.clear()

    def root(self, name, op):
        """Open the root span of one op (or of set-up); returns a closer."""
        if self.stack:
            raise RuntimeError("root span opened inside another span")
        self.op = op
        span = Span(len(self.spans), name, -1, op, 0)
        self.spans.append(span)
        self.stack.append(span)
        span.start = time.perf_counter()

        def close():
            span.end = time.perf_counter()
            self.stack.pop()
            return span.end - span.start

        return close

    # -- results ------------------------------------------------------------

    def self_times(self):
        dur = [s.end - s.start for s in self.spans]
        own = list(dur)
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= dur[s.id]
        return own

    def self_sum_error(self, own):
        """Largest relative gap between an op's summed self times and its wall time."""
        total = defaultdict(float)
        for s in self.spans:
            total[s.op] += own[s.id]
        worst = 0.0
        for s in self.spans:
            if s.parent < 0:
                wall = s.end - s.start
                worst = max(worst, abs(total[s.op] - wall) / wall)
        return worst

    def metrics(self, own, root_name):
        """Span-derived per-layer metrics over set-up and the traced ops."""
        spans = self.spans
        calls = defaultdict(int)
        rows = defaultdict(int)
        self_s = defaultdict(float)
        op_self = defaultdict(float)   # inside traced ops only
        op_wall = 0.0
        exp_of = [None] * len(spans)   # outermost experiment span above each span
        exp_lattice = defaultdict(float)
        for s in spans:
            calls[s.name] += 1
            rows[s.name] += s.rows
            self_s[s.name] += own[s.id]
            layer = s.name.split(".", 1)[0]
            if s.name == root_name:
                op_wall += s.end - s.start
            elif s.op > 0:
                op_self[layer] += own[s.id]
                op_self[s.name] += own[s.id]
            up = exp_of[s.parent] if s.parent >= 0 else None
            exp_of[s.id] = up if up is not None else (s.id if s.name in EXPERIMENTS else None)
            if up is not None and layer in ("lattices", "kernels"):
                exp_lattice[up] += own[s.id]

        def by_prefix(table, prefix):
            return sum(v for k, v in table.items() if k.startswith(prefix))

        exps = [s for s in spans if s.name in EXPERIMENTS and exp_of[s.id] == s.id]
        trials = sum(s.attrs["trials"] for s in exps)
        exp_time = sum(s.end - s.start for s in exps)
        return {
            "kernels.calls": by_prefix(calls, "kernels."),
            "kernels.rows": by_prefix(rows, "kernels."),
            "kernels.self_s.n2": self_s["kernels.n2"],
            "kernels.self_s.n4": self_s["kernels.n4"],
            "lattices.round.rows": rows["lattices.round"],
            "lattices.round.self_s": self_s["lattices.round"],
            "lattices.sphere.rows": rows["lattices.sphere"],
            "lattices.sphere.self_s": self_s["lattices.sphere"],
            "lattices.mod_lattice.self_s": self_s["lattices.mod_lattice"],
            "lattices.sample_dither.self_s": self_s["lattices.sample_dither"],
            "lattices.second_moment.self_s": self_s["lattices.second_moment"],
            "simulate.two_user.self_s": self_s["simulate.two_user"],
            "simulate.k_user.self_s": self_s["simulate.k_user"],
            "simulate.side_info.self_s": self_s["simulate.side_info"],
            "simulate.build.self_s": self_s["simulate.build"],
            "simulate.chunks": sum(s.attrs["chunks"] for s in exps),
            "simulate.trials": trials,
            "simulate.lattice_share": sum(exp_lattice.values()) / exp_time if exps else 0.0,
            "simulate.overload_rate": (sum(s.attrs["overloads"] for s in exps) / trials
                                       if trials else 0.0),
            "regions.bt_numeric.self_s": self_s["regions.bt_numeric"],
            "regions.bt_closed.self_s": self_s["regions.bt_closed"],
            "regions.numeric_evals": rows["regions.bt_numeric"],
            "regions.lattice_min_sum_rate.self_s": self_s["regions.lattice_min_sum_rate"],
            "regions.bt_regime.self_s": self_s["regions.bt_regime"],
            "gaussian.calls": calls["gaussian.algebra"],
            "gaussian.self_s": self_s["gaussian.algebra"],
            "cli.sweep.self_s": self_s["cli.sweep"],
            "kernels.op_share": op_self["kernels"] / op_wall,
            "regions.bt_numeric.op_share": op_self["regions.bt_numeric"] / op_wall,
        }

    def dump(self, path, header):
        """Write every span as [id, name, start, end, parent, op, rows]."""
        t0 = self.spans[0].start if self.spans else 0.0
        payload = dict(header)
        payload["fields"] = ["id", "name", "start_s", "end_s", "parent", "op", "rows"]
        payload["spans"] = [
            [s.id, s.name, s.start - t0, s.end - t0, s.parent, s.op, s.rows] for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))
