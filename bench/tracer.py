"""Outside-in tracing of fracstab's public functions.

The package binds names with ``from .x import y``, so a function lives in
every module namespace that imported it.  `Tracer.install` replaces each of
those bindings with a wrapper: span wrappers record (id, parent, name, start,
end, item) tuples, count wrappers only count calls.  Hooks on some entry
points add work counters (ML points by |z| band, field and kernel
evaluations, adaptive-quadrature evaluations, repeated arguments).

Spans and counts stay in memory; `aggregate` turns a span list into per-name
call counts, total and self times.  Nothing here changes a return value.
"""

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

TRACED_MODULES = ("special_fn", "matfun", "quad", "solver", "stability", "cli", "norms")

# cheap helpers called per propagator or per state: counted, no span
COUNT_ONLY = frozenset({
    "norms.check_norm",
    "norms.vector_norm",
    "norms.operator_norm",
    "matfun.as_square_matrix",
    "special_fn.gamma",
    "special_fn.classify_region",
    "solver.as_perturbation",
    "quad.uniform_grid",
    "quad.graded_grid",
})

# |z| band edges for ML points, fixed by the benchmark
BAND_EDGES = (1.0, 50.0)
BANDS = ("absz_le_1", "absz_1_50", "absz_gt_50")

# calls whose arguments are remembered per item to count repeats
REPEAT_TRACKED = (
    "matfun.ml_matrix",
    "matfun.kernel_integral",
    "matfun.sup_ml_norm",
    "special_fn.estimate_decay_constant",
)


def band_counts(absz):
    absz = np.asarray(absz, dtype=float).ravel()
    low = int(np.count_nonzero(absz <= BAND_EDGES[0]))
    high = int(np.count_nonzero(absz > BAND_EDGES[1]))
    return (low, absz.size - low - high, high)


def _freeze(value):
    """Hashable stand-in for an argument; spectral data is derived from A
    (also an argument), so it is left out."""
    if isinstance(value, np.ndarray):
        return ("array", value.shape, value.dtype.str, value.tobytes())
    if value is None or isinstance(value, (bool, int, float, complex, str)):
        return value
    if isinstance(value, (tuple, list)):
        return tuple(_freeze(v) for v in value)
    if hasattr(value, "eigenvalues") and hasattr(value, "eigenvectors"):
        return "spectral-data"
    return repr(value)


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


class Tracer:
    """Span and counter store for one process."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.stack = []
        self.item = None
        self._next_id = 0
        self._seen = defaultdict(set)
        self._installed = []   # (module, attribute, original)
        self._originals = {}   # id(original) -> qualified name
        self._saved_quad = None

    # -- items ---------------------------------------------------------

    def begin_item(self, name):
        self.item = name
        self._seen.clear()

    # -- wrappers ------------------------------------------------------

    def _span(self, qname, fn):
        hook = _HOOKS.get(qname)
        post = _POST.get(qname)
        repeat = qname in REPEAT_TRACKED
        sig = inspect.signature(fn) if repeat else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if repeat:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                key = tuple(_freeze(v) for v in bound.arguments.values())
                seen = tracer._seen[qname]
                tracer.counts[qname + ".repeats"] += key in seen
                seen.add(key)
            if hook is not None:
                args, kwargs = hook(tracer, args, kwargs)
            tracer._next_id += 1
            sid = tracer._next_id
            stack = tracer.stack
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, qname, t0, t1, tracer.item))
            if post is not None:
                post(tracer, out)
            return out

        wrapper.__bench_wrapped__ = fn
        return wrapper

    def _counter(self, qname, fn):
        counts = self.counts
        key = qname + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__bench_wrapped__ = fn
        return wrapper

    def install(self, package):
        """Wrap every public function of the traced modules in every
        fracstab namespace that holds it, and scipy's adaptive quad."""
        wrappers = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"{package}.{short}")
            for name, fn in public_functions(mod):
                qname = f"{short}.{name}"
                make = self._counter if qname in COUNT_ONLY else self._span
                wrappers[id(fn)] = make(qname, fn)
                self._originals[id(fn)] = qname
        for mod in package_modules(package):
            for attr, value in list(vars(mod).items()):
                w = wrappers.get(id(value))
                if w is not None:
                    self._installed.append((mod, attr, value))
                    setattr(mod, attr, w)
        self._install_quad()

    def _install_quad(self):
        from scipy import integrate

        original = integrate.quad
        counts = self.counts

        @functools.wraps(original)
        def quad(func, *args, **kwargs):
            counts["scipy.quad.calls"] += 1

            def counted(*a):
                counts["scipy.quad.evals"] += 1
                return func(*a)

            return original(counted, *args, **kwargs)

        self._saved_quad = original
        integrate.quad = quad

    def uninstall(self):
        for mod, attr, value in reversed(self._installed):
            setattr(mod, attr, value)
        self._installed.clear()
        if self._saved_quad is not None:
            from scipy import integrate

            integrate.quad = self._saved_quad
            self._saved_quad = None

    def unwrapped_entry_points(self, package, extra=()):
        """Namespaces of the package (and `extra` modules) whose attributes
        still hold an original, unwrapped function."""
        left = []
        for mod in package_modules(package) + list(extra):
            for attr, value in vars(mod).items():
                if id(value) in self._originals and not hasattr(value, "__bench_wrapped__"):
                    left.append(f"{mod.__name__}.{attr}")
        return left

    # -- export --------------------------------------------------------

    def dump(self):
        return {"spans": self.spans, "counts": dict(self.counts)}


def public_functions(mod):
    for name, value in vars(mod).items():
        if (
            not name.startswith("_")
            and inspect.isfunction(value)
            and value.__module__ == mod.__name__
        ):
            yield name, value


def package_modules(package):
    return [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == package or n.startswith(package + "."))
    ]


# -- hooks: count work at the entry point, wrap callables to count calls --


def _count_points(tracer, absz):
    low, mid, high = band_counts(absz)
    c = tracer.counts
    c["special_fn.points"] += low + mid + high
    c["special_fn.points.absz_le_1"] += low
    c["special_fn.points.absz_1_50"] += mid
    c["special_fn.points.absz_gt_50"] += high
    c["special_fn.point_calls"] += 1


def _hook_ml(tracer, args, kwargs):
    _count_points(tracer, abs(complex(_arg(args, kwargs, 1, "z"))))
    return args, kwargs


def _hook_ml_many(tracer, args, kwargs):
    z = np.asarray(_arg(args, kwargs, 1, "z_values"), dtype=complex)
    _count_points(tracer, np.abs(z))
    return args, kwargs


def _hook_ml_dlambda(tracer, args, kwargs):
    params = _arg(args, kwargs, 0, "params")
    t = float(_arg(args, kwargs, 1, "t"))
    lam = complex(_arg(args, kwargs, 2, "lam"))
    _count_points(tracer, abs(lam) * t ** params.alpha)
    return args, kwargs


def _hook_ml_log_positive(tracer, args, kwargs):
    _count_points(tracer, abs(float(_arg(args, kwargs, 1, "x"))))
    return args, kwargs


def _counting(counts, key, fn):
    def counted(*a, **k):
        counts[key] += 1
        return fn(*a, **k)

    return counted


def _replace(args, kwargs, index, name, make):
    if name in kwargs:
        kwargs = dict(kwargs, **{name: make(kwargs[name])})
    else:
        args = args[:index] + (make(args[index]),) + args[index + 1:]
    return args, kwargs


def _hook_convolve(tracer, args, kwargs):
    return _replace(
        args, kwargs, 3, "kernel_matrix_at",
        lambda k: _counting(tracer.counts, "quad.convolve_singular.kernel_calls", k),
    )


def _hook_abm(tracer, args, kwargs):
    tracer.counts["solver.nodes"] += len(_arg(args, kwargs, 3, "grid"))
    return _replace(
        args, kwargs, 1, "field",
        lambda f: _counting(tracer.counts, "solver.field_evals", f),
    )


def _post_lp(tracer, out):
    tracer.counts["solver.lp.iterations"] += int(out.meta["iterations"])


_HOOKS = {
    "special_fn.ml": _hook_ml,
    "special_fn.ml_many": _hook_ml_many,
    "special_fn.ml_dlambda": _hook_ml_dlambda,
    "special_fn.ml_log_positive": _hook_ml_log_positive,
    "quad.convolve_singular": _hook_convolve,
    "solver.solve_abm": _hook_abm,
}
_POST = {"solver.lyapunov_perron_iterate": _post_lp}


# -- aggregation ---------------------------------------------------------


def aggregate(spans):
    """Per-name calls, total and self seconds, and per-(name, nearest traced
    parent) call counts.  Self time is a span minus its direct children; the
    process is single-threaded, so children never overlap."""
    names = {}
    child_time = defaultdict(float)
    for sid, parent, name, t0, t1, _item in spans:
        names[sid] = name
        if parent:
            child_time[parent] += t1 - t0
    calls = Counter()
    total = defaultdict(float)
    self_s = defaultdict(float)
    by_parent = Counter()
    for sid, parent, name, t0, t1, _item in spans:
        calls[name] += 1
        total[name] += t1 - t0
        self_s[name] += (t1 - t0) - child_time[sid]
        by_parent[(name, names.get(parent))] += 1
    return calls, total, self_s, by_parent
