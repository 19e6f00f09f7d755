"""Per-layer call counts and self times, by wrapping grpf's functions from outside.

Each listed function is replaced, in every loaded ``grpf`` module that
binds it, by a wrapper that counts calls and records its span.  A layer's
self time is its span minus the part of it that wrapped child spans cover.
Class entries wrap ``__init__``, so they time construction.  A name that a
version of grpf no longer has is reported as missing and left out.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (metric prefix, module, attribute path)
LAYERS = [
    ("weights.weyl_dimension", "grpf.weights", "weyl_dimension"),
    ("weights.GLWeight", "grpf.weights", "GLWeight.__init__"),
    ("bwb.bwb_cohomology", "grpf.bwb", "bwb_cohomology"),
    ("bwb.cohomology_of_kclass", "grpf.bwb", "cohomology_of_kclass"),
    ("bwb.euler_characteristic", "grpf.bwb", "euler_characteristic"),
    ("schur.KClass", "grpf.schur", "KClass.__init__"),
    ("schur.cauchy_exterior_cotangent", "grpf.schur", "cauchy_exterior_cotangent"),
    ("sections.rhom_dimensions", "grpf.sections", "rhom_dimensions"),
    ("sections.pair_twisted_vanishing", "grpf.sections", "pair_twisted_vanishing"),
    ("sections.koszul_restricted_cohomology", "grpf.sections", "koszul_restricted_cohomology"),
    ("sections.omega_p_class", "grpf.sections", "omega_p_class"),
    ("poly.Poly.mul", "grpf.poly", "Poly.__mul__"),
    ("poly.Poly.partial", "grpf.poly", "Poly.partial"),
    ("poly.Poly.evaluate", "grpf.poly", "Poly.evaluate"),
    ("modp.pfaffian_mod", "grpf.modp", "pfaffian_mod"),
    ("modp.det_mod", "grpf.modp", "det_mod"),
    ("modp.rank_mod", "grpf.modp", "rank_mod"),
    ("pfaffian.pfaffian_polynomial", "grpf.pfaffian", "pfaffian_polynomial"),
    ("pfaffian.submaximal_pfaffians", "grpf.pfaffian", "submaximal_pfaffians"),
    ("pfaffian._jacobian_rank_at", "grpf.pfaffian", "_jacobian_rank_at"),
    ("pfaffian._kernel_cofactor_vector", "grpf.pfaffian", "_kernel_cofactor_vector"),
    ("pfaffian._combine_forms", "grpf.pfaffian", "_combine_forms"),
    ("pfaffian._lagrange_mod", "grpf.pfaffian", "_lagrange_mod"),
    ("pfaffian._roots_mod", "grpf.pfaffian", "_roots_mod"),
    ("pfaffian.sample_y2", "grpf.pfaffian", "sample_y2"),
    ("cli.run", "grpf.cli", "run"),
]


def _bwb_key(args, kwargs, result):
    w = args[0] if args else kwargs["w"]
    return (w.n, tuple(w.s_block), tuple(w.q_block))


def _rhom_key(args, kwargs, result):
    names = ("e", "f", "n", "t")
    bound = dict(zip(names, args), **kwargs)
    (l, m), (lp, mp) = bound["e"], bound["f"]
    return (bound["n"], l, lp, m - mp + bound.get("t", 0))


# Layers whose calls are also counted by distinct argument key, per job.
DISTINCT = {"bwb.bwb_cohomology": _bwb_key, "sections.rhom_dimensions": _rhom_key}
SAMPLER = "pfaffian.sample_y2"


def metric_names():
    """Every per-layer metric name with its unit and better direction."""
    out = []
    for name, _, _ in LAYERS:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
        if name in DISTINCT:
            out.append((f"{name}.distinct", "count", "lower"))
    out.append((f"{SAMPLER}.points", "count", "higher"))
    out.append((f"{SAMPLER}.attempts", "count", "lower"))
    return out


class Tracer:
    """Installs the wrappers and accumulates their counters."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.distinct = {name: 0 for name in DISTINCT}
        self.sampled = {"points": 0, "attempts": 0}
        self.missing = []
        self._keys = {name: set() for name in DISTINCT}
        self._stack = []

    def install(self):
        for name, module, path in LAYERS:
            try:
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            if outer:
                setattr(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "grpf" or mod_name.startswith("grpf."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def _wrap(self, name, original):
        self.calls[name] = 0
        self.self_s[name] = 0.0
        stack = self._stack
        keys = self._keys.get(name)
        key_of = DISTINCT.get(name)
        perf = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf()
            try:
                result = original(*args, **kwargs)
            finally:
                span = perf() - start
                child = stack.pop()
                self.calls[name] += 1
                self.self_s[name] += span - child
                if stack:
                    stack[-1] += span
            if keys is not None:
                keys.add(key_of(args, kwargs, result))
            elif name == SAMPLER:
                self.sampled["points"] += len(result.points)
                self.sampled["attempts"] += result.attempts
            return result

        return wrapper

    def end_job(self):
        """Fold the distinct keys of the job just run into the totals."""
        for name, keys in self._keys.items():
            self.distinct[name] += len(keys)
            keys.clear()

    def metrics(self):
        """Per-layer values so far, leaving out missing layers."""
        out = {}
        for name, _, _ in LAYERS:
            if name in self.missing:
                continue
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
            if name in DISTINCT:
                out[f"{name}.distinct"] = self.distinct[name]
        if SAMPLER not in self.missing:
            out[f"{SAMPLER}.points"] = self.sampled["points"]
            out[f"{SAMPLER}.attempts"] = self.sampled["attempts"]
        return out


def fill_from_probe(own, total):
    """Per-layer values of the jobs, with layers they never call taken from the probe.

    ``own`` is read before the probe runs and ``total`` after it, so a
    layer's probe figures are the difference of the two.
    """
    out = dict(own)
    for name, _, _ in LAYERS:
        if own.get(f"{name}.calls", 1) == 0:
            for metric in total:
                if metric.startswith(name + "."):
                    out[metric] = total[metric] - own[metric]
    return out
