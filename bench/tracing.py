"""Span recorder and the hooks that place spans at projflat's layer boundaries.

Spans are recorded from the benchmark's side only: the recorder replaces a
public function or method with a wrapper, everywhere a projflat module
binds it, so the name is patched where callers resolve it (patching
``projflat.solver.solve_real`` alone would miss ``projflat.construct``'s
binding).  Each span stores its name, start, end, parent span, request id,
an error code, and one auxiliary number (solver iterations, or a hash of
the evaluated point for F).  Spans stay in flat arrays in memory; the
per-layer metrics are computed from them when the run ends, and the
arrays are written out then.

A hook whose target no longer exists is recorded as missing, and every
metric that depends on it is reported as missing (``None``), not 0.
"""

import sys
from array import array
from time import perf_counter

import numpy as np

from workloads import CHECKS

ERR_NONE, ERR_DOMAIN, ERR_SOLVER, ERR_OTHER = 0, 1, 2, 3

NORM_METHODS = ("eval_real", "eval_complex", "grad_real")
F_SPANS = ("construct.f", "catalog.f", "other.f")
P_SPANS = ("construct.p", "verify.pfn")
SAMPLING_FUNCS = ("unit_directions", "ball_points", "sphere_points")
VERIFY_FUNCS = ("hamel_residual", "flag_curvature", "berwald_system_residual",
                "master_pde_residual", "convexity_residual", "integrate_geodesic",
                "collinearity_score")
BUILDERS = ("build_k0", "build_kneg1", "build_kpos1")


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self, domain_error, solver_error):
        self._errors = ((domain_error, ERR_DOMAIN), (solver_error, ERR_SOLVER))
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.req = array("i")
        self.err = array("b")
        self.t0 = array("d")
        self.t1 = array("d")
        self.aux = array("d")
        self.stack = [-1]
        self.request = -1
        self.missing = set()
        self._undo = []

    # -- recording -------------------------------------------------------

    def nid(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self, nid, aux=0.0):
        idx = len(self.t0)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.req.append(self.request)
        self.err.append(ERR_NONE)
        self.aux.append(aux)
        self.t1.append(0.0)
        self.stack.append(idx)
        self.t0.append(perf_counter())
        return idx

    def _leave(self, idx, exc=None):
        self.t1[idx] = perf_counter()
        self.stack.pop()
        if exc is not None:
            self.err[idx] = next((code for cls, code in self._errors
                                  if isinstance(exc, cls)), ERR_OTHER)

    def wrap(self, name, fn, aux=None, post=None):
        """Wrap ``fn`` in a span; ``aux(result)`` fills the aux column and
        ``post(result)`` may replace the result."""
        nid = self.nid(name)
        enter, leave, aux_col = self._enter, self._leave, self.aux

        def traced(*args, **kwargs):
            idx = enter(nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                leave(idx, exc)
                raise
            leave(idx)
            if aux is not None:
                aux_col[idx] = aux(out)
            return out if post is None else post(out)
        traced.__wrapped__ = fn
        return traced

    def wrap_metric_eval(self, fn):
        """MetricEvaluator.eval: span named by the evaluator's kind, aux =
        hash of the evaluated (x, y) for the distinct-point ratio."""
        ids = {"constructed": self.nid("construct.f"), "catalog": self.nid("catalog.f")}
        other = self.nid("other.f")
        enter, leave = self._enter, self._leave

        def traced(metric, x, y):
            kind = metric.kind
            nid = ids.get(kind.split("-")[0].split(":")[0], other)
            key = hash((np.asarray(x, dtype=float).tobytes(),
                        np.asarray(y, dtype=float).tobytes()))
            idx = enter(nid, float(key))
            try:
                out = fn(metric, x, y)
            except BaseException as exc:
                leave(idx, exc)
                raise
            leave(idx)
            return out
        traced.__wrapped__ = fn
        return traced

    # -- patching --------------------------------------------------------

    def _rebind(self, orig, new):
        """Point every projflat module-level binding of ``orig`` at ``new``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "projflat" or mod_name.startswith("projflat.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)
                    self._undo.append((mod, attr, orig))

    def patch_function(self, hook, module_name, attr, name, aux=None, post=None):
        orig = getattr(sys.modules.get(module_name), attr, None)
        if not callable(orig):
            self.missing.add(hook)
            return
        self._rebind(orig, self.wrap(name, orig, aux, post))

    def patch_method(self, hook, cls, attr, wrapper):
        orig = cls.__dict__.get(attr) if cls is not None else None
        if not callable(orig):
            self.missing.add(hook)
            return
        new = wrapper(orig)
        for key, value in list(cls.__dict__.items()):
            if value is orig:  # aliases such as ``__call__ = eval``
                setattr(cls, key, new)
                self._undo.append((cls, key, orig))

    def install(self):
        mods = sys.modules
        self.patch_function("cli.parse_metric", "projflat.cli", "parse_metric",
                            "cli.parse_metric")
        self.patch_function("verify.check", "projflat.cli", "_run_check", "verify.check")
        for fn in SAMPLING_FUNCS:
            self.patch_function("sampling", "projflat.sampling", fn, "sampling")
        self.patch_function("solver.real", "projflat.solver", "solve_real", "solver.real",
                            aux=lambda res: res.iterations)
        self.patch_function("solver.complex", "projflat.solver", "solve_complex",
                            "solver.complex", aux=lambda res: res.iterations)
        for fn in ("radius_estimate", "pair_radius_estimate"):
            self.patch_function("solver.radius", "projflat.solver", fn, "solver.radius")
        self.patch_function("verify.jet", "projflat.verify", "jet", "verify.jet")
        self.patch_function("verify.pfn", "projflat.verify", "projective_factor_numeric",
                            "verify.pfn")
        for fn in VERIFY_FUNCS:
            self.patch_function("verify.fn", "projflat.verify", fn, "verify.fn")
        for fn in BUILDERS:
            self.patch_function("construct.build", "projflat.construct", fn,
                                "construct.build", post=self._trace_p_exact)
        evaluator = getattr(mods.get("projflat.construct"), "MetricEvaluator", None)
        self.patch_method("construct.f", evaluator, "eval", self.wrap_metric_eval)
        base = getattr(mods.get("projflat.norms"), "HomogeneousFunction", None)
        if base is None:
            self.missing.add("norms")
        else:
            for cls in _subclasses(base):
                for meth in NORM_METHODS:
                    if meth in cls.__dict__:
                        self.patch_method("norms", cls, meth,
                                          lambda fn, m=meth: self.wrap(f"norms.{m}", fn))

    def _trace_p_exact(self, metric):
        """Constructed evaluators carry P as a field; wrap it per instance."""
        p_exact = getattr(metric, "p_exact", None)
        if p_exact is not None:
            object.__setattr__(metric, "p_exact", self.wrap("construct.p", p_exact))
        return metric

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- output ----------------------------------------------------------

    def spans(self):
        """Span columns as numpy arrays (copies, so recording can go on),
        with each span's duration and self time."""
        cols = {"name": np.array(self.name, dtype=np.int32),
                "parent": np.array(self.parent, dtype=np.int32),
                "req": np.array(self.req, dtype=np.int32),
                "err": np.array(self.err, dtype=np.int8),
                "t0": np.array(self.t0, dtype=float),
                "t1": np.array(self.t1, dtype=float),
                "aux": np.array(self.aux, dtype=float)}
        dur = cols["t1"] - cols["t0"]
        parent = cols["parent"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        cols.update(dur=dur, self=dur - child)
        return cols

    def save(self, path):
        cols = self.spans()
        np.savez(path, names=np.array(self.names), **{k: cols[k] for k in
                 ("name", "parent", "req", "err", "t0", "t1", "aux")})


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


class _Spans:
    """Query helper over the span columns of one set of requests."""

    def __init__(self, tracer, req_mask):
        cols = tracer.spans()
        req = cols["req"]
        keep = (req >= 0) & req_mask[np.maximum(req, 0)]
        self.cols = {k: v[keep] for k, v in cols.items()}
        self.ids = tracer._ids

    def mask(self, *names, reqs=None):
        ids = [self.ids[n] for n in names if n in self.ids]
        m = np.isin(self.cols["name"], ids)
        if reqs is not None:
            m &= reqs[self.cols["req"]]
        return m

    def calls(self, *names, reqs=None):
        return int(self.mask(*names, reqs=reqs).sum())

    def total(self, col, *names, reqs=None):
        return float(self.cols[col][self.mask(*names, reqs=reqs)].sum())

    def errors(self, code, *names):
        m = self.mask(*names)
        return int((self.cols["err"][m] == code).sum()) if code is not None \
            else int((self.cols["err"][m] != ERR_NONE).sum())


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, records):
    """Per-layer metrics of the workload requests in ``records``.

    Returns {name: (value or None, unit)}.  ``records`` is indexed by the
    request id the tracer recorded.
    """
    workload = np.array([not r.probe for r in records], dtype=bool)
    s = _Spans(tracer, workload)
    is_verify = workload & np.array([r.req.kind in ("verify", "negative")
                                     for r in records], dtype=bool)
    pts = np.array([r.points for r in records], dtype=float)

    out = {}

    def put(name, unit, hooks, fn):
        gone = [h for h in hooks if h in tracer.missing]
        out[name] = (None if gone else fn(), unit)

    solves = lambda: s.calls("solver.real", "solver.complex")
    fp = lambda: s.calls("construct.f", "construct.p")

    put("cli.parse_metric.calls", "count", ["cli.parse_metric"],
        lambda: s.calls("cli.parse_metric"))
    put("cli.parse_metric.s", "s", ["cli.parse_metric"],
        lambda: s.total("dur", "cli.parse_metric"))
    put("cli.self_s", "s", ["cli.parse_metric", "verify.check"],
        lambda: s.total("self", "cli"))
    put("sampling.s", "s", ["sampling"], lambda: s.total("dur", "sampling"))
    for meth in NORM_METHODS:
        put(f"norms.{meth}.calls", "count", ["norms"],
            lambda m=meth: s.calls(f"norms.{m}"))
    put("norms.self_s", "s", ["norms"],
        lambda: s.total("self", *(f"norms.{m}" for m in NORM_METHODS)))
    for kind in ("real", "complex"):
        span = f"solver.{kind}"
        put(f"{span}.calls", "count", [span], lambda sp=span: s.calls(sp))
        put(f"{span}.iters", "count", [span], lambda sp=span: int(s.total("aux", sp)))
        put(f"{span}.self_s", "s", [span], lambda sp=span: s.total("self", sp))
    put("solver.radius.s", "s", ["solver.radius"], lambda: s.total("dur", "solver.radius"))
    put("solver.errors", "count", ["solver.real", "solver.complex"],
        lambda: s.errors(None, "solver.real", "solver.complex"))
    put("construct.f.calls", "count", ["construct.f"], lambda: s.calls("construct.f"))
    put("construct.p.calls", "count", ["construct.build"], lambda: s.calls("construct.p"))
    put("construct.solves_per_fp", "1",
        ["solver.real", "solver.complex", "construct.f", "construct.build"],
        lambda: _ratio(solves(), fp()))
    put("construct.self_s", "s", ["construct.f", "construct.build"],
        lambda: s.total("self", "construct.f", "construct.p", "construct.build"))
    put("construct.build.s", "s", ["construct.build"],
        lambda: s.total("dur", "construct.build"))
    put("construct.domain_errors", "count", ["construct.f", "construct.build"],
        lambda: s.errors(ERR_DOMAIN, "construct.f", "construct.p"))
    put("catalog.f.calls", "count", ["construct.f"], lambda: s.calls("catalog.f"))
    put("catalog.self_s", "s", ["construct.f"], lambda: s.total("self", "catalog.f"))

    for check in CHECKS:
        reqs = is_verify & np.array([r.req.check == check for r in records], bool)
        npts = float(pts[reqs].sum())
        put(f"verify.{check}.s", "s", ["verify.check"],
            lambda rq=reqs: s.total("dur", "verify.check", reqs=rq))
        put(f"verify.{check}.f_per_pt", "1/pt", ["construct.f"],
            lambda rq=reqs, d=npts: _ratio(s.calls(*F_SPANS, reqs=rq), d))
        put(f"verify.{check}.p_per_pt", "1/pt", ["construct.build", "verify.pfn"],
            lambda rq=reqs, d=npts: _ratio(s.calls(*P_SPANS, reqs=rq), d))
    put("verify.jet.calls", "count", ["verify.jet"], lambda: s.calls("verify.jet"))
    put("verify.jet.self_s", "s", ["verify.jet"], lambda: s.total("self", "verify.jet"))
    put("verify.self_s", "s", ["verify.check", "verify.fn", "verify.pfn"],
        lambda: s.total("self", "verify.check", "verify.fn", "verify.pfn"))
    put("verify.f_unique_ratio", "1", ["construct.f"],
        lambda: _unique_ratio(s, records, is_verify))
    return out


def _unique_ratio(s, records, is_verify):
    """Distinct (x, y) over F evaluations, pooled over (metric, seed) groups."""
    m = s.mask(*F_SPANS, reqs=is_verify)
    if not m.any():
        return 0.0
    group = np.array([r.req.group for r in records], dtype=float)[s.cols["req"][m]]
    keys = s.cols["aux"][m]
    distinct = np.unique(np.stack([group, keys], axis=1), axis=0).shape[0]
    return distinct / int(m.sum())


def f_per_point(tracer, rid, points):
    """F evaluations per sample point in the latest request ``rid``."""
    if "construct.f" in tracer.missing:
        return None
    only = np.zeros(rid + 1, dtype=bool)
    only[rid] = True
    return _ratio(_Spans(tracer, only).calls(*F_SPANS), points)
