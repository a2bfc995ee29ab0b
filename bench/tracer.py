"""Span tracing for the benchmark's traced run.

`install` wraps every public function and method of the loaded lgtlab
modules at each of its binding sites and records one span per call:
(name, start, end, parent).  Spans stay in memory until the child writes
them out.  `layer_metrics` turns one child's spans and counters into the
per-layer metrics; it needs only the standard library and runs in the
benchmark parent.
"""

import functools
import inspect
import time

PACKAGE = "lgtlab"


class Tracer:
    def __init__(self):
        self.spans = []         # [name, start, end, parent index or -1]
        self.counters = {}
        self._stack = []

    def wrap(self, name, fn, probe=None):
        """Return `fn` wrapped to record a span named `name` per call.

        `probe(counters, args, kwargs, result)` runs after a successful call
        and records counts at the same boundary.
        """
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if probe is not None:
                probe(counters, args, kwargs, result)
            return result

        return traced

    def self_times(self):
        """Each span's duration minus the durations of its direct children.

        Calls are single-threaded and nested, so children never overlap.
        """
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def dump(self):
        spans = [span + [own] for span, own in zip(self.spans,
                                                   self.self_times())]
        return {"spans": spans, "counters": self.counters}


# ---------------------------------------------------------------------------
# counters recorded at layer boundaries (run inside the child)
# ---------------------------------------------------------------------------

def _add(counters, key, value):
    counters[key] = counters.get(key, 0) + value


def _sector_probe(counters, args, kwargs, sector):
    space = args[0] if args else kwargs["space"]
    _add(counters, "gauge.states_scanned", space.dim)
    _add(counters, "gauge.states_kept", sector.dim)


def _hamiltonian_probe(counters, args, kwargs, h):
    # the largest operator assembled in the run (by stored entries)
    if h.nnz < counters.get("hamiltonian.nnz", -1):
        return
    dim = h.shape[0]
    counters["hamiltonian.nnz"] = h.nnz
    counters["hamiltonian.dim"] = dim
    counters["hamiltonian.csr_bytes"] = (
        h.nnz * (h.data.itemsize + h.indices.itemsize)
        + (dim + 1) * h.indptr.itemsize)


def _eigs_probe(counters, args, kwargs, result):
    from scipy import sparse
    from lgtlab import solver
    op = args[0] if args else kwargs["op"]
    dim = op.shape[0]
    # the dense/Lanczos rule documented in solver.eigs
    dense = not sparse.issparse(op) or dim <= solver.DENSE_LIMIT
    _add(counters, "solver.eigs_dense_calls", int(dense))
    _add(counters, "solver.eigs_lanczos_calls", int(not dense))
    counters["solver.eigs_max_dim"] = max(
        counters.get("solver.eigs_max_dim", 0), dim)


def _evolve_probe(counters, args, kwargs, result):
    op = args[0] if args else kwargs["op"]
    counters["solver.evolve_dim"] = max(
        counters.get("solver.evolve_dim", 0), op.shape[0])


PROBES = {
    "gauge.sector_basis": _sector_probe,
    "hamiltonian.Model.hamiltonian": _hamiltonian_probe,
    "solver.eigs": _eigs_probe,
    "solver.evolve": _evolve_probe,
}


# ---------------------------------------------------------------------------
# installing the wrappers (run inside the child)
# ---------------------------------------------------------------------------

def _public(fn):
    return (inspect.isfunction(fn) and fn.__name__.isidentifier()
            and not fn.__name__.startswith("_")
            and fn.__module__.startswith(PACKAGE + "."))


def _span_name(fn):
    return fn.__module__.split(".", 1)[1] + "." + fn.__qualname__


def install(tracer, modules):
    """Trace every public lgtlab function and method.

    Functions are rebound at every binding site a module holds: their own
    name, `from ... import` aliases, and values of module-level dicts such
    as cli.RUNNERS.  Public methods of lgtlab classes are replaced on the
    class.  Properties are left alone.
    """
    wrappers = {}
    for mod in modules:
        for obj in list(vars(mod).values()):
            if _public(obj) and obj not in wrappers:
                name = _span_name(obj)
                wrappers[obj] = tracer.wrap(name, obj, PROBES.get(name))
            elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                  and not obj.__name__.startswith("_")):
                _wrap_methods(tracer, obj)
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if inspect.isfunction(value) and value in wrappers:
                        obj[key] = wrappers[value]


def _wrap_methods(tracer, cls):
    for attr, raw in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        if isinstance(raw, (staticmethod, classmethod)):
            fn = raw.__func__
            name = _span_name(fn)
            setattr(cls, attr, type(raw)(tracer.wrap(name, fn,
                                                     PROBES.get(name))))
        elif inspect.isfunction(raw):
            name = _span_name(raw)
            setattr(cls, attr, tracer.wrap(name, raw, PROBES.get(name)))


# ---------------------------------------------------------------------------
# per-layer metrics from one child's spans (run in the parent)
# ---------------------------------------------------------------------------

MODULES = ("lattice", "linkalg", "su2rep", "matter", "tensor", "gauge",
           "hamiltonian", "solver", "observables", "atommap", "cli")

# metric prefix -> span names whose calls and busy time it reports
CALL_GROUPS = {
    "tensor.link_op": ("tensor.ProductSpace.link_op",),
    "tensor.matter_op": ("tensor.ProductSpace.matter_op",),
    "tensor.link_ops_product": ("tensor.ProductSpace.link_ops_product",),
    "matter.charge_operator": ("matter.charge_operator",),
    "matter.fermion_ops": ("matter.fermion_ops",),
    "gauge.sector_basis": ("gauge.sector_basis",),
    "gauge.charge_table": ("gauge.abelian_charge_table",),
    "gauge.generators": ("gauge.gauss_generators_u1",
                         "gauge.gauss_generators_zn",
                         "gauge.gauss_generators_su2"),
    "hamiltonian.build_model": ("hamiltonian.build_model",),
    "hamiltonian.assemble": ("hamiltonian.Model.hamiltonian",),
    "hamiltonian.gauss_check": ("hamiltonian.max_gauss_violation",),
    "solver.restrict": ("solver.restrict",),
    "solver.eigs": ("solver.eigs",),
    "solver.evolve": ("solver.evolve",),
    "observables.profile": ("observables.flux_profile",
                            "observables.charge_profile"),
    "cli.write": ("cli.Writer.csv", "cli.Writer.manifest"),
}

# counters a probe records, with their units and preferred direction
COUNTERS = (
    ("gauge.states_scanned", "states", "lower"),
    ("gauge.states_kept", "states", "higher"),
    ("hamiltonian.dim", "states", "lower"),
    ("hamiltonian.nnz", "count", "lower"),
    ("hamiltonian.csr_bytes", "B_computed", "lower"),
    ("solver.eigs_dense_calls", "count", "lower"),
    ("solver.eigs_lanczos_calls", "count", "lower"),
    ("solver.eigs_max_dim", "states", "lower"),
    ("solver.evolve_dim", "states", "lower"),
)


def layer_metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for prefix in CALL_GROUPS:
        specs.append((prefix + "_calls", "count", "lower"))
        specs.append((prefix + "_s", "s", "lower"))
    for mod in MODULES:
        specs.append((mod + ".s", "s", "lower"))
        specs.append((mod + ".self_s", "s", "lower"))
    specs.extend(COUNTERS)
    specs.append(("gauge.sector_yield", "ratio", "higher"))
    specs.append(("cli.bytes_out", "B", "lower"))
    specs.append(("cli.threads", "count", "lower"))
    specs.append(("trace.overhead_s", "s", "lower"))
    return specs


def _busy(spans, member):
    """Calls of a group and the time any of its spans is open.

    A span nested inside another span of the same group is counted as a
    call but adds no busy time.  Parents precede their children in `spans`.
    """
    inside = [False] * len(spans)
    calls = 0
    busy = 0.0
    for i, (name, start, end, parent, _own) in enumerate(spans):
        nested = parent >= 0 and inside[parent]
        if member(name):
            calls += 1
            if not nested:
                busy += end - start
            inside[i] = True
        else:
            inside[i] = nested
    return calls, busy


def layer_metrics(trace):
    """Per-layer metrics of one traced child, from its dumped spans."""
    spans = trace["spans"]
    out = {}
    for prefix, names in CALL_GROUPS.items():
        names = frozenset(names)
        calls, busy = _busy(spans, names.__contains__)
        out[prefix + "_calls"] = calls
        out[prefix + "_s"] = busy
    for mod in MODULES:
        head = mod + "."
        _, busy = _busy(spans, lambda name: name.startswith(head))
        out[mod + ".s"] = busy
        out[mod + ".self_s"] = sum(span[4] for span in spans
                                   if span[0].startswith(head))
    counters = trace["counters"]
    for name, _unit, _better in COUNTERS:
        out[name] = counters.get(name, 0)
    scanned = out["gauge.states_scanned"]
    out["gauge.sector_yield"] = (out["gauge.states_kept"] / scanned
                                 if scanned else 0.0)
    return out
