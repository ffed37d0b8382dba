"""Per-layer tracing for the benchmark, installed from outside pqh.

Every function in ``TABLE`` is replaced by a wrapper that counts calls and
accumulates self time (its span minus the spans of traced calls made inside
it).  Methods are patched on their class; module functions are patched on
every ``pqh.*`` module global that binds them, because modules import by name
(``from .subspace import maximal_pq``) and patching only the defining module
would miss the callers.  Wrappers sit outside ``lru_cache`` so the cache's
``cache_info()`` stays readable on the original object.

Spans live in memory (two dicts) and are written out once, by the caller.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# (layer, qualname, home workload).  The home workload is where the function
# must record calls; zero calls there means a wrapper was bypassed.
TABLE = (
    ("linalg", "Mat.rref", "classify-sweep"),
    ("linalg", "Mat.kernel", "classify-sweep"),
    ("linalg", "Mat.det", "decompose-graph"),
    ("linalg", "Mat.inverse", "classify-sweep"),
    ("linalg", "Mat.solve", "classify-sweep"),
    ("linalg", "Mat.__matmul__", "decompose-graph"),
    ("linalg", "Mat.charpoly", "decompose-graph"),
    ("linalg", "symmetric_signature", "classify-sweep"),
    ("polyq", "minimal_polynomial", "decompose-graph"),
    ("polyq", "poly_eval_matrix", "decompose-graph"),
    ("polyq", "factor", "decompose-graph"),
    ("subspace", "Subspace.span", "classify-sweep"),
    ("subspace", "Subspace.intersect", "classify-sweep"),
    ("subspace", "Subspace.sum", "classify-sweep"),
    ("subspace", "Subspace.complement_in", "classify-sweep"),
    ("subspace", "maximal_pq", "classify-sweep"),
    ("subspace", "h_fiber", "classify-sweep"),
    ("subspace", "signature", "classify-sweep"),
    ("subspace", "image", "classify-sweep"),
    ("model", "ModelSpace.hermitian_product", "classify-sweep"),
    ("model", "Operator.apply_coords", "classify-sweep"),
    ("uft", "find_transversal_direction", "classify-sweep"),
    ("uft", "to_uft", "classify-sweep"),
    ("uft", "injectivize", "decompose-graph"),
    ("uft", "invariant_core", "decompose-graph"),
    ("uft", "decomposable_spectrum", "decompose-graph"),
    ("uft", "decompose_form1", "decompose-graph"),
    ("uft", "decompose_form2", "decompose-graph"),
    ("classify", "classify", "classify-sweep"),
    ("classify", "stabilizer", "classify-sweep"),
    ("classify", "kind_witnesses", "classify-sweep"),
    ("classify", "is_para_quaternionic", "classify-sweep"),
    ("classify", "check_complex", "classify-sweep"),
    ("classify", "check_para_complex", "classify-sweep"),
    ("classify", "check_nilpotent", "classify-sweep"),
    ("classify", "check_totally_real", "classify-sweep"),
    ("classify", "is_real", "classify-sweep"),
    ("classify", "generic_decompose", "decompose-graph"),
    ("classify", "oracle_check", "classify-sweep"),
    ("instances", "parse_instance", "cli-classify"),
    ("instances", "report_to_dict", "classify-sweep"),
    ("instances", "canonical_json", "classify-sweep"),
    ("cli", "main", "cli-classify"),
    ("generate", "generate", "classify-sweep"),
)

NAMES = tuple(f"{layer}.{qual}" for layer, qual, _home in TABLE)
EXTRAS = (
    ("linalg.max_bits", "bit", "lower"),
    ("subspace.maximal_pq.hit_ratio", "1", "higher"),
    ("import.pqh_s", "s", "lower"),
    ("import.sympy_s", "s", "lower"),
    ("trace.traced_rps", "1/s", "higher"),
    ("trace.untraced_rps", "1/s", "higher"),
)


def per_layer_spec():
    """Every per-layer metric as (name, unit, better), in report order."""
    spec = []
    for name in NAMES:
        spec.append((f"{name}.calls", "count", "lower"))
        spec.append((f"{name}.self_s", "s", "lower"))
    return spec + list(EXTRAS)


def _max_bits(rref_result) -> int:
    best = 0
    for row in rref_result[0].rows:
        for x in row:
            best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
    return best


class Tracer:
    """Call counts and self times keyed by ``<layer>.<qualname>``."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.max_bits = 0
        self.missing = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        bits = name == "linalg.Mat.rref"

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - t0
                self_s[name] += span - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += span
            if bits:
                t1 = perf_counter()
                self.max_bits = max(self.max_bits, _max_bits(result))
                if stack:  # bookkeeping is nobody's self time
                    stack[-1] += perf_counter() - t1
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def prepare(self):
        """Find every binding of every traced function (pqh must be imported)."""
        modules = [m for key, m in list(sys.modules.items())
                   if (key == "pqh" or key.startswith("pqh.")) and m is not None]
        for layer, qual, _home in TABLE:
            module = sys.modules.get(f"pqh.{layer}")
            name = f"{layer}.{qual}"
            if "." in qual:
                cls_name, attr = qual.split(".")
                owner = getattr(module, cls_name, None)
                raw = owner.__dict__.get(attr) if owner is not None else None
                if raw is None:
                    self.missing.append(name)
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                # aliases such as ``__add__ = sum`` are the same object
                for key, val in list(owner.__dict__.items()):
                    if val is raw:
                        self._patches.append((owner, key, raw, new))
            else:
                raw = getattr(module, qual, None) if module is not None else None
                if raw is None:
                    self.missing.append(name)
                    continue
                new = self._wrap(name, raw)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is raw:
                            self._patches.append((m, key, raw, new))
        return self

    def install(self):
        for owner, key, _raw, new in self._patches:
            setattr(owner, key, new)

    def uninstall(self):
        for owner, key, raw, _new in reversed(self._patches):
            setattr(owner, key, raw)

    def reset(self):
        self.calls.clear()
        self.self_s.clear()
        self.max_bits = 0

    def snapshot(self):
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "max_bits": self.max_bits}

    def merge(self, snap):
        for name, v in snap["calls"].items():
            self.calls[name] += v
        for name, v in snap["self_s"].items():
            self.self_s[name] += v
        self.max_bits = max(self.max_bits, snap["max_bits"])


def maximal_pq_cache():
    """``(hits, misses)`` of the ``maximal_pq`` cache, or None without one."""
    fn = getattr(sys.modules.get("pqh.subspace"), "maximal_pq", None)
    fn = getattr(fn, "__wrapped__", fn) if not hasattr(fn, "cache_info") else fn
    info = getattr(fn, "cache_info", None)
    if info is None:
        return None
    ci = info()
    return ci.hits, ci.misses


def parse_importtime(stderr_text: str):
    """Split ``-X importtime`` output from the rest of a child's stderr.

    Returns ``(pqh_s, sympy_s, other_lines)``: the cumulative import time of
    the outermost ``pqh`` modules (those not imported by another ``pqh``
    module), that of ``sympy``, and every stderr line that is not an
    import-time line.
    """
    entries = []  # (depth, module, cumulative us), children before parents
    other = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            other.append(line)
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue  # the header line
        name = parts[2].rstrip()
        entries.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1])))
    pqh_us = sympy_us = 0
    enclosing = []  # (depth, is pqh) of the entries around the current one
    for depth, module, cumulative in reversed(entries):
        while enclosing and enclosing[-1][0] >= depth:
            enclosing.pop()
        is_pqh = module == "pqh" or module.startswith("pqh.")
        if is_pqh and not any(p for _d, p in enclosing):
            pqh_us += cumulative
        if module == "sympy":
            sympy_us += cumulative
        enclosing.append((depth, is_pqh))
    return pqh_us / 1e6, sympy_us / 1e6, other
