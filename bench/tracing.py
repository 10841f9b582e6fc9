"""Per-layer tracing for the benchmark, installed from outside the library.

`install` replaces the public entry points of each wondermodels layer with
timing wrappers.  A function is rebound everywhere it is reachable: in its
own module, in every module that did `from .x import y`, and inside
module-level dicts such as the CLI's series registry.  Methods are replaced
on their class.  A renamed entry point makes `install` raise, so a refactor
cannot silently turn a metric into 0.

Every wrapped call opens a frame on one stack.  A frame's self time is its
duration minus the time its child frames cover; self times are summed per
key, and summing every key of a layer gives that layer's self time.  Coarse
calls are also kept as spans (id, name, start, end, parent id, query id) in
memory, written out when the run ends.  Hot calls and generator resumptions
(`join`, the DFS veto, `nested_masks`, ...) only accumulate busy time and
counts, because one span per call would cost more than the call.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# (module, attribute, key, keep spans, workload that must reach it).
# The key's first component is the layer.  Each entry names the workload
# built to exercise it; a run of that workload fails if the entry point
# was never called.
ENTRY_POINTS = (
    ("series", "mul", "series.mul", True, "series-deep"),
    ("series", "exp", "series.exp", True, "series-deep"),
    ("series", "invert_one_minus", "series.invert_one_minus", True, "series-deep"),
    ("series", "subst_z_derivative", "series.subst_z_derivative", True, "series-deep"),
    ("series", "add", "series.add", False, "series-deep"),
    ("series", "scale", "series.scale", False, "series-deep"),
    ("series", "integrate_t", "series.integrate_t", False, "series-deep"),
    ("series", "truncated", "series.truncated", False, "series-deep"),
    ("series", "negate_t", "series.negate_t", False, "series-deep"),
    ("series", "eval_w", "series.eval_w", False, "series-deep"),
    ("series", "coeff", "series.coeff", False, "series-deep"),
    ("series", "assert_degree_bounds", "series.assert_degree_bounds", False, "series-deep"),
    ("series", "dump_json", "series.dump_json", True, "acceptance"),
    ("formulas", "psi_series", "formulas.build.psi_series", True, "series-deep"),
    ("formulas", "k_series", "formulas.build.k_series", True, "series-deep"),
    ("formulas", "gamma_series", "formulas.build.gamma_series", True, "series-deep"),
    ("formulas", "big_gamma", "formulas.build.big_gamma", True, "series-deep"),
    ("formulas", "cal_k", "formulas.build.cal_k", True, "series-deep"),
    ("formulas", "phi_full_monomial", "formulas.build.phi_full_monomial", True, "series-deep"),
    ("formulas", "phi_rr", "formulas.build.phi_rr", True, "series-deep"),
    ("formulas", "f_typeA", "formulas.build.f_typeA", True, "acceptance"),
    ("formulas", "x_typeA", "formulas.build.x_typeA", True, "series-deep"),
    ("formulas", "tilde_gamma", "formulas.build.tilde_gamma", True, "series-deep"),
    ("formulas", "tilde_big_gamma", "formulas.build.tilde_big_gamma", True, "series-deep"),
    ("formulas", "f_cy", "formulas.build.f_cy", True, "series-deep"),
    ("formulas", "euler_series_bd", "formulas.build.euler_series_bd", True, "series-deep"),
    ("formulas", "kirkman_cayley", "formulas.build.kirkman_cayley", False, "acceptance"),
    ("formulas", "poincare_from_psi", "formulas.readout.poincare_from_psi", True, "series-deep"),
    ("formulas", "poincare_from_phi", "formulas.readout.poincare_from_phi", True, "series-deep"),
    ("formulas", "fvector_from_fcy", "formulas.readout.fvector_from_fcy", True, "series-deep"),
    ("formulas", "fvector_typeA", "formulas.readout.fvector_typeA", True, "series-deep"),
    ("formulas", "euler_from_x", "formulas.readout.euler_from_x", True, "series-deep"),
    ("formulas", "euler_from_bd", "formulas.readout.euler_from_bd", True, "series-deep"),
    ("lattice", "building_set", "lattice.building_set", True, "enum-reach"),
    ("lattice", "_NestedUniverse.__init__", "lattice.universe", True, "enum-reach"),
    ("lattice", "_NestedUniverse.nested_masks", "lattice.nested_masks", False, "enum-reach"),
    ("lattice", "join", "lattice.join", False, "enum-reach"),
    ("lattice", "is_nested", "lattice.is_nested", False, "acceptance"),
    ("lattice", "is_nested_def", "lattice.is_nested_def", False, "acceptance"),
    ("lattice", "d_value", "lattice.d_value", False, "acceptance"),
    ("cohomology", "poincare_bruteforce", "cohomology.poincare_bruteforce", True, "enum-reach"),
    ("cohomology", "enumerate_admissible", "cohomology.enumerate_admissible", False, "acceptance"),
    ("cohomology", "AdmissibleFunction.__post_init__", "cohomology.admissible_fn", False, "acceptance"),
    ("cohomology", "encode_partition", "cohomology.codec.encode", False, "acceptance"),
    ("cohomology", "decode_partition", "cohomology.codec.decode", False, "acceptance"),
    ("polytopes", "dynkin_graph", "polytopes.dynkin_graph", True, "enum-reach"),
    ("polytopes", "enumerate_tubes", "polytopes.enumerate_tubes", True, "enum-reach"),
    ("polytopes", "fvector_tubings", "polytopes.fvector_tubings", True, "enum-reach"),
    ("polytopes", "count_plane_trees", "polytopes.plane_trees", True, "enum-reach"),
    ("polytopes", "euler_cw", "polytopes.euler_cw", True, "enum-reach"),
    ("cli", "main", "cli.main", True, "acceptance"),
    ("cli", "build_parser", "cli.build_parser", True, "acceptance"),
    ("cli", "run_poincare", "cli.run_poincare", True, "series-deep"),
    ("cli", "run_fvector", "cli.run_fvector", True, "series-deep"),
    ("cli", "run_euler", "cli.run_euler", True, "series-deep"),
    ("cli", "run_series_dump", "cli.run_series_dump", True, "acceptance"),
    ("cli", "run_selftest", "cli.run_selftest", True, "acceptance"),
    ("selftest", "run_checks", "selftest.run_checks", True, "acceptance"),
)

LAYERS = ("series", "formulas", "lattice", "cohomology", "polytopes", "cli", "selftest")

# generator functions: their time is the time spent inside each resumption
GENERATORS = {"cohomology.enumerate_admissible"}

# the key under which the benchmark times each query, outside the library
QUERY = "query"


class Tracer:
    """Frame stack, spans and counters of one traced pass."""

    def __init__(self):
        self.now = time.perf_counter
        self.stack: list[list] = []   # open frames: [start, child_s, span, parent, record]
        self.spans: list[tuple] = []  # (id, key, start, end, parent id, query id)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.query_id = None
        self.checks = []              # selftest CheckResults, in order
        self._groups_built = set()
        self._next_span = 0

    def enter(self, record: bool) -> list:
        parent = self.stack[-1][2] if self.stack else None
        if record:
            span, self._next_span = self._next_span, self._next_span + 1
        else:
            span = parent
        frame = [self.now(), 0.0, span, parent, record]
        self.stack.append(frame)
        return frame

    def leave(self, frame: list, key: str) -> None:
        end = self.now()
        self.stack.pop()
        start, child, span, parent, record = frame
        duration = end - start
        self.self_s[key] += duration - child
        self.calls[key] += 1
        if self.stack:
            self.stack[-1][1] += duration
        if record:
            self.spans.append((span, key, start, end, parent, self.query_id))

    def call(self, fn, key: str, record: bool, after=None):
        """fn wrapped in a frame; after(tracer, args, result) counts work."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.enter(record)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.leave(frame, key)
            if after is not None:
                after(tracer, args, out)
            return out
        return traced

    def iterate(self, gen, key: str, per_item=()):
        """Drive gen, one frame per resumption; bump each per_item counter per item."""
        while True:
            frame = self.enter(False)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self.leave(frame, key)
            for name in per_item:
                self.counts[name] += 1
            yield item

    def self_time(self, prefix: str) -> float:
        return sum(s for k, s in self.self_s.items()
                   if k == prefix or k.startswith(prefix + "."))

    def write_spans(self, path) -> None:
        fields = ("id", "name", "start", "end", "parent", "query")
        with open(path, "w") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")


def _count_mul(tracer, args, out):
    a, b = args
    tracer.counts["series.mul.pairs"] += len(a.terms) * len(b.terms)
    tracer.counts["series.mul.terms_out"] += len(out.terms)


def _count_building_set(tracer, args, out):
    # count |B| once per distinct group in the pass, however often it is rebuilt
    if args[0] not in tracer._groups_built:
        tracer._groups_built.add(args[0])
        tracer.counts["lattice.building_set.size"] += len(out)


def _count_universe(tracer, args, out):
    tracer.counts["lattice.universe.elems"] += len(args[0].elems)


def _count_join_cache(tracer, args, out):
    # the cohomology layer calls join only on a miss of its join cache
    tracer.counts["cohomology.join_cache.entries"] += 1


def _count_veto(tracer, args, out):
    if out:
        tracer.counts["cohomology.veto.cuts"] += 1


def _count_tubes(tracer, args, out):
    tracer.counts["polytopes.tubes"] += len(out)


def _count_tubings(tracer, args, out):
    tracer.counts["polytopes.tubings"] += sum(out)


def _keep_checks(tracer, args, out):
    tracer.checks.extend(out)


AFTER = {
    "series.mul": _count_mul,
    "lattice.building_set": _count_building_set,
    "lattice.universe": _count_universe,
    "polytopes.enumerate_tubes": _count_tubes,
    "polytopes.fvector_tubings": _count_tubings,
    "selftest.run_checks": _keep_checks,
}


def _rebind(modules, orig, new) -> None:
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, name, new)
            elif isinstance(value, dict):
                for k, v in value.items():
                    if v is orig:
                        value[k] = new


def _traced_nested_masks(tracer, orig):
    @functools.wraps(orig)
    def nested_masks(self, veto=None):
        per_item = ["lattice.nested_masks.visited"]
        if veto is not None:
            veto = tracer.call(veto, "cohomology.veto", False, _count_veto)
            per_item.append("cohomology.supports")
        return tracer.iterate(orig(self, veto), "lattice.nested_masks", per_item)
    return nested_masks


def _traced_generator(tracer, orig, key):
    @functools.wraps(orig)
    def generator(*args, **kwargs):
        return tracer.iterate(orig(*args, **kwargs), key)
    return generator


def install(tracer: Tracer, package: dict) -> None:
    """Wrap every ENTRY_POINTS entry; package maps module names to modules.

    There is no uninstall: a traced pass runs last in its process.
    """
    modules = list(package.values())
    for modname, attr, key, record, _ in ENTRY_POINTS:
        mod = package[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            if key == "lattice.nested_masks":
                new = _traced_nested_masks(tracer, orig)
            else:
                new = tracer.call(orig, key, record, AFTER.get(key))
            setattr(cls, meth, new)
            continue
        orig = getattr(mod, attr)
        if key in GENERATORS:
            new = _traced_generator(tracer, orig, key)
        else:
            new = tracer.call(orig, key, record, AFTER.get(key))
        _rebind(modules, orig, new)
        if key == "lattice.join":
            package["cohomology"].join = tracer.call(orig, key, record, _count_join_cache)


def reached(tracer: Tracer, workload: str) -> list[str]:
    """Entry points meant for workload that the traced pass never called."""
    return [key for _, _, key, _, home in ENTRY_POINTS
            if home == workload and not tracer.calls[key]]


def layer_metrics(t: Tracer, check_names, traced_wall: float,
                  untraced_wall: float) -> dict:
    """Per-layer metric values; check_names are the selftest checks."""
    c, n = t.counts, t.calls
    supports, cuts = c["cohomology.supports"], c["cohomology.veto.cuts"]
    attributed = sum(t.self_time(layer) for layer in LAYERS)
    m = {
        "series.mul.calls": n["series.mul"],
        "series.mul.pairs": c["series.mul.pairs"],
        "series.mul.terms_out": c["series.mul.terms_out"],
        "series.mul.self_s": t.self_time("series.mul"),
        "series.exp.calls": n["series.exp"],
        "series.exp.self_s": t.self_time("series.exp"),
        "series.invert_one_minus.self_s": t.self_time("series.invert_one_minus"),
        "series.subst_z_derivative.self_s": t.self_time("series.subst_z_derivative"),
        "series.self_s": t.self_time("series"),
        "formulas.self_s": t.self_time("formulas.build"),
        "formulas.readout.self_s": t.self_time("formulas.readout"),
        "lattice.building_set.self_s": t.self_time("lattice.building_set"),
        "lattice.building_set.size": c["lattice.building_set.size"],
        "lattice.universe.self_s": t.self_time("lattice.universe"),
        "lattice.universe.elems": c["lattice.universe.elems"],
        "lattice.nested_masks.visited": c["lattice.nested_masks.visited"],
        "lattice.nested_masks.self_s": t.self_time("lattice.nested_masks"),
        "lattice.join.calls": n["lattice.join"],
        "lattice.join.self_s": t.self_time("lattice.join"),
        "lattice.is_nested.calls": n["lattice.is_nested"],
        "lattice.is_nested.self_s": t.self_time("lattice.is_nested"),
        "lattice.is_nested_def.self_s": t.self_time("lattice.is_nested_def"),
        "lattice.self_s": t.self_time("lattice"),
        "cohomology.veto.calls": n["cohomology.veto"],
        "cohomology.veto.cuts": cuts,
        "cohomology.veto.self_s": t.self_time("cohomology.veto"),
        "cohomology.supports": supports,
        "cohomology.support_ratio": supports / (supports + cuts) if supports + cuts else 0.0,
        "cohomology.join_cache.entries": c["cohomology.join_cache.entries"],
        "cohomology.poincare_bruteforce.self_s": t.self_time("cohomology.poincare_bruteforce"),
        "cohomology.codec.self_s": t.self_time("cohomology.codec"),
        "cohomology.admissible_fn.calls": n["cohomology.admissible_fn"],
        "cohomology.self_s": t.self_time("cohomology"),
        "polytopes.tubes": c["polytopes.tubes"],
        "polytopes.tubings": c["polytopes.tubings"],
        "polytopes.fvector_tubings.self_s": t.self_time("polytopes.fvector_tubings"),
        "polytopes.plane_trees.self_s": t.self_time("polytopes.plane_trees"),
        "polytopes.euler_cw.self_s": t.self_time("polytopes.euler_cw"),
        "polytopes.self_s": t.self_time("polytopes"),
        "cli.self_s": t.self_time("cli"),
        "cli.out_bytes": c["cli.out_bytes"],
        "selftest.self_s": t.self_time("selftest"),
    }
    seconds = {check.name: check.seconds for check in t.checks}
    for name in check_names:
        m[f"selftest.{name}.s"] = seconds.get(name, 0.0)
    m["trace.wall_s"] = traced_wall
    m["trace.unattributed_s"] = traced_wall - attributed
    m["trace.overhead_s"] = traced_wall - untraced_wall
    m["trace.spans"] = len(t.spans)
    return m
