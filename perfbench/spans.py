"""Per-layer spans and counters for an in-process, traced run of hondafgl.

The package itself is not changed.  `Tracer.install` replaces each public
function at the binding its caller looks up: a module attribute, or a method
on the class.  A function imported with `from ... import` is looked up
through the importing module, so it is wrapped there too; otherwise those
calls would go unseen.  `Tracer.uninstall` puts every original back.

A span's inclusive time (`<span>.s`) is counted once per outermost call of
that span; its self time (`<span>.self_s`) is the inclusive time minus the
time covered by its child spans.  Every `ring.mul` term pair (len * len) is
also charged to the nearest enclosing span outside the ring layer, as
`<owner>.mul_pairs`, and every `ring.substitute` call as
`<owner>.substitutions`.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (object path under hondafgl, attribute, span name)
SPANS = (
    ("cli", "main", "cli.main"),
    ("engine", "build_tower", "engine.build_tower"),
    ("engine", "extend", "engine.extend"),
    ("engine", "p_series", "engine.p_series"),
    ("engine", "coefficient_table", "engine.tables"),
    ("engine", "verify_degree_bound", "engine.tables"),
    ("engine", "vs_regrade", "engine.tables"),
    ("engine", "witt_family", "witt.family"),
    ("engine", "witt_mod_p", "witt.mod_p"),
    ("witt", "witt_family", "witt.family"),
    ("witt", "witt_mod_p", "witt.mod_p"),
    ("witt.WittFamily", "verify", "witt.verify"),
    ("oracle", "oracle_fgl", "oracle.fgl"),
    ("oracle", "revert_series", "oracle.revert"),
    ("oracle", "compare", "oracle.compare"),
    ("oracle", "check_associativity", "oracle.assoc"),
    ("oracle", "oracle_p_series", "oracle.pseries"),
    ("chern", "relation_set", "chern.relations"),
    ("chern", "build_tower", "engine.build_tower"),
    ("chern", "p_series", "engine.p_series"),
    ("chern", "elementary_symmetric_all", "ring.esym"),
    ("ring", "elementary_symmetric_all", "ring.esym"),
    ("ring.SparsePoly", "mul", "ring.mul"),
    ("ring.SparsePoly", "pow", "ring.pow"),
    ("ring.SparsePoly", "substitute", "ring.substitute"),
    ("ring.SparsePoly", "map_domain", "ring.map_domain"),
    ("ring.SparsePoly", "to_text", "ring.serialize"),
    ("ring.SparsePoly", "to_json_dict", "ring.serialize"),
)

# Counters that are not `<span>.calls`, `.s`, `.self_s`; all start at 0 so
# that a workload which never reaches a layer reports 0, not a missing name.
COUNTERS = (
    "ring.mul.term_pairs",
    "ring.mul.out_terms",
    "ring.poly_new.calls",
    "ring.poly_new.terms",
    "cli.errors",
    "cli.out_bytes",
    "engine.top_terms",
    "engine.p_series.substitutions",
    "oracle.compare.monomials",
    "chern.relations.terms",
    "chern.guard_projected",
) + tuple(f"engine.extend.level{n}_s" for n in range(2, 7)) + tuple(
    f"{owner}.mul_pairs"
    for owner in (
        "witt.family",
        "witt.verify",
        "engine.extend",
        "engine.p_series",
        "oracle.revert",
        "oracle.fgl",
        "oracle.assoc",
        "oracle.pseries",
        "chern.relations",
    )
)


def resolve(path: str):
    """The module or class `hondafgl.<path>`, e.g. 'ring.SparsePoly'."""
    module, _, cls = path.partition(".")
    obj = importlib.import_module(f"hondafgl.{module}")
    return getattr(obj, cls) if cls else obj


def bindings() -> dict[tuple[str, str], object]:
    """The object currently bound at every place the tracer patches."""
    out = {(path, attr): vars(resolve(path))[attr] for path, attr, _ in SPANS}
    out[("ring.SparsePoly", "__init__")] = vars(resolve("ring.SparsePoly"))["__init__"]
    return out


class Tracer:
    """Spans and counters of one traced pass; install, run, uninstall."""

    def __init__(self):
        self.stats: defaultdict[str, float] = defaultdict(float)
        for _, _, span in SPANS:
            for suffix in ("calls", "s", "self_s"):
                self.stats[f"{span}.{suffix}"] = 0
        for name in COUNTERS:
            self.stats[name] = 0
        # guard inputs seen by the current job: y_cap, m*|P_n|, p^jmax
        self.guard: dict[str, int] = {}
        self._stack: list[list] = []  # [span, start, child time]
        self._depth: defaultdict[str, int] = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []
        self._last_top_terms = 0

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for path, attr, span in SPANS:
            owner = resolve(path)
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(span, original))
        cls = resolve("ring.SparsePoly")
        init = vars(cls)["__init__"]
        self._saved.append((cls, "__init__", init))
        stats = self.stats

        def poly_new(self_, variables, domain, terms=None):
            stats["ring.poly_new.calls"] += 1
            if terms:
                stats["ring.poly_new.terms"] += len(terms)
            init(self_, variables, domain, terms)

        cls.__init__ = poly_new

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _owner(self) -> str:
        for frame in reversed(self._stack):
            if not frame[0].startswith("ring."):
                return frame[0]
        return "none"

    def _wrap(self, span: str, fn):
        stats, stack, depth = self.stats, self._stack, self._depth
        before = getattr(self, "_before_" + span.replace(".", "_"), None)
        after = getattr(self, "_after_" + span.replace(".", "_"), None)
        calls, incl, self_s = f"{span}.calls", f"{span}.s", f"{span}.self_s"

        def wrapper(*args, **kwargs):
            if before:
                before(*args)
            frame = [span, time.perf_counter(), 0.0]
            stack.append(frame)
            depth[span] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - frame[1]
                stack.pop()
                depth[span] -= 1
                if stack:
                    stack[-1][2] += elapsed
                stats[calls] += 1
                stats[self_s] += elapsed - frame[2]
                if not depth[span]:
                    stats[incl] += elapsed
            if after:
                after(args, result, elapsed)
            return result

        return wrapper

    # ---- counters taken at span boundaries ------------------------------

    def _before_ring_mul(self, a, b, *_):
        pairs = len(a.terms) * len(b.terms)
        self.stats["ring.mul.term_pairs"] += pairs
        self.stats[f"{self._owner()}.mul_pairs"] += pairs

    def _after_ring_mul(self, args, result, elapsed):
        self.stats["ring.mul.out_terms"] += len(result.terms)

    def _before_ring_substitute(self, *_):
        self.stats[f"{self._owner()}.substitutions"] += 1

    def _after_cli_main(self, args, status, elapsed):
        if status:
            self.stats["cli.errors"] += 1

    def _after_engine_extend(self, args, result, elapsed):
        self.stats[f"engine.extend.level{result.level}_s"] += elapsed
        self.guard["y_cap"] = max(self.guard.get("y_cap", 0), result.y_cap)

    def _after_engine_build_tower(self, args, tower, elapsed):
        self._last_top_terms = len(tower[-1].poly.terms)
        self.stats["engine.top_terms"] += self._last_top_terms

    def _before_witt_family(self, p, jmax, *_):
        self.guard["p^jmax"] = max(self.guard.get("p^jmax", 0), p**jmax)

    def _after_chern_relations(self, args, rels, elapsed):
        projected = rels.m * self._last_top_terms
        self.guard["m*|P_n|"] = projected
        self.stats["chern.guard_projected"] += projected
        self.stats["chern.relations.terms"] += sum(len(r.terms) for r in rels.relations)

    def _after_oracle_compare(self, args, report, elapsed):
        fgl, orc = args
        keys = set(fgl.poly.terms) | set(orc.poly_mod_p.terms)
        self.stats["oracle.compare.monomials"] += sum(
            1 for i, j in keys if i + j < orc.degree and j < fgl.y_cap
        )
