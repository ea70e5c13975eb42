"""Per-layer tracing of one chevlat process, installed from outside the package.

`Tracer.install()` wraps the public functions and methods of every chevlat
module (one module is one layer) in place, where callers look them up: as
module attributes, including names other modules imported with
`from .x import f`, and as class attributes for methods.  Each timed
wrapper records a span; a span's self time is its duration minus the time
its child spans cover, and a layer's self time is the sum over its spans.
Hot leaves are counted only, so that the wrappers stay cheap.

Spans are kept per model: `cli.suite_group` and `cli.suite_sandwich` set
the model label that the spans under them are booked to.  A named target
that the package no longer has is reported as missing and its metrics
read 0; it does not stop the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("rootsys", "relroots", "rings", "models", "table", "calculus", "lattice", "cli")

# Leaves called hundreds of thousands of times per run: counted, not timed.
# Their time is booked to the span that called them.
COUNT_ONLY = {
    "rings.det_int",
    "rings.mat_mul",
    "rings.identity_mat",
    "models.GroupModel.is_element",
    "models.GroupModel.is_rel_root",
    "models.GroupModel.identity",
    "models.GroupModel.block_range",
    "models.GroupModel.v_dim",
    "relroots.RelativeRootSystem.fiber",
    "relroots.RelativeRootSystem.project",
    "rootsys.perm_on_root",
    "rootsys.is_positive",
    "table.ElementTable.mat",
}

# Dunder methods are skipped by the generic walk; these are traced anyway.
EXTRA_SPANS = ("table.ElementTable.__init__",)

# Named metrics: prefix -> spans.  `<prefix>_calls` counts every call of the
# spans, `<prefix>_s` is the time inside the outermost of them.
NAMED = {
    "table.build": ("table.ElementTable.__init__",),
    "table.lookup": ("table.ElementTable.lookup_keys",),
    "table.conj_perm": ("table.ElementTable.conj_perm",),
    "lattice.normal_closure": ("lattice.normal_closure",),
    "lattice.subgroup_closure": ("lattice.subgroup_closure",),
    "lattice.closure": ("lattice.normal_closure", "lattice.subgroup_closure"),
    "lattice.orbits": ("lattice.GroupContext.orbits",),
    "lattice.orbit_closures": ("lattice.GroupContext.orbit_closure",),
    "lattice.bounds": ("lattice.GroupContext.relative_elementary",
                       "lattice.GroupContext.full_congruence"),
    "lattice.classify": ("lattice.sandwich_classify",),
    "lattice.join": ("lattice.join_compatibility",),
    "lattice.commutator_formula": ("lattice.verify_commutator_formula",),
    "lattice.structure": ("lattice.verify_structure_theorems",),
    "lattice.level": ("lattice.verify_level_theorem",),
    "lattice.unipotent": ("lattice.verify_unipotent_extraction",),
    "lattice.parabolic_independence": ("lattice.verify_parabolic_independence",),
    "lattice.centralizer_lemmas": ("lattice.verify_u_cent_field",
                                   "lattice.verify_centralizer_beta",
                                   "lattice.verify_small_levi_b",
                                   "lattice.verify_centralizer_lemmas"),
    "lattice.simplicity": ("lattice.simplicity_check",),
    "lattice.gauss_brute": ("lattice.gauss_brute_force_agrees",),
    "lattice.generating_set": ("lattice.generating_set",),
    "lattice.get_context": ("lattice.get_context",),
    "calculus.commutator": ("calculus.commutator",),
    "calculus.homogeneity": ("calculus.check_chevalley_homogeneity",),
    "calculus.identity": ("calculus.commutator_identity_check",),
    "calculus.sum_formula": ("calculus.sum_formula_decompose",),
    "calculus.levi": ("calculus.levi_conjugation_decompose",),
    "calculus.abe": ("calculus.lemma_ABe_witness",),
    "calculus.const": ("calculus.lemma_const_check",),
    "models.inverse": ("models.GroupModel.inverse",),
    "models.gauss_cell": ("models.gauss_cell_membership",),
    "models.is_element": ("models.GroupModel.is_element",),
    "rings.adjugate_int": ("rings.adjugate_int",),
    "rings.det_int": ("rings.det_int",),
    "rootsys.pairing": ("rootsys.RootSystem.pairing",),
    "rootsys.build": ("rootsys.build_root_system",),
    "rootsys.automorphisms": ("rootsys.diagram_automorphisms",),
    "relroots.check_datum": ("relroots.check_datum",),
    "relroots.sigma_set": ("relroots.sigma_set",),
    "relroots.build_relative": ("relroots.build_relative",),
    "relroots.fold": ("relroots.fold",),
    "cli.suite_roots": ("cli.suite_roots",),
    "cli.suite_relroots": ("cli.suite_relroots",),
    "cli.suite_group": ("cli.suite_group",),
    "cli.suite_sandwich": ("cli.suite_sandwich",),
}

# Per-layer metrics, in report order, with their units.
PER_LAYER = {
    "table.build_s": "s",
    "table.elements": "count",
    "table.lookup_calls": "count",
    "table.lookup_keys": "count",
    "table.lookup_s": "s",
    "table.conj_perm_calls": "count",
    "table.conj_perm_s": "s",
    "table.mats_bytes": "bytes",
    "lattice.normal_closure_calls": "count",
    "lattice.normal_closure_s": "s",
    "lattice.subgroup_closure_calls": "count",
    "lattice.subgroup_closure_s": "s",
    "lattice.products": "count",
    "lattice.products_per_s": "1/s",
    "lattice.closure_reuse": "ratio",
    "lattice.orbits_s": "s",
    "lattice.orbit_closures_s": "s",
    "lattice.bounds_s": "s",
    "lattice.classify_s": "s",
    "lattice.join_s": "s",
    "lattice.commutator_formula_s": "s",
    "lattice.structure_s": "s",
    "lattice.level_s": "s",
    "lattice.unipotent_s": "s",
    "lattice.parabolic_independence_s": "s",
    "lattice.centralizer_lemmas_s": "s",
    "lattice.simplicity_s": "s",
    "lattice.gauss_brute_s": "s",
    "lattice.generating_set_calls": "count",
    "lattice.generating_set_s": "s",
    "calculus.commutator_calls": "count",
    "calculus.commutator_s": "s",
    "calculus.homogeneity_s": "s",
    "calculus.identity_s": "s",
    "calculus.sum_formula_s": "s",
    "calculus.levi_s": "s",
    "calculus.abe_s": "s",
    "calculus.const_s": "s",
    "models.inverse_calls": "count",
    "models.inverse_s": "s",
    "models.inverse_us": "us",
    "models.gauss_cell_s": "s",
    "models.is_element_calls": "count",
    "rings.adjugate_int_calls": "count",
    "rings.adjugate_int_s": "s",
    "rings.det_int_calls": "count",
    "rootsys.pairing_calls": "count",
    "rootsys.pairing_s": "s",
    "rootsys.build_s": "s",
    "rootsys.automorphisms_s": "s",
    "relroots.data": "count",
    "relroots.check_datum_s": "s",
    "relroots.sigma_set_s": "s",
    "relroots.build_relative_s": "s",
    "relroots.fold_s": "s",
    "cli.suite_roots_s": "s",
    "cli.suite_relroots_s": "s",
    "cli.suite_group_s": "s",
    "cli.suite_sandwich_s": "s",
    **{f"self.{layer}_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
}

# Named metrics that must be nonzero on a workload; a failure means the
# tracer no longer sees the code path the workload is meant to exercise.
MUST_FIRE = {
    "group_roots": ("rootsys.pairing", "rootsys.build", "relroots.check_datum",
                    "relroots.fold", "cli.suite_roots", "cli.suite_relroots",
                    "calculus.commutator", "calculus.identity", "calculus.homogeneity",
                    "models.inverse", "models.gauss_cell", "rings.adjugate_int",
                    "rings.det_int", "table.build", "lattice.subgroup_closure",
                    "cli.suite_group"),
    "sandwich": ("lattice.normal_closure", "lattice.orbits", "lattice.orbit_closures",
                 "lattice.bounds", "lattice.classify", "lattice.join",
                 "lattice.structure", "table.build", "table.lookup",
                 "table.conj_perm", "cli.suite_sandwich"),
}

class _Stats:
    """Counters of one model label."""

    def __init__(self):
        self.calls = Counter()  # span -> calls
        self.self_s = defaultdict(float)  # span -> self seconds
        self.layer_self_s = defaultdict(float)  # layer -> self seconds
        self.group_s = defaultdict(float)  # named prefix -> outermost seconds
        self.extra = Counter()  # elements, mats_bytes, lookup_keys, products
        self.closure_results: set = set()

    def merge(self, other: "_Stats") -> None:
        self.calls.update(other.calls)
        for mine, theirs in ((self.self_s, other.self_s),
                             (self.layer_self_s, other.layer_self_s),
                             (self.group_s, other.group_s)):
            for k, v in theirs.items():
                mine[k] += v
        self.extra.update(other.extra)
        self.closure_results |= other.closure_results


class Tracer:
    def __init__(self):
        self.by_model: dict[str, _Stats] = defaultdict(_Stats)
        self.model = ""
        self.cur = self.by_model[self.model]
        self.stack: list[list[float]] = []  # per open span: [child seconds]
        self.depth = Counter()  # open calls per named prefix
        self.groups_of: dict[str, tuple[str, ...]] = defaultdict(tuple)
        for prefix, spans in NAMED.items():
            for span in spans:
                self.groups_of[span] += (prefix,)
        self.installed: set[str] = set()
        self.hook_errors: dict[str, str] = {}
        self.touched_groups: dict[tuple, int] = {}  # group -> order formula
        self._order_formula = None

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        mods = {}
        for layer in LAYERS:
            try:
                mods[layer] = importlib.import_module(f"chevlat.{layer}")
            except ImportError:
                continue
        self._order_formula = getattr(mods.get("models"), "order_formula", None)
        replacements = {}  # id(original) -> (original, wrapper), for module attributes
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    for attr, val in list(vars(obj).items()):
                        span = f"{layer}.{name}.{attr}"
                        if inspect.isfunction(val) and (
                                not attr.startswith("_") or span in EXTRA_SPANS):
                            setattr(obj, attr, self._wrap(span, layer, val))
                elif callable(obj):
                    replacements[id(obj)] = (obj, self._wrap(f"{layer}.{name}", layer, obj))
        # rebind every module-level reference, including `from .x import f`
        import chevlat
        for mod in [chevlat, *mods.values()]:
            for name, obj in list(vars(mod).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])

    def missing(self) -> list[str]:
        wanted = {span for spans in NAMED.values() for span in spans}
        return sorted(wanted - self.installed)

    def _wrap(self, span: str, layer: str, fn):
        self.installed.add(span)
        if span in COUNT_ONLY:
            tracer = self

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.cur.calls[span] += 1
                return fn(*args, **kwargs)

            return counted

        groups = self.groups_of[span]
        hooks = _HOOKS.get(span)
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            saved_model = tracer.model
            if hooks is not None and hooks[0] is not None:
                tracer._hook(span, hooks[0], args, None)
            depth = tracer.depth
            for g in groups:
                depth[g] += 1
            frame = [0.0]
            tracer.stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer.stack.pop()
                st = tracer.cur
                st.calls[span] += 1
                own = dt - frame[0]
                st.self_s[span] += own
                st.layer_self_s[layer] += own
                if tracer.stack:
                    tracer.stack[-1][0] += dt
                for g in groups:
                    depth[g] -= 1
                    if not depth[g]:
                        st.group_s[g] += dt
                if tracer.model != saved_model:
                    tracer.model = saved_model
                    tracer.cur = tracer.by_model[saved_model]
            if hooks is not None and hooks[1] is not None:
                tracer._hook(span, hooks[1], args, result)
            return result

        return timed

    def _hook(self, span, fn, args, result) -> None:
        try:
            fn(self, args, result)
        except (AttributeError, TypeError, ValueError, IndexError, KeyError) as exc:
            self.hook_errors.setdefault(span, f"{type(exc).__name__}: {exc}")

    # -- results ---------------------------------------------------------------

    def totals(self) -> _Stats:
        total = _Stats()
        for st in self.by_model.values():
            total.merge(st)
        return total

    def expected_elements(self) -> int:
        return sum(self.touched_groups.values())


# -- hooks: (before, after), each called as fn(tracer, args, result) ----------

def _suite_enter(tr: Tracer, args, _result) -> None:
    spec = next((a for a in args if hasattr(a, "modulus")), None)
    if spec is None:
        return
    blocks = spec.blocks if isinstance(spec.blocks, str) else ",".join(map(str, spec.blocks))
    tr.model = f"{spec.kind}{spec.degree}(Z/{spec.modulus})[{blocks}]"
    tr.cur = tr.by_model[tr.model]


def _table_built(tr: Tracer, args, _result) -> None:
    table = args[0]
    tr.cur.extra["elements"] += int(table.N)
    tr.cur.extra["mats_bytes"] += int(table.mats.nbytes)


def _lookup(tr: Tracer, args, _result) -> None:
    n = int(args[1].size)
    tr.cur.extra["lookup_keys"] += n
    if tr.depth["lattice.closure"]:
        tr.cur.extra["products"] += n


def _closure_done(tr: Tracer, args, result) -> None:
    tr.cur.closure_results.add((int(args[0].N), hash(result.member.tobytes())))


def _context(tr: Tracer, args, _result) -> None:
    model = args[0]
    key = (model.kind, model.degree, model.m)
    if key not in tr.touched_groups:
        tr.touched_groups[key] = int(tr._order_formula(model))


_HOOKS = {
    "cli.suite_group": (_suite_enter, None),
    "cli.suite_sandwich": (_suite_enter, None),
    "table.ElementTable.__init__": (None, _table_built),
    "table.ElementTable.lookup_keys": (_lookup, None),
    "lattice.normal_closure": (None, _closure_done),
    "lattice.get_context": (_context, None),
}


def layer_metrics(st: _Stats, wall_s: float) -> dict[str, float]:
    """The PER_LAYER metrics of one model label, or of the totals."""
    calls = {p: sum(st.calls[s] for s in spans) for p, spans in NAMED.items()}
    out = {}
    for name in PER_LAYER:
        prefix, _, kind = name.rpartition("_")
        if kind == "s" and prefix in NAMED:
            out[name] = st.group_s[prefix]
        elif kind == "calls" and prefix in NAMED:
            out[name] = calls[prefix]
    closure_s = st.group_s["lattice.closure"]
    nc_calls = calls["lattice.normal_closure"]
    inv_calls = calls["models.inverse"]
    out.update({
        "table.elements": st.extra["elements"],
        "table.lookup_keys": st.extra["lookup_keys"],
        "table.mats_bytes": st.extra["mats_bytes"],
        "lattice.products": st.extra["products"],
        "lattice.products_per_s": st.extra["products"] / closure_s if closure_s else 0.0,
        "lattice.closure_reuse": len(st.closure_results) / nc_calls if nc_calls else 0.0,
        "models.inverse_us": 1e6 * st.group_s["models.inverse"] / inv_calls if inv_calls else 0.0,
        "relroots.data": calls["relroots.check_datum"],
        "trace.wall_s": wall_s,
    })
    for layer in LAYERS:
        out[f"self.{layer}_s"] = st.layer_self_s[layer]
    return {name: out[name] for name in PER_LAYER}


def fire_failures(tr: Tracer, workload: str) -> list[str]:
    """Named targets that exist but did not run on the workload meant for them."""
    total = tr.totals()
    missing = set(tr.missing())
    failures = []
    for prefix in MUST_FIRE.get(workload, ()):
        spans = NAMED[prefix]
        if any(s in missing for s in spans):
            continue
        if not sum(total.calls[s] for s in spans):
            failures.append(prefix)
    return failures


def top_spans(tr: Tracer, k: int = 12) -> list[tuple[str, str, float, int]]:
    """(model, span, self seconds, calls), largest self time first."""
    rows = [(model or "-", span, s, st.calls[span])
            for model, st in tr.by_model.items() for span, s in st.self_s.items()]
    rows.sort(key=lambda r: -r[2])
    return rows[:k]
