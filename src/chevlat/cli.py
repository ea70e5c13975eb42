"""Batch verification front end.

Subcommands select a suite (roots, relroots, group, sandwich, all); the run
produces a single JSON report with a stable key order, so re-running an
identical configuration reproduces the report byte for byte apart from the
timing block.  Exit codes: 0 all asserted checks passed, 1 a theorem-level
check failed (a counterexample), 2 configuration or size error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import random
import sys
import time
from dataclasses import dataclass, field

from . import calculus, lattice, models, relroots, rootsys
from .errors import ConfigError, SizeCapError, TheoremViolation
from .models import GroupModel, hypothesis_check
from .rings import ZmRing
from .table import DEFAULT_CAP

RNG_SEED = 0x5EED

SUITES = ("roots", "relroots", "group", "sandwich", "all")

STANDARD_TYPES = (
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5),
    ("B", 2), ("B", 3), ("B", 4), ("B", 5),
    ("C", 2), ("C", 3), ("C", 4), ("C", 5),
    ("D", 3), ("D", 4), ("D", 5),
    ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2),
)


@dataclass
class ModelSpec:
    kind: str
    degree: int
    modulus: int
    blocks: tuple | str
    expect_violation: bool = False

    def build(self) -> GroupModel:
        return GroupModel(self.kind, self.degree, ZmRing(self.modulus), self.blocks)


@dataclass
class RunConfig:
    suite: str
    models: list[ModelSpec] = field(default_factory=list)
    cap: int = DEFAULT_CAP
    jobs: int = 1  # accepted and echoed; closures run in one thread
    out: str | None = None

    def validate(self):
        if self.suite not in SUITES:
            raise ConfigError(f"unknown suite {self.suite!r}; valid: {', '.join(SUITES)}")
        if self.cap < 1:
            raise ConfigError("cap must be positive")
        if self.jobs < 1:
            raise ConfigError("jobs must be positive")
        for spec in self.models:
            if spec.modulus < 2:
                raise ConfigError("modulus must be at least 2")


DEFAULT_MODELS = [
    ModelSpec("SL", 3, 2, (1, 1, 1)),
    ModelSpec("SL", 3, 3, (1, 1, 1)),
    ModelSpec("SL", 3, 4, (1, 1, 1)),
    ModelSpec("SL", 4, 2, (1, 1, 1, 1)),
    ModelSpec("Sp", 4, 2, "borel", expect_violation=True),
    ModelSpec("Sp", 4, 3, "line"),
]


def _parse_model_name(name: str) -> tuple[str, int]:
    name = name.strip()
    for kind in ("SL", "Sp"):
        if name.upper().startswith(kind.upper()):
            try:
                return kind, int(name[2:])
            except ValueError as exc:
                raise ConfigError(f"bad model name {name!r}") from exc
    raise ConfigError(f"bad model name {name!r}; expected SL<n> or Sp4")


def _parse_blocks(kind: str, degree: int, text: str | None):
    if text is None:
        return (1,) * degree if kind == "SL" else "line"
    text = text.strip()
    if kind == "Sp":
        if text not in models.SP4_PARABOLICS:
            raise ConfigError(f"Sp blocks must be one of {sorted(models.SP4_PARABOLICS)}")
        return text
    try:
        blocks = tuple(int(t) for t in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad blocks {text!r}") from exc
    if sum(blocks) != degree or any(b < 1 for b in blocks):
        raise ConfigError(f"blocks {blocks} do not compose {degree}")
    return blocks


def parse_config(data: bytes) -> RunConfig:
    """Read a run configuration from INI-style key/value text."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(data.decode("utf-8"))
    except (UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    run = parser["run"] if parser.has_section("run") else {}
    cfg = RunConfig(
        suite=run.get("suite", "all"),
        cap=int(run.get("cap", DEFAULT_CAP)),
        jobs=int(run.get("jobs", 1)),
        out=run.get("out") or None,
    )
    for section in parser.sections():
        if section != "model" and not section.startswith("model."):
            if section != "run":
                raise ConfigError(f"unknown config section [{section}]")
            continue
        spec = parser[section]
        if "name" not in spec:
            raise ConfigError(f"[{section}] needs a name, e.g. name = SL3")
        kind, degree = _parse_model_name(spec["name"])
        modulus = int(spec.get("mod", "0"))
        cfg.models.append(
            ModelSpec(
                kind,
                degree,
                modulus,
                _parse_blocks(kind, degree, spec.get("blocks")),
                spec.getboolean("expect_violation", fallback=False),
            )
        )
    cfg.validate()
    return cfg


# -- check records ------------------------------------------------------------

class Recorder:
    """Collects check records; maps failures on negative controls to
    expected exceptions and unexpected passes to informational records."""

    def __init__(self):
        self.checks: list[dict] = []

    def add(self, name: str, anchor: str, ok: bool, expect_violation: bool,
            model: str = "", witness=None):
        if expect_violation:
            verdict = "info" if ok else "expected-exception"
        else:
            verdict = "pass" if ok else "fail"
        rec = {"name": name, "anchor": anchor, "model": model, "verdict": verdict}
        if witness is not None:
            rec["witness"] = witness
        self.checks.append(rec)

    def note(self, name: str, anchor: str, text: str, model: str = ""):
        self.checks.append(
            {"name": name, "anchor": anchor, "model": model, "verdict": "info",
             "witness": {"note": text}}
        )

    def failed(self) -> bool:
        return any(c["verdict"] == "fail" for c in self.checks)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = [_jsonable(v) for v in obj]
        return sorted(items, key=str) if isinstance(obj, (set, frozenset)) else items
    if hasattr(obj, "item"):  # numpy scalars
        return obj.item()
    return obj


# -- suites -------------------------------------------------------------------

def suite_roots(rec: Recorder):
    for family, rank in STANDARD_TYPES:
        rtype = rootsys.RootSystemType(family, rank)
        sys = rootsys.build_root_system(rtype)
        count_ok = len(sys.roots) == rootsys.classical_root_count(rtype)
        # reflection stability over all pairs, in integer arithmetic:
        # <a, b^vee> = sum_i a_i <alpha_i, b^vee>
        coroot_rows = {
            b: [sys.cartan_int(e, b) for e in sys.simple_roots] for b in sys.roots
        }
        stable = True
        for b, row in coroot_rows.items():
            for a in sys.roots:
                c = sum(x * y for x, y in zip(a, row))
                if tuple(x - c * y for x, y in zip(a, b)) not in sys.roots:
                    stable = False
        autos = rootsys.diagram_automorphisms(sys)
        preserve = all(
            rootsys.perm_on_root(p, a) in sys.roots
            and sys.pairing2(rootsys.perm_on_root(p, a), rootsys.perm_on_root(p, b))
            == sys.pairing2(a, b)
            for p in autos
            for a in sys.roots
            for b in sys.simple_roots
        )
        rec.add(
            f"root_system_{rtype}", "root system construction",
            count_ok and stable and preserve, False,
            witness={"roots": len(sys.roots), "automorphisms": len(autos),
                     "structure_primes": sorted(rootsys.structure_constant_primes(sys))},
        )


def suite_relroots(rec: Recorder):
    totals: dict[str, int] = {}
    for datum in relroots.sweep_data(5):
        rel = relroots.build_relative(datum)
        counts = relroots.check_datum(rel)
        for k, v in counts.items():
            totals[k] = totals.get(k, 0) + v
    failures = {k: v for k, v in totals.items() if k.endswith("failed") and v}
    rec.add("relative_lemma_sweep", "Lemma adj-simple-roots",
            not failures, False, witness=_jsonable(totals))
    rec.note(
        "sigma_convention", "eq. (Sigma(beta))",
        "the required containment is implemented as alpha+beta not in "
        "Phi union {0}, excluding alpha = -beta, which the half-space "
        "formula also rejects",
    )
    folds = [
        (("A", 3), ("C", 2), (2, 1, 0)),
        (("A", 5), ("C", 3), (4, 3, 2, 1, 0)),
        (("D", 5), ("B", 4), (0, 1, 2, 4, 3)),
        (("D", 4), ("G", 2), (2, 1, 3, 0)),
        (("E", 6), ("F", 4), (5, 1, 4, 3, 2, 0)),
    ]
    for (bf, br), (tf, tr), gen in folds:
        base = rootsys.build_root_system(rootsys.RootSystemType(bf, br))
        gamma = {tuple(range(br)), gen}
        while True:
            new = {rootsys.perm_compose(a, b) for a in gamma for b in gamma}
            if new <= gamma:
                break
            gamma |= new
        rel = relroots.fold(base, tuple(sorted(gamma)))
        target = rootsys.build_root_system(rootsys.RootSystemType(tf, tr))
        ok = relroots.match_coordinates(rel.rel_roots, target) is not None
        rec.add(f"fold_{bf}{br}_to_{tf}{tr}", "Lemma parab-centr-root", ok, False)


def _group_calculus_checks(rec: Recorder, model: GroupModel, rng, expect: bool):
    name = model.name()
    hyp = hypothesis_check(model)
    rec.add("hypotheses", "Theorem main", hyp.main_ok, expect or not hyp.main_ok,
            model=name, witness=hyp.as_dict())

    gens_ok = all(model.is_element(g) for g in model.all_elementary_generators())
    sampled = all(
        model.is_element(model.x(a, tuple(rng.randrange(model.m) for _ in range(model.v_dim(a)))))
        for a in model.rel_roots for _ in range(8)
    )
    rec.add("generators_in_group", "eq. (Xalpha-prod)", gens_ok and sampled, False, model=name)

    mats = [model.x(a, tuple(rng.randrange(model.m) for _ in range(model.v_dim(a))))
            for a in model.rel_roots for _ in range(4)]
    ident_ok = calculus.sampled_identity_check(model, mats, 1000, rng)
    rec.add("commutator_identity", "eq. (xyzz-1)", ident_ok, False, model=name)

    hom_ok, hom_checked = True, 0
    try:
        for alpha in model.rel_roots:
            for beta in model.rel_roots:
                if calculus.opposed_multiples(alpha, beta):
                    continue
                hom_checked += calculus.check_chevalley_homogeneity(
                    model, alpha, beta, samples=8, rng=rng
                )
    except TheoremViolation:
        hom_ok = False
    rec.add("chevalley_homogeneity", "eq. (eq:Chev)", hom_ok, False, model=name,
            witness={"checked": hom_checked})

    sum_ok = True
    for alpha in model.rel_roots:
        d = model.v_dim(alpha)
        for _ in range(32):
            v = tuple(rng.randrange(model.m) for _ in range(d))
            w = tuple(rng.randrange(model.m) for _ in range(d))
            first, higher = calculus.sum_formula_decompose(model, alpha, v, w)
            # reconstruct the product from the decomposition
            g = model.x(alpha, first)
            for i, val in sorted(higher.items()):
                ia = tuple(i * c for c in alpha)
                g = (g.astype("int64") @ model.x(ia, val)) % model.m
            lhs = (model.x(alpha, v).astype("int64") @ model.x(alpha, w)) % model.m
            if not (g == lhs).all():
                sum_ok = False
    rec.add("sum_formula", "eq. (eq:sum)", sum_ok, False, model=name)

    levi_ok = True
    levis = model.levi_elements()
    rng.shuffle(levis)
    for g in levis[:16]:
        for alpha in model.rel_roots:
            v = tuple(rng.randrange(model.m) for _ in range(model.v_dim(alpha)))
            phi = calculus.levi_conjugation_decompose(model, g, alpha, v)
            for r in range(model.m):
                phi_r = calculus.levi_conjugation_decompose(
                    model, g, alpha, tuple(r * c % model.m for c in v)
                )
                for i, val in phi.items():
                    want = tuple(pow(r, i, model.m) * c % model.m for c in val)
                    if phi_r[i] != want:
                        levi_ok = False
    rec.add("levi_conjugation", "Lemma rootels (ii)", levi_ok, False, model=name)

    pos = calculus.radical_roots(model)
    ch = calculus.chart(model, pos)
    round_ok = True
    for _ in range(64):
        comps = tuple(
            tuple(rng.randrange(model.m) for _ in range(model.v_dim(a))) for a in ch.roots
        )
        if ch.components(ch.product(comps)) != comps:
            round_ok = False
    rec.add("unipotent_roundtrip", "Lemma rootels (iv)", round_ok, False, model=name,
            witness={"radical_order": len(ch)})

    abe_ok, abe_checked = True, 0
    const_ok, const_checked = True, 0
    try:
        for alpha in model.rel_roots:
            for beta in model.rel_roots:
                s = tuple(a + b for a, b in zip(alpha, beta))
                if (calculus.opposed_multiples(alpha, beta) or not model.is_rel_root(s)):
                    continue
                for u in model.v_tuples(beta):
                    if any(u):
                        calculus.lemma_ABe_witness(model, alpha, beta, u)
                        abe_checked += 1
                const_checked += 1
                if not calculus.lemma_const_check(model, alpha, beta):
                    const_ok = False
    except TheoremViolation:
        abe_ok = False
    rec.add("pairing_witness", "Lemma ABe", abe_ok, expect, model=name,
            witness={"checked": abe_checked,
                     "generating_system": "standard unit coordinates of V_alpha"})
    rec.add("leading_values_generate", "Lemma const", const_ok, expect, model=name,
            witness={"checked": const_checked})

    gauss_ok = True
    ident = model.identity()
    fac = models.gauss_cell_membership(model, ident)
    gauss_ok &= fac is not None
    for _ in range(128):
        g = ident.copy()
        for _step in range(4):
            p = model.generator_positions()[rng.randrange(len(model.generator_positions()))]
            g = (g @ model.elementary_generator(p, rng.randrange(model.m))) % model.m
        fac = models.gauss_cell_membership(model, g)
        if fac is not None:
            u, l, v = fac
            if not ((u.astype("int64") @ l @ v) % model.m == g).all():
                gauss_ok = False
    rec.add("gauss_cell_roundtrip", "Lemma open-fields", gauss_ok, False, model=name)


def suite_group(rec: Recorder, spec: ModelSpec, cap: int):
    model = spec.build()
    rng = random.Random(RNG_SEED)
    _group_calculus_checks(rec, model, rng, spec.expect_violation)
    ctx = lattice.get_context(model, cap)
    rec.add("element_table", "invented plumbing", True, False, model=model.name(),
            witness={"order": ctx.table.N})
    e_sub = ctx.elementary()
    rec.add("elementary_subgroup_full", "Theorem EE", e_sub.order == ctx.table.N,
            False, model=model.name(), witness={"order": e_sub.order})
    if ctx.table.N <= 10_000:
        rec.add("gauss_cell_brute_force", "Lemma open-fields",
                lattice.gauss_brute_force_agrees(ctx), False, model=model.name())


def suite_sandwich(rec: Recorder, spec: ModelSpec, cap: int):
    model = spec.build()
    name = model.name()
    ctx = lattice.get_context(model, cap)
    hyp = ctx.hypotheses
    expect = spec.expect_violation or not hyp.main_ok
    rec.add("hypotheses", "Theorem main", hyp.main_ok, expect, model=name,
            witness=hyp.as_dict())

    results = lattice.sandwich_classify(ctx, strict=False)
    all_unique = all(r.verdict == "unique" for r in results)
    rec.add("sandwich_classification", "Theorem main (ii)", all_unique, expect,
            model=name, witness={"orbits": len(results),
                                 "results": [r.as_dict() for r in results]})

    levels_ok = True
    level_reports = []
    for r in results:
        if r.verdict != "unique":
            levels_ok = False
            continue
        q = next(q for q in ctx.ideals if q.d == r.admissible[0])
        rep = lattice.verify_level_theorem(
            ctx, ctx.orbit_closure(r.seed_index), q, r.seed_index, strict=False
        )
        level_reports.append(rep.as_dict())
        levels_ok &= rep.equal
    rec.add("level_computation", "Theorem cong-N", levels_ok, expect, model=name,
            witness={"reports": level_reports})

    cf = lattice.verify_commutator_formula(ctx, strict=False)
    rec.add("commutator_formula", "Theorem main (i)", all(r["equal"] for r in cf),
            expect, model=name, witness={"per_ideal": cf})

    if model.kind == "SL" and model.degree >= 3:
        other = [(1, model.degree - 1)] if model.degree == 3 else [(2, 2), (1, 1, 2)]
        pi = lattice.verify_parabolic_independence(ctx, other, strict=False)
        rec.add("parabolic_independence", "Lemma E_P", all(r["equal"] for r in pi),
                expect, model=name, witness={"per_ideal": pi})

    st = lattice.verify_structure_theorems(ctx, strict=False)
    rec.add("elementary_normal", "Theorem EE", st["e_normal"], expect, model=name)
    rec.add("centralizer_is_center", "Theorem E-cent",
            st["centralizer_matches_center"], expect, model=name,
            witness={"center_order": st["center_order"]})
    perfect_expected = hyp.perfect_ok and not spec.expect_violation
    rec.add("elementary_perfect", "Theorem perfect",
            st["perfect"], not perfect_expected, model=name,
            witness={"derived_index": st["derived_index"]})
    rec.add("hall_witt_stabilization", "Lemma HallWitt",
            not st["hall_witt_failures"], not perfect_expected, model=name,
            witness={"failures": st["hall_witt_failures"]})

    ue = lattice.verify_unipotent_extraction(ctx, strict=False)
    rec.add("unipotent_extraction", "Lemma InP",
            not ue["failures"] and not ue["radical_failures"], expect, model=name,
            witness=ue)

    jc = lattice.join_compatibility(ctx, 100, random.Random(RNG_SEED), strict=False)
    rec.add("join_compatibility", "Theorem main (ii)", not jc["mismatches"], expect,
            model=name, witness={"checked": jc["checked"],
                                 "mismatches": len(jc["mismatches"])})

    if lattice._is_prime(model.m):
        ucf = lattice.verify_u_cent_field(ctx, strict=False)
        rec.add("radical_centralizer_in_parabolic", "Lemma u-cent-field",
                not ucf["failures"], expect, model=name,
                witness={"centralizing": ucf["centralizing"]})
        lemma_model = model if lattice._rel_rank(model) >= 2 else model.with_blocks(
            "borel" if model.kind == "Sp" else (1,) * model.degree
        )
        if lattice._rel_rank(lemma_model) >= 2:
            cb = lattice.verify_centralizer_beta(lemma_model, strict=False)
            rec.add("centralizer_support", "Lemma centr-beta", not cb["failures"],
                    expect, model=name, witness={"checked": cb["checked"]})
            slb = lattice.verify_small_levi_b(lemma_model, strict=False)
            rec.add("small_levi_conclusion", "Lemma small-levi-b", not slb["failures"],
                    expect, model=name, witness={"checked": slb["checked"]})
        si = lattice.simplicity_check(ctx, strict=False)
        rec.add("central_quotient_simple", "Tits simplicity", not si["failures"],
                expect, model=name,
                witness={"noncentral_elements": si["noncentral_elements"]})


def run(cfg: RunConfig) -> tuple[dict, int]:
    """Execute the configured suites and assemble the report."""
    cfg.validate()
    started = time.time()
    rec = Recorder()
    specs = cfg.models or [s for s in DEFAULT_MODELS]
    try:
        if cfg.suite in ("roots", "all"):
            suite_roots(rec)
        if cfg.suite in ("relroots", "all"):
            suite_relroots(rec)
        if cfg.suite in ("group", "all"):
            for spec in specs:
                suite_group(rec, spec, cfg.cap)
        if cfg.suite in ("sandwich", "all"):
            for spec in specs:
                suite_sandwich(rec, spec, cfg.cap)
    except SizeCapError as exc:
        raise ConfigError(str(exc)) from exc

    counts: dict[str, int] = {}
    for c in rec.checks:
        counts[c["verdict"]] = counts.get(c["verdict"], 0) + 1
    report = {
        "schema_version": "1",
        "config": {
            "suite": cfg.suite,
            "cap": cfg.cap,
            "jobs": cfg.jobs,
            "models": [
                {"kind": s.kind, "degree": s.degree, "mod": s.modulus,
                 "blocks": list(s.blocks) if isinstance(s.blocks, tuple) else s.blocks,
                 "expect_violation": s.expect_violation}
                for s in specs
            ],
        },
        "checks": [_jsonable(c) for c in rec.checks],
        "summary": {
            "counts": counts,
            "suite_verdict": "fail" if rec.failed() else "pass",
        },
        "timing": {"seconds": round(time.time() - started, 3)},
    }
    return report, (1 if rec.failed() else 0)


def _build_argparser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="chevlat",
        description="verify the sandwich normal structure of SL_n and Sp_4 over Z/m",
    )
    sub = p.add_subparsers(dest="suite", required=True, metavar="|".join(SUITES))
    for name in SUITES:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="INI config file")
        sp.add_argument("--model", help="SL3, SL4 or Sp4")
        sp.add_argument("--mod", type=int, help="modulus m of Z/m")
        sp.add_argument("--blocks", help="block composition like 1,1,1 (SL) or "
                                         "borel|line|siegel (Sp)")
        sp.add_argument("--cap", type=int, help=f"element cap (default {DEFAULT_CAP})")
        sp.add_argument("--jobs", type=int,
                        help="accepted and echoed in the report, but ignored: "
                             "closures build on each other and run in one thread")
        sp.add_argument("--out", help="report path (default: stdout)")
        sp.add_argument("--expect-violation", action="store_true",
                        help="mark the model as a negative control")
    return p


def main(argv=None) -> int:
    args = _build_argparser().parse_args(argv)
    try:
        if args.config:
            with open(args.config, "rb") as fh:
                cfg = parse_config(fh.read())
            cfg.suite = args.suite
        else:
            cfg = RunConfig(suite=args.suite)
        if args.model:
            kind, degree = _parse_model_name(args.model)
            if args.mod is None:
                raise ConfigError("--model needs --mod")
            cfg.models = [
                ModelSpec(kind, degree, args.mod,
                          _parse_blocks(kind, degree, args.blocks),
                          args.expect_violation)
            ]
        if args.cap is not None:
            cfg.cap = args.cap
        if args.jobs is not None:
            cfg.jobs = args.jobs
        if args.out is not None:
            cfg.out = args.out
        report, code = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
