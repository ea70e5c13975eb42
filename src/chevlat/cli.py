"""Batch verification front end.

Subcommands select a suite (roots, relroots, group, sandwich, all); the run
produces a single JSON report with a stable key order, so re-running an
identical configuration reproduces the report byte for byte apart from the
timing block.  Exit codes: 0 all asserted checks passed, 1 a theorem-level
check failed (a counterexample), 2 configuration, size or file error (an
unreadable --config; an --out that is a directory or whose directory does not
exist, refused before anything runs; a report that cannot be written), 3
internal error (a RuntimeError, AssertionError, ValueError or MemoryError
inside the run; no report is written).
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import random
import sys
import time
from dataclasses import dataclass, field

from . import calculus, lattice, models, relroots, rootsys
from .errors import ConfigError, ShortEnumerationError, SizeCapError
from .rings import factorize
from .table import DEFAULT_CAP, ElementTable, check_bounds

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

    def build(self) -> models.GroupModel:
        return models.GroupModel(self.kind, self.degree, self.modulus, self.blocks)

    def expects_violation(self, hyp: models.HypothesisReport) -> bool:
        """The one expectation rule of every suite: a negative control, or a
        model outside the theorem's hypotheses, may fail the theorem's checks."""
        return self.expect_violation or not hyp.main_ok


@dataclass
class RunConfig:
    suite: str
    models: list[ModelSpec] = field(default_factory=list)
    cap: int = DEFAULT_CAP
    out: str | None = None

    def validate(self):
        if self.suite not in SUITES:
            raise ConfigError(f"unknown suite {self.suite!r}; valid: {', '.join(SUITES)}")
        if self.cap < 1:
            raise ConfigError("cap must be positive")
        for spec in self.models:
            try:
                spec.build()
            except ValueError as exc:
                raise ConfigError(f"cannot build {spec.kind}{spec.degree}: {exc}") from exc


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
        return text
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad blocks {text!r}") from exc


def parse_config(data: bytes) -> RunConfig:
    """Read a run configuration from INI-style key/value text."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(data.decode("utf-8"))
    except (UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    run = parser["run"] if parser.has_section("run") else {}
    try:
        cap = int(run.get("cap", DEFAULT_CAP))
    except ValueError as exc:
        raise ConfigError(f"[run] cap: {exc}") from exc
    cfg = RunConfig(suite=run.get("suite", "all"), cap=cap, out=run.get("out") or None)
    for section in parser.sections():
        if section != "model" and not section.startswith("model."):
            if section != "run":
                raise ConfigError(f"unknown config section [{section}]")
            continue
        spec = parser[section]
        if "name" not in spec:
            raise ConfigError(f"[{section}] needs a name, e.g. name = SL3")
        kind, degree = _parse_model_name(spec["name"])
        try:
            modulus = int(spec.get("mod", "0"))
            expect = spec.getboolean("expect_violation", fallback=False)
        except ValueError as exc:
            raise ConfigError(f"[{section}]: {exc}") from exc
        blocks = _parse_blocks(kind, degree, spec.get("blocks"))
        cfg.models.append(ModelSpec(kind, degree, modulus, blocks, expect))
    cfg.validate()
    return cfg


# -- check records ------------------------------------------------------------

class Recorder:
    """Collects check records; maps failures on negative controls to
    expected exceptions and unexpected passes to informational records."""

    def __init__(self):
        self.checks: list[dict] = []
        self.seconds: list[float] = []

    def run(self, records, model: str = ""):
        """Drain a record generator.  Each record is timed from the resumption
        of its generator to its yield, so shared work counts toward the first
        record after it; `ok` None marks an informational note."""
        started = time.perf_counter()
        for name, anchor, ok, expect_violation, witness in records:
            self.seconds.append(time.perf_counter() - started)
            if ok is None or (ok and expect_violation):
                verdict = "info"
            elif expect_violation:
                verdict = "expected-exception"
            else:
                verdict = "pass" if ok else "fail"
            rec = {"name": name, "anchor": anchor, "model": model, "verdict": verdict}
            if witness is not None:
                rec["witness"] = witness
            self.checks.append(rec)
            started = time.perf_counter()

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
# Each suite is a generator of its records in report order, every record a
# tuple (name, anchor, ok, expect_violation, witness); the suite_* functions
# drain them into a Recorder.

def roots_records():
    for family, rank in STANDARD_TYPES:
        rtype = rootsys.RootSystemType(family, rank)
        ok, witness = rootsys.check_root_system(rootsys.build_root_system(rtype))
        yield f"root_system_{rtype}", "root system construction", ok, False, witness


def relroots_records():
    totals = relroots.sweep_totals(5)
    failures = {k: v for k, v in totals.items() if k.endswith("failed") and v}
    yield "relative_lemma_sweep", "Lemma adj-simple-roots", not failures, False, _jsonable(totals)
    yield "sigma_convention", "eq. (Sigma(beta))", None, False, {
        "note": "the required containment is implemented as alpha+beta not in "
                "Phi union {0}, excluding alpha = -beta, which the half-space "
                "formula also rejects"}
    for (bf, br), (tf, tr), gen in relroots.FOLDS:
        yield (f"fold_{bf}{br}_to_{tf}{tr}", "Lemma parab-centr-root",
               relroots.fold_matches((bf, br), (tf, tr), gen), False, None)


def group_records(spec: ModelSpec, cap: int):
    model = spec.build()
    levis = model.levi_elements()  # first: the scan refuses an oversized model up front
    gens = model.simple_generator_mats()  # they generate E(R); the suite reads N and lookups
    check_bounds(model, cap, len(gens))  # the table guards refuse a group the suite cannot finish
    hyp = models.hypothesis_check(model)
    expect = spec.expects_violation(hyp)
    yield "hypotheses", "Theorem main", hyp.main_ok, expect, hyp.as_dict()

    yield ("generators_in_group", "eq. (Xalpha-prod)", calculus.generators_in_group(model),
           False, None)

    # each sampled check seeds an rng of its own: no failure shifts another's draws
    yield ("commutator_identity", "eq. (xyzz-1)",
           calculus.sampled_identity_check(model, 1000, random.Random(RNG_SEED)), False, None)

    hom_ok, hom_checked = calculus.check_chevalley_homogeneity(model)
    yield "chevalley_homogeneity", "eq. (eq:Chev)", hom_ok, False, {"checked": hom_checked}

    yield "sum_formula", "eq. (eq:sum)", calculus.sum_formula_check(model), False, None

    yield ("levi_conjugation", "Lemma rootels (ii)",
           calculus.levi_conjugation_check(model, levis), False, None)

    round_ok, radical_order = calculus.roundtrip_check(model)
    yield ("unipotent_roundtrip", "Lemma rootels (iv)", round_ok, False,
           {"radical_order": radical_order})

    abe_ok, abe_checked, const_ok, const_checked = calculus.pairing_sweep(model)
    yield "pairing_witness", "Lemma ABe", abe_ok, expect, {
        "checked": abe_checked, "generating_system": "standard unit coordinates of V_alpha"}
    yield "leading_values_generate", "Lemma const", const_ok, expect, {"checked": const_checked}

    yield ("gauss_cell_roundtrip", "Lemma open-fields",
           models.sampled_gauss_roundtrip_check(model, 128, random.Random(RNG_SEED)),
           False, None)

    try:
        table = ElementTable(model, cap, gens)
    except ShortEnumerationError as exc:  # the generators reach a proper subgroup of G(R)
        yield "element_table", "invented plumbing", True, False, {"order": exc.found}
        yield ("elementary_subgroup_full", "Theorem EE", False, False,
               {"order": exc.found, "order_formula": exc.expected})
        return
    yield "element_table", "invented plumbing", True, False, {"order": table.N}
    # the table's certificate: its BFS from {1} reached the order formula's count
    yield ("elementary_subgroup_full", "Theorem EE", table.N == models.order_formula(model),
           False, {"order": table.N})
    if table.N <= 10_000:
        yield ("gauss_cell_brute_force", "Lemma open-fields",
               lattice.gauss_brute_force_agrees(model, table), False, None)


def sandwich_records(spec: ModelSpec, cap: int):
    model = spec.build()
    ctx = lattice.GroupContext(model, cap)
    hyp = ctx.hypotheses
    expect = spec.expects_violation(hyp)
    yield "hypotheses", "Theorem main", hyp.main_ok, expect, hyp.as_dict()

    results = lattice.sandwich_classify(ctx)
    yield ("sandwich_classification", "Theorem main (ii)",
           all(r.verdict == "unique" for r in results), expect,
           {"orbits": len(results), "results": [r.as_dict() for r in results]})

    levels_ok = True
    level_reports = []
    for r in results:
        if r.verdict != "unique":
            levels_ok = False
            continue
        rep = lattice.verify_level_theorem(ctx, ctx.orbit_closure(r.seed_index),
                                           r.admissible[0], r.seed_index)
        level_reports.append(rep.as_dict())
        levels_ok &= rep.equal
    yield "level_computation", "Theorem cong-N", levels_ok, expect, {"reports": level_reports}

    cf = lattice.verify_commutator_formula(ctx)
    yield ("commutator_formula", "Theorem main (i)", all(r["equal"] for r in cf), expect,
           {"per_ideal": cf})

    if model.kind == "SL" and model.degree >= 3:
        other = [(1, model.degree - 1)] if model.degree == 3 else [(2, 2), (1, 1, 2)]
        pi = lattice.verify_parabolic_independence(ctx, other)
        yield ("parabolic_independence", "Lemma E_P", all(r["equal"] for r in pi), expect,
               {"per_ideal": pi})

    st = lattice.verify_structure_theorems(ctx)
    yield "elementary_normal", "Theorem EE", st["e_normal"], expect, None
    yield ("centralizer_is_center", "Theorem E-cent", st["centralizer_matches_center"],
           expect, {"center_order": st["center_order"]})
    perfect_expected = hyp.perfect_ok and not spec.expect_violation
    yield ("elementary_perfect", "Theorem perfect", st["perfect"], not perfect_expected,
           {"derived_index": st["derived_index"]})
    yield ("hall_witt_stabilization", "Lemma HallWitt", not st["hall_witt_failures"],
           not perfect_expected, {"failures": st["hall_witt_failures"]})

    ue = lattice.verify_unipotent_extraction(ctx)
    yield "unipotent_extraction", "Lemma InP", not ue["failures"], expect, ue

    jc = lattice.join_compatibility(ctx, 100, random.Random(RNG_SEED))
    yield ("join_compatibility", "Theorem main (ii)", not jc["mismatches"], expect,
           {"checked": jc["checked"], "mismatches": len(jc["mismatches"])})

    if factorize(model.m) == {model.m: 1}:
        cl = lattice.verify_centralizer_lemmas(ctx)
        ucf = cl["u_cent_field"]
        yield ("radical_centralizer_in_parabolic", "Lemma u-cent-field", not ucf["failures"],
               expect, {"centralizing": ucf["centralizing"]})
        if "centr_beta" in cl:
            yield ("centralizer_support", "Lemma centr-beta", not cl["centr_beta"]["failures"],
                   expect, {"checked": cl["centr_beta"]["checked"]})
            yield ("small_levi_conclusion", "Lemma small-levi-b",
                   not cl["small_levi_b"]["failures"], expect,
                   {"checked": cl["small_levi_b"]["checked"]})
        si = lattice.simplicity_check(ctx)
        yield ("central_quotient_simple", "Tits simplicity", not si["failures"], expect,
               {"noncentral_elements": si["noncentral_elements"]})


def suite_roots(rec: Recorder):
    rec.run(roots_records())


def suite_relroots(rec: Recorder):
    rec.run(relroots_records())


def suite_group(rec: Recorder, spec: ModelSpec, cap: int):
    rec.run(group_records(spec, cap), spec.build().name())


def suite_sandwich(rec: Recorder, spec: ModelSpec, cap: int):
    rec.run(sandwich_records(spec, cap), spec.build().name())

def run(cfg: RunConfig) -> tuple[dict, int]:
    """Execute the configured suites and assemble the report."""
    cfg.validate()
    started = time.perf_counter()
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
        "timing": {"seconds": round(time.perf_counter() - started, 3),
                   "checks": [round(s, 6) for s in rec.seconds]},
    }
    return report, (1 if rec.failed() else 0)


def _build_argparser() -> argparse.ArgumentParser:
    """One parser: every suite takes the same options."""
    p = argparse.ArgumentParser(
        prog="chevlat",
        description="verify the sandwich normal structure of SL_n and Sp_4 over Z/m",
    )
    p.add_argument("suite", choices=SUITES, metavar="|".join(SUITES))
    p.add_argument("--config", help="INI config file")
    p.add_argument("--model", help="SL3, SL4 or Sp4")
    p.add_argument("--mod", type=int, help="modulus m of Z/m")
    p.add_argument("--blocks", help="block composition like 1,1,1 (SL) or borel|line|siegel (Sp)")
    p.add_argument("--cap", type=int, help=f"element cap (default {DEFAULT_CAP})")
    p.add_argument("--out", help="report path (default: stdout)")
    p.add_argument("--expect-violation", action="store_true",
                   help="mark the model as a negative control")
    return p


def main(argv=None) -> int:
    args = _build_argparser().parse_args(argv)
    try:
        if args.config:
            try:
                with open(args.config, "rb") as fh:
                    data = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config: {exc}") from exc
            cfg = parse_config(data)
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
        elif args.mod is not None or args.blocks is not None or args.expect_violation:
            raise ConfigError("--mod, --blocks and --expect-violation need --model")
        if args.cap is not None:
            cfg.cap = args.cap
        if args.out is not None:
            cfg.out = args.out
        if cfg.out and os.path.isdir(cfg.out):
            raise ConfigError(f"cannot write the report to {cfg.out}: it is a directory")
        if cfg.out and not os.path.isdir(os.path.dirname(os.path.abspath(cfg.out))):
            raise ConfigError(f"cannot write the report to {cfg.out}: no such directory")
        report, code = run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, AssertionError, ValueError, MemoryError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
