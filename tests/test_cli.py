import gc
import hashlib
import json
import os
import subprocess
import sys
import weakref

import pytest

from chevlat import cli, lattice
from chevlat.errors import ConfigError
from chevlat.table import ElementTable


def test_parse_config_minimal_defaults():
    cfg = cli.parse_config(b"[model]\nname = SL3\nmod = 4\n")
    assert cfg.suite == "all"
    assert cfg.cap == cli.DEFAULT_CAP
    spec = cfg.models[0]
    assert (spec.kind, spec.degree, spec.modulus) == ("SL", 3, 4)
    assert spec.blocks == (1, 1, 1)
    assert spec.expect_violation is False


def test_parse_config_full():
    text = b"""
[run]
suite = sandwich
cap = 999999
jobs = 2
[model]
name = Sp4
mod = 2
blocks = borel
expect_violation = true
[model.second]
name = SL4
mod = 2
blocks = 2,2
"""
    cfg = cli.parse_config(text)
    assert cfg.suite == "sandwich" and cfg.cap == 999999
    assert len(cfg.models) == 2
    assert cfg.models[0].blocks == "borel" and cfg.models[0].expect_violation
    assert cfg.models[1].blocks == (2, 2)


def test_parse_config_rejects_modulus_one():
    with pytest.raises(ConfigError):
        cli.parse_config(b"[model]\nname = SL3\nmod = 1\n")


def test_parse_config_rejects_unknown_suite():
    with pytest.raises(ConfigError) as err:
        cli.parse_config(b"[run]\nsuite = everything\n")
    for name in cli.SUITES:
        assert name in str(err.value)


def test_parse_config_rejects_bad_blocks():
    with pytest.raises(ConfigError):
        cli.parse_config(b"[model]\nname = SL3\nmod = 4\nblocks = 2,2\n")
    with pytest.raises(ConfigError):
        cli.parse_config(b"[model]\nname = Sp4\nmod = 3\nblocks = 1,1,2\n")


def test_parse_config_rejects_garbage():
    with pytest.raises(ConfigError):
        cli.parse_config(b"\x00\xff not ini at all [[[")


def test_run_roots_suite():
    report, code = cli.run(cli.RunConfig(suite="roots"))
    assert code == 0
    assert report["schema_version"] == "1"
    assert report["summary"]["suite_verdict"] == "pass"
    assert all(c["verdict"] == "pass" for c in report["checks"])


def test_run_group_suite_deterministic_bytes():
    cfg = cli.RunConfig(suite="group", models=[cli.ModelSpec("SL", 3, 2, (1, 1, 1))])
    rep1, _ = cli.run(cfg)
    rep2, _ = cli.run(cfg)
    rep1.pop("timing")
    rep2.pop("timing")
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)


def test_run_sandwich_negative_control_passes():
    cfg = cli.RunConfig(
        suite="sandwich",
        models=[cli.ModelSpec("Sp", 4, 2, "borel", expect_violation=True)],
    )
    report, code = cli.run(cfg)
    assert code == 0
    verdicts = {c["verdict"] for c in report["checks"]}
    assert "expected-exception" in verdicts
    assert "fail" not in verdicts
    # negative control must detect actual violations, not run vacuously
    sandwich = next(c for c in report["checks"] if c["name"] == "sandwich_classification")
    assert sandwich["verdict"] == "expected-exception"


def test_run_sl2_diagnostic():
    # degree 2 is allowed only as a diagnostic: rank hypothesis fails, the
    # verdicts are recorded without asserting either way
    cfg = cli.RunConfig(
        suite="sandwich",
        models=[cli.ModelSpec("SL", 2, 5, (1, 1), expect_violation=True)],
    )
    report, code = cli.run(cfg)
    assert code == 0
    hyp = next(c for c in report["checks"] if c["name"] == "hypotheses")
    assert hyp["verdict"] == "expected-exception"
    assert not any(c["verdict"] == "fail" for c in report["checks"])


def test_checks_carry_anchor_strings():
    report, _ = cli.run(cli.RunConfig(suite="relroots"))
    assert all(c.get("anchor") for c in report["checks"])


def test_main_exit_codes(tmp_path, monkeypatch, capsys):
    out = tmp_path / "r.json"
    assert cli.main(["group", "--model", "SL3", "--mod", "2", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["schema_version"] == "1"
    assert cli.main(["group", "--model", "SL3", "--mod", "1"]) == 2
    assert cli.main(["group", "--model", "SL3", "--mod", "7", "--cap", "1000"]) == 2
    assert cli.main(["group", "--model", "XX7", "--mod", "2"]) == 2
    for bad in ("[run]\ncap = abc\n", "[model]\nname = SL3\nmod = x\n",
                "[model]\nname = SL3\nmod = 2\nexpect_violation = maybe\n"):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(bad)
        assert cli.main(["group", "--config", str(cfg)]) == 2
    assert cli.main(["group", "--config", str(tmp_path / "missing.ini")]) == 2
    ran = []
    monkeypatch.setattr(cli, "suite_roots", ran.append)
    # an --out without a directory, or that is one, is refused before the run,
    # a failed write (here a file name past the name length limit) after it
    assert cli.main(["roots", "--out", str(tmp_path / "missing" / "r.json")]) == 2
    assert cli.main(["roots", "--out", str(tmp_path)]) == 2
    assert not ran
    assert cli.main(["roots", "--out", str(tmp_path / ("r" * 300))]) == 2
    assert len(ran) == 1
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in err[-3:]] == [
        "config error", "config error", "cannot write report"]
    assert err[-2].endswith(f"{tmp_path}: it is a directory")


@pytest.mark.parametrize("argv", [[], ["nosuch"], ["roots", "group"], ["roots", "--cap", "x"],
                                  ["roots", "--bogus"]])
def test_main_refuses_bad_usage_with_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    assert "usage: chevlat" in capsys.readouterr().err


def test_main_takes_the_options_on_either_side_of_the_suite(tmp_path):
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    assert cli.main(["--model", "SL3", "--mod", "2", "group", "--out", str(outs[0])]) == 0
    assert cli.main(["group", "--model", "SL3", "--mod", "2", "--out", str(outs[1])]) == 0
    a, b = (json.loads(out.read_text()) for out in outs)
    assert a.pop("timing") and b.pop("timing") and a == b


def test_main_refuses_table_past_key_bound(capsys):
    # a raised cap lets SL2(Z/2**16) past the element cap; its 2x2 keys reach 2**64
    assert cli.main(["sandwich", "--model", "SL2", "--mod", str(2**16), "--cap", str(10**15)]) == 2
    err = capsys.readouterr().err
    assert "SL2(Z/65536)" in err and "2**63 - 1" in err


def test_main_refuses_table_past_composite_bound(monkeypatch, capsys):
    # Sp4(Z/6) fits the keys and the indices, but its BFS composites could wrap uint64
    monkeypatch.setattr(ElementTable, "_bfs", lambda *args: pytest.fail("enumeration started"))
    assert cli.main(["sandwich", "--model", "Sp4", "--mod", "6", "--cap", str(10**9)]) == 2
    err = capsys.readouterr().err
    assert "Sp4(Z/6)" in err and "2**64" in err


def test_main_refuses_an_oversized_levi_scan_first(monkeypatch, capsys):
    # the diagonal Levi support of SL2(Z/2**16) has 2**32 fillings: the group
    # suite's predicate scan refuses them before any other check runs
    def no_work(self):
        raise AssertionError("a check ran before the size check")

    monkeypatch.setattr(cli.models.GroupModel, "all_elementary_generators", no_work)
    assert cli.main(["group", "--model", "SL2", "--mod", str(2**16)]) == 2
    err = capsys.readouterr().err
    assert "SL2(Z/65536)" in err and "predicate scan has 4294967296 fillings" in err


def test_main_refuses_an_oversized_group_before_the_calculus_checks(monkeypatch, capsys):
    # SL4(Z/8) passes its Levi scan (8**4 fillings) but has 2.2e13 elements:
    # the table's cap refuses it before any calculus check runs
    def no_work(self):
        raise AssertionError("a check ran before the size check")

    monkeypatch.setattr(cli.models.GroupModel, "all_elementary_generators", no_work)
    assert cli.main(["group", "--model", "SL4", "--mod", "8"]) == 2
    assert ("SL4(Z/8)[(1, 1, 1, 1)] has 21646635171840 elements, exceeding the cap of 2000000"
            in capsys.readouterr().err)


@pytest.mark.parametrize("argv", [["--model", "Sp6", "--mod", "3"],
                                  ["--model", "SL1", "--mod", "3"],
                                  ["--model", "SL3", "--mod", "3", "--blocks", "3"]])
def test_main_refuses_model_specs_it_cannot_build(argv, capsys):
    assert cli.main(["group", *argv]) == 2
    assert "config error: cannot build" in capsys.readouterr().err


@pytest.mark.parametrize("mod", ["0", "1"])
def test_main_refuses_a_modulus_below_two(mod, capsys):
    assert cli.main(["sandwich", "--model", "SL3", "--mod", mod]) == 2
    assert capsys.readouterr().err == "config error: cannot build SL3: modulus must be at least 2\n"


def test_parse_config_refuses_model_specs_it_cannot_build():
    with pytest.raises(ConfigError, match="only Sp_4 is modeled"):
        cli.parse_config(b"[model]\nname = Sp6\nmod = 3\n")


@pytest.mark.parametrize("extra", [["--mod", "3"], ["--blocks", "1,2"], ["--expect-violation"]])
def test_main_refuses_model_options_without_a_model(extra, monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(cli, "run", ran.append)
    assert cli.main(["group", *extra]) == 2
    assert not ran
    assert "need --model" in capsys.readouterr().err


def test_group_suite_computes_no_orbits(monkeypatch):
    # E(R) = G(R) is read off the table's certificate, so the group suite
    # never partitions a table into E-orbits
    def refuse(table):
        raise AssertionError("the group suite computed the E-orbits")

    monkeypatch.setattr(lattice, "e_conjugacy_orbits", refuse)
    report, code = cli.run(cli.RunConfig(suite="group"))
    assert code == 0 and "fail" not in {c["verdict"] for c in report["checks"]}
    full = [c for c in report["checks"] if c["name"] == "elementary_subgroup_full"]
    assert len(full) == len(cli.DEFAULT_MODELS) and all(c["verdict"] == "pass" for c in full)


def test_group_suite_builds_no_conjugations(monkeypatch):
    # the group suite reads no conjugation of the tables it builds, so they
    # never form their transpose permutations
    def refuse(*args):
        raise AssertionError("the group suite built the transposes")

    monkeypatch.setattr(ElementTable, "_transpose", refuse)
    for spec in cli.DEFAULT_MODELS:
        records = {name: verdict
                   for name, _, verdict, _, _ in cli.group_records(spec, cli.DEFAULT_CAP)}
        assert records["element_table"] and records["elementary_subgroup_full"]
    # the patch is live: the first conjugation read forms the transposes
    with pytest.raises(AssertionError, match="built the transposes"):
        ElementTable(cli.DEFAULT_MODELS[0].build()).conj


def test_suite_tables_are_freed_when_their_suite_ends(monkeypatch):
    # a model's table and closures live in the context its record generator
    # builds, so they are freed by reference counting, with no gc pass, as
    # soon as the generator is exhausted
    built = []
    init = ElementTable.__init__

    def record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(weakref.ref(self))

    monkeypatch.setattr(ElementTable, "__init__", record)
    spec = cli.DEFAULT_MODELS[0]
    for records in (cli.group_records(spec, cli.DEFAULT_CAP),
                    cli.sandwich_records(spec, cli.DEFAULT_CAP)):
        gc.disable()
        try:
            built.clear()
            for _ in records:
                alive = [ref() is not None for ref in built]
            assert alive == [True] and built[0]() is None
        finally:
            gc.enable()


def test_group_suite_outside_the_hypotheses_reports_no_counterexample(capsys):
    # 2 is not invertible in Z/4, so the theorem does not apply to Sp4(Z/4):
    # its lemma records are expected to fail, as in the sandwich suite
    assert cli.main(["group", "--model", "Sp4", "--mod", "4"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert "fail" not in {c["verdict"] for c in checks}
    verdicts = {c["name"]: c["verdict"] for c in checks}
    assert verdicts["hypotheses"] == verdicts["pairing_witness"] == "expected-exception"


def test_sandwich_suite_outside_the_hypotheses_reports_no_counterexample(capsys):
    # no --expect-violation: 2 is not invertible in Z/2, so the failing
    # sandwich records of Sp4(Z/2) are expected, not counterexamples
    assert cli.main(["sandwich", "--model", "Sp4", "--mod", "2", "--blocks", "line"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert "fail" not in {c["verdict"] for c in checks}
    verdicts = {c["name"]: c["verdict"] for c in checks}
    assert verdicts["hypotheses"] == verdicts["sandwich_classification"] == "expected-exception"


def test_main_reads_config(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nsuite = group\n[model]\nname = SL3\nmod = 2\n")
    out = tmp_path / "out.json"
    assert cli.main(["group", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["summary"]["suite_verdict"] == "pass"


@pytest.mark.parametrize("exc", [RuntimeError("lookup failed"), AssertionError("bad index"),
                                 ValueError("key out of range"),
                                 MemoryError("cannot allocate the BFS frontier")])
def test_main_internal_error_exit_code(monkeypatch, capsys, tmp_path, exc):
    def broken(rec):
        raise exc

    monkeypatch.setattr(cli, "suite_roots", broken)
    out = tmp_path / "r.json"
    assert cli.main(["roots", "--out", str(out)]) == 3
    assert f"internal error: {exc}" in capsys.readouterr().err
    assert not out.exists()


def test_all_suite_report_is_pinned():
    # any change to a verdict, a witness or the record order of `chevlat all`
    # on the default models changes the second digest.  The first leaves out
    # the chevalley_homogeneity records, whose `checked` moved when the check
    # became exhaustive: it is the digest of the sampled check's report too
    report, code = cli.run(cli.RunConfig(suite="all"))
    assert code == 0

    def digest(checks):
        text = json.dumps({"checks": checks, "summary": report["summary"]}, sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    assert digest([c for c in report["checks"] if c["name"] != "chevalley_homogeneity"]) == (
        "9b94dff126c0f1fb743a27e2618956233ee213069cac130118dc880903e321b9")
    assert digest(report["checks"]) == (
        "ede948be9da19efe2b7f212f6e75cc1bfb38ac966c85e913c54a5a56ea89d74f")


def test_timing_has_the_seconds_of_every_record():
    report, _ = cli.run(cli.RunConfig(suite="all"))
    timing = report["timing"]
    assert len(timing["checks"]) == len(report["checks"])
    assert all(s >= 0 for s in timing["checks"])
    # the records are timed inside the run; each entry is rounded to 1e-6 s, the total to 1e-3 s
    assert sum(timing["checks"]) <= timing["seconds"] + 5e-4 + 5e-7 * len(timing["checks"])


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # numpy loads numpy.random lazily; the sampled checks draw through
    # rings.draws, so a run never pays for its import
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", "import sys, chevlat.cli; "
                          "print('numpy.random' in sys.modules)"],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
