import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import polaris as pl
from polaris import cli
from polaris.catalog import R_PRODUCT, catalog_list
from polaris.cli import AnalysisReport, ModelError, analyze, emit_report, \
    load_model, main
from polaris.weyl import WeylError


def minimal_torus_doc():
    return {"schema": 1, "kind": "lie-algebra", "dim": 2, "structure": []}


def cyclic_su2_doc():
    return {
        "schema": 1, "kind": "lie-algebra", "dim": 3,
        "structure": [[1, 2, 3, 1.0], [2, 3, 1, 1.0], [1, 3, 2, -1.0]],
    }


# -- load_model ---------------------------------------------------------------

def test_load_minimal_abelian_document():
    bundle = load_model(minimal_torus_doc())
    alg = bundle["algebra"]
    assert alg.dim == 2
    assert np.max(np.abs(alg.structure)) == 0.0


def test_load_cyclic_structure_accepted():
    bundle = load_model(cyclic_su2_doc())
    alg = bundle["algebra"]
    e = np.eye(3)
    assert np.allclose(alg.bracket(e[0], e[1]), e[2])
    assert abs(alg.killing(e[0], e[0]) + 2.0) < 1e-12


def test_load_rejects_lower_triangle_entries():
    doc = minimal_torus_doc()
    doc["structure"] = [[2, 1, 1, 1.0]]
    with pytest.raises(ModelError) as err:
        load_model(doc)
    assert "(2,1,1)" in str(err.value)


def test_load_rejects_jacobi_violation():
    doc = {"schema": 1, "kind": "lie-algebra", "dim": 3,
           "structure": [[1, 2, 3, 1.0], [1, 3, 1, 1.0]]}
    with pytest.raises(ModelError) as err:
        load_model(doc)
    assert "Jacobi" in str(err.value)


def test_load_rejects_wrong_schema_and_kind():
    with pytest.raises(ModelError):
        load_model({"schema": 2, "kind": "lie-algebra", "dim": 1})
    with pytest.raises(ModelError):
        load_model({"schema": 1, "kind": "spectral-triple", "dim": 1})


def test_load_symmetric_pair_document():
    doc = cyclic_su2_doc()
    doc["kind"] = "symmetric-pair"
    doc["involution"] = [[1.0, 0, 0], [0, -1.0, 0], [0, 0, -1.0]]
    bundle = load_model(doc)
    assert bundle["pair"].k.dim == 1
    assert bundle["pair"].p.dim == 2


def test_load_representation_document():
    gen = [[0.0, -1.0], [1.0, 0.0]]
    doc = {"schema": 1, "kind": "representation", "dim": 1, "structure": [],
           "generators": [sum(gen, [])],
           "manifold": {"kind": "euclidean"}}
    bundle = load_model(doc)
    rep = bundle["rep"]
    assert rep.space_dim == 2
    assert not rep.restrict_to_sphere
    assert pl.is_polar_rep(rep, seed=0).polar


def test_load_rejects_non_antisymmetric_generator():
    doc = {"schema": 1, "kind": "representation", "dim": 1, "structure": [],
           "generators": [[0.0, 1.0, 1.0, 0.0]]}
    with pytest.raises(ModelError):
        load_model(doc)


def circle_rep_doc():
    return {"schema": 1, "kind": "representation", "dim": 1, "structure": [],
            "generators": [[0.0, -1.0, 1.0, 0.0]], "manifold": {"kind": "euclidean"}}


def su2_pair_doc():
    return {**cyclic_su2_doc(), "kind": "symmetric-pair",
            "involution": [[1.0, 0, 0], [0, -1.0, 0], [0, 0, -1.0]],
            "subalgebra": [[1.0, 0, 0]]}


@pytest.mark.parametrize("doc, field", [
    ({**cyclic_su2_doc(), "structure": [[1, 2, 3, "one"]]}, "structure[0]"),
    ({**cyclic_su2_doc(), "inner": [1.0, 0.0, 0.0, 1.0]}, "inner"),
    ({**minimal_torus_doc(), "dim": True}, "dim"),
    ([minimal_torus_doc()], "document"),
    ({**cyclic_su2_doc(), "structure": [7]}, "structure[0]"),
    ({**circle_rep_doc(), "manifold": "sphere"}, "manifold"),
    ({**circle_rep_doc(), "manifold": {"kind": "hyperbolic"}}, "manifold"),
    ({**su2_pair_doc(), "subalgebra": [[1.0, 0, 0], [0, 1.0, 0]]}, "subalgebra"),
    ({**su2_pair_doc(), "inner": [2.0, 0, 0, 0, 1.0, 0, 0, 0, 1.0]}, "inner"),
])
def test_load_rejects_malformed_field_naming_it(doc, field):
    with pytest.raises(ModelError) as err:
        load_model(json.dumps(doc))
    assert str(err.value).startswith(field + ":")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10)
FIELDS = ("schema", "kind", "dim", "structure", "inner", "realization", "name",
          "involution", "subalgebra", "generators", "manifold")
# valid documents with up to three fields replaced by arbitrary JSON values
NEAR_VALID = st.builds(
    lambda base, changes: {**base, **changes},
    st.sampled_from([minimal_torus_doc(), cyclic_su2_doc(), su2_pair_doc(),
                     circle_rep_doc()]),
    st.dictionaries(st.sampled_from(FIELDS), JSON_VALUES, max_size=3))


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES | NEAR_VALID)
def test_any_json_value_loads_or_raises_model_error(value):
    try:
        bundle = load_model(json.dumps(value))
    except ModelError:
        return
    assert bundle["kind"] == value["kind"]
    assert bundle["algebra"].dim == value["dim"]


def test_import_loads_no_scipy():
    # scipy is a test dependency only; the package must run on numpy alone
    env = {**os.environ, "PYTHONPATH": str(Path(pl.__file__).resolve().parents[1])}
    subprocess.run([sys.executable, "-c",
                    "import polaris, sys; assert 'scipy' not in sys.modules"],
                   env=env, check=True)


# -- catalog ---------------------------------------------------------------------

def test_catalog_has_expected_entries():
    entries = catalog_list()
    assert len(entries) >= 8
    names = {e.name for e in entries}
    assert {"su2_adjoint", "so3_sym_traceless", "su2_diag_double",
            "hopf_s1_s3", "so2_s2", "t2_cp2", "hermann_su3",
            "so3_s2xs2"} <= names


def test_catalog_irrational_radius_default():
    assert abs(R_PRODUCT ** 2 - np.sqrt(2.0)) < 1e-15


def test_catalog_entries_reconstruct_and_validate():
    for entry in catalog_list():
        bundle = entry.build()
        if bundle.get("rep") is not None:
            bundle["rep"].validate()
        if bundle.get("pair") is not None:
            bundle["pair"].validate()


# -- analyze + emit -----------------------------------------------------------------

def test_analyze_hopf_oneill_near_four(bundles):
    report = analyze("hopf_s1_s3", checks=["oneill"], seed=0)
    rec = report.records[0]
    assert rec.status == "pass"
    assert abs(rec.verdict - 4.0) < 1e-2


def test_analyze_hermann_hyperpolar():
    report = analyze("hermann_su3", checks=["hyperpolarity"], seed=0)
    assert report.status == "pass"
    assert report.records[0].verdict is True


def test_analyze_diag_double_polarity_witness():
    report = analyze("su2_diag_double", checks=["polarity"], seed=0)
    rec = report.records[0]
    assert rec.verdict is False
    assert rec.status == "pass"                 # expected value: not polar
    assert abs(rec.value["witness"]["pairing"]) > 1e-6


def test_analyze_inapplicable_check_is_skipped():
    report = analyze("t2_cp2", checks=["oneill"], seed=0)
    assert report.records[0].status == "skipped"
    assert report.status == "pass"


def test_analyze_empty_checks_passes():
    report = analyze("su2_adjoint", checks=[], seed=0)
    assert report.records == []
    assert report.status == "pass"


def test_emit_json_text_same_verdicts():
    report = analyze("hermann_su3", seed=0)
    doc = json.loads(emit_report(report, "json"))
    text = emit_report(report, "text")
    assert doc["schema"] == 1
    assert doc["status"] == "pass"
    for rec in doc["records"]:
        assert f"{rec['check']}" in text
        assert rec["residual"] is None or rec["residual"] <= rec["tolerance"] \
            or rec["status"] != "pass" or rec["check"] == "polarity"


def test_emit_rejects_unknown_format():
    report = AnalysisReport("x", [], "pass")
    with pytest.raises(ModelError):
        emit_report(report, "yaml")


def test_residuals_below_tolerance_when_pass():
    report = analyze("su2_adjoint", seed=0)
    for rec in report.records:
        if rec.status == "pass" and rec.tolerance and rec.verdict is True:
            assert rec.residual <= rec.tolerance


# -- command line -----------------------------------------------------------------------

def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "hermann_su3" in out


def test_cli_analyze_entry_exit_codes(capsys, tmp_path):
    code = main(["analyze", "--entry", "hermann_su3", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert main(["analyze", "--entry", "nonsense"]) == 2


@pytest.mark.parametrize("value", ["0.05", "-1e-3", "nan", "inf", "0"])
def test_cli_rejects_unusable_step(capsys, value):
    code = main(["analyze", "--entry", "hopf_s1_s3", "--checks", "jacobi-scan",
                 f"--step={value}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: --step")
    assert captured.out == ""


@pytest.mark.parametrize("value", ["0", "-1e-8", "nan", "inf"])
def test_cli_rejects_unusable_tol(capsys, value):
    code = main(["analyze", "--entry", "hopf_s1_s3", "--checks", "jacobi-scan",
                 f"--tol={value}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: --tol")
    assert captured.out == ""


def test_cli_model_file_roundtrip(tmp_path, capsys):
    path = tmp_path / "torus.json"
    path.write_text(json.dumps(minimal_torus_doc()))
    code = main(["analyze", "--model", str(path), "--checks", "polarity",
                 "--text"])
    out = capsys.readouterr().out
    assert code == 0                      # polarity inapplicable: skipped
    assert "skipped" in out


def test_cli_failing_check_exits_one(tmp_path, capsys):
    # a representation model without catalog expectations: non-polar fails
    from polaris.catalog import catalog_entry
    rep = catalog_entry("su2_diag_double").build()["rep"]
    doc = {
        "schema": 1, "kind": "representation", "dim": 3,
        "structure": [[1, 2, 3, 1.0], [2, 3, 1, 1.0], [1, 3, 2, -1.0]],
        "generators": [g.reshape(-1).tolist() for g in rep.generators],
        "manifold": {"kind": "euclidean"},
    }
    path = tmp_path / "diag.json"
    path.write_text(json.dumps(doc))
    code = main(["analyze", "--model", str(path), "--checks", "polarity"])
    out = capsys.readouterr().out
    assert code == 1
    rec = json.loads(out)["records"][0]
    assert rec["verdict"] is False
    assert "witness" in rec["value"]


@pytest.mark.parametrize("source", ["entry", "model"])
def test_linear_checks_skip_a_product_of_spheres(source, tmp_path, capsys):
    # the diagonal SO(3) on R^3 + R^3 is not polar, its action on S^2 x S^2 is
    checks = ["--checks", "polarity,cohomogeneity,slice-scan,orbifold-points"]
    if source == "entry":
        args = ["--entry", "so3_s2xs2"]
    else:
        from polaris.catalog import catalog_entry
        rep = catalog_entry("so3_s2xs2").build()["rep"]
        doc = dict(cyclic_su2_doc(), kind="representation",
                   generators=[g.reshape(-1).tolist() for g in rep.generators],
                   manifold={"kind": "product-spheres", "radii": [1.0, R_PRODUCT],
                             "split": [3, 3]})
        path = tmp_path / "s2xs2.json"
        path.write_text(json.dumps(doc))
        args = ["--model", str(path)]
    code = main(["analyze", *args, *checks])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["status"] == "pass"
    assert [r["status"] for r in doc["records"]] == ["skipped"] * 4
    assert all("product-spheres" in r["value"]["reason"] for r in doc["records"])


def test_cli_indeterminate_verdict_is_a_record(capsys):
    # residual 5.7e-18 lies between --tol and the witness floor
    code = main(["analyze", "--entry", "su2_adjoint", "--checks", "polarity",
                 "--tol", "1e-20"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 3
    assert doc["status"] == "indeterminate"
    (rec,) = doc["records"]
    assert rec["status"] == "indeterminate" and rec["verdict"] is None
    assert "witness floor" in rec["value"]["reason"]


def test_cli_indeterminate_keeps_every_entry(capsys):
    code = main(["analyze", "--entry", "all", "--checks", "polarity", "--tol", "1e-20"])
    doc = json.loads(capsys.readouterr().out)
    assert [r["entry"] for r in doc["reports"]] == [e.name for e in catalog_list()]
    assert all(len(r["records"]) == 1 for r in doc["reports"])
    statuses = [r["records"][0]["status"] for r in doc["reports"]]
    assert "indeterminate" in statuses
    assert code == (1 if "fail" in statuses else 3)


def _roots_fail_once(monkeypatch):
    """Make the first restricted_roots call raise a library error."""
    real = cli.restricted_roots
    calls = []

    def failing(pair, a, seed=0):
        calls.append(seed)
        if len(calls) == 1:
            raise WeylError("eigenvalue clustering ambiguous: centers -1.000e-06 and "
                            "0.000e+00 separated by 1.000e-06 (tol 1.0e-06)")
        return real(pair, a, seed)

    monkeypatch.setattr(cli, "restricted_roots", failing)


def test_cli_library_error_is_a_record(capsys, monkeypatch):
    _roots_fail_once(monkeypatch)
    code = main(["analyze", "--entry", "so3_sym_traceless", "--checks", "weyl"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 4 and doc["status"] == "error"
    (rec,) = doc["records"]
    assert rec["status"] == "error" and rec["verdict"] is None
    assert "clustering ambiguous" in rec["value"]["reason"]


def test_cli_library_error_keeps_every_entry(capsys, monkeypatch):
    _roots_fail_once(monkeypatch)
    code = main(["analyze", "--entry", "all", "--checks", "weyl"])
    doc = json.loads(capsys.readouterr().out)
    assert [r["entry"] for r in doc["reports"]] == [e.name for e in catalog_list()]
    assert all(len(r["records"]) == 1 for r in doc["reports"])
    statuses = [r["records"][0]["status"] for r in doc["reports"]]
    assert statuses.count("error") == 1 and "fail" not in statuses
    assert code == 4


def test_cli_out_file(tmp_path):
    target = tmp_path / "report.json"
    code = main(["analyze", "--entry", "hermann_su3", "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["entry"] == "hermann_su3"


def test_cli_seed_env_var_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("POLARIS_SEED", "11")
    main(["analyze", "--entry", "hermann_su3", "--checks", "polarity"])
    out_env = json.loads(capsys.readouterr().out)
    assert out_env["records"][0]["seed"] == 11
    main(["analyze", "--entry", "hermann_su3", "--checks", "polarity",
          "--seed", "4"])
    out_flag = json.loads(capsys.readouterr().out)
    assert out_flag["records"][0]["seed"] == 4


def test_determinism_modulo_timing():
    def stripped(report):
        doc = report.to_doc()
        for rec in doc["records"]:
            rec.pop("runtime")
        return json.dumps(doc, sort_keys=True)

    a = analyze("su2_diag_double", seed=7)
    b = analyze("su2_diag_double", seed=7)
    assert stripped(a) == stripped(b)
    c = analyze("hermann_su3", seed=3)
    d = analyze("hermann_su3", seed=3)
    assert stripped(c) == stripped(d)
