import collections
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import polaris as pl
from polaris import cli, linalg, polarity, transversal
from polaris.catalog import R_PRODUCT, catalog_entry, catalog_list
from polaris.cli import AnalysisReport, ModelError, analyze, emit_report, \
    load_model, main
from polaris.symspace import ModelManifold
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


# positive definite with eigenvalues 1, 1e-10 and 1e-20: eigvalsh finds the
# least one positive, but np.linalg.cholesky fails on it
NEAR_SINGULAR_INNER = [
    [0.00915228696610982, 0.00763600007522639, 0.09492214757922747],
    [0.00763600007522639, 0.006370921034252128, 0.0791961098453337],
    [0.09492214757922747, 0.0791961098453337, 0.9844767920996376]]


def test_load_accepts_an_inner_that_cholesky_rejects():
    inner = NEAR_SINGULAR_INNER
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(np.array(inner))
    bundle = load_model({"schema": 1, "kind": "lie-algebra", "dim": 3, "structure": [],
                         "inner": inner, "subalgebra": [[1, 0, 0]]})
    (row,) = bundle["subalgebra"].basis
    assert abs(row @ np.array(inner) @ row - 1.0) < 1e-12
    assert np.max(np.abs(row[1:])) < 1e-6 * abs(row[0])


def test_slice_checks_pass_on_an_inner_that_cholesky_rejects(tmp_path, capsys):
    # three commuting plane rotations of R^6 under the near-singular inner:
    # every slice representation is computed in the algebra's eigh root
    gens = np.zeros((3, 6, 6))
    for k in range(3):
        gens[k, 2 * k + 1, 2 * k], gens[k, 2 * k, 2 * k + 1] = 1.0, -1.0
    doc = {"schema": 1, "kind": "representation", "dim": 3, "structure": [],
           "inner": NEAR_SINGULAR_INNER, "generators": gens.reshape(3, -1).tolist(),
           "manifold": {"kind": "euclidean"}}
    path = tmp_path / "near_singular.json"
    path.write_text(json.dumps(doc))
    code = main(["analyze", "--model", str(path)])
    report = json.loads(capsys.readouterr().out)
    status = {r["check"]: r["status"] for r in report["records"]}
    assert code == 0 and report["status"] == "pass"
    assert status["slice-scan"] == status["orbifold-points"] == "pass"


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


def test_load_zero_dimensional_symmetric_pair_document():
    # loads as a dim-0 lie-algebra does; analyze then ends in records
    bundle = load_model({"schema": 1, "kind": "symmetric-pair", "dim": 0,
                         "involution": []})
    assert bundle["pair"].k.dim == bundle["pair"].p.dim == 0
    ran = [r for r in analyze(bundle).records if r.status != "skipped"]
    assert [(r.check, r.status) for r in ran] == [("cartan-probe", "error")]
    assert ran[0].value["reason"].startswith("p is trivial")


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
    # the unit sphere of R^0 is empty
    ({"schema": 1, "kind": "representation", "dim": 0, "generators": [],
      "manifold": {"kind": "sphere"}}, "manifold"),
    # the unit sphere is kind "sphere"; there is no alias
    ({**circle_rep_doc(), "manifold": {"kind": "unit-sphere"}}, "manifold"),
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


def test_python_dash_m_runs_the_command_line():
    env = {**os.environ, "PYTHONPATH": str(Path(pl.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-m", "polaris", "list"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0
    assert "hermann_su3" in done.stdout


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


def test_catalog_shares_pairs_but_not_bundles():
    entry = catalog_entry("hermann_su3")
    first, second = entry.build(), entry.build()
    pair = first["pair"]
    assert second["pair"] is pair
    for arr in (pair.algebra.structure, pair.algebra.inner, pair.involution,
                pair.k.basis, pair.p.basis):
        assert not arr.flags.writeable
    first["pair"] = None
    first["subalgebra"] = None
    third = entry.build()
    assert third is not first and third["pair"] is pair
    assert third["subalgebra"] is not None


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


@pytest.mark.parametrize("argv, env", [(["--seed", "-1"], None), ([], "-3"), ([], "abc")])
def test_cli_rejects_unusable_seed(capsys, monkeypatch, argv, env):
    if env is not None:
        monkeypatch.setenv("POLARIS_SEED", env)
    code = main(["analyze", "--entry", "su2_adjoint", "--checks", "polarity", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert captured.out == ""


def test_analyze_rejects_negative_seed():
    with pytest.raises(ModelError):
        analyze("su2_adjoint", ["polarity"], seed=-1)


@pytest.mark.parametrize("name, tangency", [("su2_adjoint", True), ("su2_diag_double", False)])
def test_a_far_basepoint_decides_variational_completeness(name, tangency):
    # the eigenfields vanish 1e4 times farther out than from the catalog
    # basepoint; the initial-data tests take no scan to reach them, and their
    # verdicts do not depend on the scale of the basepoint
    bundle = catalog_entry(name).build()
    point = 1e4 * bundle["basepoint"]
    bundle.update(basepoint=point, direction=-point / np.linalg.norm(point))
    (rec,) = analyze(bundle, ["variational-completeness"]).records
    assert rec.status == "pass"
    assert rec.verdict == {"probe": True, "eigenfield_tangency": tangency}


def analyze_all_without_runtime(seed, threads):
    env = {**os.environ, "PYTHONPATH": str(Path(pl.__file__).resolve().parents[1]),
           "OMP_NUM_THREADS": str(threads), "OPENBLAS_NUM_THREADS": str(threads)}
    done = subprocess.run([sys.executable, "-m", "polaris", "analyze", "--entry", "all",
                           "--seed", str(seed)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout)
    for report in doc["reports"]:
        for rec in report["records"]:
            rec.pop("runtime")
    return json.dumps(doc, sort_keys=True)


@pytest.mark.parametrize("seed", [0, 1])
def test_reports_do_not_depend_on_the_blas_threads(seed):
    assert analyze_all_without_runtime(seed, 1) == analyze_all_without_runtime(seed, 2)


def test_row_space_failure_ends_in_error_records(monkeypatch):
    # with no sweep allowed the row-space rotations always fail to converge;
    # variational completeness, decided on initial data, takes no row space
    monkeypatch.setattr(linalg, "JACOBI_SWEEPS", 0)
    report = analyze("su2_adjoint", ["variational-completeness", "transversal"])
    assert [r.status for r in report.records] == ["pass", "error"]
    assert "did not converge" in report.records[1].value["reason"]


def fail_svd_called_from(monkeypatch, function):
    """Make np.linalg.svd raise when ``function`` calls it directly."""
    svd = np.linalg.svd

    def failing(*args, **kwargs):
        if sys._getframe(1).f_code is function.__code__:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing)


def test_lapack_failure_in_focal_points_ends_in_an_error_record(monkeypatch):
    # the grid pass of the focal scan
    fail_svd_called_from(monkeypatch, transversal._grid_singular_values)
    (rec,) = analyze("su2_adjoint", ["jacobi-scan"]).records
    assert rec.status == "error"
    assert rec.value == {"reason": "SVD did not converge"}


def test_lapack_failure_in_focal_refinement_ends_in_an_error_record(monkeypatch):
    # the lockstep Newton refinement of the focal scan
    fail_svd_called_from(monkeypatch, transversal._refine_minima)
    (rec,) = analyze("su2_adjoint", ["jacobi-scan"]).records
    assert rec.status == "error"
    assert rec.value == {"reason": "SVD did not converge"}


@pytest.mark.parametrize("entry, name, point, reason", [
    ("su2_adjoint", "bad", [np.nan, 0.0, 1.0], "coordinates must be finite"),
    ("su2_adjoint", "short", [1.0, 0.0], "expected 3 coordinates"),
    ("hopf_s1_s3", "off", [2.0, 0.0, 0.0, 0.0], "not on the unit sphere"),
])
def test_bad_designated_orbifold_point_is_an_error_record_naming_it(entry, name, point, reason):
    bundle = catalog_entry(entry).build()
    checks = ["slice-scan", "orbifold-points"]
    clean = analyze(bundle, checks).records[0]
    scan, orbifold = analyze(dict(bundle, orbifold_points={name: point}), checks).records
    assert orbifold.status == "error"
    assert f"designated orbifold point {name!r}" in orbifold.value["reason"]
    assert reason in orbifold.value["reason"]
    # slice-scan is what it is without the bad point
    assert (scan.status, scan.verdict, scan.value, scan.residual) == \
        (clean.status, clean.verdict, clean.value, clean.residual)


def test_default_direction_on_a_product_of_spheres_is_tangent():
    # the default normal avoids the radial row of each sphere factor
    bundle = dict(catalog_entry("so3_s2xs2").build(), direction=None)
    checks = ["jacobi-scan", "variational-completeness", "transversal"]
    scan, vc, trans = analyze(bundle, checks).records
    assert [r.status for r in (scan, vc, trans)] == ["pass"] * 3
    assert scan.verdict == {"focal": [[1.202235, 1]]}


def test_jacobi_scan_reports_focal_scan_counters():
    (rec,) = analyze("su2_adjoint", ["jacobi-scan"]).records
    counters = rec.value["focal_scan"]
    assert set(counters) == {"grid_points", "decomposed", "refinements",
                             "refinement_rounds"}
    assert (counters["grid_points"], counters["refinements"]) == (3143, 1)
    assert 1 <= counters["refinement_rounds"] <= 4


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


# -- shared work within an analyze call --------------------------------------------

@pytest.mark.parametrize("entry", ["su2_adjoint", "so3_sym_traceless"])
def test_an_analyze_call_builds_each_shared_intermediate_once(entry, monkeypatch):
    calls, groups = collections.Counter(), []

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            out = real(*args, **kwargs)
            if name == "_slices":
                groups.extend(out[1])
            return out

        monkeypatch.setattr(module, name, counted)

    for module, name in ((polarity, "_regular_draws"), (polarity, "_slices"),
                         (cli, "restricted_roots"), (cli, "weyl_group_closure")):
        count(module, name)
    report = analyze(entry)
    assert report.status == "pass"
    assert {"polarity", "cohomogeneity", "slice-scan", "orbifold-points", "weyl",
            "reduction-isometry"} <= {r.check for r in report.records}
    # one regular-point search for the representation and one per slice group
    assert calls == {"_regular_draws": 1 + len(groups), "_slices": 1,
                     "restricted_roots": 1, "weyl_group_closure": 1}


GEODESIC_CHECKS = ["jacobi-scan", "variational-completeness", "transversal"]


def record_docs(report):
    """Each record as canonical JSON, runtime aside (NaN tolerances compare)."""
    out = []
    for rec in report.to_doc()["records"]:
        rec.pop("runtime")
        out.append(json.dumps(rec, sort_keys=True))
    return out


def test_geodesic_checks_share_one_geodesic(monkeypatch):
    bundle = catalog_entry("so3_s2xs2").build()
    before = dict(bundle)
    arrays = {k: v.copy() for k, v in bundle.items() if isinstance(v, np.ndarray)}
    builds, grid_evaluations = [], []

    def counting_geodesic(*args, **kwargs):
        builds.append(kwargs.get("step"))
        return transversal.OrbitGeodesic(*args, **kwargs)

    real_closed_form = transversal._closed_form

    def counting_closed_form(geod, a, b, times, derivative=False):
        if times is geod.times:
            grid_evaluations.append((derivative, a.shape[1]))
        return real_closed_form(geod, a, b, times, derivative)

    # without a step all three checks run at 1e-3; a coarser step is capped
    # at 1e-3 for transversal only, which then gets its own geodesic
    for step, steps in ((None, [1e-3]), (2e-3, [1e-3, 2e-3])):
        singles = [record_docs(analyze(bundle, [check], step=step))[0]
                   for check in GEODESIC_CHECKS]
        builds.clear()
        grid_evaluations.clear()
        with monkeypatch.context() as patch:
            patch.setattr(cli, "OrbitGeodesic", counting_geodesic)
            patch.setattr(transversal, "_closed_form", counting_closed_form)
            shared = analyze(bundle, GEODESIC_CHECKS, step=step)
        assert sorted(builds) == steps
        # the basis fields over the grid are evaluated once, for transversal's
        # geodesic, and their derivatives never over the grid: only at the
        # few times read; jacobi-scan solves its one cross-check field there,
        # values only
        basis = [derivative for derivative, fields in grid_evaluations if fields > 1]
        single = [(derivative, fields) for derivative, fields in grid_evaluations
                  if fields == 1]
        assert (basis, single) == ([False], [(False, 1)])
        assert record_docs(shared) == singles
    assert bundle.keys() == before.keys()
    assert all(bundle[k] is before[k] for k in before)
    assert all(np.array_equal(bundle[k], v) for k, v in arrays.items())


def test_a_geodesic_without_transversal_evaluates_no_basis_over_the_grid(monkeypatch):
    # jacobi-scan solves its one cross-check field over the grid, values
    # only; the focal refinement reads the basis derivatives at a few
    # candidate times only
    real_closed_form = transversal._closed_form
    calls = []

    def counting_closed_form(geod, a, b, times, derivative=False):
        if times is geod.times:
            calls.append((derivative, a.shape[1]))
        return real_closed_form(geod, a, b, times, derivative)

    monkeypatch.setattr(transversal, "_closed_form", counting_closed_form)
    report = analyze("su2_diag_double", ["jacobi-scan", "variational-completeness"])
    assert [r.status for r in report.records] == ["pass", "pass"]
    assert calls == [(False, 1)]


def test_a_geodesic_holds_its_points_and_frames_at_the_basepoint_only(monkeypatch):
    # the whole-grid gamma, gamma' and parallel frames are never built: the
    # fields start from the basepoint frame, and gamma' is constant in it
    times = []
    for name in ("geodesic", "parallel_frames"):
        def counted(self, p, v, t, _real=getattr(ModelManifold, name), _name=name):
            if sys._getframe(1).f_code is transversal.OrbitGeodesic.__init__.__code__:
                times.append((_name, len(t)))
            return _real(self, p, v, t)
        monkeypatch.setattr(ModelManifold, name, counted)
    for entry in GEODESIC_ENTRIES:
        report = analyze(entry, GEODESIC_CHECKS)
        assert all(r.status != "error" for r in report.records), entry
    assert times and all(count == 1 for _, count in times)


SANE_STEPS = st.none() | st.floats(1e-3, 1e-2)
HOSTILE_STEPS = st.sampled_from([0.0, -1e-3, 0.011, float("nan"), float("inf")])
SANE_TOLS = st.none() | st.floats(1e-10, 1e-2)
HOSTILE_TOLS = st.sampled_from([0.0, -1.0, float("nan"), 1e300])


@settings(max_examples=30, deadline=None)
@given(entry=st.sampled_from([e.name for e in catalog_list()]),
       checks=st.lists(st.sampled_from(cli.ALL_CHECKS), min_size=2, unique=True),
       seed=st.integers(0, 2 ** 16), tol=SANE_TOLS | HOSTILE_TOLS,
       step=SANE_STEPS | HOSTILE_STEPS)
def test_checks_end_in_the_records_of_one_check_calls(entry, checks, seed, tol, step):
    report = analyze(entry, checks, seed=seed, tol=tol, step=step)
    assert [r.check for r in report.records] == checks
    singles = [record_docs(analyze(entry, [c], seed=seed, tol=tol, step=step))[0]
               for c in checks]
    assert record_docs(report) == singles


GEODESIC_ENTRIES = ["su2_adjoint", "so3_sym_traceless", "su2_diag_double",
                    "hopf_s1_s3", "so2_s2", "so3_s2xs2"]


@pytest.mark.parametrize("field, value", [("basepoint", [np.nan, 0.64, 0.48]),
                                          ("basepoint", [np.inf, 0.64, 0.48]),
                                          ("direction", [np.nan, 0.0, 0.0])])
def test_non_finite_geodesic_input_ends_in_error_records(field, value):
    bundle = dict(catalog_entry("su2_adjoint").build(), **{field: np.array(value)})
    report = analyze(bundle, GEODESIC_CHECKS)
    assert [r.status for r in report.records] == ["error"] * 3
    assert all("must be finite" in r.value["reason"] for r in report.records)


def test_oversized_grid_ends_in_error_records():
    bundle = dict(catalog_entry("hopf_s1_s3").build(), span=(0.0, 1e9))
    report = analyze(bundle, GEODESIC_CHECKS)
    assert [r.status for r in report.records] == ["error"] * 3
    assert all("MAX_GRID_ENTRIES" in r.value["reason"] for r in report.records)


@pytest.mark.parametrize("seed", [0, 1])
def test_scan_and_vc_pass_where_only_transversal_exceeds_the_budget(seed):
    # ad so(10) on R^45 at the default step: 3143 grid times fit as n_t x D,
    # only the transversal stacks' n_t x D^2 exceed MAX_GRID_ENTRIES
    alg = pl.build_classical("special-orthogonal", 10)
    rep = polarity.OrthogonalRep(alg, alg.ad(np.eye(alg.dim)), alg.dim, name="ad_so10")
    point = polarity.find_regular_point(rep, seed)
    bundle = {"rep": rep, "manifold": ModelManifold("euclidean", rep.space_dim),
              "basepoint": point / np.linalg.norm(point)}
    report = analyze(bundle, GEODESIC_CHECKS, seed=seed)
    assert [r.status for r in report.records] == ["pass", "pass", "error"]
    assert "MAX_GRID_ENTRIES" in report.records[2].value["reason"]
    if seed == 1:
        # the second focal pass alone holds more than MAX_GRID_ENTRIES entries,
        # so it runs in blocks
        scan = report.records[0].value["focal_scan"]
        n = scan["grid_points"]
        coarse = np.unique(np.r_[0:n:transversal.FOCAL_COARSE_STRIDE, n - 1]).shape[0]
        assert (scan["decomposed"] - coarse) * rep.space_dim ** 2 > transversal.MAX_GRID_ENTRIES


SPAN_ENDS = st.sampled_from([-np.inf, np.inf, np.nan, 1e9, 0.0])


@settings(max_examples=60, deadline=None)
@given(entry=st.sampled_from(GEODESIC_ENTRIES),
       checks=st.lists(st.sampled_from(GEODESIC_CHECKS), min_size=1, max_size=3, unique=True),
       data=st.data())
def test_hostile_geodesic_fields_end_in_records(entry, checks, data):
    bundle = catalog_entry(entry).build()
    point = bundle["basepoint"].copy()
    for i in data.draw(st.lists(st.integers(0, point.size - 1), unique=True)):
        point[i] = data.draw(st.sampled_from([np.nan, np.inf, 1e300]))
    bundle["basepoint"] = point
    if data.draw(st.booleans()):
        bundle["direction"] = np.full(point.size, np.nan)
    if data.draw(st.booleans()):
        bundle["span"] = (data.draw(SPAN_ENDS), data.draw(SPAN_ENDS))
    step = data.draw(st.sampled_from([None, 1e-12, 1e-9]))
    t0 = time.perf_counter()
    report = analyze(bundle, checks, step=step)
    assert time.perf_counter() - t0 < 10
    assert [r.check for r in report.records] == checks
    assert {r.status for r in report.records} <= {"pass", "fail", "skipped",
                                                   "indeterminate", "error"}


OTHER_CHECKS = [c for c in cli.ALL_CHECKS if c not in GEODESIC_CHECKS]


@settings(max_examples=40, deadline=None)
@given(entry=st.sampled_from([e.name for e in catalog_list()]),
       checks=st.lists(st.sampled_from(OTHER_CHECKS), min_size=1, max_size=4, unique=True),
       seed=st.integers(0, 2 ** 16), tol=SANE_TOLS | HOSTILE_TOLS)
def test_other_checks_end_in_records(entry, checks, seed, tol):
    report = analyze(entry, checks, seed=seed, tol=tol)
    assert [r.check for r in report.records] == checks
    assert {r.status for r in report.records} <= {"pass", "fail", "skipped",
                                                   "indeterminate", "error"}
