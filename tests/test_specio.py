import ast
import inspect
import io
import json
import math
import pathlib

import numpy as np
import pytest

from yamabe import families, specio
from yamabe.catalog import build_example
from yamabe.errors import EvaluationError, SpecValidationError
from yamabe.geodesics import geodesic_rhs, integrate_geodesic
from yamabe.geometry import SignatureSpec
from yamabe.profiles import Interval, Profile, grid_points

BASE_DOC = {
    "n": 5, "d": 1,
    "alpha": [1.0, 0.0, 0.0, 0.0, 0.0],
    "domain": [0.0, 40.0],
    "profiles": {"phi": "sqrt(xi/20)", "f": "sqrt(20/xi)", "h": "20*ln(xi)"},
}


def doc_with(**overrides):
    doc = json.loads(json.dumps(BASE_DOC))
    doc.update(overrides)
    return doc


def family_doc_with(family, **overrides):
    doc = doc_with(domain=[1.0, 40.0], family=family, **overrides)
    del doc["profiles"]
    return doc


# per family: document parameters, lambda_f, (n, d), domain, and the same
# spec built by calling the constructor (ex compiles an expression)
FAMILY_CASES = {
    "thm15": ({"k1": 1.0, "k2": 1.0, "k3": -0.2}, -0.5, (3, 3), (-0.3, 0.4),
              lambda ex, **kw: families.family_thm15(1.0, 1.0, -0.2,
                                                     lambda_f=-0.5, **kw)),
    "thm16": ({"k1": 1.0, "k2": 1.0, "k3": -0.05}, 0.0, (5, 1), (0.1, 2.0),
              lambda ex, **kw: families.family_thm16(1.0, 1.0, -0.05, **kw)),
    "thm17": ({"phi": "1/cos(xi)", "z_p": "-1/2", "C": 1.0}, 0.0, (4, 3),
              (-1.4, 1.4),
              lambda ex, **kw: families.family_thm17(
                  ex("1/cos(xi)"), ex("-1/2"), 1.0, **kw)),
    "thm18": ({"phi": "exp(xi)", "f": "1+xi^2", "k1": 1.0}, 0.0, (4, 2),
              (-1.0, 1.0),
              lambda ex, **kw: families.family_thm18(
                  ex("exp(xi)"), ex("1+xi^2"), 1.0, **kw)),
    "almost-lightlike": (
        {"phi": "exp(xi)", "f": "1+xi^2", "k1": 1.0}, -2.0, (4, 2),
        (-1.0, 1.0),
        lambda ex, **kw: families.almost_soliton_lightlike(
            ex("exp(xi)"), ex("1+xi^2"), 1.0, -2.0, **kw)),
}


class TestLoadDocument:
    def test_minimal_document(self):
        spec, meta = specio.load_document(doc_with())
        assert spec.n == 5 and spec.d == 1
        assert spec.sig.epsilon == (1,) * 5      # default all +1
        assert spec.rho == 0.0 and spec.lambda_f == 0.0
        assert meta == {}
        assert spec.phi.value(20.0) == pytest.approx(1.0)

    def test_loads_from_text_path_and_file(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc_with(label="roundtrip")),
                        encoding="utf-8")
        by_path, _ = specio.load_document(str(path))
        with open(path, "r", encoding="utf-8") as fh:
            by_file, _ = specio.load_document(fh)
        for spec in (by_path, by_file):
            assert spec.label == "roundtrip"
        assert by_file.h.value(2.0) == by_path.h.value(2.0)

    def test_meta_settings(self):
        _, meta = specio.load_document(doc_with(tolerance=1e-6, grid=50))
        assert meta == {"tolerance": 1e-6, "grid": 50}

    def test_null_domain_endpoints(self):
        doc = doc_with(domain=[None, None],
                       profiles={"phi": "exp(xi)", "f": "1", "h": "xi"})
        spec, _ = specio.load_document(doc)
        assert spec.domain.lo == -math.inf and spec.domain.hi == math.inf
        doc = doc_with(domain=[0.0, None],
                       profiles={"phi": "sqrt(xi)", "f": "1", "h": "xi"})
        spec, _ = specio.load_document(doc)
        assert spec.domain.lo == 0.0 and spec.domain.hi == math.inf

    @pytest.mark.parametrize("mutate, key", [
        (dict(n=2), "n"),
        (dict(d=0), "d"),
        (dict(signature=[1, 1, 1]), "signature"),
        (dict(signature=[1, 1, 1, 1, 2]), "signature"),
        (dict(alpha=[1.0, 0.0]), "alpha"),
        (dict(alpha=[0.0, 0.0, 0.0, 0.0, 0.0]), "alpha"),
        (dict(domain=[3.0]), "domain"),
        (dict(domain=[4.0, 1.0]), "domain"),
        (dict(tolerance=0.0), "tolerance"),
        (dict(tolerance="tight"), "tolerance"),
        (dict(grid=1), "grid"),
        (dict(rho="flat"), "rho"),
        (dict(label=7), "label"),
        (dict(tolerance=math.inf), "tolerance"),
        (dict(rho=math.nan), "rho"),
        (dict(lambda_f=-math.inf), "lambda_f"),
        (dict(alpha=[math.nan, 0.0, 0.0, 0.0, 0.0]), "alpha"),
        (dict(alpha=[1.0, 0.0, 0.0, 0.0, math.inf]), "alpha"),
        (dict(alpha=["1", 0.0, 0.0, 0.0, 0.0]), "alpha"),
        (dict(domain=["a", 2.0]), "domain"),
        (dict(domain=[math.nan, 2.0]), "domain"),
        (dict(domain=[0.0, math.inf]), "domain"),
        (dict(domain=[True, 2.0]), "domain"),
    ])
    def test_validation_names_the_field(self, mutate, key):
        with pytest.raises(SpecValidationError) as err:
            specio.load_document(doc_with(**mutate))
        assert err.value.key == key

    def test_missing_required_fields(self):
        doc = doc_with()
        del doc["n"]
        with pytest.raises(SpecValidationError, match="missing"):
            specio.load_document(doc)
        doc = doc_with()
        del doc["profiles"]
        with pytest.raises(SpecValidationError,
                           match="exactly one of 'profiles' and 'family'"):
            specio.load_document(doc)

    def test_profiles_and_family_are_exclusive(self):
        doc = doc_with(family={"id": "thm16", "k1": 1.0, "k2": 1.0})
        with pytest.raises(SpecValidationError,
                           match="exactly one of 'profiles' and 'family'"):
            specio.load_document(doc)

    def test_bad_expression_names_the_profile(self):
        doc = doc_with(profiles={"phi": "sqrt(xi", "f": "1", "h": "xi"})
        with pytest.raises(SpecValidationError) as err:
            specio.load_document(doc)
        assert err.value.key == "profiles.phi"

    def test_json_non_finite_tokens_rejected(self):
        text = json.dumps(doc_with(tolerance=1e-6)).replace("1e-06",
                                                            "Infinity")
        with pytest.raises(SpecValidationError,
                           match="invalid field 'tolerance'"):
            specio.load_document(io.StringIO(text))

    def test_family_parameter_must_be_finite(self):
        doc = family_doc_with({"id": "thm16", "k1": math.nan, "k2": 1.0})
        with pytest.raises(SpecValidationError) as err:
            specio.load_document(doc)
        assert err.value.key == "family.k1"

    @pytest.mark.parametrize("doc, key", [
        (doc_with(tolerence=1e-30), "tolerence"),
        (family_doc_with({"id": "thm16", "k1": 1.0, "k2": 1.0,
                          "kk3": -0.05}), "family.kk3"),
        (doc_with(profiles=dict(BASE_DOC["profiles"], rho="1")),
         "profiles.rho"),
    ], ids=["top-level", "family", "profiles"])
    def test_unknown_field_is_rejected(self, doc, key):
        # each document certifies once the misspelt key is dropped
        with pytest.raises(SpecValidationError) as err:
            specio.load_document(doc)
        assert str(err.value) == f"invalid field '{key}': unknown field"

    @pytest.mark.parametrize("family, key", [
        ({"id": "thm17", "phi": "1", "C": 1.0}, "family.z_p"),
        ({"id": "thm18", "phi": 3, "f": "1", "k1": 1.0}, "family.phi"),
    ], ids=["missing", "not-a-string"])
    def test_family_expression_errors_name_the_family_key(self, family, key):
        with pytest.raises(SpecValidationError) as err:
            specio.load_document(family_doc_with(family))
        assert err.value.key == key

    def test_bool_is_not_an_int(self):
        with pytest.raises(SpecValidationError) as err:
            specio.load_document(doc_with(n=True))
        assert err.value.key == "n"


class TestSharedProfiles:
    GROW = "exp(0.2*xi)"
    LIGHTLIKE = dict(n=4, d=2, signature=[-1, 1, 1, 1],
                     alpha=[1.0, 1.0, 0.0, 0.0])

    def test_equal_texts_are_one_profile(self):
        doc = doc_with(**self.LIGHTLIKE, profiles={
            "phi": self.GROW, "f": self.GROW, "h": "-2.5*exp(-0.4*xi)"})
        spec, _ = specio.load_document(doc)
        assert spec.phi is spec.f and spec.h is not spec.phi
        spec, _ = specio.load_document(family_doc_with(
            {"id": "thm18", "phi": self.GROW, "f": self.GROW, "k1": 1.0},
            **self.LIGHTLIKE))
        assert spec.phi is spec.f

    def test_one_jet_read_per_geodesic_rhs_call(self, monkeypatch):
        doc = doc_with(**self.LIGHTLIKE, profiles={
            "phi": self.GROW, "f": self.GROW, "h": "xi"})
        spec, _ = specio.load_document(doc)
        reads = []
        jet = Profile.jet

        def counted(profile, *args, **kwargs):
            reads.append(profile)
            return jet(profile, *args, **kwargs)

        monkeypatch.setattr(Profile, "jet", counted)
        rhs = geodesic_rhs(spec)
        state = np.array([0.1, 0.2, 0.0, 0.0, 0.3, -0.1, 0.0, 0.0,
                          0.0, 0.0, 0.2, 0.1])
        assert np.isfinite(rhs(0.0, state)).all()
        assert reads == [spec.phi]


def test_catalog_imports_neither_geometry_nor_profiles():
    """The catalog holds documents; load_document alone makes its specs."""
    tree = ast.parse(
        (pathlib.Path(specio.__file__).parent / "catalog.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["yamabe" if node.level else "",
                                          node.module]))
            imported.add(base)
            imported.update(f"{base}.{alias.name}" for alias in node.names)
    banned = ("yamabe.geometry", "yamabe.profiles")
    assert "yamabe.specio.load_document" in imported
    assert [name for name in imported if name.startswith(banned)] == []


class TestFamilyDocuments:
    def test_family_needs_finite_domain(self):
        doc = doc_with(domain=[0.0, None])
        del doc["profiles"]
        doc["family"] = {"id": "thm16", "k1": 1.0, "k2": 1.0}
        with pytest.raises(SpecValidationError, match="finite domain"):
            specio.load_document(doc)

    def test_family_rejects_nonzero_rho(self):
        doc = doc_with(domain=[1.0, 40.0], rho=1.0)
        del doc["profiles"]
        doc["family"] = {"id": "thm16", "k1": 1.0, "k2": 1.0}
        with pytest.raises(SpecValidationError) as err:
            specio.load_document(doc)
        assert err.value.key == "rho"

    @pytest.mark.parametrize("family", [
        {"id": "thm16", "k1": 1.0, "k2": 1.0},
        {"id": "thm18", "phi": "exp(0.2*xi)", "f": "exp(0.2*xi)", "k1": 1.0},
        {"id": "thm17", "phi": "1", "z_p": "0", "C": 1.0}])
    def test_scalar_flat_families_reject_nonzero_lambda_f(self, family):
        # these constructions build lambda_F = 0; a document saying otherwise
        # must not load as a different spec
        doc = {"n": 4, "d": 2, "signature": [-1, 1, 1, 1],
               "alpha": [1.0, 1.0, 0.0, 0.0]} if family["id"] == "thm18" \
            else doc_with()
        doc.pop("profiles", None)
        doc.update(domain=[1.0, 31.0], lambda_f=0.7, family=family)
        with pytest.raises(SpecValidationError) as err:
            specio.load_document(doc)
        assert err.value.key == "lambda_f"

    def test_unknown_family_id(self):
        doc = doc_with(domain=[1.0, 40.0])
        del doc["profiles"]
        doc["family"] = {"id": "thm99"}
        with pytest.raises(SpecValidationError) as err:
            specio.load_document(doc)
        assert err.value.key == "family.id"

    def test_thm16_roundtrip(self):
        built = families.family_thm16(1.0, 1.0, k3=0.0, k4=0.0,
                                      xi_range=(1.0, 40.0), n=5, d=1,
                                      run_certify=False)
        doc = specio.family_document(
            "thm16", {"k1": 1.0, "k2": 1.0, "k3": 0.0, "k4": 0.0},
            n=5, d=1, sig=built.sig, alpha=built.direction.alpha,
            lambda_f=built.lambda_f, domain=(1.0, 40.0), label=built.label)
        reloaded, _ = specio.load_document(json.loads(json.dumps(doc)))
        assert reloaded.label == built.label
        assert reloaded.lambda_f == built.lambda_f
        for xi in np.linspace(1.5, 39.0, 9):
            assert reloaded.phi.value(xi) == pytest.approx(
                built.phi.value(xi), rel=1e-12)
            assert reloaded.f.value(xi) == pytest.approx(
                built.f.value(xi), rel=1e-12)
            assert reloaded.h.value(xi) == pytest.approx(
                built.h.value(xi), rel=1e-12)

    @pytest.mark.parametrize("fid", specio.FAMILY_IDS)
    def test_family_table_matches_its_constructor(self, fid):
        entry = specio.FAMILY_TABLE[fid]
        params = inspect.signature(entry.build).parameters
        keys = set(params) - {"xi_range", "n", "d", "sig", "alpha",
                              "lambda_f", "run_certify"}
        table_keys = entry.required + entry.optional
        assert sorted(table_keys) == sorted(keys)
        assert set(entry.required) == {
            key for key in keys
            if params[key].default is inspect.Parameter.empty}
        assert entry.scalar_flat == ("lambda_f" not in params)

    @pytest.mark.parametrize("fid", specio.FAMILY_IDS)
    def test_family_frame_matches_its_constructor_defaults(self, fid):
        entry = specio.FAMILY_TABLE[fid]
        params = inspect.signature(entry.build).parameters
        for key in ("n", "d"):
            if params[key].default is not inspect.Parameter.empty:
                assert getattr(entry, key) == params[key].default

    @pytest.mark.parametrize("fid", specio.FAMILY_IDS)
    def test_family_document_round_trip_is_bitwise(self, fid):
        params, lambda_f, (n, d), domain, build = FAMILY_CASES[fid]
        built = build(lambda text: Profile.from_expression(
                          text, Interval(*domain)),
                      xi_range=domain, n=n, d=d, run_certify=False)
        doc = specio.family_document(
            fid, params, n=n, d=d, sig=built.sig,
            alpha=built.direction.alpha, lambda_f=lambda_f, domain=domain)
        reloaded, _ = specio.load_document(json.loads(json.dumps(doc)))
        assert reloaded.lambda_f == built.lambda_f
        xs = grid_points(Interval(*domain), 50)
        for name in ("phi", "f", "h"):
            np.testing.assert_array_equal(
                np.array(getattr(reloaded, name).jet(xs)),
                np.array(getattr(built, name).jet(xs)), err_msg=name)

    @pytest.mark.parametrize("fid", specio.FAMILY_IDS)
    def test_family_document_label_names_the_spec(self, fid):
        """A family document's label is its spec's label; without one the
        spec keeps its constructor's label."""
        params, lambda_f, (n, d), domain, build = FAMILY_CASES[fid]
        built = build(lambda text: Profile.from_expression(
                          text, Interval(*domain)),
                      xi_range=domain, n=n, d=d, run_certify=False)
        doc = specio.family_document(
            fid, params, n=n, d=d, sig=built.sig,
            alpha=built.direction.alpha, lambda_f=lambda_f, domain=domain)
        assert specio.load_document(doc)[0].label == built.label
        doc["label"] = f"family-{fid}"
        assert specio.load_document(doc)[0].label == f"family-{fid}"

    def test_thm15_roundtrip_carries_variant(self):
        built = families.family_thm15(1.0, 1.0, -0.2, 0.0, lambda_f=-0.5,
                                      xi_range=(-0.4, 0.6), n=5, d=1,
                                      run_certify=False)
        doc = specio.family_document(
            "thm15",
            {"k1": 1.0, "k2": 1.0, "k3": -0.2, "k4": 0.0,
             "q_variant": "statement", "w_branch": "principal"},
            n=5, d=1, sig=built.sig, alpha=built.direction.alpha,
            lambda_f=-0.5, domain=(-0.4, 0.6))
        reloaded, _ = specio.load_document(doc)
        for xi in np.linspace(-0.3, 0.5, 7):
            assert reloaded.phi.value(xi) == pytest.approx(
                built.phi.value(xi), rel=1e-10)

    def test_integer_rho_document_loads(self):
        spec, _ = specio.load_document(json.loads(json.dumps(doc_with(rho=0))))
        assert spec.rho == 0.0 and isinstance(spec.rho, float)

    def test_floats_survive_json_roundtrip(self):
        values = [0.1, 1e-8, math.pi, 2.0 / 3.0, 1e300]
        for x in values:
            doc = specio.family_document(
                "thm18", {"k1": x, "phi": "1", "f": "2"},
                n=4, d=2, sig=SignatureSpec((-1, 1, 1, 1)),
                alpha=(1.0, 1.0, 0.0, 0.0), lambda_f=0.0, domain=(0.0, 1.0))
            back = json.loads(json.dumps(doc))
            assert back["family"]["k1"] == x          # repr round trip


class TestCsvWriters:
    def test_profile_csv(self):
        spec, _ = specio.load_document(doc_with())
        buf = io.StringIO()
        specio.write_profile_csv(spec, buf, grid=10)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "xi,phi,f,h"
        assert len(lines) == 11
        first = lines[1].split(",")
        assert len(first) == 4
        xi = float(first[0])
        assert first[1] == repr(math.sqrt(xi / 20.0))

    def test_profile_csv_custom_interval_is_clipped(self):
        spec, _ = specio.load_document(doc_with())
        buf = io.StringIO()
        specio.write_profile_csv(spec, buf, grid=5,
                                 interval=Interval(-5.0, 10.0))
        xis = [float(line.split(",")[0])
               for line in buf.getvalue().splitlines()[1:]]
        assert all(0.0 < xi <= 10.0 for xi in xis)

    @pytest.mark.parametrize("build", [
        lambda: specio.load_document(doc_with())[0],
        lambda: families.family_thm15(1.0, 1.0, -0.2, lambda_f=-0.5,
                                      xi_range=(-0.3, 0.4), n=3, d=3,
                                      run_certify=False),
    ], ids=["expression", "thm15"])
    def test_profile_csv_equals_point_by_point_rendering(self, build):
        spec = build()
        buf = io.StringIO()
        specio.write_profile_csv(spec, buf)
        expected = ["xi,phi,f,h"] + [
            ",".join(repr(float(v)) for v in (xi, spec.phi.value(xi),
                                              spec.f.value(xi),
                                              spec.h.value(xi)))
            for xi in grid_points(spec.domain, 200)]
        assert buf.getvalue() == "\n".join(expected) + "\n"

    def test_profile_csv_raises_where_a_profile_cannot_be_evaluated(self):
        doc = doc_with(profiles=dict(BASE_DOC["profiles"], f="sqrt(xi - 5)"))
        spec, _ = specio.load_document(doc)
        buf = io.StringIO()
        with pytest.raises(EvaluationError):
            specio.write_profile_csv(spec, buf, grid=10)
        assert buf.getvalue() == "xi,phi,f,h\n"

    def test_portrait_csv_blocks(self):
        trajectories = families.phase_portrait(
            [(1.0, 0.5), (1.5, 0.0)], (-0.3, 0.3), lambda_f=0.0,
            points_per_side=4)
        buf = io.StringIO()
        specio.write_portrait_csv(trajectories, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "xi,phi,dphi,status"
        assert "" in lines[1:]                      # blank separator line
        data = [ln for ln in lines[1:] if ln]
        statuses = {ln.split(",")[3] for ln in data}
        assert statuses <= {"ok", "stationary", "blowup", "positivity-loss"}

    def test_geodesic_csv_header(self):
        spec = build_example("example-5")
        res = integrate_geodesic(spec, np.zeros(4),
                                 [0.1, -0.1, 0.0, 0.0], [0.0, 0.0],
                                 [0.1, 0.0], s_span=(0.0, 1.0), samples=5)
        buf = io.StringIO()
        specio.write_geodesic_csv(res, 4, 2, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ("s,y_1,y_2,y_3,y_4,v_1,v_2,v_3,v_4,"
                            "yf_1,yf_2,vf_1,vf_2,status")
        assert len(lines) == 6
        assert lines[1].endswith(",completed")
        assert float(lines[1].split(",")[0]) == 0.0

