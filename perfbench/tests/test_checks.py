"""The benchmark's checks must reject corrupted outputs.

Run from the repo root:  python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import pytest  # noqa: E402

import checks  # noqa: E402
import jacobian  # noqa: E402
from wfano import catalog, symalg, symmetry  # noqa: E402


@pytest.fixture(scope="module")
def quick_catalog() -> str:
    return catalog.catalog_json(catalog.classify(catalog.SearchBounds(max_weight=10, max_degree=24)))


def test_true_catalog_passes(quick_catalog):
    assert checks.catalog_problems(quick_catalog, full=False) == []


def test_jobs2_catalog_with_a_record_dropped_fails(quick_catalog):
    payload = json.loads(quick_catalog)
    del payload["records"][3]
    dropped = catalog._canonical_json(payload)
    assert checks.same_catalog(quick_catalog, quick_catalog, "jobs=2 catalog") == []
    assert checks.same_catalog(quick_catalog, dropped, "jobs=2 catalog")


def test_basket_breaking_riemann_roch_fails(quick_catalog):
    records = json.loads(quick_catalog)["records"]
    rec = next(r for r in records if r["index"] == "1" and r["basket"])
    assert checks.riemann_roch_problems(rec) == []
    n, r, w = checks.parse_basket(rec["basket"][0])
    broken = dict(rec, basket=[f"{n + 1} x 1/{r}({w[0]},{w[1]},{w[2]})"] + rec["basket"][1:])
    assert checks.riemann_roch_problems(broken)


def test_basket_breaking_kawamata_fails(quick_catalog):
    rec = json.loads(quick_catalog)["records"][0]
    assert checks.kawamata_problems(dict(rec, basket=["17 x 1/2(1,1,1)"]))


def test_wrong_verdict_fails():
    quartic = (1, 1, 1, 1, 1, 4, 1)
    assert checks.verdict_problems({quartic: {3}, (1, 1, 1, 1, 1, 3, 2): {1, 2}}) == []
    assert checks.verdict_problems({quartic: {2}})
    assert checks.verdict_problems({(1, 1, 1, 1, 1, 3, 2): {2}})


def _certificate_fields(family: int, seed: int) -> dict:
    cert = symmetry.certify_trivial_automorphisms(family, seed)
    return dict(
        family=family,
        seed=seed,
        support=cert.support,
        reference=symalg.reference_support(family),
        eliminated=symalg.builtin_plan(family).eliminated(),
        free_rank=cert.group.free_rank,
        torsion=cert.group.torsion,
        involution=cert.has_involution,
        stabilizer_order=cert.stabilizer_order,
    )


def test_support_with_a_monomial_missing_fails():
    fields = _certificate_fields(28, 0)
    assert checks.reduce_outcome(**fields) == ("ok", [])
    missing = set(fields["support"])
    missing.remove(sorted(missing)[5])
    outcome, problems = checks.reduce_outcome(**dict(fields, support=frozenset(missing)))
    assert outcome == "wrong" and problems
    stale = frozenset(fields["support"] | {fields["eliminated"][0]})
    assert checks.reduce_outcome(**dict(fields, support=stale))[0] == "wrong"
    assert checks.reduce_outcome(**dict(fields, torsion=(2,)))[0] == "wrong"


def test_known_degenerate_draw_is_caught():
    # family 19, seed 35 loses y^3*z*t in reduction
    fields = _certificate_fields(19, 35)
    assert checks.reduce_outcome(**fields) == ("degenerate", [])
    # the listed draw must fail in exactly its listed way
    generic = dict(fields, support=fields["reference"])
    assert checks.reduce_outcome(**generic)[0] == "wrong"
    worse = frozenset(sorted(fields["support"])[1:])
    assert checks.reduce_outcome(**dict(fields, support=worse))[0] == "wrong"
    assert checks.reduce_outcome(**dict(fields, stabilizer_order=2))[0] == "wrong"


def test_jacobian_certificate_separates_smooth_from_singular():
    fermat = {tuple(3 * (i == k) for i in range(5)): 1 for k in range(5)}
    assert jacobian.certify(fermat, (1, 1, 1, 1, 1), 3)["quasismooth"]
    # x^3 + y^3 + z^3 + t^2*w: every partial vanishes at [0:0:0:0:1]
    cone = {(3, 0, 0, 0, 0): 1, (0, 3, 0, 0, 0): 1, (0, 0, 3, 0, 0): 1, (0, 0, 0, 2, 1): 1}
    cert = jacobian.certify(cone, (1, 1, 1, 1, 1), 3)
    assert not cert["quasismooth"]
    assert checks.member_problems("cone", cone, "quasismooth", None, cert)
    assert checks.member_problems("cone", cone, "singular", "[0:0:0:0:1]", cert) == []
    assert checks.member_problems("cone", cone, "singular", "[1:0:0:0:0]", cert)
    certified = {"quasismooth": True}
    assert checks.member_problems("fermat", fermat, "quasismooth", None, certified) == []
    assert checks.member_problems("fermat", fermat, "singular", None, certified)
    assert checks.member_problems("fermat", fermat, "indeterminate", None, certified)
    # a certified member outranks a witness, even one that passes mod p
    assert checks.member_problems("fermat", fermat, "singular", "[0:0:0:0:0] mod 7", certified)
    assert checks.member_problems("cone", cone, "indeterminate", None, cert)


def test_stored_certificates_belong_to_the_members():
    import workloads

    stored = json.loads(jacobian.STORE.read_text())
    for name, ws, f in workloads.member_inputs(quick=False):
        assert stored[name]["digest"] == jacobian.digest(f.terms)
        assert stored[name]["quasismooth"]
