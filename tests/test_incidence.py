"""One double description per cone: the dual pair, the generator-facet
incidence it carries, the face lattices built from that incidence, and the
strata's incidence pairs read off the covers, against the two-DD
construction and the pairwise scans of tests/oracles.py."""

import json
import random
from pathlib import Path

import pytest

from conewh import cones
from conewh.cones import (
    Incidence,
    PolyhedralCone,
    cone_from_generators,
    cone_from_inequalities,
    dual_cone,
    face_lattice,
    is_pointed,
    negate_cone,
)
from conewh.errors import MembershipError
from conewh.exact import rank
from conewh.io import read_cone_spec
from conewh.presets import preset_spec
from conewh.strata import incidence_pairs, strata

from oracles import containment_pairs, pairwise_incidence, two_dd_cone

GOLDEN = Path(__file__).resolve().parent / "golden" / "specs"
CONE_SPECS = (
    [preset_spec("cones", name) for name in
     ("fourgonal-r3", "half-line", "quarter-plane", "simplicial-r3")]
    + [spec for spec in (json.loads(p.read_text()) for p in sorted(GOLDEN.glob("*.json")))
       if "generators" in spec or "inequalities" in spec])


def _scanned(cone):
    """The cone's pair with the incidence of the pairwise scan."""
    inc = cone.incidence
    return PolyhedralCone(cone.ambient_dim, cone.generators, cone.inequalities,
                          Incidence.from_generators(pairwise_incidence(cone),
                                                    len(cone.inequalities),
                                                    inc.pointed, inc.solid))


def _check_cone(cone, rays):
    """The pair of the one-DD construction against the two-DD one, its
    incidence, pointedness and solidity against the scans and ranks, and the
    lattices and incidence pairs built from it against those of the scan."""
    n = cone.ambient_dim
    assert (cone.generators, cone.inequalities) == two_dd_cone(rays, n)
    inc = cone.incidence
    assert inc.by_generator == pairwise_incidence(cone)
    assert inc.by_inequality == pairwise_incidence(dual_cone(cone))
    assert dual_cone(cone).incidence == inc.dual()
    assert inc.pointed == (rank(list(cone.inequalities)) == n)
    assert inc.solid == (rank(list(cone.generators)) == n)
    scanned = _scanned(cone)
    for built, oracle in ((cone, scanned), (dual_cone(cone), dual_cone(scanned))):
        if is_pointed(built):
            assert face_lattice(built) == face_lattice(oracle)
    if inc.pointed and inc.solid:
        st = strata(cone)
        for j in range(1, st.length + 1):
            ip = incidence_pairs(st, j)
            expected = containment_pairs(st, j)
            assert list(zip(ip.xi, ip.eta)) == expected
            assert ip.pairs == tuple((st.levels[j - 1][e], st.levels[j][f]) for e, f in expected)
            assert ip.uncovered == ()


@pytest.mark.parametrize("spec", CONE_SPECS, ids=[spec["name"] for spec in CONE_SPECS])
def test_golden_cones_match_two_dd_and_scans(spec):
    cone = read_cone_spec(spec)[1]
    if "generators" in spec:
        _check_cone(cone, spec["generators"])
    else:
        _check_cone(dual_cone(cone), spec["inequalities"])


def _random_rays(rng, kind):
    """(n, rays) of a seeded random cone of the given kind."""
    n = rng.choice((2, 3, 4))
    rays = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(1, 7))]
    rays = [r for r in rays if any(r)] or [(1,) + (0,) * (n - 1)]
    if kind == "polytope":          # pointed and, with n or more rays, mostly solid
        rays = [r[:-1] + (rng.randint(1, 3),) for r in rays * 2]
    elif kind == "redundant":
        rays += [tuple(a + b for a, b in zip(rays[0], rays[-1])), tuple(2 * c for c in rays[0])]
    elif kind == "duplicate":
        rays += [rays[0], tuple(3 * c for c in rays[-1]), rays[-1]]
    elif kind == "flat":            # inside a hyperplane: not solid
        rays = [r[:-1] + (0,) for r in rays if any(r[:-1])] or [(1,) + (0,) * (n - 1)]
    elif kind == "lineality":
        rays.append(tuple(-c for c in rays[0]))
    return n, rays


KINDS = ("polytope", "redundant", "duplicate", "flat", "lineality", "plain")


@pytest.mark.parametrize("seed", range(48))
def test_random_cones_match_two_dd_and_scans(seed):
    rng = random.Random(f"incidence-{seed}")
    kind = KINDS[seed % len(KINDS)]
    n, rays = _random_rays(rng, kind)
    cone = cone_from_generators(rays, n)
    _check_cone(cone, rays)
    # The same rows read as inequalities give the dual pair, with the dual incidence.
    hcone = cone_from_inequalities(rays, n)
    assert hcone == dual_cone(cone) and hcone.incidence == cone.incidence.dual()
    neg = negate_cone(cone)
    assert neg.incidence.by_generator == pairwise_incidence(neg)
    assert neg.incidence.by_inequality == pairwise_incidence(dual_cone(neg))
    assert (neg.incidence.pointed, neg.incidence.solid) == (
        cone.incidence.pointed, cone.incidence.solid)


def test_random_kinds_reach_both_routes():
    """The seeded cones hold pointed and solid cones, cones with lineality
    (the second DD), and cones that are not solid."""
    flags = set()
    for seed in range(48):
        n, rays = _random_rays(random.Random(f"incidence-{seed}"), KINDS[seed % len(KINDS)])
        inc = cone_from_generators(rays, n).incidence
        flags.add((inc.pointed, inc.solid))
    assert flags == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("rays, n, calls", [
    ([(1, 0), (0, 1), (1, 1)], 2, 1),               # pointed, with a redundant ray
    ([(1, 0, 0), (0, 1, 0)], 3, 1),                 # pointed, not solid
    ([], 3, 1),                                     # the zero cone
    ([(1, 0), (-1, 0), (0, 1)], 2, 2),              # a half-plane: lineality
    ([(1, 0), (0, 1), (-1, -1)], 2, 2),             # the plane
])
def test_one_dd_per_cone_unless_it_has_lineality(monkeypatch, rays, n, calls):
    seen = []
    monkeypatch.setattr(cones, "_extreme_rays",
                        lambda rows, dim, real=cones._extreme_rays: seen.append(rows)
                        or real(rows, dim))
    cone = cone_from_generators(rays, n)
    assert len(seen) == calls
    assert (cone.generators, cone.inequalities) == two_dd_cone(rays, n)


def test_lineality_cone_generators_from_the_second_dd():
    half_plane = cone_from_generators([(1, 0), (-1, 0), (0, 1), (1, 1)])
    assert half_plane.generators == ((-1, 0), (0, 1), (1, 0))
    assert half_plane.inequalities == ((0, 1),)
    assert half_plane.incidence.by_generator == (1, 0, 1)
    assert not half_plane.incidence.pointed and half_plane.incidence.solid


def test_internal_check_names_the_ray_the_inequality_and_their_product(monkeypatch):
    def bad_pair(vecs, n):
        return [(1, 0)], [(-1, 1), (0, 1)], None

    monkeypatch.setattr(cones, "_dual_pair", bad_pair)
    with pytest.raises(MembershipError, match=r"^internal: input ray \(2, 1\) violates derived "
                                              r"inequality \(-1, 1\): product -1 < 0$"):
        cone_from_generators([(2, 1)])
