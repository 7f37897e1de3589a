"""End-to-end acceptance checks.

Each test here covers one numbered criterion; a summary line per
criterion is printed by the suite's report hook.  Everything is exact:
no tolerances, no skipped corners.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from gaquot.classify import (
    FamilyMember,
    FamilyOutcome,
    Verdict,
    build_family_member,
    classify,
    compare_family,
)
from gaquot.derivations import (
    apply,
    graded_kernel_generators,
    power_in_image,
)
from gaquot.errors import ExprSyntaxError
from gaquot.expr import parse
from gaquot.fixtures import (
    all_named_fixtures,
    fixture,
    verify_winkelmann_relation,
    winkelmann_invariant_images,
)
from gaquot.poly import Poly
from gaquot.reps import (
    RepSpec,
    build_derivation,
    catalog_invariants,
    sl2_triple,
)
from gaquot.transfer import BoundaryClass, extend, verify_invariance

from dense_oracle import dense_membership

TRIPLE = RepSpec((1, 1, 1))

SPEC_POOL = (
    RepSpec((1, 1)),
    RepSpec((1, 1, 1)),
    RepSpec((3,)),
    RepSpec((1, 3)),
    RepSpec((1, 1, 3), "unit", tuple(f"w{i}" for i in range(1, 9))),
)


@lru_cache(maxsize=None)
def _invariant_pool(spec):
    """Catalog invariants plus a graded kernel basis, degree <= 2."""
    pool = [entry.poly for entry in catalog_invariants(spec)]
    pool.extend(graded_kernel_generators(build_derivation(spec), 2))
    seen = []
    for p in pool:
        if p not in seen:
            seen.append(p)
    return tuple(seen)


def _random_invariant(rng, spec, max_degree=4):
    pool = _invariant_pool(spec)
    while True:
        factors = rng.randint(1, 2)
        f = Poly.const(spec.coords, rng.randint(-3, 3))
        for _ in range(rng.randint(1, 3)):
            term = Poly.const(spec.coords, rng.choice((1, 1, 2, -1, -2, 3)))
            for _ in range(factors):
                term = term * rng.choice(pool)
            f = f + term
        if not f.is_zero and not f.is_constant() and f.total_degree() <= max_degree:
            return f


# ----------------------------------------------------------------------
# criterion 1: degree-2 kernel on Sym^1 + V + V, and the quadric relation


def test_criterion_1_invariants_and_relation():
    expected = [
        parse(text, TRIPLE.coords)
        for text in (
            "w0",
            "w2",
            "w4",
            "w0*w3 - w1*w2",
            "w0*w5 - w1*w4",
            "w2*w5 - w3*w4",
        )
    ]
    generators = graded_kernel_generators(build_derivation(TRIPLE), 2)
    assert len(generators) == len(expected)
    for produced, wanted in zip(generators, expected):
        assert produced.normalized() == wanted.normalized()
    again = graded_kernel_generators(build_derivation(TRIPLE), 2)
    assert [str(g) for g in again] == [str(g) for g in generators]

    assert verify_winkelmann_relation().is_zero
    control = verify_winkelmann_relation(
        parse("x1*x4 - x2*x3 - x5*(x5 + 2)", ("x1", "x2", "x3", "x4", "x5"))
    )
    assert not control.is_zero


# ----------------------------------------------------------------------
# criterion 2: the packaged examples get their verdicts with evidence


def test_criterion_2_fixture_verdicts():
    reports = {
        fx.name: classify(fx.spec, fx.f, fx.graph) for fx in all_named_fixtures()
    }

    assert reports["winkelmann"].verdict is Verdict.STRICTLY_QUASI_AFFINE

    assert reports["sl2-in-v2"].verdict is Verdict.STRICTLY_QUASI_AFFINE
    pair = fixture("sl2-in-v2").spec
    degree_one = graded_kernel_generators(build_derivation(pair), 1)
    assert [str(g) for g in degree_one] == ["w0", "w2"]

    affine = reports["affine-slice"]
    assert affine.verdict is Verdict.AFFINE
    assert affine.slice_result.found is not None
    assert affine.slice_result.found.total_degree() == 1

    unstable = reports["deveney-finston"]
    assert unstable.verdict is Verdict.NOT_EVERYWHERE_STABLE
    assert unstable.witness.subspace == ("w1", "w3")


# ----------------------------------------------------------------------
# criterion 3: transfer soundness on randomized invariants


def test_criterion_3_transfer_soundness():
    rng = random.Random(20260823)
    total = 0
    for spec in itertools.cycle(SPEC_POOL):
        f = _random_invariant(rng, spec)
        result = extend(spec, f)  # raising here would fail the suite
        wide = result.extension.vars
        assert result.extension.substitute({"u": 0, "v": 1}) == parse(str(f), wide)
        assert verify_invariance(spec, result.extension)
        total += 1
        if total >= 200:
            break

    for spec in SPEC_POOL:
        pool = [p for p in _invariant_pool(spec) if p.total_degree() <= 2]
        for fa, fb in itertools.combinations(pool, 2):
            product = extend(spec, fa * fb).extension
            assert product == extend(spec, fa).extension * extend(spec, fb).extension

    assert total >= 200


# ----------------------------------------------------------------------
# criterion 4: boundary value zero if and only if a power lies in the image


def _duality_corpus(spec):
    base = [p for p in _invariant_pool(spec) if p.total_degree() <= 3]
    corpus = list(base)
    for p in base:
        corpus.append(p + 1)
        corpus.append(p - 2)
    for a, b in itertools.combinations(base, 2):
        if (a + b).total_degree() <= 3:
            corpus.append(a + b)
        if (a * b).total_degree() <= 3:
            corpus.append(a * b)
    unique = []
    for p in corpus:
        if not p.is_zero and p not in unique:
            unique.append(p)
    return unique


def test_criterion_4_boundary_image_duality():
    checked = 0
    for spec in SPEC_POOL:
        d = build_derivation(spec)
        for h in _duality_corpus(spec):
            result = extend(spec, h)
            membership = power_in_image(d, h)
            assert result.f00.is_zero == membership.found, str(h)
            if result.boundary is BoundaryClass.CONTAINS:
                # a contained boundary must come with an explicit preimage
                assert membership.found and membership.preimage is not None
                assert apply(d, membership.preimage) == h ** membership.power
            checked += 1
    assert checked > 50


def test_ladder_power_search_agrees_with_generic_solver():
    # the ladder tries h alone; the smallest k <= 3 with h^k in the image,
    # by a dense solve over every monomial of each degree, must agree
    checked = 0
    for spec in SPEC_POOL[:4]:
        d = build_derivation(spec)
        for h in _duality_corpus(spec):
            power = next((k for k in (1, 2, 3) if dense_membership(d, h ** k) is not None), None)
            assert power_in_image(d, h).power == power, str(h)
            checked += 1
    assert checked > 50


# ----------------------------------------------------------------------
# criterion 5: operator triple relations and nilpotency degrees


def _fixture_specs():
    specs = [fx.spec for fx in all_named_fixtures()]
    specs.append(fixture("family-phi(t^2 - 2)").spec)
    unique = []
    for spec in specs:
        if spec not in unique:
            unique.append(spec)
    return unique


def test_criterion_5_triple_relations():
    for spec in _fixture_specs():
        triple = sl2_triple(spec)
        E, F, H = triple.raising, triple.lower, triple.diag
        for name in spec.coords:
            x = Poly.variable(spec.coords, name)
            assert apply(F, apply(E, x)) - apply(E, apply(F, x)) == apply(H, x)
            assert apply(H, apply(F, x)) - apply(F, apply(H, x)) == 2 * apply(F, x)
            assert apply(H, apply(E, x)) - apply(E, apply(H, x)) == -2 * apply(E, x)

        d = triple.lower
        for k, names in spec.blocks():
            top = Poly.variable(spec.coords, names[-1])
            iterated = top
            for _ in range(k):
                iterated = apply(d, iterated)
            if spec.normalization == "section5":
                factorial = 1
                for step in range(1, k + 1):
                    factorial *= step
                assert iterated == factorial * Poly.variable(spec.coords, names[0])
            assert apply(d, iterated).is_zero  # D^(k+1) kills the whole block


# ----------------------------------------------------------------------
# criterion 6: all decision routes agree on every packaged example


def test_criterion_6_route_coherence():
    examples = list(all_named_fixtures())
    examples.append(fixture("family-phi(t^2 - 2)"))
    examples.append(fixture("family-phi(7)"))
    for fx in examples:
        report = classify(fx.spec, fx.f, fx.graph)  # InternalInconsistency fails here
        assert report.verdict is fx.expected_verdict
        for name, agreed in report.crosschecks:
            assert agreed, f"{fx.name}: {name}"


# ----------------------------------------------------------------------
# criterion 7: family members separated by boundary component counts


def test_criterion_7_family_comparison():
    linear = FamilyMember(TRIPLE, parse("t", ("t",)), "minor[1,2]")
    quadratic = FamilyMember(TRIPLE, parse("t^2 - 1", ("t",)), "minor[1,2]")
    comparison = compare_family(linear, quadratic)
    assert comparison.outcome is FamilyOutcome.NON_ISOMORPHIC
    assert comparison.counts == (1, 2)

    squared = FamilyMember(TRIPLE, parse("t^2", ("t",)), "minor[1,2]")
    with pytest.raises(ValueError):
        compare_family(linear, squared)

    with pytest.raises(ValueError):
        build_family_member(TRIPLE, parse("t - 1", ("t",)), "minor[1,2]")


# ----------------------------------------------------------------------
# criterion 8: expression language round-trips and positioned rejections

MALFORMED = [
    ("w0 + ", 5),
    ("(w0", 3),
    ("w0 ^^ 2", 4),
    ("w0 + $", 5),
    ("", 0),
    ("2 ** w0", 3),
    ("w0 w1", 3),
    ("w0 + q*w1", 5),
    ("3/0", 2),
    ("w0^(2)", 3),
    (")w0", 0),
    ("1..5", 1),
]


def _fixture_polynomials():
    out = []
    for fx in list(all_named_fixtures()) + [fixture("family-phi(t^2 - 2)")]:
        if fx.f is not None:
            out.append(fx.f)
        if fx.graph is not None:
            out.extend(fx.graph.dependent.values())
    out.extend(winkelmann_invariant_images().values())
    out.append(verify_winkelmann_relation(
        parse("x1*x4 - x2*x3 - x5*(x5 + 2)", ("x1", "x2", "x3", "x4", "x5"))
    ))
    return out


def test_criterion_8_parser_round_trip_and_rejection():
    for p in _fixture_polynomials():
        assert parse(str(p), p.vars) == p

    for text, position in MALFORMED:
        with pytest.raises(ExprSyntaxError) as info:
            parse(text, ("w0", "w1"))
        assert info.value.position == position
