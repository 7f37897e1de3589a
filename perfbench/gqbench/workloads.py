"""Seeded workloads over the gaquot public API.

A workload turns a seed into a pool of ops.  Each op carries a key that
describes its input, a call into the library and a check of the result.
Calls look functions up on the ``gaquot`` modules at call time, so the
traced run sees every rebinding the tracer makes.

Input properties the cost depends on (parameter degree, product degree,
spec size, verdict route) are fixed per pool by stratification; the seed
only picks coefficients, factors and order inside each stratum.  That
keeps the cost and the verdict mix of a pool the same from seed to seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import gaquot
import gaquot.cli
from gaquot import Poly, RepSpec

from . import checks
from .checks import Terms

NORMALIZATIONS = ("section5", "unit")

# Minimal kernel generators per degree (degree 1 first), recorded from
# graded_kernel_generators at the commit that introduced this benchmark.
# The count is an invariant of the graded algebra, so it does not depend
# on the normalization or on how the generators are computed.
REFERENCE_GENERATOR_COUNTS: Dict[Tuple[int, ...], Tuple[int, ...]] = {
    (1,): (1, 0),
    (1, 1): (2, 1),
    (1, 1, 1): (3, 3),
    (1, 1, 3): (3, 4),
    (5,): (1, 2, 3, 3),
    (6,): (1, 3, 4, 4),
    (2, 2): (2, 4, 0, 0),
    (3, 1): (2, 2, 3, 4),
    (3, 2): (2, 4, 4, 2),
    (3, 3): (2, 5, 6, 8),
    (4, 1): (2, 3, 4, 3),
    (4, 2): (2, 5, 6, 3),
    (6, 1): (2, 4, 7, 11),
    (2, 1, 1): (3, 4, 3, 0),
    (2, 2, 2): (3, 9, 1),
    (1, 1, 1, 1): (4, 6, 0),
    (1, 1, 1, 1, 1): (5, 10, 0),
}


def reference_counts(summands: Tuple[int, ...], maxdeg: int) -> Tuple[int, ...]:
    counts = REFERENCE_GENERATOR_COUNTS[summands]
    if len(counts) < maxdeg:
        raise KeyError(f"no reference generator counts for {summands} up to degree {maxdeg}")
    return counts[:maxdeg]


# invariants-transfer: kernel-generator ops at the top degree of each spec
# and one below, and TRANSFERS_PER_SPEC transfer ops per spec on products
# of a fixed degree; every spec in both normalizations, so the two kinds
# come in equal numbers.
KERNEL_POOL = (
    ((5,), 4), ((6,), 4), ((2, 2), 4), ((3, 1), 4), ((2, 1, 1), 4), ((4, 1), 4),
    ((3, 2), 4), ((4, 2), 4), ((3, 3), 4), ((6, 1), 4),
    ((1, 1, 1, 1), 3), ((2, 2, 2), 3), ((1, 1, 1, 1, 1), 3),
)
TRANSFER_POOL = (
    ((5,), 5), ((6,), 5), ((4,), 6), ((3,), 7), ((2, 2), 7), ((3, 1), 7),
    ((2, 1, 1), 7), ((4, 1), 6), ((3, 2), 6), ((4, 2), 6), ((3, 3), 6), ((6, 1), 5),
    ((2, 2, 2), 6),
)
TRANSFERS_PER_SPEC = 2

# family-sweep: members per parameter degree.
FAMILY_DEGREES = (2, 3, 4, 5, 6)
MEMBERS_PER_DEGREE = 8
FAMILY_SPEC = RepSpec((1, 1, 1))
FAMILY_DELTA = "minor[1,2]"

# cli-jobs: specs with even symmetric powers whose invariants restrict to
# non-constant polynomials on the non-stable subspace.
UNCERTIFIED_SPECS = ((2, 1, 1), (4,), (2, 2), (4, 1, 1))
UNCERTIFIED_PER_STRATUM = 10
PLANT_VALUES = (1, -1, 2, -2, 3, -3, Fraction(1, 2), Fraction(-1, 2))
FAMILY_COMPARE_JOBS = 4


@dataclass(frozen=True)
class Op:
    kind: str
    key: str
    call: Callable[[], Any]
    check: Callable[[Any], checks.Outcome]


@dataclass
class Pool:
    ops: List[Op]
    specs: List[RepSpec]


# ----------------------------------------------------------------------
# shared helpers


def positive_coordinates(spec: RepSpec) -> Tuple[str, ...]:
    return tuple(name for name in spec.coord_names if spec.weight_of[name] > 0)


def _univariate_remainder(a: List[Fraction], b: List[Fraction]) -> List[Fraction]:
    """Remainder of ``a`` by ``b``; coefficient lists are lowest degree first."""
    a = list(a)
    while len(a) >= len(b) and any(a):
        factor = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= factor * c
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return a


def is_squarefree(coeffs: Sequence[int]) -> bool:
    """Whether ``sum coeffs[k] t^k`` has no repeated root (gcd with its derivative)."""
    a = [Fraction(c) for c in coeffs]
    b = [Fraction(k * c) for k, c in enumerate(coeffs)][1:]
    while b and any(b):
        while b[-1] == 0:
            b.pop()
        a, b = b, _univariate_remainder(a, b)
    return len(a) == 1


def random_phi(rng: random.Random, degree: int) -> Poly:
    """A squarefree polynomial in ``t`` with every coefficient in ±1..±3 and ``phi(0) != -1``.

    All ``degree + 1`` coefficients are non-zero, so the size of a family
    member is fixed by the degree.
    """
    while True:
        coeffs = [_nonzero(rng) for _ in range(degree + 1)]
        if coeffs[0] != -1 and is_squarefree(coeffs):
            return Poly(("t",), {(k,): c for k, c in enumerate(coeffs)})


def fill_caches(specs: Sequence[RepSpec]) -> None:
    """Build each representation's operator triples and section substitution.

    The first coordinate of a spec is killed by its derivation, so one
    cheap extension per spec fills every per-representation cache.
    """
    for spec in specs:
        seed = Poly.variable(spec.coord_names, spec.coord_names[0])
        result = gaquot.extend(spec, seed)
        gaquot.verify_invariance(spec, result.extension)


def kernel_generators(spec: RepSpec, maxdeg: int) -> List[Poly]:
    return gaquot.graded_kernel_generators(gaquot.build_derivation(spec), maxdeg)


def _add(terms: Terms, other: Terms, scale: Fraction) -> None:
    for exponent, coeff in other.items():
        checks.add_terms(terms, exponent, coeff * scale)


def _nonzero(rng: random.Random, bound: int = 3) -> int:
    return rng.choice([c for c in range(-bound, bound + 1) if c])


# ----------------------------------------------------------------------
# family-sweep


def family_f00(phi: Poly) -> Terms:
    """``1 + phi(w2*w5 - w3*w4)`` over the family spec, by direct expansion."""
    n = FAMILY_SPEC.dim
    minor = {(0, 0, 1, 0, 0, 1): Fraction(1), (0, 0, 0, 1, 1, 0): Fraction(-1)}
    total: Terms = {(0,) * n: Fraction(1)}
    power: Terms = {(0,) * n: Fraction(1)}
    for k in range(max(e[0] for e in phi.terms) + 1):
        _add(total, power, phi.terms.get((k,), Fraction(0)))
        power = checks.mul_terms(power, minor)
    return total


def build_family_sweep(rng: random.Random, workdir: str) -> Pool:
    ops: List[Op] = []
    for degree in FAMILY_DEGREES:
        for _ in range(MEMBERS_PER_DEGREE):
            phi = random_phi(rng, degree)
            f, graph = gaquot.build_family_member(FAMILY_SPEC, phi, FAMILY_DELTA)
            ops.append(Op(
                kind="classify",
                key=f"family-phi({phi})",
                call=partial(_classify, FAMILY_SPEC, f, graph),
                check=partial(checks.check_family_member, family_f00(phi)),
            ))
    rng.shuffle(ops)
    return Pool(ops, [FAMILY_SPEC])


def _classify(spec, f, graph):
    return gaquot.classify(spec, f, graph)


# ----------------------------------------------------------------------
# invariants-transfer


def _transfer_op(spec: RepSpec, f: Poly):
    result = gaquot.extend(spec, f)
    return result, gaquot.verify_invariance(spec, result.extension)


def transfer_input(rng: random.Random, generators: Sequence[Poly], degree: int, slot: int) -> Poly:
    """``c + a * P`` for the product ``P`` of ``degree`` that ``slot`` names.

    ``P`` multiplies ``degree // 2`` quadratic generators, taken cyclically
    from the ``slot``-th, and one linear generator when ``degree`` is odd.
    Which generators are multiplied sets the size of the extension, so it
    is fixed per slot; the seed draws ``a`` and ``c``.
    """
    linear = [g for g in generators if g.total_degree() == 1]
    quadratic = [g for g in generators if g.total_degree() == 2]
    product = Poly.const(generators[0].vars, 1)
    for i in range(degree // 2):
        product = product * quadratic[(slot + i) % len(quadratic)]
    if degree % 2:
        product = product * linear[slot % len(linear)]
    return product * _nonzero(rng) + rng.randint(1, 9)


def build_invariants_transfer(rng: random.Random, workdir: str) -> Pool:
    kernel_ops: List[Op] = []
    transfer_ops: List[Op] = []
    specs: List[RepSpec] = []
    for normalization in NORMALIZATIONS:
        for summands, top in KERNEL_POOL:
            spec = RepSpec(summands, normalization=normalization)
            specs.append(spec)
            images = checks.derivation_images(gaquot.build_derivation(spec))
            for maxdeg in (top - 1, top):
                kernel_ops.append(Op(
                    kind="kernel",
                    key=f"kernel {summands} {normalization} deg<={maxdeg}",
                    call=partial(kernel_generators, spec, maxdeg),
                    check=partial(checks.check_kernel_generators, images=images,
                                  expected_counts=reference_counts(summands, maxdeg)),
                ))
        for summands, degree in TRANSFER_POOL:
            spec = RepSpec(summands, normalization=normalization)
            specs.append(spec)
            generators = kernel_generators(spec, 2)
            for slot in range(TRANSFERS_PER_SPEC):
                f = transfer_input(rng, generators, degree, slot)
                transfer_ops.append(Op(
                    kind="transfer",
                    key=f"transfer {summands} {normalization} {f}",
                    call=partial(_transfer_op, spec, f),
                    check=partial(checks.check_transfer, f),
                ))
    if len(kernel_ops) != len(transfer_ops):
        raise ValueError("the two kinds of op must come in equal numbers to alternate")
    rng.shuffle(kernel_ops)
    rng.shuffle(transfer_ops)
    ops = [op for pair in zip(kernel_ops, transfer_ops) for op in pair]
    return Pool(ops, list(dict.fromkeys(specs)))


# ----------------------------------------------------------------------
# cli-jobs


def _cli(argv: Sequence[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gaquot.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _write_job(workdir: str, index: int, job: Dict) -> str:
    path = os.path.join(workdir, f"job-{index:03d}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(job, handle, sort_keys=True)
    return path


def _definite_sign(form: Terms, names: Sequence[str], variables: Sequence[str]) -> Optional[int]:
    """Sign of a definite quadratic form in one or two variables, else ``None``."""
    idx = [names.index(v) for v in variables]

    def coeff(*powers: int) -> Fraction:
        exponent = [0] * len(names)
        for i, p in zip(idx, powers):
            exponent[i] = p
        return form.get(tuple(exponent), Fraction(0))

    if len(idx) == 1:
        a = coeff(2)
        return None if a == 0 else (1 if a > 0 else -1)
    a, b, c = coeff(2, 0), coeff(1, 1), coeff(0, 2)
    if 4 * a * c - b * b <= 0:
        return None
    return 1 if a > 0 else -1


def uncertified_polynomial(rng: random.Random, spec: RepSpec, generators: Sequence[Poly],
                           planted: bool, slot: int) -> Poly:
    """A constant plus invariants whose restriction to the non-stable subspace is not constant.

    ``planted``: the restriction vanishes at the point whose only non-zero
    coordinate is a zero-weight one, with value ``PLANT_VALUES[slot]``
    (coordinate and value both chosen by ``slot``, so the effort of a
    search that finds it is fixed per slot), and a rational witness
    exists.  Otherwise the restriction is a constant plus a definite
    quadratic form of the same sign: it has no real zero, so no rational
    witness exists, though the variety still meets the subspace over the
    complex numbers.  The seed draws every coefficient.
    """
    coords = spec.coord_names
    positive = positive_coordinates(spec)
    zero_weight = [name for name in coords if spec.weight_of[name] == 0]
    restricted = [(g, checks.restrict_zero(g.terms, coords, positive)) for g in generators]
    chosen = [(g, r) for g, r in restricted if r and g.total_degree() == 2]
    dead = [g for g, r in restricted if not r and g.total_degree() <= 2]
    while True:
        coeffs = [_nonzero(rng) for _ in chosen]
        restriction: Terms = {}
        for (_, r), a in zip(chosen, coeffs):
            _add(restriction, r, Fraction(a))
        if not restriction:
            continue
        if planted:
            point = {name: Fraction(0) for name in coords}
            point[zero_weight[slot % len(zero_weight)]] = Fraction(PLANT_VALUES[slot % len(PLANT_VALUES)])
            constant = -checks.evaluate(restriction, coords, point)
        else:
            sign = _definite_sign(restriction, coords, zero_weight)
            if sign is None:
                continue
            constant = Fraction(sign * rng.randint(1, 9))
        break
    f = Poly.const(coords, constant)
    for (g, _), a in zip(chosen, coeffs):
        f = f + g * a
    for g in dead:
        f = f + g * _nonzero(rng)
    return f + dead[-1] * dead[-2] * _nonzero(rng)


def build_cli_jobs(rng: random.Random, workdir: str) -> Pool:
    ops: List[Op] = []
    specs: List[RepSpec] = []

    def add(kind: str, argv: List[str], check) -> None:
        ops.append(Op(kind=kind, key=" ".join(argv), call=partial(_cli, argv), check=check))

    def add_job(kind: str, job: Dict, check) -> None:
        path = _write_job(workdir, len(ops), job)
        ops.append(Op(kind=kind, key=json.dumps(job, sort_keys=True),
                      call=partial(_cli, ["--job", path]), check=check))

    phis = [random_phi(rng, degree) for degree in (1, 2, 3)]
    named = [gaquot.fixture(name) for name in gaquot.NAMED_FIXTURES]
    families = [gaquot.fixture(f"family-phi({phi})") for phi in phis]
    for fx in named + families:
        specs.append(fx.spec)
        add("classify", ["--fixture", fx.name], partial(
            checks.check_cli_fixture_classify, fx.expected_verdict.value,
            fx.expected_witness_subspace, positive_coordinates(fx.spec), fx.f, fx.graph))
    for fx in named:
        derivation = gaquot.build_derivation(fx.spec)
        add("invariants", ["--fixture", fx.name, "--command", "invariants"], partial(
            checks.check_cli_invariants, fx.spec.coord_names, checks.derivation_images(derivation),
            reference_counts(fx.spec.summands, 2)))
        if fx.graph is not None:
            derivation = gaquot.restrict_to_graph(derivation, fx.graph)
        add("slice", ["--fixture", fx.name, "--command", "slice"], partial(
            checks.check_cli_slice, derivation.vars, checks.derivation_images(derivation)))
    for fx in named + families:
        if fx.f is not None:
            add("transfer", ["--fixture", fx.name, "--command", "transfer"],
                partial(checks.check_cli_transfer, fx.f))
    family_blocks = gaquot.spec_to_blocks(FAMILY_SPEC)
    for _ in range(FAMILY_COMPARE_JOBS):
        pair = [random_phi(rng, rng.randint(1, 4)) for _ in range(2)]
        add_job("family-compare", {
            "command": "family-compare",
            "representation": family_blocks,
            "delta": FAMILY_DELTA,
            "parameters": [str(phi) for phi in pair],
            "output": "structured",
        }, partial(checks.check_cli_family_compare, tuple(phi.total_degree() for phi in pair)))
    add("selftest", ["--command", "selftest", "--format", "structured"], checks.check_cli_selftest)
    for summands in UNCERTIFIED_SPECS:
        for normalization in NORMALIZATIONS:
            spec = RepSpec(summands, normalization=normalization)
            specs.append(spec)
            generators = kernel_generators(spec, 2)
            for planted in (True, False):
                for slot in range(UNCERTIFIED_PER_STRATUM):
                    f = uncertified_polynomial(rng, spec, generators, planted, slot)
                    add_job("uncertified", {
                        "command": "classify",
                        "representation": gaquot.spec_to_blocks(spec),
                        "polynomial": str(f),
                        "output": "structured",
                    }, partial(checks.check_cli_uncertified, positive_coordinates(spec), f))
    rng.shuffle(ops)
    return Pool(ops, list(dict.fromkeys(specs)))


WORKLOADS = {
    "cli-jobs": build_cli_jobs,
    "family-sweep": build_family_sweep,
    "invariants-transfer": build_invariants_transfer,
}


def setup(workload: str, seed: int, workdir: str) -> Pool:
    """Generate the seeded inputs and fill the per-representation caches."""
    pool = WORKLOADS[workload](random.Random(f"{workload}:{seed}"), workdir)
    fill_caches(pool.specs)
    return pool
