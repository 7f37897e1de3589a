"""Kernel-generator listings and invariant extensions must stay byte-identical.

``tests/data/golden_kernels.json`` maps each kernel spec to the ``str()``
of every polynomial ``graded_kernel_generators`` lists for it up to its
top degree; ``KERNEL_POOL`` mirrors the kernel specs of the
``invariants-transfer`` benchmark workload, each in both normalizations.
``tests/data/golden_extensions.json`` maps each named fixture with an
invariant, and a few products of kernel generators, to the ``str()`` of
``extend(spec, f).extension`` and of its ``f00``.

Regenerate the files only when a listing is meant to change:
``PYTHONPATH=src python tests/test_golden_listings.py``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from gaquot.derivations import graded_kernel_generators
from gaquot.fixtures import NAMED_FIXTURES, fixture
from gaquot.poly import Poly
from gaquot.reps import NORMALIZATIONS, RepSpec, build_derivation
from gaquot.transfer import extend

DATA = Path(__file__).parent / "data"
GOLDEN_KERNELS = DATA / "golden_kernels.json"
GOLDEN_EXTENSIONS = DATA / "golden_extensions.json"

KERNEL_POOL = (
    ((5,), 4), ((6,), 4), ((2, 2), 4), ((3, 1), 4), ((2, 1, 1), 4), ((4, 1), 4),
    ((3, 2), 4), ((4, 2), 4), ((3, 3), 4), ((6, 1), 4),
    ((1, 1, 1, 1), 3), ((2, 2, 2), 3), ((1, 1, 1, 1, 1), 3),
)

# (summands, normalization, number of quadratic factors, constant term)
PRODUCT_POOL = (
    ((5,), "section5", 2, 3),
    ((4,), "unit", 3, 1),
    ((3, 1), "section5", 3, 2),
    ((2, 2), "unit", 3, 5),
    ((2, 1, 1), "section5", 3, 4),
    ((3, 3), "unit", 2, 7),
)

PRODUCTS = {
    f"product {summands} {norm} x{count} +{const}": (summands, norm, count, const)
    for summands, norm, count, const in PRODUCT_POOL
}
KERNEL_KEYS = [f"{summands} {norm} deg<={top}" for summands, top in KERNEL_POOL for norm in NORMALIZATIONS]
EXTENSION_KEYS = [name for name in NAMED_FIXTURES if fixture(name).f is not None] + list(PRODUCTS)


def kernel_listing(summands: Tuple[int, ...], normalization: str, top: int) -> List[str]:
    spec = RepSpec(summands, normalization=normalization)
    return [str(g) for g in graded_kernel_generators(build_derivation(spec), top)]


def generator_product(summands: Tuple[int, ...], normalization: str, count: int, const: int) -> Tuple[RepSpec, Poly]:
    """``const`` plus the product of one linear and ``count`` quadratic generators."""
    spec = RepSpec(summands, normalization=normalization)
    generators = graded_kernel_generators(build_derivation(spec), 2)
    linear = [g for g in generators if g.total_degree() == 1]
    quadratic = [g for g in generators if g.total_degree() == 2]
    f = linear[0]
    for i in range(count):
        f = f * quadratic[i % len(quadratic)]
    return spec, f + const


def extension_listing(key: str) -> Dict[str, str]:
    if key in PRODUCTS:
        spec, f = generator_product(*PRODUCTS[key])
    else:
        fx = fixture(key)
        spec, f = fx.spec, fx.f
    result = extend(spec, f)
    return {"extension": str(result.extension), "f00": str(result.f00)}


def _golden(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def test_golden_covers_every_key():
    assert sorted(_golden(GOLDEN_KERNELS)) == sorted(KERNEL_KEYS)
    assert sorted(_golden(GOLDEN_EXTENSIONS)) == sorted(EXTENSION_KEYS)


@pytest.mark.parametrize("summands,top", KERNEL_POOL)
@pytest.mark.parametrize("normalization", NORMALIZATIONS)
def test_kernel_listing_is_byte_identical(summands, top, normalization):
    key = f"{summands} {normalization} deg<={top}"
    assert kernel_listing(summands, normalization, top) == _golden(GOLDEN_KERNELS)[key]


@pytest.mark.parametrize("key", EXTENSION_KEYS)
def test_extension_is_byte_identical(key):
    assert extension_listing(key) == _golden(GOLDEN_EXTENSIONS)[key]


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    kernels = {
        f"{summands} {norm} deg<={top}": kernel_listing(summands, norm, top)
        for summands, top in KERNEL_POOL
        for norm in NORMALIZATIONS
    }
    GOLDEN_KERNELS.write_text(json.dumps(kernels, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    extensions = {key: extension_listing(key) for key in EXTENSION_KEYS}
    GOLDEN_EXTENSIONS.write_text(json.dumps(extensions, indent=1, sort_keys=True) + "\n", encoding="utf-8")
