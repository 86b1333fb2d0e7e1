import numpy as np
import pytest

from rssim.linalg import outer_sums, standard_complex_gaussian


def explicit_outer_sums(a, b):
    """Reference: form every per-sample outer product, then sum."""
    terms = a[..., :, None] * b.conj()[..., None, :]
    return terms.sum(axis=0), (terms.real**2).sum(axis=0), (terms.imag**2).sum(axis=0)


@pytest.mark.parametrize("shape_a, shape_b", [((400, 3, 6), (400, 3, 5)), ((400, 7), (400, 4))])
@pytest.mark.parametrize("same", [False, True])
def test_outer_sums_match_explicit_products(shape_a, shape_b, same):
    rng = np.random.default_rng(5)
    a = standard_complex_gaussian(rng, shape_a) * rng.uniform(0.5, 3.0, shape_a[-1])
    b = a if same else standard_complex_gaussian(rng, shape_b)
    got = outer_sums(a, b)
    want = explicit_outer_sums(a, b)
    assert [g.shape for g in got] == [w.shape for w in want]
    for g, w in zip(got, want):
        # relative to the largest entry: with a = b the imaginary sums are
        # exactly zero on the diagonal, where only rounding is left
        assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()
