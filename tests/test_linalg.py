import threading

import numpy as np
import pytest

from rssim.linalg import (
    SampleMean,
    batch_sizes,
    outer_sums,
    prefetched,
    standard_complex_gaussian,
    standard_normals,
)


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


@pytest.mark.parametrize("shape", [(20000, 16), (50000, 2), (2000, 12), (7, 7), (5,)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_standard_complex_gaussian_keeps_the_bits_of_the_complex_expression(shape, seed):
    # every Monte Carlo stream depends on these bits: the real parts come
    # first, and scaling by 1/sqrt(2) rounds as the complex division does
    got = standard_complex_gaussian(np.random.default_rng(seed), shape)
    rng = np.random.default_rng(seed)
    want = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_batch_sizes_cover_n_in_order():
    assert batch_sizes(45_000, 20_000) == [20_000, 20_000, 5_000]
    assert batch_sizes(40_000, 20_000) == [20_000, 20_000]
    assert batch_sizes(7, 20_000) == [7]


@pytest.mark.parametrize("complex_samples", [False, True])
def test_sample_mean_chunked_equals_one_shot(complex_samples):
    rng = np.random.default_rng(3)
    x = rng.normal(1.0, 2.0, (1000, 4, 3))
    if complex_samples:
        x = x + 1j * rng.normal(-0.5, 0.5, x.shape)
    whole, parts, sums = SampleMean(), SampleMean(), SampleMean()
    whole.add(x)
    for chunk in np.split(x, [300, 700]):
        parts.add(chunk)
        # the (S, S_re2, S_im2) triple that outer_sums returns
        sums.add_sums(
            chunk.sum(axis=0), (chunk.real**2).sum(axis=0), (chunk.imag**2).sum(axis=0), len(chunk)
        )
    assert whole.n == parts.n == sums.n == 1000
    for acc in (parts, sums):
        pairs = [(acc.mean, whole.mean), (acc.se, whole.se), *zip(acc.part_se, whole.part_se)]
        for got, want in pairs:
            assert np.allclose(got, want, rtol=1e-12, atol=1e-15)


def test_sample_mean_se_of_real_samples_is_sqrt_var_over_n():
    x = np.random.default_rng(4).exponential(2.0, (5000, 6))
    acc = SampleMean()
    acc.add(x)
    assert np.allclose(acc.mean, x.mean(axis=0), rtol=1e-12)
    assert np.allclose(acc.se, np.sqrt(x.var(axis=0) / len(x)), rtol=1e-9)
    se_re, se_im = acc.part_se
    assert np.array_equal(se_re, acc.se)
    assert not np.any(se_im)


def test_sample_mean_combined_se_adds_the_part_variances():
    rng = np.random.default_rng(5)
    x = rng.normal(0.0, 1.0, (4000, 3)) + 3j * rng.normal(0.0, 1.0, (4000, 3))
    acc = SampleMean()
    acc.add(x)
    se_re, se_im = acc.part_se
    assert np.allclose(acc.se**2, se_re**2 + se_im**2, rtol=1e-12)
    assert np.allclose(acc.se, np.sqrt((x.real.var(axis=0) + x.imag.var(axis=0)) / len(x)), rtol=1e-9)


def test_sample_mean_zero_se_entries_give_finite_z_scores():
    acc = SampleMean()
    acc.add(np.array([[2.0 + 1j, 0.5], [2.0 + 1j, -0.5]]))  # first entry constant
    assert acc.se[0] == 0.0
    z = acc.z_scores(np.array([2.0 + 1j, 0.0]))
    assert np.all(np.isfinite(z))
    assert z[0] == 0.0
    assert np.isfinite(acc.z_scores(np.array([2.5, 0.0]))[0])


def test_prefetched_fills_one_draw_ahead_on_one_worker_thread():
    events = []
    buffers = [np.zeros(1), np.zeros(1)]

    def fill(buffer, m):
        events.append(("fill", m, threading.get_ident()))
        buffer[0] = m
        return buffer

    def visit(buffer):
        events.append(("visit", int(buffer[0]), id(buffer)))

    before = threading.enumerate()
    prefetched(fill, [5, 6, 7, 8], visit, buffers)
    assert threading.enumerate() == before
    fills = [e for e in events if e[0] == "fill"]
    visits = [e for e in events if e[0] == "visit"]
    assert [e[1] for e in fills] == [5, 6, 7, 8]
    assert len({e[2] for e in fills}) == 1 and fills[0][2] != threading.get_ident()
    # the visits see every draw in order, in alternating buffers, and a
    # buffer is filled again only after the visit of its previous draw
    assert [e[1] for e in visits] == [5, 6, 7, 8]
    assert [e[2] for e in visits] == [id(b) for b in buffers * 2]
    for m in (7, 8):
        assert events.index(("visit", m - 2, id(buffers[(m - 5) % 2]))) < events.index(fills[m - 5])


def test_standard_normals_draw_into_the_buffer_as_one_call_does():
    buffer = np.full(40, np.nan)
    got = standard_normals(np.random.default_rng(3), (2, 3, 4), buffer)
    assert np.shares_memory(got, buffer) and np.isnan(buffer[24:]).all()
    rng = np.random.default_rng(3)
    want = np.stack([rng.standard_normal((3, 4)) for _ in range(2)])
    assert got.tobytes() == want.tobytes()
