"""The one face-flux builder of the box grids against the per-operator COO
assemblers kept in ``oracles``: the same matrices, bit for bit, on random
grids, masks, contrasts, time steps and tensors; and the memory it takes to
build them."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from pnp_upscale import _fv

import oracles

#: largest entrywise |difference| allowed for cross-term tensors, whose
#: entries the two builders sum in different orders, relative to the largest
#: oracle entry of the row: an entry that sums terms of either sign can lose
#: all the relative digits of its own (-0.19 from terms of size 5 differed by
#: 4.7e-15 of itself on a 3x3 grid)
CROSS_RTOL = 1e-15


def assert_bitwise(A, B):
    assert A.shape == B.shape
    assert np.array_equal(A.indptr, B.indptr)
    assert np.array_equal(A.indices, B.indices)
    assert A.data.tobytes() == B.data.tobytes()


def assert_close_per_entry(A, B, rtol):
    D = sp.coo_matrix(A - B)
    row_scale = abs(B).max(axis=1).toarray().ravel()
    assert np.all(np.abs(D.data) <= rtol * row_scale[D.row])


@st.composite
def grids(draw):
    """(shape, fluid mask): 1D-3D boxes, not necessarily square, with a random
    share of solid cells."""
    dim = draw(st.integers(1, 3))
    top = (48, 16, 7)[dim - 1]
    shape = tuple(draw(st.integers(2, top)) for _ in range(dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random(shape) >= draw(st.floats(0.0, 0.6))
    return shape, mask


@st.composite
def spd_tensors(draw, dim):
    """Random SPD tensors: diagonal, diagonal plus 1e-18 rounding noise, or full."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    G = rng.standard_normal((dim, dim))
    T = G @ G.T + 0.1 * np.eye(dim)
    kind = draw(st.sampled_from(["diagonal", "noise", "full"]))
    if kind != "full":
        T = np.diag(np.diag(T))
    if kind == "noise":
        T += 1e-18 * (1.0 - np.eye(dim))
    return T


@settings(max_examples=150)
@given(grids(), st.floats(0.01, 100.0), st.floats(1e-5, 1.0),
       st.floats(0.05, 1.0), st.sampled_from(["dirichlet", "noflux"]),
       st.data())
def test_face_operator_matches_the_coo_assemblers(grid, alpha, dt, p, bc, data):
    shape, mask = grid
    h = 1.0 / shape[0]
    coef = np.where(mask, 1.0, alpha)
    assert_bitwise(_fv.assemble_neumann_operator(shape, h, coef=coef),
                   oracles.assemble_neumann_operator(shape, h, coef=coef))
    for m in (None, mask):
        assert_bitwise(_fv.assemble_diffusion_matrix(shape, h, dt, p, bc, mask=m),
                       oracles.assemble_diffusion_matrix(shape, h, dt, p, bc, mask=m))
    T = data.draw(spd_tensors(len(shape)))
    A = _fv.assemble_neumann_operator(shape, h, tensor=T)
    B = oracles.assemble_neumann_operator(shape, h, tensor=T)
    if oracles._significant_offdiag(T):
        assert_close_per_entry(A, B, CROSS_RTOL)
    else:
        assert_bitwise(A, B)


@settings(max_examples=40)
@given(grids(), st.floats(0.01, 100.0), st.data())
def test_int32_cell_indices_build_the_int64_matrices(grid, alpha, data):
    # scipy stores int32 indices either way: the narrower build changes no bit
    shape, mask = grid
    h = 1.0 / shape[0]
    coef = np.where(mask, 1.0, alpha)
    T = data.draw(spd_tensors(len(shape)))
    builds = [lambda: _fv.assemble_neumann_operator(shape, h, coef=coef),
              lambda: _fv.assemble_neumann_operator(shape, h, tensor=T),
              lambda: _fv.assemble_diffusion_matrix(shape, h, 1e-3, 0.5, "dirichlet",
                                                    mask=mask)]
    narrow = [build() for build in builds]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_fv, "_index_dtype", lambda n: np.int64)
        wide = [build() for build in builds]
    for A, B in zip(narrow, wide):
        assert A.indices.dtype == np.int32
        assert_bitwise(A, B)


def test_index_type_widens_at_two_to_the_31_cells():
    assert _fv._index_dtype(2**31 - 1) is np.int32
    assert _fv._index_dtype(2**31) is np.int64


#: largest tracemalloc peak inside an ``assemble_*`` call, in multiples of
#: the bytes of the CSR matrix it returns; measured 1.66 / 1.70 (64^2 / 16^3),
#: 1.41 / 1.48 and 2.58 / 2.70, against 3.6, 8.9 / 11.1 and 3.9 of a COO
#: triplet build
BUILD_PEAK_BOUNDS = {"coefficient Poisson": 2.0, "cross-term Poisson": 2.0,
                     "masked Dirichlet diffusion": 3.25}


def assert_canonical(A):
    """Sorted column indices and no duplicates in every row."""
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    assert np.all(np.diff(rows * A.shape[1] + A.indices.astype(np.int64)) > 0)


@pytest.mark.parametrize("shape", [(64, 64), (16, 16, 16)])
def test_assembly_peak_is_a_small_multiple_of_the_matrix(shape):
    rng = np.random.default_rng(7)
    h = 1.0 / shape[0]
    mask = rng.random(shape) >= 0.3
    coef = np.where(mask, 1.0, 4.0)
    G = rng.standard_normal((len(shape), len(shape)))
    T = G @ G.T + 0.1 * np.eye(len(shape))
    builds = {
        "coefficient Poisson": lambda: _fv.assemble_neumann_operator(shape, h, coef=coef),
        "cross-term Poisson": lambda: _fv.assemble_neumann_operator(shape, h, tensor=T),
        "masked Dirichlet diffusion": lambda: _fv.assemble_diffusion_matrix(
            shape, h, 1e-3, 0.5, "dirichlet", mask=mask),
    }
    for name, build in builds.items():
        tracemalloc.start()
        try:
            A = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ratio = peak / (A.data.nbytes + A.indices.nbytes + A.indptr.nbytes)
        assert ratio <= BUILD_PEAK_BOUNDS[name], (name, ratio)
        assert_canonical(A)
