"""The one face-flux builder of the box grids against the per-operator COO
assemblers kept in ``oracles``: the same matrices, rebuilt from the holders
it returns, and the same products, bit for bit, on random grids, masks,
contrasts, time steps and tensors; and the memory it takes to build them."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from pnp_upscale import _fv
from pnp_upscale.macropnp import GridOperators

import oracles

#: largest entrywise |difference| allowed for cross-term tensors, whose
#: entries the two builders sum in different orders, relative to the largest
#: oracle entry of the row: an entry that sums terms of either sign can lose
#: all the relative digits of its own (-0.19 from terms of size 5 differed by
#: 4.7e-15 of itself on a 3x3 grid)
CROSS_RTOL = 1e-15


def canonical(A):
    """CSR with sorted indices and no stored zeros: a matrix's entries in the
    oracles' layout."""
    C = A.tocsr()
    C.eliminate_zeros()
    C.sort_indices()
    return C


def assert_bitwise(holder, B):
    """Equal entries and equal products A x, bit for bit."""
    C = canonical(oracles.dia_matrix(holder))
    assert C.shape == B.shape
    assert np.array_equal(C.indptr, B.indptr)
    assert np.array_equal(C.indices, B.indices)
    assert C.data.tobytes() == B.data.tobytes()
    x = np.random.default_rng(B.nnz).standard_normal(B.shape[1])
    assert np.array_equal(holder(x), B @ x)


def assert_close_cross_terms(holder, B):
    """Entries within ``CROSS_RTOL`` of the oracle's; the product sums them
    in CSR's column order, bit for bit."""
    C = canonical(oracles.dia_matrix(holder))
    D = sp.coo_matrix(C - B)
    row_scale = abs(B).max(axis=1).toarray().ravel()
    assert np.all(np.abs(D.data) <= CROSS_RTOL * row_scale[D.row])
    x = np.random.default_rng(B.nnz).standard_normal(B.shape[1])
    assert np.array_equal(holder(x), C @ x)


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
        assert_close_cross_terms(A, B)
    else:
        assert_bitwise(A, B)


@pytest.mark.parametrize("shape", [(2,), (2, 2), (5, 2), (2, 5), (2, 2, 2), (3, 2, 4), (4, 3, 2)])
def test_side_two_grids_fold_cross_term_offsets(shape):
    # a side of 2 after the first axis puts two cross-term stencil offsets on
    # one flat offset, or orders them apart from the lexicographic order; the
    # folded diagonals hold the same entries and products
    rng = np.random.default_rng(len(shape))
    G = rng.standard_normal((len(shape), len(shape)))
    T = G @ G.T + 0.1 * np.eye(len(shape))
    h = 1.0 / shape[0]
    A = _fv.assemble_neumann_operator(shape, h, tensor=T)
    B = oracles.assemble_neumann_operator(shape, h, tensor=T)
    assert np.all(np.diff(A.offsets) > 0)
    if len(shape) > 1:
        assert (len(A.offsets) < 1 + 2 * len(shape) ** 2) == (2 in shape[1:])
        assert_close_cross_terms(A, B)
    coef = np.where(rng.random(shape) < 0.5, 1.0, 9.0)
    C = _fv.assemble_neumann_operator(shape, h, coef=coef)
    assert_bitwise(C, oracles.assemble_neumann_operator(shape, h, coef=coef))
    x = rng.standard_normal(shape)
    for M in (A, C):  # the folded table's product, held compactly without cross terms
        assert M(x).tobytes() == (oracles.dia_matrix(M) @ x.ravel()).tobytes()


@pytest.mark.parametrize("shape", [(16, 16), (6, 6, 6)])
def test_poisson_norm_is_the_oracle_infinity_norm(shape):
    rng = np.random.default_rng(3)
    h = 1.0 / shape[0]
    coef = np.where(rng.random(shape) < 0.3, 50.0, 1.0)
    G = rng.standard_normal((len(shape), len(shape)))
    T = G @ G.T + 0.1 * np.eye(len(shape))
    for kwargs in ({"coef": coef}, {"tensor": T}):
        norm_A = GridOperators(shape, **kwargs).poisson.norm_A
        ref = spla.norm(oracles.assemble_neumann_operator(shape, h, **kwargs), np.inf)
        assert abs(norm_A - ref) <= 1e-15 * ref
        # the holder's product of |A| with ones sums as scipy's row sums of |A|
        A = oracles.dia_matrix(_fv.assemble_neumann_operator(shape, h, **kwargs))
        assert norm_A == abs(A).sum(axis=1).max()


#: largest tracemalloc peak inside an ``assemble_*`` call, in bytes per
#: voxel, by dimension: measured 48.2 / 64.3 (256^2 / 32^3), 80.2 / 160.5 and
#: 64.1 / 79.6, against 64.2 / 88.4 and 80.1 / 103.6 when the symmetric
#: builds also wrote the rows above the diagonal, and 104.8 / 144.2, 156.3 /
#: 315.9 and 100.6 / 133.3 of a CSR gather from the full table; the bounds
#: keep about 20 % headroom
BUILD_PEAK_BOUNDS = {"coefficient Poisson": {2: 58, 3: 77},
                     "cross-term Poisson": {2: 96, 3: 193},
                     "masked Dirichlet diffusion": {2: 77, 3: 96}}


@pytest.mark.parametrize("shape", [(256, 256), (32, 32, 32)])
def test_assembly_peak_bytes_per_voxel(shape):
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
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_voxel = peak / np.prod(shape)
        assert per_voxel <= BUILD_PEAK_BOUNDS[name][len(shape)], (name, per_voxel)


# ---------------------------------------------------------------------------
# the compact storage of ``_fv.CompactDia``


def bitwise_symmetric(A) -> bool:
    C = canonical(A)
    T = canonical(A.T)
    return (np.array_equal(C.indptr, T.indptr) and np.array_equal(C.indices, T.indices)
            and C.data.tobytes() == T.data.tobytes())


def test_which_assembled_operators_are_bitwise_symmetric():
    # the DNS Poisson and both diffusion kinds are, as their COO references
    # show, so their holders keep the diagonal and the rows below it only,
    # and the matrices rebuilt from them are the references.  The macro
    # Poisson with cross terms is not: at the two outer cell layers the
    # tangential derivative is one-sided, and its cross entries there (about
    # eps0[0,1]/(2h^2)) have no mirror; its holder keeps the full table.  Its
    # eps0 here is macro2d's of seed 1, rounded, with which the 128^2
    # operator has 3024 such entries
    rng = np.random.default_rng(11)
    m = 32
    shape, h = (m, m), 1.0 / m
    mask = rng.random(shape) >= 0.3
    coef = np.where(mask, 1.0, 4.0)
    symmetric = [(_fv.assemble_neumann_operator(shape, h, coef=coef),
                  oracles.assemble_neumann_operator(shape, h, coef=coef))]
    symmetric += [(_fv.assemble_diffusion_matrix(shape, h, 1e-3, 0.7, bc, mask=fluid),
                   oracles.assemble_diffusion_matrix(shape, h, 1e-3, 0.7, bc, mask=fluid))
                  for bc in ("dirichlet", "noflux") for fluid in (None, mask)]
    for holder, reference in symmetric:
        assert bitwise_symmetric(reference) and holder.compact
        assert_bitwise(holder, reference)
    T = np.array([[1.568, 0.099], [0.099, 1.426]])
    holder = _fv.assemble_neumann_operator(shape, h, tensor=T)
    A = oracles.dia_matrix(holder)
    assert not bitwise_symmetric(A) and not holder.compact
    D = sp.coo_matrix(canonical(A) - canonical(A.T))
    D.eliminate_zeros()
    for cells in (D.row, D.col):  # the distance of each cell to the nearest edge
        index = np.array(np.unravel_index(cells, shape))
        assert np.minimum(index, m - 1 - index).min(axis=0).max() == 1
    assert D.nnz > 0
    assert np.abs(D.data).max() <= T[0, 1] / (h * h)


@pytest.mark.parametrize("fallback", [False, True], ids=["kernel", "numpy"])
@settings(max_examples=60)
@given(grids(), st.floats(0.01, 100.0), st.floats(1e-5, 1.0),
       st.sampled_from(["dirichlet", "noflux"]), st.data())
def test_compact_products_give_the_bits_of_the_dia_product(fallback, grid, alpha, dt, bc, data):
    # through scipy's DIA kernel, or the numpy product that replaces it when
    # it is missing or fails its check
    if not fallback and _fv.dia_kernel() is None:
        pytest.skip("scipy's DIA kernel is missing or fails its check")
    shape, mask = grid
    h = 1.0 / shape[0]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(shape) * (rng.random(shape) < 0.8)  # with zeros
    holders = [_fv.assemble_neumann_operator(shape, h, coef=np.where(mask, 1.0, alpha)),
               _fv.assemble_neumann_operator(shape, h, tensor=data.draw(
                   spd_tensors(len(shape))))]
    holders += [_fv.assemble_diffusion_matrix(shape, h, dt, 0.5, bc, mask=m)
                for m in (None, mask)]
    with pytest.MonkeyPatch.context() as mp:
        if fallback:
            mp.setattr(_fv, "dia_kernel", lambda: None)
        for holder in holders:
            out = np.full(shape, np.nan)
            expected = (oracles.dia_matrix(holder) @ x.ravel()).tobytes()
            assert holder(x, out) is out and out.tobytes() == expected
            assert holder(x).tobytes() == expected


def test_a_compact_product_checks_its_arrays_before_the_kernel():
    # the kernel reads and writes by pointer, unchecked
    holder = _fv.assemble_diffusion_matrix((4, 4), 0.25, 1e-2, 1.0, "noflux")
    u = np.ones((4, 4))
    for args in ((np.ones((3, 3)),), (u, np.empty((3, 3))), (u, np.empty((4, 4), np.float32)),
                 (u, np.empty((8, 8))[::2, ::2])):
        with pytest.raises(ValueError, match="C-contiguous float out"):
            holder(*args)
