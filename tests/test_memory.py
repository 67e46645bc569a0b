"""What a box-grid step holds: the initial state and the Picard start are
handed over in lists and freed once read, one 256^2 DNS step stays within
its traced bytes per fine voxel, a macro run holds no snapshot it has handed
to its writer, and the in-place CG kernel and float32 transforms keep the
bits of the allocating ones."""

import json
import tracemalloc
import weakref
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pnp_upscale import _fv, _kernels, cellcorrect, cli, macropnp, microdns
from pnp_upscale.cellcorrect import (
    SolverError,
    SpectralPCG,
    harmonic_face_coefficients,
    periodic_operator,
)
from pnp_upscale.config import load_config
from pnp_upscale.fieldio import format_field
from pnp_upscale.macropnp import GridOperators, MacroConfig, MacroState
from pnp_upscale.unitcell import build_unit_cell
from pnp_upscale.upscale import EffectiveTensors

import oracles
from test_box_solver import disc_domain, random_masks

_fv.dia_kernel()  # loaded before tracing, as by the first box product

#: traced peak of a step of the 256^2 DNS (32^2 disc cell, s = 1/8), in
#: bytes per fine voxel: 169.6 measured over its first three steps with
#: CPython 3.11 and numpy 2.4, pinned with 3 % headroom, less than one more
#: float64 field (177.6 with a new array for each preconditioner result;
#: 225.6 with full DIA tables and a scaled copy of each step's densities;
#: 304.7 when steps also kept their start, the initial state, the
#: coefficient and every CG temporary)
DNS_STEP_BYTES_PER_VOXEL = 175


def handed_over(shape, seed, mask=None):
    """([state], weakrefs to the state's three arrays): a random state in a
    one-element list, which holds the only references to it."""
    rng = np.random.default_rng(seed)
    fluid = 1.0 if mask is None else mask
    u1 = (1.0 + 0.5 * rng.random(shape)) * fluid
    u2 = (1.0 + 0.5 * rng.random(shape)) * fluid
    u3 = np.zeros(shape)
    return [MacroState(u1=u1, u2=u2, u3=u3)], [weakref.ref(a) for a in (u1, u2, u3)]


def alive(refs):
    return [ref() is not None for ref in refs]


def watch_steps(monkeypatch, module, name, refs):
    """Record, at the start of each step, which of ``refs`` are alive."""
    seen = []
    step = getattr(module, name)

    def watching(*args, **kwargs):
        seen.append(alive(refs))
        return step(*args, **kwargs)

    monkeypatch.setattr(module, name, watching)
    return seen


def macro_tensors():
    eps0 = np.array([[1.0, 0.3], [0.3, 1.5]])
    return EffectiveTensors(p=0.8, eps0=eps0, M=0.9 * np.eye(2), Hhat=0.2 * eps0)


def test_the_macro_run_frees_its_initial_state_after_the_first_step(monkeypatch):
    init, refs = handed_over((16, 16), 1)
    seen = watch_steps(monkeypatch, macropnp, "step_macro_pnp", refs)
    _, rows = macropnp.run_macro(MacroConfig(dt=1e-3, t_end=3e-3), macro_tensors(), init)
    assert len(rows) == 3
    assert init == [] and seen == [[True] * 3, [False] * 3, [False] * 3]


def dropping_writer(refs=None):
    """A snapshot writer that formats each field of the state it is handed
    and drops the text; with ``refs``, it records weakrefs to the fields."""
    def write(state):
        for var in ("u1", "u2", "u3"):
            format_field(var, getattr(state, var))
        if refs is not None:
            refs.extend(weakref.ref(getattr(state, var)) for var in ("u1", "u2", "u3"))
    return write


def test_the_macro_run_frees_each_snapshot_once_handed_over():
    # by the next handover only the state being handed over is alive; once
    # the run returns, only its final state
    refs, seen = [], []
    write = dropping_writer(refs)

    def watching(state):
        seen.append(alive(refs))
        write(state)

    init, _ = handed_over((16, 16), 7)
    final, rows = macropnp.run_macro(MacroConfig(dt=1e-3, t_end=5e-3), macro_tensors(), init,
                                     [1e-3 * k for k in range(1, 6)], watching)
    assert len(rows) == 5 and seen == [[False] * 3 * k for k in range(5)]
    assert alive(refs) == [False] * 12 + [True] * 3 and refs[-1]() is final.u3


def test_the_macro_command_dumps_each_snapshot_as_the_run_hands_it_over(monkeypatch, tmp_path):
    # 3e-3 and 3.2e-3 snap to the third step and 4e-3 to the last: each of
    # the three states is handed over and dumped once, the final one included
    config = tmp_path / "macro.cfg"
    config.write_text("cell.kind = disc\ncell.dim = 2\ncell.resolution = 8\n"
                      "cell.radius = 0.25\nphysics.lambda = 1.0\nphysics.alpha = 4.0\n"
                      "macro.resolution = 12\nmacro.dt = 1e-3\nmacro.t_end = 4e-3\n"
                      "output.snapshots = 1e-3 3e-3 3.2e-3 4e-3\n")
    out = tmp_path / "out"
    states, run_macro = [], cli.run_macro

    def collecting(cfg, tensors, init, times, write):
        def write_and_keep(state):
            # every earlier snapshot is on disk, the run's summary is not
            assert len(list(out.glob("*.dat"))) == 3 * len(states)
            assert not (out / "diagnostics.csv").exists()
            states.append(state)
            write(state)
        final, rows = run_macro(cfg, tensors, init, times, write_and_keep)
        assert states[-1] is final  # handed over for 4e-3, so not dumped again
        return final, rows

    monkeypatch.setattr(cli, "run_macro", collecting)
    assert cli.main(["macro", "--config", str(config), "--out", str(out)]) == 0
    assert [round(state.t * 1e3) for state in states] == [1, 3, 4]
    assert len(list(out.glob("*.dat"))) == 9
    for k, state in enumerate(states):
        for var in ("u1", "u2", "u3"):
            name = f"{var}_{k:03d}"
            assert (out / f"{name}.dat").read_text() == format_field(name, getattr(state, var))
    provenance = json.loads((out / "provenance.json").read_text())
    assert provenance["snapshots"] == {f"{k:03d}": state.t for k, state in enumerate(states)}


def test_a_macro_run_with_a_snapshot_at_every_step_peaks_within_one_field():
    # 20 steps at 32^2 against the same run with one snapshot, at its end:
    # holding the snapshots would add 3 fields per step.  The baseline writes
    # one snapshot because formatting a 32^2 dump takes about 13 fields of
    # scratch, more than a step's own temporaries: a run that writes none
    # peaks lower by that fixed amount, whatever the snapshot count
    m, steps = 32, 20
    cfg = MacroConfig(dt=1e-3, t_end=steps * 1e-3, bc="noflux")
    _kernels.box_transforms("dct", 2)  # the kernel loads once per process
    dropping_writer()(MacroState.zero((m, m)))  # so do the formatter's tables
    peaks = []
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        # the first traced run also traces caches that numpy fills once
        for times in ([steps * 1e-3], [steps * 1e-3], [1e-3 * k for k in range(1, steps + 1)]):
            init, _ = handed_over((m, m), 8)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            macropnp.run_macro(cfg, macro_tensors(), init, times, dropping_writer())
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        if not tracing:
            tracemalloc.stop()
    _, one, every = peaks
    assert every - one <= m * m * 8, peaks


def test_the_dns_frees_its_initial_state_after_the_first_step(monkeypatch):
    dom = disc_domain(2, 8, 2)
    init, refs = handed_over(dom.mask.shape, 2, dom.mask)
    seen = watch_steps(monkeypatch, microdns, "step_micro_pnp", refs)
    _, rows = microdns.run_micro(dom, init, MacroConfig(dt=1e-3, t_end=3e-3, bc="noflux"))
    assert len(rows) == 3
    assert init == [] and seen == [[True] * 3, [False] * 3, [False] * 3]


def test_the_dns_command_hands_its_initial_state_over(monkeypatch, tmp_path):
    # cli._dns_runs makes the initial state and keeps no reference to it
    config = tmp_path / "dns.cfg"
    config.write_text("cell.kind = disc\ncell.dim = 2\ncell.resolution = 8\n"
                      "cell.radius = 0.25\nphysics.lambda = 1.0\nphysics.alpha = 4.0\n"
                      "macro.dt = 1e-3\nmacro.t_end = 3e-3\nmicro.s = 1/2 1/3\n")
    cfg = load_config(config)
    refs, seen = [], []
    run_micro, step = microdns.run_micro, microdns.step_micro_pnp

    def recording(dom, init, mcfg):
        refs[:] = [weakref.ref(getattr(init[0], name)) for name in ("u1", "u2", "u3")]
        return run_micro(dom, init, mcfg)

    def watching(*args, **kwargs):
        seen.append(alive(refs))
        return step(*args, **kwargs)

    monkeypatch.setattr(cli, "run_micro", recording)
    monkeypatch.setattr(microdns, "step_micro_pnp", watching)
    cell = build_unit_cell(cfg.geometry_spec(), cfg.cell_resolution)
    assert len(list(cli._dns_runs(cfg, cell))) == 2
    assert seen == 2 * [[True] * 3, [False] * 3, [False] * 3]


@pytest.fixture
def built_operators(monkeypatch):
    """Weakrefs to every ``GridOperators`` built from here on, and to the
    Poisson solver of each that builds one, in build order."""
    refs = []
    init, poisson = GridOperators.__init__, GridOperators.poisson.func

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    def recording_poisson(self):
        solver = poisson(self)
        refs.append(weakref.ref(solver))
        return solver

    monkeypatch.setattr(GridOperators, "__init__", recording)
    monkeypatch.setattr(GridOperators, "poisson", cached_property(recording_poisson))
    GridOperators.poisson.__set_name__(GridOperators, "poisson")
    return refs


def test_the_dns_frees_its_operators_when_it_returns(built_operators):
    # the run builds the grid's operators once and owns them: the domain
    # keeps none, so the solvers' tables go with the run
    dom = disc_domain(2, 8, 2)
    init, _ = handed_over(dom.mask.shape, 3, dom.mask)
    final, rows = microdns.run_micro(dom, init, MacroConfig(dt=1e-3, t_end=3e-3, bc="noflux"))
    assert len(rows) == 3 and len(built_operators) == 2  # the operators and their Poisson
    assert alive(built_operators) == [False, False]
    assert not any(isinstance(value, GridOperators) for value in vars(dom).values())


def test_no_operators_are_alive_during_the_reconstruction(monkeypatch, tmp_path,
                                                           built_operators):
    # the macro run's and each DNS's operators are freed before the
    # reconstruction of that DNS runs
    config = tmp_path / "validate.cfg"
    config.write_text("cell.kind = disc\ncell.dim = 2\ncell.resolution = 8\n"
                      "cell.radius = 0.25\nphysics.lambda = 1.0\nphysics.alpha = 4.0\n"
                      "macro.resolution = 8\nmacro.dt = 1e-3\nmacro.t_end = 2e-3\n"
                      "micro.s = 1/2 1/3\n")
    seen, reconstruct = [], cli.reconstruct_two_scale

    def watching(*args, **kwargs):
        seen.append(alive(built_operators))
        return reconstruct(*args, **kwargs)

    monkeypatch.setattr(cli, "reconstruct_two_scale", watching)
    assert len(cli.run_validation(load_config(config))) == 2
    # the macro grid's operators and Poisson, then each DNS grid's
    assert [len(refs) for refs in seen] == [4, 6]
    assert not any(any(refs) for refs in seen)


@pytest.mark.parametrize("shape", [(24, 24), (8, 8, 8)])
def test_the_picard_loop_frees_its_start_after_iteration_1(monkeypatch, shape):
    # iteration 1 reads the start potential in its Poisson solve and the
    # start densities up to its diffusion solves; later solves find them
    # gone, while the densities of the state it steps from, which form the
    # previous-step terms, live through the loop
    mask = np.random.default_rng(3).random(shape) > 0.2
    ops = GridOperators(shape, coef=np.where(mask, 1.0, 4.0), mask=mask)
    (state,), kept = handed_over(shape, 4, mask)
    (predicted,), refs = handed_over(shape, 5, mask)
    u = [state.u1, state.u2]
    start = [[predicted.u1, predicted.u2], predicted.u3]
    del state, predicted
    seen = []
    solve = SpectralPCG.solve

    def watching(self, *args, **kwargs):
        seen.append(alive(refs) + alive(kept))
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(SpectralPCG, "solve", watching)
    _, _, info = macropnp.picard_step(ops, start, lambda r: u[r] / 1e-3, -np.eye(len(shape)),
                                      MacroConfig(dt=1e-3, t_end=1e-3, bc="noflux"))
    assert info.picard_iters >= 2 and start == []
    held = [True, True, False]  # the state's densities; its u3 is no part of the loop
    assert seen[:3] == [[True] * 3 + held] + 2 * [[True, True, False] + held]
    assert seen[3:] == [[False] * 3 + held] * (len(seen) - 3)


def test_a_256_squared_dns_step_stays_within_its_bytes_per_voxel(tmp_path):
    # the first step builds the operators, the second holds the state it
    # started from, the third also starts from a predictor: each step after
    # them holds what one of these does
    config = tmp_path / "dns.cfg"
    config.write_text("cell.kind = disc\ncell.dim = 2\ncell.resolution = 32\n"
                      "cell.radius = 0.25\nphysics.lambda = 1.0\nphysics.alpha = 4.0\n"
                      "macro.dt = 1e-3\nmacro.t_end = 3e-3\nmicro.s = 1/8\n")
    cfg = load_config(config)
    cell = build_unit_cell(cfg.geometry_spec(), cfg.cell_resolution)
    _kernels.box_transforms("dst", 2)  # the kernel loads once per process
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        for _, dom, _, rows in cli._dns_runs(cfg, cell):
            voxels = dom.mask.size
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert voxels == 256 * 256 and len(rows) == 3
    assert peak / voxels <= DNS_STEP_BYTES_PER_VOXEL


# ---------------------------------------------------------------------------
# the in-place kernels against the allocating ones


def box_systems(mask, alpha, single):
    """SpectralPCG solvers on the grid of ``mask``: the DNS Poisson system
    (singular), the masked diffusion with both boundary kinds (regular), the
    masked no-flux Laplacian (singular and masked) and, in float64, the
    masked periodic cell problem."""
    shape, N = mask.shape, mask.ndim
    h, ones = 1.0 / shape[0], np.ones(N)
    ops = GridOperators(shape, coef=np.where(mask, 1.0, alpha), mask=mask)
    A = _fv.assemble_neumann_operator(shape, h, coef=np.where(mask, 1.0, alpha))
    systems = {"poisson": SpectralPCG(A, shape, h, ones, norm_A=A.norm_inf(), single=single)}
    for bc in ("dirichlet", "noflux"):
        A = _fv.assemble_diffusion_matrix(shape, h, 1e-2, 1.0, bc, mask=mask)
        systems[bc] = SpectralPCG(A, shape, h, ones, 1e2, bc, mask, single=single)
    faces = [ops.open_faces[d] * 1.0 for d in range(N)]
    A = _fv.face_operator(shape, h, faces, np.where(mask, 0.0, 1.0))
    systems["masked neumann"] = SpectralPCG(A, shape, h, ones, mask=mask, single=single)
    if not single:
        apply = periodic_operator(harmonic_face_coefficients(np.ones(shape), mask), h)
        systems["masked periodic"] = SpectralPCG(apply, shape, h, ones, bc="periodic",
                                                 mask=mask)
    return systems


def outcome(solver, b, x0):
    """(x bytes, certificate, iterations) of a solve, or its error message."""
    try:
        x, cert, it = solver.solve(b, 1e-10, x0)
    except SolverError as exc:
        return str(exc)
    return x.tobytes(), cert, it


@settings(max_examples=25)
@given(random_masks(), st.floats(0.25, 100.0), st.booleans(), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_in_place_cg_gives_the_bits_of_the_allocating_kernel(mask, alpha, single, warm,
                                                             seed):
    # the kernel and the preconditioner, which writes z into the kernel's
    # scratch array, against both as they were when each made new arrays
    rng = np.random.default_rng(seed)
    systems = box_systems(mask, alpha, single)
    b = rng.standard_normal(mask.shape)
    x0 = rng.standard_normal(mask.shape) if warm else None
    iterations = 0
    with pytest.MonkeyPatch.context() as mp:
        for name, solver in systems.items():
            mp.setattr(cellcorrect, "pcg", oracles.allocating_pcg)
            mp.setattr(SpectralPCG, "_precondition", oracles.allocating_precondition)
            expected = outcome(solver, b, x0)
            mp.undo()
            assert outcome(solver, b, x0) == expected, name
            iterations += 0 if isinstance(expected, str) else expected[2]
    assert iterations > 0


@pytest.mark.parametrize("single", [False, True])
@pytest.mark.parametrize("bc", ["noflux", "dirichlet"])
@pytest.mark.parametrize("shape", [(24, 24), (8, 8, 8)])
def test_preconditioner_transforms_keep_their_bits_and_the_residual(shape, bc, single):
    # the float32 transforms overwrite their own cast of the residual; the
    # float64 ones must not write into the residual, which the cast returns.
    # The result goes into the array handed over
    mask = np.random.default_rng(5).random(shape) > 0.2
    h, ones = 1.0 / shape[0], np.ones(len(shape))
    A = _fv.assemble_diffusion_matrix(shape, h, 1e-2, 1.0, bc, mask=mask)
    solver = SpectralPCG(A, shape, h, ones, 1e2, bc, mask, single=single)
    forward, inverse = _kernels.box_transforms("dst" if bc == "dirichlet" else "dct",
                                                 len(shape))
    r = np.random.default_rng(6).standard_normal(shape)
    kept, out = r.copy(), np.full(shape, np.nan)
    z = solver._precondition(r, out)
    expected = inverse(forward(r.astype(solver.inv_symbol.dtype)) * solver.inv_symbol)
    expected = expected.astype(float) * mask
    assert r.tobytes() == kept.tobytes()
    assert z is out and z.tobytes() == expected.tobytes()
