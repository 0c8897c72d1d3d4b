import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import relerr, unit_density, unit_pure
from luinv import states as S
from luinv.errors import ResourceLimitError


def bell():
    return S.PureState((2, 2), np.array([[1, 0], [0, 1]], dtype=complex))


def loop_partial_trace(rho, traced):
    """Independent index-loop reduction used as the oracle."""
    dims = rho.dims
    k = len(dims)
    keep = [j for j in range(k) if (j + 1) not in traced]
    new_dims = tuple(dims[j] for j in keep) or (1,)
    out = np.zeros((math.prod(new_dims), math.prod(new_dims)), dtype=complex)
    t = rho.tensor()
    for row in itertools.product(*[range(d) for d in dims]):
        for col in itertools.product(*[range(d) for d in dims]):
            if any(row[j] != col[j] for j in range(k) if (j + 1) in traced):
                continue
            r_idx = 0
            c_idx = 0
            for j in keep:
                r_idx = r_idx * dims[j] + row[j]
                c_idx = c_idx * dims[j] + col[j]
            out[r_idx, c_idx] += t[row + col]
    return S.DensityMatrix(new_dims, out)


class TestProjector:
    def test_basis_state(self):
        psi = S.PureState((2,), np.array([1, 0], dtype=complex))
        assert np.array_equal(S.projector(psi).entries, np.diag([1, 0]).astype(complex))

    def test_bell(self):
        pi = S.projector(bell())
        want = np.zeros((4, 4), dtype=complex)
        for a in (0, 3):
            for b in (0, 3):
                want[a, b] = 1
        assert np.array_equal(pi.entries, want)

    def test_trace_is_norm_squared(self):
        psi = S.random_pure((2, 3), seed=0)
        pi = S.projector(psi)
        assert relerr(pi.trace(), sum(abs(x) ** 2 for x in psi.vector())) < 1e-14

    def test_rank_one(self):
        pi = S.projector(S.random_pure((2, 2), seed=1))
        sv = np.linalg.svd(pi.entries, compute_uv=False)
        assert sv[1] < 1e-12 * sv[0]


class TestPartialTrace:
    def test_empty_set(self):
        rho = S.random_density((2, 2), seed=2)
        assert S.partial_trace(rho, []) is rho

    def test_bell_reduction(self):
        p1 = S.partial_trace(S.projector(bell()), {2})
        assert np.allclose(p1.entries, np.eye(2), atol=1e-14)

    def test_trace_everything(self):
        rho = S.random_density((2, 3), seed=3)
        full = S.partial_trace(rho, {1, 2})
        assert full.dims == (1,)
        assert relerr(full.entries[0, 0], rho.trace()) < 1e-14

    @pytest.mark.parametrize("traced", [{1}, {2}, {3}, {1, 3}, {2, 3}])
    def test_against_loop_oracle(self, traced):
        rho = S.random_density((2, 3, 2), seed=4)
        got = S.partial_trace(rho, traced)
        want = loop_partial_trace(rho, traced)
        assert got.dims == want.dims
        assert np.allclose(got.entries, want.entries, atol=1e-12)

    def test_preserves_trace(self):
        rho = S.random_density((2, 2, 3), seed=5)
        for traced in [{1}, {2, 3}, {1, 2, 3}]:
            red = S.partial_trace(rho, traced)
            assert relerr(red.trace(), rho.trace()) < 1e-12

    def test_chaining(self):
        rho = S.random_density((2, 2, 2), seed=6)
        once = S.partial_trace(rho, {1, 3})
        # after tracing {1}, original subsystem 3 sits at position 2
        twice = S.partial_trace(S.partial_trace(rho, {1}), {2})
        assert np.allclose(once.entries, twice.entries, atol=1e-12)

    def test_linear(self):
        a = S.random_density((2, 2), seed=7)
        b = S.random_density((2, 2), seed=8)
        mix = S.DensityMatrix((2, 2), 0.3 * a.entries + 1.7 * b.entries)
        got = S.partial_trace(mix, {1})
        want = 0.3 * S.partial_trace(a, {1}).entries + 1.7 * S.partial_trace(b, {1}).entries
        assert np.allclose(got.entries, want, atol=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            S.partial_trace(S.random_density((2, 2), seed=9), {3})


class TestPartialTranspose:
    def test_empty_is_identity_map(self):
        rho = S.random_density((2, 2), seed=10)
        assert S.partial_transpose(rho, []) is rho

    def test_involution(self):
        rho = S.random_density((2, 3), seed=11)
        back = S.partial_transpose(S.partial_transpose(rho, {1}), {1})
        assert np.array_equal(back.entries, rho.entries)

    def test_full_set_is_matrix_transpose(self):
        rho = S.random_density((2, 2, 2), seed=12)
        full = S.partial_transpose(rho, {1, 2, 3})
        assert np.array_equal(full.entries, rho.entries.T)

    def test_cubes_of_both_transposes_agree(self):
        # for a bipartite state, transposing either side gives the same
        # third-power trace (global transpose leaves traces fixed)
        rho = S.random_density((2, 3), seed=13)
        t1 = S.partial_transpose(rho, {1}).entries
        t2 = S.partial_transpose(rho, {2}).entries
        a = np.trace(np.linalg.matrix_power(t1, 3))
        b = np.trace(np.linalg.matrix_power(t2, 3))
        assert relerr(a, b) < 1e-12

    def test_commutes_with_partial_trace_on_disjoint_sets(self):
        rho = S.random_density((2, 2, 2), seed=14)
        a = S.partial_trace(S.partial_transpose(rho, {2}), {1})
        # after tracing subsystem 1, original subsystem 2 is position 1
        b = S.partial_transpose(S.partial_trace(rho, {1}), {1})
        assert np.allclose(a.entries, b.entries, atol=1e-12)


class TestTensorWithIdentity:
    def test_empty_id_set(self):
        rho = S.random_density((2, 2), seed=15)
        assert S.tensor_with_identity(rho, [], (2, 2)) is rho

    def test_scalar_becomes_identity(self):
        rho = S.random_density((2, 3), seed=16)
        scalar = S.partial_trace(rho, {1, 2})
        full = S.tensor_with_identity(scalar, {1, 2}, (2, 3))
        assert np.allclose(full.entries, rho.trace() * np.eye(6), atol=1e-12)

    def test_placement_order(self):
        a = S.random_density((2,), seed=17)
        padded = S.tensor_with_identity(a, {1}, (3, 2))
        want = np.kron(np.eye(3), a.entries)
        assert np.allclose(padded.entries, want, atol=1e-14)
        padded = S.tensor_with_identity(a, {2}, (2, 3))
        want = np.kron(a.entries, np.eye(3))
        assert np.allclose(padded.entries, want, atol=1e-14)

    def test_identity_insertion_trick(self):
        m = S.random_density((2, 2), seed=18)
        m2 = S.DensityMatrix(m.dims, m.entries @ m.entries)
        lhs = np.trace(S.partial_trace(m2, {1}).entries @ S.partial_trace(m, {1}).entries)
        rhs = np.trace(
            m2.entries
            @ S.tensor_with_identity(S.partial_trace(m, {1}), {1}, m.dims).entries
        )
        assert relerr(lhs, rhs) < 1e-12

    def test_dims_mismatch(self):
        a = S.random_density((2,), seed=19)
        with pytest.raises(ValueError, match="do not match"):
            S.tensor_with_identity(a, {1}, (2, 3))


class TestSampling:
    def test_deterministic(self):
        assert np.array_equal(
            S.random_pure((2, 2), seed=42).amplitudes,
            S.random_pure((2, 2), seed=42).amplitudes,
        )
        assert np.array_equal(
            S.random_density((2, 2), seed=42).entries,
            S.random_density((2, 2), seed=42).entries,
        )
        u1 = S.random_local_unitaries((2, 3), seed=42)
        u2 = S.random_local_unitaries((2, 3), seed=42)
        assert all(np.array_equal(a, b) for a, b in zip(u1, u2))

    def test_unitarity(self):
        for n, u in zip((2, 3, 4), S.random_local_unitaries((2, 3, 4), seed=0)):
            assert np.abs(u.conj().T @ u - np.eye(n)).max() < 1e-12

    def test_density_is_hermitian_psd(self):
        rho = S.random_density((2, 2), seed=1, rank=2)
        assert S.is_hermitian(rho)
        vals = np.linalg.eigvalsh(rho.entries)
        assert vals.min() >= -1e-12 * vals.max()

    def test_rank_control(self):
        rho = S.random_density((2, 2), seed=2, rank=2)
        vals = np.linalg.eigvalsh(rho.entries)
        assert (vals > 1e-10 * vals.max()).sum() == 2

    def test_rank_validation(self):
        with pytest.raises(ValueError, match="rank"):
            S.random_density((2,), seed=0, rank=0)


class TestLocalUnitaries:
    def test_identity_unchanged(self):
        psi = S.random_pure((2, 3), seed=3)
        out = S.apply_local_unitaries(psi, [np.eye(2), np.eye(3)])
        assert np.allclose(out.amplitudes, psi.amplitudes, atol=1e-15)

    def test_norm_preserved(self):
        psi = S.random_pure((2, 2, 2), seed=4)
        us = S.random_local_unitaries(psi.dims, seed=5)
        assert relerr(S.apply_local_unitaries(psi, us).norm(), psi.norm()) < 1e-12

    def test_trace_preserved(self):
        rho = S.random_density((2, 3), seed=6)
        us = S.random_local_unitaries(rho.dims, seed=7)
        out = S.apply_local_unitaries_mixed(rho, us)
        assert relerr(out.trace(), rho.trace()) < 1e-12
        assert S.is_hermitian(out, tol=1e-10)

    def test_mixed_matches_pure_on_projector(self):
        psi = S.random_pure((2, 2), seed=8)
        us = S.random_local_unitaries(psi.dims, seed=9)
        a = S.projector(S.apply_local_unitaries(psi, us))
        b = S.apply_local_unitaries_mixed(S.projector(psi), us)
        assert np.allclose(a.entries, b.entries, atol=1e-10)

    def test_shape_mismatch(self):
        psi = S.random_pure((2, 3), seed=10)
        with pytest.raises(ValueError, match="shape"):
            S.apply_local_unitaries(psi, [np.eye(2), np.eye(2)])


class TestPurify:
    def test_rank_one(self):
        psi = unit_pure((2, 2), seed=11)
        phi = S.purify(S.projector(psi))
        assert phi.dims == (2, 2, 1)
        back = S.partial_trace(S.projector(phi), {3})
        assert np.allclose(back.entries, S.projector(psi).entries, atol=1e-10)

    def test_maximally_mixed_qubit(self):
        rho = S.DensityMatrix((2,), np.diag([0.5, 0.5]).astype(complex))
        phi = S.purify(rho)
        assert phi.dims == (2, 2)
        back = S.partial_trace(S.projector(phi), {2})
        assert np.allclose(back.entries, rho.entries, atol=1e-12)

    def test_random_rank3_round_trip(self):
        rho = S.random_density((2, 2), seed=12, rank=3)
        phi = S.purify(rho)
        assert phi.dims == (2, 2, 3)
        back = S.partial_trace(S.projector(phi), {3})
        scale = np.abs(rho.entries).max()
        assert np.abs(back.entries - rho.entries).max() < 1e-10 * scale

    def test_rejects_non_psd(self):
        rho = S.DensityMatrix((2,), np.diag([1.0, -0.5]).astype(complex))
        with pytest.raises(ValueError, match="positive semidefinite"):
            S.purify(rho)

    def test_rejects_non_hermitian(self):
        mat = np.array([[1, 1], [0, 1]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            S.purify(S.DensityMatrix((2,), mat))


# Single-state reference implementations: the draws, the Mezzadri QR, the
# rotations by tensordot and by the Kronecker product, and the column-by-column
# purification that the stacked versions replace.


def ref_draw(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def ref_haar(n, rng):
    z = ref_draw(rng, (n, n)) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def ref_rotate(amp, us):
    for j, u in enumerate(us):
        amp = np.moveaxis(np.tensordot(u, amp, axes=([1], [j])), 0, j)
    return amp


def ref_rotate_mixed(entries, us):
    full = us[0]
    for u in us[1:]:
        full = np.kron(full, u)
    return full @ entries @ full.conj().T


def ref_purify(entries, dims, tol=1e-12):
    vals, vecs = np.linalg.eigh((entries + entries.conj().T) / 2)
    scale = max(float(np.abs(vals).max()), 1e-300)
    rank = max(int((vals > tol * scale).sum()), 1)
    order = np.argsort(vals)[::-1][:rank]
    amp = np.zeros((entries.shape[0], rank), dtype=complex)
    for i, idx in enumerate(order):
        amp[:, i] = np.sqrt(max(vals[idx], 0.0)) * vecs[:, idx]
    return amp.reshape(dims + (rank,))


SEEDS = [3, 17, 4, 99, 0]


class TestStacks:
    """Each sample keeps its own seed and rng calls; the stacks of n agree
    with the single-state functions and with the references above."""

    @pytest.mark.parametrize("dims", [(2, 3), (2, 2, 2)])
    def test_samplers(self, dims):
        amps = S._pure_stack(dims, SEEDS)
        n = math.prod(dims)
        for rank in (1, 3, None):
            rhos = S._density_stack(dims, SEEDS, rank)
            for i, seed in enumerate(SEEDS):
                a = ref_draw(np.random.default_rng(seed), (n, rank or n))
                assert np.array_equal(rhos[i], a @ a.conj().T)
                assert np.array_equal(rhos[i], S.random_density(dims, seed, rank).entries)
        for i, seed in enumerate(SEEDS):
            assert np.array_equal(amps[i], ref_draw(np.random.default_rng(seed), dims))
            assert np.array_equal(amps[i], S.random_pure(dims, seed).amplitudes)

    @pytest.mark.parametrize("dims", [(2, 3), (2, 2, 2), (3, 2, 4)])
    def test_haar_rotations(self, dims):
        stacks = S._unitary_stacks(dims, SEEDS)
        amps = S._pure_stack(dims, SEEDS)
        rhos = S._density_stack(dims, SEEDS)
        rotated = S._rotate_stack(amps, stacks)
        rotated_mixed = S._rotate_mixed_stack(rhos, dims, stacks)
        for i, seed in enumerate(SEEDS):
            rng = np.random.default_rng(seed)
            us = [stack[i] for stack in stacks]
            for u, n, single in zip(us, dims, S.random_local_unitaries(dims, seed)):
                assert np.array_equal(u, ref_haar(n, rng))
                assert np.array_equal(u, single)
            psi = S.PureState(dims, amps[i])
            rho = S.DensityMatrix(dims, rhos[i])
            want = ref_rotate(amps[i], us)
            scale = np.abs(want).max()
            assert np.abs(rotated[i] - want).max() < 1e-14 * scale
            assert np.array_equal(S.apply_local_unitaries(psi, us).amplitudes, rotated[i])
            want = ref_rotate_mixed(rhos[i], us)
            scale = np.abs(want).max()
            assert np.abs(rotated_mixed[i] - want).max() < 1e-14 * scale
            assert np.array_equal(S.apply_local_unitaries_mixed(rho, us).entries,
                                  rotated_mixed[i])

    def test_purifications(self):
        dims = (2, 2)
        # ranks 1..4 in one stack: the purifications' dims differ
        rhos = np.stack([S.random_density(dims, seed, rank=1 + i % 4).entries
                         for i, seed in enumerate(SEEDS)])
        phis = S._purify_stack(rhos, dims)
        for i, phi in enumerate(phis):
            want = ref_purify(rhos[i], dims)
            assert phi.dims == want.shape
            assert np.array_equal(phi.amplitudes, want)
            assert phi.amplitudes.flags.c_contiguous
            assert np.array_equal(S.purify(S.DensityMatrix(dims, rhos[i])).amplitudes, want)

    def test_empty_stacks(self):
        dims = (2, 3)
        assert S._pure_stack(dims, []).shape == (0, 2, 3)
        assert S._projector_stack(S._pure_stack(dims, [])).shape == (0, 6, 6)
        assert S._density_stack(dims, []).shape == (0, 6, 6)
        stacks = S._unitary_stacks(dims, [])
        assert [u.shape for u in stacks] == [(0, 2, 2), (0, 3, 3)]
        assert S._rotate_stack(S._pure_stack(dims, []), stacks).shape == (0, 2, 3)
        assert S._rotate_mixed_stack(S._density_stack(dims, []), dims, stacks).shape == (0, 6, 6)
        assert S._purify_stack(S._density_stack(dims, []), dims) == []


class TestStateFiles:
    def test_pure_round_trip(self, tmp_path):
        psi = S.random_pure((2, 3), seed=13)
        path = tmp_path / "pure.json"
        S.save_state(psi, path)
        again = S.load_state(path)
        assert isinstance(again, S.PureState)
        assert again.dims == psi.dims
        assert np.array_equal(again.amplitudes, psi.amplitudes)

    def test_mixed_round_trip(self, tmp_path):
        rho = S.random_density((2, 2), seed=14)
        path = tmp_path / "mixed.json"
        S.save_state(rho, path)
        again = S.load_state(path)
        assert isinstance(again, S.DensityMatrix)
        assert np.array_equal(again.entries, rho.entries)

    def test_schema(self, tmp_path):
        path = tmp_path / "s.json"
        S.save_state(bell(), path)
        doc = json.loads(path.read_text())
        assert doc["dims"] == [2, 2] and doc["kind"] == "pure"
        assert doc["data"][0][0] == [1.0, 0.0]

    def test_rejects_bad_shape(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dims": [2, 2], "kind": "pure", "data": [[1.0, 0.0]]}')
        with pytest.raises(ValueError):
            S.load_state(path)

    def test_rejects_non_hermitian_mixed(self, tmp_path):
        path = tmp_path / "bad.json"
        data = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        path.write_text(json.dumps({"dims": [2], "kind": "mixed", "data": data}))
        with pytest.raises(ValueError, match="Hermitian"):
            S.load_state(path)

    def test_rejects_unknown_kind(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dims": [2], "kind": "thermal", "data": [[1.0, 0.0], [0.0, 0.0]]}')
        with pytest.raises(ValueError, match="kind"):
            S.load_state(path)

    @pytest.mark.parametrize("doc", [
        '{"dims": [2], "kind": "pure", "data": [[NaN, 0], [1, 0]]}',
        '{"dims": [2], "kind": "mixed", "data": [[[1, 0], [0, 0]], [[0, 0], [Infinity, 0]]]}',
        '{"dims": [2], "kind": "pure", "data": [[1, -Infinity], [1, 0]]}',
    ])
    def test_rejects_non_finite_entries(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        with pytest.raises(ValueError, match="non-finite"):
            S.load_state(path)


class TestResourceGuard:
    def test_dim_limit(self):
        with pytest.raises(ResourceLimitError, match="exceeds limit"):
            S.check_dims((2,) * 13)
        # operators derived from checked states skip the guard; a state a
        # user builds over the limit still trips it
        psi = S.random_pure((2, 2, 2), seed=0)
        rho = S.random_density((2, 2, 2), seed=1)
        old = S.dim_limit()
        try:
            S.set_dim_limit(4)
            pi = S.projector(psi)
            assert relerr(pi.trace(), psi.norm() ** 2) < 1e-12
            assert S.partial_trace(rho, {3}).dims == (2, 2)
            pt = S.partial_transpose(rho, {1})
            assert np.allclose(S.partial_transpose(pt, {1}).entries, rho.entries)
            with pytest.raises(ResourceLimitError, match="exceeds limit"):
                S.DensityMatrix((2, 2, 2), rho.entries)
            with pytest.raises(ResourceLimitError, match="exceeds limit"):
                S.PureState((2, 2, 2), psi.amplitudes)
            with pytest.raises(ResourceLimitError, match="exceeds limit"):
                S.tensor_with_identity(S.partial_trace(rho, {3}), {3}, (2, 2, 2))
        finally:
            S.set_dim_limit(old)

    def test_limit_override(self):
        old = S.dim_limit()
        try:
            S.set_dim_limit(2 ** 13)
            S.check_dims((2,) * 13)
        finally:
            S.set_dim_limit(old)

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            S.check_dims((2, 0))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_partial_trace_preserves_trace_property(seed):
    rho = S.random_density((2, 2), seed=seed)
    red = S.partial_trace(rho, {2})
    assert relerr(red.trace(), rho.trace()) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_purify_round_trip_property(seed):
    rho = unit_density((2, 2), seed=seed, rank=(seed % 4) + 1)
    phi = S.purify(rho)
    back = S.partial_trace(S.projector(phi), {3})
    assert np.abs(back.entries - rho.entries).max() < 1e-10
