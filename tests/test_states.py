import hashlib
import itertools
import json
import math
import threading

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
        assert relerr(pi.trace(), sum(abs(x) ** 2 for x in psi.amplitudes.ravel())) < 1e-14

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

    @pytest.mark.parametrize("index", [1.7, 1.0, True, "2", 2.0, None])
    def test_indices_must_be_integers(self, index):
        rho = S.random_density((2, 3), seed=9)
        S.partial_trace(rho, {1})  # cached first: {True} and {1.0} hash equal to {1}
        with pytest.raises(ValueError, match=f"subsystem index must be an integer: {index!r}"):
            S.partial_trace(rho, {index})

    def test_numpy_integer_indices(self):
        rho = S.random_density((2, 3), seed=9)
        got = S.partial_trace(rho, {np.int64(1)})
        assert got.dims == (3,)
        assert np.array_equal(got.entries, S.partial_trace(rho, {1}).entries)


class TestTensorWithIdentity:
    def test_identity_insertion_trick(self):
        m = S.random_density((2, 2), seed=18)
        m2 = S.DensityMatrix(m.dims, m.entries @ m.entries)
        lhs = np.trace(S.partial_trace(m2, {1}).entries @ S.partial_trace(m, {1}).entries)
        rhs = np.trace(m2.entries @ np.kron(np.eye(2), S.partial_trace(m, {1}).entries))
        assert relerr(lhs, rhs) < 1e-12


SAMPLERS = ["random_pure", "random_density", "random_hermitian", "random_local_unitaries"]

#: sha256 of the bytes each sampler draws on dims (2, 3) at seed 5
SAMPLE_SHA256 = {
    "random_pure": "5e725f871e5f46c984e59db37a4ea2908a4cc0ae219b5cc72ca7e09d4b092b75",
    "random_density": "85716729a7452d5cf07f5a40ea2d91ce8d74c40af5970faebde20d2d4811be54",
    "random_hermitian": "61ab6673e10155825fc404350b0ea43d00a978dbaaa56b02ce7ddc7f9a9f2b73",
    "random_local_unitaries": "54fe17ccc26fb82b85b8391c96990d29bd0cde1d5a56ba9c4673e3f7b52b3ca5",
}


def drawn(sample):
    """A sampler's output as a list of arrays."""
    if isinstance(sample, S.PureState):
        return [sample.amplitudes]
    if isinstance(sample, S.DensityMatrix):
        return [sample.entries]
    return sample


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

    @pytest.mark.parametrize("rank", [True, 2.5, 2.0, "2", -1])
    def test_rank_must_be_a_positive_integer(self, rank):
        with pytest.raises(ValueError, match=f"rank must be a positive integer: {rank!r}"):
            S.random_density((2, 2), seed=0, rank=rank)

    @pytest.mark.parametrize("sampler", SAMPLERS)
    @pytest.mark.parametrize("seed", [True, 2.5, "3", -1])
    def test_seed_must_be_a_non_negative_integer(self, sampler, seed):
        with pytest.raises(ValueError, match=f"seed must be a non-negative integer: {seed!r}"):
            getattr(S, sampler)((2, 3), seed)

    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_each_sampler_checks_its_dims_once(self, sampler, monkeypatch):
        # the digests of the samples' bytes were pinned while each sampled
        # record checked its dims a second time in its constructor
        calls = []
        check_dims = S.check_dims
        monkeypatch.setattr(S, "check_dims", lambda dims: calls.append(dims) or check_dims(dims))
        arrays = drawn(getattr(S, sampler)((2, 3), 5))
        assert calls == [(2, 3)]
        digest = hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()
        assert digest == SAMPLE_SHA256[sampler]

    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_numpy_integer_seed(self, sampler):
        draw = getattr(S, sampler)
        got, want = drawn(draw((2, 3), np.int64(3))), drawn(draw((2, 3), 3))
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


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


#: The generator seeds the stack tests draw from, and the stack size.
SEEDS = [3, 17, 4, 99, 0]
SAMPLES = 5


def in_a_row(draw, seed):
    """SAMPLES single draws in a row from one default_rng(seed) stream."""
    rng = np.random.default_rng(seed)
    return [draw(rng) for _ in range(SAMPLES)]


def same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(np.ascontiguousarray(got).view(np.uint8),
                          np.ascontiguousarray(want).view(np.uint8))


class TestStacks:
    """A stack of n drawn from one generator holds, bit for bit, the n single
    draws that generator gives in a row, each real parts then imaginary
    parts; each single-state sampler is a stack of one from
    default_rng(seed).  The stacked rotations and purifications agree with
    the references above."""

    @pytest.mark.parametrize("dims", [(2, 3), (2, 2, 2)])
    def test_samplers(self, dims):
        n = math.prod(dims)
        for seed in SEEDS:
            same_bits(S._pure_stack(dims, np.random.default_rng(seed), SAMPLES),
                      np.array(in_a_row(lambda rng: ref_draw(rng, dims), seed)))
            for rank in (1, 3, None):
                def density(rng):
                    a = ref_draw(rng, (n, rank or n))
                    return a @ a.conj().T

                same_bits(S._density_stack(dims, np.random.default_rng(seed), SAMPLES, rank),
                          np.array(in_a_row(density, seed)))

    @pytest.mark.parametrize("dims", [(2, 3), (2, 2, 2), (3, 2, 4)])
    def test_haar_rotations(self, dims):
        seed = SEEDS[0]
        stacks = S._unitary_stacks(dims, np.random.default_rng(seed), SAMPLES)
        for got, want in zip(stacks, zip(*in_a_row(
                lambda rng: [ref_haar(nj, rng) for nj in dims], seed)), strict=True):
            same_bits(got, np.array(want))
        amps = S._pure_stack(dims, np.random.default_rng(seed), SAMPLES)
        rhos = S._density_stack(dims, np.random.default_rng(seed), SAMPLES)
        rotated = S._rotate_stack(amps, stacks)
        rotated_mixed = S._rotate_mixed_stack(rhos, dims, stacks)
        for i in range(SAMPLES):
            us = [stack[i] for stack in stacks]
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

    @pytest.mark.parametrize("dims", [(2, 3), (16, 16), (64, 64)])
    def test_rotation_plans_cost_one_matrix_product_per_axis(self, dims):
        # per state, rotating axis j of a tensor of N entries is one (d_j x d_j)
        # times (d_j x N/d_j) product: 2 N d_j FLOPs by numpy's count, and
        # never more than the rotated tensor in memory.  No state is drawn.
        n, k = math.prod(dims), len(dims)
        pure = [S._rotation_plan(dims, axis) for axis in range(1, k + 1)]
        mixed = [S._rotation_plan(dims + dims, axis) for axis in range(1, 2 * k + 1)]
        assert sum(p.flops for p in pure) == 2 * n * sum(dims)
        assert sum(p.flops for p in mixed) == 4 * n * n * sum(dims)
        assert max(p.largest_intermediate for p in pure) == n
        assert max(p.largest_intermediate for p in mixed) == n * n
        assert all(len(p.terms) == 2 and len(p.program) == 1 for p in pure + mixed)
        # the last axis needs no final transpose: the stack comes out C-ordered
        assert pure[-1]._final_axes is None and mixed[-1]._final_axes is None

    def test_purifications(self):
        dims = (2, 2)
        # ranks 1..4 in one stack: the purifications' dims differ
        rhos = np.stack([S.random_density(dims, seed, rank=1 + i % 4).entries
                         for i, seed in enumerate(SEEDS)])
        amps = S._purify_stack(rhos, dims)
        assert amps.shape == (len(SEEDS),) + dims + (4,) and amps.flags.c_contiguous
        for i, amp in enumerate(amps):
            want = ref_purify(rhos[i], dims)
            rank = want.shape[-1]
            assert np.array_equal(amp[..., :rank], want)
            assert not amp[..., rank:].any()
            phi = S.purify(S.DensityMatrix(dims, rhos[i]))
            assert phi.dims == want.shape and np.array_equal(phi.amplitudes, want)
            assert phi.amplitudes.flags.c_contiguous

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2, 2)])
    def test_one_call_draws_are_the_two_call_draws_bitwise(self, dims):
        # each single-state sampler is its reference formula on two
        # standard_normal calls from default_rng(seed), real parts then
        # imaginary parts, and a stack of one from that generator
        one = np.random.default_rng
        n = math.prod(dims)
        for seed in SEEDS:
            psi = S.random_pure(dims, seed).amplitudes
            same_bits(psi, ref_draw(one(seed), dims))
            same_bits(psi, S._pure_stack(dims, one(seed), 1)[0])
            for rank in (1, 3, None):
                rho = S.random_density(dims, seed, rank).entries
                a = ref_draw(one(seed), (n, rank or n))
                same_bits(rho, a @ a.conj().T)
                same_bits(rho, S._density_stack(dims, one(seed), 1, rank)[0])
            b = ref_draw(one(seed), (n, n))
            same_bits(S.random_hermitian(dims, seed).entries, (b + b.conj().T) / 2)
            us = S.random_local_unitaries(dims, seed)
            rng = one(seed)
            for u, nj in zip(us, dims, strict=True):
                same_bits(u, S._haar_stack(ref_draw(rng, (nj, nj))[None] / np.sqrt(2))[0])
            for u, stack in zip(us, S._unitary_stacks(dims, one(seed), 1), strict=True):
                same_bits(u, stack[0])

    def test_empty_stacks(self):
        dims = (2, 3)
        rng = np.random.default_rng(0)
        amps, rhos = S._pure_stack(dims, rng, 0), S._density_stack(dims, rng, 0)
        assert amps.shape == (0, 2, 3)
        assert S._projector_stack(amps).shape == (0, 6, 6)
        assert rhos.shape == (0, 6, 6)
        stacks = S._unitary_stacks(dims, rng, 0)
        assert [u.shape for u in stacks] == [(0, 2, 2), (0, 3, 3)]
        assert S._rotate_stack(amps, stacks).shape == (0, 2, 3)
        assert S._rotate_mixed_stack(rhos, dims, stacks).shape == (0, 6, 6)
        assert S._purify_stack(rhos, dims).shape == (0, 2, 3, 1)


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
        with S.dim_limit(4):
            pi = S.projector(psi)
            assert relerr(pi.trace(), psi.norm() ** 2) < 1e-12
            assert S.partial_trace(rho, {3}).dims == (2, 2)
            with pytest.raises(ResourceLimitError, match="exceeds limit"):
                S.DensityMatrix((2, 2, 2), rho.entries)
            with pytest.raises(ResourceLimitError, match="exceeds limit"):
                S.PureState((2, 2, 2), psi.amplitudes)

    def test_limit_override(self):
        with S.dim_limit(2 ** 13):
            S.check_dims((2,) * 13)

    @pytest.mark.parametrize("limit", [0, -3, True, 2.5, "8", None])
    def test_dim_limit_must_be_a_positive_integer(self, limit):
        with pytest.raises(ValueError, match="positive integer"):
            with S.dim_limit(limit):
                pytest.fail("the block ran")
        S.check_dims((2,) * 12)
        with pytest.raises(ResourceLimitError, match="exceeds limit 4096"):
            S.check_dims((2,) * 13)

    def test_numpy_integer_dim_limit(self):
        with S.dim_limit(np.int64(8)) as limit:
            assert type(limit) is int and limit == 8
            with pytest.raises(ResourceLimitError, match="exceeds limit 8;"):
                S.check_dims((3, 3))

    def test_nested_blocks_restore_in_order(self):
        with S.dim_limit(64):
            with S.dim_limit(8):
                with pytest.raises(ResourceLimitError, match="exceeds limit 8;"):
                    S.check_dims((3, 3))
            S.check_dims((8, 8))
            with pytest.raises(ResourceLimitError, match="exceeds limit 64;"):
                S.check_dims((5, 13))
        S.check_dims((64, 64))
        with pytest.raises(ResourceLimitError, match="exceeds limit 4096;"):
            S.check_dims((2,) * 13)

    def test_an_exception_in_the_block_restores_the_limit(self):
        with pytest.raises(KeyError):
            with S.dim_limit(8):
                raise KeyError("inside")
        S.check_dims((64, 64))
        with pytest.raises(ResourceLimitError, match="exceeds limit 4096;"):
            S.check_dims((2,) * 13)

    def test_a_thread_starts_from_the_default(self):
        seen = []

        def probe():
            S.check_dims((64, 64))
            with pytest.raises(ResourceLimitError, match="exceeds limit 4096;") as info:
                S.check_dims((2,) * 13)
            seen.append(info.value)

        with S.dim_limit(2 ** 13):
            worker = threading.Thread(target=probe)
            worker.start()
            worker.join(timeout=30)
            S.check_dims((2,) * 13)
        assert not worker.is_alive()
        assert len(seen) == 1

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            S.check_dims((2, 0))

    @pytest.mark.parametrize("dims", [(2.7, 2), (True, 2), ("3", 2), (2.7, True)])
    def test_dims_must_be_integers(self, dims):
        with pytest.raises(ValueError, match="positive integers"):
            S.check_dims(dims)

    def test_numpy_integer_dims(self):
        dims = S.check_dims((np.int64(2), 3))
        assert dims == (2, 3) and all(type(n) is int for n in dims)


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
