import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from updrspred.errors import ParameterError
from updrspred.linalg import RandomSource, Workspace


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a = RandomSource(123)
        b = RandomSource(123)
        assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]

    def test_seed_zero_known_answer(self):
        # the first outputs of SplitMix64 from seed 0, as published
        expected = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
                    0xF88BB8A8724C81EC, 0x1B39896A51A8749B]
        assert RandomSource(0).u64_block(5).tolist() == expected
        mixed = RandomSource(0)
        drawn = mixed.u64_block(2).tolist() + [mixed.next_u64()] + mixed.u64_block(2).tolist()
        assert drawn == expected

    def test_uniforms_in_unit_interval(self):
        u = RandomSource(2).uniforms(10000)
        assert np.all((u >= 0.0) & (u < 1.0))

    def test_different_seeds_differ(self):
        assert RandomSource(1).next_u64() != RandomSource(2).next_u64()

    def test_permutation_is_permutation(self):
        rng = RandomSource(77)
        for n in (1, 2, 5, 100):
            p = rng.permutation(n)
            assert sorted(p.tolist()) == list(range(n))

    def test_permutation_deterministic(self):
        assert np.array_equal(RandomSource(5).permutation(50), RandomSource(5).permutation(50))

    def test_integers_within_bound(self):
        vals = RandomSource(8).integers(7, 1000)
        assert vals.min() >= 0 and vals.max() < 7

    def test_spawn_diverges_from_parent(self):
        parent = RandomSource(11)
        child = parent.spawn()
        assert child.seed != parent.seed
        assert child.next_u64() != parent.next_u64()


class TestRandomSourceProperties:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), before=st.integers(0, 200),
           split=st.integers(0, 200), extra=st.integers(1, 50))
    def test_spawn_depends_on_seed_and_draws_before(self, seed, before, split, extra):
        singles = RandomSource(seed)
        for _ in range(before):
            singles.next_u64()
        mixed = RandomSource(seed)  # as many draws, as a block and then uniforms
        block = min(split, before)
        mixed.u64_block(block)
        mixed.uniforms(before - block)
        later = RandomSource(seed)
        later.u64_block(before + extra)
        child = singles.spawn()
        assert later.spawn().seed != child.seed
        assert mixed.spawn().u64_block(8).tolist() == child.u64_block(8).tolist()


class TestGaussian:
    def test_zero_stddev(self):
        assert np.array_equal(RandomSource(7).gaussians(0.0, 0.0, 5), np.zeros(5))

    def test_law_of_large_numbers(self):
        draws = RandomSource(7).gaussians(0.0, 1.0, 100_000)
        assert abs(draws.mean()) < 0.02
        assert abs(draws.std() - 1.0) < 0.02

    def test_same_seed_identical(self):
        a = RandomSource(7).gaussians(1.5, 2.0, 64)
        b = RandomSource(7).gaussians(1.5, 2.0, 64)
        assert np.array_equal(a, b)

    def test_negative_stddev_rejected(self):
        with pytest.raises(ParameterError):
            RandomSource(7).gaussians(0.0, -1.0, 5)

    def test_mean_shift_and_scale(self):
        draws = RandomSource(21).gaussians(10.0, 3.0, 50_000)
        assert abs(draws.mean() - 10.0) < 0.1
        assert abs(draws.std() - 3.0) < 0.1

    def test_odd_count(self):
        assert len(RandomSource(4).gaussians(0.0, 1.0, 7)) == 7


class TestWorkspace:
    def test_grows_only_and_counts_reserves(self):
        workspace = Workspace()
        first = workspace.reserve(10)
        buffer = workspace.floats
        smaller = workspace.reserve(4)
        assert first.shape == (10,) and smaller.shape == (4,)
        assert workspace.floats is buffer and np.shares_memory(first, smaller)
        larger = workspace.reserve(20)
        assert larger.shape == (20,) and workspace.floats is not buffer
        assert workspace.reserves == 3
