import numpy as np
import pytest

from ctxpack.errors import IndivisibleDims, NonMonotonicIndices
from ctxpack.rope import (
    AxisPhases,
    PhaseGrid,
    axial_frequencies,
    generate_phases,
    phases_for_positions,
    pool_phases,
)
from ctxpack.schedule import KernelSpec


class TestGeneratePhases:
    def test_time_zero_gives_zero_phases(self):
        grid = generate_phases([0], 2, 2, 12)
        assert not grid.time.phases.any()

    def test_random_access_keeps_absolute_positions(self):
        grid = generate_phases([0, 5, 6, 7], 2, 2, 12)
        np.testing.assert_array_equal(grid.time.positions, [0, 5, 6, 7])
        freqs = grid.time.frequencies
        np.testing.assert_array_equal(grid.time.phases[1], 5 * freqs)

    def test_linearity_in_position(self):
        grid = generate_phases([0, 1, 2], 2, 2, 12)
        np.testing.assert_allclose(grid.time.phases[2], 2 * grid.time.phases[1], atol=1e-15)

    def test_random_access_matches_contiguous_reference(self):
        sparse = generate_phases([0, 5, 6, 7], 4, 4, 24)
        dense = generate_phases([5, 6, 7], 4, 4, 24)
        np.testing.assert_array_equal(sparse.time.phases[1:], dense.time.phases)

    def test_frequencies_strictly_decreasing(self):
        freqs = axial_frequencies(16)
        assert (np.diff(freqs) < 0).all()

    def test_axial_split(self):
        grid = generate_phases([0, 1], 3, 5, 24)
        assert grid.time.frequencies.shape == (8,)
        assert grid.shape == (2, 3, 5)

    def test_non_monotonic_rejected(self):
        with pytest.raises(NonMonotonicIndices):
            generate_phases([0, 2, 1], 2, 2, 12)
        with pytest.raises(NonMonotonicIndices):
            generate_phases([0, 0, 1], 2, 2, 12)

    def test_indivisible_channels_rejected(self):
        with pytest.raises(ValueError):
            generate_phases([0], 2, 2, 13)

    def test_no_channels_rejected(self):
        with pytest.raises(ValueError, match="axis needs at least one channel"):
            axial_frequencies(0)

    @pytest.mark.parametrize("base", [0.0, -2.0, 0.5, 1.0, float("inf"), float("nan")])
    def test_base_not_above_one_rejected(self, base):
        with pytest.raises(ValueError, match=rf"base must be finite and > 1, got {base!r}"):
            axial_frequencies(4, base)
        with pytest.raises(ValueError, match=rf"base must be finite and > 1, got {base!r}"):
            generate_phases([0], 2, 2, 12, base=base)

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf"), pytest.param(10**400, id="10**400")]
    )
    def test_non_finite_time_rejected(self, bad):
        with pytest.raises(ValueError, match=r"time indices must be finite: \[0, "):
            generate_phases([0, bad], 2, 2, 12)

    @pytest.mark.parametrize("cells", [(0, 2), (2, 0), (-1, 2)])
    def test_cell_count_below_one_rejected(self, cells):
        h, w = cells
        with pytest.raises(ValueError, match=f"cell counts must be >= 1, got {h}x{w}"):
            generate_phases([0], h, w, 12)


class TestPoolPhases:
    def test_identity_kernel(self):
        grid = generate_phases([0, 1, 2, 3], 4, 4, 12)
        pooled = pool_phases(grid, KernelSpec(1, 1, 1))
        np.testing.assert_array_equal(pooled.time.phases, grid.time.phases)
        np.testing.assert_array_equal(pooled.height.phases, grid.height.phases)

    def test_two_position_window_gives_midpoint_phase(self):
        grid = generate_phases([0], 2, 2, 12)
        pooled = pool_phases(grid, KernelSpec(1, 2, 2))
        np.testing.assert_allclose(
            pooled.height.phases[0], 0.5 * grid.height.frequencies, atol=1e-15
        )

    def test_constant_phase_windows_stay_constant(self):
        freqs = axial_frequencies(4)
        constant = AxisPhases(
            positions=np.array([5.0, 5.0, 5.0, 5.0]),
            frequencies=freqs,
            phases=np.tile(5.0 * freqs, (4, 1)),
        )
        grid = PhaseGrid(constant, constant, constant)
        pooled = pool_phases(grid, KernelSpec(2, 2, 2))
        for axis in (pooled.time, pooled.height, pooled.width):
            np.testing.assert_array_equal(axis.phases, np.tile(5.0 * freqs, (2, 1)))

    def test_mean_of_phases_equals_phase_of_mean_position(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n_t = int(rng.choice([2, 4, 8]))
            ticks = np.sort(rng.choice(64, size=n_t, replace=False))
            h = int(rng.choice([2, 4, 8]))
            w = int(rng.choice([2, 4, 8]))
            grid = generate_phases(ticks.tolist(), h, w, 24)
            kernel = KernelSpec(
                int(rng.choice([s for s in (1, 2, 4, 8) if n_t % s == 0])),
                int(rng.choice([s for s in (1, 2, 4) if h % s == 0])),
                int(rng.choice([s for s in (1, 2, 4) if w % s == 0])),
            )
            pooled = pool_phases(grid, kernel)
            for axis, pooled_axis in (
                (grid.time, pooled.time),
                (grid.height, pooled.height),
                (grid.width, pooled.width),
            ):
                step = len(axis.positions) // len(pooled_axis.positions)
                mean_positions = axis.positions.reshape(-1, step).mean(axis=1)
                oracle = phases_for_positions(mean_positions, axis.frequencies)
                np.testing.assert_allclose(pooled_axis.phases, oracle, atol=1e-9)

    def test_pooled_sizes(self):
        grid = generate_phases(list(range(8)), 4, 6, 12)
        pooled = pool_phases(grid, KernelSpec(4, 2, 3))
        assert pooled.shape == (2, 2, 2)

    def test_indivisible_axis_rejected(self):
        grid = generate_phases([0, 1, 2], 4, 4, 12)
        with pytest.raises(IndivisibleDims):
            pool_phases(grid, KernelSpec(2, 1, 1))

    def test_restriction_consistency_through_pooling(self):
        # pooling with window 1 on time must keep the sparse positions intact
        grid = generate_phases([0, 5, 6, 7], 4, 4, 12)
        pooled = pool_phases(grid, KernelSpec(1, 2, 2))
        np.testing.assert_array_equal(pooled.time.positions, [0, 5, 6, 7])
