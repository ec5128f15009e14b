"""Conformance suite for the pluggable array-backend seam.

Four layers of contract, each over every *installed* backend (missing
optional dependencies skip via the ``requires_numba`` /
``requires_cupy`` markers, they never fail):

* **seam shape** — every backend exposes the :class:`ArrayBackend`
  surface (name, availability probe, ``xp`` module, transfer pair,
  kernel registry, Philox fill hook) with the documented semantics;
* **numpy bit-identity** — the numpy backend (and ``backend=None``)
  reproduces the pre-backend measurement pipeline bit for bit, pinned
  against golden values captured before the seam existed;
* **one reference fill** — :func:`repro.utils.rng.philox_uniforms`
  (raw Philox words, converted in numpy's own way) equals
  ``Generator(Philox(key)).random`` bit for bit at any start word;
* **sparse-row regression** — ``CounterStreams.site_uniforms`` with
  retired (non-contiguous) rows returns exactly what the full-span
  gather returns, and builds a second generator only across a gap
  that costs more to draw than to skip;
* **accelerated-backend laws** — numba/cupy kernels are same-seed
  deterministic, conserve the per-replica exact totals, and agree with
  the numpy reference in law (KS over first-hitting rounds).

Plus the degradation contract end to end: requesting an uninstalled
backend warns (``RuntimeWarning``) and falls back to numpy everywhere —
``resolve_backend``, ``run_experiment`` (``run_meta`` records requested
vs effective), and the CLI (exit 0).
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.backends import (
    BACKEND_NAMES,
    ArrayBackend,
    CupyBackend,
    NumbaBackend,
    NumpyBackend,
    available_backends,
    check_backend,
    resolve_backend,
)
from repro.errors import ValidationError
from repro.experiments._common import (
    measure_psi_threshold_time,
    measure_variant_threshold_time,
    measure_weighted_threshold_time,
)
from repro.utils.rng import _SPLIT_GAP_WORDS, CounterStreams, philox_uniforms

from equivalence import assert_batch_conserves, assert_ks_agreement

_BACKEND_CLASSES = {
    "numpy": NumpyBackend,
    "numba": NumbaBackend,
    "cupy": CupyBackend,
}

#: Marker per accelerated backend (conftest skips when not importable).
_BACKEND_MARKS = {
    "numba": pytest.mark.requires_numba,
    "cupy": pytest.mark.requires_cupy,
}

KERNEL_NAMES = ("weighted_migrate", "uniform_pvals")


def _installed_params():
    """One param per backend, accelerated ones behind their skip marker."""
    return [
        pytest.param(name, marks=_BACKEND_MARKS.get(name, ()))
        for name in BACKEND_NAMES
    ]


class _BackendProtocol:
    """Wrap a protocol so equivalence helpers hit the fused kernels.

    ``assert_batch_conserves`` drives ``execute_round_batch(batch,
    graph, rngs, active)`` without a backend argument; this shim binds
    one so the conservation contract exercises the backend's fused
    path.
    """

    def __init__(self, protocol, backend: ArrayBackend):
        self._protocol = protocol
        self._backend = backend

    def __getattr__(self, name):
        return getattr(self._protocol, name)

    def execute_round_batch(self, batch, graph, rngs, active):
        return self._protocol.execute_round_batch(
            batch, graph, rngs, active, backend=self._backend
        )


class TestSeamShape:
    def test_backend_names_cover_registry(self):
        assert BACKEND_NAMES == ("numpy", "numba", "cupy")
        for name in BACKEND_NAMES:
            assert _BACKEND_CLASSES[name].name == name

    def test_availability_probe_never_raises(self):
        for cls in _BACKEND_CLASSES.values():
            assert cls.is_available() in (True, False)

    def test_numpy_always_available(self):
        assert "numpy" in available_backends()
        assert available_backends()[0] == "numpy"

    def test_check_backend_rejects_unknown(self):
        assert check_backend("numba") == "numba"
        with pytest.raises(ValidationError, match="backend must be one of"):
            check_backend("jax")

    @pytest.mark.parametrize("name", _installed_params())
    def test_xp_module_and_transfer_round_trip(self, name):
        backend = resolve_backend(name, warn=False)
        assert backend.name == name
        host = np.arange(12, dtype=np.float64).reshape(3, 4)
        device = backend.asarray(host)
        # The xp handle speaks the numpy API over the backend's arrays.
        total = backend.xp.sum(device)
        assert float(backend.to_numpy(total)) == float(host.sum())
        round_tripped = backend.to_numpy(device)
        assert isinstance(round_tripped, np.ndarray)
        np.testing.assert_array_equal(round_tripped, host)
        assert round_tripped.dtype == host.dtype

    @pytest.mark.parametrize("name", _installed_params())
    def test_kernel_registry_callable_or_none(self, name):
        backend = resolve_backend(name, warn=False)
        for kernel_name in KERNEL_NAMES:
            kernel = backend.kernel(kernel_name)
            assert kernel is None or callable(kernel)
        assert backend.kernel("no-such-kernel") is None

    def test_numpy_backend_registers_no_kernels(self):
        # The numpy backend is the identity: dispatch must keep the
        # plain-numpy path (that is what makes bit-identity trivial).
        backend = resolve_backend("numpy")
        for kernel_name in KERNEL_NAMES:
            assert backend.kernel(kernel_name) is None

    @pytest.mark.parametrize("name", _installed_params())
    def test_philox_fill_shape_and_determinism(self, name):
        backend = resolve_backend(name, warn=False)
        key = np.uint64(0xDEADBEEF)
        first = backend.philox_uniforms(key, 12, 37)
        again = backend.philox_uniforms(key, 12, 37)
        assert first.shape == (37,)
        assert np.all((first >= 0.0) & (first < 1.0))
        np.testing.assert_array_equal(first, again)
        # A different start word is a different stream position.
        assert not np.array_equal(first, backend.philox_uniforms(key, 13, 37))

    def test_numpy_philox_fill_matches_reference(self):
        # The numpy backend inherits the reference hook, which must be
        # the exact block-advance + word-discard fill CounterStreams
        # has always used.
        key = np.uint64(424242)
        bit_generator = np.random.Philox(key=key)
        bit_generator.advance(5)  # 22 words = 5 blocks + 2 discards
        generator = np.random.Generator(bit_generator)
        generator.random(2)
        expected = generator.random(10)
        np.testing.assert_array_equal(
            resolve_backend("numpy").philox_uniforms(key, 22, 10), expected
        )


class TestResolveBackend:
    def test_none_and_default_resolve_to_numpy(self):
        assert resolve_backend(None).name == "numpy"
        assert resolve_backend().name == "numpy"

    def test_instance_passes_through(self):
        instance = NumpyBackend()
        assert resolve_backend(instance) is instance

    def test_singleton_per_name(self):
        assert resolve_backend("numpy") is resolve_backend("numpy")

    def test_unknown_name_raises(self):
        with pytest.raises(ValidationError, match="backend must be one of"):
            resolve_backend("jax")

    def test_missing_dependency_warns_and_falls_back(self):
        missing = [
            name for name in ("numba", "cupy") if name not in available_backends()
        ]
        if not missing:
            pytest.skip("all optional backends installed; nothing to fall back")
        for name in missing:
            with pytest.warns(RuntimeWarning, match="falling back to 'numpy'"):
                backend = resolve_backend(name)
            assert backend.name == "numpy"
            # warn=False keeps the fallback silent (registry pre-resolution).
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert resolve_backend(name, warn=False).name == "numpy"


def _reference_block(key: np.ndarray, start_word: int, count: int) -> np.ndarray:
    """``count`` uniforms at absolute word ``start_word`` through numpy's
    ``Generator.random``: whole 4-word counter blocks are skipped with
    ``advance``, the sub-block remainder is drawn and dropped."""
    bit_generator = np.random.Philox(key=key)
    bit_generator.advance(start_word // 4)
    generator = np.random.Generator(bit_generator)
    generator.random(start_word % 4)
    return generator.random(count)


class TestReferenceFill:
    """The counter layout's one Philox fill, pinned bit for bit against
    ``np.random.Generator(np.random.Philox(key=key)).random``."""

    KEY = np.array([0x9E3779B97F4A7C15, 0x0123456789ABCDEF], dtype=np.uint64)

    @pytest.mark.parametrize("start_word", [0, 1, 2, 3, 4, 9, 22, 31])
    @pytest.mark.parametrize("count", [0, 1, 37, 4097])
    def test_matches_generator_from_stream_start(self, start_word, count):
        # Independent of advance(): draw from word 0 and slice.
        expected = np.random.Generator(np.random.Philox(key=self.KEY)).random(
            start_word + count
        )[start_word:]
        got = philox_uniforms(self.KEY, start_word, count)
        assert got.dtype == np.float64 and got.shape == (count,)
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("start_word", [2**32 + r for r in range(4)])
    @pytest.mark.parametrize("count", [0, 1, 1001])
    def test_matches_generator_beyond_2_pow_32(self, start_word, count):
        np.testing.assert_array_equal(
            philox_uniforms(self.KEY, start_word, count),
            _reference_block(self.KEY, start_word, count),
        )

    def test_long_fill_matches_generator(self):
        # Longer than one raw-conversion chunk, odd, unaligned start.
        count = 2 * 32768 + 5
        np.testing.assert_array_equal(
            philox_uniforms(self.KEY, 7, count),
            _reference_block(self.KEY, 7, count),
        )

    def test_numpy_backend_hook_is_the_reference_fill(self):
        backend = resolve_backend("numpy")
        for start_word, count in ((0, 0), (5, 1), (2**32 + 3, 129)):
            np.testing.assert_array_equal(
                backend.philox_uniforms(self.KEY, start_word, count),
                philox_uniforms(self.KEY, start_word, count),
            )

    def test_backend_none_and_numpy_give_identical_blocks(self):
        for rows in (np.arange(12), np.array([0, 3, 4, 9, 30, 31]), np.array([7])):
            blocks = []
            for backend in (None, "numpy"):
                streams = CounterStreams(
                    77,
                    32,
                    backend=None if backend is None else resolve_backend(backend),
                )
                streams.begin_round(5)
                blocks.append(streams.site_uniforms("weighted-migrate", rows, 300))
            np.testing.assert_array_equal(blocks[0], blocks[1])


class TestNumpyBitIdentity:
    """The numpy backend reproduces pre-seam measurements bit for bit.

    The golden tuples were captured from the measurement pipeline
    *before* the backend seam existed (same seeds, same counter
    layout); ``backend="numpy"`` and the no-backend default must both
    still produce them exactly.
    """

    WEIGHTED_GOLDEN = (37.0, 58.0, 37.0, 38.0, 30.0, 52.0)
    UNIFORM_GOLDEN = (15.0, 15.0, 13.0, 12.0)
    PERTASK_GOLDEN = (41.0, 70.0, 46.0, 89.0)

    @pytest.mark.parametrize("backend", [None, "numpy"])
    def test_weighted_counter_measurement(self, backend):
        kwargs = {} if backend is None else {"backend": backend}
        measurement = measure_weighted_threshold_time(
            "ring", 8, 8.0, repetitions=6, seed=123, rng_policy="counter", **kwargs
        )
        assert tuple(measurement.repetition_rounds) == self.WEIGHTED_GOLDEN

    @pytest.mark.parametrize("backend", [None, "numpy"])
    def test_uniform_counter_measurement(self, backend):
        kwargs = {} if backend is None else {"backend": backend}
        measurement = measure_psi_threshold_time(
            "ring", 8, 2.0, repetitions=4, seed=77, rng_policy="counter", **kwargs
        )
        assert tuple(measurement.repetition_rounds) == self.UNIFORM_GOLDEN

    @pytest.mark.parametrize("backend", [None, "numpy"])
    def test_pertask_variant_counter_measurement(self, backend):
        kwargs = {} if backend is None else {"backend": backend}
        measurement = measure_variant_threshold_time(
            "ring",
            12,
            0.0,
            repetitions=4,
            seed=9,
            rng_policy="counter",
            variant="per-task",
            m=60,
            max_rounds=5000,
            churn_window=10,
            **kwargs,
        )
        assert tuple(measurement.repetition_rounds) == self.PERTASK_GOLDEN
        assert measurement.churn_per_round == pytest.approx(0.7)


def _count_philox_builds(monkeypatch) -> list:
    """Wrap ``np.random.Philox`` so each generator built is recorded."""
    built: list = []
    real = np.random.Philox

    def counting(*args, **kwargs):
        built.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    return built


def _full_span_gather(seed, num_replicas, round_index, label, rows, width):
    """The reference for any row set: one dense fill of the covering
    span from a fresh layout, gathered at ``rows``."""
    streams = CounterStreams(seed, num_replicas)
    streams.begin_round(round_index)
    low, high = int(rows.min()), int(rows.max())
    dense = streams.site_uniforms(label, np.arange(low, high + 1), width)
    return dense[rows - low]


class TestSparseRowFill:
    """Regression pins for sparse ``site_uniforms`` row sets.

    Retired replicas leave gaps in the active-row set. The fill draws
    the whole covering span with one Philox generator and gathers the
    requested rows, so the words of a gap are drawn and discarded; only
    a gap whose skipped words cost more than building and positioning a
    second generator (``_SPLIT_GAP_WORDS``) splits the span. Words are
    addressed absolutely per row, so either way every returned bit is
    identical to the full-span gather.
    """

    SPARSE_SUM = 11.735004296001582
    SPARSE_COLUMN = (
        0.892313776356578,
        0.17343290593792093,
        0.49751473435806737,
        0.20769237074300784,
        0.391304185325254,
    )
    WINDOWED_SUM = 5.363869821983516
    WINDOWED_HEAD = (
        0.0982179468029648,
        0.5750730201607134,
        0.13388089831970584,
        0.5273813589649956,
    )

    def test_sparse_rows_pinned(self):
        streams = CounterStreams(4242, 10)
        streams.begin_round(3)
        block = streams.site_uniforms(
            "weighted-migrate", np.array([0, 1, 4, 7, 8]), 5
        )
        assert block.shape == (5, 5)
        assert float(block.sum()) == self.SPARSE_SUM
        np.testing.assert_array_equal(block[:, 0], np.array(self.SPARSE_COLUMN))

    def test_windowed_sparse_rows_pinned(self):
        streams = CounterStreams(4242, 6, replica_offset=4, total_replicas=12)
        streams.begin_round(0)
        block = streams.site_uniforms("site-x", np.array([0, 2, 3, 5]), 3)
        assert float(block.sum()) == self.WINDOWED_SUM
        np.testing.assert_array_equal(
            block.ravel()[:4], np.array(self.WINDOWED_HEAD)
        )

    def test_sparse_equals_full_span_gather(self):
        """Run splitting is invisible: gathering from the dense block
        of the covering span gives the identical bits, for sorted,
        unsorted and duplicated row sets."""
        width = 7
        for rows in (
            np.array([2, 3, 9, 10, 11, 30]),
            np.array([5]),
            np.array([11, 2, 2, 30, 9]),
        ):
            streams = CounterStreams(99, 32)
            streams.begin_round(4)
            sparse = streams.site_uniforms("site-a", rows, width)
            dense_streams = CounterStreams(99, 32)
            dense_streams.begin_round(4)
            low, high = int(rows.min()), int(rows.max())
            dense = dense_streams.site_uniforms(
                "site-a", np.arange(low, high + 1), width
            )
            np.testing.assert_array_equal(sparse, dense[rows - low])

    def test_backend_hook_path_is_bit_identical(self):
        """Routing the fill through the numpy backend's Philox hook
        changes nothing bit-wise vs the inline default."""
        rows = np.array([0, 1, 4, 7, 8])
        hooked = CounterStreams(4242, 10, backend=resolve_backend("numpy"))
        hooked.begin_round(3)
        block = hooked.site_uniforms("weighted-migrate", rows, 5)
        assert float(block.sum()) == self.SPARSE_SUM
        np.testing.assert_array_equal(block[:, 0], np.array(self.SPARSE_COLUMN))

    @pytest.mark.parametrize("offset, generators", [(-1, 1), (1, 2)])
    def test_split_threshold(self, monkeypatch, offset, generators):
        """A gap one row below the threshold is drawn through; one row
        above it gets a second generator. Both give the same bits."""
        width = 512
        gap = _SPLIT_GAP_WORDS // width + offset
        rows = np.array([0, 1, 2 + gap, 3 + gap])
        expected = _full_span_gather(31, 16, 2, "site-g", rows, width)
        built = _count_philox_builds(monkeypatch)
        streams = CounterStreams(31, 16)
        streams.begin_round(2)
        block = streams.site_uniforms("site-g", rows, width)
        assert len(built) == generators
        np.testing.assert_array_equal(block, expected)

    def test_windowed_layout_with_retired_holes(self, monkeypatch):
        """A shard with retired holes returns the monolithic layout's
        rows for its global indices, from one generator."""
        offset, rows = 30, np.array([0, 2, 3, 7, 8, 19])
        expected = _full_span_gather(88, 64, 6, "weighted-migrate", rows + offset, 40)
        built = _count_philox_builds(monkeypatch)
        window = CounterStreams(88, 20, replica_offset=offset, total_replicas=64)
        window.begin_round(6)
        block = window.site_uniforms("weighted-migrate", rows, 40)
        assert len(built) == 1
        np.testing.assert_array_equal(block, expected)

    def test_retirement_shaped_rows_build_at_most_two_generators(
        self, monkeypatch
    ):
        """40 of 64 replicas still active in 15 runs at width 512: the
        shape a convergence run leaves behind. Run-by-run filling built
        15 generators here."""
        runs = (3, 2, 4, 3, 2, 3, 2, 3, 3, 2, 3, 2, 3, 3, 2)
        gaps = (2, 1, 2, 1, 2, 2, 1, 2, 2, 1, 2, 2, 1, 2)
        rows, start = [], 1
        for length, gap in zip(runs, gaps + (0,)):
            rows.extend(range(start, start + length))
            start += length + gap
        rows = np.array(rows)
        assert rows.size == 40 and rows.max() < 64
        assert np.count_nonzero(np.diff(rows) > 1) + 1 == 15
        expected = _full_span_gather(5, 64, 11, "weighted-migrate", rows, 512)
        built = _count_philox_builds(monkeypatch)
        streams = CounterStreams(5, 64)
        streams.begin_round(11)
        block = streams.site_uniforms("weighted-migrate", rows, 512)
        assert len(built) <= 2
        np.testing.assert_array_equal(block, expected)


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(name, marks=_BACKEND_MARKS[name])
        for name in ("numba", "cupy")
    ],
)
class TestAcceleratedBackends:
    """Law-level contracts for the fused-kernel backends.

    The fused kernels replace the numpy arithmetic, so the contract is
    the counter layout's own: same-seed determinism, exact per-replica
    conservation, and KS agreement with the numpy reference — not
    bit-identity (summation order and, for cupy, the Philox variant
    differ).
    """

    def test_registers_fused_kernels(self, name):
        backend = resolve_backend(name, warn=False)
        assert backend.name == name
        for kernel_name in KERNEL_NAMES:
            assert callable(backend.kernel(kernel_name))

    def test_same_seed_determinism(self, name):
        def run():
            return measure_weighted_threshold_time(
                "ring",
                8,
                8.0,
                repetitions=6,
                seed=123,
                rng_policy="counter",
                backend=name,
            ).repetition_rounds

        np.testing.assert_array_equal(np.asarray(run()), np.asarray(run()))

    def test_weighted_conservation_through_fused_kernel(self, name):
        from repro.core.protocols import SelfishWeightedProtocol
        from repro.graphs.generators import cycle_graph
        from repro.model.batch import BatchWeightedState
        from repro.model.placement import place_weighted_random
        from repro.model.speeds import two_class_speeds
        from repro.model.state import WeightedState
        from repro.model.tasks import two_class_weights
        from repro.utils.rng import spawn_rngs

        backend = resolve_backend(name, warn=False)
        n, m, replicas = 8, 120, 6
        graph = cycle_graph(n)
        speeds = two_class_speeds(n, fast_fraction=0.25, fast_speed=2.0)
        weights = two_class_weights(m, heavy_fraction=0.1, heavy=1.0, light=0.1)
        states = [
            WeightedState(place_weighted_random(m, n, rng), weights, speeds)
            for rng in spawn_rngs(11, replicas)
        ]
        streams = CounterStreams(11, replicas, backend=backend)
        assert_batch_conserves(
            BatchWeightedState.from_states(states),
            _BackendProtocol(SelfishWeightedProtocol(), backend),
            graph,
            streams,
            rounds=25,
            retired=(2,),
        )

    def test_weighted_law_agreement_with_numpy(self, name):
        reference = measure_weighted_threshold_time(
            "ring", 8, 4.0, repetitions=40, seed=1234, rng_policy="counter"
        )
        accelerated = measure_weighted_threshold_time(
            "ring",
            8,
            4.0,
            repetitions=40,
            seed=1234,
            rng_policy="counter",
            backend=name,
        )
        assert accelerated.num_converged == accelerated.num_repetitions
        assert_ks_agreement(
            np.asarray(reference.repetition_rounds),
            np.asarray(accelerated.repetition_rounds),
            label=f"numpy vs {name} weighted first-hit distributions",
        )

    def test_uniform_law_agreement_with_numpy(self, name):
        reference = measure_psi_threshold_time(
            "ring", 8, 2.0, repetitions=40, seed=555, rng_policy="counter"
        )
        accelerated = measure_psi_threshold_time(
            "ring",
            8,
            2.0,
            repetitions=40,
            seed=555,
            rng_policy="counter",
            backend=name,
        )
        assert accelerated.num_converged == accelerated.num_repetitions
        assert_ks_agreement(
            np.asarray(reference.repetition_rounds),
            np.asarray(accelerated.repetition_rounds),
            label=f"numpy vs {name} uniform first-hit distributions",
        )


class TestExecutorAndCLIDegradation:
    def test_cellspec_rejects_unknown_backend(self):
        from repro.experiments.executor import CellSpec, run_cell

        spec = CellSpec(
            kind="weighted",
            family="ring",
            n=8,
            m_factor=8.0,
            repetitions=2,
            seed=5,
            backend="jax",
        )
        with pytest.raises(ValidationError, match="backend must be one of"):
            run_cell(spec)

    def test_run_experiment_records_backend_fallback(self, tmp_path):
        missing = [
            name for name in ("cupy", "numba") if name not in available_backends()
        ]
        if not missing:
            pytest.skip("all optional backends installed; nothing degrades")
        from repro.experiments.registry import run_experiment

        with pytest.warns(RuntimeWarning, match="falling back to 'numpy'"):
            result = run_experiment(
                "weighted-variants", quick=True, seed=7, backend=missing[0]
            )
        assert result.passed
        meta = result.data["run_meta"]
        assert meta["backend_requested"] == missing[0]
        assert meta["backend_effective"] == "numpy"

    def test_cli_backend_cupy_degrades_to_exit_zero(self, tmp_path, capsys):
        if "cupy" in available_backends():
            pytest.skip("cupy installed and usable; no degradation to test")
        import json

        from repro.experiments.__main__ import main

        json_path = tmp_path / "result.json"
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            exit_code = main(
                [
                    "run",
                    "weighted-variants",
                    "--backend",
                    "cupy",
                    "--seed",
                    "7",
                    "--json",
                    str(json_path),
                ]
            )
        capsys.readouterr()
        assert exit_code == 0
        meta = json.loads(json_path.read_text())["weighted-variants"]["run_meta"]
        assert meta["backend_requested"] == "cupy"
        assert meta["backend_effective"] == "numpy"
