"""Random-number-generator plumbing and per-replica stream layouts.

All stochastic code in the library accepts a ``SeedLike`` argument and turns
it into a :class:`numpy.random.Generator` through :func:`make_rng`. This
gives three properties the experiments rely on:

* **Reproducibility** — an integer seed always produces the same stream.
* **Independence** — :func:`spawn_rngs` derives statistically independent
  child generators for parallel repetitions of an experiment, so that
  repetition ``k`` is reproducible on its own regardless of how many other
  repetitions ran.
* **Convenience** — passing an existing ``Generator`` threads it through
  unchanged, so composed simulations can share one stream when desired.

Stream layouts
--------------
The batched engines additionally need *per-replica* randomness for a whole
ensemble. A :class:`StreamLayout` is the pluggable policy for that, with
two implementations:

* :class:`SpawnedStreams` (policy ``"spawned"``, the default) — the legacy
  layout: one spawned child :class:`~numpy.random.Generator` per replica
  (``SeedSequence.spawn``), each consumed sequentially exactly as the
  scalar reference would. This preserves every pathwise bit-identity
  guarantee the library has shipped since PR 1 — existing seeds keep
  producing byte-identical results.
* :class:`CounterStreams` (policy ``"counter"``) — a Philox counter-based
  layout. Each *draw site* (one randomness-consuming step of one round —
  a kernel's migration block, one event's placement draw) gets its own
  ``Philox`` bit generator keyed on ``(root_seed, round, site)``; the
  replica axis is addressed through the Philox *counter* (replica ``r``
  owns a contiguous counter range of the site's block), so one vectorized
  call fills the whole ``(R, M)`` / ``(R, n)`` randomness block per site
  per round instead of ``R`` per-replica fills. Counter runs are
  same-seed deterministic (including across processes) and agree with the
  scalar reference *in law*; for draw sites with fixed per-replica
  consumption — the weighted kernels' fused migration draw in particular
  — replica ``r``'s counter range depends only on its *global* replica
  index (:meth:`CounterStreams.site_uniforms`), so static weighted
  ensembles are resize prefix-stable **and** shardable: a windowed layout
  (``replica_offset`` / ``total_replicas``) reproduces its replica
  window of the monolithic run byte-for-byte. Sites with data-dependent
  consumption (multinomial / Poisson / hypergeometric rejection
  sampling, churn-sized blocks) remain deterministic but not
  resize-stable and refuse to shard; see the reproducibility matrix in
  the README.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.types import SeedLike

__all__ = [
    "make_rng",
    "spawn_rngs",
    "derive_seed",
    "RNG_POLICIES",
    "check_rng_policy",
    "StreamLayout",
    "SpawnedStreams",
    "CounterStreams",
    "make_streams",
    "as_stream_layout",
    "philox_uniforms",
]

#: Recognized per-replica stream layout policies.
RNG_POLICIES = ("spawned", "counter")


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a numpy ``Generator`` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` for OS entropy, an ``int`` for a deterministic stream, or
        an existing ``Generator`` which is returned as-is.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        return np.random.default_rng()
    if isinstance(seed, (int, np.integer)):
        if seed < 0:
            raise ValidationError(f"seed must be non-negative, got {seed}")
        return np.random.default_rng(int(seed))
    raise ValidationError(
        f"seed must be None, an int, or a numpy Generator, got {type(seed).__name__}"
    )


def spawn_rngs(
    seed: SeedLike, count: int, offset: int = 0
) -> list[np.random.Generator]:
    """Derive ``count`` independent generators from ``seed``.

    Uses numpy's ``SeedSequence.spawn`` so the children are independent of
    each other and of the parent stream. Child ``k`` depends only on the
    seed and its index ``k``, never on ``count`` — the prefix-stability
    property the ensemble engines rely on.

    ``offset`` selects a *window* of the child sequence: the returned
    generators are children ``offset .. offset + count - 1``, exactly the
    streams replicas ``[offset, offset + count)`` would receive in a
    monolithic ``spawn_rngs(seed, offset + count)`` call. This is what
    lets a shard of a replica ensemble reproduce its slice of a serial
    run byte-for-byte.

    The derivation never mutates its input: for a ``Generator`` (or a raw
    ``SeedSequence``) the children are spawned in one ``spawn(count)``
    call from an *unmutated copy* of its seed sequence, so two calls with
    the same input yield the same streams and the caller's own spawn
    counter is untouched. The flip side of that repeatability: this
    function is a pure derivation, **not** a source of fresh entropy —
    calling it twice on one ``Generator`` (or mixing it with the
    generator's own ``spawn``) duplicates streams rather than extending
    them. To build several *distinct* ensembles from one seed, derive a
    distinct sub-seed per ensemble first (:func:`derive_seed`).
    """
    if count < 0:
        raise ValidationError(f"count must be non-negative, got {count}")
    if offset < 0:
        raise ValidationError(f"offset must be non-negative, got {offset}")
    if isinstance(seed, np.random.Generator):
        sequence = seed.bit_generator.seed_seq
        if not isinstance(sequence, np.random.SeedSequence):
            raise ValidationError(
                "cannot spawn from a Generator whose bit generator has no "
                "SeedSequence"
            )
    elif isinstance(seed, np.random.SeedSequence):
        sequence = seed
    else:
        sequence = np.random.SeedSequence(seed)
    # Re-derive an unmutated twin so this call neither consumes the
    # caller's spawn counter nor depends on how often it was spawned from
    # before: same input -> same children, always numbered 0..count-1.
    pristine = np.random.SeedSequence(
        entropy=sequence.entropy,
        spawn_key=sequence.spawn_key,
        pool_size=sequence.pool_size,
    )
    children = pristine.spawn(offset + count)[offset:]
    return [np.random.default_rng(child) for child in children]


def derive_seed(seed: int, *components: int | str) -> int:
    """Deterministically derive a sub-seed from ``seed`` and labels.

    Experiments use this to give each (graph size, repetition) cell a stable
    seed: ``derive_seed(base, n, rep)``. The derivation hashes the components
    through ``SeedSequence`` entropy mixing, so nearby inputs give unrelated
    outputs.
    """
    mixed: list[int] = [seed]
    for component in components:
        if isinstance(component, str):
            mixed.append(_fold_label(component))
        elif isinstance(component, (int, np.integer)):
            mixed.append(int(component) & (2**63 - 1))
        else:
            raise ValidationError(
                f"seed components must be int or str, got {type(component).__name__}"
            )
    sequence = np.random.SeedSequence(mixed)
    return int(sequence.generate_state(1, dtype=np.uint64)[0] % (2**63))


def check_rng_policy(policy: str) -> str:
    """Validate an ``rng_policy`` value, returning it unchanged."""
    if policy not in RNG_POLICIES:
        raise ValidationError(
            f"rng_policy must be one of {RNG_POLICIES}, got {policy!r}"
        )
    return policy


def _fold_label(label: str) -> int:
    """Stable (process-independent) string folding, shared with
    :func:`derive_seed`."""
    value = 0
    for char in label:
        value = (value * 131 + ord(char)) % (2**63)
    return value


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: a fast, well-mixed 64-bit permutation."""
    x &= _MASK64
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    return x ^ (x >> 31)


#: Skipped words above which a gap between requested rows gets its own
#: Philox generator: building and positioning one costs ~23 us against
#: 4-6 ns per drawn word, so a gap is drawn and discarded up to ~4k words.
_SPLIT_GAP_WORDS = 4096

#: Raw words converted per pass in :func:`philox_uniforms` (256 KB), so
#: the shift and scale passes run over cache-resident data.
_RAW_CHUNK_WORDS = 32768


def philox_uniforms(key: np.ndarray, start_word: int, count: int) -> np.ndarray:
    """``count`` uniforms from the ``key``-ed Philox stream, starting at
    absolute 64-bit word ``start_word``.

    The stream is positioned block-wise (Philox emits 4 words per
    counter increment) with any sub-block remainder discarded, and each
    raw word ``w`` becomes ``(w >> 11) * 2**-53``: numpy's own
    ``next_double`` for Philox, so the block is bit-identical to
    ``Generator(Philox(key=key)).random`` at the same position without
    the ``Generator`` wrapper. This is the one reference fill of the
    counter layout; :class:`CounterStreams` and the default
    :meth:`repro.backends.ArrayBackend.philox_uniforms` hook both call it.
    """
    bit_generator = np.random.Philox(key=key)
    blocks, remainder = divmod(start_word, 4)
    if blocks:
        bit_generator.advance(blocks)
    if remainder:
        bit_generator.random_raw(remainder)
    out = np.empty(count, dtype=np.float64)
    for low in range(0, count, _RAW_CHUNK_WORDS):
        words = bit_generator.random_raw(min(_RAW_CHUNK_WORDS, count - low))
        words >>= 11
        # Below 2**53 after the shift, so the int64 view converts exactly.
        np.multiply(
            words.view(np.int64), 2.0**-53, out=out[low : low + words.size]
        )
    return out


class StreamLayout:
    """Per-replica randomness layout for one batched ensemble run.

    The layout owns *all* randomness a replica stack consumes over its
    rounds — protocol kernels and scenario events alike draw through it.
    Two policies exist (see the module docstring): :class:`SpawnedStreams`
    exposes per-replica generators for the legacy sequential consumption,
    :class:`CounterStreams` exposes per-(round, site) keyed generators for
    vectorized block draws. Consumers dispatch on :attr:`policy`.

    ``len(layout)`` is the replica count, so layouts satisfy the same
    one-generator-per-replica arity checks as a raw generator list.
    """

    policy: str = "abstract"

    def __init__(self, num_replicas: int):
        if num_replicas < 0:
            raise ValidationError(
                f"num_replicas must be non-negative, got {num_replicas}"
            )
        self._num_replicas = int(num_replicas)

    @property
    def num_replicas(self) -> int:
        """Ensemble size ``R``."""
        return self._num_replicas

    def __len__(self) -> int:
        return self._num_replicas

    def begin_round(self, round_index: int) -> None:
        """Mark the start of batched round ``round_index``.

        The simulators call this once per round before any event or
        kernel draws. A no-op for spawned streams; counter streams key
        the round's draw sites off it.
        """

    @property
    def generators(self) -> list[np.random.Generator]:
        """The per-replica generators (spawned policy only)."""
        raise ValidationError(
            f"the {self.policy!r} stream layout has no per-replica "
            "generators; dispatch on StreamLayout.policy"
        )

    def __getitem__(self, index: int) -> np.random.Generator:
        return self.generators[index]

    def site(self, label: str) -> np.random.Generator:
        """A fresh generator for one draw site of the current round
        (counter policy only)."""
        raise ValidationError(
            f"the {self.policy!r} stream layout has no counter draw "
            "sites; dispatch on StreamLayout.policy"
        )

    def site_uniforms(
        self, label: str, rows: np.ndarray, width: int
    ) -> np.ndarray:
        """Replica-addressed uniform block for one draw site of the
        current round (counter policy only)."""
        raise ValidationError(
            f"the {self.policy!r} stream layout has no counter draw "
            "sites; dispatch on StreamLayout.policy"
        )


class SpawnedStreams(StreamLayout):
    """The legacy layout: one spawned child generator per replica.

    Wraps an explicit generator list (or spawns one from ``seed`` via
    :func:`spawn_rngs`). Consumers index it exactly like the raw list the
    kernels historically received, so every spawned-policy draw is
    bit-identical to pre-layout behaviour.

    ``replica_offset`` (seed-based construction only) spawns the window of
    children starting at that global replica index, so a shard's layout
    holds exactly the generators its replicas would own in a monolithic
    run.
    """

    policy = "spawned"

    def __init__(
        self,
        generators: "list[np.random.Generator] | None" = None,
        seed: SeedLike = None,
        num_replicas: int | None = None,
        replica_offset: int = 0,
    ):
        if generators is None:
            if num_replicas is None:
                raise ValidationError(
                    "SpawnedStreams needs generators or num_replicas"
                )
            generators = spawn_rngs(seed, num_replicas, offset=replica_offset)
        else:
            if replica_offset != 0:
                raise ValidationError(
                    "replica_offset applies to seed-based construction "
                    "only; explicit generators already carry their window"
                )
            generators = list(generators)
        super().__init__(len(generators))
        self._generators = generators

    @property
    def generators(self) -> list[np.random.Generator]:
        """The per-replica generators, replica-indexed."""
        return self._generators


class CounterStreams(StreamLayout):
    """Philox counter-based per-replica streams.

    Every draw site of every round gets a fresh ``Philox`` bit generator
    whose 128-bit key is derived (SplitMix64 mixing) from
    ``(root_seed, round_index, site_sequence, site_label)``; the replica
    axis is addressed through the Philox counter — one vectorized block
    draw covers the whole active stack, replica ``r`` owning the counter
    words of its global index (for fixed-width sites, words
    ``[r * width, (r + 1) * width)``). Within a round, sites are
    distinguished by an
    auto-incrementing sequence number (plus their label), so the same
    event applied twice in one round draws from distinct streams.

    ``begin_round`` must be called before the round's first :meth:`site`
    or :meth:`site_uniforms`; the simulators do this automatically.

    A layout may cover a *window* of a larger ensemble: a
    ``CounterStreams(seed, count, replica_offset=off, total_replicas=R)``
    shard addresses the counter with global replica indices
    ``off .. off + count - 1``, so :meth:`site_uniforms` returns exactly
    the rows the monolithic ``CounterStreams(seed, R)`` layout would
    hand those replicas. Whole-stack :meth:`site` draws are refused on a
    windowed layout — a shard cannot reproduce a draw whose word
    consumption depends on replicas outside its window (multinomial /
    Poisson / churn-sized blocks).
    """

    policy = "counter"

    def __init__(
        self,
        seed: SeedLike,
        num_replicas: int,
        replica_offset: int = 0,
        total_replicas: int | None = None,
        backend: object | None = None,
    ):
        super().__init__(num_replicas)
        if seed is None:
            root = int(np.random.SeedSequence().generate_state(1, np.uint64)[0])
        elif isinstance(seed, (int, np.integer)):
            if seed < 0:
                raise ValidationError(f"seed must be non-negative, got {seed}")
            root = int(seed)
        else:
            raise ValidationError(
                "CounterStreams needs an explicit int (or None) seed; a "
                f"Generator carries no stable root key (got "
                f"{type(seed).__name__})"
            )
        if replica_offset < 0:
            raise ValidationError(
                f"replica_offset must be non-negative, got {replica_offset}"
            )
        total = (
            replica_offset + num_replicas
            if total_replicas is None
            else int(total_replicas)
        )
        if replica_offset + num_replicas > total:
            raise ValidationError(
                f"window [{replica_offset}, {replica_offset + num_replicas}) "
                f"exceeds total_replicas={total}"
            )
        self._root = root
        self._replica_offset = int(replica_offset)
        self._total_replicas = total
        self._round: int | None = None
        self._site_sequence = 0
        self._label_cache: dict[str, int] = {}
        # Optional ArrayBackend whose philox_uniforms hook fills the
        # site blocks (a device backend generates where its arrays
        # live). ``None`` uses the reference numpy fill; the numpy
        # backend's hook is that same fill, so either spelling is
        # bit-identical.
        self._backend = backend

    @property
    def root_seed(self) -> int:
        """The integer root every site key derives from."""
        return self._root

    @property
    def replica_offset(self) -> int:
        """Global index of this layout's first replica."""
        return self._replica_offset

    @property
    def total_replicas(self) -> int:
        """Size of the full ensemble this layout is a window of."""
        return self._total_replicas

    @property
    def is_windowed(self) -> bool:
        """True when this layout covers a strict window of a larger
        ensemble (a shard)."""
        return (
            self._replica_offset != 0
            or self._total_replicas != self._num_replicas
        )

    def begin_round(self, round_index: int) -> None:
        if round_index < 0:
            raise ValidationError(
                f"round_index must be non-negative, got {round_index}"
            )
        self._round = int(round_index)
        self._site_sequence = 0

    def _site_key(self, label: str) -> np.ndarray:
        """Derive (and consume) the next site's 128-bit Philox key.

        Shared by :meth:`site` and :meth:`site_uniforms` so both consume
        one slot of the per-round site sequence — a sharded run and a
        monolithic run visit the same sites in the same order and derive
        identical keys.
        """
        if self._round is None:
            raise ValidationError(
                "CounterStreams draw site requested before begin_round()"
            )
        folded = self._label_cache.get(label)
        if folded is None:
            folded = self._label_cache[label] = _fold_label(label)
        state = _mix64(self._root)
        for component in (self._round, self._site_sequence, folded):
            state = _mix64(state ^ ((component * _GOLDEN) & _MASK64))
        self._site_sequence += 1
        return np.array([state, _mix64(state ^ _GOLDEN)], dtype=np.uint64)

    def site(self, label: str) -> np.random.Generator:
        if self.is_windowed:
            raise ValidationError(
                f"whole-stack draw site {label!r} is not available on a "
                "windowed CounterStreams layout: its word consumption "
                "depends on replicas outside the shard. Only "
                "replica-addressed site_uniforms() draws shard; use the "
                "spawned policy (or no sharding) for this measurement."
            )
        key = self._site_key(label)
        return np.random.Generator(np.random.Philox(key=key))

    def site_uniforms(
        self, label: str, rows: np.ndarray, width: int
    ) -> np.ndarray:
        """Uniform(0, 1) block for one fixed-width draw site, addressed
        by *global* replica index.

        Replica ``r`` of the full ensemble owns the 64-bit words
        ``[r * width, (r + 1) * width)`` of the site's Philox stream,
        independent of which other replicas are active or how the
        ensemble is sharded. ``rows`` are *local* replica indices of this
        layout's window; the returned array has shape
        ``(len(rows), width)``, row ``p`` holding local replica
        ``rows[p]``'s words, and is freshly allocated (safe to mutate
        in place).

        Sparse row sets (retired-replica holes, shard windows) are filled
        over their covering ``[low, high]`` span with one generator and
        gathered, so the words of rows between requested ones are drawn
        and discarded. Only a gap whose skipped words cost more than
        building and positioning a second generator
        (:data:`_SPLIT_GAP_WORDS`) splits the span. Because the
        addressing is absolute per row, every split gives the same bits
        as the whole-span gather, and the gather handles unsorted and
        duplicated rows alike.
        """
        key = self._site_key(label)
        rows = np.asarray(rows, dtype=np.int64)
        if width < 0:
            raise ValidationError(f"width must be non-negative, got {width}")
        if rows.size == 0:
            return np.empty((0, width), dtype=np.float64)
        if rows.min() < 0 or rows.max() >= self._num_replicas:
            raise ValidationError(
                f"rows must lie in [0, {self._num_replicas}), got "
                f"[{rows.min()}, {rows.max()}]"
            )
        if width == 0:
            return np.empty((rows.size, 0), dtype=np.float64)
        global_rows = rows + self._replica_offset
        low = int(global_rows.min())
        high = int(global_rows.max())
        span = high - low + 1
        if span == global_rows.size and np.array_equal(
            global_rows, np.arange(low, high + 1)
        ):
            # Dense ascending rows (the unretired common case): one fill.
            return self._fill_words(key, low, span, width)
        ordered = np.sort(global_rows)
        cuts = np.flatnonzero((np.diff(ordered) - 1) * width > _SPLIT_GAP_WORDS)
        if cuts.size == 0:
            block = self._fill_words(key, low, span, width)
        else:
            # One fill per segment between expensive gaps. The gap rows
            # stay unwritten: the gather below never reads them.
            firsts = ordered[np.concatenate(([0], cuts + 1))].tolist()
            lasts = ordered[np.concatenate((cuts, [ordered.size - 1]))].tolist()
            block = np.empty((span, width), dtype=np.float64)
            for first, last in zip(firsts, lasts):
                block[first - low : last - low + 1] = self._fill_words(
                    key, first, last - first + 1, width
                )
        return block[global_rows - low]

    def _fill_words(
        self, key: np.ndarray, first_row: int, count: int, width: int
    ) -> np.ndarray:
        """Fill ``count`` consecutive replica rows of a site's stream,
        starting at global row ``first_row`` (absolute word
        addressing), through the backend hook when one is set."""
        start_word = first_row * width
        if self._backend is None:
            flat = philox_uniforms(key, start_word, count * width)
        else:
            flat = self._backend.philox_uniforms(key, start_word, count * width)
        return np.asarray(flat, dtype=np.float64).reshape(count, width)


def make_streams(
    policy: str,
    seed: SeedLike,
    num_replicas: int,
    backend: object | None = None,
) -> StreamLayout:
    """Build the stream layout for ``policy`` (see :data:`RNG_POLICIES`).

    ``backend`` (an :class:`repro.backends.ArrayBackend`, optional)
    routes the counter layout's Philox block fills through the
    backend's fill hook; the spawned layout's per-replica generators
    are host-sequential by construction and ignore it.
    """
    check_rng_policy(policy)
    if policy == "counter":
        return CounterStreams(seed, num_replicas, backend=backend)
    return SpawnedStreams(seed=seed, num_replicas=num_replicas)


def as_stream_layout(rngs: object) -> StreamLayout:
    """Coerce a kernel's ``rngs`` argument into a :class:`StreamLayout`.

    Existing call sites pass a plain sequence of per-replica generators;
    those wrap into a :class:`SpawnedStreams` (preserving the historical
    consumption bit-for-bit). A :class:`StreamLayout` passes through.
    """
    if isinstance(rngs, StreamLayout):
        return rngs
    return SpawnedStreams(list(rngs))
