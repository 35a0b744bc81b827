"""Seeded random-number streams and the geometric sampling primitives.

Every stochastic component of the library draws randomness through this
module rather than calling :mod:`numpy.random` directly.  That gives us:

* **Reproducibility** — every experiment takes a seed and produces the same
  output for the same seed, across processes.
* **Independent substreams** — a single experiment seed can be split into
  arbitrarily many statistically independent child streams (one per thread,
  per trial batch, per process stage) using ``numpy``'s ``SeedSequence``
  spawning, so adding a new consumer of randomness never perturbs existing
  ones.
* **The paper's distributions as first-class samplers** — the settling
  process consumes Bernoulli(s) swap outcomes and the shift process consumes
  geometric shifts with ``Pr[s_i = k] = (1 - beta) * beta**k``; both are
  provided here in scalar and vectorised forms.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator

import numpy as np

__all__ = ["RandomSource", "spawn_sources", "DEFAULT_SEED"]

#: Seed used by convenience constructors when the caller does not supply one.
DEFAULT_SEED = 0x5EED


class RandomSource:
    """A seeded, splittable stream of the random primitives the models need.

    Parameters
    ----------
    seed:
        Any value acceptable to :class:`numpy.random.SeedSequence` — an int,
        a sequence of ints, or an existing ``SeedSequence``.  ``None`` draws
        entropy from the OS (non-reproducible; discouraged outside
        exploratory use).

    Examples
    --------
    >>> src = RandomSource(7)
    >>> flip = src.bernoulli(0.5)
    >>> isinstance(flip, bool)
    True
    >>> shifts = src.geometric_array(0.5, size=4)
    >>> shifts.shape
    (4,)
    """

    def __init__(self, seed: int | np.random.SeedSequence | None = DEFAULT_SEED):
        if isinstance(seed, np.random.SeedSequence):
            self._sequence = seed
        else:
            self._sequence = np.random.SeedSequence(seed)
        self._generator = np.random.Generator(np.random.PCG64(self._sequence))

    @property
    def generator(self) -> np.random.Generator:
        """The underlying :class:`numpy.random.Generator`."""
        return self._generator

    def spawn(self, count: int) -> list["RandomSource"]:
        """Split off ``count`` statistically independent child sources."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return [RandomSource(child) for child in self._sequence.spawn(count)]

    def child(self) -> "RandomSource":
        """Split off a single independent child source."""
        return self.spawn(1)[0]

    # ------------------------------------------------------------------
    # Scalar primitives
    # ------------------------------------------------------------------

    def bernoulli(self, probability: float) -> bool:
        """Return ``True`` with the given probability.

        Probabilities of exactly 0 and 1 short-circuit without consuming
        randomness, so deterministic memory models (``s = 0`` pairs under
        SC) do not advance the stream.
        """
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return bool(self._generator.random() < probability)

    def geometric(self, beta: float) -> int:
        """Sample ``k >= 0`` with ``Pr[k] = (1 - beta) * beta**k``.

        This is the "shift" distribution of Definition 1 in the paper; for
        ``beta = 1/2`` it is ``Pr[k] = 2**-(k+1)``.  The distribution counts
        *failures before the first success* of a Bernoulli(1 - beta)
        process, hence the ``- 1`` relative to numpy's 1-based geometric.
        """
        _check_beta(beta)
        if beta == 0.0:
            return 0
        return int(self._generator.geometric(1.0 - beta)) - 1

    def uniform_int(self, low: int, high: int) -> int:
        """Sample an integer uniformly from ``[low, high]`` inclusive."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        return int(self._generator.integers(low, high + 1))

    # ------------------------------------------------------------------
    # Vectorised primitives
    # ------------------------------------------------------------------

    def bernoulli_array(self, probability: float, size: int | tuple[int, ...]) -> np.ndarray:
        """Vectorised :meth:`bernoulli`; returns a boolean array."""
        if not bernoulli_doubles(probability):
            return np.full(size, probability >= 1.0)
        return self._generator.random(size) < probability

    def geometric_array(self, beta: float, size: int | tuple[int, ...]) -> np.ndarray:
        """Vectorised :meth:`geometric`; returns an int64 array of shifts.

        The variates are ``Generator.geometric(1 - beta) - 1`` on this
        stream.  For a success probability ``p = 1 - beta >= 1/3``
        numpy draws by search, one uniform double ``u`` per variate, and
        the search returns what ``floor(log1p(-u) / log(beta))``
        computes from that same double, so that inversion
        (:func:`geometric_from_uniforms`) runs here in place on one
        uniform block: the same numbers in under half the time.  The two
        computations round differently only next to the CDF's steps; a
        scan around every step finds 53 such uniforms at
        ``beta = 1/2`` and 12 to 184 at ``beta`` in {0.1, 0.3, 0.6, 0.66,
        2/3}, out of the 2^53 that numpy draws from (below 3e-14 per
        variate).  Below ``p = 1/3`` numpy draws by another method, which
        is called as is.
        """
        _check_beta(beta)
        doubles = geometric_doubles(beta)
        if doubles == 0:
            return np.zeros(size, dtype=np.int64)
        if doubles is None:
            return self._generator.geometric(1.0 - beta, size=size).astype(np.int64) - 1
        return geometric_from_uniforms(self._generator.random(size), beta)

    def type_array(self, store_probability: float, size: int) -> np.ndarray:
        """Sample an instruction-type vector: ``True`` marks a store.

        This is the program-generation primitive of §3.1.1: each of the
        ``size`` body instructions is a ST with probability ``p``
        independently.
        """
        return self.bernoulli_array(store_probability, size)

    # ------------------------------------------------------------------
    # Stream positions
    # ------------------------------------------------------------------

    @property
    def seekable(self) -> bool:
        """Whether :meth:`uniforms_ahead` and :meth:`skip` work here.

        True on a PCG64 stream, where every uniform double is one 64-bit
        output and ``PCG64.advance`` moves past outputs without computing
        them.  Other bit generators advance by other units (Philox counts
        4-word blocks), so a :class:`PhiloxSource` is not seekable.
        """
        return type(self._generator.bit_generator) is np.random.PCG64

    def uniforms_ahead(self, offset: int, count: int) -> np.ndarray:
        """The ``count`` uniform doubles that start ``offset`` doubles ahead.

        Equal to drawing and discarding ``offset`` doubles, then drawing
        ``count``, but the stream does not move.  Seekable sources only.
        """
        bits = self._seekable_bits()
        state = bits.state
        bits.advance(offset)
        block = self._generator.random(count)
        bits.state = state
        return block

    def skip(self, count: int) -> None:
        """Move the stream past ``count`` uniform doubles, as drawing them would.

        ``advance`` also drops a buffered 32-bit half-word, which drawing
        doubles keeps for a later bounded integer draw, so it is put back.
        Seekable sources only.
        """
        bits = self._seekable_bits()
        state = bits.state
        bits.advance(count)
        moved = bits.state
        moved["has_uint32"], moved["uinteger"] = state["has_uint32"], state["uinteger"]
        bits.state = moved

    def _seekable_bits(self) -> np.random.PCG64:
        if not self.seekable:
            raise TypeError(f"{self!r} cannot seek: its bit generator is not PCG64")
        return self._generator.bit_generator

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RandomSource(entropy={self._sequence.entropy!r})"


def spawn_sources(seed: int | None, count: int) -> list[RandomSource]:
    """Create ``count`` independent sources from one experiment seed."""
    return RandomSource(seed).spawn(count)


def _philox_key(seed: int, path: tuple[int, ...]) -> np.ndarray:
    """The 128-bit Philox key for one ``(seed, path)`` counter address.

    A SHA-256 digest of the textual address, truncated to the two 64-bit
    key words Philox consumes.  Distinct addresses get independent keys
    (collisions are 2^-128 events); the derivation involves no Python
    hash randomisation and no process state, so the same address yields
    the same stream on every machine.
    """
    payload = "philox:" + repr(seed) + ":" + ":".join(str(p) for p in path)
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return np.frombuffer(digest[:16], dtype=np.uint64).copy()


class PhiloxSource(RandomSource):
    """A :class:`RandomSource` whose stream is a pure function of counters.

    The counter-based :class:`numpy.random.Philox` bit generator is
    keyed by a digest of ``(seed, path)`` alone, where ``path`` is a
    tuple of counter indices, so a stream is addressed directly instead
    of spawned.  The litmus family generator draws member ``i`` of a
    family from its own lane this way
    (:func:`repro.litmus.generate.family_member`).  A Philox source only
    draws: it has no ``SeedSequence`` and therefore no children.
    """

    def __init__(self, seed: int, path: tuple[int, ...]):
        self._address = (int(seed), tuple(int(index) for index in path))
        self._generator = np.random.Generator(
            np.random.Philox(key=_philox_key(*self._address)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "PhiloxSource(seed={!r}, path={!r})".format(*self._address)


__all__.append("PhiloxSource")


def bernoulli_doubles(probability: float) -> int:
    """Uniform doubles one entry of :meth:`RandomSource.bernoulli_array` draws.

    Zero at ``probability <= 0`` or ``>= 1``, which short-circuit; one
    otherwise.
    """
    return 0 if probability <= 0.0 or probability >= 1.0 else 1


def geometric_doubles(beta: float) -> int | None:
    """Uniform doubles one entry of :meth:`RandomSource.geometric_array` draws.

    Zero at ``beta = 0`` (the point mass); one where the success
    probability ``p = 1 - beta`` is at least 1/3, numpy's own test for
    drawing by search, which :func:`geometric_from_uniforms` inverts;
    ``None`` below it, where numpy's other method draws a variable count.
    """
    if beta == 0.0:
        return 0
    return 1 if 1.0 - beta >= 1.0 / 3.0 else None


def geometric_from_uniforms(u: np.ndarray, beta: float) -> np.ndarray:
    """``floor(log1p(-u) / log(beta))`` as int64, computed in place on ``u``.

    The geometric shift each uniform double ``u`` gives wherever
    :func:`geometric_doubles` is one.  ``u`` is overwritten.
    """
    np.negative(u, out=u)
    np.log1p(u, out=u)
    u /= np.log(beta)
    np.floor(u, out=u)
    return u.astype(np.int64)


__all__ += ["bernoulli_doubles", "geometric_doubles", "geometric_from_uniforms"]


def _check_beta(beta: float) -> None:
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"geometric ratio beta must lie in [0, 1), got {beta}")


def iter_batches(total: int, batch_size: int) -> Iterator[int]:
    """Yield batch sizes covering ``total`` trials in ``batch_size`` chunks.

    A convenience for Monte-Carlo loops that want vectorised batches with an
    exact total:

    >>> list(iter_batches(10, 4))
    [4, 4, 2]
    """
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    remaining = total
    while remaining > 0:
        step = min(batch_size, remaining)
        yield step
        remaining -= step


__all__.append("iter_batches")
