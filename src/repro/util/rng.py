"""Deterministic random-stream management.

MIDAS is a Monte Carlo algorithm: every round draws fresh random vectors
``v_i`` and field coefficients ``y``.  For reproducible experiments (and for
the parallel == sequential bit-exactness tests) every component that needs
randomness receives an :class:`RngStream` derived from a single root seed via
``numpy.random.SeedSequence`` spawning, so that

* the same root seed always produces the same detection transcript, and
* parallel ranks derive their randomness from the *round*, never from the
  rank, keeping results independent of the (N, N1, N2) decomposition.
"""

from __future__ import annotations

from typing import List, Union

import numpy as np

SeedLike = Union[int, None, np.random.SeedSequence, "RngStream"]


class RngStream:
    """A named, spawnable wrapper around ``numpy.random.Generator``.

    Parameters
    ----------
    seed:
        Root entropy.  ``None`` draws OS entropy (only sensible at the very
        top of an interactive session); experiments should always pass an int.
    name:
        Human-readable label used in ``repr`` and tracing output.
    """

    def __init__(self, seed: SeedLike = None, name: str = "root") -> None:
        if isinstance(seed, RngStream):
            seq = seed._seq.spawn(1)[0]
        elif isinstance(seed, np.random.SeedSequence):
            seq = seed
        else:
            seq = np.random.SeedSequence(seed)
        self._seq = seq
        self._gen = np.random.default_rng(seq)
        self.name = name

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator."""
        return self._gen

    def spawn(self, n: int, prefix: str = "child") -> List["RngStream"]:
        """Derive ``n`` statistically independent child streams."""
        if n < 0:
            raise ValueError(f"cannot spawn a negative number of streams: {n}")
        return [
            RngStream(seq, name=f"{self.name}/{prefix}{i}")
            for i, seq in enumerate(self._seq.spawn(n))
        ]

    def child(self, label: str) -> "RngStream":
        """Derive a single child stream labeled ``label``.

        The child's entropy depends on the spawn *order*, so callers must
        request children in a deterministic order (they do: rounds ascend).
        """
        return RngStream(self._seq.spawn(1)[0], name=f"{self.name}/{label}")

    def children_ahead(self, labels: List[str]) -> List["RngStream"]:
        """The streams the next ``len(labels)`` :meth:`child` calls will
        return, labeled alike, without spawning them: they come from a
        copy of the spawn lineage, so this stream's position — and with
        it :meth:`state` — is unchanged."""
        seq = self._seq
        ahead = np.random.SeedSequence(
            seq.entropy, spawn_key=seq.spawn_key, pool_size=seq.pool_size,
            n_children_spawned=seq.n_children_spawned)
        return [RngStream(child, name=f"{self.name}/{label}")
                for child, label in zip(ahead.spawn(len(labels)), labels)]

    # -- serializable lineage ----------------------------------------------
    def state(self) -> dict:
        """The JSON-safe spawn lineage of this stream.

        ``SeedSequence`` is fully determined by ``(entropy, spawn_key,
        n_children_spawned)``, so :meth:`from_state` rebuilds a stream
        whose *future* children are bit-identical to this one's — this is
        what lets a seed policy cross a process or network boundary (the
        detection service) without perturbing the transcript.  Generator
        *position* (draws already consumed) is deliberately not captured:
        ship streams before drawing from them.
        """
        seq = self._seq
        entropy = seq.entropy  # an int, or a sequence of ints
        if isinstance(entropy, (list, tuple, np.ndarray)):
            entropy = [int(x) for x in entropy]
        else:
            entropy = int(entropy)
        return {
            "entropy": entropy,
            "spawn_key": [int(x) for x in seq.spawn_key],
            "n_children_spawned": int(seq.n_children_spawned),
        }

    @classmethod
    def from_state(cls, state: dict, name: str = "restored") -> "RngStream":
        """Rebuild a stream captured with :meth:`state` (see its caveat)."""
        entropy = state["entropy"]
        if isinstance(entropy, (list, tuple)):
            entropy = [int(x) for x in entropy]
        else:
            entropy = int(entropy)
        seq = np.random.SeedSequence(
            entropy,
            spawn_key=tuple(int(x) for x in state.get("spawn_key", ())),
            n_children_spawned=int(state.get("n_children_spawned", 0)),
        )
        return cls(seq, name=name)

    # -- convenience draws -------------------------------------------------
    def integers(self, low, high=None, size=None, dtype=np.int64):
        return self._gen.integers(low, high=high, size=size, dtype=dtype)

    def random(self, size=None):
        return self._gen.random(size=size)

    def choice(self, a, size=None, replace=True, p=None):
        return self._gen.choice(a, size=size, replace=replace, p=p)

    def permutation(self, x):
        return self._gen.permutation(x)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self._gen.normal(loc=loc, scale=scale, size=size)

    def poisson(self, lam=1.0, size=None):
        return self._gen.poisson(lam=lam, size=size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RngStream(name={self.name!r})"


def spawn_rngs(seed: SeedLike, n: int, prefix: str = "stream") -> List[RngStream]:
    """Create ``n`` independent :class:`RngStream` objects from one seed."""
    return RngStream(seed, name="root").spawn(n, prefix=prefix)


def as_stream(seed: SeedLike, name: str = "anon") -> RngStream:
    """Coerce ints/None/SeedSequence/RngStream into an :class:`RngStream`."""
    if isinstance(seed, RngStream):
        return seed
    return RngStream(seed, name=name)
